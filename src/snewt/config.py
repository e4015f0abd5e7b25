"""Plain-text experiment configuration.

Configs are flat INI-style key = value files with five sections:

    [problem]     family, d, design, r, sigma, sigma2, x_star
    [method]      solver, tau, sketch, gaussian_q
    [schedule]    c_beta, beta, c_chi, chi, mode
    [experiment]  n_iters, n_reps, base_seed, record_every, ci_level,
                  ci_direction, estimators
    [output]      aggregate, summary, oracle_prefix

Each key is defined once, as a field of its section's dataclass
(ProblemConfig, MethodConfig, ScheduleConfig, ExperimentSection,
OutputConfig).  The field holds the key's default; its metadata holds the
cast that reads and range-checks raw text and renders a value back, and,
where the default depends on other keys, the rule that derives it, and,
where the family or method does not always read the key, the rule that
says when it does: a key it does not read is an error when given and is
not written.  parse_config_string and serialize_config walk those fields
and round-trip exactly; _validate holds the other rules that tie keys
together.  Every error names its section and key.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Tuple

import numpy as np

from .optimizer import StepsizeSchedule
from .problems import DesignCovSpec, RegressionModel, default_x_star
from .sketch import SketchDistribution, SketchSolveConfig
from .sqp import EqConstrainedProblem, builtin_problem

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "MethodConfig",
    "ScheduleConfig",
    "ExperimentSection",
    "OutputConfig",
    "ExperimentConfig",
    "parse_config",
    "parse_config_string",
    "serialize_config",
]

REGRESSION_FAMILIES = ("linear", "logistic")
SQP_FAMILIES = ("eqqp", "maratos", "hs7")


class ConfigError(ValueError):
    """Invalid configuration file; the message names the offending key."""


# ---------------------------------------------------------------------------
# casts


class _Cast:
    """Called on raw text, a cast returns the value or raises ValueError;
    render turns a value back into text (None: the key is not written).
    This base cast keeps any text as it stands."""

    def __call__(self, raw: str):
        return raw

    @staticmethod
    def render(value) -> Optional[str]:
        return None if value is None else str(value)


@dataclass(frozen=True)
class _Number(_Cast):
    """A finite int or float between `low` and `high`."""

    kind: type
    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False  # the bound itself is out of range
    open_high: bool = False

    def __call__(self, raw: str):
        try:
            value = self.kind(raw)
        except ValueError:
            raise ValueError("must be an integer" if self.kind is int
                             else "must be a number") from None
        if not math.isfinite(value):
            raise ValueError("must be finite")
        if (value < self.low or value > self.high
                or (self.open_low and value == self.low)
                or (self.open_high and value == self.high)):
            if self.high == math.inf:
                raise ValueError(
                    f"must be {'>' if self.open_low else '>='} {self.low:g}")
            raise ValueError(
                f"must lie in {'(' if self.open_low else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.open_high else ']'}")
        return value


@dataclass(frozen=True)
class _Choice(_Cast):
    """One word of `options`."""

    options: Tuple[str, ...]

    def __call__(self, raw: str) -> str:
        if raw not in self.options:
            raise ValueError(f"must be one of {', '.join(self.options)}")
        return raw


@dataclass(frozen=True)
class _List(_Cast):
    """Comma-separated values, each through `cast`."""

    cast: _Cast

    def __call__(self, raw: str) -> tuple:
        return tuple(self.cast(v.strip()) for v in raw.split(","))

    def render(self, value: tuple) -> str:
        return ",".join(self.cast.render(v) for v in value)


class _Direction(_Cast):
    """mean, inactive, coord:<i>, or weights that are not all zero (whether
    they fit the problem's dimension is direction_vector's check)."""

    def __call__(self, raw: str) -> str:
        if raw.startswith("coord:"):
            _Number(int, 0)(raw.split(":", 1)[1])
        elif raw not in ("mean", "inactive") and not any(
                _List(_Number(float))(raw)):
            raise ValueError("must not be all zero")
        return raw


@dataclass(frozen=True)
class _Unless(_Cast):
    """`word` stands for None; any other text goes through `cast`."""

    word: str
    cast: _Cast

    def __call__(self, raw: str):
        return None if raw.lower() == self.word else self.cast(raw)

    def render(self, value) -> str:
        return self.word if value is None else self.cast.render(value)


def _key(default, cast, derive: Optional[Callable] = None, read=()):
    """A key's field.  derive(values, key) gives a default that depends on
    other keys; values maps every key (unique across sections) to its
    given value or field default.  read holds conditions (by, ok): the key
    is read only while ok(value of key `by`) holds for each."""
    return field(default=default,
                 metadata={"cast": cast, "derive": derive, "read": read})


def _is(by: str, *options):
    """Read condition: key `by` takes one of `options`."""
    return by, lambda value: value in options


def _unread(f, values) -> Optional[str]:
    """The key whose value stops a config with these values from reading
    key f (None: it reads f).  A key it does not read is an error when
    given, and serialize_config does not write it."""
    return next((by for by, ok in f.metadata["read"] if not ok(values[by])),
                None)


def _sgd(value):
    """Derive rule: `value` for solver = sgd, else the field default."""
    return lambda v, key: value if v["solver"] == "sgd" else v[key]


# ---------------------------------------------------------------------------
# sections


_SQRT_MAX = math.sqrt(np.finfo(float).max)
_REGRESSION = (_is("family", *REGRESSION_FAMILIES),)
_NEWTON = (_is("solver", "newton"),)
# sketch and gaussian_q shape sketched solves only
_SKETCHED = _NEWTON + (("tau", lambda tau: tau is not None),)


@dataclass(frozen=True)
class ProblemConfig:
    family: str = _key("linear", _Choice(REGRESSION_FAMILIES + SQP_FAMILIES))
    # without d, the dimension follows x_star
    d: int = _key(5, _Number(int, 1), lambda v, key: (
        v[key] if v["x_star"] is None else len(v["x_star"])),
        read=_REGRESSION)
    design: str = _key("identity",
                       _Choice(("identity", "toeplitz", "equicorr")),
                       read=_REGRESSION)
    r: float = _key(0.0, _Number(float), read=_REGRESSION)
    # the oracle squares sigma, so its square must be a finite float
    sigma: float = _key(1.0, _Number(float, -_SQRT_MAX, _SQRT_MAX),
                        read=(_is("family", "linear"),))
    sigma2: float = _key(0.01, _Number(float, 0.0),
                         read=(_is("family", *SQP_FAMILIES),))
    x_star: Optional[Tuple[float, ...]] = _key(
        None, _Unless("one_over_d", _List(_Number(float))), read=_REGRESSION)

    @property
    def is_constrained(self) -> bool:
        return self.family in SQP_FAMILIES


@dataclass(frozen=True)
class MethodConfig:
    solver: str = _key("newton", _Choice(("newton", "sgd")))
    # sgd always solves exactly (B frozen at identity)
    tau: Optional[int] = _key(None, _Unless("exact", _Number(int, 1)),
                              read=_NEWTON)
    sketch: str = _key("kaczmarz", _Choice(("kaczmarz", "gaussian")),
                       read=_SKETCHED)
    gaussian_q: int = _key(1, _Number(int, 1),
                           read=_SKETCHED + (_is("sketch", "gaussian"),))


# The first-order baseline defaults to the deterministic half-rate rule;
# Newton uses the uniform band with chi_t = beta_t^2.
@dataclass(frozen=True)
class ScheduleConfig:
    c_beta: float = _key(1.0, _Number(float, 0.0, open_low=True), _sgd(0.5))
    beta: float = _key(0.505, _Number(float, 0.5, 1.0, open_low=True))
    c_chi: float = _key(1.0, _Number(float, 0.0), _sgd(0.0))
    chi: float = _key(1.01, _Number(float), lambda v, key: 2.0 * v["beta"])
    mode: str = _key("uniform_band",
                     _Choice(("uniform_band", "deterministic")),
                     _sgd("deterministic"))


@dataclass(frozen=True)
class ExperimentSection:
    n_iters: int = _key(10_000, _Number(int, 1))
    n_reps: int = _key(50, _Number(int, 1))
    base_seed: int = _key(0, _Number(int, 0))
    record_every: int = _key(100, _Number(int, 1))
    ci_level: float = _key(0.95, _Number(float, 0.0, 1.0, open_low=True,
                                         open_high=True))
    ci_direction: str = _key("mean", _Direction(), lambda v, key: (
        "inactive" if v["family"] in SQP_FAMILIES else v[key]))
    # the field default, wsc alone, is the constrained families' default
    estimators: Tuple[str, ...] = _key(
        ("wsc",), _List(_Choice(("wsc", "plugin", "batchmeans"))),
        lambda v, key: (
            v[key] if v["family"] in SQP_FAMILIES
            else ("batchmeans",) if v["solver"] == "sgd"
            else ("wsc", "plugin")))


@dataclass(frozen=True)
class OutputConfig:
    aggregate: str = _key("aggregate.csv", _Cast())
    summary: str = _key("summary.csv", _Cast())
    oracle_prefix: Optional[str] = _key(None, _Cast())


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = ProblemConfig()
    method: MethodConfig = MethodConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    experiment: ExperimentSection = ExperimentSection()
    output: OutputConfig = OutputConfig()

    # ---- builders -------------------------------------------------------

    def build_problem(self):
        p = self.problem
        if p.is_constrained:
            return builtin_problem(p.family, p.sigma2)
        x_star = (np.asarray(p.x_star, dtype=float) if p.x_star is not None
                  else default_x_star(p.d))
        try:
            return RegressionModel(
                family=p.family,
                x_star=x_star,
                design=DesignCovSpec(kind=p.design, r=p.r),
                sigma=p.sigma,
            )
        except ValueError as exc:
            raise ConfigError(f"[problem] {exc}") from exc

    def build_schedule(self) -> StepsizeSchedule:
        s = self.schedule
        try:
            return StepsizeSchedule(c_beta=s.c_beta, beta=s.beta,
                                    c_chi=s.c_chi, chi=s.chi, mode=s.mode)
        except ValueError as exc:
            raise ConfigError(f"[schedule] {exc}") from exc

    def build_solve_config(self) -> SketchSolveConfig:
        m = self.method
        if m.sketch == "kaczmarz":
            dist = SketchDistribution(kind="uniform_coordinate")
        else:
            dist = SketchDistribution(kind="gaussian", q=m.gaussian_q)
        return SketchSolveConfig(dist=dist, tau=m.tau)

    def direction_vector(self, problem) -> np.ndarray:
        """Resolve ci_direction into a weight vector w."""
        d = problem.dim
        spec = self.experiment.ci_direction
        if spec == "mean":
            return np.full(d, 1.0 / d)
        if spec == "inactive":
            if not isinstance(problem, EqConstrainedProblem):
                raise ConfigError(
                    "[experiment] ci_direction=inactive needs a constrained problem")
            w = np.zeros(d)
            w[list(problem.inactive)] = 1.0 / len(problem.inactive)
            return w
        if spec.startswith("coord:"):
            i = int(spec.split(":", 1)[1])
            if not 0 <= i < d:
                raise ConfigError(f"[experiment] ci_direction coordinate {i} "
                                  f"out of range for d={d}")
            w = np.zeros(d)
            w[i] = 1.0
            return w
        vals = np.array([float(v) for v in spec.split(",")])
        if vals.shape[0] != d:
            raise ConfigError("[experiment] ci_direction vector has wrong length")
        return vals


# section name -> section dataclass, and (section, field) for every key,
# in file order
_SECTIONS = {f.name: type(f.default) for f in fields(ExperimentConfig)}
_KEYS = [(section, f) for section, cls in _SECTIONS.items()
         for f in fields(cls)]
_FIELDS = {f.name: f for _, f in _KEYS}


# ---------------------------------------------------------------------------
# parsing


def parse_config_string(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    # configparser would copy [DEFAULT] keys into every section present
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        known = {f.name for f in fields(_SECTIONS[section])}
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    # configparser strips the raw text of each value
    values, derived = {}, []
    for section, f in _KEYS:
        raw = parser.get(section, f.name, fallback=None)
        if raw is None:
            values[f.name] = f.default
            if f.metadata["derive"] is not None:
                derived.append(f)
            continue
        try:
            values[f.name] = f.metadata["cast"](raw)
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] {f.name} {exc}, got {raw!r}") from exc
    # read rules test family, solver, tau and sketch, which no rule derives
    for section, f in _KEYS:
        if parser.has_option(section, f.name) and (
                by := _unread(f, values)) is not None:
            shown = _FIELDS[by].metadata["cast"].render(values[by])
            raise ConfigError(f"[{section}] {f.name} is not read when "
                              f"{by} = {shown}; drop it")
    # derived defaults read only keys without a derive rule, so the order
    # in which they are filled in does not matter
    values.update({f.name: f.metadata["derive"](values, f.name)
                   for f in derived})

    cfg = ExperimentConfig(**{
        section: cls(**{f.name: values[f.name] for f in fields(cls)})
        for section, cls in _SECTIONS.items()})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """The rules that tie keys together; each key's own range is its cast's."""
    p, exp, solver = cfg.problem, cfg.experiment, cfg.method.solver
    if p.x_star is not None and p.d != len(p.x_star):
        raise ConfigError(f"[problem] d = {p.d} but x_star has "
                          f"{len(p.x_star)} values")
    if p.family == "linear" and p.sigma <= 0.0:
        # zero response noise makes the limiting covariance identically
        # zero, so every relative metric in the harness would divide by it
        raise ConfigError("[problem] sigma must be > 0 for linear studies")
    for i, name in enumerate(exp.estimators):
        if name in exp.estimators[:i]:
            raise ConfigError(f"[experiment] estimators lists {name} twice")
        if name == "batchmeans" and solver != "sgd":
            raise ConfigError(
                "[experiment] estimator batchmeans targets the averaged "
                "first-order baseline; it requires solver = sgd")
        if name in ("wsc", "plugin") and solver != "newton":
            raise ConfigError(
                f"[experiment] estimator {name} targets the Newton iterates; "
                "it requires solver = newton")
    if solver == "sgd":
        if p.is_constrained:
            raise ConfigError("[method] constrained problems need solver = newton")
        if not 0.5 < cfg.schedule.beta < 1.0:
            raise ConfigError("[schedule] batch means need beta in (1/2, 1)")
    if p.is_constrained and "plugin" in exp.estimators:
        raise ConfigError("[experiment] plugin is not defined for "
                          "constrained problems")
    if (solver == "newton" and not p.is_constrained
            and cfg.schedule.beta == 1.0 and cfg.schedule.c_beta <= 0.5):
        raise ConfigError("[schedule] the oracle and plugin scalings need "
                          "c_beta > 1/2 when beta = 1")
    # the band must shrink (chi >= beta when c_chi > 0); the schedule
    # itself enforces that
    cfg.build_schedule()


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_string(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config with every resolved value explicit (round-trips)."""
    values = {f.name: getattr(getattr(cfg, s), f.name) for s, f in _KEYS}
    parser = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        parser[section] = {
            f.name: text for s, f in _KEYS
            if s == section and _unread(f, values) is None
            and (text := f.metadata["cast"].render(values[f.name])) is not None}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
