"""Plain-text experiment configuration.

Configs are flat INI-style key = value files with five sections:

    [problem]     family, d, design, r, sigma, sigma2, x_star
    [method]      solver, tau, sketch, gaussian_q
    [schedule]    c_beta, beta, c_chi, chi, mode
    [experiment]  n_iters, n_reps, base_seed, record_every, ci_level,
                  ci_direction, estimators
    [output]      aggregate, summary, oracle_prefix

Every key has a documented default (see DEFAULTS in the README); unknown
sections or keys are rejected by name.  parse/serialize round-trip exactly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from typing import Optional, Tuple

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


@dataclass(frozen=True)
class ProblemConfig:
    family: str = "linear"
    d: int = 5
    design: str = "identity"
    r: float = 0.0
    sigma: float = 1.0
    sigma2: float = 0.01
    x_star: Optional[Tuple[float, ...]] = None

    @property
    def is_constrained(self) -> bool:
        return self.family in SQP_FAMILIES


@dataclass(frozen=True)
class MethodConfig:
    solver: str = "newton"
    tau: Optional[int] = None  # None = exact solve
    sketch: str = "kaczmarz"
    gaussian_q: int = 1


@dataclass(frozen=True)
class ScheduleConfig:
    c_beta: float = 1.0
    beta: float = 0.505
    c_chi: float = 1.0
    chi: float = 1.01
    mode: str = "uniform_band"


@dataclass(frozen=True)
class ExperimentSection:
    n_iters: int = 10_000
    n_reps: int = 50
    base_seed: int = 0
    record_every: int = 100
    ci_level: float = 0.95
    ci_direction: str = "mean"
    estimators: Tuple[str, ...] = ("wsc",)


@dataclass(frozen=True)
class OutputConfig:
    aggregate: str = "aggregate.csv"
    summary: str = "summary.csv"
    oracle_prefix: Optional[str] = None


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
            return builtin_problem(p.family)
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


# ---------------------------------------------------------------------------
# parsing

_SCHEMA = {
    "problem": ("family", "d", "design", "r", "sigma", "sigma2", "x_star"),
    "method": ("solver", "tau", "sketch", "gaussian_q"),
    "schedule": ("c_beta", "beta", "c_chi", "chi", "mode"),
    "experiment": ("n_iters", "n_reps", "base_seed", "record_every",
                   "ci_level", "ci_direction", "estimators"),
    "output": ("aggregate", "summary", "oracle_prefix"),
}


def _get(parser, section, key, cast, default):
    if not parser.has_section(section) or not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _parse_tau(raw: str) -> Optional[int]:
    if raw.lower() == "exact":
        return None
    tau = int(raw)
    if tau < 1:
        raise ValueError("tau must be >= 1 or 'exact'")
    return tau


def _parse_x_star(raw: str) -> Optional[Tuple[float, ...]]:
    if raw.lower() == "one_over_d":
        return None
    return tuple(float(v) for v in raw.split(","))


def _check_direction(raw: str) -> str:
    # the weights themselves need the problem's dimension (direction_vector)
    if raw.startswith("coord:"):
        int(raw.split(":", 1)[1])
    elif raw not in ("mean", "inactive"):
        [float(v) for v in raw.split(",")]
    return raw


def _parse_estimators(raw: str) -> Tuple[str, ...]:
    names = tuple(v.strip() for v in raw.split(",") if v.strip())
    for name in names:
        if name not in ("wsc", "plugin", "batchmeans"):
            raise ValueError(f"unknown estimator {name!r}")
    if not names:
        raise ValueError("estimator list is empty")
    return names


def parse_config_string(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    family = _get(parser, "problem", "family", str, "linear")
    if family not in REGRESSION_FAMILIES + SQP_FAMILIES:
        raise ConfigError(f"[problem] unknown family {family!r}")
    solver = _get(parser, "method", "solver", str, "newton")
    if solver not in ("newton", "sgd"):
        raise ConfigError(f"[method] unknown solver {solver!r}")

    # without d, the dimension follows x_star; with both, they must agree
    x_star = _get(parser, "problem", "x_star", _parse_x_star, None)
    d = _get(parser, "problem", "d", int, 5 if x_star is None else len(x_star))
    if x_star is not None and d != len(x_star):
        raise ConfigError(f"[problem] d = {d} but x_star has {len(x_star)} "
                          "values")
    problem = ProblemConfig(
        family=family,
        d=d,
        design=_get(parser, "problem", "design", str, "identity"),
        r=_get(parser, "problem", "r", float, 0.0),
        sigma=_get(parser, "problem", "sigma", float, 1.0),
        sigma2=_get(parser, "problem", "sigma2", float, 0.01),
        x_star=x_star,
    )
    if problem.design not in ("identity", "toeplitz", "equicorr"):
        raise ConfigError(f"[problem] unknown design {problem.design!r}")
    if problem.d < 1:
        raise ConfigError("[problem] d must be >= 1")
    if family == "linear" and problem.sigma <= 0.0:
        # zero response noise makes the limiting covariance identically
        # zero, so every relative metric in the harness would divide by it
        raise ConfigError("[problem] sigma must be > 0 for linear studies")
    if problem.sigma2 < 0.0:
        raise ConfigError("[problem] sigma2 must be >= 0")

    sketch = _get(parser, "method", "sketch", str, "kaczmarz")
    if sketch not in ("kaczmarz", "gaussian"):
        raise ConfigError(f"[method] unknown sketch {sketch!r}")
    method = MethodConfig(
        solver=solver,
        tau=_get(parser, "method", "tau", _parse_tau, None),
        sketch=sketch,
        gaussian_q=_get(parser, "method", "gaussian_q", int, 1),
    )
    if method.gaussian_q < 1:
        raise ConfigError("[method] gaussian_q must be >= 1")

    # schedule defaults depend on the solver: the first-order baseline uses
    # the deterministic half-rate rule, Newton uses the uniform band with
    # chi_t = beta_t^2
    if solver == "sgd":
        def_c_beta, def_c_chi, def_mode = 0.5, 0.0, "deterministic"
    else:
        def_c_beta, def_c_chi, def_mode = 1.0, 1.0, "uniform_band"
    beta = _get(parser, "schedule", "beta", float, 0.505)
    schedule = ScheduleConfig(
        c_beta=_get(parser, "schedule", "c_beta", float, def_c_beta),
        beta=beta,
        c_chi=_get(parser, "schedule", "c_chi", float, def_c_chi),
        chi=_get(parser, "schedule", "chi", float, 2.0 * beta),
        mode=_get(parser, "schedule", "mode", str, def_mode),
    )

    default_estimators = ("batchmeans",) if solver == "sgd" else ("wsc", "plugin")
    if problem.is_constrained:
        default_estimators = ("wsc",)
    default_direction = "inactive" if problem.is_constrained else "mean"
    experiment = ExperimentSection(
        n_iters=_get(parser, "experiment", "n_iters", int, 10_000),
        n_reps=_get(parser, "experiment", "n_reps", int, 50),
        base_seed=_get(parser, "experiment", "base_seed", int, 0),
        record_every=_get(parser, "experiment", "record_every", int, 100),
        ci_level=_get(parser, "experiment", "ci_level", float, 0.95),
        ci_direction=_get(parser, "experiment", "ci_direction",
                          _check_direction, default_direction),
        estimators=_get(parser, "experiment", "estimators", _parse_estimators,
                        default_estimators),
    )

    output = OutputConfig(
        aggregate=_get(parser, "output", "aggregate", str, "aggregate.csv"),
        summary=_get(parser, "output", "summary", str, "summary.csv"),
        oracle_prefix=_get(parser, "output", "oracle_prefix", str, None),
    )

    cfg = ExperimentConfig(problem=problem, method=method, schedule=schedule,
                           experiment=experiment, output=output)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    exp = cfg.experiment
    if exp.n_iters < 1:
        raise ConfigError("[experiment] n_iters must be >= 1")
    if exp.n_reps < 1:
        raise ConfigError("[experiment] n_reps must be >= 1")
    if exp.base_seed < 0:
        raise ConfigError("[experiment] base_seed must be >= 0")
    if exp.record_every < 1:
        raise ConfigError("[experiment] record_every must be >= 1")
    if not 0.0 < exp.ci_level < 1.0:
        raise ConfigError("[experiment] ci_level must lie in (0, 1)")
    solver = cfg.method.solver
    for name in exp.estimators:
        if name == "batchmeans" and solver != "sgd":
            raise ConfigError(
                "[experiment] estimator batchmeans targets the averaged "
                "first-order baseline; it requires solver = sgd")
        if name in ("wsc", "plugin") and solver != "newton":
            raise ConfigError(
                f"[experiment] estimator {name} targets the Newton iterates; "
                "it requires solver = newton")
    if solver == "sgd":
        if cfg.method.tau is not None:
            raise ConfigError("[method] solver = sgd always solves exactly "
                              "(B frozen at identity); drop tau")
        if cfg.problem.is_constrained:
            raise ConfigError("[method] constrained problems need solver = newton")
        if not 0.5 < cfg.schedule.beta < 1.0:
            raise ConfigError("[schedule] batch means need beta in (1/2, 1)")
    if cfg.problem.is_constrained and "plugin" in exp.estimators:
        raise ConfigError("[experiment] plugin is not defined for "
                          "constrained problems")
    if ("plugin" in exp.estimators and cfg.schedule.beta == 1.0
            and cfg.schedule.c_beta <= 0.5):
        raise ConfigError("[schedule] the plugin scaling needs "
                          "c_beta > 1/2 when beta = 1")
    # schedule parameter ranges are enforced by the schedule itself
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
    parser = configparser.ConfigParser(interpolation=None)
    p, m, s, e, o = (cfg.problem, cfg.method, cfg.schedule,
                     cfg.experiment, cfg.output)
    parser["problem"] = {
        "family": p.family,
        "d": str(p.d),
        "design": p.design,
        "r": repr(p.r),
        "sigma": repr(p.sigma),
        "sigma2": repr(p.sigma2),
        "x_star": ("one_over_d" if p.x_star is None
                   else ",".join(repr(v) for v in p.x_star)),
    }
    parser["method"] = {
        "solver": m.solver,
        "sketch": m.sketch,
        "gaussian_q": str(m.gaussian_q),
    }
    if m.solver != "sgd":
        parser["method"]["tau"] = "exact" if m.tau is None else str(m.tau)
    parser["schedule"] = {
        "c_beta": repr(s.c_beta),
        "beta": repr(s.beta),
        "c_chi": repr(s.c_chi),
        "chi": repr(s.chi),
        "mode": s.mode,
    }
    parser["experiment"] = {
        "n_iters": str(e.n_iters),
        "n_reps": str(e.n_reps),
        "base_seed": str(e.base_seed),
        "record_every": str(e.record_every),
        "ci_level": repr(e.ci_level),
        "ci_direction": e.ci_direction,
        "estimators": ",".join(e.estimators),
    }
    parser["output"] = {
        "aggregate": o.aggregate,
        "summary": o.summary,
    }
    if o.oracle_prefix is not None:
        parser["output"]["oracle_prefix"] = o.oracle_prefix
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
