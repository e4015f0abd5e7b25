"""Tests for the INI experiment-configuration layer."""

import configparser
import dataclasses
import math
import pathlib
import re
import typing

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from snewt import config
from snewt.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_string,
    serialize_config,
)
from snewt.problems import RegressionModel
from snewt.sqp import EqConstrainedProblem


def test_empty_config_gives_documented_defaults():
    cfg = parse_config_string("")
    assert cfg.problem.family == "linear"
    assert cfg.problem.d == 5
    assert cfg.problem.design == "identity"
    assert cfg.problem.sigma == 1.0
    assert cfg.problem.x_star is None
    assert cfg.method.solver == "newton"
    assert cfg.method.tau is None
    assert cfg.method.sketch == "kaczmarz"
    assert cfg.schedule.c_beta == 1.0
    assert cfg.schedule.beta == 0.505
    assert cfg.schedule.c_chi == 1.0
    assert cfg.schedule.chi == 1.01
    assert cfg.schedule.mode == "uniform_band"
    assert cfg.experiment.n_iters == 10_000
    assert cfg.experiment.n_reps == 50
    assert cfg.experiment.record_every == 100
    assert cfg.experiment.ci_level == 0.95
    assert cfg.experiment.ci_direction == "mean"
    assert cfg.experiment.estimators == ("wsc", "plugin")
    assert cfg.output.aggregate == "aggregate.csv"
    assert cfg.output.oracle_prefix is None


def test_unknown_sections_and_keys_are_named():
    with pytest.raises(ConfigError, match="weird"):
        parse_config_string("[weird]\nx = 1\n")
    with pytest.raises(ConfigError, match="granularity"):
        parse_config_string("[problem]\ngranularity = 2\n")


def test_default_section_is_rejected():
    # its keys were ignored without a [problem] section and applied with one
    for text in ("[DEFAULT]\nd = 3\n", "[DEFAULT]\nd = 3\n[problem]\n"):
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            parse_config_string(text)


def test_bad_values_name_the_key():
    with pytest.raises(ConfigError, match=r"\[schedule\]"):
        parse_config_string("[schedule]\nbeta = 1.5\n")
    with pytest.raises(ConfigError, match="tau"):
        parse_config_string("[method]\ntau = 0\n")
    with pytest.raises(ConfigError, match="d must be >= 1"):
        parse_config_string("[problem]\nd = 0\n")
    with pytest.raises(ConfigError, match="n_iters"):
        parse_config_string("[experiment]\nn_iters = 0\n")
    with pytest.raises(ConfigError, match="ci_level"):
        parse_config_string("[experiment]\nci_level = 1.0\n")
    with pytest.raises(ConfigError, match="family"):
        parse_config_string("[problem]\nfamily = probit\n")
    with pytest.raises(ConfigError, match="design"):
        parse_config_string("[problem]\ndesign = wishart\n")
    with pytest.raises(ConfigError, match="sketch"):
        parse_config_string("[method]\nsketch = hadamard\n")
    with pytest.raises(ConfigError, match="solver"):
        parse_config_string("[method]\nsolver = adam\n")
    with pytest.raises(ConfigError, match="sigma2"):
        parse_config_string("[problem]\nfamily = eqqp\nsigma2 = -1\n")
    # sigma is squared in the oracle: its square must be a finite float
    with pytest.raises(ConfigError, match=r"\[problem\] sigma must lie in"):
        parse_config_string("[problem]\nsigma = 1e200\n")
    with pytest.raises(ConfigError, match="base_seed"):
        parse_config_string("[experiment]\nbase_seed = -1\n")
    with pytest.raises(ConfigError, match="gaussian_q"):
        parse_config_string("[method]\nsketch = gaussian\ngaussian_q = 0\n")
    with pytest.raises(ConfigError, match="ci_direction"):
        parse_config_string("[experiment]\nci_direction = coord:abc\n")
    with pytest.raises(ConfigError, match="ci_direction"):
        parse_config_string("[experiment]\nci_direction = 1,2,x\n")
    with pytest.raises(ConfigError, match=r"\[problem\] d = 5"):
        parse_config_string("[problem]\nd = 5\nx_star = 1.0,2.0\n")


def test_tau_parsing():
    assert parse_config_string("[method]\ntau = exact\n").method.tau is None
    assert parse_config_string("[method]\ntau = 3\n").method.tau == 3


def test_estimator_parsing():
    cfg = parse_config_string("[experiment]\nestimators = wsc, plugin\n")
    assert cfg.experiment.estimators == ("wsc", "plugin")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config_string("[experiment]\nestimators = bogus\n")
    with pytest.raises(ConfigError, match="estimator"):
        parse_config_string("[experiment]\nestimators = ,\n")


def test_an_estimator_listed_twice_is_an_error():
    # it would print its line twice and write two identical summary rows
    for text in ("wsc, wsc, plugin", "plugin, wsc, plugin"):
        with pytest.raises(ConfigError, match="estimators lists .* twice"):
            parse_config_string(f"[experiment]\nestimators = {text}\n")
    # other lists may repeat a value
    cfg = parse_config_string("[problem]\nx_star = 0.5, 0.5\n"
                              "[experiment]\nci_direction = 1, 1\n")
    assert cfg.problem.x_star == (0.5, 0.5)


def test_every_committed_config_parses():
    paths = sorted((pathlib.Path(__file__).resolve().parents[1]
                    / "scripts" / "configs").glob("*.ini"))
    assert {p.name for p in paths} >= {
        "constrained.ini", "exact_solve.ini", "mean_functional.ini",
        "sgd_baseline.ini"}
    for path in paths:
        cfg = parse_config(str(path))
        assert cfg == parse_config_string(serialize_config(cfg)), path.name


def test_estimators_are_tied_to_their_solver():
    with pytest.raises(ConfigError, match="batchmeans"):
        parse_config_string("[experiment]\nestimators = batchmeans\n")
    with pytest.raises(ConfigError, match="wsc"):
        parse_config_string(
            "[method]\nsolver = sgd\n[experiment]\nestimators = wsc\n")


def test_sgd_solver_defaults_and_restrictions():
    cfg = parse_config_string("[method]\nsolver = sgd\n")
    assert cfg.schedule.c_beta == 0.5
    assert cfg.schedule.c_chi == 0.0
    assert cfg.schedule.mode == "deterministic"
    assert cfg.experiment.estimators == ("batchmeans",)
    for tau in ("2", "exact"):
        with pytest.raises(ConfigError, match=r"\[method\] tau is not read "
                           "when solver = sgd"):
            parse_config_string(f"[method]\nsolver = sgd\ntau = {tau}\n")
    with pytest.raises(ConfigError, match="beta"):
        parse_config_string(
            "[method]\nsolver = sgd\n[schedule]\nbeta = 1.0\nc_beta = 1.0\n")
    with pytest.raises(ConfigError, match="solver = newton"):
        parse_config_string("[problem]\nfamily = eqqp\n[method]\nsolver = sgd\n")


def test_constrained_defaults_and_restrictions():
    cfg = parse_config_string("[problem]\nfamily = eqqp\n")
    assert cfg.experiment.ci_direction == "inactive"
    assert cfg.experiment.estimators == ("wsc",)
    with pytest.raises(ConfigError, match="plugin"):
        parse_config_string(
            "[problem]\nfamily = eqqp\n[experiment]\nestimators = wsc, plugin\n")


def test_plugin_unit_rate_scaling_guard():
    with pytest.raises(ConfigError, match="c_beta"):
        parse_config_string(
            "[schedule]\nbeta = 1.0\nchi = 2.0\nc_beta = 0.5\n")
    # a larger constant is fine
    parse_config_string("[schedule]\nbeta = 1.0\nchi = 2.0\nc_beta = 1.0\n")


def test_chi_defaults_to_twice_beta():
    cfg = parse_config_string("[schedule]\nbeta = 0.7\n")
    assert cfg.schedule.chi == 1.4


def test_linear_studies_need_positive_noise():
    with pytest.raises(ConfigError, match="sigma"):
        parse_config_string("[problem]\nsigma = 0.0\n")


def _problem_case(family, key, raw):
    return pytest.param("problem", f"family = {family}\n{key} = {raw}", key,
                        f"family = {family}", id=f"{family}-{key}-{raw}")


@pytest.mark.parametrize("section, given, key, by", [
    *[_problem_case(f, k, raw) for f in config.SQP_FAMILIES
      for k, raw in (("d", "7"), ("design", "toeplitz"), ("r", "0.3"),
                     ("sigma", "9"), ("x_star", "1,2,3"))],
    _problem_case("logistic", "sigma", "9"),
    _problem_case("linear", "sigma2", "0.5"),
    _problem_case("logistic", "sigma2", "0.5"),
    # [method] keys that the solve does not read
    pytest.param("method", "solver = sgd\nsketch = gaussian", "sketch",
                 "solver = sgd", id="sgd-sketch"),
    pytest.param("method", "solver = sgd\ngaussian_q = 3", "gaussian_q",
                 "solver = sgd", id="sgd-gaussian_q"),
    pytest.param("method", "tau = exact\nsketch = kaczmarz", "sketch",
                 "tau = exact", id="exact-sketch"),
    pytest.param("method", "sketch = gaussian", "sketch", "tau = exact",
                 id="default-tau-sketch"),
    pytest.param("method", "tau = exact\ngaussian_q = 2", "gaussian_q",
                 "tau = exact", id="exact-gaussian_q"),
    pytest.param("method", "tau = 2\ngaussian_q = 2", "gaussian_q",
                 "sketch = kaczmarz", id="default-sketch-gaussian_q"),
    pytest.param("method", "tau = 2\nsketch = kaczmarz\ngaussian_q = 1",
                 "gaussian_q", "sketch = kaczmarz", id="kaczmarz-gaussian_q"),
])
def test_keys_the_family_does_not_read_are_errors(section, given, key, by):
    with pytest.raises(ConfigError, match=re.escape(
            f"[{section}] {key} is not read when {by}; drop it")):
        parse_config_string(f"[{section}]\n{given}\n")


def test_serialize_writes_only_the_keys_the_config_reads():
    def written(text, section="problem"):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(serialize_config(parse_config_string(text)))
        return set(parser[section])

    regression = {"family", "d", "design", "r", "x_star"}
    assert written("") == regression | {"sigma"}
    assert written("[problem]\nfamily = logistic\n") == regression
    for family in config.SQP_FAMILIES:
        text = f"[problem]\nfamily = {family}\n"
        assert written(text) == {"family", "sigma2"}
        cfg = parse_config_string(text)
        assert parse_config_string(serialize_config(cfg)) == cfg
    # sketch and gaussian_q shape sketched solves only
    methods = {"solver = sgd": {"solver"}, "tau = exact": {"solver", "tau"},
               "tau = 2": {"solver", "tau", "sketch"},
               "tau = 2\nsketch = gaussian": {"solver", "tau", "sketch",
                                               "gaussian_q"}}
    for method, keys in methods.items():
        text = f"[method]\n{method}\n"
        assert written(text, "method") == keys
        cfg = parse_config_string(text)
        assert parse_config_string(serialize_config(cfg)) == cfg


def test_round_trip_is_exact():
    text = """
[problem]
family = logistic
d = 4
design = equicorr
r = 0.3
x_star = 0.1,0.2,0.3,0.4

[method]
solver = newton
tau = 2
sketch = gaussian
gaussian_q = 2

[schedule]
beta = 0.6

[experiment]
n_iters = 500
n_reps = 7
record_every = 50
estimators = wsc

[output]
aggregate = out/a.csv
oracle_prefix = out/oracle_
"""
    cfg = parse_config_string(text)
    assert cfg == parse_config_string(serialize_config(cfg))
    rendered = serialize_config(cfg)
    assert "oracle_prefix" in rendered
    # the first-order baseline has no tau line at all
    sgd = parse_config_string("[method]\nsolver = sgd\n")
    assert "tau" not in serialize_config(sgd)
    assert "oracle_prefix" not in serialize_config(sgd)
    assert sgd == parse_config_string(serialize_config(sgd))


def test_parse_config_reads_files(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[problem]\nd = 3\n")
    assert parse_config(str(path)).problem.d == 3
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.ini"))


def test_build_problem_and_solver():
    cfg = parse_config_string("[problem]\nfamily = eqqp\n")
    assert isinstance(cfg.build_problem(), EqConstrainedProblem)
    # a constrained problem holds its noise level, as a regression model does
    assert cfg.build_problem().sigma2 == 0.01
    assert parse_config_string("[problem]\nfamily = hs7\nsigma2 = 0.04\n"
                               ).build_problem().sigma2 == 0.04
    cfg2 = parse_config_string(
        "[problem]\nx_star = 0.5,0.5\nd = 2\n[method]\ntau = 4\n"
        "sketch = gaussian\ngaussian_q = 2\n")
    model = cfg2.build_problem()
    assert isinstance(model, RegressionModel)
    assert np.array_equal(model.x_star, [0.5, 0.5])
    solve = cfg2.build_solve_config()
    assert solve.tau == 4
    assert solve.dist.kind == "gaussian" and solve.dist.q == 2
    assert cfg.build_solve_config().dist.kind == "uniform_coordinate"
    # default target is the all-ones vector scaled to mean one over d
    model_def = parse_config_string("").build_problem()
    assert np.array_equal(model_def.x_star, np.full(5, 0.2))
    # without d, the dimension follows x_star
    assert parse_config_string("[problem]\nx_star = 1.0,2.0\n").problem.d == 2


def test_direction_vector_resolution():
    cfg = parse_config_string("")
    model = cfg.build_problem()
    assert np.array_equal(cfg.direction_vector(model), np.full(5, 0.2))

    coord = parse_config_string("[experiment]\nci_direction = coord:2\n")
    w = coord.direction_vector(model)
    assert np.array_equal(w, [0.0, 0.0, 1.0, 0.0, 0.0])

    vec = parse_config_string(
        "[experiment]\nci_direction = 1,0,0,0,-1\n")
    assert np.array_equal(vec.direction_vector(model), [1, 0, 0, 0, -1])

    qp = parse_config_string("[problem]\nfamily = eqqp\n")
    prob = qp.build_problem()
    assert np.array_equal(qp.direction_vector(prob), [0.0, 0.5, 0.5])

    with pytest.raises(ConfigError, match="out of range"):
        parse_config_string(
            "[experiment]\nci_direction = coord:9\n").direction_vector(model)
    with pytest.raises(ConfigError, match="length"):
        parse_config_string(
            "[experiment]\nci_direction = 1,2\n").direction_vector(model)
    with pytest.raises(ConfigError, match="constrained"):
        parse_config_string(
            "[experiment]\nci_direction = inactive\n").direction_vector(model)


# ---------------------------------------------------------------------------
# the key table: every key is a field of its section's dataclass

SECTIONS = [(f.name, type(f.default))
            for f in dataclasses.fields(ExperimentConfig)]
KEYS = [(section, f) for section, cls in SECTIONS
        for f in dataclasses.fields(cls)]
FLOAT_KEYS = [(section, key) for section, cls in SECTIONS
              for key, hint in typing.get_type_hints(cls).items()
              if hint is float]


def _one(section, key, raw):
    return f"[{section}]\n{key} = {raw}\n"


def test_there_are_26_keys_and_8_float_keys():
    assert len(KEYS) == 26
    assert len({f.name for _, f in KEYS}) == 26  # unique across sections
    assert len(FLOAT_KEYS) == 8


@pytest.mark.parametrize("section, key, raw", [
    *[(s, k, raw) for s, k in FLOAT_KEYS for raw in ("nan", "inf", "-inf")],
    ("problem", "x_star", "nan,1"),
    ("problem", "x_star", "1,inf"),
    ("experiment", "ci_direction", "nan,0,0,0,0"),
    ("experiment", "ci_direction", "0,0,0,0,0"),
])
def test_non_finite_and_zero_weights_name_the_key(section, key, raw):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} ")):
        parse_config_string(_one(section, key, raw))


def test_readme_table_lists_every_key_in_order():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    reference = readme.split("## Configuration reference", 1)[1]
    rows, section = [], None
    for line in reference.split("\n## ", 1)[0].splitlines():
        if not line.startswith("| "):  # prose and the |---| separator
            continue
        cell, key = (c.strip().strip("`") for c in line.split("|")[1:3])
        if key != "Key":
            # a blank section cell carries the previous section forward
            section = cell.strip("[]") or section
            rows.append((section, key))
    assert rows == [(section, f.name) for section, f in KEYS]


# ---------------------------------------------------------------------------
# properties over the key table

_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])


def _invalid(cast):
    """Raw texts that a key's cast must reject, or None for free text."""
    if isinstance(cast, config._Unless):
        return _invalid(cast.cast)
    if isinstance(cast, config._Number):
        bad = [st.sampled_from(["abc", "1..2", "", "--1"]), _NON_FINITE]
        if cast.kind is int:
            bad.append(st.sampled_from(["1.5", "2e3"]))
            if cast.low > -math.inf:
                bad.append(st.integers(max_value=int(cast.low) - (
                    0 if cast.open_low else 1)).map(str))
        elif cast.low > -math.inf:
            bad.append(st.floats(max_value=cast.low,
                                 exclude_max=not cast.open_low,
                                 allow_infinity=False).map(repr))
        if cast.high < math.inf:
            bad.append(st.floats(min_value=cast.high,
                                 exclude_min=not cast.open_high,
                                 allow_infinity=False).map(repr))
        return st.one_of(bad)
    if isinstance(cast, config._Choice):
        return _WORD.filter(lambda w: w not in cast.options)
    if isinstance(cast, config._List):
        bad = _invalid(cast.cast)
        return st.one_of(bad, bad.map(lambda b: f"{b},{b}"))
    if isinstance(cast, config._Direction):
        return st.one_of(_NON_FINITE.map(lambda v: f"1,{v}"), st.just("1,x"),
                         st.integers(1, 6).map(lambda n: ",".join(["0"] * n)),
                         st.just("coord:x"))
    return None


_INVALID = [(section, f.name, bad) for section, f in KEYS
            if (bad := _invalid(f.metadata["cast"])) is not None]


def test_every_key_but_free_text_has_invalid_values():
    free = {f.name for _, f in KEYS} - {key for _, key, _ in _INVALID}
    assert free == {"aggregate", "summary", "oracle_prefix"}


@given(st.data())
def test_invalid_values_name_the_key(data):
    section, key, raws = data.draw(st.sampled_from(_INVALID))
    raw = data.draw(raws)
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} ")):
        parse_config_string(_one(section, key, raw))


def _finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw).map(repr)


# valid raw text per key, given the drawn family and solver (None: drawn
# first, in _valid_configs); keys are left out at random so that derived
# defaults are exercised too.  Ranges keep clear of the cross-key rules:
# c_beta > 1/2 for Newton regression at beta = 1, chi >= beta while
# c_chi > 0.
_VALID = {
    "family": None,
    "d": lambda c: st.integers(1, 6).map(str),
    "design": lambda c: st.sampled_from(["identity", "toeplitz", "equicorr"]),
    "r": lambda c: _finite(-0.9, 0.9),
    "sigma": lambda c: _finite(0.0, 10.0, exclude_min=True),
    "sigma2": lambda c: _finite(0.0, 1.0),
    "x_star": lambda c: st.one_of(
        st.just("one_over_d"),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6).map(
            lambda v: ",".join(map(repr, v)))),
    "solver": None,
    "tau": lambda c: st.one_of(st.just("exact"), st.integers(1, 50).map(str)),
    "sketch": lambda c: st.sampled_from(["kaczmarz", "gaussian"]),
    "gaussian_q": lambda c: st.integers(1, 4).map(str),
    "c_beta": lambda c: _finite(0.6, 5.0),
    "beta": lambda c: _finite(0.5, 1.0, exclude_min=True,
                              exclude_max=c["solver"] == "sgd"),
    "c_chi": lambda c: _finite(0.0, 3.0),
    "chi": lambda c: _finite(1.0, 3.0),
    "mode": lambda c: st.sampled_from(["uniform_band", "deterministic"]),
    "n_iters": lambda c: st.integers(1, 10**6).map(str),
    "n_reps": lambda c: st.integers(1, 500).map(str),
    "base_seed": lambda c: st.integers(0, 2**32).map(str),
    "record_every": lambda c: st.integers(1, 1000).map(str),
    "ci_level": lambda c: _finite(0.0, 1.0, exclude_min=True,
                                  exclude_max=True),
    "ci_direction": lambda c: st.one_of(
        st.sampled_from(["mean", "inactive", "coord:0", "coord:4"]),
        st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6).map(
            lambda v: ",".join(map(repr, v)))),
    "estimators": lambda c: (
        st.just("batchmeans") if c["solver"] == "sgd"
        else st.just("wsc") if c["family"] in config.SQP_FAMILIES
        else st.sampled_from(["wsc", "plugin", "wsc, plugin"])),
    "aggregate": lambda c: _WORD.map(lambda w: f"out/{w}.csv"),
    "summary": lambda c: _WORD,
    "oracle_prefix": lambda c: _WORD,
}


@st.composite
def _valid_configs(draw):
    family = draw(st.sampled_from(config.REGRESSION_FAMILIES
                                  + config.SQP_FAMILIES))
    solver = ("newton" if family in config.SQP_FAMILIES
              else draw(st.sampled_from(["newton", "sgd"])))
    context = {"family": family, "solver": solver}
    # keys this config does not read are left out (given, they are
    # errors).  Read rules test keys drawn earlier in file order, so
    # values holds each key's parsed value or field default as the draw
    # goes.  d and x_star are not both given, since d follows x_star.
    values = {f.name: f.default for _, f in KEYS} | context
    skip = set()
    text = []
    for section, cls in SECTIONS:
        text.append(f"[{section}]")
        for f in dataclasses.fields(cls):
            if f.name in context:
                text.append(f"{f.name} = {context[f.name]}")
            elif (f.name not in skip and config._unread(f, values) is None
                  and draw(st.booleans())):
                raw = draw(_VALID[f.name](context))
                text.append(f"{f.name} = {raw}")
                values[f.name] = f.metadata["cast"](raw)
                if f.name == "d":
                    skip.add("x_star")
    return "\n".join(text) + "\n"


def test_valid_strategy_covers_every_key():
    assert list(_VALID) == [f.name for _, f in KEYS]


@given(_valid_configs())
def test_valid_configs_round_trip(text):
    cfg = parse_config_string(text)
    assert parse_config_string(serialize_config(cfg)) == cfg
