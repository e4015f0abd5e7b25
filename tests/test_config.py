"""Tests for the INI experiment-configuration layer."""

import numpy as np
import pytest

from snewt.config import (
    ConfigError,
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
    with pytest.raises(ConfigError, match="tau"):
        parse_config_string("[method]\nsolver = sgd\ntau = 2\n")
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
    # the logistic family has no response-noise scale to validate
    parse_config_string("[problem]\nfamily = logistic\nsigma = 0.0\n")


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
