"""Command-line interface: subcommands, exit codes, and file outputs."""

import configparser
import csv
import dataclasses
import os
import textwrap

import numpy as np
import pytest

from snewt import cli
from snewt.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main,
                       tail_slope)
from snewt.config import ConfigError, parse_config, parse_config_string
from snewt.experiment import AGGREGATE_COLUMNS, SUMMARY_COLUMNS, run_experiment
from snewt.oracle import oracle_covariance


def _write_config(tmp_path, body, name="study.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def _run_config_text(tmp_path):
    return f"""\
        [problem]
        family = linear
        d = 2
        design = identity
        sigma = 1.0

        [method]
        tau = 2

        [experiment]
        n_iters = 200
        n_reps = 2
        record_every = 50
        estimators = wsc

        [output]
        aggregate = {tmp_path / 'agg.csv'}
        summary = {tmp_path / 'sum.csv'}
        """


# ---------------------------------------------------------------------------
# tail_slope


def test_tail_slope_recovers_power_law_exponent():
    ts = np.arange(10.0, 210.0, 10.0)
    vals = 3.0 * ts ** -0.25
    assert abs(tail_slope(list(ts), list(vals), 0.3) - (-0.25)) < 1e-8
    assert abs(tail_slope(list(ts), list(vals), 1.0) - (-0.25)) < 1e-8


def test_tail_slope_constant_column_is_flat():
    ts = list(range(1, 21))
    vals = [0.7] * 20
    assert abs(tail_slope(ts, vals, 0.5)) < 1e-12


def test_tail_slope_uses_only_the_tail_window():
    # The first seven values are junk; the last three follow t^(-1/2)
    # exactly, and tail = 0.3 of ten rows keeps exactly those three.
    ts = [float(i) for i in range(1, 11)]
    vals = [100.0] * 7 + [t ** -0.5 for t in ts[7:]]
    assert abs(tail_slope(ts, vals, 0.3) - (-0.5)) < 1e-10


def test_tail_slope_rejects_bad_inputs():
    ts = [1.0, 2.0, 3.0]
    vals = [1.0, 1.0, 1.0]
    for tail in (0.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            tail_slope(ts, vals, tail)
    with pytest.raises(ConfigError, match="too few rows"):
        tail_slope([1.0], [1.0], 0.5)
    with pytest.raises(ConfigError, match="positive"):
        tail_slope(ts, [1.0, 0.0, 1.0], 1.0)
    with pytest.raises(ConfigError, match="positive"):
        tail_slope([0.0, 1.0, 2.0], vals, 1.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            tail_slope(ts, [1.0, bad, 1.0], 1.0)
        with pytest.raises(ConfigError, match="finite"):
            tail_slope([1.0, 2.0, bad], vals, 1.0)


# ---------------------------------------------------------------------------
# snewt slope


def _write_csv(tmp_path, header, rows, name="agg.csv"):
    path = tmp_path / name
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_slope_command_prints_fitted_slope(tmp_path, capsys):
    ts = np.arange(100.0, 1100.0, 100.0)
    rows = [(t, 2.0 * t ** -0.5, 1.0) for t in ts]
    path = _write_csv(tmp_path, ("t", "rel_cov_err_wsc", "other"), rows)
    assert main(["slope", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert abs(float(out.strip()) - (-0.5)) < 1e-8


def test_slope_command_column_and_tail_flags(tmp_path, capsys):
    ts = np.arange(10.0, 110.0, 10.0)
    rows = [(t, 1.0, 5.0 * t ** -0.75) for t in ts]
    path = _write_csv(tmp_path, ("t", "rel_cov_err_wsc", "alt"), rows)
    assert main(["slope", path, "--column", "alt", "--tail", "1.0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert abs(float(out.strip()) - (-0.75)) < 1e-8


def test_slope_command_skips_blank_cells(tmp_path, capsys):
    # Divergence-masked checkpoints are written as empty cells; the fit
    # must use only the populated rows.
    rows = [(10.0, ""), (20.0, 4.0), (40.0, 2.0), (80.0, "")]
    path = _write_csv(tmp_path, ("t", "rel_cov_err_wsc"), rows)
    assert main(["slope", path, "--tail", "1.0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert abs(float(out.strip()) - (-1.0)) < 1e-10


def test_slope_command_missing_column_is_config_error(tmp_path, capsys):
    path = _write_csv(tmp_path, ("t", "x"), [(1.0, 1.0), (2.0, 1.0)])
    assert main(["slope", path, "--column", "nope"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "nope" in err and err.startswith("error:")


def test_slope_command_rejects_non_aggregate_csv(tmp_path, capsys):
    path = _write_csv(tmp_path, ("time", "x"), [(1.0, 1.0)])
    assert main(["slope", path]) == EXIT_CONFIG
    assert "no 't'" in capsys.readouterr().err


def test_slope_command_too_few_rows_is_config_error(tmp_path, capsys):
    path = _write_csv(tmp_path, ("t", "rel_cov_err_wsc"), [(10.0, 1.0)])
    assert main(["slope", path]) == EXIT_CONFIG
    assert "too few rows" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_slope_command_non_finite_cell_is_config_error(tmp_path, capsys, cell):
    rows = [(10.0, 1.0), (20.0, cell), (40.0, 0.5)]
    path = _write_csv(tmp_path, ("t", "rel_cov_err_wsc"), rows)
    assert main(["slope", path, "--tail", "1.0"]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_slope_command_unparsable_cell_is_config_error(tmp_path, capsys):
    rows = [(10.0, 1.0), (20.0, "abc"), (40.0, 0.5)]
    path = _write_csv(tmp_path, ("t", "rel_cov_err_wsc"), rows)
    assert main(["slope", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 3" in err and "'abc'" in err


def test_slope_command_missing_file_is_io_error(tmp_path, capsys):
    assert main(["slope", str(tmp_path / "absent.csv")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error:")


# ---------------------------------------------------------------------------
# snewt run


def test_run_command_writes_both_csvs(tmp_path, capsys):
    path = _write_config(tmp_path, _run_config_text(tmp_path))
    assert main(["run", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 'agg.csv'} (4 checkpoints)" in out
    assert "wsc:" in out and "coverage=" in out and "rel_cov_err=" in out

    agg_lines = (tmp_path / "agg.csv").read_text().strip().splitlines()
    assert agg_lines[0].startswith("t,rel_cov_err_wsc,")
    assert len(agg_lines) == 1 + 4
    assert [line.split(",")[0] for line in agg_lines[1:]] == [
        "50", "100", "150", "200"]

    sum_lines = (tmp_path / "sum.csv").read_text().strip().splitlines()
    assert sum_lines[0].startswith("estimator,final_t,")
    assert len(sum_lines) == 2 and sum_lines[1].startswith("wsc,200,")


def test_run_command_reruns_byte_identical(tmp_path, capsys):
    path = _write_config(tmp_path, _run_config_text(tmp_path))
    assert main(["run", path]) == EXIT_OK
    first = (tmp_path / "agg.csv").read_bytes(), (tmp_path / "sum.csv").read_bytes()
    assert main(["run", path]) == EXIT_OK
    second = (tmp_path / "agg.csv").read_bytes(), (tmp_path / "sum.csv").read_bytes()
    assert first == second
    capsys.readouterr()


def test_run_then_slope_pipeline(tmp_path, capsys):
    path = _write_config(tmp_path, _run_config_text(tmp_path))
    assert main(["run", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["slope", str(tmp_path / "agg.csv"), "--tail", "1.0"]) == EXIT_OK
    float(capsys.readouterr().out.strip())  # parses as a number


def test_run_command_bad_config_value_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, """\
        [schedule]
        beta = 1.5
        """)
    assert main(["run", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beta" in err


def test_run_command_malformed_direction_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, """\
        [experiment]
        ci_direction = coord:abc
        """)
    assert main(["run", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ci_direction" in err


def test_run_command_non_finite_value_is_config_error(tmp_path, capsys):
    # a NaN chi used to reach the estimators and end in a traceback
    path = _write_config(tmp_path, """\
        [schedule]
        chi = nan
        """)
    assert main(["run", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [schedule] chi")


@pytest.mark.parametrize("family, key", [
    ("eqqp", "d = 7"),  # used to run the 3-dimensional eqqp
    ("logistic", "sigma = 9"),
    ("linear", "sigma2 = 0.5"),
])
def test_run_command_key_the_family_does_not_read_is_config_error(
        tmp_path, capsys, family, key):
    path = _write_config(tmp_path, f"""\
        [problem]
        family = {family}
        {key}

        [experiment]
        n_iters = 50
        n_reps = 2
        """)
    assert main(["run", path]) == EXIT_CONFIG
    name = key.split(" =")[0]
    assert capsys.readouterr().err.startswith(
        f"error: [problem] {name} is not read when family = {family}")


def test_run_command_steep_band_decay_runs(tmp_path, capsys):
    # (t + 1)^chi overflows a float from t = 1 on: the band width is 0.0,
    # the value the quotient rounds to, not an OverflowError
    text = _run_config_text(tmp_path).replace(
        "[experiment]", "[schedule]\n        chi = 1100\n\n        [experiment]")
    path = _write_config(tmp_path, text)
    assert main(["run", path]) == EXIT_OK
    assert "wsc:" in capsys.readouterr().out


def test_run_command_batch_means_past_float_range_runs(tmp_path, capsys):
    # the second batch boundary 2**(2 / (1 - beta)) overflows a float: no
    # later batch closes, so the batch-means columns stay blank
    text = _run_config_text(tmp_path).replace(
        "tau = 2", "solver = sgd").replace(
        "[experiment]", "[schedule]\n        beta = 0.9999\n\n"
        "        [experiment]").replace(
        "estimators = wsc", "estimators = batchmeans")
    path = _write_config(tmp_path, text)
    assert main(["run", path]) == EXIT_OK
    assert "batchmeans:" in capsys.readouterr().out
    rows = (tmp_path / "sum.csv").read_text().strip().splitlines()
    assert rows[1].startswith("batchmeans,200,,,,")


# sigma^2 is a finite float here, but the sketch terms of Lambda overflow
_OVERFLOWING_SIGMA = """\
    [problem]
    d = 3
    sigma = 1.3e154

    [method]
    tau = 2

    [experiment]
    n_iters = 50
    """


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_command_non_finite_ground_truth_is_config_error(tmp_path, capsys):
    # used to end in "LinAlgError: SVD did not converge" at a checkpoint
    path = _write_config(tmp_path, _OVERFLOWING_SIGMA)
    assert main(["run", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [problem] sigma = 1.3e+154")
    assert "Lambda is not finite" in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_unit_rate_with_small_c_beta_is_config_error(tmp_path, capsys,
                                                     command):
    # the oracle of every Newton regression study needs c_beta > 1/2 at
    # beta = 1, not only the plug-in estimator; without plugin this used to
    # end in xi_star's ValueError
    path = _write_config(tmp_path, """\
        [problem]
        family = linear
        d = 3

        [method]
        tau = 2

        [schedule]
        beta = 1.0
        c_beta = 0.5

        [experiment]
        n_iters = 50
        estimators = wsc
        """)
    assert main([command, path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [schedule]") and "c_beta > 1/2" in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_ill_conditioned_design_is_config_error(tmp_path, capsys, command):
    # I - C* loses its smallest eigenvalue to roundoff, which used to end
    # in xi_star's ValueError
    path = _write_config(tmp_path, """\
        [problem]
        d = 3
        design = toeplitz
        r = 0.999999999

        [method]
        tau = 2

        [experiment]
        n_iters = 50
        """)
    assert main([command, path]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "xi_star" not in out
    assert err.startswith("error: [problem] design = toeplitz, "
                          "r = 0.999999999: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_command_all_diverged_prints_only_the_divergence_message(
        tmp_path, capsys):
    # SGD with no ground truth to build: every replication overflows, and
    # the frozen rows' batch-means sums, masked out of every aggregate,
    # must not raise numpy warnings at the checkpoint
    text = _OVERFLOWING_SIGMA.replace("tau = 2", "solver = sgd").replace(
        "n_iters = 50", f"n_iters = 50\n    n_reps = 4\n\n    [output]\n"
        f"    aggregate = {tmp_path / 'agg.csv'}\n"
        f"    summary = {tmp_path / 'sum.csv'}")
    path = _write_config(tmp_path, text)
    assert main(["run", path]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith("divergence: 4 of 4 replications")
    assert err.count("\n") == 1


def test_run_command_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nowhere.ini")]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_run_command_unwritable_output_is_io_error(tmp_path, capsys):
    text = _run_config_text(tmp_path).replace(
        str(tmp_path / "agg.csv"), str(tmp_path / "no_such_dir" / "agg.csv"))
    path = _write_config(tmp_path, text)
    assert main(["run", path]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error:")


def test_run_command_divergent_majority_exits_3(tmp_path, capsys, monkeypatch):
    path = _write_config(tmp_path, _run_config_text(tmp_path))
    real = run_experiment(parse_config_string((tmp_path / "study.ini").read_text()))

    def fake_run(cfg):
        return dataclasses.replace(real, n_diverged=real.n_reps)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert main(["run", path]) == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert "iterate-norm guard" in captured.err
    # The CSVs are still written so the surviving replications can be studied.
    assert (tmp_path / "agg.csv").exists() and (tmp_path / "sum.csv").exists()


# ---------------------------------------------------------------------------
# the committed study configs, each cut to desk scale

_CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                           "configs")
_STUDY_CONFIGS = sorted(f for f in os.listdir(_CONFIG_DIR)
                        if f.endswith(".ini"))


def test_study_configs_are_committed():
    assert len(_STUDY_CONFIGS) >= 4


@pytest.mark.parametrize("name", _STUDY_CONFIGS)
def test_study_config_runs_at_desk_scale(tmp_path, capsys, name):
    parser = configparser.ConfigParser()
    parser.read(os.path.join(_CONFIG_DIR, name))
    parser["experiment"].update(n_iters="300", n_reps="4", record_every="100")
    agg, summary = tmp_path / "agg.csv", tmp_path / "sum.csv"
    parser["output"].update(aggregate=str(agg), summary=str(summary))
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main(["run", str(path)]) == EXIT_OK
    assert f"wrote {agg} (3 checkpoints)" in capsys.readouterr().out

    with open(agg, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(AGGREGATE_COLUMNS)
    assert [row[0] for row in rows[1:]] == ["100", "200", "300"]
    estimators = parse_config(str(path)).experiment.estimators
    with open(summary, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(SUMMARY_COLUMNS)
    assert [row["estimator"] for row in rows] == list(estimators)
    for row in rows:
        assert (row["final_t"], row["n_reps"], row["n_diverged"]) == (
            "300", "4", "0")
        assert 0.0 <= float(row["coverage"]) <= 1.0


# ---------------------------------------------------------------------------
# snewt oracle


def test_oracle_command_prints_closed_form_matrices(tmp_path, capsys):
    path = _write_config(tmp_path, """\
        [problem]
        d = 2

        [method]
        tau = exact
        """)
    assert main(["oracle", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "xi_star" in out and "omega_star" in out and "c_star" in out
    assert "monte-carlo standard errors: none (closed form)" in out
    # Identity design with unit noise and an exact solve: the limiting
    # covariance of the averaged iterate is half the sandwich matrix.
    assert "  0.5 0" in out and "  1 0" in out


def test_oracle_command_writes_prefix_files(tmp_path, capsys):
    prefix = str(tmp_path / "truth_")
    path = _write_config(tmp_path, f"""\
        [problem]
        d = 2

        [method]
        tau = exact

        [output]
        oracle_prefix = {prefix}
        """)
    assert main(["oracle", path]) == EXIT_OK
    capsys.readouterr()
    xi = np.loadtxt(prefix + "xi_star.txt")
    omega = np.loadtxt(prefix + "omega_star.txt")
    c = np.loadtxt(prefix + "c_star.txt")
    np.testing.assert_allclose(xi, 0.5 * np.eye(2), atol=1e-10)
    np.testing.assert_allclose(omega, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(c, np.zeros((2, 2)), atol=1e-10)


def test_oracle_command_sgd_prints_sandwich_only(tmp_path, capsys):
    path = _write_config(tmp_path, """\
        [problem]
        d = 2

        [method]
        solver = sgd
        """)
    assert main(["oracle", path]) == EXIT_OK
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if not line.startswith(" ")]
    assert "omega_star" in headers
    # The explanatory note mentions xi_star, but no such matrix is printed.
    assert "xi_star" not in headers and "c_star" not in headers
    assert "solver = sgd" in out


def test_oracle_command_gaussian_prints_monte_carlo_stderrs(tmp_path, capsys):
    # only sketches of q >= 2 columns are averaged by Monte Carlo; d = 3,
    # since two columns in d = 2 make every projector the identity
    path = _write_config(tmp_path, """\
        [problem]
        d = 3

        [method]
        tau = 2
        sketch = gaussian
        gaussian_q = 2
        """)
    assert main(["oracle", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "xi_star" in lines and "c_star" in lines
    start = lines.index("monte-carlo standard errors (max over entries):")
    stderrs = dict(line.split(":") for line in lines[start + 1:start + 3])
    assert set(stderrs) == {"  projection", "  lambda"}
    for value in stderrs.values():
        assert 0.0 < float(value) < 0.01


def test_oracle_command_gaussian_q1_prints_quadrature_errors(tmp_path,
                                                             capsys):
    path = _write_config(tmp_path, """\
        [problem]
        d = 2

        [method]
        tau = 2
        sketch = gaussian
        """)
    assert main(["oracle", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert not any("monte-carlo" in line for line in lines)
    start = lines.index("quadrature error estimates, full grid against "
                        "every other node (max over entries):")
    errors = dict(line.split(":") for line in lines[start + 1:start + 3])
    assert set(errors) == {"  projection", "  lambda"}
    for value in errors.values():
        assert float(value) < 1e-14


def test_oracle_command_logistic_prints_closed_form(tmp_path, capsys):
    path = _write_config(tmp_path, """\
        [problem]
        family = logistic
        d = 3

        [method]
        tau = 2
        """)
    assert main(["oracle", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "monte-carlo standard errors: none (closed form)" in out


@pytest.mark.parametrize("method", ["tau = 2", "tau = 2\nsketch = gaussian",
                                    "tau = exact"],
                         ids=["coordinate", "gaussian", "exact"])
def test_oracle_command_prints_the_mixing_rate(tmp_path, capsys, method):
    # the headline problem: equicorr r = 0.3 at d = 5
    text = ("[problem]\nd = 5\ndesign = equicorr\nr = 0.3\n"
            f"[method]\n{method}\n")
    assert main(["oracle", _write_config(tmp_path, text)]) == EXIT_OK
    line = capsys.readouterr().out.splitlines()[-1]
    head, value = line.split(": ")
    assert head == "mixing rate lambda_min(I - sym C*)"
    cfg = parse_config_string(text)
    solve_cfg = cfg.build_solve_config()
    schedule = cfg.build_schedule()
    oc = oracle_covariance(cfg.build_problem(), solve_cfg.dist,
                           solve_cfg.tau, schedule.beta, schedule.c_beta)
    sym = 0.5 * (oc.c_star + oc.c_star.T)
    rate = np.linalg.eigvalsh(np.eye(5) - sym).min()
    assert value == format(rate, ".12g")
    if method == "tau = exact":
        assert value == "1"
    elif method == "tau = 2":
        assert abs(rate - 0.139) < 5e-4


@pytest.mark.parametrize("command", ["oracle", "run"])
def test_large_logistic_target_has_finite_truth(tmp_path, capsys, command):
    # x_star = 300 * 1: the margin's sd is near 1e3, far past the range of
    # w(z) = sigma(z) sigma(-z); the truth stays finite and the run ends
    path = _write_config(tmp_path, f"""\
        [problem]
        family = logistic
        d = 5
        x_star = 300,300,300,300,300

        [method]
        tau = 2

        [experiment]
        n_iters = 200
        n_reps = 4
        record_every = 100

        [output]
        aggregate = {tmp_path / 'agg.csv'}
        summary = {tmp_path / 'sum.csv'}
        """)
    assert main([command, path]) == EXIT_OK
    out = capsys.readouterr().out
    if command == "oracle":
        assert "nan" not in out and "inf" not in out
    else:
        with open(tmp_path / "agg.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(np.isfinite(float(r["rel_cov_err_wsc"])) for r in rows)


def test_oracle_command_constrained_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, """\
        [problem]
        family = eqqp
        """)
    assert main(["oracle", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [problem] family = eqqp")
    assert "not available yet" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_command_non_finite_ground_truth_is_config_error(tmp_path,
                                                                capsys):
    # used to print an all-NaN xi_star and exit 0
    path = _write_config(tmp_path, _OVERFLOWING_SIGMA)
    assert main(["oracle", path]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "xi_star" not in out
    assert err.startswith("error: [problem] sigma = 1.3e+154")
    assert "Lambda is not finite" in err


def test_oracle_command_missing_config_is_config_error(tmp_path, capsys):
    assert main(["oracle", str(tmp_path / "gone.ini")]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err
