"""Every name the benchmark in perfbench/ wraps or stamps exists.

The benchmark times snewt's layers from outside, by replacing attributes
looked up by name; a renamed or deleted target only drops its span with a
warning there.  Resolving every target here makes such a rename fail the
test suite.  Its count hooks also read arguments by position or by name,
so the tests below run small traced calls and check the counts they add.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import snewt.experiment as experiment
import snewt.optimizer as optimizer
import snewt.oracle as oracle
from snewt.config import parse_config_string
from snewt.problems import RegressionModel, default_x_star
from snewt.sketch import SketchDistribution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import studies  # noqa: E402
from tracer import Tracer  # noqa: E402

# the untraced run stamps each engine step at this call
STAMP_TARGET = "snewt.experiment:_BatchedWsc.update"

TARGETS = sorted({
    target
    for spans in (studies.SETUP_SPANS, studies.STUDY_SPANS,
                  studies.STREAM_SPANS)
    for target, _, _ in spans
} | {studies.STUDY_GENERATORS[0], STAMP_TARGET})


@pytest.mark.parametrize("target", TARGETS)
def test_benchmark_target_resolves(target):
    tracer = Tracer()
    assert tracer._resolve(target) is not None
    assert tracer.missing == []


# ---------------------------------------------------------------------------
# what the count hooks read from each call

def _traced(spans, fn, *args, **kwargs):
    tracer = Tracer()
    studies._install(tracer, spans)
    try:
        fn(*args, **kwargs)
    finally:
        tracer.restore()
    assert tracer.missing == []
    return tracer


def _traced_counts(spans, fn, *args, **kwargs):
    return _traced(spans, fn, *args, **kwargs).counts


@pytest.mark.parametrize("method,tau", [
    ("tau = 2", 2),
    ("tau = 3\nsketch = gaussian\ngaussian_q = 2", 3),
], ids=["coordinate", "gaussian"])
def test_study_hooks_read_the_sketch_draws_and_the_stacked_iterate(method,
                                                                   tau):
    # _sweep_steps reads the draws as the sweeps' third positional argument
    # (R, tau, ...); _rows reads the (R, d) iterate as args[1] of
    # _BatchedWsc.update
    for name in ("_uc_solve_batched", "_gaussian_solve_batched"):
        params = list(inspect.signature(getattr(experiment, name)).parameters)
        assert params[2] in ("idx", "zblk"), (name, params)
    R, n_iters = 3, 40
    cfg = parse_config_string(
        f"[problem]\nd = 3\n[method]\n{method}\n[experiment]\n"
        f"n_iters = {n_iters}\nn_reps = {R}\nrecord_every = 20\n")
    eye = np.eye(3)
    counts = _traced_counts(studies.STUDY_SPANS, experiment.run_experiment,
                            cfg, oracle_xi=eye, oracle_omega=eye)
    assert counts["experiment.sweep_inner_steps"] == R * tau * n_iters
    assert counts["experiment.rep_steps"] == R * n_iters


def test_oracle_hooks_bind_dist_n_mc_and_tau_by_name():
    for fn, names in ((oracle.single_step_projection_expectation,
                       {"dist", "n_mc"}),
                      (oracle.lambda_matrix, {"dist", "n_mc", "tau"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
    model = RegressionModel(family="linear", x_star=default_x_star(3))
    # q = 2: the one sketch family whose oracle draws Monte-Carlo samples
    dist = SketchDistribution(kind="gaussian", q=2)
    counts = _traced_counts(studies.SETUP_SPANS, oracle.oracle_covariance,
                            model, dist, 2, 0.505, 1.0, n_mc=500)
    # one sketch per E[Pi] sample, tau per Lambda sequence
    assert counts["oracle.mc_samples"] == 500 * (1 + 2)


@pytest.mark.parametrize("method", [
    "tau = 2",
    "tau = 2\nsketch = gaussian\ngaussian_q = 2",
    "tau = exact",
], ids=["coordinate", "gaussian", "exact"])
def test_stream_run_records_one_solve_span_per_step(method):
    # sketch.solve_s and sketch.solve_calls of the stream workload time
    # optimizer.run's solve through its module global solve_newton_sketched
    n_iters = 25
    cfg = parse_config_string(f"[problem]\nd = 3\n[method]\n{method}\n")
    tracer = _traced(studies.STREAM_SPANS, optimizer.run,
                     cfg.build_problem(), cfg.build_solve_config(),
                     cfg.build_schedule(), n_iters, 7)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("optimizer.step") == n_iters
    assert names.count("sketch.solve") == n_iters
    for i, name in enumerate(names):
        if name == "sketch.solve":
            assert names[tracer.parent[i]] == "optimizer.step"
