"""Tests for the replicated study engine against the sequential reference."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import snewt.experiment as experiment
from snewt.config import (
    ExperimentConfig,
    ExperimentSection,
    MethodConfig,
    OutputConfig,
    ProblemConfig,
    ScheduleConfig,
)
from snewt.covariance import (
    BatchMeansAccumulator,
    PlugInAccumulator,
    WscAccumulator,
    WscSink,
    plugin_estimate,
)
from snewt.experiment import (
    AGGREGATE_COLUMNS,
    SUMMARY_COLUMNS,
    run_experiment,
    write_aggregate_csv,
    write_summary_csv,
)
from snewt.inference import directional_ci
from snewt.optimizer import RngStreams, run
from tests.oracles import (batch_means_two_pass, coordinate_sketches,
                           newton_replay, sketch_loop, sqp_replay,
                           uc_sweep_replay, wsc_two_pass)


EYE3 = np.eye(3)


def _cfg(problem=None, method=None, schedule=None, seed=11, n_iters=300,
         n_reps=1, record_every=100, estimators=("wsc", "plugin"),
         direction="mean"):
    return ExperimentConfig(
        problem=problem if problem is not None else ProblemConfig(d=3),
        method=method if method is not None else MethodConfig(),
        schedule=schedule if schedule is not None else ScheduleConfig(),
        experiment=ExperimentSection(
            n_iters=n_iters,
            n_reps=n_reps,
            base_seed=seed,
            record_every=record_every,
            ci_direction=direction,
            estimators=estimators,
        ),
        output=OutputConfig(),
    )


def _close(a, b, tol=1e-10):
    scale = max(1.0, float(np.abs(b).max()))
    assert np.abs(a - b).max() <= tol * scale


# ---------------------------------------------------------------------------
# batched engine == sequential loops, one replication at a time


def _check_newton_against_replay(cfg, chunk=experiment._CHUNK):
    # the harness (one replication) and optimizer.run share newton_step;
    # both are checked against the straight-line replay, not each other.
    # The replayed gradients are checked through the harness's plug-in
    # estimate; run's sinks see x, whose trajectory the gradients drive
    n = cfg.experiment.n_iters
    method = cfg.method
    model = cfg.build_problem()
    sched = cfg.build_schedule()
    q = method.gaussian_q if method.sketch == "gaussian" else None
    xs, grads, B = newton_replay(model, method.tau, q, sched, n,
                                 RngStreams.from_seed(cfg.experiment.base_seed))
    expected_wsc = wsc_two_pass(xs, [sched.phi(t) for t in range(n)])
    plug = PlugInAccumulator(model.dim)
    for g in grads:
        plug.update(g)
    expected_plug = plugin_estimate(plug, B, sched.beta, sched.c_beta)

    result = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3,
                            chunk=chunk)
    _close(result.final_x[0], xs[-1])
    _close(result.final_estimates["wsc"], expected_wsc)
    _close(result.final_estimates["plugin"], expected_plug)

    acc = WscAccumulator(model.dim)
    final = run(model, cfg.build_solve_config(), sched, n,
                cfg.experiment.base_seed, sinks=(WscSink(sched, acc),))
    _close(final.x, xs[-1])
    _close(final.B, B)
    _close(acc.estimate(), expected_wsc)


def test_uc_newton_engine_matches_sequential_run():
    _check_newton_against_replay(
        _cfg(problem=ProblemConfig(d=3, design="equicorr", r=0.3),
             method=MethodConfig(tau=2)))


def test_exact_newton_engine_matches_sequential_run():
    _check_newton_against_replay(
        _cfg(problem=ProblemConfig(d=3),
             method=MethodConfig(tau=None),
             schedule=ScheduleConfig(beta=0.7, chi=1.4),
             seed=23))


def test_gaussian_sketch_engine_matches_sequential_run():
    _check_newton_against_replay(
        _cfg(problem=ProblemConfig(d=3, design="toeplitz", r=0.5),
             method=MethodConfig(tau=2, sketch="gaussian", gaussian_q=2),
             seed=5))


def test_logistic_engine_matches_sequential_with_unit_chunks():
    # the logistic data stream interleaves normals and uniforms per step,
    # so only chunk = 1 reproduces the sequential draw order exactly
    _check_newton_against_replay(
        _cfg(problem=ProblemConfig(family="logistic", d=3,
                                   design="equicorr", r=0.2),
             method=MethodConfig(tau=2),
             seed=3, n_iters=200),
        chunk=1)


def test_sgd_engine_matches_manual_first_order_loop():
    cfg = _cfg(problem=ProblemConfig(d=3),
               method=MethodConfig(solver="sgd", tau=None),
               schedule=ScheduleConfig(c_beta=0.5, beta=0.505, c_chi=0.0,
                                       mode="deterministic"),
               estimators=("batchmeans",),
               seed=8)
    result = run_experiment(cfg, oracle_omega=EYE3)
    model = cfg.build_problem()
    sched = cfg.build_schedule()
    streams = RngStreams.from_seed(8)
    bm = BatchMeansAccumulator(3, sched.beta)
    x = np.zeros(3)
    for t in range(300):
        s = model.draw(streams.data)
        g = model.grad(x, s)
        x = x - sched.phi(t) * g  # collapsed band: alpha_t = beta_t
        bm.update(x)
    _close(result.final_x[0], x)
    _close(result.final_estimates["batchmeans"], bm.estimate())


def _check_sqp_against_replay(method, seed, n_iters):
    # the harness (one replication) and run share newton_step and
    # sqp.observe; both are checked against the straight-line replay, not
    # against each other
    for family in ("eqqp", "maratos", "hs7"):
        cfg = _cfg(problem=ProblemConfig(family=family, sigma2=1e-2),
                   method=method, estimators=("wsc",), direction="inactive",
                   seed=seed, n_iters=n_iters)
        problem = cfg.build_problem()
        sched = cfg.build_schedule()
        xs, lam = sqp_replay(problem, method.tau, sched, n_iters,
                             RngStreams.from_seed(seed))
        expected_wsc = wsc_two_pass(xs, [sched.phi(t) for t in range(n_iters)])

        result = run_experiment(cfg)
        _close(result.final_x[0], xs[-1])
        _close(result.final_lam[0], lam)
        _close(result.final_estimates["wsc"], expected_wsc)

        acc = WscAccumulator(problem.dim)
        final = run(problem, cfg.build_solve_config(), sched, n_iters, seed,
                    sinks=(WscSink(sched, acc),))
        _close(final.x, xs[-1])
        _close(final.lam, lam)
        _close(acc.estimate(), expected_wsc)


def test_exact_sqp_engine_matches_sequential_run():
    _check_sqp_against_replay(MethodConfig(tau=None), seed=14, n_iters=300)


def test_sketched_sqp_engine_matches_sequential_run():
    _check_sqp_against_replay(MethodConfig(tau=2), seed=6, n_iters=200)


# ---------------------------------------------------------------------------
# fallbacks of the batched solves


def test_lu_solve_falls_back_to_lstsq_on_a_singular_slice():
    rng = np.random.default_rng(31)
    K = rng.standard_normal((3, 4, 4))
    K = K + K.transpose(0, 2, 1)
    K[1, 2, :] = 0.0  # an exactly singular slice: LU meets a zero pivot
    K[1, :, 2] = 0.0
    rhs = rng.standard_normal((3, 4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(K[1], -rhs[1])
    out = experiment._direct_solve_batched(K, rhs)
    assert np.array_equal(out[1], np.linalg.lstsq(K[1], -rhs[1], rcond=None)[0])
    for r in (0, 2):
        assert np.array_equal(out[r], np.linalg.solve(K[r], -rhs[r]))


def test_exact_solve_falls_back_to_lstsq_per_replication():
    # a singular positive semidefinite slice, as a Hessian average of fewer
    # than d rank-1 samples is
    rng = np.random.default_rng(32)
    A = rng.standard_normal((3, 3, 3))
    B = A @ A.transpose(0, 2, 1) + 0.5 * np.eye(3)
    B[1] = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    g = rng.standard_normal((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(B[1], -g[1])
    out = experiment._direct_solve_batched(B, g)
    assert np.array_equal(out[1], np.linalg.lstsq(B[1], -g[1], rcond=None)[0])
    assert out[1][2] == 0.0  # minimum norm: nothing along the null space
    for r in (0, 2):
        assert np.array_equal(out[r], np.linalg.solve(B[r], -g[r]))


# ---------------------------------------------------------------------------
# the coordinate sweep and its skipped degenerate rows


def _sweep_problem(rng, R, n):
    A = rng.standard_normal((R, n, n))
    B = A + A.transpose(0, 2, 1)
    g = rng.standard_normal((R, n))
    return B, g


def _shrink(B, r, i, scale):
    """Scale row and column i of B[r]; at 1e-7 the row energy is far below
    the sweep tolerance, at 0 the row is exactly zero."""
    B[r, i, :] *= scale
    B[r, :, i] *= scale


def _sweep_tol(B):
    flat = B.reshape(B.shape[0], -1)  # as sketch._tol_abs, in _run_shard
    return 1e-12 * np.einsum("ri,ri->r", flat, flat) / B.shape[-1]


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("R", [1, 7, 200])
@pytest.mark.parametrize("tau", [1, 2, 40])
def test_uc_sweep_matches_per_step_replay_bit_for_bit(tau, R, dtype):
    n = 4
    rng = np.random.default_rng(1000 * tau + R)
    B, g = _sweep_problem(rng, R, n)
    _shrink(B, 0, 2, 1e-7)  # a degenerate row, yet not an exactly zero one
    tol = _sweep_tol(B)
    idx = rng.integers(0, n, size=(R, tau)).astype(dtype)
    idx[0, 0] = 2  # replication 0 meets it at the first step
    out = experiment._uc_solve_batched(B, g, idx, tol)
    ref = uc_sweep_replay(B, g, idx, tol)
    assert np.array_equal(out, ref)
    assert _same_bits(out, ref)


def test_uc_sweep_skips_degenerate_rows_and_leaves_the_rest_alone():
    n, R = 4, 5
    rng = np.random.default_rng(41)
    B, g = _sweep_problem(rng, R, n)
    _shrink(B, 0, 1, 0.0)
    _shrink(B, 1, 2, 1e-7)
    tol = _sweep_tol(B)
    idx = rng.integers(0, n, size=(R, 6)).astype(np.uint8)
    idx[0] = [1, 0, 1, 3, 2, 1]  # replication 0 picks its zero row 3 times
    idx[1] = [0, 2, 3, 2, 1, 0]  # replication 1 its tiny row twice
    out = experiment._uc_solve_batched(B, g, idx, tol)
    # the reference's pseudo-inverse skips the zero row by itself
    _close(out[0], sketch_loop(B[0], g[0], coordinate_sketches(idx[0], n)))
    # it would project onto the tiny row, so its steps are left out
    kept = [i for i in idx[1] if i != 2]
    _close(out[1], sketch_loop(B[1], g[1], coordinate_sketches(kept, n)))
    # the other rows still move both directions
    assert (np.abs(out[:2]).max(axis=1) > 0.0).all()
    # the other replications are what they are without the first two
    rest = experiment._uc_solve_batched(B[2:], g[2:], idx[2:], tol[2:])
    assert _same_bits(out[2:], rest)
    for r in range(2, R):
        _close(out[r], sketch_loop(B[r], g[r], coordinate_sketches(idx[r], n)))


# ---------------------------------------------------------------------------
# the estimators on a stack of replications, folded into running sums once
# per sub-block

SUB = experiment._SUB


def _estimator_stream(rng, t, R=4, d=3):
    xs = rng.standard_normal((t, R, d)) + np.arange(1.0, d + 1.0)
    phis = 0.5 * (np.arange(t) + 1.0) ** -0.505
    return xs, phis


@pytest.mark.parametrize("t", [1, SUB - 1, SUB, SUB + 1, 1000])
def test_batched_wsc_and_plugin_equal_the_sequential_accumulators(t):
    rng = np.random.default_rng(t)
    xs, phis = _estimator_stream(rng, t)
    R, d = xs.shape[1:]
    gs = rng.standard_normal((t, R, d))
    wsc = WscAccumulator(d)
    plug = PlugInAccumulator(d)
    for x, phi, g in zip(xs, phis, gs):
        wsc.update(x, phi)
        plug.update(g)
    est, G = wsc.estimate(), plug.G
    for r in range(R):
        acc = WscAccumulator(d)
        pacc = PlugInAccumulator(d)
        for x, phi, g in zip(xs[:, r], phis, gs[:, r]):
            acc.update(x, phi)
            pacc.update(g)
        _close(est[r], acc.estimate(), tol=1e-12)
        _close(G[r], pacc.G, tol=1e-12)
        _close(est[r], wsc_two_pass(xs[:, r], phis), tol=1e-12)


def test_reading_estimates_mid_sub_block_changes_no_later_estimate():
    rng = np.random.default_rng(3)
    xs, phis = _estimator_stream(rng, 3 * SUB + 5)
    gs = rng.standard_normal(xs.shape)
    quiet = (WscAccumulator(3), PlugInAccumulator(3))
    read = (WscAccumulator(3), PlugInAccumulator(3))
    for t, (x, phi, g) in enumerate(zip(xs, phis, gs), start=1):
        for wsc, plug in (quiet, read):
            wsc.update(x, phi)
            plug.update(g)
        if t in (1, SUB // 2, SUB, SUB + 3):
            read[0].estimate()
            read[1].G
    assert np.array_equal(quiet[0].estimate(), read[0].estimate())
    assert np.array_equal(quiet[1].G, read[1].G)


def test_a_nan_replication_leaves_the_others_sums_alone():
    rng = np.random.default_rng(4)
    xs, phis = _estimator_stream(rng, 2 * SUB + 7)
    bad = xs.copy()
    bad[SUB + 2, 1] = np.nan
    runs = []
    for data in (xs, bad):
        wsc = WscAccumulator(3)
        plug = PlugInAccumulator(3)
        for x, phi in zip(data, phis):
            wsc.update(x, phi)
            plug.update(x)
        runs.append((wsc.estimate(), plug.G, wsc.sum_wxx, plug.sum_gg))
    keep = [0, 2, 3]
    for clean, poisoned in zip(*runs):
        assert np.isnan(poisoned[1]).all()
        assert np.array_equal(clean[keep], poisoned[keep])


@pytest.mark.parametrize("t", [1, 15, 16, 17, 1000])
def test_batch_means_keep_a_running_sum_equal_to_two_pass(t):
    rng = np.random.default_rng(t)
    xs = rng.standard_normal((t, 3, 2)) + 5.0
    seq = [BatchMeansAccumulator(2, 0.505) for _ in range(3)]
    stacked = BatchMeansAccumulator(2, 0.505)
    for x in xs:
        stacked.update(x)
        for r, bm in enumerate(seq):
            bm.update(x[r])
    for r, bm in enumerate(seq):
        mean = xs[:, r].mean(axis=0)
        _close(bm.mean, mean, tol=1e-12)
        _close(stacked.mean[r], mean, tol=1e-12)
        if bm.n_completed >= 2:
            _close(stacked.estimate()[r], bm.estimate(), tol=1e-12)
            ends = [bm.boundary(m) for m in range(1, bm.n_completed + 1)]
            _close(bm.estimate(), batch_means_two_pass(xs[:, r], ends),
                   tol=1e-12)


# ---------------------------------------------------------------------------
# invariances of the engine


@pytest.mark.parametrize("problem,direction", [
    (ProblemConfig(d=3, design="equicorr", r=0.3), "mean"),
    (ProblemConfig(family="eqqp", sigma2=1e-2), "inactive"),
])
def test_wsc_update_is_called_once_per_step_with_every_replication(
        monkeypatch, problem, direction):
    # the benchmark stamps each engine step at this call and counts
    # replication-steps from its argument
    calls = []
    update = experiment._BatchedWsc.update

    def counting(self, X, phi):
        calls.append((type(X), X.shape))
        return update(self, X, phi)

    monkeypatch.setattr(experiment._BatchedWsc, "update", counting)
    cfg = _cfg(problem=problem, method=MethodConfig(tau=2),
               n_iters=3 * SUB + 5, n_reps=3, record_every=SUB + 1,
               estimators=("wsc",), direction=direction)
    run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3, chunk=50)
    assert calls == [(np.ndarray, (3, 3))] * cfg.experiment.n_iters


@pytest.mark.parametrize("problem,method,direction,estimators", [
    (ProblemConfig(d=3), MethodConfig(tau=2), "mean", ("wsc", "plugin")),
    (ProblemConfig(family="eqqp", sigma2=1e-2), MethodConfig(tau=40),
     "inactive", ("wsc",)),
    (ProblemConfig(d=3), MethodConfig(tau=2, sketch="gaussian", gaussian_q=1),
     "mean", ("wsc", "plugin")),
], ids=["linear-coordinate", "eqqp-tau40", "linear-gaussian-q1"])
def test_chunk_size_does_not_change_results(problem, method, direction,
                                            estimators):
    # every generator is read in per-step order whatever the chunk, so only
    # logistic label uniforms (laid out per chunk) may depend on it; 300
    # steps cross the default chunk's boundary
    cfg = _cfg(problem=problem, method=method, n_iters=300, n_reps=2,
               record_every=50, estimators=estimators, direction=direction)
    ref = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3, chunk=1)
    assert len(ref.rows) == 6
    for chunk in (50, experiment._CHUNK, 1024):
        out = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3,
                             chunk=chunk)
        assert _same_bits(out.final_x, ref.final_x), chunk
        if ref.final_lam is None:
            assert out.final_lam is None
        else:
            assert _same_bits(out.final_lam, ref.final_lam), chunk
        assert out.rows == ref.rows, chunk


def test_a_constrained_study_holds_small_random_blocks():
    # the per-chunk random blocks set a study's peak memory: at R = 200
    # and tau = 40 they take 6.1e6 bytes per 256 steps, and the study's
    # traced peak is 7.5e6 bytes (13.6e6 to 14.3e6 with 512-step blocks).
    # 512 steps, not 1024, because tracing costs about 2 ms a step here.
    cfg = _cfg(problem=ProblemConfig(family="eqqp", sigma2=1e-2),
               method=MethodConfig(tau=40), n_iters=512, n_reps=200,
               record_every=512, estimators=("wsc",), direction="inactive")
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_rerunning_a_study_is_byte_identical(tmp_path):
    cfg = _cfg(method=MethodConfig(tau=2), n_iters=100, n_reps=2,
               record_every=25)
    blobs = []
    for tag in ("a", "b"):
        result = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3)
        path = tmp_path / f"{tag}.csv"
        write_aggregate_csv(result, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# schema, rows, and divergence handling


def test_row_checkpoints_and_csv_schema(tmp_path):
    cfg = _cfg(method=MethodConfig(tau=2), n_iters=100, n_reps=2,
               record_every=10)
    result = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3)
    assert result.columns == AGGREGATE_COLUMNS
    assert [row["t"] for row in result.rows] == list(range(10, 101, 10))
    assert result.n_reps == 2 and result.n_diverged == 0
    assert not result.diverged_majority
    assert result.target == pytest.approx(float(result.w @ np.full(3, 1 / 3)))

    # per-replication coverage indicators average into the aggregate row
    last = result.rows[-1]
    per_rep = result.final_per_rep
    assert last["cov_wsc"] == pytest.approx(per_rep["cov_wsc"].mean())
    assert set(per_rep["cov_wsc"]) <= {0.0, 1.0}

    agg = tmp_path / "agg.csv"
    summ = tmp_path / "sum.csv"
    write_aggregate_csv(result, str(agg))
    write_summary_csv(result, str(summ))
    agg_lines = agg.read_text().strip().splitlines()
    assert agg_lines[0] == ",".join(AGGREGATE_COLUMNS)
    assert len(agg_lines) == 11
    summ_lines = summ.read_text().strip().splitlines()
    assert summ_lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summ_lines) == 3  # wsc + plugin
    assert summ_lines[1].startswith("wsc,100,")
    assert summ_lines[2].startswith("plugin,100,")


def test_plugin_columns_stay_empty_before_t_reaches_d():
    # the plug-in estimate is formed from t = d on.  Before that the
    # Hessian average is singular, but in this study (d = 4) not exactly,
    # so without the guard its solves would succeed.
    eye = np.eye(4)
    cfg = _cfg(problem=ProblemConfig(d=4), method=MethodConfig(tau=2),
               n_iters=6, n_reps=2, record_every=1)
    result = run_experiment(cfg, oracle_xi=eye, oracle_omega=eye)
    assert [row["t"] for row in result.rows] == [1, 2, 3, 4, 5, 6]
    for row in result.rows:
        for col in ("rel_cov_err_plugin", "cov_plugin",
                    "rel_cov_err_wsc", "cov_wsc"):
            assert (row[col] is None) == (col.endswith("plugin")
                                          and row["t"] < 4)


def test_divergent_replications_are_masked_not_fatal(monkeypatch):
    monkeypatch.setattr(experiment, "_DIVERGENCE_NORM", 1e-6)
    cfg = _cfg(method=MethodConfig(tau=2), n_iters=50, n_reps=2,
               record_every=10)
    result = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3)
    assert result.n_diverged == 2
    assert result.diverged_majority
    assert result.final_estimates["wsc"] is None
    assert result.rows[-1]["rel_cov_err_wsc"] is None
    assert result.final["cov_wsc"] is None


@pytest.mark.parametrize("hit", [
    lambda t: t >= 10,
    # tripping the guard once: the frozen replication must stay at x0
    # through the steps that trip no guard
    lambda t: t == 10,
], ids=["t>=10", "t==10"])
@pytest.mark.parametrize("problem,direction,estimators", [
    (ProblemConfig(d=3, design="equicorr", r=0.3), "mean", ("wsc", "plugin")),
    (ProblemConfig(family="eqqp", sigma2=1e-2), "inactive", ("wsc",)),
])
def test_a_frozen_replication_is_reset_and_leaves_the_others_alone(
        monkeypatch, problem, direction, estimators, hit):
    cfg = _cfg(problem=problem, method=MethodConfig(tau=2), n_iters=100,
               n_reps=3, record_every=25, estimators=estimators,
               direction=direction)
    clean = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3)
    step = experiment.newton_step  # the one step of both families

    def poisoned(state, *args):
        out = step(state, *args)
        if hit(state.t):
            out.x[1] = np.nan
        return out

    monkeypatch.setattr(experiment, "newton_step", poisoned)
    result = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3)
    x0 = getattr(cfg.build_problem(), "x0", np.zeros(3))
    assert result.n_diverged == 1
    assert np.array_equal(result.final_x[1], x0)
    if problem.family == "eqqp":
        assert np.array_equal(result.final_lam[1], np.zeros(1))
    else:
        assert result.final_lam is None
    keep = [0, 2]
    assert _same_bits(result.final_x[keep], clean.final_x[keep])
    assert result.final_per_rep.keys() == clean.final_per_rep.keys()
    for key, arr in clean.final_per_rep.items():
        assert _same_bits(result.final_per_rep[key][keep], arr[keep]), key


def test_a_singular_hessian_average_blanks_only_its_own_plugin_row(
        monkeypatch):
    cfg = _cfg(method=MethodConfig(tau=2), n_iters=100, n_reps=4,
               record_every=25)
    clean = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3)
    step = experiment.newton_step

    def poisoned(state, *args):
        # replication 1's Hessian average is exactly zero from t = 60 on,
        # which fails the stacked solve of the plug-in estimate
        out = step(state, *args)
        if out.t >= 60:
            out.B[1] = 0.0
        return out

    monkeypatch.setattr(experiment, "newton_step", poisoned)
    result = run_experiment(cfg, oracle_xi=EYE3, oracle_omega=EYE3)
    assert result.n_diverged == 0
    for row in result.rows[-2:]:  # t = 75 and t = 100
        assert row["rel_cov_err_plugin"] is not None
        assert row["cov_plugin"] is not None
    keep = [0, 2, 3]
    for key in ("rel_cov_err_plugin", "rel_var_err_plugin", "cov_plugin"):
        assert _same_bits(result.final_per_rep[key][keep],
                          clean.final_per_rep[key][keep]), key
        assert np.isnan(result.final_per_rep[key][1]), key
    # the final plug-in estimate averages the replications that have one
    assert np.isfinite(result.final_estimates["plugin"]).all()


@pytest.mark.parametrize("solver", ["newton", "sgd"])
def test_the_harness_intervals_are_directional_cis_row_by_row(
        monkeypatch, solver):
    # each replication's final hit, recomputed from its final estimate by a
    # one-replication directional_ci call; in the Newton study replication
    # 1's Hessian average is exactly zero from t = 60 on, so its plug-in
    # estimate, and with it its interval, is NaN
    sgd = solver == "sgd"
    cfg = _cfg(method=MethodConfig(solver=solver, tau=None if sgd else 2),
               schedule=ScheduleConfig(c_beta=0.5, c_chi=0.0,
                                       mode="deterministic") if sgd else None,
               n_iters=100, n_reps=4, record_every=25,
               estimators=("batchmeans",) if sgd else ("wsc", "plugin"))
    cfg = dataclasses.replace(cfg, experiment=dataclasses.replace(
        cfg.experiment, ci_level=0.9))
    calls = []
    metrics, step = experiment._checkpoint_metrics, experiment.newton_step

    def recording(*args):
        calls.append(args)
        return metrics(*args)

    def poisoned(state, *args):
        out = step(state, *args)
        if out.t >= 60:
            out.B[1] = 0.0
        return out

    monkeypatch.setattr(experiment, "_checkpoint_metrics", recording)
    monkeypatch.setattr(experiment, "newton_step", poisoned)
    xi = np.diag([1.0, 2.0, 0.5])
    result = run_experiment(cfg, oracle_xi=None if sgd else xi,
                            oracle_omega=xi)
    t, mean, ests = calls[-1][0], calls[-1][7], calls[-1][8]
    assert t == 100
    x, scale = ((mean, 1.0 / t) if sgd
                else (result.final_x, cfg.build_schedule().phi(t - 1)))
    covs = {"cov_" + experiment._SUFFIX[name]: est
            for name, est in ests.items()}
    covs["cov_oracle"] = np.broadcast_to(xi, (4, 3, 3))
    assert set(covs) == ({"cov_bm", "cov_oracle"} if sgd
                         else {"cov_wsc", "cov_plugin", "cov_oracle"})
    per_rep = result.final_per_rep
    for key, cov in covs.items():
        for r in range(4):
            ci = directional_ci(x[r], scale, cov[r], result.w, level=0.9)
            hit = (np.nan if np.isnan(ci.half_width)
                   else float(abs(ci.center - result.target) <= ci.half_width))
            assert _same_bits(per_rep[key][r:r + 1], np.array([hit])), (
                key, r)
    if not sgd:
        assert np.isnan(per_rep["cov_plugin"][1])
        assert np.isfinite(per_rep["cov_wsc"]).all()
