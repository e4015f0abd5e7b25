"""Tests for the online covariance estimators and their inverse recursion."""

import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snewt.covariance import (
    BatchMeansAccumulator,
    InsufficientData,
    PlugInAccumulator,
    WscAccumulator,
    WscInverseTracker,
    WscSink,
    plugin_estimate,
)
from snewt.optimizer import StepsizeSchedule, run
from snewt.problems import DesignCovSpec, RegressionModel, default_x_star
from snewt.sketch import SketchSolveConfig
from tests.oracles import (
    middle_minus,
    middle_plus,
    recursive_inverse_replay,
    wsc_two_pass,
)


def _random_trace(seed, t, d, loc=0.0):
    rng = np.random.default_rng(seed)
    xs = loc + rng.standard_normal((t, d))
    phis = rng.uniform(0.2, 2.0, size=t)
    return [xs[i] for i in range(t)], [float(p) for p in phis]


# ---------------------------------------------------------------------------
# weighted sample covariance


def test_single_update_gives_zero_estimate():
    acc = WscAccumulator(3)
    acc.update(np.array([1.0, -2.0, 0.5]), 0.7)
    assert acc.t == 1
    assert np.abs(acc.estimate()).max() < 1e-14


def test_constant_trace_gives_zero_covariance():
    acc = WscAccumulator(2)
    x = np.array([0.4, -1.1])
    for i in range(20):
        acc.update(x, 1.0 / (i + 1.0))
    assert np.abs(acc.estimate()).max() < 1e-12


def test_estimate_requires_data_and_valid_dimension():
    with pytest.raises(ValueError):
        WscAccumulator(0)
    acc = WscAccumulator(2)
    with pytest.raises(InsufficientData):
        acc.estimate()


def test_weights_must_be_positive():
    acc = WscAccumulator(2)
    for bad_phi in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            acc.update(np.ones(2), bad_phi)
    assert acc.t == 0 and acc.sum_w == 0.0  # nothing was folded in
    acc.update(np.ones(2), 0.5)
    assert np.isfinite(acc.estimate()).all()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    t=st.integers(min_value=2, max_value=40),
    d=st.integers(min_value=1, max_value=4),
)
def test_recursive_estimate_matches_two_pass(seed, t, d):
    xs, phis = _random_trace(seed, t, d)
    acc = WscAccumulator(d)
    for x, phi in zip(xs, phis):
        acc.update(x, phi)
    direct = wsc_two_pass(xs, phis)
    scale = max(1.0, np.abs(direct).max())
    assert np.abs(acc.estimate() - direct).max() <= 1e-10 * scale


def test_estimate_is_positive_semidefinite():
    xs, phis = _random_trace(123, 60, 4)
    acc = WscAccumulator(4)
    for x, phi in zip(xs, phis):
        acc.update(x, phi)
    assert np.linalg.eigvalsh(acc.estimate()).min() >= -1e-10


def test_doubling_the_trace_scales_the_estimate_exactly():
    xs, phis = _random_trace(7, 30, 3)
    acc1, acc2 = WscAccumulator(3), WscAccumulator(3)
    for x, phi in zip(xs, phis):
        acc1.update(x, phi)
        acc2.update(2.0 * x, phi)
    assert np.array_equal(acc2.estimate(), 4.0 * acc1.estimate())


def test_sink_weights_records_by_the_band_center():
    sched = StepsizeSchedule()
    acc = WscAccumulator(2)
    sink = WscSink(sched, acc)
    sink(1, np.array([1.0, 0.0]), 1.23)  # alpha is ignored by the weights
    assert acc.t == 1
    assert acc.a == 1.0 / sched.phi(0)


def test_sink_on_a_real_run_matches_two_pass():
    model = RegressionModel(
        family="linear",
        x_star=default_x_star(3),
        design=DesignCovSpec(kind="equicorr", r=0.2),
    )
    sched = StepsizeSchedule()
    acc = WscAccumulator(3)
    records = []
    run(model, SketchSolveConfig(), sched, 400, 17,
        sinks=(WscSink(sched, acc), lambda t, x, a: records.append((t, x.copy()))))
    xs = [x for _, x in records]
    phis = [sched.phi(t - 1) for t, _ in records]
    direct = wsc_two_pass(xs, phis)
    assert np.abs(acc.estimate() - direct).max() <= 1e-10 * np.abs(direct).max()


# ---------------------------------------------------------------------------
# recursive inverse


def test_inverse_tracker_matches_direct_inversion():
    d, burn, extra = 5, 50, 500
    xs, phis = _random_trace(2024, burn + extra, d)
    tracker = WscInverseTracker(d)
    worst_entry = 0.0
    worst_product = 0.0
    for i, (x, phi) in enumerate(zip(xs, phis)):
        tracker.update(x, phi)
        if i + 1 < burn:
            assert tracker.xi_inv is None
        else:
            est = tracker.acc.estimate()
            direct = np.linalg.inv(est)
            worst_entry = max(worst_entry,
                              np.abs(tracker.xi_inv - direct).max())
            worst_product = max(
                worst_product,
                np.linalg.norm(tracker.xi_inv @ est - np.eye(d)))
    assert tracker.n_fallbacks == 0
    assert worst_entry <= 1e-8
    assert worst_product <= 1e-6
    assert np.array_equal(tracker.xi_inv, tracker.xi_inv.T)


def test_inverse_tracker_quadratic_form_agrees():
    d = 4
    xs, phis = _random_trace(99, 300, d)
    tracker = WscInverseTracker(d)
    for x, phi in zip(xs, phis):
        tracker.update(x, phi)
    w = np.full(d, 1.0 / d)
    direct = float(w @ np.linalg.solve(tracker.acc.estimate(), w))
    recursive = float(w @ tracker.xi_inv @ w)
    assert abs(recursive - direct) <= 1e-8 * abs(direct)


def test_inverse_tracker_scalar_dimension():
    xs, phis = _random_trace(5, 200, 1)
    tracker = WscInverseTracker(1, burn_in=2)
    for x, phi in zip(xs, phis):
        tracker.update(x, phi)
    direct = 1.0 / tracker.acc.estimate()[0, 0]
    assert abs(tracker.xi_inv[0, 0] - direct) <= 1e-12 * abs(direct)


def test_inverse_tracker_burn_in_validation():
    with pytest.raises(ValueError):
        WscInverseTracker(3, burn_in=3)
    tracker = WscInverseTracker(3)  # default burn-in: 10 d
    assert tracker.burn_in == 30


def test_inverse_tracker_postpones_a_singular_burn_in(caplog):
    # a constant trace gives an estimate of exactly zero at burn-in
    tracker = WscInverseTracker(1, burn_in=2)
    with caplog.at_level(logging.WARNING, logger="snewt.covariance"):
        for _ in range(2):
            tracker.update(np.array([3.0]), 0.5)
    assert tracker.xi_inv is None
    assert "singular estimate at burn-in; postponing" in caplog.text
    # the next update retries the direct inversion
    tracker.update(np.array([1.0]), 0.5)
    assert np.array_equal(tracker.xi_inv, np.linalg.inv(tracker.acc.estimate()))
    assert tracker.n_fallbacks == 0


def test_inverse_tracker_reinverts_on_an_exactly_singular_inner_system(caplog):
    # d = 1, three zero iterates with phi = 1, then x = 1 with phi = 1 at
    # t = 3: a_t = 1 and R^T = [0, -1/4, 3/4].  With xi_inv = -4 the inner
    # system is C = [[-1, 1, 0], [1, -1/4, 3/4], [0, 3/4, 3/4]] in dyadic
    # floats, so its determinant is exactly zero.
    tracker = WscInverseTracker(1, burn_in=3)
    for _ in range(3):
        tracker.update(np.zeros(1), 1.0)
    tracker.xi_inv = np.array([[-4.0]])
    with caplog.at_level(logging.WARNING, logger="snewt.covariance"):
        tracker.update(np.ones(1), 1.0)
    assert tracker.n_fallbacks == 1
    assert "singular 3x3 system at t=4; re-inverting" in caplog.text
    assert np.array_equal(tracker.xi_inv, np.linalg.inv(tracker.acc.estimate()))


def test_inverse_tracker_makes_no_linalg_call_after_burn_in(monkeypatch):
    d = 4
    xs, phis = _random_trace(11, 300, d)
    tracker = WscInverseTracker(d)
    burn = tracker.burn_in
    for x, phi in zip(xs[:burn], phis[:burn]):
        tracker.update(x, phi)
    assert tracker.xi_inv is not None

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called after burn-in")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    for x, phi in zip(xs[burn:], phis[burn:]):
        tracker.update(x, phi)
    monkeypatch.undo()
    assert tracker.n_fallbacks == 0
    assert np.abs(tracker.xi_inv @ tracker.acc.estimate() - np.eye(d)).max() <= 1e-9


def test_long_horizon_drift_and_running_sums_stay_at_roundoff():
    # 1e5 iterates shaped like a run's: x_t = x* + sqrt(phi_t) z_t with the
    # default schedule's band centers as weights
    d, n = 5, 100_000
    rng = np.random.default_rng(2025)
    phis = StepsizeSchedule().phi(np.arange(n))
    chol = np.linalg.cholesky(np.eye(d) + 0.3)
    xs = 1.0 + np.sqrt(phis)[:, None] * (rng.standard_normal((n, d)) @ chol.T)
    tracker = WscInverseTracker(d)
    for x, phi in zip(xs, phis.tolist()):
        tracker.update(x, phi)
    est = tracker.acc.estimate()
    dev = xs - xs.mean(axis=0)
    two_pass = (dev.T / phis) @ dev / n
    assert tracker.n_fallbacks == 0
    assert np.abs(tracker.xi_inv @ est - np.eye(d)).max() <= 1e-9
    assert np.abs(est - two_pass).max() <= 1e-9 * np.abs(two_pass).max()


def test_middle_matrix_sign_variants():
    # the rank-3 update factor and its exact inverse
    a, t, phi = 0.8, 37, 0.3
    L = np.array([[0.0, 1.0, 0.0], [1.0, a, 0.0], [0.0, 0.0, 1.0 / (t * phi)]])
    assert np.allclose(middle_minus(a, t, phi) @ L, np.eye(3), atol=1e-12)
    plus_product = middle_plus(a, t, phi) @ L
    assert abs(plus_product[0, 1] - 2.0 * a) < 1e-12  # not the inverse

    # replaying the recursion: the -a variant tracks the direct inverse,
    # the +a variant drifts away immediately
    d, burn = 3, 12
    xs, phis = _random_trace(31, burn + 60, d)
    direct = np.linalg.inv(wsc_two_pass(xs, phis))
    good = recursive_inverse_replay(xs, phis, burn, middle_minus)[-1]
    bad = recursive_inverse_replay(xs, phis, burn, middle_plus)[-1]
    scale = np.abs(direct).max()
    assert np.abs(good - direct).max() <= 1e-8 * scale
    assert np.abs(bad - direct).max() > 1e-3 * scale


# ---------------------------------------------------------------------------
# plug-in baseline


def test_plugin_hand_example():
    acc = PlugInAccumulator(2)
    acc.update(np.array([1.0, 0.0]))
    acc.update(np.array([0.0, 2.0]))
    assert np.array_equal(acc.G, np.diag([0.5, 2.0]))
    est = plugin_estimate(acc, np.eye(2), beta=0.505, c_beta=1.0)
    assert np.allclose(est, np.diag([0.25, 1.0]), atol=1e-15)
    # sandwich with a non-identity curvature matrix
    est2 = plugin_estimate(acc, np.diag([2.0, 1.0]), beta=0.505, c_beta=1.0)
    assert np.allclose(est2, np.diag([0.5 / 4.0, 2.0]) / 2.0, atol=1e-15)


def test_plugin_scale_at_beta_one():
    acc = PlugInAccumulator(1)
    acc.update(np.array([2.0]))
    est_sub = plugin_estimate(acc, np.eye(1), beta=0.7, c_beta=1.0)
    est_one = plugin_estimate(acc, np.eye(1), beta=1.0, c_beta=1.0)
    assert np.allclose(est_sub, [[2.0]], atol=1e-15)   # G / 2
    assert np.allclose(est_one, [[4.0]], atol=1e-15)   # G / (2 - 1/c_beta)


def test_plugin_errors():
    acc = PlugInAccumulator(2)
    with pytest.raises(InsufficientData):
        plugin_estimate(acc, np.eye(2), beta=0.505, c_beta=1.0)
    acc.update(np.ones(2))
    with pytest.raises(ValueError):
        plugin_estimate(acc, np.eye(2), beta=1.0, c_beta=0.5)


# ---------------------------------------------------------------------------
# batch means baseline


def test_batch_means_boundaries():
    bm = BatchMeansAccumulator(1, beta=0.505)
    assert [bm.boundary(m) for m in (1, 2, 3)] == [1, 16, 84]


def test_batch_means_is_unbiased_for_iid_iterates():
    # For i.i.d. N(0, Sigma) iterates the batch means are independent
    # N(0, Sigma / n_m), so the n_m^2-weighted estimate has expectation
    # exactly Sigma (1 - sum n_m^2 / N^2), N = sum n_m.
    d, n_steps, n_reps = 2, 700, 200
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((n_reps, n_steps, d)) @ np.linalg.cholesky(sigma).T
    ests = []
    for rep in xs:
        bm = BatchMeansAccumulator(d, beta=0.505)
        for x in rep:
            bm.update(x)
        ests.append(bm.estimate())
    assert np.allclose(bm.mean, xs[-1].mean(axis=0), atol=1e-12)
    assert bm.n_completed == 5
    ends = [bm.boundary(m) for m in range(1, bm.n_completed + 1)]
    sizes = np.diff([0] + ends)
    expected = sigma * (1.0 - (sizes**2).sum() / sizes.sum() ** 2)
    ests = np.array(ests)
    se = ests.std(axis=0, ddof=1) / np.sqrt(n_reps)
    assert np.all(np.abs(ests.mean(axis=0) - expected) <= 5.0 * se)


def test_batch_means_identical_batches_give_zero():
    bm = BatchMeansAccumulator(1, beta=0.505)
    for _ in range(100):
        bm.update(np.array([3.0]))
    assert np.abs(bm.estimate()).max() < 1e-12


def test_batch_means_needs_two_completed_batches():
    bm = BatchMeansAccumulator(1, beta=0.505)
    for _ in range(15):  # second boundary is at 16
        bm.update(np.array([1.0]))
    with pytest.raises(InsufficientData):
        bm.estimate()
    bm.update(np.array([1.0]))
    bm.estimate()  # exactly two completed batches now


def test_batch_means_beta_range():
    for bad in (0.5, 1.0, 0.0, 1.2):
        with pytest.raises(ValueError):
            BatchMeansAccumulator(1, beta=bad)
