"""End-to-end acceptance checks.

Each test is one headline guarantee, sized so the whole module reruns at a
desk in a few minutes.  The Monte-Carlo studies are deterministic (fixed
base seeds, replication streams independent of worker count), so alongside
each acceptance band we pin the exact value the committed configuration
reproduces; a pin failure means behaviour changed, a band failure means the
method stopped delivering.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from snewt.cli import tail_slope
from snewt.config import parse_config
from snewt.covariance import WscAccumulator, WscInverseTracker
from snewt.experiment import run_experiment
from snewt.inference import chi2_quantile, normal_quantile
from snewt.oracle import (
    c_star,
    lambda_matrix,
    oracle_covariance,
    rel_cov_error,
    single_step_projection_expectation,
    xi_star,
)
from snewt.problems import RegressionModel, default_x_star
from snewt.sketch import SketchDistribution
from tests.oracles import (
    lambda_by_enumeration,
    middle_minus,
    middle_plus,
    recursive_inverse_replay,
    wsc_two_pass,
)

UC = SketchDistribution(kind="uniform_coordinate")
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _trace(seed, t, d):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((t, d))
    phis = rng.uniform(0.2, 2.0, size=t)
    return xs, phis


# ---------------------------------------------------------------------------
# 1. the running estimator is exactly the two-pass statistic


def test_01_recursive_estimator_matches_two_pass_reference():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        xs, phis = _trace(seed, 1000, 5)
        acc = WscAccumulator(5)
        for x, phi in zip(xs, phis):
            acc.update(x, phi)
        direct = wsc_two_pass(xs, phis)
        worst = max(worst, float(np.abs(acc.estimate() - direct).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. the rank-three inverse recursion tracks the direct inverse, and the
#    sign of the middle-matrix correction is the one that works


def test_02_inverse_recursion_tracks_direct_inverse():
    d, extra = 5, 500
    tracker = WscInverseTracker(d)  # default burn-in: 50 updates
    xs, phis = _trace(314, tracker.burn_in + extra, d)
    worst = 0.0
    eye = np.eye(d)
    for i, (x, phi) in enumerate(zip(xs, phis)):
        tracker.update(x, phi)
        if i + 1 >= tracker.burn_in:
            product = tracker.xi_inv @ tracker.acc.estimate()
            worst = max(worst, float(np.linalg.norm(product - eye)))
    assert tracker.n_fallbacks == 0
    assert worst <= 1e-6


def test_02_middle_matrix_negative_shift_is_the_correct_sign():
    # Algebraic identity: with L = [[0,1,0],[1,a,0],[0,0,1/(t phi)]], the
    # middle matrix carrying -a is exactly inv(L); flipping the sign to +a
    # leaves a 2a off-diagonal residue, so it cannot be the inverse.
    a, t, phi = 0.8, 37, 0.3
    L = np.array([[0.0, 1.0, 0.0], [1.0, a, 0.0], [0.0, 0.0, 1.0 / (t * phi)]])
    assert np.abs(middle_minus(a, t, phi) @ L - np.eye(3)).max() <= 1e-12
    assert abs((middle_plus(a, t, phi) @ L)[0, 1] - 2.0 * a) <= 1e-12

    # Replayed on data: the -a recursion stays within roundoff of the
    # directly inverted estimate; the +a recursion drifts far outside it.
    xs, phis = _trace(271, 160, 3)
    direct = np.linalg.inv(wsc_two_pass(xs, phis))
    scale = float(np.abs(direct).max())
    inv_minus = recursive_inverse_replay(xs, phis, 40, middle_minus)[-1]
    inv_plus = recursive_inverse_replay(xs, phis, 40, middle_plus)[-1]
    assert np.abs(inv_minus - direct).max() <= 1e-8 * scale
    assert np.abs(inv_plus - direct).max() > 1e-3 * scale


# ---------------------------------------------------------------------------
# 3. the limiting covariance solves its stationarity equation, and the
#    operator-composition form of the injected-noise matrix is exhaustive


def test_03_limiting_covariance_solves_lyapunov_equation():
    rng = np.random.default_rng(7)
    for k in range(20):
        d = 3
        A = rng.standard_normal((d, d))
        B = A @ A.T + 0.8 * np.eye(d)
        W = rng.standard_normal((d, d))
        omega = W @ W.T + 0.5 * np.eye(d)
        tau = 1 + k % 3
        beta = float(rng.uniform(0.55, 0.95))
        P, _ = single_step_projection_expectation(B, UC)
        C = c_star(P, tau)
        lam, _ = lambda_matrix(B, omega, UC, tau=tau)
        xi = xi_star(C, lam, beta, 1.0)
        drift = np.eye(d) - C  # delta = 0 for beta < 1
        resid = drift @ xi + xi @ drift.T - lam
        assert np.abs(resid).max() <= 1e-10 * np.linalg.norm(lam, 2)


def test_03_operator_composition_matches_exhaustive_enumeration():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 3))
    B = A @ A.T + 0.8 * np.eye(3)
    W = rng.standard_normal((3, 3))
    omega = W @ W.T + 0.5 * np.eye(3)
    lam, _ = lambda_matrix(B, omega, UC, tau=3)
    brute = lambda_by_enumeration(B, omega, 3)  # all 3^3 index sequences
    assert np.abs(lam - brute).max() <= 1e-12


# ---------------------------------------------------------------------------
# 4. exact solves collapse the limit to half (or all) of the sandwich


def test_04_exact_solve_limits_half_and_full_sandwich():
    rng = np.random.default_rng(21)
    W = rng.standard_normal((4, 4))
    omega = W @ W.T + 0.5 * np.eye(4)
    zeros = np.zeros((4, 4))
    for beta in (0.505, 0.7, 0.999):
        assert np.array_equal(xi_star(zeros, omega, beta, 1.0), omega / 2.0)
    assert np.array_equal(xi_star(zeros, omega, 1.0, 1.0), omega)

    # Same identities through the full ground-truth pipeline.
    model = RegressionModel(family="linear", x_star=default_x_star(3))
    oc = oracle_covariance(model, UC, None, 0.7, 1.0)
    assert np.array_equal(oc.xi, oc.omega / 2.0)
    oc1 = oracle_covariance(model, UC, None, 1.0, 1.0)
    assert np.array_equal(oc1.xi, oc1.omega)


# ---------------------------------------------------------------------------
# 5-7. the headline Monte-Carlo study (scripts/configs/mean_functional.ini):
# 200 replications of 1e5 steps on a correlated linear problem with
# two-coordinate sketching


@pytest.fixture(scope="module")
def mean_functional_study():
    cfg = parse_config(CONFIGS / "mean_functional.ini")
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - t0


def test_05_final_interval_coverage_near_nominal(mean_functional_study):
    result, elapsed = mean_functional_study
    assert elapsed < 600.0
    assert result.n_diverged == 0
    final = result.final
    assert 0.91 <= final["cov_wsc"] <= 0.99
    assert 0.91 <= final["cov_oracle"] <= 0.99
    # Pinned values for this configuration (deterministic rerun).
    assert abs(final["cov_wsc"] - 0.9300) < 1e-12
    assert abs(final["cov_oracle"] - 0.9350) < 1e-12


def test_06_estimation_error_decays_with_horizon(mean_functional_study):
    result, _ = mean_functional_study
    pooled = rel_cov_error(result.final_estimates["wsc"], result.oracle_xi)
    assert pooled <= 0.15
    assert abs(pooled - 0.0260) < 5e-5  # pinned

    ts = [float(row["t"]) for row in result.rows]
    errs = [float(row["rel_cov_err_wsc"]) for row in result.rows]
    slope = tail_slope(ts, errs, 0.3)
    assert slope < 0.0 and abs(slope) >= 0.198
    assert abs(slope - (-0.2236)) < 5e-5  # pinned


def test_07_plugin_underestimates_variance_wsc_does_not(mean_functional_study):
    result, _ = mean_functional_study
    final = result.final
    assert final["rel_var_err_plugin"] < 0.0
    assert abs(final["rel_var_err_plugin"]) >= 0.1
    assert abs(final["rel_var_err_wsc"]) <= 0.05
    # Pinned values for this configuration (deterministic rerun).
    assert abs(final["rel_var_err_plugin"] - (-0.3612)) < 5e-5
    assert abs(final["rel_var_err_wsc"] - (-0.0122)) < 5e-5


# ---------------------------------------------------------------------------
# 8. under exact solves, doubling the estimate recovers the sandwich matrix
# (scripts/configs/exact_solve.ini)


def test_08_doubled_estimate_recovers_sandwich_under_exact_solves():
    result = run_experiment(parse_config(CONFIGS / "exact_solve.ini"))
    assert result.n_diverged == 0
    doubled = 2.0 * result.final_estimates["wsc"]
    err = rel_cov_error(doubled, result.oracle_omega)
    assert err <= 0.1
    assert abs(err - 0.0833) < 5e-5  # pinned


# ---------------------------------------------------------------------------
# 9. constrained runs (scripts/configs/constrained.ini, at sigma2 = 1e-2
# and at 1e-4): intervals for the average of the off-constraint
# coordinates cover at close to the nominal rate


@pytest.mark.parametrize("sigma2,pinned", [(1e-4, 0.9700), (1e-2, 0.9400)])
def test_09_constrained_intervals_cover_inactive_average(sigma2, pinned):
    cfg = parse_config(CONFIGS / "constrained.ini")
    cfg = dataclasses.replace(
        cfg, problem=dataclasses.replace(cfg.problem, sigma2=sigma2))
    result = run_experiment(cfg)
    assert result.n_diverged == 0
    coverage = result.final["cov_wsc"]
    assert 0.90 <= coverage <= 0.99
    assert abs(coverage - pinned) < 1e-12


# ---------------------------------------------------------------------------
# 10. the self-contained quantile routines hit reference values


def test_10_quantile_reference_values():
    assert abs(chi2_quantile(0.95, 2) - 5.991464547) <= 1e-8
    for p in (0.5, 0.8, 0.9, 0.95, 0.99):
        z = normal_quantile(0.5 * (1.0 + p))
        assert abs(chi2_quantile(p, 1) - z * z) <= 1e-8
