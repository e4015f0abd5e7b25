"""Tests for the closed-form / Monte-Carlo ground-truth covariance oracles."""

import numpy as np
import pytest

from snewt import oracle
from snewt.oracle import (
    OracleCovariance,
    c_star,
    lambda_matrix,
    omega_star,
    oracle_covariance,
    rel_cov_error,
    rel_var_error,
    single_step_projection_expectation,
    spread_operator_uc,
    xi_star,
)
from snewt.problems import DesignCovSpec, RegressionModel, default_x_star
from snewt.sketch import SketchDistribution, _projector_factor
from tests.oracles import (
    lambda_by_enumeration,
    lambda_replay,
    lyapunov_residual,
    projection_expectation_replay,
)


UC = SketchDistribution()


# ---------------------------------------------------------------------------
# population moments


def test_linear_population_moments_are_closed_form():
    model = RegressionModel(
        family="linear",
        x_star=default_x_star(4),
        design=DesignCovSpec(kind="equicorr", r=0.3),
        sigma=2.0,
    )
    oc = oracle_covariance(model, UC, None, 0.7, 1.0)
    assert oc.mc_stderr == {}
    B = oc.b_star
    assert np.array_equal(B, model.sigma_a)
    # E[g g^T] = B* Omega* B* = sigma^2 Sigma_a
    assert np.allclose(B @ oc.omega @ B, 4.0 * model.sigma_a, atol=1e-12)
    assert np.allclose(oc.omega, 4.0 * np.linalg.inv(model.sigma_a),
                       atol=1e-12)
    assert np.array_equal(omega_star(model), oc.omega)


def test_linear_identity_design_gives_identity_moments():
    model = RegressionModel(family="linear", x_star=default_x_star(3))
    oc = oracle_covariance(model, UC, None, 0.7, 1.0)
    assert np.array_equal(oc.b_star, np.eye(3))
    assert np.allclose(omega_star(model), np.eye(3), atol=1e-14)


def test_logistic_moments_at_zero_target_match_exact_values():
    # x_star = 0 makes p = 1/2 surely: Hessian weight and squared-gradient
    # weight are both exactly 1/4, so B* = G* = I/4 and Omega* = 4 I.
    model = RegressionModel(family="logistic", x_star=np.zeros(3))
    B, se_b, G, se_g = oracle._mc_hessian_moments(
        model, 200_000, np.random.default_rng(0))
    assert np.abs(B - 0.25 * np.eye(3)).max() < 0.01
    assert np.abs(B - 0.25 * np.eye(3)).max() < 4.0 * se_b.max() + 1e-3
    assert np.abs(G - 0.25 * np.eye(3)).max() < 0.01
    assert se_g.max() < 0.002
    omega = omega_star(model, n_mc=200_000, rng=np.random.default_rng(2))
    assert np.abs(omega - 4.0 * np.eye(3)).max() < 0.08
    # the oracle reports the same moments, with B* symmetrised
    oc = oracle_covariance(model, UC, None, 0.7, 1.0, n_mc=200_000, seed=0)
    assert np.array_equal(oc.b_star, 0.5 * (B + B.T))
    assert np.array_equal(oc.mc_stderr["b_star"], se_b)
    assert np.array_equal(oc.mc_stderr["grad_outer"], se_g)


# ---------------------------------------------------------------------------
# expected projection and residual operators


def test_uc_projection_expectation_hand_example():
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    P, se = single_step_projection_expectation(B, UC)
    assert se is None
    expected = np.array([[0.65, 0.45], [0.45, 0.35]])
    assert np.allclose(P, expected, atol=1e-14)


def test_uc_projection_of_diagonal_matrix_is_identity_over_d():
    P, _ = single_step_projection_expectation(np.diag([1.0, 2.0, 5.0]), UC)
    assert np.allclose(P, np.eye(3) / 3.0, atol=1e-14)


def test_uc_projection_rejects_zero_column():
    with pytest.raises(ValueError):
        single_step_projection_expectation(np.diag([1.0, 0.0]), UC)


def test_gaussian_projection_expectation_monte_carlo():
    dist = SketchDistribution(kind="gaussian", q=1)
    P, se = single_step_projection_expectation(
        np.eye(3), dist, n_mc=3000, rng=np.random.default_rng(3))
    assert se is not None
    assert np.abs(P - np.eye(3) / 3.0).max() < 0.04


def _gaussian_case(rng, q, with_cov):
    # three sketch columns in d = 4 make S^T B^2 S ill-conditioned on some
    # draws, where eigh and the replay's SVD pseudo-inverse differ by more
    # than roundoff; d = 6 keeps q = 3 well posed
    d = 6 if q == 3 else 4
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d)
    A = rng.standard_normal((d, d))
    cov = A @ A.T + np.eye(d) if with_cov else None
    return B, SketchDistribution(kind="gaussian", q=q, cov=cov)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("with_cov", [False, True])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_gaussian_projection_expectation_matches_per_sample_replay(
        q, with_cov):
    B, dist = _gaussian_case(np.random.default_rng(11), q, with_cov)
    # 1001 samples in blocks of 300: the last block is partial
    P, se = single_step_projection_expectation(
        B, dist, n_mc=1001, rng=np.random.default_rng(12), chunk=300)
    P_ref, se_ref = projection_expectation_replay(
        B, q, dist.cov, 1001, np.random.default_rng(12))
    assert _rel(P, P_ref) < 1e-12
    assert _rel(se, se_ref) < 1e-12


@pytest.mark.parametrize("with_cov", [False, True])
@pytest.mark.parametrize("tau", [1, 2, 3, 12])  # 12 > d
@pytest.mark.parametrize("q", [1, 2, 3])
def test_gaussian_lambda_matches_per_sample_replay(q, tau, with_cov):
    # 701 sequences in blocks of 200, or of 350 at tau = 2 (the benchmark's
    # case): the last block is partial, and with 350 it holds one sequence
    chunk = 350 if tau == 2 else 200
    rng = np.random.default_rng(13)
    B, dist = _gaussian_case(rng, q, with_cov)
    A = rng.standard_normal(B.shape)
    omega = A @ A.T + np.eye(B.shape[0])
    lam, se = lambda_matrix(B, omega, dist, tau, n_mc=701,
                            rng=np.random.default_rng(14), chunk=chunk)
    lam_ref, se_ref = lambda_replay(B, omega, q, dist.cov, tau, 701,
                                    np.random.default_rng(14))
    assert _rel(lam, lam_ref) < 1e-12
    assert _rel(se, se_ref) < 1e-12


def test_monte_carlo_stderr_keeps_its_digits_around_a_large_mean():
    # a statistic of mean about 1e3 that varies by O(1): the one-pass
    # sum x^2 / n - mean^2 would lose about 1e6 eps of relative accuracy
    B, dist = _gaussian_case(np.random.default_rng(15), 2, False)

    def stat(w):  # three rank-2 factors per sample
        return 1e3 + np.einsum("nsiq,nsjq->nij", w, w)

    # 20000 samples in 8 blocks
    _, se = oracle._gaussian_mc(B, dist, 3, stat, 20_000,
                                np.random.default_rng(16), 2500)
    # the same draws at once, in two passes
    z = np.random.default_rng(16).standard_normal((20_000, 3, 4, 2))
    x = stat(_projector_factor(B, z))
    dev = x - x.mean(axis=0)
    se_ref = np.sqrt((dev * dev).mean(axis=0) / len(x))
    assert _rel(se, se_ref) <= 1e-12


def test_c_star_values_and_bounds():
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    P, _ = single_step_projection_expectation(B, UC)
    assert np.array_equal(c_star(P, None), np.zeros((2, 2)))
    assert np.allclose(c_star(P, 1), np.eye(2) - P, atol=1e-14)
    assert np.allclose(c_star(P, 2), (np.eye(2) - P) @ (np.eye(2) - P),
                       atol=1e-14)
    with pytest.raises(ValueError):
        c_star(P, 0)
    # residual spectrum lies in [0, 1] and shrinks as tau grows
    tops = []
    for tau in (1, 2, 4, 8):
        evals = np.linalg.eigvalsh(c_star(P, tau))
        assert evals.min() >= -1e-12 and evals.max() <= 1.0 + 1e-12
        tops.append(evals.max())
    assert all(a >= b - 1e-12 for a, b in zip(tops, tops[1:]))


def test_spread_operator_preserves_psd():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 3))
    B = A @ A.T + 0.5 * np.eye(3)
    M = np.diag([1.0, 2.0, 0.5])
    out = spread_operator_uc(B, M)
    assert np.allclose(out, out.T, atol=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-12


# ---------------------------------------------------------------------------
# the injected-noise matrix


def test_lambda_exact_solves_return_omega():
    omega = np.array([[2.0, 0.3], [0.3, 1.0]])
    lam, se = lambda_matrix(np.eye(2), omega, UC, tau=None)
    assert se is None
    assert np.array_equal(lam, omega)
    assert lam is not omega  # a defensive copy


def test_lambda_single_step_matches_enumeration():
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    omega = np.array([[1.5, -0.2], [-0.2, 0.8]])
    lam, _ = lambda_matrix(B, omega, UC, tau=1)
    direct = lambda_by_enumeration(B, omega, 1)
    assert np.abs(lam - direct).max() < 1e-14


def test_lambda_two_steps_matches_enumeration():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    B = A @ A.T + 0.8 * np.eye(3)
    W = rng.standard_normal((3, 3))
    omega = W @ W.T + 0.3 * np.eye(3)
    lam, _ = lambda_matrix(B, omega, UC, tau=2)
    direct = lambda_by_enumeration(B, omega, 2)
    assert np.abs(lam - direct).max() < 1e-12 * np.abs(direct).max()


def test_lambda_gaussian_monte_carlo_identity_case():
    # with B = Omega = I and one projection step, Lambda = E[Pi] = I / d
    dist = SketchDistribution(kind="gaussian", q=1)
    lam, se = lambda_matrix(np.eye(2), np.eye(2), dist, tau=1, n_mc=2000,
                            rng=np.random.default_rng(4))
    assert se is not None
    assert np.abs(lam - 0.5 * np.eye(2)).max() < 0.05


def test_lambda_rejects_unsupported_sketch():
    # the oracles cover every sketch kind that can be constructed
    with pytest.raises(ValueError):
        SketchDistribution(kind="column_block", q=2)


# ---------------------------------------------------------------------------
# the limiting covariance


def test_exact_solve_limits_are_bitwise_closed_form():
    omega = np.array([[2.0, 0.5], [0.5, 1.0]])
    zeros = np.zeros((2, 2))
    # beta < 1: Xi* = Omega / 2, exactly
    assert np.array_equal(xi_star(zeros, omega, 0.7, 1.0), omega / 2.0)
    assert np.array_equal(xi_star(zeros, omega, 0.505, 2.0), omega / 2.0)
    # beta = 1 with c_beta = 1: Xi* = Omega, exactly
    assert np.array_equal(xi_star(zeros, omega, 1.0, 1.0), omega)


def test_xi_star_solves_the_stationarity_equation():
    rng = np.random.default_rng(9)
    for beta, c_beta in ((0.505, 1.0), (0.7, 2.0), (1.0, 1.0)):
        if beta == 1.0:
            # the unit-stepsize regime is only stable when the residual
            # operator is small; B = I gives C = (2/3)^tau I < I/2
            B = np.eye(3)
        else:
            A = rng.standard_normal((3, 3))
            B = A @ A.T + 0.8 * np.eye(3)
        W = rng.standard_normal((3, 3))
        omega = W @ W.T + 0.5 * np.eye(3)
        P, _ = single_step_projection_expectation(B, UC)
        C = c_star(P, 2)
        lam, _ = lambda_matrix(B, omega, UC, tau=2)
        xi = xi_star(C, lam, beta, c_beta)
        # residual of A xi + xi A^T = Lambda with A = (1 - delta/2) I - C
        delta = 1.0 / c_beta if beta == 1.0 else 0.0
        drift = (1.0 - 0.5 * delta) * np.eye(3) - C
        resid = drift @ xi + xi @ drift.T - lam
        assert np.abs(resid).max() <= 1e-10 * np.linalg.norm(lam, 2)
        assert np.allclose(lyapunov_residual(xi, C, lam, beta, c_beta),
                           resid, atol=1e-14)


def test_xi_star_regime_errors():
    omega = np.eye(2)
    with pytest.raises(ValueError):
        xi_star(np.zeros((2, 2)), omega, 1.0, 0.4)  # scale would be <= 0
    with pytest.raises(ValueError):
        xi_star(0.6 * np.eye(2), omega, 1.0, 1.0)  # drift not stable


# ---------------------------------------------------------------------------
# end-to-end oracle and error metrics


def test_oracle_covariance_linear_uc_pipeline():
    model = RegressionModel(family="linear", x_star=default_x_star(2))
    oc = oracle_covariance(model, UC, tau=2, beta=0.505, c_beta=1.0)
    assert isinstance(oc, OracleCovariance)
    assert np.array_equal(oc.b_star, np.eye(2))
    assert np.allclose(oc.omega, np.eye(2), atol=1e-14)
    assert oc.mc_stderr == {}
    resid = lyapunov_residual(oc.xi, oc.c_star, oc.lam, 0.505, 1.0)
    assert np.abs(resid).max() <= 1e-10 * np.linalg.norm(oc.lam, 2)
    # sketching inflates the limiting covariance beyond the exact-solve value
    assert np.linalg.eigvalsh(oc.xi - oc.omega / 2.0).min() > -1e-12


def test_oracle_covariance_reports_monte_carlo_stderr_keys():
    model = RegressionModel(family="logistic", x_star=np.zeros(2))
    oc = oracle_covariance(model, UC, tau=1, beta=0.505, c_beta=1.0,
                           n_mc=50_000)
    assert set(oc.mc_stderr) == {"b_star", "grad_outer"}
    gauss = SketchDistribution(kind="gaussian", q=1)
    oc2 = oracle_covariance(
        RegressionModel(family="linear", x_star=default_x_star(2)),
        gauss, tau=1, beta=0.505, c_beta=1.0, n_mc=2000)
    assert set(oc2.mc_stderr) == {"projection", "lambda"}


def test_error_metrics_hand_cases():
    eye = np.eye(2)
    assert abs(rel_cov_error(2.0 * eye, eye) - 1.0) < 1e-15
    assert rel_cov_error(eye, eye) == 0.0
    truth = np.diag([1.0, 3.0])
    assert abs(rel_var_error(0.5 * truth, truth) + 0.5) < 1e-15
    w = np.array([1.0, 0.0])
    assert abs(rel_var_error(np.diag([2.0, 3.0]), truth, w) - 1.0) < 1e-15
    # a truth with no variance along w gives what the division gives
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isinf(rel_var_error(eye, np.zeros((2, 2))))
        assert np.isnan(rel_var_error(np.zeros((2, 2)), np.zeros((2, 2))))


def test_error_metrics_take_stacks_slice_by_slice():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    truth = A @ A.T + np.eye(3)
    est = truth + 0.1 * rng.standard_normal((2, 4, 3, 3))
    w = np.array([1.0, -2.0, 0.5])
    est[1, 2, 0, 1] = np.nan
    est[0, 3, 2, 2] = np.inf
    cov = rel_cov_error(est, truth)
    var = rel_var_error(est, truth, w)
    assert cov.shape == var.shape == (2, 4)
    for idx in np.ndindex(2, 4):
        if idx in ((1, 2), (0, 3)):
            # the SVD rejects non-finite input: the slice's error is NaN
            assert np.isnan(cov[idx])
            continue
        assert cov[idx] == rel_cov_error(est[idx], truth)
        assert isinstance(rel_cov_error(est[idx], truth), np.floating)
        assert np.isclose(var[idx], rel_var_error(est[idx], truth, w),
                          rtol=1e-13, atol=0.0)
    assert np.isnan(var[1, 2]) and np.isinf(var[0, 3])
