"""Tests for the closed-form, quadrature and Monte-Carlo ground truth."""

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
    logistic_moments_mc,
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
    # x_star = 0 makes p = 1/2 surely: the Hessian weight is exactly 1/4, so
    # B* = Sigma_a / 4 and, by the information matrix equality,
    # Omega* = (B*)^{-1} = 4 Sigma_a^{-1}
    model = RegressionModel(family="logistic", x_star=np.zeros(3),
                            design=DesignCovSpec(kind="equicorr", r=0.3))
    oc = oracle_covariance(model, UC, None, 0.7, 1.0)
    assert np.array_equal(oc.b_star, 0.25 * model.sigma_a)
    want = 4.0 * np.linalg.inv(model.sigma_a)
    assert np.abs(oc.omega - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(omega_star(model), oc.omega)
    assert oc.mc_stderr == {}


# x_star and design per case: s^2 = x*^T Sigma_a x* runs from 1.9e-4 to 115
_LOGISTIC_CASES = [
    (np.full(4, 0.005), 0.3),
    (np.full(5, 0.2), 0.3),
    (np.array([1.0, -2.0, 0.5]), 0.0),
    (np.full(5, 2.0), 0.5),
    (np.full(4, 5.0), 0.05),
]


@pytest.mark.parametrize("x_star, r", _LOGISTIC_CASES,
                         ids=["s2=2e-4", "s2=0.44", "s2=5.3", "s2=60",
                              "s2=115"])
def test_logistic_b_star_matches_monte_carlo_reference(x_star, r):
    model = RegressionModel(family="logistic", x_star=x_star,
                            design=DesignCovSpec(kind="equicorr", r=r))
    s2 = x_star @ model.sigma_a @ x_star
    assert 1e-4 <= s2 <= 120.0
    oc = oracle_covariance(model, UC, None, 0.7, 1.0)
    h, se_h, m, se_m = logistic_moments_mc(model, 200_000,
                                           np.random.default_rng(5))
    # B* is the mean Hessian, and so is E[g g^T]: Omega* = (B*)^{-1}
    assert np.all(np.abs(oc.b_star - h) <= 5.0 * se_h)
    assert np.all(np.abs(oc.b_star - m) <= 5.0 * se_m)
    eye = np.eye(len(x_star))
    assert np.abs(oc.omega @ oc.b_star - eye).max() <= 1e-12


def test_large_logistic_target_gives_finite_truth():
    # x_star = 300 * 1 puts the logistic margin's sd near 1e3: the weight
    # w(z) is negligible outside |z| < 50, where the quadrature stops
    model = RegressionModel(family="logistic", x_star=np.full(5, 300.0),
                            design=DesignCovSpec(kind="equicorr", r=0.3))
    for dist, tau in ((UC, None), (UC, 2),
                      (SketchDistribution(kind="gaussian", q=1), 2)):
        oc = oracle_covariance(model, dist, tau, 0.505, 1.0)
        for mat in (oc.b_star, oc.omega, oc.lam, oc.xi):
            assert np.isfinite(mat).all()
        assert np.linalg.eigvalsh(oc.b_star).min() > 0.0


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
    # q = 1 is a quadrature, not an average, whatever n_mc says
    dist = SketchDistribution(kind="gaussian", q=1)
    P, se = single_step_projection_expectation(
        np.eye(3), dist, n_mc=3000, rng=np.random.default_rng(3))
    assert se is not None and se.max() < 1e-14
    assert np.abs(P - np.eye(3) / 3.0).max() < 1e-15


def _conditioned(d, cond, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return (Q * np.geomspace(1.0, cond, d)) @ Q.T


@pytest.mark.parametrize("cond", [1.0, 1e3])
@pytest.mark.parametrize("d", [1, 2, 5, 20, 50])
def test_gaussian_q1_projection_has_unit_trace(d, cond):
    # Pi is a rank-one projector, so tr E[Pi] = 1; at d = 1 the integrand
    # decays only like s^{-3/2}, the slowest tail the grid must reach
    dist = SketchDistribution(kind="gaussian", q=1)
    B = 7.0 * _conditioned(d, cond, d)
    P, se = single_step_projection_expectation(B, dist)
    assert abs(np.trace(P) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(P).min() > 0.0
    # every other node of the grid agrees with the whole grid
    assert se.max() <= 1e-12
    lam, se_lam = lambda_matrix(B, np.eye(d), dist, tau=2)
    assert se_lam.max() <= 1e-12 * np.abs(lam).max()


def test_gaussian_q1_projection_rejects_singular_matrix():
    with pytest.raises(ValueError):
        single_step_projection_expectation(
            np.diag([1.0, 0.0]), SketchDistribution(kind="gaussian", q=1))


@pytest.mark.parametrize("d", [1, 3, 7])
def test_gaussian_q1_identity_hand_case(d):
    # B = c I: E[Pi] = I / d and
    # T(X) = (1 - 2/d) X + (2 X + tr(X) I) / (d (d + 2))
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    X = A + A.T
    dist = SketchDistribution(kind="gaussian", q=1)
    P, T = oracle._gaussian_q1_step(3.7 * np.eye(d))
    assert np.abs(P - np.eye(d) / d).max() <= 1e-15
    want = ((1.0 - 2.0 / d) * X
            + (2.0 * X + np.trace(X) * np.eye(d)) / (d * (d + 2)))
    assert np.abs(T(X) - want).max() <= 1e-14 * np.abs(X).max()
    # tau = 1, B = Omega = I: Lambda = E[Pi] = I / d
    lam, _ = lambda_matrix(np.eye(d), np.eye(d), dist, tau=1)
    assert np.abs(lam - np.eye(d) / d).max() <= 1e-15


@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("d", [5, 20])
def test_gaussian_q1_quadrature_within_five_stderr_of_replay(d, tau):
    rng = np.random.default_rng(100 + d)
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d)
    W = rng.standard_normal((d, d))
    omega = W @ W.T + np.eye(d)
    dist = SketchDistribution(kind="gaussian", q=1)
    P, _ = single_step_projection_expectation(B, dist)
    P_ref, se_ref = projection_expectation_replay(
        B, 1, 4000, np.random.default_rng(tau))
    assert np.all(np.abs(P - P_ref) <= 5.0 * se_ref)
    lam, _ = lambda_matrix(B, omega, dist, tau)
    lam_ref, se_ref = lambda_replay(B, omega, 1, tau, 2000,
                                    np.random.default_rng(10 + tau))
    assert np.all(np.abs(lam - lam_ref) <= 5.0 * se_ref)


def _gaussian_case(rng, q):
    # three sketch columns in d = 4 make S^T B^2 S ill-conditioned on some
    # draws, where eigh and the replay's SVD pseudo-inverse differ by more
    # than roundoff; d = 6 keeps q = 3 well posed
    d = 6 if q == 3 else 4
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d)
    return B, SketchDistribution(kind="gaussian", q=q)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("one_block", [False, True])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_gaussian_projection_expectation_matches_per_sample_replay(
        q, one_block):
    B, dist = _gaussian_case(np.random.default_rng(11), q)
    # 1001 samples in blocks of 300, so that the last block is partial and
    # the blocks' sums are merged, or all in one block
    P, se = single_step_projection_expectation(
        B, dist, n_mc=1001, rng=np.random.default_rng(12),
        chunk=1001 if one_block else 300)
    P_ref, se_ref = projection_expectation_replay(
        B, q, 1001, np.random.default_rng(12))
    if q == 1:  # quadrature: within 5 stderr of the replay's average
        assert np.all(np.abs(P - P_ref) <= 5.0 * se_ref)
        assert se.max() <= 1e-14
        return
    assert _rel(P, P_ref) < 1e-12
    assert _rel(se, se_ref) < 1e-12


@pytest.mark.parametrize("one_block", [False, True])
@pytest.mark.parametrize("tau", [1, 2, 3, 12])  # 12 > d
@pytest.mark.parametrize("q", [1, 2, 3])
def test_gaussian_lambda_matches_per_sample_replay(q, tau, one_block):
    # 701 sequences in blocks of 200, or of 350 at tau = 2 (the benchmark's
    # case): the last block is partial, and with 350 it holds one sequence;
    # or all 701 in one block, whose sums are not merged
    chunk = 701 if one_block else 350 if tau == 2 else 200
    rng = np.random.default_rng(13)
    B, dist = _gaussian_case(rng, q)
    A = rng.standard_normal(B.shape)
    omega = A @ A.T + np.eye(B.shape[0])
    lam, se = lambda_matrix(B, omega, dist, tau, n_mc=701,
                            rng=np.random.default_rng(14), chunk=chunk)
    lam_ref, se_ref = lambda_replay(B, omega, q, tau, 701,
                                    np.random.default_rng(14))
    if q == 1:  # quadrature: within 5 stderr of the replay's average
        assert np.all(np.abs(lam - lam_ref) <= 5.0 * se_ref)
        assert se.max() <= 1e-12 * np.abs(lam).max()
        return
    assert _rel(lam, lam_ref) < 1e-12
    assert _rel(se, se_ref) < 1e-12


def test_monte_carlo_stderr_keeps_its_digits_around_a_large_mean():
    # a statistic of mean about 1e3 that varies by O(1): the one-pass
    # sum x^2 / n - mean^2 would lose about 1e6 eps of relative accuracy
    B, dist = _gaussian_case(np.random.default_rng(15), 2)

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
    # with B = Omega = I and one projection step, Lambda = E[Pi] = I / d;
    # q = 1 is a quadrature, so the bound is far looser than it needs
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
    # logistic B* and Omega* are closed forms: no error estimate
    model = RegressionModel(family="logistic", x_star=np.zeros(2))
    oc = oracle_covariance(model, UC, tau=1, beta=0.505, c_beta=1.0,
                           n_mc=50_000)
    assert oc.mc_stderr == {}
    linear = RegressionModel(family="linear", x_star=default_x_star(3))
    # q = 1: the quadrature's estimate, at roundoff
    oc1 = oracle_covariance(linear, SketchDistribution(kind="gaussian", q=1),
                            tau=1, beta=0.505, c_beta=1.0, n_mc=2000)
    assert set(oc1.mc_stderr) == {"projection", "lambda"}
    assert max(v.max() for v in oc1.mc_stderr.values()) <= 1e-14
    # q = 2: Monte-Carlo standard errors
    oc2 = oracle_covariance(linear, SketchDistribution(kind="gaussian", q=2),
                            tau=1, beta=0.505, c_beta=1.0, n_mc=2000)
    assert set(oc2.mc_stderr) == {"projection", "lambda"}
    assert min(v.max() for v in oc2.mc_stderr.values()) > 1e-4


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
