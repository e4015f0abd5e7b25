"""Tests for stochastic problem definitions: designs, samples, noise models."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from snewt.optimizer import NewtonState, StepsizeSchedule, newton_step
from snewt.problems import (
    DesignCovSpec,
    RegressionModel,
    Sample,
    default_x_star,
    grad_noise_factor,
    materialize_design,
    sigmoid,
    symmetric_noise,
)
from snewt.problems import _upper_triangle
from snewt.sqp import equality_qp, hs7, observe
from tests.oracles import (fd_grad, fd_jac, sample_loss,
                           symmetric_noise_replay)


# ---------------------------------------------------------------------------
# design covariance matrices


def test_identity_design_is_eye():
    sigma = materialize_design(DesignCovSpec(kind="identity"), 4)
    assert np.array_equal(sigma, np.eye(4))


def test_toeplitz_design_hand_example():
    sigma = materialize_design(DesignCovSpec(kind="toeplitz", r=0.5), 3)
    expected = np.array([
        [1.0, 0.5, 0.25],
        [0.5, 1.0, 0.5],
        [0.25, 0.5, 1.0],
    ])
    assert np.allclose(sigma, expected, atol=1e-15)


def test_equicorr_design_hand_example():
    sigma = materialize_design(DesignCovSpec(kind="equicorr", r=0.2), 2)
    expected = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert np.allclose(sigma, expected, atol=1e-15)


@given(
    kind=st.sampled_from(["toeplitz", "equicorr"]),
    r=st.floats(min_value=-0.2, max_value=0.9),
    d=st.integers(min_value=1, max_value=8),
)
def test_design_matrices_are_spd(kind, r, d):
    # equi-correlation is positive definite only for r > -1/(d-1)
    assume(kind == "toeplitz" or d == 1 or r > -1.0 / (d - 1))
    sigma = materialize_design(DesignCovSpec(kind=kind, r=r), d)
    assert np.array_equal(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() > 0.0


def test_design_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        materialize_design(DesignCovSpec(kind="toeplitz", r=1.0), 3)
    with pytest.raises(ValueError):
        materialize_design(DesignCovSpec(kind="equicorr", r=-0.6), 3)
    with pytest.raises(ValueError):
        materialize_design(DesignCovSpec(kind="identity"), 0)
    with pytest.raises(ValueError):
        DesignCovSpec(kind="wishart")


def test_default_x_star_is_uniform_vector():
    assert np.array_equal(default_x_star(4), np.full(4, 0.25))


# ---------------------------------------------------------------------------
# regression samples: hand values and calculus consistency


def test_linear_gradient_hand_example():
    model = RegressionModel(family="linear", x_star=np.array([1.0]))
    s = Sample(np.array([2.0]), 3.0)
    g = model.grad(np.array([1.0]), s)
    assert np.allclose(g, [-2.0], atol=1e-15)


def test_linear_hessian_is_feature_outer_product():
    model = RegressionModel(family="linear", x_star=default_x_star(3))
    s = Sample(np.array([1.0, 2.0, -1.0]), 0.7)
    h = model.hess(np.zeros(3), s)
    assert np.array_equal(h, np.outer(s.xi_a, s.xi_a))


def test_logistic_gradient_and_hessian_at_zero_margin():
    # at x = 0 the success probability is exactly 1/2
    model = RegressionModel(family="logistic", x_star=default_x_star(2))
    xi = np.array([1.0, -2.0])
    for y in (1.0, -1.0):
        s = Sample(xi, y)
        g = model.grad(np.zeros(2), s)
        assert np.allclose(g, -0.5 * y * xi, atol=1e-15)
    h = model.hess(np.zeros(2), Sample(xi, 1.0))
    assert np.allclose(h, 0.25 * np.outer(xi, xi), atol=1e-15)


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_sample_grad_matches_finite_difference_of_loss(family):
    rng = np.random.default_rng(11)
    model = RegressionModel(
        family=family,
        x_star=default_x_star(4),
        design=DesignCovSpec(kind="equicorr", r=0.3),
    )
    for _ in range(5):
        s = model.draw(rng)
        x = rng.standard_normal(4) * 0.5
        g = model.grad(x, s)
        g_fd = fd_grad(lambda xx: sample_loss(model, xx, s), x)
        assert np.allclose(g, g_fd, atol=1e-7)


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_sample_hess_matches_finite_difference_of_grad(family):
    rng = np.random.default_rng(12)
    model = RegressionModel(
        family=family,
        x_star=default_x_star(3),
        design=DesignCovSpec(kind="toeplitz", r=0.4),
    )
    for _ in range(5):
        s = model.draw(rng)
        x = rng.standard_normal(3) * 0.5
        h = model.hess(x, s)
        h_fd = fd_jac(lambda xx: model.grad(xx, s), x)
        assert np.allclose(h, h_fd, atol=1e-6)


def test_zero_noise_linear_response_is_exact():
    x_star = np.array([0.5, -1.0, 2.0])
    model = RegressionModel(family="linear", x_star=x_star, sigma=0.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = model.draw(rng)
        # summed in the order the model sums (einsum, not BLAS)
        assert s.xi_b == np.einsum("d,d->", s.xi_a, x_star)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        RegressionModel(family="linear", x_star=np.ones(2), sigma=-1.0)
    with pytest.raises(ValueError):
        RegressionModel(family="poisson", x_star=np.ones(2))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("family", ["linear", "logistic"])
@pytest.mark.parametrize("lead", [(6,), (2, 3)])
def test_stacked_samples_grads_and_hessians_equal_row_by_row_calls(family,
                                                                   lead):
    d = 4
    model = RegressionModel(family=family, x_star=np.linspace(-1.0, 2.0, d),
                            design=DesignCovSpec(kind="toeplitz", r=0.4),
                            sigma=0.7)
    rng = np.random.default_rng(21)
    z = rng.standard_normal(lead + (d + 1 if family == "linear" else d,))
    u = None if family == "linear" else rng.random(lead)
    # margins of both signs and large enough for the sigmoid's tails
    X = 3.0 * rng.standard_normal(lead + (d,))
    s = model.sample(z, u)
    g, h = model.grad(X, s), model.hess(X, s)
    assert s.xi_a.shape == lead + (d,) and s.xi_b.shape == lead
    assert g.shape == lead + (d,) and h.shape == lead + (d, d)
    for i in np.ndindex(*lead):
        row = model.sample(z[i], None if u is None else u[i])
        assert _same_bits(s.xi_a[i], row.xi_a)
        assert _same_bits(s.xi_b[i], row.xi_b)
        assert _same_bits(g[i], model.grad(X[i], row))
        assert _same_bits(h[i], model.hess(X[i], row))


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_draw_reads_the_features_then_the_response(family):
    model = RegressionModel(family=family, x_star=default_x_star(3),
                            design=DesignCovSpec(kind="equicorr", r=0.2))
    rng = np.random.default_rng(99)
    z = rng.standard_normal(3)
    if family == "linear":
        expected = model.sample(np.append(z, rng.standard_normal()))
    else:
        expected = model.sample(z, rng.random())
    s = model.draw(np.random.default_rng(99))
    assert _same_bits(s.xi_a, expected.xi_a)
    assert _same_bits(s.xi_b, expected.xi_b)
    assert model.dim == 3


def test_sigmoid_is_overflow_safe_and_symmetric():
    a = np.array([-1000.0, -30.0, -1.5, 0.0, 1.5, 30.0, 1000.0])
    with np.errstate(over="raise", invalid="raise"):
        p = sigmoid(a)
    assert p[0] == 0.0 and p[-1] == 1.0 and p[3] == 0.5
    assert np.array_equal(p + sigmoid(-a), np.ones(a.shape))
    mid = np.abs(a) < 100.0
    assert np.allclose(p[mid], 1.0 / (1.0 + np.exp(-a[mid])), rtol=1e-15)
    assert sigmoid(2.0).shape == ()


def test_feature_covariance_law_monte_carlo():
    model = RegressionModel(
        family="linear",
        x_star=default_x_star(5),
        design=DesignCovSpec(kind="equicorr", r=0.3),
    )
    rng = np.random.default_rng(0)
    n = 100_000
    feats = np.empty((n, 5))
    for i in range(n):
        feats[i] = model.draw(rng).xi_a
    emp = feats.T @ feats / n
    dev = np.linalg.norm(emp - model.sigma_a, 2) / np.linalg.norm(
        model.sigma_a, 2)
    assert dev < 0.05


def test_logistic_responses_are_signs_with_correct_rate():
    model = RegressionModel(family="logistic", x_star=np.zeros(2))
    rng = np.random.default_rng(1)
    n = 20_000
    ys = np.array([model.draw(rng).xi_b for _ in range(n)])
    assert set(np.unique(ys)) == {-1.0, 1.0}
    # x_star = 0 makes the two labels exactly equally likely
    assert abs(ys.mean()) < 0.02


# ---------------------------------------------------------------------------
# noisy exact-oracle problems


def test_grad_noise_factor_closed_form_identity():
    for d in (1, 2, 5, 9):
        L = grad_noise_factor(d, 0.3)
        target = 0.3 * (np.eye(d) + np.ones((d, d)))
        assert np.allclose(L @ L.T, target, atol=1e-12)
        assert np.array_equal(L, L.T)


def _first_steps(prob, x, lam, sigma2, n):
    """n independent t = 0 SQP steps from (x, lam) with B = I and alpha = 1."""
    d = prob.dim
    state = NewtonState(t=0, x=np.tile(x, (n, 1)),
                        B=np.tile(np.eye(d), (n, 1, 1)),
                        lam=np.tile(lam, (n, 1)))
    z = np.random.default_rng(2).standard_normal((n, d + d * (d + 1) // 2))
    obs = observe(prob, state.x, state.lam, z, sigma2,
                  grad_noise_factor(d, sigma2))
    return newton_step(state, StepsizeSchedule(), np.ones(n),
                       lambda K, rhs: np.linalg.solve(K, -rhs[..., None])[..., 0],
                       *obs)


def test_noisy_grad_covariance_law_monte_carlo():
    # eqqp pins x_0, so with B = I the first step moves the free block by
    # minus its noisy gradient: covariance sigma2 (I + 1 1^T) on that block
    prob = equality_qp()
    n = 100_000
    out = _first_steps(prob, prob.x_star, prob.lam_star, 0.5, n)
    dev = out.x[:, 1:] - prob.x_star[1:]
    emp = dev.T @ dev / n
    target = 0.5 * (np.eye(2) + np.ones((2, 2)))
    assert np.linalg.norm(emp - target, 2) / np.linalg.norm(target, 2) < 0.05
    assert np.abs(out.x[:, 0] - 1.0).max() < 1e-12


def test_symmetric_noise_is_exactly_symmetric_and_scaled():
    z = np.random.default_rng(7).standard_normal(10)
    e = symmetric_noise(z, 4, 0.25)
    assert np.array_equal(e, e.T)
    # variance scale: the normals, times 0.5, fill the upper triangle row-major
    assert np.array_equal(e[np.triu_indices(4)], 0.5 * z)
    stack = symmetric_noise(np.stack([z, -z]), 4, 0.25)
    assert np.array_equal(stack[0], e) and np.array_equal(stack[1], -e)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("lead", [(5,), (2, 3)])
def test_symmetric_noise_equals_the_triu_plus_mirror_form(d, lead):
    z = np.random.default_rng(d).standard_normal(lead + (d * (d + 1) // 2,))
    for sigma2 in (0.3, 0.0):  # sigma2 = 0 would expose a signed zero
        e = symmetric_noise(z, d, sigma2)
        ref = symmetric_noise_replay(z, d, sigma2)
        assert e.shape == lead + (d, d)
        assert e.tobytes() == ref.tobytes()


def test_symmetric_noise_index_cache_is_read_only():
    for arr in _upper_triangle(3):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_noisy_hess_centers_on_true_hessian():
    # at t = 0 the new average is the Lagrangian Hessian sample itself
    prob = hs7()
    x, lam = np.array([0.3, 1.6]), np.array([0.4])
    n = 4000
    out = _first_steps(prob, x, lam, 0.01, n)
    assert np.array_equal(out.B, out.B.transpose(0, 2, 1))
    lagrangian_hess = prob.hess(x) + prob.weighted_cons_hess(x, lam)
    assert np.allclose(out.B.mean(axis=0), lagrangian_hess,
                       atol=0.02)
