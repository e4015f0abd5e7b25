"""Tests for sketch distributions and sketched Newton-direction solvers."""

import numpy as np
import pytest

from snewt.sketch import (
    SketchDistribution,
    SketchSolveConfig,
    _projector_factor,
    exact_newton_solve,
    pinv_newton_solve,
    sketch_project_step,
    solve_newton_sketched,
)
from tests.oracles import _pinv_projector, coordinate_sketches, sketch_loop


def _random_spd(rng, d, ridge=0.5):
    A = rng.standard_normal((d, d))
    return A @ A.T + ridge * np.eye(d)


def _projector(B, S, tol=0.0):
    """Pi = W W^T from the rank-q factor W, slice by slice over S's stack."""
    W = _projector_factor(B, S, tol)
    return W @ W.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# sketch draws


def _one_step(dist, d, seed, g=None):
    """A one-step sketched solve on B = I: dx = -S (S^T S)^+ S^T g."""
    g = np.arange(1.0, d + 1.0) if g is None else g
    cfg = SketchSolveConfig(dist=dist, tau=1)
    return solve_newton_sketched(np.eye(d), g, cfg, np.random.default_rng(seed))


def test_uniform_coordinate_sketch_is_canonical_column():
    expected_idx = int(np.random.default_rng(0).integers(0, 4))
    dx = _one_step(SketchDistribution(), 4, 0)
    col = np.zeros(4)
    col[expected_idx] = -(expected_idx + 1.0)
    assert np.array_equal(dx, col)


def test_uniform_coordinate_frequencies_are_uniform():
    rng = np.random.default_rng(1)
    d, n = 4, 100_000
    counts = np.zeros(d)
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=1)
    g = np.ones(d)
    for _ in range(n):
        dx = solve_newton_sketched(np.eye(d), g, cfg, rng)
        counts[int(np.argmin(dx))] += 1
    assert np.abs(counts / n - 1.0 / d).max() < 0.01


def test_gaussian_sketch_moments():
    # a solve forms its sketches as cov_factor(d) @ z from standard normals
    d, q, n = 3, 2, 20_000
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]])
    dist = SketchDistribution(kind="gaussian", q=q, cov=cov)
    z = np.random.default_rng(2).standard_normal((n, d, q))
    cols = np.einsum("ij,njq->nqi", dist.cov_factor(d), z).reshape(n * q, d)
    emp = cols.T @ cols / (n * q)
    assert np.abs(cols.mean(axis=0)).max() < 0.02
    assert np.linalg.norm(emp - cov, 2) / np.linalg.norm(cov, 2) < 0.05


def test_gaussian_sketch_without_cov_is_standard_normal_block():
    dist = SketchDistribution(kind="gaussian", q=2)
    assert dist.cov_factor(3) is None
    B = _random_spd(np.random.default_rng(6), 3)
    g = np.array([1.0, -2.0, 0.5])
    dx = solve_newton_sketched(B, g, SketchSolveConfig(dist=dist, tau=1),
                               np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal((3, 2))
    assert np.abs(dx - sketch_loop(B, g, [z])).max() < 1e-12


def test_distribution_validation():
    with pytest.raises(ValueError):
        SketchDistribution(kind="uniform_coordinate", q=2)
    with pytest.raises(ValueError):
        SketchDistribution(kind="uniform_coordinate", cov=np.eye(2))
    with pytest.raises(ValueError):
        SketchDistribution(kind="subsampled_hadamard")
    with pytest.raises(ValueError):
        SketchSolveConfig(tau=0)
    with pytest.raises(ValueError):
        SketchSolveConfig(pinv_tol=0.0)
    assert SketchSolveConfig().is_exact
    assert not SketchSolveConfig(tau=3).is_exact


# ---------------------------------------------------------------------------
# single projection steps


def test_coordinate_projection_hand_example():
    B = np.eye(2)
    g = np.array([3.0, 4.0])
    S = np.array([[1.0], [0.0]])
    dx = sketch_project_step(B, g, np.zeros(2), S)
    assert np.array_equal(dx, [-3.0, 0.0])


def test_projection_step_satisfies_sketched_equation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        B = _random_spd(rng, 4)
        g = rng.standard_normal(4)
        S = rng.standard_normal((4, 2))
        dx = sketch_project_step(B, g, rng.standard_normal(4), S)
        assert np.abs(S.T @ (B @ dx + g)).max() < 1e-9


def test_projection_step_never_increases_error():
    rng = np.random.default_rng(8)
    for _ in range(300):
        d = int(rng.integers(2, 6))
        B = _random_spd(rng, d)
        g = rng.standard_normal(d)
        target = np.linalg.solve(B, -g)
        dx = rng.standard_normal(d)
        q = int(rng.integers(1, 3))
        S = rng.standard_normal((d, q))
        dx_new = sketch_project_step(B, g, dx, S)
        before = np.linalg.norm(dx - target)
        after = np.linalg.norm(dx_new - target)
        assert after <= before * (1.0 + 1e-12) + 1e-14


def test_degenerate_sketch_leaves_iterate_unchanged():
    B = np.diag([1.0, 0.0])
    dx = np.array([0.3, -0.7])
    S = np.array([[0.0], [1.0]])
    out = sketch_project_step(B, np.ones(2), dx, S, tol=1e-12)
    assert np.array_equal(out, dx)
    assert np.array_equal(_projector(B, S, tol=1e-12), np.zeros((2, 2)))


def test_projection_matrix_is_symmetric_idempotent():
    rng = np.random.default_rng(9)
    for q in (1, 2):
        B = _random_spd(rng, 4)
        S = rng.standard_normal((4, q))
        P = _projector(B, S)
        assert np.allclose(P, P.T, atol=1e-12)
        assert np.allclose(P @ P, P, atol=1e-10)
        assert abs(np.trace(P) - q) < 1e-10


def test_stacked_projection_matrix_matches_single_calls():
    rng = np.random.default_rng(10)
    for q in (1, 2):
        B = _random_spd(rng, 4)
        S = rng.standard_normal((6, 4, q))
        P = _projector(B, S)
        assert P.shape == (6, 4, 4)
        for k in range(6):
            assert np.allclose(P[k], _projector(B, S[k]),
                               rtol=1e-12, atol=1e-14)
            assert np.allclose(P[k], P[k].T, atol=1e-12)
            assert np.allclose(P[k] @ P[k], P[k], atol=1e-10)
            assert abs(np.trace(P[k]) - q) < 1e-10


def test_stacked_projection_matrix_zeroes_exactly_the_degenerate_slices():
    # B has a null direction e3: sketches inside it project onto nothing
    B = np.diag([2.0, 1.0, 0.0])
    e1, e2, e3 = np.eye(3)
    ones = np.ones(3)
    S1 = np.stack([e1, e3, ones, 2.0 * e3])[:, :, None]
    P1 = _projector(B, S1, tol=1e-12)
    for k in (1, 3):
        assert np.array_equal(P1[k], np.zeros((3, 3)))
    for k in (0, 2):
        assert np.allclose(P1[k], _projector(B, S1[k]), atol=1e-14)
        assert abs(np.trace(P1[k]) - 1.0) < 1e-12
    S2 = np.stack([np.column_stack(pair) for pair in
                   [(e1, e2), (e3, 2.0 * e3), (e1, e3)]])
    P2 = _projector(B, S2, tol=1e-12)
    assert np.array_equal(P2[1], np.zeros((3, 3)))
    assert np.allclose(P2[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    # a rank-deficient slice keeps only its non-degenerate direction
    assert np.allclose(P2[2], np.outer(e1, e1), atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_projector_factor_squares_to_the_pinv_projector(q):
    rng = np.random.default_rng(20 + q)
    B = _random_spd(rng, 5)
    S = rng.standard_normal((5, q))
    W = _projector_factor(B, S)
    assert W.shape == (5, q)
    assert np.allclose(W @ W.T, _pinv_projector(B, S), rtol=0, atol=1e-13)
    stack = rng.standard_normal((3, 2, 5, q))  # any leading axes
    Ws = _projector_factor(B, stack)
    assert Ws.shape == stack.shape
    for idx in np.ndindex(3, 2):
        assert np.allclose(Ws[idx] @ Ws[idx].T, _pinv_projector(B, stack[idx]),
                           rtol=0, atol=1e-13)


def test_projector_factor_is_zero_where_b_s_is_zero():
    # e3 spans the null space of B, so B S = 0 on the q = 1 slices 1 and 3
    B = np.diag([2.0, 1.0, 0.0])
    e1, _, e3 = np.eye(3)
    S = np.stack([e1, e3, np.ones(3), -3.0 * e3])[:, :, None]
    W = _projector_factor(B, S, tol=1e-12)
    assert W.shape == (4, 3, 1)
    for k in (1, 3):
        assert np.array_equal(W[k], np.zeros((3, 1)))
    for k in (0, 2):
        assert np.allclose(W[k] @ W[k].T, _pinv_projector(B, S[k]), atol=1e-14)


# ---------------------------------------------------------------------------
# full solves


def test_exact_solve_diagonal_hand_example():
    dx = exact_newton_solve(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
    assert np.array_equal(dx, [-1.0, -0.5])


def test_exact_solve_rejects_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        exact_newton_solve(np.diag([1.0, -1.0]), np.ones(2))


def test_pinv_solve_handles_singular_and_zero_matrices():
    dx = pinv_newton_solve(np.diag([2.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(dx, [-0.5, 0.0], atol=1e-15)
    assert np.array_equal(pinv_newton_solve(np.zeros((2, 2)), np.ones(2)),
                          np.zeros(2))


def test_uc_solve_on_identity_reaches_exact_direction():
    g = np.array([0.25, -1.5, 2.0])
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=16)
    dx = solve_newton_sketched(np.eye(3), g, cfg, np.random.default_rng(5))
    assert np.array_equal(dx, -g)


def test_sketched_solve_requires_generator():
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=2)
    with pytest.raises(ValueError):
        solve_newton_sketched(np.eye(2), np.ones(2), cfg, None)


def test_exact_config_ignores_generator():
    cfg = SketchSolveConfig()
    dx = solve_newton_sketched(np.diag([4.0, 1.0]), np.array([2.0, 3.0]), cfg)
    assert np.allclose(dx, [-0.5, -3.0], atol=1e-15)


def test_uc_solve_matches_straight_line_replay():
    rng = np.random.default_rng(13)
    B = _random_spd(rng, 4)
    g = rng.standard_normal(4)
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=8)
    seed = 1234
    dx = solve_newton_sketched(B, g, cfg, np.random.default_rng(seed))
    # replay the documented draw order: tau indices in one batched call
    idx = np.random.default_rng(seed).integers(0, 4, size=8)
    expected = sketch_loop(B, g, coordinate_sketches(idx, 4))
    assert np.abs(dx - expected).max() < 5e-13


def test_gaussian_solve_matches_straight_line_replay():
    rng = np.random.default_rng(14)
    B = _random_spd(rng, 3)
    g = rng.standard_normal(3)
    cov = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 2.0]])
    dist = SketchDistribution(kind="gaussian", q=2, cov=cov)
    cfg = SketchSolveConfig(dist=dist, tau=4)
    seed = 77
    dx = solve_newton_sketched(B, g, cfg, np.random.default_rng(seed))
    # replay the documented draw order: one (tau, d, q) normal block
    z = np.random.default_rng(seed).standard_normal((4, 3, 2))
    chol = dist.cov_factor(3)
    expected = sketch_loop(B, g, [chol @ z[j] for j in range(4)])
    assert np.abs(dx - expected).max() < 1e-10
