"""Tests for sketch distributions and sketched Newton-direction solvers."""

import numpy as np
import pytest

from snewt.sketch import (
    SketchDistribution,
    SketchSolveConfig,
    _direct_solve_batched,
    _gaussian_solve_batched,
    _projector_factor,
    _tol_abs,
    _uc_solve_batched,
    solve_newton_sketched,
)
from tests.oracles import _pinv_projector, coordinate_sketches, sketch_loop


def _random_spd(rng, d, ridge=0.5):
    A = rng.standard_normal((d, d))
    return A @ A.T + ridge * np.eye(d)


def _projector(B, S):
    """Pi = W W^T from the rank-q factor W, slice by slice over S's stack."""
    W = _projector_factor(B, S)
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


def test_gaussian_sketch_without_cov_is_standard_normal_block():
    dist = SketchDistribution(kind="gaussian", q=2)
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
        SketchDistribution(kind="subsampled_hadamard")
    with pytest.raises(ValueError):
        SketchSolveConfig(tau=0)
    assert SketchSolveConfig().is_exact
    assert not SketchSolveConfig(tau=3).is_exact


# ---------------------------------------------------------------------------
# projection steps of the stacked sweeps, on one-row and multi-row stacks


def _spd_stack(rng, R, d):
    return np.stack([_random_spd(rng, d) for _ in range(R)])


def test_coordinate_projection_hand_example():
    B = np.eye(2)[None]
    g = np.array([[3.0, 4.0]])
    dx = _uc_solve_batched(B, g, np.array([[0]]), np.zeros(1))
    assert np.array_equal(dx, [[-3.0, 0.0]])
    # each row of a stack projects onto its own coordinate
    B3 = np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
    g3 = np.array([[3.0, 4.0], [3.0, 4.0], [-1.0, 5.0]])
    dx3 = _uc_solve_batched(B3, g3, np.array([[0], [1], [1]]), np.zeros(3))
    assert np.array_equal(dx3, [[-3.0, 0.0], [0.0, -2.0], [0.0, -5.0]])


def test_projection_step_satisfies_sketched_equation():
    # after a sweep, the last step's sketched equation holds
    rng = np.random.default_rng(7)
    for R, tau in ((1, 1), (1, 3), (20, 1), (20, 3)):
        B = _spd_stack(rng, R, 4)
        g = rng.standard_normal((R, 4))
        z = rng.standard_normal((R, tau, 4, 2))
        dx = _gaussian_solve_batched(B, g, z, np.zeros(R))
        res = np.einsum("riq,ri->rq", z[:, -1],
                        np.einsum("rij,rj->ri", B, dx) + g)
        assert np.abs(res).max() < 1e-9


def test_projection_step_never_increases_error():
    # the error to the exact direction is non-increasing along a sweep, up
    # to roundoff once a q = d sketch has reached it
    rng = np.random.default_rng(8)
    for R in (1, 30):
        for d, q in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)):
            B = _spd_stack(rng, R, d)
            g = rng.standard_normal((R, d))
            target = np.linalg.solve(B, -g[..., None])[..., 0]
            z = rng.standard_normal((R, 6, d, q))
            before = np.linalg.norm(target, axis=1)
            slack = 1e-12 * (1.0 + before)
            for tau in range(1, 7):
                dx = _gaussian_solve_batched(B, g, z[:, :tau], np.zeros(R))
                after = np.linalg.norm(dx - target, axis=1)
                assert (after <= before * (1.0 + 1e-12) + slack).all()
                before = after


def test_degenerate_sketch_leaves_iterate_unchanged():
    # e2 spans the null space of B: the second step of each sweep is skipped
    B = np.diag([1.0, 0.0])[None]
    g = np.ones((1, 2))
    tol = _tol_abs(B)
    one_step = _uc_solve_batched(B, g, np.array([[0]]), tol)
    assert np.array_equal(one_step, [[-1.0, 0.0]])
    assert np.array_equal(_uc_solve_batched(B, g, np.array([[0, 1]]), tol),
                          one_step)
    e1, e2 = np.eye(2)[:, :, None]
    for S2 in (e2, np.column_stack([e2[:, 0], -3.0 * e2[:, 0]])):
        q = S2.shape[1]
        S1 = np.column_stack([e1[:, 0]] + [np.zeros(2)] * (q - 1))
        first = _gaussian_solve_batched(B, g, S1[None, None], tol)
        both = _gaussian_solve_batched(B, g, np.stack([S1, S2])[None], tol)
        assert np.array_equal(both, first)
    # on a stack, only the degenerate row is left where it was
    B2 = np.stack([np.diag([1.0, 0.0]), np.eye(2)])
    g2 = np.ones((2, 2))
    out = _uc_solve_batched(B2, g2, np.array([[0, 1], [0, 1]]), _tol_abs(B2))
    assert np.array_equal(out, [[-1.0, 0.0], [-1.0, -1.0]])
    S2 = np.column_stack([e2[:, 0], -3.0 * e2[:, 0]])
    assert np.array_equal(_projector(np.diag([1.0, 0.0]), S2),
                          np.zeros((2, 2)))


def test_projection_matrix_is_symmetric_idempotent():
    rng = np.random.default_rng(9)
    for q in (2, 3):
        B = _random_spd(rng, 4)
        S = rng.standard_normal((4, q))
        P = _projector(B, S)
        assert np.allclose(P, P.T, atol=1e-12)
        assert np.allclose(P @ P, P, atol=1e-10)
        assert abs(np.trace(P) - q) < 1e-10


def test_stacked_projection_matrix_matches_single_calls():
    rng = np.random.default_rng(10)
    for q in (2, 3):
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
    S2 = np.stack([np.column_stack(pair) for pair in
                   [(e1, e2), (e3, 2.0 * e3), (e1, e3)]])
    P2 = _projector(B, S2)
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
    # e3 spans the null space of B, so B S = 0 on the q = 2 slices 1 and 3
    B = np.diag([2.0, 1.0, 0.0])
    e1, e2, e3 = np.eye(3)
    S = np.stack([np.column_stack(pair) for pair in
                  [(e1, e2), (e3, 2.0 * e3), (np.ones(3), e1),
                   (-3.0 * e3, e3)]])
    W = _projector_factor(B, S)
    assert W.shape == (4, 3, 2)
    for k in (1, 3):
        assert np.array_equal(W[k], np.zeros((3, 2)))
    for k in (0, 2):
        assert np.allclose(W[k] @ W[k].T, _pinv_projector(B, S[k]), atol=1e-14)


# ---------------------------------------------------------------------------
# full solves


def test_exact_solve_diagonal_hand_example():
    dx = _direct_solve_batched(np.diag([1.0, 2.0])[None], np.ones((1, 2)))
    assert np.array_equal(dx, [[-1.0, -0.5]])
    B = np.stack([np.diag([1.0, 2.0]), np.diag([4.0, 0.5])])
    dx2 = _direct_solve_batched(B, np.array([[1.0, 1.0], [2.0, -1.0]]))
    assert np.array_equal(dx2, [[-1.0, -0.5], [-0.5, 2.0]])


def test_exact_solve_of_an_indefinite_system_is_the_lu_direction():
    # no definiteness gate: the negative eigenvalue is inverted, not dropped
    B = np.diag([2.0, -1.0, 3.0])
    g = np.array([1.0, 1.0, 1.0])
    expected = np.linalg.solve(B, -g)
    assert np.allclose(expected, [-0.5, 1.0, -1.0 / 3.0], rtol=0, atol=1e-15)
    assert np.array_equal(_direct_solve_batched(B[None], g[None])[0],
                          expected)
    assert np.array_equal(solve_newton_sketched(B, g, SketchSolveConfig()),
                          expected)


def test_exact_solve_of_a_singular_system_is_the_lstsq_direction():
    B = np.diag([2.0, -1.0, 0.0])
    g = np.array([1.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(B, -g)
    expected = np.linalg.lstsq(B, -g, rcond=None)[0]
    assert np.allclose(expected, [-0.5, 1.0, 0.0], rtol=0, atol=1e-15)
    assert np.array_equal(_direct_solve_batched(B[None], g[None])[0],
                          expected)
    assert np.array_equal(solve_newton_sketched(B, g, SketchSolveConfig()),
                          expected)


def test_exact_solve_of_one_system_has_the_stacked_bits():
    rng = np.random.default_rng(15)
    for d in (2, 3, 5, 8):
        for _ in range(50):
            B = _random_spd(rng, d)
            g = rng.standard_normal(d)
            one = solve_newton_sketched(B, g, SketchSolveConfig())
            assert one.tobytes() == np.linalg.solve(B, -g).tobytes()


def test_direct_solve_handles_singular_and_zero_matrices():
    dx = _direct_solve_batched(np.diag([2.0, 0.0])[None], np.ones((1, 2)))
    assert np.allclose(dx, [[-0.5, 0.0]], rtol=0, atol=1e-15)
    assert np.array_equal(
        _direct_solve_batched(np.zeros((1, 2, 2)), np.ones((1, 2))),
        np.zeros((1, 2)))


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
    dist = SketchDistribution(kind="gaussian", q=2)
    cfg = SketchSolveConfig(dist=dist, tau=4)
    seed = 77
    dx = solve_newton_sketched(B, g, cfg, np.random.default_rng(seed))
    # replay the documented draw order: one (tau, d, q) normal block
    z = np.random.default_rng(seed).standard_normal((4, 3, 2))
    expected = sketch_loop(B, g, list(z))
    assert np.abs(dx - expected).max() < 1e-10
