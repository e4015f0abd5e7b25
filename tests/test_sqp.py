"""Tests for the equality-constrained stochastic SQP extension."""

import dataclasses

import numpy as np
import pytest

from snewt.covariance import WscAccumulator, WscSink
from snewt.optimizer import DivergenceError, RngStreams, StepsizeSchedule
from snewt.sketch import SketchDistribution, SketchSolveConfig
from snewt.sqp import (
    SqpState,
    builtin_problem,
    equality_qp,
    hs7,
    kkt_assemble,
    maratos,
    run_sqp,
    sqp_step,
)
from tests.oracles import (fd_grad, fd_jac, kkt_residual, newton_kkt_solve,
                           wsc_two_pass)

ALL_PROBLEMS = [equality_qp, maratos, hs7]


# ---------------------------------------------------------------------------
# KKT plumbing


def test_kkt_assemble_hand_example():
    B = np.array([[2.0, 0.5], [0.5, 1.0]])
    G = np.array([[1.0, -1.0]])
    K = kkt_assemble(B, G)
    expected = np.array([
        [2.0, 0.5, 1.0],
        [0.5, 1.0, -1.0],
        [1.0, -1.0, 0.0],
    ])
    assert np.array_equal(K, expected)


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_stated_solutions_satisfy_first_order_conditions(factory):
    prob = factory()
    res = kkt_residual(prob, prob.x_star, prob.lam_star)
    assert np.abs(res).max() <= 1e-12


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_deterministic_kkt_newton_reaches_the_stated_solution(factory):
    prob = factory()
    x, lam = newton_kkt_solve(prob, x0=prob.x0, lam0=np.zeros(prob.n_cons))
    assert np.abs(x - prob.x_star).max() <= 1e-12
    assert np.abs(lam - prob.lam_star).max() <= 1e-12


def test_kkt_newton_raises_when_it_cannot_converge():
    prob = maratos()
    with pytest.raises(RuntimeError):
        newton_kkt_solve(prob, x0=prob.x0, lam0=np.zeros(1), max_iter=1)


def test_equality_qp_closed_form_matches_reduced_solve():
    prob = equality_qp()
    A = prob.hess(np.zeros(3))
    b = prob.grad(np.zeros(3))
    free = [1, 2]
    y = np.linalg.solve(A[np.ix_(free, free)], -(b[free] + A[free, 0]))
    assert prob.x_star[0] == 1.0
    assert np.allclose(prob.x_star[1:], y, atol=1e-14)
    assert np.allclose(prob.lam_star, [-(A @ prob.x_star + b)[0]], atol=1e-14)


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_hand_coded_derivatives_match_finite_differences(factory):
    prob = factory()
    rng = np.random.default_rng(21)
    for _ in range(4):
        x = prob.x_star + 0.3 * rng.standard_normal(prob.dim)
        assert np.abs(prob.grad(x) - fd_grad(prob.objective, x)).max() < 1e-5
        assert np.abs(prob.hess(x) - fd_jac(prob.grad, x)).max() < 1e-5
        assert np.abs(prob.jac(x) - fd_jac(prob.cons, x)).max() < 1e-5
        ch = prob.cons_hess(x)
        for i in range(prob.n_cons):
            ch_fd = fd_jac(lambda xx: prob.jac(xx)[i], x)
            assert np.abs(ch[i] - ch_fd).max() < 1e-5


def test_lagrangian_hessian_combines_objective_and_constraints():
    prob = maratos()
    x = np.array([0.6, 0.4])
    lam = np.array([0.7])
    expected = prob.hess(x) + 0.7 * prob.cons_hess(x)[0]
    assert np.array_equal(prob.lagrangian_hess(x, lam), expected)


def test_builtin_problem_lookup():
    assert builtin_problem("eqqp").name == "eqqp"
    assert builtin_problem("maratos").dim == 2
    assert builtin_problem("hs7").inactive == (0,)
    with pytest.raises(ValueError):
        builtin_problem("rosenbrock")


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_callables_on_a_stack_equal_row_by_row_calls(factory):
    prob = factory()
    d, m = prob.dim, prob.n_cons
    X = prob.x_star + 0.3 * np.random.default_rng(12).standard_normal((6, d))
    shapes = {"objective": (), "grad": (d,), "hess": (d, d), "cons": (m,),
              "jac": (m, d), "cons_hess": (m, d, d)}
    for name, shape in shapes.items():
        fn = getattr(prob, name)
        stacked = fn(X)
        rows = np.stack([fn(x) for x in X])
        assert stacked.shape == rows.shape == (6,) + shape, name
        assert np.array_equal(stacked, rows), name
        # any number of leading axes
        assert np.array_equal(fn(X.reshape(2, 3, d)),
                              stacked.reshape((2, 3) + shape)), name


# ---------------------------------------------------------------------------
# stochastic stepping


def _lu(K, rhs):
    return np.linalg.solve(K, -rhs[..., None])[..., 0]


def test_noise_free_step_leaves_the_solution_fixed():
    prob = equality_qp()
    state = SqpState(t=0, x=prob.x_star.copy(), lam=prob.lam_star.copy(),
                     B=np.eye(3))
    sched = StepsizeSchedule(mode="deterministic")
    z = np.random.default_rng(0).standard_normal(9)
    out = sqp_step(state, prob, 0.0, sched, z, sched.phi(0), _lu)
    # the stored solution satisfies the optimality system to one ulp, so
    # the step may move by rounding noise but nothing more
    assert np.abs(out.x - prob.x_star).max() <= 1e-15
    assert np.abs(out.lam - prob.lam_star).max() <= 1e-15


def test_noise_free_iteration_converges_at_the_measured_rate():
    prob = equality_qp()
    sched = StepsizeSchedule(mode="deterministic")
    xs = {}

    def sink(t, x, alpha):
        xs[t] = x.copy()

    final = run_sqp(prob, 0.0, SketchSolveConfig(), sched, 600, 0,
                    sinks=(sink,))
    state = run_sqp(prob, 0.0, SketchSolveConfig(), sched, 200, 0)
    res200 = np.abs(kkt_residual(prob, state.x, state.lam)).max()
    assert res200 <= 1e-8
    assert np.abs(final.x - prob.x_star).max() <= 1e-12
    assert np.abs(xs[600] - prob.x_star).max() <= 1e-12


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_stacked_step_equals_row_by_row_steps(factory):
    prob = factory()
    rng = np.random.default_rng(8)
    R, d, m = 4, prob.dim, prob.n_cons
    X = prob.x_star + 0.2 * rng.standard_normal((R, d))
    Lam = prob.lam_star + 0.2 * rng.standard_normal((R, m))
    A = rng.standard_normal((R, d, d))
    B = A @ A.transpose(0, 2, 1) + np.eye(d)
    Z = rng.standard_normal((R, d + d * (d + 1) // 2))
    alpha = rng.uniform(0.1, 0.5, size=R)
    sched = StepsizeSchedule()
    out = sqp_step(SqpState(t=5, x=X, lam=Lam, B=B), prob, 0.04, sched, Z,
                   alpha, _lu)
    for r in range(R):
        row = sqp_step(SqpState(t=5, x=X[r], lam=Lam[r], B=B[r]), prob, 0.04,
                       sched, Z[r], alpha[r], _lu)
        assert np.allclose(out.x[r], row.x, rtol=1e-13, atol=1e-15)
        assert np.allclose(out.lam[r], row.lam, rtol=1e-13, atol=1e-15)
        assert np.allclose(out.B[r], row.B, rtol=1e-13, atol=1e-15)
    assert out.t == 6


def test_sketched_run_controls_the_constraint_violation():
    prob = equality_qp()
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=40)
    final = run_sqp(prob, 1e-2, cfg, StepsizeSchedule(), 2000, 42)
    assert np.abs(prob.cons(final.x)).max() <= 1e-3
    assert np.abs(final.x - prob.x_star).max() < 0.2


def test_run_sqp_same_seed_is_bitwise_identical():
    prob = hs7()
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=10)
    a = run_sqp(prob, 1e-2, cfg, StepsizeSchedule(), 300, 5)
    b = run_sqp(prob, 1e-2, cfg, StepsizeSchedule(), 300, 5)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.B, b.B)


def test_run_sqp_divergence_guard():
    prob = equality_qp()
    with pytest.raises(DivergenceError) as exc:
        run_sqp(prob, 1e-2, SketchSolveConfig(), StepsizeSchedule(), 100, 0,
                divergence_norm=1e-6)
    assert exc.value.t == 1
    # an infinite gradient makes the first KKT step NaN, which an infinite
    # bound must still reject
    blowup = dataclasses.replace(
        prob, grad=lambda X: np.full(np.shape(X), -np.inf))
    with pytest.raises(DivergenceError) as exc:
        run_sqp(blowup, 1e-2, SketchSolveConfig(), StepsizeSchedule(), 100,
                0, divergence_norm=np.inf)
    assert exc.value.t == 1
    assert not np.isfinite(exc.value.norm)


def test_sqp_trace_feeds_the_covariance_estimator():
    prob = equality_qp()
    sched = StepsizeSchedule()
    acc = WscAccumulator(3)
    records = []
    run_sqp(prob, 1e-2, SketchSolveConfig(), sched, 200, 9,
            sinks=(WscSink(sched, acc),
                   lambda t, x, a: records.append((t, x.copy()))))
    xs = [x for _, x in records]
    phis = [sched.phi(t - 1) for t, _ in records]
    direct = wsc_two_pass(xs, phis)
    assert np.abs(acc.estimate() - direct).max() <= 1e-10 * np.abs(direct).max()
