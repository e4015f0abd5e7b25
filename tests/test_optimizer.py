"""Tests for the banded-stepsize online Newton engine."""

import numpy as np
import pytest

import snewt.optimizer as optimizer
from snewt.optimizer import (
    DivergenceError,
    NewtonState,
    RngStreams,
    StepsizeSchedule,
    newton_step,
    run,
)
from snewt.problems import DesignCovSpec, RegressionModel, default_x_star
from snewt.sketch import (SketchDistribution, SketchSolveConfig,
                          _exact_solve_batched)


class Quadratic:
    """Deterministic quadratic 0.5 (x-c)^T A (x-c) wearing the problem protocol."""

    def __init__(self, A, c):
        self.A = np.asarray(A, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.dim = self.A.shape[0]

    def draw(self, rng):
        return None

    def grad(self, x, s):
        return self.A @ (x - self.c)

    def hess(self, x, s):
        return self.A.copy()

    def value(self, x):
        dev = x - self.c
        return 0.5 * float(dev @ self.A @ dev)


class StackedQuadratic(Quadratic):
    """Quadratic on a (R, d) stack of points."""

    def grad(self, x, s):
        return (x - self.c) @ self.A.T

    def hess(self, x, s):
        return np.broadcast_to(self.A, x.shape[:-1] + self.A.shape)


class Repeller:
    """Gradient field pointing away from -1; Newton steps from 0 diverge."""

    dim = 2

    def draw(self, rng):
        return None

    def grad(self, x, s):
        return -10.0 * (x + 1.0)

    def hess(self, x, s):
        return np.eye(2)


# ---------------------------------------------------------------------------
# stepsize schedule


def test_schedule_hand_values():
    sched = StepsizeSchedule()  # c_beta=1, beta=0.505, c_chi=1, chi=1.01
    assert sched.beta_t(0) == 1.0
    assert sched.chi_t(0) == 1.0
    assert sched.phi(0) == 1.5
    assert abs(sched.beta_t(99) - 0.0977239) < 1e-6
    assert abs(sched.chi_t(99) - 0.0977239**2) < 1e-7
    # 2^1100 overflows a float; c_chi / 2^1100 rounds to 0.0
    steep = StepsizeSchedule(chi=1100.0)
    assert steep.chi_t(0) == 1.0 and steep.chi_t(1) == 0.0
    assert steep.phi(10**6) == steep.beta_t(10**6)


def test_band_draw_is_uniform_on_the_band():
    sched = StepsizeSchedule()
    assert sched.alpha_from_uniform(0, 0.5) == 1.5
    rng = np.random.default_rng(0)
    draws = np.array([sched.draw(0, rng) for _ in range(10_000)])
    assert draws.min() >= 1.0 and draws.max() <= 2.0
    assert abs(draws.mean() - 1.5) < 0.01
    # the draw is exactly the band map applied to one uniform variate
    u = np.random.default_rng(3).random()
    assert sched.draw(0, np.random.default_rng(3)) == sched.alpha_from_uniform(0, u)


def test_deterministic_mode_uses_band_center_and_no_randomness():
    sched = StepsizeSchedule(mode="deterministic")
    rng = np.random.default_rng(5)
    assert sched.draw(7, rng) == sched.phi(7)
    # the generator was never consumed
    assert rng.random() == np.random.default_rng(5).random()


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepsizeSchedule(c_beta=0.0)
    with pytest.raises(ValueError):
        StepsizeSchedule(beta=0.5)
    with pytest.raises(ValueError):
        StepsizeSchedule(beta=1.5)
    with pytest.raises(ValueError):
        StepsizeSchedule(c_chi=-1.0)
    with pytest.raises(ValueError):
        StepsizeSchedule(beta=0.9, chi=0.6)
    with pytest.raises(ValueError):
        StepsizeSchedule(mode="geometric")
    # a collapsed band does not constrain chi
    StepsizeSchedule(beta=0.9, chi=0.6, c_chi=0.0)


def test_rng_streams_are_deterministic_and_distinct():
    a = RngStreams.from_seed(42)
    b = RngStreams.from_seed(42)
    vals_a = [a.data.random(), a.sketch.random(), a.step.random()]
    vals_b = [b.data.random(), b.sketch.random(), b.step.random()]
    assert vals_a == vals_b
    assert len(set(vals_a)) == 3


def test_newton_state_defaults():
    state = NewtonState.initial(3)
    assert state.t == 0
    assert np.array_equal(state.x, np.zeros(3))
    assert np.array_equal(state.B, np.eye(3))
    assert state.lam is None


# ---------------------------------------------------------------------------
# single steps on a deterministic quadratic


def test_one_exact_step_with_unit_stepsize_hits_the_minimizer():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    c = np.array([0.5, -1.5])
    prob = Quadratic(A, c)
    sched = StepsizeSchedule(c_beta=1.0, beta=0.6, c_chi=0.0,
                             mode="deterministic")
    state = NewtonState(t=0, x=np.array([2.0, -1.0]), B=A)
    # t = 0 solves against B_0 exactly (no damping), and alpha_0 = 1
    assert sched.phi(0) == 1.0
    out = newton_step(state, sched, sched.phi(0),
                      lambda B, g: np.linalg.solve(B, -g),
                      prob.grad(state.x, None), prob.hess(state.x, None))
    assert np.abs(out.x - c).max() < 1e-12
    assert out.t == 1
    assert out.lam is None


def test_quadratic_objective_decreases_monotonically():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([1.0, -1.0])
    prob = Quadratic(A, c)
    sched = StepsizeSchedule(c_beta=1.0, beta=0.6, c_chi=0.0,
                             mode="deterministic")
    state = NewtonState(t=0, x=np.array([4.0, 3.0]), B=A)
    xs = [state.x]
    for t in range(50):
        state = newton_step(state, sched, sched.phi(t),
                            lambda B, g: _exact_solve_batched(B[None],
                                                              g[None])[0],
                            prob.grad(state.x, None),
                            prob.hess(state.x, None))
        xs.append(state.x)
    vals = [prob.value(x) for x in xs]
    for before, after in zip(vals, vals[1:]):
        assert after <= before + 1e-12
    # the same steps on a stack of three starting points
    stack = NewtonState(t=0, x=np.array([[4.0, 3.0], [-2.0, 0.5], xs[0]]),
                        B=np.stack([A] * 3))
    stacked = StackedQuadratic(A, c)
    for t in range(50):
        stack = newton_step(stack, sched, sched.phi(t), _exact_solve_batched,
                            stacked.grad(stack.x, None),
                            stacked.hess(stack.x, None))
    assert np.allclose(stack.x[2], state.x, rtol=0.0, atol=1e-12)
    assert np.abs(stack.x - c).max() < 1e-6


# ---------------------------------------------------------------------------
# the driver loop


def test_hessian_average_matches_direct_mean_bitwise():
    model = RegressionModel(
        family="linear",
        x_star=default_x_star(3),
        design=DesignCovSpec(kind="equicorr", r=0.2),
    )
    seed = 31
    xs = [np.zeros(3)]
    final = run(model, SketchSolveConfig(), StepsizeSchedule(), 3, seed,
                sinks=(lambda t, x, a: xs.append(x.copy()),))
    # replay the data stream: one observation per step, in order
    rngs = RngStreams.from_seed(seed)
    total = np.zeros((3, 3))
    for t in range(3):
        s = model.draw(rngs.data)
        total += model.hess(xs[t], s)
    assert np.array_equal(final.B, total / 3.0)


def test_recorded_stepsizes_stay_inside_the_band():
    model = RegressionModel(family="linear", x_star=default_x_star(2))
    sched = StepsizeSchedule()
    records = []
    run(model, SketchSolveConfig(dist=SketchDistribution(), tau=2), sched,
        200, 11, sinks=(lambda t, x, a: records.append((t, a)),))
    assert [t for t, _ in records] == list(range(1, 201))
    for t, alpha in records:
        lo = sched.beta_t(t - 1)
        hi = lo + sched.chi_t(t - 1)
        assert lo - 1e-15 <= alpha <= hi + 1e-15


def test_run_validates_iteration_count_and_counts_records():
    model = RegressionModel(family="linear", x_star=default_x_star(2))
    with pytest.raises(ValueError):
        run(model, SketchSolveConfig(), StepsizeSchedule(), 0, 0)
    records = []
    run(model, SketchSolveConfig(), StepsizeSchedule(), 1, 0,
        sinks=(lambda t, x, a: records.append(t),))
    assert records == [1]


def test_same_seed_runs_are_bitwise_identical():
    model = RegressionModel(
        family="logistic",
        x_star=default_x_star(3),
        design=DesignCovSpec(kind="toeplitz", r=0.4),
    )
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=2)
    a = run(model, cfg, StepsizeSchedule(), 100, 7)
    b = run(model, cfg, StepsizeSchedule(), 100, 7)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.B, b.B)


def test_divergence_raises_with_step_and_norm(monkeypatch):
    sched = StepsizeSchedule(c_beta=1.0, beta=0.6, c_chi=0.0,
                             mode="deterministic")
    with pytest.raises(DivergenceError) as exc:
        run(Repeller(), SketchSolveConfig(), sched, 500, 0)
    assert exc.value.t > 1
    assert exc.value.norm > 1e8
    # run reads the guard when it starts
    monkeypatch.setattr(optimizer, "_DIVERGENCE_NORM", 1e6)
    with pytest.raises(DivergenceError) as low:
        run(Repeller(), SketchSolveConfig(), sched, 500, 0)
    assert 1 <= low.value.t < exc.value.t
    assert 1e6 < low.value.norm <= 1e8


class Blowup:
    """An infinite gradient: the first step lands on an infinite iterate."""

    dim = 1

    def draw(self, rng):
        return None

    def grad(self, x, s):
        return np.full_like(x, -np.inf)

    def hess(self, x, s):
        return np.ones(x.shape + (1,))


def test_divergence_guard_rejects_an_infinite_iterate():
    with pytest.raises(DivergenceError) as exc:
        run(Blowup(), SketchSolveConfig(), StepsizeSchedule(), 10, 0)
    assert exc.value.t == 1
    assert exc.value.norm == np.inf


def test_long_run_approaches_the_minimizer():
    model = RegressionModel(
        family="linear",
        x_star=default_x_star(5),
        design=DesignCovSpec(kind="equicorr", r=0.3),
    )
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=2)
    final = run(model, cfg, StepsizeSchedule(), 100_000, 0)
    assert np.linalg.norm(final.x - model.x_star) < 0.1
