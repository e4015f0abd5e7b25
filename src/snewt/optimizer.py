"""Online Newton iteration with averaged Hessians and banded stepsizes.

Each step takes the observed gradient and Hessian samples at the current
point, computes an (in)exact Newton direction against the running Hessian
average, and moves with a stepsize drawn from a shrinking band
[beta_t, beta_t + chi_t].  The Hessian sample taken at step t enters the
average used from step t+1 on, so the system matrix of step t is
deterministic given the trajectory up to t.  With equality constraints
the same step solves the KKT system and moves the multipliers too.

newton_step is the one step of both families, on one replication or a
stack of them, with the solve passed in: run steps one replication of
either family, a regression model or a constrained problem, and solves
with sketch.solve_newton_sketched, and the batched harness
(experiment.run_experiment) steps all of its replications at once with
the sketch module's stacked solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from .sketch import SketchSolveConfig, solve_newton_sketched
from .sqp import EqConstrainedProblem, observe

__all__ = [
    "StepsizeSchedule",
    "NewtonState",
    "RngStreams",
    "DivergenceError",
    "kkt_assemble",
    "newton_step",
    "run",
]

TraceSink = Callable[[int, np.ndarray, float], None]

# Iterate-norm bound of run and the study harness: an iterate
# past it (or non-finite) has diverged.
_DIVERGENCE_NORM = 1e8


class DivergenceError(RuntimeError):
    """Raised when the iterate norm blows past the divergence guard."""

    def __init__(self, t: int, norm: float):
        super().__init__(f"iterate diverged at step {t} (norm {norm:.3e})")
        self.t = t
        self.norm = norm


@dataclass(frozen=True)
class StepsizeSchedule:
    """Banded stepsize rule.

    beta_t = c_beta / (t+1)**beta,  chi_t = c_chi / (t+1)**chi.

    mode "uniform_band" draws alpha_t uniformly from [beta_t, beta_t+chi_t];
    mode "deterministic" always uses the band center beta_t + chi_t/2.
    phi(t) is that center in either mode (it is the weight scale used by
    the covariance estimator).  c_chi = 0 collapses the band to beta_t.
    """

    c_beta: float = 1.0
    beta: float = 0.505
    c_chi: float = 1.0
    chi: float = 1.01
    mode: str = "uniform_band"

    def __post_init__(self) -> None:
        if self.c_beta <= 0.0:
            raise ValueError("c_beta must be positive")
        if not 0.5 < self.beta <= 1.0:
            raise ValueError("beta must lie in (1/2, 1]")
        if self.c_chi < 0.0:
            raise ValueError("c_chi must be nonnegative")
        if self.c_chi > 0.0 and self.chi < self.beta:
            raise ValueError("chi must be >= beta so the band shrinks")
        if self.mode not in ("uniform_band", "deterministic"):
            raise ValueError(f"unknown stepsize mode {self.mode!r}")

    def beta_t(self, t: int) -> float:
        return self.c_beta / (t + 1.0) ** self.beta

    def chi_t(self, t: int) -> float:
        if self.c_chi == 0.0:
            return 0.0
        try:
            return self.c_chi / (t + 1.0) ** self.chi
        except OverflowError:  # the quotient rounds to zero
            return 0.0

    def phi(self, t: int) -> float:
        """Deterministic band center beta_t + chi_t / 2."""
        return self.beta_t(t) + 0.5 * self.chi_t(t)

    def alpha_from_uniform(self, t: int, u: float) -> float:
        """Map a uniform [0,1) variate to a stepsize in the band at step t."""
        return self.beta_t(t) + u * self.chi_t(t)

    def draw(self, t: int, rng: np.random.Generator) -> float:
        """Stepsize for step t; consumes one uniform in band mode only."""
        if self.mode == "deterministic":
            return self.phi(t)
        return self.alpha_from_uniform(t, rng.random())


class RngStreams(NamedTuple):
    """Independent generators for data, sketching and stepsize draws.

    Keeping the three concerns on separate streams means changing tau (or
    the stepsize mode) never perturbs the data sequence of a seeded run.
    """

    data: np.random.Generator
    sketch: np.random.Generator
    step: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        """The three children of the generator seeded with seed, in order."""
        return cls(*np.random.default_rng(seed).spawn(3))


@dataclass
class NewtonState:
    """Iteration state: step count t, iterate x, Hessian average B, and
    the multipliers lam of a constrained problem (None without).

    x, B and lam have shapes (..., d), (..., d, d) and (..., m): one
    replication, or a stack of them sharing t.  With constraints B is the
    running Lagrangian-Hessian average.
    """

    t: int
    x: np.ndarray
    B: np.ndarray
    lam: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, d: int) -> "NewtonState":
        """t = 0 at x = 0 with B = I."""
        return cls(t=0, x=np.zeros(d), B=np.eye(d))


def kkt_assemble(B: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Symmetric KKT matrices [[B, G^T], [G, 0]], stacked over leading axes."""
    d = B.shape[-1]
    m = G.shape[-2]
    K = np.zeros(B.shape[:-2] + (d + m, d + m))
    K[..., :d, :d] = B
    K[..., :d, d:] = np.swapaxes(G, -1, -2)
    K[..., d:, :d] = G
    return K


def newton_step(
    state: NewtonState,
    schedule: StepsizeSchedule,
    alpha: Union[float, np.ndarray],
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray],
    g: np.ndarray,
    H: np.ndarray,
    J: Optional[np.ndarray] = None,
    c: Optional[np.ndarray] = None,
) -> NewtonState:
    """One online Newton step, for one replication or a stack of them.

    Takes the gradient and Hessian samples g and H observed at x_t, solves
    for the Newton direction, moves x by ``alpha`` (a scalar or one
    stepsize per replication), and folds the Hessian sample into the
    running average:

        B_{t+1} = (t B_t + H_t) / (t + 1).

    ``solve(M, rhs)`` returns delta with M delta = -rhs, exactly or by a
    sketch sweep, on M = the ridged average below and rhs = g.  Given the
    constraint Jacobian J and values c at x_t (H being the Lagrangian-
    Hessian sample), it gets [[M, J^T], [J, 0]] and [g + J^T lam; c]
    instead, and lam moves by alpha too.  Only a passed J adds that
    block, so a regression step does no KKT work.

    Solve stabilization: the average B_t drops the initial B_0 after the
    first step, so for t < d it is a mean of fewer than d rank-1 samples —
    singular by construction — and shortly after t = d its smallest
    eigenvalue is heavy-tailed near zero.  Inverting that raw average
    amplifies the early gradients without bound, and with stepsizes that
    start at order one the first few dozen iterates would blow up by
    several orders of magnitude before contracting.  The solve therefore
    targets the damped matrix

        M = B_t + beta_t * ||H_t||_F * I          (t >= 1),

    a Levenberg-style ridge scaled by the current Hessian sample.  Along
    the sampled direction this caps the stepsize-times-curvature product
    at alpha_t * xi^T (B_t + ridge)^{-1} xi <= 1 + chi_t/beta_t <= 2 for
    rank-1 samples, so no step can overshoot multiplicatively; the ridge
    vanishes at the beta_t rate, leaving the asymptotics and the reported
    average untouched.  At t = 0 the solve uses B_0 exactly.  With
    constraints the ridge damps the KKT system's upper-left block.
    """
    t, B, lam = state.t, state.B, state.lam
    d = B.shape[-1]
    M = B
    if t > 0:
        fro = np.sqrt(np.einsum("...ij,...ij->...", H, H))
        M = B.copy()
        # the diagonal as a strided view of the flattened copy
        M.reshape(M.shape[:-2] + (d * d,))[..., ::d + 1] += (
            schedule.beta_t(t) * fro[..., None])
    step = np.asarray(alpha)[..., None]
    if J is None:
        x = state.x + step * solve(M, g)
    else:
        rhs = np.concatenate(
            [g + np.einsum("...md,...m->...d", J, lam), c], axis=-1)
        delta = solve(kkt_assemble(M, J), rhs)
        x = state.x + step * delta[..., :d]
        lam = lam + step * delta[..., d:]
    B_new = B * t
    B_new += H
    B_new /= t + 1
    return NewtonState(t=t + 1, x=x, B=B_new, lam=lam)


def run(
    problem,
    cfg: SketchSolveConfig,
    schedule: StepsizeSchedule,
    n_iters: int,
    seed: int,
    sinks: Iterable[TraceSink] = (),
) -> NewtonState:
    """Run n_iters Newton steps on one replication, streaming to sinks.

    A regression model starts at x = 0 with B = I; a constrained problem
    (sqp.EqConstrainedProblem) at (problem.x0, lam = 0, B = I), and steps
    on its KKT system.  Sinks are plain callables sink(t, x_t,
    alpha_{t-1}), invoked once per step in order with t = 1..n_iters.
    Raises ValueError when n_iters < 1, and DivergenceError when ||x|| +
    ||lam|| (lam only with constraints) exceeds 1e8 (the study harness's
    guard) or turns non-finite.

    The int seed gives three independent generators (RngStreams.from_seed).
    Per step, the data stream gives one observation (problem.draw, or the
    problem.n_normals noise normals of sqp.observe), the step stream one
    uniform in band mode only, and the sketch stream the draws of
    solve_newton_sketched on the Newton or KKT system.  The three are
    separate generators, so the order in which they are read does not
    matter.  An exact solve of a singular system gives its minimum-norm
    least-squares direction.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    sinks = tuple(sinks)
    rngs = RngStreams.from_seed(seed)
    d = problem.dim
    if isinstance(problem, EqConstrainedProblem):
        state = NewtonState(t=0, x=problem.x0.copy(), B=np.eye(d),
                            lam=np.zeros(problem.n_cons))

        def sample(st: NewtonState) -> tuple:
            z = rngs.data.standard_normal(problem.n_normals)
            return observe(problem, st.x, st.lam, z)
    else:
        state = NewtonState.initial(d)

        def sample(st: NewtonState) -> tuple:
            s = problem.draw(rngs.data)
            return problem.grad(st.x, s), problem.hess(st.x, s)

    def solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return solve_newton_sketched(M, rhs, cfg, rngs.sketch)

    for _ in range(n_iters):
        obs = sample(state)
        alpha = schedule.draw(state.t, rngs.step)
        state = newton_step(state, schedule, alpha, solve, *obs)
        norm = math.sqrt(state.x @ state.x)
        if state.lam is not None:
            norm += math.sqrt(state.lam @ state.lam)
        if not norm <= _DIVERGENCE_NORM:
            raise DivergenceError(state.t, norm)
        for sink in sinks:
            sink(state.t, state.x, alpha)
    return state
