"""Online Newton iteration with averaged Hessians and banded stepsizes.

Each step forms the stochastic gradient of one observation at the current
point, computes an (in)exact Newton direction against the running Hessian
average, and moves with a stepsize drawn from a shrinking band
[beta_t, beta_t + chi_t].  The Hessian sample taken at step t enters the
average used from step t+1 on, so the system matrix of step t is
deterministic given the trajectory up to t.

newton_step works on one replication or a stack of them, with the solve
passed in: run steps one replication with solve_newton_sketched, and the
batched harness (experiment.run_experiment) steps all of its replications
at once with the same function.  Both solve with the sketch module's
stacked solves (run on one-row stacks), except run's coordinate sketches,
which take sketch's scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from .sketch import SketchSolveConfig, solve_newton_sketched

__all__ = [
    "StepsizeSchedule",
    "NewtonState",
    "RngStreams",
    "DivergenceError",
    "ridged_average",
    "fold_average",
    "newton_step",
    "run",
]

TraceSink = Callable[[int, np.ndarray, float], None]

# Iterate-norm bound of run, run_sqp and the study harness: an iterate
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
    """Iteration state: step count t, iterate x, Hessian average B.

    x and B have shapes (..., d) and (..., d, d): one replication, or a
    stack of them sharing t.
    """

    t: int
    x: np.ndarray
    B: np.ndarray
    last_alpha: Optional[Union[float, np.ndarray]] = None
    last_grad: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, d: int) -> "NewtonState":
        """t = 0 at x = 0 with B = I."""
        return cls(t=0, x=np.zeros(d), B=np.eye(d))


def ridged_average(B: np.ndarray, H: np.ndarray, schedule: StepsizeSchedule,
                   t: int) -> np.ndarray:
    """System matrix of step t: B at t = 0, else B + beta_t ||H||_F I.

    B and H are (..., d, d) stacks; the ridge is taken per slice.
    """
    if t == 0:
        return B
    d = B.shape[-1]
    fro = np.sqrt(np.einsum("...ij,...ij->...", H, H))
    out = B.copy()
    # the diagonal as a strided view of the flattened copy
    out.reshape(out.shape[:-2] + (d * d,))[..., ::d + 1] += (
        schedule.beta_t(t) * fro[..., None])
    return out


def fold_average(B: np.ndarray, H: np.ndarray, t: int) -> np.ndarray:
    """Running mean after step t: (t B + H) / (t + 1), as a new array."""
    B_new = B * t
    B_new += H
    B_new /= t + 1
    return B_new


def newton_step(
    state: NewtonState,
    problem,
    sample,
    schedule: StepsizeSchedule,
    alpha: Union[float, np.ndarray],
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> NewtonState:
    """One online Newton step, for one replication or a stack of them.

    Forms the gradient and Hessian samples of ``sample`` at x_t, solves for
    the Newton direction, moves x by ``alpha`` (a scalar or one stepsize
    per replication), and folds the Hessian sample into the running
    average:

        B_{t+1} = (t B_t + H_t) / (t + 1).

    ``problem`` provides grad(x, s) and hess(x, s) on arrays with the
    leading axes of ``state.x``; ``solve(B, g)`` returns dx with
    B dx = -g, exactly or by a sketch sweep.

    Solve stabilization: the average B_t drops the initial B_0 after the
    first step, so for t < d it is a mean of fewer than d rank-1 samples —
    singular by construction — and shortly after t = d its smallest
    eigenvalue is heavy-tailed near zero.  Inverting that raw average
    amplifies the early gradients without bound, and with stepsizes that
    start at order one the first few dozen iterates would blow up by
    several orders of magnitude before contracting.  The solve therefore
    targets the damped matrix

        B_t + beta_t * ||H_t||_F * I          (t >= 1),

    a Levenberg-style ridge scaled by the current Hessian sample.  Along
    the sampled direction this caps the stepsize-times-curvature product
    at alpha_t * xi^T (B_t + ridge)^{-1} xi <= 1 + chi_t/beta_t <= 2 for
    rank-1 samples, so no step can overshoot multiplicatively; the ridge
    vanishes at the beta_t rate, leaving the asymptotics and the reported
    average untouched.  At t = 0 the solve uses B_0 exactly.
    """
    t = state.t
    g = problem.grad(state.x, sample)
    H = problem.hess(state.x, sample)
    dx = solve(ridged_average(state.B, H, schedule, t), g)
    x_new = state.x + np.asarray(alpha)[..., None] * dx
    return NewtonState(t=t + 1, x=x_new, B=fold_average(state.B, H, t),
                       last_alpha=alpha, last_grad=g)


def run(
    problem,
    cfg: SketchSolveConfig,
    schedule: StepsizeSchedule,
    n_iters: int,
    seed: int,
    sinks: Iterable[TraceSink] = (),
) -> NewtonState:
    """Run n_iters Newton steps from x = 0, B = I, streaming to sinks.

    Sinks are plain callables sink(t, x_t, alpha_{t-1}), invoked once per
    step in order with t = 1..n_iters.  Raises DivergenceError when the
    iterate norm exceeds 1e8 (the study harness's guard) or turns
    non-finite.

    The int seed gives three independent generators (RngStreams.from_seed).
    Per step, the data stream gives one observation (problem.draw), the
    step stream one uniform in band mode only, and the sketch stream the
    draws of solve_newton_sketched.  An exact solve whose system fails the
    Cholesky gate falls back to the pseudo-inverse direction.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    rngs = RngStreams.from_seed(seed)
    state = NewtonState.initial(problem.dim)
    sinks = tuple(sinks)
    bound2 = _DIVERGENCE_NORM * _DIVERGENCE_NORM

    def solve(B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return solve_newton_sketched(B, g, cfg, rngs.sketch)

    for _ in range(n_iters):
        s = problem.draw(rngs.data)
        alpha = schedule.draw(state.t, rngs.step)
        state = newton_step(state, problem, s, schedule, alpha, solve)
        if not state.x @ state.x <= bound2:
            raise DivergenceError(state.t, float(np.linalg.norm(state.x)))
        for sink in sinks:
            sink(state.t, state.x, state.last_alpha)
    return state
