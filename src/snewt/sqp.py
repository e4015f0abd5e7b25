"""Stochastic equality-constrained SQP with sketched KKT solves.

Each step observes a noisy objective gradient and Hessian (constraints are
exact) and takes optimizer.newton_step with the constraint Jacobian and
values: the KKT system of the local quadratic model with the running
Lagrangian-Hessian average B_t,

    [ B_t  G^T ] [dx  ]     [ grad_x L ]
    [ G    0   ] [dlam] = - [ c(x)     ],

solved exactly (LU, least squares if singular; the KKT matrix is
symmetric indefinite) or with tau sketch-and-project steps on the full
(d+m)-dimensional system, and the primal-dual pair moves by a banded
stepsize.  The covariance machinery applies to the primal block
unchanged: trace sinks receive (t, x_t, alpha).

The problems and observe, which turns a step's noise normals into the
samples newton_step takes, work on stacks of replications as well as on
single points, so run_sqp and the batched harness share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

import numpy as np

from .optimizer import (NewtonState, RngStreams, StepsizeSchedule,
                        TraceSink, _run_loop)
from .problems import grad_noise_factor, symmetric_noise
from .sketch import (SketchSolveConfig, _lu_solve_batched,
                     solve_newton_sketched)

__all__ = [
    "EqConstrainedProblem",
    "observe",
    "run_sqp",
    "equality_qp",
    "maratos",
    "hs7",
    "builtin_problem",
]


@dataclass
class EqConstrainedProblem:
    """min f(x) subject to c(x) = 0 (m equality constraints).

    Every callable works on arrays with any leading axes, so one definition
    serves a single point x of shape (d,) and a stack of replications of
    shape (R, d) alike: objective maps (..., d) to (...), grad and hess give
    (..., d) and (..., d, d), cons and jac give (..., m) and (..., m, d),
    and cons_hess gives (..., m, d, d).  The values may be read-only
    broadcast views.

    ``inactive`` lists the coordinates whose optimal value is not pinned by
    the constraints to first order (the tangent space at x* has a nonzero
    component there); only those coordinates carry asymptotic randomness,
    so inference targets their average.
    """

    name: str
    dim: int
    n_cons: int
    objective: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    cons: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    cons_hess: Callable[[np.ndarray], np.ndarray]
    x_star: np.ndarray
    lam_star: np.ndarray
    inactive: Tuple[int, ...]
    x0: np.ndarray

    def weighted_cons_hess(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """sum_i lam[..., i] hess c_i(x), shape (..., d, d)."""
        return np.einsum("...m,...mij->...ij", lam, self.cons_hess(x))


def observe(problem: EqConstrainedProblem, X: np.ndarray, Lam: np.ndarray,
            z: np.ndarray, sigma2: float, grad_chol: np.ndarray) -> tuple:
    """One step's samples (g, H, J, c) at (X, Lam) for newton_step.

    ``z`` holds each replication's d + d(d+1)/2 standard normals: the
    first d give gradient noise of covariance sigma2 (I + 1 1^T) through
    ``grad_chol`` = grad_noise_factor(d, sigma2), the rest the symmetric
    Hessian noise (see problems.symmetric_noise).  Constraints are exact.
    The Lagrangian Hessian sample weights the constraint Hessians by the
    current multipliers:

        H_t = (hess f(x_t) + noise) + sum_i lam_t[i] hess c_i(x_t).
    """
    d = problem.dim
    g = problem.grad(X) + z[..., :d] @ grad_chol.T
    H = (problem.hess(X) + symmetric_noise(z[..., d:], d, sigma2)
         + problem.weighted_cons_hess(X, Lam))
    return g, H, problem.jac(X), problem.cons(X)


def run_sqp(
    problem: EqConstrainedProblem,
    sigma2: float,
    cfg: SketchSolveConfig,
    schedule: StepsizeSchedule,
    n_iters: int,
    seed: int,
    sinks: Iterable[TraceSink] = (),
) -> NewtonState:
    """Run n_iters SQP steps from (problem.x0, lam = 0, B = I).

    Sinks receive (t, x_t, alpha_{t-1}).  Raises ValueError when n_iters
    < 1, and DivergenceError when ||x|| + ||lam|| exceeds 1e8 (the study
    harness's guard) or turns non-finite.

    The int seed gives three independent generators
    (RngStreams.from_seed).  Per step, the data stream gives d + d(d+1)/2
    normals (see observe), the sketch stream gives the draws of
    solve_newton_sketched on the assembled KKT system, and the step stream
    gives one uniform in band mode only.  The three are separate
    generators, so the order in which they are read does not matter.
    Exact solves use the LU solve of the study harness on a one-row stack,
    so a singular KKT matrix gives its least-squares direction.
    """
    rngs = RngStreams.from_seed(seed)
    d = problem.dim
    n_normals = d + d * (d + 1) // 2
    grad_chol = grad_noise_factor(d, sigma2)
    # the KKT matrix is indefinite, so the exact path is the LU solve
    solve = ((lambda K, rhs: _lu_solve_batched(K[None], rhs[None])[0])
             if cfg.is_exact else
             (lambda K, rhs: solve_newton_sketched(K, rhs, cfg, rngs.sketch)))
    state = NewtonState(t=0, x=problem.x0.copy(), B=np.eye(d),
                        lam=np.zeros(problem.n_cons))
    return _run_loop(
        state, schedule, n_iters, rngs,
        lambda st, data: observe(problem, st.x, st.lam,
                                 data.standard_normal(n_normals), sigma2,
                                 grad_chol),
        solve, sinks)


# ---------------------------------------------------------------------------
# built-in problems


def _stacked(value: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A constant value broadcast over the leading axes of X (read-only)."""
    return np.broadcast_to(value, X.shape[:-1] + value.shape)


def equality_qp() -> EqConstrainedProblem:
    """Convex QP with the first coordinate pinned: min .5 x'Ax + b'x, x_0 = 1.

    The reduced problem over the free coordinates is an unconstrained
    quadratic, so x* has a closed form; lam* = -(A x* + b)_0.
    """
    A = np.array([
        [2.0, 0.4, 0.2],
        [0.4, 1.5, 0.3],
        [0.2, 0.3, 1.0],
    ])
    b = np.array([0.5, -0.3, 0.2])
    free = [1, 2]
    y = np.linalg.solve(A[np.ix_(free, free)], -(b[free] + A[free, 0] * 1.0))
    x_star = np.concatenate([[1.0], y])
    lam_star = np.array([-(A @ x_star + b)[0]])
    jac = np.array([[1.0, 0.0, 0.0]])
    zeros_ch = np.zeros((1, 3, 3))
    return EqConstrainedProblem(
        name="eqqp",
        dim=3,
        n_cons=1,
        # A is symmetric, so x A = A x
        objective=lambda X: np.einsum("...i,...i->...", 0.5 * X @ A + b, X),
        grad=lambda X: X @ A + b,
        hess=lambda X: _stacked(A, X),
        cons=lambda X: X[..., :1] - 1.0,
        jac=lambda X: _stacked(jac, X),
        cons_hess=lambda X: _stacked(zeros_ch, X),
        x_star=x_star,
        lam_star=lam_star,
        inactive=(1, 2),
        x0=np.zeros(3),
    )


def maratos() -> EqConstrainedProblem:
    """min 2(x_0^2 + x_1^2 - 1) - x_0  s.t.  x_0^2 + x_1^2 = 1.

    Solution (1, 0) with multiplier -3/2; the tangent direction at the
    solution is e_1, so only x_1 is asymptotically random.
    """
    e0 = np.array([1.0, 0.0])
    hess = 4.0 * np.eye(2)
    ch = 2.0 * np.eye(2)[None, :, :]
    return EqConstrainedProblem(
        name="maratos",
        dim=2,
        n_cons=1,
        objective=lambda X: 2.0 * ((X ** 2).sum(axis=-1) - 1.0) - X[..., 0],
        grad=lambda X: 4.0 * X - e0,
        hess=lambda X: _stacked(hess, X),
        cons=lambda X: (X ** 2).sum(axis=-1, keepdims=True) - 1.0,
        jac=lambda X: 2.0 * X[..., None, :],
        cons_hess=lambda X: _stacked(ch, X),
        x_star=np.array([1.0, 0.0]),
        lam_star=np.array([-1.5]),
        inactive=(1,),
        x0=np.array([0.8, 0.3]),
    )


def hs7() -> EqConstrainedProblem:
    """min log(1 + x_0^2) - x_1  s.t.  (1 + x_0^2)^2 + x_1^2 = 4.

    Solution (0, sqrt(3)) with multiplier 1/(2 sqrt(3)); the tangent
    direction at the solution is e_0, so only x_0 is asymptotically random.
    """

    def grad(X: np.ndarray) -> np.ndarray:
        g = np.empty_like(X)
        x0 = X[..., 0]
        g[..., 0] = 2.0 * x0 / (1.0 + x0 ** 2)
        g[..., 1] = -1.0
        return g

    def hess(X: np.ndarray) -> np.ndarray:
        h = np.zeros(X.shape[:-1] + (2, 2))
        x0 = X[..., 0]
        h[..., 0, 0] = 2.0 * (1.0 - x0 ** 2) / (1.0 + x0 ** 2) ** 2
        return h

    def jac(X: np.ndarray) -> np.ndarray:
        j = np.empty(X.shape[:-1] + (1, 2))
        j[..., 0, 0] = 4.0 * X[..., 0] * (1.0 + X[..., 0] ** 2)
        j[..., 0, 1] = 2.0 * X[..., 1]
        return j

    def cons_hess(X: np.ndarray) -> np.ndarray:
        ch = np.zeros(X.shape[:-1] + (1, 2, 2))
        ch[..., 0, 0, 0] = 4.0 + 12.0 * X[..., 0] ** 2
        ch[..., 0, 1, 1] = 2.0
        return ch

    return EqConstrainedProblem(
        name="hs7",
        dim=2,
        n_cons=1,
        objective=lambda X: np.log1p(X[..., 0] ** 2) - X[..., 1],
        grad=grad,
        hess=hess,
        cons=lambda X: (1.0 + X[..., :1] ** 2) ** 2 + X[..., 1:] ** 2 - 4.0,
        jac=jac,
        cons_hess=cons_hess,
        x_star=np.array([0.0, np.sqrt(3.0)]),
        lam_star=np.array([1.0 / (2.0 * np.sqrt(3.0))]),
        inactive=(0,),
        x0=np.array([0.5, 1.5]),
    )


_BUILTIN = {"eqqp": equality_qp, "maratos": maratos, "hs7": hs7}


def builtin_problem(name: str) -> EqConstrainedProblem:
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown constrained problem {name!r}") from None
    return factory()
