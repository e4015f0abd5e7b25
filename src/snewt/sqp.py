"""Stochastic equality-constrained SQP with sketched KKT solves.

Each step observes a noisy objective gradient and Hessian (constraints are
exact) and takes optimizer.newton_step with the constraint Jacobian and
values: the KKT system of the local quadratic model with the running
Lagrangian-Hessian average B_t,

    [ B_t  G^T ] [dx  ]     [ grad_x L ]
    [ G    0   ] [dlam] = - [ c(x)     ],

solved exactly (LU, least squares if singular; the KKT matrix is
symmetric indefinite) or with tau sketch-and-project steps on the full
(d+m)-dimensional system, by the same solve as a regression step, and
the primal-dual pair moves by a banded stepsize.  The covariance
machinery applies to the primal block unchanged: trace sinks receive
(t, x_t, alpha).

A problem is data, as a regression model is: it holds its noise sigma2.
The problems and observe, which turns a step's noise normals into the
samples newton_step takes, work on stacks of replications as well as on
single points, so run and the batched harness share them.  Problems
with a quadratic objective and quadratic constraints are data of one
builder, quadratic_problem (eqqp and maratos); hs7 is written by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .problems import grad_noise_factor, symmetric_noise

__all__ = [
    "EqConstrainedProblem",
    "observe",
    "quadratic_problem",
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

    The gradient and Hessian are observed with noise of scale sigma2 (see
    observe); grad_chol, the gradient noise's factor, follows from it.
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
    x0: np.ndarray
    sigma2: float
    grad_chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.grad_chol = grad_noise_factor(self.dim, self.sigma2)

    @property
    def n_normals(self) -> int:
        """d gradient plus d(d+1)/2 Hessian noise normals per observation."""
        return self.dim + self.dim * (self.dim + 1) // 2

    @property
    def inactive(self) -> Tuple[int, ...]:
        """The coordinates whose optimal value the constraints do not pin
        to first order: those whose diagonal entry of the tangent projector
        I - J'(JJ')^-1 J at x* (J the constraint Jacobian) is above
        roundoff; the entries lie in [0, 1].  Only they carry asymptotic
        randomness, so inference targets their average."""
        J = self.jac(self.x_star)
        pinned = np.einsum("ij,ij->j", J, np.linalg.solve(J @ J.T, J))
        return tuple(int(i) for i in np.flatnonzero(1.0 - pinned > 1e-12))

    def weighted_cons_hess(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """sum_i lam[..., i] hess c_i(x), shape (..., d, d)."""
        return np.einsum("...m,...mij->...ij", lam, self.cons_hess(x))


def observe(problem: EqConstrainedProblem, X: np.ndarray, Lam: np.ndarray,
            z: np.ndarray) -> tuple:
    """One step's samples (g, H, J, c) at (X, Lam) for newton_step.

    ``z`` holds each replication's problem.n_normals standard normals: the
    first d give gradient noise of covariance sigma2 (I + 1 1^T) through
    problem.grad_chol, the rest the symmetric Hessian noise (see
    problems.symmetric_noise).  Constraints are exact.  The Lagrangian
    Hessian sample weights the constraint Hessians by the current
    multipliers:

        H_t = (hess f(x_t) + noise) + sum_i lam_t[i] hess c_i(x_t).
    """
    d = problem.dim
    g = problem.grad(X) + z[..., :d] @ problem.grad_chol.T
    H = (problem.hess(X) + symmetric_noise(z[..., d:], d, problem.sigma2)
         + problem.weighted_cons_hess(X, Lam))
    return g, H, problem.jac(X), problem.cons(X)


# ---------------------------------------------------------------------------
# built-in problems


def _stacked(value: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A constant value broadcast over the leading axes of X (read-only)."""
    return np.broadcast_to(value, X.shape[:-1] + value.shape)


def quadratic_problem(name: str, A: np.ndarray, b: np.ndarray,
                      G: np.ndarray, h: np.ndarray, x_star: np.ndarray,
                      lam_star: np.ndarray, x0: np.ndarray, sigma2: float,
                      f0: float = 0.0,
                      Q: Optional[np.ndarray] = None) -> EqConstrainedProblem:
    """min .5 x'Ax + b'x + f0  s.t.  .5 x'Q_i x + G_i x + h_i = 0, i < m,
    observed with noise of scale sigma2.

    A is symmetric (d, d), G is (m, d) and h is (m,); Q is a stack
    (m, d, d) of symmetric matrices, zero (linear constraints) when not
    given.  The solution (x_star, lam_star) is data; the builder does not
    solve for it.
    """
    if Q is None:
        Q = np.zeros((len(h),) + A.shape)
    return EqConstrainedProblem(
        name=name,
        dim=len(b),
        n_cons=len(h),
        # A is symmetric, so x A = A x
        objective=lambda X: (
            np.einsum("...i,...i->...", 0.5 * X @ A + b, X) + f0),
        grad=lambda X: X @ A + b,
        hess=lambda X: _stacked(A, X),
        cons=lambda X: (0.5 * np.einsum("...i,mij,...j->...m", X, Q, X)
                        + (X @ G.T + h)),
        jac=lambda X: np.einsum("mij,...j->...mi", Q, X) + G,
        cons_hess=lambda X: _stacked(Q, X),
        x_star=x_star,
        lam_star=lam_star,
        x0=x0,
        sigma2=sigma2,
    )


def equality_qp(sigma2: float) -> EqConstrainedProblem:
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
    return quadratic_problem(
        "eqqp", A, b,
        G=np.array([[1.0, 0.0, 0.0]]),
        h=np.array([-1.0]),
        x_star=x_star,
        lam_star=lam_star,
        x0=np.zeros(3),
        sigma2=sigma2,
    )


def maratos(sigma2: float) -> EqConstrainedProblem:
    """min 2(x_0^2 + x_1^2 - 1) - x_0  s.t.  x_0^2 + x_1^2 = 1.

    Solution (1, 0) with multiplier -3/2; the tangent direction at the
    solution is e_1, so only x_1 is asymptotically random.
    """
    return quadratic_problem(
        "maratos", 4.0 * np.eye(2), np.array([-1.0, 0.0]),
        G=np.zeros((1, 2)),
        h=np.array([-1.0]),
        x_star=np.array([1.0, 0.0]),
        lam_star=np.array([-1.5]),
        x0=np.array([0.8, 0.3]),
        sigma2=sigma2,
        f0=-2.0,
        Q=2.0 * np.eye(2)[None, :, :],
    )


def hs7(sigma2: float) -> EqConstrainedProblem:
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
        x0=np.array([0.5, 1.5]),
        sigma2=sigma2,
    )


_BUILTIN = {"eqqp": equality_qp, "maratos": maratos, "hs7": hs7}


def builtin_problem(name: str, sigma2: float) -> EqConstrainedProblem:
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown constrained problem {name!r}") from None
    return factory(sigma2)
