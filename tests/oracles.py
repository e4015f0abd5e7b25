"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written in the most direct form
available — two-pass loops over stored traces, exhaustive enumeration,
textbook finite differences, generic pseudo-inverses — so that the fast
recursive implementations in the package are checked against code that
shares no algebra with them.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# weighted sample covariance, computed from the stored trace in two passes


def wsc_two_pass(xs: Sequence[np.ndarray], phis: Sequence[float]) -> np.ndarray:
    """(1/t) sum_i (x_i - xbar)(x_i - xbar)^T / phi_i over the full trace."""
    t = len(xs)
    xbar = np.zeros_like(xs[0])
    for x in xs:
        xbar = xbar + x
    xbar = xbar / t
    out = np.zeros((xs[0].shape[0], xs[0].shape[0]))
    for x, phi in zip(xs, phis):
        dev = x - xbar
        out = out + np.outer(dev, dev) / phi
    return out / t


def batch_means_two_pass(xs: Sequence[np.ndarray],
                         ends: Sequence[int]) -> np.ndarray:
    """sum_m n_m^2 (bbar_m - xbar)(bbar_m - xbar)^T / sum_m n_m.

    Batch m holds xs[ends[m-1]:ends[m]] (ends[-1] = 0); xbar is the
    n_m-weighted mean of the batch means.  A first pass finds the mean of
    the batched iterates; the batch means are taken of the deviations from
    it, so an offset of the iterates from zero costs no digits.
    """
    starts = [0] + list(ends[:-1])
    sizes = [e - s for s, e in zip(starts, ends)]
    devs = np.asarray(xs[:ends[-1]])
    devs = devs - np.mean(devs, axis=0)
    means = [np.mean(devs[s:e], axis=0) for s, e in zip(starts, ends)]
    total = sum(sizes)
    xbar = sum(n * b for n, b in zip(sizes, means)) / total
    out = np.zeros((len(xbar), len(xbar)))
    for n, b in zip(sizes, means):
        out = out + n * n * np.outer(b - xbar, b - xbar)
    return out / total


def recursive_inverse_replay(
    xs: Sequence[np.ndarray],
    phis: Sequence[float],
    burn_in: int,
    middle_matrix: Callable[[float, int, float], np.ndarray],
) -> List[np.ndarray]:
    """Replay the rank-3 inverse recursion with a caller-chosen 3x3 middle.

    Returns the inverse after every post-burn-in update.  Passing different
    middle matrices demonstrates which sign variant actually inverts the
    rank-3 factorization.
    """
    d = xs[0].shape[0]
    t = 0
    W = np.zeros((d, d))
    v = np.zeros(d)
    xbar = np.zeros(d)
    a = 0.0
    inv = None
    out: List[np.ndarray] = []

    def estimate() -> np.ndarray:
        e = W - np.outer(v, xbar) - np.outer(xbar, v) + a * np.outer(xbar, xbar)
        return 0.5 * (e + e.T)

    for x, phi in zip(xs, phis):
        if inv is not None:
            xbar_new = (t * xbar + x) / (t + 1)
            R = np.column_stack([v - a * xbar, xbar - xbar_new, x - xbar_new])
            M = middle_matrix(a, t, phi)
            Y = inv @ R
            inv = ((t + 1.0) / t) * (inv - Y @ np.linalg.solve(M + R.T @ Y, Y.T))
            inv = 0.5 * (inv + inv.T)
        wgt = 1.0 / phi
        W = (t * W + np.outer(x, x) * wgt) / (t + 1)
        v = (t * v + x * wgt) / (t + 1)
        xbar = (t * xbar + x) / (t + 1)
        a = (t * a + wgt) / (t + 1)
        t += 1
        if inv is None and t >= burn_in:
            inv = np.linalg.inv(estimate())
        elif inv is not None:
            out.append(inv.copy())
    return out


def middle_minus(a: float, t: int, phi: float) -> np.ndarray:
    """3x3 middle matrix with -a in the corner (the factorization inverse)."""
    return np.array([[-a, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, t * phi]])


def middle_plus(a: float, t: int, phi: float) -> np.ndarray:
    """Sign-flipped variant with +a in the corner (not the inverse)."""
    return np.array([[a, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, t * phi]])


# ---------------------------------------------------------------------------
# sketch-and-project, as a straight-line loop over explicit sketch matrices


def sketch_loop(B: np.ndarray, g: np.ndarray,
                sketches: Sequence[np.ndarray]) -> np.ndarray:
    """dx_{j+1} = dx_j - B S (S^T B^2 S)^+ S^T (B dx_j + g), from dx_0 = 0."""
    dx = np.zeros_like(g)
    for S in sketches:
        S = S.reshape(B.shape[0], -1)
        M = S.T @ B @ B @ S
        dx = dx - B @ S @ np.linalg.pinv(M) @ (S.T @ (B @ dx + g))
    return dx


def uc_sweep_replay(B: np.ndarray, g: np.ndarray, idx: np.ndarray,
                    tol: np.ndarray) -> np.ndarray:
    """Stacked coordinate sweep with each step gathering its own row.

    The per-step batched loop the engine's sweep is held to bit for bit:
    step s reads row idx[r, s] of B[r] and g[r], and a row of energy not
    above tol[r] leaves replication r's direction unchanged.
    """
    dx = np.zeros_like(g)
    rows = np.arange(g.shape[0])
    for s in range(idx.shape[1]):
        i = idx[:, s]
        brow = B[rows, i, :]
        den = np.einsum("rn,rn->r", brow, brow)
        ok = den > tol
        res = np.einsum("rn,rn->r", brow, dx) + g[rows, i]
        coef = np.where(ok, res / np.where(ok, den, 1.0), 0.0)
        dx -= coef[:, None] * brow
    return dx


def symmetric_noise_replay(z: np.ndarray, d: int,
                           sigma2: float) -> np.ndarray:
    """Upper triangle filled row-major, then its strict part mirrored."""
    e = np.zeros(z.shape[:-1] + (d, d))
    e[(...,) + np.triu_indices(d)] = np.sqrt(sigma2) * z
    return e + np.swapaxes(np.triu(e, 1), -1, -2)


def coordinate_sketches(indices: Sequence[int], d: int) -> List[np.ndarray]:
    """Canonical-basis sketch columns for a recorded index sequence."""
    out = []
    for i in indices:
        s = np.zeros((d, 1))
        s[int(i), 0] = 1.0
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# online Newton on a regression model, one replication, written out per step


def newton_replay(model, tau: Optional[int], gaussian_q: Optional[int],
                  schedule, n_iters: int, rngs
                  ) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Straight-line online Newton loop.

    Returns the iterates x_1..x_n, the gradient samples g_0..g_{n-1} and
    the final Hessian average.  Step t reads d data normals z and sets the
    features a = chol(Sigma_a) z; a linear response then reads one more
    normal, y = a.x* + sigma eps, and a logistic label one uniform u,
    y = +1 if u < 1 / (1 + exp(-a.x*)) else -1.  The gradient and Hessian
    samples are (a.x - y) a and a a^T (linear) or -y a / (1 + exp(y a.x))
    and p (1 - p) a a^T with p = 1 / (1 + exp(-a.x)) (logistic).  The
    solve uses B + beta_t ||H||_F I for t >= 1 and B at t = 0: tau = None
    solves with np.linalg.solve, otherwise the sketch stream gives tau
    coordinate indices (gaussian_q None) or one (tau, d, gaussian_q) normal
    block, and sketch_loop runs them.  The step stream gives one uniform
    per step in band mode.  H enters the average after the step.
    """
    d = model.dim
    chol = np.linalg.cholesky(model.sigma_a)
    x = np.zeros(d)
    B = np.eye(d)
    xs: List[np.ndarray] = []
    grads: List[np.ndarray] = []
    for t in range(n_iters):
        a = chol @ rngs.data.standard_normal(d)
        if model.family == "linear":
            y = a @ model.x_star + model.sigma * rngs.data.standard_normal()
            g = (a @ x - y) * a
            H = np.outer(a, a)
        else:
            p_star = 1.0 / (1.0 + np.exp(-(a @ model.x_star)))
            y = 1.0 if rngs.data.random() < p_star else -1.0
            g = -y / (1.0 + np.exp(y * (a @ x))) * a
            p = 1.0 / (1.0 + np.exp(-(a @ x)))
            H = p * (1.0 - p) * np.outer(a, a)
        B_solve = B
        if t > 0:
            B_solve = B + schedule.beta_t(t) * np.sqrt((H * H).sum()) * np.eye(d)
        if tau is None:
            dx = np.linalg.solve(B_solve, -g)
        elif gaussian_q is None:
            idx = rngs.sketch.integers(0, d, size=tau)
            dx = sketch_loop(B_solve, g, coordinate_sketches(idx, d))
        else:
            blocks = rngs.sketch.standard_normal((tau, d, gaussian_q))
            dx = sketch_loop(B_solve, g, list(blocks))
        if schedule.mode == "deterministic":
            alpha = schedule.phi(t)
        else:
            alpha = schedule.beta_t(t) + rngs.step.random() * schedule.chi_t(t)
        x = x + alpha * dx
        B = (t * B + H) / (t + 1)
        xs.append(x.copy())
        grads.append(g)
    return xs, grads, B


# ---------------------------------------------------------------------------
# stochastic SQP, one replication, written from the KKT step in vector form


def sqp_replay(problem, sigma2: float, tau: Optional[int], schedule,
               n_iters: int, rngs) -> Tuple[List[np.ndarray], np.ndarray]:
    """Straight-line SQP loop; returns the iterates x_1..x_n and final lam.

    Step t reads d + d(d+1)/2 data normals z: gradient noise
    sigma (I + c 1 1^T) z[:d] with c = (sqrt(d+1) - 1)/d, then the Hessian
    noise's upper triangle, row by row, as sigma z[d:].  The Lagrangian
    Hessian sample H = hess f + noise + sum_i lam_i hess c_i enters the
    average B after the step; the KKT matrix uses B + beta_t ||H||_F I for
    t >= 1.  tau = None solves with np.linalg.solve; otherwise tau
    coordinate indices from the sketch stream drive sketch_loop.  In band
    mode the step stream gives one uniform per step.
    """
    d, m = problem.dim, problem.n_cons
    n = d + m
    sigma = np.sqrt(sigma2)
    c = (np.sqrt(d + 1.0) - 1.0) / d
    noise_factor = sigma * (np.eye(d) + c * np.ones((d, d)))
    x = np.array(problem.x0, dtype=float)
    lam = np.zeros(m)
    B = np.eye(d)
    xs: List[np.ndarray] = []
    for t in range(n_iters):
        z = rngs.data.standard_normal(d + d * (d + 1) // 2)
        g = problem.grad(x) + noise_factor @ z[:d]
        E = np.zeros((d, d))
        k = d
        for i in range(d):
            for j in range(i, d):
                E[i, j] = E[j, i] = sigma * z[k]
                k += 1
        H = problem.hess(x) + E
        for i in range(m):
            H = H + lam[i] * problem.cons_hess(x)[i]
        G = problem.jac(x)
        B_solve = B
        if t > 0:
            B_solve = B + schedule.beta_t(t) * np.sqrt((H * H).sum()) * np.eye(d)
        K = np.block([[B_solve, G.T], [G, np.zeros((m, m))]])
        rhs = np.concatenate([g + G.T @ lam, problem.cons(x)])
        if tau is None:
            delta = np.linalg.solve(K, -rhs)
        else:
            idx = rngs.sketch.integers(0, n, size=tau)
            delta = sketch_loop(K, rhs, coordinate_sketches(idx, n))
        if schedule.mode == "deterministic":
            alpha = schedule.phi(t)
        else:
            alpha = schedule.beta_t(t) + rngs.step.random() * schedule.chi_t(t)
        x = x + alpha * delta[:d]
        lam = lam + alpha * delta[d:]
        B = (t * B + H) / (t + 1)
        xs.append(x.copy())
    return xs, lam


# ---------------------------------------------------------------------------
# exhaustive enumeration of the sketched-residual spread


def coordinate_projector(B: np.ndarray, i: int) -> np.ndarray:
    """Pi_i = B e_i e_i^T B / (B^2)_{ii} for a canonical-coordinate sketch."""
    col = B[:, i]
    return np.outer(col, col) / float(col @ col)


def lambda_by_enumeration(B: np.ndarray, omega: np.ndarray,
                          tau: int) -> np.ndarray:
    """E[(I - Ctilde) Omega (I - Ctilde)^T] over all d^tau coordinate sequences.

    Each of the d^tau equally likely sketch-index sequences contributes its
    exact residual operator; the expectation is the plain average.
    """
    d = B.shape[0]
    eye = np.eye(d)
    projs = [coordinate_projector(B, i) for i in range(d)]
    total = np.zeros((d, d))
    for seq in itertools.product(range(d), repeat=tau):
        resid = eye.copy()
        for i in seq:
            resid = (eye - projs[i]) @ resid
        half = eye - resid
        total = total + half @ omega @ half.T
    return total / float(d) ** tau


def lyapunov_residual(xi: np.ndarray, C: np.ndarray, lam: np.ndarray,
                      beta: float, c_beta: float) -> np.ndarray:
    """A Xi + Xi A^T - Lambda with A = (1 - delta/2) I - C (zero at the solution).

    delta = 1/c_beta when beta == 1 and 0 otherwise.
    """
    delta = 1.0 / c_beta if beta == 1.0 else 0.0
    A = (1.0 - 0.5 * delta) * np.eye(C.shape[0]) - C
    return A @ xi + xi @ A.T - lam


# ---------------------------------------------------------------------------
# Gaussian-sketch Monte Carlo, one sample at a time


def _pinv_projector(B: np.ndarray, S: np.ndarray) -> np.ndarray:
    BS = B @ S
    return BS @ np.linalg.pinv(BS.T @ BS) @ BS.T


def _mean_and_stderr(samples: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Mean, then the stderr from squared deviations from it (two passes)."""
    n = len(samples)
    total = np.zeros_like(samples[0])
    for x in samples:
        total = total + x
    mean = total / n
    total2 = np.zeros_like(samples[0])
    for x in samples:
        total2 = total2 + (x - mean) * (x - mean)
    se = np.sqrt(total2 / n / n)
    return 0.5 * (mean + mean.T), se


def projection_expectation_replay(B: np.ndarray, q: int, n_mc: int,
                                  rng: np.random.Generator):
    """(E[Pi], stderr) from n_mc sketches, each drawn as its own (d, q) block."""
    d = B.shape[0]
    return _mean_and_stderr([
        _pinv_projector(B, rng.standard_normal((d, q)))
        for _ in range(n_mc)])


def lambda_replay(B: np.ndarray, omega: np.ndarray, q: int, tau: int,
                  n_mc: int, rng: np.random.Generator):
    """(Lambda, stderr): mean of (I - Ctilde) Omega (I - Ctilde)^T per sample.

    Each sample multiplies out its tau residual factors (I - Pi_j), drawing
    the sketches one (d, q) block at a time.
    """
    d = B.shape[0]
    eye = np.eye(d)
    samples = []
    for _ in range(n_mc):
        resid = eye.copy()
        for _ in range(tau):
            pi = _pinv_projector(B, rng.standard_normal((d, q)))
            resid = (eye - pi) @ resid
        half = eye - resid
        samples.append(half @ omega @ half.T)
    return _mean_and_stderr(samples)


# ---------------------------------------------------------------------------
# the KKT conditions of an equality-constrained problem, at one point


def kkt_residual(problem, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """First-order residual [grad f + J^T lam; c(x)]."""
    return np.concatenate([problem.grad(x) + problem.jac(x).T @ lam,
                           problem.cons(x)])


def newton_kkt_solve(problem, x0: np.ndarray, lam0: np.ndarray,
                     tol: float = 1e-12,
                     max_iter: int = 100) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic full-Newton solve of the KKT conditions from (x0, lam0).

    Raises RuntimeError if the residual's max norm does not reach tol.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = np.asarray(lam0, dtype=float).copy()
    d, m = len(x), len(lam)
    for _ in range(max_iter):
        res = kkt_residual(problem, x, lam)
        if np.abs(res).max() <= tol:
            return x, lam
        J = problem.jac(x)
        H = problem.hess(x) + problem.weighted_cons_hess(x, lam)
        K = np.block([[H, J.T],
                      [J, np.zeros((m, m))]])
        delta = np.linalg.solve(K, -res)
        x = x + delta[:d]
        lam = lam + delta[d:]
    res = np.abs(kkt_residual(problem, x, lam)).max()
    raise RuntimeError(f"KKT Newton did not converge (residual {res:.2e})")


# ---------------------------------------------------------------------------
# finite differences


def sample_loss(model, x: np.ndarray, s) -> float:
    """Loss of one regression observation at one point.

    Linear: (xi_b - xi_a x)^2 / 2; logistic: log(1 + exp(-y xi_a x)).
    """
    if model.family == "linear":
        res = s.xi_b - s.xi_a @ x
        return 0.5 * float(res * res)
    return float(np.logaddexp(0.0, -s.xi_b * (s.xi_a @ x)))


def fd_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
            h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def fd_jac(F: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
           h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function (rows = outputs)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(F(x), dtype=float)
    out = np.zeros((f0.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        out[:, i] = (np.asarray(F(x + e)) - np.asarray(F(x - e))) / (2.0 * h)
    return out
