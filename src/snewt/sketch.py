"""Randomized sketching and the Newton-system solves.

Given a symmetric system B dx = -g, one inner step projects the current
iterate onto the solution space of the sketched equations S^T B dx = -S^T g:

    dx' = dx - B S (S^T B^2 S)^+ S^T (B dx + g).

Running tau such steps from dx = 0 gives an inexact Newton direction; the
exact direction is recovered either as tau -> infinity or by a direct solve.

Sketches are uniform coordinate columns or standard normal (d, q) blocks.
The pseudo-inverse of S^T B^2 S in a sketch step drops eigenvalues below
PINV_TOL * ||B||_F^2 / d, with the fixed PINV_TOL = 1e-12; a q = 1 step
below the cutoff is skipped.

The direct and sweep solves are written once, on stacks of systems: the
study harness solves all replications at once, and solve_newton_sketched,
the single-system entry point of optimizer.run, solves one-row stacks.
The direct solve is LU for regression and KKT systems alike, and a
singular system gets its minimum-norm least-squares solution.  Only the
coordinate solve has a sequential copy, a scalar loop twice as fast as
the one-row sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SketchDistribution",
    "SketchSolveConfig",
    "solve_newton_sketched",
]


@dataclass(frozen=True)
class SketchDistribution:
    """Distribution of the sketch matrix S (d x q).

    kind "uniform_coordinate": S is a uniformly random canonical basis
        column (q = 1).  Equivalent to randomized Kaczmarz on the rows.
    kind "gaussian": q i.i.d. standard normal columns.
    """

    kind: str = "uniform_coordinate"
    q: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("uniform_coordinate", "gaussian"):
            raise ValueError(f"unknown sketch kind {self.kind!r}")
        if self.q < 1:
            raise ValueError("sketch width q must be >= 1")
        if self.kind == "uniform_coordinate" and self.q != 1:
            raise ValueError("uniform_coordinate sketches have q = 1")


@dataclass(frozen=True)
class SketchSolveConfig:
    """How to produce the Newton direction.

    tau = None requests an exact solve (LU); tau = n >= 1 runs n
    sketch-and-project steps.
    """

    dist: SketchDistribution = SketchDistribution()
    tau: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tau is not None and self.tau < 1:
            raise ValueError("tau must be >= 1 or None for an exact solve")

    @property
    def is_exact(self) -> bool:
        return self.tau is None


# relative eigenvalue cutoff of the pseudo-inverse in a sketch step
PINV_TOL = 1e-12


def _tol_abs(B: np.ndarray) -> np.ndarray:
    # PINV_TOL * ||B||_F^2 / n per (n, n) slice: a cheap O(n^2) scale
    # proxy, within a factor n of the squared spectral norm
    flat = B.reshape(B.shape[:-2] + (-1,))
    return PINV_TOL * np.einsum("...i,...i->...", flat, flat) / B.shape[-1]


def _projector_factor(B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """A factor W, shaped like S, with W W^T = B S (S^T B^2 S)^+ S^T B.

    S is (..., d, q); the Monte-Carlo oracle passes its q >= 2 sketches.
    B S is formed for the whole stack by one matmul, the sketches' rows
    times B^T.  Eigenvalues of S^T B^2 S that are <= 0 are dropped, so
    W = B S V diag(evals)^{-1/2} over the kept eigenvectors V.
    """
    d = S.shape[-2]
    rows = S.swapaxes(-1, -2)
    BS = (rows.reshape(-1, d) @ B.T).reshape(rows.shape).swapaxes(-1, -2)
    evals, evecs = np.linalg.eigh(BS.swapaxes(-1, -2) @ BS)
    keep = (evals > 0.0)[..., None, :]
    vecs = evecs / np.sqrt(np.where(keep, evals[..., None, :], 1.0))
    return BS @ np.where(keep, vecs, 0.0)


# ---------------------------------------------------------------------------
# stacked solves: B is (R, n, n) and g (R, n)


def _direct_solve_batched(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked exact solve of K delta = -rhs by LU, for any symmetric K.

    Regression systems (positive definite) and KKT systems (indefinite)
    take the same solve.  A singular system falls back to its minimum-norm
    least-squares solution, system by system.
    """
    try:
        return np.linalg.solve(K, -rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for r in range(rhs.shape[0]):
            try:
                out[r] = np.linalg.solve(K[r], -rhs[r])
            except np.linalg.LinAlgError:
                out[r] = np.linalg.lstsq(K[r], -rhs[r], rcond=None)[0]
        return out


def _uc_solve_batched(B: np.ndarray, g: np.ndarray, idx: np.ndarray,
                      tol: np.ndarray) -> np.ndarray:
    """Stacked coordinate sketch-and-project sweep (tau steps each).

    B is (R, n, n), g (R, n), idx (R, tau) and tol (R,).  B must be
    symmetric (its rows equal its columns), which lets the column-energy
    denominators come from rows.  Degenerate rows (energy not above tol,
    NaN included) leave the iterate unchanged, replication by replication.

    Nothing but the iterate changes between the tau steps, so the selected
    rows, their right-hand-side entries, their energies and the degenerate
    mask are gathered once, step-major as (tau, R, ...), by two flat takes;
    each step then does one dot, add, divide, masked zero and axpy, on the
    same operands and in the same order as a step that gathers its own
    row.  The first step starts from dx = 0, where the residual is g_i.
    """
    n_rep, n = g.shape
    flat = idx.T + np.arange(0, n_rep * n, n)  # (tau, R) rows of the stack
    brows = np.take(B.reshape(n_rep * n, n), flat, axis=0)
    gsel = np.take(g, flat)
    den = np.einsum("srn,srn->sr", brows, brows)
    skip = ~(den > tol)
    den[skip] = 1.0
    coef = gsel[0] / den[0]
    coef[skip[0]] = 0.0
    # 0.0 - p rather than -p: a skipped row leaves +0.0, as dx -= p does
    dx = 0.0 - coef[:, None] * brows[0]
    for s in range(1, idx.shape[1]):
        brow = brows[s]
        coef = np.einsum("rn,rn->r", brow, dx)
        coef += gsel[s]
        coef /= den[s]
        coef[skip[s]] = 0.0
        dx -= coef[:, None] * brow
    return dx


def _gaussian_solve_batched(B: np.ndarray, g: np.ndarray, zblk: np.ndarray,
                            tol: np.ndarray) -> np.ndarray:
    """Stacked Gaussian sketch-and-project sweep; zblk is (R, tau, n, q).

    The sketches are the standard normal blocks zblk[:, s] themselves, and
    tol (R,) is each system's eigenvalue cutoff.  The first step starts
    from dx = 0, where the residual is S^T g.
    """
    tau, q = zblk.shape[1], zblk.shape[3]
    dx = np.zeros_like(g)
    for s in range(tau):
        S = zblk[:, s]
        W = np.einsum("rij,rjq->riq", B, S)
        res = np.einsum("riq,ri->rq", S, g)
        if s:  # from dx = 0 the residual is S^T g
            res += np.einsum("riq,ri->rq", W, dx)
        if q == 1:
            den = np.einsum("riq,riq->r", W, W)
            ok = den > tol
            coef = np.where(ok, res[:, 0] / np.where(ok, den, 1.0), 0.0)
            dx -= coef[:, None] * W[:, :, 0]
        else:
            M = np.einsum("riq,rip->rqp", W, W)
            evals, evecs = np.linalg.eigh(M)
            keep = evals > tol[:, None]
            proj = np.einsum("rqk,rq->rk", evecs, res)
            inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
            coef = np.einsum("rqk,rk->rq", evecs, inv * proj)
            dx -= np.einsum("riq,rq->ri", W, coef)
    return dx


# ---------------------------------------------------------------------------
# one system


def solve_newton_sketched(
    B: np.ndarray,
    g: np.ndarray,
    cfg: SketchSolveConfig,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Direction for one symmetric system B dx = -g, exact or by tau sketch
    steps; B may be a Newton matrix or a KKT matrix.

    Exact: the stacked direct solve on a one-row stack (LU, or the
    minimum-norm least-squares solution of a singular B).  Gaussian: one
    (tau, d, q) normal block, then the stacked Gaussian sweep on a one-row
    stack.  Coordinate: tau integers in one call, then a scalar loop that
    forms B*B once for the row energies and the cutoff, and whose first
    non-degenerate step starts from dx = -(g_i / den) B_i, the projection
    of dx = 0.
    """
    if cfg.is_exact:
        return _direct_solve_batched(B[None], g[None])[0]
    if rng is None:
        raise ValueError("sketched solves need a generator")
    d, tau = B.shape[0], cfg.tau
    if cfg.dist.kind == "gaussian":
        z = rng.standard_normal((tau, d, cfg.dist.q))
        return _gaussian_solve_batched(B[None], g[None], z[None],
                                       _tol_abs(B)[None])[0]
    # This loop stays beside _uc_solve_batched because optimizer.run calls
    # it every step: at d = 5, tau = 2 (draws included, OpenBLAS on one
    # thread of a 2-core VM) it takes 12-18 us per solve against 28-40 us
    # for the sweep on a one-row stack, of a 70 us step.
    coldens = (B * B).sum(axis=0)
    tol = PINV_TOL * coldens.sum() / d  # _tol_abs(B), from the row energies
    dx = None
    for i in rng.integers(0, d, size=tau).tolist():
        den = coldens[i]
        if den <= tol:
            continue
        if dx is None:  # from dx = 0 the residual is g_i
            dx = -(g[i] / den) * B[i]
        else:
            dx = dx - ((B[i] @ dx + g[i]) / den) * B[i]
    return np.zeros(d) if dx is None else dx
