"""Randomized sketching and the sketch-and-project inner solver.

Given a symmetric system B dx = -g, one inner step projects the current
iterate onto the solution space of the sketched equations S^T B dx = -S^T g:

    dx' = dx - B S (S^T B^2 S)^+ S^T (B dx + g).

Running tau such steps from dx = 0 gives an inexact Newton direction; the
exact direction is recovered either as tau -> infinity or by a direct solve.

Sketches are uniform coordinate columns or standard normal (d, q) blocks.
The pseudo-inverses of S^T B^2 S in a sketch step and of B in
pinv_newton_solve drop eigenvalues below PINV_TOL * ||B||_F^2 / d, with
the fixed PINV_TOL = 1e-12; a q = 1 step below the cutoff is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SketchDistribution",
    "SketchSolveConfig",
    "sketch_project_step",
    "solve_newton_sketched",
    "exact_newton_solve",
    "pinv_newton_solve",
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

    tau = None requests an exact solve (Cholesky); tau = n >= 1 runs n
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


# relative eigenvalue cutoff of every pseudo-inverse in a solve
PINV_TOL = 1e-12


def _tol_abs(B: np.ndarray) -> np.ndarray:
    # Cheap O(d^2) scale proxy, per (d, d) slice: ||B||_F^2 / d lies within
    # a factor d of the squared spectral norm.
    return PINV_TOL * (B * B).sum(axis=(-2, -1)) / B.shape[-1]


def sketch_project_step(
    B: np.ndarray,
    g: np.ndarray,
    dx: np.ndarray,
    S: np.ndarray,
    tol: float = 0.0,
) -> np.ndarray:
    """One sketch-and-project step on B dx = -g (B symmetric).

    ``tol`` is the absolute eigenvalue cutoff for (S^T B^2 S)^+; a
    degenerate sketch (all eigenvalues below the cutoff) leaves dx
    unchanged.
    """
    BS = B @ S
    r = S.T @ (B @ dx + g)
    if S.shape[1] == 1:
        den = float(BS[:, 0] @ BS[:, 0])
        if den <= tol:
            return dx
        return dx - (float(r[0]) / den) * BS[:, 0]
    M = BS.T @ BS
    evals, evecs = np.linalg.eigh(M)
    keep = evals > max(tol, 0.0)
    if not np.any(keep):
        return dx
    coeff = evecs[:, keep] @ ((evecs[:, keep].T @ r) / evals[keep])
    return dx - BS @ coeff


def _projector_factor(B: np.ndarray, S: np.ndarray,
                      tol: float = 0.0) -> np.ndarray:
    """A factor W, shaped like S, with W W^T = B S (S^T B^2 S)^+ S^T B.

    S is (..., d, q).  B S is formed for the whole stack by one matmul, the
    sketches' rows times B^T.  For q = 1 a slice whose denominator S^T B^2 S
    is <= tol gives W = 0; for q > 1 eigenvalues of S^T B^2 S that are
    <= max(tol, 0) are dropped, so W = B S V diag(evals)^{-1/2} over the
    kept eigenvectors V.
    """
    d, q = S.shape[-2:]
    rows = S.swapaxes(-1, -2)
    BS = (rows.reshape(-1, d) @ B.T).reshape(rows.shape).swapaxes(-1, -2)
    if q == 1:
        den = np.einsum("...iq,...iq->...", BS, BS)[..., None, None]
        ok = den > tol
        return np.where(ok, BS / np.sqrt(np.where(ok, den, 1.0)), 0.0)
    evals, evecs = np.linalg.eigh(BS.swapaxes(-1, -2) @ BS)
    keep = (evals > max(tol, 0.0))[..., None, :]
    vecs = evecs / np.sqrt(np.where(keep, evals[..., None, :], 1.0))
    return BS @ np.where(keep, vecs, 0.0)


def exact_newton_solve(B: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve B dx = -g for symmetric positive definite B.

    The Cholesky factorization acts as the positive-definiteness gate;
    np.linalg.LinAlgError from a non-PD matrix propagates to the caller.
    """
    np.linalg.cholesky(B)
    return np.linalg.solve(B, -g)


def pinv_newton_solve(B: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares Newton directions -B^+ g.

    B is one symmetric (d, d) matrix with g of shape (d,), or a stack
    (..., d, d) with g (..., d), solved slice by slice.  Eigenvalues of a
    slice below PINV_TOL * ||B||_F^2 / d are dropped.  This is the
    well-posed extension of the exact solve to the singular Hessian
    averages of the first few iterations (a mean of fewer than d rank-1
    samples has rank < d by construction).
    """
    evals, evecs = np.linalg.eigh(B)
    keep = evals > _tol_abs(B)[..., None]
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    proj = np.einsum("...dk,...d->...k", evecs, g)
    return -np.einsum("...dk,...k->...d", evecs, inv * proj)


def solve_newton_sketched(
    B: np.ndarray,
    g: np.ndarray,
    cfg: SketchSolveConfig,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Newton direction for B dx = -g, exact or via tau sketch steps.

    Sketch draws are batched per solve: uniform_coordinate consumes tau
    integers in one call, gaussian consumes one (tau, d, q) normal block.
    The coordinate sweep forms B*B once for both the row energies and the
    skip tolerance, and its first non-degenerate step starts from
    dx = -(g_i / den) B_i, the projection of dx = 0.
    """
    d = B.shape[0]
    if cfg.is_exact:
        return exact_newton_solve(B, g)
    if rng is None:
        raise ValueError("sketched solves need a generator")
    tau = cfg.tau
    if cfg.dist.kind == "uniform_coordinate":
        BB = B * B
        coldens = BB.sum(axis=0)
        tol = PINV_TOL * BB.sum() / d
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
    tol = _tol_abs(B)
    dx = np.zeros(d)
    for s in rng.standard_normal((tau, d, cfg.dist.q)):
        dx = sketch_project_step(B, g, dx, s, tol)
    return dx
