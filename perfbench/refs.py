"""Reference computations the benchmark checks snewt's outputs against.

Everything here is written from the mathematics, with numpy only, and
imports nothing from snewt: straight enumeration where the program uses
closed forms, a Kronecker-product solve where it uses an eigenbasis, a
two-pass statistic where it uses a recursion, and an independently seeded,
vectorised Monte Carlo where it loops sample by sample.
"""

from __future__ import annotations

import itertools
import math
from typing import Tuple

import numpy as np


def equicorr(d: int, r: float) -> np.ndarray:
    """Unit-diagonal covariance with every off-diagonal entry r."""
    out = np.full((d, d), r)
    np.fill_diagonal(out, 1.0)
    return out


def lyapunov_solve(C: np.ndarray, lam: np.ndarray, delta: float) -> np.ndarray:
    """Xi with A Xi + Xi A^T = Lambda, A = (1 - delta/2) I - C (Kronecker solve)."""
    d = C.shape[0]
    A = (1.0 - 0.5 * delta) * np.eye(d) - C
    eye = np.eye(d)
    # row-major vec: vec(A X) = (A kron I) vec X, vec(X A^T) = (I kron A) vec X
    K = np.kron(A, eye) + np.kron(eye, A)
    return np.linalg.solve(K, lam.reshape(-1)).reshape(d, d)


def lyapunov_rel_residual(xi: np.ndarray, C: np.ndarray, lam: np.ndarray,
                          delta: float) -> float:
    """max |A Xi + Xi A^T - Lambda| / max |Lambda|."""
    A = (1.0 - 0.5 * delta) * np.eye(C.shape[0]) - C
    res = A @ xi + xi @ A.T - lam
    return float(np.abs(res).max() / np.abs(lam).max())


def coordinate_projectors(B: np.ndarray) -> np.ndarray:
    """Pi_i = B e_i e_i^T B / (e_i^T B^2 e_i) for every coordinate i."""
    d = B.shape[0]
    out = np.empty((d, d, d))
    for i in range(d):
        col = B @ np.eye(d)[:, i]
        out[i] = np.outer(col, col) / float(col @ col)
    return out


def xi_star_by_enumeration(B: np.ndarray, omega: np.ndarray, tau: int,
                           delta: float = 0.0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C*, Lambda, Xi*) for tau uniform-coordinate sketch steps.

    Averages over all d**tau equally likely coordinate sequences: the
    residual product Ct = (I - Pi_{i_tau}) ... (I - Pi_{i_1}) gives
    C* = E[Ct] and Lambda = E[(I - Ct) Omega (I - Ct)^T]; Xi* then solves
    the Lyapunov equation.
    """
    d = B.shape[0]
    eye = np.eye(d)
    resid = eye[None] - coordinate_projectors(B)
    C = np.zeros((d, d))
    lam = np.zeros((d, d))
    for seq in itertools.product(range(d), repeat=tau):
        ct = eye
        for i in seq:
            ct = resid[i] @ ct
        C += ct
        m = eye - ct
        lam += m @ omega @ m.T
    n = d ** tau
    C /= n
    lam /= n
    return C, lam, lyapunov_solve(C, lam, delta)


def weighted_cov_two_pass(xs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(1/t) sum_i w_i (x_i - xbar)(x_i - xbar)^T with xbar the plain mean."""
    dev = xs - xs.mean(axis=0)
    return (dev.T * weights) @ dev / xs.shape[0]


def eqqp_x_star(A: np.ndarray, b: np.ndarray, fixed: int,
                value: float) -> np.ndarray:
    """Minimiser of 0.5 x'Ax + b'x subject to x[fixed] = value.

    The constraint removes one coordinate; the rest solve the reduced
    unconstrained quadratic A_ff y = -(b_f + A_f,fixed * value).
    """
    d = A.shape[0]
    free = [i for i in range(d) if i != fixed]
    y = np.linalg.solve(A[np.ix_(free, free)], -(b[free] + A[free, fixed] * value))
    x = np.empty(d)
    x[fixed] = value
    x[free] = y
    return x


def gaussian_projection_mean(B: np.ndarray, q: int, n: int,
                             rng: np.random.Generator,
                             chunk: int = 50_000) -> Tuple[np.ndarray, np.ndarray]:
    """(E[Pi], stderr) for S with i.i.d. N(0, 1) entries, Pi = W (W'W)^-1 W', W = B S.

    Vectorised over chunks of samples; the stderr is per entry.
    """
    d = B.shape[0]
    total = np.zeros((d, d))
    total2 = np.zeros((d, d))
    done = 0
    while done < n:
        k = min(chunk, n - done)
        S = rng.standard_normal((k, d, q))
        W = np.einsum("ij,kjq->kiq", B, S)
        G = np.einsum("kiq,kip->kqp", W, W)
        coef = np.linalg.solve(G, np.transpose(W, (0, 2, 1)))  # (k, q, d)
        pi = np.einsum("kiq,kqj->kij", W, coef)
        total += pi.sum(axis=0)
        total2 += (pi * pi).sum(axis=0)
        done += k
    mean = total / n
    se = np.sqrt(np.maximum(total2 / n - mean ** 2, 0.0) / n)
    return mean, se


def projection_mean_from_c_star(c_star: np.ndarray, tau: int) -> np.ndarray:
    """Recover P from C* = (I - P)^tau (I - P symmetric PSD): P = I - C*^(1/tau)."""
    sym = 0.5 * (c_star + c_star.T)
    vals, vecs = np.linalg.eigh(sym)
    root = np.clip(vals, 0.0, None) ** (1.0 / tau)
    return np.eye(c_star.shape[0]) - (vecs * root) @ vecs.T


def binomial_band(p: float, n: int, k: float = 4.0) -> Tuple[float, float]:
    """p +- k binomial standard deviations for a proportion over n trials."""
    half = k * math.sqrt(p * (1.0 - p) / n)
    return p - half, p + half
