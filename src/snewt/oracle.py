"""Ground-truth limiting covariance of the sketched Newton iterates.

For a population Hessian B* and gradient-noise sandwich
Omega* = (B*)^{-1} E[g g^T] (B*)^{-1}, the scaled iterates
(x_t - x*) / sqrt(alpha_t) converge to N(0, Xi*), where Xi* solves the
Lyapunov equation

    ((1 - delta/2) I - C*) Xi* + Xi* ((1 - delta/2) I - C*)^T = Lambda,

with delta = 1/c_beta when beta == 1 and 0 otherwise,
C* = E[I - Pi]^tau the expected residual operator of tau inner sketch
steps, and Lambda = E[(I - Ctilde) Omega* (I - Ctilde)^T] over the random
tau-step residual product Ctilde.  Because I - C* is symmetric positive
definite the solution is explicit: with I - C* = U diag(s) U^T,

    Xi* = U (Theta o (U^T Lambda U)) U^T,   Theta_kl = 1 / (s_k + s_l - delta).

Exact inner solves are the degenerate case C* = 0, Lambda = Omega*, giving
Xi* = Omega* / (2 - delta).

B* and Omega* come from one helper: closed forms for linear models, 1-D
quadrature for logistic ones.  A sketch supplies (E[Pi], T) with
T(M) = E[(I - Pi) M (I - Pi)^T], from which C* and Lambda follow: closed
forms for uniform-coordinate sketches, 1-D quadrature for q = 1 Gaussian
ones.  q >= 2 Gaussian sketches use Monte Carlo with standard errors,
vectorised: samples are drawn in blocks, each block's sketches are read
from the generator in the order one-at-a-time draws would read them, and
the sum and the centred sum of squares of the per-sample statistics are
accumulated per block.  Each projector enters as its rank-q factor W
(Pi = W W^T): E[Pi] sums W W^T, and the tau-step product I - Ctilde is
built by rank-q updates of one (d, d) matrix per sample.

rel_cov_error and rel_var_error, the errors the study harness reports
against this ground truth, take one estimate or a (..., d, d) stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .config import ConfigError
from .problems import RegressionModel, sigmoid
from .sketch import SketchDistribution, _projector_factor

__all__ = [
    "OracleCovariance",
    "omega_star",
    "single_step_projection_expectation",
    "spread_operator_uc",
    "c_star",
    "lambda_matrix",
    "xi_star",
    "oracle_covariance",
    "rel_cov_error",
    "rel_var_error",
]


def _delta(beta: float, c_beta: float) -> float:
    return 1.0 / c_beta if beta == 1.0 else 0.0


def _require_finite(model: RegressionModel,
                    mats: Dict[str, np.ndarray]) -> None:
    """ConfigError naming the model's scale at the first non-finite matrix.

    A linear model's ground truth scales with sigma^2, which can overflow.
    """
    for name, mat in mats.items():
        if not np.isfinite(mat).all():
            key = (f"sigma = {model.sigma:g}" if model.family == "linear"
                   else "x_star")
            raise ConfigError(f"[problem] {key}: the ground truth {name} is "
                              "not finite; use a smaller scale")


# Gaussian-sketch Monte Carlo draws blocks of samples whose `steps` (d, d)
# projectors would hold about this many entries (1 MB of float64): large
# enough that per-block Python overhead is negligible, small next to the
# memory of a study.  Only their (d, q) factors are formed.
_MC_BLOCK_ENTRIES = 1 << 17


def _gaussian_mc(B: np.ndarray, dist: SketchDistribution, steps: int,
                 stat: Callable[[np.ndarray], np.ndarray], n_mc: int,
                 rng: np.random.Generator, chunk: Optional[int]):
    """MC mean and stderr of stat over samples of `steps` Gaussian sketches.

    Each sample is `steps` sketches S, each a (d, q) standard normal
    block.  A block of n samples reads the generator as one
    (n, steps, d, q) array, the same order as n * steps separate (d, q)
    draws.  Each projector Pi = B S (S^T B^2 S)^+ S^T B enters as its
    rank-q factor W (Pi = W W^T): stat maps the (n, steps, d, q) factor
    stack to the (n, d, d) per-sample statistics.  Their sum is accumulated
    per block, and so is their centred sum of squares: each block's is
    taken about the block mean and merged with the running one by the
    pairwise update of Chan, Golub & LeVeque, so a statistic that barely
    varies around a large mean keeps its stderr digits.  chunk is the
    number of samples per block (default: _MC_BLOCK_ENTRIES / (steps d^2)).
    """
    d = B.shape[0]
    per_block = chunk or max(1, _MC_BLOCK_ENTRIES // (steps * d * d))
    total = np.zeros((d, d))
    m2 = np.zeros((d, d))  # sum of squared deviations from the mean
    done = 0
    while done < n_mc:
        n = min(per_block, n_mc - done)
        z = rng.standard_normal((n, steps, d, dist.q))
        x = stat(_projector_factor(B, z))
        s = x.sum(axis=0)
        x -= s / n  # stat's output is a fresh array: centre it in place
        m2 += np.einsum("nij,nij->ij", x, x)
        if done:
            gap = s / n - total / done
            m2 += gap * gap * (done * n / (done + n))
        total += s
        done += n
    mean = total / n_mc
    se = np.sqrt(m2) / n_mc
    return 0.5 * (mean + mean.T), se


def _sandwich(model: RegressionModel):
    """(B*, Omega*) at x*, Omega* = (B*)^{-1} E[g g^T] (B*)^{-1}.

    Linear models: B* = Sigma_a, E[g g^T] = sigma^2 Sigma_a.  Logistic ones
    are well specified, so E[g g^T] = B* (information matrix equality).
    With w = sigma(z) sigma(-z), v = Sigma_a x*, s^2 = x*^T v, the margin
    z = a^T x* ~ N(0, s^2) is independent of a - z v / s^2, so
    B* = E[w] (Sigma_a - v v^T / s^2) + E[w z^2] v v^T / s^4, both means
    trapezoid sums of step min(0.05, s/8) over |z| <= min(10 s, 50) (all
    but 1e-17 of the mass); w is analytic in |Im z| < pi, so the rule's
    error is below roundoff.
    """
    sig = model.sigma_a
    if model.family == "linear":
        return sig.copy(), model.sigma**2 * np.linalg.inv(sig)
    v = sig @ model.x_star
    s2 = float(model.x_star @ v)
    if s2 == 0.0:
        b = 0.25 * sig
    else:
        s = np.sqrt(s2)
        h = min(0.05, s / 8.0)
        n = int(min(10.0 * s, 50.0) / h)
        z = h * np.arange(-n, n + 1)
        w = (sigmoid(z) * sigmoid(-z) * np.exp(-0.5 * (z / s) ** 2)
             * (h / (s * np.sqrt(2.0 * np.pi))))
        vv = np.outer(v, v) / s2
        b = w.sum() * (sig - vv) + (w @ (z * z) / s2) * vv
    omega = np.linalg.inv(b)
    return b, 0.5 * (omega + omega.T)


def omega_star(model: RegressionModel) -> np.ndarray:
    """Sandwich covariance (B*)^{-1} E[g g^T] (B*)^{-1} at x*."""
    omega = _sandwich(model)[1]
    _require_finite(model, {"Omega*": omega})
    return omega


def _col_energies(B: np.ndarray) -> np.ndarray:
    coldens = (B * B).sum(axis=0)
    if np.any(coldens <= 0.0):
        raise ValueError("B has a zero column; projection undefined")
    return coldens


def spread_operator_uc(B: np.ndarray, M: np.ndarray) -> np.ndarray:
    """T(M) = E[(I - Pi) M (I - Pi)^T] for uniform-coordinate sketches."""
    d = B.shape[0]
    coldens = _col_energies(B)
    eye = np.eye(d)
    out = np.zeros((d, d))
    for i in range(d):
        r = eye - np.outer(B[:, i], B[:, i]) / coldens[i]
        out += r @ M @ r
    return out / d


# Trapezoid step in t = log s for the q = 1 Gaussian integrals: they are
# analytic in |Im t| < pi, so the error falls like exp(-2 pi^2 / h), with a
# constant that grows with d.  The every-other-node grid (h = 1/4) that
# estimates it agrees with the full grid to 1e-13 relative up to d = 200.
_QUAD_STEP = 0.125


def _gaussian_q1_step(B: np.ndarray, coarse: bool = False):
    """(E[Pi], T) of one Gaussian sketch with q = 1, by 1-D quadrature.

    Pi = u u^T / |u|^2 with u = B z.  In B's eigenbasis, with a_i = b_i^2,
    c_i(s) = 1 / (1 + 2 a_i s) and D(s) = prod_k c_k^{1/2}, the identities
    1/Q = int e^{-sQ} ds and 1/Q^2 = int s e^{-sQ} ds give (Magnus 1986)

        E[Pi] = diag(a_i int c_i D ds),
        E[Pi X Pi]_ij = delta_ij a_i int s D c_i sum_k a_k c_k X_kk ds
                        + 2 a_i a_j X_ij int s D c_i c_j ds

    for symmetric X: trapezoid sums in t = log s over [-40, 80 - log a_min]
    (a scaled to a_max = 1; Pi is scale-free), outside which the integrands
    hold below 1e-17 of their mass.  coarse keeps every other node.
    """
    b, V = np.linalg.eigh(B)
    a = b * b / (b * b).max()
    if a.min() <= 0.0:
        raise ValueError("B is singular; projection undefined")
    stride = 2 if coarse else 1
    t = -40.0 + _QUAD_STEP * np.arange(
        0, int((120.0 - np.log(a.min())) / _QUAD_STEP), stride)
    s = np.exp(t)
    x = 2.0 * np.outer(s, a)
    c = 1.0 / (1.0 + x)
    # ds = s dt, and D = exp(-sum_k log1p(2 a_k s) / 2)
    wD = stride * _QUAD_STEP * s * np.exp(-0.5 * np.log1p(x).sum(axis=1))
    p = a * (wD @ c)
    aGa = a[:, None] * ((c * (wD * s)[:, None]).T @ c) * a
    keep = 1.0 - p[:, None] - p + 2.0 * aGa

    def spread(M: np.ndarray) -> np.ndarray:
        Mv = V.T @ M @ V
        out = keep * Mv
        out[np.diag_indices_from(out)] += aGa @ np.diag(Mv)
        return V @ out @ V.T

    P = (V * p) @ V.T
    return 0.5 * (P + P.T), spread


def _without_sampling(stat, B: np.ndarray, dist: SketchDistribution):
    """(stat(P, T), error) from one step's E[Pi] and spread operator T.

    Closed forms for uniform-coordinate sketches (error None); quadrature
    for q = 1 Gaussian ones (error |full grid - every-other-node grid|).
    """
    if dist.kind == "gaussian":
        val = stat(*_gaussian_q1_step(B))
        return val, np.abs(val - stat(*_gaussian_q1_step(B, coarse=True)))
    P = (B / _col_energies(B)) @ B / B.shape[0]
    return stat(0.5 * (P + P.T), lambda M: spread_operator_uc(B, M)), None


def single_step_projection_expectation(
    B: np.ndarray,
    dist: SketchDistribution,
    n_mc: int = 200_000,
    rng: Optional[np.random.Generator] = None,
    *,
    chunk: Optional[int] = None,
):
    """(P, error) with P = E[Pi], Pi = B S (S^T B^2 S)^+ S^T B.

    Uniform-coordinate sketches give P = (1/d) sum_i B e_i e_i^T B / (B^2)_ii
    and error None; q = 1 Gaussian ones a quadrature and its error estimate.
    With q >= 2, P is the mean of W W^T over n_mc sketches, drawn in blocks
    of ``chunk`` samples (default: 2^17 / d^2) as projector factors W, and
    the error is its standard error.
    """
    if dist.q == 1:  # no Monte Carlo
        return _without_sampling(lambda P, T: P, B, dist)
    rng = np.random.default_rng(0) if rng is None else rng
    return _gaussian_mc(B, dist, 1, lambda w: w[:, 0] @ w[:, 0].swapaxes(1, 2),
                        n_mc, rng, chunk)


def c_star(P: np.ndarray, tau: Optional[int]) -> np.ndarray:
    """Expected tau-step residual operator (I - P)^tau; exact solves give 0."""
    d = P.shape[0]
    if tau is None:
        return np.zeros((d, d))
    if tau < 1:
        raise ValueError("tau must be >= 1 or None")
    return np.linalg.matrix_power(np.eye(d) - P, tau)


def lambda_matrix(
    B: np.ndarray,
    omega: np.ndarray,
    dist: SketchDistribution,
    tau: Optional[int],
    n_mc: int = 100_000,
    rng: Optional[np.random.Generator] = None,
    *,
    chunk: Optional[int] = None,
):
    """(Lambda, error) with Lambda = E[(I - Ctilde) Omega (I - Ctilde)^T].

    Expanding the product, Lambda = Omega - C* Omega - Omega C*^T + Q_tau
    with Q_tau the tau-fold spread operator applied to Omega; independence
    of the per-step sketches makes Q_tau = T^tau(Omega).  Uniform-coordinate
    and q = 1 Gaussian sketches evaluate this from (P, T), with errors as in
    single_step_projection_expectation.  With q >= 2 it is sequence-level
    Monte Carlo: n_mc sequences of tau sketches, drawn in blocks of ``chunk``
    sequences (default: 2^17 / (tau d^2)) as projector factors W_j.  Each
    sequence builds I - Ctilde by tau rank-q updates, and the block
    multiplies its (I - Ctilde) stack by Omega in one gemm.
    """
    d = B.shape[0]
    if tau is None:
        return omega.copy(), None
    if dist.q == 1:  # no Monte Carlo
        def from_step(P: np.ndarray, spread) -> np.ndarray:
            C = c_star(P, tau)
            q = omega.copy()
            for _ in range(tau):
                q = spread(q)
            lam = omega - C @ omega - omega @ C.T + q
            return 0.5 * (lam + lam.T)
        return _without_sampling(from_step, B, dist)
    rng = np.random.default_rng(0) if rng is None else rng

    def spread(w: np.ndarray) -> np.ndarray:
        # (I - Ctilde) Omega (I - Ctilde)^T with Ctilde = (I - Pi_tau)...
        # (I - Pi_1): half = I - Ctilde gains one rank-q update per step,
        # I - (I - Pi_j)(I - half) = half + W_j (W_j^T - W_j^T half)
        wt = w.swapaxes(-1, -2)
        half = w[:, 0] @ wt[:, 0]
        for j in range(1, tau):
            half += w[:, j] @ (wt[:, j] - wt[:, j] @ half)
        n = half.shape[0]
        half_omega = (half.reshape(n * d, d) @ omega).reshape(n, d, d)
        return half_omega @ half.swapaxes(1, 2)

    return _gaussian_mc(B, dist, tau, spread, n_mc, rng, chunk)


def xi_star(
    C: np.ndarray, lam: np.ndarray, beta: float, c_beta: float
) -> np.ndarray:
    """Solve the limiting Lyapunov equation for Xi*.

    The exact-solve degenerate case (C identically zero) short-circuits to
    Lambda / (2 - delta) so those identities hold with no roundoff.
    """
    delta = _delta(beta, c_beta)
    if 2.0 - delta <= 0.0:
        raise ValueError("beta = 1 requires c_beta > 1/2")
    if not np.any(C):
        return lam / (2.0 - delta)
    sym = 0.5 * (C + C.T)
    svals, U = np.linalg.eigh(np.eye(C.shape[0]) - sym)
    if svals.min() <= 0.5 * delta:
        raise ValueError("I - C* must have eigenvalues above delta/2")
    theta = 1.0 / (svals[:, None] + svals[None, :] - delta)
    out = U @ (theta * (U.T @ lam @ U)) @ U.T
    return 0.5 * (out + out.T)


@dataclass
class OracleCovariance:
    """Ground-truth matrices for one problem/method configuration.

    mc_stderr: a Gaussian sketch's entrywise errors of E[Pi] ("projection")
    and Lambda ("lambda"), Monte-Carlo stderrs (q >= 2) or quadrature's.
    """

    b_star: np.ndarray
    omega: np.ndarray
    c_star: np.ndarray
    lam: np.ndarray
    xi: np.ndarray
    beta: float
    c_beta: float
    mc_stderr: Dict[str, np.ndarray] = field(default_factory=dict)


# a matrix that overflows is named by _require_finite, so numpy's overflow
# and invalid-value warnings on the way there are silenced
@np.errstate(over="ignore", invalid="ignore")
def oracle_covariance(
    model: RegressionModel,
    dist: SketchDistribution,
    tau: Optional[int],
    beta: float,
    c_beta: float,
    n_mc: int = 200_000,
    seed: int = 0,
) -> OracleCovariance:
    """Assemble B*, Omega*, C*, Lambda and Xi* for a regression model.

    n_mc and seed serve Gaussian sketches with q >= 2 only.  Raises
    ConfigError when B*, Omega*, Lambda or Xi* is not finite, or when
    I - C* of an ill-conditioned design has no eigenvalue margin.
    """
    rng = np.random.default_rng(seed)
    b, omega = _sandwich(model)
    stderr = {}
    if tau is None:
        C, lam = np.zeros_like(b), omega.copy()
    else:
        P, stderr["projection"] = single_step_projection_expectation(
            b, dist, n_mc=n_mc, rng=rng)
        C = c_star(P, tau)
        lam, stderr["lambda"] = lambda_matrix(b, omega, dist, tau,
                                              n_mc=n_mc, rng=rng)
        stderr = {k: v for k, v in stderr.items() if v is not None}
    try:
        xi = xi_star(C, lam, beta, c_beta)
    except ValueError as exc:
        if 2.0 - _delta(beta, c_beta) <= 0.0:  # not the design's fault
            raise
        d = model.design
        raise ConfigError(f"[problem] design = {d.kind}, r = {d.r!r}: {exc}; "
                          "the design is too ill-conditioned") from exc
    _require_finite(model, {"B*": b, "Omega*": omega, "Lambda": lam,
                            "Xi*": xi})
    return OracleCovariance(
        b_star=b, omega=omega, c_star=C, lam=lam, xi=xi,
        beta=beta, c_beta=c_beta, mc_stderr=stderr,
    )


def rel_cov_error(est: np.ndarray, truth: np.ndarray):
    """Spectral-norm relative error ||est - truth|| / ||truth||.

    est is one (d, d) matrix or a (..., d, d) stack, giving a float or a
    (...) array; a slice with a non-finite entry gives NaN.
    """
    diff = est - truth
    fin = np.isfinite(diff).all(axis=(-2, -1))
    err = np.full(fin.shape, np.nan)
    # the SVD rejects non-finite input, so only finite slices enter it
    err[fin] = np.linalg.norm(diff[fin], ord=2, axis=(-2, -1))
    return (err / np.linalg.norm(truth, ord=2))[()]


def rel_var_error(
    est: np.ndarray, truth: np.ndarray, w: Optional[np.ndarray] = None
):
    """Signed relative error of the variance along w (default: all ones).

    (w est w - w truth w) / (w truth w) for one (d, d) estimate or each
    slice of a (..., d, d) stack.  A truth with no variance along w gives
    inf or NaN, as the division does.
    """
    if w is None:
        w = np.ones(truth.shape[0])
    tquad = float(w @ truth @ w)
    quad = np.einsum("...ij,i,j->...", est, w, w)
    return ((quad - tquad) / tquad)[()]
