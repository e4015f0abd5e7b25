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

B* and Omega* come from one helper for omega_star and oracle_covariance:
closed forms for linear models, seeded Monte Carlo for logistic ones.
Uniform-coordinate sketching admits closed forms for every expectation; the
Gaussian sketch falls back to Monte Carlo with reported standard errors.
That Monte Carlo is vectorised: samples are drawn in blocks, each block's
sketches are read from the generator in the order one-at-a-time draws would
read them, and the sum and the centred sum of squares of the per-sample
statistics are accumulated per block.  No projector stack is formed: each projector enters
as its rank-q factor W (Pi = W W^T), so E[Pi] sums W W^T and the tau-step
product I - Ctilde is built by rank-q updates of one (d, d) matrix per
sample.

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


def _mc_hessian_moments(model: RegressionModel, n_mc: int,
                        rng: np.random.Generator, chunk: int = 100_000):
    """MC means and stderr of the Hessian and gradient outer products."""
    d = model.dim
    sum_h = np.zeros((d, d))
    sum_h2 = np.zeros((d, d))
    sum_m = np.zeros((d, d))
    sum_m2 = np.zeros((d, d))
    done = 0
    while done < n_mc:
        n = min(chunk, n_mc - done)
        z = rng.standard_normal((n, d))
        xi = z @ model.chol_a.T
        zz = xi @ model.x_star
        p = sigmoid(zz)
        w_h = p * (1.0 - p)
        # Hessian samples are w_h xi xi^T regardless of the drawn label
        h = np.einsum("n,ni,nj->ij", w_h, xi, xi)
        h2 = np.einsum("n,ni,nj->ij", w_h**2, xi**2, xi**2)
        # gradient samples need the label: g = -y sigmoid(-y z) xi
        y = np.where(rng.random(n) < p, 1.0, -1.0)
        w_m = sigmoid(-y * zz)**2
        m = np.einsum("n,ni,nj->ij", w_m, xi, xi)
        m2 = np.einsum("n,ni,nj->ij", w_m**2, xi**2, xi**2)
        sum_h += h
        sum_h2 += h2
        sum_m += m
        sum_m2 += m2
        done += n
    mean_h = sum_h / n_mc
    mean_m = sum_m / n_mc
    se_h = np.sqrt(np.maximum(sum_h2 / n_mc - mean_h**2, 0.0) / n_mc)
    se_m = np.sqrt(np.maximum(sum_m2 / n_mc - mean_m**2, 0.0) / n_mc)
    return mean_h, se_h, mean_m, se_m


def _sandwich(model: RegressionModel, n_mc: int, rng: np.random.Generator):
    """(B*, Omega*, MC stderr) at x*, Omega* = (B*)^{-1} E[g g^T] (B*)^{-1}.

    Linear models have the closed forms B* = Sigma_a and E[g g^T] =
    sigma^2 Sigma_a, so Omega* = sigma^2 Sigma_a^{-1} with no stderr.
    Logistic ones average n_mc samples of both moments, report their
    stderr under "b_star" and "grad_outer" (for E[g g^T]), and solve with
    the symmetrised B*.
    """
    if model.family == "linear":
        return (model.sigma_a.copy(),
                model.sigma**2 * np.linalg.inv(model.sigma_a), {})
    mean_h, se_h, mean_m, se_m = _mc_hessian_moments(model, n_mc, rng)
    b = 0.5 * (mean_h + mean_h.T)
    omega = np.linalg.solve(b, np.linalg.solve(b, mean_m).T)
    return (b, 0.5 * (omega + omega.T),
            {"b_star": se_h, "grad_outer": se_m})


def omega_star(
    model: RegressionModel,
    n_mc: int = 1_000_000,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sandwich covariance (B*)^{-1} E[g g^T] (B*)^{-1} at x*."""
    rng = np.random.default_rng(0) if rng is None else rng
    omega = _sandwich(model, n_mc, rng)[1]
    _require_finite(model, {"Omega*": omega})
    return omega


def single_step_projection_expectation(
    B: np.ndarray,
    dist: SketchDistribution,
    n_mc: int = 200_000,
    rng: Optional[np.random.Generator] = None,
    *,
    chunk: Optional[int] = None,
):
    """(P, stderr) with P = E[Pi], Pi = B S (S^T B^2 S)^+ S^T B.

    Uniform-coordinate sketches give the closed form
    P = (1/d) sum_i B e_i e_i^T B / (B^2)_{ii}; the Gaussian sketch is
    averaged by Monte Carlo over n_mc sketches, drawn in blocks of
    ``chunk`` samples (default: 2^17 / d^2) as projector factors W, and
    E[Pi] is the mean of W W^T.
    """
    d = B.shape[0]
    if dist.kind == "uniform_coordinate":
        coldens = (B * B).sum(axis=0)
        if np.any(coldens <= 0.0):
            raise ValueError("B has a zero column; projection undefined")
        P = (B / coldens) @ B / d
        return 0.5 * (P + P.T), None
    rng = np.random.default_rng(0) if rng is None else rng
    return _gaussian_mc(B, dist, 1, lambda w: w[:, 0] @ w[:, 0].swapaxes(1, 2),
                        n_mc, rng, chunk)


def _uc_projectors(B: np.ndarray) -> np.ndarray:
    d = B.shape[0]
    coldens = (B * B).sum(axis=0)
    if np.any(coldens <= 0.0):
        raise ValueError("B has a zero column; projection undefined")
    cols = B.T  # row i is B[:, i] for symmetric B
    return cols[:, :, None] * cols[:, None, :] / coldens[:, None, None]


def spread_operator_uc(B: np.ndarray, M: np.ndarray) -> np.ndarray:
    """T(M) = E[(I - Pi) M (I - Pi)^T] for uniform-coordinate sketches."""
    d = B.shape[0]
    projs = _uc_projectors(B)
    eye = np.eye(d)
    out = np.zeros((d, d))
    for i in range(d):
        r = eye - projs[i]
        out += r @ M @ r
    return out / d


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
    """(Lambda, stderr) with Lambda = E[(I - Ctilde) Omega (I - Ctilde)^T].

    Expanding the product, Lambda = Omega - C* Omega - Omega C*^T + Q_tau
    with Q_tau the tau-fold spread operator applied to Omega; independence
    of the per-step sketches makes Q_tau = T^tau(Omega).  This is evaluated
    exactly for uniform-coordinate sketches and by sequence-level Monte
    Carlo for Gaussian sketches: n_mc sequences of tau sketches, drawn in
    blocks of ``chunk`` sequences (default: 2^17 / (tau d^2)) as projector
    factors W_j.  Each sequence builds I - Ctilde by tau rank-q updates,
    and the block multiplies its (I - Ctilde) stack by Omega in one gemm.
    """
    d = B.shape[0]
    if tau is None:
        return omega.copy(), None
    if dist.kind == "uniform_coordinate":
        P, _ = single_step_projection_expectation(B, dist)
        C = c_star(P, tau)
        q = omega.copy()
        for _ in range(tau):
            q = spread_operator_uc(B, q)
        lam = omega - C @ omega - omega @ C.T + q
        return 0.5 * (lam + lam.T), None
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
    """Ground-truth matrices for one problem/method configuration."""

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

    Raises ConfigError when B*, Omega*, Lambda or Xi* is not finite, or
    when I - C* of an ill-conditioned design has no eigenvalue margin.
    """
    rng = np.random.default_rng(seed)
    b, omega, stderr = _sandwich(model, max(n_mc, 200_000), rng)
    if tau is None:
        C = np.zeros_like(b)
        lam, se_lam = omega.copy(), None
    else:
        P, se_p = single_step_projection_expectation(b, dist, n_mc=n_mc, rng=rng)
        if se_p is not None:
            stderr["projection"] = se_p
        C = c_star(P, tau)
        lam, se_lam = lambda_matrix(b, omega, dist, tau, n_mc=n_mc, rng=rng)
        if se_lam is not None:
            stderr["lambda"] = se_lam
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
