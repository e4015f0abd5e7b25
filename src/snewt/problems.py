"""Stochastic optimization test problems.

Streaming linear / logistic regression with Gaussian features, plus the
structured Gaussian noise with which the constrained problems (see sqp)
observe their exact gradients and Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

__all__ = [
    "DesignCovSpec",
    "RegressionModel",
    "Sample",
    "default_x_star",
    "materialize_design",
    "draw_sample",
    "sample_loss",
    "sample_grad",
    "sample_hess",
    "grad_noise_factor",
    "symmetric_noise",
]


class Sample(NamedTuple):
    """One streaming observation: feature vector and response."""

    xi_a: np.ndarray
    xi_b: float


@dataclass(frozen=True)
class DesignCovSpec:
    """Feature covariance family: identity, Toeplitz(r) or equi-correlation(r).

    Toeplitz has entries r**|i-j|; equi-correlation has unit diagonal and r
    everywhere off the diagonal.
    """

    kind: str = "identity"
    r: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "toeplitz", "equicorr"):
            raise ValueError(f"unknown design kind {self.kind!r}")


def materialize_design(spec: DesignCovSpec, d: int) -> np.ndarray:
    """Build the d x d feature covariance for ``spec``.

    Raises ValueError when the parameters do not give a positive definite
    matrix (|r| < 1 for Toeplitz, -1/(d-1) < r < 1 for equi-correlation).
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if spec.kind == "identity":
        return np.eye(d)
    if spec.kind == "toeplitz":
        if not -1.0 < spec.r < 1.0:
            raise ValueError("toeplitz design requires |r| < 1")
        idx = np.arange(d)
        return spec.r ** np.abs(idx[:, None] - idx[None, :])
    # equicorr
    if d > 1 and not -1.0 / (d - 1) < spec.r < 1.0:
        raise ValueError("equicorr design requires -1/(d-1) < r < 1")
    sigma = np.full((d, d), spec.r)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def default_x_star(d: int) -> np.ndarray:
    """Default ground-truth parameter: every entry 1/d."""
    return np.full(d, 1.0 / d)


def _sigmoid(z: float) -> float:
    # Piecewise form never exponentiates a positive argument, so it is
    # overflow-safe for any |z|.
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


@dataclass
class RegressionModel:
    """Streaming regression model with Gaussian features.

    family "linear":   xi_b = xi_a @ x_star + eps,  eps ~ N(0, sigma^2),
                       loss(x; s) = 0.5 (xi_b - xi_a @ x)^2.
    family "logistic": xi_b in {-1, +1} with P(xi_b = 1 | xi_a) equal to the
                       sigmoid of xi_a @ x_star,
                       loss(x; s) = log(1 + exp(-xi_b * xi_a @ x)).

    Features are xi_a ~ N(0, Sigma_a) with Sigma_a given by ``design``.
    """

    family: str
    x_star: np.ndarray
    design: DesignCovSpec = DesignCovSpec()
    sigma: float = 1.0
    sigma_a: np.ndarray = field(init=False, repr=False)
    chol_a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in ("linear", "logistic"):
            raise ValueError(f"unknown regression family {self.family!r}")
        if self.family == "linear" and self.sigma < 0.0:
            raise ValueError("linear regression needs sigma >= 0")
        self.x_star = np.asarray(self.x_star, dtype=float)
        if self.x_star.ndim != 1:
            raise ValueError("x_star must be a vector")
        self.sigma_a = materialize_design(self.design, self.dim)
        self.chol_a = np.linalg.cholesky(self.sigma_a)

    @property
    def dim(self) -> int:
        return self.x_star.shape[0]

    # thin method aliases so the model satisfies the optimizer's
    # problem protocol (draw_sample / grad / hess / dim)
    def draw(self, rng: np.random.Generator) -> Sample:
        return draw_sample(self, rng)

    def grad(self, x: np.ndarray, s: Sample) -> np.ndarray:
        return sample_grad(self, x, s)

    def hess(self, x: np.ndarray, s: Sample) -> np.ndarray:
        return sample_hess(self, x, s)


def draw_sample(model: RegressionModel, rng: np.random.Generator) -> Sample:
    """Draw one (xi_a, xi_b) observation.

    Consumes the generator in a fixed order: d standard normals for the
    features, then one standard normal (linear) or one uniform (logistic)
    for the response.
    """
    z = rng.standard_normal(model.dim)
    xi_a = model.chol_a @ z
    if model.family == "linear":
        eps = rng.standard_normal()
        return Sample(xi_a, float(xi_a @ model.x_star) + model.sigma * eps)
    p = _sigmoid(float(xi_a @ model.x_star))
    xi_b = 1.0 if rng.random() < p else -1.0
    return Sample(xi_a, xi_b)


def sample_loss(model: RegressionModel, x: np.ndarray, s: Sample) -> float:
    if model.family == "linear":
        res = s.xi_b - s.xi_a @ x
        return 0.5 * float(res * res)
    # log(1 + exp(-y z)) computed without overflow
    return float(np.logaddexp(0.0, -s.xi_b * (s.xi_a @ x)))


def sample_grad(model: RegressionModel, x: np.ndarray, s: Sample) -> np.ndarray:
    if model.family == "linear":
        return -(s.xi_b - s.xi_a @ x) * s.xi_a
    # -y / (1 + exp(y z)) == -y * sigmoid(-y z), evaluated overflow-safe
    return (-s.xi_b * _sigmoid(-s.xi_b * float(s.xi_a @ x))) * s.xi_a


def sample_hess(model: RegressionModel, x: np.ndarray, s: Sample) -> np.ndarray:
    """Per-sample Hessian; for linear regression it does not depend on x."""
    if model.family == "linear":
        return np.outer(s.xi_a, s.xi_a)
    p = _sigmoid(float(s.xi_a @ x))
    return (p * (1.0 - p)) * np.outer(s.xi_a, s.xi_a)


def grad_noise_factor(d: int, sigma2: float) -> np.ndarray:
    """Symmetric factor L with L @ L.T = sigma2 * (I + 1 1^T).

    Closed form: L = sigma * (I + c * 1 1^T) with c = (sqrt(d+1) - 1) / d.
    """
    c = (np.sqrt(d + 1.0) - 1.0) / d
    return np.sqrt(sigma2) * (np.eye(d) + c * np.ones((d, d)))


def symmetric_noise(z: np.ndarray, d: int, sigma2: float) -> np.ndarray:
    """Symmetric (..., d, d) noise from (..., d(d+1)/2) standard normals.

    The normals, scaled by sqrt(sigma2), fill the upper triangle row-major
    and are mirrored below, so the upper triangle is i.i.d. N(0, sigma2).
    The + 0.0 keeps every zero positive: with sigma2 = 0 a negative normal
    would otherwise leave a -0.0.
    """
    iu, ju = _upper_triangle(d)
    e = np.empty(z.shape[:-1] + (d, d))
    e[..., iu, ju] = e[..., ju, iu] = np.sqrt(sigma2) * z + 0.0
    return e


@lru_cache(maxsize=None)
def _upper_triangle(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, cols) of the upper triangle of a d x d matrix.

    Cached and shared by every caller, hence read-only.
    """
    iu, ju = np.triu_indices(d)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju
