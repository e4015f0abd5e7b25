"""Stochastic optimization test problems.

Streaming linear / logistic regression with Gaussian features, plus the
structured Gaussian noise with which the constrained problems (see sqp)
observe their exact gradients and Hessians.  Regression samples work on
stacks of replications, so optimizer.run and the harness share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "DesignCovSpec",
    "RegressionModel",
    "Sample",
    "default_x_star",
    "materialize_design",
    "sigmoid",
    "grad_noise_factor",
    "symmetric_noise",
]


class Sample(NamedTuple):
    """Streaming observations: features (..., d) and responses (...)."""

    xi_a: np.ndarray
    xi_b: np.ndarray


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


def sigmoid(a) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for any |a|.

    Only exp(-|a|) is evaluated, so no positive argument is exponentiated.
    """
    a = np.asarray(a, dtype=float)
    e = np.exp(-np.abs(a))
    return np.where(a >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class RegressionModel:
    """Streaming regression model with Gaussian features.

    family "linear":   xi_b = xi_a @ x_star + eps,  eps ~ N(0, sigma^2),
                       loss(x; s) = 0.5 (xi_b - xi_a @ x)^2.
    family "logistic": xi_b in {-1, +1} with P(xi_b = 1 | xi_a) equal to the
                       sigmoid of xi_a @ x_star,
                       loss(x; s) = log(1 + exp(-xi_b * xi_a @ x)).

    Features are xi_a ~ N(0, Sigma_a) with Sigma_a given by ``design``.
    sample, grad and hess work on arrays with any leading axes, so one
    definition serves one replication and a stack of them alike.
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

    @property
    def n_normals(self) -> int:
        """Standard normals per observation: d features, plus the response
        noise for a linear model (a logistic label takes a uniform)."""
        return self.dim + 1 if self.family == "linear" else self.dim

    def sample(self, z: np.ndarray, u: Optional[np.ndarray] = None) -> Sample:
        """Observations from given standard normals z (and uniforms u).

        Linear: z is (..., d + 1), d feature normals then the response
        noise.  Logistic: z is (..., d) feature normals and u (...) the
        uniforms that draw the labels.
        """
        d = self.dim
        # einsum rather than BLAS: a stack and its rows take the same
        # summation order, so stacked samples equal row-by-row ones exactly
        xi_a = np.einsum("ij,...j->...i", self.chol_a, z[..., :d])
        margin = np.einsum("...d,d->...", xi_a, self.x_star)
        if self.family == "linear":
            return Sample(xi_a, margin + self.sigma * z[..., d])
        return Sample(xi_a, np.where(u < sigmoid(margin), 1.0, -1.0))

    def draw(self, rng: np.random.Generator) -> Sample:
        """Draw one observation.

        Consumes the generator in a fixed order: n_normals standard
        normals, then one uniform for a logistic label.
        """
        z = rng.standard_normal(self.n_normals)
        if self.family == "linear":
            return self.sample(z)
        return self.sample(z, rng.random())

    def grad(self, x: np.ndarray, s: Sample) -> np.ndarray:
        """Per-sample loss gradients at x, shape (..., d)."""
        margin = np.einsum("...d,...d->...", s.xi_a, x)
        if self.family == "linear":
            coef = margin - s.xi_b
        else:
            # -y / (1 + exp(y z)) == -y * sigmoid(-y z), evaluated overflow-safe
            coef = -s.xi_b * sigmoid(-s.xi_b * margin)
        return coef[..., None] * s.xi_a

    def hess(self, x: np.ndarray, s: Sample) -> np.ndarray:
        """Per-sample Hessians, shape (..., d, d); linear ones ignore x."""
        h = np.einsum("...i,...j->...ij", s.xi_a, s.xi_a)
        if self.family == "logistic":
            p = sigmoid(np.einsum("...d,...d->...", s.xi_a, x))
            h *= (p * (1.0 - p))[..., None, None]
        return h


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
