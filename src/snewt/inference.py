"""Confidence intervals and regions from online covariance estimates.

The normal and chi-square quantiles are computed from scratch: both CDFs
reduce to the regularized lower incomplete gamma function P(a, x), which is
evaluated by its power series for x < a+1 and by a modified-Lentz continued
fraction otherwise; quantiles are then found by monotone bisection.  No
statistics library is involved, so the inference layer has zero
dependencies beyond numpy scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "chi2_cdf",
    "chi2_quantile",
    "ConfidenceInterval",
    "ConfidenceRegion",
    "directional_ci",
    "confidence_region",
]

_EPS = 1e-16
_MAX_ITER = 500


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise ValueError("shape a must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        # power series around 0
        ap = a
        total = 1.0 / a
        delt = total
        for _ in range(_MAX_ITER):
            ap += 1.0
            delt *= x / ap
            total += delt
            if abs(delt) < abs(total) * _EPS:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    # continued fraction for Q(a, x), modified Lentz
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        dele = d * c
        h *= dele
        if abs(dele - 1.0) < _EPS:
            break
    q = math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    return 1.0 - q


def normal_cdf(z: float) -> float:
    """Standard normal CDF via P(1/2, z^2/2)."""
    p_half = _gamma_p(0.5, 0.5 * z * z) if z != 0.0 else 0.0
    return 0.5 + 0.5 * p_half if z >= 0.0 else 0.5 - 0.5 * p_half


def chi2_cdf(x: float, d: int) -> float:
    """Chi-square CDF with d degrees of freedom."""
    if d < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 0.0
    return _gamma_p(0.5 * d, 0.5 * x)


def _check_prob(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")


@lru_cache(maxsize=256)
def normal_quantile(p: float) -> float:
    """Standard normal quantile by monotone bisection (|error| < 1e-12)."""
    _check_prob(p)
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=256)
def chi2_quantile(p: float, d: int) -> float:
    """Chi-square quantile by monotone bisection."""
    _check_prob(p)
    if d < 1:
        raise ValueError("degrees of freedom must be >= 1")
    hi = d + 10.0 * math.sqrt(2.0 * d) + 10.0
    while chi2_cdf(hi, d) < p:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, d) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    half_width: float
    level: float
    clamped: bool = False  # the variance was negative and set to zero

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class ConfidenceRegion:
    """Ellipsoid { z : (z - center)^T shape_inv (z - center) / alpha <= threshold }."""

    center: np.ndarray
    shape_inv: np.ndarray
    alpha: float
    threshold: float
    level: float

    def contains(self, point: np.ndarray) -> bool:
        dz = np.asarray(point, dtype=float) - self.center
        return float(dz @ self.shape_inv @ dz) / self.alpha <= self.threshold


def directional_ci(
    x: np.ndarray,
    alpha: float,
    xi_hat: np.ndarray,
    w: np.ndarray,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Two-sided CI for w^T x_star:  w^T x +- z sqrt(alpha w^T Xi w).

    A numerically negative quadratic form is clamped to zero, and the
    interval says so in its ``clamped`` field.
    """
    _check_prob(level)
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    quad = float(w @ xi_hat @ w)
    clamped = quad < 0.0
    if clamped:
        quad = 0.0
    z = normal_quantile(0.5 + 0.5 * level)
    return ConfidenceInterval(
        center=float(w @ x),
        half_width=z * math.sqrt(alpha * quad),
        level=level,
        clamped=clamped,
    )


def confidence_region(
    x: np.ndarray,
    alpha: float,
    xi_inv: np.ndarray,
    level: float = 0.95,
) -> ConfidenceRegion:
    """Ellipsoidal confidence region from the inverse covariance estimate."""
    _check_prob(level)
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    d = x.shape[0]
    return ConfidenceRegion(
        center=np.asarray(x, dtype=float).copy(),
        shape_inv=np.asarray(xi_inv, dtype=float),
        alpha=alpha,
        threshold=chi2_quantile(level, d),
        level=level,
    )
