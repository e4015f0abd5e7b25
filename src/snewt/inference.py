"""Confidence intervals and regions from online covariance estimates.

The normal and chi-square quantiles are computed from scratch.  The normal
CDF is math.erfc; every degree of freedom the program uses is an integer,
for which the chi-square upper tail is a finite sum (plus one erfc term
for odd d), and quantiles are found by monotone bisection.  No statistics
library is involved: the inference layer needs nothing beyond math and
numpy.  Intervals take stacks of iterates and covariance estimates, so the
study harness builds every replication's interval in one call.
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


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def chi2_cdf(x: float, d: int) -> float:
    """Chi-square CDF with an integer d >= 1 degrees of freedom.

    With h = x/2 and s = (d mod 2)/2, the upper tail Q(d/2, h) is
    [d odd] erfc(sqrt h) + sum_{j < floor(d/2)} h^(j+s) e^-h / Gamma(j+s+1).
    """
    if d < 1 or d != int(d):
        raise ValueError("degrees of freedom must be an integer >= 1")
    if x <= 0.0:
        return 0.0
    h, s = 0.5 * x, 0.5 * (d % 2)
    log_h = math.log(h)
    upper = math.fsum(math.exp((j + s) * log_h - h - math.lgamma(j + s + 1.0))
                      for j in range(d // 2))
    if d % 2:
        upper += math.erfc(math.sqrt(h))
    return 1.0 - upper


def _check_prob(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")


def _bisect(cdf, p: float, lo: float, hi: float) -> float:
    """The point where the monotone cdf crosses p in [lo, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=256)
def normal_quantile(p: float) -> float:
    """Standard normal quantile by monotone bisection (|error| < 1e-12)."""
    _check_prob(p)
    return _bisect(normal_cdf, p, -40.0, 40.0)


@lru_cache(maxsize=256)
def chi2_quantile(p: float, d: int) -> float:
    """Chi-square quantile by monotone bisection."""
    _check_prob(p)
    hi = 2.0 * d + 20.0  # chi2_cdf checks d
    while chi2_cdf(hi, d) < p:
        hi *= 2.0
    return _bisect(lambda x: chi2_cdf(x, d), p, 0.0, hi)


@dataclass(frozen=True)
class ConfidenceInterval:
    """center +- half_width; on a stack, each field is an array over its
    leading axes."""

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
        return (self.lo <= value) & (value <= self.hi)


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

    x is (..., d) and xi_hat (..., d, d); one (d, d) estimate serves a
    whole stack of iterates, and the leading axes broadcast.  On a stack
    the fields are arrays over the leading axes; one iterate with one
    estimate gives a float center and half width and a bool ``clamped``.
    A numerically negative quadratic form is clamped to zero, and the
    interval says so in ``clamped``; a NaN estimate gives a NaN half width
    (no interval), which is not clamped.
    """
    _check_prob(level)
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    quad = np.einsum("...ij,i,j->...", xi_hat, w, w)
    z = normal_quantile(0.5 + 0.5 * level)
    center, half, clamped = np.broadcast_arrays(
        x @ w, z * np.sqrt(alpha * np.maximum(quad, 0.0)), quad < 0.0)
    if center.ndim == 0:
        center, half, clamped = float(center), float(half), bool(clamped)
    return ConfidenceInterval(center=center, half_width=half, level=level,
                              clamped=clamped)


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
