"""Online estimators of the limiting covariance of the iterates.

The weighted sample covariance (WSC) estimator maintains

    Xi_t = (1/t) sum_{i=1}^t (1/phi_{i-1}) (x_i - xbar_t)(x_i - xbar_t)^T

from O(d^2) running aggregates, where phi_i is the deterministic stepsize
band center of the step that produced x_{i+1}.  Everything updates in O(d^2)
per iterate with no trajectory storage; an optional tracker keeps the
inverse of Xi_t up to date through a rank-3 Sherman-Morrison-Woodbury
identity so confidence regions never require a fresh factorization.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

__all__ = [
    "InsufficientData",
    "WscAccumulator",
    "WscSink",
    "WscInverseTracker",
    "PlugInAccumulator",
    "plugin_estimate",
    "BatchMeansAccumulator",
]

logger = logging.getLogger(__name__)


class InsufficientData(RuntimeError):
    """An estimate was requested before the accumulator had enough data."""


class WscAccumulator:
    """Running aggregates for the weighted sample covariance.

    State after t updates:
        W    = (1/t) sum (1/phi_{i-1}) x_i x_i^T
        v    = (1/t) sum (1/phi_{i-1}) x_i
        xbar = (1/t) sum x_i
        a    = (1/t) sum 1/phi_{i-1}
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be positive")
        self.d = d
        self.t = 0
        self.W = np.zeros((d, d))
        self.v = np.zeros(d)
        self.xbar = np.zeros(d)
        self.a = 0.0

    def update(self, x: np.ndarray, phi: float) -> None:
        """Fold in iterate x with weight 1/phi (phi > 0 required)."""
        if phi <= 0.0:
            raise ValueError("phi must be positive")
        t = self.t
        w = 1.0 / phi
        self.W *= t
        self.W += np.outer(x, x) * w
        self.W /= t + 1
        self.v *= t
        self.v += x * w
        self.v /= t + 1
        self.xbar *= t
        self.xbar += x
        self.xbar /= t + 1
        self.a = (t * self.a + w) / (t + 1)
        self.t = t + 1

    def estimate(self) -> np.ndarray:
        """Current Xi_t (symmetric PSD up to roundoff, symmetrized)."""
        if self.t == 0:
            raise InsufficientData("no iterates folded in yet")
        xb = self.xbar
        xi = self.W - np.outer(self.v, xb) - np.outer(xb, self.v) \
            + self.a * np.outer(xb, xb)
        return 0.5 * (xi + xi.T)


class WscSink:
    """Trace-sink adapter: feeds run() records into a WscAccumulator.

    The record (t, x_t, alpha_{t-1}) carries the realized stepsize, but the
    estimator weights by the deterministic band center phi_{t-1}, which the
    sink recomputes from the schedule.
    """

    def __init__(self, schedule, acc: WscAccumulator):
        self.schedule = schedule
        self.acc = acc

    def __call__(self, t: int, x: np.ndarray, alpha: float) -> None:
        self.acc.update(x, self.schedule.phi(t - 1))


# Inverse of the 3x3 middle factor of the rank-3 covariance update.  The
# update writes Xi_{t+1} = t/(t+1) (Xi_t + R L R^T) with
# L = [[0, 1, 0], [1, a_t, 0], [0, 0, 1/(t phi_t)]], whose exact block
# inverse has -a_t in the (1,1) slot:
#     L^{-1} = [[-a_t, 1, 0], [1, 0, 0], [0, 0, t phi_t]].
# A sign variant with +a_t in the (1,1) slot (which looks plausible from
# rearranging the rank-2 part) is NOT the inverse and fails the
# product-identity oracle; the tests pin this down.
def _middle_inverse(a: float, t: int, phi: float) -> np.ndarray:
    return np.array([
        [-a, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, t * phi],
    ])


class WscInverseTracker:
    """Maintains inv(Xi_t) online alongside the WSC aggregates.

    Until ``burn_in`` iterates (default 10 d) have arrived the tracker only
    accumulates; at burn-in it inverts the estimate directly once, and from
    then on each update costs O(d^2) through the rank-3 SMW identity

        inv(Xi_{t+1}) = (t+1)/t (inv - Y (L^{-1} + R^T Y)^{-1} Y^T),
        Y = inv(Xi_t) R,
        R = [v_t - a_t xbar_t | xbar_t - xbar_{t+1} | x_{t+1} - xbar_{t+1}].

    A singular inner 3x3 system triggers a logged direct re-inversion
    (count in ``n_fallbacks``).
    """

    def __init__(self, d: int, burn_in: Optional[int] = None):
        self.acc = WscAccumulator(d)
        self.burn_in = 10 * d if burn_in is None else burn_in
        if self.burn_in < d + 1:
            raise ValueError("burn_in must be at least d + 1")
        self.xi_inv: Optional[np.ndarray] = None
        self.n_fallbacks = 0

    @property
    def t(self) -> int:
        return self.acc.t

    def _direct(self) -> Optional[np.ndarray]:
        try:
            inv = np.linalg.inv(self.acc.estimate())
        except np.linalg.LinAlgError:
            return None
        return 0.5 * (inv + inv.T)

    def update(self, x: np.ndarray, phi: float) -> None:
        acc = self.acc
        if self.xi_inv is None:
            acc.update(x, phi)
            if acc.t >= self.burn_in:
                self.xi_inv = self._direct()
                if self.xi_inv is None:
                    logger.warning("singular estimate at burn-in; postponing")
            return
        t = acc.t
        xbar_new = (t * acc.xbar + x) / (t + 1)
        R = np.column_stack([
            acc.v - acc.a * acc.xbar,
            acc.xbar - xbar_new,
            x - xbar_new,
        ])
        M = _middle_inverse(acc.a, t, phi)
        Y = self.xi_inv @ R
        C = M + R.T @ Y
        acc.update(x, phi)
        try:
            correction = Y @ np.linalg.solve(C, Y.T)
        except np.linalg.LinAlgError:
            self.n_fallbacks += 1
            logger.warning("singular 3x3 system at t=%d; re-inverting", acc.t)
            self.xi_inv = self._direct()
            return
        inv_new = ((t + 1.0) / t) * (self.xi_inv - correction)
        self.xi_inv = 0.5 * (inv_new + inv_new.T)


class PlugInAccumulator:
    """Average of gradient-sample outer products, (1/t) sum g_i g_i^T."""

    def __init__(self, d: int):
        self.d = d
        self.t = 0
        self.G = np.zeros((d, d))

    def update(self, g: np.ndarray) -> None:
        t = self.t
        self.G *= t
        self.G += np.outer(g, g)
        self.G /= t + 1
        self.t = t + 1


def plugin_estimate(
    acc: PlugInAccumulator, B: np.ndarray, beta: float, c_beta: float
) -> np.ndarray:
    """Sandwich estimator  scale * B^{-1} G B^{-1}.

    scale = 1 / (2 - 1/c_beta) when beta == 1 and 1/2 otherwise; beta == 1
    with c_beta <= 1/2 makes the scale nonpositive and is rejected.  The
    sketch-induced inflation of the limiting covariance is deliberately
    ignored here, which is exactly what makes this a biased baseline under
    inexact (sketched) Newton directions.
    """
    if acc.t == 0:
        raise InsufficientData("no gradient samples folded in yet")
    denom = 2.0 - (1.0 / c_beta if beta == 1.0 else 0.0)
    if denom <= 0.0:
        raise ValueError("beta = 1 requires c_beta > 1/2")
    X = np.linalg.solve(B, acc.G)
    est = np.linalg.solve(B, X.T) / denom
    return 0.5 * (est + est.T)


class BatchMeansAccumulator:
    """Non-overlapping increasing-batch spread estimator (baseline).

    Batch boundaries are a_m = floor(m**(2/(1-beta))); batch m collects
    iterates with indices in (a_{m-1}, a_m].  With at least two completed
    batches the estimate is

        sum_m n_m^2 (bbar_m - xbar)(bbar_m - xbar)^T / sum_m n_m,

    with bbar_m the batch means and xbar their n_m-weighted mean (Zhu, Chen
    & Wu, JASA 2023): a batch mean has covariance about Omega / n_m, so the
    n_m^2 weight makes each term estimate n_m Omega.  ``mean``
    tracks the running average of every iterate seen (the natural center
    for averaged-iterate confidence intervals).
    """

    def __init__(self, d: int, beta: float):
        if not 0.5 < beta < 1.0:
            raise ValueError("batch means need beta in (1/2, 1)")
        self.d = d
        self.beta = beta
        self.t = 0
        self.mean = np.zeros(d)
        self._exponent = 2.0 / (1.0 - beta)
        self._m = 1
        self._next_boundary = self.boundary(1)
        self._batch_sum = np.zeros(d)
        self._batch_n = 0
        self._S2 = np.zeros((d, d))  # sum n_m^2 bbar_m bbar_m^T
        self._S1 = np.zeros(d)  # sum n_m bbar_m
        self._T1 = np.zeros(d)  # sum n_m^2 bbar_m
        self._N = 0  # sum n_m
        self._N2 = 0  # sum n_m^2
        self.n_completed = 0

    def boundary(self, m: int) -> int:
        """a_m = floor(m**(2/(1-beta)))."""
        return int(np.floor(float(m) ** self._exponent))

    def update(self, x: np.ndarray) -> None:
        t = self.t
        self.mean = (t * self.mean + x) / (t + 1)
        self.t = t + 1
        self._batch_sum += x
        self._batch_n += 1
        if self.t == self._next_boundary:
            n = self._batch_n
            bbar = self._batch_sum / n
            self._S2 += n * n * np.outer(bbar, bbar)
            self._S1 += n * bbar
            self._T1 += n * n * bbar
            self._N += n
            self._N2 += n * n
            self.n_completed += 1
            self._batch_sum = np.zeros(self.d)
            self._batch_n = 0
            self._m += 1
            self._next_boundary = self.boundary(self._m)

    def estimate(self) -> np.ndarray:
        if self.n_completed < 2:
            raise InsufficientData("need at least two completed batches")
        xw = self._S1 / self._N
        cross = np.outer(self._T1, xw)
        est = (self._S2 - cross - cross.T
               + self._N2 * np.outer(xw, xw)) / self._N
        return 0.5 * (est + est.T)
