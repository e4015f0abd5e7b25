"""Online estimators of the limiting covariance of the iterates.

The weighted sample covariance (WSC) estimator maintains

    Xi_t = (1/t) sum_{i=1}^t (1/phi_{i-1}) (x_i - xbar_t)(x_i - xbar_t)^T

from O(d^2) running sums, where phi_i is the deterministic stepsize band
center of the step that produced x_{i+1}.  An update only adds to the sums
and an estimate divides them by t, with no trajectory storage.  An optional
tracker keeps the inverse of Xi_t up to date through a rank-3
Sherman-Morrison-Woodbury identity whose 3x3 inner system is inverted in
closed form, so after burn-in neither the update nor a confidence region
needs a factorization.
"""

from __future__ import annotations

import logging
import math
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
    """Running sums for the weighted sample covariance.

    State after t updates, with w_i = 1/phi_{i-1}:
        sum_wxx = sum w_i x_i x_i^T,   sum_wx = sum w_i x_i,
        sum_x   = sum x_i,             sum_w  = sum w_i.
    The means W, v, xbar and a are these sums divided by t.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be positive")
        self.d = d
        self.t = 0
        self.sum_wxx = np.zeros((d, d))
        self.sum_wx = np.zeros(d)
        self.sum_x = np.zeros(d)
        self.sum_w = 0.0

    def update(self, x: np.ndarray, phi: float) -> None:
        """Fold in iterate x with weight 1/phi (0 < phi < inf required)."""
        if not 0.0 < phi < math.inf:
            raise ValueError("phi must be positive and finite")
        w = 1.0 / phi
        xw = x * w
        self.sum_wxx += xw[:, None] * x
        self.sum_wx += xw
        self.sum_x += x
        self.sum_w += w
        self.t += 1

    W = property(lambda self: self.sum_wxx / max(self.t, 1))
    v = property(lambda self: self.sum_wx / max(self.t, 1))
    xbar = property(lambda self: self.sum_x / max(self.t, 1))
    a = property(lambda self: self.sum_w / max(self.t, 1))

    def estimate(self) -> np.ndarray:
        """Current Xi_t (symmetric PSD up to roundoff, symmetrized)."""
        if self.t == 0:
            raise InsufficientData("no iterates folded in yet")
        xb, v = self.xbar, self.v
        xi = self.W - np.outer(v, xb) - np.outer(xb, v) \
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


class WscInverseTracker:
    """Maintains inv(Xi_t) online alongside the WSC aggregates.

    Until ``burn_in`` iterates (default 10 d) have arrived the tracker only
    accumulates; at burn-in it inverts the estimate directly once, and from
    then on each update costs O(d^2) through the rank-3 SMW identity

        inv(Xi_{t+1}) = (t+1)/t (inv - Y (L^{-1} + R^T Y)^{-1} Y^T),
        Y = inv(Xi_t) R,
        R = [v_t - a_t xbar_t | xbar_t - xbar_{t+1} | x_{t+1} - xbar_{t+1}].

    The 3x3 inner system is inverted in closed form (adjugate over
    determinant) on Python floats, so after burn-in an update makes no
    factorization and no np.linalg call.  A zero or non-finite determinant
    triggers a logged direct re-inversion (count in ``n_fallbacks``).
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
        a = acc.sum_w / t
        # with dev = x_{t+1} - xbar_t, the last two columns of R are
        # -dev / (t+1) and t dev / (t+1)
        dev = x - acc.sum_x / t
        Rt = np.empty((3, acc.d))  # R^T, one row per column of R
        Rt[0] = (acc.sum_wx - a * acc.sum_x) / t
        np.multiply(dev, -1.0 / (t + 1.0), out=Rt[1])
        np.multiply(dev, t / (t + 1.0), out=Rt[2])
        Yt = Rt @ self.xi_inv  # Y^T, as xi_inv is exactly symmetric
        (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = (Yt @ Rt.T).tolist()
        # C = L^{-1} + R^T Y.  The update writes Xi_{t+1} = t/(t+1) (Xi_t +
        # R L R^T) with L = [[0, 1, 0], [1, a_t, 0], [0, 0, 1/(t phi_t)]],
        # whose exact block inverse has -a_t in the (1,1) slot:
        #     L^{-1} = [[-a_t, 1, 0], [1, 0, 0], [0, 0, t phi_t]].
        # A sign variant with +a_t in the (1,1) slot (which looks plausible
        # from rearranging the rank-2 part) is NOT the inverse and fails the
        # product-identity oracle; the tests pin this down.
        c00 -= a
        c01 += 1.0
        c10 += 1.0
        c22 += t * phi
        acc.update(x, phi)
        k00 = c11 * c22 - c12 * c21
        k01 = c12 * c20 - c10 * c22
        k02 = c10 * c21 - c11 * c20
        det = c00 * k00 + c01 * k01 + c02 * k02
        if det == 0.0 or not math.isfinite(det):
            self.n_fallbacks += 1
            logger.warning("singular 3x3 system at t=%d; re-inverting", acc.t)
            self.xi_inv = self._direct()
            return
        adj = np.array([[k00, c02 * c21 - c01 * c22, c01 * c12 - c02 * c11],
                        [k01, c00 * c22 - c02 * c20, c02 * c10 - c00 * c12],
                        [k02, c01 * c20 - c00 * c21, c00 * c11 - c01 * c10]])
        inv_new = self.xi_inv - (Yt.T @ (adj @ Yt)) / det
        inv_new += inv_new.T
        inv_new *= 0.5 * (t + 1.0) / t
        self.xi_inv = inv_new


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
