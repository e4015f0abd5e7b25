"""Online estimators of the limiting covariance of the iterates.

The weighted sample covariance (WSC) estimator maintains

    Xi_t = (1/t) sum_{i=1}^t (1/phi_{i-1}) (x_i - xbar_t)(x_i - xbar_t)^T

from O(d^2) running sums, where phi_i is the deterministic stepsize band
center of the step that produced x_{i+1}.  An update only adds to the sums
and an estimate divides them by t, with no trajectory storage.  An optional
tracker keeps the inverse of Xi_t up to date through a rank-3
Sherman-Morrison-Woodbury identity whose 3x3 inner system is inverted in
closed form, so after burn-in neither the update nor a confidence region
needs a factorization.  The plug-in and batch-means baselines keep running
sums too.

Each estimator takes one replication, an iterate of shape (d,), or a stack
(..., d) such as the harness's (R, d) iterates; the first update fixes the
leading axes.  O(d^2) sums are folded once per sub-block of _SUB updates
with one stacked matrix product; the sub-block buffers are step-major, so
each update writes one contiguous (..., d) slot.  Sums of iterates are kept as deviations
from the first iterate, so the estimate formulas cancel no offset.
"""

from __future__ import annotations

import logging
import math
from typing import Optional

import numpy as np

from .oracle import xi_star

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

# Updates per sub-block.  Sub-blocks start at multiples of _SUB of the
# update count, so how a caller groups its steps changes no result.
_SUB = 32


class InsufficientData(RuntimeError):
    """An estimate was requested before the accumulator had enough data."""


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products a b^T over the leading axes."""
    return np.einsum("...i,...j->...ij", a, b)


class WscAccumulator:
    """Running sums for the weighted sample covariance.

    With w_i = 1/phi_{i-1} and y_i = x_i - x_1 the deviation of iterate i
    from the first one (``shift``), the state after t updates is
        sum_wx = sum w_i y_i,   sum_x = sum y_i,   sum_w = sum w_i,
    added to at every update (WscInverseTracker reads them per step), and
        sum_wxx = sum w_i y_i y_i^T,
    folded once per sub-block; an estimate adds the part-filled sub-block
    to a copy, so reading one changes no later estimate.  Xi_t does not
    depend on the shift.  The weight 1/phi is shared by a stack, so sum_w
    is a float.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be positive")
        self.d = d
        self.t = 0
        self.sum_w = 0.0

    def update(self, x: np.ndarray, phi: float) -> None:
        """Fold in iterate x with weight 1/phi (0 < phi < inf required)."""
        if not 0.0 < phi < math.inf:
            raise ValueError("phi must be positive and finite")
        w = 1.0 / phi
        k = self.t % _SUB
        if self.t == 0:
            self.shift = np.array(x, dtype=float)
            lead = self.shift.shape[:-1]
            self.sum_wxx = np.zeros(lead + (self.d, self.d))
            self.sum_wx = np.zeros(lead + (self.d,))
            self.sum_x = np.zeros(lead + (self.d,))
            self._y = np.empty((_SUB,) + lead + (self.d,))
            self._w = np.empty(_SUB)
        y = np.subtract(x, self.shift, out=self._y[k])
        self._w[k] = w
        self.sum_wx += w * y
        self.sum_x += y
        self.sum_w += w
        self.t += 1
        if k == _SUB - 1:
            self.sum_wxx = self._sum_wxx(_SUB)

    def _sum_wxx(self, n: int) -> np.ndarray:
        """sum_wxx plus the first n rows of the current sub-block."""
        Y = np.moveaxis(self._y[:n], 0, -2)
        YW = Y * self._w[:n, None]
        return self.sum_wxx + np.matmul(YW.swapaxes(-1, -2), Y)

    def estimate(self) -> np.ndarray:
        """Current Xi_t (symmetric PSD up to roundoff, symmetrized)."""
        if self.t == 0:
            raise InsufficientData("no iterates folded in yet")
        t = self.t
        v, yb = self.sum_wx / t, self.sum_x / t
        xi = (self._sum_wxx(t % _SUB) / t - _outer(v, yb) - _outer(yb, v)
              + (self.sum_w / t) * _outer(yb, yb))
        return 0.5 * (xi + xi.swapaxes(-1, -2))


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
        R = [v_t - a_t xbar_t | xbar_t - xbar_{t+1} | x_{t+1} - xbar_{t+1}],

    with v_t, a_t and xbar_t the means (1/t) sum w_i x_i, (1/t) sum w_i and
    (1/t) sum x_i.  It tracks one replication, an iterate of shape (d,).
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
        # -dev / (t+1) and t dev / (t+1).  R does not depend on the shift,
        # so dev is formed from the shifted iterate, like the sums.
        dev = (x - acc.shift) - acc.sum_x / t
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
    """Running sum sum_gg of gradient-sample outer products g_i g_i^T, for
    one replication (g of shape (d,)) or a stack (..., d), folded once per
    sub-block like WscAccumulator.sum_wxx; the average G is sum_gg plus the
    part-filled sub-block, divided by t."""

    def __init__(self, d: int):
        self.d = d
        self.t = 0

    def update(self, g: np.ndarray) -> None:
        k = self.t % _SUB
        if self.t == 0:
            lead = np.shape(g)[:-1]
            self.sum_gg = np.zeros(lead + (self.d, self.d))
            self._g = np.empty((_SUB,) + lead + (self.d,))
        self._g[k] = g
        self.t += 1
        if k == _SUB - 1:
            self.sum_gg = self._sum_gg(_SUB)

    def _sum_gg(self, n: int) -> np.ndarray:
        g = np.moveaxis(self._g[:n], 0, -2)
        return self.sum_gg + np.matmul(g.swapaxes(-1, -2), g)

    G = property(lambda self: self._sum_gg(self.t % _SUB) / self.t)


def plugin_estimate(
    acc: PlugInAccumulator, B: np.ndarray, beta: float, c_beta: float
) -> np.ndarray:
    """Sandwich estimator  scale * B^{-1} G B^{-1}, over the leading axes.

    That is oracle.xi_star at C = 0 on Omega = B^{-1} G B^{-1}: scale = 1 /
    (2 - 1/c_beta) when beta == 1, else 1/2; beta == 1 with c_beta <= 1/2 is
    rejected.  The sketch-induced inflation of the limiting covariance is
    deliberately ignored here, which is exactly what makes this a biased
    baseline under inexact (sketched) Newton directions.
    """
    if acc.t == 0:
        raise InsufficientData("no gradient samples folded in yet")
    X = np.linalg.solve(B, acc.G)
    omega = np.linalg.solve(B, X.swapaxes(-1, -2))
    est = xi_star(np.zeros(()), omega, beta, c_beta)
    return 0.5 * (est + est.swapaxes(-1, -2))


class BatchMeansAccumulator:
    """Non-overlapping increasing-batch spread estimator (baseline).

    Batch boundaries are a_m = floor(m**(2/(1-beta))); batch m collects
    iterates with indices in (a_{m-1}, a_m].  With at least two completed
    batches the estimate is

        sum_m n_m^2 (bbar_m - xbar)(bbar_m - xbar)^T / sum_m n_m,

    with bbar_m the batch means and xbar their n_m-weighted mean (Zhu, Chen
    & Wu, JASA 2023): a batch mean has covariance about Omega / n_m, so the
    n_m^2 weight makes each term estimate n_m Omega.  Takes one replication
    (d,) or a stack (..., d).  A batch is summed as deviations from the
    first iterate (``shift``); with s_m = n_m (bbar_m - shift) the estimate
    is (S2 - T1 xw^T - xw T1^T + N2 xw xw^T) / N, where S2 = sum s_m s_m^T,
    T1 = sum n_m s_m, xw = sum s_m / N, N = sum n_m and N2 = sum n_m^2.
    ``mean`` is the average of every iterate seen (the natural center for
    averaged-iterate confidence intervals).
    """

    def __init__(self, d: int, beta: float):
        if not 0.5 < beta < 1.0:
            raise ValueError("batch means need beta in (1/2, 1)")
        self.d = d
        self.beta = beta
        self.t = 0
        self._exponent = 2.0 / (1.0 - beta)
        self._m = 1
        self._next_boundary = self.boundary(1)
        self._batch_n = 0
        self._N = 0  # sum n_m
        self._N2 = 0  # sum n_m^2
        self.n_completed = 0

    def boundary(self, m: int) -> float:
        """a_m = floor(m**(2/(1-beta))), or inf (never reached) if the
        power overflows a float."""
        try:
            return int(np.floor(float(m) ** self._exponent))
        except OverflowError:
            return math.inf

    mean = property(
        lambda self: self.shift + (self._S1 + self._batch_sum) / self.t)

    def update(self, x: np.ndarray) -> None:
        if self.t == 0:
            self.shift = np.array(x, dtype=float)
            lead = self.shift.shape[:-1]
            self._batch_sum = np.zeros(lead + (self.d,))  # s of the open batch
            self._S2 = np.zeros(lead + (self.d, self.d))
            self._S1 = np.zeros(lead + (self.d,))  # sum s_m
            self._T1 = np.zeros(lead + (self.d,))
        self._batch_sum += x - self.shift
        self.t += 1
        self._batch_n += 1
        if self.t == self._next_boundary:
            n, s = self._batch_n, self._batch_sum
            self._S2 += _outer(s, s)
            self._S1 += s
            self._T1 += n * s
            self._N += n
            self._N2 += n * n
            self.n_completed += 1
            s.fill(0.0)
            self._batch_n = 0
            self._m += 1
            self._next_boundary = self.boundary(self._m)

    def estimate(self) -> np.ndarray:
        if self.n_completed < 2:
            raise InsufficientData("need at least two completed batches")
        xw = self._S1 / self._N
        cross = _outer(self._T1, xw)
        est = (self._S2 - cross - cross.swapaxes(-1, -2)
               + self._N2 * _outer(xw, xw)) / self._N
        return 0.5 * (est + est.swapaxes(-1, -2))
