"""Replication-batched Monte-Carlo experiment harness.

run_experiment advances every replication of a configured study at once:
iterates are stacked (n_reps, d) arrays, Hessian averages (n_reps, d, d),
and each replication owns three seeded generator streams (data / sketch /
stepsize, seeded base_seed XOR replication index) consumed in fixed-size
blocks.  Per-replication randomness therefore depends only on the base
seed and the replication index, and a fixed seed reproduces every output
byte for byte.  Each step is the library's own, applied to the whole
stack: optimizer.newton_step for regression studies, sqp.sqp_step for
constrained ones.  A replication that trips the divergence guard is
frozen, excluded from every aggregate from that point on, and counted.

At every record_every-th iteration the harness compares the running
covariance estimators against the ground-truth limiting covariance and
records confidence-interval hits; aggregates go to a per-checkpoint CSV
plus a final summary CSV (schemas documented in the README).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import (ExperimentConfig, ExperimentSection, MethodConfig,
                     ProblemConfig, ScheduleConfig)
from .inference import normal_quantile
from .optimizer import NewtonState, RngStreams, StepsizeSchedule, newton_step
from .oracle import omega_star, oracle_covariance
from .problems import RegressionModel, Sample, grad_noise_factor
from .sketch import SketchSolveConfig, pinv_newton_solve
from .sqp import EqConstrainedProblem, SqpState, sqp_step

__all__ = [
    "AGGREGATE_COLUMNS",
    "SUMMARY_COLUMNS",
    "ExperimentResult",
    "run_experiment",
    "write_aggregate_csv",
    "write_summary_csv",
    "sqp_empirical_xi",
]

AGGREGATE_COLUMNS = (
    "t",
    "rel_cov_err_wsc",
    "rel_cov_err_plugin",
    "rel_cov_err_bm",
    "cov_wsc",
    "cov_plugin",
    "cov_bm",
    "cov_oracle",
    "rel_var_err_wsc",
    "rel_var_err_plugin",
)

SUMMARY_COLUMNS = (
    "estimator",
    "final_t",
    "rel_cov_err",
    "rel_var_err",
    "coverage",
    "coverage_oracle",
    "n_reps",
    "n_diverged",
)

# Iterations of randomness drawn per generator call.  Fixed so that seeded
# runs are reproducible; block draws consume the underlying bit streams in
# the same element order as per-iteration draws, so for every data layout
# except the logistic label stream the block size does not even change the
# sampled values.
_CHUNK = 1024
# Steps per sub-block.  The regression engine forms a sub-block's samples
# in one call, and the batched wsc and plugin estimators buffer a
# sub-block's rows and fold them into their running sums at once.
# Sub-blocks start at multiples of _SUB of the absolute step, so the chunk
# size changes no result.
_SUB = 32
_DIVERGENCE_NORM = 1e8

_SUFFIX = {"wsc": "wsc", "plugin": "plugin", "batchmeans": "bm"}


# ---------------------------------------------------------------------------
# batched accumulators (stacked counterparts of the covariance module;
# equality with the sequential implementations is pinned by tests)


class _BatchedWsc:
    """Weighted sample covariance running sums for a stack of replications.

    The sums of covariance.WscAccumulator (sum_wxx, sum_wx, sum_x, sum_w),
    replication by replication.  An update only copies its row into the
    current sub-block; a complete sub-block is folded into the sums with
    two stacked matmuls.  An estimate adds a part-filled sub-block to
    copies of the sums, so reading one changes no later estimate.
    """

    def __init__(self, n: int, d: int):
        self.t = 0
        self.sum_wxx = np.zeros((n, d, d))
        self.sum_wx = np.zeros((n, d))
        self.sum_x = np.zeros((n, d))
        self.sum_w = 0.0
        self._x = np.empty((n, _SUB, d))
        # row 0 holds the weights 1/phi and row 1 ones, so that one matmul
        # with the buffered rows gives both sum_wx and sum_x
        self._w1 = np.ones((2, _SUB))
        self._k = 0  # rows in the current sub-block

    def update(self, X: np.ndarray, phi: float) -> None:
        k = self._k
        self._x[:, k] = X
        self._w1[0, k] = 1.0 / phi
        self.t += 1
        self._k = k + 1
        if self._k == _SUB:
            self.sum_wxx, self.sum_wx, self.sum_x, self.sum_w = self._sums()
            self._k = 0

    def _sums(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The running sums plus the rows of the current sub-block."""
        X, w1 = self._x[:, :self._k], self._w1[:, :self._k]
        wx, x = np.matmul(w1, X).transpose(1, 0, 2)
        XW = X * w1[0, :, None]
        return (self.sum_wxx + np.matmul(XW.transpose(0, 2, 1), X),
                self.sum_wx + wx, self.sum_x + x,
                self.sum_w + float(w1[0].sum()))

    def estimate(self) -> np.ndarray:
        sum_wxx, sum_wx, sum_x, sum_w = self._sums()
        t = self.t
        v, xb = sum_wx / t, sum_x / t
        xi = (sum_wxx / t
              - np.einsum("ri,rj->rij", v, xb)
              - np.einsum("ri,rj->rij", xb, v)
              + (sum_w / t) * np.einsum("ri,rj->rij", xb, xb))
        return 0.5 * (xi + xi.transpose(0, 2, 1))


class _BatchedPlugin:
    """Running sum of gradient outer products for a stack of replications,
    buffered and folded per sub-block like _BatchedWsc."""

    def __init__(self, n: int, d: int):
        self.t = 0
        self.sum_gg = np.zeros((n, d, d))
        self._g = np.empty((n, _SUB, d))
        self._k = 0

    def update(self, g: np.ndarray) -> None:
        k = self._k
        self._g[:, k] = g
        self.t += 1
        self._k = k + 1
        if self._k == _SUB:
            self.sum_gg = self._sum_gg()
            self._k = 0

    def _sum_gg(self) -> np.ndarray:
        g = self._g[:, :self._k]
        return self.sum_gg + np.matmul(g.transpose(0, 2, 1), g)

    @property
    def G(self) -> np.ndarray:
        """The average (1/t) sum g g^T."""
        return self._sum_gg() / self.t


def _plugin_estimate_batched(G: np.ndarray, B: np.ndarray,
                             beta: float, c_beta: float) -> np.ndarray:
    denom = 2.0 - (1.0 / c_beta if beta == 1.0 else 0.0)
    if denom <= 0.0:
        raise ValueError("beta = 1 requires c_beta > 1/2")
    inner = np.linalg.solve(B, G)
    est = np.linalg.solve(B, inner.transpose(0, 2, 1)) / denom
    return 0.5 * (est + est.transpose(0, 2, 1))


class _BatchedBatchMeans:
    """Increasing-batch spread estimator for a stack of replications.

    Same estimate as covariance.BatchMeansAccumulator, replication by
    replication: sum_m n_m^2 (bbar_m - xbar)(bbar_m - xbar)^T / sum_m n_m.
    """

    def __init__(self, n: int, d: int, beta: float):
        if not 0.5 < beta < 1.0:
            raise ValueError("batch means need beta in (1/2, 1)")
        self._exponent = 2.0 / (1.0 - beta)
        self.t = 0
        self.sum_x = np.zeros((n, d))
        self._m = 1
        self._next_boundary = self.boundary(1)
        self._batch_sum = np.zeros((n, d))
        self._batch_n = 0
        self._S2 = np.zeros((n, d, d))  # sum n_m^2 bbar_m bbar_m^T
        self._S1 = np.zeros((n, d))  # sum n_m bbar_m
        self._T1 = np.zeros((n, d))  # sum n_m^2 bbar_m
        self._N = 0  # sum n_m
        self._N2 = 0  # sum n_m^2
        self.n_completed = 0

    def boundary(self, m: int) -> int:
        return int(np.floor(float(m) ** self._exponent))

    mean = property(lambda self: self.sum_x / max(self.t, 1))

    def update(self, X: np.ndarray) -> None:
        self.sum_x += X
        self.t += 1
        self._batch_sum += X
        self._batch_n += 1
        if self.t == self._next_boundary:
            nb = self._batch_n
            bbar = self._batch_sum / nb
            self._S2 += nb * nb * np.einsum("ri,rj->rij", bbar, bbar)
            self._S1 += nb * bbar
            self._T1 += nb * nb * bbar
            self._N += nb
            self._N2 += nb * nb
            self.n_completed += 1
            self._batch_sum.fill(0.0)
            self._batch_n = 0
            self._m += 1
            self._next_boundary = self.boundary(self._m)

    def estimate(self) -> Optional[np.ndarray]:
        if self.n_completed < 2:
            return None
        xw = self._S1 / self._N
        cross = np.einsum("ri,rj->rij", self._T1, xw)
        est = (self._S2 - cross - cross.transpose(0, 2, 1)
               + self._N2 * np.einsum("ri,rj->rij", xw, xw)) / self._N
        return 0.5 * (est + est.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# batched linear-system solves


def _exact_solve_batched(B: np.ndarray, g: np.ndarray,
                         pinv_tol: float) -> np.ndarray:
    """Stacked exact Newton directions: Cholesky-gated solve of B dx = -g.

    Callers pass the positive-definite solve blend, so the gate is pure
    paranoia; should it ever fail, the offending replication falls back to
    the minimum-norm least-squares direction.
    """
    try:
        np.linalg.cholesky(B)
        return np.linalg.solve(B, -g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(g)
        for r in range(g.shape[0]):
            try:
                np.linalg.cholesky(B[r])
                out[r] = np.linalg.solve(B[r], -g[r])
            except np.linalg.LinAlgError:
                out[r] = pinv_newton_solve(B[r], g[r], pinv_tol)
        return out


def _lu_solve_batched(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve of K delta = -rhs for symmetric indefinite K (LU)."""
    try:
        return np.linalg.solve(K, -rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for r in range(rhs.shape[0]):
            try:
                out[r] = np.linalg.solve(K[r], -rhs[r])
            except np.linalg.LinAlgError:
                out[r] = np.linalg.lstsq(K[r], -rhs[r], rcond=None)[0]
        return out


def _uc_solve_batched(B: np.ndarray, g: np.ndarray, idx: np.ndarray,
                      tol: np.ndarray) -> np.ndarray:
    """Stacked coordinate sketch-and-project sweep (tau steps each).

    B is (R, n, n), g (R, n), idx (R, tau) and tol (R,).  B must be
    symmetric (its rows equal its columns), which lets the column-energy
    denominators come from rows.  Degenerate rows (energy not above tol,
    NaN included) leave the iterate unchanged, replication by replication.

    Nothing but the iterate changes between the tau steps, so the selected
    rows, their right-hand-side entries, their energies and the degenerate
    mask are gathered once, step-major as (tau, R, ...), by two flat takes;
    each step then does one dot, add, divide, masked zero and axpy, on the
    same operands and in the same order as a step that gathers its own
    row.  The first step starts from dx = 0, where the residual is g_i.
    """
    n_rep, n = g.shape
    flat = idx.T + np.arange(0, n_rep * n, n)  # (tau, R) rows of the stack
    brows = np.take(B.reshape(n_rep * n, n), flat, axis=0)
    gsel = np.take(g, flat)
    den = np.einsum("srn,srn->sr", brows, brows)
    skip = ~(den > tol)
    den[skip] = 1.0
    coef = gsel[0] / den[0]
    coef[skip[0]] = 0.0
    # 0.0 - p rather than -p: a skipped row leaves +0.0, as dx -= p does
    dx = 0.0 - coef[:, None] * brows[0]
    for s in range(1, idx.shape[1]):
        brow = brows[s]
        coef = np.einsum("rn,rn->r", brow, dx)
        coef += gsel[s]
        coef /= den[s]
        coef[skip[s]] = 0.0
        dx -= coef[:, None] * brow
    return dx


def _gaussian_solve_batched(B: np.ndarray, g: np.ndarray, zblk: np.ndarray,
                            chol: Optional[np.ndarray],
                            tol: np.ndarray) -> np.ndarray:
    """Stacked Gaussian sketch-and-project sweep; zblk is (R, tau, n, q).

    The first step starts from dx = 0, where the residual is S^T g.
    """
    tau, q = zblk.shape[1], zblk.shape[3]
    dx = np.zeros_like(g)
    for s in range(tau):
        S = zblk[:, s]
        if chol is not None:
            S = np.einsum("ij,rjq->riq", chol, S)
        W = np.einsum("rij,rjq->riq", B, S)
        res = np.einsum("riq,ri->rq", S, g)
        if s:  # from dx = 0 the residual is S^T g
            res += np.einsum("riq,ri->rq", W, dx)
        if q == 1:
            den = np.einsum("riq,riq->r", W, W)
            ok = den > tol
            coef = np.where(ok, res[:, 0] / np.where(ok, den, 1.0), 0.0)
            dx -= coef[:, None] * W[:, :, 0]
        else:
            M = np.einsum("riq,rip->rqp", W, W)
            evals, evecs = np.linalg.eigh(M)
            keep = evals > tol[:, None]
            proj = np.einsum("rqk,rq->rk", evecs, res)
            inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
            coef = np.einsum("rqk,rk->rq", evecs, inv * proj)
            dx -= np.einsum("riq,rq->ri", W, coef)
    return dx


class _ChunkBlocks:
    """The random blocks of one chunk, allocated once per shard.

    sketch: (R, chunk, tau) coordinate indices, stored in the narrowest
    integer type that holds n - 1, or (R, chunk, tau, n, q) Gaussian
    normals; band: (R, chunk) stepsize uniforms; data: (R, chunk, width)
    normals; labels: (R, chunk) logistic label uniforms.  fill(K) refills
    the first K steps in place, one replication's generators at a time,
    each read in per-step order (data: the K steps' normals, then K label
    uniforms).  Reallocating these blocks per chunk, between the smaller
    per-step arrays, fragmented the heap: peak memory grew by a block
    over a run.
    """

    def __init__(self, streams: List[RngStreams], chunk: int, n: int,
                 solve_cfg: SketchSolveConfig, uniform: bool, width: int,
                 labels: bool = False):
        R = len(streams)
        tau = solve_cfg.tau
        self.streams, self.n = streams, n
        self.sketch = self.band = self.labels = None
        if tau is not None:
            if solve_cfg.dist.kind == "uniform_coordinate":
                self.sketch = np.empty((R, chunk, tau),
                                       dtype=np.min_scalar_type(n - 1))
            else:
                self.sketch = np.empty((R, chunk, tau, n, solve_cfg.dist.q))
        if uniform:
            self.band = np.empty((R, chunk))
        self.data = np.empty((R, chunk, width))
        if labels:
            self.labels = np.empty((R, chunk))

    def fill(self, K: int) -> None:
        sk = self.sketch
        for j, g in enumerate(self.streams):
            if sk is not None:
                if sk.dtype.kind == "u":  # coordinate indices
                    sk[j, :K] = g.sketch.integers(0, self.n,
                                                  size=(K, sk.shape[2]))
                else:
                    g.sketch.standard_normal(out=sk[j, :K])
            if self.band is not None:
                g.step.random(out=self.band[j, :K])
            g.data.standard_normal(out=self.data[j, :K])
            if self.labels is not None:
                g.data.random(out=self.labels[j, :K])


def _sweep_solve(M: np.ndarray, rhs: np.ndarray, draws: np.ndarray,
                 solve_cfg: SketchSolveConfig,
                 chol: Optional[np.ndarray]) -> np.ndarray:
    """One tau-step sketch sweep on the stacked systems M delta = -rhs."""
    flat = M.reshape(M.shape[0], -1)
    tol = solve_cfg.pinv_tol * np.einsum("ri,ri->r", flat, flat) / M.shape[-1]
    if solve_cfg.dist.kind == "uniform_coordinate":
        return _uc_solve_batched(M, rhs, draws, tol)
    return _gaussian_solve_batched(M, rhs, draws, chol, tol)


# ---------------------------------------------------------------------------
# checkpoint metrics


@dataclass(frozen=True)
class _OracleRefs:
    """Ground-truth matrices plus their precomputed norms/quadratic forms."""

    xi: Optional[np.ndarray]
    omega: Optional[np.ndarray]
    xi_norm: float
    xi_quad: float
    omega_norm: float
    omega_quad: float


def _make_refs(oracle_xi: Optional[np.ndarray],
               oracle_omega: Optional[np.ndarray],
               w: np.ndarray) -> _OracleRefs:
    xi_norm = xi_quad = omega_norm = omega_quad = 0.0
    if oracle_xi is not None:
        xi_norm = float(np.linalg.norm(oracle_xi, ord=2))
        xi_quad = float(w @ oracle_xi @ w)
    if oracle_omega is not None:
        omega_norm = float(np.linalg.norm(oracle_omega, ord=2))
        omega_quad = float(w @ oracle_omega @ w)
    return _OracleRefs(oracle_xi, oracle_omega, xi_norm, xi_quad,
                       omega_norm, omega_quad)


def _checkpoint_metrics(
    t_now: int,
    schedule: StepsizeSchedule,
    w: np.ndarray,
    target: float,
    z_level: float,
    alive: np.ndarray,
    X: np.ndarray,
    mean: Optional[np.ndarray],
    ests: Dict[str, Optional[np.ndarray]],
    refs: _OracleRefs,
    sgd: bool,
) -> Dict[str, np.ndarray]:
    """Per-replication metric arrays at one checkpoint.

    Newton-style estimators pair the current iterate with the stepsize
    scale phi_{t-1} (the band center used by the estimator weights); the
    batch-means baseline pairs the running iterate average with scale 1/t.
    """
    raw: Dict[str, np.ndarray] = {"alive": alive.copy()}
    phi_prev = schedule.phi(t_now - 1)
    cx = X @ w
    cmean = mean @ w if mean is not None else None
    for name, est in ests.items():
        if est is None:
            continue
        suffix = _SUFFIX[name]
        bm = name == "batchmeans"
        truth = refs.omega if bm else refs.xi
        quad = np.einsum("rij,i,j->r", est, w, w)
        if truth is not None:
            tnorm = refs.omega_norm if bm else refs.xi_norm
            tquad = refs.omega_quad if bm else refs.xi_quad
            raw["rel_cov_err_" + suffix] = (
                np.linalg.norm(est - truth, ord=2, axis=(1, 2)) / tnorm)
            if not bm:
                raw["rel_var_err_" + suffix] = (quad - tquad) / tquad
        if bm:
            center: np.ndarray = cmean
            scale = 1.0 / t_now
        else:
            center = cx
            scale = phi_prev
        hw = z_level * np.sqrt(scale * np.maximum(quad, 0.0))
        raw["cov_" + suffix] = (np.abs(center - target) <= hw).astype(float)
    if sgd:
        if refs.omega is not None and cmean is not None:
            hw_o = z_level * math.sqrt(max(refs.omega_quad, 0.0) / t_now)
            raw["cov_oracle"] = (np.abs(cmean - target) <= hw_o).astype(float)
    elif refs.xi is not None:
        hw_o = z_level * math.sqrt(phi_prev * max(refs.xi_quad, 0.0))
        raw["cov_oracle"] = (np.abs(cx - target) <= hw_o).astype(float)
    return raw


@dataclass
class _ShardResult:
    ts: List[int]
    rows: List[Dict[str, np.ndarray]]
    final_raw: Dict[str, np.ndarray]
    final_estimates: Dict[str, Optional[np.ndarray]]
    final_x: np.ndarray
    final_lam: Optional[np.ndarray]
    n_diverged: int


# ---------------------------------------------------------------------------
# regression shard engine


def _run_shard_regression(
    cfg: ExperimentConfig,
    model: RegressionModel,
    schedule: StepsizeSchedule,
    solve_cfg: SketchSolveConfig,
    w: np.ndarray,
    refs: _OracleRefs,
    rep_ids: np.ndarray,
    chunk: int,
) -> _ShardResult:
    exp = cfg.experiment
    R = len(rep_ids)
    d = model.dim
    sgd = cfg.method.solver == "sgd"
    lin = model.family == "linear"
    n_iters, rec = exp.n_iters, exp.record_every
    z_level = normal_quantile(0.5 + 0.5 * exp.ci_level)
    target = float(w @ model.x_star)
    uniform = schedule.mode == "uniform_band"

    sk_chol = (solve_cfg.dist.cov_factor(d)
               if solve_cfg.dist.kind == "gaussian" else None)

    streams = [RngStreams.from_seed(exp.base_seed ^ int(r)) for r in rep_ids]
    # linear: d feature normals plus the response noise per step;
    # logistic: d feature normals per step, then the label uniforms
    blk = _ChunkBlocks(streams, min(chunk, n_iters), d, solve_cfg, uniform,
                       d + 1 if lin else d, labels=not lin)
    X = np.zeros((R, d))
    B = None if sgd else np.tile(np.eye(d), (R, 1, 1))
    wsc = _BatchedWsc(R, d) if "wsc" in exp.estimators else None
    plug = _BatchedPlugin(R, d) if "plugin" in exp.estimators else None
    bm = (_BatchedBatchMeans(R, d, schedule.beta)
          if "batchmeans" in exp.estimators else None)
    alive = np.ones(R, dtype=bool)
    eye = np.eye(d)

    def solve(Bs: np.ndarray, G: np.ndarray) -> np.ndarray:
        # the sweep reads the sketch draws of the current step k
        if solve_cfg.tau is None:
            return _exact_solve_batched(Bs, G, solve_cfg.pinv_tol)
        return _sweep_solve(Bs, G, blk.sketch[:, k], solve_cfg, sk_chol)

    def estimates(t_now: int) -> Dict[str, Optional[np.ndarray]]:
        out: Dict[str, Optional[np.ndarray]] = {}
        if wsc is not None:
            out["wsc"] = wsc.estimate()
        if plug is not None:
            est = None
            if t_now >= d:  # the Hessian average is singular before that
                try:
                    est = _plugin_estimate_batched(plug.G, B, schedule.beta,
                                                   schedule.c_beta)
                except np.linalg.LinAlgError:
                    est = None
            out["plugin"] = est
        if bm is not None:
            out["batchmeans"] = bm.estimate()
        return out

    def snapshot(t_now: int) -> Tuple[Dict[str, np.ndarray],
                                      Dict[str, Optional[np.ndarray]]]:
        ests = estimates(t_now)
        mean = bm.mean if bm is not None else None
        raw = _checkpoint_metrics(t_now, schedule, w, target, z_level, alive,
                                  X, mean, ests, refs, sgd)
        return raw, ests

    ts: List[int] = []
    rows: List[Dict[str, np.ndarray]] = []
    t_done = 0
    while t_done < n_iters:
        K = min(chunk, n_iters - t_done)
        blk.fill(K)
        for k in range(K):
            t = t_done + k
            j = k % _SUB
            if j == 0:
                # step-major copies: einsum runs about twice as fast on them
                # and each step's sample is a contiguous (R, ...) slice
                z = blk.data[:, k:k + _SUB].swapaxes(0, 1)
                sub = model.sample(np.ascontiguousarray(z), None if lin
                                   else blk.labels[:, k:k + _SUB].T.copy())
            s = Sample(sub.xi_a[j], sub.xi_b[j])
            alpha = (schedule.alpha_from_uniform(t, blk.band[:, k]) if uniform
                     else schedule.phi(t))
            if sgd:
                G = model.grad(X, s)
                X = X - np.asarray(alpha)[..., None] * G
            else:
                state = newton_step(NewtonState(t, X, B), model, s, schedule,
                                    alpha, solve)
                X, B, G = state.x, state.B, state.last_grad
            t_now = t + 1
            # wsc first: the folds of both estimators and the next
            # sub-block's samples then fall between the same two wsc
            # updates (where the benchmark stamps each step), so one step
            # in _SUB carries all of that work
            if wsc is not None:
                wsc.update(X, schedule.phi(t))
            if plug is not None:
                plug.update(G)
            if bm is not None:
                bm.update(X)
            # NaN and inf fail the <= test, so they freeze a replication too
            ok = np.einsum("rd,rd->r", X, X) <= _DIVERGENCE_NORM ** 2
            if not ok.all():
                alive &= ok
                dead = ~alive
                X[dead] = 0.0
                if B is not None:
                    B[dead] = eye
            if t_now % rec == 0:
                raw, _ = snapshot(t_now)
                ts.append(t_now)
                rows.append(raw)
        t_done += K

    final_raw, final_ests = snapshot(n_iters)
    return _ShardResult(ts=ts, rows=rows, final_raw=final_raw,
                        final_estimates=final_ests, final_x=X.copy(),
                        final_lam=None, n_diverged=int(R - alive.sum()))


# ---------------------------------------------------------------------------
# constrained shard engine


def _run_shard_sqp(
    cfg: ExperimentConfig,
    problem: EqConstrainedProblem,
    schedule: StepsizeSchedule,
    solve_cfg: SketchSolveConfig,
    w: np.ndarray,
    refs: _OracleRefs,
    rep_ids: np.ndarray,
    chunk: int,
) -> _ShardResult:
    exp = cfg.experiment
    R = len(rep_ids)
    d, m = problem.dim, problem.n_cons
    n = d + m
    sigma2 = cfg.problem.sigma2
    L = grad_noise_factor(d, sigma2)
    nt = d * (d + 1) // 2
    n_iters, rec = exp.n_iters, exp.record_every
    z_level = normal_quantile(0.5 + 0.5 * exp.ci_level)
    target = float(w @ problem.x_star)
    uniform = schedule.mode == "uniform_band"

    sk_chol = (solve_cfg.dist.cov_factor(n)
               if solve_cfg.dist.kind == "gaussian" else None)

    streams = [RngStreams.from_seed(exp.base_seed ^ int(r)) for r in rep_ids]
    blk = _ChunkBlocks(streams, min(chunk, n_iters), n, solve_cfg, uniform,
                       d + nt)
    state = SqpState(t=0, x=np.tile(problem.x0, (R, 1)), lam=np.zeros((R, m)),
                     B=np.tile(np.eye(d), (R, 1, 1)))
    wsc = _BatchedWsc(R, d)
    alive = np.ones(R, dtype=bool)

    def solve(Kmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # the sweep reads the sketch draws of the current step k
        if solve_cfg.tau is None:
            return _lu_solve_batched(Kmat, rhs)
        return _sweep_solve(Kmat, rhs, blk.sketch[:, k], solve_cfg, sk_chol)

    def snapshot(t_now: int) -> Tuple[Dict[str, np.ndarray],
                                      Dict[str, Optional[np.ndarray]]]:
        ests: Dict[str, Optional[np.ndarray]] = {"wsc": wsc.estimate()}
        raw = _checkpoint_metrics(t_now, schedule, w, target, z_level, alive,
                                  state.x, None, ests, refs, sgd=False)
        return raw, ests

    ts: List[int] = []
    rows: List[Dict[str, np.ndarray]] = []
    t_done = 0
    while t_done < n_iters:
        K = min(chunk, n_iters - t_done)
        blk.fill(K)
        for k in range(K):
            t = t_done + k
            alpha = (schedule.alpha_from_uniform(t, blk.band[:, k]) if uniform
                     else schedule.phi(t))
            state = sqp_step(state, problem, sigma2, schedule, blk.data[:, k],
                             alpha, solve, L)
            X, Lam = state.x, state.lam
            t_now = t + 1
            wsc.update(X, schedule.phi(t))
            norms = (np.sqrt(np.einsum("rd,rd->r", X, X))
                     + np.sqrt(np.einsum("rm,rm->r", Lam, Lam)))
            ok = norms <= _DIVERGENCE_NORM  # NaN and inf fail it too
            if not ok.all():
                alive &= ok
                dead = ~alive
                X[dead] = problem.x0
                Lam[dead] = 0.0
                state.B[dead] = np.eye(d)
            if t_now % rec == 0:
                raw, _ = snapshot(t_now)
                ts.append(t_now)
                rows.append(raw)
        t_done += K

    final_raw, final_ests = snapshot(n_iters)
    return _ShardResult(ts=ts, rows=rows, final_raw=final_raw,
                        final_estimates=final_ests, final_x=state.x.copy(),
                        final_lam=state.lam.copy(),
                        n_diverged=int(R - alive.sum()))


# ---------------------------------------------------------------------------
# top-level orchestration


@dataclass
class ExperimentResult:
    """Aggregated study output plus the raw per-replication final metrics."""

    config: ExperimentConfig
    columns: Tuple[str, ...]
    rows: List[Dict[str, object]]
    final: Dict[str, object]
    final_per_rep: Dict[str, np.ndarray]
    final_estimates: Dict[str, Optional[np.ndarray]]
    final_x: np.ndarray
    final_lam: Optional[np.ndarray]
    oracle_xi: Optional[np.ndarray]
    oracle_omega: Optional[np.ndarray]
    w: np.ndarray
    target: float
    n_reps: int
    n_diverged: int

    @property
    def diverged_majority(self) -> bool:
        """True when at least half of the replications diverged."""
        return 2 * self.n_diverged >= self.n_reps


def _aggregate_raw(raw: Dict[str, np.ndarray]) -> Dict[str, object]:
    """Mean of each per-replication metric over live replications."""
    alive = raw["alive"]
    out: Dict[str, object] = {}
    for col in AGGREGATE_COLUMNS[1:]:
        arr = raw.get(col)
        if arr is None:
            out[col] = None
            continue
        vals = arr[alive]
        vals = vals[np.isfinite(vals)]
        out[col] = float(vals.mean()) if vals.size else None
    return out


def run_experiment(
    cfg: ExperimentConfig,
    oracle_xi: Optional[np.ndarray] = None,
    oracle_omega: Optional[np.ndarray] = None,
    chunk: int = _CHUNK,
) -> ExperimentResult:
    """Run every replication of the configured study and aggregate metrics.

    Ground truth: for regression problems the limiting covariance and the
    sandwich covariance are computed once up front (closed form where
    available, seeded Monte Carlo otherwise); for constrained problems no
    analytic ground truth exists, so relative-error and oracle-CI columns
    stay empty unless ``oracle_xi`` is supplied (see sqp_empirical_xi).
    Replication r draws its randomness from streams seeded with
    base_seed XOR r; all replications advance together in one engine call.
    """
    problem = cfg.build_problem()
    schedule = cfg.build_schedule()
    solve_cfg = cfg.build_solve_config()
    w = cfg.direction_vector(problem)
    constrained = isinstance(problem, EqConstrainedProblem)
    exp = cfg.experiment
    if not constrained:
        if cfg.method.solver == "newton" and oracle_xi is None:
            oc = oracle_covariance(problem, solve_cfg.dist, solve_cfg.tau,
                                   schedule.beta, schedule.c_beta)
            oracle_xi = oc.xi
            if oracle_omega is None:
                oracle_omega = oc.omega
        elif oracle_omega is None:
            oracle_omega = omega_star(problem)
    refs = _make_refs(oracle_xi, oracle_omega, w)
    target = float(w @ problem.x_star)

    runner = _run_shard_sqp if constrained else _run_shard_regression
    out = runner(cfg, problem, schedule, solve_cfg, w, refs,
                 np.arange(exp.n_reps), chunk)

    rows: List[Dict[str, object]] = []
    for t, raw in zip(out.ts, out.rows):
        row: Dict[str, object] = {"t": t}
        row.update(_aggregate_raw(raw))
        rows.append(row)

    final_raw = out.final_raw
    final: Dict[str, object] = {"t": exp.n_iters}
    final.update(_aggregate_raw(final_raw))

    alive = final_raw["alive"]
    final_estimates: Dict[str, Optional[np.ndarray]] = {
        name: est[alive].mean(axis=0) if est is not None and alive.any()
        else None
        for name, est in out.final_estimates.items()
    }

    return ExperimentResult(
        config=cfg,
        columns=AGGREGATE_COLUMNS,
        rows=rows,
        final=final,
        final_per_rep=final_raw,
        final_estimates=final_estimates,
        final_x=out.final_x,
        final_lam=out.final_lam,
        oracle_xi=refs.xi,
        oracle_omega=refs.omega,
        w=w,
        target=target,
        n_reps=exp.n_reps,
        n_diverged=out.n_diverged,
    )


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value: object) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def write_aggregate_csv(result: ExperimentResult, path: str) -> None:
    """Per-checkpoint aggregates, one row per record_every iterations."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for row in result.rows:
            writer.writerow([str(row["t"])]
                            + [_fmt(row[c]) for c in AGGREGATE_COLUMNS[1:]])


def write_summary_csv(result: ExperimentResult, path: str) -> None:
    """One final-iteration row per configured estimator."""
    final = result.final
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for name in result.config.experiment.estimators:
            suffix = _SUFFIX[name]
            writer.writerow([
                name,
                str(final["t"]),
                _fmt(final.get("rel_cov_err_" + suffix)),
                _fmt(final.get("rel_var_err_" + suffix)),
                _fmt(final.get("cov_" + suffix)),
                _fmt(final.get("cov_oracle")),
                str(result.n_reps),
                str(result.n_diverged),
            ])


# ---------------------------------------------------------------------------
# empirical ground truth for constrained problems


def sqp_empirical_xi(
    family: str,
    sigma2: float,
    n_iters: int = 1_000_000,
    n_reps: int = 4,
    base_seed: int = 20_000,
    schedule: Optional[ScheduleConfig] = None,
    chunk: int = _CHUNK,
) -> np.ndarray:
    """Empirical limiting covariance for a constrained problem.

    No closed form is available, so the reference is measured: long
    exact-KKT runs (default 10^6 iterations) with the weighted sample
    covariance estimator, averaged over a few replications.  Intended for
    offline study generation, not for routine test runs.
    """
    cfg = ExperimentConfig(
        problem=ProblemConfig(family=family, sigma2=sigma2),
        method=MethodConfig(solver="newton", tau=None),
        schedule=schedule if schedule is not None else ScheduleConfig(),
        experiment=ExperimentSection(
            n_iters=n_iters,
            n_reps=n_reps,
            base_seed=base_seed,
            record_every=n_iters,
            ci_direction="inactive",
            estimators=("wsc",),
        ),
    )
    result = run_experiment(cfg, chunk=chunk)
    est = result.final_estimates.get("wsc")
    if est is None:
        raise RuntimeError("empirical reference failed (no live replications)")
    return est
