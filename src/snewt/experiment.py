"""Replication-batched Monte-Carlo experiment harness.

run_experiment advances every replication of a configured study at once:
iterates are stacked (n_reps, d) arrays, Hessian averages (n_reps, d, d),
and each replication owns three seeded generator streams (data / sketch /
stepsize, seeded base_seed XOR replication index) consumed in fixed-size
blocks.  Per-replication randomness therefore depends only on the base
seed and the replication index, and a fixed seed reproduces every output
byte for byte.  One loop (_run_shard) runs both families: it draws the
blocks, sets the stepsizes, takes each step, updates the estimators,
guards, freezes and records checkpoints.  Only the observations differ:
each family's observe turns a step's blocks into samples, regression
ones once per 32-step sub-block and constrained ones per step with
sqp.observe.  The step is the library's one step, optimizer.newton_step,
applied to the whole stack (or the averaged-SGD update), and so are the
solves, the sketch module's stacked direct and sweep solves, and the
estimators: the covariance module's accumulators take the (n_reps, d)
stack as they take one iterate.  A replication whose ||x|| + ||lam||
leaves the divergence guard (or turns non-finite) is held at x0, lam = 0,
B = I from then on, excluded from every aggregate, and counted.

At every record_every-th iteration the harness compares the running
covariance estimators against the ground-truth limiting covariance, with
the oracle module's rel_cov_error and rel_var_error applied to the whole
(n_reps, d, d) stack, and records the hits of the inference module's
directional_ci, called on the same stacks; aggregates go to a
per-checkpoint CSV plus a final summary CSV (schemas documented in the
README).  `snewt run` is the entry point: every study is a config file
run by it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .config import ExperimentConfig
from .covariance import (_SUB, BatchMeansAccumulator, PlugInAccumulator,
                         WscAccumulator, plugin_estimate)
from .inference import directional_ci
from .optimizer import (_DIVERGENCE_NORM, NewtonState, RngStreams,
                        StepsizeSchedule, newton_step)
from .oracle import (omega_star, oracle_covariance, rel_cov_error,
                     rel_var_error)
from .problems import RegressionModel, Sample, grad_noise_factor
from .sketch import (SketchSolveConfig, _direct_solve_batched,
                     _gaussian_solve_batched, _tol_abs, _uc_solve_batched)
from .sqp import EqConstrainedProblem, observe

__all__ = [
    "AGGREGATE_COLUMNS",
    "SUMMARY_COLUMNS",
    "ExperimentResult",
    "run_experiment",
    "write_aggregate_csv",
    "write_summary_csv",
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

# Steps of randomness drawn per block refill (_ChunkBlocks.fill).  Fixed so
# that seeded runs are reproducible; block draws consume the underlying bit
# streams in the same element order as per-step draws, so for every data
# layout except the logistic label stream the block size does not even
# change the sampled values.  The blocks, not the O(d^2) estimator state,
# set a study's peak memory (on eqqp at tau = 40 and R = 200 they hold
# 5.9 MiB, against 23.4 MiB at 1024 steps).  A refill has a fixed cost of
# about 16 us per replication, so 8 sub-blocks is where it stays small:
# per step, generator time was 15-30% above 1024-step refills (2-4% of a
# headline study) and 35-75% above at 128 steps.
_CHUNK = 8 * _SUB

_SUFFIX = {"wsc": "wsc", "plugin": "plugin", "batchmeans": "bm"}


# ---------------------------------------------------------------------------
# Names perfbench/ wraps, until its instruments move into the program: the
# sketch module's two sweeps, imported above and looked up as module
# globals by _run_shard's solve at each call, and the covariance module's
# estimators below, which it times and at whose wsc update it stamps each
# step.  Aliases, not subclasses: it patches the class's own attribute,
# and the harness calls plugin_estimate by its alias so that the patch
# sees it.

_BatchedWsc = WscAccumulator
_BatchedPlugin = PlugInAccumulator
_BatchedBatchMeans = BatchMeansAccumulator
_plugin_estimate_batched = plugin_estimate


class _ChunkBlocks:
    """The random blocks of one chunk, allocated once per shard.

    sketch: (R, chunk, tau) coordinate indices, stored in the narrowest
    integer type that holds n - 1, or (R, chunk, tau, n, q) Gaussian
    normals; band: (R, chunk) stepsize uniforms; data: (R, chunk, width)
    normals; labels: (R, chunk) logistic label uniforms.  Per replication
    and step that is tau index bytes (n <= 256) or 8 tau n q normal bytes,
    plus 8 bytes per band uniform, data normal and label uniform: 120 B
    for eqqp at tau = 40, 58 B for linear d = 5 at tau = 2 and 136 B for
    its Gaussian q = 1 sketch, times R * chunk in all.  fill(K) refills
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


# ---------------------------------------------------------------------------
# checkpoint metrics


def _checkpoint_metrics(
    t_now: int,
    schedule: StepsizeSchedule,
    w: np.ndarray,
    target: float,
    level: float,
    alive: np.ndarray,
    X: np.ndarray,
    mean: Optional[np.ndarray],
    ests: Dict[str, Optional[np.ndarray]],
    xi: Optional[np.ndarray],
    omega: Optional[np.ndarray],
    sgd: bool,
) -> Dict[str, np.ndarray]:
    """Per-replication metric arrays at one checkpoint.

    Newton-style estimators (wsc, plugin) are compared with xi, and the
    SGD baseline's batch means with omega (either may be None: no ground
    truth).  Every interval, the oracle's included (the truth in place of
    an estimate), is one inference.directional_ci call on the stacks at
    level: Newton pairs the current iterates with the stepsize scale
    phi_{t-1} (the band center used by the estimator weights), SGD the
    running iterate averages with scale 1/t.  A replication's hit is
    |center - target| <= half_width, and NaN when its estimate is NaN.
    """
    raw: Dict[str, np.ndarray] = {"alive": alive.copy()}
    x, scale, truth = ((mean, 1.0 / t_now, omega) if sgd
                       else (X, schedule.phi(t_now - 1), xi))

    def hits(cov: np.ndarray) -> np.ndarray:
        ci = directional_ci(x, scale, cov, w, level)
        # a NaN estimate gives no interval: neither a hit nor a miss
        return np.where(np.isnan(ci.half_width), np.nan,
                        np.abs(ci.center - target) <= ci.half_width)

    for name, est in ests.items():
        if est is None:
            continue
        suffix = _SUFFIX[name]
        if truth is not None:
            raw["rel_cov_err_" + suffix] = rel_cov_error(est, truth)
            if not sgd:
                raw["rel_var_err_" + suffix] = rel_var_error(est, truth, w)
        raw["cov_" + suffix] = hits(est)
    if truth is not None:
        raw["cov_oracle"] = hits(truth)
    return raw


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


def _plugin_per_rep(plug: PlugInAccumulator, B: np.ndarray,
                    schedule: StepsizeSchedule) -> np.ndarray:
    """The stacked plug-in estimate, NaN for a replication whose B is
    singular.  One singular slice fails the stacked solve; the others are
    then solved with it replaced by I, which keeps their bits."""
    try:
        return _plugin_estimate_batched(plug, B, schedule.beta,
                                        schedule.c_beta)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(B) == 0.0  # an exactly zero pivot of LU
    est = _plugin_estimate_batched(
        plug, np.where(singular[:, None, None], np.eye(B.shape[-1]), B),
        schedule.beta, schedule.c_beta)
    est[singular] = np.nan
    return est


# ---------------------------------------------------------------------------
# the study loop, and each family's observations


def _run_shard(cfg: ExperimentConfig, problem, xi: Optional[np.ndarray],
               omega: Optional[np.ndarray], chunk: int, x0: np.ndarray,
               m: int, width: int, labels: bool,
               observe: Callable) -> ExperimentResult:
    """Run every replication of a study and return its result.

    The family supplies its starting point x0 (m multipliers start at 0),
    the width of each step's data normals (then a label uniform each if
    labels), and observe(blk, k, X, Lam), which reads step k of the chunk's
    random blocks and returns the samples at (X, Lam): (g, H) for a Newton
    step, (g, H, J, c) for an SQP step, or (g,) for an averaged-SGD one.
    The loop takes the step itself, newton_step with the direct solve or
    the sketch sweep, and the plug-in folds g.
    """
    exp = cfg.experiment
    schedule = cfg.build_schedule()
    solve_cfg = cfg.build_solve_config()
    w = cfg.direction_vector(problem)
    R, d = exp.n_reps, len(x0)
    sgd = cfg.method.solver == "sgd"
    n_iters, rec = exp.n_iters, exp.record_every
    target = float(w @ problem.x_star)
    uniform = schedule.mode == "uniform_band"
    coordinate = solve_cfg.dist.kind == "uniform_coordinate"

    streams = [RngStreams.from_seed(exp.base_seed ^ r) for r in range(R)]
    blk = _ChunkBlocks(streams, min(chunk, n_iters), d + m, solve_cfg,
                       uniform, width, labels)
    X = np.tile(x0, (R, 1))
    Lam = np.zeros((R, m))
    B = None if sgd else np.tile(np.eye(d), (R, 1, 1))
    wsc = WscAccumulator(d) if "wsc" in exp.estimators else None
    plug = PlugInAccumulator(d) if "plugin" in exp.estimators else None
    bm = (BatchMeansAccumulator(d, schedule.beta)
          if "batchmeans" in exp.estimators else None)
    alive = np.ones(R, dtype=bool)
    frozen = False
    eye = np.eye(d)

    def solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # the sweep reads the sketch draws of the current step k
        if solve_cfg.tau is None:
            return _direct_solve_batched(M, rhs)
        sweep = _uc_solve_batched if coordinate else _gaussian_solve_batched
        return sweep(M, rhs, blk.sketch[:, k], _tol_abs(M))

    def snapshot(t_now: int) -> Tuple[Dict[str, np.ndarray],
                                      Dict[str, Optional[np.ndarray]]]:
        ests: Dict[str, Optional[np.ndarray]] = {}
        # frozen replications' sums may hold the overflowed iterate; their
        # estimates are masked out of every aggregate, so are their warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if wsc is not None:
                ests["wsc"] = wsc.estimate()
            if plug is not None:  # B is singular before t = d
                ests["plugin"] = (_plugin_per_rep(plug, B, schedule)
                                  if t_now >= d else None)
            if bm is not None:
                ests["batchmeans"] = (bm.estimate() if bm.n_completed >= 2
                                      else None)
        mean = bm.mean if bm is not None else None
        raw = _checkpoint_metrics(t_now, schedule, w, target, exp.ci_level,
                                  alive, X, mean, ests, xi, omega, sgd)
        return raw, ests

    rows: List[Dict[str, object]] = []
    t_done = 0
    while t_done < n_iters:
        K = min(chunk, n_iters - t_done)
        blk.fill(K)
        for k in range(K):
            t = t_done + k
            alpha = (schedule.alpha_from_uniform(t, blk.band[:, k]) if uniform
                     else schedule.phi(t))
            obs = observe(blk, k, X, Lam)
            if sgd:
                X = X - np.asarray(alpha)[..., None] * obs[0]
            else:
                state = newton_step(NewtonState(t, X, B, Lam), schedule,
                                    alpha, solve, *obs)
                X, Lam, B = state.x, state.lam, state.B
            t_now = t + 1
            # wsc first: the folds of both estimators and the next
            # sub-block's samples then fall between the same two wsc
            # updates (where the benchmark stamps each step), so one step
            # in _SUB carries all of that work
            if wsc is not None:
                wsc.update(X, schedule.phi(t))
            if plug is not None:
                plug.update(obs[0])
            if bm is not None:
                bm.update(X)
            # ||x|| + ||lam||, the lam term skipped without multipliers (it
            # costs 5 us a step); NaN and inf fail the <= test, so they
            # freeze a replication too
            norms = np.sqrt(np.einsum("rd,rd->r", X, X))
            if m:
                norms += np.sqrt(np.einsum("rm,rm->r", Lam, Lam))
            ok = norms <= _DIVERGENCE_NORM
            # a frozen replication is stepped with the others but put back
            # at its reset state every step; while all are alive this costs
            # the one test
            if frozen or not ok.all():
                frozen = True
                alive &= ok
                dead = ~alive
                X[dead] = x0
                Lam[dead] = 0.0
                if B is not None:
                    B[dead] = eye
            if t_now % rec == 0:
                rows.append({"t": t_now,
                             **_aggregate_raw(snapshot(t_now)[0])})
        t_done += K

    def live_mean(est: np.ndarray) -> Optional[np.ndarray]:
        ok = alive & np.isfinite(est).all(axis=(-2, -1))  # plug-in: NaN rows
        return est[ok].mean(axis=0) if ok.any() else None

    final_raw, final_ests = snapshot(n_iters)
    return ExperimentResult(
        config=cfg,
        columns=AGGREGATE_COLUMNS,
        rows=rows,
        final={"t": n_iters, **_aggregate_raw(final_raw)},
        final_per_rep=final_raw,
        final_estimates={name: None if est is None else live_mean(est)
                         for name, est in final_ests.items()},
        final_x=X.copy(),
        final_lam=Lam.copy() if m else None,
        oracle_xi=xi,
        oracle_omega=omega,
        w=w,
        target=target,
        n_reps=R,
        n_diverged=int(R - alive.sum()),
    )


def _run_shard_regression(
    cfg: ExperimentConfig,
    model: RegressionModel,
    xi: Optional[np.ndarray],
    omega: Optional[np.ndarray],
    chunk: int,
) -> ExperimentResult:
    """The study loop with Newton (or averaged-SGD) steps from x = 0."""
    d = model.dim
    sgd = cfg.method.solver == "sgd"
    lin = model.family == "linear"
    sub = None

    def observe(blk, k, X, Lam):
        nonlocal sub
        j = k % _SUB
        if j == 0:
            # Regression samples are formed _SUB steps at a time, the
            # sub-block in which the estimators fold their sums, from
            # step-major copies: einsum runs about twice as fast on them
            # and each step's sample is a contiguous (R, ...) slice
            z = blk.data[:, k:k + _SUB].swapaxes(0, 1)
            sub = model.sample(np.ascontiguousarray(z), None if lin
                               else blk.labels[:, k:k + _SUB].T.copy())
        s = Sample(sub.xi_a[j], sub.xi_b[j])
        g = model.grad(X, s)
        return (g,) if sgd else (g, model.hess(X, s))

    # linear: d feature normals plus the response noise per step;
    # logistic: d feature normals per step, then the label uniforms
    return _run_shard(cfg, model, xi, omega, chunk, x0=np.zeros(d), m=0,
                      width=d + 1 if lin else d, labels=not lin,
                      observe=observe)


def _run_shard_sqp(
    cfg: ExperimentConfig,
    problem: EqConstrainedProblem,
    xi: Optional[np.ndarray],
    omega: Optional[np.ndarray],
    chunk: int,
) -> ExperimentResult:
    """The study loop with stochastic SQP steps from the problem's x0."""
    d = problem.dim
    sigma2 = cfg.problem.sigma2
    L = grad_noise_factor(d, sigma2)

    def sqp_observe(blk, k, X, Lam):
        # d gradient plus d(d+1)/2 Hessian noise normals, read per step
        return observe(problem, X, Lam, blk.data[:, k], sigma2, L)

    return _run_shard(cfg, problem, xi, omega, chunk, x0=problem.x0,
                      m=problem.n_cons, width=d + d * (d + 1) // 2,
                      labels=False, observe=sqp_observe)


# ---------------------------------------------------------------------------
# top-level orchestration


def run_experiment(
    cfg: ExperimentConfig,
    oracle_xi: Optional[np.ndarray] = None,
    oracle_omega: Optional[np.ndarray] = None,
    chunk: int = _CHUNK,
) -> ExperimentResult:
    """Run every replication of the configured study and aggregate metrics.

    Ground truth: for regression problems the limiting covariance and the
    sandwich covariance are computed once up front (closed form or 1-D
    quadrature; seeded Monte Carlo for gaussian_q >= 2), unless
    ``oracle_xi`` and ``oracle_omega`` are passed in.  Constrained problems
    have no ground truth yet, so their relative-error and oracle-CI columns
    stay empty unless ``oracle_xi`` is passed.  Replication r draws its
    randomness from streams seeded with base_seed XOR r; all replications
    advance together in one engine call.
    """
    problem = cfg.build_problem()
    if isinstance(problem, EqConstrainedProblem):
        return _run_shard_sqp(cfg, problem, oracle_xi, oracle_omega, chunk)
    if cfg.method.solver == "newton" and oracle_xi is None:
        solve_cfg, schedule = cfg.build_solve_config(), cfg.build_schedule()
        oc = oracle_covariance(problem, solve_cfg.dist, solve_cfg.tau,
                               schedule.beta, schedule.c_beta)
        oracle_xi = oc.xi
        if oracle_omega is None:
            oracle_omega = oc.omega
    elif oracle_omega is None:
        oracle_omega = omega_star(problem)
    return _run_shard_regression(cfg, problem, oracle_xi, oracle_omega, chunk)


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
