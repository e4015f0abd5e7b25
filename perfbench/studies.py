"""What a worker process runs: set-up, timed study calls, checks, trace.

The worker has already imported snewt when it imports this module.  Every
call into snewt goes through a module attribute looked up at call time,
so the wrappers a Tracer installs see it.
"""

from __future__ import annotations

import inspect
import math
import resource
import time
import warnings
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

import refs
import workloads
from tracer import Tracer

import snewt.config
import snewt.covariance
import snewt.experiment
import snewt.inference
import snewt.optimizer
import snewt.oracle

_now = time.perf_counter_ns

# coverage bands: nominal +- 4 binomial sd, widened below by this much
# because finite horizons bias coverage a little under nominal
COVERAGE_SLACK = 0.02


# ---------------------------------------------------------------------------
# what the traced run wraps


def _sweep_steps(fn):
    # _uc_solve_batched(B, g, idx (R, tau), tol) and
    # _gaussian_solve_batched(B, g, zblk (R, tau, n, q), chol, tol)
    return lambda args, kwargs: int(args[2].shape[0] * args[2].shape[1])


def _rows(fn):
    # _BatchedWsc.update(self, X (R, d), phi): one step of R replications
    return lambda args, kwargs: int(args[1].shape[0])


def _mc_draws(per_sample):
    """Sketch draws of a Monte-Carlo oracle call: n_mc times per_sample."""
    def factory(fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if getattr(a.get("dist"), "kind", None) != "gaussian":
                return 0
            return int(a["n_mc"]) * per_sample(a)
        return hook
    return factory


SETUP_SPANS = (
    ("snewt.config:parse_config_string", "config.parse", None),
    ("snewt.oracle:oracle_covariance", "oracle.build", None),
    ("snewt.oracle:single_step_projection_expectation", "oracle.projection",
     ("oracle.mc_samples", _mc_draws(lambda a: 1))),
    ("snewt.oracle:lambda_matrix", "oracle.lambda",
     ("oracle.mc_samples", _mc_draws(lambda a: int(a["tau"] or 0)))),
)

STUDY_SPANS = (
    ("snewt.experiment:run_experiment", "experiment.run", None),
    ("snewt.experiment:_run_shard_regression", "experiment.loop", None),
    ("snewt.experiment:_run_shard_sqp", "experiment.loop", None),
    ("snewt.experiment:_uc_solve_batched", "experiment.sweep",
     ("experiment.sweep_inner_steps", _sweep_steps)),
    ("snewt.experiment:_gaussian_solve_batched", "experiment.sweep",
     ("experiment.sweep_inner_steps", _sweep_steps)),
    ("snewt.experiment:_BatchedWsc.update", "experiment.estimator_update",
     ("experiment.rep_steps", _rows)),
    ("snewt.experiment:_BatchedPlugin.update", "experiment.estimator_update", None),
    ("snewt.experiment:_BatchedBatchMeans.update", "experiment.estimator_update", None),
    ("snewt.experiment:_checkpoint_metrics", "experiment.checkpoint", None),
    ("snewt.experiment:_BatchedWsc.estimate", "experiment.estimate", None),
    ("snewt.experiment:_BatchedBatchMeans.estimate", "experiment.estimate", None),
    ("snewt.experiment:_plugin_estimate_batched", "experiment.estimate", None),
)
STUDY_GENERATORS = ("snewt.experiment:RngStreams", "experiment.rng_draw")

STREAM_SPANS = (
    ("snewt.optimizer:run", "optimizer.run", None),
    ("snewt.optimizer:newton_step", "optimizer.step", None),
    ("snewt.optimizer:solve_newton_sketched", "sketch.solve", None),
    ("snewt.problems:RegressionModel.draw", "problems.sample", None),
    ("snewt.problems:RegressionModel.grad", "problems.sample", None),
    ("snewt.problems:RegressionModel.hess", "problems.sample", None),
    ("snewt.covariance:WscInverseTracker.update", "covariance.tracker_update", None),
    ("snewt.covariance:WscAccumulator.estimate", "covariance.estimate", None),
    ("snewt.inference:directional_ci", "inference.interval", None),
    ("snewt.inference:confidence_region", "inference.interval", None),
)

# per-layer time metric -> span names whose self time it sums (per study call)
STUDY_LAYER_TIMES = {
    "experiment.orchestrate_s": ("experiment.run",),
    "experiment.loop_self_s": ("experiment.loop",),
    "experiment.sweep_s": ("experiment.sweep",),
    "experiment.rng_draw_s": ("experiment.rng_draw",),
    "experiment.estimator_update_s": ("experiment.estimator_update",),
    "experiment.checkpoint_s": ("experiment.checkpoint", "experiment.estimate"),
    "optimizer.run_self_s": ("optimizer.run",),
    "optimizer.step_self_s": ("optimizer.step",),
    "problems.sample_s": ("problems.sample",),
    "sketch.solve_s": ("sketch.solve",),
    "covariance.tracker_update_s": ("covariance.tracker_update",),
    "covariance.estimate_s": ("covariance.estimate",),
    "inference.interval_s": ("inference.interval",),
    "bench.sink_self_s": ("bench.sink",),
}
SETUP_LAYER_TIMES = {
    "config.parse_s": ("config.parse",),
    "oracle.build_s": ("oracle.build",),
    "oracle.projection_s": ("oracle.projection",),
    "oracle.lambda_s": ("oracle.lambda",),
}
# per-layer count metric -> span whose calls it counts (per study call)
STUDY_LAYER_CALLS = {
    "experiment.sweep_calls": "experiment.sweep",
    "experiment.checkpoints": "experiment.checkpoint",
    "sketch.solve_calls": "sketch.solve",
}
STUDY_COUNTERS = ("experiment.sweep_inner_steps", "experiment.rep_steps")


def _install(tracer: Tracer, spans) -> None:
    for target, span, count in spans:
        tracer.wrap(target, span, count)


# ---------------------------------------------------------------------------
# set-up: everything before the first step


def setup(wl: workloads.Workload, configs: List[str]) -> SimpleNamespace:
    """Parse the configs and build problem, schedule, solve config, oracle."""
    cfgs = [snewt.config.parse_config_string(text) for text in configs]
    cfg = cfgs[0]
    problem = cfg.build_problem()
    schedule = cfg.build_schedule()
    solve_cfg = cfg.build_solve_config()
    oc = None
    if wl.kind == "study" and not cfg.problem.is_constrained:
        oc = snewt.oracle.oracle_covariance(problem, solve_cfg.dist, solve_cfg.tau,
                                            schedule.beta, schedule.c_beta)
    return SimpleNamespace(cfgs=cfgs, problem=problem, schedule=schedule,
                           solve_cfg=solve_cfg, oracle=oc,
                           w=cfg.direction_vector(problem))


# ---------------------------------------------------------------------------
# measured calls


def _stamp_wrapper(stamps: list):
    def factory(fn):
        def stamped(*args, **kwargs):
            stamps.append(_now())
            return fn(*args, **kwargs)
        return stamped
    return factory


def _study_call(ctx, cfg, stamps: Optional[list], traced: Optional[Tracer]):
    patch = Tracer()
    if traced is not None:
        _install(traced, STUDY_SPANS)
        traced.wrap_generators(*STUDY_GENERATORS)
    elif stamps is not None:
        # one stamp per engine iteration: every batched engine folds each
        # step into the wsc estimator exactly once
        patch.patch("snewt.experiment:_BatchedWsc.update", _stamp_wrapper(stamps))
    oc = ctx.oracle
    t0 = time.perf_counter()
    try:
        res = snewt.experiment.run_experiment(
            cfg, oracle_xi=None if oc is None else oc.xi,
            oracle_omega=None if oc is None else oc.omega)
    finally:
        dt = time.perf_counter() - t0
        patch.restore()
        if traced is not None:
            traced.restore()
    per = res.final_per_rep
    alive = per["alive"]
    rows = [r["rel_cov_err_wsc"] for r in res.rows]
    return {
        "seconds": dt,
        "steps": cfg.experiment.n_iters,
        "rep_steps": res.n_reps * cfg.experiment.n_iters,
        "n_reps": res.n_reps,
        "n_diverged": res.n_diverged,
        "final": res.final,
        "alive": int(alive.sum()),
        "hits": {k: int(per[k][alive].sum()) for k in ("cov_wsc", "cov_oracle")
                 if k in per},
        "rel_cov_err_first": rows[0] if rows else None,
        "rel_cov_err_last": rows[-1] if rows else None,
        "final_x": res.final_x[alive],
    }


def _stream_call(ctx, cfg, stamps: list, traced: Optional[Tracer]):
    problem, schedule = ctx.problem, ctx.schedule
    n, d = cfg.experiment.n_iters, problem.dim
    rec = cfg.experiment.record_every
    tracker = snewt.covariance.WscInverseTracker(d)
    xs = np.empty((n, d))
    phis = np.empty(n)

    def sink(t, x, alpha):
        stamps.append(_now())
        phi = schedule.phi(t - 1)
        tracker.update(x, phi)
        xs[t - 1] = x
        phis[t - 1] = phi
        if t % rec == 0:
            est = tracker.acc.estimate()
            snewt.inference.directional_ci(x, phi, est, ctx.w,
                                           level=cfg.experiment.ci_level)
            if tracker.xi_inv is not None:
                snewt.inference.confidence_region(
                    x, phi, tracker.xi_inv, level=cfg.experiment.ci_level)

    if traced is not None:
        _install(traced, STREAM_SPANS)
        sink = traced.make_wrapper("bench.sink", sink)
    t0 = time.perf_counter()
    final = None
    try:
        final = snewt.optimizer.run(problem, ctx.solve_cfg, schedule, n,
                                    seed=cfg.experiment.base_seed, sinks=[sink])
    except snewt.optimizer.DivergenceError:
        pass
    finally:
        dt = time.perf_counter() - t0
        if traced is not None:
            traced.restore()
    done = tracker.t
    return {
        "seconds": dt,
        "steps": done,
        "rep_steps": done,
        "n_reps": n,
        "n_diverged": n - done,
        "final_x": None if final is None else final.x,
        "final_phi": schedule.phi(n - 1),
        "xs": xs[:done],
        "phis": phis[:done],
        "estimate": tracker.acc.estimate() if done else None,
        "xi_inv": tracker.xi_inv,
        "fallbacks": tracker.n_fallbacks,
    }


# ---------------------------------------------------------------------------
# checks against references computed apart from the program


def _check(out: list, name: str, ok: bool, value) -> None:
    out.append({"name": name, "ok": bool(ok), "value": value})


def _linear_truth():
    B = refs.equicorr(workloads.LINEAR_D, workloads.LINEAR_R)
    omega = workloads.LINEAR_SIGMA ** 2 * np.linalg.inv(B)
    return B, omega


def _coverage_checks(out, calls, keys, level):
    for key in keys:
        n = sum(c["alive"] for c in calls)
        hits = sum(c["hits"][key] for c in calls)
        lo, hi = refs.binomial_band(level, n, k=4.0)
        lo -= COVERAGE_SLACK
        _check(out, f"{key} in [{lo:.3f}, {hi:.3f}]", lo <= hits / n <= hi, hits / n)


def _mean_final(calls, key):
    vals = [c["final"][key] for c in calls]
    return float(np.mean(vals))


def checks_headline(ctx, calls) -> list:
    out: list = []
    B, omega = _linear_truth()
    _, _, xi_ref = refs.xi_star_by_enumeration(B, omega, ctx.solve_cfg.tau)
    err = float(np.abs(ctx.oracle.xi - xi_ref).max() / np.abs(xi_ref).max())
    _check(out, "oracle xi_star equals enumeration over d^tau sequences",
           err <= 1e-9, err)
    _coverage_checks(out, calls, ("cov_wsc", "cov_oracle"), workloads.CI_LEVEL)
    v = _mean_final(calls, "rel_var_err_plugin")
    _check(out, "rel_var_err_plugin < -0.1 (plugin ignores sketch inflation)",
           v < -0.1, v)
    v = _mean_final(calls, "rel_var_err_wsc")
    _check(out, "|rel_var_err_wsc| <= 0.1", abs(v) <= 0.1, v)
    for i, c in enumerate(calls):
        first, last = c["rel_cov_err_first"], c["rel_cov_err_last"]
        _check(out, f"call {i}: rel_cov_err_wsc falls from first to last checkpoint",
               last < first, [first, last])
    return out


def checks_constrained(ctx, calls) -> list:
    out: list = []
    A = np.array(workloads.EQQP_A)
    b = np.array(workloads.EQQP_B)
    x_star = refs.eqqp_x_star(A, b, fixed=0, value=1.0)
    X = np.concatenate([c["final_x"] for c in calls])
    mean = X.mean(axis=0)
    se = X.std(axis=0, ddof=1) / math.sqrt(X.shape[0])
    # x_0 = 1 is the constraint: sketched KKT solves meet it only in the
    # limit, like every other coordinate of x*
    z = np.abs(mean - x_star) / se
    _check(out, "replication mean of final x within 5 standard errors of x* "
           "(x_0 = 1 included)", bool(np.all(z <= 5.0)), z.tolist())
    dev = float(np.abs(X[:, 0] - 1.0).max())
    _check(out, "every final |x_0 - 1| <= 0.05", dev <= 0.05, dev)
    _coverage_checks(out, calls, ("cov_wsc",), workloads.CI_LEVEL)
    return out


def checks_gaussian(ctx, calls, seed: int) -> list:
    out: list = []
    oc = ctx.oracle
    tau = ctx.solve_cfg.tau
    B, _ = _linear_truth()
    rng = np.random.default_rng([seed, 0x6A55])
    p_ind, se_ind = refs.gaussian_projection_mean(B, ctx.solve_cfg.dist.q,
                                                  200_000, rng)
    p_prog = refs.projection_mean_from_c_star(oc.c_star, tau)
    se_prog = oc.mc_stderr.get("projection")
    if se_prog is None:
        _check(out, "oracle reports a Monte-Carlo stderr for E[Pi]", False, None)
        se_prog = np.zeros_like(p_ind)
    z = np.abs(p_prog - p_ind) / np.sqrt(se_prog ** 2 + se_ind ** 2 + 1e-300)
    _check(out, "oracle E[Pi] within 5 combined stderr of an independent estimate",
           float(z.max()) <= 5.0, float(z.max()))
    res = refs.lyapunov_rel_residual(oc.xi, oc.c_star, oc.lam, 0.0)
    _check(out, "Lyapunov residual of xi_star at roundoff (<= 1e-10)",
           res <= 1e-10, res)
    _coverage_checks(out, calls, ("cov_wsc", "cov_oracle"), workloads.CI_LEVEL)
    return out


def checks_stream(ctx, calls) -> list:
    out: list = []
    B, omega = _linear_truth()
    _, _, xi_ref = refs.xi_star_by_enumeration(B, omega, ctx.solve_cfg.tau)
    x_star = np.array(workloads.LINEAR_X_STAR)
    for i, c in enumerate(calls):
        if c["estimate"] is None or c["final_x"] is None:
            _check(out, f"call {i}: run completed", False, None)
            continue
        direct = refs.weighted_cov_two_pass(c["xs"], 1.0 / c["phis"])
        err = float(np.abs(c["estimate"] - direct).max() / np.abs(direct).max())
        _check(out, f"call {i}: streaming estimate equals two-pass (<= 1e-9)",
               err <= 1e-9, err)
        drift = (float(np.abs(c["xi_inv"] @ c["estimate"] - np.eye(len(x_star))).max())
                 if c["xi_inv"] is not None else math.inf)
        _check(out, f"call {i}: |tracked inverse * estimate - I| <= 1e-6, no fallbacks",
               drift <= 1e-6 and c["fallbacks"] == 0, [drift, c["fallbacks"]])
        z = np.abs(c["final_x"] - x_star) / np.sqrt(c["final_phi"] * np.diag(xi_ref))
        _check(out, f"call {i}: final iterate within 5 standard errors of x*",
               bool(np.all(z <= 5.0)), float(z.max()))
    return out


# ---------------------------------------------------------------------------
# one worker job


def _obs_percentiles_us(calls, stamp_lists) -> Dict[str, float]:
    """Per-observation percentiles: taken per study call, then the median
    over calls, so that a slow spell of the machine during one call moves
    the result less than it would in the pooled distribution.

    A call without stamps (the stamped name is gone after a refactor)
    falls back to its mean time per step, with a warning."""
    qs = (50.0, 95.0, 99.0)
    per_call = []
    for c, s in zip(calls, stamp_lists):
        if len(s) > 1:
            per_call.append(np.percentile(np.diff(np.asarray(s, dtype=np.int64)), qs) * 1e-3)
        else:
            warnings.warn("no per-observation stamps; obs_us_* fall back to "
                          "the mean time per step", RuntimeWarning)
            per_call.append(np.full(len(qs), 1e6 * c["seconds"] / c["steps"]))
    vals = np.median(np.array(per_call), axis=0)
    out = {f"obs_us_p{int(q)}": float(v) for q, v in zip(qs, vals)}
    out["obs_samples"] = int(sum(max(len(s) - 1, 0) for s in stamp_lists))
    return out


def _trace_metrics(tracer: Tracer, wl, calls, traced_idx, untraced_idx,
                   import_s: float, oc) -> Dict[str, float]:
    n = len(traced_idx)
    root = "experiment.run" if wl.kind == "study" else "optimizer.run"
    self_s, span_calls, study_s = tracer.self_times(root)
    setup_self, _, _ = tracer.self_times("setup")
    m: Dict[str, float] = {}
    for metric, spans in STUDY_LAYER_TIMES.items():
        m[metric] = sum(self_s.get(s, 0.0) for s in spans) / n
    for metric, spans in SETUP_LAYER_TIMES.items():
        m[metric] = sum(setup_self.get(s, 0.0) for s in spans)
    for metric, span in STUDY_LAYER_CALLS.items():
        m[metric] = span_calls.get(span, 0) / n
    for counter in STUDY_COUNTERS:
        m[counter] = tracer.counts.get(counter, 0) / n
    m["oracle.mc_samples"] = tracer.counts.get("oracle.mc_samples", 0)
    m["oracle.mc_stderr_max"] = (
        max(float(np.abs(v).max()) for v in oc.mc_stderr.values())
        if oc is not None and oc.mc_stderr else 0.0)
    m["setup.import_s"] = import_s
    if wl.kind == "stream":
        updates = sum(calls[i]["rep_steps"] for i in traced_idx)
        m["covariance.tracker_fallbacks"] = (
            sum(calls[i]["fallbacks"] for i in traced_idx) / max(updates, 1))
    else:
        m["covariance.tracker_fallbacks"] = 0.0
    m["trace.study_s"] = study_s / n
    m["trace.layer_sum_s"] = sum(m[k] for k in STUDY_LAYER_TIMES)
    rate = lambda idx: float(np.median([calls[i]["rep_steps"] / calls[i]["seconds"]
                                        for i in idx]))
    m["trace.overhead_pct"] = 100.0 * (rate(untraced_idx) / rate(traced_idx) - 1.0)
    m["trace.missing_targets"] = len(tracer.missing)
    return m


def run_job(job: dict, import_s: float) -> dict:
    """Set up (timed from outside); then, unless job["mode"] is "setup",
    run the study calls, check them, and return the metrics."""
    wl = workloads.WORKLOADS[job["workload"]]
    trace = bool(job.get("trace"))
    tracer = Tracer() if trace else None
    if trace:
        _install(tracer, SETUP_SPANS)
        ctx = tracer.span("setup", setup, wl, job["configs"])
        tracer.restore()
    else:
        ctx = setup(wl, job["configs"])
    ready = time.monotonic()
    if job["mode"] == "setup":
        return {"ready_monotonic": ready, "import_s": import_s}

    calls = []
    stamp_lists = []
    for i, cfg in enumerate(ctx.cfgs):
        traced = tracer if trace and i % 2 == 1 else None
        stamps: list = []
        if wl.kind == "study":
            # the traced run times layers, not iterations: no stamps there
            calls.append(_study_call(ctx, cfg, None if trace else stamps, traced))
        else:
            calls.append(_stream_call(ctx, cfg, stamps, traced))
        stamp_lists.append(stamps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if wl.name == "headline_kaczmarz":
        checks = checks_headline(ctx, calls)
    elif wl.name == "constrained_sqp":
        checks = checks_constrained(ctx, calls)
    elif wl.name == "gaussian_sketch":
        checks = checks_gaussian(ctx, calls, job["seed"])
    else:
        checks = checks_stream(ctx, calls)

    result = {
        "ready_monotonic": ready,
        "import_s": import_s,
        "call_rates": [c["rep_steps"] / c["seconds"] for c in calls],
        "call_seconds": [c["seconds"] for c in calls],
        "operations": sum(c["n_reps"] for c in calls),
        "failed_operations": sum(c["n_diverged"] for c in calls),
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
    }
    if trace:
        traced_idx = list(range(1, len(calls), 2))
        untraced_idx = list(range(0, len(calls), 2))
        result["layers"] = _trace_metrics(tracer, wl, calls, traced_idx,
                                          untraced_idx, import_s, ctx.oracle)
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    else:
        result.update(_obs_percentiles_us(calls, stamp_lists))
    return result
