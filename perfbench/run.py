"""Run one workload of the snewt benchmark and print its result.

From the root of a checkout:

    python3 perfbench/run.py --workload headline_kaczmarz --seed 1 \
        --seconds 10 --trace 0

Every measurement happens in a fresh worker interpreter (worker.py) with
BLAS pinned to one thread and SNEWT_THREADS unset.  An untraced run first
starts cold set-ups only, then one worker that sets up once more and runs
the timed study calls; set-up time is the median over those set-ups.  A
traced run starts one worker that records spans around calls into each
layer.  The last line of stdout is the JSON result; the same result, with
every sample and check, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("SNEWT_THREADS", None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run_worker(job: dict, env: dict, root: str, deadline: float):
    """(monotonic time just before the start, parsed result) of one worker."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=root)
    try:
        out, _ = proc.communicate(json.dumps(job).encode(),
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return t0, json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    wl = workloads.WORKLOADS[workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    env = _child_env(root)
    calls = wl.calls(seconds)
    job = {"workload": workload, "seed": seed, "trace": trace, "mode": "measure",
           "configs": [wl.config(seed, i) for i in range(calls)]}
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{workload}-seed{seed}")
    setups = []
    if trace:
        job["spans_path"] = stem + "-spans.npz"
    else:
        for _ in range(wl.n_setups - 1):
            t0, res = _run_worker(dict(job, mode="setup"), env, root, deadline)
            setups.append(res["ready_monotonic"] - t0)
    t0, res = _run_worker(job, env, root, deadline)
    setups.append(res["ready_monotonic"] - t0)

    checks = res["checks"]
    failed_checks = [c for c in checks if not c["ok"]]
    correct = not failed_checks
    if trace:
        layers = res["layers"]
        gap = abs(layers["trace.layer_sum_s"] - layers["trace.study_s"])
        if gap > 1e-6 * layers["trace.study_s"] + 1e-9:
            failed_checks.append({"name": "layer self times add up to the study time",
                                  "ok": False, "value": gap})
            correct = False
        metrics = {k: {"value": v, "unit": workloads.unit_of(k)}
                   for k, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "rep_steps_per_s": statistics.median(res["call_rates"]),
            "obs_us_p50": res["obs_us_p50"],
            "obs_us_p95": res["obs_us_p95"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": workloads.unit_of(k)}
                   for k, v in values.items()}
    summary = {
        "correct": correct,
        "attempted": res["operations"] + len(checks),
        "failed": res["failed_operations"] + len(failed_checks),
        "metrics": metrics,
    }
    detail = dict(summary, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, calls=calls, setup_samples=setups,
                  call_rates=res["call_rates"], call_seconds=res["call_seconds"],
                  import_s=res["import_s"], checks=checks,
                  obs_samples=res.get("obs_samples"),
                  obs_us={k: v for k, v in res.items() if k.startswith("obs_us_")})
    with open(f"{stem}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for c in checks:
        print(f"{'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['value']}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    err = workloads.check_seed(args.seed)
    if err is None and args.seconds < 1:
        err = "--seconds must be >= 1"
    root = os.getcwd()
    if err is None and not os.path.isfile(os.path.join(root, "src", "snewt", "__init__.py")):
        err = "run from the root of a snewt checkout: src/snewt is missing"
    if err is not None:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
