#!/usr/bin/env python3
"""Compare the study outputs of two snewt source trees.

    python scripts/compare_trees.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``snewt`` package (a
checkout's ``src/``).  Each tree runs the fixed list of studies in CONFIGS
and the sequential runs in SEQUENTIAL in its own interpreter; then, per
study and output, the script prints whether the two trees' outputs are
bit-identical and, where they are not, the largest relative difference.
The exit status is 0 when every output of every study is bit-identical,
and 1 otherwise.

For the studies (run_experiment) the outputs compared are final_x,
final_lam, each final estimate, the per-replication final metrics, every
checkpoint row and n_diverged.  The list covers both model families with
exact, coordinate-sketch and Gaussian-sketch solves, the averaged-SGD
baseline with batch means, the three constrained problems with exact and
sketched KKT solves, a Newton study at ci_level = 0.9 and an SGD study
with ci_direction = coord:1, and a lowered divergence guard under which
some replications freeze and others do not.

The sequential runs call optimizer.run on both model families (exact,
coordinate and Gaussian solves) and on constrained problems (eqqp with
exact, coordinate and Gaussian solves, and hs7, whose nonzero constraint
Hessian enters the multiplier-weighted Lagrangian Hessian, with coordinate
sketches and exact solves; the sketched ones at tau = 2), with the
problem, solve config and schedule a config builds, n_iters, an int seed
and a sink that records each (t, x_t, alpha).  A tree that still has
sqp.run_sqp, whose problems did not hold their noise, runs the
constrained ones through run_sqp(problem, sigma2, ...) with the config's
sigma2 instead, so older trees compare too.  The outputs are the final x,
B and lam, every sink record, and the step at which the run diverged (0
when it did not).  All of it takes about eight seconds per tree on a
2-core x86 VM.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from typing import Optional, Tuple

import numpy as np

# n_iters crosses chunk boundaries (at 256 and at 1024 steps alike) and
# ends inside a 32-step sub-block
_EXPERIMENT = """
[experiment]
n_iters = 1300
n_reps = 6
base_seed = {seed}
record_every = 250
"""

_SKETCHES = (
    ("exact", ""),
    ("tau2-coordinate", "tau = 2\n"),
    ("tau2-gaussian-q2", "tau = 2\nsketch = gaussian\ngaussian_q = 2\n"),
)


def _config(problem: str, method: str, seed: int, experiment: str = "") -> str:
    return (f"[problem]\n{problem}\n[method]\n{method}\n"
            + _EXPERIMENT.format(seed=seed) + experiment)


def _configs():
    """(name, INI text, divergence guard or None for the default).

    Schedules and estimators are each solver's defaults: the uniform band
    with wsc and plug-in for Newton, the deterministic rule with batch
    means for SGD, and wsc alone for constrained problems.
    """
    out = []
    for family in ("linear", "logistic"):
        for i, (tag, method) in enumerate(_SKETCHES):
            out.append((f"{family}-d4-{tag}",
                        _config(f"family = {family}\nd = 4\n"
                                "design = equicorr\nr = 0.3",
                                "solver = newton\n" + method, 10 + i),
                        None))
    out.append(("linear-d4-sgd-batchmeans",
                _config("family = linear\nd = 4", "solver = sgd", 20),
                None))
    for family in ("eqqp", "maratos", "hs7"):
        for i, (tag, method) in enumerate(_SKETCHES[:2]):
            out.append((f"{family}-{tag}",
                        _config(f"family = {family}\nsigma2 = 0.01",
                                "solver = newton\n" + method, 30 + i),
                        None))
    # a non-default interval level and direction
    out.append(("linear-d4-tau2-level0.9",
                _config("family = linear\nd = 4", "solver = newton\ntau = 2",
                        21, "ci_level = 0.9\n"),
                None))
    out.append(("linear-d4-sgd-coord1",
                _config("family = linear\nd = 4", "solver = sgd", 22,
                        "ci_direction = coord:1\n"),
                None))
    # guards under which the early iterates of some replications (2 of 6
    # and 4 of 6) trip the guard and freeze, while the rest stay alive
    out.append(("linear-d4-tau2-lowered-guard",
                _config("family = linear\nd = 4", "solver = newton\ntau = 2",
                        40), 1.5))
    out.append(("eqqp-tau2-lowered-guard",
                _config("family = eqqp\nsigma2 = 0.01",
                        "solver = newton\ntau = 2", 41), 3.4))
    return out


CONFIGS = _configs()


def _sequential():
    """(name, INI text): single runs of optimizer.run."""
    out = []
    for family in ("linear", "logistic"):
        for i, (tag, method) in enumerate(_SKETCHES):
            out.append((f"run:{family}-d4-{tag}",
                        _config(f"family = {family}\nd = 4\n"
                                "design = equicorr\nr = 0.3",
                                "solver = newton\n" + method, 50 + i)))
    for i, (tag, method) in enumerate(_SKETCHES):
        out.append((f"run:eqqp-{tag}",
                    _config("family = eqqp\nsigma2 = 0.01",
                            "solver = newton\n" + method, 60 + i)))
    # eqqp's constraint Hessian is zero; hs7's is not, so these runs move
    # the multiplier-weighted Lagrangian Hessian, sketched and exactly
    out.append(("run:hs7-tau2-coordinate",
                _config("family = hs7\nsigma2 = 0.01",
                        "solver = newton\ntau = 2", 63)))
    out.append(("run:hs7-exact",
                _config("family = hs7\nsigma2 = 0.01", "solver = newton", 64)))
    return out


SEQUENTIAL = _sequential()


# ---------------------------------------------------------------------------
# one tree: run every study, pickle its outputs


def _outputs(result, columns) -> dict:
    out = {
        "final_x": result.final_x,
        "final_lam": result.final_lam,
        "n_diverged": result.n_diverged,
        "rows": [[row[c] for c in columns] for row in result.rows],
    }
    for name, est in result.final_estimates.items():
        out["final_estimates." + name] = est
    for name, arr in result.final_per_rep.items():
        out["final_per_rep." + name] = arr
    return out


def _sequential_outputs(cfg) -> dict:
    import snewt.sqp as sqp
    from snewt.optimizer import DivergenceError, run

    problem = cfg.build_problem()
    solve_cfg = cfg.build_solve_config()
    schedule = cfg.build_schedule()
    n_iters, seed = cfg.experiment.n_iters, cfg.experiment.base_seed
    records = []

    def sink(t, x, alpha):
        records.append((t, x.copy(), alpha))

    final, diverged_at = None, 0
    try:
        if cfg.problem.is_constrained and hasattr(sqp, "run_sqp"):
            final = sqp.run_sqp(problem, cfg.problem.sigma2, solve_cfg,
                                schedule, n_iters, seed, sinks=[sink])
        else:
            final = run(problem, solve_cfg, schedule, n_iters, seed,
                        sinks=[sink])
    except DivergenceError as exc:
        diverged_at = exc.t
    return {
        "final_x": None if final is None else final.x,
        "final_B": None if final is None else final.B,
        "final_lam": getattr(final, "lam", None),
        "records.t": np.array([t for t, _, _ in records], dtype=float),
        "records.x": np.array([x for _, x, _ in records]),
        "records.alpha": np.array([a for _, _, a in records]),
        "diverged_at": diverged_at,
        "n_diverged": int(diverged_at > 0),
    }


def _worker(path: str) -> None:
    # the tree under test, which _run_tree puts on PYTHONPATH
    import snewt.experiment as experiment
    from snewt.config import parse_config_string

    default_guard = experiment._DIVERGENCE_NORM
    results = {}
    for name, text, guard in CONFIGS:
        experiment._DIVERGENCE_NORM = default_guard if guard is None else guard
        result = experiment.run_experiment(parse_config_string(text))
        results[name] = _outputs(result, experiment.AGGREGATE_COLUMNS)
    for name, text in SEQUENTIAL:
        results[name] = _sequential_outputs(parse_config_string(text))
    with open(path, "wb") as fh:
        pickle.dump({"snewt": experiment.__file__, "results": results}, fh)


def _run_tree(src: str, path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                    path], env=env, check=True)
    with open(path, "rb") as fh:
        data = pickle.load(fh)
    where = os.path.dirname(os.path.dirname(os.path.abspath(data["snewt"])))
    if where != os.path.abspath(src):
        raise SystemExit(f"{src}: imported snewt from {where} instead")
    return data["results"]


# ---------------------------------------------------------------------------
# comparison


def _as_array(value) -> np.ndarray:
    if isinstance(value, list):  # checkpoint rows: floats, None when empty
        value = [[np.nan if v is None else v for v in row] for row in value]
    return np.asarray(value, dtype=float)


def _compare(a, b) -> Tuple[bool, Optional[float]]:
    """(bit-identical, largest relative difference where it can be taken)."""
    if a is None or b is None:
        return a is None and b is None, None
    x, y = _as_array(a), _as_array(b)
    if x.shape != y.shape:
        return False, None
    if x.tobytes() == y.tobytes():
        return True, None
    fin = np.isfinite(x)
    if not np.array_equal(fin, np.isfinite(y)):
        return False, None
    scale = max(float(np.abs(y[fin]).max(initial=0.0)), 1e-300)
    return False, float(np.abs(x[fin] - y[fin]).max(initial=0.0)) / scale


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--worker":
        _worker(argv[2])
        return 0
    if len(argv) != 3:
        print("usage: compare_trees.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        old = _run_tree(argv[1], os.path.join(tmp, "old.pkl"))
        new = _run_tree(argv[2], os.path.join(tmp, "new.pkl"))
    all_same = True
    for name in [c[0] for c in CONFIGS + SEQUENTIAL]:
        keys = sorted(set(old[name]) | set(new[name]))
        diffs = []
        for key in keys:
            same, rel = _compare(old[name].get(key), new[name].get(key))
            if not same:
                diffs.append(f"{key} (max rel diff "
                             f"{'n/a' if rel is None else f'{rel:.3g}'})")
        all_same &= not diffs
        status = ("bit-identical" if not diffs
                  else "DIFFERS: " + ", ".join(diffs))
        print(f"{name:32s} n_diverged={new[name]['n_diverged']}  {status}")
    print("all outputs bit-identical" if all_same else "outputs differ")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
