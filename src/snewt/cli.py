"""Command-line interface.

Three subcommands:

``snewt oracle <cfg>``
    Compute and print the ground-truth matrices for the configured
    problem/method (limiting covariance, sandwich covariance, residual
    operator), with Monte-Carlo standard errors where sampling was needed.
``snewt run <cfg>``
    Run the configured Monte-Carlo study and write the per-checkpoint
    aggregate CSV and the final summary CSV.
``snewt slope <csv> [--tail 0.3] [--column rel_cov_err_wsc]``
    Least-squares slope of log(column) against log(t) over the last
    fraction of rows of an aggregate CSV.

Exit codes: 0 success, 2 configuration/usage error, 3 divergence in at
least half of the replications, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from .config import ConfigError, parse_config
from .experiment import (_SUFFIX, run_experiment, write_aggregate_csv,
                         write_summary_csv)
from .oracle import omega_star, oracle_covariance

__all__ = ["main", "tail_slope", "EXIT_OK", "EXIT_CONFIG", "EXIT_DIVERGED",
           "EXIT_IO"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _format_matrix(name: str, mat: np.ndarray) -> str:
    lines = [name]
    for row in np.atleast_2d(mat):
        lines.append("  " + " ".join(format(v, ".12g") for v in row))
    return "\n".join(lines)


def _print_matrices(matrices: Dict[str, np.ndarray],
                    stderrs: Dict[str, np.ndarray]) -> None:
    for name, mat in matrices.items():
        print(_format_matrix(name, mat))
    if stderrs:
        print("monte-carlo standard errors (max over entries):")
        for key, err in stderrs.items():
            print(f"  {key}: {format(float(np.max(np.abs(err))), '.3g')}")
    else:
        print("monte-carlo standard errors: none (closed form)")


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    if cfg.problem.is_constrained:
        raise ConfigError(
            f"[problem] family = {cfg.problem.family}: no closed-form ground "
            "truth for constrained problems (measure one with the library's "
            "sqp_empirical_xi helper)")
    problem = cfg.build_problem()
    schedule = cfg.build_schedule()
    if cfg.method.solver == "sgd":
        omega = omega_star(problem)
        _print_matrices({"omega_star": omega}, {})
        print("solver = sgd: the averaged iterate has sandwich covariance "
              "omega_star; xi_star and c_star apply to the Newton solver")
        matrices = {"omega_star": omega}
    else:
        solve_cfg = cfg.build_solve_config()
        oc = oracle_covariance(problem, solve_cfg.dist, solve_cfg.tau,
                               schedule.beta, schedule.c_beta)
        matrices = {"xi_star": oc.xi, "omega_star": oc.omega,
                    "c_star": oc.c_star}
        _print_matrices(matrices, oc.mc_stderr)
    prefix = cfg.output.oracle_prefix
    if prefix:
        for name, mat in matrices.items():
            np.savetxt(f"{prefix}{name}.txt", np.atleast_2d(mat), fmt="%.12g")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    result = run_experiment(cfg)
    write_aggregate_csv(result, cfg.output.aggregate)
    write_summary_csv(result, cfg.output.summary)
    print(f"wrote {cfg.output.aggregate} ({len(result.rows)} checkpoints) "
          f"and {cfg.output.summary}")
    for name in cfg.experiment.estimators:
        suffix = _SUFFIX[name]
        cov = result.final.get("cov_" + suffix)
        err = result.final.get("rel_cov_err_" + suffix)
        parts = [f"{name}:"]
        if cov is not None:
            parts.append(f"coverage={cov:.3f}")
        if err is not None:
            parts.append(f"rel_cov_err={err:.4g}")
        print("  " + " ".join(parts))
    if result.diverged_majority:
        print(
            f"divergence: {result.n_diverged} of {result.n_reps} "
            "replications tripped the iterate-norm guard; aggregates cover "
            "the surviving replications only",
            file=sys.stderr)
        return EXIT_DIVERGED
    if result.n_diverged:
        print(f"note: {result.n_diverged} of {result.n_reps} replications "
              "diverged and were excluded", file=sys.stderr)
    return EXIT_OK


def tail_slope(ts: Sequence[float], values: Sequence[float],
               tail: float) -> float:
    """Least-squares slope of log(values) vs log(ts) over the last rows.

    The window is the last ceil(tail * n) rows, never fewer than two;
    every t and value in it must be finite and positive.
    """
    if not 0.0 < tail <= 1.0:
        raise ConfigError(f"tail fraction must lie in (0, 1], got {tail}")
    n = len(ts)
    n_tail = max(2, math.ceil(tail * n))
    if n < 2 or n_tail > n:
        raise ConfigError(f"too few rows for a slope fit (have {n})")
    t_arr = np.asarray(ts[-n_tail:], dtype=float)
    v_arr = np.asarray(values[-n_tail:], dtype=float)
    if not (np.isfinite(t_arr).all() and np.isfinite(v_arr).all()):
        raise ConfigError("slope fit needs finite t and column values "
                          "(the tail holds nan or inf)")
    if np.any(t_arr <= 0.0) or np.any(v_arr <= 0.0):
        raise ConfigError("slope fit needs positive t and column values")
    return float(np.polyfit(np.log(t_arr), np.log(v_arr), 1)[0])


def _cmd_slope(args: argparse.Namespace) -> int:
    with open(args.csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames
        if fields is None or "t" not in fields:
            raise ConfigError(f"{args.csv}: not an aggregate CSV (no 't' "
                              "column in header)")
        if args.column not in fields:
            raise ConfigError(f"{args.csv}: no column {args.column!r} "
                              f"(have: {', '.join(fields)})")
        ts: List[float] = []
        vals: List[float] = []
        for row in reader:
            cell = row[args.column]
            if cell is None or cell == "":
                continue
            try:
                ts.append(float(row["t"]))
                vals.append(float(cell))
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{args.csv}: line {reader.line_num}: t = {row['t']!r}, "
                    f"{args.column} = {cell!r} is not a number") from None
    slope = tail_slope(ts, vals, args.tail)
    print(format(slope, ".12g"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snewt",
        description="Online sketched-Newton studies with running "
                    "covariance estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = sub.add_parser(
        "oracle", help="print ground-truth covariance matrices for a config")
    p_oracle.add_argument("config", help="path to a study config file")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_run = sub.add_parser(
        "run", help="run the configured study and write CSV outputs")
    p_run.add_argument("config", help="path to a study config file")
    p_run.set_defaults(func=_cmd_run)

    p_slope = sub.add_parser(
        "slope", help="log-log tail slope of a column of an aggregate CSV")
    p_slope.add_argument("csv", help="aggregate CSV written by 'snewt run'")
    p_slope.add_argument("--tail", type=float, default=0.3,
                         help="fraction of trailing rows to fit (default 0.3)")
    p_slope.add_argument("--column", default="rel_cov_err_wsc",
                         help="column to fit (default rel_cov_err_wsc)")
    p_slope.set_defaults(func=_cmd_slope)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
