"""The benchmark's workloads: what each runs, and the configs it feeds snewt.

Standard library only: the parent process imports this module without
importing numpy or snewt.

Seeds.  Replication r of a study with base seed b draws from the streams
seeded b XOR r.  Base seeds here are multiples of SEED_STRIDE, a power of
two no smaller than any workload's replication count, so b XOR r = b + r
and two different base seeds can never share a stream.  The workload seed
and the index of the study call inside a run select the multiple, so every
call of every run draws streams that no other call draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

SEED_STRIDE = 256
MAX_CALLS = 1024

# the correlated linear problem of the headline study (scripts/configs/
# mean_functional.ini), stated here so the references do not read it back
# from the program
LINEAR_D = 5
LINEAR_R = 0.3
LINEAR_SIGMA = 1.0
LINEAR_X_STAR = tuple(1.0 / LINEAR_D for _ in range(LINEAR_D))

# eqqp: min 0.5 x'Ax + b'x subject to x_0 = 1 (scripts/configs/constrained.ini)
EQQP_A = ((2.0, 0.4, 0.2), (0.4, 1.5, 0.3), (0.2, 0.3, 1.0))
EQQP_B = (0.5, -0.3, 0.2)
EQQP_INACTIVE = (1, 2)

CI_LEVEL = 0.95

_LINEAR_PROBLEM = f"""\
[problem]
family = linear
d = {LINEAR_D}
design = equicorr
r = {LINEAR_R!r}
sigma = {LINEAR_SIGMA!r}
x_star = {",".join(repr(v) for v in LINEAR_X_STAR)}
"""

_SCHEDULE = """\
[schedule]
c_beta = 1.0
beta = 0.505
c_chi = 1.0
chi = 1.01
mode = uniform_band
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "study" (run_experiment) or "stream" (optimizer.run)
    problem: str              # [problem] section
    method: str               # [method] section body
    estimators: str
    ci_direction: str
    n_iters: int
    n_reps: int
    record_every: int
    call_s: float             # nominal seconds of one study call; sets calls per run
    n_setups: int             # cold set-ups per untraced run (median reported)
    why: str

    def calls(self, seconds: int) -> int:
        """Study calls per run: a whole number fixed by the run length."""
        return max(2, min(MAX_CALLS, int(round(seconds / self.call_s))))

    def base_seed(self, seed: int, call: int) -> int:
        if not 0 <= call < MAX_CALLS:
            raise ValueError("call index out of range")
        return (seed * MAX_CALLS + call) * SEED_STRIDE

    def config(self, seed: int, call: int) -> str:
        """INI text of study call `call` of a run with workload seed `seed`."""
        return (self.problem
                + f"\n[method]\nsolver = newton\n{self.method}\n"
                + "\n" + _SCHEDULE
                + "\n[experiment]\n"
                + f"n_iters = {self.n_iters}\n"
                + f"n_reps = {self.n_reps}\n"
                + f"base_seed = {self.base_seed(seed, call)}\n"
                + f"record_every = {self.record_every}\n"
                + f"ci_level = {CI_LEVEL!r}\n"
                + f"ci_direction = {self.ci_direction}\n"
                + f"estimators = {self.estimators}\n")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="headline_kaczmarz",
            kind="study",
            problem=_LINEAR_PROBLEM,
            method="tau = 2\nsketch = kaczmarz",
            estimators="wsc, plugin",
            ci_direction="mean",
            n_iters=4096, n_reps=200, record_every=1024,
            call_s=1.2, n_setups=7,
            why="headline study, batched engine: dispatch, sample formation, "
                "estimator updates and checkpoints dominate; closed-form oracle",
        ),
        Workload(
            name="constrained_sqp",
            kind="study",
            problem="[problem]\nfamily = eqqp\nsigma2 = 0.01\n",
            method="tau = 40\nsketch = kaczmarz",
            estimators="wsc",
            ci_direction="inactive",
            n_iters=1024, n_reps=200, record_every=512,
            call_s=2.6, n_setups=7,
            why="sketched SQP at tau=40: the batched coordinate sweep dominates "
                "and per-chunk index blocks set the peak memory",
        ),
        Workload(
            name="gaussian_sketch",
            kind="study",
            problem=_LINEAR_PROBLEM,
            method="tau = 2\nsketch = gaussian\ngaussian_q = 1",
            estimators="wsc, plugin",
            ci_direction="mean",
            n_iters=4096, n_reps=100, record_every=1024,
            call_s=1.0, n_setups=3,
            why="Gaussian sketch: the Monte-Carlo oracle dominates set-up; "
                "the only user of the batched Gaussian sweep",
        ),
        Workload(
            name="stream_library",
            kind="stream",
            problem=_LINEAR_PROBLEM,
            method="tau = 2\nsketch = kaczmarz",
            estimators="wsc",
            ci_direction="mean",
            n_iters=4096, n_reps=1, record_every=1024,
            call_s=0.6, n_setups=7,
            why="headline problem through the sequential library path: "
                "optimizer.run, WscInverseTracker sink, intervals at checkpoints",
        ),
    )
}


def check_seed(seed: int) -> Optional[str]:
    """Error text for a workload seed the seed map cannot take, else None."""
    if seed < 0:
        return "--seed must be >= 0"
    if seed > (2 ** 62) // (MAX_CALLS * SEED_STRIDE):
        return "--seed is too large"
    return None


def unit_of(metric: str) -> str:
    """Unit of a reported metric, from its name."""
    special = {"rep_steps_per_s": "1/s", "covariance.tracker_fallbacks": "ratio",
               "oracle.mc_stderr_max": "1"}
    if metric in special:
        return special[metric]
    if "_us_p" in metric:
        return "us"
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_pct", "%")):
        if metric.endswith(suffix):
            return unit
    return "count"
