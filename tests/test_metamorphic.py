"""Metamorphic relations: exact relations between two runs of the engine.

A pinned value moves whenever the randomness changes; a relation between
two runs of the same code does not, so these tests need no pins.  Each one
catches a class of bugs that per-function references miss:

- noise scaling: with x* = 0, a linear study at 2 sigma equals the one at
  sigma with every iterate doubled and every covariance quadrupled, bit for
  bit (a factor 2 is exact in floating point), so a sigma that leaks into
  the ridge, the sweep tolerance or an estimator's weights shows;
- stack independence: replication r of a study does not depend on how many
  replications run beside it, so a gather or a stream that mixes
  replications shows;
- translation: moving a linearly constrained quadratic problem by s moves
  the constrained iterates by s and leaves the multipliers, the Hessian
  average and the estimates alone, up to roundoff, so a term of the
  objective or the constraints that a step drops or reads at the wrong
  point shows (noise scaling has no constrained form: the Hessian noise
  scales with sigma too, so the Hessian average changes);
- oracle equivariance: the ground truth Xi* moves with a change of
  coordinates, Q Xi*(B, Omega) Q^T = Xi*(Q B Q^T, Q Omega Q^T), for every
  permutation under every sketch whose truth is computed without sampling,
  and for every orthogonal Q under exact solves and q = 1 Gaussian
  sketches, so a coordinate mix-up in a closed form or a quadrature shows.
"""

import numpy as np
import pytest

from snewt.config import parse_config_string
from snewt.experiment import _CHUNK, _run_shard_sqp, run_experiment
from snewt.optimizer import StepsizeSchedule, run
from snewt.oracle import (c_star, lambda_matrix,
                          single_step_projection_expectation, xi_star)
from snewt.sketch import SketchDistribution, SketchSolveConfig
from snewt.sqp import quadratic_problem

D = 4

NEWTON_METHODS = {
    "exact": "solver = newton",
    "coordinate": "solver = newton\ntau = 2",
    "gaussian-q1": "solver = newton\ntau = 2\nsketch = gaussian",
    "gaussian-q2": "solver = newton\ntau = 2\nsketch = gaussian\ngaussian_q = 2",
}
METHODS = dict(NEWTON_METHODS, sgd="solver = sgd")


def _linear(method: str, sigma: float, n_reps: int = 6,
            x_star: str = "0, 0, 0, 0"):
    # 1500 steps cross a 256-step chunk boundary and end inside a 32-step
    # sub-block; the Newton studies run wsc and the plug-in, SGD batch means
    return parse_config_string(
        f"[problem]\nfamily = linear\nd = {D}\ndesign = equicorr\nr = 0.3\n"
        f"x_star = {x_star}\nsigma = {sigma}\n[method]\n{method}\n"
        f"[experiment]\nn_iters = 1500\nn_reps = {n_reps}\nbase_seed = 3\n"
        "record_every = 250\n")


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# noise scaling


@pytest.mark.parametrize("method", list(METHODS), ids=list(METHODS))
def test_doubling_sigma_doubles_iterates_and_quadruples_estimates(method):
    one = run_experiment(_linear(METHODS[method], 1.0))
    two = run_experiment(_linear(METHODS[method], 2.0))
    assert one.n_diverged == two.n_diverged == 0
    assert _same_bits(two.final_x, 2.0 * one.final_x)
    assert one.final_estimates.keys() == two.final_estimates.keys()
    for name, est in one.final_estimates.items():
        assert est is not None, name
        assert _same_bits(two.final_estimates[name], 4.0 * est), name
    # oracle, errors and interval hits: the same numbers at either scale
    assert _same_bits(two.oracle_omega, 4.0 * one.oracle_omega)
    if one.oracle_xi is not None:
        assert _same_bits(two.oracle_xi, 4.0 * one.oracle_xi)
    assert one.final_per_rep.keys() == two.final_per_rep.keys()
    for key, arr in one.final_per_rep.items():
        assert _same_bits(two.final_per_rep[key], arr), key
    assert one.rows == two.rows
    assert len(one.rows) == 6


# ---------------------------------------------------------------------------
# stack independence


def _eqqp_tau40(n_reps: int):
    return parse_config_string(
        "[problem]\nfamily = eqqp\nsigma2 = 0.01\n[method]\ntau = 40\n"
        f"[experiment]\nn_iters = 600\nn_reps = {n_reps}\nbase_seed = 5\n"
        "record_every = 200\n")


STACKED = {name: (lambda n, m=m: _linear(m, 1.0, n, "one_over_d"))
           for name, m in METHODS.items()}
STACKED["eqqp-tau40"] = _eqqp_tau40


@pytest.mark.parametrize("study", list(STACKED), ids=list(STACKED))
def test_a_replication_does_not_depend_on_the_stack(study):
    small, large = 5, 12
    a = run_experiment(STACKED[study](small))
    b = run_experiment(STACKED[study](large))
    assert a.n_reps == small and b.n_reps == large
    assert _same_bits(a.final_x, b.final_x[:small])
    if a.final_lam is None:
        assert b.final_lam is None
    else:
        assert _same_bits(a.final_lam, b.final_lam[:small])
    assert a.final_per_rep.keys() == b.final_per_rep.keys()
    for key, arr in a.final_per_rep.items():
        assert _same_bits(arr, b.final_per_rep[key][:small]), key


# ---------------------------------------------------------------------------
# translation of a linearly constrained problem

_A = np.array([[2.0, 0.4, 0.2], [0.4, 1.5, 0.3], [0.2, 0.3, 1.0]])
_B, _G, _H = np.array([0.5, -0.3, 0.2]), np.array([[1.0, 1.0, 0.0]]), -1.0
SHIFT = np.array([0.75, -1.5, 2.25])


def _plane(s):
    """min .5 x'Ax + b'x s.t. x_0 + x_1 = 1, moved by s: b -> b - A s,
    h -> h - G s, and x* and x0 -> + s (x0 = 0 unmoved)."""
    kkt = np.block([[_A, _G.T], [_G, np.zeros((1, 1))]])
    sol = np.linalg.solve(kkt, -np.append(_B, _H))
    return quadratic_problem("plane", _A, _B - _A @ s, _G, _H - _G @ s,
                             x_star=sol[:3] + s, lam_star=sol[3:], x0=s,
                             sigma2=0.01)


@pytest.mark.parametrize("tau", [None, 2], ids=["exact", "tau2"])
def test_moving_the_problem_moves_the_iterates_of_run(tau):
    cfg = SketchSolveConfig(dist=SketchDistribution(), tau=tau)

    def moved(s):
        xs = []
        final = run(_plane(s), cfg, StepsizeSchedule(), 2000, 7,
                    sinks=[lambda t, x, alpha: xs.append(x)])
        return final, np.array(xs)

    (one, path_one), (two, path_two) = moved(np.zeros(3)), moved(SHIFT)
    # every iterate, since an exact run forgets its start within 2000 steps
    assert np.abs(path_two - SHIFT - path_one).max() <= 1e-14
    assert np.abs(two.lam - one.lam).max() <= 1e-15
    # the Hessian of a quadratic does not depend on the point
    assert _same_bits(two.B, one.B)


@pytest.mark.parametrize("tau", ["exact", "2", "40"])
def test_moving_the_problem_moves_the_iterates_of_the_harness(tau):
    cfg = parse_config_string(
        f"[problem]\nfamily = eqqp\n[method]\ntau = {tau}\n[experiment]\n"
        "n_iters = 1300\nn_reps = 6\nbase_seed = 3\nrecord_every = 250\n")
    one = _run_shard_sqp(cfg, _plane(np.zeros(3)), None, None, _CHUNK)
    two = _run_shard_sqp(cfg, _plane(SHIFT), None, None, _CHUNK)
    assert one.n_diverged == two.n_diverged == 0
    assert np.abs(two.final_x - SHIFT - one.final_x).max() <= 1e-14
    assert np.abs(two.final_lam - one.final_lam).max() <= 1e-14
    est = one.final_estimates["wsc"]
    gap = np.abs(two.final_estimates["wsc"] - est).max() / np.abs(est).max()
    assert gap <= 1e-12
    # the intervals move with the target: the same hits
    for key, arr in one.final_per_rep.items():
        assert _same_bits(two.final_per_rep[key], arr), key
    assert one.rows == two.rows


# ---------------------------------------------------------------------------
# oracle equivariance


def _xi(B, omega, dist, tau, beta=0.505, c_beta=1.0):
    """Xi* from the oracle's own steps, as oracle_covariance takes them."""
    if tau is None:
        return xi_star(np.zeros_like(B), omega, beta, c_beta)
    P, _ = single_step_projection_expectation(B, dist)
    lam, _ = lambda_matrix(B, omega, dist, tau)
    return xi_star(c_star(P, tau), lam, beta, c_beta)


def _moments(seed: int):
    """A random SPD B and an unrelated random SPD Omega."""
    rng = np.random.default_rng(seed)
    A, C = rng.standard_normal((2, D, D))
    return A @ A.T + 0.5 * np.eye(D), C @ C.T + 0.5 * np.eye(D)


def _equivariance_gap(B, omega, Q, dist, tau) -> float:
    moved = _xi(Q @ B @ Q.T, omega=Q @ omega @ Q.T, dist=dist, tau=tau)
    back = Q @ _xi(B, omega, dist, tau) @ Q.T
    return float(np.abs(moved - back).max() / np.abs(back).max())


GAUSSIAN_Q1 = SketchDistribution(kind="gaussian")
SKETCHES = {
    "exact": (SketchDistribution(), None),
    "coordinate-tau1": (SketchDistribution(), 1),
    "coordinate-tau3": (SketchDistribution(), 3),
    "gaussian-q1-tau1": (GAUSSIAN_Q1, 1),
    "gaussian-q1-tau3": (GAUSSIAN_Q1, 3),
}


@pytest.mark.parametrize("sketch", list(SKETCHES), ids=list(SKETCHES))
def test_oracle_is_permutation_equivariant(sketch):
    dist, tau = SKETCHES[sketch]
    B, omega = _moments(1)
    for perm in ([3, 0, 2, 1], [1, 2, 3, 0]):
        P = np.eye(D)[perm]
        assert _equivariance_gap(B, omega, P, dist, tau) <= 1e-12


@pytest.mark.parametrize("sketch", ["exact", "gaussian-q1-tau1",
                                    "gaussian-q1-tau3"])
def test_oracle_is_rotation_equivariant(sketch):
    dist, tau = SKETCHES[sketch]
    B, omega = _moments(2)
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((D, D)))
    assert _equivariance_gap(B, omega, Q, dist, tau) <= 1e-12


def test_coordinate_sketches_are_not_rotation_equivariant():
    # the relation above has power: coordinate sketches pick the axes
    B, omega = _moments(2)
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((D, D)))
    assert _equivariance_gap(B, omega, Q, SketchDistribution(), 2) > 1e-2
