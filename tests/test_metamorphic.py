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
- oracle equivariance: the ground truth Xi* moves with a change of
  coordinates, Q Xi*(B, Omega) Q^T = Xi*(Q B Q^T, Q Omega Q^T), for every
  permutation under every sketch whose truth is computed without sampling,
  and for every orthogonal Q under exact solves and q = 1 Gaussian
  sketches, so a coordinate mix-up in a closed form or a quadrature shows.
"""

import numpy as np
import pytest

from snewt.config import parse_config_string
from snewt.experiment import run_experiment
from snewt.oracle import (c_star, lambda_matrix,
                          single_step_projection_expectation, xi_star)
from snewt.sketch import SketchDistribution

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
