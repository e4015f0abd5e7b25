"""Tests of the benchmark's own references and tracer, on small inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_refs.py
"""

import sys
import types
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import refs
from tracer import Tracer


def _spd(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    return m @ m.T + d * np.eye(d)


# ---------------------------------------------------------------------------
# Xi* by enumerating coordinate sequences


def test_enumeration_on_identity_hessian_has_closed_form():
    # B = I: Pi_i = e_i e_i^T, so for tau = 1, C* = (1 - 1/d) I,
    # Lambda = diag(Omega) / d and Xi* = diag(Omega) / 2
    d = 3
    omega = _spd(d, 0)
    C, lam, xi = refs.xi_star_by_enumeration(np.eye(d), omega, tau=1)
    assert np.allclose(C, (1.0 - 1.0 / d) * np.eye(d), atol=1e-15)
    assert np.allclose(lam, np.diag(np.diag(omega)) / d, atol=1e-14)
    assert np.allclose(xi, np.diag(np.diag(omega)) / 2.0, atol=1e-13)


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_enumerated_c_star_is_the_power_of_the_mean_residual(tau):
    d = 4
    B = _spd(d, 1)
    omega = _spd(d, 2)
    C, lam, xi = refs.xi_star_by_enumeration(B, omega, tau)
    P = refs.coordinate_projectors(B).mean(axis=0)
    assert np.allclose(C, np.linalg.matrix_power(np.eye(d) - P, tau), atol=1e-13)
    assert refs.lyapunov_rel_residual(xi, C, lam, 0.0) <= 1e-12
    assert np.allclose(xi, xi.T, atol=1e-12)


def test_enumeration_matches_sampled_sequences():
    d, tau = 3, 2
    B = _spd(d, 3)
    omega = _spd(d, 4)
    _, lam, _ = refs.xi_star_by_enumeration(B, omega, tau)
    resid = np.eye(d)[None] - refs.coordinate_projectors(B)
    rng = np.random.default_rng(5)
    acc = np.zeros((d, d))
    n = 20_000
    for seq in rng.integers(0, d, size=(n, tau)):
        ct = np.eye(d)
        for i in seq:
            ct = resid[i] @ ct
        m = np.eye(d) - ct
        acc += m @ omega @ m.T
    assert np.abs(acc / n - lam).max() <= 0.05 * np.abs(lam).max()


def test_one_dimensional_sketch_is_an_exact_solve():
    # d = 1: every projector is the identity, so C* = 0, Lambda = Omega and
    # Xi* = Omega / (2 - delta)
    omega = np.array([[2.5]])
    for delta in (0.0, 0.5):
        C, lam, xi = refs.xi_star_by_enumeration(np.array([[3.0]]), omega, 2, delta)
        assert np.allclose(C, 0.0) and np.allclose(lam, omega)
        assert np.allclose(xi, omega / (2.0 - delta))


# ---------------------------------------------------------------------------
# two-pass weighted covariance


def test_two_pass_weighted_covariance_matches_its_definition():
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((50, 3))
    w = rng.uniform(0.5, 3.0, size=50)
    xbar = xs.mean(axis=0)
    direct = sum(wi * np.outer(x - xbar, x - xbar) for x, wi in zip(xs, w)) / 50
    assert np.allclose(refs.weighted_cov_two_pass(xs, w), direct, atol=1e-14)
    assert np.allclose(refs.weighted_cov_two_pass(xs, np.ones(50)),
                       np.cov(xs.T, bias=True), atol=1e-14)


# ---------------------------------------------------------------------------
# closed-form eqqp x*


def test_eqqp_x_star_solves_the_kkt_system():
    A = np.array([[2.0, 0.4, 0.2], [0.4, 1.5, 0.3], [0.2, 0.3, 1.0]])
    b = np.array([0.5, -0.3, 0.2])
    x = refs.eqqp_x_star(A, b, fixed=0, value=1.0)
    kkt = np.zeros((4, 4))
    kkt[:3, :3] = A
    kkt[:3, 3] = kkt[3, :3] = [1.0, 0.0, 0.0]
    sol = np.linalg.solve(kkt, np.concatenate([-b, [1.0]]))
    assert x[0] == 1.0
    assert np.allclose(x, sol[:3], atol=1e-14)
    grad = A @ x + b
    assert np.allclose(grad[1:], 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# vectorised E[Pi] for the Gaussian sketch


@pytest.mark.parametrize("q", [1, 2])
def test_gaussian_projection_mean_on_identity_is_q_over_d(q):
    d = 4
    mean, se = refs.gaussian_projection_mean(np.eye(d), q, 40_000,
                                             np.random.default_rng(7), chunk=7_000)
    z = np.abs(mean - (q / d) * np.eye(d)) / np.maximum(se, 1e-12)
    assert z.max() <= 5.0
    assert se.max() <= 0.01


def test_gaussian_projection_mean_matches_a_per_sample_loop():
    d, q, n = 3, 1, 500
    B = _spd(d, 8)
    mean, _ = refs.gaussian_projection_mean(B, q, n, np.random.default_rng(9))
    S = np.random.default_rng(9).standard_normal((n, d, q))
    loop = np.zeros((d, d))
    for s in S:
        w = B @ s
        loop += w @ np.linalg.pinv(w.T @ w) @ w.T
    assert np.allclose(mean, loop / n, atol=1e-13)


def test_projection_mean_round_trips_through_c_star():
    d = 4
    P = refs.coordinate_projectors(_spd(d, 10)).mean(axis=0)
    for tau in (1, 2, 3):
        C = np.linalg.matrix_power(np.eye(d) - P, tau)
        assert np.allclose(refs.projection_mean_from_c_star(C, tau), P, atol=1e-10)


# ---------------------------------------------------------------------------
# tracer


def _toy_module():
    mod = types.ModuleType("perfbench_toy")
    mod.leaf = lambda n: sum(range(n))
    # middle looks leaf up on the module at call time, as snewt's code does
    mod.middle = lambda n: mod.leaf(n) + mod.leaf(n)
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer_self_times_add_up_to_the_root_and_restore():
    mod = _toy_module()
    original_leaf = mod.leaf
    tracer = Tracer()
    assert tracer.wrap("perfbench_toy:leaf", "leaf",
                       ("leaf.n", lambda fn: lambda a, k: a[0]))
    assert tracer.wrap("perfbench_toy:middle", "middle")
    for _ in range(3):
        tracer.span("root", mod.middle, 1000)
    tracer.restore()
    assert mod.leaf is original_leaf
    self_s, calls, root_s = tracer.self_times("root")
    assert calls == {"leaf": 6, "middle": 3, "root": 3}
    assert tracer.counts["leaf.n"] == 6000
    assert abs(sum(self_s.values()) - root_s) <= 1e-9
    assert all(v >= 0.0 for v in self_s.values())


def test_tracer_drops_a_missing_target_with_a_warning():
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not tracer.wrap("perfbench_toy:no_such_function", "gone")
        assert not tracer.wrap("no_such_module_for_perfbench:f", "gone")
    assert len(caught) == 2
    assert tracer.missing == ["perfbench_toy:no_such_function",
                              "no_such_module_for_perfbench:f"]
    assert tracer.self_times("gone") == ({}, {}, 0.0)


def test_timed_generators_record_every_draw():
    tracer = Tracer()
    holder = types.ModuleType("perfbench_toy_streams")

    class Streams(NamedTuple):
        a: np.random.Generator
        b: np.random.Generator

        @classmethod
        def from_seed(cls, seed):
            return cls(*(np.random.default_rng(s) for s in (seed, seed + 1)))

    holder.Streams = Streams
    sys.modules[holder.__name__] = holder
    assert tracer.wrap_generators("perfbench_toy_streams:Streams", "draw")
    a, b = tracer.span("root", lambda: holder.Streams.from_seed(3))
    x = tracer.span("root", lambda: a.standard_normal(4))
    tracer.restore()
    assert holder.Streams is Streams
    assert np.array_equal(x, np.random.default_rng(3).standard_normal(4))
    _, calls, _ = tracer.self_times("root")
    assert calls["draw"] == 1
