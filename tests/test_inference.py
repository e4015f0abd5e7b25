"""Tests for quantiles, confidence intervals, and confidence regions."""

import numpy as np
import pytest

from snewt.inference import (
    ConfidenceInterval,
    chi2_cdf,
    chi2_quantile,
    confidence_region,
    directional_ci,
    normal_cdf,
    normal_quantile,
)


# ---------------------------------------------------------------------------
# quantiles


def test_normal_quantile_reference_values():
    assert abs(normal_quantile(0.975) - 1.959963985) < 1e-8
    assert abs(normal_quantile(0.5)) < 1e-12
    assert abs(normal_quantile(0.8413447461) - 1.0) < 1e-8
    assert abs(normal_quantile(0.25) + normal_quantile(0.75)) < 1e-12


def test_chi2_quantile_two_dof_closed_form():
    # with 2 degrees of freedom the quantile is -2 log(1 - p)
    assert abs(chi2_quantile(0.95, 2) - 5.991464547) < 1e-8
    for p in (0.1, 0.5, 0.9, 0.99):
        assert abs(chi2_quantile(p, 2) + 2.0 * np.log1p(-p)) < 1e-10


def test_chi2_one_dof_is_squared_normal():
    for p in (0.5, 0.8, 0.9, 0.95, 0.99):
        z = normal_quantile(0.5 + 0.5 * p)
        assert abs(chi2_quantile(p, 1) - z * z) < 1e-8


# Reference values from mpmath 1.3.0 at 50 significant digits, rounded to
# 17: the quantile is mpmath.findroot on the regularized lower incomplete
# gamma, gammainc(d/2, 0, x/2, regularized=True) - p, and the CDF is that
# gammainc itself.  Odd and even d, up to a few hundred.
_CHI2_QUANTILES = {
    (1, 0.5): 0.45493642311957275,
    (1, 0.95): 3.8414588206941245,
    (1, 0.99): 6.6348966010212136,
    (2, 0.5): 1.3862943611198906,
    (2, 0.95): 5.9914645471079802,
    (2, 0.99): 9.210340371976181,
    (5, 0.5): 4.3514601910955273,
    (5, 0.95): 11.070497693516352,
    (5, 0.99): 15.086272469388988,
    (51, 0.5): 50.334904848322712,
    (51, 0.95): 68.669293912285791,
    (51, 0.99): 77.385962016137255,
    (400, 0.5): 399.33353122493135,
    (400, 0.95): 447.63246783080842,
    (400, 0.99): 468.7244983740365,
}
_CHI2_CDFS = {
    (1, 3.0): 0.9167354833364496,
    (2, 3.0): 0.77686983985157017,
    (5, 0.5): 0.0078767067673704078,
    (5, 10.0): 0.92476475385348782,
    (51, 10.0): 7.0178091329724399e-11,
    (51, 60.0): 0.81824007075265888,
    (400, 60.0): 3.7039223430631681e-93,
    (400, 420.0): 0.76396967450115385,
}


@pytest.mark.parametrize("d, p", list(_CHI2_QUANTILES))
def test_chi2_quantile_reference_values(d, p):
    assert abs(chi2_quantile(p, d) - _CHI2_QUANTILES[d, p]) < 1e-9


@pytest.mark.parametrize("d, x", list(_CHI2_CDFS))
def test_chi2_cdf_reference_values(d, x):
    assert abs(chi2_cdf(x, d) - _CHI2_CDFS[d, x]) < 1e-9


def test_chi2_degrees_of_freedom_are_integers():
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError, match="integer >= 1"):
            chi2_cdf(1.0, bad)


def test_cdf_quantile_round_trips():
    for p in (0.05, 0.3, 0.5, 0.7, 0.95, 0.999):
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-10
        for d in (1, 2, 5, 10):
            assert abs(chi2_cdf(chi2_quantile(p, d), d) - p) < 1e-9


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)
        with pytest.raises(ValueError):
            chi2_quantile(bad, 2)
    with pytest.raises(ValueError):
        chi2_quantile(0.95, 0)
    assert chi2_cdf(-1.0, 2) == 0.0  # mass below zero is zero, not an error


# ---------------------------------------------------------------------------
# directional confidence intervals


def test_directional_ci_hand_example():
    ci = directional_ci(np.array([1.0, 1.0]), alpha=0.01, xi_hat=np.eye(2),
                        w=np.array([1.0, 0.0]))
    assert ci.center == 1.0
    assert abs(ci.half_width - 0.1959964) < 1e-7
    assert ci.level == 0.95
    assert abs(ci.lo - (1.0 - ci.half_width)) < 1e-15
    assert abs(ci.hi - (1.0 + ci.half_width)) < 1e-15
    assert ci.contains(1.0) and ci.contains(ci.lo) and ci.contains(ci.hi)
    assert not ci.contains(1.3)


def test_half_width_scales_with_sqrt_alpha():
    x = np.array([0.0, 0.0])
    w = np.array([0.6, 0.8])
    xi = np.array([[2.0, 0.1], [0.1, 1.0]])
    a = directional_ci(x, 0.02, xi, w)
    b = directional_ci(x, 0.04, xi, w)
    assert abs(b.half_width - np.sqrt(2.0) * a.half_width) < 1e-12


def test_wider_level_gives_nested_interval():
    x = np.array([0.3])
    xi = np.array([[1.0]])
    w = np.array([1.0])
    narrow = directional_ci(x, 0.01, xi, w, level=0.95)
    wide = directional_ci(x, 0.01, xi, w, level=0.99)
    assert wide.half_width > narrow.half_width
    assert wide.lo < narrow.lo and narrow.hi < wide.hi


def test_negative_quadratic_form_is_clamped_and_counted():
    ci = directional_ci(np.array([1.0]), 0.5, np.array([[-1.0]]),
                        np.array([1.0]))
    assert ci.half_width == 0.0
    assert ci.clamped is True
    ok = directional_ci(np.array([1.0]), 0.5, np.array([[1.0]]),
                        np.array([1.0]))
    assert ok.clamped is False and ok.half_width > 0.0


def test_stacked_interval_equals_its_rows():
    rng = np.random.default_rng(3)
    R, d = 5, 3
    A = rng.standard_normal((R, d, d))
    xi = A @ A.swapaxes(-1, -2)
    xi[1] = -np.eye(d)  # a negative quadratic form: clamped
    xi[3] = np.nan  # no estimate: no interval, not clamped
    x = rng.standard_normal((R, d))
    w = rng.standard_normal(d)
    ci = directional_ci(x, 0.02, xi, w, level=0.9)
    for field in (ci.center, ci.half_width, ci.clamped):
        assert isinstance(field, np.ndarray) and field.shape == (R,)
    assert ci.clamped.tolist() == [False, True, False, False, False]
    assert ci.half_width[1] == 0.0 and np.isnan(ci.half_width[3])
    assert ci.contains(ci.center).tolist() == [True, True, True, False, True]
    for r in range(R):
        row = directional_ci(x[r], 0.02, xi[r], w, level=0.9)
        assert type(row.center) is float and type(row.half_width) is float
        assert type(row.clamped) is bool and row.level == 0.9
        assert row.clamped == ci.clamped[r]
        np.testing.assert_allclose([row.center, row.half_width],
                                   [ci.center[r], ci.half_width[r]],
                                   rtol=1e-14, atol=0.0)


def test_one_estimate_serves_a_stack_of_iterates():
    x = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    xi = np.array([[2.0, 0.1], [0.1, 1.0]])
    w = np.array([0.6, 0.8])
    ci = directional_ci(x, 0.05, xi, w)
    one = directional_ci(x[0], 0.05, xi, w)
    assert ci.half_width.shape == ci.clamped.shape == (3,)
    assert (ci.half_width == one.half_width).all()
    assert not ci.clamped.any()
    np.testing.assert_allclose(ci.center, x @ w, rtol=1e-15)


def test_directional_ci_validation():
    x, xi, w = np.zeros(2), np.eye(2), np.ones(2)
    for bad_alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            directional_ci(x, bad_alpha, xi, w)
    with pytest.raises(ValueError):
        directional_ci(x, 0.01, xi, w, level=1.0)


def test_interval_dataclass_contains_is_inclusive():
    ci = ConfidenceInterval(center=2.0, half_width=0.5, level=0.9)
    assert ci.lo == 1.5 and ci.hi == 2.5
    assert ci.contains(1.5) and ci.contains(2.5)
    assert not ci.contains(2.5000001)


# ---------------------------------------------------------------------------
# confidence regions


def test_region_contains_center_and_rejects_far_points():
    x = np.array([1.0, -1.0])
    region = confidence_region(x, alpha=0.01, xi_inv=np.eye(2))
    assert region.contains(x)
    assert not region.contains(x + np.array([10.0, 0.0]))


def test_region_boundary_flip_in_one_dimension():
    threshold = chi2_quantile(0.95, 1)
    region = confidence_region(np.zeros(1), alpha=1.0, xi_inv=np.eye(1))
    r = np.sqrt(threshold)
    assert region.contains(np.array([r * (1.0 - 1e-9)]))
    assert not region.contains(np.array([r * (1.0 + 1e-9)]))


def test_region_agrees_with_interval_in_one_dimension():
    # z(0.975)^2 == chi2(0.95, 1), so the 1-d ellipsoid IS the interval
    x = np.array([0.7])
    s = 2.3       # scalar covariance estimate
    alpha = 0.05
    ci = directional_ci(x, alpha, np.array([[s]]), np.array([1.0]))
    region = confidence_region(x, alpha, np.array([[1.0 / s]]))
    for p in np.linspace(-1.0, 2.5, 41):
        if abs(abs(p - x[0]) - ci.half_width) < 1e-9:
            continue  # skip the boundary itself
        assert ci.contains(p) == region.contains(np.array([p]))


def test_region_is_invariant_under_rotation():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    xi = A @ A.T + 0.5 * np.eye(3)
    xi_inv = np.linalg.inv(xi)
    x = rng.standard_normal(3)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    region = confidence_region(x, 0.02, xi_inv)
    rotated = confidence_region(Q @ x, 0.02, Q @ xi_inv @ Q.T)
    for _ in range(20):
        p = x + 0.3 * rng.standard_normal(3)
        assert region.contains(p) == rotated.contains(Q @ p)


def test_region_validation():
    for bad_alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            confidence_region(np.zeros(2), bad_alpha, np.eye(2))
    with pytest.raises(ValueError):
        confidence_region(np.zeros(2), 0.01, np.eye(2), level=0.0)
