"""Structural constants, torus-point canonicalization, and the log prefactor.

Reference values were produced by tests/oracles.py (mpmath, 50 digits).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from udnet.lie_core import (
    GroupConstants,
    InvalidDimensionError,
    InvalidParameterError,
    TorusPoint,
    _min_gap,
    _min_gaps,
    eps_tilde,
    group_constants,
    log_prefactor,
)

from oracles import weyl_vector_diag


@pytest.mark.parametrize(
    "d,m,l,N,w,det",
    [
        (2, 1, 1, 3, 2, 2),
        (3, 3, 2, 8, 6, 3),
        (4, 6, 3, 15, 24, 4),
        (5, 10, 4, 24, 120, 5),
        (6, 15, 5, 35, 720, 6),
    ],
)
def test_group_constants_table(d, m, l, N, w, det):
    g = group_constants(d)
    assert isinstance(g, GroupConstants)
    assert (g.m, g.l, g.N, g.weyl_order, g.cartan_det) == (m, l, N, w, det)
    assert g.weyl_norm_sq == Fraction(d * d - 1, 24)


def test_group_constants_rejects_bad_dimension():
    for bad in (1, 0, -3, 2.0, True, "2"):
        with pytest.raises(InvalidDimensionError):
            group_constants(bad)


def test_weyl_vector_norm_matches_constant():
    # ||delta||^2 computed from the diagonal must equal (d^2-1)/24 exactly.
    for d in range(2, 7):
        diag = weyl_vector_diag(d)
        assert sum(diag) == 0
        norm = 2 * d * sum(x * x for x in diag)
        assert norm == group_constants(d).weyl_norm_sq


def test_torus_point_wraps_to_half_open_interval():
    x = TorusPoint(2, (3.0 * math.pi,))
    assert x.phi[0] == pytest.approx(math.pi)
    y = TorusPoint(2, (-math.pi,))
    assert y.phi[0] == math.pi
    z = TorusPoint(3, (0.25, 2.0 * math.pi + 0.25))
    assert z.phi == pytest.approx((0.25, 0.25))


def test_torus_point_validation():
    with pytest.raises(InvalidParameterError):
        TorusPoint(2, (0.1, 0.2))
    with pytest.raises(InvalidParameterError):
        TorusPoint(3, (0.1,))
    with pytest.raises(InvalidParameterError):
        TorusPoint(2, (math.nan,))
    with pytest.raises(InvalidDimensionError):
        TorusPoint(1, ())


def test_eigenphases_sum_to_zero():
    x = TorusPoint(4, (0.3, -0.7, 1.1))
    th = x.eigenphases()
    assert len(th) == 4
    assert math.fsum(th) == pytest.approx(0.0, abs=1e-15)
    assert th[:3] == x.phi


def test_min_gap_and_regularity():
    # Identity is maximally singular: every gap vanishes.
    e = TorusPoint(3, (0.0, 0.0))
    assert e.min_gap() == 0.0

    x = TorusPoint(2, (0.5,))
    # eigenphases (0.5, -0.5), circular distance 1.0
    assert x.min_gap() == pytest.approx(1.0)

    # Gap measured on the circle, not the line.
    y = TorusPoint(2, (3.0,))
    assert y.min_gap() == pytest.approx(2.0 * math.pi - 6.0)


@pytest.mark.parametrize(
    "d,sigma,expected",
    [
        (2, 1.0, 1.7370857137646180512),
        (2, 0.5, 2.7143064846045360153),
        (2, 0.2, 4.0512425824157686131),
        (2, 0.1, 5.0784633532556861),
        (3, 0.1, 13.540399420937354854),
    ],
)
def test_log_prefactor_reference_values(d, sigma, expected):
    assert log_prefactor(d, sigma) == pytest.approx(expected, rel=1e-14)


def test_log_prefactor_stays_finite_at_tiny_sigma():
    v = log_prefactor(2, 1e-12)
    assert math.isfinite(v)
    # dominated by -(3/2) log(4 pi sigma)
    assert v > 30.0


def test_log_prefactor_rejects_bad_sigma():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            log_prefactor(2, bad)


def test_eps_tilde_values_and_domain():
    assert eps_tilde(2.0) == pytest.approx(math.pi)
    assert eps_tilde(1.0) == pytest.approx(math.pi / 3.0)
    assert eps_tilde(0.1) == pytest.approx(2.0 * math.asin(0.05))
    # small eps: eps_tilde ~ eps from above
    assert eps_tilde(1e-6) == pytest.approx(1e-6, rel=1e-9)
    assert eps_tilde(1e-6) >= 1e-6
    for bad in (0.0, -0.5, 2.0000001, math.nan):
        with pytest.raises(InvalidParameterError):
            eps_tilde(bad)


def test_min_gap_of_one_row_matches_the_array_form():
    # the one-row Python loop and the array form agree bit for bit, on
    # random rows, near-ties, pairs straddling -pi and unwrapped phases
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        rows = rng.uniform(-math.pi, math.pi, (300, d))
        rows[100:200, 1] = rows[100:200, 0] + rng.uniform(-1e-6, 1e-6, 100)
        rows[200:250, :2] = [math.pi - 1e-7, -math.pi + 1e-7]
        rows[250:] *= 7.0
        assert [_min_gap(row) for row in rows.tolist()] == _min_gaps(rows).tolist()
        for row in rows[:20].tolist():
            x = TorusPoint(d, tuple(row[:-1]))
            assert x.min_gap() == _min_gaps(np.array([x.eigenphases()]))[0]


def test_error_taxonomy():
    assert issubclass(InvalidDimensionError, ValueError)
    assert issubclass(InvalidParameterError, ValueError)
