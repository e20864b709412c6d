"""Weight bookkeeping, Weyl dimension/Casimir exactness, character evaluation.

Character checks avoid the implementation's own code paths where possible:
SU(2) characters against the sin ratio, dimensions against hand-derivable
values, enumeration against a brute-force box scan, orthonormality against
torus quadrature (exact for trig polynomials below the grid Nyquist degree).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from udnet.lie_core import InvalidParameterError, TorusPoint
from udnet.montecarlo import torus_quadrature
from udnet.weights_chars import (
    HighestWeight,
    casimir,
    center_average_character,
    character,
    dim,
    enumerate_projective_weights,
    enumerate_su_labels,
    j_function,
)


def test_highest_weight_validation():
    w = HighestWeight(3, (2, 0, -2))
    assert w.one_norm == 4
    assert w.sum == 0
    assert w.is_projective
    with pytest.raises(InvalidParameterError):
        HighestWeight(3, (0, 1, -1))
    with pytest.raises(InvalidParameterError):
        HighestWeight(3, (1, 0))


def test_from_su_label():
    w = HighestWeight.from_su_label(2, (2, 0))
    assert w.lam == (1, -1)
    w = HighestWeight.from_su_label(3, (2, 1, 0))
    assert w.lam == (1, 0, -1)
    with pytest.raises(InvalidParameterError):
        HighestWeight.from_su_label(2, (1, 0))


def _brute_projective(d, t):
    lim = 2 * t
    out = set()
    for head in itertools.product(range(-lim, lim + 1), repeat=d - 1):
        lam = head + (-sum(head),)
        if any(a < b for a, b in zip(lam, lam[1:])):
            continue
        if sum(abs(x) for x in lam) <= 2 * t:
            out.add(lam)
    return out


@pytest.mark.parametrize("d,t", [(2, 0), (2, 4), (3, 1), (3, 2), (4, 2)])
def test_enumerate_projective_weights_matches_brute_force(d, t):
    got = enumerate_projective_weights(d, t)
    lams = [w.lam for w in got]
    assert lams == sorted(lams)
    assert len(set(lams)) == len(lams)
    assert set(lams) == _brute_projective(d, t)


def test_enumerate_projective_weights_d2_count():
    # d=2: (a, -a) with a = 0..t
    assert len(enumerate_projective_weights(2, 4)) == 5
    assert len(enumerate_projective_weights(2, 0)) == 1


def test_enumerate_su_labels():
    labels = enumerate_su_labels(2, 3)
    assert [w.lam for w in labels] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    got = {w.lam for w in enumerate_su_labels(3, 2)}
    assert got == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)}
    with pytest.raises(InvalidParameterError):
        enumerate_su_labels(2, -1)
    with pytest.raises(InvalidParameterError):
        enumerate_projective_weights(2, 1.5)
    with pytest.raises(InvalidParameterError):
        enumerate_projective_weights(2, True)
    with pytest.raises(InvalidParameterError):
        enumerate_su_labels(2, True)
    assert len(enumerate_projective_weights(2, np.int64(4))) == 5


@pytest.mark.parametrize(
    "d,lam,expected",
    [
        (2, (1, 0), 2),
        (2, (3, 0), 4),
        (3, (1, 0, 0), 3),
        (3, (1, 1, 0), 3),
        (3, (2, 0, 0), 6),
        (3, (3, 0, 0), 10),
        (3, (1, 0, -1), 8),
        (4, (1, 0, 0, 0), 4),
        (4, (1, 1, 1, 0), 4),
        (4, (1, 0, 0, -1), 15),
        (5, (1, 0, 0, 0, -1), 24),
    ],
)
def test_dim_known_values(d, lam, expected):
    assert dim(HighestWeight(d, lam)) == expected


def test_dim_shift_invariance():
    # dim depends only on differences of label entries
    assert dim(HighestWeight(3, (2, 1, 0))) == dim(HighestWeight(3, (1, 0, -1)))


def test_casimir_adjoint_is_one():
    for d in range(2, 7):
        lam = (1,) + (0,) * (d - 2) + (-1,)
        assert casimir(HighestWeight(d, lam)) == 1


def test_casimir_fundamental():
    # C2(fund)/C2(adjoint) = (d^2-1)/(2 d^2)
    for d in range(2, 7):
        lam = (1,) + (0,) * (d - 1)
        assert casimir(HighestWeight(d, lam)) == Fraction(d * d - 1, 2 * d * d)


def test_casimir_su2_spin_ladder():
    # (a, -a) carries j = a: eigenvalue j(j+1)/2 in this normalization
    for a in range(1, 6):
        assert casimir(HighestWeight(2, (a, -a))) == Fraction(a * (a + 1), 2)


def test_casimir_trivial_is_zero():
    assert casimir(HighestWeight(4, (0, 0, 0, 0))) == 0


def test_character_at_identity_equals_dim():
    for d, lam in [(2, (2, -2)), (3, (2, 1, -3)), (4, (2, 1, 0, -3))]:
        w = HighestWeight(d, lam)
        e = TorusPoint(d, (0.0,) * (d - 1))
        val = character(w, e)
        assert val.imag == pytest.approx(0.0, abs=1e-9)
        assert val.real == pytest.approx(dim(w), rel=1e-12)


def test_su2_character_sin_ratio():
    # chi_{(a,0)}(phi) = sin((a+1) phi) / sin(phi) at eigenphases (phi, -phi)
    for a in (1, 2, 5):
        w = HighestWeight(2, (a, 0))
        for phi in (0.3, 1.1, -2.4):
            x = TorusPoint(2, (phi,))
            want = math.sin((a + 1) * phi) / math.sin(phi)
            got = character(w, x)
            assert got.imag == pytest.approx(0.0, abs=1e-12)
            assert got.real == pytest.approx(want, rel=1e-12)


def test_character_central_twist():
    # chi(zx) = e^{2 pi i s/d} chi(x) for the center element z
    w = HighestWeight(3, (2, 0, 0))  # s = 2
    x = TorusPoint(3, (0.5, -0.2))
    z = TorusPoint(3, tuple(p + 2.0 * math.pi / 3.0 for p in x.phi))
    expected = character(w, x) * complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))
    got = character(w, z)
    assert got == pytest.approx(expected, rel=1e-10)


def test_character_confluent_matches_alternant_across_threshold():
    # just below the gap tolerance the confluent branch must agree with the
    # alternant branch evaluated just above it
    w = HighestWeight(3, (3, 1, -4))
    base = TorusPoint(3, (0.7, 0.7 + 2e-6))
    near = TorusPoint(3, (0.7, 0.7 + 5e-7))
    a = character(w, base)
    b = character(w, near)
    assert abs(a - b) < 1e-4 * max(1.0, abs(a))


def test_character_exactly_coincident_phases():
    w = HighestWeight(3, (1, 0, -1))
    x = TorusPoint(3, (0.9, 0.9))
    val = character(w, x)
    assert math.isfinite(val.real) and math.isfinite(val.imag)
    # continuity against a nearby regular point
    y = TorusPoint(3, (0.9, 0.9 + 1e-5))
    assert abs(val - character(w, y)) < 1e-3


def test_character_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        character(HighestWeight(2, (1, 0)), TorusPoint(3, (0.1, 0.2)))


def test_j_function_su2():
    x = TorusPoint(2, (0.8,))
    # theta = (0.8, -0.8): j = 2i sin(0.8)
    assert j_function(2, x) == pytest.approx(2j * math.sin(0.8), rel=1e-12)
    with pytest.raises(InvalidParameterError):
        j_function(3, x)


def test_j_function_vanishes_on_singular_set():
    assert j_function(3, TorusPoint(3, (0.4, 0.4))) == 0


def test_weyl_integration_orthonormality_d2():
    # torus_quadrature carries the Weyl density, so the node function is just
    # chi_a chi_b*; the integrand is a trig polynomial, integrated exactly by
    # a 64-point uniform grid
    ws = [HighestWeight(2, (a, -a)) for a in range(4)]

    def inner(wa, wb):
        return torus_quadrature(
            2, 64, lambda p: character(wa, p) * character(wb, p).conjugate()
        )

    for i, wa in enumerate(ws):
        for j, wb in enumerate(ws):
            want = 1.0 if i == j else 0.0
            assert inner(wa, wb) == pytest.approx(want, abs=1e-12)


def test_center_average_projects_on_projective_sector():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = TorusPoint(2, tuple(rng.uniform(-math.pi, math.pi, 1)))
        # sum not divisible by d: killed
        assert abs(center_average_character(HighestWeight(2, (1, 0)), x)) < 1e-10
        # sum divisible by d: passes through unchanged
        w = HighestWeight(2, (2, 0))
        assert center_average_character(w, x) == pytest.approx(character(w, x), abs=1e-10)


def test_center_average_d3():
    x = TorusPoint(3, (0.4, -0.9))
    assert abs(center_average_character(HighestWeight(3, (1, 0, 0)), x)) < 1e-10
    w = HighestWeight(3, (1, 0, -1))
    assert center_average_character(w, x) == pytest.approx(character(w, x), abs=1e-10)
