"""Weight bookkeeping, Weyl dimension/Casimir exactness, character evaluation.

Character checks avoid the implementation's own code paths where possible:
SU(2) characters against the sin ratio, dimensions against hand-derivable
values, enumeration against a brute-force box scan and, row for row, against
the partition recursions in tests/oracles.py, orthonormality against
torus quadrature (exact for trig polynomials below the grid Nyquist degree).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from udnet.lie_core import InvalidParameterError, TorusPoint, _min_gaps
from udnet.weights_chars import (
    HighestWeight,
    casimir,
    dim,
    enumerate_projective_weights,
    _char_batch,
    _char_sum,
    _char_sum_plan,
    _projective_count,
    _projective_tuples,
)

from oracles import center_average_character, character, projective_tuples, schur_mp, torus_quadrature
from test_kernels import _confluent_rows, _haar_rows


def test_highest_weight_validation():
    w = HighestWeight(3, (2, 0, -2))
    assert w.one_norm == 4
    assert w.sum == 0
    assert w.is_projective
    with pytest.raises(InvalidParameterError):
        HighestWeight(3, (0, 1, -1))
    with pytest.raises(InvalidParameterError):
        HighestWeight(3, (1, 0))
    with pytest.raises(InvalidParameterError):
        HighestWeight(2, (1.5, -1.5))
    with pytest.raises(InvalidParameterError):
        HighestWeight(2, (True, False))
    w = HighestWeight(2, (np.int64(1), np.int64(-1)))
    assert w.lam == (1, -1) and all(type(x) is int for x in w.lam)


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


@pytest.mark.parametrize("d,t", [(2, 0), (2, 4), (3, 1), (3, 2), (4, 2), (5, 1), (5, 2)])
def test_enumerate_projective_weights_matches_brute_force(d, t):
    got = enumerate_projective_weights(d, t)
    lams = [w.lam for w in got]
    assert lams == sorted(lams)
    assert len(set(lams)) == len(lams)
    assert set(lams) == _brute_projective(d, t)


@pytest.mark.parametrize("d", range(2, 7))
def test_label_arrays_match_partition_oracle_row_for_row(d):
    # row order fixes the summation order of every character sum
    for t in range(9):
        got = _projective_tuples(d, t)
        assert np.array_equal(np.asarray(got), np.array(projective_tuples(d, t)))


@pytest.mark.parametrize("d", range(2, 7))
def test_label_counts_match_enumerators(d):
    for t in (0, 1, 2, 5, 9, 14):
        lams = _projective_tuples(d, t)
        assert lams.dtype == np.int64 and lams.shape[1] == d
        assert _projective_count(d, t) == len(lams)


def test_enumerate_projective_weights_d2_count():
    # d=2: (a, -a) with a = 0..t
    assert len(enumerate_projective_weights(2, 4)) == 5
    assert len(enumerate_projective_weights(2, 0)) == 1
    assert len(enumerate_projective_weights(2, np.int64(4))) == 5
    for bad in (-1, 1.5, True):
        with pytest.raises(InvalidParameterError):
            enumerate_projective_weights(2, bad)


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


# labels up to lambda_1 - lambda_d = 310, past the widest label a d = 3
# kernel query at sigma = 0.02 sums (261)
_ORACLE_LABELS = {
    2: [(0, 0), (1, -1), (37, -37), (150, -150), (310, 0)],
    3: [(0, 0, 0), (2, 1, 0), (40, -7, -20), (200, 0, -100), (160, 155, -150)],
    4: [(0, 0, 0, 0), (5, 3, 1, 0), (77, 77, 0, 0), (160, 40, -30, -150), (300, 0, 0, 0)],
}


def _oracle_points(d, gen):
    """Two random regular points, then four whose smallest eigenphase gap is
    1e-3, 1e-4, 1.5e-5 and 1e-5: just above GAP_TOL, where the alternant
    ratio divides by a small Vandermonde."""
    rows = []
    for gap in (None, None, 1e-3, 1e-4, 1.5e-5, 1e-5):
        phi = gen.uniform(-math.pi, math.pi, d - 1)
        if gap is not None and d == 2:
            phi[0] = gap / 2
        elif gap is not None:
            phi[1] = phi[0] + gap
        rows.append(np.append(phi, -phi.sum()))
    return np.array(rows)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_char_batch_matches_mpmath_alternant(d):
    labels = _ORACLE_LABELS[d]
    theta = _oracle_points(d, np.random.default_rng(d))
    gaps = _min_gaps(theta)
    assert np.all(gaps[2:] >= 1e-5 * (1 - 1e-9)) and np.all(gaps[2:] <= 1e-3 * (1 + 1e-9))
    got = _char_batch(np.array(labels), theta)
    for i, lam in enumerate(labels):
        part = [x - lam[-1] for x in lam]
        for j, row in enumerate(theta):
            ref = complex(schur_mp(part, row.tolist()))
            # rounding model: d! unit-modulus terms of degree up to part[0] + d
            # cancelling down to |Vandermonde| |chi|
            vdm = math.prod(
                abs(2.0 * math.sin((row[a] - row[b]) / 2.0))
                for a in range(d)
                for b in range(a + 1, d)
            )
            tol = 4.0 * 2.0**-53 * math.factorial(d) * (part[0] + d) / vdm
            assert abs(got[i, j] - ref) <= tol, (lam, j, got[i, j], ref)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_char_batch_matches_mpmath_at_confluent_points(d):
    labels = _ORACLE_LABELS[d]
    theta = _confluent_rows(d)
    got = _char_batch(np.array(labels), theta)
    for i, lam in enumerate(labels):
        part = [x - lam[-1] for x in lam]
        mu = [p + d - 1 - j for j, p in enumerate(part)]
        # rounding model: (d-1)! Jacobi-Trudi terms, each a product of d - 1
        # complete homogeneous polynomials h_k, |h_k| <= C(k + d - 1, d - 1)
        # on the unit circle, summed up to degree mu[0] + d
        size = math.factorial(d - 1) * math.prod(math.comb(m + d - 1, d - 1) for m in mu[: d - 1])
        tol = 4.0 * 2.0**-53 * (mu[0] + d) * size
        for j, row in enumerate(theta):
            ref = complex(schur_mp(part, row.tolist()))
            assert abs(got[i, j] - ref) <= tol, (lam, j, got[i, j], ref)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_char_sum_columns_match_one_column_calls(d):
    # k sums share one grouping and one set of power tables, whose giant
    # step follows the union's largest exponent. Each column is checked
    # against its own one-column plan: the single weights of _char_batch,
    # and random coefficients on random subsets of the labels, each with a
    # narrower grouping than the union.
    gen = np.random.default_rng(90 + d)
    lams = _projective_tuples(d, {2: 6, 3: 4, 4: 3, 5: 2}[d])
    subsets = [np.flatnonzero(gen.random(len(lams)) < 0.5) for _ in range(3)] + [np.arange(len(lams))]
    coeff = np.zeros((len(subsets), len(lams)))
    for c, sub in zip(coeff, subsets):
        c[sub] = gen.normal(size=len(sub))
    heads, rows = _char_sum_plan(lams, coeff)
    confluent = _confluent_rows(d)
    point_sets = {
        "regular": _haar_rows(d, 60, seed=d),
        "mixed": np.vstack([_haar_rows(d, 30, seed=d), confluent]),
        "confluent": confluent,
        "empty": np.empty((0, d)),
    }
    for name, theta in point_sets.items():
        got = _char_sum(heads, rows, theta)
        chars = _char_batch(lams, theta)
        assert got.shape == (len(coeff), len(theta)) and chars.shape == (len(lams), len(theta))
        ones = [_char_sum(*_char_sum_plan(lams[sub], c[sub][None]), theta)[0] for c, sub in zip(coeff, subsets)]
        ones += [_char_sum(*_char_sum_plan(lams[i : i + 1], np.ones((1, 1))), theta)[0] for i in range(len(lams))]
        for col, one in zip(list(got) + list(chars), ones):
            assert np.all(np.abs(col - one) <= 1e-12 * np.maximum(1.0, np.abs(one))), name


def test_character_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        character(HighestWeight(2, (1, 0)), TorusPoint(3, (0.1, 0.2)))


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
