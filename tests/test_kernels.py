"""Heat-kernel evaluation: frozen reference values, dual-route agreement,
symmetries, trimming, and truncation errors.

Reference values were produced by tests/oracles.py (mpmath, 50 digits) and
are quoted to full double precision.
"""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from udnet.kernels import (
    EvalResult,
    KernelParams,
    NumericalInstabilityError,
    TruncationError,
    heat_pu_char,
    heat_pu_char_batch,
    heat_pu_poisson,
    heat_pu_poisson_batch,
    l2_norm_trimmed,
    l2_norm_untrimmed,
    trimming_error,
    _coset_denominators,
    _lattice_grid,
    _lattice_shell_log_env,
    _lattice_shell_slope,
    _LatticePlan,
    _MAX_LATTICE_RADIUS,
    _pu_shell_log_env,
    _pu_shell_slope,
    _tangent_log_tail,
    _weight_cutoff,
)
from udnet.lie_core import InvalidParameterError, TorusPoint, _min_gaps, log_prefactor
from udnet.montecarlo import RngStream
from udnet.weights_chars import (
    _casimir_array,
    _char_sum,
    _dim_array,
    _projective_tuples,
)

from oracles import (
    char_matrix,
    char_sum_mp,
    haar_eigenphases_qr,
    heat_pu_poisson_mp,
    heat_su_poisson_mp,
    lattice_envelope_tails_mp,
    lattice_log_tail_scan,
    poisson_reference,
    pu_envelope_tail_mp,
)


def _pt(d, *phi):
    return TorusPoint(d, phi)


def _haar_rows(d, n, seed):
    return haar_eigenphases_qr(d, n, RngStream(seed).generator())


def _confluent_rows(d):
    """Rows with an eigenphase gap below 1e-6, including an exact tie, a
    pair straddling -pi and the identity, all routed to the confluent form."""
    if d == 2:
        rows = [[1.5e-7, -1.5e-7], [0.0, 0.0], [math.pi - 1e-7, -math.pi + 1e-7]]
    else:
        pairs = ((0.4, 0.4 + 3e-7), (1.1, 1.1), (math.pi - 1e-7, -math.pi + 1e-7))
        rows = [[a, b] + [-0.9] * (d - 3) for a, b in pairs]
        rows = [phi + [-sum(phi)] for phi in rows] + [[0.0] * d]
    rows = np.array(rows)
    assert np.all(_min_gaps(rows) < 1e-6)
    return rows


# ---------------------------------------------------------------- reference


@pytest.mark.parametrize(
    "d,sigma,phi,expected",
    [
        (2, 0.2, (0.3,), 23.71927102865286877),
        (3, 0.5, (0.7, -0.4), 331.12618225530359639),
        (4, 0.8, (0.5, -0.3, 0.9), 774.50369032892520691),
    ],
)
def test_pu_reference_values_d2_to_d4_both_routes(d, sigma, phi, expected):
    # the references are oracles.heat_pu_poisson_mp, the mpmath lattice sum
    p, x = KernelParams(d, sigma), _pt(d, *phi)
    for r in (heat_pu_char(p, x), heat_pu_poisson(p, x)):
        assert isinstance(r, EvalResult)
        assert r.value == pytest.approx(expected, rel=1e-12)
        assert r.terms_used > 0
        assert 0.0 <= r.truncation_bound < 1e-10


@pytest.mark.parametrize(
    "d,sigma,phi,expected",
    [
        (2, 0.2, (0.3,), 47.43854205730573754),
        (3, 0.5, (0.7, -0.4), 993.37854676591078918),
        (4, 0.8, (0.5, -0.3, 0.9), 3098.0147613156998561),
    ],
)
def test_heat_su_reference_values_both_routes(d, sigma, phi, expected):
    # the SU(d) kernel under the PU references: the mpmath lattice sum gives
    # the SU constant, and both PU routes return its average over the d
    # center shifts phi + 2*pi*r/d
    mphi = [mp.mpf(v) for v in phi]
    su = [
        heat_su_poisson_mp(d, mp.mpf(sigma), [v + 2 * mp.pi * r / d for v in mphi], 3)
        for r in range(d)
    ]
    assert float(su[0]) == pytest.approx(expected, rel=1e-12)
    p, x = KernelParams(d, sigma), _pt(d, *phi)
    for r in (heat_pu_char(p, x), heat_pu_poisson(p, x)):
        assert r.value == pytest.approx(float(mp.fsum(su) / d), rel=1e-12)


def test_heat_pu_reference_value_both_routes():
    p = KernelParams(3, 0.5)
    x = _pt(3, 0.7, -0.4)
    expected = 331.12618225530359639
    assert heat_pu_char(p, x).value == pytest.approx(expected, rel=1e-12)
    assert heat_pu_poisson(p, x).value == pytest.approx(expected, rel=1e-12)


def test_small_sigma_reference_values_poisson():
    # sigma = 0.05 needs thousands of character terms but only a handful of
    # lattice terms; the char route must still agree
    pu = heat_pu_poisson(KernelParams(3, 0.05), _pt(3, 0.4, -0.15))
    assert pu.value == pytest.approx(15838.32664294273524, rel=1e-12)
    assert heat_pu_char(KernelParams(3, 0.05), _pt(3, 0.4, -0.15)).value == pytest.approx(
        15838.32664294273524, rel=1e-9
    )


def test_identity_values_untrimmed_and_trimmed():
    e = _pt(2, 0.0)
    untrimmed = heat_pu_char(KernelParams(2, 0.5), e)
    trimmed = heat_pu_char(KernelParams(2, 0.5, trim_t=3), e)
    assert untrimmed.value == pytest.approx(15.094138423812365429, rel=1e-12)
    assert trimmed.value == pytest.approx(14.476596291149779742, rel=1e-12)
    assert trimmed.value < untrimmed.value
    # trimming drops the tail exactly: the trimmed sum carries no tail bound
    assert trimmed.truncation_bound == 0.0


def test_trim_zero_is_constant_one():
    p = KernelParams(2, 0.3, trim_t=0)
    for phi in (0.0, 0.4, -1.2):
        assert heat_pu_char(p, _pt(2, phi)).value == 1.0
    for d in (2, 3, 4):
        theta = np.vstack([_haar_rows(d, 50, seed=10 + d), _confluent_rows(d)])
        vals, bound, terms = heat_pu_char_batch(KernelParams(d, 0.3, trim_t=0), theta)
        assert np.all(vals == 1.0) and bound == 0.0 and terms == 1


# ---------------------------------------------------------- dual-route grid


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sigma", [0.1, 0.5])
def test_char_and_poisson_agree_near_identity(d, sigma):
    # sample inside |phi_i| <= sqrt(sigma), where the kernel is O(1) or
    # larger and the character sum is far from its cancellation floor
    rng = np.random.default_rng(11)
    p = KernelParams(d, sigma)
    box = min(math.sqrt(sigma), math.pi)
    done = 0
    while done < 8:
        x = TorusPoint(d, tuple(rng.uniform(-box, box, d - 1)))
        if x.min_gap() < 1e-4:
            continue
        c = heat_pu_char(p, x)
        f = heat_pu_poisson(p, x)
        assert c.value == pytest.approx(f.value, rel=1e-9)
        done += 1


def test_poisson_handles_singular_points_via_jitter():
    # identity has zero eigenphase gap; the jittered Poisson value must match
    # the character route, which is exact there
    for d, sigma in [(2, 0.5), (3, 0.8), (4, 0.8)]:
        e = _pt(d, *((0.0,) * (d - 1)))
        a = heat_pu_char(KernelParams(d, sigma), e)
        b = heat_pu_poisson(KernelParams(d, sigma), e)
        assert b.value == pytest.approx(a.value, rel=1e-7)


@pytest.mark.parametrize("d,sigma", [(2, 1e-6), (2, 1e-8), (2, 1e-12), (3, 1e-6), (5, 2.0)])
def test_jittered_poisson_refuses_a_lost_value(d, sigma):
    # at the identity the four jittered sums lose the value: at d = 2,
    # sigma = 1e-12 the average read 1.29e-3 against a kernel near 5e18,
    # and at d = 5, sigma = 2 it read 26,865.6 against 26,999.2, each with a
    # bound near 0
    e = _pt(d, *((0.0,) * (d - 1)))
    with pytest.raises(NumericalInstabilityError, match="lost significance"):
        heat_pu_poisson(KernelParams(d, sigma), e)


def _poisson_families(d, sigma, rng):
    """Points of five kinds: random, a pair straddling -pi, near a center
    element omega^r, near the identity, and a gap below 1e-6 (jittered)."""
    near = 0.05 * 10.0 ** -rng.integers(0, 3)
    straddle = rng.uniform(-1.0, 1.0, d - 1)
    straddle[0] = math.pi - rng.uniform(0.01, 0.2)
    if d > 2:
        straddle[1] = -math.pi + rng.uniform(0.01, 0.2)
    gap = rng.uniform(-1.0, 1.0, d - 1) * math.sqrt(sigma)
    if d == 2:
        gap[0] = rng.choice([-1.0, 1.0]) * rng.uniform(1e-8, 4e-7)
    else:
        gap[1] = gap[0] + rng.uniform(1e-8, 5e-7)
    return [
        rng.uniform(-math.pi, math.pi, d - 1),
        straddle,
        2.0 * math.pi * rng.integers(1, d) / d + rng.uniform(-near, near, d - 1),
        rng.uniform(-near, near, d - 1),
        gap,
    ]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_poisson_matches_mpmath_lattice_sum(d):
    rng = np.random.default_rng(70 + d)
    for sigma in (0.1, 0.3, 0.6):
        # radius 1 drops lattice terms below exp(-d*pi^2/(2*sigma))
        radius = 1 if d * math.pi**2 / (2.0 * sigma) > 40.0 else 2
        for phi in _poisson_families(d, sigma, rng):
            x = TorusPoint(d, tuple(phi))
            got = heat_pu_poisson(KernelParams(d, sigma), x).value
            ref = heat_pu_poisson_mp(d, mp.mpf(sigma), [mp.mpf(v) for v in x.phi], radius)
            rel = 1e-12 if x.min_gap() >= 1e-6 else 1e-10
            assert abs(got - ref) <= rel * abs(ref), (sigma, x.phi)


def test_lattice_sum_refuses_a_cancelled_regular_value():
    # phases within 1e-3 of the identity at d = 5, sigma = 5: the lattice sum
    # cancels down to a Weyl denominator near 5.6e-32, and the value read
    # -10.98 with bound 1.5e-47 where the mpmath lattice sum gives 9.2535
    x = _pt(5, -0.000849, -0.000322, -0.000709, -0.000192)
    assert x.min_gap() >= 1e-6
    with pytest.raises(NumericalInstabilityError, match="lattice sum lost significance"):
        heat_pu_poisson(KernelParams(5, 5.0), x)
    # the same point at sigma = 1 keeps its value
    ref = heat_pu_poisson_mp(5, mp.mpf(1), [mp.mpf(v) for v in x.phi], 2)
    assert heat_pu_poisson(KernelParams(5, 1.0), x).value == pytest.approx(float(ref), rel=1e-12)


def _plan_points(d, n, seed):
    """n regular points and n points with a gap below 1e-6 (jittered)."""
    rng = np.random.default_rng(seed)
    regular = [TorusPoint(d, tuple(rng.uniform(-1.0, 1.0, d - 1))) for _ in range(n)]
    tied = []
    for _ in range(n):
        phi = rng.uniform(-1.0, 1.0, d - 1)
        if d == 2:
            phi[0] = rng.uniform(1e-8, 4e-7)
        else:
            phi[1] = phi[0] + rng.uniform(1e-8, 5e-7)
        tied.append(TorusPoint(d, tuple(phi)))
    assert all(x.min_gap() >= 1e-6 for x in regular) and all(x.min_gap() < 1e-6 for x in tied)
    return regular, tied


def test_lattice_plan_cold_key_walks_once(monkeypatch):
    import udnet.kernels as kernels

    shells = Counter()

    def env(d, sigma, kappa):
        shells[(d, sigma, kappa)] += 1
        return _lattice_shell_log_env(d, sigma, kappa)

    monkeypatch.setattr(kernels, "_lattice_shell_log_env", env)
    monkeypatch.setattr(kernels, "_PLANS", kernels._PlanCache())

    def query(p, x):
        try:
            heat_pu_poisson(p, x)
        except NumericalInstabilityError as exc:
            assert "lost significance" in str(exc)  # refused after its radius was found

    # at d = 3, sigma = 200 the envelope peaks past the first shells, so the
    # plan also sums the shells before the peak
    for d, sigma in ((2, 0.3), (3, 0.3), (5, 0.3), (3, 200.0)):
        p = KernelParams(d, sigma)
        regular, tied = _plan_points(d, 5, seed=d)
        shells.clear()
        for x in regular:
            query(p, x)
        # one envelope call per shell for the key, shared by its points
        assert shells and max(shells.values()) == 1, (d, sigma)
        # the jittered sums run at 0.3 * tail_tol, which is one more key
        shells.clear()
        for x in tied:
            query(p, x)
        assert shells and max(shells.values()) == 1, (d, sigma)
        shells.clear()
        for x in regular + tied:
            query(p, x)
        assert not shells


def test_lattice_plan_warm_queries_walk_nothing(monkeypatch):
    import udnet.kernels as kernels

    for d in (2, 3, 4):
        regular, tied = _plan_points(d, 6, seed=20 + d)
        p = KernelParams(d, 0.1 * d)
        theta = [x.eigenphases() for x in regular + tied]
        cold = [_bits(heat_pu_poisson(p, x)) for x in regular + tied]
        cold_batch = _batch_bits(heat_pu_poisson_batch(p, theta))
        with monkeypatch.context() as m:
            m.setattr(kernels, "_lattice_shell_log_env", lambda *args: pytest.fail("walked on a warm call"))
            m.setattr(kernels, "_lattice_shell_slope", lambda *args: pytest.fail("walked on a warm call"))
            m.setattr(kernels, "_lattice_grid", lambda *args: pytest.fail("built a grid on a warm call"))
            assert [_bits(heat_pu_poisson(p, x)) for x in regular + tied] == cold
            assert _batch_bits(heat_pu_poisson_batch(p, theta)) == cold_batch
        assert cold_batch == [list(col) for col in zip(*cold)]


def test_lattice_plans_are_keyed_on_every_input():
    import udnet.kernels as kernels

    x = _pt(2, 0.3)
    params = [
        KernelParams(2, 0.05),
        KernelParams(2, 0.05, tail_tol=1e-8),
        KernelParams(2, 0.06),
        KernelParams(3, 0.05),
    ]
    for p in params:
        heat_pu_poisson(p, x if p.d == 2 else _pt(3, 0.3, -0.2))
    plans = kernels._PLANS._plans
    keys = [("lattice", p.d, p.sigma, p.tail_tol) for p in params]
    assert list(plans) == keys
    assert len({id(plan) for plan in plans.values()}) == 4
    # a jittered point adds the key of its inner sums, and a char call its own plan
    heat_pu_poisson(KernelParams(2, 0.05), _pt(2, 2e-7))
    heat_pu_char(KernelParams(2, 0.05), x)
    assert list(plans)[-2:] == [("lattice", 2, 0.05, 0.3 * 1e-12), (2, 0.05, None, 1e-12)]
    assert kernels._PLANS.nbytes == sum(plan.nbytes for plan in plans.values())
    # the Poisson form has no trimmed variant, and refuses before any plan is made
    with pytest.raises(InvalidParameterError, match="trim_t"):
        heat_pu_poisson(KernelParams(2, 0.07, trim_t=3), x)
    assert not any(key[2] == 0.07 for key in plans)


def test_lattice_plan_arrays_are_read_only():
    import udnet.kernels as kernels

    heat_pu_poisson(KernelParams(3, 0.5), _pt(3, 0.7, -0.4))
    heat_pu_poisson(KernelParams(3, 0.5), _pt(3, 0.0, 0.0))
    (plan,) = [plan for key, plan in kernels._PLANS._plans.items() if key == ("lattice", 3, 0.5, 1e-12)]
    assert plan.arrays()
    for a in plan.arrays():
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_plan_cache_stays_under_its_byte_cap_with_lattice_plans(monkeypatch):
    import udnet.kernels as kernels

    cap = 200_000
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", cap)
    cache = kernels._PLANS
    rng = np.random.default_rng(4)

    def check():
        assert cache.nbytes == sum(plan.nbytes for plan in cache._plans.values()) <= cap
        assert cache.nbytes == sum(cache._sizes.values())

    kinds, seen = set(), set()
    for sigma in np.geomspace(0.05, 2.0, 8):
        sigma = float(sigma)
        heat_pu_char(KernelParams(3, sigma), _pt(3, 0.4, -0.2))
        check()
        # d = 5 grids grow with the radius each prefactor needs: 20 kB at
        # radius 2, 77 kB at 3
        for _ in range(3):
            heat_pu_poisson(KernelParams(5, sigma), TorusPoint(5, tuple(rng.uniform(-1.0, 1.0, 4))))
            check()
        kinds |= {type(plan).__name__ for plan in cache._plans.values()}
        seen |= set(cache._plans)
    assert kinds == {"_CharPlan", "_LatticePlan"}
    assert seen - set(cache._plans)  # some plans were evicted
    # a lattice plan whose grid outgrows the cap is used but not kept
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", 2_000)
    got = heat_pu_poisson(KernelParams(5, 1.0), _pt(5, 1.1, -0.7, 0.9, 2.3))
    assert got.terms_used // 5 * 4 * 8 > 2_000  # the grid's bytes
    assert ("lattice", 5, 1.0, 1e-12) not in cache._plans
    assert cache.nbytes == sum(plan.nbytes for plan in cache._plans.values()) <= 2_000


def test_lattice_plans_are_consistent_under_threads(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    import udnet.kernels as kernels

    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", 100_000)
    regular, tied = _plan_points(4, 6, seed=9)
    theta = [x.eigenphases() for x in regular + tied]
    params = [KernelParams(4, s) for s in (0.1, 0.3, 0.8, 2.0)] * 5
    expected = {p: _batch_bits(heat_pu_poisson_batch(p, theta)) for p in params}
    monkeypatch.setattr(kernels, "_PLANS", kernels._PlanCache())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda p: _batch_bits(heat_pu_poisson_batch(p, theta)), params, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected[p] for p in params]
    cache = kernels._PLANS
    assert cache.nbytes == sum(plan.nbytes for plan in cache._plans.values()) <= 100_000


def test_lattice_plan_matches_per_call_reference():
    # the per-call route (its own radius walk and grid for every lattice
    # sum) against the plan, at regular and jittered points
    compared = jittered = 0
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(90 + d)
        for sigma in (0.02, 0.05, 0.1, 0.3, 0.8, 2.0):
            p = KernelParams(d, sigma)
            for phi in itertools.chain.from_iterable(_poisson_families(d, sigma, rng) for _ in range(5)):
                x = TorusPoint(d, tuple(phi))
                ref = poisson_reference(p, x)
                try:
                    got = heat_pu_poisson(p, x)
                except NumericalInstabilityError as exc:
                    # the new guard may refuse; the per-call route had none
                    assert "lost significance" in str(exc)
                    continue
                assert (got.terms_used, got.truncation_bound) == (ref.terms_used, ref.truncation_bound)
                if x.min_gap() >= 1e-6:
                    assert got.value == ref.value, (d, sigma, x.phi)
                else:
                    assert got.value == pytest.approx(ref.value, rel=1e-14, abs=0.0)
                    jittered += 1
                compared += 1
    assert compared >= 500 and jittered >= 100


# ------------------------------------------------------------- symmetries


def test_class_function_symmetry():
    # permuting eigenphases leaves the value unchanged
    p = KernelParams(3, 0.4)
    a = heat_pu_char(p, _pt(3, 0.4, -0.15))  # phases (0.4, -0.15, -0.25)
    b = heat_pu_char(p, _pt(3, -0.15, 0.4))
    c = heat_pu_char(p, _pt(3, -0.25, 0.4))
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert a.value == pytest.approx(c.value, rel=1e-12)


def test_inverse_symmetry():
    p = KernelParams(3, 0.4)
    a = heat_pu_char(p, _pt(3, 0.4, -0.15))
    b = heat_pu_char(p, _pt(3, -0.4, 0.15))
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_center_invariance_of_pu_kernel():
    # H_P is a function on PU(d): shifting by a center representative is a no-op
    shift = 2.0 * math.pi / 3.0
    p = KernelParams(3, 0.5)
    x = _pt(3, 0.7, -0.4)
    z = _pt(3, 0.7 + shift, -0.4 + shift)
    assert heat_pu_poisson(p, z).value == pytest.approx(
        heat_pu_poisson(p, x).value, rel=1e-10
    )
    assert heat_pu_char(p, z).value == pytest.approx(heat_pu_char(p, x).value, rel=1e-10)


def test_positivity_near_identity():
    rng = np.random.default_rng(3)
    p = KernelParams(2, 0.2)
    for _ in range(20):
        x = _pt(2, float(rng.uniform(-0.4, 0.4)))
        assert heat_pu_poisson(p, x).value > 0.0


# -------------------------------------------------------------- batch APIs


def test_char_batch_matches_scalar_calls():
    p = KernelParams(3, 0.5)
    pts = [(0.7, -0.4), (0.1, 0.2), (0.0, 0.0)]
    theta = np.array([list(t) + [-sum(t)] for t in pts])
    vals, bound, terms = heat_pu_char_batch(p, theta)
    assert vals.shape == (3,)
    for v, t in zip(vals, pts):
        assert v == pytest.approx(heat_pu_char(p, TorusPoint(3, t)).value, rel=1e-12)
    assert bound >= 0.0 and terms > 0
    assert vals[0] == pytest.approx(331.12618225530359639, rel=1e-12)


def test_poisson_batch_matches_scalar_calls():
    for d in (2, 3, 4):
        regular, tied = _plan_points(d, 4, seed=30 + d)
        points = regular[:2] + tied[:1] + regular[2:] + [_pt(d, *([0.0] * (d - 1)))]
        p = KernelParams(d, 0.3)
        vals, bounds, terms = heat_pu_poisson_batch(p, [x.eigenphases() for x in points])
        assert vals.shape == bounds.shape == terms.shape == (len(points),)
        for k, x in enumerate(points):
            assert _bits(EvalResult(float(vals[k]), float(bounds[k]), int(terms[k]))) == _bits(heat_pu_poisson(p, x))
        # a row is read up to a global phase, as a PU(d) class
        shifted, _, _ = heat_pu_poisson_batch(p, [np.add(x.eigenphases(), 0.7) for x in regular])
        for v, x in zip(shifted, regular):
            assert v == pytest.approx(heat_pu_poisson(p, x).value, rel=1e-12)


def test_poisson_batch_rows_are_checked():
    p = KernelParams(3, 0.1)
    vals, bounds, terms = heat_pu_poisson_batch(p, np.empty((0, 3)))
    assert vals.shape == bounds.shape == terms.shape == (0,)
    for bad in ([[0.1, 0.2]], [[math.nan, 0.0, 0.0]], [0.1, 0.2, -0.3]):
        with pytest.raises(InvalidParameterError):
            heat_pu_poisson_batch(p, bad)
    with pytest.raises(InvalidParameterError, match="trim_t"):
        heat_pu_poisson_batch(KernelParams(3, 0.1, trim_t=2), [[0.1, 0.2, -0.3]])


# (d, sigma, trim_t) -> (truncation_bound, terms_used); the term counts were
# computed by the per-weight character matrix the sum engine replaced (those
# at (2, 0.05), (3, 0.3) and (4, 1.0) by the sum engine itself), and the
# bounds carry the closed-form envelope tail
_CONTRACTION_CASES = {
    (2, 0.01, None): (4.39018249404837e-13, 93),
    (2, 0.05, None): (1.6718380611176322e-13, 41),
    (3, 0.05, None): (1.6668228490378478e-13, 2140),
    (3, 0.3, None): (2.214538166484805e-14, 303),
    (3, 0.05, 78): (0.0, 3121),
    (4, 0.5, None): (1.0924375390737765e-13, 2799),
    (4, 1.0, None): (1.187441916315941e-14, 833),
    (4, 0.4, 6): (0.0, 58),
}


@pytest.mark.parametrize("case", sorted(_CONTRACTION_CASES, key=repr))
def test_char_sum_matches_character_matrix_contraction(case):
    d, sigma, trim_t = case
    theta = np.vstack([_haar_rows(d, 120 if d < 4 else 40, seed=d), _confluent_rows(d)])
    p = KernelParams(d, sigma, trim_t=trim_t)
    vals, bound, terms = heat_pu_char_batch(p, theta)
    assert (bound, terms) == _CONTRACTION_CASES[case]

    # the oracle keeps every weight up to the cutoff; the ones the kernel
    # skips add at most 0.4 * tail_tol, inside the tolerance below
    if trim_t is not None:
        cutoff = 2 * trim_t
    else:
        cutoff, _ = _weight_cutoff(d, sigma, 1.0, 0.5 * p.tail_tol)
    lams = _projective_tuples(d, cutoff // 2)
    dims = _dim_array(lams)
    coeff = dims * np.exp(-sigma * _casimir_array(lams))
    ref = (coeff @ char_matrix(lams, theta)).real
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12 * float(coeff @ dims))


@pytest.mark.parametrize("d,sigma", [(2, 0.01), (3, 0.1), (4, 1.0)])
def test_char_sum_matches_mpmath_at_confluent_points(d, sigma):
    # the kernel's own grouped coefficients, summed at the confluent rows
    # against 50-digit mpmath; the scale is sum_w |c_w| dim_w, as above
    import udnet.kernels as kernels

    plan = kernels._PLANS.get(KernelParams(d, sigma))
    rows = plan.rows[0]
    g, m = np.nonzero(rows)
    mu = np.column_stack([plan.heads[g], m, np.zeros_like(m)])
    scale = float(np.abs(rows[g, m]) @ _dim_array(mu - np.arange(d - 1, -1, -1)))
    theta = _confluent_rows(d)
    got = _char_sum(plan.heads, plan.rows, theta)[0]
    for row, value in zip(theta, got):
        ref = complex(char_sum_mp(plan.heads, rows, row.tolist()))
        assert abs(value - ref) <= 1e-12 * scale, (row, value, ref)


def test_char_batch_memory_does_not_grow_with_weight_count(monkeypatch):
    # 3,121 weights at 32,768 points: a (weights x points) complex matrix
    # would take 1.6 GB; the sum engine works in point blocks, and k sums on
    # one grouping in blocks of _BLOCK // max(k G, k_max) points
    import udnet.weights_chars as wc

    theta = _haar_rows(3, 1 << 15, seed=5)
    theta[:64, 1:] = theta[:64, :1] * [1.0, -2.0]  # a tied share for the Jacobi-Trudi route
    sizes = []

    def alternant(tab, heads, last, terms):
        sizes.extend(a.size for a in last)
        return real_alternant(tab, heads, last, terms)

    real_alternant = wc._alternant
    monkeypatch.setattr(wc, "_alternant", alternant)
    p = KernelParams(3, 0.05, trim_t=78)
    lams = _projective_tuples(3, 78)
    dims = _dim_array(lams)
    coeff = np.array([dims * np.exp(-s * _casimir_array(lams)) for s in (0.05, 0.1, 0.2, 0.4)])
    heads, rows = wc._char_sum_plan(lams, coeff)
    tracemalloc.start()
    try:
        vals, _, terms = heat_pu_char_batch(p, theta)
        many = _char_sum(heads, rows, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms == 3121 and vals.shape == (1 << 15,) and many.shape == (4, 1 << 15)
    assert peak < 256 * 2**20
    assert sizes and max(sizes) <= wc._BLOCK
    # the last point block agrees with the same points evaluated on their own
    scale = heat_pu_char(p, _pt(3, 0.0, 0.0)).value
    tail, _, _ = heat_pu_char_batch(p, theta[-8:])
    np.testing.assert_allclose(vals[-8:], tail, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(many[0].real, vals, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(many[:, -8:], _char_sum(heads, rows, theta[-8:]), rtol=0, atol=1e-12 * scale)


# ---------------------------------------------------------------- L2 norms


def test_l2_norms_reference_values():
    assert l2_norm_trimmed(2, 0.5, 2) == pytest.approx(2.357030267039347857, rel=1e-12)
    assert l2_norm_untrimmed(2, 0.5) == pytest.approx(2.3834355609474079726, rel=1e-12)
    assert trimming_error(2, 0.5, 2) == pytest.approx(0.35379852098207792718, rel=1e-12)


def test_l2_pythagoras():
    # the trimmed kernel and its complement are orthogonal in L2(PU(d))
    for d, sigma, t in [(2, 0.5, 2), (2, 0.3, 4), (3, 0.8, 2)]:
        lo = l2_norm_trimmed(d, sigma, t)
        err = trimming_error(d, sigma, t)
        hi = l2_norm_untrimmed(d, sigma)
        assert lo * lo + err * err == pytest.approx(hi * hi, rel=1e-10)


def test_l2_monotone_in_trim_order():
    vals = [l2_norm_trimmed(2, 0.5, t) for t in range(6)]
    assert vals == sorted(vals)
    errs = [trimming_error(2, 0.5, t) for t in range(6)]
    assert errs == sorted(errs, reverse=True)
    assert vals[-1] <= l2_norm_untrimmed(2, 0.5)


def test_trimming_error_vanishes_numerically_at_high_order():
    assert trimming_error(2, 0.5, 60) < 1e-12


# ---------------------------------------------------------- cutoff search


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pu_envelope_dominates_shell_sums(d, rate):
    # the premise of every weight cutoff: the Plancherel-type shell sum
    # sum_{one-norm = j} d_lam^2 exp(-rate*sigma*k_lam) stays under the shell
    # envelope (equal at j = 0, the trivial weight alone; log 5 below it at
    # d = 2, j = 2 and further below elsewhere)
    top = {2: 80, 3: 40, 4: 24, 5: 18, 6: 14}[d]
    lams = _projective_tuples(d, top // 2)
    norms = np.abs(lams).sum(axis=1)
    for sigma in (0.01, 0.3, 2.0):
        logs = 2.0 * np.log(_dim_array(lams)) - rate * sigma * _casimir_array(lams)
        for j in range(0, top + 1, 2):
            shell = np.logaddexp.reduce(logs[norms == j])
            assert shell <= _pu_shell_log_env(d, sigma, rate, j), (sigma, j)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lattice_envelope_dominates_shell_sums(d):
    # the premise of every lattice radius: coset r of a lattice sum adds
    # |j_min / j_r| |prod(psi_i - psi_j)| exp(-d |psi|^2 / (2 sigma)) over the
    # grid points k of sup-norm kappa, psi = shift_r + 2*pi*k, and the value
    # divides the sum over the d cosets by d; so each coset's shell sum must
    # stay under exp(_lattice_shell_log_env(kappa))
    radius = {2: 40, 3: 12, 4: 5, 5: 3}[d]
    grid = _lattice_grid(d, radius)
    shells = np.abs(grid).max(axis=1)
    rng = np.random.default_rng(70 + d)
    for sigma in (0.05, 0.5, 5.0, 50.0, 500.0, 5000.0):
        env = [_lattice_shell_log_env(d, sigma, kappa) for kappa in range(1, radius + 1)]
        for _ in range(3):
            phi = tuple(rng.uniform(-math.pi, math.pi, d - 1))
            shifts, log_j, _ = _coset_denominators(d, phi)
            for shift, lj in zip(shifts, log_j):
                psi = np.asarray(shift) + 2.0 * math.pi * grid
                full = np.column_stack([psi, -psi.sum(axis=1)])
                logs = (min(log_j) - lj) - d / (2.0 * sigma) * np.square(full).sum(axis=1)
                for i, j in itertools.combinations(range(d), 2):
                    logs = logs + np.log(np.abs(full[:, i] - full[:, j]))
                for kappa in range(1, radius + 1):
                    assert np.logaddexp.reduce(logs[shells == kappa]) <= env[kappa - 1], (sigma, phi, kappa)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_weight_cutoff_tails_bound_the_exact_envelope_tail(d):
    # every tail a weight cutoff returns is at least the envelope's exact tail
    # sum past it, from 192-bit integer arithmetic on 50-digit seeds; no tolerance
    for sigma in (1e-8, 1e-5, 1e-2, 0.3, 4.0):
        for rate, tol in ((1.0, 0.5e-12), (2.0, 1e-12)):
            L, tail = _weight_cutoff(d, sigma, rate, tol)
            assert tail < tol
            assert tail >= pu_envelope_tail_mp(d, sigma, rate, L), (sigma, rate, L)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lattice_tails_bound_the_exact_envelope_tail(d):
    # every log-tail a lattice plan keeps, filled as far as prefactors up to
    # e^400 need, is at least the log of the envelope's exact tail past its
    # radius (50 digits); no tolerance. At sigma = 300 and up the first radii
    # lie before the envelope's peak; at 1e7 the peak is near shell 356 at
    # d = 2 and past the radius cap at d = 3..5, and no radius up to 512 fits.
    for sigma in (0.02, 0.3, 5.0, 20.0, 300.0, 1e4, 1e7):
        plan = _LatticePlan(("lattice", d, sigma, 1e-12), KernelParams(d, sigma))
        for log_pref in (-60.0, 0.0, 100.0, 400.0):
            try:
                radius, bound = plan.radius(log_pref)
            except NumericalInstabilityError:
                continue
            assert bound < 1e-12
        tails = plan._log_tails
        assert len(tails) == 512 if sigma == 1e7 else 1 <= len(tails) < 512
        assert tails == sorted(tails, reverse=True)
        exact = lattice_envelope_tails_mp(d, sigma, len(tails))
        for radius, (log_tail, ref) in enumerate(zip(tails, exact), start=1):
            assert log_tail >= mp.log(ref), (sigma, radius)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_weight_cutoff_matches_linear_scan(d):
    # the bisection returns the first even cutoff of a scan of the same rule:
    # the tangent bound from shell L + 1
    def log_tail(sigma, rate, L):
        g = _pu_shell_log_env(d, sigma, rate, L + 1)
        return _tangent_log_tail(g, _pu_shell_slope(d, sigma, rate, L + 1), rate * sigma / (2.0 * d * d))

    for sigma, rate, tol in itertools.product((0.005, 0.05, 0.5, 4.0), (1.0, 2.0), (1e-6, 0.5e-12, 1e-25)):
        L = 0
        while log_tail(sigma, rate, L) >= math.log(tol):
            L += 2
        ref = (L, math.exp(log_tail(sigma, rate, L)))
        assert _weight_cutoff(d, sigma, rate, tol) == ref, (sigma, rate, tol)


def _reference_poisson(d, sigma, phi, tol):
    """(terms, bound) of one PU lattice sum, from a direct scan of radii 1..8.

    The prefactor is the largest of the d center shifts phi + 2*pi*r/d,
    each with the Weyl denominator of its own eigenphases.
    """
    log_j = math.inf
    for r in range(d):
        th = TorusPoint(d, tuple(np.asarray(phi) + 2.0 * math.pi * r / d)).eigenphases()
        log_j_r = 0.0
        for i in range(d):
            for j in range(i + 1, d):
                log_j_r += math.log(abs(2.0 * math.sin(0.5 * (th[i] - th[j]))))
        log_j = min(log_j, log_j_r)
    log_pref = log_prefactor(d, sigma) + math.lgamma(d + 1) - log_j
    for radius in range(1, 9):
        log_tail = log_pref + lattice_log_tail_scan(d, sigma, radius)
        if log_tail < math.log(tol):
            return d * (2 * radius + 1) ** (d - 1), math.exp(log_tail)
    pytest.fail("no radius up to 8 meets tol")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lattice_radius_matches_direct_scan(d):
    rng = np.random.default_rng(40 + d)
    radii = set()
    for sigma in (0.05, 0.5, 5.0, 20.0):
        for k in range(3):
            phi = rng.uniform(-math.pi / d, math.pi / d, d - 1)
            if (d, sigma, k) == (5, 20.0, 1):
                # the lattice sum cancels: it read 1.000001017977 against
                # the char route's 1.000001014842, with bound 3.7e-33
                with pytest.raises(NumericalInstabilityError, match="lost significance"):
                    heat_pu_poisson(KernelParams(d, sigma), TorusPoint(d, tuple(phi)))
                continue
            got = heat_pu_poisson(KernelParams(d, sigma), TorusPoint(d, tuple(phi)))
            assert (got.terms_used, got.truncation_bound) == _reference_poisson(d, sigma, phi, 1e-12)
            radii.add(round((got.terms_used / d) ** (1 / (d - 1))) // 2)
        # a gap below 1e-6 takes the jittered Richardson average of four
        # lattice sums at 0.3 * tail_tol
        phi = np.array([1.5e-7] if d == 2 else [0.4 + 3e-7] + [0.4] * (d - 2))
        x = TorusPoint(d, tuple(phi))
        assert x.min_gap() < 1e-6
        if (d, sigma) in {(4, 5.0), (4, 20.0), (5, 5.0), (5, 20.0)}:
            # a triple tie at large sigma: the jittered sums cancel (the
            # average read 15.6 against 1.0000003 at d = 4, sigma = 20, and
            # 7e-7 off the char route at sigma = 5), which is refused
            with pytest.raises(NumericalInstabilityError, match="lost significance"):
                heat_pu_poisson(KernelParams(d, sigma), x)
            continue
        got = heat_pu_poisson(KernelParams(d, sigma), x)
        step = 1e-5 * np.arange(1, d)
        ref = {c: _reference_poisson(d, sigma, phi + c * step, 0.3e-12) for c in (1.0, -1.0, 0.5, -0.5)}
        bound = (4.0 * max(ref[0.5][1], ref[-0.5][1]) + max(ref[1.0][1], ref[-1.0][1])) / 3.0
        assert got.terms_used == sum(terms for terms, _ in ref.values())
        assert got.truncation_bound == bound
    assert len(radii) >= 3


def test_weight_cutoff_needs_few_envelope_evaluations(monkeypatch):
    # the forward walk this search replaced evaluated 250,278 shells at
    # sigma = 1e-7 and ran on to the underflow shell; the bisection takes 25
    # envelope values and 25 slopes at sigma = 1e-8, with L = 242,724
    import udnet.kernels as kernels

    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(kernels, "_pu_shell_log_env", counted("env", _pu_shell_log_env))
    monkeypatch.setattr(kernels, "_pu_shell_slope", counted("slope", _pu_shell_slope))
    L, tail = _weight_cutoff(2, 1e-8, 1.0, 0.5e-12)
    assert L == 242_724 and tail < 0.5e-12
    assert calls["env"] + calls["slope"] <= 100, calls


def test_shared_lattice_tails_match_fresh_walks():
    # a lattice plan serves every point from one list of tails: each point's
    # radius and bound equal a fresh scan of the tail rule under its own
    # prefactor, also where the first radii lie before the envelope's peak
    rng = np.random.default_rng(12)
    log_tol = math.log(1e-12)
    for d in (2, 3, 5):
        for sigma in (0.02, 0.3, 5.0, 300.0, 1e7):
            plan = _LatticePlan(("lattice", d, sigma, 1e-12), KernelParams(d, sigma))
            scan = functools.cache(functools.partial(lattice_log_tail_scan, d, sigma))
            for log_pref in rng.uniform(-60.0, 400.0, 40):
                fits = [r for r in range(1, 513) if log_pref + scan(r) < log_tol]
                ref = (fits[0], math.exp(log_pref + scan(fits[0]))) if fits else None
                try:
                    got = plan.radius(log_pref)
                except NumericalInstabilityError:
                    got = None
                assert got == ref, (d, sigma, log_pref)


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("sigma", [1e20, 1.7e308])
def test_lattice_plan_past_the_cap_sums_at_most_the_capped_shells(d, sigma, monkeypatch):
    # at sigma = 1e20 the envelope's peak lies near shell 1.1e9 (d = 2) and
    # 2.6e9 (d = 5); the plan walks no shell past the radius cap, evaluating
    # each one's envelope and slope at most once, and refuses the point, as a
    # walk up to the peak could not. At 1.7e308, 4*pi*sigma overflows, and
    # the prefactor must still be finite
    assert 0.0 < log_prefactor(d, sigma) < math.inf
    import udnet.kernels as kernels

    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(kernels, "_lattice_shell_log_env", counted("env", _lattice_shell_log_env))
    monkeypatch.setattr(kernels, "_lattice_shell_slope", counted("slope", _lattice_shell_slope))
    with pytest.raises(NumericalInstabilityError, match="no lattice radius up to 512"):
        heat_pu_poisson(KernelParams(d, sigma), _pt(d, *(0.3 * k for k in range(1, d))))
    assert max(calls["env"], calls["slope"]) <= _MAX_LATTICE_RADIUS + 1, calls


def test_lattice_plan_past_the_cap_matches_the_scan():
    # d = 5, sigma = 1e7: the envelope still rises at shell 513 (its peak is
    # near 812), so every kept tail ends in the tangent bound from shell 513,
    # a Gaussian about the top of the tangent parabola
    plan = _LatticePlan(("lattice", 5, 1e7, 1e-12), KernelParams(5, 1e7))
    assert _lattice_shell_slope(5, 1e7, 513) > 0.0
    assert len(plan._log_tails) == 512
    for radius in (1, 2, 100, 511, 512):
        assert plan._log_tails[radius - 1] == pytest.approx(lattice_log_tail_scan(5, 1e7, radius), rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_poisson_refuses_an_overflowing_rate_before_planning():
    # d/(2 sigma) = inf at sigma = 5e-324; the refusal comes before the
    # lattice plan is built and before any exponent is formed
    import udnet.kernels as kernels

    with pytest.raises(NumericalInstabilityError, match=r"d/\(2 sigma\) overflows"):
        heat_pu_poisson(KernelParams(2, 5e-324), _pt(2, 0.3))
    assert not [key for key in kernels._PLANS._plans if key[0] == "lattice"]


def test_weight_cutoff_evaluates_each_shell_once(monkeypatch):
    import udnet.kernels as kernels

    calls = Counter()

    def counted(d, sigma, rate, j):
        calls[j] += 1
        return _pu_shell_log_env(d, sigma, rate, j)

    monkeypatch.setattr(kernels, "_pu_shell_log_env", counted)
    got = heat_pu_char(KernelParams(2, 1e-5), _pt(2, 0.1))
    assert max(calls.values()) == 1
    assert got.terms_used == 3295
    assert got.truncation_bound == 4.980056582329669e-13


def test_cutoff_limits_raise(monkeypatch):
    import udnet.kernels as kernels

    monkeypatch.setattr(kernels, "_MAX_WEIGHT_CUTOFF", 10)
    with pytest.raises(TruncationError) as exc:
        _weight_cutoff(2, 0.05, 1.0, 1e-12)
    assert exc.value.required_cutoff == 12
    monkeypatch.undo()
    with pytest.raises(TruncationError):  # the Gaussian rate sigma/(2d^2) underflows to 0
        heat_pu_char(KernelParams(2, 5e-324), _pt(2, 0.3))
    with pytest.raises(NumericalInstabilityError, match="no lattice radius up to 512"):
        heat_pu_poisson(KernelParams(2, 1e7), _pt(2, 0.3))


# ---------------------------------------------------------- character plans


def _bits(result):
    if isinstance(result, EvalResult):
        return (result.value.hex(), result.truncation_bound.hex(), result.terms_used)
    vals, bound, terms = result
    return ([v.hex() for v in vals.tolist()], bound.hex(), terms)


def _batch_bits(result):
    vals, bounds, terms = result
    return [[v.hex() for v in vals.tolist()], [b.hex() for b in bounds.tolist()], terms.tolist()]


def test_warm_call_enumerates_nothing(monkeypatch):
    import udnet.kernels as kernels

    theta = np.vstack([_haar_rows(3, 20, seed=8), _confluent_rows(3)])
    x = _pt(3, 0.4, -0.2)
    calls = [
        lambda: heat_pu_char(KernelParams(3, 0.05), x),
        lambda: heat_pu_char(KernelParams(3, 0.3), x),
        lambda: heat_pu_char(KernelParams(3, 0.05, trim_t=4), x),
        lambda: heat_pu_char_batch(KernelParams(3, 0.05), theta),
        lambda: heat_pu_char_batch(KernelParams(3, 0.3), theta),
    ]
    cold = [_bits(call()) for call in calls]
    monkeypatch.setattr(kernels, "_projective_tuples", lambda *args: pytest.fail("enumerated on a warm call"))
    assert [_bits(call()) for call in calls] == cold


def test_plans_are_keyed_on_every_input():
    import udnet.kernels as kernels

    x = _pt(2, 0.3)
    for p in (
        KernelParams(2, 0.05),
        KernelParams(2, 0.05, tail_tol=1e-8),
        KernelParams(2, 0.05, trim_t=3),
        KernelParams(2, 0.05, trim_t=3, tail_tol=1e-8),
        KernelParams(2, 0.06),
    ):
        heat_pu_char(p, x)
    plans = kernels._PLANS._plans
    assert len(plans) == 5
    assert len({id(plan) for plan in plans.values()}) == 5
    assert (2, 0.05, 3, 1e-8) in plans and (2, 0.06, None, 1e-12) in plans
    loose, tight = plans[(2, 0.05, None, 1e-8)], plans[(2, 0.05, None, 1e-12)]
    assert loose.terms < tight.terms
    assert plans[(2, 0.05, 3, 1e-12)].terms == 4  # one-norm <= 6 at d = 2
    assert kernels._PLANS.nbytes == sum(plan.nbytes for plan in plans.values())


def test_plan_arrays_are_read_only():
    import udnet.kernels as kernels

    plan = kernels._PLANS.get(KernelParams(3, 0.1))
    assert len(plan.arrays()) == 2
    for a in plan.arrays():
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


def test_plan_cache_stays_under_its_byte_cap(monkeypatch):
    import udnet.kernels as kernels

    cap = 200_000
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", cap)
    cache = kernels._PLANS
    x = _pt(3, 0.4, -0.2)
    sizes = []
    for sigma in np.geomspace(0.05, 2.0, 12):
        heat_pu_char(KernelParams(3, float(sigma)), x)
        sizes.append(kernels._build_char_plan(KernelParams(3, float(sigma))).nbytes)
        assert cache.nbytes == sum(plan.nbytes for plan in cache._plans.values()) <= cap
    assert sum(sizes) > cap  # some plans were evicted
    # the most recent plans are the ones kept
    kept = [key[1] for key in cache._plans]
    assert kept == [float(s) for s in np.geomspace(0.05, 2.0, 12)][-len(kept) :]
    # a warm call makes its plan the most recent, so the next one evicted is
    # the oldest of the others
    heat_pu_char(KernelParams(3, kept[0]), x)
    heat_pu_char(KernelParams(3, 0.06), x)
    assert [key[1] for key in cache._plans][-2:] == [kept[0], 0.06]
    assert kept[1] not in [key[1] for key in cache._plans]
    # a plan over the cap is used but not kept
    big = KernelParams(3, 0.02)
    assert kernels._build_char_plan(big).nbytes > cap
    before = dict(cache._plans)
    assert heat_pu_char(big, x).terms_used == 5730
    assert cache._plans == before


def test_plan_cache_is_consistent_under_threads(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    import udnet.kernels as kernels

    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", 150_000)
    theta = _haar_rows(3, 16, seed=11)
    params = [KernelParams(3, s) for s in (0.05, 0.07, 0.1, 0.2, 0.5, 1.0)] * 4
    expected = {p: _bits(heat_pu_char_batch(p, theta)) for p in params}
    monkeypatch.setattr(kernels, "_PLANS", kernels._PlanCache())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda p: _bits(heat_pu_char_batch(p, theta)), params, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected[p] for p in params]
    cache = kernels._PLANS
    assert cache.nbytes == sum(plan.nbytes for plan in cache._plans.values()) <= 150_000


def test_empty_eigenphase_batch():
    empty = np.empty((0, 3))
    for p in (KernelParams(3, 0.1), KernelParams(3, 0.1, trim_t=0)):
        vals, bound, terms = heat_pu_char_batch(p, empty)
        assert vals.shape == (0,) and vals.dtype == float
        _, ref_bound, ref_terms = heat_pu_char_batch(p, _haar_rows(3, 2, seed=1))
        assert (bound, terms) == (ref_bound, ref_terms)


def test_non_finite_eigenphase_rows_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            heat_pu_char_batch(KernelParams(3, 0.1), [[bad, 0.0, 0.0]])


# ------------------------------------------------------------------ errors


def test_truncation_error_over_term_budget(monkeypatch):
    # d = 4, sigma = 0.01: the cutoff is one-norm 638, 4,568,178 labels
    import udnet.kernels as kernels

    monkeypatch.setattr(kernels, "_projective_tuples", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(TruncationError) as exc:
        heat_pu_char(KernelParams(4, 0.01), _pt(4, 0.3, -0.1, 0.2))
    assert "needs 4568178 weights" in str(exc.value)
    assert exc.value.required_cutoff == 638


def test_term_budget_checked_before_enumeration(monkeypatch):
    import udnet.kernels as kernels

    calls = []
    monkeypatch.setattr(kernels, "_projective_tuples", lambda *args: calls.append(args))
    with pytest.raises(TruncationError) as exc:
        heat_pu_char(KernelParams(5, 0.2), _pt(5, 0.1, 0.2, -0.3, 0.05))
    assert "needs 2235417 weights" in str(exc.value)
    assert exc.value.required_cutoff == 192
    with pytest.raises(TruncationError) as exc:
        heat_pu_char_batch(KernelParams(4, 0.01), [[0.3, -0.1, 0.2, -0.4]])
    assert exc.value.required_cutoff == 638
    assert calls == []


def test_plancherel_budget_checked_before_enumeration(monkeypatch):
    # d = 5, sigma = 0.01: the Plancherel cutoff is L = 680, 332,237,083 rows.
    import udnet.kernels as kernels

    calls = []
    monkeypatch.setattr(kernels, "_projective_tuples", lambda *args: calls.append(args))
    for call in (
        lambda: trimming_error(5, 0.01, 1),
        lambda: l2_norm_trimmed(5, 0.01, 340),
        lambda: l2_norm_untrimmed(5, 0.01),
    ):
        with pytest.raises(TruncationError) as exc:
            call()
        assert "needs 332237083 weights" in str(exc.value)
        assert exc.value.required_cutoff == 680
    assert calls == []


def test_kernel_params_validation():
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.0)
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.5, trim_t=-1)
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.5, trim_t=1.5)
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.5, tail_tol=0.0)
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.5, trim_t=True)
    # numpy integers are integers, as in the Monte Carlo estimators
    p = KernelParams(3, 0.1, trim_t=np.int64(3))
    assert heat_pu_char(p, _pt(3, 0.2, 0.1)).value == heat_pu_char(
        KernelParams(3, 0.1, trim_t=3), _pt(3, 0.2, 0.1)
    ).value


def test_dimension_mismatch_rejected():
    for kernel in (heat_pu_char, heat_pu_poisson):
        with pytest.raises(InvalidParameterError):
            kernel(KernelParams(2, 0.5), _pt(3, 0.1, 0.2))


def test_error_taxonomy():
    assert issubclass(TruncationError, RuntimeError)
    assert issubclass(NumericalInstabilityError, RuntimeError)
