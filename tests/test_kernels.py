"""Heat-kernel evaluation: frozen reference values, dual-route agreement,
symmetries, trimming, and truncation errors.

Reference values were produced by tests/oracles.py (mpmath, 50 digits) and
are quoted to full double precision.
"""

from __future__ import annotations

import math

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
    heat_su_char,
    heat_su_char_batch,
    heat_su_poisson,
    l2_norm_trimmed,
    l2_norm_untrimmed,
    trimming_error,
)
from udnet.lie_core import InvalidParameterError, TorusPoint


def _pt(d, *phi):
    return TorusPoint(d, phi)


# ---------------------------------------------------------------- reference


@pytest.mark.parametrize(
    "d,sigma,phi,expected",
    [
        (2, 0.2, (0.3,), 47.43854205730573754),
        (3, 0.5, (0.7, -0.4), 993.37854676591078918),
        (4, 0.8, (0.5, -0.3, 0.9), 3098.0147613156998561),
    ],
)
def test_heat_su_reference_values_both_routes(d, sigma, phi, expected):
    p = KernelParams(d, sigma)
    x = _pt(d, *phi)
    for fn in (heat_su_char, heat_su_poisson):
        r = fn(p, x)
        assert isinstance(r, EvalResult)
        assert r.value == pytest.approx(expected, rel=1e-12)
        assert r.terms_used > 0
        assert 0.0 <= r.truncation_bound < 1e-10


def test_heat_pu_reference_value_both_routes():
    p = KernelParams(3, 0.5)
    x = _pt(3, 0.7, -0.4)
    expected = 331.12618225530359639
    assert heat_pu_char(p, x).value == pytest.approx(expected, rel=1e-12)
    assert heat_pu_poisson(p, x).value == pytest.approx(expected, rel=1e-12)


def test_small_sigma_reference_values_poisson():
    # sigma = 0.05 needs thousands of character terms but only a handful of
    # lattice terms; the char route must still agree
    su = heat_su_poisson(KernelParams(3, 0.05), _pt(3, 0.4, -0.15))
    pu = heat_pu_poisson(KernelParams(3, 0.05), _pt(3, 0.4, -0.15))
    assert su.value == pytest.approx(47514.97992882820572, rel=1e-12)
    assert pu.value == pytest.approx(15838.32664294273524, rel=1e-12)
    assert heat_su_char(KernelParams(3, 0.05), _pt(3, 0.4, -0.15)).value == pytest.approx(
        47514.97992882820572, rel=1e-9
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
        a = heat_su_char(p, x)
        b = heat_su_poisson(p, x)
        assert a.value == pytest.approx(b.value, rel=1e-9)
        c = heat_pu_char(p, x)
        f = heat_pu_poisson(p, x)
        assert c.value == pytest.approx(f.value, rel=1e-9)
        done += 1


def test_poisson_handles_singular_points_via_jitter():
    # identity has zero eigenphase gap; the jittered Poisson value must match
    # the character route, which is exact there
    for d, sigma in [(2, 0.5), (3, 0.8)]:
        e = _pt(d, *((0.0,) * (d - 1)))
        a = heat_su_char(KernelParams(d, sigma), e)
        b = heat_su_poisson(KernelParams(d, sigma), e)
        assert b.value == pytest.approx(a.value, rel=1e-7)


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
    a = heat_su_char(p, _pt(3, 0.4, -0.15))
    b = heat_su_char(p, _pt(3, -0.4, 0.15))
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
        assert heat_su_poisson(p, x).value > 0.0
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

    svals, _, _ = heat_su_char_batch(p, theta)
    assert svals[0] == pytest.approx(993.37854676591078918, rel=1e-12)


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


# ------------------------------------------------------------------ errors


def test_truncation_error_on_tiny_term_budget():
    p = KernelParams(2, 0.05, max_terms=10)
    with pytest.raises(TruncationError) as exc:
        heat_su_char(p, _pt(2, 0.3))
    assert exc.value.required_cutoff > 10


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
        KernelParams(2, 0.5, lattice_radius=0)
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.5, max_terms=0)
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.5, max_terms=True)
    with pytest.raises(InvalidParameterError):
        KernelParams(2, 0.5, trim_t=True)
    # numpy integers are integers, as in the Monte Carlo estimators
    p = KernelParams(3, 0.1, trim_t=np.int64(3))
    assert heat_pu_char(p, _pt(3, 0.2, 0.1)).value == heat_pu_char(
        KernelParams(3, 0.1, trim_t=3), _pt(3, 0.2, 0.1)
    ).value


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        heat_su_char(KernelParams(2, 0.5), _pt(3, 0.1, 0.2))


def test_error_taxonomy():
    assert issubclass(TruncationError, RuntimeError)
    assert issubclass(NumericalInstabilityError, RuntimeError)


def test_explicit_lattice_radius_honored():
    # radius 1 at moderate sigma already reproduces the automatic answer
    x = _pt(2, 0.3)
    auto = heat_su_poisson(KernelParams(2, 0.2), x)
    fixed = heat_su_poisson(KernelParams(2, 0.2, lattice_radius=3), x)
    assert fixed.value == pytest.approx(auto.value, rel=1e-12)
