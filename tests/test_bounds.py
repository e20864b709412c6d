"""Closed-form bounds: frozen theorem values, precondition flags, and
cross-checks against direct kernel computations.

Reference values were produced by tests/oracles.py (mpmath, 50 digits).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from udnet import bounds
from udnet.bounds import (
    A_V,
    C_BIG,
    BoundReport,
    _eta_min_float,
    _log_kappa,
    _weyl_norm_sq,
    application1_ell,
    bound_I0,
    bound_L1_trimmed,
    bound_L2,
    bound_L2_simple,
    bound_R,
    bound_outside_ball,
    bound_trim,
    eta_min,
    ratio_R_over_I0_ok,
    sigma_star,
    t_star,
    theorem1_t_min,
    theorem2_delta_max,
    volume_lower_bound,
)
from udnet.kernels import l2_norm_trimmed, l2_norm_untrimmed, trimming_error
from udnet.lie_core import InvalidParameterError
from udnet.montecarlo import numeric_I0

from oracles import kappa_mp


def test_constants():
    assert C_BIG == pytest.approx(9.0 * math.pi, rel=1e-15)
    assert A_V == pytest.approx(1.0 / (9.0 * math.pi), rel=1e-15)


def test_theorem1_t_min_reference():
    assert theorem1_t_min(2, 0.1) == pytest.approx(8821.8012195939272822, rel=1e-12)


def test_theorem1_t_min_monotone_in_eps():
    vals = [theorem1_t_min(2, e) for e in (0.05, 0.1, 0.3, 1.0, 2.0)]
    assert vals == sorted(vals, reverse=True)


def test_theorem2_reference_values():
    assert theorem2_delta_max(2, 0.1) == pytest.approx(-23.242223207687181114, rel=1e-12)
    assert theorem2_delta_max(2, 0.1, form="kappa") == pytest.approx(
        -21.522864818512250656, rel=1e-12
    )
    assert theorem2_delta_max(2, 0.1, form="exponential") == pytest.approx(
        -21.521741732079627205, rel=1e-12
    )
    assert math.exp(theorem2_delta_max(2, 0.1)) == pytest.approx(
        8.0543540037763218739e-11, rel=1e-12
    )


def test_theorem2_form_ordering_and_monotonicity():
    # the full theorem is the most conservative of the three forms at d = 2
    last = -math.inf
    for e in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0):
        th = theorem2_delta_max(2, e)
        assert th >= last  # ln delta_max grows with eps
        last = th
        assert th <= theorem2_delta_max(2, e, form="kappa")


def test_theorem2_rejects_unknown_form():
    with pytest.raises(InvalidParameterError):
        theorem2_delta_max(2, 0.1, form="linear")


def test_kappa_reference():
    # rel 1e-12 in kappa(2) is abs 1e-12 in its log
    assert _log_kappa(2) == pytest.approx(math.log(0.062429777108126172294), abs=1e-12)
    assert _log_kappa(3) < 0.0


def test_sigma_star_reference_and_monotonicity():
    assert sigma_star(2, 0.1) == pytest.approx(8.8920890816570726446e-6, rel=1e-12)
    vals = [sigma_star(2, e) for e in (0.05, 0.1, 0.5, 1.0)]
    assert vals == sorted(vals)


def test_t_star_reference():
    assert t_star(2, 0.01) == pytest.approx(76.825823305593660814, rel=1e-12)
    # more smoothing needs fewer moments
    assert t_star(2, 0.1) < t_star(2, 0.01)


def test_application1_ell_reference():
    assert application1_ell(2, 0.1, 1e-12) == pytest.approx(
        0.85794646742194750448, rel=1e-12
    )


def test_eta_min_table():
    assert eta_min(2) == Fraction(1, 2)
    assert eta_min(3) == Fraction(1, 12)
    assert eta_min(4) == Fraction(1, 288)
    for d in range(2, 8):
        v = eta_min(d)
        assert isinstance(v, Fraction)
        assert 0 < v <= Fraction(1, 2)


def test_bound_report_flag_mechanics():
    ok = bound_trim(2, 0.5, 25)
    assert isinstance(ok, BoundReport)
    assert ok.all_ok
    assert ok.violated == ()
    assert ok.log_value is not None
    assert ok.value == pytest.approx(math.exp(ok.log_value))
    assert "t_threshold" in ok.extras

    bad = bound_trim(2, 0.5, 5)
    assert not bad.all_ok
    assert bad.violated == ("t-condition",)
    assert bad.log_value is None
    assert bad.value is None
    assert math.isfinite(bad.value_unchecked)


def test_bound_trim_flag_flips_at_threshold():
    thr = bound_trim(2, 0.5, 25).extras["t_threshold"]
    below = bound_trim(2, 0.5, math.floor(thr))
    above = bound_trim(2, 0.5, math.ceil(thr) + 1)
    assert not below.all_ok
    assert above.all_ok


def test_bound_trim_dominates_true_trimming_error():
    for d, sigma in [(2, 0.5), (2, 0.2), (3, 0.8)]:
        for t in (10, 20, 40):
            rep = bound_trim(d, sigma, t)
            err = trimming_error(d, sigma, t)
            if rep.all_ok:
                assert err <= rep.value
            else:
                assert err <= rep.value_unchecked


def test_bound_l2_dominates_true_norms():
    rep = bound_L2(2, 0.5)
    assert rep.all_ok
    assert l2_norm_trimmed(2, 0.5, 3) <= rep.value
    simple = bound_L2_simple(2, 0.5)
    assert simple.all_ok
    assert l2_norm_untrimmed(2, 0.5) <= simple.value
    # sigma above the d = 3 threshold only loosens the flag, not the bound
    flagged = bound_L2_simple(3, 0.9)
    assert not flagged.all_ok
    assert l2_norm_untrimmed(3, 0.2) <= bound_L2_simple(3, 0.2).value


def test_bound_l1_trimmed_at_least_one():
    # ||trimmed kernel||_1 >= |integral| = 1, so any valid upper bound is >= 1
    rep = bound_L1_trimmed(2, 0.5, 10)
    assert rep.value_unchecked >= 1.0


def test_bound_outside_ball_flags_and_value():
    t = math.ceil(t_star(2, 0.005))
    rep = bound_outside_ball(2, 0.005, t, 0.3, 0.5)
    names = dict(rep.preconditions_ok)
    assert set(names) == {"t-condition", "sigma-condition", "eta-condition"}
    assert rep.value_unchecked > 0.0
    assert rep.citation == "mass-outside-ball"


def test_bound_I0_dominates_quadrature():
    # closed-form upper bound vs direct grid integration of the same integral
    rep = bound_I0(2, 0.02, 0.8)
    assert rep.all_ok
    direct = numeric_I0(2, 0.02, 0.8, 4096)
    assert direct <= rep.value


def test_bound_R_is_small_and_ratio_holds():
    rep = bound_R(2, 0.05)
    assert rep.all_ok
    assert rep.citation == "lattice-remainder"
    assert rep.value < 1e-50
    ratio = ratio_R_over_I0_ok(2, 0.05, 0.5)
    assert ratio.all_ok
    assert ratio.extras["holds"]
    assert ratio.extras["log_lhs"] <= ratio.extras["log_rhs"]


def test_volume_lower_bound_monotone():
    a = volume_lower_bound(2, 0.1)
    b = volume_lower_bound(2, 0.2)
    assert math.isfinite(a) and math.isfinite(b)
    assert a < b < 0.0


def test_parameter_validation_messages():
    with pytest.raises(InvalidParameterError, match=r"eps must lie in \(0, 2\], got 3.0"):
        theorem1_t_min(2, 3.0)
    with pytest.raises(InvalidParameterError, match="sigma must be a finite positive real"):
        t_star(2, 0.0)


def test_aux_inequalities_hold():
    # shell counts of the lattice, in integers
    for d in range(2, 7):
        for r in range(1, 21):
            assert (2 * r + 1) ** d - (2 * r - 1) ** d <= 2**d * (2 * r) ** (d - 1)
    # Gamma(s, x) <= exp(-x) x^s / (x - s + 1) for x > s - 1, on seeded draws
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = float(rng.uniform(1.0, 10.0))
        x = float(s - 1.0 + rng.uniform(0.05, 20.0))
        assert float(mp.gammainc(s, x)) <= math.exp(-x) * x**s / (x - s + 1.0) * (1.0 + 1e-9)
    # the factorial floor (d/4)^(-d^2/8) >= eta_min(d)
    for d in range(2, 7):
        assert (d / 4.0) ** (-d * d / 8.0) >= float(eta_min(d))


def test_log_kappa_matches_the_oracle_past_the_float_range():
    for d in range(2, 201):
        assert _log_kappa(d) == pytest.approx(float(mp.log(kappa_mp(d))), rel=1e-15)
    for d in (54, 60, 200):
        assert math.isfinite(theorem2_delta_max(d, 0.5, form="kappa"))
        assert math.isfinite(application1_ell(d, 0.5, 1e-3))


def test_bound_l2_from_the_exact_log_of_eta_min():
    # float(eta_min(d)) underflows to 0 from d = 28; the bound is finite there
    for d in range(28, 41):
        assert math.isfinite(bound_L2(d, 0.01).log_value_unchecked)
    # below that, the value the bound had when formed from float(eta_min(d))
    for d in range(2, 28):
        for sigma in (0.01, 0.3):
            rep = bound_L2(d, sigma)
            m = d * (d - 1) // 2
            remainder = (
                math.log(d)
                + 0.5 * math.lgamma(d + 1)
                - (m - 1) * math.log(2.0)
                + math.log(float(eta_min(d)))
                + (d * d - 1) / 24 * sigma
            )
            before = float(np.logaddexp(rep.extras["log_i00_term"], remainder))
            assert rep.log_value_unchecked == pytest.approx(before, rel=1e-13)


def test_closed_form_constants_match_the_exact_ones():
    # |delta|^2 = (d^2-1)/24 is the correctly rounded rational, at any d
    # whose d^2 a float holds
    for d in [*range(2, 41), 10**6 + 1, 3**100, 10**150 + 7]:
        assert _weyl_norm_sq(d) == float(Fraction(d * d - 1, 24))
    # the eta-conditions compare with float(eta_min(d)) bit for bit: at its
    # float, at both neighbours (subnormals at d = 27) and at 0.5
    for d in range(2, 41):
        floor = float(eta_min(d))
        assert _eta_min_float(d) == floor
        etas = (floor, math.nextafter(floor, 0.0), math.nextafter(floor, 1.0), 0.5)
        for eta in (e for e in etas if e > 0.0):
            want = eta >= floor
            outside = bound_outside_ball(d, 0.01, 100, 0.5, eta)
            ratio = ratio_R_over_I0_ok(d, 0.01, eta)
            assert dict(outside.preconditions_ok)["eta-condition"] is want
            assert dict(ratio.preconditions_ok)["eta-condition"] is want


@pytest.mark.parametrize("d", [28, 10**4])
def test_bounds_build_no_factorial_product(monkeypatch, d):
    # every calculator but eta_min reads the group's constants in closed
    # form or in logs, so none forms d! or 1! 2! ... d!
    def refuse(*args):
        raise AssertionError("an exact factorial product was formed")

    monkeypatch.setattr(math, "factorial", refuse)
    monkeypatch.setattr(bounds, "eta_min", refuse)
    sigma, t, eps = 1e-3, 10**9, 0.5
    calls = {
        "t_star": lambda: t_star(d, sigma),
        "sigma_star": lambda: sigma_star(d, eps),
        "bound_trim": lambda: bound_trim(d, sigma, t),
        "bound_I0": lambda: bound_I0(d, sigma, eps),
        "bound_R": lambda: bound_R(d, sigma),
        "ratio_R_over_I0_ok": lambda: ratio_R_over_I0_ok(d, sigma, 1e-3),
        "bound_outside_ball": lambda: bound_outside_ball(d, sigma, t, eps, 1e-3),
        "bound_L2": lambda: bound_L2(d, sigma),
        "bound_L2_simple": lambda: bound_L2_simple(d, sigma),
        "bound_L1_trimmed": lambda: bound_L1_trimmed(d, sigma, t),
        "theorem1_t_min": lambda: theorem1_t_min(d, eps),
        "theorem2_delta_max": lambda: [theorem2_delta_max(d, eps, f) for f in ("theorem", "kappa", "exponential")],
        "application1_ell": lambda: application1_ell(d, eps, 1e-3),
        "volume_lower_bound": lambda: volume_lower_bound(d, eps),
    }
    assert set(calls) | {"A_V", "C_BIG", "BoundReport", "eta_min"} == set(bounds.__all__)
    for name, call in calls.items():
        out = call()
        if isinstance(out, BoundReport):
            assert not math.isnan(out.log_value_unchecked), name
            assert all(isinstance(ok, bool) for _, ok in out.preconditions_ok), name
        else:
            assert all(math.isfinite(v) for v in np.atleast_1d(out)), name
