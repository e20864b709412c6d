"""Sampling, projective distance, quadrature, and estimator determinism.

Statistical assertions use 5 standard errors around exact first moments
(E|Tr U|^2 = 1 on SU(d), E Tr A^2 = (d^2-1)/2 for the traceless GUE), so
spurious failures sit at the 1e-6 level. The eigenvalue samplers are also
checked on every power moment E|Tr U^k|^2 = min(k, d) (4 standard errors
each), and against their matrix oracles by two-sample Kolmogorov-Smirnov
tests whose p-values must exceed 1e-6.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import ks_2samp

from udnet.design_tester import _haar_su
from udnet.lie_core import TWO_PI, InvalidDimensionError, InvalidParameterError, _min_gaps
from udnet.montecarlo import (
    McEstimate,
    RngStream,
    _dp_to_identity,
    _gue_eigenvalues,
    _haar_eigenphases,
    _logsumexp,
    gue_opnorm_cdf,
    gue_tail_mc,
    mc_normalization,
    mc_outside_ball,
    numeric_I0,
    torus_grid,
)

from oracles import gue_traceless, haar_eigenphases_qr, projective_distance, torus_quadrature


def test_rng_stream_validation():
    with pytest.raises(InvalidParameterError, match="64 unsigned bits"):
        RngStream(-1)
    with pytest.raises(InvalidParameterError, match="32 unsigned bits"):
        RngStream(0, stream_id=-2)
    with pytest.raises(InvalidParameterError, match="seed must be an integer"):
        RngStream(1.5)


def test_haar_samples_lie_in_su_d():
    for d in (2, 3):
        u = _haar_su(d, 200, RngStream(3).generator())
        assert u.shape == (200, d, d)
        eye = np.eye(d)
        assert abs(np.einsum("nij,nkj->nik", u, u.conj()) - eye).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0).max() < 1e-12


def test_haar_first_moment_of_abs_trace_squared():
    u = _haar_su(2, 40_000, RngStream(17).generator())
    vals = np.abs(np.einsum("nii->n", u)) ** 2
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 5.0 * se


def test_gue_traceless_structure_and_second_moment():
    a = gue_traceless(3, 20_000, RngStream(0).generator())
    assert abs(a - a.conj().transpose(0, 2, 1)).max() == 0.0
    assert abs(np.trace(a, axis1=1, axis2=2)).max() < 1e-12
    tr2 = np.einsum("nij,nji->n", a, a).real
    se = tr2.std(ddof=1) / math.sqrt(tr2.size)
    assert abs(tr2.mean() - 4.0) < 5.0 * se  # (d^2-1)/2 at d = 3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_haar_eigenphase_power_moments(d):
    # E|Tr U^k|^2 = min(k, d) on SU(d) for k = 1..d: exact for k <= d, and
    # at k = d + 1 too, since the det = 1 correction needs k a multiple of d
    theta = _haar_eigenphases(d, 40_000, RngStream(30 + d).generator())
    for k in range(1, d + 2):
        vals = np.abs(np.exp(1j * k * theta).sum(axis=1)) ** 2
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - min(k, d)) < 4.0 * se, (k, vals.mean())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_haar_eigenphase_rows_are_su_d_classes(d):
    theta = _haar_eigenphases(d, 5_000, RngStream(d).generator())
    assert theta.shape == (5_000, d)
    assert np.all(np.abs(theta) <= math.pi)
    total = theta.sum(axis=1)
    assert np.abs(total - TWO_PI * np.round(total / TWO_PI)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_haar_eigenphases_match_the_matrix_sampler(d):
    new = _haar_eigenphases(d, 20_000, RngStream(40 + d).generator())
    ref = haar_eigenphases_qr(d, 20_000, RngStream(50 + d).generator())
    for stat in (_min_gaps, lambda th: _dp_to_identity(th, d)):
        assert ks_2samp(stat(new), stat(ref)).pvalue > 1e-6


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gue_eigenvalues_second_moment_and_trace(d):
    ev = _gue_eigenvalues(d, 20_000, RngStream(60 + d).generator())
    assert ev.shape == (20_000, d)
    assert np.abs(ev.sum(axis=1)).max() < 1e-12
    tr2 = (ev * ev).sum(axis=1)
    se = tr2.std(ddof=1) / math.sqrt(tr2.size)
    assert abs(tr2.mean() - (d * d - 1) / 2.0) < 5.0 * se


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gue_eigenvalues_match_the_matrix_sampler(d):
    new = _gue_eigenvalues(d, 20_000, RngStream(70 + d).generator())
    ref = np.linalg.eigvalsh(gue_traceless(d, 20_000, RngStream(80 + d).generator()))
    for stat in (lambda ev: ev[:, -1], lambda ev: ev[:, -1] - ev[:, 0], lambda ev: np.abs(ev).max(axis=1)):
        assert ks_2samp(stat(new), stat(ref)).pvalue > 1e-6


def test_projective_distance_reference_points():
    eye = np.eye(2, dtype=complex)
    ix = 1j * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert projective_distance(eye, eye, 2) == 0.0
    # center representatives are identified
    assert projective_distance(eye, -eye, 2) == pytest.approx(0.0, abs=1e-12)
    # a traceless unitary realizes the PU(2) diameter sqrt(2)
    assert projective_distance(eye, ix, 2) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_projective_distance_triangle_inequality():
    rng = RngStream(9)
    u = _haar_su(3, 30, rng.generator())
    for i in range(0, 30, 3):
        a, b, c = u[i], u[i + 1], u[i + 2]
        dab = projective_distance(a, b, 3)
        dbc = projective_distance(b, c, 3)
        dac = projective_distance(a, c, 3)
        assert dac <= dab + dbc + 1e-12


def test_gue_opnorm_cdf_limits_and_monotonicity():
    assert gue_opnorm_cdf(2, 0.0) == 0.0
    assert gue_opnorm_cdf(2, 50.0) == pytest.approx(1.0, abs=1e-12)
    grid = [gue_opnorm_cdf(2, r) for r in (0.5, 1.0, 2.0, 3.0, 5.0)]
    assert grid == sorted(grid)
    # rounding may poke a few ulp above 1
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in grid)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.5, 2.0, 3.0, 5.0])
def test_gue_opnorm_cdf_matches_mpmath(r):
    with mp.workdps(40):
        density = lambda y: y * y * mp.exp(-2 * y * y) * 16 / mp.sqrt(2 * mp.pi)
        cdf = float(mp.quad(density, [0, r]))
        tail = float(mp.quad(density, [r, mp.inf]))
    got = gue_opnorm_cdf(2, r)
    assert abs(got - cdf) <= 1e-16
    assert abs((1.0 - got) - tail) <= 1e-16


def test_gue_tail_mc_matches_cdf():
    est = gue_tail_mc(2, 2.0, 40_000, RngStream(21))
    assert isinstance(est, McEstimate)
    want = 1.0 - gue_opnorm_cdf(2, 2.0)
    assert abs(est.mean - want) < 5.0 * est.std_error + 1e-6


def test_torus_grid_shapes_and_weight_normalization():
    phi, w = torus_grid(2, 64)
    assert phi.shape == (64, 1) and w.shape == (64,)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    phi3, w3 = torus_grid(3, 24)
    assert phi3.shape == (24 * 24, 2)
    assert w3.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidDimensionError):
        torus_grid(4, 8)
    with pytest.raises(InvalidParameterError):
        torus_grid(2, 1)


def test_torus_quadrature_of_constant():
    assert torus_quadrature(2, 64, lambda p: 1.0) == pytest.approx(1.0, abs=1e-12)
    assert torus_quadrature(3, 24, lambda p: 1.0) == pytest.approx(1.0, abs=1e-12)


def test_numeric_I0_full_group_limit():
    # a vanishing ball radius turns I0 into the normalization integral
    assert numeric_I0(2, 0.05, 1e-9, 8192) == pytest.approx(1.0, rel=1e-3)


def test_numeric_I0_reference_value():
    # mpmath reference 3.1823207830049371142e-29; the rectangle rule and the
    # sharp box cut leave percent-level error at this resolution
    got = numeric_I0(2, 0.02, 0.8, 32_768)
    assert got == pytest.approx(3.1823207830049371142e-29, rel=0.2)


def _logsumexp_cases():
    rng = np.random.default_rng(20240611)
    for k in range(400):
        n = int(rng.integers(1, 300))
        a = rng.normal(scale=[1e-3, 1.0, 40.0, 700.0][k % 4], size=n)
        if k % 5 == 1:
            a[rng.integers(0, n, size=max(1, n // 4))] = a.max()
        elif k % 5 == 2:
            a = np.full(n, a[0])
        elif k % 5 == 3:
            a = np.round(a, 1)
        elif k % 5 == 4:
            a = a[:1]
        yield a


def test_logsumexp_is_bit_identical_to_scipy():
    for a in _logsumexp_cases():
        assert _logsumexp(a) == float(logsumexp(a)), a


@pytest.mark.parametrize(
    "args, bits",
    [
        ((2, 0.02, 0.8, 4096), "0x1.44b0c0d3db440p-95"),
        ((2, 0.05, 1e-9, 8192), "0x1.0000000000000p+0"),
        ((3, 0.05, 0.3, 96), "0x1.446b163ea53e6p-2"),
        ((3, 0.1, 0.5, 128), "0x1.4ef8ca541c679p-4"),
    ],
)
def test_numeric_I0_bits_are_pinned(args, bits):
    # the bits numeric_I0 gave when it summed with scipy.special.logsumexp
    assert numeric_I0(*args).hex() == bits


def test_mc_normalization_trim_zero_is_exact():
    est = mc_normalization(2, 0.5, 0, 500, RngStream(2))
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.n == 500


def test_mc_normalization_untrimmed_near_one():
    est = mc_normalization(2, 0.5, None, 20_000, RngStream(4))
    assert abs(est.mean - 1.0) < 5.0 * est.std_error
    assert est.std_error > 0.0


def test_mc_normalization_threads_share_one_plan_exactly():
    # 70,000 samples run as several chunks; at two workers they share one
    # character plan across threads and must give the same bits as one worker
    one = mc_normalization(3, 0.2, None, 70_000, RngStream(1), workers=1)
    two = mc_normalization(3, 0.2, None, 70_000, RngStream(1), workers=2)
    assert (two.mean, two.std_error, two.n) == (one.mean, one.std_error, one.n)


def test_mc_outside_ball_at_diameter_is_zero():
    est = mc_outside_ball(2, 0.5, None, 2.0, 1_000, RngStream(5))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_mc_outside_ball_monotone_in_eps_on_shared_stream():
    # same seed resamples the same points, so the indicator mass is pointwise
    # monotone in the radius
    lo = mc_outside_ball(2, 0.3, None, 0.4, 4_000, RngStream(6))
    hi = mc_outside_ball(2, 0.3, None, 1.2, 4_000, RngStream(6))
    assert hi.mean <= lo.mean


def test_estimators_are_deterministic():
    a = mc_normalization(2, 0.5, 2, 6_000, RngStream(7))
    b = mc_normalization(2, 0.5, 2, 6_000, RngStream(7))
    assert (a.mean, a.std_error, a.n) == (b.mean, b.std_error, b.n)
    c = mc_normalization(2, 0.5, 2, 6_000, RngStream(7, stream_id=1))
    assert c.mean != a.mean


@pytest.mark.parametrize(
    "estimate",
    [
        lambda w: mc_outside_ball(3, 0.3, None, 1.0, 70_000, RngStream(12), workers=w),
        lambda w: gue_tail_mc(3, 2.5, 70_000, RngStream(13), workers=w),
    ],
    ids=["outside-ball", "gue"],
)
def test_eigenvalue_estimators_are_thread_independent_at_d3(estimate):
    # 70,000 draws make three chunks, each drawn in rejection rounds (Haar)
    # or one tridiagonal batch (GUE) from its own substream
    one, two = estimate(1), estimate(2)
    assert (two.mean, two.std_error, two.n) == (one.mean, one.std_error, one.n)


def test_worker_count_does_not_change_results():
    base = gue_tail_mc(2, 1.5, 70_000, RngStream(8), workers=1)
    par = gue_tail_mc(2, 1.5, 70_000, RngStream(8), workers=4)
    assert (base.mean, base.std_error) == (par.mean, par.std_error)
    nb = mc_outside_ball(2, 0.4, None, 1.0, 9_000, RngStream(9), workers=1)
    np_ = mc_outside_ball(2, 0.4, None, 1.0, 9_000, RngStream(9), workers=3)
    assert (nb.mean, nb.std_error) == (np_.mean, np_.std_error)
