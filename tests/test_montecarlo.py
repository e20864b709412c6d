"""Sampling, projective distance, quadrature, and estimator determinism.

Statistical assertions use 5 standard errors around exact first moments
(E|Tr U|^2 = 1 on SU(d), E Tr A^2 = (d^2-1)/2 for the traceless GUE), so
spurious failures sit at the 1e-6 level. The eigenphases of the Haar
matrices are also checked on every power moment E|Tr U^k|^2 = min(k, d)
(4 standard errors each), and the GUE tridiagonal model against its matrix
oracle by two-sample Kolmogorov-Smirnov tests whose p-values must exceed
1e-6. The Sturm count is checked against eigvalsh, and the GUE tail,
numeric_I0 and the projective distance against their earlier forms in
oracles, bit for bit; the blocked loops also have their traced working sets
bounded.
"""

from __future__ import annotations

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import ks_2samp

from udnet.design_tester import _haar_su
from udnet.lie_core import TWO_PI, InvalidDimensionError, InvalidParameterError, ResourceLimitError
from udnet.montecarlo import (
    McEstimate,
    RngStream,
    _exact_grid_n,
    _dp_to_identity,
    _gue_tridiagonal,
    _logsumexp,
    _mc_run,
    _sturm_count,
    gue_opnorm_cdf,
    gue_tail_mc,
    numeric_I0,
    torus_grid,
)
from udnet.weights_chars import _char_batch, _projective_tuples

from oracles import (
    dp_to_identity_broadcast,
    gue_tail_eigvalsh,
    gue_traceless,
    haar_eigenphases_qr,
    numeric_I0_whole,
    projective_distance,
    stream_generator,
    torus_quadrature,
)


def test_rng_stream_validation():
    with pytest.raises(InvalidParameterError, match="64 unsigned bits"):
        RngStream(-1)
    with pytest.raises(InvalidParameterError, match="32 unsigned bits"):
        RngStream(0, stream_id=-2)
    with pytest.raises(InvalidParameterError, match="seed must be an integer"):
        RngStream(1.5)


def test_haar_samples_lie_in_su_d():
    for d in (2, 3):
        u = _haar_su(d, 200, stream_generator(3))
        assert u.shape == (200, d, d)
        eye = np.eye(d)
        assert abs(np.einsum("nij,nkj->nik", u, u.conj()) - eye).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0).max() < 1e-12


def test_haar_first_moment_of_abs_trace_squared():
    u = _haar_su(2, 40_000, stream_generator(17))
    vals = np.abs(np.einsum("nii->n", u)) ** 2
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 5.0 * se


def test_gue_traceless_structure_and_second_moment():
    a = gue_traceless(3, 20_000, stream_generator(0))
    assert abs(a - a.conj().transpose(0, 2, 1)).max() == 0.0
    assert abs(np.trace(a, axis1=1, axis2=2)).max() < 1e-12
    tr2 = np.einsum("nij,nji->n", a, a).real
    se = tr2.std(ddof=1) / math.sqrt(tr2.size)
    assert abs(tr2.mean() - 4.0) < 5.0 * se  # (d^2-1)/2 at d = 3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_haar_eigenphase_power_moments(d):
    # E|Tr U^k|^2 = min(k, d) on SU(d) for k = 1..d: exact for k <= d, and
    # at k = d + 1 too, since the det = 1 correction needs k a multiple of d;
    # the eigenphases are those of _haar_su, the sampler of net_probe
    theta = haar_eigenphases_qr(d, 40_000, stream_generator(30 + d))
    for k in range(1, d + 2):
        vals = np.abs(np.exp(1j * k * theta).sum(axis=1)) ** 2
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - min(k, d)) < 4.0 * se, (k, vals.mean())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_haar_eigenphase_rows_are_su_d_classes(d):
    theta = haar_eigenphases_qr(d, 5_000, stream_generator(d))
    assert theta.shape == (5_000, d)
    assert np.all(np.abs(theta) <= math.pi)
    total = theta.sum(axis=1)
    assert np.abs(total - TWO_PI * np.round(total / TWO_PI)).max() < 1e-12


def _tridiagonal(diag, off):
    """Dense (n, d, d) symmetric tridiagonal matrices from their bands."""
    n, d = diag.shape
    t = np.zeros((n, d, d))
    idx = np.arange(d)
    t[:, idx, idx] = diag
    t[:, idx[1:], idx[:-1]] = off
    t[:, idx[:-1], idx[1:]] = off
    return t


def _tridiagonal_eigenvalues(d, n, seed):
    """Traceless GUE eigenvalue rows: eigvalsh of the tridiagonal model, less
    the mean of its diagonal."""
    diag, off = _gue_tridiagonal(d, n, stream_generator(seed))
    assert diag.shape == (n, d) and off.shape == (n, d - 1)
    return np.linalg.eigvalsh(_tridiagonal(diag, off)) - diag.mean(axis=1, keepdims=True)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gue_eigenvalues_second_moment_and_trace(d):
    ev = _tridiagonal_eigenvalues(d, 20_000, 60 + d)
    assert np.abs(ev.sum(axis=1)).max() < 1e-12
    tr2 = (ev * ev).sum(axis=1)
    se = tr2.std(ddof=1) / math.sqrt(tr2.size)
    assert abs(tr2.mean() - (d * d - 1) / 2.0) < 5.0 * se


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gue_eigenvalues_match_the_matrix_sampler(d):
    new = _tridiagonal_eigenvalues(d, 20_000, 70 + d)
    ref = np.linalg.eigvalsh(gue_traceless(d, 20_000, stream_generator(80 + d)))
    for stat in (lambda ev: ev[:, -1], lambda ev: ev[:, -1] - ev[:, 0], lambda ev: np.abs(ev).max(axis=1)):
        assert ks_2samp(stat(new), stat(ref)).pvalue > 1e-6


@pytest.mark.parametrize("d", range(2, 8))
def test_sturm_count_matches_eigvalsh(d):
    # nu(x) = #{eigenvalues < x}; rows with an eigenvalue within 8 u ||T|| of
    # x are left out, since there eigvalsh may put it on either side
    n = 6_000
    gen = np.random.default_rng(1000 + d)
    diag, off = _gue_tridiagonal(d, n, gen)
    off[::4, gen.integers(0, d - 1)] = 0.0  # reducible rows
    off[1::9] = 0.0  # diagonal rows
    ev = np.linalg.eigvalsh(_tridiagonal(diag, off))
    norm = np.abs(ev).max(axis=1)
    shifts = {
        "random": gen.normal(0.0, 1.5, n),
        "diagonal entry": diag[np.arange(n), gen.integers(0, d, n)],
        "first diagonal entry": diag[:, 0],  # q_1 is exactly 0
        "+1e6": np.full(n, 1e6),
        "-1e6": np.full(n, -1e6),
    }
    for name, x in shifts.items():
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = _sturm_count(diag, off, x)
        want = (ev < x[:, None]).sum(axis=1)
        safe = np.abs(ev - x[:, None]).min(axis=1) > 8.0 * 2.0**-53 * norm
        assert safe.mean() > 0.5, name
        assert np.array_equal(got[safe], want[safe]), name
    # two shifts per row broadcast as (2, n)
    x = np.stack([shifts["random"], -shifts["random"]])
    assert np.array_equal(_sturm_count(diag, off, x), [_sturm_count(diag, off, row) for row in x])


def test_sturm_count_puts_an_eigenvalue_at_x_below_it():
    # a zero pivot becomes -pivmin (LAPACK dstebz), so on a diagonal T the
    # count at x = a_k is #{j : a_j <= a_k}, ties included
    diag = np.array([[0.5, -1.0, 0.5, 2.0], [3.0, 3.0, 3.0, 3.0], [0.0, 1.0, -1.0, 0.0]])
    off = np.zeros((3, 3))
    for k in range(4):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = _sturm_count(diag, off, diag[:, k])
        assert np.array_equal(got, (diag <= diag[:, k : k + 1]).sum(axis=1)), k


@pytest.mark.parametrize(
    "d, r, mean",
    [(2, 1.5, 0.02909), (3, 2.5, 0.00646), (4, 3.0, 0.00515), (5, 3.0, 0.04566), (7, 4.0, 0.00577)],
)
def test_gue_tail_mc_is_the_eigvalsh_tail_bit_for_bit(d, r, mean):
    # the Sturm count gives the rows eigvalsh gave; the means are the ones
    # the eigvalsh tail printed
    est = gue_tail_mc(d, r, 100_000, RngStream(7, stream_id=d))
    ref = gue_tail_eigvalsh(d, r, 100_000, RngStream(7, stream_id=d))
    assert (est.mean, est.std_error, est.n) == (ref.mean, ref.std_error, ref.n)
    assert est.mean == mean


def _uniform_torus_rows(d, n, seed):
    """n eigenphase rows (n, d) of SU(d) classes, phi uniform on the torus
    and theta_d = -sum(phi) wrapped to [-pi, pi)."""
    phi = np.random.default_rng(seed).uniform(-math.pi, math.pi, (n, d - 1))
    last = np.remainder(-phi.sum(axis=1, keepdims=True) + math.pi, TWO_PI) - math.pi
    return np.concatenate([phi, last], axis=1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dp_to_identity_is_the_broadcast_bit_for_bit(d):
    # one center shift at a time with a running minimum gives the bits of the
    # (n, d, d) broadcast: max and min are exact
    theta = _uniform_torus_rows(d, 20_000, 60 + d)
    theta[:100] = math.pi
    theta[100:200] = -math.pi
    theta[200:300, 0] = math.pi
    for r in range(d):
        rows = slice(300 + 100 * r, 400 + 100 * r)
        # near omega^r I: every phase within 1e-9 of 2 pi r / d, wrapped
        near = TWO_PI * r / d + 1e-9 * np.random.default_rng(r).standard_normal((100, d))
        theta[rows] = np.remainder(near + math.pi, TWO_PI) - math.pi
    got = _dp_to_identity(theta, d)
    assert np.array_equal(got, dp_to_identity_broadcast(theta, d))
    assert got[300 : 300 + 100 * d].max() < 1e-8


def test_dp_to_identity_working_set_is_one_shift():
    # the (n, d, d) broadcast traced 4.3 MB at n = 20,000, d = 3
    theta = _uniform_torus_rows(3, 20_000, 61)
    tracemalloc.start()
    try:
        _dp_to_identity(theta, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_projective_distance_reference_points():
    eye = np.eye(2, dtype=complex)
    ix = 1j * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert projective_distance(eye, eye, 2) == 0.0
    # center representatives are identified
    assert projective_distance(eye, -eye, 2) == pytest.approx(0.0, abs=1e-12)
    # a traceless unitary realizes the PU(2) diameter sqrt(2)
    assert projective_distance(eye, ix, 2) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_projective_distance_triangle_inequality():
    u = _haar_su(3, 30, stream_generator(9))
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


def test_gue_opnorm_cdf_is_relatively_accurate_at_small_r():
    # erf(sqrt(2) r) and the Gaussian term cancel to O(r^3); the closed form
    # lost 7.9e-9 of the value at r = 1e-4. The value at r = 1.5, the only
    # radius a caller uses, is the closed form's, bit for bit.
    with mp.workdps(50):
        for r in np.geomspace(1e-6, 5.0, 61).tolist() + [0.4999999, 0.5]:
            x = mp.mpf(r)
            want = mp.erf(mp.sqrt(2) * x) - 4 * x / mp.sqrt(2 * mp.pi) * mp.exp(-2 * x * x)
            assert abs(gue_opnorm_cdf(2, r) - want) <= 1e-13 * want, r
    assert gue_opnorm_cdf(2, 1.5) == 0.9707091134651118


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
    # |Delta|^2 has spread 2(d - 1), so the weights' sum, the Haar measure
    # of the group, is exact from _exact_grid_n(d, 0) = 2d - 1 on
    for d, grid in ((4, 7), (4, 8), (5, 9), (5, 12)):
        phi, w = torus_grid(d, grid)
        assert phi.shape == (grid ** (d - 1), d - 1) and w.shape == (grid ** (d - 1),)
        assert abs(w.sum() - 1.0) <= 1e-14
        assert np.all(w >= 0.0) and np.all(np.abs(phi) <= math.pi)
    assert _exact_grid_n(4, 0) == 7 and _exact_grid_n(5, 0) == 9
    with pytest.raises(ResourceLimitError, match="node budget"):
        torus_grid(4, 102)  # 102^3 > 2^20 nodes
    with pytest.raises(InvalidParameterError):
        torus_grid(2, 1)


def test_torus_grid_node_cap_raises_before_any_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "meshgrid", refuse)
    for d, grid in ((2, (1 << 20) + 1), (3, 1025), (5, 33), (12, 4)):
        assert grid ** (d - 1) > 1 << 20
        with pytest.raises(ResourceLimitError, match="exceeds the node budget"):
            torus_grid(d, grid)
    with pytest.raises(AssertionError, match="the grid was built"):
        torus_grid(5, 32)  # 32^4 = 2^20 nodes are within the budget


def test_numeric_I0_node_cap_raises_before_any_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    for name in ("empty", "repeat", "tile", "arange"):
        monkeypatch.setattr(np, name, refuse)
    for d, grid in ((2, (1 << 20) + 1), (3, 1025)):
        with pytest.raises(ResourceLimitError, match="exceeds the node budget"):
            numeric_I0(d, 0.05, 1.0, grid)
    with pytest.raises(AssertionError, match="the grid was built"):
        numeric_I0(3, 0.05, 1.0, 1024)  # 1024^2 = 2^20 nodes are within the budget


def test_numeric_I0_still_refuses_d4():
    with pytest.raises(InvalidDimensionError, match="numeric_I0"):
        numeric_I0(4, 0.05, 1.0, 8)


def _gram_deviation(d: int, t: int, grid: int) -> tuple[float, float]:
    """max |Gram - I| of the one-norm <= 2t characters on the grid, and the
    rounding of each entry's node sum, gamma_m max sum w |chi_a| |chi_b|."""
    lams = _projective_tuples(d, t)
    phi, w = torus_grid(d, grid)
    theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
    chars = _char_batch(lams, theta)
    dev = float(np.abs((chars * w) @ chars.conj().T - np.eye(len(lams))).max())
    m_u = len(w) * 2.0**-53
    size = np.abs(chars)
    return dev, m_u / (1.0 - m_u) * float(((size * w) @ size.T).max())


@pytest.mark.parametrize("d, t", [(2, 4), (3, 2), (4, 2), (5, 2)])
def test_exact_grid_n_makes_the_gram_matrix_exact(d, t):
    # the labels of one-norm <= 2t have lambda_1 - lambda_d <= 2t, so
    # chi_a conj(chi_b) has spread <= 4t
    grid = _exact_grid_n(d, 4 * t)
    assert grid == 4 * t + 2 * (d - 1) + 1
    dev, bound = _gram_deviation(d, t, grid)
    assert dev <= bound < 1e-10


def test_exact_grid_n_is_tight_at_d2():
    # chi_(4,-4) conj(chi_(4,-4)) |Delta|^2 holds e^{+-18 i phi}, which a grid
    # of 18 nodes aliases onto the constant term
    grid = _exact_grid_n(2, 16)
    assert grid == 19
    dev, _ = _gram_deviation(2, 4, grid - 1)
    assert dev == pytest.approx(1.0, abs=1e-12)


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
        # _logsumexp shifts and exponentiates its argument in place
        assert _logsumexp(a.copy()) == float(logsumexp(a)), a


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


@pytest.mark.parametrize(
    "d, grids",
    [(2, (512, 1000, 32_768)), (3, (64, 128, 131))],
)
def test_numeric_I0_is_the_whole_grid_bit_for_bit(d, grids):
    # blocks of whole grid rows give the whole grid's bits: the same node
    # values and one array of the finite log-values in node order; 131^2 =
    # 17,161 nodes is no multiple of a block
    for grid in grids:
        for sigma, eps in ((0.005, 0.5), (0.03, 1.0), (0.1, 0.3), (1.0, 1.5), (0.05, 1e-9)):
            assert numeric_I0(d, sigma, eps, grid) == numeric_I0_whole(d, sigma, eps, grid), (grid, sigma, eps)


def test_numeric_I0_working_set_per_node():
    # 262,144 nodes: 8 bytes a node of log-values, shifted and exponentiated
    # in place, and the 1-byte mask of the entries at the maximum
    grid = 512
    tracemalloc.start()
    try:
        numeric_I0(3, 0.03, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * grid**2


def _gue_tail_indicators(d, r):
    def chunk(gen, m):
        diag, off = _gue_tridiagonal(d, m, gen)
        c = diag.mean(axis=1)
        below = _sturm_count(diag, off, np.stack([c + r, c - r]))
        return (d - below[0]) + below[1] > 0

    return chunk


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_mc_run_counts_boolean_chunks_as_their_float_sums(d):
    # 70,000 draws make three chunks, the last a partial one; an indicator's
    # sum and sum of squares are both its count, so the mean and standard
    # error are those of the chunks' exact float sums
    r = 0.8 * math.sqrt(2.0 * d)
    chunk = _gue_tail_indicators(d, r)
    est = _mc_run(70_000, RngStream(3, stream_id=d), chunk)
    vals = [chunk(RngStream(3, stream_id=d).substream(i), m).astype(float) for i, m in enumerate((32_768, 32_768, 4_464))]
    s = math.fsum(math.fsum(v.tolist()) for v in vals)
    q = math.fsum(math.fsum((v * v).tolist()) for v in vals)
    mean = s / 70_000
    var = (q - 70_000 * mean * mean) / 69_999
    assert (est.mean, est.std_error, est.n) == (mean, math.sqrt(max(0.0, var) / 70_000), 70_000)
    assert 0.0 < est.mean < 1.0


def test_estimators_are_deterministic():
    # 70,000 draws make three chunks, each one tridiagonal batch from its own
    # substream; two calls agree bit for bit, and another stream differs
    for d in (2, 3):
        a = gue_tail_mc(d, 1.5, 70_000, RngStream(7))
        b = gue_tail_mc(d, 1.5, 70_000, RngStream(7))
        assert (a.mean, a.std_error, a.n) == (b.mean, b.std_error, b.n)
        c = gue_tail_mc(d, 1.5, 70_000, RngStream(7, stream_id=1))
        assert c.mean != a.mean
