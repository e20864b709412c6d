"""High-precision reference values for the test suite.

Everything here is computed with mpmath at 50 significant digits and is
independent of the package: characters come from explicit alternant
determinants, heat kernels from raw series/lattice sums, integrals from
mp.quad; the label generators are plain recursions over partitions and
referee the package's array enumerators row for row. Running this file
prints the frozen constants used in the tests together with internal
consistency diagnostics (character series vs. Poisson lattice sums
agreeing to ~20 digits).

Float oracles stand beside them. char_matrix is the per-weight
character matrix the package's grouped sums once contracted: the alternant
ratio by LU at regular points and the Jacobi-Trudi determinant in complete
homogeneous polynomials (_chars_confluent) at eigenphase gaps below 1e-6.
The dense moment operators are the float oracle for the design tester:
T_nu assembled as a d^(2t) matrix, the Haar projector as the orthogonal
projector onto the vectorized permutation operators, and delta as the SVD
norm of their difference; hermitian_logs_schur takes the Hermitian log of
each gate from its complex Schur form, and wigner_small_d_mp gives Wigner's
d^ell(beta) from the Jacobi-polynomial formula for the d = 2 spin blocks.
dim and casimir are the exact integer and rational forms of the package's
float label arrays. poisson_reference is the Poisson
route as one call per lattice sum, each with its own scan of radii
(lattice_log_tail_scan, the plan's tail rule computed afresh for each
radius) and its own grid. pu_envelope_tail_mp and lattice_envelope_tails_mp
sum the two shell envelopes exactly, from above, for the cutoff tests. Last
come the helpers that the package no longer has or exports, which the tests
use as oracles or to reach package code: the per-weight character, the
generator of a seed's numbered stream, the matrix samplers that the eigenvalue samplers of montecarlo replaced, the
GUE tail by eigvalsh of full Hermitian draws, the d = 2 kernel mass
outside the eps-ball by Gauss-Legendre quadrature, and the earlier forms
of the GUE tail (eigvalsh of the tridiagonal model), of numeric_I0 (the
whole grid at once) and of _dp_to_identity (the (n, d, d) broadcast),
which their replacements must match bit for bit, the JSON renderer of
the CLI as json.dumps of the sanitized payload, which its one-walk writer
must match byte for byte, and the writer of the gate files that
design-delta reads.
"""

import itertools
import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from udnet.cli import _sanitize
from udnet.design_tester import _haar_su
from udnet.kernels import (
    _MAX_LATTICE_RADIUS,
    EvalResult,
    KernelParams,
    NumericalInstabilityError,
    _lattice_shell_log_env,
    _lattice_shell_slope,
    _tangent_log_tail,
    heat_pu_char_batch,
)
from udnet.lie_core import TWO_PI, InvalidParameterError, TorusPoint, _check_unitaries, eps_tilde, log_prefactor
from udnet.montecarlo import _dp_to_identity, _mc_run, torus_grid
from udnet.weights_chars import GAP_TOL, _char_batch

mp.mp.dps = 50

AV = 1 / (9 * mp.pi)
CBIG = 9 * mp.pi


def log_prefactor_mp(d, sigma):
    sigma = mp.mpf(sigma)
    m = d * (d - 1) // 2
    n = d * d - 1
    return (
        mp.log(d) / 2
        + (mp.mpf(d - 1) / 2 + m) * mp.log(2 * d)
        - mp.fsum(mp.log(mp.factorial(k)) for k in range(1, d + 1))
        + (d - 1 + m) * mp.log(2 * mp.pi)
        + mp.mpf(n) / 24 * sigma
        - mp.mpf(n) / 2 * mp.log(4 * mp.pi * sigma)
    )


def _split_ties(phis_full):
    """Eigenphases as mpf, each exact repeat of an earlier one moved by a
    further 1e-20, and the working precision that keeps 50 digits through
    the alternant's cancellation: 20 more per tied pair."""
    phis, ties = [], 0
    for p in phis_full:
        repeats = sum(q == p for q in phis_full[: len(phis)])
        ties += repeats
        phis.append(mp.mpf(p) + repeats * mp.mpf("1e-20"))
    return phis, mp.mp.dps + 20 * ties


def schur_mp(lam, phis_full):
    """Schur polynomial at unit-circle points, via the alternant ratio;
    exactly tied eigenphases are split by 1e-20 (_split_ties)."""
    d = len(lam)
    phis, dps = _split_ties(phis_full)
    with mp.workdps(dps):
        xs = [mp.expjpi(p / mp.pi) for p in phis]
        num = mp.matrix(d, d)
        den = mp.matrix(d, d)
        for i in range(d):
            for j in range(d):
                num[i, j] = xs[i] ** (lam[j] + d - 1 - j)
                den[i, j] = xs[i] ** (d - 1 - j)
        return mp.det(num) / mp.det(den)


def char_sum_mp(plan, phis_full, column=0):
    """sum_w c_w chi_w at one torus point from one column of a residue-split
    plan as built by the package's _char_sum_plan: entry rows[column, g, q]
    is the coefficient of z^mu for mu = (heads[:, g], resid[g] + d q, 0).
    Each row is evaluated at every eigenvalue, the alternant numerator is
    antisymmetrized over all d! permutations and divided by the Vandermonde,
    with ties split as in schur_mp."""
    heads = np.asarray(plan.heads).T.tolist()
    rows = np.asarray(plan.rows[column])
    d = len(heads[0]) + 2
    perms = [
        (perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
        for perm in itertools.permutations(range(d))
    ]
    phis, dps = _split_ties(phis_full)
    with mp.workdps(dps):
        xs = [mp.expjpi(p / mp.pi) for p in phis]
        pw = [[x**k for k in range(plan.size)] for x in xs]
        num = mp.mpc(0)
        for head, r, row in zip(heads, plan.resid.tolist(), rows):
            qs = np.nonzero(row)[0].tolist()
            last = [mp.fsum(mp.mpf(float(row[q])) * pw[b][r + d * q] for q in qs) for b in range(d)]
            for perm, sign in perms:
                num += sign * last[perm[d - 2]] * mp.fprod(pw[perm[j]][head[j]] for j in range(d - 2))
        return num / mp.fprod(xs[i] - xs[j] for i in range(d) for j in range(i + 1, d))


def dense_grouping(lams, coeff):
    """The dense layout of a grouped polynomial, as _char_sum_plan built it
    before the residue split: heads (G, d - 2) are the distinct first d - 2
    exponents of mu = lam - lam_d + rho, and rows[:, g, m] (k, G, width) is
    the coefficient of the head g with last exponent m, for every m."""
    lams = np.asarray(lams, dtype=np.int64)
    d = lams.shape[1]
    mu = lams - lams[:, -1:] + np.arange(d - 1, -1, -1)
    if d == 2:
        group, heads = np.zeros(len(mu), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    else:
        _, first, group = np.unique(mu[:, : d - 2], axis=0, return_index=True, return_inverse=True)
        heads = mu[first, : d - 2]
    width = int(mu[:, d - 2].max()) + 1
    cells = group * width + mu[:, d - 2]
    rows = np.stack([np.bincount(cells, weights=c, minlength=len(heads) * width) for c in np.asarray(coeff)])
    return heads, rows.reshape(len(rows), len(heads), width)


def dim(lam):
    """Weyl dimension of a label, in exact integer arithmetic; the reference
    for weights_chars._dim_array."""
    d = len(lam)
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r != 0:
        raise AssertionError(f"non-integer dimension for {lam}")
    return q


def casimir(lam):
    """Casimir eigenvalue k_lambda of a label as an exact rational; the
    reference for weights_chars._casimir_array."""
    d = len(lam)
    s = sum(lam)
    main = sum(x * x + (d - 2 * j - 1) * x for j, x in enumerate(lam))
    return Fraction(main, 2 * d) - Fraction(s * s, 2 * d * d)


def casimir_mp(lam):
    c = casimir(lam)
    return mp.mpf(c.numerator) / c.denominator


def _partitions(n, max_parts, cap):
    """Partitions of n into at most max_parts parts, each <= cap."""
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for v in range(min(n, cap), 0, -1):
        for rest in _partitions(n - v, max_parts - 1, v):
            yield (v,) + rest


def projective_tuples(d, t):
    """Zero-sum dominant labels with 1-norm <= 2t, sorted lexicographically."""
    out = [(0,) * d]
    for n in range(1, t + 1):
        pos = list(_partitions(n, d - 1, n))
        for p in pos:
            for q in pos:
                if len(p) + len(q) <= d:
                    out.append(
                        p + (0,) * (d - len(p) - len(q)) + tuple(-v for v in reversed(q))
                    )
    out.sort()
    return out


def su_label_tuples(d, s_max):
    """lambda_d = 0 dominant labels with sum(lambda) <= s_max, sorted
    lexicographically."""
    out = []
    for s in range(s_max + 1):
        for p in _partitions(s, d - 1, s):
            out.append(p + (0,) * (d - len(p)))
    out.sort()
    return out


def heat_su_char_mp(d, sigma, phi, smax):
    sigma = mp.mpf(sigma)
    phis_full = list(map(mp.mpf, phi)) + [-mp.fsum(map(mp.mpf, phi))]
    total = mp.mpf(0)
    for lam in su_label_tuples(d, smax):
        total += dim(lam) * mp.e ** (-sigma * casimir_mp(lam)) * schur_mp(lam, phis_full)
    return total


def heat_pu_char_mp(d, sigma, phi, jmax):
    sigma = mp.mpf(sigma)
    phis_full = list(map(mp.mpf, phi)) + [-mp.fsum(map(mp.mpf, phi))]
    total = mp.mpf(0)
    for lam in projective_tuples(d, jmax // 2):
        shifted = [x - lam[-1] for x in lam]
        total += dim(lam) * mp.e ** (-sigma * casimir_mp(lam)) * schur_mp(shifted, phis_full)
    return total


def _chars_confluent(parts: np.ndarray, theta_row: np.ndarray) -> np.ndarray:
    """Characters of many partition-form labels at ONE torus point via the
    Jacobi-Trudi determinant in complete homogeneous polynomials.

    This is the confluent (divided-difference) form of the alternant ratio:
    finite and stable when eigenphases coincide. Determinant entry growth
    restricts it to parts[:, 0] up to a few hundred, ample for every regime
    reached near the singular set.
    """
    nw, d = parts.shape
    xs = np.exp(1j * np.asarray(theta_row, dtype=float))
    e = np.zeros(d + 1, dtype=complex)
    e[0] = 1.0
    for x in xs:
        e[1:] = e[1:] + x * e[:d]
    kmax = int(parts[:, 0].max()) + d
    h = np.zeros(kmax + 2, dtype=complex)
    h[0] = 1.0
    for k in range(1, kmax + 1):
        acc = 0.0 + 0.0j
        for j in range(1, min(d, k) + 1):
            acc += (-1) ** (j - 1) * e[j] * h[k - j]
        h[k] = acc
    idx = parts[:, :, None] - np.arange(d)[None, :, None] + np.arange(d)[None, None, :]
    valid = (idx >= 0) & (idx <= kmax)
    mats = np.where(valid, h[np.clip(idx, 0, kmax + 1)], 0.0)
    return np.linalg.det(mats)


def char_matrix(lams, theta):
    """Float characters of each label row at each eigenphase row, (nw, np):
    det[x_j^mu_i] / det[x_j^rho_i] by LU, mu = lam - lam_d + rho, at points
    whose eigenphase gaps are all >= 1e-6, and _chars_confluent elsewhere."""
    lams = np.asarray(lams, dtype=np.int64)
    d = lams.shape[1]
    rho = np.arange(d - 1, -1, -1)
    parts = lams - lams[:, -1:]
    out = np.empty((len(lams), len(theta)), dtype=complex)
    for p, row in enumerate(np.asarray(theta, dtype=float)):
        gap = min(abs(math.remainder(a - b, 2 * math.pi)) for a, b in itertools.combinations(row, 2))
        if gap < 1e-6:
            out[:, p] = _chars_confluent(parts, row)
        else:
            powers = np.exp(1j * np.arange(parts[:, 0].max() + d)[:, None] * row[None, :])
            num = np.linalg.det(powers[(parts + rho)[:, :, None], np.arange(d)])
            out[:, p] = num / np.linalg.det(powers[rho[:, None], np.arange(d)])
    return out


def lattice_log_tail_scan(d, sigma, radius):
    """The log-tail that kernels._LatticePlan keeps for one radius, written out.

    The shells past the radius that come before the envelope's peak are added
    one at a time, from the peak down, onto the tangent bound from the first
    shell past the peak; a radius past the peak takes the tangent bound alone.
    When the envelope still rises at shell _MAX_LATTICE_RADIUS + 1, the
    shells from there on take the tangent bound from that shell.
    """
    kappa, before = radius + 1, []
    while kappa <= _MAX_LATTICE_RADIUS and _lattice_shell_slope(d, sigma, kappa) > 0.0:
        before.append(_lattice_shell_log_env(d, sigma, kappa))
        kappa += 1
    acc = _tangent_log_tail(
        _lattice_shell_log_env(d, sigma, kappa),
        _lattice_shell_slope(d, sigma, kappa),
        2.0 * d * math.pi**2 / sigma,
    )
    for g in reversed(before):
        acc = max(g, acc) + math.log1p(math.exp(-abs(g - acc)))
    return acc


def pu_envelope_tail_mp(d, sigma, rate, L):
    """An upper bound, within 2^-40 of it, on the PU shell envelope's tail past L.

    The envelope is (1+2j)^{d-1} (1+j)^{d(d-1)} exp(-rate*sigma*(j^2/(2d^2) + j/4)),
    summed over j > L, with L past its peak. The Gaussian factor advances by
    one multiplication per shell in exact integer fixed point, rounded up,
    after 50-digit seeds, so the sum errs high. It stops once the shells left,
    at most a geometric series since the envelope is log-concave, are below
    2^-40 of it.
    """
    c = mp.mpf(rate) * mp.mpf(sigma)
    bits = 192
    one = 1 << bits
    j = L + 1

    def fixed(x):
        return int(mp.ceil(x * one))

    head = mp.exp(-c * (mp.mpf(j) ** 2 / (2 * d * d) + mp.mpf(j) / 4))
    step = fixed(mp.exp(-c * (mp.mpf(2 * j + 1) / (2 * d * d) + mp.mpf(1) / 4)))
    q = fixed(mp.exp(-c / (d * d)))
    gauss = one  # exp(-c*(j^2/(2d^2) + j/4)) / head
    total = prev = 0
    while True:
        term = (1 + 2 * j) ** (d - 1) * (1 + j) ** (d * (d - 1)) * gauss
        if prev > term and (term << 40) < total * (prev - term) // prev:
            # later ratios are at most term / prev
            rest = -(-term * prev // (prev - term))
            return head * mp.mpf(total + rest) / one
        total += term
        prev = term
        gauss = -(-gauss * step >> bits)
        step = -(-step * q >> bits)
        j += 1


def lattice_envelope_tails_mp(d, sigma, radius_max):
    """The lattice shell envelope's tails past radii 1..radius_max, at 50 digits.

    Each is an upper bound within 2^-40 of the exact tail: the shells are
    summed until, past the peak, the rest (at most a geometric series, the
    envelope being log-concave) is below 2^-40 of the tail past radius_max.
    """
    sigma = mp.mpf(sigma)
    m = d * (d - 1) // 2
    terms, last = [], 0
    kappa = 2
    while True:
        term = mp.exp(
            mp.log(2 * (d - 1))
            + (d - 2) * mp.log(2 * kappa + 1)
            + m * mp.log(d * mp.pi * (2 * kappa + 1))
            - d * mp.pi**2 * (2 * kappa - 1) ** 2 / (2 * sigma)
        )
        if kappa > radius_max + 1 and term < terms[-1]:
            rest = term / (1 - term / terms[-1])
            if rest < mp.mpf(2) ** -40 * last:
                break
        terms.append(term)
        if kappa > radius_max:
            last += term
        kappa += 1
    tails, acc = [], rest
    for term in reversed(terms):
        acc += term
        tails.append(acc)
    return tails[::-1][:radius_max]


def _poisson_core_reference(p, x):
    """One PU coweight lattice sum at a regular point, with its own radius walk and grid."""
    d, sigma = p.d, p.sigma
    shifts = [TorusPoint(d, tuple(v + 2.0 * math.pi * r / d for v in x.phi)) for r in range(d)]
    log_j, sign_j = [0.0] * d, [1.0] * d
    for r, y in enumerate(shifts):
        th = y.eigenphases()
        for i in range(d):
            for j in range(i + 1, d):
                v = 2.0 * math.sin(0.5 * (th[i] - th[j]))
                if v == 0.0:
                    raise NumericalInstabilityError("coincident eigenphases reached the raw Poisson form")
                if v < 0.0:
                    sign_j[r] = -sign_j[r]
                log_j[r] += math.log(abs(v))
    weights = np.array([sign * math.exp(min(log_j) - lj) for sign, lj in zip(sign_j, log_j)])
    log_pref = log_prefactor(d, sigma) + math.lgamma(d + 1) - min(log_j)

    log_tol = math.log(p.tail_tol)
    for radius in range(1, _MAX_LATTICE_RADIUS + 1):
        log_tail = log_pref + lattice_log_tail_scan(d, sigma, radius)
        if log_tail < log_tol:
            break
    else:
        raise NumericalInstabilityError("no lattice radius meets tail_tol")
    bound = math.exp(log_tail)

    axis = np.arange(-radius, radius + 1)
    grid = np.stack([g.ravel() for g in np.meshgrid(*([axis] * (d - 1)), indexing="ij")], axis=1)
    phis = np.array([y.phi for y in shifts])
    psi = (phis[:, None, :] + 2.0 * math.pi * grid).reshape(-1, d - 1)
    full = np.concatenate([psi, -psi.sum(axis=1, keepdims=True)], axis=1)
    root_prod = np.repeat(weights, len(grid))
    for i in range(d):
        for j in range(i + 1, d):
            root_prod = root_prod * (full[:, i] - full[:, j])
    quad = np.square(psi).sum(axis=1) + np.square(psi.sum(axis=1))
    expo = -(d / (2.0 * sigma)) * quad
    peak = float(expo.max())
    with np.errstate(under="ignore"):
        s = float((root_prod * np.exp(expo - peak)).sum())
    if s == 0.0 or not math.isfinite(s):
        raise NumericalInstabilityError("lattice sum cancelled to zero significance")
    log_abs = log_pref + peak + math.log(abs(s))
    return EvalResult(math.copysign(math.exp(log_abs), s) / d, bound, len(psi))


def poisson_reference(p, x):
    """heat_pu_poisson as one call per lattice sum, as udnet.kernels had it
    before its lattice plans: each sum walks its own radius and builds its
    own grid, and a gap below 1e-6 takes four such sums, jittered along
    (1, 2, ..., d-1) at 1e-5 * (1, -1, 1/2, -1/2) and 0.3 * tail_tol, with
    one Richardson step. Neither significance guard is applied.
    """
    if x.min_gap() >= GAP_TOL:
        return _poisson_core_reference(p, x)
    direction = np.arange(1, p.d, dtype=float)
    inner = KernelParams(p.d, p.sigma, tail_tol=0.3 * p.tail_tol)
    phi = np.asarray(x.phi, dtype=float)
    evals = {
        c: _poisson_core_reference(inner, TorusPoint(p.d, tuple(phi + c * 1e-5 * direction)))
        for c in (1.0, -1.0, 0.5, -0.5)
    }
    coarse = 0.5 * (evals[1.0].value + evals[-1.0].value)
    fine = 0.5 * (evals[0.5].value + evals[-0.5].value)
    bound = (
        4.0 * max(evals[0.5].truncation_bound, evals[-0.5].truncation_bound)
        + max(evals[1.0].truncation_bound, evals[-1.0].truncation_bound)
    ) / 3.0
    terms = sum(r.terms_used for r in evals.values())
    return EvalResult((4.0 * fine - coarse) / 3.0, bound, terms)


def _lattice(d1, K):
    if d1 == 1:
        for k in range(-K, K + 1):
            yield (k,)
    else:
        for k in range(-K, K + 1):
            for rest in _lattice(d1 - 1, K):
                yield (k,) + rest


def heat_su_poisson_mp(d, sigma, phi, K):
    sigma = mp.mpf(sigma)
    phi = list(map(mp.mpf, phi))
    pref = mp.e ** log_prefactor_mp(d, sigma) * mp.factorial(d)
    phis_full = phi + [-mp.fsum(phi)]
    jreal = mp.mpf(1)
    for i in range(d):
        for j in range(i + 1, d):
            jreal *= 2 * mp.sin((phis_full[i] - phis_full[j]) / 2)
    S = mp.mpf(0)
    for k in _lattice(d - 1, K):
        psi = [phi[j] + 2 * mp.pi * k[j] for j in range(d - 1)]
        psi_full = psi + [-mp.fsum(psi)]
        prod = mp.mpf(1)
        for i in range(d):
            for j in range(i + 1, d):
                prod *= psi_full[i] - psi_full[j]
        expo = -(mp.mpf(d) / (2 * sigma)) * (
            mp.fsum(p**2 for p in psi) + mp.fsum(psi) ** 2
        )
        S += prod * mp.e**expo
    return pref * S / jreal


def heat_pu_poisson_mp(d, sigma, phi, K):
    total = mp.mpf(0)
    for r in range(d):
        shifted = [p + 2 * mp.pi * r / d for p in phi]
        total += heat_su_poisson_mp(d, sigma, shifted, K)
    return total / d


def i0_mp(d, sigma, eps):
    """Dominant lattice-term integral, d=2 only (1-d quadrature)."""
    assert d == 2
    sigma = mp.mpf(sigma)
    et = 2 * mp.asin(mp.mpf(eps) / 2) if eps > 0 else mp.mpf(0)
    pref = mp.e ** log_prefactor_mp(2, sigma)

    def f(t):
        return abs(2 * mp.sin(t)) * abs(2 * t) * mp.e ** (-2 * t**2 / sigma)

    val = mp.quad(f, [et, mp.pi]) * 2  # symmetric in t
    return pref * val / (2 * mp.pi)


def theorem1_t_min_mp(d, eps):
    eps = mp.mpf(eps)
    return 32 * d ** mp.mpf("2.5") / eps * mp.log(d) * mp.log(4 / (AV * eps))


def kappa_mp(d):
    expo = (
        mp.mpf(d * d) / 16
        - mp.mpf(17) / 4
        - d / (768 * mp.log(d) ** 2 * mp.log(1 / AV))
    )
    return mp.mpf(d) ** expo


def theorem2_log_delta_mp(d, eps, form):
    eps = mp.mpf(eps)
    n = d * d - 1
    if form == "theorem":
        inner = eps / (
            4 * CBIG * mp.log(2 * CBIG / eps) ** mp.mpf("0.25")
            * mp.log(d) ** mp.mpf("0.25") * mp.sqrt(d)
        )
        return n * mp.log(inner)
    lead = mp.mpf(n) / 2 * mp.log(AV / 2 ** mp.mpf("4.5"))
    bracket = n * mp.log(
        eps / (mp.log(2 / (AV * eps)) ** mp.mpf("0.25") * mp.log(d) ** mp.mpf("0.25"))
    )
    if form == "kappa":
        return lead + bracket - mp.mpf(n) / 2 * mp.log(d) + mp.log(kappa_mp(d))
    if form == "exponential":
        return (
            lead
            + bracket
            - n * eps**2 / (3072 * d * mp.log(d) * mp.log(2 / (AV * eps)))
            - (mp.mpf(7 * d * d) / 16 + mp.mpf(15) / 4) * mp.log(d)
        )
    raise ValueError(form)


def sigma_star_mp(d, eps):
    eps = mp.mpf(eps)
    return eps**2 / (128 * d * mp.log(d) * mp.log(2 / (AV * eps)))


def application1_ell_mp(d, eps, delta):
    eps, delta = mp.mpf(eps), mp.mpf(delta)
    dcap = 8 * CBIG ** (mp.mpf(2) / 3) * mp.log(2 * CBIG) ** (mp.mpf(1) / 3)
    n = d * d - 1
    return (
        mp.log(1 / kappa_mp(d))
        + n * (mp.mpf(5) / 4 * mp.log(1 / eps) + mp.mpf(3) / 4 * mp.log(dcap * d))
    ) / mp.log(1 / delta)


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def _perm_matrix(d, sigma):
    """Permutation operator on (C^d)^{(x)t} sending digit tuple x to x o sigma."""
    t = len(sigma)
    n = d**t
    digits = np.stack(np.unravel_index(np.arange(n), (d,) * t), axis=0)
    target = np.ravel_multi_index(tuple(digits[list(sigma), :]), (d,) * t)
    mat = np.zeros((n, n))
    mat[target, np.arange(n)] = 1.0
    return mat


def haar_moment_projector(d, t):
    """T_mu: orthogonal projector onto the span of vectorized permutation
    operators. The Gram matrix G[a, b] = d^#cycles(a^-1 b) is exact integer
    data; its pseudo-inverse (cutoff 1e-10 relative) absorbs the rank
    deficiency that appears once t exceeds d."""
    perms = list(itertools.permutations(range(t)))
    v = np.stack([_perm_matrix(d, s).ravel() for s in perms], axis=1)
    inverse = {s: tuple(np.argsort(s)) for s in perms}
    gram = np.array(
        [
            [float(d ** _cycle_count(tuple(inverse[a][b[i]] for i in range(t)))) for b in perms]
            for a in perms
        ]
    )
    return (v @ np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ v.T).astype(complex)


def _kron_power(mat, t):
    out = mat
    for _ in range(t - 1):
        out = np.kron(out, mat)
    return out


def measure_moment(nu, t):
    """T_nu: weighted sum of U^{(x)t} (x) conj(U)^{(x)t} over a WeightedGateSet."""
    dim = nu.d ** (2 * t)
    total = np.zeros((dim, dim), dtype=complex)
    for w, mat in nu.elements:
        ut = _kron_power(mat, t)
        total += w * np.kron(ut, ut.conj())
    return total


def dense_delta(nu, t):
    """SVD norm of T_nu - T_mu, built densely."""
    return float(np.linalg.norm(measure_moment(nu, t) - haar_moment_projector(nu.d, t), 2))


def hermitian_logs_schur(mats):
    """Traceless Hermitian G with U = e^{i phi} exp(iG), one per U, by the
    complex Schur form: U is normal, so U = Z T Z^dag with T diagonal up to
    rounding, and G = Z diag(theta - mean theta) Z^dag with theta the
    arguments of diag(T). Reference for design_tester._hermitian_logs."""
    import scipy.linalg

    out = np.empty_like(mats)
    for k, u in enumerate(mats):
        tri, z = scipy.linalg.schur(u, output="complex")
        theta = np.angle(np.diagonal(tri))
        out[k] = (z * (theta - theta.mean())) @ z.conj().T
    return out


def wigner_small_d_mp(ell, beta):
    """Wigner's d^ell(beta) = <ell m'| exp(-i beta J_y) |ell m>, rows m' and
    columns m from -ell to ell, by the Jacobi-polynomial formula: with k the
    least of ell + m, ell - m, ell + m', ell - m', a = |m - m'| and
    b = 2 ell - 2k - a, d = (-1)^lam sqrt(C(2 ell - k, k + a) / C(k + b, b))
    sin(beta/2)^a cos(beta/2)^b P_k^(a, b)(cos beta), lam = m' - m when k
    is ell + m or ell - m', else 0. Reference for design_tester's spin blocks."""
    beta = mp.mpf(beta)
    c, s, x = mp.cos(beta / 2), mp.sin(beta / 2), mp.cos(beta)
    out = mp.matrix(2 * ell + 1, 2 * ell + 1)
    for i, mq in enumerate(range(-ell, ell + 1)):
        for j, m in enumerate(range(-ell, ell + 1)):
            k = min(ell + m, ell - m, ell + mq, ell - mq)
            a = abs(m - mq)
            lam = mq - m if k in (ell + m, ell - mq) else 0
            b = 2 * ell - 2 * k - a
            norm = mp.sqrt(mp.binomial(2 * ell - k, k + a) / mp.binomial(k + b, b))
            out[i, j] = (-1) ** lam * norm * s**a * c**b * mp.jacobi(k, a, b, x)
    return out


# Helpers the package no longer has or exports. Each drives package code
# that the tests check: the Weyl density of torus_grid, the eigenphase
# distance _dp_to_identity, the per-weight characters of _char_batch, and the
# Weyl-vector norm (d^2-1)/24 that the bounds read. The matrix samplers
# below are the references for montecarlo's eigenvalue samplers.


def character(w, x):
    """Character value of a HighestWeight at a TorusPoint, from _char_batch."""
    if w.d != x.d:
        raise InvalidParameterError(f"weight has d={w.d}, point has d={x.d}")
    theta = np.asarray(x.eigenphases(), dtype=float)[None, :]
    return complex(_char_batch([w.lam], theta)[0, 0])


def stream_generator(seed, stream_id=0):
    """A stateful generator keyed by (seed, stream_id) as RngStream keys its
    streams, for tests that draw their own samples."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream_id,))))


def haar_eigenphases_qr(d, n, gen):
    """Eigenphase rows (n, d), each in (-pi, pi], of Haar SU(d) matrices
    drawn by QR (_haar_su)."""
    return np.angle(np.linalg.eigvals(_haar_su(d, n, gen)))


def gue_traceless(d, n, gen):
    """n traceless GUE matrices of density exp(-Tr A^2): a complex Ginibre
    draw made Hermitian, minus its trace part."""
    g = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
    a = (g + np.conj(np.swapaxes(g, 1, 2))) / (2.0 * math.sqrt(2.0))
    tr = np.trace(a, axis1=1, axis2=2).real / d
    return a - tr[:, None, None] * np.eye(d)[None, :, :]


def gue_tail_dense(d, r, n, gen):
    """P(||A||_inf >= r) over n traceless GUE matrices of gue_traceless, by
    eigvalsh of the full complex Hermitian draws, 20,000 at a time: (mean,
    standard error)."""
    count = 0
    for start in range(0, n, 20_000):
        ev = np.linalg.eigvalsh(gue_traceless(d, min(20_000, n - start), gen))
        count += int(np.count_nonzero(np.abs(ev).max(axis=1) >= r))
    mean = count / n
    return mean, math.sqrt(mean * (1.0 - mean) / (n - 1))


def outside_ball_mass_d2(sigma, t, eps, nodes):
    """Haar integral of |K_trim| over {d_P(U, I) > eps} on PU(2), by
    Gauss-Legendre on the eigenphase phi of U = diag(e^{i phi}, e^{-i phi}).

    The Haar density of phi in [0, pi] is (2 / pi) sin^2 phi, and d_P =
    2 sin(min(phi, pi - phi) / 2). The PU(2) kernel is symmetric under
    phi -> pi - phi (U -> -U), so the mass is (4 / pi) times the integral of
    sin^2 phi |K_trim(phi)| over (2 asin(eps / 2), pi / 2]. |K_trim| has a
    kink at each sign change of K_trim, so the rule converges only
    algebraically; compare two node counts."""
    lo, hi = 2.0 * math.asin(eps / 2.0), 0.5 * math.pi
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    vals, _, _ = heat_pu_char_batch(KernelParams(2, sigma, trim_t=t), np.stack([phi, -phi], axis=1))
    return float(0.5 * (hi - lo) * (4.0 / math.pi) * np.sum(w * np.sin(phi) ** 2 * np.abs(vals)))


def numeric_I0_whole(d, sigma, eps, grid_n):
    """montecarlo.numeric_I0 as it was before it went over blocks of grid
    rows: the whole meshgrid of nodes, the whole outside set and its
    log-integrand at once, summed by scipy's logsumexp (which the package's
    _logsumexp matches bit for bit)."""
    from scipy.special import logsumexp

    et = eps_tilde(eps)
    lp = log_prefactor(d, sigma)
    axis = -math.pi + TWO_PI * np.arange(grid_n) / grid_n
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    phi = np.stack([g.ravel() for g in grids], axis=1)
    theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
    outside = np.abs(theta).max(axis=1) > et
    if not outside.any():
        return 0.0
    theta = theta[outside]
    log_f = np.zeros(theta.shape[0])
    with np.errstate(divide="ignore"):
        for i in range(d):
            for j in range(i + 1, d):
                gap = theta[:, i] - theta[:, j]
                log_f += np.log(np.abs(2.0 * np.sin(gap / 2.0))) + np.log(np.abs(gap))
    norm_sq = 2.0 * d * ((theta[:, :-1] ** 2).sum(axis=1) + theta[:, -1] ** 2)
    log_f -= norm_sq / (4.0 * sigma)
    finite = log_f[np.isfinite(log_f)]
    if finite.size == 0:
        return 0.0
    return float(math.exp(lp + float(logsumexp(finite)) - (d - 1) * math.log(grid_n)))


def dp_to_identity_broadcast(theta, d):
    """montecarlo._dp_to_identity as it was before it took one center shift
    at a time: every shift against every eigenphase as one (n, d, d)
    broadcast, then the max over eigenphases and the min over shifts."""
    shifts = TWO_PI * np.arange(d) / d
    diff = theta[:, None, :] - shifts[None, :, None]
    dist = 2.0 * np.abs(np.sin(diff / 2.0))
    return dist.max(axis=2).min(axis=1)


def gue_tail_eigvalsh(d, r, n, rng):
    """montecarlo.gue_tail_mc as it was before the Sturm count: each chunk
    builds the tridiagonal models of montecarlo._gue_tridiagonal (the same
    draws) as dense (m, d, d) matrices, takes a batched eigvalsh, removes
    the mean eigenvalue, and counts the rows with some |eigenvalue| >= r."""

    def chunk(gen, m):
        t = np.zeros((m, d, d))
        idx = np.arange(d)
        t[:, idx, idx] = gen.normal(0.0, math.sqrt(0.5), (m, d))
        off = 0.5 * np.sqrt(gen.chisquare(2.0 * np.arange(d - 1, 0, -1), (m, d - 1)))
        t[:, idx[1:], idx[:-1]] = off
        ev = np.linalg.eigvalsh(t)
        ev -= ev.mean(axis=1, keepdims=True)
        return np.abs(ev).max(axis=1) >= r

    return _mc_run(n, rng, chunk)


def weyl_vector_diag(d):
    """Diagonal of X_delta / i: entries (d+1)/(4d) - k/(2d) for k = 1..d."""
    return [Fraction(d + 1, 4 * d) - Fraction(k, 2 * d) for k in range(1, d + 1)]


def projective_distance(u, v, d):
    """d_P(U, V): operator-norm distance minimized over the d center phases."""
    _check_unitaries([u, v], d, 1e-8, "matrix")
    w = np.asarray(u) @ np.asarray(v).conj().T
    theta = np.angle(np.linalg.eigvals(w))
    return float(_dp_to_identity(theta[None, :], d)[0])


def torus_quadrature(d, grid_n, f):
    """Integral of a class function against Haar measure via the Weyl formula.

    f is called once per node with a TorusPoint; complex values are allowed
    and the real part of the weighted sum is returned (the integrals of
    interest are real, with imaginary residue at rounding level).
    """
    phi, weights = torus_grid(d, grid_n)
    vals = np.array([f(TorusPoint(d, tuple(row))) for row in phi])
    return float(np.real(np.sum(weights * vals)))


def center_average_character(w, x):
    """(1/d) sum_k chi_lambda(gamma_k x) over the d center representatives
    gamma_k = e^{2 pi i k / d} I. Projects onto PU(d) characters: equals
    chi_lambda(x) when d | sum(lambda) and 0 otherwise."""
    d = w.d
    shifted = [TorusPoint(d, tuple(p + 2 * math.pi * k / d for p in x.phi)) for k in range(d)]
    chi = _char_batch([w.lam], np.array([y.eigenphases() for y in shifted]))
    return complex(chi[0].sum()) / d


def render_json_reference(payload):
    """cli._render_json as it was before its one-walk writer: json.dumps of
    the _sanitize copy of the payload, sorted keys and an indent of 2."""
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def gate_set_to_json(nu):
    """The gate-file form of a WeightedGateSet that design-delta reads:
    matrices as row-major [re, im] pairs."""
    elements = [
        {"weight": w, "matrix": [[[z.real, z.imag] for z in row] for row in mat]}
        for w, mat in nu.elements
    ]
    return {"d": nu.d, "elements": elements}


def main():
    show = lambda k, v: print(f"{k} = {mp.nstr(v, 20)}")

    print("# prefactor")
    show("log_prefactor(2, 1.0)", log_prefactor_mp(2, 1))
    show("log_prefactor(2, 0.5)", log_prefactor_mp(2, mp.mpf("0.5")))
    show("log_prefactor(2, 0.2)", log_prefactor_mp(2, mp.mpf("0.2")))
    show("log_prefactor(3, 0.1)", log_prefactor_mp(3, mp.mpf("0.1")))
    spec_expr = mp.log(16 * mp.sqrt(2) * mp.pi**2 * mp.e ** mp.mpf("0.125") * (4 * mp.pi) ** mp.mpf("-1.5"))
    show("closed-form check d=2 s=1", spec_expr)

    print("# kernels: dual-form consistency and frozen values")
    a = heat_su_char_mp(2, mp.mpf("0.2"), [mp.mpf("0.3")], 90)
    b = heat_su_poisson_mp(2, mp.mpf("0.2"), [mp.mpf("0.3")], 8)
    show("heat_su(2, 0.2, [0.3]) char", a)
    show("heat_su(2, 0.2, [0.3]) poisson", b)
    show("  rel diff", abs(a - b) / abs(b))
    show("heat_pu(2, 0.2, [0.3]) poisson", heat_pu_poisson_mp(2, mp.mpf("0.2"), [mp.mpf("0.3")], 8))

    a3 = heat_su_char_mp(3, mp.mpf("0.5"), [mp.mpf("0.7"), mp.mpf("-0.4")], 70)
    b3 = heat_su_poisson_mp(3, mp.mpf("0.5"), [mp.mpf("0.7"), mp.mpf("-0.4")], 7)
    show("heat_su(3, 0.5, [0.7,-0.4]) char", a3)
    show("heat_su(3, 0.5, [0.7,-0.4]) poisson", b3)
    show("  rel diff", abs(a3 - b3) / abs(b3))

    p3 = heat_pu_char_mp(3, mp.mpf("0.5"), [mp.mpf("0.7"), mp.mpf("-0.4")], 60)
    q3 = heat_pu_poisson_mp(3, mp.mpf("0.5"), [mp.mpf("0.7"), mp.mpf("-0.4")], 7)
    show("heat_pu(3, 0.5, [0.7,-0.4]) char", p3)
    show("heat_pu(3, 0.5, [0.7,-0.4]) poisson", q3)
    show("  rel diff", abs(p3 - q3) / abs(q3))

    a4 = heat_su_char_mp(4, mp.mpf("0.8"), [mp.mpf("0.5"), mp.mpf("-0.3"), mp.mpf("0.9")], 66)
    b4 = heat_su_poisson_mp(4, mp.mpf("0.8"), [mp.mpf("0.5"), mp.mpf("-0.3"), mp.mpf("0.9")], 5)
    show("heat_su(4, 0.8, [0.5,-0.3,0.9]) char", a4)
    show("heat_su(4, 0.8, [0.5,-0.3,0.9]) poisson", b4)
    show("  rel diff", abs(a4 - b4) / abs(b4))
    q4 = heat_pu_poisson_mp(4, mp.mpf("0.8"), [mp.mpf("0.5"), mp.mpf("-0.3"), mp.mpf("0.9")], 5)
    show("heat_pu(4, 0.8, [0.5,-0.3,0.9]) poisson", q4)

    b3s = heat_su_poisson_mp(3, mp.mpf("0.05"), [mp.mpf("0.4"), mp.mpf("-0.15")], 4)
    show("heat_su(3, 0.05, [0.4,-0.15]) poisson", b3s)
    p3s = heat_pu_poisson_mp(3, mp.mpf("0.05"), [mp.mpf("0.4"), mp.mpf("-0.15")], 4)
    show("heat_pu(3, 0.05, [0.4,-0.15]) poisson", p3s)
    a3s = heat_su_char_mp(3, mp.mpf("0.05"), [mp.mpf("0.4"), mp.mpf("-0.15")], 230)
    show("heat_su(3, 0.05, [0.4,-0.15]) char", a3s)
    show("  rel diff", abs(a3s - b3s) / abs(b3s))

    print("# pu identity values (theta = 0), d=2, sigma=0.5")
    full = mp.fsum((2 * a + 1) ** 2 * mp.e ** (-mp.mpf("0.5") * (a * a + a) / 2) for a in range(0, 200))
    trim = mp.fsum((2 * a + 1) ** 2 * mp.e ** (-mp.mpf("0.5") * (a * a + a) / 2) for a in range(0, 4))
    show("heat_pu(2, 0.5, 0) untrimmed", full)
    show("heat_pu(2, 0.5, 0) trim 3", trim)
    planch = mp.fsum((2 * a + 1) ** 2 * mp.e ** (-mp.mpf("0.5") * (a * a + a)) for a in range(0, 4))
    show("plancherel-weighted trim-3 sum at 0", planch)
    l2t = mp.sqrt(mp.fsum((2 * a + 1) ** 2 * mp.e ** (-mp.mpf(a * a + a) / 2) for a in range(0, 3)))
    show("l2_norm_trimmed(2, 0.5, 2)", l2t)
    l2full = mp.sqrt(mp.fsum((2 * a + 1) ** 2 * mp.e ** (-mp.mpf(a * a + a) / 2) for a in range(0, 200)))
    show("l2_norm_untrimmed(2, 0.5)", l2full)
    trim2 = mp.sqrt(mp.fsum((2 * a + 1) ** 2 * mp.e ** (-mp.mpf(a * a + a) / 2) for a in range(3, 200)))
    show("trimming_error(2, 0.5, 2)", trim2)

    print("# I0 quadrature, d=2")
    i0a = i0_mp(2, mp.mpf("0.05"), 0)
    show("I0(2, 0.05, eps->0)", i0a)
    show("  e^{sigma/8}", mp.e ** (mp.mpf("0.05") / 8))
    i0b = i0_mp(2, mp.mpf("0.02"), mp.mpf("0.8"))
    show("I0(2, 0.02, eps=0.8)", i0b)

    print("# theorems")
    show("theorem1_t_min(2, 0.1)", theorem1_t_min_mp(2, mp.mpf("0.1")))
    for form in ("theorem", "kappa", "exponential"):
        show(f"log theorem2_delta_max(2, 0.1, {form})", theorem2_log_delta_mp(2, mp.mpf("0.1"), form))
    show("delta_max theorem linear", mp.e ** theorem2_log_delta_mp(2, mp.mpf("0.1"), "theorem"))
    show("sigma_star(2, 0.1)", sigma_star_mp(2, mp.mpf("0.1")))
    show("kappa(2)", kappa_mp(2))
    show("application1_ell(2, 0.1, 1e-12)", application1_ell_mp(2, mp.mpf("0.1"), mp.mpf("1e-12")))

    print("# t* and locations")
    d, sig = 2, mp.mpf("0.01")
    tstar = d * d / (2 * mp.sqrt(sig)) * mp.sqrt(2 * mp.log(d**4 / sig))
    show("t*(2, 0.01)", tstar)


if __name__ == "__main__":
    main()
