"""Highest weights of PU(d) and stable character evaluation.

Labels are stored as non-increasing integer vectors of length d. The PU(d)
weights are the zero-sum ones, which the enumerator lists;
HighestWeight.from_su_label converts a lambda_d = 0 label to zero-sum form
by subtracting sum(lambda)/d, defined only when d divides the sum.

Characters are evaluated by one engine, _char_sum, from a grouped Laurent
polynomial. With mu = lam - lam_d + rho the last exponent is 0, so a sum
sum_w c_w chi_w has the alternant numerator sum_sigma sgn(sigma)
P(x_sigma(1), ..., x_sigma(d-1)) for one polynomial P = sum_w c_w z^mu_w
in d - 1 variables. The plan groups P by its first d - 2 exponents and by
the residue mod d of the last one, which the heads fix for zero-sum
labels: a row keeps every d-th coefficient of its last variable, so each
eigenvalue's polynomial column is one real matmul per residue class over
the stride-d power table, 1/d of the dense grid. The determinant is
expanded along that column: d products with cofactors formed once from the
head powers by a Laplace recursion over row subsets, in place of the d!
terms of the alternant. At d = 3 a cofactor is x_a^h - x_c^h and the heads
of a class run with stride 3, so when every residue holds a row the sum
regroups into one matmul over strided slices of the power tables. At d = 2
a regular point takes Horner's rule over the dense coefficients, whose
ratio stays exactly real at a kernel's conjugate pair. A regular point at
d >= 3 is divided by the Vandermonde once, unless its predicted rounding u
d! sum|c_w| / |V| exceeds _RESIDUE_CEILING of its value; then, as when two
eigenphases come within GAP_TOL = 1e-6 of each other, the same polynomial
is read through the Jacobi-Trudi determinant in complete homogeneous
symmetric polynomials, the confluent (divided-difference) form of the same
ratio, which stays finite at coincident eigenphases; its h tables come
from the power tables by cumulative sums. For real sums such a point keeps
whichever form has the smaller imaginary part. No complex exp is taken per
weight. One call evaluates k polynomials on one grouping (rows of shape
(k, G, width)): the power tables and the matmuls are shared by all k, and
points run in blocks whose whole working set stays within _BLOCK_BYTES. A
kernel is one column; the per-weight characters of _char_batch are k
one-weight polynomials, the identity coefficients on the union of their
labels.
"""

from __future__ import annotations

import collections
import functools as _functools
import itertools as _itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lie_core import (
    InvalidParameterError,
    _check_dimension,
    _check_int,
    _is_int,
    _min_gaps,
)

GAP_TOL = 1e-6
_UNIT_ROUNDOFF = 2.0**-53
_RESIDUE_CEILING = 1e-9  # share of a value that a char residue, its predicted rounding or a Richardson step may reach


@dataclass(frozen=True)
class HighestWeight:
    d: int
    lam: tuple[int, ...] = field(default=())

    def __post_init__(self):
        _check_dimension(self.d)
        if not all(_is_int(x) for x in self.lam):
            raise InvalidParameterError(f"label entries must be integers, got {self.lam!r}")
        lam = tuple(int(x) for x in self.lam)
        if len(lam) != self.d:
            raise InvalidParameterError(f"label must have length d = {self.d}")
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise InvalidParameterError(f"label must be non-increasing, got {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def one_norm(self) -> int:
        return sum(abs(x) for x in self.lam)

    @property
    def sum(self) -> int:
        return sum(self.lam)

    @property
    def is_projective(self) -> bool:
        return self.sum == 0

    @classmethod
    def from_su_label(cls, d: int, lam) -> "HighestWeight":
        """Convert a lambda_d = 0 style SU(d) label to zero-sum form."""
        w = cls(d, tuple(lam))
        if w.sum % d != 0:
            raise InvalidParameterError(
                f"sum {w.sum} not divisible by d={d}; label has no projective form"
            )
        shift = w.sum // d
        return cls(d, tuple(x - shift for x in w.lam))


def _append_column(cols, lo, hi):
    """Give each row of the prefix columns one child per value lo..hi of a
    new last column. Children stay grouped under their parent in ascending
    order, so rows in lexicographic order stay in lexicographic order.

    Returns (cols with the new column, index of each child's parent row).
    """
    counts = hi - lo + 1
    parent = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    value = np.arange(parent.size) - first[parent] + lo[parent]
    return [c[parent] for c in cols] + [value], parent


def _projective_tuples(d, t):
    """Zero-sum non-increasing labels with positive mass <= t (one-norm
    <= 2t), as an (n, d) int64 array in lexicographic row order."""
    first = np.arange(t + 1, dtype=np.int64)
    cols, psum, mass = [first], first, first
    for k in range(1, d - 1):
        # the d - k entries from here on sum to -psum and none exceeds this
        # one, so it is at least -psum / (d - k); a positive one spends mass
        lo = -(psum // (d - k))
        hi = np.minimum(cols[-1], np.maximum(t - mass, 0))
        cols, parent = _append_column(cols, lo, hi)
        psum = psum[parent] + cols[-1]
        mass = mass[parent] + np.maximum(cols[-1], 0)
    # lo keeps the entries left able to average down to -psum, so the last
    # entry -psum never exceeds the one before it
    return np.stack(cols + [-psum], axis=1)


def _partition_counts(n_max, parts):
    """Yield c for n = 0..n_max, where c[a] is the number of partitions of n
    into exactly a parts, a = 0..parts."""
    recent = collections.deque(maxlen=parts)  # rows n-1, n-2, ..., n-parts
    for n in range(n_max + 1):
        if n == 0:
            c = [1] + [0] * parts
        else:
            c = [0] + [
                recent[0][a - 1] + (recent[a - 1][a] if a <= n else 0)
                for a in range(1, parts + 1)
            ]
        recent.appendleft(c)
        yield c


def _projective_count(d, t):
    """len(_projective_tuples(d, t)) without building the rows: each shell n
    pairs a partition of n into a parts with one into b parts, a + b <= d."""
    total = 0
    for n, c in enumerate(_partition_counts(t, d - 1)):
        if n == 0:
            total += 1
            continue
        upto = list(_itertools.accumulate(c))  # upto[k] = sum of c[0..k]; c[0] = 0
        total += sum(c[a] * upto[d - a] for a in range(1, d))
    return total


def enumerate_projective_weights(d: int, t: int) -> list[HighestWeight]:
    """All zero-sum non-increasing integer vectors with 1-norm <= 2t,
    sorted lexicographically."""
    _check_dimension(d)
    t = _check_int("t", t)
    return [HighestWeight(d, lam) for lam in _projective_tuples(d, t).tolist()]


def _dim_array(lams: np.ndarray) -> np.ndarray:
    """Weyl dimensions of label rows (n, d), as floats."""
    n, d = lams.shape
    out = np.ones(n)
    for i in range(d):
        for j in range(i + 1, d):
            out *= (lams[:, i] - lams[:, j] + j - i) / (j - i)
    return out


def _casimir_array(lams: np.ndarray) -> np.ndarray:
    """Casimir eigenvalues k_lambda of label rows (n, d), as floats."""
    n, d = lams.shape
    c = np.array([d - 2 * j - 1 for j in range(d)], dtype=np.int64)
    main = (lams * lams).sum(axis=1) + lams @ c
    s = lams.sum(axis=1)
    return main / (2.0 * d) - (s * s) / (2.0 * d * d)


def _laurent_exponents(lams) -> np.ndarray:
    """mu = lam - lam_d + rho for each label row, rho = (d-1, ..., 1, 0); the
    last column is 0. Shifting by lam_d is exact on SU(d), where det = 1."""
    lams = np.asarray(lams, dtype=np.int64)
    d = lams.shape[1]
    return lams - lams[:, -1:] + np.arange(d - 1, -1, -1, dtype=np.int64)


def _power_tables(theta: np.ndarray, k_max: int) -> np.ndarray:
    """x_j^k = e^{i k theta_j} for k < k_max (and a few more), as a C-ordered
    (d, >= k_max, n) array.

    With k = B q + r and B about sqrt(k_max), x^k = e^{i B q theta} x^r: one
    exp per giant step and a running product of at most B - 1 factors, so
    each power is within about B + 2 ulps of the direct exp.
    """
    n, d = theta.shape
    step = math.isqrt(max(k_max - 1, 0)) + 1
    rows = -(-k_max // step)
    th = theta.T[:, None, :]
    baby = np.empty((d, step, n), dtype=complex)
    baby[:, 0] = 1.0
    baby[:, 1:] = np.exp(1j * th)
    np.cumprod(baby, axis=1, out=baby)
    giant = np.exp(1j * (step * np.arange(rows))[:, None] * th)
    tab = np.empty((d, rows, step, n), dtype=complex)
    np.multiply(giant[:, :, None, :], baby[:, None, :, :], out=tab)
    return tab.reshape(d, rows * step, n)


class _SumPlan(NamedTuple):
    """k Laurent polynomials in d - 1 variables on one grouping, split by the
    residue mod d of the last variable's exponent (see _char_sum_plan).

    Row g holds the terms z^mu with mu[:d-2] = heads[:, g] and mu[d-2] =
    resid[g] + d q, and rows[:, g, q] are their coefficients. The rows run
    class by class: classes lists (r, lo, hi) for the rows lo:hi of residue
    r. mass (k, 1) is sum_w |c_w| of each polynomial, and size the number
    of powers of each eigenvalue that the rows and heads read. run is None,
    or at d = 3 the h0 of a run layout: three classes of equal length, the
    one of residue 2 - i with the heads h0 + i + 3 j (zero rows fill gaps).
    Against the general layout at d = 3 (2-vCPU Intel Xeon, 1 BLAS thread,
    medians of 15 interleaved runs) the run layout takes the t = 78 plan at
    5,000 points in 45 ms for 185 ms, and at one point in 0.16 ms for
    0.18 ms. A plan that leaves a residue empty would pad a
    class of zero rows and read longer power tables, so it keeps the
    general layout.
    """

    heads: np.ndarray  # (d - 2, G)
    resid: np.ndarray  # (G,)
    rows: np.ndarray  # (k, G, width)
    classes: tuple
    mass: np.ndarray  # (k, 1)
    size: int
    run: int | None


def _char_sum_plan(lams: np.ndarray, coeff: np.ndarray) -> _SumPlan:
    """The point-independent half of _char_sum, for at least one weight.

    With mu = lam - lam_d + rho the last exponent is 0, so the alternant
    numerator of sum_w coeff_w chi_w is sum_sigma sgn(sigma) P(x_sigma(1),
    ..., x_sigma(d-1)) for the one Laurent polynomial P = sum_w coeff_w
    z^mu_w in d - 1 variables (Fulton-Harris, Representation Theory, section
    24). P is grouped by its first d - 2 exponents, the heads, and by the
    residue r of the last one mod d; a row keeps the coefficients of the
    exponents r + d q only. sum(mu) = d (d - 1) / 2 - d lam_d, so the heads
    fix r for labels whose sums agree mod d, as zero-sum ones do: a kernel
    plan has one row per head and 1/d of the dense grid of heads x last
    exponents. At d = 3 such a plan takes the run layout, whose head powers
    are strided slices of the power tables, when each residue holds a row.
    Other label sets, as in _char_batch, can give one head several rows. The
    Jacobi-Trudi determinant det[h_{mu_i - (d-1) + j}] is multilinear in its
    rows as the alternant is, so the same rows serve confluent points.

    coeff (k, nw) holds k polynomials, which share the rows of the union of
    their weights: rows has shape (k, G, width).
    """
    mu = _laurent_exponents(lams)
    coeff = np.asarray(coeff, dtype=float)
    d = mu.shape[1]
    q, resid = np.divmod(mu[:, d - 2], d)
    key = resid  # ranked after each column, so the mixed radix cannot overflow
    for col in mu[:, : d - 2].T:
        key = np.unique(key, return_inverse=True)[1] * (int(col.max()) + 1) + col
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    keys = np.column_stack([resid, mu[:, : d - 2]])[first]
    width = int(q.max()) + 1
    size = max(int(mu[:, 0].max()) + 1, d * width)
    run = None
    if d == 3 and np.ptp(keys.sum(axis=1) % 3) == 0 and np.bincount(keys[:, 0], minlength=3).all():
        # class i = 2 - r holds the heads h0 + i + 3 j
        i = 2 - keys[:, 0]
        run = int((keys[:, 1] - i).min())  # every h - i is run mod 3
        j = (keys[:, 1] - i - run) // 3
        span = int(j.max()) + 1
        slot = i * span + j
        heads = (run + np.arange(3)[:, None] + 3 * np.arange(span)).reshape(1, -1)
        resid = np.repeat([2, 1, 0], span)
        classes = ((2, 0, span), (1, span, 2 * span), (0, 2 * span, 3 * span))
        size = max(size, run + 3 * span)
    else:
        bounds = np.searchsorted(keys[:, 0], np.arange(d + 1)).tolist()
        classes = tuple((r, lo, hi) for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo)
        slot, heads, resid = np.arange(len(keys)), np.ascontiguousarray(keys[:, 1:].T), keys[:, 0].copy()
    groups = len(resid)
    cells = slot[group] * width + q
    rows = np.stack([np.bincount(cells, weights=c, minlength=groups * width) for c in coeff])
    mass = np.abs(coeff).sum(axis=1, keepdims=True)
    return _SumPlan(heads, resid, rows.reshape(len(coeff), groups, width), classes, mass, size, run)


def _class_values(tables: np.ndarray, plan: _SumPlan, lo: int, hi: int) -> np.ndarray:
    """The polynomials of rows lo:hi at every table, (len(tables), k, hi - lo,
    n): the rows of class r read the powers r + d q, one real matmul per
    class on the interleaved real view of the stride-d table rows."""
    d = len(plan.heads) + 2
    k, _, width = plan.rows.shape
    out = np.empty((len(tables), k, hi - lo, tables.shape[2]), dtype=complex)
    for r, first, last in plan.classes:
        first, last = max(first, lo), min(last, hi)
        if last > first:
            powers = tables[:, None, r::d][:, :, :width].view(float)
            np.matmul(plan.rows[:, first:last], powers, out=out[:, :, first - lo : last - lo].view(float))
    return out


@_functools.cache
def _minor_steps(rows: int, ones: bool) -> tuple[tuple, np.ndarray]:
    """The Laplace recursion for the signed cofactors of the polynomial
    column in a rows x rows determinant whose other columns are heads and,
    when ones, a last column of ones.

    The cofactor of row b is eps_b E(R - b), where E(S) is the minor on the
    rows S and the last |S| of the other columns. Expanding E(S) along its
    first column gives E(S) = sum_r (-1)^r col(S[r]) E(S - S[r]): level s
    forms E on every s-subset from level s - 1, and the level of the ones
    column is 1 and needs no product. That is below rows 2^(rows-1)
    products, where the rows! permutations of the determinant would take
    rows!, and a level holds at most C(rows, rows // 2) subsets.

    Returns (steps, eps): per level (head column, picks, subs), with picks[r]
    the rows S[r] and subs[r] the index of S - S[r] in the level before
    (None after a level of ones); and eps (rows, 1, 1).
    """
    size = rows - 1
    steps, index = [], None
    for s in range(1 + ones, size + 1):
        if s == size:
            sets = [tuple(i for i in range(rows) if i != b) for b in range(rows)]
        else:
            sets = list(_itertools.combinations(range(rows), s))
        picks = tuple(np.array([S[r] for S in sets], dtype=np.intp) for r in range(s))
        subs = None
        if index is not None:
            subs = tuple(np.array([index[S[:r] + S[r + 1 :]] for S in sets], dtype=np.intp) for r in range(s))
        steps.append((size - s, picks, subs))
        index = {S: i for i, S in enumerate(sets)}
    eps = np.array([(-1.0) ** (b + size - ones) for b in range(rows)]).reshape(rows, 1, 1)
    return tuple(steps), eps


def _cofactors(tables, plan: _SumPlan, ones: bool, lo: int, hi: int) -> np.ndarray:
    """eps_b E(R - b) of _minor_steps for every row b of tables, (rows, hi -
    lo, n), where the entry of row b in head column j is tables[b, heads[j,
    g]] for the plan rows g in lo:hi."""
    rows, _, n = tables.shape
    heads = plan.heads[:, lo:hi]
    steps, eps = _minor_steps(rows, ones)
    e = np.ones((rows, 1, 1))
    for j, picks, subs in steps:
        e = _laplace_level(np.take(tables, heads[j], axis=1), picks, subs, e)
    return np.multiply(e, eps, out=np.empty((rows, hi - lo, n), dtype=complex))


def _laplace_level(col: np.ndarray, picks: tuple, subs: tuple | None, e: np.ndarray) -> np.ndarray:
    """One level of _minor_steps: sum_r (-1)^r col[S[r]] E(S - S[r]) on
    every subset S, in one sum and two scratch arrays of the level's size.
    The gathers take mode="clip", as mode="raise" buffers its output."""
    acc = np.take(col, picks[0], axis=0)
    term = np.empty_like(acc)
    factor = None if subs is None else np.empty_like(acc)
    if subs is not None:
        acc *= np.take(e, subs[0], axis=0, out=factor, mode="clip")
    for r in range(1, len(picks)):
        np.take(col, picks[r], axis=0, out=term, mode="clip")
        if subs is not None:
            term *= np.take(e, subs[r], axis=0, out=factor, mode="clip")
        if r % 2:
            acc -= term
        else:
            acc += term
    return acc


def _expanded_sum(tables, plan: _SumPlan, ones: bool) -> np.ndarray:
    """sum_b sum_g (row g's polynomial at table b) cofactor_b[g], (k, n), for
    a general layout plan: _class_values times _cofactors, on at most
    _block_shape's rows at a time. Each row's d products are summed before
    the rows are. Against one contraction over rows and tables together,
    that halves the mean imaginary residue of a d = 4, sigma = 0.1 kernel
    at 1,500 Haar points, and cuts its largest from 1.0e-9 to 1.8e-10 of
    the value in blocks of one point."""
    groups = len(plan.resid)
    chunk = _block_shape(plan)[1]
    num = 0
    for lo in range(0, groups, chunk):
        hi = min(lo + chunk, groups)
        terms = _class_values(tables, plan, lo, hi)
        terms *= _cofactors(tables, plan, ones, lo, hi)[:, None]
        num = num + terms.sum(axis=0).sum(axis=1)
    return num


@_functools.cache
def _run_terms(rows: int, ones: bool) -> tuple:
    """At d = 3 each minor is linear in the one head column: cofactor_b =
    sum_e S[b, e] x_e^h (the last level of _minor_steps). Returns, for each
    e, the rows (plus, minus) with S[b, e] = +1 and -1 (None if none)."""
    steps, eps = _minor_steps(rows, ones)
    ((_, picks, _),) = steps
    terms = [[None, None] for _ in range(rows)]
    for r, pick in enumerate(picks):
        for b, e in enumerate(pick.tolist()):
            terms[e][int(eps[b, 0, 0] * (-1) ** r < 0)] = b
    return tuple(map(tuple, terms))


def _run_sum(buf: np.ndarray, rows: int, step: int, plan: _SumPlan, ones: bool) -> np.ndarray:
    """sum_b sum_g (row g's polynomial at table b) cofactor_b[g] for a run
    layout plan at d = 3, (k, n). Table b's power m is row b step + m of the
    C-ordered buf (..., n).

    With cofactor_b = sum_e S[b, e] x_e^h (_run_terms) the sum regroups as
    sum_e sum_(i, q) (sum_b S[b, e] x_b^(2 - i + 3 q)) Z_e[i, q], where
    Z_e[i, q] = sum_j rows[i, j, q] x_e^(h0 + i + 3 j) is one real matmul
    over the head powers, a strided view of buf; the signed powers are
    differences of table rows. Each eigenvalue e forms its Z_e and signed
    powers in turn and adds its term to the result, so at most one of each
    is held. No array of the rows' length is formed.
    """
    n = buf.shape[-1]
    k, groups, width = plan.rows.shape
    span = groups // 3
    row = buf.strides[-2]
    coeffs = plan.rows.reshape(k, 3, span, width).transpose(0, 1, 3, 2)
    heads = np.ndarray((rows, 1, 3, span, 2 * n), float, buf, plan.run * row, (step * row, 0, row, 3 * row, 8))
    flat = buf.reshape(-1, n)
    tables = [flat[b * step : b * step + 3 * width] for b in range(rows)]
    z = np.empty((k, 3, width, 2 * n))
    terms = z.view(complex)
    signed = np.empty((3 * width, n), dtype=complex)
    powers = np.ndarray((3, width, n), complex, signed, 2 * row, (-row, 3 * row, 16))
    out = np.zeros((k, n), dtype=complex)
    for e, (plus, minus) in enumerate(_run_terms(rows, ones)):
        np.matmul(coeffs, heads[e], out=z)
        if minus is None:
            np.copyto(signed, tables[plus])
        elif plus is None:
            np.negative(tables[minus], out=signed)
        else:
            np.subtract(tables[plus], tables[minus], out=signed)
        terms *= powers
        out += np.add.reduce(terms, axis=(1, 2))
    return out


def _horner_ratio(plan: _SumPlan, theta: np.ndarray) -> np.ndarray:
    """The alternant ratio at d = 2 for k polynomials, (k, n): each P(z) =
    sum_m a_m z^m, its dense coefficients interleaved again from the (at
    most two) residue rows, by Horner at both eigenvalues, divided by their
    difference. Horner's arithmetic keeps P(conj x) = conj P(x) exactly, so
    at x_2 = conj x_1 the ratio is real."""
    k, _, width = plan.rows.shape
    coeffs = np.zeros((k, 2 * width))
    for r, lo, _ in plan.classes:
        coeffs[:, r::2] = plan.rows[:, lo]
    x = np.exp(1j * theta)
    p = np.zeros((k,) + x.shape, dtype=complex)
    for a_m in coeffs.T[::-1]:
        p *= x
        p += a_m[:, None, None]
    return (p[..., 0] - p[..., 1]) / (x[:, 0] - x[:, 1])


@_functools.cache
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array(ix, dtype=np.intp) for ix in zip(*_itertools.combinations(range(d), 2)))


def _alternant_ratio(tab: np.ndarray, plan: _SumPlan, skip: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The alternant ratio at the points of tab (d, size, n) where skip is
    False, written into out (k, n). Returns the points left for
    _jacobi_trudi: skip, and those whose predicted rounding is too large,
    whose alternant ratio out holds as well.

    The numerator is expanded along the polynomial column: d products of
    each row's polynomial at x_b (_class_values) with its cofactor from the
    heads (_cofactors), summed over b and the rows; a run layout plan takes
    _run_sum instead. Each of the d! terms of the alternant has modulus at
    most sum_w |c_w|, so its rounding is about u d! mass / |V| (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3); a point where
    that exceeds _RESIDUE_CEILING max(1, |value|) is handed on. Near the
    identity the expanded form cancels its imaginary part before the real
    one, so the residue that _char_eval checks no longer tracks this error.
    """
    d, size, n = tab.shape
    if plan.run is not None:
        num = _run_sum(tab, d, size, plan, True)
    else:
        num = _expanded_sum(tab, plan, True)
    i, j = _pairs(d)
    vdm = np.multiply.reduce(tab[i, 1] - tab[j, 1], axis=0)
    limit = plan.mass * (_UNIT_ROUNDOFF * math.factorial(d) / _RESIDUE_CEILING)
    redo = skip | np.logical_or.reduce(np.maximum(np.abs(num), np.abs(vdm)) < limit, axis=0)
    np.divide(num, vdm, out=out, where=~skip)
    return redo


def _jacobi_trudi(tab: np.ndarray, plan: _SumPlan) -> np.ndarray:
    """The Jacobi-Trudi form, finite at coincident eigenphases: the table
    h[b][m] = h_{m - (d-1) + b}(x) replaces x_b^m. One cumulative sum per
    further variable gives h_k(x_1..x_i) = x_i^k sum_{a <= k} conj(x_i^a)
    h_a(x_1..x_{i-1}) from the power tables, in place in one table and one
    scratch array. As h[b][0] = [b = d-1], the determinant is its (d-1) x
    (d-1) minor without the column of mu = 0, expanded along the polynomial
    column as in _alternant_ratio. Nothing is divided."""
    d, _, n = tab.shape
    pad = np.zeros((plan.size + d - 1, n), dtype=complex)  # zero below degree 0
    h = pad[d - 1 :]
    h[...] = tab[0, : plan.size]
    scratch = np.empty_like(h)
    for x in tab[1:, : plan.size]:
        np.conjugate(x, out=scratch)
        scratch *= h
        np.cumsum(scratch, axis=0, out=scratch)
        np.multiply(x, scratch, out=h)
    del scratch  # freed before the contraction
    if plan.run is not None:
        return _run_sum(pad, d - 1, 1, plan, False)
    hv = np.ndarray((d - 1, plan.size, n), complex, pad, 0, (pad.strides[0],) + pad.strides)
    return _expanded_sum(hv, plan, False)


# Bytes that one block of _char_sum holds across its temporaries
# (_block_shape): one core's L2 on the 2-vCPU Intel Xeon it was tuned on.
# Interleaved against 1 and 4 MiB (1 BLAS thread), the t = 78 batch at
# 5,000 points took 40.0 ms for 45.3 and 39.1, and 1,000 points at d = 4,
# sigma = 0.3, 180 ms for 218 and 209.
_BLOCK_BYTES = 1 << 21


def _block_shape(plan: _SumPlan) -> tuple[int, int]:
    """(points, plan rows) of one block of _char_sum, so that the block's
    working set stays within _BLOCK_BYTES. Counted in complex entries, a
    point holds:
    - the power tables, with the baby and giant steps they are built from;
    - a few arrays of k or d^2 entries: the values, the Vandermonde and the
      routing masks;
    - in case it is routed (every point of a block may be), its copy of the
      tables and the h table with its scratch array;
    - in the run layout, one eigenvalue's head GEMM output and signed
      powers, 3 width (k + 1);
    - in the general layout, per plan row, the class values (d k) and the
      cofactor levels: the level before, the head column, and the level
      being summed with its term and gathered factor, d + 4 C(d, d/2). The
      Jacobi-Trudi form holds the same one size smaller.
    A sixteenth of the budget is left for the call's point masks and its
    Python objects. When one point's rows exceed the rest the block is one
    point, and the general layout takes its rows in chunks that fit. The
    count is integer arithmetic on the plan: a one-point call allocates
    nothing for it.
    """
    d = len(plan.heads) + 2
    k, groups, width = plan.rows.shape
    step = math.isqrt(max(plan.size - 1, 0)) + 1
    tables = d * (step + -(-plan.size // step) * (step + 1))
    point = tables + 4 * k + d * d + d * plan.size + 2 * (plan.size + d)
    if plan.run is not None:
        point, per_row = point + 3 * width * (k + 1), 0
    else:
        per_row = d * k + d + 4 * math.comb(d, d // 2)
    cap = _BLOCK_BYTES * 15 // (16 * 16)  # 15/16 of the budget, in complex entries of 16 bytes
    need = point + groups * per_row
    if need <= cap or not per_row:
        return max(1, cap // need), groups
    return 1, max(1, (cap - point) // per_row)


def _horner_points(plan: _SumPlan) -> int:
    """Points of one block of _horner_ratio within 15/16 of _BLOCK_BYTES.
    Counted in complex entries, the call holds the dense real coefficients
    (k width), and a point its angles and eigenvalues, the values of the k
    polynomials at both and their difference and ratio: 4 k + 10, as
    tracemalloc counts them. With no tables a block holds more points than
    _block_shape's: 8,774 for the d = 2 kernel at sigma = 0.05, 696 for the
    41 labels of one-norm up to 80."""
    k, _, width = plan.rows.shape
    return max(1, (_BLOCK_BYTES * 15 // (16 * 16) - k * width) // (4 * k + 10))


def _char_sum(plan: _SumPlan, theta: np.ndarray, real: bool = False) -> np.ndarray:
    """k sums sum_w coeff_w chi_w at torus points, from the _SumPlan of
    _char_sum_plan with rows (k, G, width). Returns (k, np) complex.

    Points with every eigenphase gap >= GAP_TOL take the alternant ratio;
    those with a smaller gap, and those where the alternant's predicted
    rounding is above _RESIDUE_CEILING of the value, take _jacobi_trudi on
    the same power tables. The prediction is a bound, and away from the
    identity the h tables can cancel worse than the alternant: at a d = 4,
    sigma = 0.2 point with three eigenphases within 0.08 they are 0.6
    ceilings off with a residue of 1.3 ceilings, the alternant 0.12 off
    with 0.02. When real (a kernel's sums are, as its conjugate labels
    carry equal coefficients) the imaginary part measures each form's
    rounding, and a routed point keeps the alternant where its imaginary
    part is the smaller. At d = 2 the regular points take _horner_ratio,
    which needs no tables and keeps a kernel's ratio exactly real, with no
    routing: there a value at the rounding floor passes the residue check
    as before. Points run in blocks of _block_shape, whose whole working
    set stays within _BLOCK_BYTES, so it stays in a core's cache and does
    not grow with the point count; Horner's rule takes the regular d = 2
    points in blocks of _horner_points, from the same budget. All state is
    local to the call, so threads may share one plan.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[1]
    out = np.zeros((len(plan.rows), len(theta)), dtype=complex)  # skipped points hold 0, not garbage
    confluent = _min_gaps(theta) < GAP_TOL
    if d == 2 and not confluent.all():
        block = _horner_points(plan)
        for lo in range(0, len(theta), block):
            part, regular = slice(lo, lo + block), ~confluent[lo : lo + block]
            out[:, part][:, regular] = _horner_ratio(plan, theta[part][regular])
        out[:, confluent] = _char_sum(plan, theta[confluent])
        return out
    block = _block_shape(plan)[0]
    for lo in range(0, len(theta), block):
        _block_sum(plan, theta[lo : lo + block], confluent[lo : lo + block], out[:, lo : lo + block], real)
    return out


def _block_sum(plan: _SumPlan, theta: np.ndarray, skip: np.ndarray, vals: np.ndarray, real: bool) -> None:
    """One block of _char_sum, written into vals (k, n). Its arrays are
    freed on return, before the next block's are built, so the next block
    reuses their pages: the t = 78 batch at 5,000 points takes no page
    fault, against 322 a call when the tables stayed referenced."""
    tab = _power_tables(theta, plan.size)
    redo = skip
    if not np.logical_and.reduce(skip):
        redo = _alternant_ratio(tab, plan, skip, vals)
    if np.logical_or.reduce(redo):
        h = _jacobi_trudi(tab[:, :, redo], plan)
        if real:
            alt = vals[:, redo]
            keep = ~skip[redo] & (np.abs(alt.imag) < np.abs(h.imag))
            h[keep] = alt[keep]
        vals[:, redo] = h


def _char_batch(lams, theta: np.ndarray) -> np.ndarray:
    """Characters of many weights at many torus points, (nw, np) complex:
    one nw-column _char_sum with identity coefficients (partition form by
    each label's last entry, exact on SU(d))."""
    return _char_sum(_char_sum_plan(lams, np.eye(len(lams))), theta)
