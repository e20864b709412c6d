"""Highest weights of PU(d) and stable character evaluation.

Labels are stored as non-increasing integer vectors of length d. The PU(d)
weights are the zero-sum ones, which the enumerator lists;
HighestWeight.from_su_label converts a lambda_d = 0 label to zero-sum form
by subtracting sum(lambda)/d, defined only when d divides the sum.

Characters are evaluated by one engine, _char_sum, from a grouped Laurent
polynomial. With mu = lam - lam_d + rho the last exponent is 0, so a sum
sum_w c_w chi_w has the alternant numerator sum_sigma sgn(sigma)
P(x_sigma(1), ..., x_sigma(d-1)) for one polynomial P = sum_w c_w z^mu_w in
d - 1 variables. At regular torus points _char_sum evaluates P (by Horner
at d = 2, by real matmuls over power tables at d >= 3) and divides by the
Vandermonde once. When two eigenphases come within GAP_TOL = 1e-6 of each
other it reads the same polynomial through the Jacobi-Trudi determinant in
complete homogeneous symmetric polynomials, the confluent
(divided-difference) form of the same ratio, which stays finite at
coincident eigenphases; its h tables come from the power tables by
cumulative sums. No complex exp is taken per weight. One call evaluates k
polynomials on one grouping (rows of shape (k, G, width)): the power
tables and the real matmul per eigenvalue are shared by all k, and points
run in blocks of _BLOCK // max(k G, k_max). A kernel is one column; the
per-weight characters of _char_batch are k one-weight polynomials, the
identity coefficients on the union of their labels.
"""

from __future__ import annotations

import collections
import functools as _functools
import itertools as _itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lie_core import (
    InvalidParameterError,
    _check_dimension,
    _check_int,
    _is_int,
    _min_gaps,
)

GAP_TOL = 1e-6


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


@_functools.cache
def _alternant_terms(d):
    """The d! terms of a d x d alternant: (column order, sign), where a term
    multiplies entry (perm[j], j) over the columns j."""
    return tuple(
        (perm, -1 if sum(a > b for a, b in _itertools.combinations(perm, 2)) % 2 else 1)
        for perm in _itertools.permutations(range(d))
    )


def _alternant(tab, heads: np.ndarray, last, terms) -> np.ndarray:
    """Sum over G column sets of the determinants det[f_j(x_b)] at n points,
    for k polynomials at once.

    Column j < d-2 of set g is tab[b][heads[g, j]], column d-2 is a
    polynomial whose values at x_b are last[b] (k, G, n), and column d-1 is
    tab[b][0]. terms lists the (perm, sign) pairs of _alternant_terms that
    can be nonzero. Returns (k, n).
    """
    d = len(terms[0][0])
    num = np.zeros(last[0].shape, dtype=complex)
    for perm, sign in terms:
        term = last[perm[d - 2]]
        for j in range(d - 2):
            term = term * tab[perm[j]][heads[:, j]]
        (np.add if sign > 0 else np.subtract)(num, term, out=num)
    return num.sum(axis=1)


def _vandermonde(tab: np.ndarray) -> np.ndarray:
    """prod_{i<j} (x_i - x_j), the alternant of rho, from the power tables."""
    d = tab.shape[0]
    vdm = np.ones(tab.shape[2], dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            vdm *= tab[i, 1] - tab[j, 1]
    return vdm


def _last_column(rows: np.ndarray, tables) -> list[np.ndarray]:
    """Each table's (k, G, n) values of the k x G rows (k, G, width): one
    real matmul (k G, width) @ (width, 2n) on the interleaved real view of
    the table's first width powers (width, n)."""
    k, groups, width = rows.shape
    flat = rows.reshape(k * groups, width)
    return [(flat @ t[:width].view(float)).view(complex).reshape(k, groups, -1) for t in tables]


_BLOCK = 1 << 16  # complex entries per (sum x group x point) array of _char_sum


def _char_sum_plan(lams: np.ndarray, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point-independent half of _char_sum, for at least one weight.

    With mu = lam - lam_d + rho the last exponent is 0, so the alternant
    numerator of sum_w coeff_w chi_w is sum_sigma sgn(sigma) P(x_sigma(1),
    ..., x_sigma(d-1)) for the one Laurent polynomial P = sum_w coeff_w
    z^mu_w in d - 1 variables (Fulton-Harris, Representation Theory,
    section 24). P is grouped by its first d - 2 exponents, the G rows of
    heads (G, d - 2); row g of rows (G, width) holds the group's dense
    coefficients in the last variable. At d = 2 there is one group with no
    head, and its row is P itself. The Jacobi-Trudi determinant
    det[h_{mu_i - (d-1) + j}] is multilinear in its rows as the alternant
    is, so the same grouping serves confluent points.

    coeff (k, nw) holds k polynomials, which share the grouping of the
    union of their weights: rows has shape (k, G, width).
    """
    mu = _laurent_exponents(lams)
    d = mu.shape[1]
    if d == 2:
        group = np.zeros(len(mu), dtype=np.int64)
        heads = np.zeros((1, 0), dtype=np.int64)
    else:
        k_max = int(mu[:, 0].max()) + 1
        key = np.ravel_multi_index(tuple(mu[:, : d - 2].T), (k_max,) * (d - 2))
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        heads = mu[first, : d - 2]
    width = int(mu[:, d - 2].max()) + 1
    cells = group * width + mu[:, d - 2]
    rows = np.stack([np.bincount(cells, weights=c, minlength=len(heads) * width) for c in coeff])
    return heads, rows.reshape(len(coeff), len(heads), width)


def _horner_ratio(coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The alternant ratio at d = 2 for k polynomials: P(z) = sum_m a_m z^m
    of each row of coeffs (k, width) by Horner at both eigenvalues, divided
    by their difference. Returns (k, n)."""
    x = np.exp(1j * theta)
    p = np.zeros((len(coeffs),) + x.shape, dtype=complex)
    for a_m in coeffs.T[::-1]:
        p *= x
        p += a_m[:, None, None]
    return (p[..., 0] - p[..., 1]) / (x[:, 0] - x[:, 1])


def _alternant_ratio(tab: np.ndarray, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The alternant numerator over the power tables x_b^m, divided by the
    Vandermonde once per point."""
    last = _last_column(rows, tab)
    return _alternant(tab, heads, last, _alternant_terms(len(tab))) / _vandermonde(tab)


def _jacobi_trudi(tab: np.ndarray, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The Jacobi-Trudi form, finite at coincident eigenphases: the table
    h[j][m] = h_{m - (d-1) + j}(x) replaces x_j^m. One cumulative sum per
    further variable gives h_k(x_1..x_i) = x_i^k sum_{a <= k} conj(x_i^a)
    h_a(x_1..x_{i-1}) from the power tables. As h[j][0] = [j = d-1], only
    the terms with perm[d-1] = d-1 survive, and nothing is divided."""
    d, size, n = tab.shape
    h = tab[0]
    for x in tab[1:]:
        h = x * np.cumsum(x.conj() * h, axis=0)
    pad = np.zeros((d - 1 + size, n), dtype=complex)
    pad[d - 1 :] = h
    h = [pad[j : j + size] for j in range(d)]
    last = _last_column(rows, h[: d - 1])
    terms = [(perm, sign) for perm, sign in _alternant_terms(d) if perm[d - 1] == d - 1]
    return _alternant(h, heads, last, terms)


def _char_sum(heads: np.ndarray, rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """k sums sum_w coeff_w chi_w at torus points, from the (heads, rows) of
    _char_sum_plan with rows (k, G, width). Returns (k, np) complex.

    Points with every eigenphase gap >= GAP_TOL take the alternant ratio
    (_horner_ratio at d = 2, _alternant_ratio at d >= 3), the others
    _jacobi_trudi. One set of power tables and one real matmul per
    eigenvalue serve all k sums. Points run in blocks of
    _BLOCK // max(k G, k_max), so no (k, G, points) array holds more than
    about _BLOCK entries or grows with the weight count. The cost is the
    power tables, the matmuls and the alternant's d! terms over the k G
    rows; the confluent form adds d - 1 cumulative sums and keeps (d-1)!
    terms. At d = 3 a one-point, one-sum call takes 0.11-0.13 ms at
    sigma = 0.02 (194 groups) and 0.10-0.12 ms at sigma = 0.1 (80) at a
    regular point and 0.12-0.15 ms at a confluent one, against 2.6-2.9 ms
    and 0.8-1.0 ms for the whole plan of the kernel (best of 7 x 100 calls,
    1 BLAS thread, 2-vCPU Intel Xeon, 2 runs). The 5 characters of
    one-norm <= 4 at d = 3 on the 16,384 nodes of a 128^2 torus grid take
    26 ms as one 5-column call, against 57 ms as 5 one-column calls (best
    of 7).
    """
    theta = np.asarray(theta, dtype=float)
    k, groups, _ = rows.shape
    # mu[:, 0] is each weight's largest exponent, and heads[:, 0] shares it
    k_max = int(heads[:, 0].max()) + 1 if heads.shape[1] else rows.shape[2]
    block = max(1, _BLOCK // max(k * groups, k_max))
    out = np.empty((k, len(theta)), dtype=complex)
    regular = _min_gaps(theta) >= GAP_TOL
    routes = [(_jacobi_trudi, ~regular)]
    if heads.shape[1]:
        routes.append((_alternant_ratio, regular))
    else:
        out[:, regular] = _horner_ratio(rows[:, 0], theta[regular])
    for route, where in routes:
        pts = theta[where]
        vals = np.empty((k, len(pts)), dtype=complex)
        for lo in range(0, len(pts), block):
            # Each block's tables stay referenced until the next block's are
            # built. Freed at the end of each block, their pages went back to
            # the system and were faulted in again: 7x the page faults and
            # 1.5x the time on a d = 3 batch of 5,000 points.
            tab = _power_tables(pts[lo : lo + block], k_max)
            vals[:, lo : lo + block] = route(tab, heads, rows)
        out[:, where] = vals
    return out


def _char_batch(lams, theta: np.ndarray) -> np.ndarray:
    """Characters of many weights at many torus points, (nw, np) complex:
    one nw-column _char_sum with identity coefficients (partition form by
    each label's last entry, exact on SU(d))."""
    return _char_sum(*_char_sum_plan(lams, np.eye(len(lams))), theta)
