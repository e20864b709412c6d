"""Highest weights of SU(d)/PU(d) and stable character evaluation.

Labels are stored as non-increasing integer vectors of length d. Projective
(PU) weights are the zero-sum ones; general SU(d) labels live in the
lambda_d = 0 convention and convert to zero-sum form by subtracting
sum(lambda)/d, defined only when d divides the sum.

Characters are evaluated through the Weyl alternant ratio at regular torus
points and through a Jacobi-Trudi determinant in complete homogeneous
symmetric polynomials when two eigenphases come within 1e-6 of each other;
the latter is the confluent (divided-difference) form of the same ratio and
stays finite at coincident eigenphases.
"""

from __future__ import annotations

import functools as _functools
import itertools as _itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lie_core import (
    TWO_PI,
    InvalidParameterError,
    TorusPoint,
    _check_dimension,
    _check_int,
    _min_gaps,
)

GAP_TOL = 1e-6


@dataclass(frozen=True)
class HighestWeight:
    d: int
    lam: tuple[int, ...] = field(default=())

    def __post_init__(self):
        _check_dimension(self.d)
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


def _projective_tuples(d, t):
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


def enumerate_projective_weights(d: int, t: int) -> list[HighestWeight]:
    """All zero-sum non-increasing integer vectors with 1-norm <= 2t,
    sorted lexicographically."""
    _check_dimension(d)
    t = _check_int("t", t)
    return [HighestWeight(d, lam) for lam in _projective_tuples(d, t)]


def _su_label_tuples(d, s_max):
    out = []
    for s in range(s_max + 1):
        for p in _partitions(s, d - 1, s):
            out.append(p + (0,) * (d - len(p)))
    out.sort()
    return out


def enumerate_su_labels(d: int, s_max: int) -> list[HighestWeight]:
    """All lambda_d = 0 dominant labels with sum(lambda) <= s_max."""
    _check_dimension(d)
    s_max = _check_int("s_max", s_max)
    return [HighestWeight(d, lam) for lam in _su_label_tuples(d, s_max)]


def dim(w: HighestWeight) -> int:
    """Weyl dimension formula, exact integer arithmetic."""
    d = w.d
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= w.lam[i] - w.lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r != 0:
        raise AssertionError(f"non-integer dimension for {w.lam}")
    return q


def casimir(w: HighestWeight) -> Fraction:
    """Casimir eigenvalue k_lambda as an exact rational."""
    d = w.d
    s = sum(w.lam)
    main = sum(x * x + (d - 2 * j - 1) * x for j, x in enumerate(w.lam))
    return Fraction(main, 2 * d) - Fraction(s * s, 2 * d * d)


def _lam_array(tuples) -> np.ndarray:
    return np.asarray(tuples, dtype=np.int64).reshape(len(tuples), -1)


def _dim_array(lams: np.ndarray) -> np.ndarray:
    n, d = lams.shape
    out = np.ones(n)
    for i in range(d):
        for j in range(i + 1, d):
            out *= (lams[:, i] - lams[:, j] + j - i) / (j - i)
    return out


def _casimir_array(lams: np.ndarray) -> np.ndarray:
    n, d = lams.shape
    c = np.array([d - 2 * j - 1 for j in range(d)], dtype=np.int64)
    main = (lams * lams).sum(axis=1) + lams @ c
    s = lams.sum(axis=1)
    return main / (2.0 * d) - (s * s) / (2.0 * d * d)


@_functools.lru_cache(maxsize=None)
def _signed_permutations(d):
    out = []
    for perm in _itertools.permutations(range(d)):
        sgn = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sgn = -sgn
        out.append((perm, sgn))
    return out


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


def _char_batch(lams: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Characters of many weights at many torus points.

    lams: (nw, d) integer labels, arbitrary non-increasing rows; internally
    shifted by their last entry to partition form (exact on SU(d), det = 1).
    theta: (np, d) full eigenphase rows.
    Returns (nw, np) complex array.

    Regular points go through the alternant ratio, expanded over column
    permutations so each permutation costs one real matmul plus one exp;
    points with an eigenphase gap below 1e-6 use the confluent form.
    """
    lams = np.asarray(lams, dtype=np.int64)
    theta = np.asarray(theta, dtype=float)
    nw, d = lams.shape
    npts = theta.shape[0]
    parts = lams - lams[:, -1:]
    out = np.empty((nw, npts), dtype=complex)

    gaps = _min_gaps(theta)
    good = gaps >= GAP_TOL
    idx_good = np.nonzero(good)[0]
    if idx_good.size:
        tg = theta[idx_good]
        x = np.exp(1j * tg)
        vdm = np.ones(idx_good.size, dtype=complex)
        for i in range(d):
            for j in range(i + 1, d):
                vdm *= x[:, i] - x[:, j]
        mu = (parts + np.arange(d - 1, -1, -1, dtype=np.int64)[None, :]).astype(float)
        num = np.zeros((idx_good.size, nw), dtype=complex)
        for perm, sgn in _signed_permutations(d):
            num += sgn * np.exp(1j * (tg @ mu[:, list(perm)].T))
        out[:, idx_good] = (num / vdm[:, None]).T
    for p in np.nonzero(~good)[0]:
        out[:, p] = _chars_confluent(parts, theta[p])
    return out


def character(w: HighestWeight, x: TorusPoint) -> complex:
    """Character value at a torus point (continuous extension everywhere)."""
    if w.d != x.d:
        raise InvalidParameterError(f"weight has d={w.d}, point has d={x.d}")
    theta = np.asarray(x.eigenphases(), dtype=float)[None, :]
    return complex(_char_batch(_lam_array([w.lam]), theta)[0, 0])


def j_function(d: int, x: TorusPoint) -> complex:
    """Weyl denominator j = (2i)^m prod_{i<j} sin((theta_i - theta_j)/2)."""
    _check_dimension(d)
    if x.d != d:
        raise InvalidParameterError(f"TorusPoint has d={x.d}, expected {d}")
    th = x.eigenphases()
    m = d * (d - 1) // 2
    prod = 1.0
    for i in range(d):
        for j in range(i + 1, d):
            prod *= math.sin((th[i] - th[j]) / 2.0)
    return (2j) ** m * prod


def center_average_character(w: HighestWeight, x: TorusPoint) -> complex:
    """(1/d) sum_k chi_lambda(gamma_k x) over the d center representatives
    gamma_k = e^{2 pi i k / d} I. Projects onto PU(d) characters: equals
    chi_lambda(x) when d | sum(lambda) and 0 otherwise."""
    if w.d != x.d:
        raise InvalidParameterError(f"weight has d={w.d}, point has d={x.d}")
    d = w.d
    shifted = [TorusPoint(d, tuple(p + TWO_PI * k / d for p in x.phi)) for k in range(d)]
    chi = _char_batch(_lam_array([w.lam]), np.array([y.eigenphases() for y in shifted]))
    return complex(chi[0].sum()) / d
