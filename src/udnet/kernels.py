"""Heat kernels on PU(d): character form, Poisson form, trimming.

Two evaluation routes for the same function. The character route sums
d_lam * exp(-sigma*k_lam) * chi_lam over the zero-sum highest weights with
a guaranteed tail bound; the Poisson route is one Gaussian sum over the
PU(d) coweight lattice, the d cosets Z^{d-1} + (r/d) * (1, ..., 1),
after Poisson summation.

Truncation policy. Weight sums are cut at the smallest even one-norm L
whose shell-count envelope tail drops below tail_tol; the envelope
combines the dimension bound (1+j)^{d(d-1)/2}, the shell count, and the
Casimir lower bound, with decay exp(-sigma*k) for value sums and
exp(-2*sigma*k) for Plancherel sums.
Lattice sums are cut at the smallest sup-norm radius K whose Gaussian shell
envelope, multiplied by the assembled prefactor, drops below tail_tol.
Both log-envelopes are g(j) = h(j) - b*j^2 with h concave, so past the peak
the tail from shell a is at most exp(g(a)) * (1 + min(sqrt(pi/b)/2,
1/|g'(a)|)), in closed form and non-increasing in the cutoff. A weight
cutoff comes from one bisection over that bound; a cutoff before the peak
never fits, since the envelope there is at least its value 1 at j = 0. A
lattice radius before the peak adds the shells up to the peak, or up to the
radius cap when the peak lies past it, to the bound from there.

Plans. Everything a kernel needs before it sees a point is kept in one
least-recently-used cache (_PLANS, 64 MiB), each entry keyed only on the
inputs it reads and fixed in size once stored: a character plan per
(d, sigma, trim_t, tail_tol), with no tail_tol when trimmed; a lattice plan
per (d, sigma), which holds the envelope tail of each radius tried and
serves every tolerance; and the lattice grid per (d, radius), shared by
every sigma. The design tester keeps the Gelfand-Tsetlin generators of each
irrep label there too, or at d = 2 the eigenbasis of each label's pi(J_y).
A point only moves the lattice prefactor, so a warm Poisson query compares
it with the kept tails and sums over the kept grid, and the rows of a batch
that share a radius are one array sum (heat_pu_poisson gives the times).

Near-regular points (eigenphase gap below 1e-6) cancel catastrophically in
the raw Poisson form; they are handled by a symmetric four-point jitter of
base size 1e-5 with one Richardson step, refused when that step is too large
a share of the value. A lattice sum is refused too when its rounding,
u * sum|term|, is more than 1e-9 of the sum: near a center element at large
sigma the terms cancel down to the Weyl denominator. All exponentials
assemble in log space with signs tracked separately.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .lie_core import (
    _LOG_HUGE,
    TWO_PI,
    InvalidParameterError,
    TorusPoint,
    _check_dimension,
    _check_int,
    _check_positive,
    _check_unit_open,
    _min_gap,
    _wrap_angle,
    log_prefactor,
)
from .weights_chars import (
    _RESIDUE_CEILING,
    _UNIT_ROUNDOFF,
    GAP_TOL,
    _casimir_array,
    _char_sum,
    _char_sum_plan,
    _dim_array,
    _SumPlan,
    _projective_count,
    _projective_tuples,
)

__all__ = [
    "KernelParams",
    "EvalResult",
    "TruncationError",
    "NumericalInstabilityError",
    "heat_pu_char",
    "heat_pu_char_batch",
    "heat_pu_poisson",
    "heat_pu_poisson_batch",
    "trimming_error",
    "l2_norm_trimmed",
    "l2_norm_untrimmed",
]

_JITTER_H = 1e-5
_MAX_LATTICE_RADIUS = 512
_MAX_WEIGHT_CUTOFF = 1 << 26
_MAX_TERMS = 2_000_000  # weights one character sum, or lattice terms one Poisson point, may take
_PLAN_CACHE_BYTES = 64 << 20  # plans kept between calls


class TruncationError(RuntimeError):
    """The cutoff needed to reach tail_tol exceeds the term budget."""

    def __init__(self, message: str, required_cutoff: int):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class NumericalInstabilityError(RuntimeError):
    """Poisson-form assembly lost all significance or went non-finite."""


@dataclass(frozen=True)
class KernelParams:
    """Evaluation controls shared by all kernel forms.

    trim_t = None means the untrimmed kernel; an integer restricts the
    projective weight sum to one-norm <= 2*trim_t. The weight cutoff and
    the Poisson lattice radius are the smallest whose dropped tail stays
    below tail_tol; a character sum over more than 2,000,000 weights, or
    whose determinant expansion needs more than 2,000,000 terms per point
    (from d = 18), or a Poisson point over more than 2,000,000 lattice
    terms, raises TruncationError before any weight or lattice row is
    built.
    """

    d: int
    sigma: float
    trim_t: int | None = None
    tail_tol: float = 1e-12

    def __post_init__(self):
        _check_dimension(self.d)
        _check_positive("sigma", self.sigma)
        if self.trim_t is not None:
            _check_int("trim_t", self.trim_t)
        _check_unit_open("tail_tol", self.tail_tol)


@dataclass(frozen=True)
class EvalResult:
    value: float
    truncation_bound: float
    terms_used: int


def _check_point(p: KernelParams, x: TorusPoint) -> None:
    if not isinstance(x, TorusPoint):
        raise InvalidParameterError(f"expected a TorusPoint, got {type(x).__name__}")
    if x.d != p.d:
        raise InvalidParameterError(f"point dimension {x.d} does not match params d = {p.d}")


def _pu_shell_log_env(d: int, sigma: float, rate: float, j: float) -> float:
    # count(one-norm = j) <= (1+2j)^{d-1}; dim^2 <= (1+j)^{d(d-1)}; Casimir >= j^2/(2d^2)+j/4
    return (
        (d - 1) * math.log1p(2.0 * j)
        + d * (d - 1) * math.log1p(j)
        - rate * sigma * (j * j / (2.0 * d * d) + j / 4.0)
    )


def _pu_shell_slope(d: int, sigma: float, rate: float, j: float) -> float:
    # derivative of _pu_shell_log_env in j
    return 2.0 * (d - 1) / (1.0 + 2.0 * j) + d * (d - 1) / (1.0 + j) - rate * sigma * (j / (d * d) + 0.25)


def _tangent_log_tail(log_env: float, slope: float, b: float) -> float:
    """log of a bound on sum_{k >= 0} exp(g(a + k)) from g(a), g'(a) and b.

    g = h - b*j^2 with h concave, so g(a + k) <= g(a) + g'(a)*k - b*k^2. Past
    the peak the terms past k = 0 of that bound sum to at most the integral
    over k > 0 of exp(g'(a)*k) or of exp(-b*k^2), whichever is smaller. Before
    it the bound is a Gaussian of height exp(g(a) + g'(a)^2/(4b)), whose sum
    over the integers is at most that height times 1 + sqrt(pi/b).
    """
    if b == 0.0:  # sigma so small that the Gaussian rate underflowed
        return math.inf
    width = 0.5 * math.sqrt(math.pi / b)
    if slope > 0.0:
        return log_env + slope * slope / (4.0 * b) + math.log1p(2.0 * width)
    return log_env + math.log1p(min(width, -1.0 / slope) if slope < 0.0 else width)


def _weight_cutoff(d: int, sigma: float, rate: float, tol: float) -> tuple[int, float]:
    """Smallest even one-norm L whose envelope tail at this rate is below tol; returns (L, tail).

    The tangent bound of the tail past L is non-increasing in L, so one
    bisection over the cutoffs up to _MAX_WEIGHT_CUTOFF finds L, each shell
    evaluated once. A cutoff before the envelope's peak never fits: the
    concave log-envelope, 0 at j = 0, is still rising there, so the tail is
    at least 1. Raises TruncationError when no L up to _MAX_WEIGHT_CUTOFF fits.
    """
    b = rate * sigma / (2.0 * d * d)

    @functools.cache
    def log_tail(k: int) -> float:  # past cutoff 2k
        j = 2 * k + 1
        return _tangent_log_tail(_pu_shell_log_env(d, sigma, rate, j), _pu_shell_slope(d, sigma, rate, j), b)

    top = _MAX_WEIGHT_CUTOFF // 2
    k = bisect.bisect_left(range(top + 1), True, key=lambda k: log_tail(k) < math.log(tol))
    if k > top:
        raise TruncationError(f"cutoff exceeds {2 * top}", required_cutoff=2 * top + 2)
    return 2 * k, math.exp(log_tail(k))


def _check_expansion(d: int, groups: int, cutoff: int) -> None:
    """_char_sum expands its determinants by the Laplace recursion of
    _minor_steps: below d 2^(d-1) products per point, with at most
    C(d, d // 2) cofactors per plan row and point on one level. Over
    _MAX_TERMS either raises TruncationError carrying the cutoff."""
    size = max(d * 2 ** (d - 1), math.comb(d, d // 2) * groups)
    if size > _MAX_TERMS:
        raise TruncationError(
            f"the d = {d} determinant expansion needs {size} terms per point,"
            f" over the term budget {_MAX_TERMS}; required cutoff {cutoff}",
            required_cutoff=cutoff,
        )


def _label_rows(d: int, cutoff: int, reason: str) -> np.ndarray:
    """Zero-sum label rows up to one-norm cutoff.

    The rows are counted before any array is built; over _MAX_TERMS this
    raises TruncationError carrying the cutoff.
    """
    count = _projective_count(d, cutoff // 2)
    if count > _MAX_TERMS:
        raise TruncationError(
            f"{reason} needs {count} weights, over the"
            f" term budget {_MAX_TERMS}; required cutoff {cutoff}",
            required_cutoff=cutoff,
        )
    return _projective_tuples(d, cutoff // 2)


@dataclass(frozen=True, eq=False)
class _CharPlan:
    """What a character-form kernel needs before it sees a point.

    base is the trivial weight's exact term; sums is the one-column
    _char_sum_plan of the other weights the sum keeps, with coefficients
    d_lam exp(-sigma*k_lam) (None when there are none). bound
    is the cutoff tail plus the mass of the skipped weights, and terms
    counts the kept weights, the trivial one included. The arrays are read-only, since one
    plan serves every later call with its parameters.
    """

    base: float
    sums: _SumPlan | None
    bound: float
    terms: int

    def __post_init__(self):
        for a in self.arrays():
            a.flags.writeable = False

    def arrays(self) -> list[np.ndarray]:
        if self.sums is None:
            return []
        return [a for a in self.sums if isinstance(a, np.ndarray)]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays())


def _build_char_plan(p: KernelParams) -> _CharPlan:
    """Cutoff, labels, coefficients and skip mask for one p.

    The cutoff of an untrimmed kernel is the smallest even one-norm whose
    envelope tail is below half of tail_tol (_weight_cutoff, one bisection).
    Weights whose worst-case contribution d_lam^2 exp(-sigma*k_lam) cannot
    reach a share of the tail budget are skipped and charged to the bound.
    The trivial weight is added exactly, as 1 * c_0, so the normalization
    stays exact. Skipped weights lie in the outer shells, where labels are
    widest, so skipping narrows the polynomial of _char_sum as well as
    shortening its grouping. At d = 3 it keeps 5,730 of 8,450 weights at
    sigma = 0.02 and 1,011 of 1,513 at sigma = 0.1. The plan keeps only the
    residue-split polynomial of _char_sum_plan, which serves regular and
    confluent points alike: 87 kB at d = 3, sigma = 0.02 (195 rows of 54) and 16 kB at
    sigma = 0.1 (81 of 23). Raises TruncationError before any label row is
    built when the cutoff needs more than _MAX_TERMS weights or d is too
    large for the determinant expansion (_check_expansion), and before any
    point is evaluated when the plan's rows are.
    """
    d, sigma = p.d, p.sigma
    if p.trim_t is not None:
        cutoff = 2 * p.trim_t
        tail = 0.0
        skip_budget = 0.0
        reason = f"trim_t = {p.trim_t}"
    else:
        cutoff, tail = _weight_cutoff(d, sigma, 1.0, 0.5 * p.tail_tol)
        skip_budget = 0.4 * p.tail_tol
        reason = f"tail_tol = {p.tail_tol:g}"
    _check_expansion(d, 1, cutoff)
    lams = _label_rows(d, cutoff, reason)

    dims = _dim_array(lams)
    cas = _casimir_array(lams)
    with np.errstate(under="ignore"):
        coeff = dims * np.exp(-sigma * cas)
        worst = coeff * dims
    trivial = np.all(lams == 0, axis=1)
    keep = np.ones(len(lams), dtype=bool)
    skipped = 0.0
    if skip_budget > 0.0 and len(lams) > 1:
        cut = skip_budget / len(lams)
        keep = (worst >= cut) | trivial
        skipped = float(worst[~keep].sum())

    others = keep & ~trivial
    sums = _char_sum_plan(lams[others], coeff[None, others]) if others.any() else None
    if sums is not None:
        _check_expansion(d, len(sums.resid), cutoff)
    return _CharPlan(coeff[trivial].sum(), sums, tail + skipped, int(keep.sum()))


class _PlanCache:
    """Least recently used entries, at most _PLAN_CACHE_BYTES in all.

    An entry is keyed only on the inputs it reads: an untrimmed character
    plan on (d, sigma, None, tail_tol), a trimmed one on (d, sigma, trim_t,
    None), a lattice plan on ("lattice", d, sigma) and a lattice grid on
    ("grid", d, radius); the design tester keeps its read-only
    Gelfand-Tsetlin generators under ("gt", *label), and its d = 2 spin
    bases under ("spin", *label), through fetch(). Each entry has an nbytes
    that is fixed once it is stored, and eviction subtracts it. An entry over
    the cap is returned but not kept, and a build that raises keeps nothing.
    The lock guards the table, not the build: udnet fills it from one
    thread, but a library caller's threads may build one entry twice on a
    cold start, and the first one stored wins.
    """

    def __init__(self):
        self._plans: collections.OrderedDict[tuple, object] = collections.OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, p: KernelParams) -> _CharPlan:
        key = (p.d, p.sigma, p.trim_t, None if p.trim_t is not None else p.tail_tol)
        return self.fetch(key, functools.partial(_build_char_plan, p))

    def lattice(self, d: int, sigma: float) -> _LatticePlan:
        return self.fetch(("lattice", d, sigma), functools.partial(_LatticePlan, d, sigma))

    def grid(self, d: int, radius: int) -> np.ndarray:
        return self.fetch(("grid", d, radius), functools.partial(_lattice_offsets, d, radius))

    def fetch(self, key: tuple, build):
        """The entry kept under key, else build() (kept if it fits the cap)."""
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
                return entry
        entry = build()
        with self._lock:
            if key in self._plans:
                return self._plans[key]
            if entry.nbytes <= _PLAN_CACHE_BYTES:
                self._plans[key] = entry
                self.nbytes += entry.nbytes
                while self.nbytes > _PLAN_CACHE_BYTES:
                    _, old = self._plans.popitem(last=False)
                    self.nbytes -= old.nbytes
        return entry


_PLANS = _PlanCache()


def _char_eval(p: KernelParams, theta_rows: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Character-form kernel at many eigenphase rows.

    Returns (values, truncation_bound, terms_used). Everything that depends
    only on p is the plan of _build_char_plan, built on the
    first call and kept in _PLANS; a later call pays only for its points.
    All points go through one one-column _char_sum call, which evaluates
    the one Laurent polynomial of the plan, through the alternant ratio at
    regular points and the Jacobi-Trudi form at eigenphase gaps below
    GAP_TOL and where the alternant's predicted rounding is above
    _RESIDUE_CEILING, so no (weights x points) character matrix is built.
    The plan's trivial term is added in place to that row, and the checks
    below reduce with ufunc.reduce, not numpy's Python wrappers, which cost
    more than the arithmetic on one point. At d = 3 a warm query takes
    0.10-0.12 ms at a regular or a confluent point, at sigma = 0.02 and 0.1
    alike (best of 7 x 100 queries, 1 BLAS thread, 2-vCPU Intel Xeon, best
    of 6 runs on a shared host, whose medians reach 0.17 ms). The sum is
    real, so a point that _char_sum routes to the h tables keeps the
    alternant where its imaginary part is the smaller. The imaginary
    residue is checked on every call, as a backstop.
    """
    plan = _PLANS.get(p)
    if plan.sums is None:
        vals = np.full(len(theta_rows), plan.base, dtype=complex)
    else:
        vals = _char_sum(plan.sums, theta_rows, real=True)[0]
        vals += plan.base
    resid = float(np.maximum.reduce(np.abs(vals.imag), initial=0.0))
    ceiling = _RESIDUE_CEILING * max(1.0, float(np.maximum.reduce(np.abs(vals.real), initial=0.0))) + plan.bound
    if not np.logical_and.reduce(np.isfinite(vals.real)) or resid > ceiling:
        raise NumericalInstabilityError(
            f"character sum lost significance: imaginary residue {resid:.3e}"
        )
    return vals.real.astype(float), plan.bound, plan.terms


def heat_pu_char(p: KernelParams, x: TorusPoint) -> EvalResult:
    """PU(d) heat kernel (trimmed when trim_t is set) as a character sum."""
    _check_point(p, x)
    vals, bound, n = _char_eval(p, np.array([x.eigenphases()]))
    return EvalResult(float(vals[0]), bound, n)


def _check_rows(p: KernelParams, theta_rows) -> np.ndarray:
    theta_rows = np.asarray(theta_rows, dtype=float)
    if theta_rows.ndim != 2 or theta_rows.shape[1] != p.d:
        raise InvalidParameterError(f"expected eigenphase rows of shape (n, {p.d})")
    if not np.all(np.isfinite(theta_rows)):
        raise InvalidParameterError("eigenphase rows must be finite")
    return theta_rows


def heat_pu_char_batch(p: KernelParams, theta_rows: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Vector heat_pu_char over rows of full eigenphases, shape (n, d)."""
    return _char_eval(p, _check_rows(p, theta_rows))


def _lattice_grid(d: int, radius: int) -> np.ndarray:
    axis = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _lattice_offsets(d: int, radius: int) -> np.ndarray:
    """The read-only offsets 2*pi*Z^{d-1} of sup-norm radius R, (2R+1)^{d-1} rows."""
    offsets = TWO_PI * _lattice_grid(d, radius)
    offsets.flags.writeable = False
    return offsets


def _lattice_shell_log_env(d: int, sigma: float, kappa: float) -> float:
    # valid for canonical angles |phi_i| <= pi: shell kappa of Z^{d-1} has at
    # most 2(d-1)(2*kappa+1)^{d-2} points, the extremal coordinate of each keeps
    # |phi + 2*pi*k| >= pi*(2*kappa - 1), and the root-product is bounded by
    # (d*pi*(2*kappa+1))^m over the shell
    m = d * (d - 1) // 2
    return math.log(2.0 * (d - 1)) + (d - 2) * math.log(2.0 * kappa + 1.0) + m * math.log(
        d * math.pi * (2.0 * kappa + 1.0)
    ) - d * math.pi**2 * (2.0 * kappa - 1.0) ** 2 / (2.0 * sigma)


def _lattice_shell_slope(d: int, sigma: float, kappa: float) -> float:
    # derivative of _lattice_shell_log_env in kappa; its quadratic part is
    # -b*kappa^2 with b = 2*d*pi^2/sigma
    b = 2.0 * d * math.pi**2 / sigma
    return 2.0 * (d - 2 + d * (d - 1) // 2) / (2.0 * kappa + 1.0) - b * (2.0 * kappa - 1.0)


class _LatticePlan:
    """What a Poisson-form kernel needs before it sees a point, bar its grid.

    log_base is log(C(d, sigma)/|W|) + log(d!), the log-prefactor before the
    point's Weyl denominator. A point only shifts the prefactor, which
    changes which envelope tail fits, so one list of log-tails of the lattice
    shell envelope serves the radius of every point and every tolerance:
    entry R - 1 bounds the shells past radius R, and a point's radius is the
    first entry under log(tail_tol) minus its log-prefactor. The list is
    non-increasing. It starts with the radii before the envelope's peak, at
    most _MAX_LATTICE_RADIUS of them, each of which adds its own first shell
    to the tail of the next, and grows lazily, radius by radius, past the
    peak, so a warm point evaluates no envelope. Each entry depends only on
    the ones before it, so a list grown for one tolerance serves another
    with the same radii. The lock guards the tails, which points on several
    threads share. The grids are _PLANS entries of their own.
    """

    nbytes = 32 * _MAX_LATTICE_RADIUS  # the most its tails hold: a pointer and a float per radius

    def __init__(self, d: int, sigma: float):
        self.log_base = log_prefactor(d, sigma) + math.lgamma(d + 1)
        self.d, self.sigma = d, sigma
        self._lock = threading.Lock()
        peak = 2  # the first shell from 2 on where the envelope stops rising, or the cap's next
        while peak <= _MAX_LATTICE_RADIUS and _lattice_shell_slope(d, sigma, peak) > 0.0:
            peak += 1
        tails = [self._tangent_tail(peak - 1)]
        for kappa in range(peak - 1, 1, -1):
            g = _lattice_shell_log_env(d, sigma, kappa)
            tails.append(max(g, tails[-1]) + math.log1p(math.exp(-abs(g - tails[-1]))))
        self._log_tails = tails[::-1]

    def _tangent_tail(self, radius: int) -> float:
        kappa = radius + 1
        return _tangent_log_tail(
            _lattice_shell_log_env(self.d, self.sigma, kappa),
            _lattice_shell_slope(self.d, self.sigma, kappa),
            2.0 * self.d * math.pi**2 / self.sigma,
        )

    def radius(self, log_pref: float, tail_tol: float) -> tuple[int, float]:
        """Smallest radius whose tail times exp(log_pref) is below tail_tol, and that bound."""
        bar = math.log(tail_tol) - log_pref
        with self._lock:
            tails = self._log_tails
            while tails[-1] >= bar and len(tails) < _MAX_LATTICE_RADIUS:
                # the min keeps the list non-increasing through rounding, for the bisection
                tails.append(min(tails[-1], self._tangent_tail(len(tails) + 1)))
            k = bisect.bisect_right(tails, -bar, key=lambda v: -v)
            if k == len(tails):
                raise NumericalInstabilityError(
                    f"no lattice radius up to {_MAX_LATTICE_RADIUS} meets tail_tol = {tail_tol:g}"
                )
            return k + 1, math.exp(log_pref + tails[k])


def _coset_denominators(d: int, phi: tuple[float, ...]) -> tuple[list, list, list]:
    """Angles, log|j_r| and sign(j_r) of the d center shifts phi + 2*pi*r/d.

    Each shift is wrapped as TorusPoint wraps it, and j_r is the Weyl
    denominator of its own eigenphases.
    """
    shifts, log_j, sign_j = [], [], []
    for r in range(d):
        y = [_wrap_angle(v + TWO_PI * r / d) for v in phi]
        lj, sj = 0.0, 1.0
        for a, b in itertools.combinations(y + [-math.fsum(y)], 2):
            v = 2.0 * math.sin(0.5 * (a - b))
            if v == 0.0:
                raise NumericalInstabilityError("coincident eigenphases reached the raw Poisson form")
            if v < 0.0:
                sj = -sj
            lj += math.log(abs(v))
        shifts.append(y)
        log_j.append(lj)
        sign_j.append(sj)
    return shifts, log_j, sign_j


def _lattice_sums(d: int, sigma: float, tail_tol: float, phis: list) -> list[EvalResult]:
    """Poisson-form PU(d) kernel at regular points: one coweight lattice sum
    each, to tail_tol.

    Coset r of the lattice, Z^{d-1} + (r/d)(1, ..., 1), is read at the center
    shift phi + 2*pi*r/d, and its rows carry sign(j_r) |j_min| / |j_r|. The
    cosets share one envelope, so the largest prefactor (the smallest |j_r|)
    picks the radius from the plan's tails, and gives the bound. Rows of one
    radius are summed as one array over the grid of that radius. A sum whose
    rounding u * sum|term| exceeds _RESIDUE_CEILING of |sum| has lost the
    value to cancellation, and is refused. So is a sigma so small that the Gaussian
    rate d/(2 sigma), or the exponent of a row's largest term, overflows
    (sigma below about 1e-307): no float subtraction then recovers the
    terms' ratios. A point whose radius R needs more than _MAX_TERMS terms,
    d cosets of (2R + 1)^(d-1) grid rows, raises TruncationError before any
    grid or term array is built.
    """
    rate = d / (2.0 * sigma)
    if not math.isfinite(rate):
        raise NumericalInstabilityError(f"sigma = {sigma:g} is too small for the Poisson form: d/(2 sigma) overflows")
    plan = _PLANS.lattice(d, sigma)
    shifts = np.empty((len(phis), d, d - 1))
    weights = np.empty((len(phis), d))
    log_prefs, radii, bounds = [], [], []
    for k, phi in enumerate(phis):
        shifts[k], log_j, sign_j = _coset_denominators(d, phi)
        weights[k] = [sign * math.exp(min(log_j) - lj) for sign, lj in zip(sign_j, log_j)]
        log_prefs.append(plan.log_base - min(log_j))
        radius, bound = plan.radius(log_prefs[-1], tail_tol)
        terms = d * (2 * radius + 1) ** (d - 1)
        if terms > _MAX_TERMS:
            raise TruncationError(
                f"lattice radius {radius} needs {terms} terms per point, over the term budget {_MAX_TERMS}",
                required_cutoff=radius,
            )
        radii.append(radius)
        bounds.append(bound)

    out = [None] * len(phis)
    for radius in sorted(set(radii)):
        rows = [k for k, r in enumerate(radii) if r == radius]
        offsets = _PLANS.grid(d, radius)
        some = slice(None) if len(rows) == len(phis) else rows
        # psi[k, r, g] = shift r of row k + grid point g. Each product and
        # sum below is the one of a single sum over the cosets in turn, with
        # the implied last eigenphase -sum(psi); the reductions are
        # np.add.reduce and np.maximum.reduce, ndarray.sum and max without
        # their Python wrappers.
        psi = shifts[some][:, :, None, :] + offsets
        total = np.add.reduce(psi, axis=3)
        last = -total
        root_prod = weights[some][:, :, None]
        for i in range(d - 1):
            for j in range(i + 1, d):
                root_prod = root_prod * (psi[..., i] - (psi[..., j] if j < d - 1 else last))
        quad = np.add.reduce(np.square(psi), axis=3) + np.square(total)
        with np.errstate(over="ignore", under="ignore"):
            # an exponent past -1.8e308 is a term below the float range
            expo = (-rate * quad).reshape(len(rows), -1)
            peaks = np.maximum.reduce(expo, axis=1)
            if not np.logical_and.reduce(np.isfinite(peaks)):
                raise NumericalInstabilityError(
                    f"sigma = {sigma:g} is too small for the Poisson form: the largest term's exponent overflows"
                )
            terms = root_prod.reshape(len(rows), -1) * np.exp(expo - peaks[:, None])
        sums = np.add.reduce(terms, axis=1)
        mass = np.add.reduce(np.abs(terms), axis=1)
        for k, s, m, peak in zip(rows, sums.tolist(), mass.tolist(), peaks.tolist()):
            if s == 0.0 or not math.isfinite(s):
                raise NumericalInstabilityError("lattice sum cancelled to zero significance")
            if _UNIT_ROUNDOFF * m > _RESIDUE_CEILING * abs(s):
                raise NumericalInstabilityError(
                    f"lattice sum lost significance: rounding {_UNIT_ROUNDOFF * m:.3e}"
                    f" on sum {s:.3e}"
                )
            log_abs = log_prefs[k] + peak + math.log(abs(s))
            if log_abs > _LOG_HUGE:
                raise NumericalInstabilityError("Poisson prefactor overflowed")
            out[k] = EvalResult(math.copysign(math.exp(log_abs), s) / d, bounds[k], terms.shape[1])
    return out


def _poisson_eval(p: KernelParams, phis: list) -> list[EvalResult]:
    """Poisson-form kernel at rows of free angles, each wrapped to (-pi, pi].

    Rows with an eigenphase gap of at least GAP_TOL take one lattice sum. The
    others take the jittered Richardson average of four: the direction
    (1, 2, ..., d-1) separates every eigenphase pair at unit rate or faster,
    so the half-step points stay clear of the 1e-6 gap threshold. All jittered
    rows go through one _lattice_sums call at 0.3 * tail_tol, on the lattice
    plan of the regular rows.
    """
    if p.trim_t is not None:
        raise InvalidParameterError("the Poisson form has no trimmed variant; trim_t must be None")
    d = p.d
    gaps = [_min_gap(phi + (-math.fsum(phi),)) for phi in phis]
    regular = [k for k, gap in enumerate(gaps) if gap >= GAP_TOL]
    confluent = [k for k, gap in enumerate(gaps) if gap < GAP_TOL]
    out = [None] * len(phis)
    if regular:
        for k, result in zip(regular, _lattice_sums(d, p.sigma, p.tail_tol, [phis[k] for k in regular])):
            out[k] = result
    if not confluent:
        return out
    steps = np.array([1.0, -1.0, 0.5, -0.5]) * _JITTER_H
    jitter = np.array([phis[k] for k in confluent])[:, None, :] + steps[:, None] * np.arange(1, d)
    rows = [tuple(map(_wrap_angle, row)) for row in jitter.reshape(-1, d - 1).tolist()]
    evals = _lattice_sums(d, p.sigma, 0.3 * p.tail_tol, rows)
    for n, k in enumerate(confluent):
        e1, em1, eh, emh = evals[4 * n : 4 * n + 4]
        coarse = 0.5 * (e1.value + em1.value)
        fine = 0.5 * (eh.value + emh.value)
        value = (4.0 * fine - coarse) / 3.0
        if (fine - coarse) ** 2 > _RESIDUE_CEILING * max(1.0, abs(value)) * abs(value):
            raise NumericalInstabilityError(
                f"jittered Poisson average lost significance: Richardson step"
                f" {fine - coarse:.3e} on value {value:.3e}"
            )
        bound = (
            4.0 * max(eh.truncation_bound, emh.truncation_bound)
            + max(e1.truncation_bound, em1.truncation_bound)
        ) / 3.0
        terms = e1.terms_used + em1.terms_used + eh.terms_used + emh.terms_used
        out[k] = EvalResult(value, bound, terms)
    return out


def heat_pu_poisson(p: KernelParams, x: TorusPoint) -> EvalResult:
    """PU(d) heat kernel as one Gaussian sum over the PU coweight lattice.

    The radius tails depend only on (d, sigma), so they are a _LatticePlan
    kept in _PLANS, and each grid only on (d, radius), an entry of its own:
    a warm query compares its prefactor with the plan's tails at its
    tolerance and sums over the kept grid, and a jittered one makes one
    four-row call on the same plan. At d = 3, sigma = 0.05 a warm query
    takes 0.061-0.089 ms at a regular point and 0.13-0.18 ms at a jittered
    one; a cold one, which fills the plan's tails and builds the grid,
    0.13-0.16 ms and 0.20-0.21 ms (1 BLAS thread, 2-vCPU Intel Xeon on a
    shared host; best of 7 x 200 warm and 7 x 50 cold queries, the best
    and the median of 6 runs). Raises NumericalInstabilityError when the
    sum lost its value to cancellation.
    """
    _check_point(p, x)
    return _poisson_eval(p, [x.phi])[0]


def heat_pu_poisson_batch(
    p: KernelParams, theta_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector heat_pu_poisson over rows of full eigenphases, shape (n, d).

    Returns (values, truncation_bounds, terms_used), one entry per row. A
    row is read as the PU(d) class of diag(exp(i*theta)): its mean phase
    (fsum(theta) / d) is taken off, so a row of TorusPoint.eigenphases()
    gives that point's phi unchanged and the value of heat_pu_poisson.
    """
    theta_rows = _check_rows(p, theta_rows)
    phis = []
    for row in theta_rows.tolist():
        c = (row[-1] + math.fsum(row[:-1])) / p.d
        phis.append(tuple(_wrap_angle(v - c) for v in row[:-1]))
    results = _poisson_eval(p, phis)
    return (
        np.array([r.value for r in results], dtype=float),
        np.array([r.truncation_bound for r in results], dtype=float),
        np.array([r.terms_used for r in results], dtype=int),
    )


def _plancherel_sq(sigma: float, lams: np.ndarray) -> float:
    """Plancherel sum of d_lam^2 exp(-2*sigma*k_lam) over the label rows."""
    dims = _dim_array(lams)
    cas = _casimir_array(lams)
    with np.errstate(under="ignore"):
        return float(np.sum(np.square(dims) * np.exp(-2.0 * sigma * cas)))


def _plancherel_beyond(d: int, sigma: float, norm: int, tail_tol: float) -> float:
    """Plancherel sum over the weights of one-norm above norm, up to the cutoff
    whose rate-2 envelope tail is below tail_tol (0.0 when that is norm or less)."""
    L, _ = _weight_cutoff(d, sigma, 2.0, tail_tol)
    if L <= norm:
        return 0.0
    lams = _label_rows(d, L, f"tail_tol = {tail_tol:g}")
    return _plancherel_sq(sigma, lams[np.abs(lams).sum(axis=1) > norm])


def trimming_error(d: int, sigma: float, t: int, tail_tol: float = 1e-12) -> float:
    """L2 distance between the PU kernel and its trim at parameter t.

    Square root of the Plancherel tail sum_{one-norm > 2t} d_lam^2
    exp(-2*sigma*k_lam); the omitted remainder of the squared sum is
    guaranteed below tail_tol. Raises TruncationError, before any weight is
    enumerated, when the sum needs more than 2,000,000 weights, the term
    budget of every character and Plancherel sum; so do the two L2 norms
    below.
    """
    _check_dimension(d)
    _check_positive("sigma", sigma)
    _check_int("t", t)
    _check_unit_open("tail_tol", tail_tol)
    return math.sqrt(_plancherel_beyond(d, sigma, 2 * t, tail_tol))


def l2_norm_trimmed(d: int, sigma: float, t: int) -> float:
    """Exact L2 norm of the trimmed PU kernel (finite Plancherel sum)."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    _check_int("t", t)
    return math.sqrt(_plancherel_sq(sigma, _label_rows(d, 2 * t, f"t = {t}")))


def l2_norm_untrimmed(d: int, sigma: float, tail_tol: float = 1e-12) -> float:
    """L2 norm of the full PU kernel; squared-sum remainder below tail_tol."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    _check_unit_open("tail_tol", tail_tol)
    return math.sqrt(_plancherel_beyond(d, sigma, -1, tail_tol))
