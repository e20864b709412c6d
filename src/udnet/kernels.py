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
Both envelopes are log-concave in the shell index, so once consecutive
shell ratios fall under 1/2 the remainder closes geometrically, and once a
term past the peak underflows to 0.0 every later one adds exactly 0.0.
Both cutoffs come from one forward walk over the shells (_ShellTails) that
evaluates each shell once and tries the cutoffs in increasing order,
dropping a cutoff as soon as a lower bound of its tail is too large.

Plans. Everything a kernel needs before it sees a point is kept in one
least-recently-used cache (_PLANS, 64 MiB): a character plan per
(d, sigma, trim_t, tail_tol), and a lattice plan per (d, sigma, tail_tol),
which holds the envelope tails of the radius walk and the lattice grid of
each radius served; the design tester keeps the Gelfand-Tsetlin
generators of each irrep label there too. A point only moves the lattice
prefactor, so a warm Poisson query compares it with the kept tails and sums
over the kept grid, and the rows of a batch that share a radius are one
array sum. At d = 3
(sigma = 0.02 and 0.1, 1 BLAS thread, 2-vCPU Intel Xeon, best of 7 x 200
queries) a warm query takes 0.075-0.095 ms at a regular point and
0.19-0.21 ms at a jittered one, against 0.13-0.21 ms and 0.60-0.78 ms when
every query walked its own radius and built its own grid; a cold one, plan
included, 0.14-0.20 ms and 0.26-0.32 ms.

Near-regular points (eigenphase gap below 1e-6) cancel catastrophically in
the raw Poisson form; they are handled by a symmetric four-point jitter of
base size 1e-5 with one Richardson step, refused when that step is too large
a share of the value. A lattice sum is refused too when its rounding,
u * sum|term|, is more than 1e-9 of the sum: near a center element at large
sigma the terms cancel down to the Weyl denominator. All exponentials
assemble in log space with signs tracked separately.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import threading
from dataclasses import dataclass, replace

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
    GAP_TOL,
    _casimir_array,
    _char_sum,
    _char_sum_plan,
    _dim_array,
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

_LOG_TINY = -745.0
_LOG_HALF = math.log(0.5)
_UNIT_ROUNDOFF = 2.0**-53
_JITTER_H = 1e-5
_MAX_LATTICE_RADIUS = 512
_MAX_WEIGHT_CUTOFF = 1 << 26
_MAX_TERMS = 2_000_000  # weights one sum may enumerate
_PLAN_CACHE_BYTES = 64 << 20  # plans kept between calls
_RESIDUE_CEILING = 1e-9  # share of a value that a char residue or Richardson step may reach


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
    below tail_tol; a character sum over more than 2,000,000 weights raises
    TruncationError before any weight is enumerated.
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


class _SumQueue:
    """Sum of a sliding window of nonnegative floats, kept as a two-stack queue.

    Each value enters one running sum and, at most once, one run of suffix
    sums, so a push or a pop costs O(1) amortised and nothing is subtracted.
    """

    def __init__(self):
        self._older = []  # suffix sums of the older values, the oldest last
        self._newer = []
        self._newer_sum = 0.0

    def push(self, v: float) -> float:
        """Append v and return the new lower()."""
        self._newer.append(v)
        self._newer_sum += v
        return self.lower()

    def pop(self) -> None:
        if not self._older:
            acc = 0.0
            for v in reversed(self._newer):
                acc += v
                self._older.append(acc)
            self._newer, self._newer_sum = [], 0.0
        self._older.pop()

    def lower(self) -> float:
        """A lower bound of the window's sum taken left to right in floats.

        Both this sum and the left-to-right one are within (n-1)*u of the
        exact sum of n nonnegative values (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 4), so 4*n*u covers both and the product.
        """
        older = self._older
        n = len(older) + len(self._newer)
        return ((older[-1] if older else 0.0) + self._newer_sum) * (1.0 - 4.0 * n * _UNIT_ROUNDOFF)


class _ShellTails:
    """Envelope tails beyond the cutoffs L = first, first + step, ..., up to limit.

    The tail beyond L bounds sum_{j > L} exp(log_env(j)) for a concave
    log_env. It is summed forward from L + 1, left to right, until consecutive
    shell ratios drop under 1/2, and then closed geometrically, since
    concavity makes later ratios no larger. A shell past the peak whose term
    underflows to 0.0 also ends the sum: every later term adds exactly 0.0.
    Each shell's summand is evaluated once and kept, so a later cutoff
    search, under another fits, reads what an earlier one found. So does
    each cutoff's tail, or the lower bound of it that rejected the cutoff.
    """

    def __init__(self, log_env, first: int, step: int, limit: int):
        self._log_env = log_env
        self.first, self.step, self.limit = first, step, limit
        self._vals = []  # summand of shell first + 1 + i; None until evaluated
        self._stops = set()  # shells whose summand closes every tail that reaches them
        self._ahead_j, self._ahead_g = None, 0.0  # log_env(j), read while shell j - 1 was summed
        self._tails = {}  # cutoff -> (tail, exact); inexact is a lower bound

    def _summand(self, j: int) -> float:
        vals = self._vals
        i = j - self.first - 1
        if i < len(vals):
            if vals[i] is not None:
                return vals[i]
        elif i > len(vals):
            vals.extend([None] * (i - len(vals)))
        gj = self._ahead_g if self._ahead_j == j else self._log_env(j)
        stop = True
        if gj > _LOG_HUGE:
            v = math.inf
        else:
            v = math.exp(gj) if gj > _LOG_TINY else 0.0
            g_next = self._ahead_g = self._log_env(j + 1)
            self._ahead_j = j + 1
            dg = g_next - gj
            if dg <= _LOG_HALF:
                r = math.exp(dg)
                v *= 1.0 + r / (1.0 - r)
            elif v != 0.0 or dg >= 0.0:
                stop = False
        if i < len(vals):
            vals[i] = v
        else:
            vals.append(v)
        if stop:
            self._stops.add(j)
        return v

    def cutoff(self, fits) -> tuple[int, float]:
        """Smallest cutoff L whose tail fits; returns (L, tail).

        fits(tail) must stay False once False as the tail grows. One forward
        walk serves every cutoff: a window over the shells from L + 1 grows
        until fits rejects a lower bound of its sum or the window reaches the
        shell that closes the tail, and then drops its first shells to serve
        the next cutoff. Only a closed window that fits is summed exactly, left
        to right; that is the cutoff returned, or one within rounding of it.
        So the work grows with the shells walked, not with their product by
        the cutoffs tried. Raises TruncationError when no cutoff up to limit
        fits.
        """
        window, lo, hi = None, 0, 0  # the window holds shells lo .. hi - 1
        L = self.first
        while L <= self.limit:
            tail, exact = self._tails.get(L, (0.0, False))
            fitting = fits(tail)
            if fitting and exact:
                return L, tail
            if exact or not fitting:
                L += self.step
                continue
            if window is None or hi <= L + 1:
                window, lo, hi = _SumQueue(), L + 1, L + 1
            while lo < L + 1:
                window.pop()
                lo += 1
            closed = hi > lo and hi - 1 in self._stops
            lower = window.lower()
            while not closed and fits(lower):
                lower = window.push(self._summand(hi))
                closed = hi in self._stops
                hi += 1
            if not fits(lower):
                self._tails[L] = (lower, False)
            else:
                tail = 0.0
                for v in self._vals[lo - self.first - 1 : hi - self.first - 1]:
                    tail += v
                self._tails[L] = (tail, True)
                if fits(tail):
                    return L, tail
            L += self.step
        raise TruncationError(
            f"cutoff exceeds {self.limit}; required cutoff is at least {L}", required_cutoff=L
        )


def _envelope_cutoff(log_env, first: int, step: int, fits, limit: int) -> tuple[int, float]:
    """Smallest cutoff L = first + k*step, at most limit, whose envelope tail fits.

    One walk of _ShellTails: returns (L, tail), or raises TruncationError
    when no cutoff up to limit fits.
    """
    return _ShellTails(log_env, first, step, limit).cutoff(fits)


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

    base is the trivial weight's exact term; heads and rows are the
    _char_sum_plan of the other weights the sum keeps, with coefficients
    d_lam exp(-sigma*k_lam) (None when there are none). bound is the cutoff
    tail plus the mass of the skipped weights, and terms counts the kept
    weights, the trivial one included. The arrays are read-only, since one
    plan serves every later call with its parameters.
    """

    base: float
    heads: np.ndarray | None
    rows: np.ndarray | None
    bound: float
    terms: int

    def __post_init__(self):
        for a in self.arrays():
            a.flags.writeable = False

    def arrays(self) -> list[np.ndarray]:
        return [a for a in (self.heads, self.rows) if a is not None]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays())


def _build_char_plan(p: KernelParams) -> _CharPlan:
    """Cutoff, labels, coefficients and skip mask for one p.

    Weights whose worst-case contribution d_lam^2 exp(-sigma*k_lam) cannot
    reach a share of the tail budget are skipped and charged to the bound.
    The trivial weight is added exactly, as 1 * c_0, so the normalization
    stays exact. Skipped weights lie in the outer shells, where labels are
    widest, so skipping narrows the polynomial of _char_sum as well as
    shortening its grouping. At d = 3, sigma = 0.02 it keeps 5,730 of 8,450
    weights, and a cold regular-point query (plan included) takes 2.7-3.2 ms
    against 3.7-4.1 ms without skipping (best of 7 x 100 points, 1 BLAS
    thread, 2-vCPU Intel Xeon). At sigma = 0.1 (1,011 of 1,513 kept) the two
    times are within noise. The plan keeps only the grouped polynomial
    (heads, rows), which serves regular and confluent points alike: 253 kB
    at d = 3, sigma = 0.02 (194 groups) and 44 kB at sigma = 0.1 (80).
    Raises TruncationError before any label row is built when the cutoff
    needs more than _MAX_TERMS weights.
    """
    d, sigma = p.d, p.sigma
    if p.trim_t is not None:
        cutoff = 2 * p.trim_t
        tail = 0.0
        skip_budget = 0.0
    else:
        env = functools.partial(_pu_shell_log_env, d, sigma, 1.0)
        tol = 0.5 * p.tail_tol
        cutoff, tail = _envelope_cutoff(env, 0, 2, lambda tail: tail < tol, _MAX_WEIGHT_CUTOFF)
        skip_budget = 0.4 * p.tail_tol
    lams = _label_rows(d, cutoff, f"tail_tol = {p.tail_tol:g}")

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
    heads, rows = _char_sum_plan(lams[others], coeff[others]) if others.any() else (None, None)
    return _CharPlan(coeff[trivial].sum(), heads, rows, tail + skipped, int(keep.sum()))


class _PlanCache:
    """Least recently used plans, at most _PLAN_CACHE_BYTES in all.

    Character plans are keyed on (d, sigma, trim_t, tail_tol) and lattice
    plans on ("lattice", d, sigma, tail_tol); the design tester keeps its
    read-only Gelfand-Tsetlin generators under ("gt", *label) through
    fetch(). Each plan has an nbytes. A plan over the cap is returned but
    not kept, and a build that raises keeps nothing. A lattice plan grows
    by a grid for each new radius it serves; grew() counts that while the
    plan is kept, and evicts to the cap. The lock guards the table, not the
    build: Monte Carlo chunks on several threads may build one plan twice on
    a cold start, and the first one stored wins.
    """

    def __init__(self):
        self._plans: collections.OrderedDict[tuple, object] = collections.OrderedDict()
        self._sizes: dict[tuple, int] = {}  # bytes counted for each kept plan
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, p: KernelParams) -> _CharPlan:
        key = (p.d, p.sigma, p.trim_t, p.tail_tol)
        return self.fetch(key, functools.partial(_build_char_plan, p))

    def lattice(self, p: KernelParams) -> _LatticePlan:
        key = ("lattice", p.d, p.sigma, p.tail_tol)
        return self.fetch(key, functools.partial(_LatticePlan, key, p))

    def fetch(self, key: tuple, build):
        """The plan kept under key, else build() (kept if it fits the cap)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = build()
        with self._lock:
            if key in self._plans:
                return self._plans[key]
            if plan.nbytes <= _PLAN_CACHE_BYTES:
                self._plans[key] = plan
                self._sizes[key] = 0
                self._count(key, plan.nbytes)
        return plan

    def grew(self, key: tuple, plan, nbytes: int) -> None:
        with self._lock:
            if self._plans.get(key) is plan:
                self._count(key, nbytes)

    def _count(self, key: tuple, nbytes: int) -> None:
        self._sizes[key] += nbytes
        self.nbytes += nbytes
        while self.nbytes > _PLAN_CACHE_BYTES:
            old, _ = self._plans.popitem(last=False)
            self.nbytes -= self._sizes.pop(old)


_PLANS = _PlanCache()


def _char_eval(p: KernelParams, theta_rows: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Character-form kernel at many eigenphase rows.

    Returns (values, truncation_bound, terms_used). Everything that depends
    only on p is the plan of _build_char_plan, built on the
    first call and kept in _PLANS; a later call pays only for its points.
    All points go through one _char_sum call, which evaluates the one
    Laurent polynomial of the plan, through the alternant ratio at regular
    points and the Jacobi-Trudi form at eigenphase gaps below GAP_TOL, so no
    (weights x points) character matrix is built. At d = 3 a warm query
    takes 0.13-0.17 ms at a regular point and 0.14-0.18 ms at a confluent
    one, at sigma = 0.02 and 0.1 alike, against 2.7-3.1 ms and 1.36-1.41 ms
    cold (best of 7 x 100 queries, 1 BLAS thread, 2-vCPU Intel Xeon, 2
    runs). The imaginary residue is checked on every call.
    """
    plan = _PLANS.get(p)
    vals = np.full(len(theta_rows), plan.base, dtype=complex)
    if plan.heads is not None:
        vals += _char_sum(plan.heads, plan.rows, theta_rows)
    resid = float(np.max(np.abs(vals.imag), initial=0.0))
    ceiling = _RESIDUE_CEILING * max(1.0, float(np.max(np.abs(vals.real), initial=0.0))) + plan.bound
    if not np.all(np.isfinite(vals.real)) or resid > ceiling:
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


def _lattice_shell_log_env(d: int, sigma: float, kappa: float) -> float:
    # valid for canonical angles |phi_i| <= pi: the extremal coordinate of a
    # shell-kappa lattice point keeps |phi + 2*pi*k| >= pi*(2*kappa - 1), and
    # the root-product is bounded by (d*pi*(2*kappa+1))^m over the shell
    m = d * (d - 1) // 2
    return (
        math.log(2.0 * (d - 1)) if d > 2 else 0.0
    ) + (d - 2) * math.log(2.0 * kappa + 1.0) + m * math.log(
        d * math.pi * (2.0 * kappa + 1.0)
    ) - d * math.pi**2 * (2.0 * kappa - 1.0) ** 2 / (2.0 * sigma)


class _LatticePlan:
    """What a Poisson-form kernel needs before it sees a point.

    log_base is log(C(d, sigma)/|W|) + log(d!), the log-prefactor before the
    point's Weyl denominator. A point only shifts the prefactor, which
    changes which envelope tail fits, so one _ShellTails of the lattice shell
    envelope serves the radius of every point: its tails, and the lower
    bounds that rejected radii, are kept, and a warm point compares its
    log-prefactor with them. grids holds the read-only offsets 2*pi*Z^{d-1}
    of sup-norm radius R for each R served, (2R+1)^{d-1} rows each. The lock
    guards the tails and the grids, which points on several threads share.
    """

    def __init__(self, key: tuple, p: KernelParams):
        self.key = key
        self.tail_tol = p.tail_tol
        self.log_tol = math.log(p.tail_tol)
        self.log_base = log_prefactor(p.d, p.sigma) + math.lgamma(p.d + 1)
        env = functools.partial(_lattice_shell_log_env, p.d, p.sigma)
        self._tails = _ShellTails(env, 1, 1, _MAX_LATTICE_RADIUS)
        self._grids: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()
        self.d = p.d

    def arrays(self) -> list[np.ndarray]:
        return list(self._grids.values())

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays())

    def radius(self, log_pref: float) -> tuple[int, float]:
        """Smallest radius whose tail times exp(log_pref) is below tail_tol, and that bound."""

        def log_tail(tail):
            return log_pref + (math.log(tail) if tail > 0.0 else -math.inf)

        try:
            with self._lock:
                radius, tail = self._tails.cutoff(lambda tail: log_tail(tail) < self.log_tol)
        except TruncationError:
            raise NumericalInstabilityError(
                f"no lattice radius up to {_MAX_LATTICE_RADIUS} meets tail_tol = {self.tail_tol:g}"
            ) from None
        return radius, math.exp(log_tail(tail))

    def grid(self, radius: int) -> np.ndarray:
        with self._lock:
            offsets = self._grids.get(radius)
            if offsets is None:
                offsets = TWO_PI * _lattice_grid(self.d, radius)
                offsets.flags.writeable = False
                self._grids[radius] = offsets
                _PLANS.grew(self.key, self, offsets.nbytes)
        return offsets


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


def _lattice_sums(p: KernelParams, phis: list) -> list[EvalResult]:
    """Poisson-form PU(d) kernel at regular points: one coweight lattice sum each.

    Coset r of the lattice, Z^{d-1} + (r/d)(1, ..., 1), is read at the center
    shift phi + 2*pi*r/d, and its rows carry sign(j_r) |j_min| / |j_r|. The
    cosets share one envelope, so the largest prefactor (the smallest |j_r|)
    picks the radius from the plan's tails, and gives the bound. Rows of one
    radius are summed as one array over the plan's grid. A sum whose rounding
    u * sum|term| exceeds _RESIDUE_CEILING of |sum| has lost the value to
    cancellation, and is refused.
    """
    d, sigma = p.d, p.sigma
    plan = _PLANS.lattice(p)
    shifts = np.empty((len(phis), d, d - 1))
    weights = np.empty((len(phis), d))
    log_prefs, radii, bounds = [], [], []
    for k, phi in enumerate(phis):
        shifts[k], log_j, sign_j = _coset_denominators(d, phi)
        weights[k] = [sign * math.exp(min(log_j) - lj) for sign, lj in zip(sign_j, log_j)]
        log_prefs.append(plan.log_base - min(log_j))
        radius, bound = plan.radius(log_prefs[-1])
        radii.append(radius)
        bounds.append(bound)

    out = [None] * len(phis)
    for radius in sorted(set(radii)):
        rows = [k for k, r in enumerate(radii) if r == radius]
        offsets = plan.grid(radius)
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
        expo = (-(d / (2.0 * sigma)) * quad).reshape(len(rows), -1)
        peaks = np.maximum.reduce(expo, axis=1)
        with np.errstate(under="ignore"):
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
    rows go through one _lattice_sums call at 0.3 * tail_tol.
    """
    if p.trim_t is not None:
        raise InvalidParameterError("the Poisson form has no trimmed variant; trim_t must be None")
    d = p.d
    gaps = [_min_gap(phi + (-math.fsum(phi),)) for phi in phis]
    regular = [k for k, gap in enumerate(gaps) if gap >= GAP_TOL]
    confluent = [k for k, gap in enumerate(gaps) if gap < GAP_TOL]
    out = [None] * len(phis)
    if regular:
        for k, result in zip(regular, _lattice_sums(p, [phis[k] for k in regular])):
            out[k] = result
    if not confluent:
        return out
    steps = np.array([1.0, -1.0, 0.5, -0.5]) * _JITTER_H
    jitter = np.array([phis[k] for k in confluent])[:, None, :] + steps[:, None] * np.arange(1, d)
    rows = [tuple(map(_wrap_angle, row)) for row in jitter.reshape(-1, d - 1).tolist()]
    evals = _lattice_sums(replace(p, tail_tol=0.3 * p.tail_tol), rows)
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

    The radius walk and the grid depend only on (d, sigma, tail_tol), so they
    are a _LatticePlan kept in _PLANS: a warm query compares its prefactor
    with the plan's tails and sums over the plan's grid, and a jittered one
    makes one four-row call. At d = 3 a warm query takes 0.075-0.095 ms at a
    regular point and 0.19-0.21 ms at a jittered one; a cold one, which
    walks the radius and builds the grid, 0.14-0.20 ms and 0.26-0.32 ms
    (1 BLAS thread, 2-vCPU Intel Xeon, best of 7 x 200 queries). Raises
    NumericalInstabilityError when the sum lost its value to cancellation.
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
    env = functools.partial(_pu_shell_log_env, d, sigma, 2.0)
    L, _ = _envelope_cutoff(env, 0, 2, lambda tail: tail < tail_tol, _MAX_WEIGHT_CUTOFF)
    if L <= 2 * t:
        return 0.0
    lams = _label_rows(d, L, f"tail_tol = {tail_tol:g}")
    return math.sqrt(_plancherel_sq(sigma, lams[np.abs(lams).sum(axis=1) > 2 * t]))


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
    env = functools.partial(_pu_shell_log_env, d, sigma, 2.0)
    L, _ = _envelope_cutoff(env, 0, 2, lambda tail: tail < tail_tol, _MAX_WEIGHT_CUTOFF)
    lams = _label_rows(d, L, f"tail_tol = {tail_tol:g}")
    return math.sqrt(_plancherel_sq(sigma, lams))
