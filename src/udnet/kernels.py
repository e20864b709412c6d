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
Both cutoffs come from one walk (_envelope_cutoff) that evaluates each
shell once and tries the cutoffs in increasing order, dropping a cutoff as
soon as its partial tail is too large.

Near-regular points (eigenphase gap below 1e-6) cancel catastrophically in
the raw Poisson form; they are handled by a symmetric four-point jitter of
base size 1e-5 with one Richardson step, refused when that step is too large
a share of the value. All exponentials assemble in log space with signs
tracked separately.
"""

from __future__ import annotations

import collections
import functools
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
    "trimming_error",
    "l2_norm_trimmed",
    "l2_norm_untrimmed",
]

_LOG_TINY = -745.0
_LOG_HALF = math.log(0.5)
_JITTER_H = 1e-5
_MAX_LATTICE_RADIUS = 512
_MAX_WEIGHT_CUTOFF = 1 << 26
_MAX_TERMS = 2_000_000  # weights one sum may enumerate
_PLAN_CACHE_BYTES = 64 << 20  # character plans kept between calls
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


def _envelope_cutoff(log_env, first: int, step: int, fits, limit: int) -> tuple[int, float]:
    """Smallest cutoff L = first + k*step, at most limit, whose envelope tail fits.

    The tail beyond L bounds sum_{j > L} exp(log_env(j)) for a concave
    log_env. It is summed forward from L + 1 until consecutive shell ratios
    drop under 1/2 and then closed geometrically, since concavity makes later
    ratios no larger. A shell past the peak whose term underflows to 0.0 also
    ends the sum: every later term adds exactly 0.0. fits(tail) must stay
    False once False as the tail grows, so a cutoff is dropped as soon as its
    partial sum is rejected. Each shell is evaluated once. Returns (L, tail);
    raises TruncationError when no cutoff up to limit fits.
    """
    logs = {}

    def g(j):
        if j not in logs:
            logs[j] = log_env(j)
        return logs[j]

    L = first
    while True:
        total, j = 0.0, L + 1
        while fits(total):
            gj = g(j)
            if gj > _LOG_HUGE:
                total = math.inf
                break
            term = math.exp(gj) if gj > _LOG_TINY else 0.0
            dg = g(j + 1) - gj
            if dg <= _LOG_HALF:
                r = math.exp(dg)
                total += term * (1.0 + r / (1.0 - r))
                break
            if term == 0.0 and dg < 0.0:
                break
            total += term
            j += 1
        if fits(total):
            return L, total
        for k in range(L + 1, L + step + 1):
            logs.pop(k, None)
        L += step
        if L > limit:
            raise TruncationError(
                f"cutoff exceeds {limit}; required cutoff is at least {L}", required_cutoff=L
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
    """Least recently used character plans, at most _PLAN_CACHE_BYTES in all.

    Keyed on (d, sigma, trim_t, tail_tol). A plan over the cap is
    returned but not kept, and a build that raises keeps nothing. The lock
    guards the table, not the build: Monte Carlo chunks on several threads
    may build one plan twice on a cold start, and the first one stored wins.
    """

    def __init__(self):
        self._plans: collections.OrderedDict[tuple, _CharPlan] = collections.OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, p: KernelParams) -> _CharPlan:
        key = (p.d, p.sigma, p.trim_t, p.tail_tol)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = _build_char_plan(p)
        with self._lock:
            if key in self._plans:
                return self._plans[key]
            if plan.nbytes <= _PLAN_CACHE_BYTES:
                self._plans[key] = plan
                self.nbytes += plan.nbytes
                while self.nbytes > _PLAN_CACHE_BYTES:
                    self.nbytes -= self._plans.popitem(last=False)[1].nbytes
        return plan


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


def _poisson_core(p: KernelParams, x: TorusPoint) -> EvalResult:
    """Poisson-form PU(d) kernel at a regular point: one coweight lattice sum.

    Coset r of the lattice, Z^{d-1} + (r/d)(1, ..., 1), is read at the center
    shift phi + 2*pi*r/d, wrapped as TorusPoint wraps it, and its rows carry
    sign(j_r) |j_min| / |j_r|, with j_r the Weyl denominator of that shift's
    own eigenphases. The cosets share one envelope, so one walk under the
    largest prefactor (the smallest |j_r|) gives the radius and the bound.
    """
    d, sigma = p.d, p.sigma
    shifts = [TorusPoint(d, tuple(v + TWO_PI * r / d for v in x.phi)) for r in range(d)]
    log_j, sign_j = [0.0] * d, [1.0] * d
    for r, y in enumerate(shifts):
        th = y.eigenphases()
        for i in range(d):
            for j in range(i + 1, d):
                v = 2.0 * math.sin(0.5 * (th[i] - th[j]))
                if v == 0.0:
                    raise NumericalInstabilityError(
                        "coincident eigenphases reached the raw Poisson form"
                    )
                if v < 0.0:
                    sign_j[r] = -sign_j[r]
                log_j[r] += math.log(abs(v))
    weights = np.array([sign * math.exp(min(log_j) - lj) for sign, lj in zip(sign_j, log_j)])
    log_pref = log_prefactor(d, sigma) + math.lgamma(d + 1) - min(log_j)

    def log_tail(tail):
        return log_pref + (math.log(tail) if tail > 0.0 else -math.inf)

    env = functools.partial(_lattice_shell_log_env, d, sigma)
    log_tol = math.log(p.tail_tol)
    try:
        radius, tail = _envelope_cutoff(
            env, 1, 1, lambda tail: log_tail(tail) < log_tol, _MAX_LATTICE_RADIUS
        )
    except TruncationError:
        raise NumericalInstabilityError(
            f"no lattice radius up to {_MAX_LATTICE_RADIUS} meets tail_tol = {p.tail_tol:g}"
        ) from None
    bound = math.exp(log_tail(tail))

    grid = _lattice_grid(d, radius)
    phis = np.array([y.phi for y in shifts])
    psi = (phis[:, None, :] + TWO_PI * grid).reshape(-1, d - 1)
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
    if log_abs > _LOG_HUGE:
        raise NumericalInstabilityError("Poisson prefactor overflowed")
    return EvalResult(math.copysign(math.exp(log_abs), s) / d, bound, len(psi))


def heat_pu_poisson(p: KernelParams, x: TorusPoint) -> EvalResult:
    """PU(d) heat kernel as one Gaussian sum over the PU coweight lattice."""
    _check_point(p, x)
    if p.trim_t is not None:
        raise InvalidParameterError("the Poisson form has no trimmed variant; trim_t must be None")
    if x.min_gap() >= GAP_TOL:
        return _poisson_core(p, x)
    # Jittered Richardson average: the direction (1, 2, ..., d-1) separates
    # every eigenphase pair at unit rate or faster, so the half-step points
    # stay clear of the 1e-6 gap threshold.
    d = p.d
    direction = np.arange(1, d, dtype=float)
    inner = replace(p, tail_tol=0.3 * p.tail_tol)
    phi = np.asarray(x.phi, dtype=float)
    evals = {}
    for c in (1.0, -1.0, 0.5, -0.5):
        y = TorusPoint(d, tuple(phi + c * _JITTER_H * direction))
        evals[c] = _poisson_core(inner, y)
    coarse = 0.5 * (evals[1.0].value + evals[-1.0].value)
    fine = 0.5 * (evals[0.5].value + evals[-0.5].value)
    value = (4.0 * fine - coarse) / 3.0
    if (fine - coarse) ** 2 > _RESIDUE_CEILING * max(1.0, abs(value)) * abs(value):
        raise NumericalInstabilityError(
            f"jittered Poisson average lost significance: Richardson step"
            f" {fine - coarse:.3e} on value {value:.3e}"
        )
    bound = (
        4.0 * max(evals[0.5].truncation_bound, evals[-0.5].truncation_bound)
        + max(evals[1.0].truncation_bound, evals[-1.0].truncation_bound)
    ) / 3.0
    terms = sum(r.terms_used for r in evals.values())
    return EvalResult(value, bound, terms)


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
