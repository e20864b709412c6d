"""Heat kernels on SU(d) and PU(d): character form, Poisson form, trimming.

Two evaluation routes for the same function. The character route sums
d_lam * exp(-sigma*k_lam) * chi_lam over highest weights with a guaranteed
tail bound; the Poisson route sums Gaussians over the coweight lattice
k in Z^{d-1} after Poisson summation. On the projective group the weight
sum runs over zero-sum labels and the lattice form is averaged over the
d center shifts phi -> phi + (2*pi*r/d) * (1, ..., 1).

Truncation policy. Weight sums are cut at the smallest even one-norm L
(smallest integer coordinate sum for SU labels) whose shell-count envelope
tail drops below tail_tol; the envelope combines the dimension bound
(1+j)^{d(d-1)/2}, the shell count, and the Casimir lower bound, with decay
exp(-sigma*k) for value sums and exp(-2*sigma*k) for Plancherel sums.
Lattice sums are cut at the smallest sup-norm radius K whose Gaussian shell
envelope, multiplied by the assembled prefactor, drops below tail_tol.
Both envelopes are log-concave in the shell index, so once consecutive
shell ratios fall under 1/2 the remainder closes geometrically.

Near-regular points (eigenphase gap below 1e-6) cancel catastrophically in
the raw Poisson form; they are handled by a symmetric four-point jitter of
base size 1e-5 with one Richardson step. All exponentials assemble in log
space with signs tracked separately.
"""

from __future__ import annotations

import math
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
    _char_batch,
    _dim_array,
    _lam_array,
    _projective_tuples,
    _su_label_tuples,
)

__all__ = [
    "KernelParams",
    "EvalResult",
    "TruncationError",
    "NumericalInstabilityError",
    "heat_su_char",
    "heat_pu_char",
    "heat_su_char_batch",
    "heat_pu_char_batch",
    "heat_su_poisson",
    "heat_pu_poisson",
    "trimming_error",
    "l2_norm_trimmed",
    "l2_norm_untrimmed",
]

_LOG_TINY = -745.0
_JITTER_H = 1e-5
_MAX_LATTICE_RADIUS = 512


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
    projective weight sum to one-norm <= 2*trim_t. lattice_radius = None
    selects the sup-norm radius automatically so the dropped Poisson tail
    stays below tail_tol; an explicit radius is honored as given and the
    returned truncation_bound then reports whatever tail it implies.
    max_terms caps the number of enumerated weights.
    """

    d: int
    sigma: float
    trim_t: int | None = None
    tail_tol: float = 1e-12
    lattice_radius: int | None = None
    max_terms: int = 2_000_000

    def __post_init__(self):
        _check_dimension(self.d)
        _check_positive("sigma", self.sigma)
        if self.trim_t is not None:
            _check_int("trim_t", self.trim_t)
        _check_unit_open("tail_tol", self.tail_tol)
        if self.lattice_radius is not None:
            _check_int("lattice_radius", self.lattice_radius, 1)
        _check_int("max_terms", self.max_terms, 1)


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


def _env_tail(log_env, start: int, hard_cap: int = 5_000_000) -> float:
    """Upper bound on sum_{j >= start} exp(log_env(j)) for concave log_env.

    Walks shells until consecutive ratios drop under 1/2, then closes the
    remainder geometrically; concavity makes later ratios no larger.
    """
    total = 0.0
    j = start
    g = log_env(j)
    while True:
        if g > _LOG_HUGE:
            return math.inf
        term = math.exp(g) if g > _LOG_TINY else 0.0
        g2 = log_env(j + 1)
        dg = g2 - g
        if dg <= math.log(0.5):
            r = math.exp(dg)
            return total + term * (1.0 + r / (1.0 - r))
        total += term
        j += 1
        g = g2
        if j - start > hard_cap:
            return math.inf


def _pu_shell_log_env(d: int, sigma: float, rate: float, j: float) -> float:
    # count(one-norm = j) <= (1+2j)^{d-1}; dim^2 <= (1+j)^{d(d-1)}; Casimir >= j^2/(2d^2)+j/4
    return (
        (d - 1) * math.log1p(2.0 * j)
        + d * (d - 1) * math.log1p(j)
        - rate * sigma * (j * j / (2.0 * d * d) + j / 4.0)
    )


def _su_shell_log_env(d: int, sigma: float, rate: float, s: float) -> float:
    # count(sum = s, lam_d = 0) <= (1+s)^{d-2}; dim^2 <= (1+s)^{d(d-1)};
    # zero-sum one-norm >= 2s/d gives Casimir >= 2s^2/d^4 + s/(2d)
    return (
        (d - 2) * math.log1p(s)
        + d * (d - 1) * math.log1p(s)
        - rate * sigma * (2.0 * s * s / d**4 + s / (2.0 * d))
    )


def _weight_cutoff(
    shell_log_env, d: int, sigma: float, rate: float, tol: float, even: bool
) -> tuple[int, float]:
    """Smallest cutoff L (even if requested) whose envelope tail is below tol.

    shell_log_env is _pu_shell_log_env or _su_shell_log_env; rate is 1 for
    value sums and 2 for Plancherel sums. Returns (L, tail beyond L).
    """

    def tail(L):
        return _env_tail(lambda j: shell_log_env(d, sigma, rate, j), L + 1)

    step = 2 if even else 1
    if tail(0) < tol:
        return 0, tail(0)
    lo, hi = 0, step
    while tail(hi) >= tol:
        lo = hi
        hi *= 2
        if hi > (1 << 26):
            raise TruncationError(
                f"weight-sum cutoff exceeds {1 << 26}; required cutoff is at least {hi}",
                required_cutoff=hi,
            )
    while hi - lo > step:
        mid = (lo + hi) // 2
        mid -= mid % step
        if mid <= lo:
            mid = lo + step
        if tail(mid) >= tol:
            lo = mid
        else:
            hi = mid
    return hi, tail(hi)


def _char_eval(
    p: KernelParams, theta_rows: np.ndarray, projective: bool
) -> tuple[np.ndarray, float, int]:
    """Character-form kernel at many eigenphase rows.

    Returns (values, truncation_bound, terms_used). Weights whose worst-case
    contribution d_lam^2 exp(-sigma*k) cannot reach a share of the tail
    budget are skipped and charged to the bound; the trivial weight is
    always retained so the normalization stays exact.
    """
    d, sigma = p.d, p.sigma
    if projective and p.trim_t is not None:
        tuples = _projective_tuples(d, p.trim_t)
        tail = 0.0
        skip_budget = 0.0
    elif projective:
        L, tail = _weight_cutoff(_pu_shell_log_env, d, sigma, 1.0, 0.5 * p.tail_tol, even=True)
        tuples = _projective_tuples(d, L // 2)
        skip_budget = 0.4 * p.tail_tol
    else:
        S, tail = _weight_cutoff(_su_shell_log_env, d, sigma, 1.0, 0.5 * p.tail_tol, even=False)
        tuples = _su_label_tuples(d, S)
        skip_budget = 0.4 * p.tail_tol
    if len(tuples) > p.max_terms:
        required = max(sum(abs(v) for v in t) for t in tuples)
        raise TruncationError(
            f"tail_tol = {p.tail_tol:g} needs {len(tuples)} weights, over the"
            f" max_terms budget {p.max_terms}; required cutoff {required}",
            required_cutoff=required,
        )

    lams = _lam_array(tuples)
    dims = _dim_array(lams)
    cas = _casimir_array(lams)
    with np.errstate(under="ignore"):
        coeff = dims * np.exp(-sigma * cas)
        worst = coeff * dims
    keep = np.ones(len(tuples), dtype=bool)
    skipped = 0.0
    if skip_budget > 0.0 and len(tuples) > 1:
        cut = skip_budget / len(tuples)
        keep = worst >= cut
        keep[np.all(lams == 0, axis=1)] = True
        skipped = float(worst[~keep].sum())

    chi = _char_batch(lams[keep], theta_rows)
    trivial = np.nonzero(np.all(lams[keep] == 0, axis=1))[0]
    if trivial.size:
        chi[trivial[0], :] = 1.0
    vals = coeff[keep] @ chi
    bound = tail + skipped
    resid = np.max(np.abs(vals.imag)) if vals.size else 0.0
    ceiling = 1e-9 * max(1.0, float(np.max(np.abs(vals.real)))) + bound
    if not np.all(np.isfinite(vals.real)) or resid > ceiling:
        raise NumericalInstabilityError(
            f"character sum lost significance: imaginary residue {resid:.3e}"
        )
    return vals.real.astype(float), bound, int(keep.sum())


def heat_su_char(p: KernelParams, x: TorusPoint) -> EvalResult:
    """Full SU(d) heat kernel as a character sum with guaranteed tail."""
    _check_point(p, x)
    if p.trim_t is not None:
        raise InvalidParameterError("heat_su_char evaluates the untrimmed kernel; trim_t must be None")
    vals, bound, n = _char_eval(p, np.array([x.eigenphases()]), projective=False)
    return EvalResult(float(vals[0]), bound, n)


def heat_pu_char(p: KernelParams, x: TorusPoint) -> EvalResult:
    """PU(d) heat kernel (trimmed when trim_t is set) as a character sum."""
    _check_point(p, x)
    vals, bound, n = _char_eval(p, np.array([x.eigenphases()]), projective=True)
    return EvalResult(float(vals[0]), bound, n)


def _check_rows(p: KernelParams, theta_rows) -> np.ndarray:
    theta_rows = np.asarray(theta_rows, dtype=float)
    if theta_rows.ndim != 2 or theta_rows.shape[1] != p.d:
        raise InvalidParameterError(f"expected eigenphase rows of shape (n, {p.d})")
    return theta_rows


def heat_su_char_batch(p: KernelParams, theta_rows: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Vector heat_su_char over rows of full eigenphases, shape (n, d)."""
    theta_rows = _check_rows(p, theta_rows)
    if p.trim_t is not None:
        raise InvalidParameterError("heat_su_char_batch evaluates the untrimmed kernel; trim_t must be None")
    return _char_eval(p, theta_rows, projective=False)


def heat_pu_char_batch(p: KernelParams, theta_rows: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Vector heat_pu_char over rows of full eigenphases, shape (n, d)."""
    return _char_eval(p, _check_rows(p, theta_rows), projective=True)


def _lattice_grid(d: int, radius: int) -> np.ndarray:
    axis = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _lattice_log_tail(d: int, sigma: float, radius: int) -> float:
    """Log bound on the dropped lattice sum beyond sup-norm radius.

    Valid for canonical angles |phi_i| <= pi: the extremal coordinate of a
    shell-kappa lattice point keeps |phi + 2*pi*k| >= pi*(2*kappa - 1), and
    the root-product is bounded by (d*pi*(2*kappa+1))^m over the shell.
    """
    m = d * (d - 1) // 2

    def shell(kappa):
        return (
            math.log(2.0 * (d - 1)) if d > 2 else 0.0
        ) + (d - 2) * math.log(2.0 * kappa + 1.0) + m * math.log(
            d * math.pi * (2.0 * kappa + 1.0)
        ) - d * math.pi**2 * (2.0 * kappa - 1.0) ** 2 / (2.0 * sigma)

    val = _env_tail(shell, radius + 1)
    if val == 0.0:
        return -math.inf
    if not math.isfinite(val):
        return math.inf
    return math.log(val)


def _poisson_su_core(p: KernelParams, x: TorusPoint) -> EvalResult:
    """Poisson-form SU(d) kernel at a regular point."""
    d, sigma = p.d, p.sigma
    th = x.eigenphases()
    log_j = 0.0
    sign_j = 1.0
    for i in range(d):
        for j in range(i + 1, d):
            v = 2.0 * math.sin(0.5 * (th[i] - th[j]))
            if v == 0.0:
                raise NumericalInstabilityError(
                    "coincident eigenphases reached the raw Poisson form"
                )
            if v < 0.0:
                sign_j = -sign_j
            log_j += math.log(abs(v))
    log_pref = log_prefactor(d, sigma) + math.lgamma(d + 1) - log_j

    if p.lattice_radius is not None:
        radius = p.lattice_radius
        log_tail = log_pref + _lattice_log_tail(d, sigma, radius)
        bound = math.exp(log_tail) if log_tail < _LOG_HUGE else math.inf
    else:
        radius = None
        for cand in range(1, _MAX_LATTICE_RADIUS + 1):
            log_tail = log_pref + _lattice_log_tail(d, sigma, cand)
            if log_tail < math.log(p.tail_tol):
                radius = cand
                bound = math.exp(log_tail)
                break
        if radius is None:
            raise NumericalInstabilityError(
                f"no lattice radius up to {_MAX_LATTICE_RADIUS} meets tail_tol = {p.tail_tol:g}"
            )

    grid = _lattice_grid(d, radius)
    phi = np.asarray(x.phi, dtype=float)
    psi = phi[None, :] + TWO_PI * grid
    full = np.concatenate([psi, -psi.sum(axis=1, keepdims=True)], axis=1)
    root_prod = np.ones(len(grid))
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
    value = sign_j * math.copysign(1.0, s) * math.exp(log_abs)
    return EvalResult(value, bound, len(grid))


def _poisson_su(p: KernelParams, x: TorusPoint) -> EvalResult:
    if x.min_gap() >= GAP_TOL:
        return _poisson_su_core(p, x)
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
        evals[c] = _poisson_su_core(inner, y)
    coarse = 0.5 * (evals[1.0].value + evals[-1.0].value)
    fine = 0.5 * (evals[0.5].value + evals[-0.5].value)
    value = (4.0 * fine - coarse) / 3.0
    bound = (
        4.0 * max(evals[0.5].truncation_bound, evals[-0.5].truncation_bound)
        + max(evals[1.0].truncation_bound, evals[-1.0].truncation_bound)
    ) / 3.0
    terms = sum(r.terms_used for r in evals.values())
    return EvalResult(value, bound, terms)


def heat_su_poisson(p: KernelParams, x: TorusPoint) -> EvalResult:
    """SU(d) heat kernel through Poisson summation over the coweight lattice."""
    _check_point(p, x)
    if p.trim_t is not None:
        raise InvalidParameterError("the Poisson form has no trimmed variant; trim_t must be None")
    return _poisson_su(p, x)


def heat_pu_poisson(p: KernelParams, x: TorusPoint) -> EvalResult:
    """PU(d) heat kernel: center-average of d Poisson-form SU evaluations."""
    _check_point(p, x)
    if p.trim_t is not None:
        raise InvalidParameterError("the Poisson form has no trimmed variant; trim_t must be None")
    d = p.d
    phi = np.asarray(x.phi, dtype=float)
    total = 0.0
    bound = 0.0
    terms = 0
    for r in range(d):
        y = TorusPoint(d, tuple(phi + TWO_PI * r / d))
        res = _poisson_su(p, y)
        total += res.value
        bound += res.truncation_bound
        terms += res.terms_used
    return EvalResult(total / d, bound / d, terms)


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
    guaranteed below tail_tol.
    """
    _check_dimension(d)
    _check_positive("sigma", sigma)
    _check_int("t", t)
    _check_unit_open("tail_tol", tail_tol)
    L, _ = _weight_cutoff(_pu_shell_log_env, d, sigma, 2.0, tail_tol, even=True)
    if L <= 2 * t:
        return 0.0
    lams = _lam_array(_projective_tuples(d, L // 2))
    return math.sqrt(_plancherel_sq(sigma, lams[np.abs(lams).sum(axis=1) > 2 * t]))


def l2_norm_trimmed(d: int, sigma: float, t: int) -> float:
    """Exact L2 norm of the trimmed PU kernel (finite Plancherel sum)."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    _check_int("t", t)
    return math.sqrt(_plancherel_sq(sigma, _lam_array(_projective_tuples(d, t))))


def l2_norm_untrimmed(d: int, sigma: float, tail_tol: float = 1e-12) -> float:
    """L2 norm of the full PU kernel; squared-sum remainder below tail_tol."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    _check_unit_open("tail_tol", tail_tol)
    L, _ = _weight_cutoff(_pu_shell_log_env, d, sigma, 2.0, tail_tol, even=True)
    return math.sqrt(_plancherel_sq(sigma, _lam_array(_projective_tuples(d, L // 2))))
