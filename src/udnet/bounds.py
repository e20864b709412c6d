"""Closed-form bound calculators with precondition gating.

Every calculator returns a BoundReport: the bound value is assembled in
log space, each displayed validity condition becomes a named flag, and the
linear value is exposed only when every flag holds. The ungated log value
stays available for diagnostics and for comparisons on grids that straddle
a validity boundary.

Conventions: natural logs throughout; a_v = 1/(9*pi) and C = 9*pi; the
trim exponent gamma defaults to 1/2 but is a free parameter. Note that
theorem1_t_min uses C only through a_v = 1/C inside its logarithm; C_BIG
is still exported because the design-error and circuit-depth formulas use
it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lie_core import (
    _LOG_HUGE,
    InvalidParameterError,
    _check_dimension,
    _check_eps,
    _check_positive,
    _check_unit_open,
    _log_superfactorial,
    eps_tilde,
    log_prefactor,
)

__all__ = [
    "A_V",
    "C_BIG",
    "BoundReport",
    "eta_min",
    "t_star",
    "sigma_star",
    "bound_trim",
    "bound_I0",
    "bound_R",
    "ratio_R_over_I0_ok",
    "bound_outside_ball",
    "bound_L2",
    "bound_L2_simple",
    "bound_L1_trimmed",
    "theorem1_t_min",
    "theorem2_delta_max",
    "application1_ell",
    "volume_lower_bound",
]

C_BIG = 9.0 * math.pi
A_V = 1.0 / C_BIG


@dataclass(frozen=True)
class BoundReport:
    """A bound value gated behind named validity flags, with the citation
    tag of the displayed formula and the side quantities the calculator
    derives on the way (extras).

    value / log_value are None unless every flag holds; the _unchecked
    variants always carry the assembled number.
    """

    log_value_unchecked: float
    preconditions_ok: tuple[tuple[str, bool], ...]
    citation: str
    extras: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.preconditions_ok)

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.preconditions_ok if not ok)

    @property
    def log_value(self) -> float | None:
        return self.log_value_unchecked if self.all_ok else None

    @property
    def value(self) -> float | None:
        lv = self.log_value
        if lv is None:
            return None
        return math.exp(lv) if lv < _LOG_HUGE else math.inf

    @property
    def value_unchecked(self) -> float:
        lv = self.log_value_unchecked
        return math.exp(lv) if lv < _LOG_HUGE else math.inf


def eta_min(d: int) -> Fraction:
    """Smallest admissible tail weight, 1 / (1! 2! ... d!), exact."""
    _check_dimension(d)
    denom = 1
    for k in range(1, d + 1):
        denom *= math.factorial(k)
    return Fraction(1, denom)


def t_star(d: int, sigma: float) -> float:
    """Trim threshold (d^2 / (2 sqrt(sigma))) * sqrt(2 log(d^4 / sigma))."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    arg = math.log(d**4 / sigma)
    return d * d / (2.0 * math.sqrt(sigma)) * math.sqrt(2.0 * max(0.0, arg))


def sigma_star(d: int, eps: float) -> float:
    """Diffusion time eps^2 / (128 d log(d) log(2/(a_v eps)))."""
    _check_dimension(d)
    e = _check_eps(eps)
    return e * e / (128.0 * d * math.log(d) * math.log(2.0 / (A_V * e)))


def _weyl_norm_sq(d: int) -> float:
    """|delta|^2 = (d^2 - 1)/24: int / int rounds correctly, as float(Fraction(d^2 - 1, 24)) does."""
    d = int(d)
    return (d * d - 1) / 24


def _eta_min_float(d: int) -> float:
    """float(eta_min(d)) without its product: 0.0 from d = 28, where 1! 2! ... d! > 2^1075."""
    return float(eta_min(d)) if d < 28 else 0.0


def bound_trim(d: int, sigma: float, t: float, gamma: float = 0.5) -> BoundReport:
    """Trim tail bound 2^{d/2} exp(-2 sigma (1-gamma) t^2/d^2 - sigma t/2).

    Valid once 2t >= (d^2/sqrt(gamma sigma)) sqrt(log(d^4/(2 gamma sigma)));
    that condition is the "t-condition" flag.
    """
    _check_dimension(d)
    _check_positive("sigma", sigma)
    t = _check_positive("t", t)
    g = _check_unit_open("gamma", float(gamma))
    log_v = 0.5 * d * math.log(2.0) - 2.0 * sigma * (1.0 - g) * t * t / (d * d) - sigma * t / 2.0
    arg = math.log(d**4 / (2.0 * g * sigma))
    threshold = d * d / math.sqrt(g * sigma) * math.sqrt(max(0.0, arg))
    return BoundReport(
        log_value_unchecked=log_v,
        preconditions_ok=(("t-condition", 2.0 * t >= threshold),),
        citation="trim-tail",
        extras={"t_threshold": threshold / 2.0},
    )


def bound_I0(d: int, sigma: float, eps: float) -> BoundReport:
    """Dominant Gaussian tail (1/2) exp(-(d/16 sigma) eps_tilde^2 + |delta|^2 sigma)."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    et = eps_tilde(eps)
    log_v = math.log(0.5) - d * et * et / (16.0 * sigma) + _weyl_norm_sq(d) * sigma
    return BoundReport(
        log_value_unchecked=log_v,
        preconditions_ok=(("sigma-condition", sigma <= et * et / 32.0),),
        citation="gaussian-tail",
        extras={"eps_tilde": et},
    )


def bound_R(d: int, sigma: float) -> BoundReport:
    """Poisson lattice remainder bound, assembled in log space.

    exp(log_prefactor) * 2^m * 2^{d-1} (2 pi)^m (1+d/2)^m 2^{m+d-1}
    * exp(-d pi^2 / (2 sigma)), valid for sigma <= 2 pi^2 d / (d^2+d-2).
    """
    _check_dimension(d)
    _check_positive("sigma", sigma)
    m = d * (d - 1) // 2
    log_v = (
        log_prefactor(d, sigma)
        + m * math.log(2.0)
        + (d - 1) * math.log(2.0)
        + m * math.log(2.0 * math.pi)
        + m * math.log(1.0 + d / 2.0)
        + (m + d - 1) * math.log(2.0)
        - d * math.pi**2 / (2.0 * sigma)
    )
    threshold = 2.0 * math.pi**2 * d / (d * d + d - 2)
    return BoundReport(
        log_value_unchecked=log_v,
        preconditions_ok=(("sigma-condition", sigma <= threshold),),
        citation="lattice-remainder",
        extras={"sigma_threshold": threshold},
    )


def ratio_R_over_I0_ok(d: int, sigma: float, eta: float) -> BoundReport:
    """Checks that the lattice remainder stays below eta times the dominant term.

    Compares bound_R against eta * (1/2) exp(-d pi^2/(16 sigma) + |delta|^2 sigma),
    the closed-form floor of the dominant integral at radius pi. Flags require
    sigma <= 1/(d log d) and eta >= float(eta_min(d)). Boolean-style: value 1
    when the comparison holds, 0 when it fails.
    """
    _check_dimension(d)
    _check_positive("sigma", sigma)
    eta_f = _check_positive("eta", eta)
    log_lhs = bound_R(d, sigma).log_value_unchecked
    log_rhs = (
        math.log(eta_f)
        + math.log(0.5)
        - d * math.pi**2 / (16.0 * sigma)
        + _weyl_norm_sq(d) * sigma
    )
    holds = log_lhs <= log_rhs
    return BoundReport(
        log_value_unchecked=0.0 if holds else -math.inf,
        preconditions_ok=(
            ("sigma-condition", sigma <= 1.0 / (d * math.log(d))),
            ("eta-condition", eta_f >= _eta_min_float(d)),
        ),
        citation="remainder-vs-dominant",
        extras={"log_lhs": log_lhs, "log_rhs": log_rhs, "holds": holds},
    )


def bound_outside_ball(d: int, sigma: float, t: float, eps: float, eta: float) -> BoundReport:
    """Trimmed-kernel mass outside the radius-eps ball.

    2^{d/2} exp(-sigma t^2/d^2 - sigma t/2)
    + ((1+eta)/2) exp(-(d/16 sigma) eps^2 + |delta|^2 sigma),
    with the three displayed validity conditions as flags.
    """
    _check_dimension(d)
    _check_positive("sigma", sigma)
    t = _check_positive("t", t)
    e = _check_eps(eps)
    eta_f = _check_positive("eta", eta)
    log_a = 0.5 * d * math.log(2.0) - sigma * t * t / (d * d) - sigma * t / 2.0
    log_b = (
        math.log(0.5 * (1.0 + eta_f))
        - d * e * e / (16.0 * sigma)
        + _weyl_norm_sq(d) * sigma
    )
    log_v = float(np.logaddexp(log_a, log_b))
    flags = (
        ("t-condition", t >= t_star(d, sigma)),
        ("sigma-condition", sigma <= e * e / (32.0 * d * math.log(d))),
        ("eta-condition", eta_f >= _eta_min_float(d)),
    )
    return BoundReport(
        log_value_unchecked=log_v,
        preconditions_ok=flags,
        citation="mass-outside-ball",
        extras={"log_trim_term": log_a, "log_ball_term": log_b},
    )


def bound_L2(d: int, sigma: float) -> BoundReport:
    """Full L2 bound d*I00 + d (sqrt(d!)/2^{m-1}) eta_min * exp(|delta|^2 sigma).

    I00^2 = (C(d, sigma)/2^{m+l/2}) exp(|delta|^2 sigma) with
    C = d! exp(log_prefactor); the dominant integral is capped by its total
    Gaussian mass exp(|delta|^2 sigma). Trim-independent: the trimmed norm
    only drops non-negative Plancherel terms, so it takes no trim order.
    """
    _check_dimension(d)
    _check_positive("sigma", sigma)
    m = d * (d - 1) // 2
    l = d - 1
    wns = _weyl_norm_sq(d) * sigma
    log_c = log_prefactor(d, sigma) + math.lgamma(d + 1)
    log_i00 = 0.5 * (log_c - (m + l / 2.0) * math.log(2.0) + wns)
    log_term1 = math.log(d) + log_i00
    log_term2 = (
        math.log(d)
        + 0.5 * math.lgamma(d + 1)
        - (m - 1) * math.log(2.0)
        - _log_superfactorial(d)
        + wns
    )
    log_v = float(np.logaddexp(log_term1, log_term2))
    return BoundReport(
        log_value_unchecked=log_v,
        preconditions_ok=(("sigma-condition", sigma <= 1.0 / (d * math.log(d))),),
        citation="l2-full",
        extras={"log_i00_term": log_term1, "log_remainder_term": log_term2},
    )


def bound_L2_simple(d: int, sigma: float) -> BoundReport:
    """Simple L2 bound c (d/sigma)^{(d^2-1)/4}, c = 8 below d = 12, else 1."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    c = 1.0 if d >= 12 else 8.0
    log_v = math.log(c) + (d * d - 1) / 4.0 * math.log(d / sigma)
    return BoundReport(
        log_value_unchecked=log_v,
        preconditions_ok=(("sigma-condition", sigma <= 1.0 / (d * math.log(d))),),
        citation="l2-simple",
        extras={"c": c},
    )


def bound_L1_trimmed(d: int, sigma: float, t: float) -> BoundReport:
    """L1 bound 1 + 2^{d/2} exp(-sigma t^2/d^2 - sigma t/2) for t >= t_star."""
    _check_dimension(d)
    _check_positive("sigma", sigma)
    t = _check_positive("t", t)
    log_tail = 0.5 * d * math.log(2.0) - sigma * t * t / (d * d) - sigma * t / 2.0
    log_v = float(np.logaddexp(0.0, log_tail))
    ts = t_star(d, sigma)
    return BoundReport(
        log_value_unchecked=log_v,
        preconditions_ok=(("t-condition", t >= ts),),
        citation="l1-trimmed",
        extras={"t_star": ts, "log_tail_term": log_tail},
    )


def theorem1_t_min(d: int, eps: float) -> float:
    """Design order threshold 32 (d^{5/2}/eps) log(d) log(4/(a_v eps))."""
    _check_dimension(d)
    e = _check_eps(eps)
    return 32.0 * d**2.5 / e * math.log(d) * math.log(4.0 / (A_V * e))


def _log_kappa(d: int) -> float:
    """log of the group constant kappa(d) = d^{d^2/16 - 17/4 - d/(768 log^2(d) log(9 pi))},
    formed in log space: kappa(d) itself is past the float range from d = 54."""
    expo = d * d / 16.0 - 17.0 / 4.0 - d / (768.0 * math.log(d) ** 2 * math.log(1.0 / A_V))
    return expo * math.log(d)


def theorem2_delta_max(d: int, eps: float, form: str = "theorem") -> float:
    """Log of the largest admissible design error, in one of three forms.

    "theorem": (d^2-1) log(eps / (4 C log^{1/4}(2C/eps) log^{1/4}(d) sqrt(d))).
    "kappa": the looser display with the exact group constant kappa(d).
    "exponential": kappa form with kappa expanded and the explicit
    exp(-(d^2-1) eps^2 / (3072 d log d log(2/(a_v eps)))) factor.
    """
    _check_dimension(d)
    e = _check_eps(eps)
    n = d * d - 1
    if form == "theorem":
        inner = (
            math.log(e)
            - math.log(4.0 * C_BIG)
            - 0.25 * math.log(math.log(2.0 * C_BIG / e))
            - 0.25 * math.log(math.log(d))
            - 0.5 * math.log(d)
        )
        return n * inner
    lead = n / 2.0 * math.log(A_V / 2.0**4.5)
    bracket = n * (
        math.log(e)
        - 0.25 * math.log(math.log(2.0 / (A_V * e)))
        - 0.25 * math.log(math.log(d))
    )
    if form == "kappa":
        return lead + bracket - n / 2.0 * math.log(d) + _log_kappa(d)
    if form == "exponential":
        return (
            lead
            + bracket
            - n * e * e / (3072.0 * d * math.log(d) * math.log(2.0 / (A_V * e)))
            - (7.0 * d * d / 16.0 + 15.0 / 4.0) * math.log(d)
        )
    raise InvalidParameterError(
        f"form must be one of 'theorem', 'kappa', 'exponential', got {form!r}"
    )


def application1_ell(d: int, eps: float, delta: float) -> float:
    """Minimum circuit depth from a delta-approximate design.

    [log(1/kappa(d)) + (d^2-1)((5/4) log(1/eps) + (3/4) log(D d))] / log(1/delta)
    with D = 8 C^{2/3} log^{1/3}(2C).

    The numerator is a closed-form upper bound on -log delta_max in the
    "kappa" form of theorem2_delta_max (it exceeds it by at least 0.4 for
    d = 2..10, eps in [1e-8, 2]), so delta^ell meets that form. It is not
    the "theorem" form, which design-delta's implied eps uses: at d = 2,
    eps = 0.5 the numerator is 17.67, against 16.47 for the kappa form and
    18.19 for the theorem form, so against the theorem form this depth is
    about 3 % short, and more at larger d (12 % at d = 4, eps = 0.5).
    """
    _check_dimension(d)
    e = _check_eps(eps)
    dl = _check_unit_open("delta", float(delta))
    dcap = 8.0 * C_BIG ** (2.0 / 3.0) * math.log(2.0 * C_BIG) ** (1.0 / 3.0)
    n = d * d - 1
    numer = -_log_kappa(d) + n * (
        1.25 * math.log(1.0 / e) + 0.75 * math.log(dcap * d)
    )
    return numer / math.log(1.0 / dl)


def volume_lower_bound(d: int, kappa_radius: float) -> float:
    """Log of the ball-volume floor (a_v * radius)^{d^2 - 1}."""
    _check_dimension(d)
    r = _check_eps(kappa_radius)
    return (d * d - 1) * math.log(A_V * r)
