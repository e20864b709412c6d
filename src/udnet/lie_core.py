"""Root-system constants for A_{d-1} and Killing-form geometry on the torus.

Conventions used throughout the package:

* the Killing-form inner product is (X, Y) = -2d tr(XY), so a torus element
  X_phi = i diag(phi_1, ..., phi_{d-1}, -sum phi) has squared norm
  2d (sum_j phi_j^2 + (sum_j phi_j)^2);
* every "log" is a natural logarithm;
* the heat-kernel prefactor C(d, sigma)/|W| is only ever exposed in log
  space because C(d, sigma) grows like sigma^{-(d^2-1)/2}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
# Largest log that math.exp turns into a finite float.
_LOG_HUGE = 709.0


class InvalidDimensionError(ValueError):
    """Dimension argument outside the supported range (d >= 2)."""


class InvalidParameterError(ValueError):
    """Numeric argument outside its documented domain."""


def _is_int(value) -> bool:
    """True for int and np.integer values; bool is not an integer argument."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(name: str, value, minimum: int = 0, error=InvalidParameterError) -> int:
    if not _is_int(value) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_dimension(d) -> int:
    return _check_int("d", d, 2, InvalidDimensionError)


def _check_unit_open(name: str, value) -> float:
    """A real in the open interval (0, 1); NaN is rejected."""
    if not (0.0 < value < 1.0):
        raise InvalidParameterError(f"{name} must lie in (0, 1), got {value!r}")
    return float(value)


def _check_eps(eps) -> float:
    e = float(eps)
    if not math.isfinite(e) or e <= 0.0 or e > 2.0:
        raise InvalidParameterError(f"eps must lie in (0, 2], got {eps!r}")
    return e


def _check_unitary(mat, d: int, tol: float, what: str) -> np.ndarray:
    """Read-only complex copy of mat after checking it is a d x d unitary to tol."""
    arr = np.array(mat, dtype=complex)
    if arr.shape != (d, d):
        raise InvalidParameterError(f"{what} must be a {d}x{d} matrix")
    if np.abs(arr.conj().T @ arr - np.eye(d)).max() > tol:
        raise InvalidParameterError(f"{what} is not unitary to {tol:g}")
    arr.setflags(write=False)
    return arr


def _check_positive(name: str, value) -> float:
    x = float(value)
    if not math.isfinite(x) or x <= 0.0:
        raise InvalidParameterError(f"{name} must be a finite positive real, got {value!r}")
    return x



@dataclass(frozen=True)
class GroupConstants:
    """Exact structural constants of SU(d) / A_{d-1}."""

    d: int
    m: int
    l: int
    N: int
    weyl_order: int
    cartan_det: int
    weyl_norm_sq: Fraction


def group_constants(d: int) -> GroupConstants:
    """Exact constants: m = d(d-1)/2 positive roots, rank l = d-1,
    dimension N = d^2-1, |W| = d!, Cartan determinant d, and the squared
    Weyl-vector norm (d^2-1)/24 as an exact rational."""
    _check_dimension(d)
    return GroupConstants(
        d=d,
        m=d * (d - 1) // 2,
        l=d - 1,
        N=d * d - 1,
        weyl_order=math.factorial(d),
        cartan_det=d,
        weyl_norm_sq=Fraction(d * d - 1, 24),
    )


def weyl_vector_diag(d: int) -> list[Fraction]:
    """Diagonal of X_delta / i: entries (d+1)/(4d) - k/(2d) for k = 1..d."""
    _check_dimension(d)
    return [Fraction(d + 1, 4 * d) - Fraction(k, 2 * d) for k in range(1, d + 1)]


def _wrap_angle(x: float) -> float:
    """Map a finite angle to (-pi, pi]."""
    y = math.remainder(x, TWO_PI)
    if y <= -math.pi:
        y = math.pi
    return y


@dataclass(frozen=True)
class TorusPoint:
    """A point of the maximal torus, stored via d-1 free angles.

    Angles are canonicalized to (-pi, pi] on construction. The implied
    last eigenphase is -sum(phi) (not wrapped; it only ever enters through
    exp(i * theta) or through differences that are wrapped on use).
    """

    d: int
    phi: tuple[float, ...] = field(default=())

    def __post_init__(self):
        _check_dimension(self.d)
        raw = tuple(float(x) for x in self.phi)
        if len(raw) != self.d - 1:
            raise InvalidParameterError(
                f"phi must have length d-1 = {self.d - 1}, got {len(raw)}"
            )
        if not all(math.isfinite(x) for x in raw):
            raise InvalidParameterError("phi entries must be finite")
        object.__setattr__(self, "phi", tuple(_wrap_angle(x) for x in raw))

    def eigenphases(self) -> tuple[float, ...]:
        """All d eigenphases including the implied last one."""
        return self.phi + (-math.fsum(self.phi),)

    def min_gap(self) -> float:
        """Smallest pairwise circular distance between eigenphases."""
        return float(_min_gaps(np.array([self.eigenphases()]))[0])

    def is_regular(self, tol: float = 0.0) -> bool:
        return self.min_gap() > tol


def _min_gaps(theta: np.ndarray) -> np.ndarray:
    """Minimum pairwise circular eigenphase gap, per row of theta (n, d).

    fmod is exact and 2*pi - r is exact for r in [pi, 2*pi), so each gap
    equals |math.remainder(difference, 2*pi)| bit for bit.
    """
    n, d = theta.shape
    best = np.full(n, np.inf)
    for i in range(d):
        for j in range(i + 1, d):
            r = np.abs(np.fmod(theta[:, i] - theta[:, j], TWO_PI))
            np.minimum(best, np.minimum(r, TWO_PI - r), out=best)
    return best


def log_prefactor(d: int, sigma: float) -> float:
    """log(C(d, sigma)/|W|) for the closed-form prefactor

    sqrt(d) (2d)^{(d-1)/2 + m} / prod_{k<=d} k! * (2 pi)^{d-1+m}
    * e^{(d^2-1) sigma / 24} * (4 pi sigma)^{-(d^2-1)/2},

    assembled in log space so it stays finite down to sigma = 1e-12."""
    _check_dimension(d)
    s = _check_positive("sigma", sigma)
    m = d * (d - 1) // 2
    n = d * d - 1
    log_fact = math.fsum(math.lgamma(k + 1) for k in range(1, d + 1))
    return math.fsum(
        [
            0.5 * math.log(d),
            ((d - 1) / 2.0 + m) * math.log(2.0 * d),
            -log_fact,
            (d - 1 + m) * math.log(TWO_PI),
            (n / 24.0) * s,
            -(n / 2.0) * math.log(4.0 * math.pi * s),
        ]
    )


def killing_norm_sq(d: int, phi: TorusPoint, k=None) -> float:
    """||X_phi + X_k||^2 = 2d (sum_j (phi_j + 2 pi k_j)^2 + (sum_j ...)^2),
    where X_k is the coroot-lattice element for the integer vector k."""
    _check_dimension(d)
    if phi.d != d:
        raise InvalidParameterError(f"TorusPoint has d={phi.d}, expected {d}")
    if k is None:
        psi = phi.phi
    else:
        kk = tuple(k)
        if len(kk) != d - 1 or not all(_is_int(v) for v in kk):
            raise InvalidParameterError("k must be an integer vector of length d-1")
        psi = tuple(p + TWO_PI * v for p, v in zip(phi.phi, kk))
    sq = math.fsum(p * p for p in psi)
    tot = math.fsum(psi)
    return 2.0 * d * (sq + tot * tot)


def eps_tilde(eps: float) -> float:
    """Geodesic radius 2 arcsin(eps/2) matching a chordal radius eps."""
    return 2.0 * math.asin(_check_eps(eps) / 2.0)
