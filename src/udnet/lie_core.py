"""Argument checks, torus points and the heat-kernel log-prefactor for SU(d) / PU(d).

Conventions used throughout the package:

* the Killing-form inner product is (X, Y) = -2d tr(XY), so a torus element
  X_phi = i diag(phi_1, ..., phi_{d-1}, -sum phi) has squared norm
  2d (sum_j phi_j^2 + (sum_j phi_j)^2);
* every "log" is a natural logarithm;
* the constants of A_{d-1} are written in closed form where they are used:
  m = d(d-1)/2 positive roots, rank d-1, dimension d^2-1, |W| = d! (read
  in logs, lgamma(d+1)) and the squared Weyl-vector norm (d^2-1)/24;
* the heat-kernel prefactor C(d, sigma)/|W| is only ever exposed in log
  space because C(d, sigma) grows like sigma^{-(d^2-1)/2}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
# Largest log that math.exp turns into a finite float.
_LOG_HUGE = 709.0


class InvalidDimensionError(ValueError):
    """Dimension argument outside the supported range (d >= 2)."""


class InvalidParameterError(ValueError):
    """Numeric argument outside its documented domain."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its budget; raised before its arrays are built."""


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


def _check_unitaries(mats, d: int, tol: float, what: str) -> np.ndarray:
    """Read-only complex (k, d, d) stack of mats after checking, in one
    batched product, that each is a finite d x d unitary to tol. Errors
    name the first bad matrix as f"{what} {k}". Matrices of one shape are
    stacked by one np.array call; the per-matrix loop runs only when that
    fails or gives another shape."""
    try:
        stack = np.array(mats, dtype=complex)
    except (TypeError, ValueError):  # ragged, or an entry that is not a number
        stack = None
    if stack is None or stack.shape != (len(mats), d, d):
        for k, m in enumerate(mats):
            try:
                shape = np.asarray(m, dtype=complex).shape
            except (TypeError, ValueError):
                shape = None
            if shape != (d, d):
                raise InvalidParameterError(f"{what} {k} must be a {d}x{d} matrix")
        stack = np.array(mats, dtype=complex).reshape(len(mats), d, d)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise InvalidParameterError(f"{what} {np.argmin(finite)} has a non-finite entry")
    err = np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(d)).max(axis=(1, 2))
    if (err > tol).any():
        raise InvalidParameterError(f"{what} {np.argmax(err > tol)} is not unitary to {tol:g}")
    stack.setflags(write=False)
    return stack


def _check_positive(name: str, value) -> float:
    x = float(value)
    if not math.isfinite(x) or x <= 0.0:
        raise InvalidParameterError(f"{name} must be a finite positive real, got {value!r}")
    return x


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
        return _min_gap(self.eigenphases())


def _min_gap(theta) -> float:
    """_min_gaps of one row of eigenphases, in Python floats, bit for bit."""
    best = math.inf
    for i in range(len(theta)):
        for j in range(i + 1, len(theta)):
            r = abs(math.fmod(theta[i] - theta[j], TWO_PI))
            best = min(best, r, TWO_PI - r)
    return best


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


def _log_superfactorial(d: int) -> float:
    """log(1! 2! ... d!), summed in logs: its reciprocal underflows a float from d = 28."""
    return math.fsum(math.lgamma(k + 1) for k in range(1, d + 1))


def log_prefactor(d: int, sigma: float) -> float:
    """log(C(d, sigma)/|W|) for the closed-form prefactor

    sqrt(d) (2d)^{(d-1)/2 + m} / prod_{k<=d} k! * (2 pi)^{d-1+m}
    * e^{(d^2-1) sigma / 24} * (4 pi sigma)^{-(d^2-1)/2},

    assembled in log space so it stays finite down to sigma = 1e-12."""
    _check_dimension(d)
    s = _check_positive("sigma", sigma)
    m = d * (d - 1) // 2
    n = d * d - 1
    # 4*pi*s overflows from s = 1.4e307 on
    log_4pi_s = math.log(4.0 * math.pi * s) if s < 1e307 else math.log(4.0 * math.pi) + math.log(s)
    return math.fsum(
        [
            0.5 * math.log(d),
            ((d - 1) / 2.0 + m) * math.log(2.0 * d),
            -_log_superfactorial(d),
            (d - 1 + m) * math.log(TWO_PI),
            (n / 24.0) * s,
            -(n / 2.0) * log_4pi_s,
        ]
    )


def eps_tilde(eps: float) -> float:
    """Geodesic radius 2 arcsin(eps/2) matching a chordal radius eps."""
    return 2.0 * math.asin(_check_eps(eps) / 2.0)
