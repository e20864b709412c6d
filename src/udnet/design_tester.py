"""Exact t-design diagnostics for small (d, t).

The Haar moment operator is assembled exactly as the orthogonal projector
onto the span of vectorized permutation operators; the Gram matrix
G[sigma, tau] = d^#cycles(sigma tau^-1) is exact integer data, so no Monte
Carlo error enters the baseline. delta(nu, t) is the spectral norm of
T_nu - T_mu, computed by power iteration on the squared difference with
fixed-seed restarts. The net probe estimates the Haar-covered fraction of
a finite support; for d = 2 the projective distance to a support element
collapses to sqrt(2 - |Re Tr(U V^dag)|), turning the hot loop into a
single matrix product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lie_core import (
    InvalidParameterError,
    _check_dimension,
    _check_eps,
    _check_int,
    _check_unitary,
)
from .montecarlo import McEstimate, RngStream, _dp_to_identity, _haar_su, _mc_run

__all__ = [
    "DEFAULT_DIM_CAP",
    "ResourceLimitError",
    "WeightedGateSet",
    "MomentOperator",
    "NetProbeReport",
    "gate_set_from_json",
    "gate_set_to_json",
    "haar_moment_projector",
    "measure_moment",
    "delta_design",
    "net_probe",
]

DEFAULT_DIM_CAP = 4096
_UNITARY_TOL = 1e-10
_WEIGHT_TOL = 1e-12


class ResourceLimitError(RuntimeError):
    """Moment dimension d^(2t) exceeds the configured cap."""


@dataclass(frozen=True)
class WeightedGateSet:
    """Finitely supported measure on PU(d): positive weights summing to 1."""

    d: int
    elements: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        _check_dimension(self.d)
        if not self.elements:
            raise InvalidParameterError("gate set must be non-empty")
        cleaned = []
        for k, (w, mat) in enumerate(self.elements):
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise InvalidParameterError(f"weight {k} must be positive")
            cleaned.append((w, _check_unitary(mat, self.d, _UNITARY_TOL, f"element {k}")))
        total = math.fsum(w for w, _ in cleaned)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidParameterError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "elements", tuple(cleaned))


@dataclass(frozen=True)
class MomentOperator:
    d: int
    t: int
    matrix: np.ndarray


def gate_set_to_json(nu: WeightedGateSet) -> dict:
    """Plain-data form: matrices as row-major [re, im] pairs."""
    elements = [
        {"weight": w, "matrix": [[[z.real, z.imag] for z in row] for row in mat]}
        for w, mat in nu.elements
    ]
    return {"d": nu.d, "elements": elements}


def gate_set_from_json(obj) -> WeightedGateSet:
    """Parse and validate the schema produced by gate_set_to_json."""
    if not isinstance(obj, dict) or "d" not in obj or "elements" not in obj:
        raise InvalidParameterError("expected an object with keys 'd' and 'elements'")
    elements = []
    for k, entry in enumerate(obj["elements"]):
        if not isinstance(entry, dict) or "weight" not in entry or "matrix" not in entry:
            raise InvalidParameterError(f"element {k} needs 'weight' and 'matrix'")
        rows = entry["matrix"]
        try:
            mat = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
        except (TypeError, IndexError) as exc:
            raise InvalidParameterError(f"element {k}: malformed matrix") from exc
        elements.append((entry["weight"], mat))
    return WeightedGateSet(d=obj["d"], elements=tuple(elements))


def _check_moment_args(d: int, t, dim_cap: int) -> int:
    _check_dimension(d)
    t = _check_int("t", t, 1)
    dim = d ** (2 * t)
    if dim > dim_cap:
        raise ResourceLimitError(f"moment dimension d^(2t) = {dim} exceeds cap {dim_cap}")
    return t


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def _perm_matrix(d: int, sigma: tuple[int, ...]) -> np.ndarray:
    """Permutation operator on (C^d)^{(x)t} sending digit tuple x to x o sigma."""
    t = len(sigma)
    n = d**t
    digits = np.stack(np.unravel_index(np.arange(n), (d,) * t), axis=0)
    target = np.ravel_multi_index(tuple(digits[list(sigma), :]), (d,) * t)
    mat = np.zeros((n, n))
    mat[target, np.arange(n)] = 1.0
    return mat


def haar_moment_projector(d: int, t: int, dim_cap: int = DEFAULT_DIM_CAP) -> MomentOperator:
    """Orthogonal projector onto the span of vectorized permutation operators.

    Rank equals the number of independent permutation operators; the Gram
    pseudo-inverse (cutoff 1e-10 relative) absorbs the rank deficiency
    that appears once t exceeds d.
    """
    t = _check_moment_args(d, t, dim_cap)
    perms = list(itertools.permutations(range(t)))
    cols = [_perm_matrix(d, s).ravel() for s in perms]
    v = np.stack(cols, axis=1)
    inverse = {s: tuple(np.argsort(s)) for s in perms}
    gram = np.array(
        [
            [float(d ** _cycle_count(tuple(inverse[a][b[i]] for i in range(t)))) for b in perms]
            for a in perms
        ]
    )
    proj = v @ np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ v.T
    mat = proj.astype(complex)
    mat.setflags(write=False)
    return MomentOperator(d=d, t=t, matrix=mat)


def _kron_power(mat: np.ndarray, t: int) -> np.ndarray:
    out = mat
    for _ in range(t - 1):
        out = np.kron(out, mat)
    return out


def measure_moment(nu: WeightedGateSet, t: int, dim_cap: int = DEFAULT_DIM_CAP) -> MomentOperator:
    """T_{nu,t}: weighted sum of U^{(x)t} (x) conj(U)^{(x)t} over the gate set."""
    t = _check_moment_args(nu.d, t, dim_cap)
    dim = nu.d ** (2 * t)
    total = np.zeros((dim, dim), dtype=complex)
    for w, mat in nu.elements:
        ut = _kron_power(mat, t)
        total += w * np.kron(ut, ut.conj())
    total.setflags(write=False)
    return MomentOperator(d=nu.d, t=t, matrix=total)


def _spectral_norm(mat: np.ndarray, tol: float = 1e-10, restarts: int = 3, max_iter: int = 20000) -> float:
    """Largest singular value by power iteration on mat^dag mat, fixed seed."""
    h = mat.conj().T @ mat
    gen = np.random.default_rng(0)
    best = 0.0
    for _ in range(restarts):
        v = gen.standard_normal(h.shape[0]) + 1j * gen.standard_normal(h.shape[0])
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iter):
            w = h @ v
            norm_w = float(np.linalg.norm(w))
            if norm_w <= tol * max(1.0, lam):
                lam = max(lam, norm_w)
                break
            v = w / norm_w
            if abs(norm_w - lam) <= tol * max(1.0, norm_w):
                lam = norm_w
                break
            lam = norm_w
        best = max(best, lam)
    return math.sqrt(best)


def delta_design(nu: WeightedGateSet, t: int, dim_cap: int = DEFAULT_DIM_CAP) -> float:
    """delta(nu, t): spectral norm of T_{nu,t} - T_{mu,t}."""
    diff = measure_moment(nu, t, dim_cap).matrix - haar_moment_projector(nu.d, t, dim_cap).matrix
    return _spectral_norm(diff)


@dataclass(frozen=True)
class NetProbeReport:
    """Coverage estimate plus the largest distance seen among the probes."""

    estimate: McEstimate
    worst_distance: float


def _min_dist_to_support(probes: np.ndarray, support: np.ndarray, d: int) -> np.ndarray:
    if d == 2:
        # d_P(U, V) = sqrt(2 - |Re Tr(U V^dag)|) on SU(2).
        overlap = probes.reshape(-1, 4) @ support.reshape(-1, 4).conj().T
        closest = np.abs(overlap.real).max(axis=1)
        return np.sqrt(np.maximum(0.0, 2.0 - closest))
    best = np.full(probes.shape[0], np.inf)
    for v in support:
        theta = np.angle(np.linalg.eigvals(probes @ v.conj().T))
        best = np.minimum(best, _dp_to_identity(theta, d))
    return best


def net_probe(support, eps: float, n: int, rng: RngStream) -> NetProbeReport:
    """Haar fraction of PU(d) within d_P-distance eps of the support.

    A mean of 1.0 means no probe landed outside the net; worst_distance
    is the largest probe-to-support distance observed either way.
    """
    if len(support) == 0:
        raise InvalidParameterError("support must be non-empty")
    d = np.asarray(support[0]).shape[0]
    stack = np.stack([_check_unitary(u, d, 1e-8, f"support element {k}") for k, u in enumerate(support)])
    eps = _check_eps(eps)
    worst = 0.0

    def chunk(gen, m):
        nonlocal worst
        dist = _min_dist_to_support(_haar_su(d, m, gen), stack, d)
        worst = max(worst, float(dist.max()))
        return (dist <= eps).astype(float)

    return NetProbeReport(estimate=_mc_run(n, rng, chunk), worst_distance=worst)
