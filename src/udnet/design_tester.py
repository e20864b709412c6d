"""Exact t-design diagnostics from irreducible blocks.

delta(nu, t) is the spectral norm of T_nu - T_mu on U^{(x)t} (x) conj(U)^{(x)t}.
That space splits into the PU(d) irreps whose zero-sum labels have positive
mass <= t, the rows of _projective_tuples(d, t); T_mu is the projector onto
the trivial one. So delta is the largest LAPACK SVD norm of
sum_k w_k pi_lambda(U_k) over the nontrivial labels, with blocks of size
dim_lambda and no d^(2t) matrix. pi_lambda is built in the orthonormal
Gelfand-Tsetlin basis (Molev, arXiv:math/0211289), and each block
sum_k w_k pi_lambda(U_k) is one product over all (gate, column) pairs, with
the gates taken in chunks of _CHUNK entries. One route runs at each d:

- d = 2: the blocks are the spin-ell matrices D^ell, ell = 1..t (Gross,
  Audenaert and Eisert, J. Math. Phys. 48, 052104, 2007), built from the
  ZYZ Euler angles of each gate as D(alpha) P diag(e^{-i beta s}) P^dag
  D(gamma). pi(J_z) is diagonal, and the eigenbasis P of pi(J_y), whose
  eigenvalues s are the integers -ell..ell, is found once per label, in
  the role of Risbo's Delta^ell (J. Geodesy 70, 383, 1996). No gate needs
  a log or an eigh. The phases e^{-i x n} of all three angles are
  tabulated once for n = -t..t; the diagonal of pi(J_z) and s both run
  -ell..ell in the Gelfand-Tsetlin order, so each label reads its phases
  as one contiguous band of that table.
- d >= 3: pi_lambda(U) = exp(i pi_lambda(G)) for a Hermitian log G of U,
  exponentiated by one batched eigh per irrep. The logs of all gates come
  from one batched Cayley transform. Euler angles would need a Givens
  factorisation into rotations in adjacent planes, 2m - 1 dense products
  per gate with m = d(d-1)/2, which costs more than the eigh from d = 4.

The generators of each label at d >= 3, and its P and P^dag at d = 2, are
built once per process and kept, read-only, in the kernels' plan LRU. Gate
sets and net supports are checked as one stack: finite entries and
unitarity, in one batched product. A gate file's matrices are decoded by
one np.asarray, and a WeightedGateSet keeps its weights and that stack as
read-only arrays, which design_deltas reads as they are. Per-element loops
run only to name the first malformed element. No scipy module is imported.

The net probe estimates the Haar-covered fraction of a finite support. Its
probes are Haar matrices (_haar_su), since the distance to a support
element needs the probe itself, not only its eigenphases; for
d = 2 the projective distance to a support element collapses to
sqrt(2 - |Re Tr(U V^dag)|), turning the hot loop into a single matrix
product.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .lie_core import (
    InvalidParameterError,
    ResourceLimitError,
    _check_dimension,
    _check_eps,
    _check_int,
    _check_unitaries,
)
from .montecarlo import McEstimate, RngStream, _dp_to_identity, _mc_run
from .weights_chars import _append_column, _dim_array, _projective_count, _projective_tuples

__all__ = [
    "BLOCK_BUDGET",
    "ResourceLimitError",
    "WeightedGateSet",
    "NetProbeReport",
    "gate_set_from_json",
    "design_deltas",
    "net_probe",
]

# Largest gates x sum of dim_lambda^3 one design_deltas call may spend: each
# block costs one gates x dim^3 product and one SVD, plus a batched eigh over
# the gates at d >= 3.
BLOCK_BUDGET = 10**10
_CHUNK = 1 << 20  # complex entries per (gates x dim x dim) array of _block_norm
_UNITARY_TOL = 1e-10
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedGateSet:
    """Finitely supported measure on PU(d): positive weights summing to 1.

    weights (K,) and matrices (K, d, d) are the checked, read-only arrays
    that elements pairs up. A gate set equals only itself and hashes by
    identity, since its elements hold arrays."""

    d: int
    elements: tuple[tuple[float, np.ndarray], ...]
    weights: np.ndarray = field(init=False, repr=False)
    matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_dimension(self.d)
        if not self.elements:
            raise InvalidParameterError("gate set must be non-empty")
        given = [w for w, _ in self.elements]
        # JSON true and strings such as "1" are not weights; types are checked once each
        real = {c: issubclass(c, numbers.Real) and not issubclass(c, (bool, np.bool_)) for c in set(map(type, given))}
        count = next((k for k, w in enumerate(given) if not real[type(w)]), len(given))
        try:
            weights = np.array(given[:count], dtype=float)
        except OverflowError:  # an integer past the float range, as JSON may give
            big = next(k for k, w in enumerate(given[:count]) if abs(w) > sys.float_info.max)
            raise InvalidParameterError(f"weight {big} is too large for a float") from None
        positive = np.isfinite(weights) & (weights > 0.0)
        if not positive.all():
            raise InvalidParameterError(f"weight {np.argmin(positive)} must be positive")
        if count < len(given):
            raise InvalidParameterError(f"weight {count} must be a number, got {given[count]!r}")
        mats = _check_unitaries([mat for _, mat in self.elements], self.d, _UNITARY_TOL, "element")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidParameterError(f"weights sum to {total!r}, expected 1")
        weights.setflags(write=False)
        object.__setattr__(self, "elements", tuple(zip(weights.tolist(), mats)))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "matrices", mats)


def gate_set_from_json(obj) -> WeightedGateSet:
    """Parse and validate a gate file: {"d": d, "elements": [{"weight": w,
    "matrix": [[[re, im], ...], ...]}, ...]}, each matrix row-major."""
    if not isinstance(obj, dict) or "d" not in obj or "elements" not in obj:
        raise InvalidParameterError("expected an object with keys 'd' and 'elements'")
    entries = obj["elements"]
    if not isinstance(entries, list):
        raise InvalidParameterError("'elements' must be a list")
    mats = _decode_matrices(entries)
    if mats is None:
        mats = [_decode_matrix(k, entry) for k, entry in enumerate(entries)]
    return WeightedGateSet(d=obj["d"], elements=tuple(zip([entry["weight"] for entry in entries], mats)))


def _decode_matrices(entries: list) -> np.ndarray | None:
    """Every element's matrix as one complex (K, rows, cols) array, decoded
    by one np.asarray, or None when some entry is not a well-formed element
    of one common shape. An element whose [re, im] entries are all bools is
    malformed, but a stack of it with numbers comes out numeric, so a bool
    first entry sends the entries to the per-element path as well."""
    if not all(isinstance(entry, dict) and "weight" in entry and "matrix" in entry for entry in entries):
        return None
    try:
        pairs = np.asarray([entry["matrix"] for entry in entries])
    except ValueError:  # ragged
        return None
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 4 or pairs.shape[3] != 2:
        return None
    if any(isinstance(entry["matrix"][0][0][0], (bool, np.bool_)) for entry in entries):
        return None
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def _decode_matrix(k: int, entry) -> np.ndarray:
    """One element's complex matrix; the error path of _decode_matrices,
    naming element k when it is malformed."""
    if not isinstance(entry, dict) or "weight" not in entry or "matrix" not in entry:
        raise InvalidParameterError(f"element {k} needs 'weight' and 'matrix'")
    try:
        pairs = np.asarray(entry["matrix"])
        if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
            raise ValueError
    except ValueError:
        # ragged rows, entries that are not numbers, or not [re, im] pairs
        raise InvalidParameterError(f"element {k}: malformed matrix") from None
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def _check_budget(gates: int, cost: int) -> None:
    if gates * cost > BLOCK_BUDGET:
        raise ResourceLimitError(
            f"gates x sum of block dim^3 >= {gates * cost:.4g} exceeds the budget {BLOCK_BUDGET:.4g}"
        )


def _block_rows(d: int, t: int, gates: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(labels, positive masses, dimensions) of the blocks delta(nu, 1..t) needs.

    The nontrivial rows of _projective_tuples(d, t), keeping one label of
    each dual pair: pi of the dual label is the complex conjugate of pi, with
    the same singular values. The budget is checked against two floors
    before the rows are counted or built, then against the exact sum: the
    self-dual labels (n, 0, ..., 0, -n), n = 1..t, have dim > n, and every
    nontrivial block has dim >= d^2 - 1.
    """
    _check_budget(gates, (t * (t + 1) // 2) ** 2)
    _check_budget(gates, (_projective_count(d, t) - 1) // 2 * (d * d - 1) ** 3)
    rows = _projective_tuples(d, t)[1:]
    keep = [r >= [-x for x in reversed(r)] for r in rows.tolist()]
    rows = rows[keep]
    dims = np.rint(_dim_array(rows)).astype(np.int64)
    _check_budget(gates, int(np.sum(dims**3)))
    return rows, np.maximum(rows, 0).sum(axis=1), dims.tolist()


def _gt_patterns(top: np.ndarray) -> np.ndarray:
    """Gelfand-Tsetlin patterns with top row `top`, one per row.

    The columns hold the pattern rows d, d - 1, ..., 1 in turn; row k - 1
    interlaces row k: lam_{k,i} >= lam_{k-1,i} >= lam_{k,i+1}.
    """
    d = top.size
    cols = [np.array([x]) for x in top]
    above = 0  # first column of the row being interlaced
    for k in range(d, 1, -1):
        for i in range(k - 1):
            cols, _ = _append_column(cols, cols[above + i + 1], cols[above + i])
        above += k
    return np.stack(cols, axis=1)


class _Generators(NamedTuple):
    """Read-only Gelfand-Tsetlin generators of one irrep (_build_gt_generators)."""

    diag: np.ndarray
    upper: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.diag.nbytes + self.upper.nbytes


def _gt_generators(top: np.ndarray) -> _Generators:
    """_build_gt_generators(top), kept in the kernels' plan LRU by label."""
    key = ("gt",) + tuple(top.tolist())
    return kernels._PLANS.fetch(key, functools.partial(_build_gt_generators, top))


def _build_gt_generators(top: np.ndarray) -> _Generators:
    """pi(E_kk) as a (d, dim) array of diagonals and pi(E_ij), i < j in
    np.triu_indices order, as a (d(d-1)/2, dim, dim) real array, for the
    irrep pi of U(d) with highest weight `top`, in the orthonormal
    Gelfand-Tsetlin basis (Molev, arXiv:math/0211289, section 2). Both
    arrays are read-only.

    E_kk acts by the row sums, sum_i lam_ki - sum_i lam_{k-1,i}, and
    E_{k,k+1} xi_L = sum_i a_ki(L) xi_{L + delta_ki} with
    a_ki = sqrt(-prod_j (l_ki - l_{k+1,j}) prod_j (l_ki - l_{k-1,j} + 1)
                / prod_{j != i} (l_ki - l_kj)(l_ki - l_kj + 1)),
    l_ki = lam_ki - i + 1. The coefficients are real, so E_{k+1,k} is the
    transpose, and E_ij = [E_{i,j-1}, E_{j-1,j}] gives the rest.
    """
    pats = _gt_patterns(top)
    dim, d = pats.shape[0], top.size
    off = [(d * (d + 1) - k * (k + 1)) // 2 for k in range(d + 1)]  # first column of row k
    pos = np.concatenate([np.arange(k) for k in range(d, 0, -1)])
    ell = (pats - pos).astype(float)
    sums = np.stack([pats[:, off[k] : off[k] + k].sum(axis=1) for k in range(d + 1)])
    diag = np.diff(sums, axis=0).astype(float)
    index = {p.tobytes(): n for n, p in enumerate(pats)}
    slot = {pair: n for n, pair in enumerate(zip(*np.triu_indices(d, 1)))}
    upper = np.zeros((len(slot), dim, dim))
    for k in range(1, d):
        raise_k = upper[slot[k - 1, k]]
        up, down = ell[:, off[k + 1] : off[k + 1] + k + 1], ell[:, off[k - 1] : off[k - 1] + k - 1]
        for i in range(k):
            col = off[k] + i
            # lam_ki + 1 must stay <= lam_{k+1,i} and <= lam_{k-1,i-1}
            ok = pats[:, col] < pats[:, off[k + 1] + i]
            if i > 0:
                ok &= pats[:, col] < pats[:, off[k - 1] + i - 1]
            src = np.nonzero(ok)[0]
            li = ell[src, col][:, None]
            same = ell[src][:, [off[k] + j for j in range(k) if j != i]]
            num = -np.prod(li - up[src], axis=1) * np.prod(li - down[src] + 1.0, axis=1)
            den = np.prod((li - same) * (li - same + 1.0), axis=1)
            raised = pats[src]
            raised[:, col] += 1
            raise_k[[index[p.tobytes()] for p in raised], src] = np.sqrt(num / den)
    for gap in range(2, d):
        for i in range(d - gap):
            a, b = upper[slot[i, i + gap - 1]], upper[slot[i + gap - 1, i + gap]]
            upper[slot[i, i + gap]] = a @ b - b @ a
    diag.setflags(write=False)
    upper.setflags(write=False)
    return _Generators(diag, upper)


def _hermitian_logs(mats: np.ndarray) -> np.ndarray:
    """Traceless Hermitian G with U = e^{i phi} exp(iG), one per U, batched.

    One eigvals call finds the largest gap between each U's eigenphases,
    at least 2 pi/d wide, and a phase turns U into V with -1 at the gap's
    midpoint, so every eigenphase of V lies within pi - pi/d of 0. The
    Cayley transform H = i(I - V)(I + V)^-1 is then Hermitian with
    eigenvalues tan(theta/2) and ||(I + V)^-1|| <= 1/sin(pi/2d); it comes
    from one batched solve, symmetrised. One batched eigh of H gives
    theta = 2 arctan(lam) and G = Q diag(theta - mean theta) Q^dag. Tied
    eigenphases are tied eigenvalues of a Hermitian matrix, which eigh
    resolves to an orthonormal basis, so G stays accurate at repeated
    eigenphases where an eigenvector basis of U is ill-conditioned.
    """
    k, d, _ = mats.shape
    phases = np.sort(np.angle(np.linalg.eigvals(mats)), axis=1)
    gaps = np.diff(phases, axis=1, append=phases[:, :1] + 2.0 * np.pi)
    widest = (np.arange(k), np.argmax(gaps, axis=1))
    mid = phases[widest] + 0.5 * gaps[widest]
    v = mats * np.exp(1j * (np.pi - mid))[:, None, None]
    eye = np.eye(d)
    h = 1j * np.linalg.solve(eye + v, eye - v)
    lam, q = np.linalg.eigh(0.5 * (h + h.conj().transpose(0, 2, 1)))
    theta = 2.0 * np.arctan(lam)
    theta -= theta.mean(axis=1, keepdims=True)
    return (q * theta[:, None, :]) @ q.conj().transpose(0, 2, 1)


def _log_factors(weights: np.ndarray, logs: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) with left @ right = sum_k w_k pi(U_k) at any d, from
    Hermitian logs G_k: pi(U_k) = exp(i pi(G_k)) by one batched eigh, and
    sum_k w_k Q_k diag(e^{i lam_k}) Q_k^dag is one product over (k, j)."""
    diag, upper = _gt_generators(top)
    d, dim = diag.shape
    iu = np.triu_indices(d, 1)
    flat = upper.reshape(len(upper), -1)
    gu = logs[:, iu[0], iu[1]]
    # two real products: a complex one would copy the generators to complex
    b = (gu.real @ flat + 1j * (gu.imag @ flat)).reshape(-1, dim, dim)
    h = b + b.conj().transpose(0, 2, 1)
    h[:, np.arange(dim), np.arange(dim)] += np.diagonal(logs, axis1=1, axis2=2).real @ diag
    lam, q = np.linalg.eigh(h)
    cols = q.transpose(1, 0, 2).reshape(dim, -1)
    return cols * (weights[:, None] * np.exp(1j * lam)).ravel(), cols.conj().T


class _SpinBasis(NamedTuple):
    """Read-only d = 2 pieces of one spin-ell block (_build_spin_basis)."""

    p: np.ndarray  # eigenvectors of pi(J_y), one per column
    ph: np.ndarray  # P^dag, C-contiguous

    @property
    def nbytes(self) -> int:
        return self.p.nbytes + self.ph.nbytes


def _spin_basis(top: np.ndarray) -> _SpinBasis:
    """_build_spin_basis(top), kept in the kernels' plan LRU by label."""
    key = ("spin",) + tuple(top.tolist())
    return kernels._PLANS.fetch(key, functools.partial(_build_spin_basis, top))


def _build_spin_basis(top: np.ndarray) -> _SpinBasis:
    """P and P^dag with pi(J_y) = P diag(s) P^dag for the d = 2 label
    top = (ell, -ell), from its Gelfand-Tsetlin generators: J_z =
    (E_11 - E_22)/2 and J_y = -(i/2)(E_12 - E_21). eigh sorts the
    eigenvalues, so s = -ell..ell. The Gelfand-Tsetlin patterns come in
    lexicographic order, so pi(J_z) = diag(m) with m = -ell..ell as well;
    that order is checked here, once per label, and _spin_factors relies on
    it. Only the basis is kept; the generators are not read again at d = 2."""
    ell = int(top[0])
    diag, (raise_,) = _build_gt_generators(top)
    if not np.array_equal(0.5 * (diag[0] - diag[1]), np.arange(-ell, ell + 1)):
        raise RuntimeError(f"the Gelfand-Tsetlin basis of spin {ell} is not in the order m = -ell..ell")
    _, p = np.linalg.eigh(-0.5j * (raise_ - raise_.T))
    basis = _SpinBasis(p, np.ascontiguousarray(p.conj().T))
    for arr in basis:
        arr.setflags(write=False)
    return basis


def _euler_angles(mats: np.ndarray) -> np.ndarray:
    """ZYZ angles (alpha, beta, gamma), one row per d = 2 gate, with
    U = e^{i phi} R_z(alpha) R_y(beta) R_z(gamma), R_a(x) = exp(-i x J_a).

    u = U / sqrt(det U) is in SU(2), up to a sign that integer spins do not
    see, and u_00 = cos(beta/2) e^{-i(alpha + gamma)/2}, u_10 = sin(beta/2)
    e^{i(alpha - gamma)/2}. beta comes from atan2 of the two moduli, so it
    stays accurate near 0 and pi, where the phase of the small entry is
    noisy but its product with that entry's modulus is not.
    """
    root = np.sqrt(mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0])
    u00, u10 = mats[:, 0, 0] / root, mats[:, 1, 0] / root
    plus, minus = -2.0 * np.angle(u00), 2.0 * np.angle(u10)
    beta = 2.0 * np.arctan2(np.abs(u10), np.abs(u00))
    return np.stack([0.5 * (plus + minus), beta, 0.5 * (plus - minus)], axis=1)


def _spin_phases(mats: np.ndarray, t: int) -> np.ndarray:
    """e^{-i x n} for the Euler angles x of each d = 2 gate and n = -t..t,
    shape (gates, 3, 2t + 1): every label up to spin t reads its phases here."""
    return np.exp(-1j * np.multiply.outer(_euler_angles(mats), np.arange(-t, t + 1)))


def _spin_factors(weights: np.ndarray, phases: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) with left @ right = sum_k w_k pi(U_k) at d = 2, with no
    log and no eigh per gate: pi(U_k) = D(alpha_k) P diag(e^{-i beta_k s})
    P^dag D(gamma_k), D(x) = diag(e^{-i x m}), phases from _spin_phases.
    m and s both run -ell..ell (_build_spin_basis), so each angle's phases
    are one contiguous band of _spin_phases, read as a view. Columns (k, j)
    of left hold D(alpha_k) P diag(e^{-i beta_k s}) and rows (k, j) of
    right hold w_k P^dag D(gamma_k)."""
    p, ph = _spin_basis(top)
    t, ell = phases.shape[2] // 2, int(top[0])
    band = phases[:, :, t - ell : t + ell + 1]
    left = band[:, 0].T[:, :, None] * p[:, None, :]
    left *= band[:, 1]
    right = ph * (weights[:, None] * band[:, 2])[:, None, :]
    return left.reshape(len(p), -1), right.reshape(-1, len(p))


def _block_norm(factors, weights: np.ndarray, gates: np.ndarray, top: np.ndarray, dim: int) -> float:
    """||sum_k w_k pi(U_k)||_2 for the label top of dimension dim, summed
    over chunks of the gates by factors(weights, gates, top) -> (left,
    right), one product each. The first chunk's product is the sum's
    start, and the norm is the largest singular value from LAPACK's SVD,
    the call np.linalg.norm(., 2) makes."""
    step = max(1, _CHUNK // (dim * dim))
    total = np.matmul(*factors(weights[:step], gates[:step], top))
    for lo in range(step, weights.size, step):
        # no name holds a chunk's factors while the next chunk's are built
        total += np.matmul(*factors(weights[lo : lo + step], gates[lo : lo + step], top))
    return float(np.linalg.svd(total, compute_uv=False)[0])


def design_deltas(nu: WeightedGateSet, t: int) -> list[float]:
    """[delta(nu, 1), ..., delta(nu, t)] in one pass.

    delta(nu, s) is the spectral norm of T_{nu,s} - T_{mu,s}. The irreps of
    U^{(x)s} (x) conj(U)^{(x)s} are the projective labels of positive mass
    <= s; T_mu is the projector onto the trivial one, where T_nu is the
    identity, so delta(nu, s) is the largest LAPACK SVD norm of
    sum_k w_k pi_lambda(U_k) over the nontrivial labels of mass <= s. The
    running maximum makes delta exactly non-decreasing in s. Raises
    ResourceLimitError, before any block is built, when gates x sum of
    dim_lambda^3 exceeds BLOCK_BUDGET. The blocks come from Euler angles at
    d = 2 and from Hermitian logs at d >= 3.
    """
    t = _check_int("t", t, 1)
    rows, mass, dims = _block_rows(nu.d, t, len(nu.weights))
    if nu.d == 2:
        gates, factors = _spin_phases(nu.matrices, t), _spin_factors
    else:
        gates, factors = _hermitian_logs(nu.matrices), _log_factors
    best = np.zeros(t + 1)
    np.maximum.at(best, mass, [_block_norm(factors, nu.weights, gates, top, dim) for top, dim in zip(rows, dims)])
    return np.maximum.accumulate(best)[1:].tolist()


@dataclass(frozen=True)
class NetProbeReport:
    """Coverage estimate plus the largest distance seen among the probes."""

    estimate: McEstimate
    worst_distance: float


def _haar_su(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """n Haar-random SU(d) matrices: complex Ginibre draws, a QR
    factorization whose R diagonal is rotated positive, and a global phase
    pulling the determinant to 1."""
    z = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / d)[:, None, None]


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
    first = np.asarray(support[0])
    if first.ndim != 2:
        raise InvalidParameterError("support element 0 must be a d x d matrix")
    d = _check_dimension(first.shape[0])
    stack = _check_unitaries(support, d, 1e-8, "support element")
    eps = _check_eps(eps)
    worst = 0.0

    def chunk(gen, m):
        nonlocal worst
        dist = _min_dist_to_support(_haar_su(d, m, gen), stack, d)
        worst = max(worst, float(dist.max()))
        return dist <= eps

    return NetProbeReport(estimate=_mc_run(n, rng, chunk), worst_distance=worst)
