"""Monte Carlo and quadrature validation for the kernel estimates.

Haar sampling uses complex Ginibre draws, a QR factorization whose R
diagonal is rotated positive, and a final global phase pulling the
determinant to 1; the pushforward is Haar on SU(d). The traceless GUE
convention is density exp(-Tr A^2) (diagonal variance 1/2, off-diagonal
real and imaginary parts variance 1/4), matching the eigenvalue density
exp(-sum y^2) * prod (y_i - y_j)^2 on the zero-sum hyperplane.

Estimators draw fixed-size chunks of 2^15 samples. Chunk i uses a fresh
generator keyed by (seed, stream_id, i) and chunk statistics reduce with
exactly rounded summation in index order, so an estimate depends only on
(seed, stream_id, n), never on how chunks are scheduled across workers.

Torus quadrature is the rectangle rule on the periodic cube (-pi, pi]^{d-1}
against the Weyl density |j|^2 / |W|; it is spectrally accurate for smooth
class functions and exact for character polynomials below the grid
bandwidth. The dominant-term integral I_0 restricts the same grid to the
complement of the eigenphase box max_j |theta_j| <= eps_tilde and assembles
its prefactor in log space.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

from .bounds import t_star
from .kernels import KernelParams, heat_pu_char_batch, heat_su_char_batch
from .lie_core import (
    TWO_PI,
    InvalidDimensionError,
    InvalidParameterError,
    TorusPoint,
    _check_dimension,
    _check_eps,
    _check_int,
    _check_unitary,
    _is_int,
    eps_tilde,
    log_prefactor,
)

__all__ = [
    "RngStream",
    "McEstimate",
    "sample_haar_su",
    "sample_gue_traceless",
    "projective_distance",
    "gue_tail_mc",
    "gue_opnorm_cdf",
    "mc_normalization",
    "mc_outside_ball",
    "mc_outside_ball_su",
    "torus_grid",
    "torus_quadrature",
    "numeric_I0",
]

_CHUNK = 1 << 15
_UNITARY_TOL = 1e-8


@dataclass
class RngStream:
    """Reproducible randomness handle: (seed, stream_id) fixes every draw."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, value, width in (("seed", self.seed, 64), ("stream_id", self.stream_id, 32)):
            if not _is_int(value):
                raise InvalidParameterError(f"{name} must be an integer")
            if not 0 <= int(value) < (1 << width):
                raise InvalidParameterError(f"{name} must fit in {width} unsigned bits")
        self.seed = int(self.seed)
        self.stream_id = int(self.stream_id)
        self._gen: np.random.Generator | None = None

    def generator(self) -> np.random.Generator:
        """Stateful generator for direct sampling; draws advance it."""
        if self._gen is None:
            root = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.PCG64(root))
        return self._gen

    def substream(self, index: int) -> np.random.Generator:
        """Fresh generator keyed by (seed, stream_id, index), independent of state."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, int(index)))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int


def _haar_su(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / d)[:, None, None]


def sample_haar_su(d: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Haar draw from SU(d): one (d, d) matrix, or (size, d, d) when size is set."""
    _check_dimension(d)
    if size is None:
        return _haar_su(d, 1, rng.generator())[0]
    return _haar_su(d, _check_int("size", size, 1), rng.generator())


def _gue_traceless(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
    a = (g + np.conj(np.swapaxes(g, 1, 2))) / (2.0 * math.sqrt(2.0))
    tr = np.trace(a, axis1=1, axis2=2).real / d
    return a - tr[:, None, None] * np.eye(d)[None, :, :]


def sample_gue_traceless(d: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Traceless GUE draw with density exp(-Tr A^2) conditioned on Tr A = 0."""
    _check_dimension(d)
    if size is None:
        return _gue_traceless(d, 1, rng.generator())[0]
    return _gue_traceless(d, _check_int("size", size, 1), rng.generator())


def _dp_to_identity(theta: np.ndarray, d: int) -> np.ndarray:
    """Projective distance to the identity from eigenphase rows (n, d)."""
    shifts = TWO_PI * np.arange(d) / d
    diff = theta[:, None, :] - shifts[None, :, None]
    dist = 2.0 * np.abs(np.sin(diff / 2.0))
    return dist.max(axis=2).min(axis=1)


def projective_distance(u: np.ndarray, v: np.ndarray, d: int) -> float:
    """d_P(U, V): operator-norm distance minimized over the d center phases."""
    _check_dimension(d)
    _check_unitary(u, d, _UNITARY_TOL, "U")
    _check_unitary(v, d, _UNITARY_TOL, "V")
    w = np.asarray(u) @ np.asarray(v).conj().T
    theta = np.angle(np.linalg.eigvals(w))
    return float(_dp_to_identity(theta[None, :], d)[0])


def _mc_run(n: int, rng: RngStream, chunk_vals, workers: int | None = 1) -> McEstimate:
    """Chunked mean/std-error accumulator.

    Chunk i draws from rng.substream(i) and the per-chunk sums reduce with
    fsum in index order, so the estimate depends on (seed, stream_id, n)
    only, regardless of the worker count.
    """
    n = _check_int("n", n, 1)
    if workers is None:
        workers = os.cpu_count() or 1
    workers = _check_int("workers", workers, 1)
    plan = []
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        plan.append((len(plan), m))
        done += m

    def one(task: tuple[int, int]) -> tuple[float, float]:
        index, m = task
        vals = np.asarray(chunk_vals(rng.substream(index), m), dtype=float)
        return math.fsum(vals.tolist()), math.fsum((vals * vals).tolist())

    if workers > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(one, plan))
    else:
        stats = [one(task) for task in plan]
    mean = math.fsum(s for s, _ in stats) / n
    var = (math.fsum(q for _, q in stats) - n * mean * mean) / (n - 1) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=math.sqrt(max(0.0, var) / n), n=n)


def gue_tail_mc(d: int, r: float, n: int, rng: RngStream, *, workers: int | None = 1) -> McEstimate:
    """Empirical P(||A||_inf >= r) for the traceless GUE."""
    _check_dimension(d)
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise InvalidParameterError("r must be finite and nonnegative")

    def chunk(gen, m):
        ev = np.linalg.eigvalsh(_gue_traceless(d, m, gen))
        return (np.abs(ev).max(axis=1) >= r).astype(float)

    return _mc_run(n, rng, chunk, workers=workers)


def gue_opnorm_cdf(d: int, r: float) -> float:
    """P(||A||_inf <= r) by quadrature of the eigenvalue density; d = 2 only."""
    if d != 2:
        raise InvalidDimensionError("quadrature cdf is implemented for d = 2; use gue_tail_mc")
    r = float(r)
    if r <= 0.0:
        return 0.0
    # Eigenvalues are (y, -y) with density y^2 exp(-2 y^2) / (sqrt(2 pi)/16).
    val, _ = integrate.quad(lambda y: y * y * math.exp(-2.0 * y * y), 0.0, r)
    return val * 16.0 / math.sqrt(2.0 * math.pi)


def _resolve_trim(d: int, sigma: float, trim_t: int | None) -> int:
    if trim_t is None:
        return math.ceil(t_star(d, sigma))
    return trim_t


def _eigenphase_rows(u: np.ndarray) -> np.ndarray:
    return np.angle(np.linalg.eigvals(u))


def mc_normalization(d: int, sigma: float, trim_t: int | None, n: int, rng: RngStream, *, workers: int | None = 1) -> McEstimate:
    """Haar average of the trimmed PU kernel; the exact value is 1."""
    p = KernelParams(d=d, sigma=sigma, trim_t=_resolve_trim(d, sigma, trim_t))

    def chunk(gen, m):
        vals, _, _ = heat_pu_char_batch(p, _eigenphase_rows(_haar_su(d, m, gen)))
        return vals

    return _mc_run(n, rng, chunk, workers=workers)


def mc_outside_ball(d: int, sigma: float, trim_t: int | None, eps: float, n: int, rng: RngStream, *, workers: int | None = 1) -> McEstimate:
    """Mass of |trimmed PU kernel| outside the projective eps-ball at identity.

    trim_t None selects ceil(t_star(d, sigma)). The estimate targets
    the integral of |H| over {d_P(U, I) > eps} under Haar measure.
    """
    eps = _check_eps(eps)
    p = KernelParams(d=d, sigma=sigma, trim_t=_resolve_trim(d, sigma, trim_t))

    def chunk(gen, m):
        theta = _eigenphase_rows(_haar_su(d, m, gen))
        vals, _, _ = heat_pu_char_batch(p, theta)
        return np.abs(vals) * (_dp_to_identity(theta, d) > eps)

    return _mc_run(n, rng, chunk, workers=workers)


def mc_outside_ball_su(d: int, sigma: float, eps: float, n: int, rng: RngStream, *, workers: int | None = 1) -> McEstimate:
    """Mass of |untrimmed SU kernel| outside the eps-ball at identity.

    Companion estimate to mc_outside_ball: the projective integral is
    bounded by this one because the ball preimage contains the SU ball.
    """
    eps = _check_eps(eps)
    p = KernelParams(d=d, sigma=sigma)

    def chunk(gen, m):
        theta = _eigenphase_rows(_haar_su(d, m, gen))
        vals, _, _ = heat_su_char_batch(p, theta)
        dist = 2.0 * np.abs(np.sin(theta / 2.0)).max(axis=1)
        return np.abs(vals) * (dist > eps)

    return _mc_run(n, rng, chunk, workers=workers)


def _check_grid(d, grid_n) -> tuple[int, int]:
    d = _check_dimension(d)
    if d > 3:
        raise InvalidDimensionError("grid quadrature supports d in {2, 3}; use Monte Carlo")
    return d, _check_int("grid_n", grid_n, 2)


def torus_grid(d: int, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform torus nodes (m, d-1) and Weyl-density weights (m,) summing to ~1."""
    d, grid_n = _check_grid(d, grid_n)
    axis = -math.pi + TWO_PI * np.arange(grid_n) / grid_n
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    phi = np.stack([g.ravel() for g in grids], axis=1)
    theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
    density = np.ones(phi.shape[0])
    for i in range(d):
        for j in range(i + 1, d):
            density *= 4.0 * np.sin((theta[:, i] - theta[:, j]) / 2.0) ** 2
    weights = density / (math.factorial(d) * grid_n ** (d - 1))
    return phi, weights


def torus_quadrature(d: int, grid_n: int, f) -> float:
    """Integral of a class function against Haar measure via the Weyl formula.

    f is called once per node with a TorusPoint; complex values are allowed
    and the real part of the weighted sum is returned (the integrals of
    interest are real, with imaginary residue at rounding level).
    """
    phi, weights = torus_grid(d, grid_n)
    vals = np.array([f(TorusPoint(d, tuple(row))) for row in phi])
    return float(np.real(np.sum(weights * vals)))


def numeric_I0(d: int, sigma: float, eps: float, grid_n: int) -> float:
    """Dominant-term integral outside the eps_tilde eigenphase box.

    Rectangle-rule evaluation of (C(d, sigma)/|W|) * integral over the
    coordinate cube minus {max_j |theta_j| <= eps_tilde} of
    |j| * |prod of root values| * exp(-|X|^2 / 4 sigma), with the
    prefactor kept in log space. The unwrapped last phase -sum(phi) sets
    box membership, so for d = 3 the cube corners stay in the domain.
    """
    d, grid_n = _check_grid(d, grid_n)
    et = eps_tilde(eps)
    lp = log_prefactor(d, sigma)
    phi, _ = torus_grid(d, grid_n)
    theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
    outside = np.abs(theta).max(axis=1) > et
    if not outside.any():
        return 0.0
    theta = theta[outside]
    log_f = np.zeros(theta.shape[0])
    with np.errstate(divide="ignore"):
        for i in range(d):
            for j in range(i + 1, d):
                gap = theta[:, i] - theta[:, j]
                log_f += np.log(np.abs(2.0 * np.sin(gap / 2.0))) + np.log(np.abs(gap))
    norm_sq = 2.0 * d * ((theta[:, :-1] ** 2).sum(axis=1) + theta[:, -1] ** 2)
    log_f -= norm_sq / (4.0 * sigma)
    finite = log_f[np.isfinite(log_f)]
    if finite.size == 0:
        return 0.0
    return float(math.exp(lp + logsumexp(finite) - (d - 1) * math.log(grid_n)))
