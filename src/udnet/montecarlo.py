"""Monte Carlo and quadrature validation for the kernel estimates.

Every estimator here tests a class function, so the samplers draw
eigenvalues and build no matrix. Haar eigenphases on SU(d) come from
rejection against the Weyl density (_haar_eigenphases): uniform proposals on
the torus, kept with probability |Delta|^2 / d^d, so each accepted row costs
d^d/d! proposals. The traceless GUE convention is density exp(-Tr A^2)
(diagonal variance 1/2, off-diagonal real and imaginary parts variance
1/4), matching the eigenvalue density exp(-sum y^2) * prod (y_i - y_j)^2 on
the zero-sum hyperplane; its eigenvalues come from the beta = 2 tridiagonal
model (_gue_eigenvalues). Per accepted row at n = 5,000 (1 BLAS thread,
2-vCPU Intel Xeon), against QR-drawn Haar matrices and their eigvals:
d = 2: 0.17 us (3.3 us); d = 3: 0.49 (5.5); d = 4: 1.9 (9.3); d = 5: 6.9
(14); d = 6: 24 (21); d = 7: 90 (27). The rejection cost grows as d^d/d!
(2, 4.5, 10.7, 26, 65, 163 proposals per row), so from d = 6 on it is
slower than the matrices. A GUE row takes 0.44 us at d = 2 and 3.0 us at
d = 7, against 0.86 and 9.4 us for a complex matrix and its eigvalsh.

Estimators draw fixed-size chunks of 2^15 samples. Chunk i uses a fresh
generator keyed by (seed, stream_id, i) and chunk statistics reduce with
exactly rounded summation in index order, so an estimate depends only on
(seed, stream_id, n), never on how chunks are scheduled across workers.

Torus quadrature is the rectangle rule on the periodic cube (-pi, pi]^{d-1}
against the Weyl density |j|^2 / |W|; it is spectrally accurate for smooth
class functions and exact for character polynomials below the grid
bandwidth. The dominant-term integral I_0 restricts the same grid to the
complement of the eigenphase box max_j |theta_j| <= eps_tilde and assembles
its prefactor in log space; its log-sum-exp is scipy's algorithm in numpy.
The d = 2 GUE operator-norm cdf is in closed form. So the module loads no
scipy, and neither does a CLI command that does not need it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import t_star
from .kernels import KernelParams, heat_pu_char_batch
from .lie_core import (
    TWO_PI,
    InvalidDimensionError,
    InvalidParameterError,
    _check_dimension,
    _check_eps,
    _check_int,
    _is_int,
    eps_tilde,
    log_prefactor,
)

__all__ = [
    "RngStream",
    "McEstimate",
    "gue_tail_mc",
    "gue_opnorm_cdf",
    "mc_normalization",
    "mc_outside_ball",
    "torus_grid",
    "numeric_I0",
]

_CHUNK = 1 << 15
_ROUND = 1 << 16  # most proposals per rejection round of _haar_eigenphases


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


def _haar_eigenphases(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """Eigenphase rows (n, d) of n Haar-random SU(d) elements, no matrices.

    Weyl's integration formula gives the eigenphases of a Haar SU(d)
    element the density |Delta(e^{i theta})|^2 / d! against the uniform
    measure on the torus theta_d = -sum(phi), phi in (-pi, pi]^{d-1}
    (Meckes, The Random Matrix Theory of the Classical Compact Groups,
    ch. 3). |Delta|^2 = prod_{i<j} 4 sin^2((theta_i - theta_j)/2) is at
    most d^d, so a uniform proposal is kept when u d^d < |Delta|^2, with
    acceptance d!/d^d. Proposals come in rounds of at most _ROUND rows,
    each sized from the rows still missing, so the draws depend only on gen
    and n. theta_d is wrapped to [-pi, pi).
    """
    ceiling = float(d) ** d
    per_accept = ceiling / math.factorial(d)
    out = np.empty((n, d))
    done = 0
    while done < n:
        m = min(_ROUND, math.ceil(1.1 * (n - done) * per_accept) + 16)
        phi = gen.uniform(-math.pi, math.pi, (m, d - 1))
        u = gen.random(m)
        theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
        vdm = np.ones(m)
        for i in range(d):
            for j in range(i + 1, d):
                vdm *= 2.0 - 2.0 * np.cos(theta[:, i] - theta[:, j])
        kept = theta[u * ceiling < vdm][: n - done]
        out[done : done + len(kept)] = kept
        done += len(kept)
    out[:, -1] = np.remainder(out[:, -1] + math.pi, TWO_PI) - math.pi
    return out


def _gue_eigenvalues(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """Eigenvalue rows (n, d) of n traceless GUE draws, no complex matrices.

    The beta = 2 tridiagonal model (Dumitriu and Edelman, J. Math. Phys. 43,
    5830, 2002) at this module's scale: diagonal N(0, 1/2), off-diagonal
    entry k = 1..d-1 distributed as chi_{2(d-k)} / 2, has the GUE eigenvalue
    density exp(-sum y^2) prod (y_i - y_j)^2. One real batched eigvalsh, and
    removing the mean eigenvalue projects onto the traceless hyperplane as
    A - (Tr A / d) I does.
    """
    t = np.zeros((n, d, d))
    idx = np.arange(d)
    t[:, idx, idx] = gen.normal(0.0, math.sqrt(0.5), (n, d))
    off = 0.5 * np.sqrt(gen.chisquare(2.0 * np.arange(d - 1, 0, -1), (n, d - 1)))
    t[:, idx[1:], idx[:-1]] = off
    ev = np.linalg.eigvalsh(t)
    return ev - ev.mean(axis=1, keepdims=True)


def _dp_to_identity(theta: np.ndarray, d: int) -> np.ndarray:
    """Projective distance to the identity from eigenphase rows (n, d)."""
    shifts = TWO_PI * np.arange(d) / d
    diff = theta[:, None, :] - shifts[None, :, None]
    dist = 2.0 * np.abs(np.sin(diff / 2.0))
    return dist.max(axis=2).min(axis=1)


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
        ev = _gue_eigenvalues(d, m, gen)
        return (np.abs(ev).max(axis=1) >= r).astype(float)

    return _mc_run(n, rng, chunk, workers=workers)


def gue_opnorm_cdf(d: int, r: float) -> float:
    """P(||A||_inf <= r) in closed form; d = 2 only.

    The eigenvalues are (y, -y), y >= 0 of density 16/sqrt(2 pi) y^2 exp(-2 y^2),
    so cdf(r) = erf(sqrt(2) r) - (4 r / sqrt(2 pi)) exp(-2 r^2). Against mpmath
    its error is at most 4e-17 for r in [0.1, 5].
    """
    if d != 2:
        raise InvalidDimensionError("the closed-form cdf is implemented for d = 2; use gue_tail_mc")
    r = float(r)
    if r <= 0.0:
        return 0.0
    return math.erf(math.sqrt(2.0) * r) - 4.0 * r / math.sqrt(2.0 * math.pi) * math.exp(-2.0 * r * r)


def _resolve_trim(d: int, sigma: float, trim_t: int | None) -> int:
    if trim_t is None:
        return math.ceil(t_star(d, sigma))
    return trim_t


def mc_normalization(d: int, sigma: float, trim_t: int | None, n: int, rng: RngStream, *, workers: int | None = 1) -> McEstimate:
    """Haar average of the trimmed PU kernel; the exact value is 1."""
    p = KernelParams(d=d, sigma=sigma, trim_t=_resolve_trim(d, sigma, trim_t))

    def chunk(gen, m):
        vals, _, _ = heat_pu_char_batch(p, _haar_eigenphases(d, m, gen))
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
        theta = _haar_eigenphases(d, m, gen)
        vals, _, _ = heat_pu_char_batch(p, theta)
        return np.abs(vals) * (_dp_to_identity(theta, d) > eps)

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
    return float(math.exp(lp + _logsumexp(finite) - (d - 1) * math.log(grid_n)))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite, nonempty 1-D array.

    scipy.special.logsumexp's algorithm, bit for bit: the entries equal to
    the maximum are counted, not summed, so s = sum(exp(a - max)) / count
    over the rest and the result is log1p(s) + log(count) + max.
    """
    top = a.max()
    at_top = a == top
    count = np.float64(np.count_nonzero(at_top))
    shifted = np.exp(a - top)
    shifted[at_top] = 0.0
    return float(np.log1p(shifted.sum() / count) + np.log(count) + top)
