"""Monte Carlo and quadrature validation for the kernel estimates.

Every estimator here counts an indicator, and the module imports no kernel
code: the GUE tail computes no eigenvalue, and the net probe of
design_tester brings its own Haar draws and reads only the projective
distance (_dp_to_identity) and the chunked count (_mc_run) from here.

The traceless GUE convention is density exp(-Tr A^2) (diagonal variance
1/2, off-diagonal real and imaginary parts variance 1/4), matching the
eigenvalue density exp(-sum y^2) * prod (y_i - y_j)^2 on the zero-sum
hyperplane. gue_tail_mc draws the bands of the beta = 2 tridiagonal model
(_gue_tridiagonal) and asks only whether an eigenvalue lies past c +- r, c
the mean of the diagonal: Sturm counts (_sturm_count, the signs of the
LDL^T pivots of T - x I) answer that, so no matrix is built and no
eigenvalue is computed. A row takes 0.12 us at d = 2, 0.18 us at d = 3 and
0.32 us at d = 7. A complex matrix and its LAPACK eigenvalues take 1.3, 2.6
and 7.4 us, and the dense tridiagonal model's eigenvalues 0.5, 1.1 and
3.2 us.

Estimators draw fixed-size chunks of 2^15 samples. Chunk i uses a fresh
generator keyed by (seed, stream_id, i), and each chunk's indicator reduces
to its count; the chunks run one after another in index order and their
counts add exactly, so an estimate depends only on (seed, stream_id, n).

Torus quadrature is the rectangle rule on the periodic cube (-pi, pi]^{d-1}
against the Weyl density |j|^2 / |W|, at any d up to a budget of 2^20
nodes. It is spectrally accurate for smooth class functions and exact for
class polynomials on the grid side that _exact_grid_n derives from their
degree: 13^2 nodes for the Gram matrix of the one-norm <= 4 characters at
d = 3, 17^4 at d = 5. The dominant-term integral I_0 is no polynomial; it
restricts a d <= 3 grid to the complement of the eigenphase box
max_j |theta_j| <= eps_tilde and assembles its prefactor in log space; its
log-sum-exp is scipy's algorithm in numpy. It builds its nodes from the grid
axis in blocks of whole grid rows, about _BLOCK nodes each, and keeps one
float per node: the finite log-integrands of the outside nodes, in node
order, which the log-sum-exp shifts and exponentiates in place. Its traced
peak is about 9 bytes per node, 9.2 MiB at 2^20 nodes, where the whole grid's
arrays took 84 bytes per node.
The d = 2 GUE operator-norm cdf is in closed form. So the module loads no
scipy, and no other module of udnet does either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie_core import (
    TWO_PI,
    InvalidDimensionError,
    InvalidParameterError,
    ResourceLimitError,
    _check_dimension,
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
    "torus_grid",
    "numeric_I0",
]

_CHUNK = 1 << 15
_BLOCK = 1 << 12  # nodes per block of numeric_I0's grid loop


@dataclass(frozen=True)
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
            object.__setattr__(self, name, int(value))

    def substream(self, index: int) -> np.random.Generator:
        """Fresh generator keyed by (seed, stream_id, index)."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, int(index)))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int


def _gue_tridiagonal(d: int, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (n, d) and off-diagonal (n, d - 1) of n GUE tridiagonal models.

    The beta = 2 tridiagonal model (Dumitriu and Edelman, J. Math. Phys. 43,
    5830, 2002) at this module's scale: diagonal N(0, 1/2), off-diagonal
    entry k = 1..d-1 distributed as chi_{2(d-k)} / 2, has the GUE eigenvalue
    density exp(-sum y^2) prod (y_i - y_j)^2. Its eigenvalues less their
    mean, the mean of the diagonal, are those of a traceless GUE draw, as
    A - (Tr A / d) I projects onto the traceless hyperplane.
    """
    diag = gen.normal(0.0, math.sqrt(0.5), (n, d))
    off = 0.5 * np.sqrt(gen.chisquare(2.0 * np.arange(d - 1, 0, -1), (n, d - 1)))
    return diag, off


def _sturm_count(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues below x of each symmetric tridiagonal row, no eigenvalue.

    By Sylvester's law of inertia the count is that of the negative pivots
    q_1 = a_1 - x, q_k = (a_k - x) - b_{k-1}^2 / q_{k-1} of the LDL^T
    factorisation of T - x I, which is backward stable (Demmel, Applied
    Numerical Linear Algebra, sec. 5.3.4). A pivot of modulus below pivmin =
    tiny * max(1, max b^2) becomes -pivmin, LAPACK dstebz's rule: every
    quotient stays finite, and a zero pivot counts as negative, so on a
    diagonal T an eigenvalue equal to x counts as below it.
    diag is (n, d), off (n, d - 1) and x broadcasts against (n,), e.g. (2, n)
    for two shifts per row; the counts take x's broadcast shape.
    """
    b2 = off * off
    pivmin = np.finfo(float).tiny * max(1.0, float(b2.max(initial=0.0)))
    q = diag[:, 0] - x
    count = np.zeros(q.shape, dtype=np.intp)
    for k in range(diag.shape[1]):
        if k:
            q = (diag[:, k] - x) - b2[:, k - 1] / q
        np.copyto(q, -pivmin, where=np.abs(q) < pivmin)
        count += q < 0.0
    return count


def _dp_to_identity(theta: np.ndarray, d: int) -> np.ndarray:
    """Projective distance to the identity from eigenphase rows (n, d).

    min over the d center shifts s of max_j 2 |sin((theta_j - s) / 2)|,
    taken one shift at a time with a running minimum, so the working set
    is one (n, d) array besides the rows and the result.
    """
    best = np.full(theta.shape[0], np.inf)
    diff = np.empty(theta.shape)
    for k in range(d):
        np.subtract(theta, TWO_PI * k / d, out=diff)
        diff /= 2.0
        np.sin(diff, out=diff)
        np.abs(diff, out=diff)
        diff *= 2.0
        np.minimum(best, diff.max(axis=1), out=best)
    return best


def _mc_run(n: int, rng: RngStream, chunk_vals) -> McEstimate:
    """Chunked mean/std-error accumulator of an indicator.

    Chunk i draws from rng.substream(i), in index order, and chunk_vals
    returns its boolean indicator array; its sum and its sum of squares are
    both its count of True entries. The counts reduce with fsum, so the
    estimate depends on (seed, stream_id, n) only.
    """
    n = _check_int("n", n, 1)
    counts = [
        float(np.count_nonzero(chunk_vals(rng.substream(index), min(_CHUNK, n - start))))
        for index, start in enumerate(range(0, n, _CHUNK))
    ]
    total = math.fsum(counts)
    mean = total / n
    var = (total - n * mean * mean) / (n - 1) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=math.sqrt(max(0.0, var) / n), n=n)


def gue_tail_mc(d: int, r: float, n: int, rng: RngStream) -> McEstimate:
    """Empirical P(||A||_inf >= r) for the traceless GUE.

    A row of the tridiagonal model counts when an eigenvalue lies past
    c + r or c - r, c the mean of its diagonal: when (d - nu(c + r)) +
    nu(c - r) > 0, nu the Sturm count of _sturm_count. Its eigenvalues less
    c are those of the traceless draw, so this is ||A||_inf >= r up to ties
    at c +- r, which have probability 0.
    """
    _check_dimension(d)
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise InvalidParameterError("r must be finite and nonnegative")

    def chunk(gen, m):
        diag, off = _gue_tridiagonal(d, m, gen)
        c = diag.mean(axis=1)
        below = _sturm_count(diag, off, np.stack([c + r, c - r]))
        return (d - below[0]) + below[1] > 0

    return _mc_run(n, rng, chunk)


def gue_opnorm_cdf(d: int, r: float) -> float:
    """P(||A||_inf <= r) in closed form; d = 2 only.

    The eigenvalues are (y, -y), y >= 0 of density 16/sqrt(2 pi) y^2 exp(-2 y^2),
    so cdf(r) = erf(sqrt(2) r) - (4 r / sqrt(2 pi)) exp(-2 r^2). The two terms
    cancel to O(r^3) as r -> 0 (a relative error of 7.9e-9 at r = 1e-4), so
    below r = 0.5 the difference is summed as its own series,
    8 sqrt(2/pi) r^3 sum_k (-2 r^2)^k / (k! (2k + 3)), to k = 17; at r = 0.5
    the terms fall below 2^-53 of the first from k = 14. Against mpmath the
    relative error is below 1e-15 for r in [1e-6, 5].
    """
    if d != 2:
        raise InvalidDimensionError("the closed-form cdf is implemented for d = 2; use gue_tail_mc")
    r = float(r)
    if r <= 0.0:
        return 0.0
    if r < 0.5:
        y = -2.0 * r * r
        term, total = 1.0, 1.0 / 3.0
        for k in range(1, 18):
            term *= y / k
            total += term / (2 * k + 3)
        return 8.0 * math.sqrt(2.0 / math.pi) * r**3 * total
    return math.erf(math.sqrt(2.0) * r) - 4.0 * r / math.sqrt(2.0 * math.pi) * math.exp(-2.0 * r * r)


_MAX_NODES = 1 << 20  # torus_grid nodes grid_n^(d-1); at d = 5 its arrays then take about 0.13 GB


def _exact_grid_n(d: int, spread: int) -> int:
    """Smallest torus_grid side on which the rule is exact for every class
    function f of spread at most spread: f is a sum of e^{i <nu, theta>}
    over weights nu with nu_j - nu_k <= spread for all j, k.

    A node is phi in (2 pi / N) Z^{d-1} with theta_d = -sum(phi), so the
    term e^{i <nu, theta>} is e^{i sum_j (nu_j - nu_d) phi_j}. Summed over
    the N^{d-1} nodes it vanishes unless N divides every exponent
    nu_j - nu_d, so the rule integrates it exactly, to 1 if the exponents
    are all 0 and to 0 otherwise, when every |nu_j - nu_d| < N (the
    trapezoidal rule on a period; Trefethen and Weideman, SIAM Review 56,
    385, 2014). torus_grid's weights carry the Weyl density |Delta|^2 / d!,
    and Delta's monomials are the permutations of (d - 1, ..., 1, 0), so
    each of its two factors adds at most d - 1. The weights of chi_lambda
    lie in the convex hull of the Weyl orbit of lambda, so its spread is
    lambda_1 - lambda_d, and that of conj(chi_mu) is mu_1 - mu_d. So
    f = chi_lambda conj(chi_mu) |Delta|^2 has |nu_j - nu_d| <= D =
    (lambda_1 - lambda_d) + (mu_1 - mu_d) + 2 (d - 1), and N = D + 1 is the
    smallest side with no alias. The bound is attained at d = 2, where
    N = D leaves the Gram matrix of the one-norm <= 8 labels off by 1.
    """
    return _check_int("spread", spread) + 2 * (d - 1) + 1


def _check_grid(d, grid_n) -> tuple[int, int]:
    return _check_dimension(d), _check_int("grid_n", grid_n, 2)


def _node_count(d: int, grid_n: int) -> int:
    """grid_n^(d-1), or ResourceLimitError when it exceeds _MAX_NODES."""
    nodes = grid_n ** (d - 1)
    if nodes > _MAX_NODES:
        raise ResourceLimitError(f"torus grid of {grid_n}^{d - 1} = {nodes} nodes exceeds the node budget {_MAX_NODES}")
    return nodes


def _torus_axis(grid_n: int) -> np.ndarray:
    return -math.pi + TWO_PI * np.arange(grid_n) / grid_n


def _torus_nodes(d: int, grid_n: int) -> np.ndarray:
    """Uniform torus nodes (m, d-1), each phase on -pi + 2 pi a / grid_n.

    m = grid_n^(d-1) nodes at any d; over _MAX_NODES this raises
    ResourceLimitError before any array is built.
    """
    d, grid_n = _check_grid(d, grid_n)
    _node_count(d, grid_n)
    grids = np.meshgrid(*([_torus_axis(grid_n)] * (d - 1)), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def torus_grid(d: int, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform torus nodes (m, d-1) of _torus_nodes and Weyl-density weights
    (m,) summing to ~1. _exact_grid_n gives the side on which the rule is
    exact for a class polynomial.
    """
    d, grid_n = _check_grid(d, grid_n)
    phi = _torus_nodes(d, grid_n)
    theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
    density = np.ones(phi.shape[0])
    for i in range(d):
        for j in range(i + 1, d):
            density *= 4.0 * np.sin((theta[:, i] - theta[:, j]) / 2.0) ** 2
    weights = density / (math.factorial(d) * phi.shape[0])
    return phi, weights


def numeric_I0(d: int, sigma: float, eps: float, grid_n: int) -> float:
    """Dominant-term integral outside the eps_tilde eigenphase box.

    Rectangle-rule evaluation of (C(d, sigma)/|W|) * integral over the
    coordinate cube minus {max_j |theta_j| <= eps_tilde} of
    |j| * |prod of root values| * exp(-|X|^2 / 4 sigma), with the
    prefactor kept in log space. The unwrapped last phase -sum(phi) sets
    box membership, so for d = 3 the cube corners stay in the domain. The
    integrand is no polynomial, so no grid side makes the rule exact; the
    grids it needs do not scale past d = 3, which it refuses.

    The nodes are built from the axis in blocks of whole grid rows, about
    _BLOCK nodes each, and the finite log-integrands of the outside nodes
    go in node order into one array of the grid's size, which
    _logsumexp sums in place: about 9 bytes per node at the peak.
    """
    d, grid_n = _check_grid(d, grid_n)
    if d > 3:
        raise InvalidDimensionError("numeric_I0 supports d in {2, 3}")
    nodes = _node_count(d, grid_n)
    et = eps_tilde(eps)
    lp = log_prefactor(d, sigma)
    axis = _torus_axis(grid_n)
    row = grid_n ** (d - 2)  # nodes per grid row: the last axis at d = 3, one node at d = 2
    step = max(1, _BLOCK // row)
    log_f = np.empty(nodes)
    filled = 0
    for start in range(0, grid_n, step):
        rows = axis[start : start + step]
        phi = [rows] if d == 2 else [np.repeat(rows, grid_n), np.tile(axis, len(rows))]
        theta = [*phi, -sum(phi)]
        outside = np.abs(theta[0]) > et
        for t in theta[1:]:
            outside |= np.abs(t) > et
        theta = [t[outside] for t in theta]
        block = np.zeros(len(theta[0]))
        with np.errstate(divide="ignore"):
            for i in range(d):
                for j in range(i + 1, d):
                    gap = theta[i] - theta[j]
                    block += np.log(np.abs(2.0 * np.sin(gap / 2.0))) + np.log(np.abs(gap))
        block -= 2.0 * d * sum(t * t for t in theta) / (4.0 * sigma)
        block = block[np.isfinite(block)]
        log_f[filled : filled + len(block)] = block
        filled += len(block)
    if filled == 0:
        return 0.0
    return float(math.exp(lp + _logsumexp(log_f[:filled]) - (d - 1) * math.log(grid_n)))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite, nonempty 1-D array, which it overwrites.

    scipy.special.logsumexp's algorithm, bit for bit: the entries equal to
    the maximum are counted, not summed, so s = sum(exp(a - max)) / count
    over the rest and the result is log1p(s) + log(count) + max. a is
    shifted and exponentiated in place.
    """
    top = a.max()
    at_top = a == top
    count = np.float64(np.count_nonzero(at_top))
    a -= top
    np.exp(a, out=a)
    a[at_top] = 0.0
    return float(np.log1p(a.sum() / count) + np.log(count) + top)
