"""Gelfand-Tsetlin blocks, design deltas for gate sets with known orders,
and the net probe.

Ground truths: the Pauli group is an exact 1-design and fails t = 2 with
delta = 1; the 24-element single-qubit Clifford group (generated projectively
by H and S) is an exact 3-design and fails t = 4; the d = 3 Weyl-Heisenberg
group is a 1-design with delta(2) = 1. The dense moment operators of
tests/oracles.py referee delta; their projector traces count pairs of
standard Young tableaux with at most d rows. The blocks are checked as a
representation: commutation relations, pi(UV) = pi(U) pi(V) with pi(U) taken
by scipy's expm, and traces against the character engine. At d = 2 the blocks
built from Euler angles are checked against those exponentials, against the
moduli of Wigner's small-d matrices in mpmath, and against the Hermitian-log
route that d >= 3 uses.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import udnet.design_tester as dt
from udnet.design_tester import (
    BLOCK_BUDGET,
    ResourceLimitError,
    WeightedGateSet,
    design_deltas,
    gate_set_from_json,
    net_probe,
)
from udnet.lie_core import InvalidDimensionError, InvalidParameterError
from udnet.montecarlo import RngStream
from udnet.weights_chars import _char_batch, _projective_tuples

from oracles import (
    dense_delta,
    gate_set_to_json,
    haar_moment_projector,
    hermitian_logs_schur,
    measure_moment,
    wigner_small_d_mp,
)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _pauli_set() -> WeightedGateSet:
    return WeightedGateSet(2, tuple((0.25, m) for m in (_I, _X, _Y, _Z)))


def _closure(gens) -> list[np.ndarray]:
    """Closure of gens under multiplication, modulo global phase."""

    def seen(u, pool):
        return any(abs(abs(np.trace(u.conj().T @ v)) - 2.0) < 1e-9 for v in pool)

    pool = [_I.copy()]
    frontier = [_I.copy()]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                w = g @ u
                if not seen(w, pool):
                    pool.append(w)
                    nxt.append(w)
        frontier = nxt
    return pool


def _clifford_24() -> list[np.ndarray]:
    """The single-qubit Clifford group, generated by H and S."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    return _closure((h, s))


def _icosahedral_60() -> list[np.ndarray]:
    """The binary icosahedral group modulo sign: unit quaternions of a
    120-degree and a 72-degree rotation generate it."""

    def quaternion(a, b, c, d):
        return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])

    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return _closure((quaternion(0.5, 0.5, 0.5, 0.5), quaternion(phi / 2, 0.5 / phi, 0.5, 0.0)))


def _haar_u(rng: np.random.Generator, k: int, d: int = 2) -> np.ndarray:
    """k Haar-random d x d unitaries: QR of a Ginibre draw, R diagonal made positive."""
    z = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _random_set(rng: np.random.Generator, k: int, d: int) -> WeightedGateSet:
    """k Haar-random gates with random global phases and random weights."""
    mats = _haar_u(rng, k, d) * np.exp(2j * math.pi * rng.random(k))[:, None, None]
    weights = rng.random(k) + 0.05
    return WeightedGateSet(d, tuple(zip(weights / weights.sum(), mats)))


def _full_generators(top) -> np.ndarray:
    """pi(E_ij) for all i, j as a (d, d, dim, dim) array."""
    diag, upper = dt._gt_generators(np.asarray(top))
    d, dim = diag.shape
    e = np.zeros((d, d, dim, dim))
    for k in range(d):
        e[k, k] = np.diag(diag[k])
    for p, (i, j) in enumerate(zip(*np.triu_indices(d, 1))):
        e[i, j], e[j, i] = upper[p], upper[p].T
    return e


def _pi(top, mats, hermitian_logs=dt._hermitian_logs) -> np.ndarray:
    """pi(U) = expm(i pi(G)) for Hermitian logs G of the gates, by default the design tester's."""
    e = _full_generators(top)
    logs = hermitian_logs(np.asarray(mats, dtype=complex))
    return np.stack([scipy.linalg.expm(1j * np.einsum("ij,ijab->ab", g, e)) for g in logs])


_LABELS = [tuple(r) for d in (2, 3, 4) for r in _projective_tuples(d, 2)[1:].tolist()] + [
    (3, 0, -3),
    (4, -2, -2),
    (1, 1, 0, -1, -1),
]


def test_gate_set_validation():
    with pytest.raises(InvalidParameterError, match="weights sum to"):
        WeightedGateSet(2, ((0.5, _I), (0.6, _X)))
    with pytest.raises(InvalidParameterError, match="must be positive"):
        WeightedGateSet(2, ((-0.25, _I), (1.25, _X)))
    with pytest.raises(InvalidParameterError, match="element 0 is not unitary"):
        WeightedGateSet(2, ((1.0, np.array([[1, 1], [0, 1]], dtype=complex)),))
    with pytest.raises(InvalidParameterError, match="element 2 is not unitary"):
        WeightedGateSet(2, ((0.25, _I), (0.25, _X), (0.25, 2 * _Y), (0.25, 3 * _Z)))
    with pytest.raises(InvalidParameterError, match="element 1 must be a 2x2 matrix"):
        WeightedGateSet(2, ((0.5, _I), (0.5, np.eye(3))))
    # NaN > tol is False, so a NaN entry passed a plain unitarity test
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        mat = _X.copy()
        mat[1, 0] = bad
        with pytest.raises(InvalidParameterError, match="element 1 has a non-finite entry"):
            WeightedGateSet(2, ((0.5, _I), (0.5, mat)))
    for flag in (True, np.True_, "1", " 0.5 ", None):
        with pytest.raises(InvalidParameterError, match="weight 0 must be a number"):
            WeightedGateSet(2, ((flag, _I),))
    # a weight that is not a number is named after the positive ones before it
    with pytest.raises(InvalidParameterError, match="weight 1 must be a number, got '0.5'"):
        WeightedGateSet(2, ((0.5, _I), ("0.5", _X)))
    with pytest.raises(InvalidParameterError, match="weight 0 must be positive"):
        WeightedGateSet(2, ((-0.5, _I), ("1.5", _X)))
    # an integer past the float range, as a JSON weight may be, is named too
    for big in (10**400, -(10**400)):
        with pytest.raises(InvalidParameterError, match="weight 1 is too large for a float"):
            WeightedGateSet(2, ((0.5, _I), (big, _X)))
    nu = WeightedGateSet(2, ((np.float32(0.25), _I), (np.float64(0.75), _X)))
    assert nu.weights.tolist() == [0.25, 0.75] and nu.matrices.shape == (2, 2, 2)
    for arr in (nu.weights, nu.matrices):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


@pytest.mark.parametrize(
    "d,t,trace",
    [(2, 1, 1), (2, 2, 2), (2, 3, 5), (3, 3, 6), (2, 4, 14)],
)
def test_projector_trace_counts_tableau_pairs(d, t, trace):
    p = haar_moment_projector(d, t)
    assert p.shape == (d ** (2 * t), d ** (2 * t))
    assert np.trace(p).real == pytest.approx(trace, abs=1e-9)


def test_projector_is_hermitian_idempotent():
    p = haar_moment_projector(2, 2)
    assert abs(p - p.conj().T).max() < 1e-12
    assert abs(p @ p - p).max() < 1e-11


def test_pauli_is_exact_one_design():
    nu = _pauli_set()
    m = measure_moment(nu, 1)
    p = haar_moment_projector(2, 1)
    assert abs(m - p).max() < 1e-12
    assert design_deltas(nu, 1)[-1] <= 1e-12


def test_pauli_fails_two_design_with_delta_one():
    assert design_deltas(_pauli_set(), 2)[-1] == pytest.approx(1.0, abs=1e-10)


def test_trivial_set_has_delta_one():
    nu = WeightedGateSet(2, ((1.0, _I),))
    assert design_deltas(nu, 1)[-1] == pytest.approx(1.0, abs=1e-10)


def test_clifford_group_is_exact_three_design_not_four():
    gates = _clifford_24()
    assert len(gates) == 24
    w = 1.0 / 24.0
    nu = WeightedGateSet(2, tuple((w, g) for g in gates))
    for t in (1, 2, 3):
        assert design_deltas(nu, t)[-1] <= 1e-9
    assert design_deltas(nu, 4)[-1] > 1e-3


def test_delta_matches_dense_operator_norm():
    # independent route: assemble M - P explicitly and take the SVD norm
    nu = _pauli_set()
    assert design_deltas(nu, 2)[-1] == pytest.approx(dense_delta(nu, 2), abs=1e-13)


def test_spin_blocks_match_dense_oracle():
    # Random weighted d = 2 sets with random global phases, plus X (det -1),
    # -I, i*I and rotations within 1e-7 of I and -I (where an arccos of the
    # trace loses half the digits); delta from the spin-ell blocks against
    # the dense SVD norm.
    rng = np.random.default_rng(2007)
    near_i = math.cos(1e-7) * _I + 1j * math.sin(1e-7) * _X
    near_minus_i = -(math.cos(3e-8) * _I + 1j * math.sin(3e-8) * _Z)
    specials = (_X, -_I, 1j * _I, near_i, near_minus_i)
    for size in (1, 2, 3, 4, 5, 7, 9, 12, 16, 20, 25, 30):
        mats = _haar_u(rng, size) * np.exp(2j * math.pi * rng.random(size))[:, None, None]
        for k, g in enumerate(specials[: max(0, size - 1)]):
            mats[k] = g
        weights = rng.random(size) + 0.05
        weights /= weights.sum()
        nu = WeightedGateSet(2, tuple(zip(weights, mats)))
        for t in (1, 2, 3, 4):
            assert abs(design_deltas(nu, t)[-1] - dense_delta(nu, t)) <= 1e-13


@pytest.mark.parametrize(
    "group,strength",
    [(_icosahedral_60, 5), (_clifford_24, 3)],
)
def test_conjugated_group_designs_up_to_t6(group, strength):
    # A group average is a projector: delta is 0 up to the strength and 1 above.
    gates = group()
    assert len(gates) == {5: 60, 3: 24}[strength]
    (v,) = _haar_u(np.random.default_rng(strength), 1)
    nu = WeightedGateSet(2, tuple((1.0 / len(gates), v @ g @ v.conj().T) for g in gates))
    for t in range(1, 7):
        want = 0.0 if t <= strength else 1.0
        assert abs(design_deltas(nu, t)[-1] - want) <= 1e-12


def test_random_sets_monotone_and_exact():
    # Power iteration under-reported delta on such sets, which broke the
    # monotone order in s on about one set in six.
    rng = np.random.default_rng(24)
    for _ in range(20):
        nu = WeightedGateSet(2, tuple((1.0 / 24.0, g) for g in _haar_u(rng, 24)))
        deltas = design_deltas(nu, 6)
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))
        for s in (1, 2, 3, 4):
            assert abs(deltas[s - 1] - dense_delta(nu, s)) <= 1e-13


def test_blocks_match_dense_oracle_at_d3_d4():
    # The Weyl-Heisenberg group is a 1-design and not a 2-design; random
    # sets match the dense SVD norm, including a one-gate set (delta = 1).
    w = np.exp(2j * math.pi / 3)
    shift = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    clock = np.diag([1, w, w * w])
    power = np.linalg.matrix_power
    weyl = [power(shift, a) @ power(clock, b) for a in range(3) for b in range(3)]
    nu = WeightedGateSet(3, tuple((1.0 / 9.0, g) for g in weyl))
    one, two = design_deltas(nu, 2)
    assert one <= 1e-13
    assert abs(two - 1.0) <= 1e-13
    rng = np.random.default_rng(3)
    for d, t, sizes in ((3, 3, (1, 2, 4, 9)), (4, 2, (1, 3, 6))):
        for size in sizes:
            rand = _random_set(rng, size, d)
            deltas = design_deltas(rand, t)
            assert all(a <= b for a, b in zip(deltas, deltas[1:]))
            for s in range(1, t + 1):
                assert abs(deltas[s - 1] - dense_delta(rand, s)) <= 1e-12


def test_gate_chunks_sum_to_the_same_blocks(monkeypatch):
    # _block_norm takes the gates in chunks of _CHUNK // dim^2; one gate
    # per chunk gives the same deltas as one chunk for all, on the Euler
    # route (d = 2) and the log route (d = 3)
    for d, t in ((2, 6), (3, 3)):
        nu = _random_set(np.random.default_rng(8), 9, d)
        whole = design_deltas(nu, t)
        with monkeypatch.context() as patch:
            patch.setattr(dt, "_CHUNK", 1)
            parts = design_deltas(nu, t)
        assert max(abs(a - b) for a, b in zip(whole, parts)) <= 1e-14, d


@pytest.mark.parametrize("top", _LABELS)
def test_gt_generators_satisfy_commutation_relations(top):
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj for every index quadruple
    e = _full_generators(top)
    d = len(top)
    eye = np.eye(d)
    worst = 0.0
    for i, j, k, l in itertools.product(range(d), repeat=4):
        lhs = e[i, j] @ e[k, l] - e[k, l] @ e[i, j]
        rhs = eye[j, k] * e[i, l] - eye[l, i] * e[k, j]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("top", _LABELS)
def test_gt_blocks_are_a_unitary_representation(top):
    # pi(UV) = pi(U) pi(V), pi(U) unitary, tr pi(U) = chi_lambda(U); pi
    # ignores global phases. Includes a gate near -I with repeated phases.
    d = len(top)
    rng = np.random.default_rng(sum(abs(x) for x in top) + 10 * d)
    u, v = _haar_u(rng, 2, d)
    near = -scipy.linalg.expm(1e-7j * np.diag(np.arange(d) - (d - 1) / 2.0)) * np.exp(0.3j)
    p_u, p_v, p_uv, p_near = _pi(top, [u, v, u @ v, near])
    dim = p_u.shape[0]
    assert abs(p_uv - p_u @ p_v).max() <= 1e-12
    for p in (p_u, p_near):
        assert abs(p.conj().T @ p - np.eye(dim)).max() <= 1e-12
    theta = np.angle(np.linalg.eigvals(np.stack([u, v, near])))
    chars = _char_batch(np.array([top]), theta - theta.mean(axis=1, keepdims=True))[0]
    traces = np.trace(np.stack([p_u, p_v, p_near]), axis1=1, axis2=2)
    assert abs(traces - chars).max() <= 1e-12 * dim


def _log_families(d: int) -> dict[str, np.ndarray]:
    """Gates whose Hermitian logs are checked: Haar-random ones, tied
    eigenphases diag(1, ..., 1, omega) conjugated, a gate near -I with
    phases 1e-7 apart, and evenly spread eigenphases, whose largest gap
    is exactly 2 pi/d (the Cayley transform's worst case)."""
    rng = np.random.default_rng(100 + d)
    conj = _haar_u(rng, 3, d)

    def conjugated(phases):
        return np.stack([v @ np.diag(np.exp(1j * np.asarray(phases))) @ v.conj().T for v in conj])

    tied = [conjugated([0.0] * (d - 1) + [w]) for w in (2.0, -3.1, 1e-6)]
    spread = [conjugated(2 * math.pi * np.arange(d) / d + c) for c in (0.0, 0.4, math.pi / d)]
    near = -scipy.linalg.expm(1e-7j * np.diag(np.arange(d) - (d - 1) / 2.0)) * np.exp(0.3j)
    return {
        "haar": _haar_u(rng, 6, d) * np.exp(2j * math.pi * rng.random(6))[:, None, None],
        "tied": np.concatenate(tied),
        "near -I": np.stack([near, conj[0] @ near @ conj[0].conj().T]),
        "spread": np.concatenate(spread),
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_hermitian_logs_match_the_schur_route(d):
    # G is Hermitian and traceless, exp(iG) is U up to a phase, and the
    # pi_lambda blocks equal those of the Schur logs (the logs themselves may
    # differ by a center element, which pi_lambda does not see).
    tops = [(1,) + (0,) * (d - 2) + (-1,), (2,) + (0,) * (d - 2) + (-2,)]
    for family, mats in _log_families(d).items():
        logs = dt._hermitian_logs(mats)
        assert abs(logs - logs.conj().transpose(0, 2, 1)).max() <= 1e-14, family
        assert abs(np.trace(logs, axis1=1, axis2=2)).max() <= 1e-13, family
        for u, g in zip(mats, logs):
            e = scipy.linalg.expm(1j * g)
            phase = np.trace(e.conj().T @ u) / d
            assert abs(e * (phase / abs(phase)) - u).max() <= 1e-13, family
        for top in tops:
            diff = _pi(top, mats) - _pi(top, mats, hermitian_logs_schur)
            assert abs(diff).max() <= 1e-12, (family, top)


def _spin_pi(ell: int, mats: np.ndarray) -> np.ndarray:
    """pi_ell(U_k) of each gate, from the d = 2 route's factors with unit weights."""
    k, dim = len(mats), 2 * ell + 1
    left, right = dt._spin_factors(np.ones(k), dt._spin_phases(mats, ell), np.array([ell, -ell]))
    return np.einsum("akj,kjb->kab", left.reshape(dim, k, dim), right.reshape(k, dim, dim))


@pytest.mark.parametrize("ell", [1, 2, 3, 6])
def test_spin_blocks_from_euler_angles_match_the_schur_logs(ell):
    # pi_ell(U) from the ZYZ angles of U / sqrt(det U) equals expm(i pi(G))
    # for the Schur log G, on gates with random global phases, tied and
    # evenly spread eigenphases, and near -I, and it is multiplicative.
    for family, mats in _log_families(2).items():
        diff = _spin_pi(ell, mats) - _pi((ell, -ell), mats, hermitian_logs_schur)
        assert abs(diff).max() <= 1e-12, family
    u, v = _log_families(2)["haar"][:2]
    p_u, p_v, p_uv = _spin_pi(ell, np.stack([u, v, u @ v]))
    assert abs(p_uv - p_u @ p_v).max() <= 1e-12


@pytest.mark.parametrize(
    "ell,betas",
    [(1, (0.4, 2.0, 3.1)), (2, (1e-9, 1.3)), (7, (0.9, math.pi)), (16, (2.7,)), (40, (1.3,))],
)
def test_spin_rotations_about_y_match_wigner_small_d(ell, betas):
    # |pi_ell(R_y(beta))| against the Jacobi-polynomial formula; the moduli
    # do not depend on the phases of the basis vectors. The basis runs
    # m = -ell..ell (test_spin_basis_runs_m_and_s_from_minus_ell_to_ell).
    for beta in betas:
        c, s = math.cos(beta / 2), math.sin(beta / 2)
        (block,) = _spin_pi(ell, np.array([[[c, -s], [s, c]]], dtype=complex))
        ref = np.abs(np.array(wigner_small_d_mp(ell, beta).tolist(), dtype=complex))
        assert abs(np.abs(block) - ref).max() <= 1e-12, beta


def test_spin_basis_runs_m_and_s_from_minus_ell_to_ell(monkeypatch):
    # _spin_factors reads each label's phases as the band n = -ell..ell, so
    # pi(J_z) = diag(-ell..ell) in the Gelfand-Tsetlin order, and
    # pi(J_y) = P diag(-ell..ell) P^dag with P^dag stored beside P
    for ell in range(1, 65):
        top = np.array([ell, -ell])
        diag, (raise_,) = dt._build_gt_generators(top)
        spins = np.arange(-ell, ell + 1)
        assert np.array_equal(0.5 * (diag[0] - diag[1]), spins), ell
        p, ph = dt._build_spin_basis(top)
        assert np.array_equal(ph, p.conj().T) and ph.flags.c_contiguous
        j_y = -0.5j * (raise_ - raise_.T)
        assert abs((p * spins) @ ph - j_y).max() <= 1e-12 * ell, ell
    # a basis in another order is refused when the label is built
    build = dt._build_gt_generators
    monkeypatch.setattr(dt, "_build_gt_generators", lambda top: build(top)._replace(diag=build(top).diag[::-1]))
    with pytest.raises(RuntimeError, match="not in the order m = -ell..ell"):
        dt._build_spin_basis(np.array([3, -3]))


def test_spin_block_norms_match_the_eigh_route():
    # The d = 2 route against the Hermitian-log route, which d >= 3 uses,
    # called directly at d = 2 on random weighted sets, every label to t = 12
    rng = np.random.default_rng(19)
    for size in (1, 2, 5, 24, 60):
        nu = _random_set(rng, size, 2)
        weights = np.array([w for w, _ in nu.elements])
        mats = np.stack([g for _, g in nu.elements])
        phases, logs = dt._spin_phases(mats, 12), dt._hermitian_logs(mats)
        for ell in range(1, 13):
            top = np.array([ell, -ell])
            spin = dt._block_norm(dt._spin_factors, weights, phases, top, 2 * ell + 1)
            eigh = dt._block_norm(dt._log_factors, weights, logs, top, 2 * ell + 1)
            assert abs(spin - eigh) <= 1e-13, (size, ell)


def test_spin_bases_are_cached_read_only(monkeypatch):
    # P of each d = 2 label is built once per process and kept read-only in
    # the plan LRU, without the generators; no eigh or log runs per gate.
    built = []
    build = dt._build_spin_basis
    monkeypatch.setattr(dt, "_build_spin_basis", lambda top: built.append(tuple(top)) or build(top))

    def refuse(*args):
        raise AssertionError("the d = 2 route took a log or an eigh per gate")

    monkeypatch.setattr(dt, "_hermitian_logs", refuse)
    monkeypatch.setattr(dt, "_log_factors", refuse)
    nu = _random_set(np.random.default_rng(6), 7, 2)
    first = design_deltas(nu, 9)
    labels = [(ell, -ell) for ell in range(1, 10)]
    assert built == labels
    assert design_deltas(nu, 9) == first
    assert built == labels
    basis = dt._spin_basis(np.array([9, -9]))
    cache = dt.kernels._PLANS
    assert cache._plans[("spin", 9, -9)] is basis and basis.nbytes > basis.p.nbytes
    assert [key[0] for key in cache._plans] == ["spin"] * 9
    assert cache.nbytes == sum(entry.nbytes for entry in cache._plans.values()) <= dt.kernels._PLAN_CACHE_BYTES
    assert np.array_equal(basis.ph, basis.p.conj().T)
    for arr in basis:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1


def test_gt_generators_are_cached_read_only(monkeypatch):
    # Each label's generators are built once per process and kept read-only
    # in the plan LRU; a second call on the same labels builds none.
    built = []
    build = dt._build_gt_generators
    monkeypatch.setattr(dt, "_build_gt_generators", lambda top: built.append(tuple(top)) or build(top))
    nu = _random_set(np.random.default_rng(5), 6, 3)
    first = design_deltas(nu, 3)
    labels = [tuple(r) for r in dt._block_rows(3, 3, 6)[0].tolist()]
    assert built == labels
    assert design_deltas(nu, 3) == first
    assert built == labels
    for arr in dt._gt_generators(np.array(labels[0])):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0


def test_delta_is_invariant_under_global_phases():
    rng = np.random.default_rng(12)
    base = _pauli_set()
    phased = WeightedGateSet(
        2,
        tuple(
            (w, np.exp(1j * rng.uniform(0, 2 * math.pi)) * g) for w, g in base.elements
        ),
    )
    for t in (1, 2):
        assert design_deltas(phased, t)[-1] == pytest.approx(design_deltas(base, t)[-1], abs=1e-12)


def test_gate_set_json_round_trip():
    nu = _pauli_set()
    obj = gate_set_to_json(nu)
    assert sorted(obj) == ["d", "elements"]
    back = gate_set_from_json(obj)
    assert back.d == 2
    assert len(back.elements) == 4
    for (wa, ga), (wb, gb) in zip(nu.elements, back.elements):
        assert wa == wb
        assert abs(ga - gb).max() == 0.0


def test_gate_sets_compare_and_hash_by_identity():
    a, b = _pauli_set(), _pauli_set()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert a in {a} and b not in {a}


def test_gate_set_from_json_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        gate_set_from_json({"d": 2})
    with pytest.raises(InvalidParameterError):
        gate_set_from_json({"d": 2, "elements": []})
    identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    for weight in (True, "1", " 0.5 "):
        with pytest.raises(InvalidParameterError, match="weight 0 must be a number"):
            gate_set_from_json({"d": 2, "elements": [{"weight": weight, "matrix": identity}]})
    for bad in (math.nan, math.inf, -math.inf):
        matrix = [[[1, 0], [0, 0]], [[0, 0], [1, bad]]]
        with pytest.raises(InvalidParameterError, match="element 0 has a non-finite entry"):
            gate_set_from_json({"d": 2, "elements": [{"weight": 1.0, "matrix": matrix}]})
    malformed = (
        [[["1", "0"], [0, 0]], [[0, 0], [1, 0]]],  # strings are not numbers
        [[[1, 0], [0, None]], [[0, 0], [1, 0]]],
        [[[True, False], [False, False]], [[False, False], [True, False]]],
        [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]],  # not [re, im] pairs
        [[1, 0], [0, 1]],
        [[[1, 0], [0, 0]], [[0, 0]]],  # ragged
        [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]],
        "identity",
        [],
    )
    for matrix in malformed:
        with pytest.raises(InvalidParameterError, match="element 0: malformed matrix"):
            gate_set_from_json({"d": 2, "elements": [{"weight": 1.0, "matrix": matrix}]})


def _pairs(mat: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in mat.tolist()]


# (case, the element's matrix as a gate file holds it, the message for it,
# the matrix as WeightedGateSet takes it, the message for that)
_MALFORMED_36 = (
    ("ragged row", [[[0.6, 0.0], [0.8, 0.0]], [[0.8, 0.0]]], "element 36: malformed matrix",
     [[0.6, 0.8], [0.8]], "element 36 must be a 2x2 matrix"),
    ("non-number entry", [[[0.6, 0.0], [0.8, None]], [[0.8, 0.0], [-0.6, 0.0]]], "element 36: malformed matrix",
     [[0.6, None], [0.8, -0.6]], "element 36 has a non-finite entry"),
    ("3x3 matrix", _pairs(np.eye(3)), "element 36 must be a 2x2 matrix", np.eye(3), "element 36 must be a 2x2 matrix"),
    ("missing imaginary part", [[[0.6, 0.0], [0.8]], [[0.8, 0.0], [-0.6, 0.0]]], "element 36: malformed matrix",
     [[[0.6, 0.0], [0.8]], [[0.8, 0.0], [-0.6, 0.0]]], "element 36 must be a 2x2 matrix"),
)


@pytest.mark.parametrize("case, pairs, message, mat, mat_message", _MALFORMED_36, ids=[c[0] for c in _MALFORMED_36])
def test_a_malformed_element_among_many_is_named(case, pairs, message, mat, mat_message):
    # the 60 matrices are decoded and stacked by one array call each; when
    # that fails, the per-element path names the element
    gates = _icosahedral_60()
    elements = [{"weight": 1.0 / 60.0, "matrix": _pairs(g)} for g in gates]
    elements[36]["matrix"] = pairs
    with pytest.raises(InvalidParameterError, match=message):
        gate_set_from_json({"d": 2, "elements": elements})
    given = [(1.0 / 60.0, g) for g in gates]
    given[36] = (1.0 / 60.0, mat)
    with pytest.raises(InvalidParameterError, match=mat_message):
        WeightedGateSet(2, tuple(given))
    # an all-bool element is malformed, although numbers around it would
    # turn a stack of it numeric
    elements[36]["matrix"] = [[[True, False], [False, False]], [[False, False], [True, False]]]
    with pytest.raises(InvalidParameterError, match="element 36: malformed matrix"):
        gate_set_from_json({"d": 2, "elements": elements})
    elements[36]["matrix"] = _pairs(gates[36])
    nu = gate_set_from_json({"d": 2, "elements": elements})
    assert np.array_equal(nu.matrices, np.array(gates)) and nu.matrices.flags.c_contiguous


def test_resource_cap(monkeypatch):
    # gates x sum of dim_lambda^3 over the blocks; an over-budget call
    # raises before any generator is fetched or built, or any block is built.
    assert BLOCK_BUDGET == 10**10
    built = []
    monkeypatch.setattr(dt, "_gt_generators", lambda top: built.append(top))
    monkeypatch.setattr(dt, "_spin_basis", lambda top: built.append(top))
    # Pauli, t = 200: 4 x sum_ell (2 ell + 1)^3 = 1.3e10, found from the rows
    with pytest.raises(ResourceLimitError, match="exceeds the budget"):
        design_deltas(_pauli_set(), 200)

    # d = 5, t = 100: the row count alone rules it out; no row is built
    def refuse(d, t):
        raise AssertionError("rows counted or built")

    monkeypatch.setattr(dt, "_projective_tuples", refuse)
    nu = WeightedGateSet(5, ((1.0, np.eye(5, dtype=complex)),))
    with pytest.raises(ResourceLimitError, match="exceeds the budget"):
        design_deltas(nu, 100)
    # t = 10^12: t alone rules it out; the rows are not even counted
    monkeypatch.setattr(dt, "_projective_count", refuse)
    with pytest.raises(ResourceLimitError, match="exceeds the budget"):
        design_deltas(nu, 10**12)
    assert built == []


def test_net_probe_covered_and_uncovered():
    support = [_I, _X, _Y, _Z]
    rep = net_probe(support, 1.9, 400, RngStream(1))
    # 1.9 exceeds the PU(2) diameter sqrt(2): everything is covered
    assert rep.estimate.mean == 1.0
    assert rep.estimate.std_error == 0.0
    assert rep.worst_distance <= math.sqrt(2.0) + 1e-9

    tiny = net_probe([_I], 0.1, 400, RngStream(1))
    assert tiny.estimate.mean < 0.2
    assert tiny.worst_distance > 1.0


def test_net_probe_deterministic():
    a = net_probe([_I, _X], 0.8, 300, RngStream(4))
    b = net_probe([_I, _X], 0.8, 300, RngStream(4))
    assert a.estimate.mean == b.estimate.mean
    assert a.worst_distance == b.worst_distance


def test_net_probe_checks_the_support_dimension():
    with pytest.raises(InvalidDimensionError):
        net_probe([np.eye(1, dtype=complex)], 0.5, 10, RngStream(1))
    with pytest.raises(InvalidParameterError, match="d x d matrix"):
        net_probe([np.complex128(1.0)], 0.5, 10, RngStream(1))
    with pytest.raises(InvalidParameterError, match="2x2 matrix"):
        net_probe([_I, np.eye(3)], 0.5, 10, RngStream(1))
    with pytest.raises(InvalidParameterError, match="support element 3 must be a 2x2 matrix"):
        net_probe([_I, _X, _Y, _Z[:1], _I], 0.5, 10, RngStream(1))
    for bad in (np.nan, np.inf):
        mat = _Z.copy()
        mat[0, 1] = bad
        with pytest.raises(InvalidParameterError, match="support element 1 has a non-finite entry"):
            net_probe([_I, mat], 0.5, 10, RngStream(1))
