"""Acceptance gate: eleven end-to-end checks covering closed-form
reproduction, dual-route kernel agreement, bound dominance on grids,
Monte Carlo tail estimates, orthonormality, design-tester ground truths,
the asymptotic improvement property, and center averaging.

Each check prints one [PASS]/[FAIL] line with its elapsed time and the
measured margins (visible under pytest -s or on failure). Assertions use
the stated numeric tolerances; the quoted runtime budgets are reported
but not asserted, since wall-clock limits depend on the host.

Reference constants come from tests/oracles.py (mpmath, 50 digits).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from udnet import bounds
from udnet.cli import main
from udnet.design_tester import WeightedGateSet, design_deltas
from udnet.kernels import KernelParams, heat_pu_char, heat_pu_poisson, trimming_error
from udnet.kernels import l2_norm_trimmed, l2_norm_untrimmed
from udnet.lie_core import TorusPoint, eps_tilde
from udnet.montecarlo import (
    RngStream,
    gue_opnorm_cdf,
    gue_tail_mc,
    numeric_I0,
    torus_grid,
)
from udnet.weights_chars import (
    HighestWeight,
    _char_batch,
    enumerate_projective_weights,
)

from oracles import center_average_character, character, gue_tail_dense, outside_ball_mass_d2

_T_MIN_REF = 8821.8012195939272822
_DELTA_MAX_REF = 8.0543540037763218739e-11


def _line(idx: int, name: str, ok: bool, t0: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {idx:02d} {name} ({time.time() - t0:.1f}s): {detail}")


def test_acceptance_01_closed_form_reproduction(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--d", "2", "--eps", "0.1", "--out", str(out)])
    rec = json.loads(out.read_text())["results"][0]
    rel_t = abs(rec["t_min"] - _T_MIN_REF) / _T_MIN_REF
    delta = 10.0 ** rec["log10_delta_max_theorem"]
    rel_d = abs(delta - _DELTA_MAX_REF) / _DELTA_MAX_REF
    ok = code == 0 and rel_t < 1e-12 and rel_d < 1e-6
    _line(1, "closed-form reproduction", ok, t0, f"t_min rel {rel_t:.1e}, delta_max rel {rel_d:.1e}")
    assert ok, (rec["t_min"], delta)


def test_acceptance_02_poisson_char_cross_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20260816)
    worst_rel = 0.0
    worst_tb = 0.0
    for d in (2, 3):
        for sigma in (0.05, 0.1, 0.5):
            p = KernelParams(d, sigma)
            # sample where the kernel is O(1) or larger; far out on the torus
            # the character sum sits on its float cancellation floor and a
            # relative comparison is meaningless
            box = min(math.sqrt(sigma), math.pi)
            done = 0
            while done < 100:
                x = TorusPoint(d, tuple(rng.uniform(-box, box, d - 1)))
                if x.min_gap() < 1e-4:
                    continue
                a = heat_pu_char(p, x)
                b = heat_pu_poisson(p, x)
                rel = abs(a.value - b.value) / max(abs(a.value), abs(b.value))
                worst_rel = max(worst_rel, rel)
                worst_tb = max(worst_tb, a.truncation_bound, b.truncation_bound)
                done += 1
    ok = worst_rel <= 1e-7 and worst_tb <= 1e-12
    _line(2, "poisson/char cross-oracle", ok, t0, f"worst rel {worst_rel:.1e}, worst tail {worst_tb:.1e}")
    assert ok


def test_acceptance_03_trimming_dominance():
    t0 = time.time()
    worst = 0.0
    checked = 0
    for d in (2, 3):
        for i in range(10):
            sigma = 10.0 ** (-3.0 + i * (math.log10(0.5) + 3.0) / 9.0)
            threshold = bounds.bound_trim(d, sigma, 1).extras["t_threshold"]
            for j in range(10):
                t = max(1, math.ceil(threshold * (1.0 + 1.5 * j / 9.0)))
                rep = bounds.bound_trim(d, sigma, t)
                err = trimming_error(d, sigma, t, tail_tol=1e-25)
                assert rep.all_ok, (d, sigma, t)
                assert err < rep.value, (d, sigma, t, err, rep.value)
                worst = max(worst, err / rep.value)
                checked += 1
    ok = checked == 200
    _line(3, "trimming bound dominance", ok, t0, f"{checked} points, worst err/bound {worst:.1e}")
    assert ok


def test_acceptance_04_i0_dominance():
    t0 = time.time()
    worst = 0.0
    for d, grid_n in ((2, 512), (3, 128)):
        for i in range(10):
            eps = 0.3 + (2.0 - 0.3) * i / 9.0
            et = eps_tilde(eps)
            for j in range(10):
                sigma = (et * et / 32.0) * (0.1 + 0.9 * j / 9.0)
                rep = bounds.bound_I0(d, sigma, eps)
                direct = numeric_I0(d, sigma, eps, grid_n)
                assert rep.all_ok, (d, sigma, eps)
                assert direct <= rep.value, (d, sigma, eps, direct, rep.value)
                if rep.value > 0.0:
                    worst = max(worst, direct / rep.value)
    _line(4, "dominant-integral bound dominance", True, t0, f"200 points, worst ratio {worst:.1e}")


def test_acceptance_05_outside_ball_bound():
    t0 = time.time()
    details = []
    ok = True
    for sigma in (0.005, 0.01):
        for eps in (0.3, 0.5):
            t = math.ceil(bounds.t_star(2, sigma))
            mass = outside_ball_mass_d2(sigma, t, eps, 800)
            coarse = outside_ball_mass_d2(sigma, t, eps, 400)
            rep = bounds.bound_outside_ball(2, sigma, t, eps, 0.5)
            # the sigma precondition holds only at (0.005, 0.5); elsewhere
            # the inequality is compared against the raw value
            bound = rep.value_unchecked
            good = abs(coarse - mass) <= 0.01 * mass and mass <= bound
            if (sigma, eps) == (0.005, 0.5):
                good = good and rep.all_ok
            ok = ok and good
            details.append(f"(s={sigma},e={eps}): {mass:.4e} (400 nodes {coarse:.4e}) <= {bound:.1e}")
    _line(5, "mass outside the ball", ok, t0, "; ".join(details))
    assert ok


def test_acceptance_06_l2_bounds_and_pythagoras():
    t0 = time.time()
    worst_resid = 0.0
    for d in (2, 3):
        # stay a hair inside the sigma <= 1/(d ln d) precondition so the top
        # grid point does not straddle the boundary after rounding
        hi = 0.999 / (d * math.log(d))
        log_lo = math.log10(5e-3)
        for i in range(10):
            sigma = 10.0 ** (log_lo + i * (math.log10(hi) - log_lo) / 9.0)
            t = max(1, math.ceil(bounds.t_star(d, sigma)))
            rep = bounds.bound_L2_simple(d, sigma)
            assert rep.all_ok, (d, sigma)
            l2t = l2_norm_trimmed(d, sigma, t)
            assert l2t <= rep.value, (d, sigma, t, l2t, rep.value)
            err = trimming_error(d, sigma, min(t, 6), tail_tol=1e-25)
            lo = l2_norm_trimmed(d, sigma, min(t, 6))
            hi_norm = l2_norm_untrimmed(d, sigma)
            resid = abs(err * err + lo * lo - hi_norm * hi_norm) / (hi_norm * hi_norm)
            assert resid <= 1e-10, (d, sigma, resid)
            worst_resid = max(worst_resid, resid)
    _line(6, "l2 bound and pythagoras", True, t0, f"worst residual {worst_resid:.1e}")


def test_acceptance_07_gue_tail():
    # radii whose tails are at least 1e-4, so that a wrong sampler shows:
    # two-sided against the exact tail at d = 2 and against eigvalsh of full
    # Hermitian draws (gue_tail_dense, 2 x 10^5 draws) at d = 4
    t0 = time.time()
    details = []
    ok = True
    for i, (d, r) in enumerate(((2, 1.5), (4, 3.0), (4, 3.5), (2, 2.0))):
        est = gue_tail_mc(d, r, 1_000_000, RngStream(1, stream_id=i))
        if d == 2:
            ref, ref_se = 1.0 - gue_opnorm_cdf(2, r), 0.0
        else:
            ref, ref_se = gue_tail_dense(d, r, 200_000, np.random.default_rng(700 + i))
        tol = 4.0 * math.hypot(est.std_error, ref_se)
        bound = 0.5 * math.exp(-(d / 2.0) * (r / math.sqrt(d) - 2.0) ** 2)
        good = abs(est.mean - ref) <= tol and est.mean <= bound + 3.0 * est.std_error
        ok = ok and good
        details.append(f"(d={d},r={r}): {est.mean:.3e} = {ref:.3e} +- {tol:.1e}, <= {bound:.1e}")
    _line(7, "gaussian-tail of the operator norm", ok, t0, "; ".join(details))
    assert ok


def test_acceptance_08_character_orthonormality():
    t0 = time.time()
    worst = 0.0
    for d, grid_n, t in ((2, 512, 4), (3, 128, 2)):
        ws = enumerate_projective_weights(d, t)
        phi, wts = torus_grid(d, grid_n)
        theta = np.array([TorusPoint(d, tuple(row)).eigenphases() for row in phi])
        chars = _char_batch(np.array([w.lam for w in ws]), theta)
        gram = (chars * wts) @ chars.conj().T
        dev = float(abs(gram - np.eye(len(ws))).max())
        assert dev <= 1e-6, (d, dev)
        worst = max(worst, dev)
    _line(8, "character gram matrix", True, t0, f"max deviation {worst:.1e}")


def _clifford_24() -> list[np.ndarray]:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)

    def seen(u, pool):
        return any(abs(abs(np.trace(u.conj().T @ v)) - 2.0) < 1e-9 for v in pool)

    pool = [np.eye(2, dtype=complex)]
    frontier = list(pool)
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                w = g @ u
                if not seen(w, pool):
                    pool.append(w)
                    nxt.append(w)
        frontier = nxt
    return pool


def test_acceptance_09_design_tester_ground_truths():
    t0 = time.time()
    eye = np.eye(2, dtype=complex)
    paulis = (
        eye,
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    pauli = WeightedGateSet(2, tuple((0.25, m) for m in paulis))
    gates = _clifford_24()
    assert len(gates) == 24
    clifford = WeightedGateSet(2, tuple((1.0 / 24.0, g) for g in gates))
    single = WeightedGateSet(2, ((1.0, eye),))

    d_pauli = design_deltas(pauli, 1)[-1]
    d_cliff = design_deltas(clifford, 4)
    d_single = design_deltas(single, 1)[-1]
    ok = (
        d_pauli <= 1e-9
        and all(v <= 1e-9 for v in d_cliff[:3])
        and d_cliff[3] > 1e-3
        and abs(d_single - 1.0) <= 1e-10
    )
    _line(
        9,
        "design-tester ground truths",
        ok,
        t0,
        f"pauli t=1 {d_pauli:.1e}; clifford {['%.1e' % v for v in d_cliff]}; single {d_single:.10f}",
    )
    assert ok


def test_acceptance_10_asymptotic_improvement():
    # gap(d, eps) = ln delta_max - d^2 ln(eps^{3/2}/d) against the prior
    # scaling. The gap grows without bound as eps shrinks for every d; it
    # crosses zero inside the sampled range for d >= 3 (large constants make
    # the bound lose at moderate eps), so positivity is asserted for all
    # sampled eps at d = 2 and at the small-eps end for every d.
    t0 = time.time()
    eps_grid = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    ok = True
    crossover = {}
    for d in range(2, 7):
        gaps = [
            bounds.theorem2_delta_max(d, e) - d * d * math.log(e**1.5 / d) for e in eps_grid
        ]
        increasing = all(b > a for a, b in zip(gaps, gaps[1:]))
        ok = ok and increasing and gaps[-2] > 0.0 and gaps[-1] > 0.0
        if d == 2:
            ok = ok and all(g > 0.0 for g in gaps)
        crossover[d] = next(e for e, g in zip(eps_grid, gaps) if g > 0.0)
    _line(
        10,
        "improvement over prior scaling",
        ok,
        t0,
        "monotone gap, positive from eps <= " + str(crossover),
    )
    assert ok


def test_acceptance_11_center_averaging():
    t0 = time.time()
    rng = np.random.default_rng(5)
    w_killed = HighestWeight(2, (1, 0))
    w_kept = HighestWeight(2, (2, 0))
    worst_mag = 0.0
    worst_dev = 0.0
    for _ in range(100):
        x = TorusPoint(2, tuple(rng.uniform(-math.pi, math.pi, 1)))
        worst_mag = max(worst_mag, abs(center_average_character(w_killed, x)))
        dev = abs(center_average_character(w_kept, x) - character(w_kept, x))
        worst_dev = max(worst_dev, dev)
    ok = worst_mag <= 1e-10 and worst_dev <= 1e-10
    _line(11, "center averaging", ok, t0, f"killed mag {worst_mag:.1e}, kept dev {worst_dev:.1e}")
    assert ok
