"""Workload inputs, operation lists and correctness checks.

Every input is made here from the workload seed with numpy alone; nothing
is drawn through udnet's own samplers. One operation is one argv list for
``udnet.cli.main``. A pass is the fixed list of operations that makes up one
unit of a workload's work; pass ``i`` of seed ``s`` is always the same.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

THREADS = 1  # udnet --threads of every operation; spans nest on one stack

# -- validate-d3 --------------------------------------------------------------

# One operation per suite of `validate --suite all`, except normalization: at
# the seed commit its Monte Carlo row fails on 10 of 150 seeds at --n 5000 (a
# heavy-tailed estimator whose standard error comes out too small), and a
# benchmark run must not fail. It runs under known-failures.
VALIDATE_SUITES = ("trimming", "i0", "l2", "gue", "poisson-char", "outside-ball", "orthonormality")
# n sizes outside-ball (capped at 20000 for d = 3); the other suites cost the
# same at any n. At 5000 the character-batch share stays visible without the
# 2.9 GB peak of 20000.
VALIDATE_N = {"full": 5000, "smoke": 64}
# Rounds of the suites per pass, each with its own seeds. Two make a pass of
# about 35 s, long enough to even out the swings of a shared host.
VALIDATE_ROUNDS = {"full": 2, "smoke": 1}

# -- kernel-scan --------------------------------------------------------------

# (d, sigma, queries per pass). At these sigma the character route keeps
# 1e3..1e4 terms and enumeration is most of a query. Cheap cells hold more
# queries than costly ones, so a pass of 600 queries takes about 25 s at the
# seed commit. d = 4 and 5 are not here: at the seed commit the character
# route exits 3 ("lost significance") or misses its bound on some points of
# the box at every d = 5 sigma tried (0.6 to 2) and at d = 4, sigma = 0.1,
# 0.2 and 0.4, while d = 3 failed on none of 6300 queries. They run under
# known-failures.
KERNEL_CELLS = {
    "full": ((3, 0.02, 160), (3, 0.03, 140), (3, 0.05, 140), (3, 0.1, 160)),
    "smoke": ((3, 0.02, 2), (3, 0.1, 8)),
}
DEGENERATE_EVERY = 10  # one query in ten has an eigenphase gap below 1e-6

# -- design-delta-d2 ----------------------------------------------------------

# Exact group designs, each conjugated by a seeded Haar-random V and listed in
# a seeded order: the 24-element Clifford group (a 3-design) and the
# 60-element icosahedral group (a 5-design). delta(s) is 0 up to the strength
# and exactly 1 above it, so every output is checked against ground truth.
# (t, groups): the t = 6 call builds the 4096-dimensional operators (the
# default cap) and takes most of a pass; the t = 5 calls are the median
# operation. Haar-random sets are not here: at the seed commit power
# iteration under-reports delta on about one in six of them, which breaks the
# monotone check. They run under known-failures.
DESIGN = {
    "full": ((6, ("clifford",)), (5, ("icosahedral",) * 9), (4, ("clifford", "icosahedral"))),
    "smoke": ((3, ("clifford",)), (2, ("icosahedral",))),
}
DESIGN_STRENGTH = {"clifford": 3, "icosahedral": 5}
MONOTONE_TOL = 1e-9
EXACT_TOL = 1e-9


class Op:
    """One CLI invocation and the check its output must pass."""

    __slots__ = ("label", "argv", "check")

    def __init__(self, label, argv, check):
        self.label = label
        self.argv = argv
        self.check = check


def _parse(code: int, text: str) -> tuple[list | None, str]:
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text)["results"], ""
    except (ValueError, KeyError) as exc:
        return None, f"unparseable output: {exc}"


def _seeds(gen: np.random.Generator, k: int) -> list[str]:
    return [str(int(v)) for v in gen.integers(0, 2**31 - 1, size=k)]


# -- checks -------------------------------------------------------------------


def check_validate(code: int, text: str) -> tuple[bool, str, dict]:
    # Exit code 1 means a check row failed; read the rows to say which.
    rows, why = _parse(0 if code == 1 else code, text)
    if rows is None:
        return False, why, {}
    info = {
        "rows_failed": sum(r["status"] == "fail" for r in rows),
        "rows_skipped": sum(r["status"] == "skipped" for r in rows),
        "retries": sum("retried" in (r.get("note") or "") for r in rows),
    }
    if info["rows_failed"]:
        failed = [f"{r['suite']}:{r['check']}" for r in rows if r["status"] == "fail"]
        return False, "failed rows " + ", ".join(failed), info
    if code != 0:
        return False, f"exit code {code} with no failed row", info
    return True, "", info


def check_kernel(code: int, text: str) -> tuple[bool, str, dict]:
    rows, why = _parse(code, text)
    if rows is None:
        return False, why, {}
    by_form = {r["form"]: r for r in rows}
    if set(by_form) != {"char", "poisson"}:
        return False, f"forms {sorted(by_form)}", {}
    c, q = by_form["char"], by_form["poisson"]
    values = (c["value"], q["value"], c["truncation_bound"], q["truncation_bound"])
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return False, f"non-finite output {values}", {}
    gap = abs(c["value"] - q["value"])
    tol = 1e-9 * max(1.0, abs(c["value"]), abs(q["value"]))
    tol += c["truncation_bound"] + q["truncation_bound"]
    if gap > tol:
        return False, f"char-poisson gap {gap:.3e} > {tol:.3e}", {}
    return True, "", {}


def _deltas(rows: list, t: int) -> list[float] | None:
    if [r.get("s") for r in rows] != list(range(1, t + 1)):
        return None
    deltas = [r.get("delta") for r in rows]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in deltas):
        return None
    return deltas


def _check_monotone(deltas: list[float]) -> str:
    for s, (a, b) in enumerate(zip(deltas, deltas[1:]), start=1):
        if b < a - MONOTONE_TOL:
            return f"delta({s + 1}) = {b!r} < delta({s}) = {a!r}"
    return ""


def make_design_check(t: int, strength: int | None):
    """Checks delta(1..t); `strength` is that of an exact group design, else None.

    A group average is an orthogonal projector, so for a group design delta(s)
    is 0 up to its strength and exactly 1 above it.
    """

    def check(code: int, text: str) -> tuple[bool, str, dict]:
        rows, why = _parse(code, text)
        if rows is None:
            return False, why, {}
        deltas = _deltas(rows, t)
        if deltas is None:
            return False, "rows are not s = 1..t with finite delta", {}
        if strength is not None:
            exact = [0.0 if s <= strength else 1.0 for s in range(1, t + 1)]
            for s, (v, want) in enumerate(zip(deltas, exact), start=1):
                if abs(v - want) > EXACT_TOL:
                    return False, f"delta({s}) = {v!r}, exact value {want}", {}
        why = _check_monotone(deltas)
        return (not why), why, {}

    return check


# -- input generation -----------------------------------------------------------


def haar_u2(gen: np.random.Generator, k: int) -> np.ndarray:
    """k Haar-random 2x2 unitaries: QR of a Ginibre draw, R diagonal made positive."""
    z = gen.standard_normal((k, 2, 2)) + 1j * gen.standard_normal((k, 2, 2))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _closure(gens) -> list[np.ndarray]:
    """The group generated by `gens`, as matrices modulo phase."""
    group = [np.eye(2, dtype=complex)]
    frontier = list(group)
    while frontier:
        found = []
        for u in frontier:
            for g in gens:
                w = g @ u
                if not any(abs(abs(np.trace(w.conj().T @ v)) - 2.0) < 1e-9 for v in group):
                    group.append(w)
                    found.append(w)
        frontier = found
    return group


def _quaternion(a: float, b: float, c: float, d: float) -> np.ndarray:
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def group_elements(name: str) -> list[np.ndarray]:
    """The Clifford group (24 elements, from H and S) or the icosahedral one (60)."""
    if name == "clifford":
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        s = np.array([[1, 0], [0, 1j]], dtype=complex)
        group, size = _closure((h, s)), 24
    else:
        # Unit quaternions of 120- and 72-degree rotations generate the binary
        # icosahedral group.
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        gens = (_quaternion(0.5, 0.5, 0.5, 0.5), _quaternion(phi / 2, 0.5 / phi, 0.5, 0.0))
        group, size = _closure(gens), 60
    if len(group) != size:
        raise RuntimeError(f"{name} group has {len(group)} elements, expected {size}")
    return group


def gate_set_json(mats) -> dict:
    w = 1.0 / len(mats)
    elements = [
        {"weight": w, "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
        for m in mats
    ]
    return {"d": 2, "elements": elements}


def _kernel_query(gen: np.random.Generator, d: int, sigma: float, degenerate: bool) -> list[str]:
    box = math.sqrt(sigma)
    phi = gen.uniform(-box, box, d - 1)
    if degenerate:
        # Put eigenphases theta_0 and theta_1 within 1e-6 of each other (d >= 3).
        gap = float(gen.uniform(1e-9, 5e-7)) * (1 if gen.random() < 0.5 else -1)
        phi[1] = phi[0] + gap
    # Positional digits: argparse takes "-9.3e-05" for an option, not a number.
    return [np.format_float_positional(v, unique=True) for v in phi]


# -- workloads -------------------------------------------------------------------


class Workload:
    """Seeded source of passes. Pass i depends only on (seed, i)."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.threads = str(THREADS)
        self._files = itertools.count()

    def _gen(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(stream,)))

    def warmup(self) -> Op:
        raise NotImplementedError

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def _validate_op(self, suite: str, d: int, n: int, seed: str) -> Op:
        argv = ["validate", "--suite", suite, "--d", str(d), "--n", str(n), "--seed", seed,
                "--threads", self.threads]
        return Op(f"validate {suite} d={d} n={n} seed={seed}", argv, check_validate)

    def _kernel_op(self, gen, d: int, sigma: float, degenerate: bool, seed: str) -> Op:
        phi = _kernel_query(gen, d, sigma, degenerate)
        argv = ["kernel", "--d", str(d), "--sigma", repr(sigma), "--form", "both",
                "--phi", *phi, "--seed", seed, "--threads", self.threads]
        label = f"kernel d={d} sigma={sigma:g}" + (" gap<1e-6" if degenerate else "")
        return Op(label, argv, check_kernel)

    def _kernel_ops(self, gen, cells) -> list[Op]:
        """Queries of (d, sigma, count) cells, shuffled; one in ten near-degenerate."""
        flat = [(d, sigma) for d, sigma, count in cells for _ in range(count)]
        order = gen.permutation(len(flat))
        seeds = _seeds(gen, len(flat))
        return [self._kernel_op(gen, *flat[j], j % DEGENERATE_EVERY == 0, seeds[i])
                for i, j in enumerate(order)]

    def _design_op(self, label: str, mats, t: int, strength: int | None, seed: str) -> Op:
        path = os.path.join(self.workdir, f"set{next(self._files)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gate_set_json(mats), fh)
        argv = ["design-delta", path, "--t", str(t), "--seed", seed, "--threads", self.threads]
        return Op(f"design-delta {label} t={t}", argv, make_design_check(t, strength))


class ValidateD3(Workload):
    name = "validate-d3"

    def warmup(self) -> Op:
        (seed,) = _seeds(self._gen(1_000_000), 1)
        return self._validate_op("poisson-char", 2, 64, seed)

    def make_pass(self, index: int) -> list[Op]:
        suites = VALIDATE_SUITES * VALIDATE_ROUNDS[self.size]
        seeds = _seeds(self._gen(index), len(suites))
        n = VALIDATE_N[self.size]
        return [self._validate_op(suite, 3, n, seed) for suite, seed in zip(suites, seeds)]


class KernelScan(Workload):
    name = "kernel-scan"

    def warmup(self) -> Op:
        gen = self._gen(1_000_000)
        (seed,) = _seeds(gen, 1)
        return self._kernel_op(gen, 3, 0.1, False, seed)

    def make_pass(self, index: int) -> list[Op]:
        return self._kernel_ops(self._gen(index), KERNEL_CELLS[self.size])


class DesignDeltaD2(Workload):
    name = "design-delta-d2"

    def _group_op(self, gen, name: str, t: int, seed: str) -> Op:
        (v,) = haar_u2(gen, 1)
        group = group_elements(name)
        mats = [v @ group[k] @ v.conj().T for k in gen.permutation(len(group))]
        return self._design_op(f"{name} conjugate", mats, t, DESIGN_STRENGTH[name], seed)

    def warmup(self) -> Op:
        gen = self._gen(1_000_000)
        (seed,) = _seeds(gen, 1)
        return self._group_op(gen, "clifford", 2, seed)

    def make_pass(self, index: int) -> list[Op]:
        gen = self._gen(index)
        runs = [(t, name) for t, names in DESIGN[self.size] for name in names]
        seeds = _seeds(gen, len(runs))
        return [self._group_op(gen, name, t, seed) for (t, name), seed in zip(runs, seeds)]


class KnownFailures(Workload):
    """Operations that fail at the seed commit; not a listed workload.

    The listed workloads leave these out because a benchmark run may not
    fail. This one keeps them runnable with the same checks, so that the
    failure rates can be measured again as the program changes.
    """

    name = "known-failures"
    KERNEL_CELLS = ((4, 0.1, 2), (4, 0.2, 4), (4, 0.4, 10), (5, 0.6, 2), (5, 1.0, 4), (5, 2.0, 10))
    RANDOM_SETS, SET_SIZE, RANDOM_T = 20, 24, 4

    def warmup(self) -> Op:
        gen = self._gen(1_000_000)
        (seed,) = _seeds(gen, 1)
        return self._kernel_op(gen, 3, 0.1, False, seed)

    def make_pass(self, index: int) -> list[Op]:
        gen = self._gen(index)
        small = self.size == "smoke"
        seeds = _seeds(gen, self.RANDOM_SETS + 1)
        ops = [self._validate_op("normalization", 3, VALIDATE_N[self.size], seeds[0])]
        cells = KERNEL_CELLS["smoke"] if small else self.KERNEL_CELLS
        ops += self._kernel_ops(gen, cells)
        for k in range(2 if small else self.RANDOM_SETS):
            mats = haar_u2(gen, self.SET_SIZE)
            ops.append(self._design_op(f"haar{self.SET_SIZE}#{k}", mats, 2 if small else self.RANDOM_T,
                                       None, seeds[k + 1]))
        return ops


WORKLOADS = {w.name: w for w in (ValidateD3, KernelScan, DesignDeltaD2, KnownFailures)}
