"""End-to-end CLI behavior: exit codes, output schemas, determinism, seeds.

Every invocation goes through udnet.cli.main with an argv list; stdout is
captured with capsys or redirected to a file with --out. One test runs
``python -m udnet`` in a subprocess.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import udnet
import udnet.cli as cli
import udnet.design_tester as design_tester
import udnet.weights_chars as weights_chars
from udnet import bounds
from udnet.cli import main
from udnet.design_tester import WeightedGateSet
from udnet.kernels import EvalResult, KernelParams, TruncationError, heat_pu_char
from udnet.lie_core import TorusPoint, _min_gaps
from udnet.montecarlo import torus_grid

from oracles import gate_set_to_json


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def _parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# config ")
    cfg = json.loads(lines[0][len("# config ") :])
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return cfg, rows


@pytest.fixture()
def pauli_file(tmp_path):
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    nu = WeightedGateSet(2, tuple((0.25, m) for m in (eye, x, y, z)))
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(gate_set_to_json(nu)))
    return str(path)


# ----------------------------------------------------------------- bounds


def test_bounds_reference_values(capsys):
    assert main(["bounds", "--d", "2", "--eps", "0.1"]) == 0
    doc = _json_out(capsys)
    assert doc["config"]["command"] == "bounds"
    # bounds draws nothing, so it takes and echoes no seed and no worker count
    assert "seed" not in doc["config"] and "threads" not in doc["config"]
    (rec,) = doc["results"]
    assert rec["t_min"] == pytest.approx(8821.8012195939272822, rel=1e-12)
    assert 10.0 ** rec["log10_delta_max_theorem"] == pytest.approx(
        8.0543540037763218739e-11, rel=1e-9
    )
    assert rec["sigma_star"] == pytest.approx(8.8920890816570726446e-6, rel=1e-12)
    assert rec["provenance"] == "closed-form"
    assert "ell" not in rec


def test_bounds_with_delta_reports_ell(capsys):
    assert main(["bounds", "--d", "2", "--eps", "0.1", "--delta", "1e-12"]) == 0
    (rec,) = _json_out(capsys)["results"]
    assert rec["ell"] == pytest.approx(0.85794646742194750448, rel=1e-12)


def test_bounds_past_kappa_float_range(capsys):
    # kappa(d) overflows a float from d = 54; every column is formed from its log
    assert main(["bounds", "--d", "60", "--eps", "0.5", "--delta", "1e-3"]) == 0
    (rec,) = _json_out(capsys)["results"]
    numbers = {k: v for k, v in rec.items() if k != "provenance"}
    assert set(numbers) == {"t_min", *cli._DELTA_MAX_COLUMNS, "sigma_star", "ell"}
    assert all(isinstance(v, float) and math.isfinite(v) for v in numbers.values()), rec


def test_bounds_invalid_eps_exits_2(capsys):
    assert main(["bounds", "--d", "2", "--eps", "3.0"]) == 2
    assert capsys.readouterr().out == ""


def test_bounds_csv_round_trips_floats(capsys, tmp_path):
    assert main(["bounds", "--d", "2", "--eps", "0.1"]) == 0
    rec = _json_out(capsys)["results"][0]
    out = tmp_path / "b.csv"
    assert main(["bounds", "--d", "2", "--eps", "0.1", "--format", "csv", "--out", str(out)]) == 0
    cfg, rows = _parse_csv(out.read_text())
    assert cfg["command"] == "bounds"
    assert len(rows) == 1
    assert float(rows[0]["t_min"]) == rec["t_min"]
    assert float(rows[0]["sigma_star"]) == rec["sigma_star"]


# ----------------------------------------------------------------- kernel


def test_kernel_both_forms(capsys):
    assert main(["kernel", "--d", "2", "--sigma", "0.2", "--phi", "0.3", "--form", "both"]) == 0
    doc = _json_out(capsys)
    recs = {r["form"]: r for r in doc["results"]}
    assert set(recs) == {"char", "poisson"}
    # the command reports the projective kernel; pin it to the library call
    want = heat_pu_char(KernelParams(2, 0.2), TorusPoint(2, (0.3,))).value
    assert recs["char"]["value"] == want
    for r in recs.values():
        assert r["rel_discrepancy"] < 1e-12
    assert recs["char"]["provenance"] == "plancherel"
    assert recs["poisson"]["provenance"] == "closed-form"


@pytest.mark.parametrize(
    "sigma,phi",
    [
        # kernel-scan seed 402, op 1117, and seed 1814, op 22: every gap is
        # above GAP_TOL, and the alternant's imaginary residue (1.878 and
        # 0.236) refused both until the predicted rounding sent them to the
        # h tables
        ("0.02", ["0.00019974227348509843", "-0.00010177542864805988"]),
        ("0.03", ["0.00010596637223464489", "-0.00023315469537671385"]),
    ],
)
def test_kernel_both_forms_agree_near_a_tie_at_the_identity(capsys, sigma, phi):
    assert main(["kernel", "--d", "3", "--sigma", sigma, "--form", "both", "--phi", *phi]) == 0
    rows = _json_out(capsys)["results"]
    assert {r["form"] for r in rows} == {"char", "poisson"}
    assert all(r["rel_discrepancy"] <= 1e-9 for r in rows)


def test_kernel_trim_zero_is_one(capsys):
    assert main(
        ["kernel", "--d", "2", "--sigma", "0.5", "--phi", "0.9", "--trim-t", "0", "--form", "char"]
    ) == 0
    (rec,) = _json_out(capsys)["results"]
    assert rec["value"] == 1.0


def test_kernel_trim_with_poisson_exits_2():
    code = main(
        ["kernel", "--d", "2", "--sigma", "0.5", "--phi", "0.3", "--trim-t", "2", "--form", "poisson"]
    )
    assert code == 2


def test_kernel_phi_length_mismatch_exits_2(capsys):
    # TorusPoint checks the coordinate count; nothing is printed
    for argv in (["--sigma", "0.5", "--phi", "0.3"], ["--sigma", "0.1", "--phi", "0.1"]):
        assert main(["kernel", "--d", "3", *argv]) == 2
        assert capsys.readouterr().out == ""


def test_kernel_bad_sigma_exits_2():
    assert main(["kernel", "--d", "2", "--sigma", "0", "--phi", "0.3"]) == 2


def test_kernel_truncation_maps_to_exit_3(monkeypatch):
    def boom(p, x):
        raise TruncationError("cutoff 99 exceeds budget", 99)

    monkeypatch.setattr(cli, "heat_pu_char", boom)
    code = main(["kernel", "--d", "2", "--sigma", "0.5", "--phi", "0.3", "--form", "char"])
    assert code == 3


def test_kernel_poisson_lost_jitter_exits_3(capsys):
    # the jittered identity at sigma = 1e-12 once printed 1.29e-3 with
    # bound 0.0 and exit 0; the kernel there is near 5e18
    argv = ["kernel", "--d", "2", "--sigma", "1e-12", "--phi", "0", "--form", "poisson"]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


def test_kernel_poisson_cancelled_lattice_sum_exits_3(capsys):
    # a regular point near the identity at d = 5, sigma = 5 once printed
    # -10.98 with bound 1.5e-47 and exit 0; mpmath gives 9.2535
    argv = ["kernel", "--d", "5", "--sigma", "5", "--form", "poisson",
            "--phi", "-0.000849", "-0.000322", "-0.000709", "-0.000192"]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma, phi", [("5e-324", "0.3"), ("1e-310", "0.3"), ("1e-308", "1.5707963")])
def test_kernel_poisson_tiny_sigma_exits_3(capsys, sigma, phi):
    # at sigma = 5e-324 the lattice sum warned "invalid value encountered in
    # subtract" on its way to a refusal, so under -W error it exited 1; at
    # 1e-308 the rate d/(2 sigma) is finite, but the exponent of the largest
    # term overflows
    argv = ["kernel", "--d", "2", "--sigma", sigma, "--phi", phi, "--form", "poisson"]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


_KERNEL_ARGV = ["kernel", "--d", "3", "--sigma", "0.1", "--phi", "0.3", "-0.2", "--form", "both"]


def test_parser_built_once_gives_fresh_output(capsys):
    cli._build_parser.cache_clear()
    assert main(_KERNEL_ARGV) == 0
    fresh = capsys.readouterr().out
    parser = cli._build_parser()
    assert main(["kernel", "--d", "3", "--sigma", "0.1", "--phi", "0.3"]) == 2
    assert main(["kernel", "--d", "3", "--sigma", "0.1", "--phi", "0.3", "x"]) == 2
    assert main(["bounds", "--d", "2", "--eps", "0.1", "--delta", "0.01"]) == 0
    capsys.readouterr()
    assert main(_KERNEL_ARGV) == 0
    assert capsys.readouterr().out == fresh
    assert cli._build_parser() is parser


def test_patched_kernel_takes_effect_after_first_call(capsys, monkeypatch):
    assert main(_KERNEL_ARGV) == 0
    capsys.readouterr()

    def fixed(p, x):
        return EvalResult(0.25, 0.0, 1)

    monkeypatch.setattr(cli, "heat_pu_char", fixed)
    monkeypatch.setattr(cli, "heat_pu_poisson", fixed)
    assert main(_KERNEL_ARGV) == 0
    rows = _json_out(capsys)["results"]
    assert [r["value"] for r in rows] == [0.25, 0.25]


_TOP_USAGE = "usage: udnet [-h] {bounds,kernel,validate,design-delta,sweep} ...\n"
_COMMANDS = "'bounds', 'kernel', 'validate', 'design-delta', 'sweep'"
_KERNEL_USAGE = """\
usage: udnet kernel [-h] [--seed SEED] [--threads THREADS]
                    [--format {json,csv}] [--out OUT] --d D --sigma SIGMA
                    [--trim-t TRIM_T] [--form {char,poisson,both}] --phi PHI
                    [PHI ...]
"""
_VALIDATE_USAGE = """\
usage: udnet validate [-h] [--seed SEED] [--threads THREADS]
                      [--format {json,csv}] [--out OUT] --suite
                      {trimming,i0,outside-ball,l2,gue,orthonormality,poisson-char,normalization,all}
                      [--d D] [--n N]
"""
_TOP_HELP = _TOP_USAGE + """
Design-to-net bounds, trimmed heat kernels, and validation suites.

positional arguments:
  {bounds,kernel,validate,design-delta,sweep}
    bounds              closed-form sufficiency bounds
    kernel              evaluate the projective heat kernel at a torus point
    validate            run internal consistency suites
    design-delta        measure delta(nu, s) for a gate set
    sweep               tabulate a target quantity over a parameter grid

options:
  -h, --help            show this help message and exit
"""
_KERNEL_HELP = _KERNEL_USAGE + """
options:
  -h, --help            show this help message and exit
  --seed SEED           RNG seed, used by validate only (default: 0)
  --threads THREADS     accepted and echoed for existing callers; no command
                        starts a thread (default: machine parallelism)
  --format {json,csv}   output format (default: json; sweep: csv)
  --out OUT             write output to this path instead of stdout
  --d D
  --sigma SIGMA
  --trim-t TRIM_T
  --form {char,poisson,both}
  --phi PHI [PHI ...]   d-1 torus coordinates
"""
_POINT = ["kernel", "--d", "3", "--sigma", "0.1", "--phi", "0.1", "0.2"]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 2, "", _TOP_USAGE + "udnet: error: the following arguments are required: command\n"),
        (["frobnicate"], 2, "",
         _TOP_USAGE + f"udnet: error: argument command: invalid choice: 'frobnicate' (choose from {_COMMANDS})\n"),
        # the top-level parser has no --seed: its value is read as the command
        (["--seed", "1", "kernel"], 2, "",
         _TOP_USAGE + f"udnet: error: argument command: invalid choice: '1' (choose from {_COMMANDS})\n"),
        (_POINT + ["--bogus"], 2, "", _TOP_USAGE + "udnet: error: unrecognized arguments: --bogus\n"),
        (["kernel", "--d", "3", "--phi", "0.1", "0.2", "--sigma", "0.1", "extra"], 2, "",
         _TOP_USAGE + "udnet: error: unrecognized arguments: extra\n"),
        # after --phi a stray word is read as a coordinate
        (_POINT + ["extra"], 2, "",
         _KERNEL_USAGE + "udnet kernel: error: argument --phi: invalid float value: 'extra'\n"),
        (["kernel", "--d", "3", "--s", "0.1", "--phi", "0.1", "0.2"], 2, "",
         _KERNEL_USAGE + "udnet kernel: error: ambiguous option: --s could match --seed, --sigma\n"),
        (["validate", "--suite", "nope"], 2, "",
         _VALIDATE_USAGE + "udnet validate: error: argument --suite: invalid choice: 'nope' (choose from"
         " 'trimming', 'i0', 'outside-ball', 'l2', 'gue', 'orthonormality', 'poisson-char',"
         " 'normalization', 'all')\n"),
        (["kernel", "--d", "3", "--sigma", "x", "--phi", "0.1", "0.2"], 2, "",
         _KERNEL_USAGE + "udnet kernel: error: argument --sigma: invalid float value: 'x'\n"),
        (["-h"], 0, _TOP_HELP, ""),
        (["kernel", "-h"], 0, _KERNEL_HELP, ""),
        (["kernel", "--d", "3", "-h", "--bogus"], 0, _KERNEL_HELP, ""),
    ],
    ids=["no-argv", "unknown-command", "option-before-command", "bogus-option", "extra-word",
         "extra-phi", "ambiguous-abbreviation", "bad-suite", "sigma-not-a-float", "help", "kernel-help",
         "kernel-help-first"],
)
def test_argv_errors_and_help(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_abbreviated_option_reads_as_the_full_one(capsys):
    assert main(["kernel", "--d", "3", "--sig", "0.1", "--phi", "0.1", "0.2"]) == 0
    abbreviated = capsys.readouterr()
    assert main(_POINT) == 0
    assert capsys.readouterr() == abbreviated
    assert abbreviated.err == ""


# ----------------------------------------------------------- design-delta


def test_design_delta_pauli(capsys, pauli_file):
    assert main(["design-delta", pauli_file, "--t", "2"]) == 0
    doc = _json_out(capsys)
    assert doc["config"]["d"] == 2
    rows = {r["s"]: r for r in doc["results"]}
    assert rows[1]["delta"] <= 1e-12
    # delta = 0 meets every delta_max, but s = 1 is far below t_min(2, 2) = 253
    assert rows[1]["implied_eps"] == "none"
    assert rows[2]["delta"] == pytest.approx(1.0, abs=1e-10)
    assert rows[2]["implied_eps"] == "none"


def test_implied_eps_needs_both_theorem_conditions():
    assert 253 < bounds.theorem1_t_min(2, 2.0) < 254
    assert cli._implied_eps(2, 0.0, 253) is None
    assert cli._implied_eps(2, 0.5, 10**9) is None  # above delta_max(2, 2)
    # the reported eps meets both conditions and no smaller eps does
    cases = ((0.0, 254, "s"), (1e-300, 1000, "s"), (math.exp(-20.0), 10**6, "delta"))
    for delta, s, binding in cases:
        eps = cli._implied_eps(2, delta, s)
        log_delta = math.log(delta) if delta > 0 else -math.inf
        assert bounds.theorem2_delta_max(2, eps) >= log_delta
        assert s >= bounds.theorem1_t_min(2, eps)
        below = eps * (1.0 - 1e-9)
        if binding == "s":
            assert s < bounds.theorem1_t_min(2, below)
        else:
            assert bounds.theorem2_delta_max(2, below) < log_delta


def test_design_delta_resource_cap_exits_4(pauli_file, monkeypatch):
    # The block budget is checked for the largest t before any block is built.
    built = []
    monkeypatch.setattr(design_tester, "_gt_generators", lambda top: built.append(top))
    assert main(["design-delta", pauli_file, "--t", "200"]) == 4
    assert built == []


def test_design_delta_bad_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["design-delta", str(bad), "--t", "1"]) == 2


def test_design_delta_missing_file_exits_2(tmp_path):
    assert main(["design-delta", str(tmp_path / "nope.json"), "--t", "1"]) == 2


def test_design_delta_empty_elements_exits_2(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"d": 2, "elements": []}))
    assert main(["design-delta", str(f), "--t", "1"]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"d": 2, "elements": 5},
        {"d": 2, "elements": [{"weight": "abc", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        {"d": 2, "elements": [{"weight": None, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        {"d": 2, "elements": [{"weight": 1.0, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}]},
        {"d": 2, "elements": [{"weight": True, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        # json reads NaN, which a unitarity test of the form err > tol lets through
        {"d": 2, "elements": [{"weight": 1.0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [math.nan, 0]]]}]},
        # once an OverflowError traceback and exit 1
        {"d": 2, "elements": [{"weight": 0.5, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
                              {"weight": 10**400, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
    ],
    ids=["elements-not-a-list", "weight-not-a-number", "weight-null", "ragged-matrix", "weight-true", "nan-entry",
         "weight-too-large"],
)
def test_design_delta_malformed_gate_set_exits_2(capsys, tmp_path, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert main(["design-delta", str(f), "--t", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_json_file_with_an_unreadable_integer_exits_2(capsys, tmp_path):
    # json reads an integer of more than 4,300 digits as a ValueError, not a
    # JSONDecodeError; it once ended in a traceback and exit 1
    f = tmp_path / "long.json"
    f.write_text('{"d": 2, "elements": [{"weight": 1' + "0" * 5000 + ', "matrix": []}]}')
    assert main(["design-delta", str(f), "--t", "1"]) == 2
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------------ seeds

# a suite that draws nothing: its row is skipped on the sigma-condition
_VALIDATE_SKIP = ["validate", "--suite", "outside-ball", "--d", "2"]


def test_seed_resolution(capsys, monkeypatch):
    # --seed, else 0
    monkeypatch.delenv("UDNET_SEED", raising=False)
    assert main(_VALIDATE_SKIP) == 0
    assert _json_out(capsys)["config"]["seed"] == 0
    assert main(_VALIDATE_SKIP + ["--seed", "7"]) == 0
    assert _json_out(capsys)["config"]["seed"] == 7


def test_env_seed_is_not_read(capsys, monkeypatch):
    # UDNET_SEED, parseable or not, leaves validate at exit 0 and seed 0
    for env in ("42", "not-a-number"):
        monkeypatch.setenv("UDNET_SEED", env)
        assert main(_VALIDATE_SKIP) == 0
        assert _json_out(capsys)["config"]["seed"] == 0


def test_out_of_range_seed_exits_2(capsys):
    # RngStream takes 0 <= seed < 2^64; the flag obeys its rule
    for seed in ("-1", str(1 << 64)):
        assert main(_VALIDATE_SKIP + ["--seed", seed]) == 2
        assert main(["validate", "--suite", "poisson-char", "--d", "2", "--seed", seed]) == 2
    assert capsys.readouterr().out == ""
    top = (1 << 64) - 1
    assert main(_VALIDATE_SKIP + ["--seed", str(top)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == top


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--threads", "2"]])
def test_bounds_and_sweep_take_no_seed_or_threads(capsys, monkeypatch, tmp_path, flag):
    # they draw nothing and run one loop; UDNET_SEED is not read either
    monkeypatch.setenv("UDNET_SEED", "not-a-number")
    spec = _write_spec(tmp_path, "tm.json", {"target": "t_min", "axes": {"eps": [0.1]}, "fixed": {"d": 2}})
    for argv in (["bounds", "--d", "2", "--eps", "0.5"], ["sweep", spec]):
        assert main(argv + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("udnet: error: unrecognized arguments: " + " ".join(flag) + "\n")
        assert main(argv) == 0
        out = capsys.readouterr().out
        cfg = _parse_csv(out)[0] if argv[0] == "sweep" else json.loads(out)["config"]
        assert "seed" not in cfg and "threads" not in cfg


# --------------------------------------------------------------- validate


def test_validate_single_suite_passes(capsys):
    assert main(["validate", "--suite", "gue", "--d", "2", "--n", "4000", "--format", "csv"]) == 0
    cfg, rows = _parse_csv(capsys.readouterr().out)
    assert cfg["command"] == "validate"
    assert rows
    assert all(r["suite"] == "gue" for r in rows)
    assert all(r["status"] in {"pass", "skipped"} for r in rows)


def test_validate_failure_exits_1(capsys, monkeypatch):
    from udnet.kernels import heat_pu_poisson_batch as real

    def off(p, theta):
        vals, bounds, terms = real(p, theta)
        return vals * 1.5, bounds, terms

    monkeypatch.setattr(cli, "heat_pu_poisson_batch", off)
    code = main(["validate", "--suite", "poisson-char", "--d", "2", "--n", "100", "--format", "csv"])
    assert code == 1
    _, rows = _parse_csv(capsys.readouterr().out)
    assert any(r["status"] == "fail" for r in rows)


def test_validate_skips_unsupported_dimension(capsys):
    assert main(["validate", "--suite", "i0", "--d", "4", "--n", "100", "--format", "csv"]) == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert rows
    assert all(r["status"] == "skipped" for r in rows)


def _validate_rows(capsys, suite, d):
    assert main(["validate", "--suite", suite, "--d", str(d), "--n", "200", "--seed", "1", "--threads", "1"]) in (0, 1)
    return _json_out(capsys)["results"]


def _apart_nodes(d, grid):
    """Nodes of torus_grid(d, grid) whose eigenphases are pairwise apart. A
    gap between phases on the grid is 0 or at least pi / grid."""
    phi, _ = torus_grid(d, grid)
    theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
    return int(np.count_nonzero(_min_gaps(theta) > 0.5 * math.pi / grid))


# nodes where two eigenphases meet, on the grids of the orthonormality rows
# and then of the exact normalization rows
_MET = {(2, 19): 1, (3, 13): 13, (4, 15): 1191, (5, 17): 26401, (2, 31): 1, (3, 75): 75, (4, 13): 877, (5, 15): 17865}


@pytest.mark.parametrize("d, grid", list(_MET))
def test_torus_rows_leave_out_the_nodes_where_eigenphases_meet(d, grid):
    # the exact Weyl density is 0 there; in floats their weights are at
    # most 6e-33, against 7.7e-15 for the smallest node kept
    _, weights = torus_grid(d, grid)
    theta, kept = cli._torus_rows(d, grid)
    met = _MET[d, grid]
    assert len(weights) - len(kept) == met and len(theta) == len(kept) == _apart_nodes(d, grid)
    assert np.all(_min_gaps(theta) > 0.5 * math.pi / grid)
    assert math.fsum(weights) - math.fsum(kept) <= met * 1e-32
    assert kept.min() > 1e-15


@pytest.mark.parametrize("d, grid", [(2, 19), (3, 13), (4, 15), (5, 17)])
def test_orthonormality_row_runs_on_the_exact_grid(capsys, d, grid):
    (row,) = _validate_rows(capsys, "orthonormality", d)
    assert row["check"].endswith(f",grid={grid}") and row["n"] == grid ** (d - 1) - _MET[d, grid]
    assert row["status"] == "pass" and row["provenance"] == "quadrature"
    # the tolerance is the rounding of a sum over the nodes, at least
    # m u, where the Gram diagonal's sum of w |chi|^2 is 1
    assert row["n"] * 2.0**-53 <= row["bound"] < 1e-10
    assert row["measured"] <= row["bound"]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orthonormality_row_fails_on_a_dropped_weight(capsys, monkeypatch, d):
    real = weights_chars._char_sum_plan
    monkeypatch.setattr(weights_chars, "_char_sum_plan", lambda lams, coeff: real(lams[:-1], coeff[:, :-1]))
    (row,) = _validate_rows(capsys, "orthonormality", d)
    assert row["status"] == "fail" and row["measured"] == pytest.approx(1.0)


def test_orthonormality_row_fails_on_a_wrong_weyl_density(capsys, monkeypatch):
    real = cli.torus_grid

    def cubed(d, grid_n):
        # |Delta|^3 in place of |Delta|^2
        phi, w = real(d, grid_n)
        theta = np.concatenate([phi, -phi.sum(axis=1, keepdims=True)], axis=1)
        i, j = np.triu_indices(d, 1)
        return phi, w * np.prod(2.0 * np.abs(np.sin((theta[:, i] - theta[:, j]) / 2.0)), axis=1)

    monkeypatch.setattr(cli, "torus_grid", cubed)
    (row,) = _validate_rows(capsys, "orthonormality", 3)
    assert row["status"] == "fail" and row["measured"] > 0.1


@pytest.mark.parametrize("d, check", [
    (2, "exact sigma=0.2,t=14,grid=31"),
    (3, "exact sigma=0.2,t=35,grid=75"),
    (4, "exact sigma=1,t=3,grid=13"),
    (5, "exact sigma=1,t=3,grid=15"),
])
def test_exact_normalization_row_passes(capsys, d, check):
    (exact,) = _validate_rows(capsys, "normalization", d)
    assert (exact["check"], exact["status"], exact["provenance"]) == (check, "pass", "quadrature")
    grid = int(check.rsplit("=", 1)[1])
    assert exact["n"] == grid ** (d - 1) - _MET[d, grid] == _apart_nodes(d, grid)
    assert exact["measured"] <= exact["bound"] < 1e-9


def test_exact_normalization_row_fails_one_grid_side_short(capsys, monkeypatch):
    # at d = 2 the t = 14 kernel's top terms alias on 30 nodes
    real = cli._exact_grid_n
    monkeypatch.setattr(cli, "_exact_grid_n", lambda d, spread: real(d, spread) - 1)
    (exact,) = _validate_rows(capsys, "normalization", 2)
    assert exact["check"] == "exact sigma=0.2,t=14,grid=30"
    assert exact["status"] == "fail" and exact["measured"] > 1e-9


def test_quadrature_rows_over_the_node_budget_skip(capsys):
    # d = 6 needs 19^5 nodes for the Gram matrix, over the 2^20 budget
    (row,) = _validate_rows(capsys, "orthonormality", 6)
    assert (row["check"], row["status"], row["provenance"]) == ("d=6", "skipped", "quadrature")
    assert row["note"] == "resource-capped: torus grid of 19^5 = 2476099 nodes exceeds the node budget 1048576"


def test_suites_over_budget_are_skipped(capsys):
    # at d = 8 the l2 suite's untrimmed norm needs 142,455,245 weights and
    # poisson-char's kernel 8,844,916, over the 2,000,000 term budget: each
    # suite stands as one skipped row and the run goes on
    argv = ["validate", "--suite", "all", "--d", "8", "--n", "2000", "--seed", "1", "--threads", "1"]
    assert main(argv) == 0
    rows = _json_out(capsys)["results"]
    capped = {r["suite"]: r for r in rows if r["note"].startswith("resource-capped: ")}
    assert sorted(capped) == ["l2", "normalization", "orthonormality", "poisson-char"]
    for suite in ("l2", "poisson-char"):
        assert (capped[suite]["check"], capped[suite]["status"]) == ("d=8", "skipped")
        assert "over the term budget 2000000" in capped[suite]["note"]
    assert [r["status"] for r in rows if r["suite"] == "gue"] == ["pass", "pass", "skipped"]


def test_trimming_rows_never_pass_on_zero(capsys):
    # trimming_error reads 0.0 when the whole tail is below its resolution;
    # such a row is skipped with a note instead of passing
    for d in (2, 3, 4):
        assert main(["validate", "--suite", "trimming", "--d", str(d), "--n", "100"]) == 0
        rows = _json_out(capsys)["results"]
        assert rows
        for r in rows:
            assert r["status"] != "pass" or r["measured"] > 0.0
            if r["measured"] == 0.0:
                assert r["status"] == "skipped"
                assert r["note"] == "below resolution sqrt(tail_tol) = 1e-06"


def test_validate_rejects_tiny_n():
    assert main(["validate", "--suite", "gue", "--n", "1"]) == 2


def test_validate_takes_no_gamma_or_eta(capsys):
    # the trimming rows use gamma = 0.5 and the outside-ball row eta_min(d)
    for extra in (["--gamma", "0.5"], ["--eta", "1e-3"]):
        assert main(["validate", "--suite", "gue", "--d", "2", "--n", "2000", *extra]) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("udnet: error: unrecognized arguments: " + " ".join(extra) + "\n")
    assert main(["validate", "--suite", "outside-ball", "--d", "2"]) == 0
    assert not {"gamma", "eta"} & set(_json_out(capsys)["config"])


_SKIP_RES = "skipped"  # the row's trimming error reads 0.0, below its resolution

_SUITE_ALL_ROWS = {
    2: [
        ("trimming", "sigma=0.01,t=77", _SKIP_RES),
        ("trimming", "sigma=0.05,t=31", _SKIP_RES),
        ("trimming", "sigma=0.2,t=14", _SKIP_RES),
        ("trimming", "sigma=0.5,t=8", _SKIP_RES),
        ("i0", "eps=0.5,sigma=0.002394,grid=512", "pass"),
        ("i0", "eps=0.5,sigma=0.007901,grid=512", "pass"),
        ("i0", "eps=1.5,sigma=0.02697,grid=512", "pass"),
        ("i0", "eps=1.5,sigma=0.089,grid=512", "pass"),
        ("outside-ball", "sigma=0.01,eps=0.5,t=77", "skipped"),
        ("l2", "pythagoras sigma=0.05,t=31", _SKIP_RES),
        ("l2", "pythagoras sigma=0.2,t=14", _SKIP_RES),
        ("l2", "pythagoras sigma=1,t=5", "pass"),
        ("l2", "simple-bound sigma=0.2164,t=13", "pass"),
        ("l2", "simple-bound sigma=0.7213,t=6", "pass"),
        ("gue", "tail r=4.24264", "pass"),
        ("gue", "tail r=5.65685", "pass"),
        ("gue", "cdf r=1.5", "pass"),
        ("orthonormality", "gram l1<=8,grid=19", "pass"),
        ("poisson-char", "sigma=0.1,points=10", "pass"),
        ("normalization", "exact sigma=0.2,t=14,grid=31", "pass"),
    ],
    3: [
        ("trimming", "sigma=0.01,t=191", _SKIP_RES),
        ("trimming", "sigma=0.05,t=78", _SKIP_RES),
        ("trimming", "sigma=0.2,t=35", _SKIP_RES),
        ("trimming", "sigma=0.5,t=21", _SKIP_RES),
        ("i0", "eps=1,sigma=0.01028,grid=128", "pass"),
        ("i0", "eps=1,sigma=0.03393,grid=128", "pass"),
        ("outside-ball", "sigma=0.05,eps=1,t=78", "skipped"),
        ("l2", "pythagoras sigma=0.05,t=78", _SKIP_RES),
        ("l2", "pythagoras sigma=0.2,t=35", _SKIP_RES),
        ("l2", "pythagoras sigma=1,t=14", _SKIP_RES),
        ("l2", "simple-bound sigma=0.09102,t=55", "pass"),
        ("l2", "simple-bound sigma=0.3034,t=28", "pass"),
        ("gue", "tail r=5.19615", "pass"),
        ("gue", "tail r=6.9282", "pass"),
        ("gue", "cdf", "skipped"),
        ("orthonormality", "gram l1<=4,grid=13", "pass"),
        ("poisson-char", "sigma=0.1,points=10", "pass"),
        ("normalization", "exact sigma=0.2,t=35,grid=75", "pass"),
    ],
    4: [
        ("trimming", "sigma=0.2,t=68", _SKIP_RES),
        ("trimming", "sigma=0.5,t=40", _SKIP_RES),
        ("i0", "d=4", "skipped"),
        ("outside-ball", "d=4", "skipped"),
        ("l2", "pythagoras sigma=1,t=5", "pass"),
        ("l2", "simple-bound", "skipped"),
        ("gue", "tail r=6", "pass"),
        ("gue", "tail r=8", "pass"),
        ("gue", "cdf", "skipped"),
        ("orthonormality", "gram l1<=4,grid=15", "pass"),
        ("poisson-char", "sigma=2,points=10", "pass"),
        ("normalization", "exact sigma=1,t=3,grid=13", "pass"),
    ],
}


@pytest.mark.parametrize("d", sorted(_SUITE_ALL_ROWS))
def test_validate_suite_all_rows(capsys, d):
    argv = ["validate", "--suite", "all", "--d", str(d), "--n", "2000", "--seed", "1"]
    assert main(argv + ["--threads", "1"]) == 0
    rows = _json_out(capsys)["results"]
    assert [(r["suite"], r["check"], r["status"]) for r in rows] == _SUITE_ALL_ROWS[d]
    for r in rows:
        # a skip on a measured 0.0, not on the dimension, names the resolution
        if r["status"] == "skipped" and r["measured"] is not None:
            assert r["note"] == "below resolution sqrt(tail_tol) = 1e-06"
    # a bound whose preconditions fail does not pass; the row draws nothing
    (ball,) = [r for r in rows if r["suite"] == "outside-ball"]
    if d <= 3:
        assert ball["note"] == "preconditions off: sigma-condition" and ball["measured"] is None
    else:
        # the rows checked only up to d = 3 skip on the dimension, as the i0
        # row does: no budget is involved
        notes = {(r["suite"], r["check"]): r["note"] for r in rows}
        for key in (("i0", f"d={d}"), ("outside-ball", f"d={d}"), ("l2", "simple-bound")):
            assert notes[key] == "unsupported-dimension", key


def test_validate_starts_no_thread(capsys, monkeypatch):
    # --threads is accepted and echoed, but no command starts a thread: a
    # multi-chunk gue run at --threads 4 gives the --threads 1 results
    argv = ["validate", "--suite", "gue", "--d", "3", "--n", "70000", "--seed", "1", "--threads"]
    assert main(argv + ["1"]) == 0
    serial = _json_out(capsys)

    def no_start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    assert main(argv + ["4"]) == 0
    doc = _json_out(capsys)
    assert doc["config"]["threads"] == 4
    assert doc["results"] == serial["results"]


def test_gue_rows_do_not_depend_on_the_suites_before_them(capsys):
    # the gue rows draw from their own streams 0, 1, 2 of the seed, whether
    # or not the suites before them ran; at d = 2 the cdf row reads a
    # nonzero tail, so a shifted stream shows in its measured value
    argv = ["--d", "2", "--n", "20000", "--seed", "1", "--threads", "1"]
    assert main(["validate", "--suite", "gue"] + argv) == 0
    alone = _json_out(capsys)["results"]
    assert main(["validate", "--suite", "all"] + argv) == 0
    in_all = [r for r in _json_out(capsys)["results"] if r["suite"] == "gue"]
    assert in_all == alone
    assert alone[-1]["check"] == "cdf r=1.5" and alone[-1]["measured"] > 0.0


def test_gue_row_fails_on_a_failed_first_draw(capsys, monkeypatch):
    real = cli.gue_tail_mc
    draws = []

    def first_fails(d, r, n, rng):
        draws.append((rng.seed, rng.stream_id))
        est = real(d, r, n, rng)
        if len(draws) == 1:
            return type(est)(1.0, est.std_error, est.n)
        return est

    monkeypatch.setattr(cli, "gue_tail_mc", first_fails)
    assert main(["validate", "--suite", "gue", "--d", "3", "--n", "2000", "--seed", "4"]) == 1
    rows = _json_out(capsys)["results"]
    assert [(r["status"], r["measured"], r["note"]) for r in rows[:2]] == [("fail", 1.0, ""), ("pass", 0.0, "")]
    # one draw per row, from the row's own stream: no second draw
    assert draws == [(4, 0), (4, 1)]


# ------------------------------------------------------------------ sweep


def _write_spec(tmp_path, name, spec):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


def test_sweep_theorem2_rows_and_default_csv(capsys, tmp_path):
    spec = _write_spec(
        tmp_path,
        "th2.json",
        # d = 60 is past the float range of kappa(d), which starts at d = 54
        {"target": "theorem2_delta_max", "axes": {"d": [2, 60], "eps": [0.1, 0.3, 1.0]}},
    )
    assert main(["sweep", spec]) == 0
    cfg, rows = _parse_csv(capsys.readouterr().out)
    assert cfg["format"] == "csv"
    assert len(rows) == 6
    for r in rows:
        assert all(math.isfinite(float(r[col])) for col in cli._DELTA_MAX_COLUMNS)
        # the kappa relaxation never beats the full theorem
        assert float(r["log10_delta_max_kappa"]) >= float(r["log10_delta_max_theorem"])
    assert [(r["d"], float(r["eps"])) for r in rows] == [(d, e) for d in ("2", "60") for e in (0.1, 0.3, 1.0)]


def test_sweep_trimming_bound_holds_rowwise(capsys, tmp_path):
    spec = _write_spec(
        tmp_path,
        "trim.json",
        {
            "target": "trimming_error",
            "axes": {"sigma": [0.2, 0.5, 1.0]},
            "fixed": {"d": 2, "t": "auto", "gamma": 0.5},
        },
    )
    assert main(["sweep", spec]) == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    for r in rows:
        assert float(r["trimming_error"]) <= float(r["bound_trim"])
        assert r["bound_ok"] == "true"


def test_sweep_empty_axis_yields_header_only(capsys, tmp_path):
    spec = _write_spec(
        tmp_path, "empty.json", {"target": "t_min", "axes": {"eps": []}, "fixed": {"d": 2}}
    )
    assert main(["sweep", spec]) == 0
    cfg, rows = _parse_csv(capsys.readouterr().out)
    assert rows == []


def test_sweep_spec_validation_exits_2(tmp_path):
    bad_target = _write_spec(
        tmp_path, "a.json", {"target": "nope", "axes": {"eps": [0.1]}, "fixed": {"d": 2}}
    )
    assert main(["sweep", bad_target]) == 2
    overlap = _write_spec(
        tmp_path,
        "b.json",
        {"target": "t_min", "axes": {"eps": [0.1]}, "fixed": {"d": 2, "eps": 0.5}},
    )
    assert main(["sweep", overlap]) == 2
    missing = _write_spec(tmp_path, "c.json", {"target": "t_min", "axes": {"eps": [0.1]}})
    assert main(["sweep", missing]) == 2


def test_sweep_bound_i0_rows(capsys, tmp_path):
    spec = _write_spec(
        tmp_path,
        "i0.json",
        {"target": "bound_I0", "axes": {"sigma": [1e-3, 2e-3]}, "fixed": {"d": 2, "eps": 0.5}},
    )
    assert main(["sweep", spec]) == 0
    cfg, rows = _parse_csv(capsys.readouterr().out)
    assert cfg["target"] == "bound_I0"
    assert list(rows[0]) == ["d", "sigma", "eps", "log10_bound_I0", "bound_ok", "provenance"]
    assert [float(r["sigma"]) for r in rows] == [1e-3, 2e-3]
    for r in rows:
        rep = bounds.bound_I0(2, float(r["sigma"]), 0.5)
        assert float(r["log10_bound_I0"]) == rep.log_value_unchecked / math.log(10.0)
        assert r["bound_ok"] == ("true" if rep.all_ok else "false")
        assert r["provenance"] == "closed-form"


def test_sweep_json_format(capsys, tmp_path):
    spec = _write_spec(
        tmp_path, "tm.json", {"target": "t_min", "axes": {"eps": [0.1]}, "fixed": {"d": 2}}
    )
    assert main(["sweep", spec, "--format", "json"]) == 0
    doc = _json_out(capsys)
    assert doc["results"][0]["t_min"] == pytest.approx(8821.8012195939272822, rel=1e-12)


# ------------------------------------------------------------ determinism


def test_outputs_are_byte_identical_across_runs_and_threads(tmp_path):
    spec = _write_spec(
        tmp_path,
        "l2.json",
        {"target": "l2_norms", "axes": {"sigma": [0.3, 0.5]}, "fixed": {"d": 2, "t": 3}},
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["sweep", spec, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    # the config echo carries the output path, so compare past the first line
    rows = [o.split(b"\n", 1)[1] for o in outs]
    assert rows[0] == rows[1]


def test_validate_byte_identical_with_fixed_seed(tmp_path):
    a = tmp_path / "v1.csv"
    b = tmp_path / "v2.csv"
    args = ["validate", "--suite", "gue", "--d", "2", "--n", "3000", "--seed", "5", "--format", "csv"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes().split(b"\n", 1)[1] == b.read_bytes().split(b"\n", 1)[1]


def test_out_file_leaves_stdout_empty(capsys, tmp_path):
    out = tmp_path / "o.json"
    assert main(["bounds", "--d", "2", "--eps", "0.1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["config"]["command"] == "bounds"


def test_usage_error_exits_2():
    assert main(["bounds", "--d", "2"]) == 2  # missing --eps
    assert main(["no-such-command"]) == 2


def test_python_m_udnet_runs_without_warnings():
    src = str(Path(udnet.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "udnet", "bounds", "--d", "2", "--eps", "0.1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"][0]["t_min"] == pytest.approx(8821.801219593926)


# ---------------------------------------------------------- scipy imports

_LOADED_SCIPY = """
import contextlib, io, json, sys
import udnet.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(udnet.cli.main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _scipy_loaded_by(argvs):
    """Exit codes and the scipy modules loaded by udnet.cli.main(argv) calls in a fresh interpreter."""
    src = str(Path(udnet.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["codes"], doc["scipy"]


def test_commands_without_matrix_logs_load_no_scipy(tmp_path):
    spec = _write_spec(
        tmp_path, "th2.json", {"target": "theorem2_delta_max", "axes": {"eps": [0.1, 0.3]}, "fixed": {"d": 2}}
    )
    validate = ["validate", "--suite", "all", "--n", "2000", "--seed", "1", "--threads", "1"]
    codes, loaded = _scipy_loaded_by(
        [
            ["bounds", "--d", "2", "--eps", "0.1"],
            ["kernel", "--d", "3", "--sigma", "0.05", "--form", "both", "--phi", "0.1", "0.2"],
            validate + ["--d", "2"],
            validate + ["--d", "3"],
            ["sweep", spec],
        ]
    )
    assert codes == [0] * 5
    assert loaded == []


def test_design_delta_loads_no_scipy(pauli_file):
    codes, loaded = _scipy_loaded_by([["design-delta", pauli_file, "--t", "2"]])
    assert codes == [0]
    assert loaded == []
