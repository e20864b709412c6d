"""End-to-end CLI behavior: exit codes, output schemas, determinism, seeds.

Every invocation goes through udnet.cli.main with an argv list; stdout is
captured with capsys or redirected to a file with --out.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

import udnet.cli as cli
from udnet.cli import main
from udnet.design_tester import WeightedGateSet, gate_set_to_json
from udnet.kernels import EvalResult, KernelParams, TruncationError, heat_pu_char
from udnet.lie_core import TorusPoint


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
    assert doc["config"]["seed"] == 0
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


def test_kernel_phi_length_mismatch_exits_2():
    assert main(["kernel", "--d", "3", "--sigma", "0.5", "--phi", "0.3"]) == 2


def test_kernel_bad_sigma_exits_2():
    assert main(["kernel", "--d", "2", "--sigma", "0", "--phi", "0.3"]) == 2


def test_kernel_truncation_maps_to_exit_3(monkeypatch):
    def boom(p, x):
        raise TruncationError("cutoff 99 exceeds budget", 99)

    monkeypatch.setattr(cli, "heat_pu_char", boom)
    code = main(["kernel", "--d", "2", "--sigma", "0.5", "--phi", "0.3", "--form", "char"])
    assert code == 3


# ----------------------------------------------------------- design-delta


def test_design_delta_pauli(capsys, pauli_file):
    assert main(["design-delta", pauli_file, "--t", "2"]) == 0
    doc = _json_out(capsys)
    assert doc["config"]["d"] == 2
    rows = {r["s"]: r for r in doc["results"]}
    assert rows[1]["delta"] <= 1e-12
    assert rows[1]["implied_eps"] == pytest.approx(1e-12)
    assert rows[2]["delta"] == pytest.approx(1.0, abs=1e-10)
    assert rows[2]["implied_eps"] == "none"


def test_design_delta_resource_cap_exits_4(pauli_file, monkeypatch):
    # The cap is checked for the largest t before any smaller order is computed.
    calls = []
    monkeypatch.setattr(cli, "delta_design", lambda nu, s: calls.append(s) or 0.0)
    assert main(["design-delta", pauli_file, "--t", "7"]) == 4
    assert calls == []


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


# ------------------------------------------------------------------ seeds


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("UDNET_SEED", "42")
    assert main(["bounds", "--d", "2", "--eps", "0.5"]) == 0
    assert _json_out(capsys)["config"]["seed"] == 42
    assert main(["bounds", "--d", "2", "--eps", "0.5", "--seed", "7"]) == 0
    assert _json_out(capsys)["config"]["seed"] == 7


def test_invalid_env_seed_exits_2(monkeypatch):
    monkeypatch.setenv("UDNET_SEED", "not-a-number")
    assert main(["bounds", "--d", "2", "--eps", "0.5"]) == 2


# --------------------------------------------------------------- validate


def test_validate_single_suite_passes(capsys):
    assert main(["validate", "--suite", "gue", "--d", "2", "--n", "4000", "--format", "csv"]) == 0
    cfg, rows = _parse_csv(capsys.readouterr().out)
    assert cfg["command"] == "validate"
    assert rows
    assert all(r["suite"] == "gue" for r in rows)
    assert all(r["status"] in {"pass", "skipped"} for r in rows)


def test_validate_failure_exits_1(capsys, monkeypatch):
    from udnet.kernels import heat_pu_poisson as real

    def off(p, x):
        r = real(p, x)
        return EvalResult(r.value * 1.5, r.truncation_bound, r.terms_used)

    monkeypatch.setattr(cli, "heat_pu_poisson", off)
    code = main(["validate", "--suite", "poisson-char", "--d", "2", "--n", "100", "--format", "csv"])
    assert code == 1
    _, rows = _parse_csv(capsys.readouterr().out)
    assert any(r["status"] == "fail" for r in rows)


def test_validate_skips_unsupported_dimension(capsys):
    assert main(["validate", "--suite", "i0", "--d", "4", "--n", "100", "--format", "csv"]) == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert rows
    assert all(r["status"] == "skipped" for r in rows)


def test_validate_rejects_tiny_n():
    assert main(["validate", "--suite", "gue", "--n", "1"]) == 2


# ------------------------------------------------------------------ sweep


def _write_spec(tmp_path, name, spec):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


def test_sweep_theorem2_rows_and_default_csv(capsys, tmp_path):
    spec = _write_spec(
        tmp_path,
        "th2.json",
        {"target": "theorem2_delta_max", "axes": {"eps": [0.1, 0.3, 1.0]}, "fixed": {"d": 2}},
    )
    assert main(["sweep", spec]) == 0
    cfg, rows = _parse_csv(capsys.readouterr().out)
    assert cfg["format"] == "csv"
    assert len(rows) == 3
    for r in rows:
        # the kappa relaxation never beats the full theorem
        assert float(r["log10_delta_max_kappa"]) >= float(r["log10_delta_max_theorem"])
    assert [float(r["eps"]) for r in rows] == [0.1, 0.3, 1.0]


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
    for name, extra in [("a.csv", []), ("b.csv", []), ("c.csv", ["--threads", "3"])]:
        path = tmp_path / name
        assert main(["sweep", spec, "--out", str(path)] + extra) == 0
        outs.append(path.read_bytes())
    # the config echo carries the output path, so compare past the first line
    rows = [o.split(b"\n", 1)[1] for o in outs]
    assert rows[0] == rows[1]
    assert rows[0] == rows[2]


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
