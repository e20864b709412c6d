"""Command-line surface: bounds, kernel evaluation, validation, design testing, sweeps.

Every run prints a single machine-readable document. JSON is the canonical
format: ``{"config": {...}, "results": [...]}`` where config echoes the fully
resolved parameters (defaults included) and results is a list of flat records.
CSV is a lossless projection: a ``# config {...}`` comment line, a header row,
one row per record, floats rendered with shortest round-trip ``repr``. Given
the same resolved config the output is byte-identical.

Exit codes: 0 success, 1 a validation check failed, 2 usage or invalid
parameter, 3 kernel truncation or numerical-instability failure, 4 resource
cap exceeded. Logs go to stderr, data to stdout or ``--out``.

Seeds and threads: only validate draws, in its gue rows, whose chunks run
one after another in index order. Each gue row is one draw from its own
numbered stream of the seed, whichever suites ran before it. The seed is
--seed, else 0; one outside [0, 2^64), the range RngStream takes, exits 2.
No command starts a thread: validate, kernel and design-delta accept,
check and echo --threads for existing callers, and kernel and design-delta
echo a --seed they do not use; bounds and sweep take neither flag.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import bounds
from .design_tester import ResourceLimitError, design_deltas, gate_set_from_json
from .kernels import (
    KernelParams,
    NumericalInstabilityError,
    TruncationError,
    heat_pu_char,
    heat_pu_char_batch,
    heat_pu_poisson,
    heat_pu_poisson_batch,
    l2_norm_trimmed,
    l2_norm_untrimmed,
    trimming_error,
)
from .lie_core import (
    InvalidDimensionError,
    InvalidParameterError,
    TorusPoint,
    _check_int,
    _is_int,
    eps_tilde,
)
from .montecarlo import (
    RngStream,
    _exact_grid_n,
    gue_opnorm_cdf,
    gue_tail_mc,
    numeric_I0,
    torus_grid,
)
from .weights_chars import _UNIT_ROUNDOFF, _char_batch, _projective_tuples

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3
EXIT_RESOURCE = 4

_LN10 = math.log(10.0)
_QUAD_DMAX = 3
_TAIL_TOL = 1e-12  # squared-sum remainder left out of a trimming error
_TRIM_GAMMA = 0.5  # bound_trim's exponent in the trimming rows and sweep's default
_BELOW_RESOLUTION = f"below resolution sqrt(tail_tol) = {math.sqrt(_TAIL_TOL):g}"

_log = logging.getLogger("udnet.cli")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: echoed verbatim in the output header."""

    command: str
    parameters: dict
    output_format: str
    output_path: str | None

    def as_dict(self) -> dict:
        base = {
            "command": self.command,
            "format": self.output_format,
            "out": self.output_path,
        }
        base.update(self.parameters)
        return base


def _seed_and_threads(args) -> dict:
    """--seed, else 0, and --threads, else the machine's parallelism, of a
    command that takes both flags."""
    seed = 0 if args.seed is None else args.seed
    threads = (os.cpu_count() or 1) if args.threads is None else _check_int("threads", args.threads, 1)
    return {"seed": RngStream(seed).seed, "threads": threads}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    return obj


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_chunks(obj, pad: str, out: list) -> None:
    """Append the JSON text of obj at indent pad to out, as json.dumps(
    _sanitize(obj), sort_keys=True, indent=2, allow_nan=False) writes it:
    numpy integers and floats are read as Python ones, a non-finite float
    is the string "nan", "inf" or "-inf", and anything else that is not
    JSON (np.bool_, an array) raises TypeError. Keys must be strings."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(float.__repr__(x) if math.isfinite(x) else _encode_str(_sanitize(x)))
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (dict, list, tuple)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(obj, dict):
            out.append("{\n" + inner)
            for n, key in enumerate(sorted(obj)):
                if n:
                    out.append(sep)
                out.append(_encode_str(key) + ": ")
                _json_chunks(obj[key], inner, out)
            out.append("\n" + pad + "}")
        else:
            out.append("[\n" + inner)
            for n, value in enumerate(obj):
                if n:
                    out.append(sep)
                _json_chunks(value, inner, out)
            out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_json(cfg: RunConfig, records: list[dict]) -> str:
    """The document, sorted keys and an indent of 2, in one walk of the
    payload (_json_chunks). json.dumps with an indent runs its pure-Python
    encoder, and needed a _sanitize copy first: about twice the time for
    the same bytes."""
    out: list[str] = []
    _json_chunks({"config": cfg.as_dict(), "results": records}, "", out)
    out.append("\n")
    return "".join(out)


def _render_csv(cfg: RunConfig, records: list[dict], fieldnames: list[str]) -> str:
    buf = io.StringIO()
    header = json.dumps(
        _sanitize(cfg.as_dict()), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    buf.write("# config " + header + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for rec in records:
        writer.writerow([_cell(_sanitize(rec.get(name))) for name in fieldnames])
    return buf.getvalue()


# -- bounds ------------------------------------------------------------------


# column name -> form of the design-to-net theorem's delta_max
_DELTA_MAX_COLUMNS = {
    f"log10_delta_max_{form}": form for form in ("theorem", "kappa", "exponential")
}


def _delta_max_columns(d: int, eps: float) -> dict:
    return {
        col: bounds.theorem2_delta_max(d, eps, form) / _LN10
        for col, form in _DELTA_MAX_COLUMNS.items()
    }


def _cmd_bounds(args):
    d, eps = args.d, args.eps
    row = {"t_min": bounds.theorem1_t_min(d, eps), **_delta_max_columns(d, eps)}
    row["sigma_star"] = bounds.sigma_star(d, eps)
    if args.delta is not None:
        row["ell"] = bounds.application1_ell(d, eps, args.delta)
    row["provenance"] = "closed-form"
    return {"d": d, "eps": eps, "delta": args.delta}, [row], list(row), EXIT_OK


# -- kernel ------------------------------------------------------------------


def _rel_discrepancy(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0.0 when both are 0."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _cmd_kernel(args):
    seeded = _seed_and_threads(args)
    d = args.d
    phi = tuple(float(v) for v in args.phi)
    if args.form != "char" and args.trim_t is not None:
        raise InvalidParameterError(
            "trim-t applies only to --form char; the lattice form has no trimmed variant"
        )
    x = TorusPoint(d, phi)
    p = KernelParams(d, args.sigma, args.trim_t)
    records = []
    for form, kernel, provenance in (
        ("char", heat_pu_char, "plancherel"),
        ("poisson", heat_pu_poisson, "closed-form"),
    ):
        if args.form in (form, "both"):
            res = kernel(p, x)
            records.append(
                {
                    "form": form,
                    "value": res.value,
                    "truncation_bound": res.truncation_bound,
                    "terms_used": res.terms_used,
                    "provenance": provenance,
                }
            )
    if args.form == "both":
        rel = _rel_discrepancy(records[0]["value"], records[1]["value"])
        for rec in records:
            rec["rel_discrepancy"] = rel
    params = {
        "d": d, "sigma": args.sigma, "trim_t": args.trim_t, "form": args.form, "phi": list(phi),
        **seeded,
    }
    return params, records, list(records[0]), EXIT_OK


# -- validate ----------------------------------------------------------------


@dataclass(frozen=True)
class _SuiteCtx:
    d: int
    n: int
    seed: int


_CHECK_FIELDS = [
    "suite",
    "check",
    "status",
    "measured",
    "bound",
    "std_error",
    "n",
    "provenance",
    "note",
]


def _record(suite, check, status, measured, bound, std_error, n, provenance, note=""):
    rec = {
        "suite": suite,
        "check": check,
        "status": status,
        "measured": None if measured is None else float(measured),
        "bound": None if bound is None else float(bound),
        "std_error": None if std_error is None else float(std_error),
        "n": n,
        "provenance": provenance,
        "note": note,
    }
    _log.info("%s %s: %s", suite, check, status)
    return rec


def _skip(suite, check, provenance, note):
    return _record(suite, check, "skipped", None, None, None, None, provenance, note)


def _bounded(suite, check, measured, bound, provenance, ok=True, n=None, trim_err=None):
    """A row that passes when ok and measured <= bound. A row that rests on a
    trimming error reading 0.0 checks nothing, since the whole tail lies below
    what trimming_error resolves: it is skipped instead."""
    if trim_err == 0.0:
        status, note = "skipped", _BELOW_RESOLUTION
    else:
        status, note = ("pass" if ok and measured <= bound else "fail"), ""
    return _record(suite, check, status, measured, bound, None, n, provenance, note)


def _resolve_auto_t(d: int, sigma: float, t, gamma: float | None = None) -> int:
    if t == "auto":
        if gamma is None:
            return max(1, math.ceil(bounds.t_star(d, sigma)))
        threshold = bounds.bound_trim(d, sigma, 1, gamma).extras["t_threshold"]
        return max(1, math.ceil(threshold))
    return int(t)


def _trim_check(d: int, sigma: float, t, gamma: float):
    """(t, trimming error, bound_trim report) with t resolved by _resolve_auto_t."""
    t = _resolve_auto_t(d, sigma, t, gamma)
    return t, trimming_error(d, sigma, t, _TAIL_TOL), bounds.bound_trim(d, sigma, t, gamma)


def _pythagoras(d: int, sigma: float, t: int):
    """(trimming error, trimmed norm, untrimmed norm, relative residual of
    err^2 + trimmed^2 = untrimmed^2)."""
    err = trimming_error(d, sigma, t, _TAIL_TOL)
    l2t = l2_norm_trimmed(d, sigma, t)
    l2u = l2_norm_untrimmed(d, sigma)
    resid = abs(err * err + l2t * l2t - l2u * l2u) / max(l2u * l2u, 1e-300)
    return err, l2t, l2u, resid


def _suite_trimming(ctx: _SuiteCtx) -> list[dict]:
    sigmas = (0.01, 0.05, 0.2, 0.5) if ctx.d <= _QUAD_DMAX else (0.2, 0.5)
    out = []
    for sigma in sigmas:
        t, err, rep = _trim_check(ctx.d, sigma, "auto", _TRIM_GAMMA)
        check = f"sigma={sigma:g},t={t}"
        bound = rep.value_unchecked
        out.append(_bounded("trimming", check, err, bound, "plancherel", rep.all_ok, trim_err=err))
    return out


def _suite_i0(ctx: _SuiteCtx) -> list[dict]:
    if ctx.d > _QUAD_DMAX:
        return [_skip("i0", f"d={ctx.d}", "quadrature", "unsupported-dimension")]
    if ctx.d == 2:
        cases = [(e, f, 512) for e in (0.5, 1.5) for f in (0.3, 0.99)]
    else:
        cases = [(1.0, f, 128) for f in (0.3, 0.99)]
    out = []
    for eps, factor, grid in cases:
        et = eps_tilde(eps)
        sigma = factor * et * et / 32.0
        rep = bounds.bound_I0(ctx.d, sigma, eps)
        val = numeric_I0(ctx.d, sigma, eps, grid)
        check = f"eps={eps:g},sigma={sigma:.4g},grid={grid}"
        n = grid ** (ctx.d - 1)
        out.append(_bounded("i0", check, val, rep.value_unchecked, "quadrature", rep.all_ok, n))
    return out


def _suite_outside_ball(ctx: _SuiteCtx) -> list[dict]:
    """The lemma's mass bound outside the eps-ball, under _bounded's rule: a
    bound whose preconditions fail does not pass. At both (sigma, eps) the
    sigma-condition fails, so the row is skipped and draws nothing."""
    if ctx.d > _QUAD_DMAX:
        return [_skip("outside-ball", f"d={ctx.d}", "mc", "unsupported-dimension")]
    sigma, eps = (0.01, 0.5) if ctx.d == 2 else (0.05, 1.0)
    t = math.ceil(bounds.t_star(ctx.d, sigma))
    rep = bounds.bound_outside_ball(ctx.d, sigma, t, eps, float(bounds.eta_min(ctx.d)))
    note = "preconditions off: " + ", ".join(rep.violated)
    return [_skip("outside-ball", f"sigma={sigma:g},eps={eps:g},t={t}", "mc", note)]


def _suite_l2(ctx: _SuiteCtx) -> list[dict]:
    out = []
    if ctx.d <= _QUAD_DMAX:
        pyth = [(s, max(3, math.ceil(bounds.t_star(ctx.d, s)))) for s in (0.05, 0.2, 1.0)]
    else:
        pyth = [(1.0, 5)]
    for sigma, t in pyth:
        err, _, _, resid = _pythagoras(ctx.d, sigma, t)
        check = f"pythagoras sigma={sigma:g},t={t}"
        out.append(_bounded("l2", check, resid, 1e-10, "plancherel", trim_err=err))
    if ctx.d > _QUAD_DMAX:
        out.append(_skip("l2", "simple-bound", "plancherel", "unsupported-dimension"))
        return out
    sigma_ok = 1.0 / (ctx.d * math.log(ctx.d))
    for factor in (0.3, 1.0):
        sigma = factor * sigma_ok
        t = math.ceil(bounds.t_star(ctx.d, sigma))
        l2t = l2_norm_trimmed(ctx.d, sigma, t)
        rep = bounds.bound_L2_simple(ctx.d, sigma)
        check = f"simple-bound sigma={sigma:.4g},t={t}"
        out.append(_bounded("l2", check, l2t, rep.value_unchecked, "plancherel", rep.all_ok))
    return out


def _suite_gue(ctx: _SuiteCtx) -> list[dict]:
    """Two tail rows and, at d = 2, a cdf row, each one draw from stream 0,
    1 or 2 of the seed."""
    out = []
    root = math.sqrt(ctx.d)
    for stream_id, c in enumerate((1.0, 2.0)):
        r = (2.0 + c) * root
        bound = 0.5 * math.exp(-0.5 * ctx.d * c * c)
        est = gue_tail_mc(ctx.d, r, ctx.n, RngStream(ctx.seed, stream_id))
        status = "pass" if est.mean <= bound + 3.0 * est.std_error else "fail"
        out.append(_record("gue", f"tail r={r:.6g}", status, est.mean, bound, est.std_error, est.n, "mc"))
    if ctx.d == 2:
        r0 = 1.5
        est = gue_tail_mc(2, r0, ctx.n, RngStream(ctx.seed, 2))
        dev = abs(est.mean - (1.0 - gue_opnorm_cdf(2, r0)))
        tol = 4.0 * est.std_error
        status = "pass" if dev <= tol else "fail"
        out.append(_record("gue", f"cdf r={r0:g}", status, dev, tol, est.std_error, est.n, "mc"))
    else:
        out.append(_skip("gue", "cdf", "quadrature", "unsupported-dimension"))
    return out


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): a sum of m floats is off by at most
    gamma_m times the sum of its terms' magnitudes (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1)."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _torus_rows(d: int, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Full eigenphase rows (m, d) and Weyl weights (m,) of torus_grid, less
    the nodes where two eigenphases meet. A node's phases are 2 pi a / grid
    - pi, so grid theta / pi is an integer c, and two eigenphases meet when
    c_i = c_j mod 2 grid. There the exact Weyl density is 0 (its float
    weight is at most 6e-33), so the rule stays exact without them. They
    are 1 of 19 nodes at d = 2, 13 of 13^2, 1,191 of 15^3 and 26,401 of
    17^4 on the orthonormality grids."""
    nodes, weights = torus_grid(d, grid)
    theta = np.concatenate([nodes, -nodes.sum(axis=1, keepdims=True)], axis=1)
    c = np.rint(theta * (grid / math.pi)).astype(np.int64)
    i, j = np.triu_indices(d, 1)
    apart = np.all((c[:, i] - c[:, j]) % (2 * grid) != 0, axis=1)
    return theta[apart], weights[apart]


def _suite_orthonormality(ctx: _SuiteCtx) -> list[dict]:
    """The Weyl-integration Gram matrix of the labels of one-norm <= 2 t_cap,
    on the grid that _exact_grid_n makes exact for it. Its tolerance is the
    rounding of each entry's sum over the m nodes, gamma_m max_{lambda, mu}
    sum w |chi_lambda| |chi_mu|."""
    t_cap = 4 if ctx.d == 2 else 2
    lams = _projective_tuples(ctx.d, t_cap)
    grid = _exact_grid_n(ctx.d, 2 * int(np.max(lams[:, 0] - lams[:, -1])))
    check = f"gram l1<={2 * t_cap},grid={grid}"
    theta, weights = _torus_rows(ctx.d, grid)
    chars = _char_batch(lams, theta)
    gram = (chars * weights) @ chars.conj().T
    dev = float(np.max(np.abs(gram - np.eye(len(lams)))))
    size = np.abs(chars)
    bound = _gamma(len(weights)) * float(np.max((size * weights) @ size.T))
    return [_bounded("orthonormality", check, dev, bound, "quadrature", n=len(weights))]


def _suite_poisson_char(ctx: _SuiteCtx) -> list[dict]:
    if ctx.d <= _QUAD_DMAX:
        sigma = 0.1
    elif ctx.d == 4:
        sigma = 2.0
    else:
        sigma = 4.0
    p = KernelParams(ctx.d, sigma)
    gen = np.random.default_rng(ctx.seed)
    # Sample near the identity, where the kernel is O(1): far out on the
    # torus the character sum sits on its float cancellation floor and a
    # relative comparison against the lattice form is meaningless.
    box = min(math.sqrt(sigma), math.pi)
    theta = []
    while len(theta) < 10:
        x = TorusPoint(ctx.d, tuple(gen.uniform(-box, box, ctx.d - 1)))
        if x.min_gap() >= 1e-4:
            theta.append(x.eigenphases())
    char, _, _ = heat_pu_char_batch(p, theta)
    lattice, _, _ = heat_pu_poisson_batch(p, theta)
    worst = max(_rel_discrepancy(c, q) for c, q in zip(char.tolist(), lattice.tolist()))
    return [_bounded("poisson-char", f"sigma={sigma:g},points=10", worst, 1e-7, "plancherel", n=10)]


def _suite_normalization(ctx: _SuiteCtx) -> list[dict]:
    """The Haar mean of the trimmed kernel, which is 1, on the torus grid
    that makes it exact. The trimmed labels have lambda_1 - lambda_d <= 2t,
    so the grid side is _exact_grid_n(d, 2t), and the row's tolerance is the
    rounding of the node sum, gamma_m sum w |K|."""
    if ctx.d <= _QUAD_DMAX:
        sigma = 0.2
        t = math.ceil(bounds.t_star(ctx.d, sigma))
    else:
        sigma, t = 1.0, 3
    grid = _exact_grid_n(ctx.d, 2 * t)
    check = f"exact sigma={sigma:g},t={t},grid={grid}"
    theta, weights = _torus_rows(ctx.d, grid)
    vals, _, _ = heat_pu_char_batch(KernelParams(ctx.d, sigma, trim_t=t), theta)
    dev = abs(float(vals @ weights) - 1.0)
    bound = _gamma(len(weights)) * float(np.abs(vals) @ weights)
    return [_bounded("normalization", check, dev, bound, "quadrature", n=len(weights))]


# name -> (suite, provenance of the row that stands for it when over budget)
_SUITES = {
    "trimming": (_suite_trimming, "plancherel"),
    "i0": (_suite_i0, "quadrature"),
    "outside-ball": (_suite_outside_ball, "mc"),
    "l2": (_suite_l2, "plancherel"),
    "gue": (_suite_gue, "mc"),
    "orthonormality": (_suite_orthonormality, "quadrature"),
    "poisson-char": (_suite_poisson_char, "plancherel"),
    "normalization": (_suite_normalization, "quadrature"),
}


def _cmd_validate(args):
    """Runs the suites in order. A suite whose kernel term budget or torus
    node budget is exceeded stands as one skipped resource-capped row."""
    seeded = _seed_and_threads(args)
    _check_int("n", args.n, 2)
    ctx = _SuiteCtx(args.d, args.n, seeded["seed"])
    names = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    records: list[dict] = []
    for name in names:
        suite, provenance = _SUITES[name]
        try:
            records.extend(suite(ctx))
        except (TruncationError, ResourceLimitError) as exc:
            records.append(_skip(name, f"d={ctx.d}", provenance, f"resource-capped: {exc}"))
    failed = any(rec["status"] == "fail" for rec in records)
    params = {"suite": args.suite, "d": args.d, "n": args.n, **seeded}
    return params, records, list(_CHECK_FIELDS), EXIT_CHECK_FAILED if failed else EXIT_OK


# -- design-delta ------------------------------------------------------------


def _implied_eps(d: int, delta: float, s: int) -> float | None:
    """Smallest eps in [1e-12, 2] at which the design-to-net theorem applies
    to a delta-approximate s-design: delta <= delta_max(d, eps) in the
    theorem form and s >= t_min(d, eps). Both hold from some eps upward."""
    target = math.log(delta) if delta > 0 else -math.inf

    def applies(eps: float) -> bool:
        return bounds.theorem2_delta_max(d, eps) >= target and s >= bounds.theorem1_t_min(d, eps)

    lo, hi = 1e-12, 2.0
    if not applies(hi):
        return None
    if applies(lo):
        return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if applies(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _load_json_file(path: str, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"{what} is not valid JSON: {exc}") from None
        except ValueError as exc:  # an integer of more digits than int() reads
            raise InvalidParameterError(f"{what} could not be read: {exc}") from None


def _cmd_design_delta(args):
    seeded = _seed_and_threads(args)
    nu = gate_set_from_json(_load_json_file(args.gateset, "gate set file"))
    records = []
    for s, delta in enumerate(design_deltas(nu, args.t), start=1):
        implied = _implied_eps(nu.d, delta, s)
        records.append(
            {
                "s": s,
                "delta": delta,
                "implied_eps": "none" if implied is None else implied,
                "provenance": "closed-form",
            }
        )
    params = {"gateset": args.gateset, "t": args.t, "d": nu.d, **seeded}
    return params, records, list(records[0]), EXIT_OK


# -- sweep -------------------------------------------------------------------

_AXIS_ORDER = ("d", "eps", "sigma", "t", "gamma")


def _sweep_row_trimming_error(p: dict) -> dict:
    d, sigma, gamma = p["d"], p["sigma"], p["gamma"]
    t, err, rep = _trim_check(d, sigma, p["t"], gamma)
    return {
        "d": d,
        "sigma": sigma,
        "t": t,
        "gamma": gamma,
        "trimming_error": err,
        "bound_trim": rep.value_unchecked,
        "bound_ok": rep.all_ok,
        "provenance": "trimming_error=plancherel;bound_trim=closed-form",
    }


def _sweep_row_theorem2(p: dict) -> dict:
    d, eps = p["d"], p["eps"]
    return {"d": d, "eps": eps, **_delta_max_columns(d, eps), "provenance": "closed-form"}


def _sweep_row_t_min(p: dict) -> dict:
    return {
        "d": p["d"],
        "eps": p["eps"],
        "t_min": bounds.theorem1_t_min(p["d"], p["eps"]),
        "provenance": "closed-form",
    }


def _sweep_row_l2_norms(p: dict) -> dict:
    d, sigma = p["d"], p["sigma"]
    t = _resolve_auto_t(d, sigma, p["t"])
    err, l2t, l2u, resid = _pythagoras(d, sigma, t)
    return {
        "d": d,
        "sigma": sigma,
        "t": t,
        "l2_norm_trimmed": l2t,
        "l2_norm_untrimmed": l2u,
        "trimming_error": err,
        "pythagoras_residual": resid,
        "provenance": "plancherel",
    }


def _sweep_row_bound_i0(p: dict) -> dict:
    d, sigma, eps = p["d"], p["sigma"], p["eps"]
    rep = bounds.bound_I0(d, sigma, eps)
    return {
        "d": d,
        "sigma": sigma,
        "eps": eps,
        "log10_bound_I0": rep.log_value_unchecked / _LN10,
        "bound_ok": rep.all_ok,
        "provenance": "closed-form",
    }


_SWEEP_TARGETS = {
    "trimming_error": {
        "params": ("d", "sigma", "t", "gamma"),
        "defaults": {"t": "auto", "gamma": _TRIM_GAMMA},
        "columns": ("trimming_error", "bound_trim", "bound_ok", "provenance"),
        "row": _sweep_row_trimming_error,
    },
    "theorem2_delta_max": {
        "params": ("d", "eps"),
        "defaults": {},
        "columns": (*_DELTA_MAX_COLUMNS, "provenance"),
        "row": _sweep_row_theorem2,
    },
    "t_min": {
        "params": ("d", "eps"),
        "defaults": {},
        "columns": ("t_min", "provenance"),
        "row": _sweep_row_t_min,
    },
    "l2_norms": {
        "params": ("d", "sigma", "t"),
        "defaults": {"t": "auto"},
        "columns": (
            "l2_norm_trimmed",
            "l2_norm_untrimmed",
            "trimming_error",
            "pythagoras_residual",
            "provenance",
        ),
        "row": _sweep_row_l2_norms,
    },
    "bound_I0": {
        "params": ("d", "sigma", "eps"),
        "defaults": {},
        "columns": ("log10_bound_I0", "bound_ok", "provenance"),
        "row": _sweep_row_bound_i0,
    },
}


def _coerce_sweep_value(name: str, value):
    if name == "d":
        if not _is_int(value):
            raise InvalidParameterError(f"axis d takes integers, got {value!r}")
        return value
    if name == "t":
        if value == "auto":
            return "auto"
        if not _is_int(value):
            raise InvalidParameterError(f"axis t takes integers or \"auto\", got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"axis {name} takes numbers, got {value!r}")
    return float(value)


def _parse_sweep_spec(spec: dict):
    if not isinstance(spec, dict):
        raise InvalidParameterError("sweep spec must be a JSON object")
    unknown = set(spec) - {"target", "axes", "fixed"}
    if unknown:
        raise InvalidParameterError(f"unknown sweep spec keys: {sorted(unknown)}")
    target = spec.get("target")
    if target not in _SWEEP_TARGETS:
        raise InvalidParameterError(
            f"target must be one of {sorted(_SWEEP_TARGETS)}, got {target!r}"
        )
    entry = _SWEEP_TARGETS[target]
    axes = spec.get("axes", {})
    fixed = spec.get("fixed", {})
    for part, name in (("axes", axes), ("fixed", fixed)):
        if not isinstance(name, dict):
            raise InvalidParameterError(f"sweep {part} must be a JSON object")
    bad = (set(axes) | set(fixed)) - set(entry["params"])
    if bad:
        raise InvalidParameterError(
            f"parameters {sorted(bad)} not accepted by target {target!r}"
        )
    dup = set(axes) & set(fixed)
    if dup:
        raise InvalidParameterError(f"parameters {sorted(dup)} appear in axes and fixed")
    missing = set(entry["params"]) - set(axes) - set(fixed) - set(entry["defaults"])
    if missing:
        raise InvalidParameterError(f"sweep spec must supply {sorted(missing)}")
    axis_names = [a for a in _AXIS_ORDER if a in axes]
    axis_values = []
    for name in axis_names:
        seq = axes[name]
        if not isinstance(seq, list):
            raise InvalidParameterError(f"axis {name} must be a JSON array")
        axis_values.append([_coerce_sweep_value(name, v) for v in seq])
    base = dict(entry["defaults"])
    for name, value in fixed.items():
        base[name] = _coerce_sweep_value(name, value)
    return target, entry, axis_names, axis_values, base


def _cmd_sweep(args):
    spec = _load_json_file(args.spec, "sweep spec")
    target, entry, axis_names, axis_values, base = _parse_sweep_spec(spec)
    records = [
        entry["row"]({**base, **dict(zip(axis_names, combo))})
        for combo in itertools.product(*axis_values)
    ]
    fieldnames = list(entry["params"]) + [
        c for c in entry["columns"] if c not in entry["params"]
    ]
    params = {
        "spec": args.spec,
        "target": target,
        "axes": {name: axes for name, axes in zip(axis_names, axis_values)},
        "fixed": {k: base[k] for k in sorted(base)},
    }
    return params, records, fieldnames, EXIT_OK


# -- entry point --------------------------------------------------------------

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser, by name.

    Built once per process: parsing leaves the parsers unchanged, and the
    commands look up the kernels and bounds they call at call time.
    """
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed, used by validate only (default: 0)")
    seeded.add_argument(
        "--threads", type=int, default=None,
        help="accepted and echoed for existing callers; no command starts a thread "
        "(default: machine parallelism)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=None, help="output format (default: json; sweep: csv)")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    ap = argparse.ArgumentParser(
        prog="udnet",
        description="Design-to-net bounds, trimmed heat kernels, and validation suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", parents=[common], help="closed-form sufficiency bounds")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--delta", type=float, default=None, help="also report the net size exponent for this delta")
    b.set_defaults(run=_cmd_bounds)

    k = sub.add_parser("kernel", parents=[seeded, common], help="evaluate the projective heat kernel at a torus point")
    k.add_argument("--d", type=int, required=True)
    k.add_argument("--sigma", type=float, required=True)
    k.add_argument("--trim-t", dest="trim_t", type=int, default=None)
    k.add_argument("--form", choices=("char", "poisson", "both"), default="char")
    k.add_argument("--phi", type=float, nargs="+", required=True, help="d-1 torus coordinates")
    k.set_defaults(run=_cmd_kernel)

    v = sub.add_parser("validate", parents=[seeded, common], help="run internal consistency suites")
    v.add_argument("--suite", choices=tuple(_SUITES) + ("all",), required=True)
    v.add_argument("--d", type=int, default=2)
    v.add_argument("--n", type=int, default=100_000, help="Monte Carlo sample count per check")
    v.set_defaults(run=_cmd_validate)

    dd = sub.add_parser("design-delta", parents=[seeded, common], help="measure delta(nu, s) for a gate set")
    dd.add_argument("gateset", help="path to a gate-set JSON file")
    dd.add_argument("--t", type=int, required=True)
    dd.set_defaults(run=_cmd_design_delta)

    sw = sub.add_parser("sweep", parents=[common], help="tabulate a target quantity over a parameter grid")
    sw.add_argument("spec", help="path to a sweep spec JSON file")
    sw.set_defaults(run=_cmd_sweep)
    return ap, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the top-level parser would, reading each string once.

    When argv[0] names a command, the rest goes straight to that command's
    parser, which is what the top-level parser hands it after classifying
    every string itself. Strings the command leaves over are reported
    through the top-level parser's error, as parse_args reports them.
    Anything else, no argv or an option first, takes the top-level parser.
    """
    top, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return top.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        top.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        fmt = args.format or ("csv" if args.command == "sweep" else "json")
        params, records, fieldnames, code = args.run(args)
        cfg = RunConfig(args.command, params, fmt, args.out)
        if fmt == "json":
            text = _render_json(cfg, records)
        else:
            text = _render_csv(cfg, records, fieldnames)
        if cfg.output_path is None:
            sys.stdout.write(text)
        else:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            _log.info("wrote %s", cfg.output_path)
    except (InvalidParameterError, InvalidDimensionError) as exc:
        _log.error("invalid parameter: %s", exc)
        return EXIT_USAGE
    except (TruncationError, NumericalInstabilityError) as exc:
        _log.error("kernel evaluation failed: %s", exc)
        return EXIT_TRUNCATION
    except ResourceLimitError as exc:
        _log.error("resource limit: %s", exc)
        return EXIT_RESOURCE
    except OSError as exc:
        _log.error("i/o failure: %s", exc)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
