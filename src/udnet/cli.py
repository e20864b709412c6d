"""Command-line surface: bounds, kernel evaluation, validation, design testing, sweeps.

Every run prints a single machine-readable document. JSON is the canonical
format: ``{"config": {...}, "results": [...]}`` where config echoes the fully
resolved parameters (defaults included) and results is a list of flat records.
CSV is a lossless projection: a ``# config {...}`` comment line, a header row,
one row per record, floats rendered with shortest round-trip ``repr``. Given
the same resolved config the output is byte-identical; worker count only
changes wall time.

Exit codes: 0 success, 1 a validation check failed, 2 usage or invalid
parameter, 3 kernel truncation or numerical-instability failure, 4 resource
cap exceeded. Logs go to stderr, data to stdout or ``--out``.

Seed resolution: ``--seed`` flag, else the UDNET_SEED environment variable,
else 0. Monte Carlo checks draw from numbered substreams of that seed and are
retried once with a shifted seed before being declared failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds
from .design_tester import (
    DEFAULT_DIM_CAP,
    ResourceLimitError,
    _check_moment_args,
    delta_design,
    gate_set_from_json,
)
from .kernels import (
    KernelParams,
    NumericalInstabilityError,
    TruncationError,
    heat_pu_char,
    heat_pu_poisson,
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
    gue_opnorm_cdf,
    gue_tail_mc,
    mc_normalization,
    mc_outside_ball,
    numeric_I0,
    torus_grid,
)
from .weights_chars import _char_batch, enumerate_projective_weights

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3
EXIT_RESOURCE = 4

_LN10 = math.log(10.0)
_QUAD_DMAX = 3
_RETRY_SHIFT = 1_000_003

_log = logging.getLogger("udnet.cli")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: echoed verbatim in the output header."""

    command: str
    parameters: dict
    seed: int
    output_format: str
    output_path: str | None

    def as_dict(self) -> dict:
        base = {
            "command": self.command,
            "seed": self.seed,
            "format": self.output_format,
            "out": self.output_path,
        }
        base.update(self.parameters)
        return base


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("UDNET_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidParameterError(
            f"UDNET_SEED must be an integer, got {env!r}"
        ) from None


def _resolve_threads(flag: int | None) -> int:
    if flag is None:
        return os.cpu_count() or 1
    return _check_int("threads", flag, 1)


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


def _render_json(cfg: RunConfig, records: list[dict]) -> str:
    payload = _sanitize({"config": cfg.as_dict(), "results": records})
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def _cmd_bounds(args, seed: int, threads: int, fmt: str):
    d, eps = args.d, args.eps
    row = {"t_min": bounds.theorem1_t_min(d, eps)}
    for form in ("theorem", "kappa", "exponential"):
        row[f"log10_delta_max_{form}"] = bounds.theorem2_delta_max(d, eps, form) / _LN10
    row["sigma_star"] = bounds.sigma_star(d, eps)
    if args.delta is not None:
        row["ell"] = bounds.application1_ell(d, eps, args.delta)
    row["provenance"] = "closed-form"
    params = {"d": d, "eps": eps, "delta": args.delta, "threads": threads}
    cfg = RunConfig("bounds", params, seed, fmt, args.out)
    return cfg, [row], list(row), EXIT_OK


# -- kernel ------------------------------------------------------------------


def _cmd_kernel(args, seed: int, threads: int, fmt: str):
    d = args.d
    phi = tuple(float(v) for v in args.phi)
    if len(phi) != d - 1:
        raise InvalidParameterError(
            f"phi must have d-1 = {d - 1} entries, got {len(phi)}"
        )
    if args.form != "char" and args.trim_t is not None:
        raise InvalidParameterError(
            "trim-t applies only to --form char; the lattice form has no trimmed variant"
        )
    x = TorusPoint(d, phi)
    p = KernelParams(d, args.sigma, args.trim_t)
    records: list[dict] = []
    char_value = poisson_value = None
    if args.form in ("char", "both"):
        res = heat_pu_char(p, x)
        char_value = res.value
        records.append(
            {
                "form": "char",
                "value": res.value,
                "truncation_bound": res.truncation_bound,
                "terms_used": res.terms_used,
                "provenance": "plancherel",
            }
        )
    if args.form in ("poisson", "both"):
        res = heat_pu_poisson(p, x)
        poisson_value = res.value
        records.append(
            {
                "form": "poisson",
                "value": res.value,
                "truncation_bound": res.truncation_bound,
                "terms_used": res.terms_used,
                "provenance": "closed-form",
            }
        )
    if args.form == "both":
        scale = max(abs(char_value), abs(poisson_value))
        rel = abs(char_value - poisson_value) / scale if scale > 0 else 0.0
        for rec in records:
            rec["rel_discrepancy"] = rel
    params = {
        "d": d,
        "sigma": args.sigma,
        "trim_t": args.trim_t,
        "form": args.form,
        "phi": list(phi),
        "threads": threads,
    }
    cfg = RunConfig("kernel", params, seed, fmt, args.out)
    return cfg, records, list(records[0]), EXIT_OK


# -- validate ----------------------------------------------------------------


@dataclass
class _SuiteCtx:
    d: int
    n: int
    seed: int
    gamma: float
    eta: float
    threads: int
    sid: "itertools.count"


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


def _stat_check(ctx: _SuiteCtx, suite, check, trial, note=""):
    """trial(rng) -> (measured, bound, std_error, n, ok); one retry on failure."""
    sid = next(ctx.sid)
    measured, bound, se, n, ok = trial(RngStream(ctx.seed, sid))
    if not ok:
        measured, bound, se, n, ok = trial(RngStream(ctx.seed + _RETRY_SHIFT, sid))
        note = (note + "; retried").lstrip("; ")
    status = "pass" if ok else "fail"
    return _record(suite, check, status, measured, bound, se, n, "mc", note)


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
    return t, trimming_error(d, sigma, t), bounds.bound_trim(d, sigma, t, gamma)


def _pythagoras(d: int, sigma: float, t: int):
    """(trimming error, trimmed norm, untrimmed norm, relative residual of
    err^2 + trimmed^2 = untrimmed^2)."""
    err = trimming_error(d, sigma, t)
    l2t = l2_norm_trimmed(d, sigma, t)
    l2u = l2_norm_untrimmed(d, sigma)
    resid = abs(err * err + l2t * l2t - l2u * l2u) / max(l2u * l2u, 1e-300)
    return err, l2t, l2u, resid


def _suite_trimming(ctx: _SuiteCtx) -> list[dict]:
    sigmas = (0.01, 0.05, 0.2, 0.5) if ctx.d <= _QUAD_DMAX else (0.2, 0.5)
    out = []
    for sigma in sigmas:
        t, err, rep = _trim_check(ctx.d, sigma, "auto", ctx.gamma)
        status = "pass" if err <= rep.value_unchecked and rep.all_ok else "fail"
        out.append(
            _record(
                "trimming",
                f"sigma={sigma:g},t={t}",
                status,
                err,
                rep.value_unchecked,
                None,
                None,
                "plancherel",
            )
        )
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
        status = "pass" if val <= rep.value_unchecked and rep.all_ok else "fail"
        out.append(
            _record(
                "i0",
                f"eps={eps:g},sigma={sigma:.4g},grid={grid}",
                status,
                val,
                rep.value_unchecked,
                None,
                grid ** (ctx.d - 1),
                "quadrature",
            )
        )
    return out


def _suite_outside_ball(ctx: _SuiteCtx) -> list[dict]:
    if ctx.d > _QUAD_DMAX:
        return [_skip("outside-ball", f"d={ctx.d}", "mc", "resource-capped")]
    if ctx.d == 2:
        sigma, eps, n = 0.01, 0.5, ctx.n
    else:
        sigma, eps, n = 0.05, 1.0, min(ctx.n, 20000)
    t = math.ceil(bounds.t_star(ctx.d, sigma))
    rep = bounds.bound_outside_ball(ctx.d, sigma, t, eps, ctx.eta)
    note = "" if rep.all_ok else "preconditions off; unchecked bound"

    def trial(rng):
        est = mc_outside_ball(ctx.d, sigma, t, eps, n, rng, workers=ctx.threads)
        ok = est.mean <= rep.value_unchecked + 3.0 * est.std_error
        return est.mean, rep.value_unchecked, est.std_error, est.n, ok

    check = f"sigma={sigma:g},eps={eps:g},t={t}"
    return [_stat_check(ctx, "outside-ball", check, trial, note)]


def _suite_l2(ctx: _SuiteCtx) -> list[dict]:
    out = []
    if ctx.d <= _QUAD_DMAX:
        pyth = [(s, max(3, math.ceil(bounds.t_star(ctx.d, s)))) for s in (0.05, 0.2, 1.0)]
    else:
        pyth = [(1.0, 5)]
    for sigma, t in pyth:
        resid = _pythagoras(ctx.d, sigma, t)[3]
        status = "pass" if resid <= 1e-10 else "fail"
        out.append(
            _record(
                "l2",
                f"pythagoras sigma={sigma:g},t={t}",
                status,
                resid,
                1e-10,
                None,
                None,
                "plancherel",
            )
        )
    if ctx.d > _QUAD_DMAX:
        out.append(_skip("l2", "simple-bound", "plancherel", "resource-capped"))
        return out
    sigma_ok = 1.0 / (ctx.d * math.log(ctx.d))
    for factor in (0.3, 1.0):
        sigma = factor * sigma_ok
        t = math.ceil(bounds.t_star(ctx.d, sigma))
        l2t = l2_norm_trimmed(ctx.d, sigma, t)
        rep = bounds.bound_L2_simple(ctx.d, sigma)
        status = "pass" if l2t <= rep.value_unchecked and rep.all_ok else "fail"
        out.append(
            _record(
                "l2",
                f"simple-bound sigma={sigma:.4g},t={t}",
                status,
                l2t,
                rep.value_unchecked,
                None,
                None,
                "plancherel",
            )
        )
    return out


def _suite_gue(ctx: _SuiteCtx) -> list[dict]:
    out = []
    root = math.sqrt(ctx.d)
    for c in (1.0, 2.0):
        r = (2.0 + c) * root
        bound = 0.5 * math.exp(-0.5 * ctx.d * c * c)

        def trial(rng, r=r, bound=bound):
            est = gue_tail_mc(ctx.d, r, ctx.n, rng, workers=ctx.threads)
            ok = est.mean <= bound + 3.0 * est.std_error
            return est.mean, bound, est.std_error, est.n, ok

        out.append(_stat_check(ctx, "gue", f"tail r={r:.6g}", trial))
    if ctx.d == 2:
        r0 = 1.5
        ref = 1.0 - gue_opnorm_cdf(2, r0)

        def trial_cdf(rng):
            est = gue_tail_mc(2, r0, ctx.n, rng, workers=ctx.threads)
            dev = abs(est.mean - ref)
            tol = 4.0 * est.std_error
            return dev, tol, est.std_error, est.n, dev <= tol

        out.append(_stat_check(ctx, "gue", f"cdf r={r0:g}", trial_cdf))
    else:
        out.append(_skip("gue", "cdf", "quadrature", "unsupported-dimension"))
    return out


def _suite_orthonormality(ctx: _SuiteCtx) -> list[dict]:
    if ctx.d > _QUAD_DMAX:
        return [
            _skip("orthonormality", f"d={ctx.d}", "quadrature", "unsupported-dimension")
        ]
    t_cap, grid = (4, 512) if ctx.d == 2 else (2, 128)
    ws = enumerate_projective_weights(ctx.d, t_cap)
    nodes, weights = torus_grid(ctx.d, grid)
    theta = np.concatenate([nodes, -nodes.sum(axis=1, keepdims=True)], axis=1)
    chars = _char_batch(np.array([w.lam for w in ws]), theta)
    gram = (chars * weights) @ chars.conj().T
    dev = float(np.max(np.abs(gram - np.eye(len(ws)))))
    status = "pass" if dev <= 1e-6 else "fail"
    return [
        _record(
            "orthonormality",
            f"gram l1<={2 * t_cap},grid={grid}",
            status,
            dev,
            1e-6,
            None,
            len(weights),
            "quadrature",
        )
    ]


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
    worst = 0.0
    points = 0
    while points < 10:
        x = TorusPoint(ctx.d, tuple(gen.uniform(-box, box, ctx.d - 1)))
        if x.min_gap() < 1e-4:
            continue
        points += 1
        c = heat_pu_char(p, x).value
        q = heat_pu_poisson(p, x).value
        scale = max(abs(c), abs(q), 1e-300)
        worst = max(worst, abs(c - q) / scale)
    status = "pass" if worst <= 1e-7 else "fail"
    return [
        _record(
            "poisson-char",
            f"sigma={sigma:g},points=10",
            status,
            worst,
            1e-7,
            None,
            10,
            "plancherel",
        )
    ]


def _suite_normalization(ctx: _SuiteCtx) -> list[dict]:
    if ctx.d <= _QUAD_DMAX:
        sigma, trim = 0.2, None
    else:
        sigma, trim = 1.0, 3

    def trial(rng):
        est = mc_normalization(ctx.d, sigma, trim, ctx.n, rng, workers=ctx.threads)
        dev = abs(est.mean - 1.0)
        tol = 4.0 * est.std_error
        return dev, tol, est.std_error, est.n, est.std_error > 0 and dev <= tol

    check = f"sigma={sigma:g},trim={'auto' if trim is None else trim}"
    return [_stat_check(ctx, "normalization", check, trial)]


_SUITES = {
    "trimming": _suite_trimming,
    "i0": _suite_i0,
    "outside-ball": _suite_outside_ball,
    "l2": _suite_l2,
    "gue": _suite_gue,
    "orthonormality": _suite_orthonormality,
    "poisson-char": _suite_poisson_char,
    "normalization": _suite_normalization,
}


def _cmd_validate(args, seed: int, threads: int, fmt: str):
    eta = float(bounds.eta_min(args.d)) if args.eta is None else args.eta
    _check_int("n", args.n, 2)
    ctx = _SuiteCtx(args.d, args.n, seed, args.gamma, eta, threads, itertools.count())
    names = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    records: list[dict] = []
    for name in names:
        records.extend(_SUITES[name](ctx))
    failed = any(rec["status"] == "fail" for rec in records)
    params = {
        "suite": args.suite,
        "d": args.d,
        "n": args.n,
        "gamma": args.gamma,
        "eta": eta,
        "threads": threads,
    }
    cfg = RunConfig("validate", params, seed, fmt, args.out)
    return cfg, records, list(_CHECK_FIELDS), EXIT_CHECK_FAILED if failed else EXIT_OK


# -- design-delta ------------------------------------------------------------


def _implied_eps(d: int, delta: float) -> float | None:
    """Smallest eps in [1e-12, 2] whose theorem-form delta_max covers delta."""
    target = math.log(delta) if delta > 0 else -math.inf
    lo, hi = 1e-12, 2.0
    if bounds.theorem2_delta_max(d, hi) < target:
        return None
    if bounds.theorem2_delta_max(d, lo) >= target:
        return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if bounds.theorem2_delta_max(d, mid) >= target:
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


def _cmd_design_delta(args, seed: int, threads: int, fmt: str):
    nu = gate_set_from_json(_load_json_file(args.gateset, "gate set file"))
    # Refuse an over-cap t before computing any of the smaller orders.
    _check_moment_args(nu.d, args.t, DEFAULT_DIM_CAP)
    records = []
    for s in range(1, args.t + 1):
        delta = delta_design(nu, s)
        implied = _implied_eps(nu.d, delta)
        records.append(
            {
                "s": s,
                "delta": delta,
                "implied_eps": "none" if implied is None else implied,
                "provenance": "closed-form",
            }
        )
    params = {"gateset": args.gateset, "t": args.t, "d": nu.d, "threads": threads}
    cfg = RunConfig("design-delta", params, seed, fmt, args.out)
    return cfg, records, list(records[0]), EXIT_OK


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
    row = {"d": d, "eps": eps}
    for form in ("theorem", "kappa", "exponential"):
        row[f"log10_delta_max_{form}"] = bounds.theorem2_delta_max(d, eps, form) / _LN10
    row["provenance"] = "closed-form"
    return row


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
        "defaults": {"t": "auto", "gamma": 0.5},
        "columns": ("trimming_error", "bound_trim", "bound_ok", "provenance"),
        "row": _sweep_row_trimming_error,
    },
    "theorem2_delta_max": {
        "params": ("d", "eps"),
        "defaults": {},
        "columns": (
            "log10_delta_max_theorem",
            "log10_delta_max_kappa",
            "log10_delta_max_exponential",
            "provenance",
        ),
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


def _cmd_sweep(args, seed: int, threads: int, fmt: str):
    spec = _load_json_file(args.spec, "sweep spec")
    target, entry, axis_names, axis_values, base = _parse_sweep_spec(spec)
    grid = []
    for combo in itertools.product(*axis_values):
        point = dict(base)
        point.update(zip(axis_names, combo))
        grid.append(point)
    if threads > 1 and len(grid) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(entry["row"], grid))
    else:
        records = [entry["row"](point) for point in grid]
    fieldnames = list(entry["params"]) + [
        c for c in entry["columns"] if c not in entry["params"]
    ]
    params = {
        "spec": args.spec,
        "target": target,
        "axes": {name: axes for name, axes in zip(axis_names, axis_values)},
        "fixed": {k: base[k] for k in sorted(base)},
        "threads": threads,
    }
    cfg = RunConfig("sweep", params, seed, fmt, args.out)
    return cfg, records, fieldnames, EXIT_OK


# -- entry point --------------------------------------------------------------

_COMMANDS = {
    "bounds": _cmd_bounds,
    "kernel": _cmd_kernel,
    "validate": _cmd_validate,
    "design-delta": _cmd_design_delta,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default: UDNET_SEED or 0)")
    common.add_argument("--threads", type=int, default=None, help="worker pool size (default: machine parallelism)")
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

    k = sub.add_parser("kernel", parents=[common], help="evaluate the projective heat kernel at a torus point")
    k.add_argument("--d", type=int, required=True)
    k.add_argument("--sigma", type=float, required=True)
    k.add_argument("--trim-t", dest="trim_t", type=int, default=None)
    k.add_argument("--form", choices=("char", "poisson", "both"), default="char")
    k.add_argument("--phi", type=float, nargs="+", required=True, help="d-1 torus coordinates")

    v = sub.add_parser("validate", parents=[common], help="run internal consistency suites")
    v.add_argument("--suite", choices=tuple(_SUITES) + ("all",), required=True)
    v.add_argument("--d", type=int, default=2)
    v.add_argument("--n", type=int, default=100_000, help="Monte Carlo sample count per check")
    v.add_argument("--gamma", type=float, default=0.5)
    v.add_argument("--eta", type=float, default=None, help="default: the smallest admissible value for d")

    dd = sub.add_parser("design-delta", parents=[common], help="measure delta(nu, s) for a gate set")
    dd.add_argument("gateset", help="path to a gate-set JSON file")
    dd.add_argument("--t", type=int, required=True)

    sw = sub.add_parser("sweep", parents=[common], help="tabulate a target quantity over a parameter grid")
    sw.add_argument("spec", help="path to a sweep spec JSON file")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        seed = _resolve_seed(args.seed)
        threads = _resolve_threads(args.threads)
        fmt = args.format or ("csv" if args.command == "sweep" else "json")
        cfg, records, fieldnames, code = _COMMANDS[args.command](args, seed, threads, fmt)
        if cfg.output_format == "json":
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
