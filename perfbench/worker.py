"""Measuring process for one workload run; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-probe --workload NAME --seed N

Both take ``--size smoke`` for a tiny run.

It imports udnet from ``src/`` of the current directory, drives
``udnet.cli.main(argv)`` in a closed loop (one operation at a time) and
prints one JSON document as its last line of standard output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before udnet (and numpy) are imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import udnet.cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

class _Problems(logging.Handler):
    """Keeps udnet's warnings and errors so a failed operation can say why."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


PROBLEMS = _Problems()
# A root handler stops cli.main from installing its INFO-level stderr logger.
logging.getLogger().addHandler(PROBLEMS)


def call(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_op(main, op) -> dict:
    """Times one CLI call, then checks its output (outside the timing)."""
    del PROBLEMS.messages[:]
    t0 = time.perf_counter()
    try:
        code, text = call(main, op.argv)
        raised = ""
    except Exception as exc:  # an operation that raises is a failed operation
        code, text, raised = -1, "", f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if raised:
        ok, why, info = False, raised, {}
    else:
        try:
            ok, why, info = op.check(code, text)
        except (KeyError, TypeError, ValueError) as exc:  # output of an unexpected shape
            ok, why, info = False, f"check raised {type(exc).__name__}: {exc}", {}
    if not ok and PROBLEMS.messages:
        why += " [" + "; ".join(PROBLEMS.messages) + "]"
    return {"label": op.label, "latency_s": latency, "ok": ok, "why": why, "info": info}


def run_pass(main, ops) -> tuple[float, list[dict]]:
    t0 = time.perf_counter()
    results = [run_op(main, op) for op in ops]
    return time.perf_counter() - t0, results


def validate_counts(results: list[dict], passes: int) -> dict:
    return {
        f"cli.validate.{key}": sum(r["info"].get(key, 0) for r in results) / passes
        for key in ("retries", "rows_failed", "rows_skipped")
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(main, wl, seconds: float) -> tuple[list[float], list[dict], float, float]:
    """Runs passes 0, 1, ... until `seconds` have gone by, at least one.

    Returns pass times, op results, elapsed time and the peak RSS at the end
    of the first pass. Later passes are left out of the peak so that it does
    not depend on how many passes fit in the run.
    """
    passes, results = [], []
    start = time.perf_counter()
    while True:
        wall, res = run_pass(main, wl.make_pass(len(passes)))
        if not passes:
            rss = peak_rss_mb()
        passes.append(wall)
        results += res
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return passes, results, elapsed, rss


def measure(wl, seconds: float, trace: bool) -> dict:
    main = udnet.cli.main
    warm = run_op(main, wl.warmup())
    out = {"warmup": warm}
    if not trace:
        passes, results, elapsed, rss = timed_passes(main, wl, seconds)
        lat = [r["latency_s"] for r in results]
        out["metrics"] = {
            "wall_s": statistics.median(passes),
            "ops_per_s": len(results) / elapsed,
            "peak_rss_mb": rss,
        }
        out["op_p50_s"] = statistics.median(lat)
        if len(lat) >= 100:
            out["op_p90_s"] = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        out.update(results=results, passes=passes)
        return out

    untraced, _ = run_pass(main, wl.make_pass(0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        passes, results, _, _ = timed_passes(tracer.wrap("cli.main", main), wl, seconds)
    finally:
        tracer.uninstall()
    traced_total = sum(passes)
    extra = validate_counts(results, len(passes))
    extra["trace.wall_s"] = statistics.median(passes)
    extra["trace.overhead_ratio"] = passes[0] / untraced
    self_sum = sum(s for _, _, s in tracer.spans.values())
    extra["trace.accounted_frac"] = self_sum / traced_total
    out["metrics"] = spans.per_layer_values(tracer, len(passes), extra)
    out.update(results=results, passes=passes, absent=tracer.absent,
               untraced_wall_s=untraced, units=spans.PER_LAYER)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args()

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        if args.setup_probe:
            wl.make_pass(0)
            warm = run_op(udnet.cli.main, wl.warmup())
            doc = {"setup_s": time.perf_counter() - T_START, "warmup_ok": warm["ok"]}
        else:
            doc = measure(wl, args.seconds, bool(args.trace))
            doc["versions"] = {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            }
            doc["threads"] = {
                "udnet": workloads.THREADS,
                "blas": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
