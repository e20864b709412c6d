"""udnet benchmark: one workload run, or a smoke check of all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the repository root; udnet is imported from ``src/`` there.
Each run starts fresh worker processes (perfbench/worker.py) with the BLAS
thread count set in their environment, prints the machine, one verdict line
per operation and every metric by name with its unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = ".perfbench_work"  # gate-set files of the workers, removed at the end
WORKLOADS = ("validate-d3", "kernel-scan", "design-delta-d2", "known-failures")

# BLAS threads of the workers. With udnet's --threads 1 (workloads.THREADS)
# the product stays within nproc on any machine; a second BLAS thread made
# the small products of kernel-scan slower and noisier.
BLAS_THREADS = 1
SETUP_PROBES = 3  # fresh processes per run; setup_s is their median
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed by name but not in the JSON line. op_p50_s: the median operation of
# validate-d3 is one small suite call of about 40 ms, whose time swings by a
# third between runs on a 2-vCPU host. op_p90_s needs 100 operations in a run
# (kernel-scan only), and failed_frac is 0 whenever nothing fails.
REPORT_ONLY_UNITS = {"op_p50_s": "s", "op_p90_s": "s", "failed_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": sys.version.split()[0],
    }


def cache_bytes(level: int) -> int:
    """Size of one level-`level` cache of cpu0, from sysfs; -1 if unknown."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            if not index.startswith("index"):
                continue
            with open(os.path.join(path, "level"), encoding="utf-8") as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(path, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return -1


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, WORKER, *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for " + " ".join(args))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
             probes: int = SETUP_PROBES) -> dict:
    """Runs one workload and returns the result object printed as the last line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    print("# machine " + json.dumps(machine(), sort_keys=True))
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    warm_ok = True
    if not trace:
        for _ in range(probes):
            probe = worker([*common, "--setup-probe"], deadline)
            setups.append(probe["setup_s"])
            warm_ok &= probe["warmup_ok"]
    doc = worker([*common, "--seconds", repr(seconds), "--trace", str(int(trace))], deadline)
    print("# versions " + json.dumps(doc["versions"], sort_keys=True))
    print("# threads " + json.dumps(doc["threads"], sort_keys=True))
    warm = doc["warmup"]
    warm_ok &= warm["ok"]
    print(f"warmup {warm['label']}: {warm['latency_s']:.4f} s {'ok' if warm['ok'] else 'FAIL ' + warm['why']}")
    results = doc["results"]
    for i, r in enumerate(results):
        verdict = "ok" if r["ok"] else "FAIL " + r["why"]
        print(f"op {i:4d} {r['label']}: {r['latency_s']:.4f} s {verdict}")
    failed = sum(not r["ok"] for r in results)
    print("pass wall_s = " + " ".join(f"{w:.4f}" for w in doc["passes"]))
    if trace:
        for name in doc["absent"]:
            print(f"absent wrapped name: {name}")
        print(f"untraced pass wall_s = {doc['untraced_wall_s']:.4f} s")
        units = doc["units"]
        values = doc["metrics"]
    else:
        units = END_TO_END_UNITS
        values = dict(doc["metrics"], setup_s=statistics.median(setups))
        report = {"op_p50_s": doc["op_p50_s"], "failed_frac": failed / len(results)}
        if "op_p90_s" in doc:
            report["op_p90_s"] = doc["op_p90_s"]
        for name, value in report.items():
            print(f"{name} = {value!r} {REPORT_ONLY_UNITS[name]}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {
        "correct": failed == 0 and warm_ok,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }


def smoke() -> int:
    """Tiny run of every workload in both modes; checks names, units and verdicts."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            res = run_once(workload, seed=1, seconds=0.0, trace=trace, size="smoke", probes=1)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            tag = f"{workload} trace={int(trace)}"
            if got != expect[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            if res["attempted"] < 1:
                problems.append(f"{tag}: no operation was checked")
            if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                problems.append(f"{tag}: non-numeric metric")
            print(f"smoke {tag}: attempted={res['attempted']} failed={res['failed']} "
                  f"correct={res['correct']}")
    for p in problems:
        print("smoke problem: " + p)
    print("smoke " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "udnet", "__init__.py")):
        print("run from the repository root: src/udnet not found", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required without --smoke")
        res = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
