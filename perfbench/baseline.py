"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload of ``BENCHMARK.json``, and for ``known-failures``, it makes
one ``--trace 0`` run per seed and one ``--trace 1`` run (first seed), and
records each metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, which is the distance
between the quartiles as a share of the median. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    # known-failures is not a listed workload; its failure rates are part of the baseline.
    names = [w["name"] for w in spec["workloads"]] + ["known-failures"]
    seeds = parse_seeds(args.seeds)
    doc = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            t0 = time.monotonic()
            res, lines = one_run(name, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "run_s": time.monotonic() - t0, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "failures": [ln for ln in lines if " FAIL " in ln],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            for ln in lines:
                for key in ("machine", "versions", "threads"):
                    if ln.startswith(f"# {key} "):
                        doc.setdefault(key, ln[len(key) + 3:])
            print(name, seed, f"{runs[-1]['run_s']:.1f} s", runs[-1]["metrics"],
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        metrics = {m: summary([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]}
        for m, s in metrics.items():
            print(f"{name} {m}: median {s['median']:.6g} spread {s['spread']}")
        entry = {"metrics": metrics, "runs": runs,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        res, _ = one_run(name, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        doc["workloads"][name] = entry
    for key in ("machine", "versions"):
        if key in doc:
            doc[key] = json.loads(doc[key])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
