"""Run the benchmark on several seeds per workload, report each end-to-end
metric's median and quartile spread, and optionally append the result to
trajectory.json as a new point.

    python3 perfbench/record.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--label NAME]

The spread is (Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``; a metric is steady when its spread
stays below a third of its bound in BENCHMARK.json.  With ``--label`` one
traced run per workload adds the per-layer metrics to the recorded point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

TRAJECTORY = run.HERE / "trajectory.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(), "git_sha": sha}


def main() -> int:
    spec = run.load_metric_specs()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label")
    args = parser.parse_args()

    point: dict = {"label": args.label, "machine": machine(), "seeds": args.seeds,
                   "first_seed": args.first_seed, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = [bench(workload, seed, spec["run_seconds"], 0)
                   for seed in range(args.first_seed, args.first_seed + args.seeds)]
        entry: dict = {"attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady &= metric["name"] == "setup_s" or spread < metric["bound"] / 3
            entry["end_to_end"][metric["name"]] = {"median": statistics.median(values),
                                                   "q1": q1, "q3": q3, "spread": spread,
                                                   "values": values}
            print(f"{workload:10s} {metric['name']:12s} median {statistics.median(values):.4f} "
                  f"spread {spread:.4f} (bound {metric['bound']}) "
                  f"values {' '.join(f'{v:.3f}' for v in values)}", flush=True)
        print(f"{workload:10s} failed {entry['failed']} of {entry['attempted']}", flush=True)
        if args.label:
            traced = bench(workload, args.first_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["failed"] += traced["failed"]
            entry["attempted"] += traced["attempted"]
        point["workloads"][workload] = entry
    if args.label:
        doc = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() \
            else {"points": []}
        doc["points"].append(point)
        TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: a spread reached a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
