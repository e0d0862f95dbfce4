"""Benchmark of the aicg command line: end-to-end metrics from timed runs,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src/`` directory; working files
go to ``.bench_build/perfbench/``.  Workloads and their command lines are in
``workloads.json``; metric names and units in ``BENCHMARK.json``.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.

Load is closed loop: one client runs one CLI invocation at a time, each in a
fresh interpreter with ``--workers 1``, so every invocation pays the import
and cold caches a user pays.  ``--seed`` is passed to every invocation.

``--trace 0`` repeats the workload until ``--seconds`` would be exceeded (at
least ``MIN_RUNS`` times) and reports the median wall time.  Before each
repeat it times interpreter set-up (``aicg --help``) and a bare interpreter
importing numpy; ``setup_s`` is the ratio of their medians times
``BASELINE_REF_S``, set-up time at the reference machine's start-up speed.
``peak_rss_mb`` is the largest peak resident set of a workload child.

``--trace 1`` runs the workload once as timed runs do, once under
``tracer.py`` and once with ``--workers 2``, and reports the per-layer
metrics.  Both modes check every output against the oracles in ``checks.py``
and require repeated invocations to write identical bytes; a failed
invocation counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

MIN_RUNS = 3
# The host's speed drifts by up to 40% between runs minutes apart, and
# interpreter start-up times drift together.  A bare interpreter importing
# numpy does start-up work of the same kind but runs no aicg code, so set-up
# time is reported relative to it, scaled by its time on the reference
# machine (2-core x86_64 VM, Python 3.11.7, numpy 2.4.6).
BASELINE = ["-c", "import numpy"]
BASELINE_REF_S = 0.15


@dataclass
class Invocation:
    command: list[str]  # the CLI arguments without --workers
    args: list[str]
    wall_s: float
    rss_kb: int
    exit_code: int
    out: bytes
    err: bytes


@dataclass
class WorkloadRun:
    wall_s: float
    invocations: list[Invocation]


class Runner:
    """Spawns CLI children for one workload and keeps their outputs."""

    def __init__(self, workload: str, seed: int):
        self.commands = [[*c, "--seed", str(seed)] for c in load_workloads()[workload]["commands"]]
        self.dir = WORK_DIR / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0
        self.spans: list[Path] = []

    def invoke(self, argv: list[str], command: list[str], args: list[str]) -> Invocation:
        """Run one child to completion; wall time from spawn to exit."""
        self.count += 1
        out_path, err_path = self.dir / f"{self.count}.out", self.dir / f"{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(command, args, wall, usage.ru_maxrss, proc.returncode,
                          out_path.read_bytes(), err_path.read_bytes())

    def run(self, workers: int = 1, traced: bool = False) -> WorkloadRun:
        """One workload run: its commands in order, one child at a time."""
        done = []
        t0 = time.perf_counter()
        for command in self.commands:
            args = [*command, "--workers", str(workers)]
            if traced:
                spans = self.dir / f"{self.count + 1}.spans.json"
                self.spans.append(spans)
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(self.count + 1), *args]
            else:
                argv = [sys.executable, "-m", "aicg.cli", *args]
            done.append(self.invoke(argv, command, args))
        return WorkloadRun(time.perf_counter() - t0, done)

    def setup(self) -> Invocation:
        inv = self.invoke([sys.executable, "-m", "aicg.cli", "--help"], [], ["--help"])
        if b"usage: aicg" not in inv.out:
            inv.exit_code = inv.exit_code or 1
        return inv

    def baseline(self) -> Invocation:
        return self.invoke([sys.executable, *BASELINE], [], BASELINE)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def load_metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def count_failures(runs: list[WorkloadRun]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every invocation of the runs.

    An invocation fails on a nonzero exit, on an output its oracle check
    rejects, or on bytes that differ from the first run's invocation of the
    same command line (worker count aside)."""
    first: dict[tuple[str, ...], bytes] = {}
    verdicts: dict[bytes, list[str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    for run in runs:
        for inv in run.invocations:
            attempted += 1
            found = []
            if inv.exit_code != 0:
                last = (inv.err.decode(errors="replace").strip().splitlines() or [""])[-1]
                found.append(f"exit code {inv.exit_code}: {last}")
            elif inv.command:
                if inv.out != first.setdefault(tuple(inv.command), inv.out):
                    found.append("output differs from the first run's bytes")
                if inv.out not in verdicts:
                    verdicts[inv.out] = checks.check(inv.command, inv.out)
                found += verdicts[inv.out]
            if found:
                failed += 1
                problems.append(f"{' '.join(inv.args)}: {'; '.join(found)}")
    return attempted, failed, problems


def timed(workload: str, seed: int, seconds: float) -> tuple[dict, list[WorkloadRun]]:
    runner = Runner(workload, seed)
    setup: list[Invocation] = []
    baseline: list[Invocation] = []

    def sample_setup(pairs: int) -> None:
        # spread over the run, like the workload runs, and paired with the
        # baseline so that both see the same machine conditions
        for _ in range(pairs):
            setup.append(runner.setup())
            baseline.append(runner.baseline())

    sample_setup(4)
    runs: list[WorkloadRun] = []
    t0 = time.perf_counter()
    while True:
        sample_setup(2)
        runs.append(runner.run())
        log(f"{workload} run {len(runs)}: {runs[-1].wall_s:.3f} s")
        walls = [r.wall_s for r in runs]
        if len(runs) >= MIN_RUNS and time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": BASELINE_REF_S * statistics.median(inv.wall_s for inv in setup)
        / statistics.median(inv.wall_s for inv in baseline),
        "peak_rss_mb": max(inv.rss_kb for r in runs for inv in r.invocations) / 1024.0,
    }
    return metrics, [WorkloadRun(0.0, setup + baseline), *runs]


def traced(workload: str, seed: int) -> tuple[dict, list[WorkloadRun]]:
    runner = Runner(workload, seed)
    base = runner.run()
    traced_run = runner.run(traced=True)
    two = runner.run(workers=2)
    for run, label in ((base, "untraced"), (traced_run, "traced"), (two, "2 workers")):
        log(f"{workload} {label}: {run.wall_s:.3f} s")
    metrics = tracer.summarize(runner.spans)
    metrics["cli.out_bytes"] = sum(len(inv.out) for inv in traced_run.invocations)
    metrics["trace.overhead_frac"] = traced_run.wall_s / base.wall_s - 1.0
    metrics["montecarlo.speedup_2w"] = base.wall_s / two.wall_s
    return metrics, [base, traced_run, two]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(load_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aicg" / "cli.py").is_file():
        log(f"error: no aicg sources under {SRC}")
        return 2

    if args.trace:
        values, runs = traced(args.workload, args.seed)
        specs = load_metric_specs()["per_layer"]
    else:
        values, runs = timed(args.workload, args.seed, args.seconds)
        specs = load_metric_specs()["end_to_end"]
    attempted, failed, problems = count_failures(runs)
    for problem in problems:
        log(f"FAILED {problem}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
