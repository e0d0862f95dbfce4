"""Tests of the benchmark itself: every output check rejects a corrupted
output, repeated invocations must write identical bytes, spans nest into
the right self times, and timed runs execute with no wrapper installed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

import checks
import make_reference
import run
import tracer


def cli(*args: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "aicg.cli", *args], env=run.child_env(),
                          cwd=run.ROOT, capture_output=True, check=True)
    return proc.stdout


def edit_csv(out: bytes, row: int, column: str, fn) -> bytes:
    lines = out.decode().splitlines()
    header = lines[0].split(",")
    fields = lines[row].split(",")
    fields[header.index(column)] = fn(fields[header.index(column)])
    lines[row] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


T1_ARGS = ["target", "--model", "t1", "--n", "1000", "--grid", "0:5:2.5", "--samples", "20000",
           "--method", "plugin,uo", "--seed", "5"]
T3_ARGS = ["target", "--model", "t3", "--n", "1000", "--grid", "0:0:1", "--samples", "100000",
           "--method", "plugin", "--seed", "5"]


@pytest.fixture(scope="module")
def t1_curve() -> bytes:
    return cli(*T1_ARGS)


def shift(delta: float):
    return lambda v: repr(float(v) + delta)


@pytest.mark.parametrize("row, column, corrupt", [
    (1, "aicg_bias", shift(1e-6)),
    (1, "target", shift(0.2)),
    (1, "plugin_se", lambda v: "0"),
    (3, "plugin", lambda v: "nan"),
    (2, "aic_bias", shift(1.0)),
    (2, "mu0y", shift(0.5)),
])
def test_target_check_rejects_corruption(t1_curve, row, column, corrupt):
    assert checks.check(T1_ARGS, t1_curve) == []
    assert checks.check(T1_ARGS, edit_csv(t1_curve, row, column, corrupt))


def test_target_check_rejects_missing_rows_and_columns(t1_curve):
    lines = t1_curve.decode().splitlines()
    assert checks.check(T1_ARGS, ("\n".join(lines[:-1]) + "\n").encode())
    assert checks.check(T1_ARGS, t1_curve.replace(b"uo_se", b"uo_sd"))


def test_t3_curve_check_uses_the_quadrature_free_oracle():
    out = cli(*T3_ARGS)
    assert checks.check(T3_ARGS, out) == []
    assert checks.check(T3_ARGS, edit_csv(out, 1, "aicg_bias", shift(1e-6)))
    assert abs(checks.t3_bias(0.0, 1000.0) - (2 + 3 * math.sqrt(3) / (2 * math.pi))) < 1e-10


@pytest.fixture(scope="module")
def regions() -> list[tuple[list[str], bytes]]:
    return [(c, cli(*c)) for c in make_reference.regions_commands()]


def relabel(out: bytes, points: list[tuple[int, int, int]], label=None) -> bytes:
    """Give the lattice points (of resolution 100) the label, or by default
    the other model of the pair."""
    rows = {"%.17g,%.17g,%.17g" % (i / 100, j / 100, k / 100) for i, j, k in points}
    lines = out.decode().splitlines()
    pair = sorted({line.rsplit(",", 1)[1] for line in lines[1:]})
    for n, line in enumerate(lines):
        point, old = line.rsplit(",", 1)
        if point in rows:
            lines[n] = f"{point},{label or pair[1 - pair.index(old)]}"
    return ("\n".join(lines) + "\n").encode()


def test_regions_check_rejects_corruption(regions):
    (t1_args, t1_out), (t3_args, t3_out) = regions
    assert checks.check(t1_args, t1_out) == []
    assert checks.check(t3_args, t3_out) == []
    # a symmetric change still differs from the stored grid
    assert checks.check(t1_args, relabel(t1_out, [(40, 31, 29), (40, 29, 31)], "tie"))
    # swap symmetry of the t1:1 pair, permutation symmetry of the t3 pair
    assert any("symmetry" in p for p in checks.check(t1_args, relabel(t1_out, [(40, 31, 29)])))
    assert any("symmetry" in p for p in checks.check(t3_args, relabel(t3_out, [(20, 30, 50)])))
    # probe points
    assert any("probe" in p for p in checks.check(t1_args, relabel(t1_out, [(60, 20, 20)])))
    assert checks.check(t1_args, t1_out.replace(b"0.5,0.5,0,", b"0.5,0.25,0.25,", 1))


def test_radii_check_rejects_corruption():
    t1_args = ["radii", "--n", "1000000", "--model", "t1", "--grid", "0:5:0.05"]
    out = cli(*t1_args)
    assert checks.check(t1_args, out) == []
    doc = json.loads(out)
    assert checks.check(t1_args, json.dumps(doc | {"minimax_radius": 0.89}).encode())
    assert checks.check(t1_args, out[:-10])
    t3_args = ["radii", "--model", "t3"]
    good = {"model": "t3", "uo_radius": 1.78, "minimax_radius": 2.23}
    assert checks.check(t3_args, json.dumps(good).encode()) == []
    assert checks.check(t3_args, json.dumps(good | {"uo_radius": 1.6}).encode())
    assert checks.check(t3_args, json.dumps(good | {"minimax_radius": None}).encode())


def invocation(out: bytes, code: int = 0) -> run.Invocation:
    args = ["radii", "--model", "t1"]
    return run.Invocation(args, [*args, "--workers", "1"], 1.0, 1, code, out, b"error: boom\n")


def test_count_failures_requires_identical_reruns(monkeypatch):
    monkeypatch.setattr(checks, "check", lambda args, out: [] if out.startswith(b"ok") else ["bad"])
    runs = [run.WorkloadRun(1.0, [invocation(b"ok-a")]),
            run.WorkloadRun(1.0, [invocation(b"ok-a")]),
            run.WorkloadRun(1.0, [invocation(b"ok-b")]),
            run.WorkloadRun(1.0, [invocation(b"ok-a", code=3)]),
            run.WorkloadRun(1.0, [invocation(b"no")])]
    attempted, failed, problems = run.count_failures(runs)
    assert (attempted, failed) == (5, 3)
    assert "differs" in problems[0] and "exit code 3: error: boom" in problems[1]
    assert "bad" in problems[2]


def test_self_time_subtracts_direct_children(tmp_path):
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({
        "invocation": 1, "names": ["cli.main", "selection.score", "special.erf"],
        "name": [0, 1, 2, 2], "start": [0.0, 1.0, 2.0, 6.0], "end": [10.0, 5.0, 3.0, 7.0],
        "parent": [-1, 0, 1, 0], "work": [0, 0, 4, 6], "counters": {},
        "bias_t3_value": {"hits": 3, "misses": 1}}))
    m = tracer.summarize([path])
    assert m["selection.score.self_s"] == 3.0 and m["special.erf.self_s"] == 2.0
    assert m["cli.main.s"] == 10.0 and m["selection.score.us_per_call"] == 4e6
    assert m["special.erf.elems"] == 10 and m["special.erf.ns_per_elem"] == 2e8
    assert m["quadrature.bias_t3_value.hit_ratio"] == 0.75
    assert m["cli.share"] == 0.5 and m["selection.share"] == 0.3 and m["special.share"] == 0.2


PROBE = """\
import atexit, json, os, sys

def _report():
    mods = [m for n, m in list(sys.modules.items()) if n == "__main__" or n.startswith("aicg")]
    wrapped = any(hasattr(v, "__perfbench_span__") for m in mods for v in list(vars(m).values()))
    with open(os.environ["PERFBENCH_PROBE"], "a") as f:
        f.write(json.dumps({"wrapped": wrapped, "aicg": "aicg" in sys.modules}) + "\\n")

atexit.register(_report)
"""


def test_timed_runs_install_no_wrapper(tmp_path, monkeypatch):
    (tmp_path / "sitecustomize.py").write_text(PROBE)
    report = tmp_path / "report.jsonl"
    monkeypatch.setenv("PERFBENCH_PROBE", str(report))
    monkeypatch.setattr(run, "child_env",
                        lambda: {**run.os.environ, "PYTHONPATH": f"{tmp_path}:{run.SRC}"})
    runner = run.Runner("closed_form", seed=1)
    runner.commands = [["radii", "--model", "polytomy", "--seed", "1"]]
    assert runner.setup().exit_code == 0
    assert runner.run().invocations[0].exit_code == 0
    assert runner.run(traced=True).invocations[0].exit_code == 0
    seen = [json.loads(line) for line in report.read_text().splitlines()]
    assert [s["wrapped"] for s in seen] == [False, False, True]
    assert all(s["aicg"] for s in seen)
    assert "cli.main" in json.loads(runner.spans[0].read_text())["names"]
