"""The benchmark's workload commands print output that its checks accept.

Each command of perfbench/workloads.json runs here at one fixed seed with one
and with two worker threads.  Both runs must exit 0 and print the same bytes,
and perfbench/checks.py, whose oracles come from scipy and mpmath, must find
no problem with them.  A change that prints a standard error of 0, moves a
decision-region label or breaks a published radius fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from aicg.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEED = 11


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
COMMANDS = [(name, command) for name, workload in WORKLOADS.items()
            for command in workload["commands"]]


@pytest.mark.parametrize("name, command", COMMANDS,
                         ids=[f"{name}-{command[0]}" for name, command in COMMANDS])
def test_workload_output_passes_its_checks(tmp_path, name, command):
    args = [*command, "--seed", str(SEED)]
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.out"
        assert main([*args, "--workers", str(workers), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert checks.check(args, outs[0]) == []
