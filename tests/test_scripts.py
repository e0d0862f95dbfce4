"""Smoke runs of the data scripts at tiny sizes, and of the output comparison
harness in tools/."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aicg
from aicg.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(aicg.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_make_figure_data(tmp_path):
    proc = run_script("make_figure_data.py", "--out-dir", str(tmp_path), "--models", "t1:1,t3",
                      "--n-list", "30", "--grid", "0:1:0.5", "--samples", "200",
                      "--methods", "plugin,uo")
    assert proc.returncode == 0, proc.stderr
    for model, slug in (("t1:1", "t11"), ("t3", "t3")):
        text = (tmp_path / f"curve_{slug}_n30.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "mu0y,target,target_se,aicg_bias,aic_bias,plugin,plugin_se,uo,uo_se"
        assert len(lines) == 4
        # each file is `aicg target` with the same arguments and the script's
        # default seed
        out = tmp_path / f"cli_{slug}.csv"
        assert cli_main(["target", "--model", model, "--n", "30", "--grid", "0:1:0.5",
                         "--samples", "200", "--seed", "2026", "--method", "plugin,uo",
                         "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("method", ["plugin", "bootstrap"])
def test_make_region_data(tmp_path, method):
    proc = run_script("make_region_data.py", "--out-dir", str(tmp_path), "--n", "50",
                      "--resolution", "50", "--method", method)
    assert proc.returncode == 0, proc.stderr
    for slug in ("t11_vs_polytomy", "t3_vs_unconstrained"):
        lines = (tmp_path / f"regions_{slug}_n50_r50.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p1,p2,p3,winner"
        assert len(lines) == 1 + 1323  # the resolution-50 lattice less its 3 vertices


def compare_outputs(old_src, new_src, match):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"),
                           str(old_src), str(new_src), "--match", match],
                          capture_output=True, text=True)


def test_compare_outputs_same_tree():
    src = Path(aicg.__file__).resolve().parents[1]
    proc = compare_outputs(src, src, "select --counts 60,20,20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    count, total = re.fullmatch(r"(\d+) of (\d+) commands identical\n", proc.stdout).groups()
    assert count == total and int(total) > 10


def test_compare_outputs_names_a_difference(tmp_path):
    # a copy of the package that prints one digit fewer differs on every
    # command that prints a float, and on no other
    src = Path(aicg.__file__).resolve().parent
    shutil.copytree(src, tmp_path / "aicg", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "aicg" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace(":.17g}", ":.16g}"), encoding="utf-8")
    proc = compare_outputs(src.parent, tmp_path, "--model t1 --mu0y")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "DIFFERS (stdout): aicg bias --model t1 --mu0y 1" in lines
    assert "DIFFERS (stdout): aicg bias --model t1 --mu0y 0" not in lines
