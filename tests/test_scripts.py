"""Smoke runs of the data scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aicg

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
    for model in ("t11", "t3"):
        lines = (tmp_path / f"curve_{model}_n30.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mu0y,target,target_se,aicg_bias,aic_bias,plugin,plugin_se,uo,uo_se"
        assert len(lines) == 4


@pytest.mark.parametrize("method", ["plugin", "bootstrap"])
def test_make_region_data(tmp_path, method):
    proc = run_script("make_region_data.py", "--out-dir", str(tmp_path), "--n", "50",
                      "--resolution", "50", "--method", method)
    assert proc.returncode == 0, proc.stderr
    for slug in ("t11_vs_polytomy", "t3_vs_unconstrained"):
        lines = (tmp_path / f"regions_{slug}_n50_r50.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p1,p2,p3,winner"
        assert len(lines) == 1 + 1323  # the resolution-50 lattice less its 3 vertices
