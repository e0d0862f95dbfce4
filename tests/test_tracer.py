"""The benchmark's tracer still finds the functions it wraps.

perfbench/tracer.py wraps every public function of the package's layers and
reads the cache of quadrature.bias_t3_value by name, so a rename would break
the benchmark's traced run.  One traced t3 invocation here fails first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import aicg

ROOT = Path(__file__).resolve().parents[1]


def test_traced_t3_run_records_the_quadrature_spans(tmp_path):
    src = str(Path(aicg.__file__).resolve().parents[1])
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "1",
         "target", "--model", "t3", "--n", "1000", "--grid", "0:1:1", "--samples", "2000",
         "--method", "plugin", "--seed", "1", "--workers", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mu0y,target,target_se,aicg_bias,aic_bias,plugin,plugin_se\n")
    data = json.loads(spans.read_text(encoding="utf-8"))
    names = data["names"]
    for name in ("quadrature.bias_t3_batch", "quadrature.bias_t3_value",
                 "quadrature.bias_ray_cone", "special.erf", "cli.main"):
        assert name in names
    called = {names[i] for i in data["name"]}
    assert {"quadrature.bias_t3_batch", "quadrature.bias_ray_cone", "cli.main"} <= called
    assert set(data["bias_t3_value"]) == {"hits", "misses"}
