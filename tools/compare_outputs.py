"""Compare the CLI of two source trees command by command.

    python tools/compare_outputs.py OLD_SRC NEW_SRC [--match TEXT]

OLD_SRC and NEW_SRC are directories that hold an `aicg` package (a
checkout's `src`).  Each tree runs one fixed list of commands, all in one
subprocess, through `aicg.cli.main` in-process; the harness then compares
each command's exit code, stdout and stderr.  It prints every command that
differs and exits 1 on any difference, else 0.  `--match TEXT` keeps only
the commands whose arguments, joined by spaces, contain TEXT.

The list covers the benchmark's workload commands at two seeds, every model
and rule of `bias --counts`, `bias` at distances on every model and on
half-lines angle sets, `select` in CSV and JSON, `regions`, small `target`
curves, `radii` grids, every example of README § Command line, and inputs
that exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RULES = ("plugin", "aic", "llf", "ulf", "uo", "minimax", "consistent", "bootstrap")
MODELS = ("t1", "t1:2", "t1:3", "t3", "polytomy", "unconstrained")
COUNTS = ("60,25,15", "30,35,35", "0,0,5", "2,1,0")
ANGLE_SETS = ("2pi", "pi,2pi", "2.8,4.5,2pi", "3.5,2pi", "2pi/3,4pi/3,2pi", "5.97,2pi")

EDGE_INPUTS = [
    ["bias", "--model", "t1foo", "--mu0y", "1"],
    ["bias", "--model", "t1:4", "--mu0y", "1"],
    ["bias", "--model", "t1", "--mu0y", "nan"],
    ["bias", "--model", "t1", "--mu0y", "-1"],
    ["bias", "--model", "t1", "--mu0y", "1", "--n", "0"],
    ["bias", "--model", "t3", "--mu0y", "1e17"],
    ["bias", "--model", "t3", "--phi0", "1.5", "--n", "10"],
    ["bias", "--model", "t3", "--phi0", "0.5"],
    ["bias", "--model", "t1", "--mu0y", "1", "--phi0", "0.5", "--n", "10"],
    ["bias", "--model", "t1", "--mu0y", "1", "--method", "plugin"],
    ["bias", "--model", "t1", "--counts", "60,20,20", "--n", "99"],
    ["bias", "--model", "t1", "--counts", "1,1,0", "--method", "consistent"],
    ["bias", "--model", "halflines", "--mu0y", "1"],
    ["select", "--counts", "60,20,20", "--models", "t1:1,halflines"],
    ["radii", "--model", "halflines"],
    ["bias", "--model", "halflines", "--angles", "abc,2pi", "--mu0y", "1"],
    ["bias", "--model", "halflines:2pi", "--angles", "3.5,2pi", "--mu0y", "0"],
    ["bias", "--model", "t3", "--angles", "3.5,2pi", "--mu0y", "0"],
    ["select", "--counts", "60,20,20", "--models", "t1:1,u"],
    ["bias", "--model", "t1", "--mu0y", "1", "--samples", "10"],
    ["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "1",
     "--seed", "3"],
    ["target", "--model", "t1", "--n", "100", "--grid", "5:0:1", "--samples", "100",
     "--seed", "1"],
    ["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100"],
    ["target", "--model", "halflines:2pi", "--n", "100", "--grid", "0:1:1",
     "--samples", "100", "--seed", "1"],
    ["target", "--model", "t1", "--n", "1000", "--grid", "0:3:1", "--samples", "100",
     "--seed", "3", "--method", "plugin,plugin"],
    ["target", "--model", "t1", "--n", "2", "--grid", "0:1:1", "--samples", "100",
     "--seed", "3", "--method", "consistent"],
    ["select", "--counts", "60,20,20", "--models", "t1:1,t1:1,polytomy"],
    ["select", "--counts", "60,20,20", "--models", ","],
    ["select", "--counts", "60,20", "--models", "t1:1"],
    ["regions", "--pair", "t1:1,polytomy,t1", "--n", "60", "--resolution", "50"],
    ["regions", "--pair", "t1:1", "--n", "60", "--resolution", "50"],
    ["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "49"],
    ["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "1413"],
    ["regions", "--pair", "t1:1,halflines:2pi", "--n", "60", "--resolution", "50"],
    ["regions", "--pair", "t1:1,polytomy", "--n", "2", "--resolution", "50",
     "--method", "consistent"],
    ["radii", "--model", "halflines:2.8,4.5,2pi"],
    ["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100",
     "--seed", "1", "--angles", "2pi"],
    ["select", "--counts", "60,20,20", "--models", "t1:1,halflines", "--angles", "2pi"],
    ["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "50",
     "--angles", "2pi"],
    ["radii", "--model", "t1", "--angles", "2pi"],
    ["radii", "--model", "t1", "--grid", "0:1e300:1e-300"],
    ["radii", "--model", "t1", "--n", "0"],
    ["radii", "--model", "t3", "--grid", "5:0:0.05"],
    ["radii", "--model", "t3", "--grid", "0:1:0.5", "--violation-tol", "-1"],
    ["radii", "--model", "t1", "--grid", "0:1:0.5", "--violation-tol", "-1"],
    ["select", "--models", "t1,t3", "--counts", "0,0,0"],
    ["target", "--model", "polytomy", "--n", "10", "--grid", "0:1:1", "--samples", "10",
     "--seed", "1"],
]


def readme_commands() -> list[list[str]]:
    """The `aicg` lines of README § Command line's shell block, without
    their `--out` so that they print to stdout."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("aicg "):
            args = shlex.split(line, comments=True)[1:]
            if "--out" in args:
                k = args.index("--out")
                del args[k:k + 2]
            commands.append(args)
    return commands


def commands() -> list[list[str]]:
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    out = [[*c, "--seed", str(seed), "--workers", "1"]
           for seed in (1, 2) for w in workloads.values() for c in w["commands"]]
    out += [["bias", "--model", m, "--counts", c, "--method", r]
            for m in MODELS for r in RULES for c in COUNTS]
    out += [["bias", "--model", m, "--mu0y", mu]
            for m in (*MODELS, "halflines:2.8,4.5,2pi") for mu in ("0", "1", "3")]
    out += [["bias", "--model", "t3", "--mu0y", "1", "--n", "500"],
            ["bias", "--model", "t3", "--phi0", "0.5", "--n", "50"],
            ["bias", "--model", "t1:3", "--phi0", "0.75", "--n", "50"]]
    out += [["bias", "--model", f"halflines:{a}", "--mu0y", mu]
            for a in ANGLE_SETS for mu in ("0", "1", "2.5")]
    models = "t1:1,t1:2,t3,polytomy,unconstrained,halflines:2pi"
    out += [["select", "--counts", c, "--models", models, "--method", r, *fmt]
            for r in RULES for c in ("60,20,20", "67,67,66")
            for fmt in ([], ["--format", "json"])]
    out += [["regions", "--pair", pair, "--n", n, "--resolution", "50", "--method", r]
            for r in RULES for pair, n in (("t1:1,polytomy", "60"), ("t3,unconstrained", "20"))]
    out += [["target", "--model", m, "--n", "100", "--grid", "0:2:1", "--samples", "500",
             "--seed", "3", "--method", ",".join(RULES)] for m in ("t1", "t1:2", "t3")]
    # polytomy's only generating point is mu0y = 0
    out += [["target", "--model", m, "--n", "30", "--grid", g, "--samples", "200",
             "--seed", "4"] for m, g in (("polytomy", "0:0:1"), ("unconstrained", "0:1:0.5"))]
    out += [["radii", "--model", m, "--n", n, "--grid", g]
            for m, n, g in (("t1", "1000000", "0:5:0.05"), ("t1", "1000", "0:2:0.5"),
                            ("t3", "1000000", "0:5:0.5"), ("t3", "1000", "0:50:1"),
                            ("t3", "100", "0:3:0.25"), ("polytomy", "1000", "0:1:1"))]
    return out + readme_commands() + EDGE_INPUTS


# Run in each tree's subprocess: read the commands from stdin, run each
# through aicg.cli.main with its output captured, print the results as JSON.
RUNNER = r"""
import contextlib, io, json, sys
from aicg.cli import main
results = []
for args in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def run_tree(src: Path, cmds: list[list[str]]) -> list:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(cmds),
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"runner failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--match", default="",
                        help="keep only the commands whose joined arguments contain this text")
    args = parser.parse_args(argv)
    cmds = [c for c in commands() if args.match in " ".join(c)]
    old, new = run_tree(args.old_src, cmds), run_tree(args.new_src, cmds)
    differ = 0
    for cmd, a, b in zip(cmds, old, new):
        if a != b:
            differ += 1
            fields = [name for name, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
            print(f"DIFFERS ({', '.join(fields)}): aicg {shlex.join(cmd)}")
            print(f"  old exit {a[0]!r}, stderr {a[2].strip()!r}")
            print(f"  new exit {b[0]!r}, stderr {b[2].strip()!r}")
    print(f"{len(cmds) - differ} of {len(cmds)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
