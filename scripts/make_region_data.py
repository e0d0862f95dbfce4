#!/usr/bin/env python3
"""Emit model-selection decision-region grids over the simplex as CSV.

Covers the two standard head-to-head comparisons (single topology vs the
star-tree point model, and all-topologies vs the unconstrained model) at
n = 200, resolution 200 by default.

Example:
    python scripts/make_region_data.py --out-dir data/regions --n 200 --resolution 200
"""

from __future__ import annotations

import argparse
from pathlib import Path

from aicg.cli import main as cli_main

# every run passes one seed, which the bootstrap method requires and the
# deterministic methods ignore; the same default as make_figure_data.py
SEED = 2026


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", type=Path, default=Path("data/regions"))
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--resolution", type=int, default=200)
    ap.add_argument("--method", default="plugin")
    ap.add_argument("--pairs", default="t1:1,polytomy;t3,unconstrained",
                    help="semicolon-separated list of comma pairs")
    args = ap.parse_args()

    for pair in args.pairs.split(";"):
        slug = pair.replace(":", "").replace(",", "_vs_")
        out = args.out_dir / f"regions_{slug}_n{args.n}_r{args.resolution}.csv"
        code = cli_main([
            "regions", "--pair", pair, "--n", str(args.n),
            "--resolution", str(args.resolution), "--method", args.method,
            "--seed", str(SEED), "--out", str(out),
        ])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
