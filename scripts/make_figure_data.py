#!/usr/bin/env python3
"""Emit the bias-correction curve data as CSV files.

For each requested model and sample size, runs `aicg target` into one file
per (model, n): the simulated finite-n target, the analytic generalized
correction, the classical correction, and optionally the expected value of
data-dependent estimator rules on a mu0y grid.

Example:
    python scripts/make_figure_data.py --out-dir data/curves \
        --models t1:1,t3 --n-list 30,100,1000 --grid 0:5:0.02 \
        --samples 100000 --seed 2026 --methods plugin,uo,minimax,llf,ulf
"""

from __future__ import annotations

import argparse
from pathlib import Path

from aicg.cli import main as cli_main
from aicg.models import parse_model_id


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", type=Path, default=Path("data/curves"))
    ap.add_argument("--models", default="t1:1,t3")
    ap.add_argument("--n-list", default="30,100,1000")
    ap.add_argument("--grid", default="0:5:0.1")
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--methods", default="",
                    help="comma list of estimator rules to add as columns")
    args = ap.parse_args()

    for model_id in args.models.split(","):
        try:
            slug = parse_model_id(model_id).model_id.replace(":", "")
        except ValueError as exc:  # an id parse_model_id rejects
            ap.error(str(exc))
        for n in args.n_list.split(","):
            out = args.out_dir / f"curve_{slug}_n{n}.csv"
            code = cli_main([
                "target", "--model", model_id, "--n", n, "--grid", args.grid,
                "--samples", str(args.samples), "--seed", str(args.seed), "--out", str(out),
                *(["--method", args.methods] if args.methods else []),
            ])
            if code != 0:
                return code
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
