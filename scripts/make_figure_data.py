#!/usr/bin/env python3
"""Emit the bias-correction curve data as CSV files.

For each requested model and sample size, writes one file per (model, n) with
the simulated finite-n target, the analytic generalized correction, the
classical correction, and optionally the expected value of data-dependent
estimator rules on a mu0y grid.  Defaults are desk scale; raise --samples
toward 1e7 to reproduce publication-quality curves (slow).

Example:
    python scripts/make_figure_data.py --out-dir data/curves \
        --models t1:1,t3 --n-list 30,100,1000 --grid 0:5:0.02 \
        --samples 100000 --seed 2026 --methods plugin,uo,minimax,llf,ulf
"""

from __future__ import annotations

import argparse
from pathlib import Path

from aicg.cli import curve_csv, parse_grid, write_text
from aicg.estimators import EstimatorRule
from aicg.montecarlo import McSettings, curve_grid
from aicg.selection import parse_model_id


def build_rules(methods: str, n: int) -> list[EstimatorRule]:
    if not methods:
        return []
    return [EstimatorRule(m.strip(), reference_n=n) for m in methods.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", type=Path, default=Path("data/curves"))
    ap.add_argument("--models", default="t1:1,t3")
    ap.add_argument("--n-list", default="30,100,1000")
    ap.add_argument("--grid", default="0:5:0.1")
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--methods", default="",
                    help="comma list of estimator rules to add as columns")
    ap.add_argument("--smooth-window", type=int, default=0,
                    help="optional centered moving-average window for the target column")
    args = ap.parse_args()

    grid = parse_grid(args.grid)
    for model_id in args.models.split(","):
        model = parse_model_id(model_id)
        for n_text in args.n_list.split(","):
            n = int(n_text)
            rules = build_rules(args.methods, n)
            settings = McSettings(args.seed, args.samples, workers=args.workers)
            curves = curve_grid(model, n, grid, rules, settings)

            target = None
            if args.smooth_window > 1:
                target = moving_average([pt.estimate for pt in curves["target"]],
                                        args.smooth_window)
            out = args.out_dir / f"curve_{model.model_id.replace(':', '')}_n{n}.csv"
            write_text(str(out), curve_csv(grid, curves, [r.method for r in rules], target))
            print(f"wrote {out} ({len(grid)} rows)")
    return 0


def moving_average(values: list[float], window: int) -> list[float]:
    half = window // 2
    out = []
    for i in range(len(values)):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


if __name__ == "__main__":
    raise SystemExit(main())
