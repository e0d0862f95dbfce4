"""Command-line surface: bias values, target curves, model selection,
decision-region grids, and neighborhood-radius calibration.

Output contracts: CSV is comma-separated with LF line endings, a mandatory
header row, and every numeric field at 17 significant digits; JSON is UTF-8
with lexicographic key order.  Re-running any subcommand with an identical
resolved configuration reproduces the output byte for byte, regardless of
worker count.

Configuration precedence: command-line flags override the optional JSON
config file (--config), which overrides built-in defaults.  Exit codes:
0 success, 2 usage or validation error, 3 numerical non-convergence or
infeasibility.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

from .closedform import BiasEstimate
from .estimators import (EstimatorRule, InfeasibleError, bias_on_cone, minimax_radius,
                         uo_radius)
from .geometry import Counts, DomainError, GeometryParams, TransformedPoint
from .models import HALFLINES, POLYTOMY, T3, UNCONSTRAINED, ModelSpec, cone_of
from .montecarlo import CurvePoint, McSettings, curve_grid, grid_values, mc_bias_gaussian
from .quadrature import ConvergenceError, QuadratureSettings
from .selection import parse_model_id, region_grid, score, score_batch

USAGE_EXIT = 2
NUMERIC_EXIT = 3

class UsageError(ValueError):
    pass


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def fmt_field(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def write_text(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    path = Path(out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def csv_text(header: Sequence[str], rows: Sequence[Sequence], comments: Sequence[str] = (),
             formatted: bool = False) -> str:
    """`# ` comment lines, then the header and rows; a field holding a comma,
    quote or line break is quoted, so every row has the header's width.
    Rows whose fields are already strings pass formatted=True and skip
    fmt_field."""
    buf = io.StringIO()
    buf.writelines(f"# {c}\n" for c in comments)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows if formatted else ([fmt_field(v) for v in row] for row in rows))
    return buf.getvalue()


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_angle(token: str) -> float:
    """Angles either in radians ('1.57') or as multiples of pi ('2pi',
    '0.5pi', 'pi/3', '2pi/3')."""
    s = token.strip().lower()
    if "pi" not in s:
        return float(s)
    head, _, tail = s.partition("pi")
    value = float(head) if head else 1.0
    value *= math.pi
    if tail:
        if not tail.startswith("/"):
            raise UsageError(f"cannot parse angle {token!r}")
        value /= float(tail[1:])
    return value


def parse_counts(text: str) -> Counts:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"counts must be three comma-separated integers, got {text!r}")
    try:
        return Counts(*(int(p) for p in parts))
    except (ValueError, DomainError) as exc:
        raise UsageError(f"bad counts {text!r}: {exc}") from exc


def parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
        return grid_values(start, stop, step)
    except (ValueError, DomainError) as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from exc


def parse_model(token: str, angles: Sequence[float] | None = None) -> ModelSpec:
    s = token.strip().lower()
    if s == "halflines" or s.startswith("halflines:"):
        if ":" in s:
            return parse_model_id(s)
        if not angles:
            raise UsageError("halflines model requires --angles")
        from .models import validate_halflines
        return validate_halflines(angles)
    try:
        return parse_model_id(s)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def settings_hash(resolved: dict[str, Any]) -> str:
    import hashlib  # here, not at the top: loading OpenSSL costs every other subcommand
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


class RunConfig:
    """Fully resolved options for one subcommand invocation."""

    __slots__ = ("subcommand", "values")

    def __init__(self, subcommand: str, values: dict[str, Any] | None = None):
        self.subcommand = subcommand
        self.values = {} if values is None else values

    def get(self, key: str, default=None):
        v = self.values.get(key)
        return default if v is None else v

    def require(self, key: str, hint: str = ""):
        v = self.values.get(key)
        if v is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}"
                             + (f" ({hint})" if hint else ""))
        return v


def _resolve(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in file_values.items():
            k = key.replace("-", "_")
            if k not in values:
                raise UsageError(f"unknown key {key!r} in config {args.config!r} "
                                 f"for the {args.cmd} subcommand")
            if values[k] is None:
                values[k] = val
    return RunConfig(args.cmd, values)


def _mc_settings(cfg: RunConfig, seed: int) -> McSettings:
    return McSettings(seed=seed, samples=int(cfg.require("samples")),
                      workers=int(cfg.get("workers", 1)))


def _quad(cfg: RunConfig) -> QuadratureSettings:
    return QuadratureSettings(abs_tol=float(cfg.get("abs_tol", 1e-8)))


def _angles(cfg: RunConfig) -> list[float] | None:
    raw = cfg.get("angles")
    if raw is None:
        return None
    if isinstance(raw, str):
        return [parse_angle(t) for t in raw.split(",")]
    return [float(a) for a in raw]


def cmd_bias(cfg: RunConfig) -> str:
    model = parse_model(cfg.require("model"), _angles(cfg))
    quad = _quad(cfg)
    mu = cfg.get("mu0y")
    phi0 = cfg.get("phi0")
    counts_text = cfg.get("counts")
    modes = sum(x is not None for x in (mu, phi0, counts_text))
    if modes != 1:
        raise UsageError("provide exactly one of --mu0y, --phi0 (with --n), --counts")

    method = cfg.get("method")
    geo = None
    if phi0 is not None:
        n = float(cfg.require("n", "needed with --phi0"))
        geo = GeometryParams.from_phi0(float(phi0), n)
        mu = geo.mu0y

    if counts_text is not None:
        counts = parse_counts(str(counts_text))
        if cfg.get("n") is not None and int(cfg.get("n")) != counts.n:
            raise UsageError("--n disagrees with the counts total")
        rule_method = method or "plugin"
        if rule_method not in ("plugin", "aic", "llf", "ulf", "uo", "minimax",
                               "consistent", "bootstrap"):
            raise UsageError(f"method {rule_method!r} not valid with --counts")
        seed = _seed_for(cfg, rule_method == "bootstrap")
        rule = EstimatorRule(rule_method, radius=cfg.get("radius"),
                             eta_exponent=float(cfg.get("eta_exponent", 1.0 / 3.0)),
                             bootstrap_b=int(cfg.get("samples") or 1000))
        scores = score_batch([model], counts.as_array()[None], rule, seed, quad)[0]
        if scores.errors[0] is not None:
            raise DomainError(scores.errors[0])
        # the observed distance, whichever estimator ran; models without a
        # line report 0
        mu_hat = float(scores.mu_hat[0])
        if math.isnan(mu_hat):
            raise DomainError(f"counts {counts_text} put the estimate at a simplex "
                              "vertex, where the observed distance is undefined")
        std_error = None if scores.std_error is None else float(scores.std_error[0])
        est = BiasEstimate(float(scores.bias[0]), scores.bias_method, std_error)
        return _bias_row(cfg, model, mu_hat, est)

    mu = float(mu)
    if mu < 0:
        raise UsageError("--mu0y must be nonnegative")
    if method == "monte-carlo":
        seed = _seed_for(cfg, True)
        settings = _mc_settings(cfg, seed)
        geo = geo or GeometryParams.from_phi0(1.0, float(cfg.get("n") or 1e6))
        cone = cone_of(model, geo)
        point = TransformedPoint(mu, 0.0) if model.variant == HALFLINES \
            else TransformedPoint(0.0, mu)
        est = mc_bias_gaussian(cone, point, settings)
    else:
        if model.variant == T3:
            geo = geo or GeometryParams.from_phi0(1.0, float(cfg.get("n") or 1e6))
        # a half-lines generating point is (mu0y, 0), on the 2pi ray, as above
        exact = model.variant != T3 and (model.variant != HALFLINES or mu == 0.0)
        est = BiasEstimate(bias_on_cone(model, mu, geo.alpha0 if geo else math.pi / 6.0, quad),
                           "closed-form" if exact else "quadrature")
    return _bias_row(cfg, model, mu, est)


def _bias_row(cfg: RunConfig, model: ModelSpec, mu: float, est: BiasEstimate) -> str:
    resolved = {k: v for k, v in cfg.values.items() if v is not None and k != "out"}
    row = [model.model_id, mu, est.method, est.value, est.std_error,
           settings_hash(resolved)]
    return csv_text(["model", "mu0y", "method", "bias", "std_error", "settings_hash"], [row])


def _seed_for(cfg: RunConfig, stochastic: bool) -> int:
    seed = cfg.get("seed")
    if seed is None:
        if stochastic:
            raise UsageError("--seed is required for stochastic runs")
        return 0
    return int(seed)


def _rules_from_methods(cfg: RunConfig, n: float) -> list[EstimatorRule]:
    raw = cfg.get("method")
    if not raw:
        return []
    rules = []
    for tag in str(raw).split(","):
        tag = tag.strip()
        rules.append(EstimatorRule(tag, radius=cfg.get("radius"),
                                   eta_exponent=float(cfg.get("eta_exponent", 1.0 / 3.0)),
                                   reference_n=int(n)))
    return rules


def cmd_target(cfg: RunConfig) -> str:
    model = parse_model(cfg.require("model"), _angles(cfg))
    if model.variant == HALFLINES:
        raise UsageError("target curves need a simplex model (t1, t3, polytomy, unconstrained)")
    n = int(cfg.require("n"))
    grid = parse_grid(str(cfg.require("grid")))
    seed = _seed_for(cfg, True)
    settings = _mc_settings(cfg, seed)
    rules = _rules_from_methods(cfg, n)
    curves = curve_grid(model, n, grid, rules, settings, _quad(cfg))
    return curve_csv(grid, curves, [rule.method for rule in rules])


def curve_csv(grid: Sequence[float], curves: dict[str, list[CurvePoint]],
              methods: Sequence[str], target: Sequence[float] | None = None) -> str:
    """The curve table of curve_grid's output: mu0y, the simulated target and
    its standard error, the generalized and the classical correction, then a
    value and standard-error column per estimator method.  `target`, when
    given, replaces the target values (for example by a smoothed curve)."""
    if target is None:
        target = [pt.estimate for pt in curves["target"]]
    header = ["mu0y", "target", "target_se", "aicg_bias", "aic_bias"]
    for method in methods:
        header += [method, f"{method}_se"]
    rows = []
    for i, mu in enumerate(grid):
        row = [mu, target[i], curves["target"][i].std_error,
               curves["aicg"][i].estimate, curves["aic"][i].estimate]
        for method in methods:
            pt = curves[method][i]
            row += [pt.estimate, pt.std_error]
        rows.append(row)
    return csv_text(header, rows)


def cmd_select(cfg: RunConfig) -> str:
    models_text = str(cfg.require("models"))
    ids = [t for t in models_text.split(",") if t.strip()]
    if not ids:
        raise UsageError("empty model list")
    angles = _angles(cfg)
    models = [parse_model(t, angles) for t in ids]
    counts = parse_counts(str(cfg.require("counts")))
    n_flag = cfg.get("n")
    if n_flag is not None and int(n_flag) != counts.n:
        raise UsageError("--n disagrees with the counts total")
    method = str(cfg.get("method", "plugin"))
    seed = _seed_for(cfg, method == "bootstrap")
    rule = EstimatorRule(method, radius=cfg.get("radius"),
                         eta_exponent=float(cfg.get("eta_exponent", 1.0 / 3.0)),
                         bootstrap_b=int(cfg.get("samples") or 1000))
    report = score(models, counts, rule, seed, _quad(cfg))

    if cfg.get("format", "csv") == "json":
        return json_text({
            "metadata": report.metadata,
            "rows": [{k: getattr(r, k) for k in r.__slots__} for r in report.rows],
        })
    header = ["model", "neg2loglik", "bias_method", "bias", "aicg", "aic",
              "rank_aicg", "rank_aic", "error"]
    rows = [[r.model_id, r.neg2loglik, r.bias_method, r.bias_value, r.aicg,
             r.aic, r.rank_aicg, r.rank_aic, r.error] for r in report.rows]
    comments = [f"{k}={report.metadata[k]}" for k in sorted(report.metadata)
                if report.metadata[k] is not None]
    return csv_text(header, rows, comments)


def cmd_regions(cfg: RunConfig) -> str:
    pair_text = str(cfg.require("pair"))
    ids = [t for t in pair_text.split(",") if t.strip()]
    if len(ids) < 2:
        raise UsageError("--pair needs at least two models")
    models = [parse_model(t, _angles(cfg)) for t in ids]
    n = int(cfg.require("n"))
    resolution = int(cfg.require("resolution"))
    if resolution < 50:
        raise UsageError("resolution must be at least 50")
    method = str(cfg.get("method", "plugin"))
    seed = _seed_for(cfg, method == "bootstrap")
    rule = EstimatorRule(method, radius=cfg.get("radius"),
                         eta_exponent=float(cfg.get("eta_exponent", 1.0 / 3.0)),
                         bootstrap_b=int(cfg.get("samples") or 1000))
    grid = region_grid(models, n, resolution, rule, seed, _quad(cfg))
    coord = [fmt_float(i / resolution) for i in range(resolution + 1)]
    rows = [[coord[i], coord[j], coord[k], w] for (i, j, k), w in zip(grid.points, grid.winners)]
    return csv_text(["p1", "p2", "p3", "winner"], rows, formatted=True)


def cmd_radii(cfg: RunConfig) -> str:
    model = parse_model(cfg.require("model"), _angles(cfg))
    n = float(cfg.get("n") or 1e6)
    grid = parse_grid(str(cfg.get("grid") or "0:5:0.05"))
    quad = _quad(cfg)
    out: dict[str, Any] = {"model": model.model_id, "reference_n": n,
                           "grid": {"start": grid[0], "stop": grid[-1], "points": len(grid)}}
    if model.variant in (POLYTOMY, UNCONSTRAINED):
        out |= {"uo_radius": None, "minimax_radius": None,
                "note": "constant bias correction; neighborhood radii not applicable"}
        return json_text(out)
    tol = cfg.get("violation_tol")
    r_uo, d_uo = uo_radius(model, grid, n, quad=quad,
                           **({} if tol is None else {"violation_tol": float(tol)}))
    r_mm, d_mm = minimax_radius(model, grid, n, quad)
    out |= {"uo_radius": r_uo, "uo_diagnostics": d_uo,
            "minimax_radius": r_mm, "minimax_diagnostics": d_mm}
    return json_text(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aicg",
        description="Generalized AIC bias corrections and model selection "
                    "for trinomial models with boundaries and singularities.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--abs-tol", dest="abs_tol", type=float,
                       help="quadrature absolute tolerance")
        p.add_argument("--angles", help="half-lines ray angles, e.g. '2pi/3,4pi/3,2pi'")

    bias = sub.add_parser("bias", help="one bias-correction value")
    common(bias)
    bias.add_argument("--samples", type=int)
    bias.add_argument("--model", help="t1[:topology] | t3 | polytomy | unconstrained | halflines")
    bias.add_argument("--mu0y", type=float)
    bias.add_argument("--phi0", type=float)
    bias.add_argument("--n", type=int)
    bias.add_argument("--counts", help="n1,n2,n3")
    bias.add_argument("--method")
    bias.add_argument("--radius", type=float)
    bias.add_argument("--eta-exponent", dest="eta_exponent", type=float)

    target = sub.add_parser("target", help="curve of simulated target vs corrections")
    common(target)
    target.add_argument("--samples", type=int)
    target.add_argument("--model")
    target.add_argument("--n", type=int)
    target.add_argument("--grid", help="start:stop:step over mu0y")
    target.add_argument("--method", help="comma list of estimator columns to add")
    target.add_argument("--radius", type=float)
    target.add_argument("--eta-exponent", dest="eta_exponent", type=float)

    select = sub.add_parser("select", help="rank candidate models on observed counts")
    common(select)
    select.add_argument("--samples", type=int)
    select.add_argument("--format", choices=("csv", "json"))
    select.add_argument("--models", help="comma list of model ids")
    select.add_argument("--counts", help="n1,n2,n3")
    select.add_argument("--n", type=int)
    select.add_argument("--method")
    select.add_argument("--radius", type=float)
    select.add_argument("--eta-exponent", dest="eta_exponent", type=float)

    regions = sub.add_parser("regions", help="decision-region grid over the simplex")
    common(regions)
    regions.add_argument("--samples", type=int)
    regions.add_argument("--pair", help="comma list of competing model ids")
    regions.add_argument("--n", type=int)
    regions.add_argument("--resolution", type=int)
    regions.add_argument("--method")
    regions.add_argument("--radius", type=float)
    regions.add_argument("--eta-exponent", dest="eta_exponent", type=float)

    radii = sub.add_parser("radii", help="calibrated neighborhood radii (JSON)")
    common(radii)
    radii.add_argument("--model")
    radii.add_argument("--n", type=int)
    radii.add_argument("--grid")
    radii.add_argument("--violation-tol", dest="violation_tol", type=float)
    return parser


_COMMANDS = {
    "bias": cmd_bias,
    "target": cmd_target,
    "select": cmd_select,
    "regions": cmd_regions,
    "radii": cmd_radii,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        text = _COMMANDS[args.cmd](cfg)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ConvergenceError, InfeasibleError) as exc:
        if args.cmd == "radii":
            write_text(vars(args).get("out"), json_text({"error": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    write_text(cfg.get("out"), text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
