"""Command-line surface: bias values, target curves, model selection,
decision-region grids, and neighborhood-radius calibration.

Output contracts: CSV is comma-separated with LF line endings, a mandatory
header row, and every numeric field at 17 significant digits; JSON is UTF-8
with lexicographic key order.  Re-running any subcommand with an identical
resolved configuration reproduces the output byte for byte, regardless of
worker count.

Configuration precedence: command-line flags override the optional JSON
config file (--config), which overrides built-in defaults.  A config value is
read as the text its flag would take, by the flag's own type, and every real
number must be finite.  Exit codes:
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
from .models import (HALFLINES, POLYTOMY, T3, UNCONSTRAINED, ModelSpec, cone_of,
                     validate_halflines)
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
    head, pi, tail = s.partition("pi")
    try:
        if not pi:
            return float(s)
        value = (float(head) if head else 1.0) * math.pi
        if tail:
            if not tail.startswith("/"):
                raise ValueError
            value /= float(tail[1:])
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse angle {token!r}") from None
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
    """A model id; the angles of a half-lines id parse as --angles does."""
    s = token.strip().lower()
    head, colon, tail = s.partition(":")
    if head == "halflines":
        rays = [parse_angle(t) for t in tail.split(",")] if colon else angles
        if not rays:
            raise UsageError("halflines model requires --angles")
        return validate_halflines(rays)
    try:
        return parse_model_id(s)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def settings_hash(resolved: dict[str, Any]) -> str:
    import hashlib  # here, not at the top: loading OpenSSL costs every other subcommand
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


class RunConfig:
    """Fully resolved options for one subcommand invocation, each value of
    its option's type, or None when neither a flag nor the config set it."""

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


def finite_float(text: str) -> float:
    """The type of every real-valued option."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# Every option with its flag's argparse settings.  A --config value goes
# through the same type and choices, read from the text its flag would take,
# so a value resolves alike, settings_hash included, whichever way it came.
OPTIONS: dict[str, dict[str, Any]] = {
    "config": {"help": "JSON config file; flags take precedence"},
    "out": {"help": "output path (default stdout)"},
    "seed": {"type": int},
    "workers": {"type": int,
                "help": "threads for target's --method columns and bias --method monte-carlo"},
    "abs_tol": {"type": finite_float, "help": "quadrature absolute tolerance"},
    "angles": {"help": "half-lines ray angles, e.g. '2pi/3,4pi/3,2pi'"},
    "samples": {"type": int},
    "model": {"help": "t1[:topology] | t3 | polytomy | unconstrained | halflines"},
    "models": {"help": "comma list of model ids"},
    "pair": {"help": "comma list of competing model ids"},
    "mu0y": {"type": finite_float},
    "phi0": {"type": finite_float},
    "n": {"type": int},
    "counts": {"help": "n1,n2,n3"},
    "grid": {"help": "start:stop:step over mu0y"},
    "resolution": {"type": int},
    "method": {"help": "estimator rule; for target a comma list of columns to add; "
                         "with --mu0y or --phi0 only monte-carlo"},
    "radius": {"type": finite_float},
    "eta_exponent": {"type": finite_float},
    "violation_tol": {"type": finite_float},
    "format": {"choices": ("csv", "json")},
}


def _config_value(key: str, value: Any) -> Any:
    """A config value read by its option's type and choices from the text its
    flag would take; a JSON list stands for its comma-joined items."""
    name = key.replace("-", "_")
    spec = OPTIONS[name]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        parsed = spec.get("type", str)(text)
        if "choices" in spec and parsed not in spec["choices"]:
            raise ValueError(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"config key {key!r}: invalid --{name.replace('_', '-')} "
                         f"value {text!r}") from None
    return parsed


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
            if values[k] is None and val is not None:
                values[k] = _config_value(key, val)
    return RunConfig(args.cmd, values)


def _mc_settings(cfg: RunConfig) -> McSettings:
    if cfg.get("seed") is None:
        raise UsageError("--seed is required for stochastic runs")
    return McSettings(seed=cfg.get("seed"), samples=cfg.require("samples"),
                      workers=cfg.get("workers", 1))


def _quad(cfg: RunConfig) -> QuadratureSettings:
    return QuadratureSettings(abs_tol=cfg.get("abs_tol", 1e-8))


def _angles(cfg: RunConfig) -> list[float] | None:
    raw = cfg.get("angles")
    return None if raw is None else [parse_angle(t) for t in raw.split(",")]


def _rule(cfg: RunConfig, method: str) -> EstimatorRule:
    return EstimatorRule(method, radius=cfg.get("radius"),
                         eta_exponent=cfg.get("eta_exponent", 1.0 / 3.0))


def _counts(cfg: RunConfig) -> Counts:
    counts = parse_counts(cfg.require("counts"))
    if cfg.get("n", counts.n) != counts.n:
        raise UsageError("--n disagrees with the counts total")
    return counts


def cmd_bias(cfg: RunConfig) -> str:
    model = parse_model(cfg.require("model"), _angles(cfg))
    quad = _quad(cfg)
    mu, phi0, counts_text = cfg.get("mu0y"), cfg.get("phi0"), cfg.get("counts")
    if sum(x is not None for x in (mu, phi0, counts_text)) != 1:
        raise UsageError("provide exactly one of --mu0y, --phi0 (with --n), --counts")

    method = cfg.get("method")
    geo = None
    if phi0 is not None:
        geo = GeometryParams.from_phi0(phi0, cfg.require("n", "needed with --phi0"))
        mu = geo.mu0y

    if counts_text is not None:
        counts = _counts(cfg)
        rule = _rule(cfg, cfg.get("method", "plugin"))
        scores = score_batch([model], counts.as_array()[None], rule, quad)[0]
        if scores.errors[0] is not None:
            raise DomainError(scores.errors[0])
        # the observed distance, whichever estimator ran; models without a
        # line report 0
        mu_hat = float(scores.mu_hat[0])
        if math.isnan(mu_hat):
            raise DomainError(f"counts {counts_text} put the estimate at a simplex "
                              "vertex, where the observed distance is undefined")
        est = BiasEstimate(float(scores.bias[0]), scores.bias_method)
        return _bias_row(cfg, model, mu_hat, est)

    if mu < 0:
        raise UsageError("--mu0y must be nonnegative")
    if method not in (None, "monte-carlo"):
        raise UsageError(f"--method {method!r} needs --counts; with --mu0y or --phi0 "
                         "only monte-carlo is valid")
    if method == "monte-carlo":
        settings = _mc_settings(cfg)
        geo = geo or GeometryParams.from_phi0(1.0, cfg.get("n", 1e6))
        cone = cone_of(model, geo)
        point = TransformedPoint(mu, 0.0) if model.variant == HALFLINES \
            else TransformedPoint(0.0, mu)
        est = mc_bias_gaussian(cone, point, settings)
    else:
        if model.variant == T3:
            geo = geo or GeometryParams.from_phi0(1.0, cfg.get("n", 1e6))
        # a half-lines generating point is (mu0y, 0), on the 2pi ray, as above
        exact = model.variant != T3 and (model.variant != HALFLINES or mu == 0.0)
        est = BiasEstimate(bias_on_cone(model, mu, geo.alpha0 if geo else math.pi / 6.0, quad),
                           "closed-form" if exact else "quadrature")
    return _bias_row(cfg, model, mu, est)


def _bias_row(cfg: RunConfig, model: ModelSpec, mu: float, est: BiasEstimate) -> str:
    # what the computation reads: not where the output goes or how many
    # threads draw it, the seed and sample count only where it draws, and the
    # rule's radius and rate only where a rule scores counts
    unread = {"out", "workers"} | ({"seed", "samples"} if est.method != "monte-carlo" else set())
    if cfg.get("counts") is None:
        unread |= {"radius", "eta_exponent"}
    resolved = {k: v for k, v in cfg.values.items() if v is not None and k not in unread}
    row = [model.model_id, mu, est.method, est.value, est.std_error,
           settings_hash(resolved)]
    return csv_text(["model", "mu0y", "method", "bias", "std_error", "settings_hash"], [row])


def cmd_target(cfg: RunConfig) -> str:
    model = parse_model(cfg.require("model"), _angles(cfg))
    if model.variant == HALFLINES:
        raise UsageError("target curves need a simplex model (t1, t3, polytomy, unconstrained)")
    n = cfg.require("n")
    grid = parse_grid(cfg.require("grid"))
    settings = _mc_settings(cfg)
    methods = cfg.get("method")
    rules = [_rule(cfg, tag.strip()) for tag in methods.split(",")] if methods else []
    curves = curve_grid(model, n, grid, rules, settings, _quad(cfg))
    return curve_csv(grid, curves, [rule.method for rule in rules])


def curve_csv(grid: Sequence[float], curves: dict[str, list[CurvePoint]],
              methods: Sequence[str]) -> str:
    """The curve table of curve_grid's output: mu0y, the simulated target and
    its standard error, the generalized and the classical correction, then a
    value and standard-error column per estimator method."""
    header = ["mu0y", "target", "target_se", "aicg_bias", "aic_bias"]
    for method in methods:
        header += [method, f"{method}_se"]
    rows = []
    for i, mu in enumerate(grid):
        target = curves["target"][i]
        row = [mu, target.estimate, target.std_error,
               curves["aicg"][i].estimate, curves["aic"][i].estimate]
        for method in methods:
            pt = curves[method][i]
            row += [pt.estimate, pt.std_error]
        rows.append(row)
    return csv_text(header, rows)


def cmd_select(cfg: RunConfig) -> str:
    ids = [t for t in cfg.require("models").split(",") if t.strip()]
    if not ids:
        raise UsageError("empty model list")
    angles = _angles(cfg)
    models = [parse_model(t, angles) for t in ids]
    counts = _counts(cfg)
    report = score(models, counts, _rule(cfg, cfg.get("method", "plugin")), _quad(cfg))

    if cfg.get("format") == "json":
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
    ids = [t for t in cfg.require("pair").split(",") if t.strip()]
    if len(ids) < 2:
        raise UsageError("--pair needs at least two models")
    models = [parse_model(t, _angles(cfg)) for t in ids]
    n = cfg.require("n")
    resolution = cfg.require("resolution")
    if resolution < 50:
        raise UsageError("resolution must be at least 50")
    grid = region_grid(models, n, resolution, _rule(cfg, cfg.get("method", "plugin")),
                       _quad(cfg))
    coord = [fmt_float(i / resolution) for i in range(resolution + 1)]
    rows = [[coord[i], coord[j], coord[k], w] for (i, j, k), w in zip(grid.points, grid.winners)]
    return csv_text(["p1", "p2", "p3", "winner"], rows, formatted=True)


def cmd_radii(cfg: RunConfig) -> str:
    model = parse_model(cfg.require("model"), _angles(cfg))
    n = float(cfg.get("n", 1e6))  # reference_n prints as a float
    grid = parse_grid(cfg.get("grid", "0:5:0.05"))
    quad = _quad(cfg)
    out: dict[str, Any] = {"model": model.model_id, "reference_n": n,
                           "grid": {"start": grid[0], "stop": grid[-1], "points": len(grid)}}
    if model.variant in (POLYTOMY, UNCONSTRAINED):
        out |= {"uo_radius": None, "minimax_radius": None,
                "note": "constant bias correction; neighborhood radii not applicable"}
        return json_text(out)
    r_uo, d_uo = uo_radius(model, grid, n, cfg.get("violation_tol"), quad)
    r_mm, d_mm = minimax_radius(model, grid, n, quad)
    out |= {"uo_radius": r_uo, "uo_diagnostics": d_uo,
            "minimax_radius": r_mm, "minimax_diagnostics": d_mm}
    return json_text(out)


_COMMON = ("config", "out", "seed", "workers", "abs_tol", "angles")
# subcommand: (its function, its help, the options it takes after _COMMON)
_COMMANDS = {
    "bias": (cmd_bias, "one bias-correction value",
             ("samples", "model", "mu0y", "phi0", "n", "counts", "method", "radius",
              "eta_exponent")),
    "target": (cmd_target, "curve of simulated target vs corrections",
               ("samples", "model", "n", "grid", "method", "radius", "eta_exponent")),
    "select": (cmd_select, "rank candidate models on observed counts",
               ("format", "models", "counts", "n", "method", "radius", "eta_exponent")),
    "regions": (cmd_regions, "decision-region grid over the simplex",
                ("pair", "n", "resolution", "method", "radius", "eta_exponent")),
    "radii": (cmd_radii, "calibrated neighborhood radii (JSON)",
              ("model", "n", "grid", "violation_tol")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aicg",
        description="Generalized AIC bias corrections and model selection "
                    "for trinomial models with boundaries and singularities.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key in _COMMON + options:
            command.add_argument(f"--{key.replace('_', '-')}", dest=key, **OPTIONS[key])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        text = _COMMANDS[args.cmd][0](cfg)
    except (UsageError, DomainError, OverflowError) as exc:
        # OverflowError: an integer option past the float range, such as a 400-digit --n
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ConvergenceError, InfeasibleError) as exc:
        if args.cmd == "radii":
            write_text(cfg.get("out"), json_text({"error": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    write_text(cfg.get("out"), text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
