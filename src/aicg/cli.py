"""Command-line surface: bias values, target curves, model selection,
decision-region grids, and neighborhood-radius calibration.

Output contracts: CSV is comma-separated with LF line endings, a mandatory
header row, and every numeric field at 17 significant digits; JSON is UTF-8
with lexicographic key order.  Re-running any subcommand with an identical
resolved configuration reproduces the output byte for byte.  --workers is
accepted and not read, so that callers which pass it keep working.

Configuration precedence: command-line flags override the optional JSON
config file (--config), which overrides built-in defaults.  A config value is
read as the text its flag would take, by the flag's own type, and every real
number must be finite.  Exit codes: 0 success, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path
from typing import Any, Sequence

from .estimators import (DEFAULT_RADII, ETA_EXPONENT, REFERENCE_N, EstimatorRule,
                         bias_on_cone, calibrate_radii)
from .geometry import DomainError, alpha_from_phi0, mu0y, phi_from_mu0y
from .models import HALFLINES, POLYTOMY, T3, UNCONSTRAINED, ModelSpec, parse_model_id
from .montecarlo import curve_grid, grid_values
from .selection import region_grid, score, score_batch, simplex_lattice

USAGE_EXIT = 2
# The most points of a regions lattice.  regions holds a few hundred bytes per
# lattice point and model: on a 2-core x86_64 VM, resolution 1412 (998,988
# points) with four models peaked at 592 MB resident.
_MAX_LATTICE_POINTS = 10**6

class UsageError(ValueError):
    pass


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def fmt_field(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
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


def csv_text(header: Sequence[str], rows: Sequence[Sequence], comments: Sequence[str] = ()) -> str:
    """`# ` comment lines, then the header and rows; a field holding a comma,
    quote or line break is quoted, so every row has the header's width."""
    buf = io.StringIO()
    buf.writelines(f"# {c}\n" for c in comments)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt_field(v) for v in row] for row in rows)
    return buf.getvalue()


def json_text(obj) -> str:
    import json  # here, as in settings_hash and _resolve: most runs write no JSON
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_counts(text: str) -> tuple[int, int, int]:
    """Three comma-separated integers; score_batch checks their values."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"counts must be three comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
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


def settings_hash(resolved: dict[str, Any]) -> str:
    import hashlib  # here, not at the top: loading OpenSSL costs every other subcommand
    import json
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _require(cfg: dict[str, Any], key: str, hint: str = ""):
    v = cfg.get(key)
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
    "workers": {"type": int, "help": "accepted and not read"},
    "samples": {"type": int},
    "model": {"help": "t1[:topology] | t3 | polytomy | unconstrained | halflines:ANGLES"},
    "models": {"help": "comma list of model ids"},
    "pair": {"help": "comma list of competing model ids"},
    "mu0y": {"type": finite_float},
    "phi0": {"type": finite_float},
    "n": {"type": int},
    "counts": {"help": "n1,n2,n3"},
    "grid": {"help": "start:stop:step over mu0y"},
    "resolution": {"type": int},
    "method": {"help": "estimator rule; for target a comma list of columns to add; "
                         "bias takes it only with --counts"},
    "radius": {"type": finite_float},
    "eta_exponent": {"type": finite_float},
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


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """The options of one subcommand invocation that a flag or the config
    set, each value of its option's type."""
    values = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
    if args.config:
        import json
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
    return {k: v for k, v in values.items() if v is not None}


def _rule(cfg: dict[str, Any], method: str) -> EstimatorRule:
    return EstimatorRule(method, radius=cfg.get("radius"),
                         eta_exponent=cfg.get("eta_exponent", ETA_EXPONENT))


def _counts(cfg: dict[str, Any]) -> tuple[int, int, int]:
    counts = parse_counts(_require(cfg, "counts"))
    if cfg.get("n", sum(counts)) != sum(counts):
        raise UsageError("--n disagrees with the counts total")
    return counts


def cmd_bias(cfg: dict[str, Any]) -> str:
    model = parse_model_id(_require(cfg, "model"))
    mu, phi0, counts_text = cfg.get("mu0y"), cfg.get("phi0"), cfg.get("counts")
    if sum(x is not None for x in (mu, phi0, counts_text)) != 1:
        raise UsageError("provide exactly one of --mu0y, --phi0 (with --n), --counts")

    alpha0 = math.pi / 6.0  # the t3 cone angle; no other model reads it
    if phi0 is not None:
        n = _require(cfg, "n", "needed with --phi0")
        mu, alpha0 = mu0y(phi0, n), alpha_from_phi0(phi0)

    if counts_text is not None:
        counts = _counts(cfg)
        rule = _rule(cfg, cfg.get("method", "plugin"))
        scores = score_batch([model], [counts], rule)[0]
        if scores.error is not None:
            raise DomainError(scores.error)
        # the observed distance, whichever estimator ran: 0 for a model
        # without a line, inf for an estimate at a simplex vertex
        return _bias_row(cfg, model, float(scores.mu_hat[0]), scores.bias_method,
                         float(scores.bias[0]))

    if mu < 0:
        raise UsageError("--mu0y must be nonnegative")
    method = cfg.get("method")
    if method is not None:
        raise UsageError(f"--method {method!r} needs --counts; with --mu0y or --phi0 "
                         "the bias is its closed form at that distance")
    n = cfg.get("n", REFERENCE_N)
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if phi0 is None and model.variant == T3:
        # the t3 cone angle at the generating point, as on a target curve
        alpha0 = alpha_from_phi0(phi_from_mu0y(mu, n))
    # a half-lines generating point is (mu0y, 0), on the 2pi ray
    return _bias_row(cfg, model, mu, "closed-form", bias_on_cone(model, mu, alpha0))


def _bias_row(cfg: dict[str, Any], model: ModelSpec, mu: float, method: str, value: float) -> str:
    # what the computation reads: not where the output goes, the threads or
    # the seed (bias draws nothing), the radius only where uo or minimax
    # scores counts and the rate only where consistent or bootstrap does,
    # and n only where it sets the distance (--phi0) or the t3 cone angle;
    # --counts only checks n.  An option given at the value the run takes
    # without it hashes as left out.
    unread = {"out", "workers", "seed"}
    scores_counts = cfg.get("counts") is not None
    rule = cfg.get("method") if scores_counts else None
    if rule not in ("uo", "minimax"):
        unread.add("radius")
    if rule not in ("consistent", "bootstrap"):
        unread.add("eta_exponent")
    if cfg.get("phi0") is None and (model.variant != T3 or scores_counts):
        unread.add("n")
    defaults = {"method": "plugin" if scores_counts else None,
                "n": REFERENCE_N if cfg.get("phi0") is None else None,
                "eta_exponent": ETA_EXPONENT,
                "radius": DEFAULT_RADII.get((model.variant, cfg.get("method")))}
    resolved = {k: v for k, v in cfg.items() if k not in unread and v != defaults.get(k)}
    row = [model.model_id, mu, method, value, settings_hash(resolved)]
    return csv_text(["model", "mu0y", "method", "bias", "settings_hash"], [row])


def cmd_target(cfg: dict[str, Any]) -> str:
    model = parse_model_id(_require(cfg, "model"))
    if model.variant == HALFLINES:
        raise UsageError("target curves need a simplex model (t1, t3, polytomy, unconstrained)")
    n = _require(cfg, "n")
    grid = parse_grid(_require(cfg, "grid"))
    if cfg.get("seed") is None:
        raise UsageError("--seed is required for stochastic runs")
    samples = _require(cfg, "samples")
    methods = cfg.get("method")
    rules = [_rule(cfg, tag.strip()) for tag in methods.split(",")] if methods else []
    if model.variant == POLYTOMY and grid[-1] > 0:
        raise UsageError("polytomy's only generating point is the centroid, mu0y = 0; "
                         f"the grid reaches mu0y = {grid[-1]!r}")
    curves = curve_grid(model, n, grid, rules, cfg["seed"], samples)
    return curve_csv(grid, curves, [rule.method for rule in rules])


def curve_csv(grid: Sequence[float], curves: dict[str, list[tuple[float, float]]],
              methods: Sequence[str]) -> str:
    """The curve table of curve_grid's output: mu0y, the simulated target and
    its standard error, the generalized and the classical correction, then a
    value and standard-error column per estimator method."""
    header = ["mu0y", "target", "target_se", "aicg_bias", "aic_bias"]
    for method in methods:
        header += [method, f"{method}_se"]
    rows = []
    for i, mu in enumerate(grid):
        row = [mu, *curves["target"][i], curves["aicg"][i][0], curves["aic"][i][0]]
        for method in methods:
            row += curves[method][i]
        rows.append(row)
    return csv_text(header, rows)


def cmd_select(cfg: dict[str, Any]) -> str:
    ids = [t for t in _require(cfg, "models").split(",") if t.strip()]
    if not ids:
        raise UsageError("empty model list")
    models = [parse_model_id(t) for t in ids]
    counts = _counts(cfg)
    report = score(models, counts, _rule(cfg, cfg.get("method", "plugin")))

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


def cmd_regions(cfg: dict[str, Any]) -> str:
    ids = [t for t in _require(cfg, "pair").split(",") if t.strip()]
    if len(ids) < 2:
        raise UsageError("--pair needs at least two models")
    models = [parse_model_id(t) for t in ids]
    n = _require(cfg, "n")
    resolution = _require(cfg, "resolution")
    if resolution < 50:
        raise UsageError("resolution must be at least 50")
    points = (resolution + 1) * (resolution + 2) // 2 - 3  # the lattice less its vertices
    if points > _MAX_LATTICE_POINTS:
        raise UsageError(f"resolution {resolution} gives {points} lattice points, "
                         f"above the {_MAX_LATTICE_POINTS} allowed")
    winners = region_grid(models, n, resolution, _rule(cfg, cfg.get("method", "plugin")))
    coord = [fmt_float(i / resolution) for i in range(resolution + 1)]
    # each distinct label quoted once, by csv_text's rule: a halflines id holds commas
    label = {w: csv_text([w], [])[:-1] for w in set(winners)}
    rows = [f"{coord[i]},{coord[j]},{coord[k]},{label[w]}\n"
            for (i, j, k), w in zip(simplex_lattice(resolution), winners)]
    return "p1,p2,p3,winner\n" + "".join(rows)


def cmd_radii(cfg: dict[str, Any]) -> str:
    model = parse_model_id(_require(cfg, "model"))
    n = float(cfg.get("n", REFERENCE_N))  # reference_n prints as a float
    grid = parse_grid(cfg.get("grid", "0:5:0.05"))
    out: dict[str, Any] = {"model": model.model_id, "reference_n": n,
                           "grid": {"start": grid[0], "stop": grid[-1], "points": len(grid)}}
    if model.variant in (POLYTOMY, UNCONSTRAINED):
        out |= {"uo_radius": None, "minimax_radius": None,
                "note": "constant bias correction; neighborhood radii not applicable"}
        return json_text(out)
    return json_text(out | calibrate_radii(model, grid, n))


_COMMON = ("config", "out", "seed", "workers")
# subcommand: (its function, its help, the options it takes after _COMMON)
_COMMANDS = {
    "bias": (cmd_bias, "one bias-correction value",
             ("model", "mu0y", "phi0", "n", "counts", "method", "radius", "eta_exponent")),
    "target": (cmd_target, "curve of simulated target vs corrections",
               ("samples", "model", "n", "grid", "method", "radius", "eta_exponent")),
    "select": (cmd_select, "rank candidate models on observed counts",
               ("format", "models", "counts", "n", "method", "radius", "eta_exponent")),
    "regions": (cmd_regions, "decision-region grid over the simplex",
                ("pair", "n", "resolution", "method", "radius", "eta_exponent")),
    "radii": (cmd_radii, "calibrated neighborhood radii (JSON)",
              ("model", "n", "grid")),
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
    write_text(cfg.get("out"), text)
    return 0


def run() -> None:
    """Process entry point of ``python -m aicg.cli`` and the installed
    ``aicg`` script: exit with main()'s code."""
    import gc
    try:
        sys.exit(main())
    finally:
        # On every exit path (a code, argparse's exit, an uncaught exception)
        # move the ~21,000 objects that numpy and aicg leave tracked into the
        # permanent generation, which the full collections at interpreter
        # shutdown skip.  This is safe: finalization still flushes stdout and
        # stderr, write_text closes its file in a with block, and no aicg
        # object needs a finalizer at exit.  main() does not freeze, because
        # tests and the benchmark tracer call it in-process.
        gc.freeze()


if __name__ == "__main__":
    run()
