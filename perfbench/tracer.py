"""Run one aicg CLI invocation with a span around every public function of
the package's layers, then write the spans to a JSON file.

    python3 perfbench/tracer.py SPANS.json INVOCATION_ID <aicg arguments...>

Only the benchmark's traced run starts this script.  Timed runs start
``python -m aicg.cli`` directly, so no wrapper is installed while end-to-end
metrics are measured.  The traced run uses ``--workers 1``: spans nest on a
single stack, which holds only while one thread calls into the package.

Modules bind names with ``from .x import y``, so each wrapper is patched into
every aicg module (and every module-level dict, such as the CLI's command
table) that holds the original function.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("special", "quadrature", "montecarlo", "models", "geometry",
          "estimators", "selection", "cli")


def _size(x) -> int:
    import numpy as np
    return int(np.size(x))


# Work done per call: the metric's unit, and the amount as a function of
# the call's positional arguments.
WORK = {
    "special.erf": ("elems", lambda a: _size(a[0])),
    "special.erfc": ("elems", lambda a: _size(a[0])),
    "special.norm_ppf": ("elems", lambda a: _size(a[0])),
    "special.bessel_i0e": ("elems", lambda a: _size(a[0])),
    "montecarlo.standard_normals":
        ("draws", lambda a: math.prod(a[1]) if isinstance(a[1], tuple) else int(a[1])),
    "montecarlo.trinomial_counts": ("draws", lambda a: int(a[3])),
    "models.project_points": ("points", lambda a: len(a[1])),
}


class Recorder:
    """Spans kept in memory as parallel lists; a span's parent is the span
    open on the stack when it started (-1 for none)."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.work: list[int] = []
        self.stack = [-1]
        self.counters: Counter = Counter()

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        work_of = WORK[qualname][1] if qualname in WORK else None
        clock = time.perf_counter
        call = (self._counting_integrand(fn)
                if qualname == "quadrature.quad_adaptive_1d" else fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.work.append(work_of(args) if work_of else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                return call(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{qualname}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self.stack.pop()
        wrapper.__perfbench_span__ = qualname
        return wrapper

    def _counting_integrand(self, quad):
        counters = self.counters

        def counted(f, *args, **kwargs):
            def integrand(x):
                counters["quadrature.quad_adaptive_1d.f_calls"] += 1
                counters["quadrature.quad_adaptive_1d.f_points"] += _size(x)
                return f(x)
            return quad(integrand, *args, **kwargs)
        return counted

    def dump(self, path: str, extra: dict) -> None:
        data = {"invocation": self.invocation, "names": self.names,
                "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "work": self.work,
                "counters": dict(self.counters), **extra}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def install(recorder: Recorder) -> dict[str, object]:
    """Wrap every public function of each layer; returns the originals by
    span name."""
    modules = {layer: importlib.import_module(f"aicg.{layer}") for layer in LAYERS}
    originals: dict[str, object] = {}
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            qualname = f"{layer}.{name}"
            originals[qualname] = obj
            wrappers[id(obj)] = (obj, recorder.wrap(qualname, obj))

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for modname, mod in list(sys.modules.items()):
        if modname != "aicg" and not modname.startswith("aicg."):
            continue
        for name, value in list(vars(mod).items()):
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    if swap(item) is not item:
                        value[key] = swap(item)
            elif swap(value) is not value:
                setattr(mod, name, swap(value))
    return originals


# Function spans reported by name as calls, work and self time; inclusive
# time for whole stages.
CALLS = ("special.erf", "special.erfc", "special.bessel_i0e", "quadrature.bias_t3",
         "quadrature.quad_adaptive_1d", "models.mle_simplex", "geometry.transform_map",
         "estimators.plugin_bias", "estimators.noncentral_radius_cdf",
         "estimators.expected_neighborhood_value", "selection.score")
SELF = ("special.erf", "special.erfc", "special.norm_ppf", "special.bessel_i0e",
        "quadrature.bias_t3", "quadrature.quad_adaptive_1d", "montecarlo.standard_normals",
        "montecarlo.trinomial_counts", "montecarlo.mc_target_trinomial",
        "montecarlo.mc_expected_estimator", "models.project_points", "models.mle_simplex",
        "geometry.transform_map", "estimators.plugin_bias",
        "estimators.noncentral_radius_cdf", "selection.score")
INCLUSIVE = ("quadrature.bias_t3", "estimators.noncentral_radius_cdf", "estimators.uo_radius",
             "estimators.minimax_radius", "selection.region_grid", "cli.main")
FORMAT = ("cli.csv_text", "cli.json_text", "cli.fmt_field", "cli.fmt_float")


def summarize(paths) -> dict[str, float]:
    """Per-layer metrics from the span files of one traced workload run.

    A span's self time is its duration minus the durations of its direct
    children; a layer's share is its spans' self time over the time spent
    in cli.main."""
    import numpy as np
    calls, work, total, own = Counter(), Counter(), Counter(), Counter()
    counters, cache = Counter(), Counter()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        name = np.asarray(data["name"], dtype=np.int64)
        parent = np.asarray(data["parent"], dtype=np.int64)
        dur = np.asarray(data["end"]) - np.asarray(data["start"])
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(data["names"])
        by_name = zip(data["names"], np.bincount(name, minlength=k),
                      np.bincount(name, weights=np.asarray(data["work"], dtype=float), minlength=k),
                      np.bincount(name, weights=dur, minlength=k),
                      np.bincount(name, weights=self_time, minlength=k))
        for qualname, c, w, t, s in by_name:
            calls[qualname] += int(c)
            work[qualname] += float(w)
            total[qualname] += float(t)
            own[qualname] += float(s)
        counters.update(data["counters"])
        cache.update(data["bias_t3_value"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {f"{q}.calls": calls[q] for q in CALLS}
    out |= {f"{q}.self_s": own[q] for q in SELF}
    out |= {f"{q}.{unit}": work[q] for q, (unit, _) in WORK.items()}
    out |= {f"{q}.s": total[q] for q in INCLUSIVE}
    out["special.erf.ns_per_elem"] = 1e9 * ratio(own["special.erf"], work["special.erf"])
    out["quadrature.bias_t3_value.hits"] = cache["hits"]
    out["quadrature.bias_t3_value.misses"] = cache["misses"]
    out["quadrature.bias_t3_value.hit_ratio"] = ratio(cache["hits"], cache["hits"] + cache["misses"])
    for key in ("f_calls", "f_points"):
        out[f"quadrature.quad_adaptive_1d.{key}"] = counters[f"quadrature.quad_adaptive_1d.{key}"]
    out["quadrature.convergence_errors"] = \
        counters["quadrature.quad_adaptive_1d.raised.ConvergenceError"]
    draws = ("montecarlo.standard_normals", "montecarlo.trinomial_counts")
    out["montecarlo.draws_per_s"] = ratio(sum(work[q] for q in draws), sum(own[q] for q in draws))
    out["selection.score.us_per_call"] = 1e6 * ratio(total["selection.score"],
                                                     calls["selection.score"])
    out["cli.format.self_s"] = sum(own[q] for q in FORMAT)
    for layer in LAYERS:
        layer_self = sum(s for q, s in own.items() if q.startswith(f"{layer}."))
        out[f"{layer}.share"] = ratio(layer_self, total["cli.main"])
    return out


def main(argv: list[str]) -> int:
    spans_path, invocation, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder(invocation)
    originals = install(recorder)
    cli = sys.modules["aicg.cli"]
    try:
        return cli.main(cli_args)
    finally:
        cache = originals["quadrature.bias_t3_value"].cache_info()
        recorder.dump(spans_path, {"bias_t3_value": {"hits": cache.hits,
                                                     "misses": cache.misses}})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
