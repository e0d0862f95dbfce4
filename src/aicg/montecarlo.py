"""Seeded, chunk-reproducible Monte Carlo engines.

Every engine draws through per-chunk generators keyed by (seed, chunk index),
reduces per-chunk sums in fixed chunk order with math.fsum, and is therefore
bit-identical for a given (seed, samples, chunk_size) no matter how many
worker threads evaluate the chunks.

Normal variates come from inverse-CDF sampling: u = (k + 1/2) / 2^53 with k a
53-bit integer from the chunk stream, mapped through norm_ppf.  Trinomial
counts come from sequential binomial conditioning on the same streams.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closedform import BiasEstimate, bias_aic
from .geometry import (
    DomainError,
    GeometryParams,
    SimplexPoint,
    TransformedPoint,
    phi_from_mu0y,
    theta_on_line,
)
from .models import Cone, ModelSpec, cone_of, mle_rows, project_points, theta_in_model
from .quadrature import QuadratureSettings
from .special import norm_ppf

_U53 = float(2.0 ** -53)


@dataclass(frozen=True)
class McSettings:
    seed: int
    samples: int
    chunk_size: int = 1 << 16
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.chunk_size < 1:
            raise DomainError("chunk_size must be >= 1")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


@dataclass(frozen=True)
class CurvePoint:
    mu0y: float
    estimate: float
    std_error: float
    n: float

    def __post_init__(self):
        if self.std_error < 0:
            raise DomainError("std_error must be nonnegative")


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a nested stochastic task."""
    ss = np.random.SeedSequence([seed % (1 << 64), *path])
    return int(ss.generate_state(2, np.uint64)[0])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % (1 << 64), index]))


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF normal draws; one 53-bit uniform per variate."""
    k = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return norm_ppf((k.astype(float) + 0.5) * _U53)


def trinomial_counts(rng: np.random.Generator, n: int, theta: np.ndarray,
                     count: int) -> np.ndarray:
    """(count, 3) trinomial draws by sequential binomial conditioning."""
    p1, p2, _ = theta
    c1 = rng.binomial(n, p1, size=count)
    rest = n - c1
    q = min(max(p2 / max(1.0 - p1, 1e-300), 0.0), 1.0)
    c2 = rng.binomial(rest, q)
    return np.column_stack([c1, c2, rest - c2]).astype(float)


def _run_chunks(settings: McSettings, kernel: Callable[[np.random.Generator, int], np.ndarray]):
    """Reduce a per-draw statistic over all chunks; returns (mean, se, min, n)."""
    full, rem = divmod(settings.samples, settings.chunk_size)
    sizes = [settings.chunk_size] * full + ([rem] if rem else [])

    def one(index_size):
        index, size = index_size
        vals = kernel(_chunk_rng(settings.seed, index), size)
        return float(vals.sum()), float((vals * vals).sum()), float(vals.min())

    tasks = list(enumerate(sizes))
    if settings.workers > 1:
        with ThreadPoolExecutor(max_workers=settings.workers) as pool:
            parts = list(pool.map(one, tasks))
    else:
        parts = [one(t) for t in tasks]

    n = settings.samples
    mean = math.fsum(p[0] for p in parts) / n
    if n > 1:
        var = max(0.0, (math.fsum(p[1] for p in parts) - n * mean * mean) / (n - 1))
    else:
        var = 0.0
    se = math.sqrt(var / n)
    return mean, se, min(p[2] for p in parts), n


def mc_bias_gaussian(cone: Cone, mu0: TransformedPoint,
                     settings: McSettings) -> BiasEstimate:
    """Bias correction 2 E{(z - mu0).(proj(z) - mu0)}, z ~ N(mu0, I)."""
    center = mu0.as_array()
    if float(np.linalg.norm(project_points(cone, center[None])[0] - center)) > 1e-9:
        raise DomainError("mu0 must lie on the cone")

    def kernel(rng, size):
        z = center + standard_normals(rng, (size, 2))
        m = project_points(cone, z)
        return 2.0 * np.einsum("ij,ij->i", z - center, m - center)

    mean, se, lowest, n = _run_chunks(settings, kernel)
    return BiasEstimate(mean, "monte-carlo", std_error=se,
                        settings={"mu0": (mu0.x, mu0.y), "samples": n,
                                  "seed": settings.seed, "chunk_size": settings.chunk_size,
                                  "min_draw": lowest})


def mc_target_trinomial(model: ModelSpec, theta0: SimplexPoint, n: int,
                        settings: McSettings) -> BiasEstimate:
    """Finite-n bias-correction target, estimated by trinomial simulation.

    Per replicate: 2 sum_i (c_i - n theta0_i) log thetahat_i, written in the
    zero-sum form 2 [d1 (L1 - L3) + d2 (L2 - L3)] so constant estimates give
    an exact zero; thetahat components are clamped at 1e-12 before logging.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if not theta_in_model(model, theta0):
        raise DomainError(f"theta0 outside the parameter space of {model.model_id}")
    t0 = np.array(theta0.as_tuple())

    def kernel(rng, size):
        counts = trinomial_counts(rng, n, t0, size)
        logs = np.log(np.maximum(mle_rows(model, counts)[0], 1e-12))
        d1 = counts[:, 0] - n * t0[0]
        d2 = counts[:, 1] - n * t0[1]
        return 2.0 * (d1 * (logs[:, 0] - logs[:, 2]) + d2 * (logs[:, 1] - logs[:, 2]))

    mean, se, lowest, total = _run_chunks(settings, kernel)
    return BiasEstimate(mean, "monte-carlo", std_error=se,
                        settings={"model": model.model_id, "theta0": theta0.as_tuple(),
                                  "n": n, "samples": total, "seed": settings.seed,
                                  "min_draw": lowest})


def mc_expected_estimator(value_fn: Callable[[np.ndarray], np.ndarray], cone: Cone,
                          mu0: TransformedPoint, settings: McSettings) -> BiasEstimate:
    """Expectation of a data-dependent bias-correction rule under z ~ N(mu0, I).

    ``value_fn`` maps an (N, 2) array of draws to the rule's value per draw;
    build it with estimators.rule_evaluator.
    """
    center = mu0.as_array()

    def kernel(rng, size):
        z = center + standard_normals(rng, (size, 2))
        return np.asarray(value_fn(z), dtype=float)

    mean, se, lowest, n = _run_chunks(settings, kernel)
    return BiasEstimate(mean, "monte-carlo", std_error=se,
                        settings={"mu0": (mu0.x, mu0.y), "samples": n,
                                  "seed": settings.seed, "min_draw": lowest})


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid; step 0 collapses to the single start point."""
    if step < 0:
        raise DomainError("grid step must be nonnegative")
    if step == 0 or stop <= start:
        return [start]
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def curve_grid(model: ModelSpec, n: int, grid: Sequence[float],
               rules: Sequence = (), settings: McSettings | None = None,
               quad: QuadratureSettings = QuadratureSettings()) -> dict[str, list[CurvePoint]]:
    """Per-grid-point curve data: simulated target, analytic corrections, and
    the expected value of each requested estimator rule.

    Seeds for the (grid point, curve) cells derive from settings.seed so the
    full table is reproducible and insensitive to which columns are requested.
    """
    if settings is None:
        raise DomainError("curve_grid requires Monte Carlo settings")
    # runtime import; estimators builds on this module
    from .estimators import bias_on_cone, rule_evaluator

    curves: dict[str, list[CurvePoint]] = {"target": [], "aicg": [], "aic": []}
    for rule in rules:
        curves[rule.method] = []

    phis = [phi_from_mu0y(mu, n) for mu in grid]
    geos = [GeometryParams.from_phi0(phi0, n) for phi0 in phis]
    aicg = bias_on_cone(model, np.array(grid, dtype=float), [g.alpha0 for g in geos], quad)
    aic_value = bias_aic(model).value
    for i, (mu, phi0, geo) in enumerate(zip(grid, phis, geos)):
        theta0 = theta_on_line(phi0, model.topology or 1)
        cone = cone_of(model, geo)
        mu0 = TransformedPoint(0.0, mu)

        cell = McSettings(derive_seed(settings.seed, i, 0), settings.samples,
                          settings.chunk_size, settings.workers)
        target = mc_target_trinomial(model, theta0, n, cell)
        curves["target"].append(CurvePoint(mu, target.value, target.std_error, n))
        curves["aicg"].append(CurvePoint(mu, float(aicg[i]), 0.0, n))
        curves["aic"].append(CurvePoint(mu, aic_value, 0.0, n))

        for j, rule in enumerate(rules):
            fn = rule_evaluator(model, rule, geo, quad)
            cell = McSettings(derive_seed(settings.seed, i, j + 1), settings.samples,
                              settings.chunk_size, settings.workers)
            est = mc_expected_estimator(fn, cone, mu0, cell)
            curves[rule.method].append(CurvePoint(mu, est.value, est.std_error, n))
    return curves
