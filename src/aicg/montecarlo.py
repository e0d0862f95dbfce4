"""Seeded, chunk-reproducible Monte Carlo engines.

Every engine draws through per-chunk generators keyed by (seed, chunk index),
reduces per-chunk sums in fixed chunk order with math.fsum, and is therefore
bit-identical for a given (seed, samples, chunk_size) no matter how many
worker threads evaluate the chunks.

Normal variates come from the chunk stream's own sampler,
Generator.standard_normal (a ziggurat), so their bits are fixed for a given
numpy version.  Trinomial counts come from sequential binomial conditioning
on the same streams.  The finite-n target of a single-line model t1:k draws
only the count c_k its MLE reads, c_k ~ Binomial(n, theta0_k), and looks each
replicate up in a table of the statistic over the chunk's range of c_k; for
t1:1 that count is the first trinomial component, so its values are those of
the full trinomial draw.

The expected values of estimator rules, and the bias statistic of the
parametric bootstrap (bias_evaluator), use common random numbers: each chunk
draws one block e of standard normals from the stream of the seed alone, and
every generating point (0, mu0y) and every rule evaluated there uses
z = (0, mu0y) + e.  A rule's value at a point therefore does not depend on
which other points or rules share the run.  Each standard error is still the
per-point one, but the errors at different points are positively correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

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
from .models import (T1, Cone, ModelSpec, cone_of, mle_rows, project_points,
                     projected_distances, theta_in_model)
from .quadrature import QuadratureSettings


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
    """Standard normal draws of the given shape from the chunk's stream."""
    return rng.standard_normal(shape)


def trinomial_counts(rng: np.random.Generator, n: int, theta: np.ndarray,
                     count: int) -> np.ndarray:
    """(count, 3) trinomial draws by sequential binomial conditioning."""
    p1, p2, _ = theta
    c1 = rng.binomial(n, p1, size=count)
    rest = n - c1
    q = min(max(p2 / max(1.0 - p1, 1e-300), 0.0), 1.0)
    c2 = rng.binomial(rest, q)
    return np.column_stack([c1, c2, rest - c2]).astype(float)


def _chunk_moments(vals: np.ndarray) -> tuple[float, int, float, float, float, float]:
    """One chunk's sum, size, first value, mean less that value, centred sum
    of squares and min; a constant chunk has a centred sum of exactly 0."""
    diffs = vals - vals[0]
    offset = diffs.sum() / vals.size
    diffs -= offset  # in place: a fresh chunk-sized array costs more than the sums
    return (float(vals.sum()), vals.size, float(vals[0]), float(offset),
            float(np.square(diffs, out=diffs).sum()), float(vals.min()))


def _run_chunks(settings: McSettings, kernel: Callable[[np.random.Generator, int], Iterable]
                ) -> list[tuple[float, float, float]]:
    """Reduce per-draw statistics over all chunks.

    ``kernel(rng, size)`` gives, for one chunk, an iterable holding one array
    of per-draw values per statistic, always in the same order; each array is
    reduced to its sum, centred sum of squares and min as it arrives, and the
    centred sums are combined in chunk order by Chan's pairwise formula.
    Returns one (mean, se, min) triple per statistic.
    """
    full, rem = divmod(settings.samples, settings.chunk_size)
    sizes = [settings.chunk_size] * full + ([rem] if rem else [])

    def one(index_size):
        index, size = index_size
        return [_chunk_moments(vals) for vals in kernel(_chunk_rng(settings.seed, index), size)]

    tasks = list(enumerate(sizes))
    if settings.workers > 1:
        # imported here: a serial run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=settings.workers) as pool:
            parts = list(pool.map(one, tasks))
    else:
        parts = [one(t) for t in tasks]

    n = settings.samples
    stats = []
    for chunks in zip(*parts):  # one statistic's moments per chunk
        mean = math.fsum(c[0] for c in chunks) / n
        # the running mean is base + offset, base the first chunk's first value
        _, count, base, offset, m2, _ = chunks[0]
        for _, size, first, chunk_offset, chunk_m2, _ in chunks[1:]:
            total = count + size
            delta = (first - base) + chunk_offset - offset
            m2 += chunk_m2 + delta * delta * (count * size / total)
            offset += delta * (size / total)
            count = total
        var = m2 / (n - 1) if n > 1 else 0.0
        stats.append((mean, math.sqrt(var / n), min(c[5] for c in chunks)))
    return stats


def mc_target_trinomial(model: ModelSpec, theta0: SimplexPoint, n: int,
                        settings: McSettings) -> BiasEstimate:
    """Finite-n bias-correction target, estimated by trinomial simulation.

    Per replicate: 2 sum_i (c_i - n theta0_i) log thetahat_i, written in the
    zero-sum form 2 [d1 (L1 - L3) + d2 (L2 - L3)] so constant estimates give
    an exact zero; thetahat components are clamped at 1e-12 before logging.

    The t1:k estimate depends on c_k alone and its other two components are
    equal, so the replicate is 2 d_k (L_k - L_j) for either j != k, a function
    of one Binomial(n, theta0_k) draw.  Those models draw only c_k from each
    chunk's stream and read the statistic from a table over the range of the
    chunk's counts.  For t1:1, c_1 is the first draw of the trinomial kernel,
    so the estimate keeps its bits; t1:2 and t1:3 draw a different stream of
    the same law.  The other models' MLEs read all three counts.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if not theta_in_model(model, theta0):
        raise DomainError(f"theta0 outside the parameter space of {model.model_id}")
    t0 = np.array(theta0.as_tuple())

    if model.variant == T1:
        k, j = model.topology - 1, model.topology % 3

        def line_stat(c):
            rows = np.zeros((len(c), 3))
            rows[:, k], rows[:, j] = c, n - c
            logs = np.log(np.maximum(mle_rows(model, rows)[0], 1e-12))
            # + 0.0: the zero-sum form's other term, d (L - L) with two equal logs
            return 2.0 * ((c - n * t0[k]) * (logs[:, k] - logs[:, j]) + 0.0)

        def kernel(rng, size):
            # a chunk's counts span a few sqrt(n theta0_k (1 - theta0_k)) values
            c = rng.binomial(n, t0[k], size=size)
            lo = c.min()
            return [line_stat(np.arange(lo, c.max() + 1.0))[c - lo]]
    else:
        def kernel(rng, size):
            counts = trinomial_counts(rng, n, t0, size)
            logs = np.log(np.maximum(mle_rows(model, counts)[0], 1e-12))
            d1 = counts[:, 0] - n * t0[0]
            d2 = counts[:, 1] - n * t0[1]
            return [2.0 * (d1 * (logs[:, 0] - logs[:, 2]) + d2 * (logs[:, 1] - logs[:, 2]))]

    [(mean, se, lowest)] = _run_chunks(settings, kernel)
    return BiasEstimate(mean, "monte-carlo", std_error=se,
                        settings={"model": model.model_id, "theta0": theta0.as_tuple(),
                                  "n": n, "samples": settings.samples, "seed": settings.seed,
                                  "min_draw": lowest})


# A rule's value per draw, from the (N, 2) draws z and the (N,) distances of
# their cone projections from the origin; estimators.rule_evaluator and
# bias_evaluator build them.
RuleEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def mc_expected_estimators(
        points: Sequence[tuple[Cone, TransformedPoint, Sequence[RuleEvaluator]]],
        settings: McSettings) -> list[list[BiasEstimate]]:
    """Expectations of data-dependent bias-correction rules under
    z ~ N(mu0, I), for several (cone, mu0, evaluators) points in one run.

    Each chunk draws one block e of standard normals from the stream of
    settings.seed (common random numbers).  Every point computes the distance
    of its z = mu0 + e's cone projection once, and each of its evaluators maps
    the draws and that distance to the rule's value.  Returns one estimate per
    evaluator, grouped by point.
    """
    centers = [mu0.as_array() for _, mu0, _ in points]

    def kernel(rng, size):
        e = standard_normals(rng, (size, 2))
        for (cone, _, evaluators), center in zip(points, centers):
            z = center + e
            dist = projected_distances(cone, z)
            for fn in evaluators:
                yield np.asarray(fn(z, dist), dtype=float)

    stats = iter(_run_chunks(settings, kernel))
    return [[BiasEstimate(mean, "monte-carlo", std_error=se,
                          settings={"mu0": (mu0.x, mu0.y), "samples": settings.samples,
                                    "seed": settings.seed, "min_draw": lowest})
             for mean, se, lowest in islice(stats, len(evaluators))]
            for _, mu0, evaluators in points]


def mc_expected_estimator(value_fn: RuleEvaluator, cone: Cone, mu0: TransformedPoint,
                          settings: McSettings) -> BiasEstimate:
    """Expectation of one rule at one point: the one-point, one-rule case of
    mc_expected_estimators, so it equals that rule's column at mu0 of a curve
    run with the same settings."""
    return mc_expected_estimators([(cone, mu0, [value_fn])], settings)[0][0]


def bias_evaluator(cone: Cone, center: np.ndarray) -> RuleEvaluator:
    """The bias-correction statistic 2 (z - c).(P z - c) per draw, for P the
    projection onto the cone and c the center of the draws."""
    def evaluate(z, dist):
        return 2.0 * np.einsum("ij,ij->i", z - center, project_points(cone, z) - center)
    return evaluate


def mc_bias_gaussian(cone: Cone, mu0: TransformedPoint,
                     settings: McSettings) -> BiasEstimate:
    """Bias correction 2 E{(z - mu0).(P z - mu0)}, z ~ N(mu0, I): the one-point
    case of mc_expected_estimators with bias_evaluator, so it equals the
    bootstrap value of a row centred at mu0 with the same settings."""
    center = mu0.as_array()
    if float(np.linalg.norm(project_points(cone, center[None])[0] - center)) > 1e-9:
        raise DomainError("mu0 must lie on the cone")
    return mc_expected_estimators([(cone, mu0, [bias_evaluator(cone, center)])], settings)[0][0]


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

    The target at grid point i draws trinomials from the stream
    derive_seed(settings.seed, i, 0).  The rule columns share one block of
    normal draws per chunk from the stream of settings.seed (see
    mc_expected_estimators), so each rule's value at a distance mu0y is the
    same whichever other rules are requested, in whatever order, and on any
    grid that holds mu0y.
    """
    if settings is None:
        raise DomainError("curve_grid requires Monte Carlo settings")
    # runtime import; estimators builds on this module
    from .estimators import bias_on_cone, rule_evaluator

    curves: dict[str, list[CurvePoint]] = {"target": [], "aicg": [], "aic": []}
    for rule in rules:
        curves[rule.method] = []

    mus = np.array(grid, dtype=float)
    geos = [GeometryParams.from_phi0(float(phi0), n) for phi0 in phi_from_mu0y(mus, n)]
    aicg = bias_on_cone(model, mus, [g.alpha0 for g in geos], quad)
    aic_value = bias_aic(model).value
    points = []
    for i, (mu, geo) in enumerate(zip(grid, geos)):
        theta0 = theta_on_line(geo.phi0, model.topology or 1)
        cell = McSettings(derive_seed(settings.seed, i, 0), settings.samples,
                          settings.chunk_size, settings.workers)
        target = mc_target_trinomial(model, theta0, n, cell)
        curves["target"].append(CurvePoint(mu, target.value, target.std_error, n))
        curves["aicg"].append(CurvePoint(mu, float(aicg[i]), 0.0, n))
        curves["aic"].append(CurvePoint(mu, aic_value, 0.0, n))
        points.append((cone_of(model, geo), TransformedPoint(0.0, mu),
                       [rule_evaluator(model, rule, geo, quad) for rule in rules]))

    if rules:
        for mu, estimates in zip(grid, mc_expected_estimators(points, settings)):
            for rule, est in zip(rules, estimates):
                curves[rule.method].append(CurvePoint(mu, est.value, est.std_error, n))
    return curves
