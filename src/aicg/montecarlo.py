"""Seeded, chunk-reproducible Monte Carlo engines.

Every engine draws through generators keyed by (seed, stream index), reduces
per-block sums in fixed block order with math.fsum, and is therefore
bit-identical for a given (seed, samples, chunk_size) no matter how many
worker threads evaluate the chunks.

Normal variates come from the chunk stream's own sampler,
Generator.standard_normal (a ziggurat), so their bits are fixed for a given
numpy version.  The finite-n target depends on its draws only through the
histogram of their counts, which lives on a window of O(sd) values, so it
draws that histogram: one multinomial over the Binomial(n, theta0_1) pmf
gives the frequencies of c_1 (of c_k for t1:k, whose MLE reads c_k alone),
and row-broadcast multinomials, one per block of rows, the frequencies of
c_2 | c_1 for every occupied c_1.  A row with fewer draws than its window
draws them one by one.  The statistic is evaluated once per occupied cell,
so the cost is set by the window and not by the sample count.

The expected values of estimator rules use common random numbers: chunk k
draws its standard normals e from the stream (seed, k), one sub-block of
_DRAW_BLOCK rows at a time, and every generating point (0, mu0y) and every
rule evaluated there uses z = (0, mu0y) + e.  Each value array is reduced to
its moments before the next is made, so no array is chunk-sized, and a rule's
value at a point does not depend on which other points or rules share the
run.  Each standard error is still the per-point one, but the errors at
different points are positively correlated.  A curve's rule column is the
mean over its draws of estimators.rule_values, the function that
scores count rows; a rule whose value is a constant draws nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial, reduce
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .closedform import BiasEstimate, bias_aic
from .geometry import (
    DomainError,
    GeometryParams,
    Record,
    SimplexPoint,
    TransformedPoint,
    phi_from_mu0y,
    require_distinct,
    theta_on_line,
)
from .estimators import EstimatorRule, bias_on_cone, rule_constant, rule_values
from .models import (T1, T3, Cone, ModelSpec, cone_of, mle_rows, projected_distances,
                     theta_in_model)
from .quadrature import bias_t3_batch


# The most rows drawn, evaluated and reduced at once: it bounds every temporary.
_DRAW_BLOCK = 8192


class McSettings(Record):
    __slots__ = ("seed", "samples", "chunk_size", "workers")

    def __init__(self, seed: int, samples: int, chunk_size: int = 1 << 16, workers: int = 1):
        self._fill(seed, samples, chunk_size, workers)
        if samples < 1:
            raise DomainError("samples must be >= 1")
        if chunk_size < 1:
            raise DomainError("chunk_size must be >= 1")
        if workers < 1:
            raise DomainError("workers must be >= 1")


class CurvePoint(Record):
    __slots__ = ("mu0y", "estimate", "std_error")

    def __init__(self, mu0y: float, estimate: float, std_error: float):
        self._fill(mu0y, estimate, std_error)
        if std_error < 0:
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


def _chunk_moments(vals: np.ndarray, freq: np.ndarray | None = None) -> tuple:
    """One block's moments: its sums (a list of one), size, first value, mean
    less that value, centred sum of squares and min, each value counted freq
    times (once by default); a constant block has a centred sum of exactly 0."""
    diffs = vals - vals[0]
    if freq is None:
        size, total, shift = vals.size, vals.sum(), diffs.sum()
    else:
        size, total, shift = int(freq.sum()), (freq * vals).sum(), (freq * diffs).sum()
    offset = shift / size
    diffs -= offset  # in place: a second block-sized array costs more than the sums
    sq = np.square(diffs, out=diffs)
    return ([float(total)], size, float(vals[0]), float(offset),
            float(sq.sum() if freq is None else (freq * sq).sum()), float(vals.min()))


def _merge(a: tuple, b: tuple) -> tuple:
    """The moments of block a followed by block b, by Chan's pairwise formula
    (the running mean is base + offset, base a's first value); a's list of
    sums takes b's, so a is consumed."""
    sums, count, base, offset, m2, lowest = a
    block_sums, size, first, block_offset, block_m2, block_min = b
    total = count + size
    delta = (first - base) + block_offset - offset
    sums.extend(block_sums)
    return (sums, total, base, offset + delta * (size / total),
            m2 + (block_m2 + delta * delta * (count * size / total)), min(lowest, block_min))


def _combine(blocks: Iterable[tuple], samples: int) -> tuple[float, float, float]:
    """(mean, se, min) of one statistic from its blocks' _chunk_moments, merged
    in order: the fsum of the block sums, and the centred sums by _merge."""
    sums, _, _, _, m2, lowest = reduce(_merge, blocks)
    var = m2 / (samples - 1) if samples > 1 else 0.0
    return math.fsum(sums) / samples, math.sqrt(var / samples), lowest


def _run_chunks(settings: McSettings, kernel: Callable[[np.random.Generator, int], Iterable]
                ) -> list[tuple[float, float, float]]:
    """(mean, se, min) of each per-draw statistic over all chunks.

    Chunk k draws from the stream (seed, k) one sub-block of at most
    _DRAW_BLOCK rows at a time: ``kernel(rng, rows)`` gives, for a sub-block,
    one array of per-draw values per statistic, always in the same order, and
    _chunk_moments reduces each before the kernel makes the next.  A chunk
    merges its sub-blocks in order, and the run its chunks.
    """
    def merge(a, b):
        return list(map(_merge, a, b))

    def one(index):
        rng, start = _chunk_rng(settings.seed, index), index * settings.chunk_size
        end = min(start + settings.chunk_size, settings.samples)
        return reduce(merge, ([_chunk_moments(vals) for vals in
                               kernel(rng, min(_DRAW_BLOCK, end - k))]
                              for k in range(start, end, _DRAW_BLOCK)))

    tasks = range(-(-settings.samples // settings.chunk_size))
    if settings.workers > 1:
        # imported here: a serial run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=settings.workers) as pool:
            merged = reduce(merge, pool.map(one, tasks))
    else:
        merged = reduce(merge, map(one, tasks))
    return [_combine([moments], settings.samples) for moments in merged]


def _binomial_cells(rng: np.random.Generator, m: np.ndarray, p: float, freq: np.ndarray,
                    block: int) -> Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw freq[r] counts from Binomial(m[r], p) for each row r, as blocks
    (rows, counts, frequencies) of occupied cells.

    A row's pmf is taken on m p +- (12 sd + 40), clipped to [0, m], beyond
    which its mass is negligible (the reach estimators._poisson_mixture
    uses).  A row with at least as many draws as its window has counts draws
    their histogram, one multinomial over the window, with as many rows per
    call as fit in block cells; a row with fewer draws draws its counts one
    by one, as frequency-1 cells in blocks of at most block.
    """
    reach = 12.0 * np.sqrt(m * p * (1.0 - p)) + 40.0
    lo = np.maximum(np.floor(m * p - reach), 0).astype(np.int64)
    hi = np.minimum(np.ceil(m * p + reach), m).astype(np.int64)
    dense = freq >= hi - lo + 1
    rows = np.flatnonzero(dense)
    if rows.size:
        width = int(np.max(hi[rows] - lo[rows])) + 1
        with np.errstate(divide="ignore"):
            log_p, log_q = np.log(p), np.log1p(-p)
        step = max(1, block // width)
        for k in range(0, rows.size, step):
            r = rows[k:k + step]
            # right-aligned, so the last column, which takes what rounding
            # leaves of a row's draws, is always a count of the row
            c = hi[r, None] - np.arange(width - 1, -1, -1)
            pad = c < lo[r, None]
            c = np.where(pad, lo[r, None], c)
            rest = m[r, None] - c
            with np.errstate(divide="ignore", invalid="ignore"):
                # log C(m, c) less its value at lo, from the ratios
                # C(m, c) / C(m, c - 1) = (m - c + 1) / c; 0 log 0 = 0 at p = 0 or 1
                log_pmf = np.cumsum(np.where(c > lo[r, None], np.log((rest + 1) / c), 0.0), axis=1)
                log_pmf += np.where(c > 0, c * log_p, 0.0) + np.where(rest > 0, rest * log_q, 0.0)
            log_pmf[pad] = -np.inf
            pmf = np.exp(log_pmf - np.max(log_pmf, axis=1, keepdims=True))
            hist = rng.multinomial(freq[r], pmf / np.sum(pmf, axis=1, keepdims=True))
            i, j = np.nonzero(hist)
            yield r[i], c[i, j], hist[i, j]
    rows = np.flatnonzero(~dense)
    ends = np.cumsum(freq[rows])
    total = int(ends[-1]) if rows.size else 0
    for start in range(0, total, block):
        r = rows[np.searchsorted(ends, np.arange(start, min(start + block, total)), "right")]
        yield r, rng.binomial(m[r], p), np.ones(r.size, dtype=np.int64)


def mc_target_trinomial(model: ModelSpec, theta0: SimplexPoint, n: int,
                        settings: McSettings) -> BiasEstimate:
    """Finite-n bias-correction target, estimated by trinomial simulation.

    Per replicate: 2 sum_i (c_i - n theta0_i) log thetahat_i, written in the
    zero-sum form 2 [d1 (L1 - L3) + d2 (L2 - L3)] so constant estimates give
    an exact zero; thetahat components are clamped at 1e-12 before logging.

    The replicates are drawn as the histogram of their counts (see
    _binomial_cells): c_1 from the stream (seed, 0), then c_2 | c_1 ~
    Binomial(n - c_1, theta0_2 / (1 - theta0_1)) from the stream (seed, 1).
    The t1:k estimate depends on c_k alone and its other two components are
    equal, so the replicate is 2 d_k (L_k - L_j) for either j != k, and t1:k
    draws only c_k ~ Binomial(n, theta0_k), from the stream (seed, 0).  The
    statistic is evaluated once per occupied cell and weighted by its count;
    the workers setting is not read.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if not theta_in_model(model, theta0):
        raise DomainError(f"theta0 outside the parameter space of {model.model_id}")
    t0 = np.array(theta0.as_tuple())
    block = min(settings.chunk_size, _DRAW_BLOCK)
    k = model.topology - 1 if model.variant == T1 else 0
    first = _binomial_cells(_chunk_rng(settings.seed, 0), np.array([n]), t0[k],
                            np.array([settings.samples]), block)

    if model.variant == T1:
        j = model.topology % 3

        def line_stat(c):
            rows = np.zeros((len(c), 3))
            rows[:, k], rows[:, j] = c, n - c
            logs = np.log(np.maximum(mle_rows(model, rows)[0], 1e-12))
            # + 0.0: the zero-sum form's other term, d (L - L) with two equal logs
            return 2.0 * ((c - n * t0[k]) * (logs[:, k] - logs[:, j]) + 0.0)
        blocks = ((line_stat(c), freq) for _, c, freq in first)
    else:
        def stat(c1, c2):
            counts = np.empty((len(c1), 3))
            counts[:, 0], counts[:, 1] = c1, c2
            counts[:, 2] = n - counts[:, 0] - counts[:, 1]
            logs = np.log(np.maximum(mle_rows(model, counts)[0], 1e-12))
            d1 = counts[:, 0] - n * t0[0]
            d2 = counts[:, 1] - n * t0[1]
            return 2.0 * (d1 * (logs[:, 0] - logs[:, 2]) + d2 * (logs[:, 1] - logs[:, 2]))
        rng = _chunk_rng(settings.seed, 1)
        q = min(max(t0[1] / max(1.0 - t0[0], 1e-300), 0.0), 1.0)
        blocks = ((stat(c1[r], c2), freq) for _, c1, freq1 in first
                  for r, c2, freq in _binomial_cells(rng, n - c1, q, freq1, block))

    mean, se, lowest = _combine((_chunk_moments(*b) for b in blocks), settings.samples)
    return BiasEstimate(mean, "monte-carlo", std_error=se, min_draw=lowest)


# A rule's value per draw, from the (N, 2) draws z and the (N,) distances of
# their cone projections from the origin.  Each value depends on its own row
# alone, so its bits do not depend on the sub-block that holds it.
RuleEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def mc_expected_estimators(
        points: Sequence[tuple[Cone, TransformedPoint, Sequence[RuleEvaluator]]],
        settings: McSettings) -> list[list[BiasEstimate]]:
    """Expectations of data-dependent bias-correction rules under
    z ~ N(mu0, I), for several (cone, mu0, evaluators) points in one run.

    Every point shares each sub-block e of normals (common random numbers):
    it projects z = mu0 + e on its cone once, and each of its evaluators maps
    z and the projections' distances to the rule's values.  Returns one
    estimate per evaluator, grouped by point.
    """
    centers = [mu0.as_array() for _, mu0, _ in points]

    def kernel(rng, rows):
        e = standard_normals(rng, (rows, 2))
        for (cone, _, evaluators), center in zip(points, centers):
            z = center + e
            dist = projected_distances(cone, z)
            yield from (fn(z, dist) for fn in evaluators)

    stats = iter(_run_chunks(settings, kernel))
    return [[BiasEstimate(mean, "monte-carlo", std_error=se, min_draw=lowest)
             for mean, se, lowest in islice(stats, len(evaluators))]
            for _, _, evaluators in points]


# The most points of a grid.  radii calibration holds a few arrays of one
# value per scanned radius (121) and grid point at once, about 4 KB a point:
# on a 2-core x86_64 VM, t3 radii on 10,001 points of 0:50 peaked at 74 MB
# resident and on 50,001 points at 226 MB.
_MAX_GRID_POINTS = 10_000


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid of at most _MAX_GRID_POINTS points; step 0
    collapses to the single start point."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError("grid start, stop and step must be finite")
    if step < 0:
        raise DomainError("grid step must be nonnegative")
    if step == 0 or stop <= start:
        return [start]
    span = (stop - start) / step
    if not math.isfinite(span):
        raise DomainError("grid step is too small for its range")
    count = int(math.floor(span + 1e-9)) + 1
    if count > _MAX_GRID_POINTS:
        raise DomainError(f"grid of {count} points exceeds the {_MAX_GRID_POINTS} allowed")
    return [start + i * step for i in range(count)]


# Each sub-block visits every grid point of a curve in turn, and each point
# needs one table (its cone angle and reach): the cache holds a 512-point grid's.
@lru_cache(maxsize=512)
def _t3_bias_table(alpha0: float, mu_max: float) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(0.0, mu_max + 0.05, 0.05)
    return xs, bias_t3_batch(xs, alpha0)


# A draw centred at distance mu0y lies beyond mu0y + 6 with probability
# exp(-18) < 2e-8, so a table of reach ceil(mu0y) + 7 serves every sub-block
# of a point but a rare one, which builds a longer table.
_T3_TABLE_MARGIN = 7


def _plugin_values(model: ModelSpec, mu: np.ndarray, alpha0, geo: GeometryParams) -> np.ndarray:
    """rule_values' bias_at for the draws of the curve point geo, whose cone
    angle alpha0 is geo.alpha0.

    A column evaluates 1e5-1e6 distances, and the closed form costs about
    14 times np.interp per distance (1e5 distances: 0.10 s against 7 ms on a
    2-core x86_64 VM), so the t3 values come from a table with linear
    interpolation on a 0.05 spacing, off by up to 1.2e-4 (against
    bias_t3_batch on 0:20 at step 1e-3), which is not far below the
    resolution of 1e6 draws.  One table per point; the sub-block's own reach
    keeps np.interp from clamping.
    """
    if model.variant != T3 or not mu.size:
        return bias_on_cone(model, mu, alpha0)
    mu_max = max(math.ceil(geo.mu0y) + _T3_TABLE_MARGIN, math.ceil(float(np.max(mu)) + 1.0))
    xs, ys = _t3_bias_table(geo.alpha0, float(mu_max))
    return np.interp(mu, xs, ys)


def _rule_column(model: ModelSpec, rule: EstimatorRule, n: int,
                 geo: GeometryParams) -> RuleEvaluator:
    """The rule's value per draw at the curve point geo: rule_values at the
    draws' projected distances and the point's cone angle, with the norm of
    a draw computed only for a rule that reads it (the bits of
    np.linalg.norm(z, axis=1), without its slow two-element reduction)."""
    bias_at = partial(_plugin_values, geo=geo)

    def values(z, dist):
        return rule_values(model, rule, n, dist, np.broadcast_to(geo.alpha0, dist.shape),
                           lambda: np.sqrt(z[:, 0] * z[:, 0] + z[:, 1] * z[:, 1]), bias_at)
    return values


def curve_grid(model: ModelSpec, n: int, grid: Sequence[float],
               rules: Sequence[EstimatorRule] = (),
               settings: McSettings | None = None) -> dict[str, list[CurvePoint]]:
    """Per-grid-point curve data: simulated target, analytic corrections, and
    the expected value of each requested estimator rule: the mean over the
    draws of rule_values for a sample of size n, or with se 0 the rule's
    constant (rule_constant), which draws nothing.

    The target at grid point i draws its histogram of counts from the
    streams of the seed derive_seed(settings.seed, i, 0).  The rule columns
    share the normal draws of settings.seed (see mc_expected_estimators), so
    each rule's value at a distance mu0y is the same whichever other rules are
    requested, in whatever order, and on any grid that holds mu0y.
    """
    if settings is None:
        raise DomainError("curve_grid requires Monte Carlo settings")
    require_distinct([rule.method for rule in rules], "rule method")
    # an aic rule column is the aic column itself
    curves: dict[str, list[CurvePoint]] = {
        "target": [], "aicg": [], "aic": [CurvePoint(mu, bias_aic(model).value, 0.0)
                                          for mu in grid]}
    drawn = []
    for rule in rules:
        value = rule_constant(model, rule, n)
        if value is None:
            drawn.append(rule)
        curves[rule.method] = [] if value is None else [CurvePoint(mu, value, 0.0)
                                                        for mu in grid]

    mus = np.array(grid, dtype=float)
    geos = [GeometryParams(float(phi0), n) for phi0 in phi_from_mu0y(mus, n)]
    # the rule columns first, so that a rule that cannot apply (consistent at
    # n < 3) fails before the target draws
    if drawn:
        points = [(cone_of(model, geo), TransformedPoint(0.0, mu),
                   [_rule_column(model, rule, n, geo) for rule in drawn])
                  for mu, geo in zip(grid, geos)]
        for mu, estimates in zip(grid, mc_expected_estimators(points, settings)):
            for rule, est in zip(drawn, estimates):
                curves[rule.method].append(CurvePoint(mu, est.value, est.std_error))

    aicg = bias_on_cone(model, mus, [g.alpha0 for g in geos])
    for i, (mu, geo) in enumerate(zip(grid, geos)):
        theta0 = theta_on_line(geo.phi0, model.topology or 1)
        cell = McSettings(derive_seed(settings.seed, i, 0), settings.samples, settings.chunk_size)
        target = mc_target_trinomial(model, theta0, n, cell)
        curves["target"].append(CurvePoint(mu, target.value, target.std_error))
        curves["aicg"].append(CurvePoint(mu, float(aicg[i]), 0.0))
    return curves
