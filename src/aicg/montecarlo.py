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

The expected values of estimator rules use common random numbers: each chunk
draws one block e of standard normals from the stream of the seed alone, and
every generating point (0, mu0y) and every rule evaluated there uses
z = (0, mu0y) + e, evaluated on sub-blocks of _DRAW_BLOCK draws.  A rule's
value at a point therefore does not depend on which other points or rules
share the run.  Each standard error is still the per-point one, but the
errors at different points are positively correlated.  A curve's rule column
is the mean over its draws of estimators.rule_values, the function that
scores count rows; a rule whose value is a constant draws nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
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
from .models import (T1, T3, Cone, ModelSpec, cone_of, mle_rows, project_points,
                     projected_distances, theta_in_model)
from .quadrature import QuadratureSettings, bias_t3_batch


# Rows evaluated together, by the rule columns and the target's statistic,
# which bounds their temporaries.
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
    __slots__ = ("mu0y", "estimate", "std_error", "n")

    def __init__(self, mu0y: float, estimate: float, std_error: float, n: float):
        self._fill(mu0y, estimate, std_error, n)
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


def _chunk_moments(vals: np.ndarray, freq: np.ndarray | None = None
                   ) -> tuple[float, int, float, float, float, float]:
    """One block's sum, size, first value, mean less that value, centred sum
    of squares and min, each value counted freq times (once by default); a
    constant block has a centred sum of exactly 0."""
    diffs = vals - vals[0]
    if freq is None:
        size, total, shift = vals.size, vals.sum(), diffs.sum()
    else:
        size, total, shift = int(freq.sum()), (freq * vals).sum(), (freq * diffs).sum()
    offset = shift / size
    diffs -= offset  # in place: a fresh chunk-sized array costs more than the sums
    sq = np.square(diffs, out=diffs)
    return (float(total), size, float(vals[0]), float(offset),
            float(sq.sum() if freq is None else (freq * sq).sum()), float(vals.min()))


def _combine(blocks: Sequence[tuple], samples: int) -> tuple[float, float, float]:
    """(mean, se, min) of one statistic from its blocks' _chunk_moments: the
    fsum of the block sums, and the centred sums combined in block order by
    Chan's pairwise formula."""
    mean = math.fsum(b[0] for b in blocks) / samples
    # the running mean is base + offset, base the first block's first value
    _, count, base, offset, m2, _ = blocks[0]
    for _, size, first, block_offset, block_m2, _ in blocks[1:]:
        total = count + size
        delta = (first - base) + block_offset - offset
        m2 += block_m2 + delta * delta * (count * size / total)
        offset += delta * (size / total)
        count = total
    var = m2 / (samples - 1) if samples > 1 else 0.0
    return mean, math.sqrt(var / samples), min(b[5] for b in blocks)


def _run_chunks(settings: McSettings, kernel: Callable[[np.random.Generator, int], Iterable]
                ) -> list[tuple[float, float, float]]:
    """Reduce per-draw statistics over all chunks.

    ``kernel(rng, size)`` gives, for one chunk, an iterable holding one array
    of per-draw values per statistic, always in the same order; each array is
    reduced by _chunk_moments as it arrives and the chunks by _combine.
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
    return [_combine(chunks, settings.samples) for chunks in zip(*parts)]


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

    mean, se, lowest = _combine([_chunk_moments(*b) for b in blocks], settings.samples)
    return BiasEstimate(mean, "monte-carlo", std_error=se,
                        settings={"model": model.model_id, "theta0": theta0.as_tuple(),
                                  "n": n, "samples": settings.samples, "seed": settings.seed,
                                  "min_draw": lowest})


# A rule's value per draw, from the (N, 2) draws z and the (N,) distances of
# their cone projections from the origin.  Each value depends on its own row
# alone, so a chunk evaluated on sub-blocks has the bits of the whole chunk.
RuleEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def mc_expected_estimators(
        points: Sequence[tuple[Cone, TransformedPoint, Sequence[RuleEvaluator]]],
        settings: McSettings) -> list[list[BiasEstimate]]:
    """Expectations of data-dependent bias-correction rules under
    z ~ N(mu0, I), for several (cone, mu0, evaluators) points in one run.

    Each chunk draws one block e of standard normals from the stream of
    settings.seed (common random numbers).  Every point computes the distance
    of its z = mu0 + e's cone projection once, and each of its evaluators maps
    the draws and that distance to the rule's value, sub-block by sub-block
    into one array per evaluator.  Returns one estimate per evaluator,
    grouped by point.
    """
    centers = [mu0.as_array() for _, mu0, _ in points]

    def kernel(rng, size):
        e = standard_normals(rng, (size, 2))
        for (cone, _, evaluators), center in zip(points, centers):
            values = [np.empty(size) for _ in evaluators]
            for k in range(0, size, _DRAW_BLOCK):
                z = center + e[k:k + _DRAW_BLOCK]
                dist = projected_distances(cone, z)
                for fn, out in zip(evaluators, values):
                    out[k:k + _DRAW_BLOCK] = fn(z, dist)
            yield from values

    stats = iter(_run_chunks(settings, kernel))
    return [[BiasEstimate(mean, "monte-carlo", std_error=se,
                          settings={"mu0": (mu0.x, mu0.y), "samples": settings.samples,
                                    "seed": settings.seed, "min_draw": lowest})
             for mean, se, lowest in islice(stats, len(evaluators))]
            for _, mu0, evaluators in points]


def mc_bias_gaussian(cone: Cone, mu0: TransformedPoint,
                     settings: McSettings) -> BiasEstimate:
    """Bias correction 2 E{(z - mu0).(P z - mu0)}, z ~ N(mu0, I), for P the
    projection onto the cone: the one-point case of mc_expected_estimators
    with that statistic per draw."""
    center = mu0.as_array()
    if float(np.linalg.norm(project_points(cone, center[None])[0] - center)) > 1e-9:
        raise DomainError("mu0 must lie on the cone")

    def statistic(z, dist):
        return 2.0 * np.einsum("ij,ij->i", z - center, project_points(cone, z) - center)
    return mc_expected_estimators([(cone, mu0, [statistic])], settings)[0][0]


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid; step 0 collapses to the single start point."""
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
    return [start + i * step for i in range(count)]


# A curve's chunks visit every grid point in turn, and each point needs one
# table (its cone angle and reach), so the cache holds the tables of a
# 512-point grid.
@lru_cache(maxsize=512)
def _t3_bias_table(alpha0: float, mu_max: float,
                   quad: QuadratureSettings) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(0.0, mu_max + 0.05, 0.05)
    return xs, bias_t3_batch(xs, alpha0, quad)


# A draw centred at distance mu0y lies beyond mu0y + 6 with probability
# exp(-18) < 2e-8, so a table of reach ceil(mu0y) + 7 serves every chunk of a
# point but a rare one, which builds a longer table.
_T3_TABLE_MARGIN = 7


def _plugin_values(model: ModelSpec, mu: np.ndarray, alpha0, quad: QuadratureSettings,
                   geo: GeometryParams) -> np.ndarray:
    """rule_values' bias_at for the draws of the curve point geo, whose cone
    angle alpha0 is geo.alpha0.

    A column evaluates 1e5-1e6 distances, too many distinct ones for
    bias_on_cone: the t3 values come from a table with linear interpolation
    on a 0.05 spacing, off by up to 1.2e-4 (against bias_t3_batch on 0:20 at
    step 1e-3), which is not far below the resolution of 1e6 draws.  One
    table per point; the chunk's own reach keeps np.interp from clamping.
    """
    if model.variant != T3 or not mu.size:
        return bias_on_cone(model, mu, alpha0, quad)
    mu_max = max(math.ceil(geo.mu0y) + _T3_TABLE_MARGIN, math.ceil(float(np.max(mu)) + 1.0))
    table_quad = QuadratureSettings(max(quad.abs_tol, 1e-7), quad.r_max_offset)
    xs, ys = _t3_bias_table(geo.alpha0, float(mu_max), table_quad)
    return np.interp(mu, xs, ys)


def _rule_column(model: ModelSpec, rule: EstimatorRule, n: int, geo: GeometryParams,
                 quad: QuadratureSettings) -> RuleEvaluator:
    """The rule's value per draw at the curve point geo: rule_values at the
    draws' projected distances and the point's cone angle, with the norm of
    a draw computed only for a rule that reads it."""
    bias_at = partial(_plugin_values, geo=geo)

    def values(z, dist):
        return rule_values(model, rule, n, dist, np.broadcast_to(geo.alpha0, dist.shape),
                           lambda: np.linalg.norm(z, axis=1), quad, bias_at)
    return values


def curve_grid(model: ModelSpec, n: int, grid: Sequence[float],
               rules: Sequence[EstimatorRule] = (), settings: McSettings | None = None,
               quad: QuadratureSettings = QuadratureSettings()) -> dict[str, list[CurvePoint]]:
    """Per-grid-point curve data: simulated target, analytic corrections, and
    the expected value of each requested estimator rule: the mean over the
    draws of rule_values for a sample of size n, or with se 0 the rule's
    constant (rule_constant), which draws nothing.

    The target at grid point i draws its histogram of counts from the
    streams of the seed derive_seed(settings.seed, i, 0).  The rule columns
    share one block of normal draws per chunk from the stream of settings.seed (see
    mc_expected_estimators), so each rule's value at a distance mu0y is the
    same whichever other rules are requested, in whatever order, and on any
    grid that holds mu0y.
    """
    if settings is None:
        raise DomainError("curve_grid requires Monte Carlo settings")
    require_distinct([rule.method for rule in rules], "rule method")
    # an aic rule column is the aic column itself
    curves: dict[str, list[CurvePoint]] = {
        "target": [], "aicg": [], "aic": [CurvePoint(mu, bias_aic(model).value, 0.0, n)
                                          for mu in grid]}
    drawn = []
    for rule in rules:
        value = rule_constant(model, rule, n, quad)
        if value is None:
            drawn.append(rule)
        curves[rule.method] = [] if value is None else [CurvePoint(mu, value, 0.0, n)
                                                        for mu in grid]

    mus = np.array(grid, dtype=float)
    geos = [GeometryParams.from_phi0(float(phi0), n) for phi0 in phi_from_mu0y(mus, n)]
    # the rule columns first, so that a rule that cannot apply (consistent at
    # n < 3) fails before the target draws
    if drawn:
        points = [(cone_of(model, geo), TransformedPoint(0.0, mu),
                   [_rule_column(model, rule, n, geo, quad) for rule in drawn])
                  for mu, geo in zip(grid, geos)]
        for mu, estimates in zip(grid, mc_expected_estimators(points, settings)):
            for rule, est in zip(drawn, estimates):
                curves[rule.method].append(CurvePoint(mu, est.value, est.std_error, n))

    aicg = bias_on_cone(model, mus, [g.alpha0 for g in geos], quad)
    for i, (mu, geo) in enumerate(zip(grid, geos)):
        theta0 = theta_on_line(geo.phi0, model.topology or 1)
        cell = McSettings(derive_seed(settings.seed, i, 0), settings.samples, settings.chunk_size)
        target = mc_target_trinomial(model, theta0, n, cell)
        curves["target"].append(CurvePoint(mu, target.value, target.std_error, n))
        curves["aicg"].append(CurvePoint(mu, float(aicg[i]), 0.0, n))
    return curves
