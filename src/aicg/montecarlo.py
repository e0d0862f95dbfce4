"""Seeded, reproducible Monte Carlo engine for the finite-n curve.

The engine draws through generators keyed by (seed, stream index) and
reduces per-block sums in fixed block order with math.fsum, so its results
are a function of the plain pair (seed, samples) that each entry point takes.

The finite-n target depends on its draws only through the histogram of their
counts, which lives on a window of O(sd) values, so it draws that histogram:
one multinomial over the Binomial(n, theta0_1) pmf gives the frequencies of
c_1 (of c_k for t1:k, whose MLE reads c_k alone), and row-broadcast
multinomials, one per block of rows, the frequencies of c_2 | c_1 for every
occupied c_1.  A row with fewer draws than its window draws them one by one.
The statistic is evaluated once per occupied cell, so the cost is set by the
window and not by the sample count.

The same cells give the expected value of each estimator rule: a rule's
column is the frequency-weighted mean over the cells of
estimators.rule_values, the function that selection.score_batch applies to
count rows, at each cell's estimated distance and cone angle.  The target
and the rule columns of a grid point thus share their draws.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    DomainError,
    alpha_from_phi0,
    phi_from_mu0y,
    require_distinct,
    theta_on_line,
)
from .estimators import EstimatorRule, bias_on_cone, rule_constant, rule_values
from .models import T1, ModelSpec, mle_rows, theta_in_model
from .selection import observe


# The most window cells drawn, evaluated and reduced at once, and the most
# cells scored at once: together they bound every temporary.
_CELL_BLOCK = 8192
_SCORE_BLOCK = 2048


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a nested stochastic task."""
    ss = np.random.SeedSequence([seed % (1 << 64), *path])
    return int(ss.generate_state(2, np.uint64)[0])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % (1 << 64), index]))


def _chunk_moments(vals: np.ndarray, freq: np.ndarray) -> tuple:
    """One block's moments: its sums (a list of one), size, first value, mean
    less that value and centred sum of squares, each value counted freq
    times; a constant block has a centred sum of exactly 0."""
    diffs = vals - vals[0]
    size, total, shift = int(freq.sum()), (freq * vals).sum(), (freq * diffs).sum()
    offset = shift / size
    diffs -= offset  # in place: a second block-sized array costs more than the sums
    sq = np.square(diffs, out=diffs)
    return [float(total)], size, float(vals[0]), float(offset), float((freq * sq).sum())


def _merge(a: tuple, b: tuple) -> tuple:
    """The moments of block a followed by block b, by Chan's pairwise formula
    (the running mean is base + offset, base a's first value); a's list of
    sums takes b's, so a is consumed."""
    sums, count, base, offset, m2 = a
    block_sums, size, first, block_offset, block_m2 = b
    total = count + size
    delta = (first - base) + block_offset - offset
    sums.extend(block_sums)
    return (sums, total, base, offset + delta * (size / total),
            m2 + (block_m2 + delta * delta * (count * size / total)))


def _combine(moments: tuple, samples: int) -> tuple[float, float]:
    """(mean, se) of one statistic from its blocks' _chunk_moments, merged in
    order by _merge: the fsum of the block sums, and the centred sum of
    squares."""
    sums, _, _, _, m2 = moments
    return math.fsum(sums) / samples, math.sqrt(m2 / (samples - 1) / samples)


def _binomial_cells(rng: np.random.Generator, m: np.ndarray, p: float,
                    freq: np.ndarray) -> Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw freq[r] counts from Binomial(m[r], p) for each row r, as blocks
    (rows, counts, frequencies) of occupied cells.

    A row's pmf is taken on m p +- (12 sd + 40), clipped to [0, m], beyond
    which its mass is negligible (the reach estimators._poisson_mixture
    uses).  A row with at least as many draws as its window has counts draws
    their histogram, one multinomial over the window, with as many rows per
    call as fit in _CELL_BLOCK cells; a row with fewer draws draws its
    counts one by one, as frequency-1 cells in blocks of at most _CELL_BLOCK.
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

        def histogram(r):
            # a function, so that its window-sized arrays are freed before
            # the caller evaluates the cells; right-aligned, so the last
            # column, which takes what rounding leaves of a row's draws, is
            # always a count of the row
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
            return r[i], c[i, j], hist[i, j]

        step = max(1, _CELL_BLOCK // width)
        for k in range(0, rows.size, step):
            yield histogram(rows[k:k + step])
    rows = np.flatnonzero(~dense)
    ends = np.cumsum(freq[rows])
    total = int(ends[-1]) if rows.size else 0
    for start in range(0, total, _CELL_BLOCK):
        r = rows[np.searchsorted(ends, np.arange(start, min(start + _CELL_BLOCK, total)),
                                 "right")]
        yield r, rng.binomial(m[r], p), np.ones(r.size, dtype=np.int64)


def mc_target_trinomial(model: ModelSpec, theta0, n: int, seed: int, samples: int,
                        rules: Sequence[EstimatorRule] = ()) -> list[tuple[float, float]]:
    """Finite-n bias-correction target, and the expected value of each rule,
    estimated by trinomial simulation from samples draws at theta0, a
    probability triple inside the simplex: a list of (estimate, std_error)
    pairs, the target's, then one per rule.

    Per replicate the target is 2 sum_i (c_i - n theta0_i) log thetahat_i,
    written in the zero-sum form 2 [d1 (L1 - L3) + d2 (L2 - L3)] so constant
    estimates give an exact zero; thetahat components are clamped at 1e-12
    before logging.  A rule's replicate is its rule_values on the counts.

    The replicates are drawn as the histogram of their counts (see
    _binomial_cells): c_1 from the stream (seed, 0), then c_2 | c_1 ~
    Binomial(n - c_1, theta0_2 / (1 - theta0_1)) from the stream (seed, 1).
    The t1:k estimate depends on c_k alone and its other two components are
    equal, so the replicate is 2 d_k (L_k - L_j) for either j != k, and t1:k
    draws only c_k ~ Binomial(n, theta0_k), from the stream (seed, 0); its
    cells are the rows with c_k at k and n - c_k at j = k mod 3 + 1.  Each
    statistic is evaluated once per occupied cell and weighted by its count.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if samples < 2:
        # one draw has no standard error: a 0 would claim an exact value
        raise DomainError(f"samples must be at least 2, got {samples}")
    theta0 = tuple(theta0)
    if not (len(theta0) == 3 and all(p > 0.0 and math.isfinite(p) for p in theta0)
            and abs(sum(theta0) - 1.0) <= 1e-12):
        raise DomainError(f"theta0={theta0!r} is not a probability triple inside the simplex")
    if not theta_in_model(model, theta0):
        raise DomainError(f"theta0 outside the parameter space of {model.model_id}")
    t0 = np.array(theta0)
    k = model.topology - 1 if model.variant == T1 else 0
    first = _binomial_cells(_chunk_rng(seed, 0), np.array([n]), t0[k], np.array([samples]))

    def values(counts):
        # every statistic at each cell of the block, scored _SCORE_BLOCK
        # cells at a time; each value is its own row's
        out = np.empty((1 + len(rules), len(counts)))
        for start in range(0, len(counts), _SCORE_BLOCK):
            part, cols = counts[start:start + _SCORE_BLOCK], out[:, start:start + _SCORE_BLOCK]
            if rules:
                theta, geometry = observe(model, part, n)
            else:
                theta = mle_rows(model, part)[0]
            logs = np.log(np.maximum(theta, 1e-12))
            if model.variant == T1:
                # + 0.0: the zero-sum form's other term, d (L - L) with two equal logs
                cols[0] = 2.0 * ((part[:, k] - n * t0[k]) * (logs[:, k] - logs[:, j]) + 0.0)
            else:
                d1 = part[:, 0] - n * t0[0]
                d2 = part[:, 1] - n * t0[1]
                cols[0] = 2.0 * (d1 * (logs[:, 0] - logs[:, 2]) + d2 * (logs[:, 1] - logs[:, 2]))
            for col, rule in zip(cols[1:], rules):
                col[:] = rule_values(model, rule, n, geometry)
        return out

    if model.variant == T1:
        j = model.topology % 3

        def cells():
            for _, c, freq in first:
                counts = np.zeros((len(c), 3))
                counts[:, k], counts[:, j] = c, n - c
                yield counts, freq
    else:
        def cells():
            rng = _chunk_rng(seed, 1)
            q = min(max(t0[1] / max(1.0 - t0[0], 1e-300), 0.0), 1.0)
            for _, c1, freq1 in first:
                for r, c2, freq in _binomial_cells(rng, n - c1, q, freq1):
                    counts = np.empty((len(r), 3))
                    counts[:, 0], counts[:, 1] = c1[r], c2
                    counts[:, 2] = n - counts[:, 0] - counts[:, 1]
                    yield counts, freq

    blocks = ([_chunk_moments(v, freq) for v in values(counts)] for counts, freq in cells())
    merged = reduce(lambda a, b: list(map(_merge, a, b)), blocks)
    return [_combine(m, samples) for m in merged]


# The most points of a grid.  radii calibration holds a few arrays of one
# value per scanned radius (121) and grid point at once, about 4 KB a point:
# on a 2-core x86_64 VM, t3 radii on 10,001 points of 0:50 peaked at 74 MB
# resident and on 50,001 points at 226 MB.
_MAX_GRID_POINTS = 10_000


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid of at most _MAX_GRID_POINTS points; step 0,
    or a stop equal to the start, gives the single start point, and a stop
    below the start is a DomainError."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError("grid start, stop and step must be finite")
    if step < 0:
        raise DomainError("grid step must be nonnegative")
    if step == 0 or stop == start:
        return [start]
    if stop < start:
        raise DomainError("grid stop must not lie below its start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise DomainError("grid step is too small for its range")
    count = int(math.floor(span + 1e-9)) + 1
    if count > _MAX_GRID_POINTS:
        raise DomainError(f"grid of {count} points exceeds the {_MAX_GRID_POINTS} allowed")
    return [start + i * step for i in range(count)]


def curve_grid(model: ModelSpec, n: int, grid: Sequence[float], rules: Sequence[EstimatorRule],
               seed: int, samples: int) -> dict[str, list[tuple[float, float]]]:
    """Per-grid-point curve data, an (estimate, std_error) pair per column
    and grid point: simulated target, analytic corrections, and the expected
    value of each requested estimator rule for a sample of size n, estimated
    on the target's own cells (mc_target_trinomial), or with se 0 the rule's
    constant (rule_constant), which scores nothing.

    The target and the rule columns at grid point i draw their histogram of
    counts from the streams of the seed derive_seed(seed, i, 0), so
    a column's value is the same whichever other rules are requested, in
    whatever order.
    """
    require_distinct([rule.method for rule in rules], "rule method")
    # an aic rule column is the aic column itself
    curves: dict[str, list[tuple[float, float]]] = {
        "target": [], "aicg": [], "aic": [(2.0 * model.dim, 0.0)] * len(grid)}
    drawn = []
    for rule in rules:
        value = rule_constant(model, rule, n)
        if value is None:
            drawn.append(rule)
        curves[rule.method] = [] if value is None else [(value, 0.0)] * len(grid)

    # one row scored first: a rule that cannot apply (consistent at n < 3)
    # raises before anything is drawn
    for rule in drawn:
        rule_values(model, rule, n, observe(model, np.array([[n, 0.0, 0.0]]), n)[1])
    mus = np.array(grid, dtype=float)
    phis = phi_from_mu0y(mus, n)
    aicg = bias_on_cone(model, mus, alpha_from_phi0(phis))
    for i, phi0 in enumerate(phis.tolist()):
        theta0 = theta_on_line(phi0, model.topology or 1)
        target, *columns = mc_target_trinomial(model, theta0, n, derive_seed(seed, i, 0),
                                               samples, drawn)
        curves["target"].append(target)
        curves["aicg"].append((float(aicg[i]), 0.0))
        for rule, pair in zip(drawn, columns):
            curves[rule.method].append(pair)
    return curves
