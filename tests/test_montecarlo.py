import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from aicg.estimators import EstimatorRule, bias_on_cone, rule_constant
from aicg.geometry import (
    DomainError,
    alpha_from_phi0,
    mu0y,
    phi_from_mu0y,
    theta_on_line,
)
from aicg.models import (polytomy_model, t1_model, t3_model, unconstrained_model,
                         validate_halflines)
from aicg.montecarlo import (
    curve_grid,
    derive_seed,
    grid_values,
    mc_target_trinomial,
    _chunk_moments,
    _chunk_rng,
    _combine,
    _merge,
)
from aicg.selection import observe, score_batch
from aicg.special import norm_cdf

from oracles import (CENTROID, DRAW_BLOCK, TransformedPoint, cone_of, halflines_origin_bias,
                     mc_bias_gaussian, project_points, rule_expectation_exact, run_chunks,
                     standard_normals, t1_consistent_limit, t1_plugin_limit, t1_target_exact,
                     trinomial_counts, trinomial_target_exact)

N_MED = 200_000


def within_3se(estimate, se, target, floor=0.0):
    return abs(estimate - target) <= max(3.0 * se, floor)


def sub_block_normals(seed, samples, chunk_size=1 << 16):
    """The normals e of oracles.run_chunks: one list per chunk of one
    (rows, 2) array per sub-block of at most DRAW_BLOCK rows, each drawn from
    the chunk's stream in turn."""
    full, rem = divmod(samples, chunk_size)
    chunks = []
    for index, size in enumerate([chunk_size] * full + ([rem] if rem else [])):
        rng = _chunk_rng(seed, index)
        chunks.append([standard_normals(rng, (min(DRAW_BLOCK, size - k), 2))
                       for k in range(0, size, DRAW_BLOCK)])
    return chunks


def merged_column(chunks, samples):
    """(mean, se, min) as run_chunks reduces the sub-blocks' values: each
    sub-block by _chunk_moments, each chunk's sub-blocks merged in order by
    _merge, and the chunks too; the least value of them all."""
    def moments(vals):
        return _chunk_moments(vals, np.ones(vals.size, dtype=np.int64))
    mean, se = _combine(reduce(_merge, (reduce(_merge, map(moments, chunk))
                                        for chunk in chunks)), samples)
    return mean, se, min(float(vals.min()) for chunk in chunks for vals in chunk)


def scored_cells(model, theta0, n, seed, samples, rules):
    """mc_target_trinomial's estimates, and the cells it scored: one (counts,
    freq) pair per block of cells, in order."""
    import aicg.montecarlo as mc
    parts, blocks = [], []
    seen = []

    def recording_observe(model_, counts, n_):
        parts.append(counts.copy())
        return observe(model_, counts, n_)

    def recording_moments(vals, freq):
        if not seen or seen[-1] is not freq:  # each statistic of a block shares freq
            seen.append(freq)
            rows = np.concatenate(parts)
            parts.clear()
            blocks.append((rows, freq.copy()))
        return _chunk_moments(vals, freq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "observe", recording_observe)
        mp.setattr(mc, "_chunk_moments", recording_moments)
        estimates = mc_target_trinomial(model, theta0, n, seed, samples, rules)
    assert all(len(counts) == len(freq) for counts, freq in blocks)
    return estimates, blocks


def curve_theta0(model, mu, n):
    return theta_on_line(phi_from_mu0y(mu, n), model.topology or 1)


def cell_block(monkeypatch, size):
    """Draw, evaluate and reduce at most size cells at once, so that a small
    run crosses block boundaries."""
    import aicg.montecarlo as mc
    monkeypatch.setattr(mc, "_CELL_BLOCK", size)


class TestSettings:
    """The pair (seed, samples), which mc_target_trinomial checks."""

    def test_validation(self):
        theta0 = theta_on_line(phi_from_mu0y(1.0, 100), 1)
        with pytest.raises(DomainError, match="samples must be at least 2, got 0"):
            mc_target_trinomial(t1_model(1), theta0, 100, seed=1, samples=0)

    def test_one_sample_rejected(self):
        # one draw has no standard error: a 0 would claim an exact value
        theta0 = theta_on_line(phi_from_mu0y(1.0, 100), 1)
        with pytest.raises(DomainError, match="samples must be at least 2, got 1"):
            mc_target_trinomial(t1_model(1), theta0, 100, 1, 1)
        with pytest.raises(DomainError, match="samples must be at least 2, got 1"):
            curve_grid(t3_model(), 100, [0.0, 1.0], [EstimatorRule("plugin")], 1, 1)
        (_, se), (_, rule_se) = mc_target_trinomial(t1_model(1), theta0, 100, 1, 2,
                                                    [EstimatorRule("plugin")])
        assert se > 0.0 and rule_se > 0.0


class TestSampling:
    def test_normals_moments(self):
        rng = _chunk_rng(123, 0)
        z = standard_normals(rng, 400_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs((z ** 3).mean()) < 0.02

    def test_chunk_normals_pass_kolmogorov_smirnov(self):
        from scipy.stats import kstest, norm
        # one full chunk's (65536, 2) block, as the estimator kernels draw it
        z = standard_normals(_chunk_rng(2024, 0), (1 << 16, 2))
        assert z.shape == (1 << 16, 2)
        assert kstest(z.ravel(), norm.cdf).pvalue > 1e-3
        for column in z.T:
            assert kstest(column, norm.cdf).pvalue > 1e-3

    def test_trinomial_marginals(self):
        rng = _chunk_rng(99, 0)
        theta = np.array([0.5, 0.3, 0.2])
        counts = trinomial_counts(rng, 200, theta, 100_000)
        assert np.all(counts.sum(axis=1) == 200)
        assert np.allclose(counts.mean(axis=0) / 200, theta, atol=0.002)

    def test_trinomial_degenerate_component(self):
        rng = _chunk_rng(2, 0)
        counts = trinomial_counts(rng, 50, np.array([1.0, 0.0, 0.0]), 100)
        assert np.all(counts[:, 0] == 50)


class TestMcBiasGaussian:
    def test_t1_boundary(self):
        est = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 0),
                               42, N_MED)
        assert within_3se(est.value, est.std_error, 1.0)

    def test_polytomy_exact_zero(self):
        est = mc_bias_gaussian(cone_of(polytomy_model()), TransformedPoint(0, 0),
                               1, 5000)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_halflines_two_equal(self):
        hl = validate_halflines([math.pi, 2 * math.pi])
        est = mc_bias_gaussian(cone_of(hl), TransformedPoint(0, 0), 7, 10**6)
        assert within_3se(est.value, est.std_error, 2.0)

    def test_halflines_closed_form_cross_check(self):
        hl = validate_halflines([2.8, 4.5, 2 * math.pi])
        est = mc_bias_gaussian(cone_of(hl), TransformedPoint(0, 0), 8, 10**6)
        assert within_3se(est.value, est.std_error, halflines_origin_bias(hl))

    def test_off_cone_rejected(self):
        with pytest.raises(DomainError):
            mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(1.0, 1.0),
                             1, 100)

    def test_pointwise_nonnegative(self):
        for cone, mu0 in [(cone_of(t1_model(1)), TransformedPoint(0, 1.5)),
                          (cone_of(t3_model(), alpha_from_phi0(0.8)),
                           TransformedPoint(0, mu0y(0.8, 100)))]:
            est = mc_bias_gaussian(cone, mu0, 3, 100_000)
            assert est.min_draw >= -1e-12


class TestDeterminism:
    def test_same_settings_bit_identical(self):
        a = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1), 5, 70_000)
        b = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1), 5, 70_000)
        assert a.value == b.value and a.std_error == b.std_error

    def test_derive_seed_stable(self):
        assert derive_seed(10, 3, 1) == derive_seed(10, 3, 1)
        assert derive_seed(10, 3, 1) != derive_seed(10, 3, 2)


class TestSeScaling:
    def test_quadrupling_samples_halves_se(self):
        cone = cone_of(t1_model(1))
        ratios = []
        for rep in range(10):
            small = mc_bias_gaussian(cone, TransformedPoint(0, 1), rep, 20_000)
            large = mc_bias_gaussian(cone, TransformedPoint(0, 1), 1000 + rep, 80_000)
            ratios.append(large.std_error / small.std_error)
        assert all(0.4 <= r <= 0.6 for r in ratios)


class TestChunkVariance:
    """Per-block centred sums combined by Chan's formula, against a
    two-pass variance of the same values."""

    @staticmethod
    def two_pass_se(values):
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return math.sqrt(var / len(values))

    def test_t3_plugin_se_far_from_origin(self):
        # at mu0y = 8 the plug-in values lie within a few 1e-2 of 2, most
        # within 1e-5: an uncentred sum of squares loses digits there
        n, samples = 1000, 100_000
        rule = EstimatorRule("plugin")
        curve = curve_grid(t3_model(), n, [0.0, 4.0, 8.0], [rule], 5, samples)
        (_, (estimate, se)), blocks = scored_cells(t3_model(), curve_theta0(t3_model(), 8.0, n),
                                                   n, derive_seed(5, 2, 0), samples, [rule])
        assert curve["plugin"][2] == (estimate, se)
        assert len(blocks) > 1
        values = np.concatenate([np.repeat(score_batch([t3_model()], counts, rule)[0].bias, freq)
                                 for counts, freq in blocks])
        assert len(values) == samples and 0 < np.ptp(values) < 0.05
        want = self.two_pass_se(values.tolist())
        assert abs(se - want) <= 1e-12 * want

    @pytest.mark.parametrize("value", [0.1, 2.0, 2.8269933431326884, -7.3e5])
    def test_constant_column_has_zero_se(self, value):
        def kernel(rng, size):
            return [np.full(size, value)]

        # two samples, the fewest that have a standard error, in one chunk
        for samples, chunk in [(100_000, 1 << 16), (10_007, 999), (2, 1 << 16)]:
            [(mean, se, lowest)] = run_chunks(1, samples, kernel, chunk)
            assert se == 0.0 and lowest == value
            assert mean == pytest.approx(value, rel=1e-15)

    def test_large_mean_small_spread(self):
        def kernel(rng, size):
            return [1e8 + 1e-3 * standard_normals(rng, size)]

        # chunks below the sub-block size, and chunks of several sub-blocks
        for chunk in (4096, 20_000):
            [(_, se, _)] = run_chunks(4, 30_000, kernel, chunk)
            full, rem = divmod(30_000, chunk)
            sizes = [chunk] * full + [rem]
            values = np.concatenate([kernel(_chunk_rng(4, k), s)[0] for k, s in enumerate(sizes)])
            want = self.two_pass_se(values.tolist())
            assert abs(se - want) <= 1e-9 * want, chunk


def traced_peak_mb(run):
    """tracemalloc's peak over a second call of run (the first fills the
    caches), above what was allocated before it, in MB."""
    run()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        run()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemoryBound:
    """A curve draws, scores and reduces its cells one block at a time, and
    the Gaussian oracle its normals one sub-block at a time, so neither
    working set grows with the block or chunk size.  Chunk-sized arrays of
    normals peaked at 1.54 MB (2^14 rows) and 4.72 MB (2^18 rows) on this
    curve, and at 2.19 MB for the bias; blocks peak at 1.11 and 0.76 MB
    (numpy 2.4, Python 3.11)."""

    def test_curve_peak_does_not_grow_with_chunk_size(self, monkeypatch):
        rules = [EstimatorRule("plugin"), EstimatorRule("uo")]
        grid = grid_values(0.0, 5.0, 0.5)
        peaks = []
        for block in (1 << 14, 1 << 18):
            cell_block(monkeypatch, block)
            peaks.append(traced_peak_mb(lambda: curve_grid(t1_model(1), 1000, grid, rules,
                                                           5, 100_000)))
        assert abs(peaks[0] - peaks[1]) <= 0.05, peaks
        assert max(peaks) <= 1.4, peaks

    def test_bias_peak(self):
        peak = traced_peak_mb(lambda: mc_bias_gaussian(cone_of(t1_model(1)),
                                                       TransformedPoint(0, 1),
                                                       5, 200_000))
        assert peak <= 1.0, peak


class TestTargetTrinomial:
    def test_polytomy_identically_zero(self):
        (value, se), = mc_target_trinomial(polytomy_model(), CENTROID, 137, 4, 5000)
        assert value == 0.0 and se == 0.0

    def test_t1_boundary_near_one(self):
        (value, se), = mc_target_trinomial(t1_model(1), CENTROID, 1000, 11, N_MED)
        assert within_3se(value, se, bias_on_cone(t1_model(1), 0.0), floor=0.02)

    def test_unconstrained_near_four(self):
        (value, se), = mc_target_trinomial(unconstrained_model(), CENTROID, 1000,
                                           12, N_MED)
        assert within_3se(value, se, 4.0, floor=0.05)

    def test_t3_centroid_target_matches_quadrature(self):
        from aicg.quadrature import bias_t3_value
        (value, _), = mc_target_trinomial(t3_model(), CENTROID, 1000, 13, N_MED)
        assert abs(value - bias_t3_value(0.0, math.pi / 6)) <= 0.03

    def test_theta_outside_model_rejected(self):
        with pytest.raises(DomainError):
            mc_target_trinomial(t1_model(1), (0.2, 0.5, 0.3), 100, 1, 10)
        with pytest.raises(DomainError):
            mc_target_trinomial(polytomy_model(), theta_on_line(0.5, 1), 100, 1, 10)


class TestT1TargetKernel:
    """t1 draws only the count its MLE reads, as the histogram the trinomial
    models draw for c_1."""

    # n, then a phi0 at which P(c_1 = n), the clamped case, is 0.12-0.37
    CASES = [(1, 0.9), (2, 0.8), (10, 0.2), (1000, 0.0015)]

    @pytest.mark.parametrize("n, phi0", CASES)
    @pytest.mark.parametrize("block", [4096, 512])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_t1_1_matches_trinomial_kernel_bit_for_bit(self, n, phi0, block, columns,
                                                       monkeypatch):
        # t1:1's c_1 histogram is the first stage of the trinomial models'
        # draw, and neither the cell block nor the rule columns scored on
        # the same cells move a bit of the target
        samples = 5 * block + 123
        rules = [EstimatorRule("plugin"), EstimatorRule("uo")][:columns]
        for theta0 in (theta_on_line(phi0, 1), CENTROID):
            assert theta0[0] ** n > 0.1 or theta0 == CENTROID
            cell_block(monkeypatch, block)
            est, t1_calls = record_target(t1_model(1), theta0, n, 17, samples, rules)
            monkeypatch.undo()
            _, t3_calls = record_target(t3_model(), theta0, n, 17, samples)
            cell_block(monkeypatch, samples)
            whole, = mc_target_trinomial(t1_model(1), theta0, n, 17, samples)
            monkeypatch.undo()
            assert t1_calls == [call for call in t3_calls if call[1] == 0]
            assert est == whole

    def test_t1_draws_no_trinomials(self):
        # one multinomial over the window n p +- (12 sd + 40) of c_k's law
        n, p = 300, theta_on_line(0.7, 1)[0]
        reach = 12.0 * math.sqrt(n * p * (1.0 - p)) + 40.0
        width = min(math.ceil(n * p + reach), n) - max(math.floor(n * p - reach), 0) + 1
        for k in (1, 2, 3):
            _, calls = record_target(t1_model(k), theta_on_line(0.7, k), n, 5, 10_000)
            assert [(method, index, len(out)) for method, index, out in calls] == \
                [("multinomial", 0, width)]

    @pytest.mark.parametrize("n", [30, 1000])
    @pytest.mark.parametrize("topology", [1, 2, 3])
    def test_matches_exact_binomial_sum(self, n, topology):
        for i, phi0 in enumerate((1.0, 0.9, 0.5)):
            theta0 = theta_on_line(phi0, topology)
            exact = t1_target_exact(topology, theta0, n)
            (value, se), = mc_target_trinomial(t1_model(topology), theta0, n,
                                               100 * topology + i, 200_000)
            assert abs(value - exact) <= 4.0 * se, (phi0, exact, value)

    def test_exact_sum_matches_boundary_constant(self):
        # at the centroid the large-n target tends to the t1 bias at 0, 1
        assert t1_target_exact(1, CENTROID, 4000) == pytest.approx(1.0, abs=0.03)


class TestTargetHistogram:
    """The histogram sampler has the law of independent trinomial draws, at a
    cost set by the count window."""

    SEEDS = range(20)

    @staticmethod
    def z_scores(model, theta0, n, exact, samples=100_000):
        z = []
        for seed in TestTargetHistogram.SEEDS:
            (value, se), = mc_target_trinomial(model, theta0, n, 900 + seed, samples)
            z.append((value - exact) / se)
        return np.array(z)

    @staticmethod
    def assert_standard(z, case):
        assert abs(z.mean()) <= 1.0 and 0.6 <= z.std(ddof=1) <= 1.5, (case, z.mean(), z.std())

    @pytest.mark.parametrize("n, phi0", TestT1TargetKernel.CASES)
    @pytest.mark.parametrize("topology", [1, 2, 3])
    def test_t1_law(self, n, phi0, topology):
        theta0 = theta_on_line(phi0, topology)
        exact = t1_target_exact(topology, theta0, n)
        self.assert_standard(self.z_scores(t1_model(topology), theta0, n, exact), exact)

    @pytest.mark.parametrize("n", [10, 30, 1000])
    @pytest.mark.parametrize("model", [t3_model(), unconstrained_model()],
                             ids=["t3", "unconstrained"])
    def test_trinomial_law(self, model, n):
        for theta0 in (CENTROID, theta_on_line(0.6, 2)):
            exact = trinomial_target_exact(model.model_id, theta0, n)
            self.assert_standard(self.z_scores(model, theta0, n, exact), (theta0, exact))

    def test_oracle_matches_the_t1_binomial_sum(self):
        for n, phi0 in TestT1TargetKernel.CASES:
            theta0 = theta_on_line(phi0, 2)
            assert trinomial_target_exact("t1:2", theta0, n) == \
                pytest.approx(t1_target_exact(2, theta0, n), abs=1e-10)

    def test_draws_bounded_by_the_window(self):
        def draws(model, samples):
            _, calls = record_target(model, theta_on_line(0.8, model.topology or 1),
                                     1000, 3, samples)
            return sum(len(out) for _, _, out in calls)
        for k in (1, 2, 3):
            assert draws(t1_model(k), 10**4) == draws(t1_model(k), 10**6) < 1001
        # t3 draws each c_2 row's histogram once the row has more draws
        # than its window, so far fewer cells than draws
        assert draws(t3_model(), 10**6) < 10**5

    @pytest.mark.parametrize("model", [t1_model(2), t3_model()], ids=["t1:2", "t3"])
    def test_few_draws_per_window(self, model, monkeypatch):
        # at n = 1e6 the c_1 window holds more counts than 1000 draws, so
        # every count is drawn one by one, in blocks of at most _CELL_BLOCK
        theta0 = theta_on_line(0.003, model.topology or 1)
        cell_block(monkeypatch, 300)
        (value, se), calls = record_target(model, theta0, 10**6, 8, 1000)
        assert {method for method, _, _ in calls} == {"binomial"}
        assert max(len(out) for _, _, out in calls) == 300
        exact = trinomial_target_exact(model.model_id, theta0, 10**6)
        assert abs(value - exact) <= 4.0 * se, (exact, value)


class _Recorder:
    """A generator stand-in that records the outputs of its draws, with the
    index of its stream."""

    def __init__(self, rng, index, calls):
        self.rng, self.index, self.calls = rng, index, calls

    def binomial(self, *args, **kwargs):
        return self.record("binomial", self.rng.binomial(*args, **kwargs))

    def multinomial(self, *args, **kwargs):
        return self.record("multinomial", self.rng.multinomial(*args, **kwargs))

    def record(self, method, out):
        self.calls.append((method, self.index, np.asarray(out).ravel().tolist()))
        return out


def record_target(model, theta0, n, seed, samples, rules=()):
    """mc_target_trinomial's target (estimate, std_error), and every draw of
    its streams as (method, stream index, values)."""
    import aicg.montecarlo as mc
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_chunk_rng",
                   lambda seed, index: _Recorder(_chunk_rng(seed, index), index, calls))
        est, *_ = mc_target_trinomial(model, theta0, n, seed, samples, rules)
    return est, calls


def one_point(model, rule, mu, seed, samples, n=1000):
    """The rule's column of a one-point curve at mu."""
    return curve_grid(model, n, [mu], [rule], seed, samples)[rule.method][0]


class TestExpectedEstimator:
    # The exact finite-n column of t1:1 plugin at mu0y = 0 and n = 1e5 lies
    # 2.086e-4 below its Gaussian limit 1.25: 1.249791373372527, the binomial
    # sum of score_batch values over every c_1, measured once.
    T1_PLUGIN_GAP = 2.1e-4

    def test_t1_plugin_matches_quadrature_oracle(self):
        estimate, se = one_point(t1_model(1), EstimatorRule("plugin"), 0.0,
                                 21, 500_000, n=100_000)
        limit = float(t1_plugin_limit(0.0))
        assert limit == 1.25
        assert abs(estimate - limit) <= self.T1_PLUGIN_GAP + 3.0 * se

    def test_t1_uo_closed_form(self):
        # radius 0 takes the singularity value 1 where the estimate sits at
        # the boundary, c_1 <= n / 3: 2 - P(c_1 <= 333) at n = 1000, and
        # 2 - Phi(-1) in the Gaussian limit
        from scipy.stats import binom
        estimate, se = one_point(t1_model(1), EstimatorRule("uo", radius=0.0), 1.0,
                                 22, 500_000)
        assert 2.0 - norm_cdf(-1.0) == pytest.approx(1.8413447, abs=1e-7)
        p1 = curve_theta0(t1_model(1), 1.0, 1000)[0]
        assert within_3se(estimate, se, 2.0 - binom.cdf(333, 1000, p1))

    def test_polytomy_rule_constant(self):
        for method in ("plugin", "aic", "llf", "ulf", "uo", "minimax", "consistent",
                       "bootstrap"):
            estimate, se = one_point(polytomy_model(), EstimatorRule(method, radius=1.0), 0.0,
                                     1, 2000)
            assert estimate == 0.0 and se == 0.0


DRAWN_RULES = ("plugin", "uo", "minimax", "consistent", "bootstrap")


class TestRuleColumnsExact:
    """Every drawn rule column of t1:1 and t3 against the exact finite-n
    expectation of the rule, summed over every trinomial outcome."""

    @pytest.mark.parametrize("n", [10, 30])
    @pytest.mark.parametrize("model", [t1_model(1), t3_model()], ids=["t1:1", "t3"])
    def test_within_5_se_of_the_exact_sum(self, model, n):
        grid = [0.0, 1.0, 2.5]
        rules = [EstimatorRule(method) for method in DRAWN_RULES]
        curves = curve_grid(model, n, grid, rules, 7 + n, 50_000)
        for i, mu in enumerate(grid):
            theta0 = curve_theta0(model, mu, n)
            for rule in rules:
                estimate, se = curves[rule.method][i]
                exact = rule_expectation_exact(model, rule, theta0, n)
                assert abs(estimate - exact) <= max(5.0 * se, 1e-12), \
                    (rule.method, mu, estimate, se, exact)

    def test_no_column_prints_nan_at_n_5(self):
        # every outcome at a vertex has a defined value
        rules = [EstimatorRule(method) for method in DRAWN_RULES]
        for model in (t1_model(1), t3_model()):
            curves = curve_grid(model, 5, [0.0, 1.0, 2.0], rules, 1, 2000)
            for method in ("target", *DRAWN_RULES):
                assert all(math.isfinite(estimate) and math.isfinite(se)
                           for estimate, se in curves[method]), (model.model_id, method)


class TestGaussianLimits:
    """The t1 rule columns' limits as n grows: with ||Pz|| = max(X, 0),
    X ~ N(m, 1), closed forms in the bivariate normal CDF."""

    MS = (0.0, 0.3, 1.0, 2.5, 5.0)

    def test_limits_match_quad(self):
        from scipy.integrate import quad
        from scipy.stats import norm
        r = 1.7
        for m in self.MS:
            pdf = norm(m, 1.0).pdf
            def integrand(x):
                return 2.0 * norm.cdf(x) * pdf(x)
            plugin = norm.cdf(-m) + quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13)[0]
            consistent = norm.cdf(r - m) + quad(integrand, r, np.inf, epsabs=1e-14,
                                                epsrel=1e-13)[0]
            # measured: within 4.5e-16
            assert abs(float(t1_plugin_limit(m)) - plugin) <= 2e-15, m
            assert abs(float(t1_consistent_limit(m, r)) - consistent) <= 2e-15, m

    # sup over MS of |exact finite-n column - limit| from the binomial sum
    # of score_batch values over every c_1, measured once: plugin 0.0020 at
    # n = 1e3 and 0.0007 at 1e4; consistent (radius n^(1/6)) 0.0081 and
    # 0.0022.  The bounds add a quarter, and fall about as n^(-1/2).
    BOUNDS = {("plugin", 1000): 0.0025, ("plugin", 10_000): 0.0009,
              ("consistent", 1000): 0.010, ("consistent", 10_000): 0.0028}

    @pytest.mark.parametrize("method", ["plugin", "consistent"])
    def test_columns_approach_the_limits(self, method):
        rule = EstimatorRule(method)
        for n in (1000, 10_000):
            curve = curve_grid(t1_model(1), n, list(self.MS), [rule],
                               3, 4_000_000)[method]
            r = n ** (1.0 / 6.0)
            limits = t1_plugin_limit(self.MS) if method == "plugin" else \
                t1_consistent_limit(self.MS, r)
            for mu, (estimate, se), limit in zip(self.MS, curve, limits):
                assert abs(estimate - limit) <= self.BOUNDS[method, n] + 4.0 * se, \
                    (n, mu, estimate, limit)
        assert self.BOUNDS[method, 10_000] < self.BOUNDS[method, 1000] / 2.5


class TestGridValues:
    def test_step_zero_single_point(self):
        assert grid_values(1.5, 9.0, 0.0) == [1.5]

    def test_inclusive_endpoints(self):
        grid = grid_values(0.0, 5.0, 0.5)
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(5.0)
        assert len(grid) == 11

    def test_negative_step_rejected(self):
        with pytest.raises(DomainError):
            grid_values(0, 1, -0.1)

    def test_reversed_grid_rejected(self):
        # a stop below the start once gave the one start point; a stop equal
        # to it, or a step of 0, still does
        with pytest.raises(DomainError, match="below its start"):
            grid_values(5.0, 0.0, 1.0)
        assert grid_values(0.0, 0.0, 1.0) == [0.0]
        assert grid_values(5.0, 0.0, 0.0) == [5.0]

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, math.inf, 1.0), (math.nan, 1.0, 0.5), (0.0, 1.0, math.nan), (-math.inf, 0.0, 0.0),
        (0.0, 1e300, 1e-300)])
    def test_non_finite_rejected(self, start, stop, step):
        # the last grid is finite, but its point count is not
        with pytest.raises(DomainError):
            grid_values(start, stop, step)


class TestCurveGrid:
    def test_repeated_rule_method_rejected(self):
        # the columns are keyed by method, so a repeat would merge two columns
        rules = [EstimatorRule("plugin"), EstimatorRule("uo"), EstimatorRule("plugin")]
        with pytest.raises(DomainError, match="rule method 'plugin' is repeated"):
            curve_grid(t1_model(1), 100, [0.0, 1.0], rules, 3, 100)

    def test_t1_endpoints_and_columns(self):
        curves = curve_grid(t1_model(1), 1000, [0.0, 5.0],
                            rules=[EstimatorRule("uo", radius=0.0)],
                            seed=31, samples=30_000)
        assert set(curves) == {"target", "aicg", "aic", "uo"}
        assert curves["aicg"][0][0] == 1.0
        assert curves["aicg"][1][0] == pytest.approx(1.9999994267, abs=1e-7)
        assert all(estimate == 2.0 for estimate, _ in curves["aic"])
        assert within_3se(*curves["target"][0], 1.0, floor=0.05)

    def test_deterministic_independent_of_columns(self):
        base = curve_grid(t1_model(1), 500, [0.0, 1.0], [], 77, 20_000)
        extra = curve_grid(t1_model(1), 500, [0.0, 1.0],
                           rules=[EstimatorRule("aic"), EstimatorRule("plugin")],
                           seed=77, samples=20_000)
        for i in range(2):
            assert base["target"][i] == extra["target"][i]

        # each rule column of a grid is the same whichever other columns are
        # requested, in whatever order
        seed, samples = 77, 20_000
        plugin, uo = EstimatorRule("plugin"), EstimatorRule("uo", radius=0.5)
        for model in (t1_model(1), t3_model()):
            runs = [curve_grid(model, 500, [0.0, 1.0], [plugin], seed, samples),
                    curve_grid(model, 500, [0.0, 1.0], [uo], seed, samples),
                    curve_grid(model, 500, [0.0, 1.0], [plugin, uo], seed, samples),
                    curve_grid(model, 500, [0.0, 1.0], [uo, EstimatorRule("aic"), plugin],
                               seed, samples)]
            for method in ("target", "plugin", "uo"):
                for i in (0, 1):
                    cells = {run[method][i] for run in runs if method in run}
                    assert len(cells) == 1, (model.model_id, method, i, cells)

    def test_rule_column_is_the_one_point_estimate(self):
        # grid point i is mc_target_trinomial at the seed derive_seed(seed, i, 0)
        model, n, samples = t3_model(), 500, 30_000
        rules = [EstimatorRule("plugin"), EstimatorRule("uo", radius=1.0)]
        grid = [0.0, 0.5, 1.5]
        curves = curve_grid(model, n, grid, rules, 5, samples)
        for i, mu in enumerate(grid):
            estimates = mc_target_trinomial(model, curve_theta0(model, mu, n), n,
                                            derive_seed(5, i, 0), samples, rules)
            for method, est in zip(("target", "plugin", "uo"), estimates):
                assert curves[method][i] == est

    @pytest.mark.parametrize("method", ["plugin", "aic", "llf", "ulf", "uo", "minimax",
                                        "consistent", "bootstrap"])
    def test_each_column_is_the_mean_of_rule_values(self, method, monkeypatch):
        # a column is the frequency-weighted mean over the target's cells of
        # the bias score_batch gives each cell's counts; a rule whose value
        # is a constant gives that constant and scores nothing
        n, samples = 30, 3000
        rule = EstimatorRule(method, eta_exponent=0.1)
        cell_block(monkeypatch, 1024)
        for model, grid in [(t1_model(1), [0.0, 2.0]), (t3_model(), [0.0, 2.0]),
                            (polytomy_model(), [0.0]), (unconstrained_model(), [0.0, 2.0])]:
            column = curve_grid(model, n, grid, [rule], 8, samples)[method]
            constant = rule_constant(model, rule, n)
            for i, (mu, pt) in enumerate(zip(grid, column)):
                if constant is not None:
                    assert pt == (constant, 0.0)
                    continue
                (_, est), blocks = scored_cells(model, curve_theta0(model, mu, n), n,
                                                derive_seed(8, i, 0), samples, [rule])
                sums = [float(np.dot(freq, score_batch([model], counts, rule)[0].bias))
                        for counts, freq in blocks]
                assert sum(len(freq) for _, freq in blocks) > 1
                assert pt == est
                assert pt[0] == pytest.approx(math.fsum(sums) / samples, rel=1e-14)

    def test_sub_block_draws_are_slices_of_the_chunk_draw(self):
        # drawing a chunk's normals one sub-block at a time leaves every draw
        # as one chunk-sized draw makes it
        chunks = sub_block_normals(6, 2 * 65_536 + 20_000)
        assert [len(blocks) for blocks in chunks] == [8, 8, 3]
        for index, (blocks, size) in enumerate(zip(chunks, [65_536, 65_536, 20_000])):
            whole = standard_normals(_chunk_rng(6, index), (size, 2))
            assert np.array_equal(np.concatenate(blocks), whole)

    def test_columns_are_the_merged_sub_block_moments(self):
        # a curve column merges, in order, the moments of its blocks of
        # cells, whose values are score_batch's however the engine slices
        # them; the Gaussian oracle merges its normals' sub-blocks
        n, seed, samples = 300, 6, 45_000
        rules = [EstimatorRule("plugin"), EstimatorRule("uo", radius=0.5),
                 EstimatorRule("consistent", eta_exponent=0.1)]
        for model in (t1_model(1), t3_model()):
            for mu in (0.0, 1.0, 3.0):
                estimates, blocks = scored_cells(model, curve_theta0(model, mu, n), n, seed,
                                                 samples, rules)
                for rule, est in zip(rules, estimates[1:]):
                    moments = [_chunk_moments(score_batch([model], counts, rule)[0].bias, freq)
                               for counts, freq in blocks]
                    assert est == _combine(reduce(_merge, moments), samples), \
                        (model.model_id, mu, rule.method)

        cone, center = cone_of(t3_model(), alpha_from_phi0(0.9)), np.array([0.0, 1.0])
        est = mc_bias_gaussian(cone, TransformedPoint(0.0, 1.0), seed, samples, chunk_size=20_000)
        chunks = [[2.0 * np.einsum("ij,ij->i", z - center, project_points(cone, z) - center)
                   for z in (center + e for e in blocks)]
                  for blocks in sub_block_normals(seed, samples, 20_000)]
        mean, se, lowest = merged_column(chunks, samples)
        assert (est.value, est.std_error, est.min_draw) == (mean, se, lowest)

    @pytest.mark.parametrize("model", [t1_model(1), t3_model(), polytomy_model(),
                                       unconstrained_model()], ids=lambda m: m.model_id)
    def test_constant_columns_draw_nothing(self, model, monkeypatch):
        import aicg.montecarlo as mc
        methods = ["aic", "llf", "ulf"]
        if model.variant in ("polytomy", "unconstrained"):
            methods += ["plugin", "uo", "minimax", "consistent", "bootstrap"]
        rules = [EstimatorRule(method, eta_exponent=0.1) for method in methods]

        def refuse(*args):
            raise AssertionError("a constant column was scored")
        monkeypatch.setattr(mc, "observe", refuse)
        monkeypatch.setattr(mc, "rule_values", refuse)
        grid = [0.0] if model.variant == "polytomy" else [0.0, 1.5]  # its only point
        curves = curve_grid(model, 100, grid, rules, 2, 1000)
        for rule in rules:
            value = rule_constant(model, rule, 100)
            assert value is not None
            assert curves[rule.method] == [(value, 0.0)] * len(grid)

    def test_t1_bootstrap_column_is_the_consistent_column(self):
        # a shrunk t1 row's bootstrap centre is the origin, where the bias
        # is the singularity value 1
        rules = [EstimatorRule("bootstrap", eta_exponent=0.2),
                 EstimatorRule("consistent", eta_exponent=0.2)]
        curves = curve_grid(t1_model(1), 100, [0.0, 1.0, 2.5, 4.0], rules, 4, 20_000)
        assert curves["bootstrap"] == curves["consistent"]

    def test_t3_consistent_column_shrinks_to_the_singularity_value(self):
        # like a shrunk count row, a shrunk cell takes singularity_bias(t3);
        # with every cell shrunk the column is that constant
        from aicg.estimators import singularity_bias
        estimate, se = one_point(t3_model(), EstimatorRule("consistent", eta_exponent=0.01), 0.0,
                                 1, 100)
        assert se == 0.0
        assert estimate == pytest.approx(singularity_bias(t3_model()), rel=1e-15)

    def test_rule_columns_share_the_target_histogram(self):
        # the rule columns draw nothing of their own: a curve with rules
        # makes the draws of the curve without them
        rules = [EstimatorRule("plugin"), EstimatorRule("uo", radius=0.5), EstimatorRule("aic")]
        for model in (t1_model(1), t3_model()):
            for mu in (0.0, 1.5):
                theta0 = curve_theta0(model, mu, 500)
                _, with_rules = record_target(model, theta0, 500, 3, 20_000, rules)
                _, alone = record_target(model, theta0, 500, 3, 20_000)
                assert with_rules == alone and alone
