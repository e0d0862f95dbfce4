import math
from functools import partial

import numpy as np
import pytest

from aicg.closedform import bias_t1
from aicg.estimators import EstimatorRule, rule_constant, rule_values
from aicg.geometry import (
    CENTROID,
    DomainError,
    GeometryParams,
    SimplexPoint,
    TransformedPoint,
    phi_from_mu0y,
    theta_on_line,
)
from aicg.models import (cone_of, polytomy_model, projected_distances, t1_model, t3_model,
                         unconstrained_model, validate_halflines)
from aicg.montecarlo import (
    CurvePoint,
    McSettings,
    curve_grid,
    derive_seed,
    grid_values,
    mc_bias_gaussian,
    mc_target_trinomial,
    standard_normals,
    _chunk_rng,
    _plugin_values,
    _run_chunks,
)
from aicg.special import norm_cdf

from oracles import (gauss_hermite_expectation, t1_target_exact, trinomial_counts,
                     trinomial_target_exact)

N_MED = 200_000


def within_3se(estimate, se, target, floor=0.0):
    return abs(estimate - target) <= max(3.0 * se, floor)


def rule_draw_values(model, rule, n, mu, settings):
    """rule_values at the draws z = (0, mu) + e of each chunk of a curve's
    rule columns, as curve_grid forms them: one array per chunk."""
    geo = GeometryParams.from_phi0(float(phi_from_mu0y(np.array([mu]), n)[0]), n)
    cone = cone_of(model, geo)
    full, rem = divmod(settings.samples, settings.chunk_size)
    chunks = []
    for index, size in enumerate([settings.chunk_size] * full + ([rem] if rem else [])):
        z = np.array([0.0, mu]) + standard_normals(_chunk_rng(settings.seed, index), (size, 2))
        chunks.append(rule_values(model, rule, n, projected_distances(cone, z),
                                  np.full(size, geo.alpha0), np.linalg.norm(z, axis=1),
                                  bias_at=partial(_plugin_values, geo=geo)))
    return chunks


def column_mean(chunks):
    """The mean the engine forms: the fsum of the chunks' sums."""
    return math.fsum(float(c.sum()) for c in chunks) / sum(c.size for c in chunks)


class TestSettings:
    def test_validation(self):
        with pytest.raises(DomainError):
            McSettings(seed=1, samples=0)
        with pytest.raises(DomainError):
            McSettings(seed=1, samples=10, chunk_size=0)

    def test_curve_point_validation(self):
        with pytest.raises(DomainError):
            CurvePoint(0.0, 1.0, -1e-3, 100)


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
                               McSettings(42, N_MED))
        assert within_3se(est.value, est.std_error, 1.0)

    def test_polytomy_exact_zero(self):
        est = mc_bias_gaussian(cone_of(polytomy_model()), TransformedPoint(0, 0),
                               McSettings(1, 5000))
        assert est.value == 0.0 and est.std_error == 0.0

    def test_halflines_two_equal(self):
        hl = validate_halflines([math.pi, 2 * math.pi])
        est = mc_bias_gaussian(cone_of(hl), TransformedPoint(0, 0), McSettings(7, 10**6))
        assert within_3se(est.value, est.std_error, 2.0)

    def test_halflines_closed_form_cross_check(self):
        from aicg.closedform import bias_halflines_at_singularity
        hl = validate_halflines([2.8, 4.5, 2 * math.pi])
        est = mc_bias_gaussian(cone_of(hl), TransformedPoint(0, 0), McSettings(8, 10**6))
        assert within_3se(est.value, est.std_error,
                          bias_halflines_at_singularity(hl).value)

    def test_off_cone_rejected(self):
        with pytest.raises(DomainError):
            mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(1.0, 1.0),
                             McSettings(1, 100))

    def test_pointwise_nonnegative(self):
        geo = GeometryParams.from_phi0(0.8, 100)
        for cone, mu0 in [(cone_of(t1_model(1)), TransformedPoint(0, 1.5)),
                          (cone_of(t3_model(), geo), TransformedPoint(0, geo.mu0y))]:
            est = mc_bias_gaussian(cone, mu0, McSettings(3, 100_000))
            assert est.settings["min_draw"] >= -1e-12


class TestDeterminism:
    def test_same_settings_bit_identical(self):
        a = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1), McSettings(5, 70_000))
        b = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1), McSettings(5, 70_000))
        assert a.value == b.value and a.std_error == b.std_error

    def test_worker_count_invariance(self):
        one = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1),
                               McSettings(5, 200_000, workers=1))
        four = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1),
                                McSettings(5, 200_000, workers=4))
        assert one.value == four.value and one.std_error == four.std_error

    def test_chunk_size_changes_stream(self):
        a = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1), McSettings(5, 50_000, 1 << 14))
        b = mc_bias_gaussian(cone_of(t1_model(1)), TransformedPoint(0, 1), McSettings(5, 50_000, 1 << 13))
        assert a.value != b.value  # chunk layout is part of the contract

    def test_derive_seed_stable(self):
        assert derive_seed(10, 3, 1) == derive_seed(10, 3, 1)
        assert derive_seed(10, 3, 1) != derive_seed(10, 3, 2)


class TestSeScaling:
    def test_quadrupling_samples_halves_se(self):
        cone = cone_of(t1_model(1))
        ratios = []
        for rep in range(10):
            small = mc_bias_gaussian(cone, TransformedPoint(0, 1), McSettings(rep, 20_000))
            large = mc_bias_gaussian(cone, TransformedPoint(0, 1), McSettings(1000 + rep, 80_000))
            ratios.append(large.std_error / small.std_error)
        assert all(0.4 <= r <= 0.6 for r in ratios)


class TestChunkVariance:
    """Per-chunk centred sums combined by Chan's formula, against a two-pass
    variance of the same draws."""

    @staticmethod
    def two_pass_se(values):
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return math.sqrt(var / len(values))

    def test_t3_plugin_se_far_from_origin(self):
        # at mu0y = 8 the plug-in values vary by about 1e-4 around 2: the
        # uncentred sum of squares lost about 8 digits there
        n, seed, samples = 1000, 5, 100_000
        settings = McSettings(seed, samples)
        rule = EstimatorRule("plugin")
        curve = curve_grid(t3_model(), n, [0.0, 4.0, 8.0], [rule], settings)["plugin"][2]
        chunks = rule_draw_values(t3_model(), rule, n, 8.0, settings)
        assert len(chunks) == 2
        assert curve.estimate == column_mean(chunks)
        want = self.two_pass_se(np.concatenate(chunks).tolist())
        assert abs(curve.std_error - want) <= 1e-12 * want

    @pytest.mark.parametrize("value", [0.1, 2.0, 2.8269933431326884, -7.3e5])
    def test_constant_column_has_zero_se(self, value):
        def kernel(rng, size):
            return [np.full(size, value)]

        for samples, chunk in [(100_000, 1 << 16), (10_007, 999), (1, 1 << 16)]:
            [(mean, se, lowest)] = _run_chunks(McSettings(1, samples, chunk), kernel)
            assert se == 0.0 and lowest == value
            assert mean == pytest.approx(value, rel=1e-15)

    def test_large_mean_small_spread(self):
        def kernel(rng, size):
            return [1e8 + 1e-3 * standard_normals(rng, size)]

        settings = McSettings(4, 30_000, 4096)
        [(_, se, _)] = _run_chunks(settings, kernel)
        sizes = [4096] * 7 + [30_000 - 7 * 4096]
        values = np.concatenate([kernel(_chunk_rng(4, k), s)[0] for k, s in enumerate(sizes)])
        want = self.two_pass_se(values.tolist())
        assert abs(se - want) <= 1e-9 * want

    def test_independent_of_worker_count(self):
        def kernel(rng, size):
            e = standard_normals(rng, size)
            return [2.0 + 1e-4 * e, np.full(size, 0.3), e * e]

        runs = [_run_chunks(McSettings(9, 10_500, 1000, workers), kernel) for workers in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1][1] == 0.0


class TestTargetTrinomial:
    def test_polytomy_identically_zero(self):
        est = mc_target_trinomial(polytomy_model(), CENTROID, 137, McSettings(4, 5000))
        assert est.value == 0.0 and est.std_error == 0.0

    def test_t1_boundary_near_one(self):
        est = mc_target_trinomial(t1_model(1), CENTROID, 1000, McSettings(11, N_MED))
        assert within_3se(est.value, est.std_error, bias_t1(0).value, floor=0.02)

    def test_unconstrained_near_four(self):
        est = mc_target_trinomial(unconstrained_model(), CENTROID, 1000, McSettings(12, N_MED))
        assert within_3se(est.value, est.std_error, 4.0, floor=0.05)

    def test_t3_centroid_target_matches_quadrature(self):
        from aicg.quadrature import bias_t3_value
        est = mc_target_trinomial(t3_model(), CENTROID, 1000, McSettings(13, N_MED))
        assert abs(est.value - bias_t3_value(0.0, math.pi / 6)) <= 0.03

    def test_theta_outside_model_rejected(self):
        with pytest.raises(DomainError):
            mc_target_trinomial(t1_model(1), SimplexPoint(0.2, 0.5, 0.3), 100, McSettings(1, 10))
        with pytest.raises(DomainError):
            mc_target_trinomial(polytomy_model(), theta_on_line(0.5, 1), 100, McSettings(1, 10))


class TestT1TargetKernel:
    """t1 draws only the count its MLE reads, as the histogram the trinomial
    models draw for c_1."""

    # n, then a phi0 at which P(c_1 = n), the clamped case, is 0.12-0.37
    CASES = [(1, 0.9), (2, 0.8), (10, 0.2), (1000, 0.0015)]

    @pytest.mark.parametrize("n, phi0", CASES)
    @pytest.mark.parametrize("chunk_size", [4096, 512])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_t1_1_matches_trinomial_kernel_bit_for_bit(self, n, phi0, chunk_size, workers,
                                                       monkeypatch):
        # t1:1's c_1 histogram is the first stage of the trinomial models'
        # draw, and neither the chunk size nor the worker count moves a bit
        samples = 5 * chunk_size + 123
        for theta0 in (theta_on_line(phi0, 1), CENTROID):
            assert theta0.p1 ** n > 0.1 or theta0 == CENTROID
            est, t1_calls = record_target(monkeypatch, t1_model(1), theta0, n,
                                          McSettings(17, samples, chunk_size, workers))
            _, t3_calls = record_target(monkeypatch, t3_model(), theta0, n,
                                        McSettings(17, samples))
            whole = mc_target_trinomial(t1_model(1), theta0, n, McSettings(17, samples, samples))
            assert t1_calls == [call for call in t3_calls if call[1] == 0]
            assert (est.value, est.std_error) == (whole.value, whole.std_error)

    def test_t1_draws_no_trinomials(self, monkeypatch):
        # one multinomial over the window n p +- (12 sd + 40) of c_k's law
        n, p = 300, theta_on_line(0.7, 1).p1
        reach = 12.0 * math.sqrt(n * p * (1.0 - p)) + 40.0
        width = min(math.ceil(n * p + reach), n) - max(math.floor(n * p - reach), 0) + 1
        for k in (1, 2, 3):
            _, calls = record_target(monkeypatch, t1_model(k), theta_on_line(0.7, k), n,
                                     McSettings(5, 10_000, chunk_size=4096))
            assert [(method, index, len(out)) for method, index, out in calls] == \
                [("multinomial", 0, width)]

    @pytest.mark.parametrize("n", [30, 1000])
    @pytest.mark.parametrize("topology", [1, 2, 3])
    def test_matches_exact_binomial_sum(self, n, topology):
        for i, phi0 in enumerate((1.0, 0.9, 0.5)):
            theta0 = theta_on_line(phi0, topology)
            exact = t1_target_exact(topology, theta0.as_tuple(), n)
            est = mc_target_trinomial(t1_model(topology), theta0, n,
                                      McSettings(100 * topology + i, 200_000))
            assert abs(est.value - exact) <= 4.0 * est.std_error, (phi0, exact, est.value)

    def test_exact_sum_matches_boundary_constant(self):
        # at the centroid the large-n target tends to bias_t1(0) = 1
        assert t1_target_exact(1, CENTROID.as_tuple(), 4000) == pytest.approx(1.0, abs=0.03)


class TestTargetHistogram:
    """The histogram sampler has the law of independent trinomial draws, at a
    cost set by the count window."""

    SEEDS = range(20)

    @staticmethod
    def z_scores(model, theta0, n, exact, samples=100_000):
        z = []
        for seed in TestTargetHistogram.SEEDS:
            est = mc_target_trinomial(model, theta0, n, McSettings(900 + seed, samples))
            z.append((est.value - exact) / est.std_error)
        return np.array(z)

    @staticmethod
    def assert_standard(z, case):
        assert abs(z.mean()) <= 1.0 and 0.6 <= z.std(ddof=1) <= 1.5, (case, z.mean(), z.std())

    @pytest.mark.parametrize("n, phi0", TestT1TargetKernel.CASES)
    @pytest.mark.parametrize("topology", [1, 2, 3])
    def test_t1_law(self, n, phi0, topology):
        theta0 = theta_on_line(phi0, topology)
        exact = t1_target_exact(topology, theta0.as_tuple(), n)
        self.assert_standard(self.z_scores(t1_model(topology), theta0, n, exact), exact)

    @pytest.mark.parametrize("n", [10, 30, 1000])
    @pytest.mark.parametrize("model", [t3_model(), unconstrained_model()],
                             ids=["t3", "unconstrained"])
    def test_trinomial_law(self, model, n):
        for theta0 in (CENTROID, theta_on_line(0.6, 2)):
            exact = trinomial_target_exact(model.model_id, theta0.as_tuple(), n)
            self.assert_standard(self.z_scores(model, theta0, n, exact), (theta0, exact))

    def test_oracle_matches_the_t1_binomial_sum(self):
        for n, phi0 in TestT1TargetKernel.CASES:
            theta0 = theta_on_line(phi0, 2)
            assert trinomial_target_exact("t1:2", theta0.as_tuple(), n) == \
                pytest.approx(t1_target_exact(2, theta0.as_tuple(), n), abs=1e-10)

    def test_draws_bounded_by_the_window(self, monkeypatch):
        def draws(model, samples):
            _, calls = record_target(monkeypatch, model, theta_on_line(0.8, model.topology or 1),
                                     1000, McSettings(3, samples))
            return sum(len(out) for _, _, out in calls)
        for k in (1, 2, 3):
            assert draws(t1_model(k), 10**4) == draws(t1_model(k), 10**6) < 1001
        # t3 draws each c_2 row's histogram once the row has more draws
        # than its window, so far fewer cells than draws
        assert draws(t3_model(), 10**6) < 10**5

    @pytest.mark.parametrize("model", [t1_model(2), t3_model()], ids=["t1:2", "t3"])
    def test_few_draws_per_window(self, model, monkeypatch):
        # at n = 1e6 the c_1 window holds more counts than 1000 draws, so
        # every count is drawn one by one, in blocks of at most chunk_size
        theta0 = theta_on_line(0.003, model.topology or 1)
        est, calls = record_target(monkeypatch, model, theta0, 10**6, McSettings(8, 1000, 300))
        assert {method for method, _, _ in calls} == {"binomial"}
        assert max(len(out) for _, _, out in calls) == 300
        exact = trinomial_target_exact(model.model_id, theta0.as_tuple(), 10**6)
        assert abs(est.value - exact) <= 4.0 * est.std_error, (exact, est.value)


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


def record_target(monkeypatch, model, theta0, n, settings):
    """mc_target_trinomial's estimate, and every draw of its streams as
    (method, stream index, values)."""
    import aicg.montecarlo as mc
    calls = []
    monkeypatch.setattr(mc, "_chunk_rng",
                        lambda seed, index: _Recorder(_chunk_rng(seed, index), index, calls))
    est = mc_target_trinomial(model, theta0, n, settings)
    monkeypatch.undo()
    return est, calls


def one_point(model, rule, mu, settings, n=1000):
    """The rule's column of a one-point curve at mu."""
    return curve_grid(model, n, [mu], [rule], settings)[rule.method][0]


class TestExpectedEstimator:
    def test_t1_plugin_matches_quadrature_oracle(self):
        from aicg.special import erf
        est = one_point(t1_model(1), EstimatorRule("plugin"), 0.0, McSettings(21, 500_000))
        oracle = gauss_hermite_expectation(
            lambda y: 1.0 + erf(np.maximum(y, 0.0) / math.sqrt(2.0)), 0.0)
        assert within_3se(est.estimate, est.std_error, oracle)

    def test_t1_uo_closed_form(self):
        est = one_point(t1_model(1), EstimatorRule("uo", radius=0.0), 1.0,
                        McSettings(22, 500_000))
        expected = 2.0 - norm_cdf(-1.0)
        assert expected == pytest.approx(1.8413447, abs=1e-7)
        assert within_3se(est.estimate, est.std_error, expected)

    def test_polytomy_rule_constant(self):
        for method in ("plugin", "aic", "llf", "ulf", "uo", "minimax", "consistent",
                       "bootstrap"):
            est = one_point(polytomy_model(), EstimatorRule(method, radius=1.0), 0.0,
                            McSettings(1, 2000))
            assert est.estimate == 0.0 and est.std_error == 0.0


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
            curve_grid(t1_model(1), 100, [0.0, 1.0], rules, McSettings(3, 100))

    def test_t1_endpoints_and_columns(self):
        curves = curve_grid(t1_model(1), 1000, [0.0, 5.0],
                            rules=[EstimatorRule("uo", radius=0.0)],
                            settings=McSettings(31, 30_000))
        assert set(curves) == {"target", "aicg", "aic", "uo"}
        assert curves["aicg"][0].estimate == 1.0
        assert curves["aicg"][1].estimate == pytest.approx(1.9999994267, abs=1e-7)
        assert all(pt.estimate == 2.0 for pt in curves["aic"])
        assert within_3se(curves["target"][0].estimate, curves["target"][0].std_error,
                          1.0, floor=0.05)

    def test_deterministic_independent_of_columns(self):
        base = curve_grid(t1_model(1), 500, [0.0, 1.0], settings=McSettings(77, 20_000))
        extra = curve_grid(t1_model(1), 500, [0.0, 1.0],
                           rules=[EstimatorRule("aic")], settings=McSettings(77, 20_000))
        for i in range(2):
            assert base["target"][i].estimate == extra["target"][i].estimate

        # each rule column at a given mu0y is the same whichever other
        # columns are requested, in whatever order, on any grid holding mu0y
        settings = McSettings(77, 20_000, chunk_size=1 << 13)
        plugin, uo = EstimatorRule("plugin"), EstimatorRule("uo", radius=0.5)
        for model in (t1_model(1), t3_model()):
            runs = [curve_grid(model, 500, [0.0, 1.0], [plugin], settings),
                    curve_grid(model, 500, [0.0, 1.0], [uo], settings),
                    curve_grid(model, 500, [0.0, 1.0], [plugin, uo], settings),
                    curve_grid(model, 500, [0.0, 1.0], [uo, plugin], settings),
                    curve_grid(model, 500, [1.0, 0.5, 0.0],
                               [uo, EstimatorRule("aic"), plugin], settings)]
            for method in ("plugin", "uo"):
                for mu in (0.0, 1.0):
                    cells = {(pt.estimate, pt.std_error) for run in runs if method in run
                             for pt in run[method] if pt.mu0y == mu}
                    assert len(cells) == 1, (model.model_id, method, mu, cells)

    def test_rule_column_is_the_one_point_estimate(self):
        model, n, settings = t3_model(), 500, McSettings(5, 30_000, chunk_size=1 << 13)
        rules = [EstimatorRule("plugin"), EstimatorRule("uo", radius=1.0)]
        curves = curve_grid(model, n, [0.0, 0.5, 1.5], rules, settings)
        for i, mu in enumerate([0.0, 0.5, 1.5]):
            for rule in rules:
                est = one_point(model, rule, mu, settings, n)
                pt = curves[rule.method][i]
                assert (pt.estimate, pt.std_error) == (est.estimate, est.std_error)

    @pytest.mark.parametrize("method", ["plugin", "aic", "llf", "ulf", "uo", "minimax",
                                        "consistent", "bootstrap"])
    def test_each_column_is_the_mean_of_rule_values(self, method):
        # the rule scoring count rows is the rule each column averages; a
        # rule whose value is a constant gives that constant without drawing
        n, settings = 30, McSettings(8, 3000, chunk_size=1024)
        rule = EstimatorRule(method, eta_exponent=0.1)
        for model, grid in [(t1_model(1), [0.0, 2.0]), (t3_model(), [0.0, 2.0]),
                            (polytomy_model(), [0.0]), (unconstrained_model(), [0.0, 2.0])]:
            column = curve_grid(model, n, grid, [rule], settings)[method]
            constant = rule_constant(model, rule, n)
            for mu, pt in zip(grid, column):
                mean = column_mean(rule_draw_values(model, rule, n, mu, settings))
                if constant is None:
                    assert pt.estimate == mean, (model.model_id, mu)
                else:
                    assert (pt.estimate, pt.std_error) == (constant, 0.0)
                    assert mean == pytest.approx(constant, rel=1e-15), (model.model_id, mu)

    def test_sub_blocks_keep_the_column_bits(self, monkeypatch):
        # a 20,000-draw chunk is two 8,192-draw sub-blocks and a 3,616-draw one
        import aicg.montecarlo as mc
        assert 20_000 % mc._DRAW_BLOCK
        rules = [EstimatorRule("plugin"), EstimatorRule("uo", radius=0.5),
                 EstimatorRule("consistent", eta_exponent=0.1)]
        settings = McSettings(6, 45_000, chunk_size=20_000)
        cone = cone_of(t3_model(), GeometryParams.from_phi0(0.9, 300))

        def columns():
            curves = [curve_grid(model, 300, [0.0, 1.0, 3.0], rules, settings)
                      for model in (t1_model(1), t3_model())]
            mc_est = mc_bias_gaussian(cone, TransformedPoint(0.0, 1.0), settings)
            return [[(p.estimate, p.std_error) for p in c[rule.method]]
                    for c in curves for rule in rules] + [(mc_est.value, mc_est.std_error)]
        blocked = columns()
        monkeypatch.setattr(mc, "_DRAW_BLOCK", settings.chunk_size)
        assert columns() == blocked

    @pytest.mark.parametrize("model", [t1_model(1), t3_model(), polytomy_model(),
                                       unconstrained_model()], ids=lambda m: m.model_id)
    def test_constant_columns_draw_nothing(self, model, monkeypatch):
        import aicg.montecarlo as mc
        methods = ["aic", "llf", "ulf"]
        if model.variant in ("polytomy", "unconstrained"):
            methods += ["plugin", "uo", "minimax", "consistent", "bootstrap"]
        rules = [EstimatorRule(method, eta_exponent=0.1) for method in methods]

        def refuse(*args):
            raise AssertionError("a constant column drew")
        monkeypatch.setattr(mc, "mc_expected_estimators", refuse)
        grid = [0.0] if model.variant == "polytomy" else [0.0, 1.5]  # its only point
        curves = curve_grid(model, 100, grid, rules, McSettings(2, 1000))
        for rule in rules:
            value = rule_constant(model, rule, 100)
            assert value is not None
            assert [(p.estimate, p.std_error) for p in curves[rule.method]] == \
                [(value, 0.0)] * len(grid)

    def test_t1_bootstrap_column_is_the_consistent_column(self):
        # a shrunk t1 draw's bootstrap centre is the origin, where the bias
        # is the singularity value 1
        settings = McSettings(4, 20_000, chunk_size=1 << 13)
        rules = [EstimatorRule("bootstrap", eta_exponent=0.2),
                 EstimatorRule("consistent", eta_exponent=0.2)]
        curves = curve_grid(t1_model(1), 100, [0.0, 1.0, 2.5, 4.0], rules, settings)
        assert [(p.estimate, p.std_error) for p in curves["bootstrap"]] == \
            [(p.estimate, p.std_error) for p in curves["consistent"]]

    def test_t3_consistent_column_shrinks_to_the_singularity_value(self):
        # like a shrunk count row, a shrunk draw takes singularity_bias(t3);
        # with every draw shrunk the column is that constant
        from aicg.closedform import singularity_bias
        est = one_point(t3_model(), EstimatorRule("consistent", eta_exponent=0.01), 0.0,
                        McSettings(1, 100))
        assert est.std_error == 0.0
        assert est.estimate == pytest.approx(singularity_bias(t3_model()), rel=1e-15)

    def test_rule_columns_share_one_block_of_normals(self, monkeypatch):
        import aicg.montecarlo as mc
        shapes = []

        def counting(rng, shape):
            shapes.append(shape)
            return standard_normals(rng, shape)
        monkeypatch.setattr(mc, "standard_normals", counting)
        rules = [EstimatorRule("plugin"), EstimatorRule("uo", radius=0.5),
                 EstimatorRule("aic")]
        curve_grid(t1_model(1), 500, [0.0, 0.5, 1.0, 1.5], rules,
                   McSettings(3, 20_000, chunk_size=1 << 13))
        assert shapes == [(1 << 13, 2), (1 << 13, 2), (20_000 - 2 * (1 << 13), 2)]

    def test_rule_columns_independent_of_workers(self):
        rules = [EstimatorRule("plugin"), EstimatorRule("uo", radius=0.5)]
        grid = [0.0, 0.5, 1.0]
        one = curve_grid(t3_model(), 500, grid, rules, McSettings(9, 40_000, 1 << 13, 1))
        three = curve_grid(t3_model(), 500, grid, rules, McSettings(9, 40_000, 1 << 13, 3))
        for method in ("target", "plugin", "uo"):
            assert [(p.estimate, p.std_error) for p in one[method]] == \
                [(p.estimate, p.std_error) for p in three[method]]
