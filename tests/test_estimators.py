import math

import numpy as np
import pytest

from aicg.estimators import (
    EstimatorRule,
    bias_on_cone,
    calibrate_radii,
    expected_neighborhood_value,
    least_favorable,
    noncentral_radius_cdf,
    rule_values,
    singularity_bias,
)
from aicg.geometry import DomainError, alpha_from_phi0, mu0y, phi_from_mu0y
from aicg.models import polytomy_model, t1_model, t3_model, unconstrained_model, validate_halflines
from aicg.montecarlo import _chunk_rng, grid_values
from aicg.quadrature import bias_ray_cone, bias_t3_batch
from aicg.selection import score_batch
from aicg.special import erf, norm_cdf

from oracles import (TransformedPoint, consistent_estimate, line_observation,
                     noncentral_radius_cdf_series, radii_bruteforce, ray_cone_bias_dblquad,
                     standard_normals)

T3_SINGULAR = 2.0 + 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
GRID = np.arange(0.0, 5.0001, 0.05)


def one_row(model, counts, rule):
    """score_batch's scores of one model on one row of counts, which must
    score without error."""
    scores, = score_batch([model], [counts], rule)
    assert scores.error is None
    return scores


class TestNoncentralRadiusCdf:
    def test_central_case_closed_form(self):
        for r in [0.5, 1.0, 2.5]:
            assert noncentral_radius_cdf(r, 0.0) == pytest.approx(
                1.0 - math.exp(-0.5 * r * r), abs=1e-10)

    def test_matches_poisson_mixture_series(self):
        for r in [0.3, 1.0, 1.77, 2.21, 4.0]:
            for s in [0.0, 0.7, 1.5, 3.0, 5.0]:
                assert noncentral_radius_cdf(r, s) == pytest.approx(
                    noncentral_radius_cdf_series(r, s), abs=1e-9)

    def test_matches_scipy_ncx2(self):
        # ||z||^2 is noncentral chi-square with 2 degrees of freedom; at
        # center_norm 40 the mixture weight e^{-lambda/2} underflows
        from scipy.stats import ncx2
        for r, s in [(0.3, 0.7), (1.77, 1.5), (2.21, 5.0), (6.0, 3.0), (1.0, 12.0),
                     (40.0, 40.0), (35.0, 40.0), (45.0, 40.0), (2.0, 41.9), (2.0, 42.1),
                     (500.0, 470.0), (500.0, 539.0)]:
            assert noncentral_radius_cdf(r, s) == pytest.approx(
                ncx2.cdf(r * r, 2, s * s), abs=1e-12)

    def test_vectorized_over_centers(self):
        centers = np.array([0.0, 0.5, 2.0, 4.5, 40.0, 1e6])
        probs = noncentral_radius_cdf(1.9, centers)
        assert probs.shape == centers.shape
        for s, p in zip(centers, probs):
            assert p == pytest.approx(noncentral_radius_cdf(1.9, float(s)), abs=1e-15)
        assert np.all(noncentral_radius_cdf(0.0, centers) == 0.0)

    @pytest.mark.parametrize("r", [0.5, 1.77, 2.21, 6.0])
    def test_log_factorial_table_keeps_bits(self, r, monkeypatch):
        # each call builds log k! over its own index window; it must hold the
        # bits of one table of math.lgamma(k + 1) from k = 0, for the grid in
        # one call (one index window) and point by point
        import aicg.estimators as est
        windows = []
        pmf = est._poisson_pmf

        def spy(rates, k, log_fact):
            windows.append((k, log_fact))
            return pmf(rates, k, log_fact)
        monkeypatch.setattr(est, "_poisson_pmf", spy)
        grid = np.arange(0.0, 5.0001, 0.05)
        noncentral_radius_cdf(r, grid)
        for s in grid:
            noncentral_radius_cdf(r, s)
        assert len(windows) == 2 * (1 + len(grid))  # two pmfs per call, every pair near
        table = np.array([math.lgamma(i + 1.0)
                          for i in range(max(int(k[-1]) for k, _ in windows) + 1)])
        for k, log_fact in windows:
            assert log_fact.tobytes() == table[k[0]:k[-1] + 1].tobytes()

    def test_radius_by_center_array(self):
        # one call on an (R, M) array: an r = 0 row, near pairs, and far
        # pairs (|center_norm - r| > 40) that must be exactly 0 or 1
        from scipy.stats import ncx2
        radii = np.array([0.0, 0.3, 1.77, 2.21, 6.0, 40.0, 500.0])
        centers = np.array([0.0, 0.7, 1.5, 5.0, 12.0, 40.0, 41.9, 42.1, 470.0, 539.0])
        probs = noncentral_radius_cdf(radii, centers)
        assert probs.shape == (len(radii), len(centers))
        want = ncx2.cdf(radii[:, None] ** 2, 2, centers ** 2)
        assert np.max(np.abs(probs - want)) <= 1e-12
        far = np.abs(centers - radii[:, None]) > 40.0
        assert np.all(probs[0] == 0.0)
        assert np.all(probs[far] == np.where(centers < radii[:, None], 1.0, 0.0)[far])
        assert far.sum() >= 20 and np.any(probs[far] == 1.0)
        for i, r in enumerate(radii):
            for j, s in enumerate(centers):
                assert abs(probs[i, j] - noncentral_radius_cdf(float(r), float(s))) <= 1e-15
        assert noncentral_radius_cdf(radii, 1.5).shape == radii.shape

    def test_center_blocks_keep_each_pmf_row(self, monkeypatch):
        # the centers' pmfs are formed a block at a time over the one index
        # window of the call, so each row is the row of one unblocked pmf;
        # only the matrix product's rounding may differ with the block
        import aicg.estimators as est
        radii, centers = np.arange(0.0, 6.0001, 0.5), np.linspace(0.0, 30.0, 301)
        whole = noncentral_radius_cdf(radii, centers)
        rows = []
        pmf = est._poisson_pmf

        def spy(rates, k, log_fact):
            out = pmf(rates, k, log_fact)
            rows.append((rates, k, log_fact, out))
            return out
        monkeypatch.setattr(est, "_poisson_pmf", spy)
        monkeypatch.setattr(est, "_PMF_BLOCK", 7 * 700)
        blocked = noncentral_radius_cdf(radii, centers)
        _, k, log_fact, _ = rows[0]
        assert len(rows) > 10 and all(len(r[0]) <= 7 for r in rows[1:])
        rates = np.concatenate([r[0] for r in rows[1:]])
        assert np.concatenate([r[3] for r in rows[1:]]).tobytes() == \
            pmf(rates, k, log_fact).tobytes()
        assert np.max(np.abs(blocked - whole)) <= 1e-15

    def test_peak_memory_grows_slower_than_the_grid(self):
        # the (centers x index window) pmfs once peaked at 36.7 MB on 1,001
        # points and 329 MB on 10,001; blocked, 12.1 and 39.6 MB
        import tracemalloc

        def peak_mb(points):
            tracemalloc.start()
            try:
                calibrate_radii(t3_model(), np.linspace(0.0, 50.0, points), 1e6)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        small, large = peak_mb(1_001), peak_mb(10_001)
        assert large <= 60.0 and large <= 4.0 * small, (small, large)

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            noncentral_radius_cdf(np.array([1.0, -0.1]), 1.0)

    def test_matches_monte_carlo(self):
        rng = _chunk_rng(8, 0)
        z = standard_normals(rng, (400_000, 2)) + np.array([0.0, 1.5])
        emp = float(np.mean(np.linalg.norm(z, axis=1) <= 2.0))
        assert noncentral_radius_cdf(2.0, 1.5) == pytest.approx(emp, abs=0.003)


class TestPluginBias:
    PLUGIN = EstimatorRule("plugin")

    def test_t1_clamped_counts(self):
        assert one_row(t1_model(1), (30, 35, 35), self.PLUGIN).bias[0] == 1.0

    def test_t1_formula_at_observed_distance(self):
        counts = (60, 20, 20)
        mu = line_observation(t1_model(1), counts)[0]
        value = one_row(t1_model(1), counts, self.PLUGIN).bias[0]
        assert value == pytest.approx(1.0 + erf(mu / math.sqrt(2)), abs=1e-14)

    def test_t1_two_units_out(self):
        # find counts whose plug-in distance is ~2 and check the value there
        counts = (80, 60, 60)
        mu = line_observation(t1_model(1), counts)[0]
        value = one_row(t1_model(1), counts, self.PLUGIN).bias[0]
        assert value == pytest.approx(1.0 + erf(mu / math.sqrt(2)), abs=1e-14)
        assert 1.0 < value < 2.0

    def test_polytomy_constant(self):
        assert one_row(polytomy_model(), (9, 9, 2), self.PLUGIN).bias[0] == 0.0

    def test_t3_uses_quadrature(self):
        value = one_row(t3_model(), (40, 30, 30), self.PLUGIN).bias[0]
        assert 2.0 <= value <= T3_SINGULAR + 1e-9


class TestLeastFavorable:
    def test_t1_pair(self):
        assert least_favorable(t1_model(1), "lower") == pytest.approx(1.0, abs=1e-6)
        assert least_favorable(t1_model(1), "upper") == pytest.approx(2.0, abs=1e-6)

    def test_t3_pair(self):
        assert least_favorable(t3_model(), "lower") == pytest.approx(2.0, abs=1e-6)
        assert least_favorable(t3_model(), "upper") == pytest.approx(
            T3_SINGULAR, abs=1e-6)
        assert least_favorable(t3_model(), "upper") == pytest.approx(2.8269933, abs=1e-6)

    def test_constant_models(self):
        assert least_favorable(polytomy_model(), "lower") == 0.0
        assert least_favorable(polytomy_model(), "upper") == 0.0
        assert least_favorable(unconstrained_model(), "upper") == 4.0

    def test_halflines(self):
        single = validate_halflines([2 * math.pi])
        assert least_favorable(single, "lower") == pytest.approx(1.0)
        assert least_favorable(single, "upper") == pytest.approx(2.0)

    def test_halflines_upper_above_origin_and_limit(self):
        # on the 2pi ray of halflines:3.5,2pi the bias rises to 2.029013 near
        # distance 1.04, above both its origin value 1.9976 and the limit 2
        model = validate_halflines([3.5, 2 * math.pi])
        assert least_favorable(model, "upper") >= 2.029013
        assert least_favorable(model, "lower") == pytest.approx(
            singularity_bias(model), abs=1e-12)

    def test_halflines_scan_covers_every_ray(self):
        # the extremes of a 0.05-spaced scan of [0, 10] on each ray
        model = validate_halflines([2.8, 4.5, 2 * math.pi])
        mus = np.arange(0.0, 10.0 + 1e-9, 0.05)
        scan = [bias_ray_cone(mus[:, None] * [[math.cos(a), math.sin(a)]], model.angles)
                for a in model.angles]
        upper, lower = (least_favorable(model, which) for which in ("upper", "lower"))
        highest, lowest = max(np.max(v) for v in scan), min(np.min(v) for v in scan)
        assert highest - 1e-9 <= upper <= highest + 1e-3
        assert lowest - 1e-6 <= lower <= lowest + 1e-9

    def test_t3_extremes_of_a_fine_scan(self):
        # the least-favorable values against a 0.01-spaced scan over [0, 50]
        # with the cone geometry at the reference sample size
        mus = np.arange(0.0, 50.0 + 1e-9, 0.01)
        alphas = alpha_from_phi0(phi_from_mu0y(mus, 1e6))
        values = np.concatenate([bias_t3_batch(mus[k:k + 500], alphas[k:k + 500])
                                 for k in range(0, len(mus), 500)])
        assert least_favorable(t3_model(), "lower") == pytest.approx(
            values.min(), abs=1e-6)
        assert least_favorable(t3_model(), "upper") == pytest.approx(
            values.max(), abs=1e-6)


class TestBiasOnCone:
    def test_t1_closed_form(self):
        mus = np.array([0.0, 0.5, 2.0, 7.0])
        assert bias_on_cone(t1_model(1), mus) == pytest.approx(
            [1.0 + erf(m / math.sqrt(2.0)) for m in mus], abs=1e-15)
        assert bias_on_cone(t1_model(1), 0.0) == 1.0

    def test_t3_pairs_match_one_point_values(self):
        mus = np.array([2.0, 0.0, 2.0, 1.0, 2.0])
        alphas = np.array([0.5, 0.5, 0.5, 0.4, 0.4])
        values = bias_on_cone(t3_model(), mus, alphas)
        assert values.shape == (5,)
        assert values[0] == values[2]
        for m, a, v in zip(mus, alphas, values):
            assert v == pytest.approx(bias_t3_batch(m, a)[0], abs=1e-13)

    @pytest.mark.parametrize("mu", [-1.0, math.nan])
    @pytest.mark.parametrize("model", [
        t1_model(1), t3_model(), polytomy_model(), unconstrained_model(),
        validate_halflines([2.8, 4.5, 2 * math.pi])],
        ids=["t1", "t3", "polytomy", "unconstrained", "halflines"])
    def test_rejects_negative_and_nan_distances(self, model, mu):
        # a distance is nonnegative for every model; +inf, a vertex row's, stays legal
        with pytest.raises(DomainError, match="nonnegative"):
            bias_on_cone(model, mu)
        with pytest.raises(DomainError):
            bias_on_cone(model, [0.5, mu])
        assert math.isfinite(bias_on_cone(model, math.inf))

    def test_scalar_in_scalar_out(self):
        value = bias_on_cone(t3_model(), 0.0)
        assert isinstance(value, float)
        assert value == pytest.approx(T3_SINGULAR, abs=1e-13)

    def test_constant_models(self):
        assert np.all(bias_on_cone(polytomy_model(), np.array([0.0, 3.0])) == 0.0)
        assert np.all(bias_on_cone(unconstrained_model(), np.array([0.0, 3.0])) == 4.0)

    def test_halflines_only_at_origin(self):
        # the singularity's closed form at the origin, bias_ray_cone on the
        # 2pi ray elsewhere
        three = validate_halflines([2 * math.pi / 3, 4 * math.pi / 3, 2 * math.pi])
        assert bias_on_cone(three, 0.0) == singularity_bias(three)
        values = bias_on_cone(three, np.array([[0.0, 1.0], [2.5, 0.0]]))
        assert values.shape == (2, 2)
        assert values[0, 0] == values[1, 1] == singularity_bias(three)
        for mu in (1.0, 2.5):
            want = ray_cone_bias_dblquad((mu, 0.0), three.angles)
            assert abs(bias_on_cone(three, mu) - want) <= 1e-10
        assert values[0, 1] == bias_on_cone(three, 1.0)


def neighborhood(model, r, mu_hat=(), zbar_norm=()):
    """rule_values of the uo rule with radius r at each observed distance
    mu_hat and raw-observation norm zbar_norm."""
    mu_hat, zbar_norm = np.broadcast_arrays(np.asarray(mu_hat, dtype=float),
                                            np.asarray(zbar_norm, dtype=float))
    geometry = (mu_hat, np.full(mu_hat.shape, math.pi / 6.0), zbar_norm, np.arange(mu_hat.size))
    return rule_values(model, EstimatorRule("uo", radius=r), 1000, geometry)


class TestNeighborhoodRule:
    def test_t1_published_uo_rule(self):
        # t1 thresholds the estimate's distance
        assert neighborhood(t1_model(1), 0.0, [0.0, 0.01], [5.0, 5.0]).tolist() == [1.0, 2.0]

    def test_t3_published_radius(self):
        # t3 thresholds the raw observation's norm
        value, = neighborhood(t3_model(), 1.77, [3.0], [1.5])
        assert value == pytest.approx(T3_SINGULAR, abs=1e-9)
        assert value == pytest.approx(2.8269933, abs=1e-7)

    def test_zero_radius_reduces_to_classical(self):
        norms = [math.hypot(0.3, 0.1), 2.0]
        assert neighborhood(t3_model(), 0.0, [0.0, 0.0], norms).tolist() == [2.0, 2.0]

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            neighborhood(t1_model(1), -1.0, [0.0], [0.0])

    def test_norms_computed_only_where_read(self):
        # only the t3 neighborhood rules read the raw observation's norm
        mu_hat, alpha0 = np.array([0.5, 4.0]), np.full(2, math.pi / 6.0)
        index = np.arange(2)
        for model in (t1_model(1), t3_model(), polytomy_model(), unconstrained_model()):
            for method in ("plugin", "aic", "llf", "ulf", "uo", "minimax", "consistent",
                           "bootstrap"):
                rule = EstimatorRule(method)
                norms = np.array([1.0, 2.0])
                unread = rule_values(model, rule, 30, (mu_hat, alpha0, np.full(2, np.nan), index))
                values = rule_values(model, rule, 30, (mu_hat, alpha0, norms, index))
                reads = model.variant == "t3" and method in ("uo", "minimax")
                assert np.array_equal(unread, values) != reads, (model.model_id, method)

    def test_values_per_distance_expand_to_rows(self):
        # rows that share a distance share its value, through the index
        mu_hat, alpha0 = np.array([0.0, 0.7, 3.0]), np.full(3, 0.4)
        index = np.array([2, 0, 2, 1])
        for method in ("plugin", "uo", "minimax", "consistent", "bootstrap"):
            rule = EstimatorRule(method)
            for model in (t1_model(1), t3_model()):
                per_row = rule_values(model, rule, 30, (mu_hat[index], alpha0[index],
                                                        np.full(4, 2.5), np.arange(4)))
                shared = rule_values(model, rule, 30, (mu_hat, alpha0, np.full(4, 2.5), index))
                assert per_row.tobytes() == shared.tobytes(), (model.model_id, method)


class TestRadii:
    def test_t1_minimax_reference_value(self):
        radii = calibrate_radii(t1_model(1), GRID, 1e6)
        assert abs(radii["minimax_radius"] - 0.95) <= 0.05
        assert radii["minimax_diagnostics"]["sup_risk"] > 0

    def test_t1_uo_degenerate_feasibility(self):
        # closed-form dominance guarantees r = 0 feasible: 2 Phi(mu) <= 1 + Phi(mu) <= 2
        mus = np.arange(0.0, 5.0001, 0.01)
        e0 = expected_neighborhood_value(t1_model(1), 0.0, mus)
        truth = 1.0 + erf(mus / math.sqrt(2.0))
        assert np.all(e0 >= truth - 1e-12)
        assert np.all(e0 <= 2.0)
        assert calibrate_radii(t1_model(1), GRID, 1e6)["uo_radius"] < 0.2

    @pytest.mark.parametrize("n", [10, 1e3, 1e6])
    def test_truth_lies_on_one_side_of_the_classical_value(self, n):
        # calibrate_radii takes the side of its uo constraint from the model
        # alone: exactly, in doubles, the t1 truth never exceeds the classical
        # 2 and the t3 truth never falls below it.  So radius 0, whose rule
        # value is the classical correction's side of the truth, is always
        # feasible: its largest violation is at most 0.0 with no slack
        grid = grid_values(0.0, 50.0, 0.25)
        for model, side in ((t1_model(1), 1.0), (t3_model(), -1.0)):
            truth = bias_on_cone(model, grid, alpha_from_phi0(phi_from_mu0y(grid, n)))
            assert np.all(side * (truth - 2.0) <= 0.0)
            violation = side * (truth - expected_neighborhood_value(model, 0.0, grid))
            assert np.max(violation) <= 0.0, model.model_id

    def test_degenerate_grid_pins_singularity(self):
        # at the origin alone every radius is uo-feasible: the uo search
        # reaches the top of its scan and says so
        radii = calibrate_radii(t1_model(1), [0.0], 1e6)
        assert radii["minimax_radius"] >= 5.9
        assert radii["uo_radius"] == 6.0 and radii["uo_diagnostics"]["capped"] is True

    def test_minimax_stability_under_grid_halving(self):
        r1 = calibrate_radii(t1_model(1), np.arange(0, 5.0001, 0.05), 1e6)["minimax_radius"]
        r2 = calibrate_radii(t1_model(1), np.arange(0, 5.0001, 0.025), 1e6)["minimax_radius"]
        assert abs(r1 - r2) <= 0.02

    def test_constant_models_rejected(self):
        for model in (polytomy_model(), unconstrained_model()):
            with pytest.raises(DomainError):
                calibrate_radii(model, GRID, 1e6)

    @pytest.mark.parametrize("model", [polytomy_model(), unconstrained_model(),
                                       validate_halflines([2.8, 4.5, 2.0 * math.pi])])
    def test_message_names_the_models_radii_apply_to(self, model):
        with pytest.raises(DomainError, match="t1 and t3 only"):
            calibrate_radii(model, GRID, 1e6)

    @pytest.mark.parametrize("variant,n,step", [
        ("t1", 30, 0.05), ("t1", 1000, 0.05), ("t1", 1e6, 0.05),
        ("t1", 30, 1.0), ("t1", 1000, 1.0), ("t1", 1e6, 1.0),
        ("t3", 30, 1.0), ("t3", 1000, 1.0), ("t3", 1e6, 1.0)])
    def test_grid_optimum_of_bruteforce(self, variant, n, step):
        # the scans land on the 1e-3 grid point that a brute-force search of
        # every radius in [0, 6] picks (scipy rule values, dblquad t3 truth)
        model = t1_model(1) if variant == "t1" else t3_model()
        grid = np.arange(0.0, 5.0001, step)
        want_uo, want_mm = radii_bruteforce(variant, grid, n)
        radii = calibrate_radii(model, grid, n)
        assert radii["uo_radius"] == pytest.approx(want_uo, abs=1e-9)
        assert radii["minimax_radius"] == pytest.approx(want_mm, abs=1e-9)

    @pytest.mark.parametrize("n, want_uo", [(30, 2.039), (1000, 1.854), (1e6, 1.78)])
    def test_t3_far_grid_stays_feasible(self, n, want_uo):
        # far out the t3 truth is 2 or just above, never below, so the far
        # distances stay within the closed form's 1.02e-14 and leave the
        # radii of the near grid
        far = calibrate_radii(t3_model(), np.arange(0.0, 50.0001, 1.0), n)
        diag = far["uo_diagnostics"]
        assert diag["violation_tol"] == 1.02e-14
        assert 0.0 <= diag["max_violation"] <= 1.02e-14
        assert far["uo_radius"] == pytest.approx(want_uo, abs=1e-9)
        near = calibrate_radii(t3_model(), np.arange(0.0, 5.0001, 1.0), n)
        assert far["uo_radius"] == near["uo_radius"]
        assert far["minimax_radius"] == near["minimax_radius"]

    @pytest.mark.parametrize("n", [30, 1000, 1e6])
    @pytest.mark.parametrize("step", [0.05, 1.0])
    def test_default_tolerances(self, n, step):
        # t1 and t3 both take the closed form's tolerance on the README grids
        grid = np.arange(0.0, 5.0001, step)
        for model in (t1_model(1), t3_model()):
            diag = calibrate_radii(model, grid, n)["uo_diagnostics"]
            assert diag["violation_tol"] == 1.02e-14, model.model_id

    def test_one_cdf_call_per_scan(self, monkeypatch):
        import aicg.estimators as est
        calls = []
        cdf = est.noncentral_radius_cdf
        monkeypatch.setattr(est, "noncentral_radius_cdf",
                            lambda r, s: calls.append(np.shape(r)) or cdf(r, s))
        calibrate_radii(t3_model(), GRID, 1e6)
        # the minimax scans, the uo scans, then the uo diagnostics
        assert calls == [(121,), (101,), (121,), (101,), ()]

    def test_diagnostics(self):
        radii = calibrate_radii(t3_model(), GRID, 1e6)
        assert set(radii) == {"uo_radius", "uo_diagnostics", "minimax_radius",
                              "minimax_diagnostics"}
        diag = radii["uo_diagnostics"]
        assert set(diag) == {"capped", "max_violation", "binding_mu", "violation_tol"}
        assert diag["capped"] is False and diag["max_violation"] <= diag["violation_tol"]
        assert diag["binding_mu"] in GRID
        r, diag = radii["minimax_radius"], radii["minimax_diagnostics"]
        assert set(diag) == {"sup_risk"}
        truth = np.array([bias_on_cone(t3_model(), m, a) for m, a in
                          zip(GRID, alpha_from_phi0(phi_from_mu0y(GRID, 1e6)))])
        e = expected_neighborhood_value(t3_model(), r, GRID)
        assert diag["sup_risk"] == pytest.approx(np.max((e - truth) ** 2), rel=1e-12)

    def test_scan_min_takes_the_deeper_basin(self):
        import aicg.estimators as est

        def f(x):
            return np.minimum((x - 1.0) ** 2, (x - 4.7) ** 2 - 0.01)
        value, x = est._scan_min(f, 0.0, 6.0, (0.05, 1e-3))
        assert x == pytest.approx(4.7, abs=1e-9) and value == pytest.approx(-0.01, abs=1e-12)

    def test_scan_min_largest_point_of_a_split_feasible_set(self):
        # uo's form: -r on the feasible radii, +inf elsewhere; the feasible
        # set [0, 1] u [3, 3.5] is not an interval
        import aicg.estimators as est

        def neg_feasible(r):
            return np.where((r <= 1.0) | ((r >= 3.0) & (r <= 3.5)), -r, np.inf)
        assert est._scan_min(neg_feasible, 0.0, 6.0, (0.05, 1e-3))[1] == pytest.approx(3.5, abs=1e-9)

    def test_expected_value_is_outer_over_radii_and_distances(self):
        radii = np.array([0.0, 1.0, 2.5])
        for model in (t1_model(1), t3_model()):
            e = expected_neighborhood_value(model, radii, GRID)
            assert e.shape == (3, len(GRID))
            for i, r in enumerate(radii):
                one = expected_neighborhood_value(model, float(r), GRID)
                assert np.max(np.abs(e[i] - one)) <= 1e-15


class TestDominanceChain:
    def test_t1_closed_forms(self):
        mus = np.arange(0.0, 5.0001, 0.01)
        lower = 2.0 * norm_cdf(mus)
        mid = 2.0 - norm_cdf(-mus)
        assert np.all(lower <= mid) and np.all(mid <= 2.0)
        assert np.all(lower < mid)  # strict at every finite grid point
        assert np.all(mid < 2.0)


class TestConsistentEstimate:
    def test_origin_always_shrinks(self):
        mu_t, est = consistent_estimate(t1_model(1), TransformedPoint(0, 0), 1000)
        assert (mu_t.x, mu_t.y) == (0.0, 0.0)
        assert est == 1.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(DomainError):
            consistent_estimate(t1_model(1), TransformedPoint(0, 1), 100, eta_exponent=0.5)
        with pytest.raises(DomainError):
            consistent_estimate(t1_model(1), TransformedPoint(0, 1), 100, eta_exponent=0.0)

    def test_boundary_generating_shrinks_with_high_probability(self):
        n = 10**6
        radius = n ** (1.0 / 6.0)
        rng = _chunk_rng(55, 0)
        z = standard_normals(rng, (10_000, 2))
        freq = float(np.mean(np.linalg.norm(z, axis=1) <= radius))
        assert freq >= 0.999
        # the threshold inside consistent_estimate is the same comparison
        mu_t, _ = consistent_estimate(t1_model(1), TransformedPoint(*z[0]), n)
        assert (mu_t.x, mu_t.y) == (0.0, 0.0)

    def test_fixed_interior_parameter_escapes(self):
        n = 10**6
        mu = mu0y(0.9, n)
        rng = _chunk_rng(56, 0)
        z = standard_normals(rng, (10_000, 2)) + np.array([0.0, mu])
        radius = n ** (1.0 / 6.0)
        freq = float(np.mean(np.linalg.norm(z, axis=1) <= radius))
        assert freq <= 0.001


class TestBootstrap:
    """The bootstrap's value is the bias at its centre: 1 for a t1 row
    within the consistent radius, the closed form at mu_hat outside it."""

    def test_polytomy_exact_zero(self):
        scores = one_row(polytomy_model(), (5, 3, 2), EstimatorRule("bootstrap"))
        assert scores.bias[0] == 0.0

    def test_centered_data_recovers_boundary_value(self):
        scores = one_row(t1_model(1), (3334, 3333, 3333), EstimatorRule("bootstrap"))
        assert scores.bias[0] == 1.0

    def test_far_data_recovers_plugin_value(self):
        # these counts put the estimate ~4 units out; eta exponent 0.45 keeps
        # that outside the shrinkage ball, so the bootstrap centers there
        counts = (3524, 3238, 3238)
        mu = line_observation(t1_model(1), counts)[0]
        assert 3.9 < mu < 4.7
        assert mu > sum(counts) ** (0.5 - 0.45)
        scores = one_row(t1_model(1), counts, EstimatorRule("bootstrap", eta_exponent=0.45))
        assert scores.bias[0] == bias_on_cone(t1_model(1), float(scores.mu_hat[0]))
        assert scores.bias[0] == pytest.approx(1.99994, abs=5e-5)
        assert scores.mu_hat[0] == pytest.approx(mu, abs=1e-12)

    def test_default_rate_shrinks_moderate_data(self):
        # with the default n^(-1/3) rate the same observation sits inside the
        # ball (radius n^(1/6) = 4.64), so the bootstrap centers on the boundary
        counts = (3524, 3238, 3238)
        mu = line_observation(t1_model(1), counts)[0]
        assert mu < sum(counts) ** (0.5 - 1.0 / 3.0)
        assert one_row(t1_model(1), counts, EstimatorRule("bootstrap")).bias[0] == 1.0


class TestCrudeBounds:
    """The crude dimension bounds bracket the bias over the whole cone: twice
    the largest affine subspace locally inside the space (never below 0) and
    twice its affine hull."""

    @staticmethod
    def _range(model):
        return least_favorable(model, "lower"), least_favorable(model, "upper")

    def test_lower_bound_nonnegative_everywhere(self):
        for model in [t1_model(1), t3_model(), polytomy_model(), unconstrained_model(),
                      validate_halflines([2 * math.pi])]:
            lo, hi = self._range(model)
            assert lo >= 0.0
            assert hi >= lo

    def test_t1_line_hull(self):
        lo, hi = self._range(t1_model(1))
        assert 0.0 <= lo and hi <= 2.0

    def test_t3_plane_hull(self):
        lo, hi = self._range(t3_model())
        assert 0.0 <= lo and hi <= 4.0

    def test_unconstrained_already_affine(self):
        assert self._range(unconstrained_model()) == (4.0, 4.0)

    def test_halflines_containing_a_line(self):
        assert self._range(validate_halflines([math.pi, 2 * math.pi])) == (2.0, 2.0)


class TestRuleRangeEnvelope:
    def test_estimates_respect_least_favorable_envelope(self):
        counts_list = [(40, 30, 30), (70, 15, 15), (34, 33, 33)]
        for model in [t1_model(1), t3_model(), polytomy_model(), unconstrained_model()]:
            lo = least_favorable(model, "lower", reference_n=100.0)
            hi = least_favorable(model, "upper", reference_n=100.0)
            for method in ("plugin", "uo", "minimax", "consistent"):
                scores = score_batch([model], counts_list, EstimatorRule(method))[0]
                assert scores.error is None
                assert np.all((lo - 1e-9 <= scores.bias) & (scores.bias <= hi + 1e-9))


class TestRuleValidation:
    def test_unknown_method(self):
        with pytest.raises(DomainError):
            EstimatorRule("magic")

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            EstimatorRule("uo", radius=-0.5)

    def test_nan_radius(self):
        with pytest.raises(DomainError, match="radius must be nonnegative"):
            EstimatorRule("uo", radius=math.nan)
