import math

import numpy as np
import pytest

from aicg.closedform import bias_t1, singularity_bias
from aicg.estimators import (
    EstimatorRule,
    InfeasibleError,
    bias_on_cone,
    bootstrap_bias,
    crude_bounds,
    expected_neighborhood_value,
    least_favorable,
    minimax_radius,
    neighborhood_rule,
    noncentral_radius_cdf,
    plugin_bias,
    uo_radius,
)
from aicg.geometry import (Counts, DomainError, GeometryParams, TransformedPoint,
                           angles_from_phi0, mu0y, phi_from_mu0y)
from aicg.models import polytomy_model, t1_model, t3_model, unconstrained_model, validate_halflines
from aicg.montecarlo import McSettings, _chunk_rng, curve_grid, standard_normals
from aicg.quadrature import QuadratureSettings, bias_ray_cone, bias_t3, bias_t3_batch
from aicg.selection import score_batch
from aicg.special import erf, norm_cdf

from oracles import (consistent_estimate, line_observation, noncentral_radius_cdf_series,
                     radii_bruteforce, ray_cone_bias_dblquad)

T3_SINGULAR = 2.0 + 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
GRID = np.arange(0.0, 5.0001, 0.05)


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
        # the shared table against log k! built afresh by math.lgamma per call
        import aicg.estimators as est
        grid = np.arange(0.0, 5.0001, 0.05)
        est.noncentral_radius_cdf(40.0, 40.0)  # grow the table past this test's windows

        def both():  # the grid in one call (one index window), and point by point
            return noncentral_radius_cdf(r, grid), [noncentral_radius_cdf(r, s) for s in grid]
        got = both()
        monkeypatch.setattr(est, "_log_factorials", lambda count: np.array(
            [math.lgamma(i + 1.0) for i in range(count)]))
        want = both()
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()

    def test_log_factorial_table_is_read_only(self):
        import aicg.estimators as est
        table = est._log_factorials(30)
        assert table[20] == math.lgamma(21.0)
        with pytest.raises(ValueError):
            table[3] = 0.0

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

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            noncentral_radius_cdf(np.array([1.0, -0.1]), 1.0)

    def test_matches_monte_carlo(self):
        rng = _chunk_rng(8, 0)
        z = standard_normals(rng, (400_000, 2)) + np.array([0.0, 1.5])
        emp = float(np.mean(np.linalg.norm(z, axis=1) <= 2.0))
        assert noncentral_radius_cdf(2.0, 1.5) == pytest.approx(emp, abs=0.003)


class TestPluginBias:
    def test_t1_clamped_counts(self):
        est = plugin_bias(t1_model(1), Counts(30, 35, 35))
        assert est.value == 1.0

    def test_t1_formula_at_observed_distance(self):
        counts = Counts(60, 20, 20)
        geo, _, _ = line_observation(t1_model(1), counts)
        est = plugin_bias(t1_model(1), counts)
        assert est.value == pytest.approx(1.0 + erf(geo.mu0y / math.sqrt(2)), abs=1e-14)

    def test_t1_two_units_out(self):
        # find counts whose plug-in distance is ~2 and check the value there
        counts = Counts(80, 60, 60)
        geo, _, _ = line_observation(t1_model(1), counts)
        est = plugin_bias(t1_model(1), counts)
        assert est.value == pytest.approx(1.0 + erf(geo.mu0y / math.sqrt(2)), abs=1e-14)
        assert 1.0 < est.value < 2.0

    def test_polytomy_constant(self):
        assert plugin_bias(polytomy_model(), Counts(9, 9, 2)).value == 0.0

    def test_t3_uses_quadrature(self):
        est = plugin_bias(t3_model(), Counts(40, 30, 30))
        assert 2.0 <= est.value <= T3_SINGULAR + 1e-9


class TestLeastFavorable:
    def test_t1_pair(self):
        assert least_favorable(t1_model(1), "lower").value == pytest.approx(1.0, abs=1e-6)
        assert least_favorable(t1_model(1), "upper").value == pytest.approx(2.0, abs=1e-6)

    def test_t3_pair(self):
        assert least_favorable(t3_model(), "lower").value == pytest.approx(2.0, abs=1e-6)
        assert least_favorable(t3_model(), "upper").value == pytest.approx(
            T3_SINGULAR, abs=1e-6)
        assert least_favorable(t3_model(), "upper").value == pytest.approx(2.8269933, abs=1e-6)

    def test_constant_models(self):
        assert least_favorable(polytomy_model(), "lower").value == 0.0
        assert least_favorable(polytomy_model(), "upper").value == 0.0
        assert least_favorable(unconstrained_model(), "upper").value == 4.0

    def test_halflines(self):
        single = validate_halflines([2 * math.pi])
        assert least_favorable(single, "lower").value == pytest.approx(1.0)
        assert least_favorable(single, "upper").value == pytest.approx(2.0)

    def test_halflines_upper_above_origin_and_limit(self):
        # on the 2pi ray of halflines:3.5,2pi the bias rises to 2.029013 near
        # distance 1.04, above both its origin value 1.9976 and the limit 2
        model = validate_halflines([3.5, 2 * math.pi])
        assert least_favorable(model, "upper").value >= 2.029013
        assert least_favorable(model, "lower").value == pytest.approx(
            singularity_bias(model), abs=1e-12)

    def test_halflines_scan_covers_every_ray(self):
        # the extremes of a 0.05-spaced scan of [0, 10] on each ray
        model = validate_halflines([2.8, 4.5, 2 * math.pi])
        mus = np.arange(0.0, 10.0 + 1e-9, 0.05)
        scan = [bias_ray_cone(mus[:, None] * [[math.cos(a), math.sin(a)]], model.angles)
                for a in model.angles]
        upper, lower = (least_favorable(model, which).value for which in ("upper", "lower"))
        highest, lowest = max(np.max(v) for v in scan), min(np.min(v) for v in scan)
        assert highest - 1e-9 <= upper <= highest + 1e-3
        assert lowest - 1e-6 <= lower <= lowest + 1e-9

    def test_t3_extremes_of_a_fine_scan(self):
        # the least-favorable values against a 0.01-spaced scan over [0, 50]
        # with the cone geometry at the reference sample size
        mus = np.arange(0.0, 50.0 + 1e-9, 0.01)
        alphas = np.array([GeometryParams.from_mu0y(m, 1e6).alpha0 for m in mus])
        values = np.concatenate([bias_t3_batch(mus[k:k + 500], alphas[k:k + 500])
                                 for k in range(0, len(mus), 500)])
        assert least_favorable(t3_model(), "lower").value == pytest.approx(
            values.min(), abs=1e-6)
        assert least_favorable(t3_model(), "upper").value == pytest.approx(
            values.max(), abs=1e-6)


class TestBiasOnCone:
    def test_t1_closed_form(self):
        mus = np.array([0.0, 0.5, 2.0, 7.0])
        assert bias_on_cone(t1_model(1), mus) == pytest.approx(
            [bias_t1(m).value for m in mus], abs=1e-15)
        assert bias_on_cone(t1_model(1), 0.0) == 1.0

    def test_t3_pairs_match_one_point_values(self):
        mus = np.array([2.0, 0.0, 2.0, 1.0, 2.0])
        alphas = np.array([0.5, 0.5, 0.5, 0.4, 0.4])
        values = bias_on_cone(t3_model(), mus, alphas)
        assert values.shape == (5,)
        assert values[0] == values[2]
        for m, a, v in zip(mus, alphas, values):
            assert v == pytest.approx(bias_t3(m, a).value, abs=1e-13)

    def test_scalar_in_scalar_out(self):
        value = bias_on_cone(t3_model(), 0.0)
        assert isinstance(value, float)
        assert value == pytest.approx(T3_SINGULAR, abs=1e-13)

    def test_constant_models(self):
        assert np.all(bias_on_cone(polytomy_model(), np.array([0.0, 3.0])) == 0.0)
        assert np.all(bias_on_cone(unconstrained_model(), np.array([0.0, 3.0])) == 4.0)

    def test_halflines_only_at_origin(self):
        # the closed form at the origin, the quadrature on the 2pi ray elsewhere
        three = validate_halflines([2 * math.pi / 3, 4 * math.pi / 3, 2 * math.pi])
        assert bias_on_cone(three, 0.0) == singularity_bias(three)
        values = bias_on_cone(three, np.array([[0.0, 1.0], [2.5, 0.0]]))
        assert values.shape == (2, 2)
        assert values[0, 0] == values[1, 1] == singularity_bias(three)
        for mu in (1.0, 2.5):
            want = ray_cone_bias_dblquad((mu, 0.0), three.angles)
            assert abs(bias_on_cone(three, mu) - want) <= 1e-10
        assert values[0, 1] == bias_on_cone(three, 1.0)


class TestNeighborhoodRule:
    def test_t1_published_uo_rule(self):
        est = neighborhood_rule(t1_model(1), 0.0, TransformedPoint(0, 0))
        assert est.value == 1.0
        est = neighborhood_rule(t1_model(1), 0.0, TransformedPoint(0, 0.01))
        assert est.value == 2.0

    def test_t3_published_radius(self):
        est = neighborhood_rule(t3_model(), 1.77, TransformedPoint(0, 1.5))
        assert est.value == pytest.approx(T3_SINGULAR, abs=1e-9)
        assert est.value == pytest.approx(2.8269933, abs=1e-7)

    def test_zero_radius_reduces_to_classical(self):
        for pt in [TransformedPoint(0.3, 0.1), TransformedPoint(0, 2.0)]:
            est = neighborhood_rule(t3_model(), 0.0, pt)
            assert est.value == 2.0

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            neighborhood_rule(t1_model(1), -1.0, TransformedPoint(0, 0))


class TestRadii:
    def test_t1_minimax_reference_value(self):
        r, diag = minimax_radius(t1_model(1), GRID, 1e6)
        assert abs(r - 0.95) <= 0.05
        assert diag["sup_risk"] > 0

    def test_t1_uo_degenerate_feasibility(self):
        # closed-form dominance guarantees r = 0 feasible: 2 Phi(mu) <= 1 + Phi(mu) <= 2
        mus = np.arange(0.0, 5.0001, 0.01)
        e0 = expected_neighborhood_value(t1_model(1), 0.0, mus)
        truth = 1.0 + erf(mus / math.sqrt(2.0))
        assert np.all(e0 >= truth - 1e-12)
        assert np.all(e0 <= 2.0)
        r, _ = uo_radius(t1_model(1), GRID, 1e6)
        assert r < 0.2

    def test_vacuous_violation_tolerance(self):
        r, diag = uo_radius(t1_model(1), GRID, 1e6, violation_tol=math.inf)
        assert r == 6.0 and diag.get("capped")

    def test_degenerate_grid_pins_singularity(self):
        r, _ = minimax_radius(t1_model(1), [0.0], 1e6)
        assert r >= 5.9

    def test_minimax_stability_under_grid_halving(self):
        r1, _ = minimax_radius(t1_model(1), np.arange(0, 5.0001, 0.05), 1e6)
        r2, _ = minimax_radius(t1_model(1), np.arange(0, 5.0001, 0.025), 1e6)
        assert abs(r1 - r2) <= 0.02

    def test_constant_models_rejected(self):
        with pytest.raises(DomainError):
            minimax_radius(polytomy_model(), GRID, 1e6)
        with pytest.raises(DomainError):
            uo_radius(unconstrained_model(), GRID, 1e6)

    @pytest.mark.parametrize("model", [polytomy_model(), unconstrained_model(),
                                       validate_halflines([2.8, 4.5, 2.0 * math.pi])])
    def test_message_names_the_models_radii_apply_to(self, model):
        for calibrate in (minimax_radius, uo_radius):
            with pytest.raises(DomainError, match="t1 and t3 only"):
                calibrate(model, GRID, 1e6)

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
        assert uo_radius(model, grid, n)[0] == pytest.approx(want_uo, abs=1e-9)
        assert minimax_radius(model, grid, n)[0] == pytest.approx(want_mm, abs=1e-9)

    @pytest.mark.parametrize("n, want_uo", [(30, 2.039), (1000, 1.854), (1e6, 1.78)])
    def test_t3_far_grid_stays_feasible(self, n, want_uo):
        # far out the t3 truth scatters by about 3e-14 about 2, past the
        # closed form's 1.02e-14; the quadrature's abs_tol is the t3 default
        far = np.arange(0.0, 50.0001, 1.0)
        r_far, diag = uo_radius(t3_model(), far, n)
        assert diag["violation_tol"] == QuadratureSettings().abs_tol
        assert r_far == pytest.approx(want_uo, abs=1e-9)
        near = np.arange(0.0, 5.0001, 1.0)
        assert r_far == uo_radius(t3_model(), near, n)[0]
        assert minimax_radius(t3_model(), far, n)[0] == minimax_radius(t3_model(), near, n)[0]
        with pytest.raises(InfeasibleError):
            uo_radius(t3_model(), far, n, violation_tol=1.02e-14)

    @pytest.mark.parametrize("n", [30, 1000, 1e6])
    @pytest.mark.parametrize("step", [0.05, 1.0])
    def test_default_tolerances(self, n, step):
        # t1 keeps its closed form's tolerance; t3's default radii are those
        # of the closed form's tolerance on the README grids
        grid = np.arange(0.0, 5.0001, step)
        t1_r, t1_diag = uo_radius(t1_model(1), grid, n)
        assert t1_diag["violation_tol"] == 1.02e-14
        assert t1_r == uo_radius(t1_model(1), grid, n, violation_tol=1.02e-14)[0]
        assert uo_radius(t3_model(), grid, n)[0] == uo_radius(t3_model(), grid, n,
                                                               violation_tol=1.02e-14)[0]

    def test_one_cdf_call_per_scan(self, monkeypatch):
        import aicg.estimators as est
        calls = []
        cdf = est.noncentral_radius_cdf
        monkeypatch.setattr(est, "noncentral_radius_cdf",
                            lambda r, s: calls.append(np.shape(r)) or cdf(r, s))
        minimax_radius(t3_model(), GRID, 1e6)
        assert calls == [(121,), (101,)]
        calls.clear()
        uo_radius(t3_model(), GRID, 1e6)
        assert calls == [(121,), (101,), ()]  # the two scans, then the diagnostics

    def test_diagnostics(self):
        r, diag = uo_radius(t3_model(), GRID, 1e6)
        assert set(diag) == {"capped", "max_violation", "binding_mu", "violation_tol"}
        assert diag["capped"] is False and diag["max_violation"] <= diag["violation_tol"]
        assert diag["binding_mu"] in GRID
        r, diag = minimax_radius(t3_model(), GRID, 1e6)
        assert set(diag) == {"sup_risk"}
        truth = np.array([bias_on_cone(t3_model(), m, a) for m, a in
                          zip(GRID, angles_from_phi0(phi_from_mu0y(GRID, 1e6))[0])])
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
        assert est.value == 1.0

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
    def test_polytomy_exact_zero(self):
        est = bootstrap_bias(polytomy_model(), Counts(5, 3, 2), b_replicates=500, seed=3)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_centered_data_recovers_boundary_value(self):
        est = bootstrap_bias(t1_model(1), Counts(3334, 3333, 3333), b_replicates=100_000, seed=9)
        assert abs(est.value - 1.0) <= 3.0 * est.std_error

    def test_far_data_recovers_plugin_value(self):
        # these counts put the estimate ~4 units out; eta exponent 0.45 keeps
        # that outside the shrinkage ball, so the bootstrap centers there
        counts = Counts(3524, 3238, 3238)
        geo, _, _ = line_observation(t1_model(1), counts)
        assert 3.9 < geo.mu0y < 4.7
        assert geo.mu0y > counts.n ** (0.5 - 0.45)
        est = bootstrap_bias(t1_model(1), counts, b_replicates=100_000, seed=10,
                             eta_exponent=0.45)
        expected = bias_t1(geo.mu0y).value
        assert expected == pytest.approx(1.99994, abs=5e-5)
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_default_rate_shrinks_moderate_data(self):
        # with the default n^(-1/3) rate the same observation sits inside the
        # ball (radius n^(1/6) = 4.64), so the bootstrap centers on the boundary
        counts = Counts(3524, 3238, 3238)
        geo, _, _ = line_observation(t1_model(1), counts)
        assert geo.mu0y < counts.n ** (0.5 - 1.0 / 3.0)
        est = bootstrap_bias(t1_model(1), counts, b_replicates=50_000, seed=11)
        assert abs(est.value - 1.0) <= 3.0 * est.std_error

    def test_se_shrinks_with_replicates(self):
        ratios = []
        for rep in range(5):
            a = bootstrap_bias(t1_model(1), Counts(40, 30, 30), b_replicates=20_000, seed=rep)
            b = bootstrap_bias(t1_model(1), Counts(40, 30, 30), b_replicates=80_000, seed=100 + rep)
            ratios.append(b.std_error / a.std_error)
        assert all(0.4 <= r <= 0.6 for r in ratios)


class TestCrudeBounds:
    def test_lower_bound_nonnegative_everywhere(self):
        for model in [t1_model(1), t3_model(), polytomy_model(), unconstrained_model(),
                      validate_halflines([2 * math.pi])]:
            lo, hi = crude_bounds(model)
            assert lo.value >= 0.0
            assert hi.value >= lo.value

    def test_t1_line_hull(self):
        lo, hi = crude_bounds(t1_model(1))
        assert (lo.value, hi.value) == (0.0, 2.0)

    def test_t3_plane_hull(self):
        lo, hi = crude_bounds(t3_model())
        assert (lo.value, hi.value) == (0.0, 4.0)

    def test_unconstrained_already_affine(self):
        lo, hi = crude_bounds(unconstrained_model())
        assert (lo.value, hi.value) == (4.0, 4.0)

    def test_halflines_containing_a_line(self):
        m = validate_halflines([math.pi, 2 * math.pi])
        lo, hi = crude_bounds(m)
        assert (lo.value, hi.value) == (2.0, 2.0)


class TestT3BiasTable:
    """The t3 plug-in columns interpolate one bias table per grid point."""

    def test_cold_curve_builds_one_table_per_point(self):
        from aicg.estimators import _t3_bias_table
        grid = [0.0, 0.4, 0.9, 1.5, 2.2, 3.0, 4.75]
        rules = [EstimatorRule("plugin"), EstimatorRule("consistent", reference_n=500)]
        _t3_bias_table.cache_clear()
        curve_grid(t3_model(), 500, grid, rules, McSettings(3, 30_000, chunk_size=1 << 13))
        assert _t3_bias_table.cache_info().misses == len(grid)

    def test_table_reaches_past_every_draw(self):
        from aicg.estimators import _plugin_values, _t3_bias_table
        from aicg.quadrature import QuadratureSettings
        quad = QuadratureSettings()
        table_quad = QuadratureSettings(max(quad.abs_tol, 1e-7), quad.r_max_offset)
        for mu in (0.0, 0.3, 2.5, 7.0):
            geo = GeometryParams.from_mu0y(mu, 1000)
            _t3_bias_table.cache_clear()
            # chunks whose draws reach mu0y + 4 or mu0y + 6 share the point's
            # own table
            for reach in (4.0, 6.0):
                _plugin_values(t3_model(), np.array([0.0, geo.mu0y + reach]), geo, quad)
            xs, _ = _t3_bias_table(geo.alpha0, float(math.ceil(geo.mu0y) + 7), table_quad)
            assert _t3_bias_table.cache_info()[:2] == (2, 1)
            assert xs[-1] >= geo.mu0y + 6.0
            # a draw far past the point's table gets a longer table instead
            # of a clamp
            far = geo.mu0y + 12.0
            _plugin_values(t3_model(), np.array([0.0, far]), geo, quad)
            xs, _ = _t3_bias_table(geo.alpha0, float(math.ceil(far + 1.0)), table_quad)
            assert _t3_bias_table.cache_info()[:2] == (3, 2)
            assert xs[-1] >= far


class TestRuleRangeEnvelope:
    def test_estimates_respect_least_favorable_envelope(self):
        counts_list = [Counts(40, 30, 30), Counts(70, 15, 15), Counts(34, 33, 33)]
        for model in [t1_model(1), t3_model(), polytomy_model(), unconstrained_model()]:
            lo = least_favorable(model, "lower", reference_n=100.0).value
            hi = least_favorable(model, "upper", reference_n=100.0).value
            for method in ("plugin", "uo", "minimax", "consistent"):
                scores = score_batch([model], [c.as_array() for c in counts_list],
                                     EstimatorRule(method))[0]
                assert scores.errors == (None,) * len(counts_list)
                assert np.all((lo - 1e-9 <= scores.bias) & (scores.bias <= hi + 1e-9))


class TestRuleValidation:
    def test_unknown_method(self):
        with pytest.raises(DomainError):
            EstimatorRule("magic")

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            EstimatorRule("uo", radius=-0.5)
