import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aicg.estimators import EstimatorRule
from aicg.geometry import Counts, DomainError
from aicg.models import (mle_rows, polytomy_model, t1_model, t3_model, unconstrained_model,
                         validate_halflines)
from aicg.quadrature import QuadratureSettings
from aicg.selection import (
    _line_geometry,
    _rounded_counts,
    _winner_labels,
    akaike_weights,
    parse_model_id,
    region_grid,
    score,
    score_batch,
    simplex_lattice,
)

from oracles import (
    bootstrap_bias_per_row,
    largest_remainder_counts,
    largest_remainder_reference,
    line_observation,
    region_winners_loop,
    t1_polytomy_scores,
    t1_polytomy_winner,
    winning_component,
)

PLUGIN = EstimatorRule("plugin")


class TestScore:
    def test_near_centroid_prefers_polytomy(self):
        report = score([t1_model(1), polytomy_model()], Counts(67, 67, 66), PLUGIN)
        assert report.winner() == "polytomy"

    def test_strong_signal_prefers_line(self):
        report = score([t1_model(1), polytomy_model()], Counts(120, 40, 40), PLUGIN)
        assert report.winner() == "t1:1"

    def test_single_model_ranked_first(self):
        report = score([t1_model(1)], Counts(10, 5, 5), PLUGIN)
        assert report.rows[0].rank_aicg == 1

    def test_empty_model_list_rejected(self):
        with pytest.raises(DomainError):
            score([], Counts(1, 1, 1), PLUGIN)

    def test_score_identity(self):
        report = score([t1_model(1), t3_model(), polytomy_model(), unconstrained_model()],
                       Counts(55, 30, 15), PLUGIN)
        for row in report.rows:
            assert row.aicg == pytest.approx(row.neg2loglik + row.bias_value, abs=1e-12)
            dim = parse_model_id(row.model_id).dim
            assert row.aicg - row.aic == pytest.approx(row.bias_value - 2 * dim, abs=1e-12)

    def test_unconstrained_plugin_matches_classical(self):
        report = score([unconstrained_model()], Counts(40, 35, 25), PLUGIN)
        assert report.rows[0].aicg == report.rows[0].aic

    def test_error_row_leaves_others_intact(self):
        hl = validate_halflines([2 * math.pi])
        report = score([t1_model(1), hl], Counts(30, 20, 10), PLUGIN)
        by_id = {r.model_id: r for r in report.rows}
        assert by_id["t1:1"].rank_aicg == 1
        assert by_id[hl.model_id].error is not None

    def test_ranks_are_permutation(self):
        report = score([t1_model(1), t1_model(2), t3_model(), polytomy_model()],
                       Counts(52, 31, 17), PLUGIN)
        ranks = sorted(r.rank_aicg for r in report.rows)
        assert ranks == [1, 2, 3, 4]

    def test_metadata(self):
        report = score([t1_model(1)], Counts(5, 4, 3), PLUGIN, seed=9)
        assert report.metadata["n"] == 12
        assert report.metadata["seed"] == 9
        assert "dropped" in report.metadata["note"]


class TestAkaikeWeights:
    def test_normalized(self):
        report = score([t1_model(1), polytomy_model()], Counts(67, 67, 66), PLUGIN)
        w = akaike_weights(report)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
        assert w["polytomy"] > w["t1:1"]


class TestLattice:
    def test_resolution_two_has_three_edge_points(self):
        pts = simplex_lattice(2)
        assert sorted(pts) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_vertices_excluded(self):
        pts = simplex_lattice(5)
        assert (5, 0, 0) not in pts and (0, 5, 0) not in pts
        assert len(pts) == (6 * 7) // 2 - 3

    @given(st.integers(min_value=1, max_value=60))
    def test_counts_sum_preserved(self, res):
        for (i, j, k) in simplex_lattice(res)[::7]:
            c = largest_remainder_counts((i / res, j / res, k / res), 97)
            assert sum(c) == 97
            assert all(x >= 0 for x in c)

    def test_exact_when_n_is_multiple(self):
        c = largest_remainder_counts((0.25, 0.5, 0.25), 200)
        assert c == (50, 100, 50)

    @pytest.mark.parametrize("n, res", [(10, 50), (97, 60), (200, 100), (7, 51)])
    def test_matches_pointwise_rounding(self, n, res):
        # at n = 10, R = 50, 120 points have fractional parts that are equal
        # in exact arithmetic but split by rounding, e.g. (2, 6, 42): 0.4
        # against 10 * (42/50) - 8 = 0.40000000000000036
        for (i, j, k) in simplex_lattice(res):
            p = (i / res, j / res, k / res)
            assert largest_remainder_counts(p, n) == largest_remainder_reference(p, n)


class TestRegionGrid:
    def test_small_grid_all_labeled(self):
        grid = region_grid([t1_model(1), polytomy_model()], 100, 2, PLUGIN)
        assert len(grid.points) == 3
        assert all(w in ("t1:1", "polytomy", "tie") for w in grid.winners)

    def test_probe_points_at_moderate_resolution(self):
        grid = region_grid([t1_model(1), polytomy_model()], 60, 60, PLUGIN)
        lookup = dict(zip(grid.points, grid.winners))
        assert lookup[(20, 20, 20)] == "polytomy"
        assert lookup[(36, 12, 12)] == "t1:1"

    def test_swap_symmetry_small(self):
        grid = region_grid([t1_model(1), polytomy_model()], 60, 60, PLUGIN)
        lookup = dict(zip(grid.points, grid.winners))
        assert all(lookup[(i, j, k)] == lookup[(i, k, j)] for (i, j, k) in grid.points)

    def test_component_connectivity_helper(self):
        grid = region_grid([t1_model(1), polytomy_model()], 60, 60, PLUGIN)
        comp = winning_component(grid, "polytomy", (20, 20, 20))
        assert (20, 20, 20) in comp
        total = sum(1 for w in grid.winners if w == "polytomy")
        assert len(comp) == total

    def test_needs_two_models(self):
        with pytest.raises(DomainError):
            region_grid([t1_model(1)], 100, 60, PLUGIN)

    @pytest.mark.parametrize("n, res", [(200, 100), (10, 50)])
    def test_t1_polytomy_matches_pointwise_oracle(self, n, res):
        # n = 10 rounds the points near the first vertex to (10, 0, 0), where
        # t1:1 has no plug-in value and polytomy wins alone
        grid = region_grid([t1_model(1), polytomy_model()], n, res, PLUGIN)
        counts = [largest_remainder_counts((i / res, j / res, k / res), n)
                  for (i, j, k) in grid.points]
        if n == 10:
            assert (10, 0, 0) in counts
        assert list(grid.winners) == [t1_polytomy_winner(c) for c in counts]
        line, polytomy = score_batch([t1_model(1), polytomy_model()], counts, PLUGIN)
        for i, c in enumerate(counts):
            want_line, want_polytomy = t1_polytomy_scores(c)
            assert polytomy.aicg[i] == pytest.approx(want_polytomy, rel=1e-14)
            if want_line is None:
                assert line.errors[i] == "p1=1.0 outside [1/3, 1)"
            else:
                assert line.aicg[i] == pytest.approx(want_line, rel=1e-14)

    def test_t3_labels_at_vertex_rounded_counts(self):
        # at n = 10 every lattice point rounds to one of 66 count triples;
        # t3 wins exactly on the permutations of these, and the vertex
        # triples (10, 0, 0) leave t3 without a plug-in value
        t3_wins = {(9, 1, 0), (8, 1, 1), (7, 2, 1), (6, 3, 1), (6, 2, 2), (5, 3, 2),
                   (4, 4, 2), (4, 3, 3)}
        grid = region_grid([t3_model(), unconstrained_model()], 10, 50, PLUGIN)
        for (i, j, k), winner in zip(grid.points, grid.winners):
            c = largest_remainder_counts((i / 50, j / 50, k / 50), 10)
            assert winner == ("t3" if tuple(sorted(c, reverse=True)) in t3_wins
                              else "unconstrained")
        assert grid.winners.count("t3") == 831

    def test_error_cell_when_every_model_fails(self):
        hl = validate_halflines([2 * math.pi])
        grid = region_grid([hl, hl], 10, 2, PLUGIN)
        assert set(grid.winners) == {"error"}

    def test_equal_scores_are_a_tie(self):
        grid = region_grid([t1_model(1), t1_model(1)], 10, 2, PLUGIN)
        assert set(grid.winners) == {"tie"}


class TestWinnerLabels:
    """The array-built labels against the per-point loop they replace."""

    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0, np.nan]), min_size=m, max_size=m),
        min_size=1, max_size=30)), st.sampled_from([0.0, 1e-8, 1.5]))
    def test_matches_loop_oracle(self, columns, tol):
        aicg = np.array(columns).T
        ids = tuple(f"m{i}" for i in range(len(aicg)))
        assert _winner_labels(aicg, ids, tol) == region_winners_loop(aicg, ids, tol)

    @pytest.mark.parametrize("models, n, res", [
        ([t3_model(), unconstrained_model()], 200, 100),
        ([t3_model(), unconstrained_model()], 10, 50),
        ([t1_model(1), polytomy_model(), t1_model(1)], 10, 50),
        ([validate_halflines([2 * math.pi]), t1_model(2)], 10, 50),
        ([validate_halflines([2 * math.pi])] * 2, 10, 50),
    ])
    def test_region_grid_matches_loop_oracle(self, models, n, res):
        grid = region_grid(models, n, res, PLUGIN)
        counts = _rounded_counts(np.array(grid.points) / res, n)
        aicg = np.array([s.aicg for s in score_batch(models, counts, PLUGIN)])
        assert grid.winners == region_winners_loop(aicg, grid.model_ids,
                                                   QuadratureSettings().abs_tol)

    @pytest.mark.parametrize("shift", [1e-13, -1e-13])
    def test_ties_survive_last_bit_moves_of_t3_values(self, monkeypatch, shift):
        # t3 and t1:1 fit the same line in many cells, where their scores
        # differ by the t3 bias minus the t1 bias only: within abs_tol both
        # are ties, so moving every t3 value by 1e-13 leaves the grid as it is
        import aicg.estimators as estimators
        models = [t3_model(), t1_model(1), polytomy_model()]
        counts = _rounded_counts(np.array(simplex_lattice(100)) / 100, 200)
        before = region_grid(models, 200, 100, PLUGIN)
        aicg = np.array([s.aicg for s in score_batch(models, counts, PLUGIN)])
        exact = estimators.bias_t3_batch
        monkeypatch.setattr(estimators, "bias_t3_batch",
                            lambda *args: exact(*args) + shift)
        after = region_grid(models, 200, 100, PLUGIN)
        moved = np.array([s.aicg for s in score_batch(models, counts, PLUGIN)])
        assert after.winners == before.winners
        assert before.winners.count("tie") > 583
        # with exact equality as the tie rule, the same move changes cells
        assert _winner_labels(moved, before.model_ids, 0.0) != \
            _winner_labels(aicg, before.model_ids, 0.0)

    def test_labels_cover_winner_tie_and_error(self):
        labels = set()
        for models in ([t1_model(1), polytomy_model(), t1_model(1)],
                       [validate_halflines([2 * math.pi])] * 2):
            labels |= set(region_grid(models, 10, 50, PLUGIN).winners)
        assert labels == {"polytomy", "tie", "error"}


class TestScoreBatch:
    ALL = [t1_model(1), t1_model(2), t3_model(), polytomy_model(), unconstrained_model()]
    ROWS = [(120, 40, 40), (67, 67, 66), (50, 100, 50), (30, 160, 10), (70, 70, 60)]

    @pytest.mark.parametrize("method", ["plugin", "aic", "llf", "ulf", "uo", "minimax",
                                        "consistent"])
    def test_rows_match_one_row_scores(self, method):
        rule = EstimatorRule(method)
        batch = score_batch(self.ALL, self.ROWS, rule)
        for i, row in enumerate(self.ROWS):
            single = {r.model_id: r for r in score(self.ALL, Counts(*row), rule).rows}
            for s in batch:
                one = single[s.model.model_id]
                assert one.bias_method == s.bias_method
                assert one.bias_value == pytest.approx(s.bias[i], abs=1e-12)
                assert one.aicg == pytest.approx(s.aicg[i], abs=1e-12)
                assert one.aic == pytest.approx(s.aic[i], abs=1e-12)

    def test_bootstrap_row_carries_standard_error(self):
        rule = EstimatorRule("bootstrap", bootstrap_b=500)
        batch = score_batch([t1_model(1)], [(60, 20, 20), (40, 30, 30)], rule, seed=3)
        assert batch[0].bias_method == "bootstrap"
        assert np.all(batch[0].std_error > 0)

    @pytest.mark.parametrize("eta", [1.0 / 3.0, 0.45])
    def test_bootstrap_rows_match_per_row_chain(self, eta):
        # n = 200 on the resolution-10 lattice: distances from 0 past 10
        # against a shrinkage radius of 200^(1/2 - eta), 2.42 or 1.30; the
        # added rows lie 1.22, 1.36, 2.34 and 2.48 out
        n, b, seed = 200, 700, 5
        counts = np.vstack([_rounded_counts(np.array(simplex_lattice(10)) / 10, n),
                            [(75, 63, 62), (62, 62, 76), (83, 59, 58), (58, 84, 58)]])
        models = [t1_model(1), t3_model(), polytomy_model(), unconstrained_model()]
        rule = EstimatorRule("bootstrap", eta_exponent=eta, bootstrap_b=b)
        radius = n ** (0.5 - eta)
        for s in score_batch(models, counts, rule, seed):
            if s.model.variant in ("t1", "t3"):
                assert np.any((s.mu_hat > 0) & (s.mu_hat <= radius))  # shrunk
                assert np.any(s.mu_hat > radius)  # centred at the estimate
            for i, row in enumerate(counts):
                ref = bootstrap_bias_per_row(s.model, Counts(*map(int, row)), b, seed, eta)
                assert (s.bias[i], s.std_error[i]) == (ref.value, ref.std_error)

    def test_error_rows_are_per_model_and_row(self):
        t3, t1 = score_batch([t3_model(), t1_model(1)], [(0, 0, 5), (3, 1, 1)], PLUGIN)
        assert t3.errors == ("p1=1.0 outside [1/3, 1)", None)
        assert np.isnan(t3.aicg[0]) and np.isfinite(t3.aicg[1])
        assert t1.errors == (None, None)

    def test_vertex_counts_keep_rules_without_distance(self):
        # the classical rule needs no observed distance, so vertex counts
        # still score
        t3, = score_batch([t3_model()], [(0, 0, 5)], EstimatorRule("aic"))
        assert t3.errors == (None,) and t3.bias[0] == 2.0
        assert np.isnan(t3.mu_hat[0])

    def test_observed_distance(self):
        t1, poly = score_batch([t1_model(1), polytomy_model()], [(60, 20, 20)], PLUGIN)
        assert t1.mu_hat[0] == pytest.approx(5.4433105395181718, abs=1e-14)
        assert poly.mu_hat[0] == 0.0

    @pytest.mark.parametrize("rows", [[(1, 2, 3), (1, 2, 4)], [(1, 2)], [(-1, 2, 3)],
                                      [(0, 0, 0)], [(1.5, 1, 1)]])
    def test_rejects_bad_rows(self, rows):
        with pytest.raises(DomainError):
            score_batch([t1_model(1)], rows, PLUGIN)


class TestParseModelId:
    def test_round_trip(self):
        for m in [t1_model(2), t3_model(), polytomy_model(), unconstrained_model()]:
            assert parse_model_id(m.model_id).model_id == m.model_id

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            parse_model_id("t9")


@st.composite
def line_count_rows(draw):
    """One total n and up to eight count rows summing to it, zeros frequent."""
    n = draw(st.integers(1, 400))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        c1 = draw(st.integers(0, n))
        c2 = draw(st.integers(0, n - c1))
        rows.append(draw(st.permutations((c1, c2, n - c1 - c2))))
    return n, rows


@given(line_count_rows(), st.sampled_from([t1_model(1), t1_model(2), t1_model(3), t3_model()]))
def test_line_geometry_matches_transform_map(n_rows, model):
    n, rows = n_rows
    counts = np.array(rows, dtype=float)
    theta, line = mle_rows(model, counts)
    mu_hat, alpha0, zbar_norm, errors = _line_geometry(counts, theta, line, n)
    for i, row in enumerate(rows):
        if errors[i] is not None:  # the estimate at a vertex, where the map has no scale
            assert theta[i, line[i]] == 1.0 and np.isnan(mu_hat[i])
            continue
        geo, estimate, zbar = line_observation(model, Counts(*row))
        # the map's Cholesky scaling rounds differently: a zero distance
        # comes out as a few 1e-15
        assert mu_hat[i] == pytest.approx(estimate.norm(), rel=1e-12, abs=1e-13)
        assert zbar_norm[i] == pytest.approx(zbar.norm(), rel=1e-12, abs=1e-13)
        assert (mu_hat[i], alpha0[i]) == (geo.mu0y, geo.alpha0)
