import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aicg.estimators import EstimatorRule
from aicg.geometry import DomainError
from aicg.models import (mle_rows, parse_model_id, polytomy_model, t1_model, t3_model,
                         unconstrained_model, validate_halflines)
from aicg.quadrature import bias_t3_batch
from aicg.selection import (
    _TIE_TOL,
    _line_geometry,
    _rounded_counts,
    _winner_labels,
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
# two half-lines models, which no count row can score
HALFLINES_PAIR = [validate_halflines([2 * math.pi]), validate_halflines([math.pi, 2 * math.pi])]


class TestScore:
    def test_near_centroid_prefers_polytomy(self):
        report = score([t1_model(1), polytomy_model()], (67, 67, 66), PLUGIN)
        assert report.winner() == "polytomy"

    def test_strong_signal_prefers_line(self):
        report = score([t1_model(1), polytomy_model()], (120, 40, 40), PLUGIN)
        assert report.winner() == "t1:1"

    def test_single_model_ranked_first(self):
        report = score([t1_model(1)], (10, 5, 5), PLUGIN)
        assert report.rows[0].rank_aicg == 1

    def test_empty_model_list_rejected(self):
        with pytest.raises(DomainError):
            score([], (1, 1, 1), PLUGIN)

    @pytest.mark.parametrize("ids", [("t1:1", "t1:1", "polytomy"), ("t1", "t1:1")])
    def test_repeated_model_id_rejected(self, ids):
        # ranks are keyed by model id: the repeats would share one rank
        with pytest.raises(DomainError, match="model id 't1:1' is repeated"):
            score([parse_model_id(i) for i in ids], (60, 20, 20), PLUGIN)

    def test_score_identity(self):
        report = score([t1_model(1), t3_model(), polytomy_model(), unconstrained_model()],
                       (55, 30, 15), PLUGIN)
        for row in report.rows:
            assert row.aicg == pytest.approx(row.neg2loglik + row.bias_value, abs=1e-12)
            dim = parse_model_id(row.model_id).dim
            assert row.aicg - row.aic == pytest.approx(row.bias_value - 2 * dim, abs=1e-12)

    def test_unconstrained_plugin_matches_classical(self):
        report = score([unconstrained_model()], (40, 35, 25), PLUGIN)
        assert report.rows[0].aicg == report.rows[0].aic

    def test_error_row_leaves_others_intact(self):
        hl = validate_halflines([2 * math.pi])
        report = score([t1_model(1), hl], (30, 20, 10), PLUGIN)
        by_id = {r.model_id: r for r in report.rows}
        assert by_id["t1:1"].rank_aicg == 1
        assert by_id[hl.model_id].error is not None

    def test_ranks_are_permutation(self):
        report = score([t1_model(1), t1_model(2), t3_model(), polytomy_model()],
                       (52, 31, 17), PLUGIN)
        ranks = sorted(r.rank_aicg for r in report.rows)
        assert ranks == [1, 2, 3, 4]

    def test_metadata(self):
        report = score([t1_model(1)], (5, 4, 3), PLUGIN)
        assert report.metadata["n"] == 12
        assert "dropped" in report.metadata["note"]


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
        winners = region_grid([t1_model(1), polytomy_model()], 100, 2, PLUGIN)
        assert len(winners) == 3
        assert all(w in ("t1:1", "polytomy", "tie") for w in winners)

    def test_probe_points_at_moderate_resolution(self):
        winners = region_grid([t1_model(1), polytomy_model()], 60, 60, PLUGIN)
        lookup = dict(zip(simplex_lattice(60), winners))
        assert lookup[(20, 20, 20)] == "polytomy"
        assert lookup[(36, 12, 12)] == "t1:1"

    def test_swap_symmetry_small(self):
        points = simplex_lattice(60)
        lookup = dict(zip(points, region_grid([t1_model(1), polytomy_model()], 60, 60, PLUGIN)))
        assert all(lookup[(i, j, k)] == lookup[(i, k, j)] for (i, j, k) in points)

    def test_component_connectivity_helper(self):
        winners = region_grid([t1_model(1), polytomy_model()], 60, 60, PLUGIN)
        comp = winning_component(dict(zip(simplex_lattice(60), winners)), "polytomy", (20, 20, 20))
        assert (20, 20, 20) in comp
        total = sum(1 for w in winners if w == "polytomy")
        assert len(comp) == total

    def test_needs_two_models(self):
        with pytest.raises(DomainError):
            region_grid([t1_model(1)], 100, 60, PLUGIN)

    @pytest.mark.parametrize("n, res", [(200, 100), (10, 50)])
    def test_t1_polytomy_matches_pointwise_oracle(self, n, res):
        # n = 10 rounds the points near the first vertex to (10, 0, 0), where
        # t1:1's estimate sits at the vertex and its plug-in bias takes its
        # far limit 2
        winners = region_grid([t1_model(1), polytomy_model()], n, res, PLUGIN)
        counts = [largest_remainder_counts((i / res, j / res, k / res), n)
                  for (i, j, k) in simplex_lattice(res)]
        if n == 10:
            assert (10, 0, 0) in counts
        assert list(winners) == [t1_polytomy_winner(c) for c in counts]
        line, polytomy = score_batch([t1_model(1), polytomy_model()], counts, PLUGIN)
        for i, c in enumerate(counts):
            want_line, want_polytomy = t1_polytomy_scores(c)
            assert polytomy.aicg[i] == pytest.approx(want_polytomy, rel=1e-14)
            assert line.aicg[i] == pytest.approx(want_line, rel=1e-14)

    def test_t3_labels_at_vertex_rounded_counts(self):
        # at n = 10 every lattice point rounds to one of 66 count triples;
        # t3 wins exactly on the permutations of these: at the vertex triples
        # (10, 0, 0) both fits are exact and t3's bias, its far limit 2, is
        # below the unconstrained model's 4
        t3_wins = {(10, 0, 0), (9, 1, 0), (8, 1, 1), (7, 2, 1), (6, 3, 1), (6, 2, 2),
                   (5, 3, 2), (4, 4, 2), (4, 3, 3)}
        winners = region_grid([t3_model(), unconstrained_model()], 10, 50, PLUGIN)
        for (i, j, k), winner in zip(simplex_lattice(50), winners):
            c = largest_remainder_counts((i / 50, j / 50, k / 50), 10)
            assert winner == ("t3" if tuple(sorted(c, reverse=True)) in t3_wins
                              else "unconstrained")
        assert winners.count("t3") == 846  # 831, and the 15 points that round to a vertex

    def test_error_cell_when_every_model_fails(self):
        # a model that cannot be scored fails on every row; labelling the
        # grid without it would give all its points to the other models, so
        # the grid names the first such model instead
        for models, n, rule, failing in [
                (HALFLINES_PAIR, 10, PLUGIN, "halflines:6.28318530718"),
                ([t1_model(1), HALFLINES_PAIR[0]], 60, PLUGIN, "halflines:6.28318530718"),
                ([t1_model(1), polytomy_model()], 2, EstimatorRule("consistent"), "t1:1")]:
            with pytest.raises(DomainError, match=f"cannot score {failing}: "):
                region_grid(models, n, 50, rule)

    def test_equal_scores_are_a_tie(self):
        # each cell of the resolution-2 lattice swaps two lines into each
        # other, so the two t1 models on those lines score alike
        assert set(region_grid([t1_model(1), t1_model(2), t1_model(3)], 10, 2, PLUGIN)) == {"tie"}

    @pytest.mark.parametrize("models", [[t1_model(1), polytomy_model(), t1_model(1)],
                                        [t1_model(1), polytomy_model(), parse_model_id("t1")]])
    def test_repeated_model_id_rejected(self, models):
        # a repeat would tie with itself wherever it wins
        with pytest.raises(DomainError, match="model id 't1:1' is repeated"):
            region_grid(models, 10, 50, PLUGIN)


class TestWinnerLabels:
    """The array-built labels against the per-point loop they replace."""

    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0]), min_size=m, max_size=m),
        min_size=1, max_size=30)), st.sampled_from([0.0, 1e-8, 1.5]))
    def test_matches_loop_oracle(self, columns, tol):
        aicg = np.array(columns).T
        ids = tuple(f"m{i}" for i in range(len(aicg)))
        assert _winner_labels(aicg, ids, tol) == region_winners_loop(aicg, ids, tol)

    @pytest.mark.parametrize("models, n, res", [
        ([t3_model(), unconstrained_model()], 200, 100),
        ([t3_model(), unconstrained_model()], 10, 50),
        ([t1_model(1), t1_model(2), t1_model(3)], 10, 50),
        ([t1_model(1), polytomy_model()], 10, 50),
        ([t1_model(2), t3_model(), polytomy_model()], 10, 50),
    ])
    def test_region_grid_matches_loop_oracle(self, models, n, res):
        counts = _rounded_counts(np.array(simplex_lattice(res)) / res, n)
        aicg = np.array([s.aicg for s in score_batch(models, counts, PLUGIN)])
        ids = tuple(m.model_id for m in models)
        assert region_grid(models, n, res, PLUGIN) == region_winners_loop(aicg, ids, _TIE_TOL)

    @pytest.mark.parametrize("shift", [1e-13, -1e-13])
    def test_ties_survive_last_bit_moves_of_t3_values(self, monkeypatch, shift):
        # t3 and t1:1 fit the same line in many cells, where their scores
        # differ by the t3 bias minus the t1 bias only: within _TIE_TOL both
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
        assert after == before
        assert before.count("tie") > 583
        # with exact equality as the tie rule, the same move changes cells
        ids = tuple(m.model_id for m in models)
        assert _winner_labels(moved, ids, 0.0) != _winner_labels(aicg, ids, 0.0)

    def test_labels_cover_winner_tie_and_error(self):
        # every label is a model id or a tie: a model that cannot be scored
        # raises (test_error_cell_when_every_model_fails)
        labels = set(region_grid([t1_model(1), t1_model(2), t1_model(3)], 10, 50, PLUGIN))
        assert labels == {"t1:1", "t1:2", "t1:3", "tie"}


class TestScoreBatch:
    ALL = [t1_model(1), t1_model(2), t3_model(), polytomy_model(), unconstrained_model()]
    ROWS = [(120, 40, 40), (67, 67, 66), (50, 100, 50), (30, 160, 10), (70, 70, 60)]

    @pytest.mark.parametrize("method", ["plugin", "aic", "llf", "ulf", "uo", "minimax",
                                        "consistent"])
    def test_rows_match_one_row_scores(self, method):
        rule = EstimatorRule(method)
        batch = score_batch(self.ALL, self.ROWS, rule)
        for i, row in enumerate(self.ROWS):
            single = {r.model_id: r for r in score(self.ALL, tuple(row), rule).rows}
            for s in batch:
                one = single[s.model.model_id]
                assert one.bias_method == s.bias_method
                assert one.bias_value == pytest.approx(s.bias[i], abs=1e-12)
                assert one.aicg == pytest.approx(s.aicg[i], abs=1e-12)
                assert one.aic == pytest.approx(s.aic[i], abs=1e-12)

    @pytest.mark.parametrize("eta", [1.0 / 3.0, 0.45])
    def test_bootstrap_rows_match_per_row_chain(self, eta):
        # n = 200 on the resolution-10 lattice: distances from 0 past 10
        # against a shrinkage radius of 200^(1/2 - eta), 2.42 or 1.30; the
        # added rows lie 1.22, 1.36, 2.34 and 2.48 out.  Each row's exact
        # value lies within 3 se of the bootstrap run by Monte Carlo.
        n, b, seed = 200, 20_000, 5
        counts = np.vstack([_rounded_counts(np.array(simplex_lattice(10)) / 10, n),
                            [(75, 63, 62), (62, 62, 76), (83, 59, 58), (58, 84, 58)]])
        models = [t1_model(1), t3_model(), polytomy_model(), unconstrained_model()]
        rule = EstimatorRule("bootstrap", eta_exponent=eta)
        radius = n ** (0.5 - eta)
        for s in score_batch(models, counts, rule):
            if s.model.variant in ("t1", "t3"):
                assert np.any((s.mu_hat > 0) & (s.mu_hat <= radius))  # shrunk
                assert np.any(s.mu_hat > radius)  # centred at the estimate
            for i, row in enumerate(counts):
                ref = bootstrap_bias_per_row(s.model, tuple(map(int, row)), b, seed, eta)
                assert abs(s.bias[i] - ref.value) <= 3.0 * ref.std_error

    def test_bootstrap_is_the_bias_at_its_centre_on_the_rows_cone(self):
        # (0, 10, 20) at n = 30 puts the t3 estimate 3.87 out, inside the
        # radius 30^0.4 = 3.90 of eta = 0.1: the bootstrap centres at the
        # origin of the row's own cone, whose angle is not the pi/6 of the
        # consistent rule's singularity value
        counts = np.array([(0.0, 10.0, 20.0)])
        theta, line = mle_rows(t3_model(), counts)
        mu_hat, alpha0, _, _ = _line_geometry(counts, theta, line, 30)
        assert 0.0 < mu_hat[0] <= 30 ** 0.4
        boot, = score_batch([t3_model()], counts, EstimatorRule("bootstrap", eta_exponent=0.1))
        cons, = score_batch([t3_model()], counts, EstimatorRule("consistent", eta_exponent=0.1))
        assert boot.bias[0] == bias_t3_batch(np.array([0.0]), alpha0)[0]
        ref = bootstrap_bias_per_row(t3_model(), (0, 10, 20), 2_000_000, 7, 0.1)
        assert abs(boot.bias[0] - ref.value) <= 3.0 * ref.std_error
        assert abs(cons.bias[0] - boot.bias[0]) > 5.0 * ref.std_error

    def test_error_rows_are_per_model(self):
        # a rule that cannot apply fails on every row of its model only
        rule = EstimatorRule("consistent")
        t3, poly = score_batch([t3_model(), polytomy_model()], [(1, 1, 0), (2, 0, 0)], rule)
        assert t3.error == "consistent estimation needs n >= 3"
        assert np.all(np.isnan(t3.aicg)) and np.all(np.isnan(t3.bias))
        assert poly.error is None and np.all(np.isfinite(poly.aicg))

    def test_vertex_counts_keep_rules_without_distance(self):
        # the classical rule needs no observed distance; the vertex's is +inf
        t3, = score_batch([t3_model()], [(0, 0, 5)], EstimatorRule("aic"))
        assert t3.error is None and t3.bias[0] == 2.0
        assert t3.mu_hat[0] == math.inf

    @pytest.mark.parametrize("method", ["plugin", "uo", "minimax", "consistent", "bootstrap"])
    def test_vertex_rows_take_the_far_limit(self, method):
        # an estimate at a vertex lies at distance +inf, where every rule
        # takes its value far from the singularity, 2; the rows beside it
        # keep their own values
        rule = EstimatorRule(method)
        counts = [(0, 0, 5), (5, 0, 0), (3, 1, 1)]
        for model in (t3_model(), t1_model(1), t1_model(3)):
            s, = score_batch([model], counts, rule)
            vertex = [max(row) == 5 if model.variant == "t3" else row[model.topology - 1] == 5
                      for row in counts]
            assert s.error is None
            assert [b for b, v in zip(s.bias, vertex) if v] == [2.0] * sum(vertex)
            assert all(m == math.inf for m, v in zip(s.mu_hat, vertex) if v)
            assert np.all(np.isfinite(s.aicg))
            alone, = score_batch([model], [counts[2]], rule)
            assert alone.bias[0] == s.bias[2]

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

    @pytest.mark.parametrize("text, topology", [("t1", 1), ("T1", 1), ("t1:1", 1),
                                                ("t1:2", 2), (" T1:3 ", 3)])
    def test_t1_spellings(self, text, topology):
        assert parse_model_id(text) == t1_model(topology)

    @pytest.mark.parametrize("text", ["t1foo", "t1:1x", "t1:0", "t1:4", "t1:", "t12"])
    def test_t1_lookalikes_rejected(self, text):
        with pytest.raises(DomainError, match="unknown model id"):
            parse_model_id(text)


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
    mu_levels, alpha_levels, zbar_norm, index = _line_geometry(counts, theta, line, n)
    assert len(mu_levels) <= len(rows)
    for i, row in enumerate(rows):
        mu_hat, alpha0 = mu_levels[index[i]], alpha_levels[index[i]]
        if theta[i, line[i]] == 1.0:  # the estimate at a vertex, where the map has no scale
            assert mu_hat == zbar_norm[i] == math.inf
            continue
        mu, alpha, estimate, zbar = line_observation(model, tuple(row))
        # the map's Cholesky scaling rounds differently: a zero distance
        # comes out as a few 1e-15
        assert mu_hat == pytest.approx(math.hypot(estimate.x, estimate.y), rel=1e-12, abs=1e-13)
        assert zbar_norm[i] == pytest.approx(math.hypot(zbar.x, zbar.y), rel=1e-12, abs=1e-13)
        assert (mu_hat, alpha0) == (mu, alpha)
