import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aicg.geometry import (
    CENTROID,
    Counts,
    DomainError,
    GeometryParams,
    SimplexPoint,
    TransformedPoint,
    theta_on_line,
)
from aicg.models import (
    Cone,
    cone_of,
    mle_rows,
    mle_simplex,
    neg2loglik_at,
    neg2loglik_rows,
    polytomy_model,
    project_points,
    project_transformed,
    projected_distances,
    t1_model,
    t3_model,
    theta_in_model,
    unconstrained_model,
    validate_halflines,
)
from aicg.montecarlo import McSettings, standard_normals, _chunk_rng

from oracles import t1_mle_bruteforce, transform_map, trinomial_counts

TWO_PI = 2 * math.pi


class TestModelSpec:
    def test_equal_values_are_equal_and_hash_equal(self):
        # models key the lru_caches of least_favorable and the radius truth grid
        pairs = [(t1_model(2), t1_model(2)), (t3_model(), t3_model()),
                 (validate_halflines([2.8, 4.5, TWO_PI]), validate_halflines([2.8, 4.5, TWO_PI]))]
        for a, b in pairs:
            assert a is not b
            assert a == b and hash(a) == hash(b)
        assert t1_model(1) != t1_model(2)
        assert t3_model() != polytomy_model()
        assert t3_model() != "t3"

    def test_fields_are_read_only(self):
        model = t1_model(1)
        with pytest.raises(AttributeError):
            model.topology = 2
        with pytest.raises(AttributeError):
            del model.variant
        with pytest.raises(AttributeError):
            Cone("point").extra = 1
        assert model.topology == 1


class TestMleSimplex:
    def test_t1_unconstrained_optimum(self):
        r = mle_simplex(t1_model(1), Counts(50, 25, 25))
        assert r.estimate.as_tuple() == pytest.approx((0.5, 0.25, 0.25), abs=1e-15)
        assert not r.at_vertex_of_cone

    def test_t1_clamped_to_centroid(self):
        r = mle_simplex(t1_model(1), Counts(20, 40, 40))
        assert r.estimate.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
        assert r.at_vertex_of_cone
        # grid-search oracle: interior stationary point clamps at the boundary
        assert t1_mle_bruteforce((20, 40, 40)) == pytest.approx(1 / 3, abs=1e-5)

    def test_t3_picks_maximal_count(self):
        r = mle_simplex(t3_model(), Counts(10, 60, 30))
        assert r.estimate.as_tuple() == pytest.approx((0.2, 0.6, 0.2), abs=1e-15)
        assert r.topology == 2
        # oracle: best of the three constrained fits
        fits = [neg2loglik_at(Counts(10, 60, 30), mle_simplex(t1_model(i), Counts(10, 60, 30)).estimate)
                for i in (1, 2, 3)]
        assert r.neg2loglik == pytest.approx(min(fits), abs=1e-12)

    def test_t3_tie_break_smallest_index(self):
        r = mle_simplex(t3_model(), Counts(40, 40, 20))
        assert r.topology == 1

    def test_polytomy(self):
        r = mle_simplex(polytomy_model(), Counts(9, 2, 1))
        assert r.estimate.as_tuple() == CENTROID.as_tuple()
        assert r.at_vertex_of_cone

    def test_unconstrained_closure(self):
        r = mle_simplex(unconstrained_model(), Counts(5, 0, 5))
        assert r.estimate.as_tuple() == (0.5, 0.0, 0.5)
        assert math.isfinite(r.neg2loglik)

    def test_brute_force_agreement_random_counts(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = rng.multinomial(rng.integers(10, 500), rng.dirichlet([1, 1, 1]))
            if c.sum() == 0:
                continue
            counts = Counts(*map(int, c))
            fit = mle_simplex(t1_model(1), counts)
            assert fit.estimate.p1 == pytest.approx(
                t1_mle_bruteforce(tuple(map(int, c))), abs=1e-5)

    def test_halflines_rejected(self):
        with pytest.raises(DomainError):
            mle_simplex(validate_halflines([TWO_PI]), Counts(1, 1, 1))

    def test_t3_tie_break_across_first_and_last(self):
        r = mle_simplex(t3_model(), Counts(40, 20, 40))
        assert r.topology == 1
        assert r.estimate.as_tuple() == pytest.approx((0.4, 0.3, 0.3), abs=1e-15)

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
                    .filter(lambda c: sum(c) > 0), min_size=1, max_size=12))
    def test_mle_simplex_is_a_row_of_mle_rows(self, rows):
        counts = np.array(rows, dtype=float)
        for model in (t1_model(1), t1_model(3), t3_model(), polytomy_model(),
                      unconstrained_model()):
            theta, line = mle_rows(model, counts)
            n2ll = neg2loglik_rows(counts, theta)
            for i, c in enumerate(rows):
                fit = mle_simplex(model, Counts(*c))
                assert fit.estimate.as_tuple() == tuple(theta[i])
                assert fit.neg2loglik == n2ll[i]
                assert fit.topology == (None if line is None else int(line[i]) + 1)


class TestNeg2Loglik:
    def test_uniform_value(self):
        assert neg2loglik_at(Counts(1, 1, 1), CENTROID) == pytest.approx(
            6 * math.log(3), abs=1e-12)
        assert neg2loglik_at(Counts(1, 1, 1), CENTROID) == pytest.approx(6.591674, abs=1e-6)

    def test_zero_count_convention(self):
        p = SimplexPoint(1.0, 0.0, 0.0, boundary_ok=True)
        assert neg2loglik_at(Counts(3, 0, 0), p) == 0.0

    def test_positive_count_zero_prob_is_inf(self):
        p = SimplexPoint(1.0, 0.0, 0.0, boundary_ok=True)
        assert neg2loglik_at(Counts(3, 1, 0), p) == math.inf

    @given(st.tuples(st.integers(0, 200), st.integers(0, 200), st.integers(0, 200))
           .filter(lambda c: sum(c) > 0))
    def test_mle_optimality_over_random_feasible_points(self, c):
        counts = Counts(*c)
        for model in (t1_model(1), t3_model(), unconstrained_model()):
            fit = mle_simplex(model, counts)
            rng = np.random.default_rng(sum(c))
            for _ in range(20):
                if model.variant == "t1":
                    phi = rng.uniform(1e-6, 1.0)
                    cand = theta_on_line(phi, 1)
                elif model.variant == "t3":
                    cand = theta_on_line(rng.uniform(1e-6, 1.0), rng.integers(1, 4))
                else:
                    cand = SimplexPoint(*rng.dirichlet([1, 1, 1]))
                assert fit.neg2loglik <= neg2loglik_at(counts, cand) + 1e-9


class TestConeOf:
    def test_t1_single_ray(self):
        cone = cone_of(t1_model(1))
        assert cone.kind == "rays"
        assert cone.angles == (math.pi / 2,)

    def test_t3_symmetric_rays(self):
        geo = GeometryParams.from_phi0(1.0, 100)
        cone = cone_of(t3_model(), geo)
        angles = np.sort(cone.angles)
        assert angles == pytest.approx(
            [math.pi / 2, math.pi + math.pi / 6, TWO_PI - math.pi / 6], abs=1e-12)
        gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
        assert gaps == pytest.approx([2 * math.pi / 3] * 3, abs=1e-12)

    def test_polytomy_empty(self):
        assert cone_of(polytomy_model()).kind == "point"
        assert cone_of(polytomy_model()).angles == ()

    def test_unconstrained_plane(self):
        assert cone_of(unconstrained_model()).kind == "plane"


class TestProjection:
    def test_t1_negative_y_hits_vertex(self):
        cone = cone_of(t1_model(1))
        out = project_transformed(cone, TransformedPoint(1.0, -2.0))
        assert (out.x, out.y) == (0.0, 0.0)

    def test_t1_positive_y_projects_onto_axis(self):
        cone = cone_of(t1_model(1))
        out = project_transformed(cone, TransformedPoint(1.0, 2.0))
        assert (out.x, out.y) == (0.0, 2.0)

    def test_point_on_ray_is_fixed(self):
        geo = GeometryParams.from_phi0(0.8, 50)
        cone = cone_of(t3_model(), geo)
        for a in cone.angles:
            w = TransformedPoint(3.0 * math.cos(a), 3.0 * math.sin(a))
            out = project_transformed(cone, w)
            assert (out.x, out.y) == pytest.approx((w.x, w.y), abs=1e-12)

    def test_idempotent_many_points(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 3, size=(10_000, 2))
        for model, geo in [(t1_model(1), None),
                           (t3_model(), GeometryParams.from_phi0(0.7, 100)),
                           (polytomy_model(), None), (unconstrained_model(), None),
                           (validate_halflines([2.8, 4.5, TWO_PI]), None)]:
            cone = cone_of(model, geo)
            once = project_points(cone, w)
            twice = project_points(cone, once)
            assert np.allclose(once, twice, atol=0)

    def test_distance_minimizing_against_dense_cone(self):
        rng = np.random.default_rng(4)
        cone = cone_of(t3_model(), GeometryParams.from_phi0(0.5, 64))
        dirs = cone.directions()
        ts = np.linspace(0, 30, 1000)
        cone_pts = np.concatenate([t * d for t in ts[:, None] for d in [dirs]], axis=0)
        w = rng.normal(0, 4, size=(200, 2))
        proj = project_points(cone, w)
        for i in range(len(w)):
            d_proj = np.linalg.norm(w[i] - proj[i])
            d_all = np.min(np.linalg.norm(cone_pts - w[i], axis=1))
            assert d_proj <= d_all + 1e-12

    def test_pointwise_nonnegativity(self):
        # (w - mu0).(proj(w) - mu0) >= 0 for mu0 anywhere on the cone
        rng = np.random.default_rng(9)
        cone = cone_of(t3_model(), GeometryParams.from_phi0(1.0, 100))
        w = rng.normal(0, 3, size=(5000, 2))
        proj = project_points(cone, w)
        for a in cone.angles:
            for t in [0.0, 0.5, 2.0, 7.0]:
                mu0 = t * np.array([math.cos(a), math.sin(a)])
                inner = np.einsum("ij,ij->i", w - mu0, proj - mu0)
                assert inner.min() >= -1e-12

    @given(st.sampled_from([math.pi / 2, TWO_PI]) | st.floats(1e-6, TWO_PI),
           st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=40),
           st.floats(0.0, 30.0))
    def test_one_ray_matches_general_argmin(self, angle, pts, along):
        # the one-ray shortcut gives the bits of the argmin over candidates,
        # on both sides of the ray (negative inner products project to 0)
        cone = Cone("rays", (angle,))
        dirs = cone.directions()
        w = np.array(pts + [tuple(along * dirs[0]), tuple(-along * dirs[0])])
        t = np.clip(w @ dirs.T, 0.0, None)
        best = np.argmin(-t * t, axis=1)
        general = t[np.arange(len(w)), best, None] * dirs[best]
        assert project_points(cone, w).tobytes() == general.tobytes()

    def test_tie_breaks_to_smallest_angle(self):
        cone = Cone("rays", (math.pi / 2, 3 * math.pi / 2))
        out = project_transformed(cone, TransformedPoint(5.0, 0.0))
        assert (out.x, out.y) == (0.0, 0.0)
        # exact tie between the +y ray and the +x ray: smaller angle wins
        cone2 = Cone("rays", (math.pi / 2, TWO_PI))
        out2 = project_transformed(cone2, TransformedPoint(2.0, 2.0))
        assert (out2.x, out2.y) == (0.0, 2.0)


# coordinates whose squares are normal doubles: the reference
# ||project_points(w)|| squares them, and sqrt(t * t) == |t| holds only then
_coordinate = st.floats(-50, 50).filter(lambda v: v == 0.0 or abs(v) > 1e-100)
_points = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40)


def _ray_angles():
    """Sorted distinct ray angles in (0, 2pi]: any ray cone, the cones of
    halflines models among them."""
    return st.lists(st.floats(1e-3, TWO_PI), min_size=1, max_size=6, unique=True).map(
        lambda a: tuple(sorted(a)))


class TestProjectedDistances:
    """projected_distances against the norm of project_points."""

    @given(st.sampled_from([1, 2, 3]), _points)
    def test_t1_bits_equal_projection_norm(self, topology, pts):
        cone = cone_of(t1_model(topology))
        w = np.array(pts)
        want = np.linalg.norm(project_points(cone, w), axis=1)
        assert np.array_equal(projected_distances(cone, w), want)

    @given(st.floats(0.05, 1.0) | _ray_angles(), _points)
    def test_ray_cones_match_projection_norm(self, shape, pts):
        # t3 cones (from phi0) and arbitrary ray sets.  Both sides round the
        # inner products (4 roundings more on the reference side), so they
        # agree to a few units of eps (|x| + |y|), not in relative ulps: near
        # a ray's normal the inner product cancels
        if isinstance(shape, float):
            cone = cone_of(t3_model(), GeometryParams.from_phi0(shape, 1000))
        else:
            cone = Cone("rays", shape)
        w = np.array(pts)
        want = np.linalg.norm(project_points(cone, w), axis=1)
        got = projected_distances(cone, w)
        bound = 4.0 * np.finfo(float).eps * np.abs(w).sum(axis=1)
        assert np.all(np.abs(got - want) <= bound)
        assert np.all(got >= 0.0)

    def test_point_and_plane_cones(self):
        w = np.array([[3.0, -4.0], [0.0, 0.0], [-1e3, 2.5]])
        assert np.array_equal(projected_distances(cone_of(polytomy_model()), w), np.zeros(3))
        plane = cone_of(unconstrained_model())
        assert np.array_equal(projected_distances(plane, w),
                              np.linalg.norm(project_points(plane, w), axis=1))
        assert projected_distances(plane, w)[0] == 5.0


class TestValidateHalflines:
    def test_equal_sectors_valid(self):
        m = validate_halflines([TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI])
        assert m.sector_gaps() == pytest.approx([TWO_PI / 3] * 3, abs=1e-12)

    def test_largest_sector_violation_reports_rotation(self):
        with pytest.raises(DomainError, match="rotate"):
            validate_halflines([math.pi / 4, TWO_PI])

    def test_single_ray(self):
        m = validate_halflines([TWO_PI])
        assert m.sector_gaps() == (TWO_PI,)

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            validate_halflines([3.0, 1.0, TWO_PI])

    def test_missing_terminal_ray_rejected(self):
        with pytest.raises(DomainError):
            validate_halflines([1.0, 2.0])


class TestThetaInModel:
    def test_membership(self):
        assert theta_in_model(t1_model(1), theta_on_line(0.5, 1))
        assert not theta_in_model(t1_model(1), theta_on_line(0.5, 2))
        assert theta_in_model(t3_model(), theta_on_line(0.5, 2))
        assert theta_in_model(polytomy_model(), CENTROID)
        assert theta_in_model(unconstrained_model(), SimplexPoint(0.7, 0.2, 0.1))


def test_large_n_mle_views_agree():
    # simplex MLE pushed through the transform vs projection of the
    # transformed sample mean: both estimate the same cone point at large n
    n = 100_000
    theta0 = theta_on_line(0.9, 1)
    tmap = transform_map(theta0, n)
    cone = cone_of(t1_model(1))
    rng = _chunk_rng(2024, 0)
    sims = 1000
    counts = trinomial_counts(rng, n, np.array(theta0.as_tuple()), sims)
    gaps = []
    for row in counts:
        c = Counts(*map(int, row))
        fit = mle_simplex(t1_model(1), c)
        a = tmap(fit.estimate).as_array()
        zbar = tmap(c.mean()).as_array()
        b = project_points(cone, zbar[None])[0]
        gaps.append(float(np.linalg.norm(a - b)))
    assert float(np.mean(gaps)) <= 0.05
