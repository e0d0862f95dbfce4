"""The bias in closed form: t1's 1 + erf(mu0y / sqrt(2)), the half-lines
value at the origin, the constant models' and the AIC's 2 dim."""

import math

import numpy as np
import pytest

from aicg.estimators import EstimatorRule, bias_on_cone, rule_constant, singularity_bias
from aicg.geometry import DomainError
from aicg.models import polytomy_model, t1_model, t3_model, unconstrained_model, validate_halflines
from aicg.special import norm_cdf

from oracles import erf_decimal, halflines_origin_bias

TWO_PI = 2 * math.pi
T1 = t1_model(1)


class TestBiasT1:
    """The half-line bias 1 + erf(mu0y / sqrt(2)), which bias_on_cone gives
    for t1."""

    def test_boundary_value(self):
        assert bias_on_cone(T1, 0.0) == 1.0

    def test_far_limit(self):
        assert bias_on_cone(T1, 40.0) == pytest.approx(2.0, abs=1e-15)

    def test_unit_distance(self):
        assert bias_on_cone(T1, 1.0) == pytest.approx(1.6826895, abs=1e-7)
        assert bias_on_cone(T1, 1.0) == pytest.approx(1.0 + erf_decimal(1.0 / math.sqrt(2.0)), abs=1e-14)

    def test_equals_twice_normal_cdf(self):
        for mu in np.linspace(0, 6, 40):
            assert bias_on_cone(T1, mu) == pytest.approx(2.0 * norm_cdf(mu), abs=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            bias_on_cone(T1, -0.1)

    def test_monotone_with_bounded_range(self):
        grid = np.arange(0.0, 10.0001, 0.01)
        vals = np.array([bias_on_cone(T1, m) for m in grid])
        diffs = np.diff(vals)
        assert np.all(diffs >= 0.0)
        # resolvable in double precision up to ~6; saturates at 2.0 beyond
        assert np.all(diffs[grid[:-1] <= 6.0] > 0.0)
        assert vals[0] == 1.0
        assert np.all(vals <= 2.0)
        assert np.all(vals[grid <= 6.0] < 2.0)


class TestHalflines:
    """The ray-cone bias at the origin against its two-branch closed form
    (oracles.halflines_origin_bias)."""

    def test_single_ray_matches_t1_boundary(self):
        m = validate_halflines([TWO_PI])
        assert singularity_bias(m) == pytest.approx(1.0, abs=1e-14)
        assert halflines_origin_bias(m) == pytest.approx(1.0, abs=1e-14)

    def test_three_equal_sectors(self):
        m = validate_halflines([TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI])
        expected = 2.0 + 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
        v = singularity_bias(m)
        assert v == pytest.approx(expected, abs=1e-12)
        assert v == pytest.approx(2.8269933, abs=1e-7)
        assert halflines_origin_bias(m) == pytest.approx(expected, abs=1e-12)

    def test_two_equal_sectors(self):
        m = validate_halflines([math.pi, TWO_PI])
        assert singularity_bias(m) == pytest.approx(2.0, abs=1e-12)
        assert halflines_origin_bias(m) == pytest.approx(2.0, abs=1e-12)

    def test_continuity_at_pi(self):
        # both branch formulas agree when the first sector is exactly pi
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = rng.integers(1, 6)
            weights = rng.dirichlet(np.ones(k))
            rest = weights * math.pi
            gaps = [math.pi, *rest]
            low = 2.0 + sum(math.sin(g) for g in gaps) / math.pi
            high = 3.0 + (sum(math.sin(g) for g in gaps[1:]) - math.pi) / math.pi
            assert abs(low - high) <= 1e-12

    def test_equal_sector_formula(self):
        for el in [2, 3, 5, 12, 100]:
            angles = [(i + 1) * TWO_PI / el for i in range(el)]
            m = validate_halflines(angles)
            expected = 2.0 + el / math.pi * math.sin(TWO_PI / el)
            assert singularity_bias(m) == pytest.approx(expected, abs=1e-10)
            assert halflines_origin_bias(m) == pytest.approx(expected, abs=1e-10)

    def test_equal_sector_limit_and_monotonicity(self):
        def f(el):
            return 2.0 + el / math.pi * math.sin(TWO_PI / el)
        vals = [f(el) for el in range(7, 1001)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert abs(f(10_000) - 4.0) < 1e-6


class TestConstants:
    def test_polytomy(self):
        assert bias_on_cone(polytomy_model(), 0.0) == 0.0

    def test_unconstrained(self):
        assert bias_on_cone(unconstrained_model(), 0.0) == 4.0

    def test_equal_sector_limit_approaches_unconstrained(self):
        el = 10_000
        angles = [(i + 1) * TWO_PI / el for i in range(el)]
        v = singularity_bias(validate_halflines(angles))
        assert v == pytest.approx(bias_on_cone(unconstrained_model(), 0.0), abs=1e-6)


class TestAic:
    @pytest.mark.parametrize("model,expected", [
        (t1_model(1), 2.0), (t1_model(3), 2.0), (t3_model(), 2.0),
        (polytomy_model(), 0.0), (unconstrained_model(), 4.0),
    ])
    def test_twice_dimension(self, model, expected):
        assert rule_constant(model, EstimatorRule("aic"), 100) == expected

    def test_halflines(self):
        assert rule_constant(validate_halflines([TWO_PI]), EstimatorRule("aic"), 100) == 2.0


def test_singularity_bias_dispatch():
    assert singularity_bias(t1_model(2)) == 1.0
    assert singularity_bias(t3_model()) == pytest.approx(2.8269933431326884, abs=1e-12)
    assert singularity_bias(polytomy_model()) == 0.0
    assert singularity_bias(unconstrained_model()) == 4.0
