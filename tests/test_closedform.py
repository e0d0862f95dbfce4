import math

import numpy as np
import pytest

from aicg.closedform import (
    BiasEstimate,
    bias_aic,
    bias_constant,
    bias_t1,
)
from aicg.estimators import singularity_bias
from aicg.geometry import DomainError
from aicg.models import polytomy_model, t1_model, t3_model, unconstrained_model, validate_halflines
from aicg.special import norm_cdf

from oracles import erf_decimal, halflines_origin_bias

TWO_PI = 2 * math.pi


class TestBiasEstimate:
    def test_std_error_discipline(self):
        # a bias value carries no standard error: the Monte Carlo target's
        # (estimate, std_error) pairs are not BiasEstimates
        assert BiasEstimate.__slots__ == ("value", "method")
        with pytest.raises(TypeError):
            BiasEstimate(1.0, "closed-form", std_error=0.1)
        with pytest.raises(DomainError):
            BiasEstimate(1.0, "monte-carlo")

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            BiasEstimate(1.0, "guesswork")


class TestBiasT1:
    def test_boundary_value(self):
        assert bias_t1(0.0).value == 1.0

    def test_far_limit(self):
        assert bias_t1(40.0).value == pytest.approx(2.0, abs=1e-15)

    def test_unit_distance(self):
        assert bias_t1(1.0).value == pytest.approx(1.6826895, abs=1e-7)
        assert bias_t1(1.0).value == pytest.approx(1.0 + erf_decimal(1.0 / math.sqrt(2.0)), abs=1e-14)

    def test_equals_twice_normal_cdf(self):
        for mu in np.linspace(0, 6, 40):
            assert bias_t1(mu).value == pytest.approx(2.0 * norm_cdf(mu), abs=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            bias_t1(-0.1)

    def test_monotone_with_bounded_range(self):
        grid = np.arange(0.0, 10.0001, 0.01)
        vals = np.array([bias_t1(m).value for m in grid])
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
        assert bias_constant(polytomy_model()).value == 0.0

    def test_unconstrained(self):
        assert bias_constant(unconstrained_model()).value == 4.0

    def test_rejects_singular_models(self):
        with pytest.raises(DomainError):
            bias_constant(t3_model())

    def test_equal_sector_limit_approaches_unconstrained(self):
        el = 10_000
        angles = [(i + 1) * TWO_PI / el for i in range(el)]
        v = singularity_bias(validate_halflines(angles))
        assert v == pytest.approx(bias_constant(unconstrained_model()).value, abs=1e-6)


class TestAic:
    @pytest.mark.parametrize("model,expected", [
        (t1_model(1), 2.0), (t1_model(3), 2.0), (t3_model(), 2.0),
        (polytomy_model(), 0.0), (unconstrained_model(), 4.0),
    ])
    def test_twice_dimension(self, model, expected):
        assert bias_aic(model).value == expected

    def test_halflines(self):
        assert bias_aic(validate_halflines([TWO_PI])).value == 2.0


def test_singularity_bias_dispatch():
    assert singularity_bias(t1_model(2)) == 1.0
    assert singularity_bias(t3_model()) == pytest.approx(2.8269933431326884, abs=1e-12)
    assert singularity_bias(polytomy_model()) == 0.0
    assert singularity_bias(unconstrained_model()) == 4.0
