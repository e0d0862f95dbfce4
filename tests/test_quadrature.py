import math

import numpy as np
import pytest

from aicg.closedform import bias_halflines_at_singularity
from aicg.geometry import DomainError
from aicg.models import validate_halflines
from aicg.quadrature import (
    ConvergenceError,
    QuadratureSettings,
    _radial_moments,
    _t3_terms,
    bias_t3,
    bias_t3_batch,
    bias_t3_value,
)
from aicg.special import erf

TWO_PI = 2 * math.pi
T3_SINGULAR = 2.0 + 3.0 * math.sqrt(3.0) / (2.0 * math.pi)


class TestRadialMoments:
    """M_k = int_0^inf r^k exp(-(r - a)^2 / 2) dr against scipy quadrature."""

    @pytest.mark.parametrize("a", [-6.0, -2.5, -0.4, 0.0, 0.7, 3.0, 9.0])
    def test_against_scipy_quad(self, a):
        from scipy.integrate import quad
        got = _radial_moments(np.array(a), erf(a / math.sqrt(2.0)))
        for k, m in enumerate(got):
            want, _ = quad(lambda r: r ** k * math.exp(-0.5 * (r - a) ** 2), 0.0, math.inf,
                           epsabs=1e-14, epsrel=1e-13)
            assert float(m) == pytest.approx(want, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("mu", [0.0, 0.8, 2.5])
    def test_angular_term_matches_polar_integral(self, mu):
        # the closed-form radial moments reproduce the 2-D polar integral
        # of r (r^2 c^2 - mu r (sin phi - sin a0 c) + mu^2) e^{-|z - mu0|^2 / 2}
        from scipy.integrate import dblquad
        a0 = 0.45
        beta0 = 0.5 * (math.pi / 2 - a0)

        def f(r, phi):
            c = math.cos(phi + a0)
            g = r * (r * r * c * c - mu * r * (math.sin(phi) - math.sin(a0) * c) + mu * mu)
            return g * math.exp(-0.5 * (r * r - 2.0 * mu * r * math.sin(phi) + mu * mu))

        want, _ = dblquad(f, -math.pi / 2, beta0, 0.0, mu + 14.0, epsabs=1e-13, epsrel=1e-13)
        _, term2 = _t3_terms(np.array([mu]), np.array([a0]), 12.0)
        assert term2[0, 1] == pytest.approx(2.0 / math.pi * want, abs=1e-11)


class TestBiasT3:
    def test_singular_constant(self):
        v = bias_t3(0.0, math.pi / 6, QuadratureSettings(abs_tol=1e-8)).value
        assert v == pytest.approx(T3_SINGULAR, abs=1e-12)

    def test_matches_halflines_closed_form(self):
        v = bias_t3(0.0, math.pi / 6, QuadratureSettings(abs_tol=1e-10)).value
        hl = bias_halflines_at_singularity(
            validate_halflines([TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI])).value
        assert v == pytest.approx(hl, abs=1e-9)

    def test_far_limit(self):
        assert bias_t3(8.0, math.pi / 6).value == pytest.approx(2.0, abs=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            bias_t3(-1.0, math.pi / 6)
        with pytest.raises(DomainError):
            bias_t3(1.0, 0.0)
        with pytest.raises(DomainError):
            bias_t3(1.0, 1.0)

    def test_nonincreasing_on_grid(self):
        grid = np.arange(0.0, 5.0001, 0.1)
        vals = [bias_t3_value(float(m), math.pi / 6) for m in grid]
        assert all(b - a <= 1e-9 for a, b in zip(vals, vals[1:]))
        lo, hi = 2.0 - 1e-6, T3_SINGULAR + 1e-6
        assert all(lo <= v <= hi for v in vals)

    def test_tail_truncation_adequate(self):
        # a wider window spans several axis panels and must agree
        for mu in [1.3, 20.0]:
            base = bias_t3(mu, math.pi / 6, QuadratureSettings(abs_tol=1e-9, r_max_offset=12)).value
            wide = bias_t3(mu, math.pi / 6, QuadratureSettings(abs_tol=1e-9, r_max_offset=24)).value
            assert abs(base - wide) < 1e-9

    def test_first_term_is_twice_region_one(self):
        # the axis term equals twice the right-half-plane wedge integral
        from scipy.integrate import quad
        from scipy.stats import norm
        for mu in [0.0, 0.7, 1.9, 3.2, 4.8]:
            term1, _ = _t3_terms(np.array([mu]), np.array([math.pi / 6]), 12.0)
            beta0 = 0.5 * (math.pi / 2 - math.pi / 6)
            cot_b = math.cos(beta0) / math.sin(beta0)

            def wedge(y):
                # inner x-integral of the standard normal over (0, y cot b)
                inner = norm.cdf(y * cot_b) - 0.5
                d = y - mu
                return 2.0 * d * d * math.exp(-0.5 * d * d) / math.sqrt(TWO_PI) * inner

            region1, _ = quad(wedge, 0.0, mu + 12.0, points=[mu], epsabs=1e-13, epsrel=1e-12)
            assert term1[0, 1] == pytest.approx(2.0 * region1, abs=1e-10)

    def test_batch_rows_match_scalar(self):
        mus = np.array([0.0, 0.4, 1.7, 3.3, 9.0])
        alphas = np.array([math.pi / 6, 0.5, 0.45, 0.33, 0.4])
        batch = bias_t3_batch(mus, alphas)
        for mu, a0, v in zip(mus, alphas, batch):
            assert v == pytest.approx(bias_t3(float(mu), float(a0)).value, abs=1e-14)
        # a scalar alpha0 broadcasts over the mu0y rows
        shared = bias_t3_batch(mus, math.pi / 6)
        assert shared[2] == pytest.approx(bias_t3(1.7, math.pi / 6).value, abs=1e-14)

    def test_batch_rejects_bad_rows(self):
        with pytest.raises(DomainError):
            bias_t3_batch([0.5, -0.1], math.pi / 6)
        with pytest.raises(DomainError):
            bias_t3_batch([0.5, 1.0], [math.pi / 6, 0.0])

    def test_nonconvergence_carries_best(self):
        # no double-precision rule pair can certify 1e-16 on a value near 2.7
        with pytest.raises(ConvergenceError) as err:
            bias_t3(1.0, math.pi / 6, QuadratureSettings(abs_tol=1e-16))
        assert err.value.best == pytest.approx(bias_t3(1.0, math.pi / 6).value, abs=1e-13)

    def test_settings_validation(self):
        with pytest.raises(DomainError):
            QuadratureSettings(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSettings(r_max_offset=4.0)

    def test_metadata_records_truncation(self):
        est = bias_t3(0.5, math.pi / 6)
        assert est.settings["r_max"] == pytest.approx(12.5)
        assert est.settings["tail_bound"] < 1e-25

    def test_far_singularity_reaches_regular_value(self):
        # the bump window travels with mu0y, so extreme distances still
        # integrate to the regular-model value instead of missing the bump
        for mu in [50.0, 300.0, 5000.0]:
            assert bias_t3(mu, math.pi / 6).value == pytest.approx(2.0, abs=1e-9)
