import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aicg

from aicg.estimators import bias_on_cone
from aicg.geometry import DomainError
from aicg.models import t3_model, validate_halflines
from aicg.quadrature import (
    bias_ray_cone,
    bias_t3_batch,
    bias_t3_value,
)
from aicg.special import _OWEN_NODES, _legendre_rule, _owen_rule, erf

from oracles import gauss_legendre_mpmath, halflines_origin_bias, ray_cone_bias_dblquad

TWO_PI = 2 * math.pi
T3_RAYS = [math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6]  # alpha0 = pi/6
T3_SINGULAR = 2.0 + 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
T3 = t3_model()


class TestBiasT3:
    def test_singular_constant(self):
        v = bias_on_cone(T3, 0.0, math.pi / 6)
        assert v == pytest.approx(T3_SINGULAR, abs=1e-15)

    def test_matches_halflines_closed_form(self):
        v = bias_on_cone(T3, 0.0, math.pi / 6)
        hl = halflines_origin_bias(validate_halflines([TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI]))
        assert v == pytest.approx(hl, abs=1e-15)

    def test_far_limit(self):
        assert bias_on_cone(T3, 8.0, math.pi / 6) == pytest.approx(2.0, abs=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            bias_on_cone(T3, -1.0, math.pi / 6)
        with pytest.raises(DomainError):
            bias_on_cone(T3, 1.0, 0.0)
        with pytest.raises(DomainError):
            bias_on_cone(T3, 1.0, 1.0)

    def test_nonincreasing_on_grid(self):
        grid = np.arange(0.0, 5.0001, 0.1)
        vals = [bias_t3_value(float(m), math.pi / 6) for m in grid]
        assert all(b - a <= 1e-9 for a, b in zip(vals, vals[1:]))
        lo, hi = 2.0 - 1e-6, T3_SINGULAR + 1e-6
        assert all(lo <= v <= hi for v in vals)

    def test_tail_truncation_adequate(self):
        # the closed form truncates nothing, so it has no window to widen:
        # near and far along the line it is the plane's dblquad value
        for mu in [1.3, 20.0]:
            value = bias_on_cone(T3, mu, math.pi / 6)
            assert value == pytest.approx(ray_cone_bias_dblquad((0.0, mu), T3_RAYS), abs=1e-13)

    def test_batch_rows_match_scalar(self):
        mus = np.array([0.0, 0.4, 1.7, 3.3, 9.0])
        alphas = np.array([math.pi / 6, 0.5, 0.45, 0.33, 0.4])
        batch = bias_t3_batch(mus, alphas)
        for mu, a0, v in zip(mus, alphas, batch):
            assert v == pytest.approx(bias_on_cone(T3, float(mu), float(a0)), abs=1e-14)
        # a scalar alpha0 broadcasts over the mu0y rows
        shared = bias_t3_batch(mus, math.pi / 6)
        assert shared[2] == pytest.approx(bias_on_cone(T3, 1.7, math.pi / 6), abs=1e-14)

    def test_batch_rejects_bad_rows(self):
        with pytest.raises(DomainError):
            bias_t3_batch([0.5, -0.1], math.pi / 6)
        with pytest.raises(DomainError):
            bias_t3_batch([0.5, 1.0], [math.pi / 6, 0.0])

    def test_nonconvergence_carries_best(self):
        # where a quadrature rule pair once missed its tolerance, the closed
        # form, which checks none, raises nothing and gives the plane's value
        value = bias_on_cone(T3, 1.0, math.pi / 6)
        assert value == pytest.approx(ray_cone_bias_dblquad((0.0, 1.0), T3_RAYS), abs=1e-13)

    def test_metadata_records_truncation(self):
        # a closed form, with no window, tail or standard error
        assert bias_on_cone(T3, 0.5, math.pi / 6) == bias_t3_batch(0.5, math.pi / 6)[0]

    def test_far_singularity_reaches_regular_value(self):
        # every jump term is positive and vanishes far out, where the value
        # is the regular-model limit 2 exactly, up to the largest doubles
        for mu in [15.0, 50.0, 300.0, 5000.0, 1e8, 1e17, 1e20, 1e300, 1.7e308]:
            for alpha0 in (math.pi / 6, 0.33, math.atan(1.0 / 3.0)):
                assert bias_on_cone(T3, mu, alpha0) == 2.0


class TestRayCone:
    """bias_ray_cone, the one primitive behind the t3 and half-lines values,
    against scipy's dblquad over the plane and the closed forms."""

    T3_ROWS = [(mu, a0) for mu in (0.0, 0.7, 2.5, 8.0) for a0 in (math.pi / 6, 0.33)]

    @pytest.mark.parametrize("mu, alpha0", T3_ROWS)
    def test_t3_matches_dblquad(self, mu, alpha0):
        rays = [math.pi / 2, math.pi + alpha0, TWO_PI - alpha0]
        want = ray_cone_bias_dblquad((0.0, mu), rays)
        assert abs(bias_t3_batch(mu, alpha0)[0] - want) <= 1e-13

    # one ray; a reflex gap (3.5 and 3.78) with one or two rays on the other
    # side; no reflex gap; and a line
    @pytest.mark.parametrize("angles", [[3.5, TWO_PI], [2.8, 4.5, TWO_PI], [math.pi, TWO_PI],
                                        [TWO_PI], [2.0, 2.5, TWO_PI]])
    def test_halflines_match_dblquad(self, angles):
        first = angles[0]
        points = [(1.04, 0.0), (3.0, 0.0),                          # on the 2pi ray
                  (2.2 * math.cos(first), 2.2 * math.sin(first)),   # on the first ray
                  (-1.2, 0.7), (0.3, -2.0), (-5.0, 6.2)]             # off the cone
        got = bias_ray_cone(points, angles)
        for point, value in zip(points, got):
            assert abs(value - ray_cone_bias_dblquad(point, angles)) <= 1e-13

    # a gap near pi, where the jump term vanishes on one side and the polar
    # mass on the other
    @pytest.mark.parametrize("angles, mu", [([3.2, TWO_PI], 1.0), ([3.1516, TWO_PI], 1.0),
                                            ([3.15, 3.2, TWO_PI], 1.0), ([3.2, TWO_PI], 3.0)])
    def test_wide_sector_matches_dblquad(self, angles, mu):
        got = bias_ray_cone([(mu, 0.0)], angles)[0]
        assert abs(got - ray_cone_bias_dblquad((mu, 0.0), angles)) <= 1e-13

    @settings(max_examples=20)
    @given(gap=st.floats(math.pi - 0.2, math.pi + 0.2, exclude_min=True, exclude_max=True),
           mu=st.floats(0.0, 4.0), off=st.floats(-2.0, 2.0))
    def test_gap_near_pi_matches_dblquad(self, gap, mu, off):
        angles = [TWO_PI - gap, TWO_PI]
        point = (mu, off)
        got = bias_ray_cone([point], angles)[0]
        assert abs(got - ray_cone_bias_dblquad(point, angles)) <= 1e-13

    @pytest.mark.parametrize("angles, point, limit", [
        (T3_RAYS, (0.0, 1e20), 2.0), (T3_RAYS, (0.0, 1.7e308), 2.0),
        ([TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI], (1e20, 0.0), 2.0),
        ([3.5, TWO_PI], (1e20, 0.0), 2.0), ([TWO_PI], (1e300, 0.0), 2.0),
        ([2.0, 2.5, TWO_PI], (-1e200, 1e200), 2.0),
        ([3.5, TWO_PI], (1e20 * math.cos(1.75), 1e20 * math.sin(1.75)), 0.0),
        ([TWO_PI], (-1e300, 0.0), 0.0)])
    def test_far_points_give_the_limit(self, angles, point, limit):
        # far from the origin a point that projects onto a ray has the
        # regular value 2, one in the polar cone 0, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bias_ray_cone([point], angles)[0] == limit

    def test_halflines_above_two_away_from_origin(self):
        # the value on the 2pi ray of halflines:3.5,2pi rises above both its
        # origin value and the regular limit 2
        value = bias_ray_cone([(1.04, 0.0)], [3.5, TWO_PI])[0]
        assert value == pytest.approx(2.029013, abs=1e-6)
        assert value > 2.0 > halflines_origin_bias(validate_halflines([3.5, TWO_PI]))

    def test_single_ray_is_the_t1_closed_form(self):
        mus = np.linspace(0.0, 20.0, 401)
        got = bias_ray_cone(np.column_stack([mus, np.zeros_like(mus)]), [TWO_PI])
        assert np.max(np.abs(got - (1.0 + erf(mus / math.sqrt(2.0))))) <= 5e-14

    @pytest.mark.parametrize("angles", [[TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI], [3.5, TWO_PI],
                                        [2.8, 4.5, TWO_PI], [math.pi, TWO_PI], [TWO_PI],
                                        [4.28, 5.28, TWO_PI]])
    def test_origin_is_the_halflines_closed_form(self, angles):
        want = halflines_origin_bias(validate_halflines(angles))
        assert bias_ray_cone([(0.0, 0.0)], angles)[0] == pytest.approx(want, abs=1e-14)

    def test_per_row_angles_match_shared_angles(self):
        points = np.array([[0.0, 0.4], [0.0, 1.7], [0.0, 3.3]])
        rays = np.array([math.pi / 2, math.pi + 0.4, TWO_PI - 0.4])
        shared = bias_ray_cone(points, rays)
        assert bias_ray_cone(points, np.tile(rays, (3, 1))).tobytes() == shared.tobytes()
        assert bias_t3_batch(points[:, 1], 0.4).tobytes() == shared.tobytes()

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            bias_ray_cone([(0.0, 1.0)], [2.0, 1.0])
        with pytest.raises(DomainError):
            bias_ray_cone([(0.0, 1.0)], [0.0, TWO_PI])
        with pytest.raises(DomainError):
            bias_ray_cone([(0.0, math.nan)], [TWO_PI])
        with pytest.raises(DomainError):
            bias_ray_cone([0.0, 1.0], [TWO_PI])

    def test_empty_batch(self):
        assert bias_ray_cone(np.zeros((0, 2)), [1.0, TWO_PI]).shape == (0,)
        assert bias_t3_batch(np.zeros(0), math.pi / 6).shape == (0,)

    def test_halflines_nonconvergence_carries_best(self):
        # where a quadrature rule pair once missed its tolerance, the closed
        # form, which checks none, raises nothing and gives the plane's value
        for angles in ([2.8, 4.5, TWO_PI], [3.5, TWO_PI]):
            value = bias_ray_cone([(1.0, 0.0)], angles)[0]
            assert abs(value - ray_cone_bias_dblquad((1.0, 0.0), angles)) <= 1e-13


class TestGaussLegendre:
    """The Newton-built rules against a 40-digit mpmath Newton oracle."""

    @pytest.mark.parametrize("n", [_OWEN_NODES, 64, 128])
    def test_matches_mpmath_oracle(self, n):
        x, w = _legendre_rule(n)
        want_x, want_w = gauss_legendre_mpmath(n)
        assert x.shape == w.shape == (n,)
        for got, want in zip(x.tolist(), want_x):
            assert abs(mpmath.mpf(got) - want) <= 2 * np.spacing(abs(got))
        for got, want in zip(w.tolist(), want_w):
            assert abs((mpmath.mpf(got) - want) / want) <= 1e-14

    def test_rules_are_symmetric_and_sum_to_two(self):
        for n in (_OWEN_NODES, 64, 128):
            x, w = _legendre_rule(n)
            assert np.all(np.diff(x) > 0)
            assert x.tobytes() == (-x[::-1]).tobytes()
            assert w.tobytes() == w[::-1].tobytes()
            assert math.fsum(w) == pytest.approx(2.0, abs=1e-14)

    def test_builds_without_an_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        x, w = _owen_rule.__wrapped__()
        cached_x, cached_w = _owen_rule()
        assert x.tobytes() == cached_x.tobytes() and w.tobytes() == cached_w.tobytes()
        assert w.shape == (_OWEN_NODES,) and 0.0 < x.min() < x.max() < 1.0

    def test_t3_commands_skip_numpy_polynomial_and_eigensolvers(self):
        # the t3 paths of the benchmark's quadrature workload, at small sizes,
        # and half-lines biases away from the origin, one with a reflex gap
        # (Owen's T), with every eigensolver replaced by one that fails
        src = str(Path(aicg.__file__).resolve().parents[1])
        code = """
import contextlib, io, sys
import numpy as np
def refuse(*args, **kwargs):
    raise AssertionError("eigensolver called")
for name in ("eig", "eigh", "eigvals", "eigvalsh"):
    setattr(np.linalg, name, refuse)
from aicg.cli import main
runs = [["bias", "--model", "t3", "--mu0y", "1.3"],
        ["bias", "--model", "halflines:2.8,4.5,2pi", "--mu0y", "1"],
        ["bias", "--model", "halflines:3.5,2pi", "--mu0y", "1"],
        ["target", "--model", "t3", "--n", "1000", "--grid", "0:1:1", "--samples", "2000",
         "--method", "plugin", "--seed", "1"],
        ["regions", "--n", "20", "--resolution", "50", "--pair", "t3,unconstrained"],
        ["radii", "--n", "1000000", "--model", "t3", "--grid", "0:2:1"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(args) for args in runs]
print(codes, "numpy.polynomial" in sys.modules)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"


class TestBatchBits:
    """A row's bits do not depend on how many rows share the call."""

    def test_one_row_and_long_calls_agree(self):
        alpha0 = math.pi / 6
        mus = np.arange(0, 11.05, 0.05)
        longer = np.arange(0, 70.05, 0.05)
        assert len(mus) == 221 and len(longer) == 1401
        assert mus.tobytes() == longer[:221].tobytes()
        batch = bias_t3_batch(mus, alpha0)
        one_row = np.concatenate([bias_t3_batch(m, alpha0) for m in mus])
        assert one_row.tobytes() == batch.tobytes()
        assert bias_t3_batch(longer, alpha0)[:221].tobytes() == batch.tobytes()

    @pytest.mark.parametrize("alpha0", [0.2, 0.45])
    def test_prefixes_agree(self, alpha0):
        mus = np.arange(0, 30.0, 0.07)
        full = bias_t3_batch(mus, alpha0)
        for size in (1, 2, 7, 64, 65, 200, 333):
            assert bias_t3_batch(mus[:size], alpha0).tobytes() == full[:size].tobytes()

    @pytest.mark.parametrize("angles", [[3.5, TWO_PI], [2.0, 2.5, TWO_PI], [TWO_PI]])
    def test_polar_mass_rows_agree(self, angles):
        # rows with a reflex gap add Owen's T, still elementwise
        rng = np.random.default_rng(3)
        points = rng.normal(0.0, 3.0, (300, 2))
        full = bias_ray_cone(points, angles)
        one_row = np.concatenate([bias_ray_cone(p[None], angles) for p in points])
        assert one_row.tobytes() == full.tobytes()
