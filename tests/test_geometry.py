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
    angles_from_phi0,
    mu0y,
    phi_from_mu0y,
    phi_from_p1,
    p1_from_phi,
    theta_on_line,
)

from oracles import fisher_information, mahalanobis, phi_from_mu0y_mpmath, transform_map


class TestSimplexPoint:
    def test_valid(self):
        p = SimplexPoint(0.5, 0.3, 0.2)
        assert p.as_tuple() == (0.5, 0.3, 0.2)

    def test_sum_violation(self):
        with pytest.raises(DomainError):
            SimplexPoint(0.5, 0.3, 0.3)

    def test_interior_requirement(self):
        with pytest.raises(DomainError):
            SimplexPoint(1.0, 0.0, 0.0)
        SimplexPoint(1.0, 0.0, 0.0, boundary_ok=True)


class TestCounts:
    def test_total(self):
        assert Counts(3, 4, 5).n == 12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Counts(-1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Counts(0, 0, 0)


class TestPhi:
    def test_centroid_endpoint(self):
        assert phi_from_p1(1.0 / 3.0) == 1.0

    def test_direct_value(self):
        assert phi_from_p1(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_from_p1(0.2)
        with pytest.raises(DomainError):
            phi_from_p1(1.0)

    def test_round_trip_grid(self):
        for p1 in np.linspace(1.0 / 3.0, 1.0 - 1e-9, 100):
            assert p1_from_phi(phi_from_p1(p1)) == pytest.approx(p1, abs=1e-14)


class TestMu0y:
    def test_zero_at_phi_one(self):
        for n in [1, 50, 10**6]:
            assert mu0y(1.0, n) == 0.0

    def test_direct_value(self):
        assert mu0y(0.75, 50) == pytest.approx(math.sqrt(100) * 0.25 / math.sqrt(1.125), abs=1e-12)
        assert mu0y(0.75, 50) == pytest.approx(2.35702, abs=1e-5)

    def test_strictly_decreasing_in_phi(self):
        grid = np.arange(0.01, 1.0001, 0.01)
        vals = [mu0y(p, 100) for p in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mu0y(0.0, 10)
        with pytest.raises(DomainError):
            mu0y(-0.5, 10)

    def test_inverse(self):
        for phi in [0.05, 0.4, 0.9, 1.0]:
            mu = mu0y(phi, 777)
            assert phi_from_mu0y(mu, 777) == pytest.approx(phi, abs=1e-10)

    @staticmethod
    def _distances(n):
        """Distances from 1e-8 up to the largest attainable one, and a fine grid
        over [0, 10)."""
        top = math.log10(mu0y(2e-12, n))
        return np.concatenate([[0.0], np.logspace(-8.0, top, 300), np.arange(0.0, 10.0, 0.05)])

    @pytest.mark.parametrize("n", [1, 10, 1e3, 1e6])
    def test_round_trip_within_a_few_ulps(self, n):
        # mu0y(phi) rounds phi to a double first, so the round trip can only
        # return mu to within ulp(mu) plus |d mu0y / d phi| ulp(phi)
        for mu in self._distances(n):
            mu = float(mu)
            phi = phi_from_mu0y(mu, n)
            slope = math.sqrt(2.0 * n) * (3.0 - phi) / (2.0 * (phi * (3.0 - 2.0 * phi)) ** 1.5)
            bound = 4.0 * (math.ulp(mu) + slope * math.ulp(phi))
            assert abs(mu0y(phi, n) - mu) <= bound, (n, mu)

    @pytest.mark.parametrize("n", [1, 10, 1e3, 1e6])
    def test_matches_mpmath_root(self, n):
        for mu in self._distances(n)[::7]:
            want = phi_from_mu0y_mpmath(float(mu), n)
            assert phi_from_mu0y(float(mu), n) == pytest.approx(want, rel=4 * 2.0 ** -52, abs=0)

    def test_elementwise_over_arrays(self):
        mus = self._distances(1e3)
        phis = phi_from_mu0y(mus, 1e3)
        assert isinstance(phis, np.ndarray) and phis.shape == mus.shape
        assert [phi_from_mu0y(float(m), 1e3) for m in mus] == list(phis)
        assert isinstance(phi_from_mu0y(1.5, 1e3), float)
        assert phi_from_mu0y(0.0, 1e3) == 1.0

    def test_unattainable_and_invalid_distances(self):
        with pytest.raises(DomainError, match="unattainable"):
            phi_from_mu0y(1e7, 10)
        with pytest.raises(DomainError, match="unattainable"):
            phi_from_mu0y(np.array([1.0, math.inf]), 10)
        for bad in (-0.5, math.nan, np.array([0.5, -1.0])):
            with pytest.raises(DomainError, match="nonnegative"):
                phi_from_mu0y(bad, 10)
        with pytest.raises(DomainError):
            phi_from_mu0y(1.0, 0.5)


class TestAngles:
    def test_symmetric_case(self):
        a0, b0 = angles_from_phi0(1.0)
        assert a0 == pytest.approx(math.pi / 6.0, abs=1e-15)
        assert b0 == pytest.approx(math.pi / 6.0, abs=1e-15)

    def test_small_phi_limit(self):
        a0, _ = angles_from_phi0(1e-12)
        assert a0 == pytest.approx(math.atan(1.0 / 3.0), abs=1e-9)

    def test_beta_identity_grid(self):
        for phi in np.linspace(0.01, 1.0, 60):
            a0, b0 = angles_from_phi0(phi)
            assert 2.0 * b0 + a0 == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_elementwise_over_arrays(self):
        phis = np.linspace(0.01, 1.0, 60)
        alphas, betas = angles_from_phi0(phis)
        assert list(alphas) == [angles_from_phi0(float(p))[0] for p in phis]
        assert list(betas) == [angles_from_phi0(float(p))[1] for p in phis]
        with pytest.raises(DomainError):
            angles_from_phi0(np.array([0.5, 0.0]))


class TestFisherInformation:
    def test_positive_definite_random_interior(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = rng.dirichlet([1.5, 1.5, 1.5])
            if min(p) < 1e-6:
                continue
            info = fisher_information(SimplexPoint(*p))
            assert np.all(np.linalg.eigvalsh(info) > 0)
            assert np.allclose(info, info.T)

    def test_rejects_face(self):
        with pytest.raises(DomainError):
            fisher_information(SimplexPoint(0.5, 0.5, 0.0, boundary_ok=True))


class TestTransformMap:
    def test_centroid_maps_to_origin(self):
        tmap = transform_map(CENTROID, 100)
        w = tmap(CENTROID)
        assert abs(w.x) < 1e-12 and abs(w.y) < 1e-12

    def test_model_line_maps_to_y_axis(self):
        theta0 = theta_on_line(0.7, 1)
        tmap = transform_map(theta0, 300)
        for phi in np.linspace(0.02, 1.0, 50):
            w = tmap(theta_on_line(phi, 1))
            assert abs(w.x) <= 1e-9

    def test_line_direction_angle(self):
        theta0 = theta_on_line(0.7, 1)
        tmap = transform_map(theta0, 300)
        a = tmap(theta_on_line(0.6, 1)).as_array()
        b = tmap(theta_on_line(0.8, 1)).as_array()
        angle = math.atan2(*(a - b)[::-1])
        assert abs(abs(angle) - math.pi / 2.0) < 1e-9

    def test_matches_mahalanobis(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.dirichlet([3, 3, 3])
            q = rng.dirichlet([3, 3, 3])
            theta, theta0 = SimplexPoint(*p), SimplexPoint(*q)
            tmap = transform_map(theta0, 64)
            d_map = float(np.linalg.norm(tmap(theta).as_array() - tmap(theta0).as_array()))
            assert d_map == pytest.approx(mahalanobis(theta, theta0, 64), abs=1e-9)

    def test_image_of_theta0_is_mu0y(self):
        for phi in [0.05, 0.3, 0.9, 1.0]:
            theta0 = theta_on_line(phi, 2)
            tmap = transform_map(theta0, 123)
            w = tmap(theta0)
            assert abs(w.x) < 1e-9
            assert w.y == pytest.approx(mu0y(phi, 123), abs=1e-9)

    def test_geometry_recovered_from_images(self):
        # mu0y from the image norm, alpha0 from the image of a second line
        n = 450
        for phi in np.arange(0.05, 1.0001, 0.05):
            theta0 = theta_on_line(phi, 1)
            tmap = transform_map(theta0, n)
            mu_img = tmap(theta0).norm()
            assert mu_img == pytest.approx(mu0y(phi, n), abs=1e-9)
            img2 = tmap.matrix @ np.array([-1.0, 2.0])   # line toward vertex 2
            img3 = tmap.matrix @ np.array([-1.0, -1.0])  # line toward vertex 3
            ang2 = math.atan2(img2[1], img2[0]) % (2 * math.pi)
            ang3 = math.atan2(img3[1], img3[0]) % (2 * math.pi)
            a0, b0 = angles_from_phi0(phi)
            assert ang2 - math.pi == pytest.approx(a0, abs=1e-9)
            assert 2 * math.pi - ang3 == pytest.approx(a0, abs=1e-9)
            assert 0.5 * (math.pi / 2.0 - (ang2 - math.pi)) == pytest.approx(b0, abs=1e-9)

    def test_rejects_on_face(self):
        with pytest.raises(DomainError):
            transform_map(SimplexPoint(0.5, 0.5 - 1e-13, 1e-13), 10)


class TestMahalanobis:
    def test_zero_at_same_point(self):
        assert mahalanobis(CENTROID, CENTROID, 10) == 0.0

    def test_sqrt_n_homogeneity(self):
        theta = SimplexPoint(0.5, 0.25, 0.25)
        assert mahalanobis(theta, CENTROID, 400) == pytest.approx(
            2.0 * mahalanobis(theta, CENTROID, 100), abs=1e-12)


class TestGeometryParams:
    def test_from_phi0_consistent(self):
        g = GeometryParams.from_phi0(0.8, 200)
        assert g.beta0 == pytest.approx(0.5 * (math.pi / 2 - g.alpha0), abs=1e-15)
        assert g.mu0y == pytest.approx(mu0y(0.8, 200), abs=1e-15)

    def test_inconsistent_rejected(self):
        with pytest.raises(DomainError):
            GeometryParams(phi0=0.8, mu0y=1.0, alpha0=0.4, beta0=0.1, n=100)


@given(st.floats(min_value=1.0 / 3.0, max_value=0.999999))
def test_phi_round_trip_property(p1):
    assert p1_from_phi(phi_from_p1(p1)) == pytest.approx(p1, rel=1e-12)
