"""Simplex geometry and the closed forms of the transformed plane.

The trinomial lives on the open 2-simplex; all cone geometry lives in a
transformed plane obtained by centering at the centroid, scaling by
sqrt(n) * I(theta0)^{1/2} (I the Fisher information in free coordinates
(p1, p2)), and rotating a distinguished model direction onto the +y axis.
Under that map the centroid goes to the origin and a generating parameter on
a model line goes to (0, mu0y), its Mahalanobis distance from the centroid.
This module holds that map's closed forms on the model lines (phi0, mu0y and
the cone angles); the package needs no matrix form of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INTERIOR_TOL = 1e-9  # points with min(p_i) below this are treated as on-face
_PHI_MIN = 1e-12  # phi0 at or below this is unattainable from a distance mu0y
_CENTROID = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class SimplexPoint:
    """A probability triple on the 2-simplex.

    Strictly interior by default; pass ``boundary_ok=True`` to admit closure
    points (zero components), e.g. unconstrained MLEs at extreme counts.
    """

    p1: float
    p2: float
    p3: float
    boundary_ok: bool = False

    def __post_init__(self):
        total = self.p1 + self.p2 + self.p3
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        lo = 0.0 if self.boundary_ok else float(np.nextafter(0.0, 1.0))
        for p in (self.p1, self.p2, self.p3):
            if not (p >= lo and math.isfinite(p)):
                raise DomainError(f"probability {p!r} outside the simplex")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    def free_coords(self) -> np.ndarray:
        return np.array([self.p1, self.p2])

    def is_interior(self, tol: float = INTERIOR_TOL) -> bool:
        return min(self.p1, self.p2, self.p3) >= tol


CENTROID = SimplexPoint(*_CENTROID)


@dataclass(frozen=True)
class Counts:
    """An observed trinomial sample."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for c in (self.n1, self.n2, self.n3):
            if c != int(c) or c < 0:
                raise DomainError(f"count {c!r} is not a nonnegative integer")
        if self.n < 1:
            raise DomainError("total count must be at least 1")

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3

    def as_array(self) -> np.ndarray:
        return np.array([self.n1, self.n2, self.n3], dtype=float)

    def mean(self) -> SimplexPoint:
        n = self.n
        return SimplexPoint(self.n1 / n, self.n2 / n, self.n3 / n, boundary_ok=True)


@dataclass(frozen=True)
class TransformedPoint:
    """A point of the transformed plane, in Mahalanobis units."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError("transformed coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def phi_from_p1(p1: float) -> float:
    """Branch-length-like parameter phi0 = (3/2)(1 - p1), for p1 in [1/3, 1)."""
    if not 1.0 / 3.0 <= p1 < 1.0:
        raise DomainError(f"p1={p1!r} outside [1/3, 1)")
    return 1.5 * (1.0 - p1)


def p1_from_phi(phi0: float) -> float:
    """Inverse of :func:`phi_from_p1`: p1 = 1 - (2/3) phi0."""
    _check_phi(phi0)
    return 1.0 - 2.0 * phi0 / 3.0


def _check_phi(phi0: float) -> None:
    if not 0.0 < phi0 <= 1.0:
        raise DomainError(f"phi0={phi0!r} outside (0, 1]")


def mu0y(phi0: float, n: float) -> float:
    """Mahalanobis distance of the generating parameter from the centroid.

    mu0y = sqrt(2n) (1 - phi0) / sqrt(phi0 (3 - 2 phi0)).
    """
    _check_phi(phi0)
    if n < 1:
        raise DomainError("sample size must be >= 1")
    return math.sqrt(2.0 * n) * (1.0 - phi0) / math.sqrt(phi0 * (3.0 - 2.0 * phi0))


def phi_from_mu0y(mu, n: float):
    """Invert mu0y(., n), elementwise in mu (scalars in give floats out).

    Squaring mu = sqrt(2n) (1 - phi) / sqrt(phi (3 - 2 phi)) gives
    (2n + 2 mu^2) phi^2 - (4n + 3 mu^2) phi + 2n = 0.  Its smaller root,
    written without cancellation,

        phi = 4n / (4n + 3 mu^2 + mu sqrt(8n + 9 mu^2)),

    lies in (0, 1] and is the one on which mu0y is the given distance.
    Distances whose phi0 would fall to _PHI_MIN or below are unattainable.
    """
    m = np.asarray(mu, dtype=float)
    if not np.all(m >= 0.0):
        raise DomainError("mu0y must be nonnegative")
    if n < 1:
        raise DomainError("sample size must be >= 1")
    with np.errstate(over="ignore"):
        mm = m * m
        phi = 4.0 * n / (4.0 * n + 3.0 * mm + m * np.sqrt(8.0 * n + 9.0 * mm))
    low = phi <= _PHI_MIN
    if np.any(low):
        raise DomainError(f"mu0y={float(m[low].flat[0])!r} unattainable for n={n!r}")
    return float(phi) if phi.ndim == 0 else phi


def angles_from_phi0(phi0):
    """Cone angles (alpha0, beta0) of the three-line geometry at phi0,
    elementwise (scalars in give floats out).

    alpha0 = arctan(1 / sqrt(3 (3 - 2 phi0))), beta0 = (pi/2 - alpha0) / 2.
    """
    phi = np.asarray(phi0, dtype=float)
    if not np.all((phi > 0.0) & (phi <= 1.0)):
        raise DomainError(f"phi0={phi0!r} outside (0, 1]")
    alpha0 = np.arctan(1.0 / np.sqrt(3.0 * (3.0 - 2.0 * phi)))
    beta0 = 0.5 * (0.5 * math.pi - alpha0)
    if phi.ndim == 0:
        return float(alpha0), float(beta0)
    return alpha0, beta0


@dataclass(frozen=True)
class GeometryParams:
    """Derived geometry of a generating parameter on a model line."""

    phi0: float
    mu0y: float
    alpha0: float
    beta0: float
    n: float

    def __post_init__(self):
        _check_phi(self.phi0)
        if abs(self.beta0 - 0.5 * (0.5 * math.pi - self.alpha0)) > 1e-12:
            raise DomainError("beta0 must equal (pi/2 - alpha0)/2")
        a_expected = math.atan(1.0 / math.sqrt(3.0 * (3.0 - 2.0 * self.phi0)))
        if abs(self.alpha0 - a_expected) > 1e-12:
            raise DomainError("alpha0 inconsistent with phi0")
        if (self.mu0y == 0.0) != (self.phi0 == 1.0) and abs(self.phi0 - 1.0) > 1e-12:
            if self.mu0y == 0.0:
                raise DomainError("mu0y = 0 requires phi0 = 1")

    @classmethod
    def from_phi0(cls, phi0: float, n: float) -> "GeometryParams":
        alpha0, beta0 = angles_from_phi0(phi0)
        return cls(phi0=phi0, mu0y=mu0y(phi0, n), alpha0=alpha0, beta0=beta0, n=n)

    @classmethod
    def from_mu0y(cls, mu: float, n: float) -> "GeometryParams":
        return cls.from_phi0(phi_from_mu0y(mu, n), n)


def theta_on_line(phi0: float, topology: int = 1) -> SimplexPoint:
    """The simplex point at parameter phi0 on the given topology line."""
    _check_phi(phi0)
    big = p1_from_phi(phi0)
    small = (1.0 - big) / 2.0
    ps = [small, small, small]
    ps[topology - 1] = big
    return SimplexPoint(*ps)
