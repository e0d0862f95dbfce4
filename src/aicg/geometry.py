"""Simplex geometry and the closed forms of the transformed plane.

The trinomial lives on the open 2-simplex; all cone geometry lives in a
transformed plane obtained by centering at the centroid, scaling by
sqrt(n) * I(theta0)^{1/2} (I the Fisher information in free coordinates
(p1, p2)), and rotating a distinguished model direction onto the +y axis.
Under that map the centroid goes to the origin and a generating parameter on
a model line goes to (0, mu0y), its Mahalanobis distance from the centroid.
This module holds that map's closed forms on the model lines: mu0y and its
inverse phi_from_mu0y, and the cone angle alpha_from_phi0, each elementwise.
The package needs no matrix form of the map.  A simplex point is a plain
probability triple; theta_on_line gives the one at phi0 on a topology line.
"""

from __future__ import annotations

import math

import numpy as np

_PHI_MIN = 1e-12  # phi0 at or below this is unattainable from a distance mu0y


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def require_distinct(labels: list[str] | tuple[str, ...], what: str) -> None:
    """Raise DomainError on the first label that repeats: results keyed by
    label would otherwise merge the repeats."""
    repeats = [x for i, x in enumerate(labels) if x in labels[:i]]
    if repeats:
        raise DomainError(f"{what} {repeats[0]!r} is repeated")


class Record:
    """Base of the package's immutable records: models.ModelSpec and
    estimators.EstimatorRule, which check their fields, and the results of
    selection.  Each record's __init__ sets its slots once, through _fill;
    assignment afterwards raises.  Records compare by identity;
    models.ModelSpec compares by value, so two specs of one model are equal.

    Plain slotted classes rather than dataclasses, which compile and run
    generated methods each time their module is imported.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the slots, in __slots__ order, to values."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_phi(phi0) -> np.ndarray:
    """phi0 as an array, each element of which must lie in (0, 1]."""
    phi = np.asarray(phi0, dtype=float)
    if not np.all((phi > 0.0) & (phi <= 1.0)):
        raise DomainError(f"phi0={phi0!r} outside (0, 1]")
    return phi


def mu0y(phi0, n: float):
    """Mahalanobis distance of the generating parameter from the centroid,
    elementwise in phi0 (scalars in give floats out).

    mu0y = sqrt(2n) (1 - phi0) / sqrt(phi0 (3 - 2 phi0)).
    """
    phi = _check_phi(phi0)
    if n < 1:
        raise DomainError("sample size must be >= 1")
    mu = math.sqrt(2.0 * n) * (1.0 - phi) / np.sqrt(phi * (3.0 - 2.0 * phi))
    return float(mu) if mu.ndim == 0 else mu


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


def alpha_from_phi0(phi0):
    """Cone angle alpha0 = arctan(1 / sqrt(3 (3 - 2 phi0))) of the three-line
    geometry at phi0, elementwise (scalars in give floats out)."""
    phi = _check_phi(phi0)
    alpha0 = np.arctan(1.0 / np.sqrt(3.0 * (3.0 - 2.0 * phi)))
    return float(alpha0) if alpha0.ndim == 0 else alpha0


def theta_on_line(phi0: float, topology: int = 1) -> tuple[float, float, float]:
    """The simplex point at parameter phi0 on the given topology line: its
    largest component 1 - (2/3) phi0 at the topology's index, and the other
    two equal."""
    _check_phi(phi0)
    if topology not in (1, 2, 3):
        raise DomainError(f"topology must be 1, 2 or 3, got {topology!r}")
    big = 1.0 - 2.0 * phi0 / 3.0
    small = (1.0 - big) / 2.0
    ps = [small, small, small]
    ps[topology - 1] = big
    return tuple(ps)
