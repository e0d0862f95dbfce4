"""Candidate models, constrained MLEs on the simplex, and cone projection.

Five model families: a single fixed topology line (t1:1, t1:2, t1:3), the
union of all three lines (t3), the centroid point model (polytomy), the full
open simplex (unconstrained), and an abstract multiple half-lines model that
lives only in the transformed plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Counts,
    DomainError,
    GeometryParams,
    SimplexPoint,
    TransformedPoint,
)

TWO_PI = 2.0 * math.pi

T1 = "t1"
T3 = "t3"
POLYTOMY = "polytomy"
UNCONSTRAINED = "unconstrained"
HALFLINES = "halflines"


@dataclass(frozen=True)
class ModelSpec:
    """One candidate model; use the module constructors rather than __init__."""

    variant: str
    topology: int | None = None
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        if self.variant not in (T1, T3, POLYTOMY, UNCONSTRAINED, HALFLINES):
            raise DomainError(f"unknown model variant {self.variant!r}")
        if self.variant == T1 and self.topology not in (1, 2, 3):
            raise DomainError("t1 requires a topology in {1, 2, 3}")

    @property
    def model_id(self) -> str:
        if self.variant == T1:
            return f"t1:{self.topology}"
        if self.variant == HALFLINES:
            return "halflines:" + ",".join(f"{a:.12g}" for a in self.angles)
        return self.variant

    @property
    def dim(self) -> int:
        """Naive parameter count of the simplex model (line = 1, plane = 2)."""
        return {T1: 1, T3: 1, HALFLINES: 1, POLYTOMY: 0, UNCONSTRAINED: 2}[self.variant]

    def sector_gaps(self) -> tuple[float, ...]:
        if self.variant != HALFLINES:
            raise DomainError("sector gaps only defined for half-lines models")
        prev = 0.0
        gaps = []
        for a in self.angles:
            gaps.append(a - prev)
            prev = a
        return tuple(gaps)


def t1_model(topology: int) -> ModelSpec:
    return ModelSpec(T1, topology=topology)


def t3_model() -> ModelSpec:
    return ModelSpec(T3)


def polytomy_model() -> ModelSpec:
    return ModelSpec(POLYTOMY)


def unconstrained_model() -> ModelSpec:
    return ModelSpec(UNCONSTRAINED)


def validate_halflines(angles) -> ModelSpec:
    """Validate ray angles for the half-lines model.

    Angles must be strictly increasing in (0, 2pi], end at 2pi, and the
    largest sector must be the one between the +x axis and the first ray.
    A violation of the largest-sector convention raises with the rotation
    that fixes it (the model itself is fine, just labeled nonconventionally).
    """
    angs = tuple(float(a) for a in angles)
    if not angs:
        raise DomainError("half-lines model needs at least one ray")
    for a in angs:
        if not 0.0 < a <= TWO_PI + 1e-12:
            raise DomainError(f"ray angle {a!r} outside (0, 2pi]")
    for lo, hi in zip(angs, angs[1:]):
        if hi <= lo:
            raise DomainError("ray angles must be strictly increasing")
    if abs(angs[-1] - TWO_PI) > 1e-12:
        raise DomainError("last ray angle must equal 2pi")
    angs = angs[:-1] + (TWO_PI,)

    gaps = []
    prev = 0.0
    for a in angs:
        gaps.append(a - prev)
        prev = a
    widest = int(np.argmax(gaps))
    if gaps[widest] > gaps[0] + 1e-12:
        pivot = angs[widest - 1]
        relabeled = sorted(((a - pivot) % TWO_PI) or TWO_PI for a in angs)
        raise DomainError(
            "largest sector must precede the first ray; rotate by "
            f"{-pivot:.12g} rad, giving angles {tuple(relabeled)}"
        )
    return ModelSpec(HALFLINES, angles=angs)


@dataclass(frozen=True)
class MLEResult:
    estimate: SimplexPoint
    neg2loglik: float
    at_vertex_of_cone: bool
    topology: int | None = None  # which line carries the estimate (t1/t3)


def mle_rows(model: ModelSpec, counts) -> tuple[np.ndarray, np.ndarray | None]:
    """Constrained maximum likelihood on the simplex for an (N, 3) array of
    counts: the (N, 3) estimates and, for the line models, the 0-based index
    of the line carrying each estimate (None for the other models).

    t1:i clamps p_i at 1/3 from below with the other two equal; t3 fits the
    line of the largest count, ties going to the smallest index (tied lines
    give the same likelihood); polytomy is the centroid; unconstrained is the
    sample mean (closure points allowed).
    """
    if model.variant == HALFLINES:
        raise DomainError("half-lines models have no simplex parametrization")
    counts = np.asarray(counts, dtype=float)
    if model.variant == POLYTOMY:
        return np.full_like(counts, 1.0 / 3.0), None
    n = counts.sum(axis=1)
    if model.variant == UNCONSTRAINED:
        return counts / n[:, None], None
    if model.variant == T1:
        line = np.full(len(counts), model.topology - 1)
    else:
        line = np.argmax(counts, axis=1)
    rows = np.arange(len(counts))
    big = np.maximum(counts[rows, line] / n, 1.0 / 3.0)
    theta = np.repeat(((1.0 - big) / 2.0)[:, None], 3, axis=1)
    theta[rows, line] = big
    return theta, line


def neg2loglik_rows(counts, theta) -> np.ndarray:
    """-2 sum n_i log p_i per row, with 0 log 0 = 0; +inf when n_i > 0 meets
    p_i = 0."""
    counts = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log(theta), 0.0)
    return -2.0 * terms.sum(axis=1)


def neg2loglik_at(counts: Counts, p: SimplexPoint) -> float:
    """One-row case of neg2loglik_rows."""
    return float(neg2loglik_rows(counts.as_array()[None], np.array([p.as_tuple()]))[0])


def mle_simplex(model: ModelSpec, counts: Counts) -> MLEResult:
    """One-row case of mle_rows, as an MLEResult."""
    c = counts.as_array()[None]
    theta, line = mle_rows(model, c)
    est = SimplexPoint(*theta[0].tolist(), boundary_ok=True)
    at_vertex = bool(np.all(np.abs(theta[0] - 1.0 / 3.0) < 1e-15))
    topology = None if line is None else int(line[0]) + 1
    return MLEResult(est, float(neg2loglik_rows(c, theta)[0]), at_vertex, topology)


@dataclass(frozen=True)
class Cone:
    """Transformed-plane image of a model's parameter space near the origin."""

    kind: str  # "rays" | "point" | "plane"
    angles: tuple[float, ...] = ()

    def directions(self) -> np.ndarray:
        a = np.array(self.angles)
        dirs = np.column_stack([np.cos(a), np.sin(a)])
        # snap the ~1e-16 crumbs at axis-aligned angles so axis rays are exact
        dirs[np.abs(dirs) < 1e-15] = 0.0
        return dirs


def cone_of(model: ModelSpec, geometry: GeometryParams | None = None) -> Cone:
    """Ray set of the model in the transformed plane.

    t3 needs cone geometry (its off-axis ray angles depend on alpha0); by
    convention the line through the generating parameter sits on the +y axis.
    """
    if model.variant == T1:
        return Cone("rays", (0.5 * math.pi,))
    if model.variant == T3:
        if geometry is None:
            raise DomainError("t3 cone requires geometry (alpha0)")
        return t3_cone(geometry.alpha0)
    if model.variant == POLYTOMY:
        return Cone("point")
    if model.variant == UNCONSTRAINED:
        return Cone("plane")
    return Cone("rays", tuple(sorted(a % TWO_PI or TWO_PI for a in model.angles)))


def t3_cone(alpha0: float) -> Cone:
    """The t3 cone at angle alpha0 in (0, pi/6]: rays at pi/2, pi + alpha0 and
    2pi - alpha0, in increasing order."""
    return Cone("rays", (0.5 * math.pi, math.pi + alpha0, TWO_PI - alpha0))


def project_points(cone: Cone, points: np.ndarray) -> np.ndarray:
    """Euclidean projection of an (N, 2) array onto the cone, vectorized.

    Per ray with unit direction d the candidate is max(0, w.d) d; the
    winning candidate minimizes the distance, ties going to the smallest
    ray angle.  A point cone projects to the origin, the plane to itself.
    """
    pts = np.asarray(points, dtype=float)
    if cone.kind == "point":
        return np.zeros_like(pts)
    if cone.kind == "plane":
        return pts.copy()
    dirs = cone.directions()  # sorted by angle, so argmin tie-break is by angle
    t = np.clip(pts @ dirs.T, 0.0, None)
    if len(dirs) == 1:  # the t1 cone: nothing to choose between
        return t * dirs[0]
    # ||w - t d||^2 = ||w||^2 - t^2 once t is the clipped inner product
    best = np.argmin(-t * t, axis=1)
    return t[np.arange(len(pts)), best, None] * dirs[best]


def projected_distances(cone: Cone, points: np.ndarray) -> np.ndarray:
    """||project_points(cone, points)|| per row, without forming the projection.

    For a ray cone the winning candidate has the largest clipped inner
    product t (||w - t d||^2 = ||w||^2 - t^2), and its norm is t itself, so
    the distance is max(0, max_k w.d_k).  The inner products are formed
    elementwise, not by a BLAS product, so each row's bits are its own.  A
    point cone gives 0, the plane ||w||.
    """
    pts = np.asarray(points, dtype=float)
    if cone.kind == "point":
        return np.zeros(len(pts))
    if cone.kind == "plane":
        return np.linalg.norm(pts, axis=1)
    x, y = pts[:, 0], pts[:, 1]
    dist = np.zeros(len(pts))
    for dx, dy in cone.directions().tolist():
        np.maximum(dist, x * dx + y * dy, out=dist)
    return dist


def project_transformed(cone: Cone, w: TransformedPoint) -> TransformedPoint:
    out = project_points(cone, w.as_array()[None, :])[0]
    return TransformedPoint(float(out[0]), float(out[1]))


def theta_in_model(model: ModelSpec, theta: SimplexPoint, tol: float = 1e-9) -> bool:
    """Membership of a simplex point in the model's parameter space closure."""
    p = theta.as_tuple()
    if model.variant == UNCONSTRAINED:
        return True
    if model.variant == POLYTOMY:
        return all(abs(x - 1.0 / 3.0) <= tol for x in p)
    if model.variant == T1:
        i = model.topology - 1
        j, k = [m for m in range(3) if m != i]
        return p[i] >= p[j] - tol and abs(p[j] - p[k]) <= tol
    if model.variant == T3:
        return any(theta_in_model(t1_model(i), theta, tol) for i in (1, 2, 3))
    raise DomainError("half-lines models have no simplex parameter space")
