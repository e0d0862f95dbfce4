"""Candidate models and their constrained MLEs on the simplex.

Five model families: a single fixed topology line (t1:1, t1:2, t1:3), the
union of all three lines (t3), the centroid point model (polytomy), the full
open simplex (unconstrained), and an abstract multiple half-lines model that
lives only in the transformed plane.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import DomainError, Record

TWO_PI = 2.0 * math.pi
# theta_in_model's slack for a point of the closure of a parameter space
_MEMBER_TOL = 1e-9

T1 = "t1"
T3 = "t3"
POLYTOMY = "polytomy"
UNCONSTRAINED = "unconstrained"
HALFLINES = "halflines"


class ModelSpec(Record):
    """One candidate model; use the module constructors rather than __init__.
    A model is equal to, and hashed like, the tuple of its fields, so two
    specs of one model, such as parse_model_id("t1") and t1_model(1), are
    equal."""

    __slots__ = ("variant", "topology", "angles")

    def __init__(self, variant: str, topology: int | None = None,
                 angles: tuple[float, ...] = ()):
        self._fill(variant, topology, angles)
        if variant not in (T1, T3, POLYTOMY, UNCONSTRAINED, HALFLINES):
            raise DomainError(f"unknown model variant {variant!r}")
        if variant == T1 and topology not in (1, 2, 3):
            raise DomainError("t1 requires a topology in {1, 2, 3}")

    def __eq__(self, other):
        if type(other) is not ModelSpec:
            return NotImplemented
        return (self.variant, self.topology, self.angles) == \
            (other.variant, other.topology, other.angles)

    def __hash__(self):
        return hash((self.variant, self.topology, self.angles))

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
    model = ModelSpec(HALFLINES, angles=angs[:-1] + (TWO_PI,))
    gaps = model.sector_gaps()
    widest = int(np.argmax(gaps))
    if gaps[widest] > gaps[0] + 1e-12:
        pivot = model.angles[widest - 1]
        relabeled = sorted(((a - pivot) % TWO_PI) or TWO_PI for a in model.angles)
        raise DomainError(
            "largest sector must precede the first ray; rotate by "
            f"{-pivot:.12g} rad, giving angles {tuple(relabeled)}"
        )
    return model


def parse_angle(token: str) -> float:
    """An angle in radians ('1.57') or as a multiple of pi ('2pi', '0.5pi',
    'pi/3', '2pi/3')."""
    s = token.strip().lower()
    head, pi, tail = s.partition("pi")
    try:
        if not pi:
            return float(s)
        value = (float(head) if head else 1.0) * math.pi
        if tail:
            if not tail.startswith("/"):
                raise ValueError
            value /= float(tail[1:])
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse angle {token!r}") from None
    return value


def parse_model_id(token: str) -> ModelSpec:
    """Inverse of ModelSpec.model_id, also accepting any case, t1 for t1:1
    and ray angles as parse_angle reads them."""
    s = token.strip().lower()
    head, colon, tail = s.partition(":")
    if head == HALFLINES:
        if not colon:
            raise DomainError("halflines model requires its ray angles: give them inline, "
                              "as halflines:2.8,4.5,2pi")
        return validate_halflines([parse_angle(t) for t in tail.split(",")])
    if head == T1:
        if not colon:
            return t1_model(1)
        if tail not in ("1", "2", "3"):
            raise DomainError(f"unknown model id {s!r}: t1 topology {tail!r} "
                              "is not 1, 2 or 3")
        return t1_model(int(tail))
    if s == T3:
        return t3_model()
    if s == POLYTOMY:
        return polytomy_model()
    if s == UNCONSTRAINED:
        return unconstrained_model()
    raise DomainError(f"unknown model id {s!r}")


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
    # + 0.0: a row whose counts all sit where p_i = 1 sums to 0.0, and -2.0 * 0.0 is -0.0
    return -2.0 * terms.sum(axis=1) + 0.0


def theta_in_model(model: ModelSpec, theta) -> bool:
    """Membership of a probability triple in the model's parameter space
    closure, within _MEMBER_TOL."""
    p = tuple(theta)
    if model.variant == UNCONSTRAINED:
        return True
    if model.variant == POLYTOMY:
        return all(abs(x - 1.0 / 3.0) <= _MEMBER_TOL for x in p)
    if model.variant == T1:
        i = model.topology - 1
        j, k = [m for m in range(3) if m != i]
        return p[i] >= p[j] - _MEMBER_TOL and abs(p[j] - p[k]) <= _MEMBER_TOL
    if model.variant == T3:
        return any(theta_in_model(t1_model(i), theta) for i in (1, 2, 3))
    raise DomainError("half-lines models have no simplex parameter space")
