"""Closed-form bias corrections.

Covers the single half-line model (boundary case), the two regular models
(polytomy, unconstrained), and the classical twice-the-parameter-count
correction.
"""

from __future__ import annotations

import math

from .geometry import DomainError, Record
from .models import POLYTOMY, UNCONSTRAINED, ModelSpec
from .special import erf

_SQRT2 = math.sqrt(2.0)

METHODS = (
    "closed-form", "plug-in", "llf", "ulf",
    "uo", "minimax", "consistent", "bootstrap", "aic",
)


class BiasEstimate(Record):
    """A bias-correction value and the method that gave it."""

    __slots__ = ("value", "method")

    def __init__(self, value: float, method: str):
        self._fill(value, method)
        if method not in METHODS:
            raise DomainError(f"unknown bias method {method!r}")


def bias_t1(mu0y: float) -> BiasEstimate:
    """Half-line bias correction 1 + erf(mu0y / sqrt(2)).

    Interpolates from 1 at the boundary (half an effective parameter) to 2
    far from it; equals twice the normal CDF at mu0y.
    """
    if mu0y < 0:
        raise DomainError("mu0y must be nonnegative")
    return BiasEstimate(1.0 + erf(mu0y / _SQRT2), "closed-form")


def bias_constant(model: ModelSpec) -> BiasEstimate:
    """Bias of the two everywhere-regular models: 0 (polytomy) or 4 (plane)."""
    if model.variant == POLYTOMY:
        return BiasEstimate(0.0, "closed-form")
    if model.variant == UNCONSTRAINED:
        return BiasEstimate(4.0, "closed-form")
    raise DomainError(f"{model.model_id} has no constant bias correction")


def bias_aic(model: ModelSpec) -> BiasEstimate:
    """Classical correction: twice the naive parameter count."""
    return BiasEstimate(2.0 * model.dim, "aic")
