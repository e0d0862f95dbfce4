"""Closed-form bias corrections.

Covers the single half-line model (boundary case), the multiple half-lines
model at its singularity, the two regular models (polytomy, unconstrained),
and the classical twice-the-parameter-count correction.
"""

from __future__ import annotations

import math

from .geometry import DomainError, Record
from .models import HALFLINES, POLYTOMY, T1, T3, UNCONSTRAINED, ModelSpec
from .special import erf, erfc, norm_cdf  # noqa: F401  (erf is part of this module's API)

_SQRT2 = math.sqrt(2.0)

METHODS = (
    "closed-form", "monte-carlo", "plug-in", "llf", "ulf",
    "uo", "minimax", "consistent", "bootstrap", "aic",
)
_STOCHASTIC = ("monte-carlo",)


class BiasEstimate(Record):
    """A bias-correction value and the method that gave it; a Monte Carlo
    estimate also holds its standard error and its least draw."""

    __slots__ = ("value", "method", "std_error", "min_draw")

    def __init__(self, value: float, method: str, std_error: float | None = None,
                 min_draw: float | None = None):
        self._fill(value, method, std_error, min_draw)
        if method not in METHODS:
            raise DomainError(f"unknown bias method {method!r}")
        if (std_error is not None) != (method in _STOCHASTIC):
            raise DomainError("std_error is required exactly for Monte Carlo methods")


def bias_t1(mu0y: float) -> BiasEstimate:
    """Half-line bias correction 1 + erf(mu0y / sqrt(2)).

    Interpolates from 1 at the boundary (half an effective parameter) to 2
    far from it; equals twice the normal CDF at mu0y.
    """
    if mu0y < 0:
        raise DomainError("mu0y must be nonnegative")
    return BiasEstimate(1.0 + erf(mu0y / _SQRT2), "closed-form")


def bias_halflines_at_singularity(model: ModelSpec) -> BiasEstimate:
    """Bias correction of a validated half-lines model at the origin.

    With sector gaps phi_i (phi_1 the largest):
      2 + (1/pi) sum_i sin(phi_i)                  for phi_1 in (0, pi]
      3 + (1/pi) (sum_{i>=2} sin(phi_i) - phi_1)   for phi_1 in (pi, 2pi]
    """
    if model.variant != HALFLINES:
        raise DomainError("expected a half-lines model")
    gaps = model.sector_gaps()
    phi1 = gaps[0]
    if phi1 <= math.pi:
        value = 2.0 + sum(math.sin(g) for g in gaps) / math.pi
    else:
        value = 3.0 + (sum(math.sin(g) for g in gaps[1:]) - phi1) / math.pi
    return BiasEstimate(value, "closed-form")


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


def singularity_bias(model: ModelSpec) -> float:
    """Bias value at the model's boundary/singularity (the origin)."""
    if model.variant == T1:
        return 1.0
    if model.variant == T3:
        return 2.0 + 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
    if model.variant == HALFLINES:
        return bias_halflines_at_singularity(model).value
    return bias_constant(model).value
