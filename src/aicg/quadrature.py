"""The three-ray (t3) bias correction by closed-form radial moments and
fixed Gauss-Legendre rules.

The t3 bias is a 1-D error-function-weighted Gaussian integral along the
axis plus a 2-D polar integral.  Completing the square in the polar term,
r^2 - 2 mu r sin(phi) + mu^2 = (r - a)^2 + mu^2 cos^2(phi) with
a = mu sin(phi), turns its inner radial integral into truncated Gaussian
moments M_k = int_0^inf r^k exp(-(r - a)^2 / 2) dr, which obey

    M_0 = sqrt(pi/2) (1 + erf(a / sqrt(2))),   M_1 = a M_0 + exp(-a^2 / 2),
    M_{k+1} = a M_k + k M_{k-1}.

That leaves two smooth 1-D integrals: the axis term, truncated to
mu0y +- r_max_offset where the Gaussian tail is far below any usable
tolerance, and the angular term.  Both are evaluated with a 64-node and a
128-node Gauss-Legendre rule; the 128-node value is returned, and a
difference between the two above a term's share of abs_tol raises
ConvergenceError.  Every (mu0y, alpha0) row of a batch goes through one
vectorized evaluation, so a whole grid costs one erf call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import BiasEstimate
from .geometry import DomainError
from .special import erf

_SQRT2 = math.sqrt(2.0)
_RULE_SIZES = (64, 128)  # coarse and fine Gauss-Legendre rules
_AXIS_PANEL = 24.0       # widest axis panel the coarse rule resolves to ~1e-14
_NEWTON_STEPS = 8        # evaluations at most; from Tricomi's estimate three suffice


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-8
    r_max_offset: float = 12.0

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.r_max_offset < 8:
            raise DomainError("r_max_offset must be at least 8")


class ConvergenceError(RuntimeError):
    """The coarse and fine rules disagree beyond the tolerance; carries the
    fine rule's estimate."""

    def __init__(self, message: str, best: float):
        super().__init__(message)
        self.best = best


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_{n-1}(x) and P_n(x) for 0 < x < 1 by the three-term recurrence.

    Where x >= 1/2 the recurrence runs on the differences
    D_k = P_k - P_{k-1}, D_{k+1} = (k D_k - (2k + 1)(1 - x) P_k) / (k + 1),
    in which 1 - x is exact (Reinsch's modification): near x = 1 the plain
    recurrence loses about 1e-12 of relative accuracy at n = 128, which the
    weights would inherit.  Below 1/2, where 1 - x would round, the plain
    recurrence is accurate.
    """
    outer = x >= 0.5
    u = np.where(outer, 1.0 - x, 0.0)
    d = -u
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        d = (k * d - (2 * k + 1) * u * p1) / (k + 1)
        p0, p1 = p1, np.where(outer, p1 + d, ((2 * k + 1) * x * p1 - k * p0) / (k + 1))
    return p0, p1


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-node Gauss-Legendre rule, n even.

    Newton's iteration on P_n from Tricomi's estimate of the positive roots,
    all roots at once; the negative half mirrors them.  The weight
    2 / g(x) with g = (1 - x^2) P_n'(x)^2 is evaluated at the last iterate x
    and carried to the root x - dx by g'/g = 2x / (1 - x^2): near x = 1 the
    half-ulp between a double and the root would otherwise move the weight by
    up to 1e-12 relative.
    """
    i = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(_NEWTON_STEPS):
        p0, p1 = _legendre_pair(n, x)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2
        dx = p1 / dp
        if np.max(np.abs(dx)) < 1e-12:  # the next step leaves x within an ulp
            break
        x = x - dx
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n={n} did not converge")
    w = 2.0 / (one_minus_x2 * dp * dp * (1.0 - 2.0 * x * dx / one_minus_x2))
    x = x - dx
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the coarse and the fine rule on [-1, 1] side by side, and a
    (nodes, 2) weight matrix: column 0 weighs the coarse nodes, column 1 the
    fine ones.

    Built on first use from _legendre_rule, a few milliseconds of vectorized
    Newton steps: no eigensolver and no numpy.polynomial import.
    """
    (xc, wc), (xf, wf) = (_legendre_rule(k) for k in _RULE_SIZES)
    w = np.zeros((xc.size + xf.size, 2))
    w[:xc.size, 0] = wc
    w[xc.size:, 1] = wf
    return np.concatenate([xc, xf]), w


def _radial_moments(a: np.ndarray, erf_a: np.ndarray) -> tuple[np.ndarray, ...]:
    """M_0..M_3 of exp(-(r - a)^2 / 2) over r >= 0, given erf(a / sqrt(2))."""
    m0 = math.sqrt(0.5 * math.pi) * (1.0 + erf_a)
    m1 = a * m0 + np.exp(-0.5 * a * a)
    m2 = a * m1 + m0
    m3 = a * m2 + 2.0 * m1
    return m0, m1, m2, m3


def _t3_terms(mu: np.ndarray, alpha0: np.ndarray,
              r_max_offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Axis and angular terms for each (mu, alpha0) row, as (rows, 2) arrays
    holding the coarse and the fine rule's value."""
    x, w = _gauss_legendre()
    mu = mu[:, None]
    alpha0 = alpha0[:, None]
    beta0 = 0.5 * (0.5 * math.pi - alpha0)

    # the axis term integrates over d = y - mu0y, truncated on both sides of
    # the Gaussian bump at d = 0: the left tail below -offset is bounded by
    # the same e^{-offset^2/2} factor as the right one.  The window is cut
    # into panels no wider than _AXIS_PANEL, so the fixed rules resolve the
    # unit-width bump whatever the offset
    panels = math.ceil(2.0 * r_max_offset / _AXIS_PANEL)
    t_axis = ((np.arange(panels)[:, None] + 0.5 * (1.0 + x)) / panels).ravel()
    w_axis = np.tile(w, (panels, 1)) / panels
    d_lo = np.maximum(-mu, -r_max_offset)
    d_width = r_max_offset - d_lo
    d = d_lo + d_width * t_axis
    phi_half = 0.5 * (beta0 + 0.5 * math.pi)
    phi = phi_half * (1.0 + x) - 0.5 * math.pi
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    a = mu * sin_phi

    erfs = erf(np.concatenate([(mu + d) / (np.tan(beta0) * _SQRT2), a / _SQRT2], axis=1))
    erf_axis, erf_a = erfs[:, :t_axis.size], erfs[:, t_axis.size:]

    f_axis = d * d * np.exp(-0.5 * d * d) * erf_axis
    # the rule sums are einsum's fixed-order loops, not a BLAS product, whose
    # blocking (and so a row's last bits) depends on how many rows share the call
    term1 = math.sqrt(2.0 / math.pi) * 0.5 * d_width * np.einsum("ij,jk->ik", f_axis, w_axis)

    _, m1, m2, m3 = _radial_moments(a, erf_a)
    c = np.cos(phi + alpha0)
    f_angular = np.exp(-0.5 * (mu * cos_phi) ** 2) * (
        c * c * m3 - mu * (sin_phi - np.sin(alpha0) * c) * m2 + mu * mu * m1)
    term2 = (2.0 / math.pi) * phi_half * np.einsum("ij,jk->ik", f_angular, w)
    return term1, term2


def bias_t3_batch(mu0y, alpha0,
                  settings: QuadratureSettings = QuadratureSettings()) -> np.ndarray:
    """t3 bias correction for each (mu0y, alpha0) pair, broadcast together.

    Raises ConvergenceError when, for some pair, either term's coarse and
    fine rules differ by more than half of settings.abs_tol.
    """
    mu, alpha = np.broadcast_arrays(np.atleast_1d(np.asarray(mu0y, dtype=float)),
                                    np.atleast_1d(np.asarray(alpha0, dtype=float)))
    if mu.ndim != 1:
        raise DomainError("mu0y and alpha0 must be scalars or 1-D arrays")
    if np.any(mu < 0):
        raise DomainError("mu0y must be nonnegative")
    if not np.all((alpha > 0.0) & (alpha <= math.pi / 6.0 + 1e-12)):
        raise DomainError("alpha0 must lie in (0, pi/6]")
    term1, term2 = _t3_terms(mu, alpha, settings.r_max_offset)
    values = term1[:, 1] + term2[:, 1]
    share = 0.5 * settings.abs_tol
    off = (np.abs(term1[:, 1] - term1[:, 0]) > share) | (np.abs(term2[:, 1] - term2[:, 0]) > share)
    if np.any(off):
        k = int(np.argmax(off))
        raise ConvergenceError(
            f"t3 bias at mu0y={mu[k]:.17g}: the {_RULE_SIZES[0]}- and {_RULE_SIZES[1]}-node "
            f"rules differ by more than abs_tol={settings.abs_tol:g}", float(values[k]))
    return values


def bias_t3(mu0y: float, alpha0: float,
            settings: QuadratureSettings = QuadratureSettings()) -> BiasEstimate:
    """t3 bias correction at one point: the one-row case of bias_t3_batch."""
    value = float(bias_t3_batch(mu0y, alpha0, settings)[0])
    u = settings.r_max_offset
    tail_bound = (u * u + mu0y * mu0y + 4.0) * math.exp(-0.5 * u * u)
    return BiasEstimate(
        value, "quadrature",
        settings={
            "model": "t3", "mu0y": mu0y, "alpha0": alpha0,
            "abs_tol": settings.abs_tol, "r_max": mu0y + u,
            "tail_bound": tail_bound,
        })


@lru_cache(maxsize=4096)
def bias_t3_value(mu0y: float, alpha0: float,
                  settings: QuadratureSettings = QuadratureSettings()) -> float:
    """Memoized scalar t3 bias; safe because bias_t3 is a pure function."""
    return bias_t3(mu0y, alpha0, settings).value
