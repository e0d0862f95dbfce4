"""Bias corrections of ray cones, one Gaussian expectation per ray, by fixed
Gauss-Legendre rules.

For z ~ N(mu0, I) and P the projection onto a cone of rays, the correction
2 E[(z - mu0).(P z - mu0)] is 2 E[(z - mu0).P z].  On the sector of ray k,
bounded by the bisectors to its neighbours, P z = t d_k, t = <z, d_k>, and
(z - mu0).P z = t (t - m_k).  There t and s = <z, d_k-perp> are independent
N(m_k, 1) and N(s_k, 1), (m_k, s_k) the coordinates of mu0, and the sector is
t > 0, -t tan b- <= s <= t tan b+, b-+ the half-angles to the bisectors capped
at pi/2 (past a right angle from every ray, P z = 0).  The bias is then

    2 sum_k int_0^inf t (t - m_k) phi(t - m_k) [Phi(t tan b+ - s_k) - Phi(-t tan b- - s_k)] dt,

each integral truncated to m_k +- r_max_offset within t >= 0.  A 64-node and
a 128-node Gauss-Legendre rule evaluate it; the 128-node value is returned,
and rules that differ by more than abs_tol in all raise ConvergenceError.
Where tan b exceeds 3, Phi(t tan b - s) steps over a width 1/tan b, and that
ray's window is cut into panels around the step.
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
_PANEL = 24.0            # widest panel the coarse rule resolves to ~1e-14
_ROW_BLOCK = 32          # rows per vectorized block, which bounds the temporaries
_NEWTON_STEPS = 8        # evaluations at most; from Tricomi's estimate three suffice
# A sector edge with tan b above _STEEP steps over a width 1/tan b too narrow
# for one panel, so its window is cut at the step and at _STEP_WIDTHS widths
# either side.  t3's edges have tan b <= 3, as alpha0 >= arctan(1/3).
_STEEP = 3.0
_STEP_WIDTHS = np.array([0.0, -1.0, 1.0, -4.0, 4.0, -16.0, 16.0])


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


def _integrand(t: np.ndarray, m: np.ndarray, s: np.ndarray, tan_ccw: np.ndarray,
               tan_cw: np.ndarray) -> np.ndarray:
    """t (t - m) e^{-(t - m)^2/2} [erf((t tan b+ - s)/sqrt2) - erf((-t tan b- - s)/sqrt2)]
    at the nodes t, whose last axis runs over the nodes of one (row, ray)."""
    erfs = erf(np.concatenate([t * tan_ccw - s, -t * tan_cw - s], axis=-1) / _SQRT2)
    d = t - m[..., None]
    return t * d * np.exp(-0.5 * d * d) * (erfs[..., :t.shape[-1]] - erfs[..., t.shape[-1]:])


def _graded_terms(m: np.ndarray, s: np.ndarray, tan_ccw: np.ndarray, tan_cw: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray, panels: int) -> np.ndarray:
    """The (pairs, 2) coarse and fine integrals of (row, ray) pairs with a
    steep side, on the window's panels cut again around each steep step."""
    x, w = _gauss_legendre()
    tans = np.stack([tan_ccw, tan_cw], axis=1)
    # Phi(t tan b+ - s) steps at t = s / tan b+, Phi(-t tan b- - s) at -s / tan b-
    steps = np.stack([s, -s], axis=1) / tans
    cuts = np.where((tans > _STEEP)[..., None],
                    steps[..., None] + _STEP_WIDTHS / tans[..., None],
                    lo[:, None, None]).reshape(len(m), -1)
    even = lo[:, None] + (hi - lo)[:, None] * (np.arange(panels + 1) / panels)
    breaks = np.sort(np.concatenate([even, np.clip(cuts, lo[:, None], hi[:, None])], axis=1),
                     axis=1)
    h = np.diff(breaks, axis=1)
    t = breaks[:, :-1, None] + h[..., None] * (0.5 * (1.0 + x))
    f = _integrand(t, m[:, None], s[:, None, None], tan_ccw[:, None, None],
                   tan_cw[:, None, None]) * h[..., None]
    return (0.5 / math.sqrt(2.0 * math.pi)) * np.einsum(
        "ij,jc->ic", f.reshape(len(m), -1), np.tile(w, (h.shape[1], 1)))


def _ray_terms(points: np.ndarray, angles: np.ndarray, r_max_offset: float) -> np.ndarray:
    """Each ray's integral for each row, a (rows, rays, 2) array holding the
    coarse and the fine rule's value."""
    x, w = _gauss_legendre()
    gaps = np.diff(angles, axis=1, append=angles[:, :1] + 2.0 * math.pi)
    tan_ccw = np.tan(np.minimum(0.5 * gaps, 0.5 * math.pi))
    tan_cw = np.roll(tan_ccw, 1, axis=1)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    m = points[:, :1] * cos_a + points[:, 1:] * sin_a
    s = points[:, 1:] * cos_a - points[:, :1] * sin_a
    panels = math.ceil(2.0 * r_max_offset / _PANEL)
    u = ((np.arange(panels)[:, None] + 0.5 * (1.0 + x)) / panels).ravel()
    lo = np.maximum(m - r_max_offset, 0.0)
    hi = np.maximum(m + r_max_offset, 0.0)
    width = hi - lo
    t = lo[..., None] + width[..., None] * u
    f = _integrand(t, m, s[..., None], tan_ccw[..., None], tan_cw[..., None])
    # 2 phi(d) times the Phi difference is e^{-d^2/2} times the erf difference
    # over sqrt(2 pi).  The sums are einsum's fixed-order loops, not a BLAS
    # product, whose blocking (and so a row's last bits) depends on the rows
    w_panels = np.tile(w, (panels, 1)) / panels
    terms = (0.5 / math.sqrt(2.0 * math.pi)) * width[..., None] * np.einsum(
        "ikj,jc->ikc", f, w_panels)
    steep = (tan_ccw > _STEEP) | (tan_cw > _STEEP)
    if np.any(steep):
        terms[steep] = _graded_terms(m[steep], s[steep], tan_ccw[steep], tan_cw[steep],
                                     lo[steep], hi[steep], panels)
    return terms


def bias_ray_cone(points, angles,
                  settings: QuadratureSettings = QuadratureSettings()) -> np.ndarray:
    """Bias correction of the cone of rays at `angles` for each generating
    point, a row of the (N, 2) `points`.  The angles increase and span less
    than 2pi: one (K,) set, or an (N, K) array with a set per row.  Raises
    ConvergenceError when a row's rules differ by more than settings.abs_tol."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise DomainError("generating points must be a finite (N, 2) array")
    angs = np.broadcast_to(np.asarray(angles, dtype=float), (len(pts), np.shape(angles)[-1]))
    if np.any(np.diff(angs, axis=1) <= 0) or np.any(angs[:, -1] - angs[:, 0] >= 2.0 * math.pi):
        raise DomainError("ray angles must increase and span less than 2pi")
    # blocks of rows bound the temporaries; each row's bits are its own
    terms = np.concatenate([np.zeros((0, angs.shape[1], 2))] + [
        _ray_terms(pts[k:k + _ROW_BLOCK], angs[k:k + _ROW_BLOCK], settings.r_max_offset)
        for k in range(0, len(pts), _ROW_BLOCK)])
    values = terms[:, :, 1].sum(axis=1)
    off = np.abs(terms[:, :, 1] - terms[:, :, 0]).sum(axis=1) > settings.abs_tol
    if np.any(off):
        k = int(np.argmax(off))
        raise ConvergenceError(
            f"bias at mu0=({pts[k, 0]:.17g}, {pts[k, 1]:.17g}): the {_RULE_SIZES[0]}- and "
            f"{_RULE_SIZES[1]}-node rules differ by more than abs_tol={settings.abs_tol:g}",
            float(values[k]))
    return values


def bias_t3_batch(mu0y, alpha0,
                  settings: QuadratureSettings = QuadratureSettings()) -> np.ndarray:
    """t3 bias correction for each (mu0y, alpha0) pair, broadcast together:
    bias_ray_cone at (0, mu0y)."""
    mu, alpha = np.broadcast_arrays(np.atleast_1d(np.asarray(mu0y, dtype=float)),
                                    np.atleast_1d(np.asarray(alpha0, dtype=float)))
    if mu.ndim != 1:
        raise DomainError("mu0y and alpha0 must be scalars or 1-D arrays")
    if np.any(mu < 0):
        raise DomainError("mu0y must be nonnegative")
    if not np.all((alpha > 0.0) & (alpha <= math.pi / 6.0 + 1e-12)):
        raise DomainError("alpha0 must lie in (0, pi/6]")
    rays = np.column_stack([np.full_like(alpha, 0.5 * math.pi), math.pi + alpha,
                            2.0 * math.pi - alpha])
    return bias_ray_cone(np.column_stack([np.zeros_like(mu), mu]), rays, settings)


def bias_t3(mu0y: float, alpha0: float,
            settings: QuadratureSettings = QuadratureSettings()) -> BiasEstimate:
    """t3 bias correction at one point: the one-row case of bias_t3_batch."""
    value = float(bias_t3_batch(mu0y, alpha0, settings)[0])
    # outside its window a ray's integrand is at most (v^2 + |m_k| |v|) phi(v)
    # over |v| > u, v = t - m_k, which integrates to at most
    # 2 phi(u) (u + 1/u + |m_k|); |m_k| <= mu0y, and the bias doubles it
    u = settings.r_max_offset
    tail_bound = 12.0 * (u + 1.0 / u + mu0y) * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return BiasEstimate(value, "quadrature", settings={
        "model": "t3", "mu0y": mu0y, "alpha0": alpha0, "abs_tol": settings.abs_tol,
        "r_max": mu0y + u, "tail_bound": tail_bound})


@lru_cache(maxsize=4096)
def bias_t3_value(mu0y: float, alpha0: float,
                  settings: QuadratureSettings = QuadratureSettings()) -> float:
    """Memoized scalar t3 bias; safe because bias_t3 is a pure function."""
    return bias_t3(mu0y, alpha0, settings).value
