"""Bias corrections of ray cones in closed form.

For z ~ N(mu0, I) and P the projection onto a cone of rays, the correction
is 2 E[(z - mu0).P z].  P is linear with divergence 1 inside each ray's
sector, 0 on the polar cone, and jumps across the bisector of each pair of
neighbouring rays whose gap g is below pi: at distance s along the bisector
both rays sit at s cos(g/2), so the jump's normal component is s sin g.
Stein's lemma with a jump term (Tibshirani's "search degrees of freedom",
Statistica Sinica 2015; Mikkelsen and Hansen, Ann. IHP 2018) then gives

    bias = 2 [1 - W + sum_{gaps g < pi} sin g phi(p_g) (phi(a_g) + a_g Phi(a_g))],

with (a_g, p_g) the coordinates of mu0 along and across gap g's bisector
and W the Gaussian mass of the polar cone: 0 when every gap is below pi,
Phi(-m) for one ray, and Phi2(-m_j, -m_k; cos g) for a reflex gap g > pi
between rays j and k, at most one per cone.  At mu0 = 0, with phi_1 the
largest gap, it is 2 + (1/pi) sum_i sin(phi_i) for phi_1 <= pi and
3 + (1/pi) (sum_{i>=2} sin(phi_i) - phi_1) above pi.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import DomainError
from .special import norm_cdf, norm_cdf2

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _polar_mass(pts: np.ndarray, angs: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """W for each row: P(P z = 0), nonzero only on rows with a gap above pi,
    whose polar cone is the wedge bounded by the gap's two rays."""
    mass = np.zeros(len(pts))
    j = np.argmax(gaps, axis=1)
    rows = np.flatnonzero(gaps[np.arange(len(pts)), j] > math.pi)
    if rows.size:
        j = j[rows]
        rays = angs[rows, np.stack([j, (j + 1) % angs.shape[1]])]  # the gap's ends, (2, rows)
        m = pts[rows, 0] * np.cos(rays) + pts[rows, 1] * np.sin(rays)
        mass[rows] = (norm_cdf(-m[0]) if angs.shape[1] == 1
                      else norm_cdf2(-m[0], -m[1], np.cos(gaps[rows, j])))
    return mass


def bias_ray_cone(points, angles) -> np.ndarray:
    """Bias correction of the cone of rays at `angles` for each generating
    point, a row of the (N, 2) `points`.  The angles increase and span less
    than 2pi: one (K,) set, or an (N, K) array with a set per row.  Each
    row's value is computed elementwise, so its bits are its own."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise DomainError("generating points must be a finite (N, 2) array")
    angs = np.broadcast_to(np.asarray(angles, dtype=float), (len(pts), np.shape(angles)[-1]))
    if np.any(np.diff(angs, axis=1) <= 0) or np.any(angs[:, -1] - angs[:, 0] >= 2.0 * math.pi):
        raise DomainError("ray angles must increase and span less than 2pi")
    gaps = np.diff(angs, axis=1, append=angs[:, :1] + 2.0 * math.pi)
    mid = angs + 0.5 * gaps
    x, y = pts[:, :1], pts[:, 1:]
    along = x * np.cos(mid) + y * np.sin(mid)
    across = y * np.cos(mid) - x * np.sin(mid)
    with np.errstate(over="ignore"):  # phi is 0 once a square overflows
        density = np.exp(-0.5 * across * across) / _SQRT_2PI
        mean_excess = np.exp(-0.5 * along * along) / _SQRT_2PI + along * norm_cdf(along)
    # phi(p) = 0 decides the term, whatever phi(a) + a Phi(a) is (no 0 * inf)
    jumps = np.where((gaps < math.pi) & (density > 0.0),
                     np.sin(gaps) * density * mean_excess, 0.0)
    return 2.0 * (1.0 - _polar_mass(pts, angs, gaps) + jumps.sum(axis=1))


def bias_t3_batch(mu0y, alpha0) -> np.ndarray:
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
    return bias_ray_cone(np.column_stack([np.zeros_like(mu), mu]), rays)


@lru_cache(maxsize=4096)
def bias_t3_value(mu0y: float, alpha0: float) -> float:
    """Memoized t3 bias at one point: the one-row case of bias_t3_batch."""
    return float(bias_t3_batch(mu0y, alpha0)[0])
