"""Independent reference implementations used only to check the package.

These deliberately take different routes than the library: exact rational or
Decimal arithmetic, series identities, and brute-force search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext
from functools import lru_cache
from typing import Sequence

import mpmath
import numpy as np

from aicg.closedform import BiasEstimate, singularity_bias
from aicg.estimators import bias_on_cone, consistent_radius
from aicg.geometry import (CENTROID, DomainError, GeometryParams, SimplexPoint, TransformedPoint,
                           phi_from_p1)
from aicg.models import cone_of, project_points
from aicg.quadrature import QuadratureSettings
from aicg.selection import RegionGrid, _rounded_counts


def erf_decimal(x: float, digits: int = 60) -> float:
    """Maclaurin series for erf in Decimal arithmetic (exact to ~digits)."""
    getcontext().prec = digits
    xd = Decimal(repr(x))
    term = xd
    total = xd
    k = 0
    while True:
        k += 1
        term = term * (-xd * xd) / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < Decimal(10) ** (-(digits - 5)) * max(abs(total), Decimal(1)):
            break
    two_over_sqrt_pi = Decimal(2) / _pi_decimal(digits).sqrt()
    return float(two_over_sqrt_pi * total)


def erfc_decimal(x: float, digits: int = 60) -> float:
    """1 - erf computed in Decimal, so the tail keeps relative accuracy.

    For x > 0 the Maclaurin sum cancels about x^2 / ln 10 digits, and
    1 - erf another x^2 / ln 10, so x^2 must stay well inside
    (digits - 17) ln(10) / 2 for a result good to double precision.
    """
    if x > 0 and x * x > (digits - 17) * math.log(10.0) / 2.0:
        raise ValueError(f"erfc_decimal({x}) needs more than {digits} digits")
    getcontext().prec = digits
    xd = Decimal(repr(x))
    term = xd
    total = xd
    k = 0
    while True:
        k += 1
        term = term * (-xd * xd) / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < Decimal(10) ** (-(digits - 5)) * max(abs(total), Decimal(1)):
            break
    erf_d = Decimal(2) / _pi_decimal(digits).sqrt() * total
    return float(1 - erf_d)


def _pi_decimal(digits: int) -> Decimal:
    """Machin's formula; plenty for double-precision comparisons."""
    getcontext().prec = digits + 10
    # a Decimal term only reaches 0 when its exponent underflows, hundreds of
    # thousands of steps on; below this the sums (both under 1) cannot move
    negligible = Decimal(10) ** -(getcontext().prec + 2)

    def arccot(x: int) -> Decimal:
        total = term = Decimal(1) / x
        n = 1
        while term >= negligible:
            term = term / (x * x)
            total += term / (2 * n + 1) * (-1) ** n
            n += 1
        return total
    pi = 4 * (4 * arccot(5) - arccot(239))
    getcontext().prec = digits
    return +pi


def phi_from_mu0y_mpmath(mu: float, n: float, digits: int = 40) -> float:
    """phi0 in (0, 1] with mu0y(phi0, n) = mu, found by mpmath's bracketing
    root finder on the unsquared equation sqrt(2n)(1 - phi)/sqrt(phi(3 - 2 phi))
    = mu, which is strictly decreasing in phi."""
    with mpmath.workdps(digits):
        m, big_n = mpmath.mpf(mu), mpmath.mpf(n)
        if m == 0:
            return 1.0

        def f(phi):
            return mpmath.sqrt(2 * big_n) * (1 - phi) / mpmath.sqrt(phi * (3 - 2 * phi)) - m
        return float(mpmath.findroot(f, (mpmath.mpf("1e-13"), mpmath.mpf(1)),
                                     solver="anderson"))


def noncentral_radius_cdf_series(r: float, center_norm: float) -> float:
    """P(||z|| <= r), z ~ N(mu, I_2), by the Poisson mixture of central
    chi-square CDFs with even degrees of freedom (all closed form)."""
    lam = center_norm * center_norm
    x = 0.5 * r * r
    poisson = math.exp(-0.5 * lam)
    chi_term = math.exp(-x)    # e^{-x} x^m / m! running term
    chi_cum = chi_term         # sum_{m <= j} of the above
    total = 0.0
    for j in range(2000):
        total += poisson * (1.0 - chi_cum)
        poisson *= 0.5 * lam / (j + 1)
        chi_term *= x / (j + 1)
        chi_cum += chi_term
        if poisson < 1e-22 and j > lam:
            break
    return total


def gauss_legendre_mpmath(n: int, digits: int = 40) -> tuple[list, list]:
    """Nodes (ascending) and weights of the n-node Gauss-Legendre rule as
    mpmath numbers: Newton's method on mpmath.legendre at `digits` digits from
    the cosine estimate of each root, weight 2 / ((1 - x^2) P_n'(x)^2)."""
    with mpmath.workdps(digits):
        nodes, weights = [], []
        for i in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (4 * i - 1) / (4 * n + 2))
            for _ in range(100):
                dp = n * (mpmath.legendre(n - 1, x) - x * mpmath.legendre(n, x)) / (1 - x * x)
                step = mpmath.legendre(n, x) / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** (5 - digits):
                    break
            dp = n * (mpmath.legendre(n - 1, x) - x * mpmath.legendre(n, x)) / (1 - x * x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes[::-1], weights[::-1]


def ray_cone_bias_dblquad(point: tuple[float, float], angles, epsabs: float = 1e-12) -> float:
    """2 E[(z - mu0).(P z - mu0)] for z ~ N(mu0, I) and P the projection onto
    the rays at `angles`, by scipy's dblquad in polar coordinates.  The
    projection is found point by point (the ray with the largest clipped
    inner product), and the angular range is split at every ray, every
    bisector between neighbouring rays and every ray +- pi/2, where P jumps
    or has a kink, so each piece has a smooth integrand."""
    from scipy.integrate import dblquad
    mx, my = point
    dirs = [(math.cos(a), math.sin(a)) for a in angles]
    ordered = sorted(a % (2 * math.pi) for a in angles)
    cuts = set()
    for k, a in enumerate(ordered):
        nxt = ordered[(k + 1) % len(ordered)] + (2 * math.pi if k == len(ordered) - 1 else 0.0)
        cuts |= {a, 0.5 * (a + nxt), a + 0.5 * math.pi, a - 0.5 * math.pi}
    cuts = sorted({c % (2 * math.pi) for c in cuts})
    cuts.append(cuts[0] + 2 * math.pi)

    def f(rho, th):
        x, y = rho * math.cos(th), rho * math.sin(th)
        t, dx, dy = max((max(0.0, x * dx + y * dy), dx, dy) for dx, dy in dirs)
        ex, ey = x - mx, y - my
        dens = math.exp(-0.5 * (ex * ex + ey * ey)) / (2 * math.pi)
        return 2 * (ex * (t * dx - mx) + ey * (t * dy - my)) * dens * rho

    reach = math.hypot(mx, my) + 14.0
    return math.fsum(dblquad(f, lo, hi, 0.0, reach, epsabs=epsabs, epsrel=1e-12)[0]
                     for lo, hi in zip(cuts, cuts[1:]))


def region_winners_loop(aicg: np.ndarray, ids: tuple[str, ...], tol: float) -> tuple[str, ...]:
    """Winner label per column of a (models, points) score array, one point
    at a time: the model with the least score, "tie" when several lie within
    tol of it, "error" when every score is NaN."""
    labels = []
    for column in aicg.T:
        scored = column[~np.isnan(column)]
        hits = np.flatnonzero(column <= scored.min() + tol) if scored.size else []
        labels.append("error" if len(hits) == 0 else "tie" if len(hits) > 1 else ids[hits[0]])
    return tuple(labels)


def t1_mle_bruteforce(counts: tuple[int, int, int], topology: int = 1,
                      grid_size: int = 100_000) -> float:
    """Grid-search the constrained single-line MLE's clamped component."""
    c = counts[topology - 1]
    rest = sum(counts) - c
    ps = np.linspace(1.0 / 3.0, 1.0 - 1e-6, grid_size)
    ll = c * np.log(ps) + rest * np.log((1.0 - ps) / 2.0)
    return float(ps[np.argmax(ll)])


def trinomial_counts(rng: np.random.Generator, n: int, theta: np.ndarray,
                     count: int) -> np.ndarray:
    """(count, 3) trinomial draws by sequential binomial conditioning."""
    p1, p2, _ = theta
    c1 = rng.binomial(n, p1, size=count)
    rest = n - c1
    q = min(max(p2 / max(1.0 - p1, 1e-300), 0.0), 1.0)
    c2 = rng.binomial(rest, q)
    return np.column_stack([c1, c2, rest - c2]).astype(float)


def t1_target_exact(topology: int, theta0: tuple[float, float, float], n: int) -> float:
    """The t1:k finite-n target as the finite sum over c = c_k of
    Binom(c; n, theta0_k) g(c), where g(c) = 2 sum_i (c_i - n theta0_i) log
    thetahat_i with thetahat_k = max(c/n, 1/3), the other two (1 - thetahat_k)/2
    and every component clamped at 1e-12 before logging.  The pmf comes from
    lgamma in log space and the sum from math.fsum."""
    p = theta0[topology - 1]
    terms = []
    for c in range(n + 1):
        log_pmf = (math.lgamma(n + 1) - math.lgamma(c + 1) - math.lgamma(n - c + 1)
                   + c * math.log(p) + (n - c) * math.log1p(-p))
        big = max(c / n, 1.0 / 3.0)
        gap = math.log(max(big, 1e-12)) - math.log(max((1.0 - big) / 2.0, 1e-12))
        terms.append(math.exp(log_pmf) * 2.0 * (c - n * p) * gap)
    return math.fsum(terms)


def _line_fit(counts: np.ndarray, k: int) -> np.ndarray:
    """The t1:k+1 MLE of each row: p_k = max(c_k / n, 1/3), the others equal."""
    big = np.maximum(counts[:, k] / counts.sum(axis=1), 1.0 / 3.0)
    theta = np.repeat(((1.0 - big) / 2.0)[:, None], 3, axis=1)
    theta[:, k] = big
    return theta


def _loglik(counts: np.ndarray, theta: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts > 0, counts * np.log(theta), 0.0).sum(axis=1)


def trinomial_mle(model_id: str, counts: np.ndarray) -> np.ndarray:
    """Maximum likelihood fits of (N, 3) count rows, by model id: a t1 line's
    closed form; for t3 the best of the three line fits by likelihood, ties
    (equal up to rounding) going to the first line; the centroid; the sample
    mean."""
    if model_id == "polytomy":
        return np.full(counts.shape, 1.0 / 3.0)
    if model_id == "unconstrained":
        return counts / counts.sum(axis=1, keepdims=True)
    if model_id.startswith("t1:"):
        return _line_fit(counts, int(model_id[3:]) - 1)
    fits = [_line_fit(counts, k) for k in range(3)]
    ll = np.column_stack([_loglik(counts, f) for f in fits])
    best = np.argmax(ll >= ll.max(axis=1, keepdims=True) - 1e-9 * (1.0 + np.abs(ll)), axis=1)
    return np.choose(best[:, None], fits)


def trinomial_target_exact(model_id: str, theta0: tuple[float, float, float], n: int,
                           tail: float = 1e-15) -> float:
    """The finite-n target E[2 sum_i (c_i - n theta0_i) log thetahat_i], with
    every component clamped at 1e-12 before logging, as the sum over the
    trinomial outcomes: c_1 ~ Binomial(n, theta0_1), then c_2 | c_1 ~
    Binomial(n - c_1, theta0_2 / (1 - theta0_1)), each over the scipy
    quantile window that leaves at most tail in either tail.  The pmfs come
    from scipy.stats.binom, the fits from trinomial_mle."""
    from scipy.stats import binom
    p1, p2, _ = theta0
    q = min(p2 / (1.0 - p1), 1.0) if p1 < 1.0 else 0.0
    c1 = np.arange(binom.ppf(tail, n, p1), binom.isf(tail, n, p1) + 1).astype(np.int64)
    expected = n * np.array(theta0)
    terms = []
    for a, wa in zip(c1.tolist(), binom.pmf(c1, n, p1).tolist()):
        m = n - a
        c2 = np.arange(binom.ppf(tail, m, q), binom.isf(tail, m, q) + 1).astype(np.int64)
        counts = np.column_stack([np.full(len(c2), a), c2, m - c2]).astype(float)
        logs = np.log(np.maximum(trinomial_mle(model_id, counts), 1e-12))
        g = 2.0 * ((counts - expected) * logs).sum(axis=1)
        terms.append(wa * float(np.dot(binom.pmf(c2, m, q), g)))
    return math.fsum(terms)


def project_bruteforce(angles: tuple[float, ...], w: np.ndarray,
                       n_radial: int = 4000, r_max: float = 60.0) -> np.ndarray:
    """Nearest cone point by dense sampling along every ray."""
    best = np.zeros(2)
    best_d = float(np.hypot(*w))
    for a in angles:
        d = np.array([math.cos(a), math.sin(a)])
        for t in np.linspace(0.0, r_max, n_radial):
            cand = t * d
            dist = float(np.hypot(*(w - cand)))
            if dist < best_d - 1e-15:
                best_d = dist
                best = cand
    return best


def gauss_hermite_expectation(f, mu: float, n_nodes: int = 200) -> float:
    """E f(Y) for Y ~ N(mu, 1) by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return float(np.sum(weights * f(nodes + mu)) / math.sqrt(2.0 * math.pi))


def largest_remainder_reference(p: tuple[float, float, float], n: int) -> tuple[int, int, int]:
    """Round n*p to integers summing to n one point at a time: floor every
    component, then hand the shortfall out by largest fractional part, equal
    parts going to the smaller index."""
    raw = [n * x for x in p]
    base = [math.floor(v) for v in raw]
    for i in sorted(range(3), key=lambda i: (-(raw[i] - base[i]), i))[:n - sum(base)]:
        base[i] += 1
    return tuple(base)


def t1_polytomy_scores(counts: tuple[int, int, int]) -> tuple[float | None, float]:
    """Generalized scores of t1:1 and polytomy under the plug-in rule, from
    the closed forms with math.log and math.erf only.

    The t1:1 estimate is p1 = max(n1/n, 1/3) with p2 = p3; its plug-in bias is
    1 + erf(mu/sqrt(2)) at mu = sqrt(2n)(1 - phi)/sqrt(phi(3 - 2 phi)),
    phi = (3/2)(1 - p1).  At p1 = 1 (all counts on the first taxon) the
    distance is undefined and t1:1 has no score (None).  Polytomy has bias 0.
    """
    n = sum(counts)

    def neg2loglik(ps):
        return -2.0 * sum(c * math.log(p) for c, p in zip(counts, ps) if c > 0)

    polytomy = neg2loglik((1.0 / 3.0,) * 3)
    p1 = max(counts[0] / n, 1.0 / 3.0)
    if p1 == 1.0:
        return None, polytomy
    rest = (1.0 - p1) / 2.0
    phi = 1.5 * (1.0 - p1)
    mu = math.sqrt(2.0 * n) * (1.0 - phi) / math.sqrt(phi * (3.0 - 2.0 * phi))
    return neg2loglik((p1, rest, rest)) + 1.0 + math.erf(mu / math.sqrt(2.0)), polytomy


def t1_polytomy_winner(counts: tuple[int, int, int]) -> str:
    """The lower of the two t1_polytomy_scores ("tie" when equal)."""
    line, polytomy = t1_polytomy_scores(counts)
    if line is None or line > polytomy:
        return "polytomy"
    return "tie" if line == polytomy else "t1:1"


# The transform from the simplex to the plane as a matrix: the reference for
# the closed forms that selection._line_geometry evaluates for whole arrays.

# Directions of the three topology lines (centroid -> vertex i) in (p1, p2).
_TOPOLOGY_DIRS = {
    1: (2.0, -1.0),
    2: (-1.0, 2.0),
    3: (-1.0, -1.0),
}


def fisher_information(theta: SimplexPoint) -> np.ndarray:
    """Trinomial Fisher information per observation in coordinates (p1, p2)."""
    if not theta.is_interior():
        raise DomainError("Fisher information degenerate on the simplex faces")
    p1, p2, p3 = theta.as_tuple()
    return np.array([
        [1.0 / p1 + 1.0 / p3, 1.0 / p3],
        [1.0 / p3, 1.0 / p2 + 1.0 / p3],
    ])


def mahalanobis(theta: SimplexPoint, theta0: SimplexPoint, n: float) -> float:
    """sqrt(n (theta - theta0)^T I(theta0) (theta - theta0)) in free coordinates."""
    info = fisher_information(theta0)
    if not theta.is_interior(0.0):
        raise DomainError("theta must lie in the closed simplex")
    d = theta.free_coords() - theta0.free_coords()
    return math.sqrt(n * float(d @ info @ d))


@dataclass(frozen=True)
class TransformMap:
    """Affine map simplex -> transformed plane: w = A (v(theta) - anchor)."""

    matrix: np.ndarray
    anchor: np.ndarray

    def __call__(self, theta: SimplexPoint) -> TransformedPoint:
        w = self.matrix @ (theta.free_coords() - self.anchor)
        return TransformedPoint(float(w[0]), float(w[1]))


def _rotation_to_y(u: np.ndarray) -> np.ndarray:
    psi = math.atan2(u[1], u[0])
    rot = 0.5 * math.pi - psi
    c, s = math.cos(rot), math.sin(rot)
    return np.array([[c, -s], [s, c]])


def transform_map(theta0: SimplexPoint, n: float, axis_topology: int | None = None) -> TransformMap:
    """Build the centering/scaling/rotation map determined by theta0.

    The plane is scaled by sqrt(n) * I(theta0)^{1/2} with I^{1/2} the upper
    factor of the Cholesky decomposition, then rotated so the distinguished
    half-line lands on the +y axis.  The distinguished direction is the ray
    from the centroid through theta0; if theta0 is the centroid itself (or
    ``axis_topology`` is given) the named topology line is used instead,
    defaulting to topology 1.
    """
    if not theta0.is_interior():
        raise DomainError("theta0 must be strictly interior to the simplex")
    if n < 1:
        raise DomainError("sample size must be >= 1")
    info = fisher_information(theta0)
    half = np.linalg.cholesky(info).T  # upper triangular; half.T @ half == info
    scale = math.sqrt(n) * half
    anchor = CENTROID.free_coords()

    if axis_topology is not None:
        if axis_topology not in _TOPOLOGY_DIRS:
            raise DomainError(f"axis_topology must be 1, 2 or 3, got {axis_topology!r}")
        direction = np.array(_TOPOLOGY_DIRS[axis_topology])
    else:
        direction = theta0.free_coords() - anchor
        if float(np.hypot(*direction)) <= 1e-12:
            direction = np.array(_TOPOLOGY_DIRS[1])
    u = scale @ direction
    return TransformMap(matrix=_rotation_to_y(u) @ scale, anchor=anchor)


def line_observation(model, counts):
    """A line model's fit of one Counts row seen through the transform map at
    its constrained MLE, which puts the estimate's own line on the +y axis:
    the GeometryParams of the estimate, and the images of the estimate and of
    the sample mean."""
    from aicg.models import mle_simplex
    fit = mle_simplex(model, counts)
    geo = GeometryParams.from_phi0(phi_from_p1(fit.estimate.as_tuple()[fit.topology - 1]),
                                   counts.n)
    tmap = transform_map(fit.estimate, counts.n, axis_topology=fit.topology)
    return geo, tmap(fit.estimate), tmap(counts.mean())


def bootstrap_bias_per_row(model, counts, b_replicates: int, seed: int, eta_exponent: float):
    """The parametric bootstrap of one Counts row as a scalar chain: the MLE,
    the transform map at it, consistent_estimate of the estimate (0, mu0y),
    then one mc_bias_gaussian run around the resulting center.  Models
    without a line center at the origin.  Returns the BiasEstimate: the
    Monte Carlo reference for score_batch's exact bootstrap values."""
    from aicg.models import T1, T3
    from aicg.montecarlo import McSettings, mc_bias_gaussian
    geo, center = None, TransformedPoint(0.0, 0.0)
    if model.variant in (T1, T3):
        geo, _, _ = line_observation(model, counts)
        center, _ = consistent_estimate(model, TransformedPoint(0.0, geo.mu0y), counts.n,
                                        eta_exponent, geo)
    return mc_bias_gaussian(cone_of(model, geo), center, McSettings(seed, b_replicates))


def consistent_estimate(model, observed: TransformedPoint, n: float,
                        eta_exponent: float = 1.0 / 3.0,
                        geo: GeometryParams | None = None,
                        quad: QuadratureSettings = QuadratureSettings()
                        ) -> tuple[TransformedPoint, BiasEstimate]:
    """Shrink one observation to the singularity inside a slowly-growing
    ball, as a scalar chain: the reference for the consistent rule that
    estimators.rule_values applies to whole arrays of count rows and draws.

    The ball radius is consistent_radius(n, eta_exponent).  Outside the ball
    the estimate is the cone projection of the observation, and the bias is
    evaluated at whichever estimate results.
    """
    radius = consistent_radius(n, eta_exponent)
    if geo is None:
        geo = GeometryParams.from_phi0(1.0, n)
    cone = cone_of(model, geo)
    if observed.norm() <= radius:
        mu_t = TransformedPoint(0.0, 0.0)
        value = singularity_bias(model)
    else:
        proj = project_points(cone, observed.as_array()[None])[0]
        mu_t = TransformedPoint(float(proj[0]), float(proj[1]))
        value = bias_on_cone(model, mu_t.norm(), geo.alpha0, quad)
    est = BiasEstimate(value, "consistent",
                       settings={"model": model.model_id, "radius": radius,
                                 "eta_exponent": eta_exponent,
                                 "shrunk": observed.norm() <= radius})
    return mu_t, est


def largest_remainder_counts(p: Sequence[float], n: int) -> tuple[int, int, int]:
    """Round n*p to integers summing to n, largest fractional parts first:
    the one-row case of selection._rounded_counts."""
    return tuple(int(c) for c in _rounded_counts(np.array([p], dtype=float), n)[0])


def lattice_neighbors(point: tuple[int, int, int]):
    i, j, k = point
    return [(i + 1, j - 1, k), (i - 1, j + 1, k), (i + 1, j, k - 1),
            (i - 1, j, k + 1), (i, j + 1, k - 1), (i, j - 1, k + 1)]


def winning_component(grid: RegionGrid, label: str,
                      start: tuple[int, int, int]) -> set[tuple[int, int, int]]:
    """Lattice-connected component of `label` cells containing `start`."""
    lookup = dict(zip(grid.points, grid.winners))
    if lookup.get(start) != label:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nb in lattice_neighbors(cur):
            if nb not in seen and lookup.get(nb) == label:
                seen.add(nb)
                stack.append(nb)
    return seen


@lru_cache(maxsize=None)
def t3_bias_dblquad(mu: float, n: float) -> float:
    """The t3 bias at distance mu for sample size n: ray_cone_bias_dblquad on
    the rays pi/2, pi + alpha0 and 2pi - alpha0, with alpha0 =
    arctan(1/sqrt(3(3 - 2 phi))) at the phi that phi_from_mu0y_mpmath finds."""
    phi = phi_from_mu0y_mpmath(mu, n)
    alpha0 = math.atan(1.0 / math.sqrt(3.0 * (3.0 - 2.0 * phi)))
    return ray_cone_bias_dblquad((0.0, mu), (0.5 * math.pi, math.pi + alpha0,
                                             2.0 * math.pi - alpha0))


def radii_bruteforce(variant: str, mu_grid, n: float, violation_tol: float = 1.02e-14,
                     r_max: float = 6.0, step: float = 1e-3) -> tuple[float, float]:
    """(uo, minimax) neighborhood radii by brute force over every radius
    k * step in [0, r_max].

    The expected rule value at distance mu is 2 - Phi(r - mu) for t1 and
    2 + h P(||z|| <= r) for t3, with h = 3 sqrt(3) / (2 pi) and ||z||^2
    noncentral chi-square (2 degrees of freedom, noncentrality mu^2), both
    from scipy.stats.  The truth is 1 + erf(mu / sqrt(2)) for t1 and
    t3_bias_dblquad(mu, n) for t3.  The classical value 2 lies above the t1
    truth and below the t3 truth, so the uo radius is the largest radius
    whose rule value crosses the truth, downwards for t1 and upwards for t3,
    by at most violation_tol at every grid distance.  The minimax radius is
    the first radius of least sup squared error.
    """
    from scipy.stats import ncx2, norm
    mus = np.array([float(m) for m in mu_grid])
    rs = np.arange(round(r_max / step) + 1) * step
    if variant == "t1":
        truth = np.array([1.0 + math.erf(m / math.sqrt(2.0)) for m in mus])
        expected = 2.0 - norm.cdf(rs[:, None] - mus)
        side = 1.0
    else:
        truth = np.array([t3_bias_dblquad(m, n) for m in mus])
        h = 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
        expected = 2.0 + h * ncx2.cdf(rs[:, None] ** 2, 2, mus ** 2)
        side = -1.0
    assert np.all(side * (2.0 - truth) >= 0.0)
    feasible = np.max(side * (truth - expected), axis=1) <= violation_tol
    risk = np.max((expected - truth) ** 2, axis=1)
    return float(rs[feasible].max()), float(rs[np.argmin(risk)])
