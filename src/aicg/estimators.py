"""Practical bias-correction estimators.

Plug-in, lower/upper least favorable, neighborhood rules (uniformly
outperforming and minimax), consistent shrinkage estimation and the
parametric bootstrap.  calibrate_radii calibrates both neighborhood radii on
one grid of generating distances.
rule_values is the one definition of every rule: selection.score_batch
applies it to count rows, and montecarlo.mc_target_trinomial to the cells of
a curve point's histogram of counts, whose frequency-weighted mean is the
rule's column.  The bootstrap's value is the bias at its centre (the
consistent estimate) on the row's own cone, which bias_on_cone computes
exactly, so scoring draws nothing.

Radius calibration conventions follow the constructions they reproduce: the
single-line rules threshold the constrained estimate's distance (so the
expected rule value is 2 - Phi(r - mu)), while the three-line rules threshold
the raw observation's distance (a noncentral radial probability).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    DomainError,
    Record,
    alpha_from_phi0,
    phi_from_mu0y,
)
from .models import (
    HALFLINES,
    POLYTOMY,
    T1,
    T3,
    UNCONSTRAINED,
    ModelSpec,
)
from .quadrature import bias_ray_cone, bias_t3_batch
from .special import erf, norm_cdf

_SQRT2 = math.sqrt(2.0)
_FAR = 40.0
# The most elements of a block of centers' Poisson pmfs in the radius CDF
# (2 MB), so its working set does not grow with the grid.
_PMF_BLOCK = 1 << 18
# radius calibration scans [0, _R_MAX] spaced 0.05, then _R_STEP near its best
_R_MAX = 6.0
_R_STEP = 1e-3
# the uo radius's slack: the accuracy of the closed forms that give the truth
_VIOLATION_TOL = 1.02e-14

# The consistent rule's default rate exponent e: its radius is n^(1/2 - e).
ETA_EXPONENT = 1.0 / 3.0

# The reference sample size: the cone geometry of least_favorable's scans,
# and the sample size of bias --mu0y's t3 cone angle and of radii unless --n
# is given.
REFERENCE_N = 1e6

# Published reference radii (derived at REFERENCE_N); used when a
# neighborhood rule is applied without an explicit radius.
DEFAULT_RADII = {
    (T1, "uo"): 0.0,
    (T1, "minimax"): 0.95,
    (T3, "uo"): 1.77,
    (T3, "minimax"): 2.21,
}


class EstimatorRule(Record):
    """Configuration of one data-dependent bias-correction estimator."""

    __slots__ = ("method", "radius", "eta_exponent")

    def __init__(self, method: str, radius: float | None = None,
                 eta_exponent: float = ETA_EXPONENT):
        self._fill(method, radius, eta_exponent)
        if method not in ("plugin", "aic", "llf", "ulf", "uo", "minimax",
                          "consistent", "bootstrap"):
            raise DomainError(f"unknown estimator method {method!r}")
        if radius is not None and not radius >= 0:
            raise DomainError("radius must be nonnegative")


def bias_on_cone(model: ModelSpec, mu, alpha0=math.pi / 6.0):
    """Bias correction at distance mu along a ray of the model's cone,
    elementwise; alpha0 is the t3 cone angle at each distance (other models
    ignore it).  Scalars in give scalars out.  A negative or NaN distance
    is a DomainError.

    The t3 values come from one bias_t3_batch call; a half-lines model's
    from one bias_ray_cone call at (mu, 0), on its 2pi ray.  At mu = +inf,
    the distance of an estimate at a simplex vertex, a ray's value is its
    limit, 2.  polytomy and unconstrained have no line: their value is the
    AIC's own, 2 dim, at every distance.
    """
    mu_arr, alpha_arr = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                            np.asarray(alpha0, dtype=float))
    if not np.all(mu_arr >= 0):
        raise DomainError("mu0y must be nonnegative")
    far = np.isposinf(mu_arr) & (model.variant not in (POLYTOMY, UNCONSTRAINED))
    near = np.where(far, 0.0, mu_arr)
    if model.variant == T1:
        values = 1.0 + erf(near / _SQRT2)
    elif model.variant == T3:
        values = bias_t3_batch(near.ravel(), alpha_arr.ravel())
    elif model.variant in (POLYTOMY, UNCONSTRAINED):
        values = np.full(mu_arr.shape, 2.0 * model.dim)
    else:
        flat = near.ravel()
        values = bias_ray_cone(np.column_stack([flat, np.zeros_like(flat)]), model.angles)
    values = np.where(far, 2.0, np.reshape(values, mu_arr.shape))
    return float(values) if values.ndim == 0 else values


def singularity_bias(model: ModelSpec) -> float:
    """Bias value at the model's boundary/singularity (the origin)."""
    return bias_on_cone(model, 0.0)


def least_favorable(model: ModelSpec, which: str, reference_n: float = REFERENCE_N) -> float:
    """Infimum ('lower') or supremum ('upper') of the bias over the cone.

    Computed by a coarse scan of distances [0, 50] (with the cone geometry
    the model has at reference_n) and two finer scans around its best point,
    down to a spacing of 1e-4; the far endpoint already sits at the
    regular-model limit to within 1e-6.  A half-lines scan takes at each
    distance the extreme over all of the model's rays.
    """
    if which not in ("lower", "upper"):
        raise DomainError("which must be 'lower' or 'upper'")
    if model.variant in (POLYTOMY, UNCONSTRAINED):
        return 2.0 * model.dim

    sign = 1.0 if which == "lower" else -1.0

    def f(mus):
        if model.variant == HALFLINES:
            angles = np.array(model.angles)
            directions = np.column_stack([np.cos(angles), np.sin(angles)])
            # snap the ~1e-16 crumbs at axis-aligned angles so axis rays are exact
            directions[np.abs(directions) < 1e-15] = 0.0
            points = mus[:, None, None] * directions
            values = bias_ray_cone(points.reshape(-1, 2), model.angles).reshape(len(mus), -1)
            return np.min(sign * values, axis=1)
        return sign * bias_on_cone(model, mus, alpha_from_phi0(phi_from_mu0y(mus, reference_n)))

    best = _scan_min(f, 0.0, 50.0, (0.5, 0.01, 1e-4))
    return sign * best[0]


def _scan_min(f, lo: float, hi: float, steps) -> tuple[float, float]:
    """(f(x), x) at the least value of f found on [lo, hi]: a scan spaced
    steps[0], then at each finer spacing a scan over one coarser step either
    side of the best point so far; ties go to the smaller x.  f maps an array
    of points to an array of values, so each scan is one call."""
    def best_of(xs):
        vals = f(xs)
        k = int(np.argmin(vals))
        return float(vals[k]), float(xs[k])

    step = steps[0]
    best = best_of(np.linspace(lo, hi, round((hi - lo) / step) + 1))
    for fine in steps[1:]:
        a, b = max(best[1] - step, lo), min(best[1] + step, hi)
        best = min(best, best_of(np.linspace(a, b, round((b - a) / fine) + 1)))
        step = fine
    return best


def neighborhood_values(model: ModelSpec, r: float, distance):
    """Neighborhood rule by distance from the singularity (the origin, the
    only one these models have): the singularity value inside the radius-r
    ball, the classical value outside; elementwise."""
    return np.where(np.asarray(distance) <= r, singularity_bias(model), 2.0 * model.dim)


def noncentral_radius_cdf(r, center_norm):
    """P(||z|| <= r) for z ~ N(mu, I_2) with ||mu|| = center_norm, for every
    pair of a radius in r and a center norm in center_norm: an array of shape
    r.shape + center_norm.shape (scalars in give scalars out).

    ||z||^2 is noncentral chi-square with 2 degrees of freedom: a
    Poisson(center_norm^2 / 2) mixture of central chi-square laws with 2 + 2j
    degrees of freedom, whose CDFs at r^2 are P(Poisson(r^2 / 2) > j).  A
    call sums all its pairs over one window of indices j.
    """
    r_arr = np.asarray(r, dtype=float)
    s = np.asarray(center_norm, dtype=float)
    if np.any(r_arr < 0):
        raise DomainError("radius must be nonnegative")
    radii, centers = r_arr.reshape(-1, 1), s.reshape(1, -1)
    # once |center_norm - r| > _FAR, the probability that z lies that far
    # from its center, e^{-_FAR^2 / 2}, underflows: P is exactly 0 or 1
    probs = np.where(centers < radii, 1.0, 0.0)
    near = (np.abs(centers - radii) <= _FAR) & (radii > 0.0)
    if np.any(near):
        probs[near] = _poisson_mixture(r_arr.ravel(), s.ravel(), near)
    probs = probs.reshape(r_arr.shape + s.shape)
    return float(probs) if probs.ndim == 0 else probs


def _poisson_mixture(r: np.ndarray, center_norm: np.ndarray, near: np.ndarray) -> np.ndarray:
    """The mixture at the True pairs of the (radius, center) mask near, in
    row-major order, over one window of indices k that holds the mass of
    each near pair's Poisson(r^2 / 2) and Poisson(center_norm^2 / 2).  The
    centers' pmfs are formed a block of _PMF_BLOCK elements at a time, each
    row normalised over the whole window, so its values do not depend on the
    block."""
    rows, cols = np.any(near, axis=1), np.any(near, axis=0)
    x = 0.5 * r[rows] * r[rows]
    half_lam = 0.5 * center_norm[cols] ** 2

    def reach(v: float) -> float:  # Poisson(v) mass beyond v +- reach(v) is negligible
        return 12.0 * math.sqrt(v) + 40.0

    low = min(float(np.min(half_lam)), float(np.min(x)))
    high = max(float(np.max(half_lam)), float(np.max(x)))
    k = np.arange(max(0, int(low - reach(low))), int(high + reach(high)) + 2)
    log_fact = np.array([math.lgamma(j + 1.0) for j in k.tolist()])
    pois_x = _poisson_pmf(x, k, log_fact)
    # P(Poisson(x) > k), summed from the top so small tails keep their
    # relative accuracy
    tail = np.cumsum(pois_x[:, ::-1], axis=1)[:, ::-1]
    chi_cdf = np.concatenate([tail[:, 1:], np.zeros((len(x), 1))], axis=1)
    mix = np.empty((len(x), len(half_lam)))
    step = max(1, _PMF_BLOCK // len(k))
    for j in range(0, len(half_lam), step):
        mix[:, j:j + step] = chi_cdf @ _poisson_pmf(half_lam[j:j + step], k, log_fact).T
    return np.clip(mix[near[rows][:, cols]], 0.0, 1.0)


def _poisson_pmf(rates: np.ndarray, k: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """Poisson(rate) pmf at k, one row per rate, from log space and normalised
    over k.  The window holds all of each law's mass, so normalising leaves
    the values unchanged but cancels the rounding of k log(rate) and log k!
    that the window's indices share; e^{-rate} is never formed, so large
    rates cannot underflow the pmf to zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(k == 0, 0.0, k * np.log(rates)[:, None]) - log_fact
    p = np.exp(log_p - np.max(log_p, axis=1, keepdims=True))
    return p / np.sum(p, axis=1, keepdims=True)


def expected_neighborhood_value(model: ModelSpec, r, mu_grid) -> np.ndarray:
    """E of the radius-r neighborhood rule at each generating distance, for
    every radius in r and distance in mu_grid: shape r.shape + mu_grid.shape.

    t1 thresholds the projected estimate (max(y, 0) <= r, giving
    2 - Phi(r - mu)); t3 thresholds the raw draw (||z|| <= r, a noncentral
    radial probability scaling the singularity excess).
    """
    if model.variant == T1:
        return 2.0 - norm_cdf(np.subtract.outer(r, np.asarray(mu_grid, dtype=float)))
    if model.variant == T3:
        h = singularity_bias(model) - 2.0
        return 2.0 + h * noncentral_radius_cdf(r, mu_grid)
    raise DomainError(f"no expected-rule closed form for {model.model_id}")


def calibrate_radii(model: ModelSpec, mu_grid, n: float) -> dict:
    """The uo and minimax radii of a t1 or t3 model on a grid of generating
    distances at sample size n, with their diagnostics: the fields that
    radii prints.  The true bias is formed once, and each radius is the best
    point of _scan_min's scans of [0, _R_MAX], spaced 0.05 and then _R_STEP,
    each one expected_neighborhood_value call.

    The minimax radius minimizes the sup over the grid of the squared error
    between the expected rule value and the truth.  The uo radius is the
    largest whose expected rule value stays between the truth and the
    classical correction, up to an opposite-sign slack of _VIOLATION_TOL:
    its scans minimize -r over the radii whose largest violation is at most
    the slack, with no assumption that these radii form an interval.

    The classical value 2 lies on one side of the truth at every distance,
    in doubles too, so the rule must not cross the truth away from it.
    t1's truth is 1 + erf, and erf never exceeds 1.0, so it is at most 2:
    the rule must not dip below it.  t3's truth is 2 (1 + its jump terms),
    each nonnegative as every t3 gap is below pi, so it is at least 2: the
    rule must not exceed it.  So r = 0 is always feasible and the uo search
    always finds a radius: t1's rule at 0 is 2 - Phi(-mu) = 1 + Phi(mu), at
    least the truth 2 Phi(mu), and t3's rule at 0 is exactly the classical 2,
    as noncentral_radius_cdf is exactly 0 at radius 0.
    """
    if model.variant not in (T1, T3):
        raise DomainError(f"neighborhood radii are defined for t1 and t3 only, "
                          f"not {model.model_id}")
    mus = np.array(mu_grid, dtype=float)
    if not mus.size:
        raise DomainError("radius calibration needs a nonempty grid")
    truth = bias_on_cone(model, mus, alpha_from_phi0(phi_from_mu0y(mus, n)))
    side = 1.0 if model.variant == T1 else -1.0

    def sup_risk(rs):
        return np.max((expected_neighborhood_value(model, rs, mus) - truth) ** 2, axis=1)

    def violations(rs):
        return side * (truth - expected_neighborhood_value(model, rs, mus))

    def neg_feasible_r(rs):
        return np.where(np.max(violations(rs), axis=1) <= _VIOLATION_TOL, -rs, np.inf)

    risk, r_mm = _scan_min(sup_risk, 0.0, _R_MAX, (0.05, _R_STEP))
    _, r_uo = _scan_min(neg_feasible_r, 0.0, _R_MAX, (0.05, _R_STEP))
    worst = violations(r_uo)
    k = int(np.argmax(worst))
    # + 0.0: where the rule meets the truth exactly, side * 0.0 may be -0.0
    return {"uo_radius": r_uo,
            "uo_diagnostics": {"capped": r_uo == _R_MAX, "max_violation": float(worst[k]) + 0.0,
                               "binding_mu": float(mus[k]), "violation_tol": _VIOLATION_TOL},
            "minimax_radius": r_mm, "minimax_diagnostics": {"sup_risk": risk}}


def consistent_radius(n: float, eta_exponent: float) -> float:
    """Radius sqrt(n) * eta_n = n^(1/2 - e) of the consistent rule's shrinkage
    ball; the exponent must lie strictly inside (0, 1/2) so the radius grows
    without bound yet more slowly than sqrt(n)."""
    if n < 3:
        raise DomainError("consistent estimation needs n >= 3")
    if not 0.0 < eta_exponent < 0.5:
        raise DomainError("rate exponent must lie strictly inside (0, 1/2)")
    return float(n) ** (0.5 - eta_exponent)


def rule_constant(model: ModelSpec, rule: EstimatorRule, n: int) -> float | None:
    """The rule's value where it does not depend on the observation (aic,
    llf, ulf, and every rule on polytomy and unconstrained, which have no
    line), else None."""
    if rule.method == "aic":
        return 2.0 * model.dim
    if rule.method in ("llf", "ulf"):
        which = "lower" if rule.method == "llf" else "upper"
        return least_favorable(model, which, float(n))
    if model.variant in (POLYTOMY, UNCONSTRAINED):
        return 2.0 * model.dim
    return None


def rule_values(model: ModelSpec, rule: EstimatorRule, n: int, geometry) -> np.ndarray:
    """The rule's bias value at each row of a sample of size n, from the
    geometry that selection.observe gives: (mu_hat, alpha0, zbar_norm,
    index).  mu_hat holds the distinct observed distances of the constrained
    estimate from the origin, alpha0 the cone angle at each, and index maps
    each row to its distance; zbar_norm is the norm of each row's raw
    observation.  A rule that reads only the distance is evaluated once per
    distance.  At a simplex vertex the distance and the norm are +inf, so
    every rule takes its value far from the singularity, 2."""
    mu_hat, alpha0, zbar_norm, index = geometry
    method = rule.method
    constant = rule_constant(model, rule, n)
    if constant is not None:
        return np.full(len(index), constant)
    if method in ("uo", "minimax"):
        r = rule.radius if rule.radius is not None else DEFAULT_RADII.get((model.variant, method))
        if r is None:
            raise DomainError(f"no reference radius for {model.model_id}; calibrate one first")
        # the single-line rule thresholds the estimate, the three-line rules
        # the raw observation
        if model.variant == T1:
            return neighborhood_values(model, r, mu_hat)[index]
        return neighborhood_values(model, r, zbar_norm)
    if method == "plugin":
        values = bias_on_cone(model, mu_hat, alpha0)
    else:
        shrunk = mu_hat <= consistent_radius(n, rule.eta_exponent)
        if method == "consistent":
            values = np.where(shrunk, singularity_bias(model), bias_on_cone(model, mu_hat, alpha0))
        else:
            # the parametric bootstrap's value as B -> infinity: the bias at
            # its centre, the estimate (0, mu_hat) or, within the consistent
            # radius, the origin, on the point's own cone
            values = bias_on_cone(model, np.where(shrunk, 0.0, mu_hat), alpha0)
    return values[index]
