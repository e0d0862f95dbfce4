"""Practical bias-correction estimators.

Plug-in, lower/upper least favorable, neighborhood rules (uniformly
outperforming and minimax, with radius calibration), consistent shrinkage
estimation, the parametric bootstrap, and crude dimension bounds.
rule_values is the one definition of every rule: selection.score_batch
applies it to count rows, and montecarlo.curve_grid to the draws of a curve
point, whose column is its mean.  The bootstrap's value is the bias at its
centre (the consistent estimate) on the row's own cone, which bias_on_cone
computes exactly, so scoring draws nothing.

Radius calibration conventions follow the constructions they reproduce: the
single-line rules threshold the constrained estimate's distance (so the
expected rule value is 2 - Phi(r - mu)), while the three-line rules threshold
the raw observation's distance (a noncentral radial probability).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .closedform import BiasEstimate, bias_aic, bias_constant, singularity_bias
from .geometry import (
    DomainError,
    Record,
    angles_from_phi0,
    phi_from_mu0y,
)
from .models import (
    HALFLINES,
    POLYTOMY,
    T1,
    T3,
    UNCONSTRAINED,
    ModelSpec,
    cone_of,
)
from .quadrature import QuadratureSettings, bias_ray_cone, bias_t3_batch
from .special import erf, norm_cdf

_SQRT2 = math.sqrt(2.0)
_FAR = 40.0

# Published reference radii (derived at reference sample size 1e6); used when
# a neighborhood rule is applied without an explicit radius.
DEFAULT_RADII = {
    (T1, "uo"): 0.0,
    (T1, "minimax"): 0.95,
    (T3, "uo"): 1.77,
    (T3, "minimax"): 2.21,
}


class InfeasibleError(RuntimeError):
    """A calibration problem has no feasible solution."""


class EstimatorRule(Record):
    """Configuration of one data-dependent bias-correction estimator."""

    __slots__ = ("method", "radius", "eta_exponent")

    def __init__(self, method: str, radius: float | None = None,
                 eta_exponent: float = 1.0 / 3.0):
        self._fill(method, radius, eta_exponent)
        if method not in ("plugin", "aic", "llf", "ulf", "uo", "minimax",
                          "consistent", "bootstrap"):
            raise DomainError(f"unknown estimator method {method!r}")
        if radius is not None and not radius >= 0:
            raise DomainError("radius must be nonnegative")


def default_radius(model: ModelSpec, method: str) -> float:
    try:
        return DEFAULT_RADII[(model.variant, method)]
    except KeyError:
        raise DomainError(
            f"no reference radius for {model.model_id}; calibrate one first") from None


def bias_on_cone(model: ModelSpec, mu, alpha0=math.pi / 6.0,
                 quad: QuadratureSettings = QuadratureSettings()):
    """Bias correction at distance mu along a ray of the model's cone,
    elementwise; alpha0 is the t3 cone angle at each distance (other models
    ignore it).  Scalars in give scalars out.

    The t3 values come from one bias_t3_batch call on the distinct
    (mu, alpha0) pairs; a half-lines model's, but for the closed form at the
    origin, from one bias_ray_cone call at (mu, 0), on its 2pi ray.
    """
    mu_arr, alpha_arr = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                            np.asarray(alpha0, dtype=float))
    if model.variant == T1:
        values = 1.0 + erf(mu_arr / _SQRT2)
    elif model.variant == T3:
        pairs, where = np.unique(np.stack([mu_arr.ravel(), alpha_arr.ravel()], axis=1),
                                 axis=0, return_inverse=True)
        values = bias_t3_batch(pairs[:, 0], pairs[:, 1], quad)[where.ravel()]
    elif model.variant in (POLYTOMY, UNCONSTRAINED):
        values = np.full(mu_arr.shape, bias_constant(model).value)
    else:
        flat = mu_arr.ravel()
        values = bias_ray_cone(np.column_stack([flat, np.zeros_like(flat)]),
                               cone_of(model).angles, quad)
        values[flat == 0.0] = singularity_bias(model)
    values = np.reshape(values, mu_arr.shape)
    return float(values) if values.ndim == 0 else values


@lru_cache(maxsize=128)
def least_favorable(model: ModelSpec, which: str,
                    quad: QuadratureSettings = QuadratureSettings(),
                    reference_n: float = 1e6) -> BiasEstimate:
    """Infimum ('lower') or supremum ('upper') of the bias over the cone.

    Computed by a coarse scan of distances [0, 50] (with the cone geometry
    the model has at reference_n) and two finer scans around its best point,
    down to a spacing of 1e-4; the far endpoint already sits at the
    regular-model limit to within 1e-6.  A half-lines scan takes at each
    distance the extreme over all of the model's rays.
    """
    if which not in ("lower", "upper"):
        raise DomainError("which must be 'lower' or 'upper'")
    method = "llf" if which == "lower" else "ulf"
    if model.variant in (POLYTOMY, UNCONSTRAINED):
        value = bias_constant(model).value
        return BiasEstimate(value, method, settings={"model": model.model_id})

    sign = 1.0 if which == "lower" else -1.0

    def f(mus):
        if model.variant == HALFLINES:
            cone = cone_of(model)
            points = mus[:, None, None] * cone.directions()
            values = bias_ray_cone(points.reshape(-1, 2), cone.angles, quad).reshape(len(mus), -1)
            values[mus == 0.0] = singularity_bias(model)
            return np.min(sign * values, axis=1)
        alphas, _ = angles_from_phi0(phi_from_mu0y(mus, reference_n))
        return sign * bias_on_cone(model, mus, alphas, quad)

    best = _scan_min(f, 0.0, 50.0, (0.5, 0.01, 1e-4))
    return BiasEstimate(sign * best[0], method,
                        settings={"model": model.model_id, "argmu": best[1],
                                  "reference_n": reference_n})


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
    return np.where(np.asarray(distance) <= r, singularity_bias(model), bias_aic(model).value)


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
    each near pair's Poisson(r^2 / 2) and Poisson(center_norm^2 / 2)."""
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
    mix = chi_cdf @ _poisson_pmf(half_lam, k, log_fact).T
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


@lru_cache(maxsize=64)
def _truth_grid(model: ModelSpec, grid_key: tuple[float, ...], n: float,
                quad: QuadratureSettings) -> tuple[float, ...]:
    mus = np.array(grid_key)
    alphas, _ = angles_from_phi0(phi_from_mu0y(mus, n))
    return tuple(bias_on_cone(model, mus, alphas, quad))


def _calibration_grid(model: ModelSpec, mu_grid, n: float,
                      quad: QuadratureSettings) -> tuple[np.ndarray, np.ndarray]:
    """The distances a radius is calibrated on and the true bias at each."""
    if model.variant not in (T1, T3):
        raise DomainError(f"neighborhood radii are defined for t1 and t3 only, "
                          f"not {model.model_id}")
    grid = tuple(float(x) for x in mu_grid)
    if not grid:
        raise DomainError("radius calibration needs a nonempty grid")
    return np.array(grid), np.array(_truth_grid(model, grid, float(n), quad))


def minimax_radius(model: ModelSpec, mu_grid, n: float,
                   quad: QuadratureSettings = QuadratureSettings(),
                   r_max: float = 6.0, tol: float = 1e-3) -> tuple[float, dict]:
    """Neighborhood radius minimizing the sup over the grid of squared error
    between the expected rule value and the true bias correction: the best
    point of _scan_min's scans of [0, r_max], spaced 0.05 and then tol, each
    one expected_neighborhood_value call."""
    mus, truth = _calibration_grid(model, mu_grid, n, quad)

    def sup_risk(rs):
        return np.max((expected_neighborhood_value(model, rs, mus) - truth) ** 2, axis=1)

    risk, r = _scan_min(sup_risk, 0.0, r_max, (0.05, tol))
    return r, {"sup_risk": risk}


def uo_radius(model: ModelSpec, mu_grid, n: float, violation_tol: float | None = None,
              quad: QuadratureSettings = QuadratureSettings(),
              r_max: float = 6.0, tol: float = 1e-3) -> tuple[float, dict]:
    """Largest radius whose expected rule value stays between the true bias
    and the classical correction, up to an opposite-sign slack: minimax_radius's
    scans minimize -r over the radii whose largest violation is at most
    violation_tol, with no assumption that these radii form an interval.

    By default the slack is the accuracy the truth states: 1.02e-14 for t1's
    closed form, and quad.abs_tol for t3, whose quadrature rules agree within
    it at every distance (far out its values scatter by about 3e-14 about 2).
    """
    mus, truth = _calibration_grid(model, mu_grid, n, quad)
    if violation_tol is None:
        violation_tol = quad.abs_tol if model.variant == T3 else 1.02e-14
    gap = 2.0 * model.dim - truth
    if np.all(gap >= -1e-12):
        side = 1.0     # classical value overestimates; rule must not dip below truth
    elif np.all(gap <= 1e-12):
        side = -1.0    # classical value underestimates; rule must not exceed truth
    else:
        raise DomainError("classical bias crosses the true bias on this grid; "
                          "no uniformly outperforming construction")

    def violations(rs):
        return side * (truth - expected_neighborhood_value(model, rs, mus))

    def neg_feasible_r(rs):
        return np.where(np.max(violations(rs), axis=1) <= violation_tol, -rs, np.inf)

    value, r = _scan_min(neg_feasible_r, 0.0, r_max, (0.05, tol))
    if value == np.inf:
        raise InfeasibleError(f"no feasible radius in [0, {r_max:g}]")
    worst = violations(r)
    k = int(np.argmax(worst))
    return r, {"capped": r == r_max, "max_violation": float(worst[k]),
               "binding_mu": float(mus[k]), "violation_tol": violation_tol}


def consistent_radius(n: float, eta_exponent: float) -> float:
    """Radius sqrt(n) * eta_n = n^(1/2 - e) of the consistent rule's shrinkage
    ball; the exponent must lie strictly inside (0, 1/2) so the radius grows
    without bound yet more slowly than sqrt(n)."""
    if n < 3:
        raise DomainError("consistent estimation needs n >= 3")
    if not 0.0 < eta_exponent < 0.5:
        raise DomainError("rate exponent must lie strictly inside (0, 1/2)")
    return float(n) ** (0.5 - eta_exponent)


def crude_bounds(model: ModelSpec) -> tuple[BiasEstimate, BiasEstimate]:
    """Dimension bounds: twice the largest affine subspace locally inside the
    space (never below the universal lower bound 0) and twice its affine hull."""
    if model.variant == POLYTOMY:
        lo, hi = 0.0, 0.0
    elif model.variant == UNCONSTRAINED:
        lo, hi = 4.0, 4.0
    elif model.variant == T1:
        lo, hi = 0.0, 2.0
    elif model.variant == T3:
        lo, hi = 0.0, 4.0
    else:
        angles = [a % (2.0 * math.pi) for a in model.angles]
        has_line = any(
            abs(abs(a - b) - math.pi) < 1e-12
            for i, a in enumerate(angles) for b in angles[i + 1:])
        collinear = all(
            min(abs(a - angles[0]), abs(abs(a - angles[0]) - math.pi)) < 1e-12
            for a in angles)
        lo = 2.0 if has_line else 0.0
        hi = 2.0 if collinear else 4.0
    meta = {"model": model.model_id}
    return (BiasEstimate(lo, "crude-bound", settings=meta | {"side": "lower"}),
            BiasEstimate(hi, "crude-bound", settings=meta | {"side": "upper"}))


def rule_constant(model: ModelSpec, rule: EstimatorRule, n: int,
                  quad: QuadratureSettings = QuadratureSettings()) -> float | None:
    """The rule's value where it does not depend on the observation (aic,
    llf, ulf, and every rule on a model with no line), else None."""
    if rule.method == "aic":
        return 2.0 * model.dim
    if rule.method in ("llf", "ulf"):
        which = "lower" if rule.method == "llf" else "upper"
        return least_favorable(model, which, quad, float(n)).value
    if model.variant not in (T1, T3):
        return bias_constant(model).value
    return None


def rule_values(model: ModelSpec, rule: EstimatorRule, n: int, mu_hat: np.ndarray,
                alpha0: np.ndarray, zbar_norm, quad: QuadratureSettings = QuadratureSettings(),
                bias_at=None) -> np.ndarray:
    """The rule's bias value at each observed point of a sample of size n: the
    observed distance mu_hat of the constrained estimate from the origin, the
    cone angle alpha0 there and the norm zbar_norm of the raw observation.

    zbar_norm may be a function of no arguments that returns the norms; only
    the t3 neighborhood rules call it.  bias_at(model, mu, alpha0, quad) gives
    the bias at each distance, bias_on_cone by default.
    """
    bias_at = bias_at or bias_on_cone
    method = rule.method
    rows = len(mu_hat)
    constant = rule_constant(model, rule, n, quad)
    if constant is not None:
        return np.full(rows, constant)
    if method == "plugin":
        return bias_at(model, mu_hat, alpha0, quad)
    if method in ("uo", "minimax"):
        r = rule.radius if rule.radius is not None else default_radius(model, method)
        if model.variant == T1:  # the single-line rule thresholds the estimate
            return neighborhood_values(model, r, mu_hat)
        # the three-line rules threshold the raw observation
        return neighborhood_values(model, r, zbar_norm() if callable(zbar_norm) else zbar_norm)
    shrunk = mu_hat <= consistent_radius(n, rule.eta_exponent)
    if method == "consistent":
        values = np.full(rows, singularity_bias(model))
        values[~shrunk] = bias_at(model, mu_hat[~shrunk], alpha0[~shrunk], quad)
        return values
    # the parametric bootstrap's value as B -> infinity: the bias at its
    # centre, the estimate (0, mu_hat) or, within the consistent radius, the
    # origin, on the point's own cone
    return bias_at(model, np.where(shrunk, 0.0, mu_hat), alpha0, quad)
