"""Model scoring and decision-region grids.

Assembles -2 log L and a chosen bias-correction estimator into generalized
and classical scores, ranks candidate models, and labels barycentric lattices
of pseudo-observations with the winning model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .closedform import bias_constant, singularity_bias
from .estimators import (
    EstimatorRule,
    bias_on_cone,
    consistent_radius,
    default_observed,
    default_radius,
    least_favorable,
    neighborhood_values,
)
from .geometry import Counts, DomainError, TransformedPoint
from .models import T1, T3, ModelSpec, cone_of, mle_rows, neg2loglik_rows, t3_cone
from .montecarlo import McSettings, bias_evaluator, mc_expected_estimators
from .quadrature import QuadratureSettings

_VERSION = "0.1.0"


@dataclass(frozen=True)
class ScoreRow:
    model_id: str
    neg2loglik: float | None
    bias_method: str | None
    bias_value: float | None
    aicg: float | None
    aic: float | None
    rank_aicg: int | None
    rank_aic: int | None
    error: str | None = None


@dataclass(frozen=True)
class SelectionReport:
    rows: tuple[ScoreRow, ...]
    metadata: dict[str, Any] = field(default_factory=dict)

    def winner(self) -> str | None:
        for row in self.rows:
            if row.rank_aicg == 1:
                return row.model_id
        return None


@dataclass(frozen=True)
class ModelScores:
    """One model's scores on N count rows.  A row the estimator cannot handle
    holds NaN values and its error message; the other rows are unaffected."""

    model: ModelSpec
    bias_method: str
    neg2loglik: np.ndarray
    bias: np.ndarray
    std_error: np.ndarray | None  # bootstrap only
    mu_hat: np.ndarray  # observed distance; 0 without a line, NaN where undefined
    errors: tuple[str | None, ...]

    @property
    def aicg(self) -> np.ndarray:
        return self.neg2loglik + self.bias

    @property
    def aic(self) -> np.ndarray:
        return self.neg2loglik + 2.0 * self.model.dim


# rules that read the observed distance of a line model
_OBSERVED_RULES = ("plugin", "uo", "minimax", "consistent", "bootstrap")


def _line_geometry(counts: np.ndarray, theta: np.ndarray, line: np.ndarray, n: int):
    """Per row of a line model's fit: the observed distance mu_hat, the cone
    angle alpha0_hat and the norm of the transformed sample mean, with an
    error message where the estimate reaches a vertex (p = 1), which has no
    distance.

    The transform is the Fisher scaling at the estimate followed by a
    rotation, which keeps norms: ||zbar||^2 = n sum_i (xbar_i - 1/3)^2 / theta_i.
    """
    p_big = theta[np.arange(len(counts)), line]
    valid = p_big < 1.0
    errors = tuple(None if p < 1.0 else f"p1={p!r} outside [1/3, 1)" for p in p_big.tolist())
    phi = np.where(valid, 1.5 * (1.0 - p_big), 1.0)
    mu_hat = math.sqrt(2.0 * n) * (1.0 - phi) / np.sqrt(phi * (3.0 - 2.0 * phi))
    alpha0 = np.arctan(1.0 / np.sqrt(3.0 * (3.0 - 2.0 * phi)))
    theta = np.where(valid[:, None], theta, 1.0 / 3.0)
    zbar_norm = np.sqrt(n * np.sum((counts / n - 1.0 / 3.0) ** 2 / theta, axis=1))
    return np.where(valid, mu_hat, np.nan), alpha0, zbar_norm, errors


def _rule_values(model: ModelSpec, rule: EstimatorRule, n: int, counts: np.ndarray,
                 mu_hat: np.ndarray, alpha0: np.ndarray, zbar_norm: np.ndarray,
                 seed: int, quad: QuadratureSettings) -> tuple[np.ndarray, np.ndarray | None]:
    """The rule's bias value (and bootstrap standard error) for each row."""
    method = rule.method
    rows = len(counts)
    if method == "aic":
        return np.full(rows, 2.0 * model.dim), None
    if method in ("llf", "ulf"):
        which = "lower" if method == "llf" else "upper"
        return np.full(rows, least_favorable(model, which, quad, float(n)).value), None
    if method == "bootstrap":
        return _bootstrap_values(model, rule, n, mu_hat, alpha0, seed)
    if model.variant not in (T1, T3):
        return np.full(rows, bias_constant(model).value), None
    if method == "plugin":
        return bias_on_cone(model, mu_hat, alpha0, quad), None
    if method in ("uo", "minimax"):
        r = rule.radius if rule.radius is not None else default_radius(model, method)
        dist = zbar_norm if default_observed(model, method) == "zbar" else mu_hat
        return neighborhood_values(model, r, dist), None
    if method == "consistent":
        shrunk = mu_hat <= consistent_radius(n, rule.eta_exponent)
        values = np.full(rows, singularity_bias(model))
        values[~shrunk] = bias_on_cone(model, mu_hat[~shrunk], alpha0[~shrunk], quad)
        return values, None
    raise DomainError(f"estimator method {method!r} not usable for scoring")


def _bootstrap_values(model: ModelSpec, rule: EstimatorRule, n: int, mu_hat: np.ndarray,
                      alpha0: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's parametric bootstrap value and standard error.

    A line model's row is centred at its estimate (0, mu_hat), or at the
    origin where mu_hat lies within consistent_radius; the other models'
    rows at the origin.  One Monte Carlo run covers the rows' distinct
    (center, cone) pairs, and every pair sees the same chunk normals, so rows
    with the same pair share one value and no row's value depends on the
    other rows.
    """
    center = mu_hat
    if model.variant in (T1, T3):
        center = np.where(mu_hat <= consistent_radius(n, rule.eta_exponent), 0.0, mu_hat)
    # only the t3 cone turns with the angle
    angle = alpha0 if model.variant == T3 else np.zeros_like(center)
    pairs, where = np.unique(np.column_stack([center, angle]), axis=0, return_inverse=True)
    points = []
    for y, a0 in pairs.tolist():
        cone = t3_cone(a0) if model.variant == T3 else cone_of(model)
        mu0 = TransformedPoint(0.0, y)
        points.append((cone, mu0, [bias_evaluator(cone, mu0.as_array())]))
    ests = [est for [est] in mc_expected_estimators(points, McSettings(seed, rule.bootstrap_b))]
    values = np.array([est.value for est in ests])
    std_errors = np.array([est.std_error for est in ests])
    return values[where.ravel()], std_errors[where.ravel()]


def _score_model(model: ModelSpec, counts: np.ndarray, n: int, rule: EstimatorRule,
                 seed: int, quad: QuadratureSettings) -> ModelScores:
    rows = len(counts)
    nan = np.full(rows, np.nan)
    label = "plug-in" if rule.method == "plugin" else rule.method
    try:
        theta, line = mle_rows(model, counts)
    except DomainError as exc:
        return ModelScores(model, label, nan, nan, None, nan, (str(exc),) * rows)
    errors: tuple[str | None, ...] = (None,) * rows
    mu_hat = alpha0 = zbar_norm = np.zeros(rows)
    if line is not None:
        mu_hat, alpha0, zbar_norm, geometry_errors = _line_geometry(counts, theta, line, n)
        if rule.method in _OBSERVED_RULES:
            errors = geometry_errors
    ok = np.array([e is None for e in errors])
    bias, std_error = nan.copy(), None
    if ok.any():
        try:
            values, ses = _rule_values(model, rule, n, counts[ok], mu_hat[ok], alpha0[ok],
                                       zbar_norm[ok], seed, quad)
        except (DomainError, ValueError) as exc:
            errors = tuple(e or str(exc) for e in errors)
            ok[:] = False
        else:
            bias[ok] = values
            if ses is not None:
                std_error = nan.copy()
                std_error[ok] = ses
    neg2loglik = np.where(ok, neg2loglik_rows(counts, theta), np.nan)
    return ModelScores(model, label, neg2loglik, bias, std_error, mu_hat, errors)


def score_batch(models: Sequence[ModelSpec], counts, rule: EstimatorRule, seed: int = 0,
                quad: QuadratureSettings = QuadratureSettings()) -> tuple[ModelScores, ...]:
    """Score every candidate model on every row of an (N, 3) count array whose
    rows share one total n: one vectorized MLE per model, and the rule
    evaluated for all rows at once (the bootstrap as one Monte Carlo run over
    the rows' distinct centers and cones).

    The multinomial coefficient is dropped from every -2 log L; it is common
    to all models for fixed data, so score differences are unaffected.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != 3 or len(counts) == 0:
        raise DomainError("counts must be a nonempty (N, 3) array")
    totals = counts.sum(axis=1)
    if np.any(counts < 0) or np.any(counts % 1) or np.any(totals != totals[0]) or totals[0] < 1:
        raise DomainError("count rows must be nonnegative integers sharing one total n >= 1")
    n = int(totals[0])
    return tuple(_score_model(model, counts, n, rule, seed, quad) for model in models)


def _rank(values: list[tuple[float, str]]) -> dict[str, int]:
    order = sorted(range(len(values)), key=lambda i: (values[i][0], values[i][1]))
    return {values[i][1]: pos + 1 for pos, i in enumerate(order)}


def score(models: Sequence[ModelSpec], counts: Counts, rule: EstimatorRule,
          seed: int = 0, quad: QuadratureSettings = QuadratureSettings()) -> SelectionReport:
    """Score each candidate model on observed counts and rank by the
    generalized criterion (ties broken by model id): the one-row case of
    score_batch.  A model the estimator cannot handle yields an error row,
    leaving the other rows intact.
    """
    if not models:
        raise DomainError("need at least one candidate model")
    batch = score_batch(models, counts.as_array()[None], rule, seed, quad)
    scored = [s for s in batch if s.errors[0] is None]
    rank_g = _rank([(float(s.aicg[0]), s.model.model_id) for s in scored])
    rank_a = _rank([(float(s.aic[0]), s.model.model_id) for s in scored])

    rows = []
    for s in batch:
        mid = s.model.model_id
        if s.errors[0] is not None:
            rows.append(ScoreRow(mid, None, None, None, None, None, None, None, s.errors[0]))
            continue
        rows.append(ScoreRow(mid, float(s.neg2loglik[0]), s.bias_method, float(s.bias[0]),
                             float(s.aicg[0]), float(s.aic[0]), rank_g[mid], rank_a[mid]))
    rows.sort(key=lambda r: (r.rank_aicg is None, r.rank_aicg or 0, r.model_id))
    meta = {
        "n": counts.n, "seed": seed, "estimator": rule.method,
        "radius": rule.radius, "version": _VERSION,
        "note": "multinomial coefficient dropped from -2 log L",
    }
    return SelectionReport(tuple(rows), meta)


def parse_model_id(model_id: str) -> ModelSpec:
    """Inverse of ModelSpec.model_id, also accepting CLI spellings."""
    from .models import t1_model, t3_model, polytomy_model, unconstrained_model, validate_halflines
    s = model_id.strip().lower()
    if s.startswith("t1"):
        topo = int(s.split(":", 1)[1]) if ":" in s else 1
        return t1_model(topo)
    if s == "t3":
        return t3_model()
    if s == "polytomy":
        return polytomy_model()
    if s in ("unconstrained", "u"):
        return unconstrained_model()
    if s.startswith("halflines:"):
        return validate_halflines([float(a) for a in s.split(":", 1)[1].split(",")])
    raise DomainError(f"unknown model id {model_id!r}")


def akaike_weights(report: SelectionReport) -> dict[str, float]:
    """Optional exp(-delta/2) weights over the generalized scores."""
    scored = [(r.model_id, r.aicg) for r in report.rows if r.aicg is not None]
    best = min(v for _, v in scored)
    raw = {mid: math.exp(-0.5 * (v - best)) for mid, v in scored}
    total = sum(raw.values())
    return {mid: w / total for mid, w in raw.items()}


@dataclass(frozen=True)
class RegionGrid:
    resolution: int
    n: int
    model_ids: tuple[str, ...]
    points: tuple[tuple[int, int, int], ...]
    winners: tuple[str, ...]
    metadata: dict[str, Any] = field(default_factory=dict)


def simplex_lattice(resolution: int) -> list[tuple[int, int, int]]:
    """Barycentric lattice (i, j, k)/R, row-major, excluding the 3 vertices."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    pts = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            k = resolution - i - j
            if max(i, j, k) == resolution:
                continue
            pts.append((i, j, k))
    return pts


def _rounded_counts(p: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder rounding of n*p for each row of an (N, 3) array;
    equal remainders go to the smallest index."""
    raw = n * p
    base = np.floor(raw)
    short = n - base.sum(axis=1)
    order = np.argsort(base - raw, axis=1, kind="stable")
    place = np.argsort(order, axis=1, kind="stable")
    return base + (place < short[:, None])


def _winner_labels(aicg: np.ndarray, ids: tuple[str, ...], tol: float) -> tuple[str, ...]:
    """Per column of a (models, points) score array: the id of the one model
    with the least score, "tie" when several lie within tol of it, "error"
    when every score is NaN."""
    # error rows hold NaN, which compares false, so a point where every
    # model failed has no best score
    at_best = aicg <= np.min(np.where(np.isnan(aicg), np.inf, aicg), axis=0) + tol
    hits = at_best.sum(axis=0)
    label = np.where(hits == 1, np.argmax(at_best, axis=0),
                     np.where(hits > 1, len(ids), len(ids) + 1))
    return tuple(np.array(ids + ("tie", "error"), dtype=object)[label].tolist())


def region_grid(models: Sequence[ModelSpec], n: int, resolution: int,
                rule: EstimatorRule, seed: int = 0,
                quad: QuadratureSettings = QuadratureSettings()) -> RegionGrid:
    """Label every lattice point with the model winning at its pseudo-counts.

    Pseudo-counts are the sum-preserving largest-remainder rounding of n*p
    (exact when n is a multiple of the resolution).  Generalized scores
    within quad.abs_tol of the least are an explicit "tie", so no label rests
    on the last bits of a quadrature value.
    """
    if len(models) < 2:
        raise DomainError("region grids need at least two models")
    pts = simplex_lattice(resolution)
    counts = _rounded_counts(np.array(pts) / resolution, n)
    aicg = np.array([s.aicg for s in score_batch(models, counts, rule, seed, quad)])
    ids = tuple(m.model_id for m in models)
    return RegionGrid(
        resolution=resolution, n=n, model_ids=ids,
        points=tuple(pts), winners=_winner_labels(aicg, ids, quad.abs_tol),
        metadata={"estimator": rule.method, "seed": seed, "version": _VERSION},
    )
