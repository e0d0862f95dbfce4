"""Model scoring and decision-region grids.

Assembles -2 log L and a chosen bias-correction estimator into generalized
and classical scores, ranks candidate models, and labels barycentric lattices
of pseudo-observations with the winning model.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from . import __version__
from .estimators import EstimatorRule, rule_values
from .geometry import DomainError, Record, alpha_from_phi0, mu0y, require_distinct
from .models import ModelSpec, mle_rows, neg2loglik_rows

# region_grid's generalized scores within this of the least one are a tie.
_TIE_TOL = 1e-8


class ScoreRow(Record):
    """One model's line of a SelectionReport; an error row holds only the
    model_id and the error."""

    __slots__ = ("model_id", "neg2loglik", "bias_method", "bias_value", "aicg", "aic",
                 "rank_aicg", "rank_aic", "error")

    def __init__(self, model_id: str, neg2loglik: float | None, bias_method: str | None,
                 bias_value: float | None, aicg: float | None, aic: float | None,
                 rank_aicg: int | None, rank_aic: int | None, error: str | None = None):
        self._fill(model_id, neg2loglik, bias_method, bias_value, aicg, aic,
                   rank_aicg, rank_aic, error)


class SelectionReport(Record):
    __slots__ = ("rows", "metadata")

    def __init__(self, rows: tuple[ScoreRow, ...], metadata: dict[str, Any]):
        self._fill(rows, metadata)

    def winner(self) -> str | None:
        for row in self.rows:
            if row.rank_aicg == 1:
                return row.model_id
        return None


class ModelScores(Record):
    """One model's scores on N count rows.  A model the estimator cannot
    handle holds NaN values and its error message on every row.  mu_hat is
    the observed distance: 0 without a line, +inf where the estimate sits at
    a simplex vertex."""

    __slots__ = ("model", "bias_method", "neg2loglik", "bias", "mu_hat", "error")

    def __init__(self, model: ModelSpec, bias_method: str, neg2loglik: np.ndarray,
                 bias: np.ndarray, mu_hat: np.ndarray, error: str | None):
        self._fill(model, bias_method, neg2loglik, bias, mu_hat, error)

    @property
    def aicg(self) -> np.ndarray:
        return self.neg2loglik + self.bias

    @property
    def aic(self) -> np.ndarray:
        return self.neg2loglik + 2.0 * self.model.dim


def _line_geometry(counts: np.ndarray, theta: np.ndarray, line: np.ndarray, n: int):
    """A line model's fit as estimators.rule_values reads it: (mu_hat,
    alpha0, zbar_norm, index).

    The estimate on the fitted line is p = max(c / n, 1/3), c the row's count
    of that line's taxon, so the observed distance mu_hat and the cone angle
    alpha0 are taken once per distinct c, and index maps each row to its c:
    rows of one total share few counts.  (Where the counts span more values
    than there are rows, each row is its own.)  An estimate at a vertex
    (p = 1) lies at distance +inf; its angle is the one at the centroid,
    which no rule reads at that distance.

    zbar_norm is the norm of each row's transformed sample mean.  The
    transform is the Fisher scaling at the estimate followed by a rotation,
    which keeps norms: ||zbar||^2 = n sum_i (xbar_i - 1/3)^2 / theta_i.  At a
    vertex it is +inf too, its limit as theta_i -> 0 where xbar_i = 0.
    """
    rows = np.arange(len(counts))
    c = counts[rows, line]
    low = c.min()
    span = c.max() - low + 1
    if span <= len(c):
        c, index = low + np.arange(span), (c - low).astype(np.intp)
    else:
        index = rows
    p_big = np.maximum(c / n, 1.0 / 3.0)
    vertex = p_big >= 1.0
    phi = np.where(vertex, 1.0, 1.5 * (1.0 - p_big))
    with np.errstate(divide="ignore"):  # (0 - 1/3)^2 / 0 = inf at a vertex
        zbar_norm = np.sqrt(n * np.sum((counts / n - 1.0 / 3.0) ** 2 / theta, axis=1))
    return np.where(vertex, np.inf, mu0y(phi, n)), alpha_from_phi0(phi), zbar_norm, index


def observe(model: ModelSpec, counts: np.ndarray, n: int):
    """(theta, geometry) for a nonempty (N, 3) count array with total n: the
    constrained MLE of each row and what a rule reads of it
    (estimators.rule_values), the observed distance 0 for a model without a
    line."""
    theta, line = mle_rows(model, counts)
    if line is None:
        rows = len(counts)
        return theta, (np.zeros(1), np.zeros(1), np.zeros(rows), np.zeros(rows, np.intp))
    return theta, _line_geometry(counts, theta, line, n)


def _score_model(model: ModelSpec, counts: np.ndarray, n: int,
                 rule: EstimatorRule) -> ModelScores:
    nan = np.full(len(counts), np.nan)
    label = "plug-in" if rule.method == "plugin" else rule.method
    mu_hat = nan
    try:
        theta, geometry = observe(model, counts, n)
        mu_hat = geometry[0][geometry[3]]  # each row's observed distance
        bias = rule_values(model, rule, n, geometry)
    except (DomainError, ValueError) as exc:
        return ModelScores(model, label, nan, nan, mu_hat, str(exc))
    return ModelScores(model, label, neg2loglik_rows(counts, theta), bias, mu_hat, None)


def score_batch(models: Sequence[ModelSpec], counts,
                rule: EstimatorRule) -> tuple[ModelScores, ...]:
    """Score every candidate model on every row of an (N, 3) count array whose
    rows share one total n: one vectorized MLE per model, and the rule
    evaluated for all rows at once.

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
    return tuple(_score_model(model, counts, n, rule) for model in models)


def _rank(values: list[tuple[float, str]]) -> dict[str, int]:
    order = sorted(range(len(values)), key=lambda i: (values[i][0], values[i][1]))
    return {values[i][1]: pos + 1 for pos, i in enumerate(order)}


def score(models: Sequence[ModelSpec], counts, rule: EstimatorRule) -> SelectionReport:
    """Score each candidate model on an observed count triple and rank by the
    generalized criterion (ties broken by model id): the one-row case of
    score_batch, which checks the counts.  A model the estimator cannot
    handle yields an error row, leaving the other rows intact.
    """
    if not models:
        raise DomainError("need at least one candidate model")
    require_distinct([m.model_id for m in models], "model id")
    batch = score_batch(models, [counts], rule)
    scored = [s for s in batch if s.error is None]
    rank_g = _rank([(float(s.aicg[0]), s.model.model_id) for s in scored])
    rank_a = _rank([(float(s.aic[0]), s.model.model_id) for s in scored])

    rows = []
    for s in batch:
        mid = s.model.model_id
        if s.error is not None:
            rows.append(ScoreRow(mid, None, None, None, None, None, None, None, s.error))
            continue
        rows.append(ScoreRow(mid, float(s.neg2loglik[0]), s.bias_method, float(s.bias[0]),
                             float(s.aicg[0]), float(s.aic[0]), rank_g[mid], rank_a[mid]))
    rows.sort(key=lambda r: (r.rank_aicg is None, r.rank_aicg or 0, r.model_id))
    meta = {
        "n": int(sum(counts)), "estimator": rule.method,
        "radius": rule.radius, "version": __version__,
        "note": "multinomial coefficient dropped from -2 log L",
    }
    return SelectionReport(tuple(rows), meta)


def simplex_lattice(resolution: int) -> list[tuple[int, int, int]]:
    """Barycentric lattice (i, j, k)/R, row-major, excluding the 3 vertices."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    pts = [(i, j, resolution - i - j)
           for i in range(resolution + 1) for j in range(resolution + 1 - i)]
    del pts[-1], pts[resolution], pts[0]  # (R, 0, 0), (0, R, 0), (0, 0, R)
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
    with the least score, "tie" when several lie within tol of it."""
    at_best = aicg <= np.min(aicg, axis=0) + tol
    label = np.where(at_best.sum(axis=0) == 1, np.argmax(at_best, axis=0), len(ids))
    return tuple(np.array(ids + ("tie",), dtype=object)[label].tolist())


def region_grid(models: Sequence[ModelSpec], n: int, resolution: int,
                rule: EstimatorRule) -> tuple[str, ...]:
    """The label of each point of simplex_lattice(resolution), in its order:
    the model winning at the point's pseudo-counts.

    Pseudo-counts are the sum-preserving largest-remainder rounding of n*p
    (exact when n is a multiple of the resolution).  Generalized scores
    within _TIE_TOL of the least are an explicit "tie", so no label rests on
    the last bits of a bias value.  A model that cannot be scored (its
    ModelScores.error is set, on every row) is a DomainError: labelling the
    grid without it would give its points to the others.
    """
    if len(models) < 2:
        raise DomainError("region grids need at least two models")
    ids = tuple(m.model_id for m in models)
    require_distinct(ids, "model id")
    counts = _rounded_counts(np.array(simplex_lattice(resolution)) / resolution, n)
    scores = score_batch(models, counts, rule)
    for s in scores:
        if s.error is not None:
            raise DomainError(f"cannot score {s.model.model_id}: {s.error}")
    return _winner_labels(np.array([s.aicg for s in scores]), ids, _TIE_TOL)
