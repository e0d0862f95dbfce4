"""Self-contained special functions.

Everything downstream (closed-form bias values, quadrature weights, inverse-CDF
sampling) rests on these, so they are implemented in-package rather than
delegated: the same bits come back on every platform.

Accuracy targets: erf relative error <= 1e-12 for |x| <= 6 and absolute error
<= 1e-15 beyond; norm_ppf relative error ~1e-15 after Halley refinement.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SERIES_CUTOFF = 3.0  # erf: power series below, continued fraction above


def _erf_series(x: np.ndarray) -> np.ndarray:
    # erf(x) = (2x/sqrt(pi)) e^{-x^2} sum_k (2x^2)^k / (2k+1)!!  -- all terms
    # positive, no cancellation; converges fast for |x| <= 3.
    x2 = 2.0 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 120):
        term = term * (x2 / (2.0 * k + 1.0))
        total += term
        if np.all(term <= 1e-18 * total):
            break
    return (2.0 / _SQRT_PI) * x * np.exp(-x * x) * total


def _erfc_cf(x: np.ndarray) -> np.ndarray:
    # sqrt(pi) e^{x^2} erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
    # i.e. partial numerators a_1 = 1, a_j = (j-1)/2 and denominators b_j = x,
    # evaluated by the modified Lentz algorithm; reliable for x >= 2.
    tiny = 1e-300
    f = np.full_like(x, tiny)
    c = f.copy()
    d = np.zeros_like(x)
    for j in range(1, 200):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        d = x + a * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = x + a / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = c * d
        f = f * delta
        if np.all(np.abs(delta - 1.0) < 1e-17):
            break
    return np.exp(-x * x) / _SQRT_PI * f


def erf(x):
    """Error function, vectorized; scalars in give scalars out."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    out = np.empty_like(x_arr)
    ax = np.abs(x_arr)

    small = ax <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = _erf_series(x_arr[small])
    big = ~small
    if np.any(big):
        saturated = ax[big] >= 7.0
        vals = np.ones(big.sum())
        mid = ~saturated
        if np.any(mid):
            vals[mid] = 1.0 - _erfc_cf(ax[big][mid])
        out[big] = np.copysign(vals, x_arr[big])
    return float(out[0]) if scalar else out


def erfc(x):
    """Complementary error function; keeps relative accuracy in the far tail."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    out = np.empty_like(x_arr)

    # switch to the continued fraction earlier than erf does: 1 - erf(x)
    # loses relative accuracy once erfc is small
    big = x_arr > 2.0
    if np.any(big):
        out[big] = _erfc_cf(x_arr[big])
    rest = ~big
    if np.any(rest):
        out[rest] = 1.0 - erf(x_arr[rest])
    return float(out[0]) if scalar else out


def norm_cdf(x):
    """Standard normal CDF."""
    x_arr = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x_arr / _SQRT2) if x_arr.ndim else float(0.5 * erfc(-x_arr / _SQRT2))


# Acklam's rational approximation of the normal quantile (|rel err| < 1.2e-9),
# used as the starting point for one Halley step against norm_cdf above.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_PPF_LOW = 0.02425


def _ppf_acklam(p: np.ndarray) -> np.ndarray:
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    out = np.empty_like(p)

    lo = p < _PPF_LOW
    hi = p > 1.0 - _PPF_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r) + 1.0
        out[mid] = q * num / den
    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(p[lo]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q) + 1.0
        out[lo] = num / den
    if np.any(hi):
        q = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q) + 1.0
        out[hi] = -num / den
    return out


def norm_ppf(p):
    """Standard normal quantile: Acklam's approximation plus one Halley step."""
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("norm_ppf requires p strictly inside (0, 1)")
    x = _ppf_acklam(p_arr)
    e = 0.5 * erfc(-x / _SQRT2) - p_arr
    u = e * math.sqrt(2.0 * math.pi) * np.exp(0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    return float(x[0]) if scalar else x

