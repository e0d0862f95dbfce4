"""Self-contained special functions.

The closed-form bias values and the quadrature weights rest on the error
function, so it is implemented in-package rather than delegated: the same bits
come back on every platform, and each element's bits do not depend on the
other elements of the array it arrives in.  (Monte Carlo normals come from
numpy's own sampler; see montecarlo.)

erf and erfc are W. J. Cody's fixed-degree rational forms ("Rational Chebyshev
approximations for the error function", Math. Comp. 23 (1969), as in SPECFUN's
CALERF), one on each of |x| <= 0.46875, 0.46875 < |x| <= 4 and |x| > 4, with
no data-dependent loop.

Accuracy, measured against mpmath at 50 digits: erf within 4.5e-16 and erfc
within 6.5e-16 relative on [-26, 26] (erfc is subnormal from x = 26.544 and 0
from x = 27.226).
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Cody's CALERF tables as (numerator, denominator) pairs, constant term first;
# the last denominator coefficient is CALERF's implicit leading one.
# erf(x) = x P(x^2)/Q(x^2) for |x| <= 0.46875
_ERF_SMALL = ((3.20937758913846947e03, 3.77485237685302021e02, 1.13864154151050156e02,
               3.16112374387056560e00, 1.85777706184603153e-1),
              (2.84423683343917062e03, 1.28261652607737228e03, 2.44024637934444173e02,
               2.36012909523441209e01, 1.0))
# erfc(y) = e^{-y^2} P(y)/Q(y) for 0.46875 < y <= 4
_ERFC_MID = ((1.23033935479799725e03, 2.05107837782607147e03, 1.71204761263407058e03,
              8.81952221241769090e02, 2.98635138197400131e02, 6.61191906371416295e01,
              8.88314979438837594e00, 5.64188496988670089e-1, 2.15311535474403846e-8),
             (1.23033935480374942e03, 3.43936767414372164e03, 4.36261909014324716e03,
              3.29079923573345963e03, 1.62138957456669019e03, 5.37181101862009858e02,
              1.17693950891312499e02, 1.57449261107098347e01, 1.0))
# erfc(y) = e^{-y^2} (1/sqrt(pi) - P(1/y^2)/(y^2 Q(1/y^2))) / y for y > 4
_ERFC_FAR = ((6.58749161529837803e-4, 1.60837851487422766e-2, 1.25781726111229246e-1,
              3.60344899949804439e-1, 3.05326634961232344e-1, 1.63153871373020978e-2),
             (2.33520497626869185e-3, 6.05183413124413191e-2, 5.27905102951428412e-1,
              1.87295284992346725e00, 2.56852019228982242e00, 1.0))
_ERF_THRESH = 0.46875
_INV_SQRT_PI = 5.6418958354775628695e-1
# erfc is exactly 0 from here on (e^{-28^2} underflows); larger |x| is clipped
# to it, which also keeps 1/x^2 from overflowing
_ERFC_ZERO_AT = 28.0


def _ratio(t: np.ndarray, coeffs) -> np.ndarray:
    """P(t)/Q(t) by Horner's rule, coefficients constant term first.  Steps
    run in place, which spares a temporary array per step."""
    num, den = coeffs
    xnum = num[-1] * t
    xden = den[-1] * t
    xnum += num[-2]
    xden += den[-2]
    for a, b in zip(num[-3::-1], den[-3::-1]):
        xnum *= t
        xnum += a
        xden *= t
        xden += b
    xnum /= xden
    return xnum


def _erfc_beyond_thresh(y: np.ndarray) -> np.ndarray:
    """erfc(y) for y > 0.46875, including inf and nan."""
    y = np.minimum(y, _ERFC_ZERO_AT)
    out = np.empty_like(y)
    mid = y <= 4.0
    if np.any(mid):
        out[mid] = _ratio(y[mid], _ERFC_MID)
    far = ~mid
    if np.any(far):
        yf = y[far]
        inv2 = 1.0 / (yf * yf)
        out[far] = (_INV_SQRT_PI - inv2 * _ratio(inv2, _ERFC_FAR)) / yf
    # e^{-y^2} as e^{-s^2} e^{-(y-s)(y+s)} with s = y rounded down to 1/16:
    # s^2 is exact, so the large exponent carries no rounding error
    s = np.trunc(y * 16.0) / 16.0
    return np.exp(-s * s) * np.exp(-(y - s) * (y + s)) * out


def _calerf(x, complement: bool):
    """erf(x), or erfc(x) when `complement`; the sign of x is folded in last,
    as in CALERF."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    out = np.empty_like(x_arr)
    y = np.abs(x_arr)

    small = y <= _ERF_THRESH
    if np.any(small):
        xs = x_arr[small]
        e = xs * _ratio(xs * xs, _ERF_SMALL)
        out[small] = 1.0 - e if complement else e
    rest = ~small
    if np.any(rest):
        r = _erfc_beyond_thresh(y[rest])
        neg = x_arr[rest] < 0.0
        if complement:
            out[rest] = np.where(neg, 2.0 - r, r)
        else:
            e = (0.5 - r) + 0.5
            out[rest] = np.where(neg, -e, e)
    return float(out[0]) if scalar else out


def erf(x):
    """Error function, vectorized; scalars in give scalars out."""
    return _calerf(x, complement=False)


def erfc(x):
    """Complementary error function; keeps relative accuracy in the far tail."""
    return _calerf(x, complement=True)


def norm_cdf(x):
    """Standard normal CDF."""
    x_arr = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x_arr / _SQRT2) if x_arr.ndim else float(0.5 * erfc(-x_arr / _SQRT2))
