"""Self-contained special functions.

Everything downstream (closed-form bias values, quadrature weights, inverse-CDF
sampling) rests on these, so they are implemented in-package rather than
delegated: the same bits come back on every platform, and each element's bits
do not depend on the other elements of the array it arrives in.

Each is a set of fixed-degree rational forms, with no data-dependent loop:

- erf and erfc: W. J. Cody, "Rational Chebyshev approximations for the error
  function", Math. Comp. 23 (1969), as in SPECFUN's CALERF, with one form on
  each of |x| <= 0.46875, 0.46875 < |x| <= 4 and |x| > 4;
- norm_ppf: M. J. Wichura, "Algorithm AS241: the percentage points of the
  normal distribution", Appl. Statist. 37 (1988), with one form for
  |p - 1/2| <= 0.425 and two for the tails.

Accuracy, measured against mpmath at 50 digits: erf within 4.5e-16 and erfc
within 6.5e-16 relative on [-26, 26] (erfc is subnormal from x = 26.544 and 0
from x = 27.226); norm_ppf within 6.6e-16 relative for p in [1e-300, 1 - 2**-53],
and exactly antisymmetric: norm_ppf(1 - p) == -norm_ppf(p) for p in [0.5, 1).
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


# Wichura's AS241 (PPND16) coefficients, constant term first.
_PPF_CENTRAL = ((3.387132872796366608e+0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
                 1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
                 3.3430575583588128105e+4, 2.5090809287301226727e+3),
                (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2,
                 5.3941960214247511077e+3, 2.1213794301586595867e+4, 3.9307895800092710610e+4,
                 2.8729085735721942674e+4, 5.2264952788528545610e+3))
_PPF_NEAR = ((1.42343711074968357734e+0, 4.63033784615654529590e+0, 5.76949722146069140550e+0,
              3.64784832476320460504e+0, 1.27045825245236838258e+0, 2.41780725177450611770e-1,
              2.27238449892691845833e-2, 7.74545014278341407640e-4),
             (1.0, 2.05319162663775882187e+0, 1.67638483018380384940e+0,
              6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
              5.47593808499534494600e-4, 1.05075007164441684324e-9))
_PPF_FAR = ((6.65790464350110377720e+0, 5.46378491116411436990e+0, 1.78482653991729133580e+0,
             2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
             2.71155556874348757815e-5, 2.01033439929228813265e-7),
            (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
             1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
             1.42151175831644588870e-7, 2.04426310338993978564e-15))


def norm_ppf(p):
    """Standard normal quantile by Wichura's AS241; scalars in give scalars out."""
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("norm_ppf requires p strictly inside (0, 1)")
    out = np.empty_like(p_arr)
    q = p_arr - 0.5

    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        out[central] = qc * _ratio(0.180625 - qc * qc, _PPF_CENTRAL)
    tail = ~central
    if np.any(tail):
        qt = q[tail]
        # the smaller of p and 1 - p; both are exact for p in (0, 1)
        r = np.sqrt(-np.log(np.where(qt < 0.0, p_arr[tail], 1.0 - p_arr[tail])))
        x = np.empty_like(r)
        near = r <= 5.0
        if np.any(near):
            x[near] = _ratio(r[near] - 1.6, _PPF_NEAR)
        far = ~near
        if np.any(far):
            x[far] = _ratio(r[far] - 5.0, _PPF_FAR)
        out[tail] = np.where(qt < 0.0, -x, x)
    return float(out[0]) if scalar else out
