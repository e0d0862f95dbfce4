"""Self-contained special functions.

The closed-form bias values rest on the error function, Owen's T and the
bivariate normal CDF, so they are implemented in-package rather than
delegated: the same bits come back on every platform, and each element's
bits do not depend on the other elements of the array it arrives in.
(Monte Carlo normals come from numpy's own sampler; see montecarlo.)

erf and erfc are W. J. Cody's fixed-degree rational forms ("Rational Chebyshev
approximations for the error function", Math. Comp. 23 (1969), as in SPECFUN's
CALERF), one on each of |x| <= 0.46875, 0.46875 < |x| <= 4 and |x| > 4, with
no data-dependent loop.

Accuracy, measured against mpmath at 50 digits: erf within 4.5e-16 and erfc
within 6.5e-16 relative on [-26, 26] (erfc is subnormal from x = 26.544 and 0
from x = 27.226).

Owen's T(h, a) is a fixed Gauss-Legendre rule on its defining integral for
|a| <= 1 and Owen's reciprocal identity above 1 (Patefield and Tandy,
"Fast and accurate calculation of Owen's T function", J. Stat. Softw. 5(5),
2000); the bivariate normal CDF is Owen's (1956) formula in T.  The rule's
nodes and weights come from Newton's iteration on the Legendre recurrence,
with no eigensolver.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT2 = math.sqrt(2.0)
_NEWTON_STEPS = 8  # evaluations at most; from Tricomi's estimate three suffice
# nodes of the Gauss-Legendre rule for Owen's T on |a| <= 1, where the
# integrand exp(-h^2 (1 + x^2) / 2) / (1 + x^2) is analytic but for its poles
# at +-i, and below 1e-16 wherever h is large enough to make it steep
_OWEN_NODES = 32

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


def norm_cdf2(h, k, rho):
    """P(X <= h, Y <= k) for standard normals X and Y with correlation rho in
    [-1, 1], elementwise, by Owen's formula

        Phi2(h, k; rho) = t(h, k) + t(k, h) - [hk < 0] / 2,
        t(x, y) = Phi(x) / 2 - T(x, (y - rho x) / (x sqrt(1 - rho^2))),

    whose limits at x = 0 are t = 0 for y != 0 (the half of Phi(0) and T's
    limit +-1/4 cancel with the jump of [hk < 0]) and t = 1/4 - arccos(rho)/(4 pi)
    for y = 0.  At rho = +-1 the ratio is +-inf, or 0 where its numerator is."""
    h, k, rho = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (h, k, rho)))
    s = np.sqrt((1.0 - rho) * (1.0 + rho))

    def t(x, y):
        num = y - rho * x
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(num == 0.0, 0.0, num / (x * s))
        at_zero = np.where(y == 0.0, 0.25 - np.arccos(rho) / (4.0 * math.pi), 0.0)
        return np.where(x == 0.0, at_zero, 0.5 * norm_cdf(x) - owens_t(x, a))

    out = t(h, k) + t(k, h) - np.where(np.sign(h) * np.sign(k) < 0.0, 0.5, 0.0)
    return float(out) if out.ndim == 0 else out


def owens_t(h, a):
    """Owen's T(h, a) = (1/2pi) int_0^a exp(-h^2 (1 + x^2)/2) / (1 + x^2) dx,
    elementwise, for real h and a (a may be +-inf).

    T is even in h and odd in a.  For |a| <= 1 a fixed Gauss-Legendre rule
    evaluates the integral; above 1 the reciprocal identity
    T(h, a) = Q(h)/2 + Q(ah)/2 - Q(h) Q(ah) - T(ah, 1/a), h >= 0, Q = 1 - Phi,
    leaves an integral over [0, 1/a] again, with upper tails that keep their
    accuracy far out."""
    h, a = np.broadcast_arrays(np.abs(np.asarray(h, dtype=float)), np.asarray(a, dtype=float))
    b = np.abs(a)
    wide = b > 1.0
    with np.errstate(invalid="ignore"):  # 0 * inf, where h = 0 keeps g = 0
        g = np.where(wide & (h > 0.0), h * b, h)  # ah, the identity's far argument
    b = np.minimum(b, 1.0 / np.maximum(b, 1.0))  # the integral's end, |a| or 1/|a|
    u, w = _owen_rule()
    x2 = (b[..., None] * u) ** 2
    with np.errstate(over="ignore"):  # exp(-g^2 (1 + x^2) / 2) is 0 once g^2 overflows
        f = np.exp(-0.5 * (g * g)[..., None] * (1.0 + x2)) / (1.0 + x2)
    inner = b / (2.0 * math.pi) * np.einsum("...j,j->...", f, w)
    q, qg = norm_cdf(-h), norm_cdf(-g)
    out = np.sign(a) * np.where(wide, 0.5 * q + 0.5 * qg - q * qg - inner, inner)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=1)
def _owen_rule() -> tuple[np.ndarray, np.ndarray]:
    """Owen's T rule: _OWEN_NODES Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = _legendre_rule(_OWEN_NODES)
    return 0.5 * (1.0 + x), 0.5 * w


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
