"""erf, ndtri and integer log-gamma with the bits of scipy.special.

scipy 1.17 evaluates all three with Moshier's Cephes routines; these are
the same routines on numpy arrays, operation for operation, so every value
has scipy's bits and no command loads scipy.  The coefficients are Cephes'
(ndtr.c, ndtri.c, gamma.c).  Polynomials are evaluated as Cephes' polevl
and p1evl do, one multiply and one add per coefficient, each rounded.

The elementary functions must be the C library's, as scipy's are, not
numpy's: numpy's float64 exp and log are its own SIMD kernels, which on an
AVX-512 host differ from glibc's in the last bit on 4.6% and 0.035% of
uniform inputs in [0, 40].  log is math.log over a list.  exp is numpy's complex128 exp, which
calls the C library's cexp; at a zero imaginary part cexp's real part is
exp's, at a sixth of the cost of math.exp over a list.  numpy's +, -, *, /
and sqrt round correctly at every SIMD level.

erf is scipy's, which differs from Cephes' in two places: it is odd,
erf(-x) = -erf(x), so no negative argument goes through erfc, and erfc
takes a plain exp(-x^2) rather than Cephes' expx2.  For |x| >= 6,
erfc(x) < 2.2e-17 < 2^-54, so 1 - erfc(x) rounds to exactly 1 and erf
returns +-1 without evaluating erfc.
"""

from __future__ import annotations

import math

import numpy as np


def _coefficients(*values):
    """0-d float64 arrays, which numpy adds to an array faster than floats."""
    return tuple(np.array(v) for v in values)


# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_ERF_T = _coefficients(
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = _coefficients(
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8
_ERFC_P = _coefficients(
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = _coefficients(
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERF_ONE = 6.0  # erf is exactly +-1 from here out

# ndtri(y) for |y - 1/2| below 1/2 - e^-2
_NDTRI_P0 = _coefficients(
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = _coefficients(
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# the tails, in x = sqrt(-2 log y): 2 <= x < 8
_NDTRI_P1 = _coefficients(
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = _coefficients(
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# and 8 <= x <= 64
_NDTRI_P2 = _coefficients(
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = _coefficients(
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # e^-2

# Stirling's series for log Gamma(x), 13 <= x < 1000, in 1/x^2
_LGAM_A = _coefficients(
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
# and for x >= 1000 its first three terms, 1/1260, -1/360 and 1/12
_LGAM_TAIL = _coefficients(7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LGAM_SERIES = 1000.0
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_PRODUCT = 13  # below this, log Gamma(k) = log((k - 1)!) from the exact product


def _horner(ans: np.ndarray, x: np.ndarray, coef) -> np.ndarray:
    for c in coef:
        ans *= x
        ans += c
    return ans


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] by Horner's rule, as Cephes' polevl."""
    ans = x * coef[0]
    ans += coef[1]
    return _horner(ans, x, coef[2:])


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], as Cephes' p1evl."""
    return _horner(x + coef[0], x, coef[1:])


def _exp_neg(x: np.ndarray) -> np.ndarray:
    """The C library's exp(-x), through its cexp at a zero imaginary part."""
    return np.exp(np.negative(x, dtype=np.complex128)).real


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's log."""
    return np.array(list(map(math.log, x.tolist())), dtype=np.float64)


def erf(x):
    """scipy.special.erf, elementwise; a 0-d input gives a numpy scalar."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.sign(flat)  # NaN stays NaN; |x| >= 6 is exactly +-1
    a = np.abs(flat)
    small = np.flatnonzero(a <= 1.0)
    if small.size:
        s = flat.take(small)  # x T(x^2) / U(x^2) is odd in x, bit for bit
        z = s * s
        out[small] = s * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    band = np.flatnonzero((a > 1.0) & (a < _ERF_ONE))
    if band.size:
        b = a.take(band)
        erfc = _exp_neg(b * b) * _polevl(b, _ERFC_P) / _p1evl(b, _ERFC_Q)
        out[band] = out.take(band) * (1.0 - erfc)  # times the sign, +-1
    return out.reshape(x.shape)[()]


def ndtri(y):
    """scipy.special.ndtri, elementwise: x with Phi(x) = y, for y in [0, 1]."""
    y = np.asarray(y, dtype=np.float64)
    flat = y.ravel()
    out = np.full(flat.shape, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    inside = (flat > 0.0) & (flat < 1.0)
    upper = flat > 1.0 - _EXP_M2
    v = np.where(upper, 1.0 - flat, flat)  # Cephes' y after its flip; the centre rule reads it too
    centre = np.flatnonzero(inside & (v > _EXP_M2))
    c = v[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _p1evl(c2, _NDTRI_Q0))) * _SQRT_2PI
    tail = np.flatnonzero(inside & (v <= _EXP_M2))
    t = np.sqrt(-2.0 * _log(v[tail]))
    z = 1.0 / t
    t1 = np.empty_like(z)
    for rule, p, q in ((t < 8.0, _NDTRI_P1, _NDTRI_Q1), (t >= 8.0, _NDTRI_P2, _NDTRI_Q2)):
        zr = z[rule]  # each rule on its own values only
        t1[rule] = zr * _polevl(zr, p) / _p1evl(zr, q)
    t = t - _log(t) / t - t1
    out[tail] = np.where(upper[tail], t, -t)
    return out.reshape(y.shape)[()]


def log_gamma_range(stop: int) -> np.ndarray:
    """scipy.special.gammaln at 0, 1, ..., stop - 1 (gammaln(0) is inf), for
    stop up to 10^8, past which Cephes drops the series."""
    out = np.empty(stop)
    head = min(stop, _LGAM_PRODUCT)
    out[:head] = [math.log(math.factorial(k - 1)) if k else math.inf for k in range(head)]
    x = np.arange(head, stop, dtype=np.float64)
    q = (x - 0.5) * _log(x) - x + _LOG_SQRT_2PI
    p = 1.0 / (x * x)
    q += np.where(x < _LGAM_SERIES, _polevl(p, _LGAM_A), _polevl(p, _LGAM_TAIL)) / x
    out[head:] = q
    return out
