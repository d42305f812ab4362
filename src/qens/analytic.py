"""Continuous study of one-dimensional threshold committees.

The object under study is the committee of all classifiers
f(x; o, w0) = sgn(o * (x - w0)) weighted by their expected accuracy
against a known two-class generating model: class -1 drawn from density
g_minus, class +1 from g_plus, balanced priors.

For orientation o = +1 the expected accuracy of a single threshold is

    a(w0, +1) = 1/2 * G_minus(w0) + 1/2 * (1 - G_plus(w0))

with G the class CDFs, and a(w0, -1) = 1 - a(w0, +1).  The committee
score at a query point reduces to the one-dimensional integral

    E(x) = integral dw0  2 * (G_minus(w0) - G_plus(w0)) * sgn(x - w0)

which this module evaluates two independent ways: adaptive quadrature on
a truncated domain (any density family) and, for equal-variance Gaussian
classes, the closed form E(x) = 2*gamma_minus(x) - 2*gamma_plus(x) built
from the erf antiderivative gamma (see gamma_antiderivative).  E is
positive where the committee votes +1; its zero is the decision boundary.

Class densities come in three families (gaussian, box, laplace), each
with exact closed-form pdf and cdf.  erf is _special.erf, a port of the
Cephes erf that scipy.special.erf runs, with its bits, rather than the C
library's: math.erf gives different bits on a tenth to a fifth of inputs.
The port costs mostly per call, so DecisionProblem1D.cdfs evaluates two
Gaussian classes in one call.

The quadrature is QUADPACK's QAGS, ported to Python floats in _qags with
the bits of scipy's quad(f, a, b, limit=200).  It integrates the segments
between fixed cuts (the window ends and the class breakpoints) once per
call, and per query inside the window the two segments that end at it.
The rules of all these integrations are evaluated together, many in one
call of the array cdfs, and each integration keeps the bits it has alone.
Each query's segments are summed from the left, so its score depends on
no other query, in the call or not.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from qens._qags import qags_each
from qens._special import erf

GAUSSIAN = "gaussian"
BOX = "box"
LAPLACE = "laplace"

_TAIL_SCALES = 12.0
DEFAULT_TAIL_TOL = 1e-5
_QUERY_CHUNK = 1024  # queries scored together: their pieces' results stay alive until summed


class NoBoundaryError(RuntimeError):
    """The committee score has no sign change on the search interval."""


class QuadratureError(RuntimeError):
    """The truncated integral cannot reach the requested accuracy."""


@dataclass(frozen=True)
class ClassDensity:
    """One class-conditional density, closed-form pdf and cdf."""

    kind: str
    loc: float
    scale: float

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, BOX, LAPLACE):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ValueError("loc and scale must be finite")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    @classmethod
    def gaussian(cls, mu: float, sigma: float) -> "ClassDensity":
        return cls(GAUSSIAN, float(mu), float(sigma))

    @classmethod
    def box(cls, center: float, width: float) -> "ClassDensity":
        return cls(BOX, float(center), float(width))

    @classmethod
    def laplace(cls, mu: float, b: float) -> "ClassDensity":
        return cls(LAPLACE, float(mu), float(b))

    def pdf(self, x):
        z = (np.asarray(x, dtype=np.float64) - self.loc) / self.scale
        if self.kind == GAUSSIAN:
            out = np.exp(-0.5 * z * z) / (self.scale * math.sqrt(2.0 * math.pi))
        elif self.kind == BOX:
            out = np.where(np.abs(z) <= 0.5, 1.0 / self.scale, 0.0)
        else:
            out = np.exp(-np.abs(z)) / (2.0 * self.scale)
        return out if out.ndim else float(out)

    def cdf(self, x):
        z = (np.asarray(x, dtype=np.float64) - self.loc) / self.scale
        if self.kind == GAUSSIAN:
            out = _phi(z)
        elif self.kind == BOX:
            out = np.clip(z + 0.5, 0.0, 1.0)
        else:
            out = np.where(z < 0, 0.5 * np.exp(-np.abs(z)), 1.0 - 0.5 * np.exp(-np.abs(z)))
        return out if out.ndim else float(out)

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the pdf is not smooth; quadrature splits there."""
        if self.kind == BOX:
            half = 0.5 * self.scale
            return (self.loc - half, self.loc, self.loc + half)
        return (self.loc,)


@dataclass(frozen=True)
class DecisionProblem1D:
    """Two class-conditional densities with balanced priors."""

    minus: ClassDensity
    plus: ClassDensity

    @property
    def max_scale(self) -> float:
        return max(self.minus.scale, self.plus.scale)

    @property
    def mean_midpoint(self) -> float:
        return 0.5 * (self.minus.loc + self.plus.loc)

    def cdfs(self, w):
        """(G_minus(w), G_plus(w)), each with its cdf's bits; two Gaussian
        classes share one erf call."""
        minus, plus = self.minus, self.plus
        if minus.kind != GAUSSIAN or plus.kind != GAUSSIAN:
            return minus.cdf(w), plus.cdf(w)
        w = np.asarray(w, dtype=np.float64)
        column = (2,) + (1,) * w.ndim
        z = (w - np.reshape([minus.loc, plus.loc], column)) / np.reshape([minus.scale, plus.scale], column)
        return tuple(g if g.ndim else float(g) for g in _phi(z))


def _phi(z):
    """The standard normal cdf."""
    return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))


def accuracy_continuous(problem: DecisionProblem1D, w0):
    """Expected accuracy a(w0, +1) of the threshold at w0 with orientation
    +1; orientation -1 has accuracy 1 - a(w0, +1)."""
    g_minus, g_plus = problem.cdfs(w0)
    return 0.5 * g_minus + 0.5 * (1.0 - g_plus)


def gamma_antiderivative(x, mu: float, sigma: float):
    """Antiderivative of erf((w - mu) / (sqrt(2) sigma)) up to a constant
    that cancels between the two classes."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    z = (np.asarray(x, dtype=np.float64) - mu) / (math.sqrt(2.0) * sigma)
    out = (np.asarray(x, dtype=np.float64) - mu) * erf(z) + math.sqrt(
        2.0 / math.pi
    ) * sigma * np.exp(-z * z)
    return out if out.ndim else float(out)


def _cut_points(problem: DecisionProblem1D) -> tuple[float, float]:
    """The truncation window: _TAIL_SCALES of the wider class past each mean."""
    lo_loc = min(problem.minus.loc, problem.plus.loc)
    hi_loc = max(problem.minus.loc, problem.plus.loc)
    k = _TAIL_SCALES * problem.max_scale
    return lo_loc - k, hi_loc + k


def _scorer(problem: DecisionProblem1D):
    """E as a function of a list of query floats, after the tail check and
    one integration of each segment between the fixed cuts."""
    lo, hi = _cut_points(problem)

    def fn(w: np.ndarray) -> np.ndarray:
        """The integrand before the sign factor, 2 (G- - G+)."""
        # near float64's top w - loc overflows to ±inf, where each cdf is 0 or 1
        with np.errstate(over="ignore"):
            g_minus, g_plus = problem.cdfs(w)
            return 2.0 * (g_minus - g_plus)

    gap_lo, gap_hi = np.abs(fn(np.array([lo, hi]))).tolist()
    if max(gap_lo, gap_hi) > DEFAULT_TAIL_TOL:
        raise QuadratureError(
            f"integrand at the truncation cutoffs is {max(gap_lo, gap_hi):.3g}, "
            f"above the tolerance {DEFAULT_TAIL_TOL:.3g}"
        )
    if not math.isfinite(hi - lo):  # QAGS takes no infinite end (quad switches to QAGI) or width
        raise QuadratureError(f"truncation window [{lo}, {hi}] is wider than float64 holds")
    inner = [*problem.minus.breakpoints(), *problem.plus.breakpoints()]
    cuts = sorted({lo, hi, *[c for c in inner if lo < c < hi]})
    # qags's ier goes unread: the tail check guards accuracy, and QUADPACK's
    # roundoff heuristic misfires on near-zero cusp segments
    fixed = [r[0] for r in qags_each(fn, list(zip(cuts[:-1], cuts[1:])))]

    def score(xs: list) -> list:
        # the fixed segments left of x end at cuts[i - 1], the rest start there
        at = [min(max(bisect.bisect_right(cuts, x), 1), len(cuts)) for x in xs]
        split = [lo < x < hi and x != cuts[i - 1] for x, i in zip(xs, at)]  # x splits segment i - 1
        pieces = [ab for x, i, s in zip(xs, at, split) if s for ab in ((cuts[i - 1], x), (x, cuts[i]))]
        values = iter([r[0] for r in qags_each(fn, pieces)])
        out = []
        for x, i, s in zip(xs, at, split):
            if math.isnan(x):
                out.append(0.0)
                continue
            left, right = fixed[: i - 1], fixed[i - 1 :]
            if s:
                left.append(next(values))
                right = [next(values), *fixed[i:]]
            # added from the left: sum() compensates from Python 3.12, which moves bits
            *_, total_left = accumulate(left, initial=0.0)
            *_, total_right = accumulate(right, initial=0.0)
            out.append(total_left - total_right)
        return out

    return score


def expectation_quadrature(problem: DecisionProblem1D, x_query):
    """Committee score E at one query or an array of them, by adaptive
    quadrature on a truncated domain.  A query outside the window (±inf too)
    scores as the nearer window end, NaN as 0.0.  Raises QuadratureError when
    the integrand has not decayed below DEFAULT_TAIL_TOL at the cutoffs, or
    when the window is wider than float64 holds."""
    score = _scorer(problem)
    x = np.asarray(x_query, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _QUERY_CHUNK):
        out[start : start + _QUERY_CHUNK] = score(flat[start : start + _QUERY_CHUNK].tolist())
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


def expectation_closed_equal_sigma(problem: DecisionProblem1D, x_query):
    """Closed-form committee score for equal-variance Gaussian classes, at
    one query or an array of them.  A query outside the quadrature window
    scores as the nearer window end, as in expectation_quadrature: past it
    the two gamma terms, each near 2|x|, cancel to nothing, and near
    float64's top they overflow."""
    if problem.minus.kind != GAUSSIAN or problem.plus.kind != GAUSSIAN:
        raise ValueError("closed form requires Gaussian class densities")
    if problem.minus.scale != problem.plus.scale:
        raise ValueError("closed form requires equal standard deviations")
    x = np.clip(np.asarray(x_query, dtype=np.float64), *_cut_points(problem))
    return 2.0 * gamma_antiderivative(x, problem.minus.loc, problem.minus.scale) - (
        2.0 * gamma_antiderivative(x, problem.plus.loc, problem.plus.scale)
    )


def decision_boundary(problem: DecisionProblem1D) -> float:
    """Zero of the committee score, located by bisection to width < 1e-8."""
    s = problem.max_scale
    lo = min(problem.minus.loc, problem.plus.loc) - 10.0 * s
    hi = max(problem.minus.loc, problem.plus.loc) + 10.0 * s
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a bisection midpoint would be NaN
        raise NoBoundaryError(f"search bracket [{lo}, {hi}] is not finite")
    score = _scorer(problem)
    f_lo, f_hi = score([lo, hi])
    if f_lo == 0.0 and f_hi == 0.0:
        raise NoBoundaryError("committee score vanishes at both bracket ends")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NoBoundaryError("committee score has no sign change on the bracket")
    while hi - lo >= 1e-8:
        mid = 0.5 * (lo + hi)
        (f_mid,) = score([mid])
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class BoundaryDecomposition:
    """Sampled curves showing how the committee score at one query point
    is assembled from per-threshold accuracies and outputs."""

    query: float
    w0: np.ndarray
    accuracy_pos: np.ndarray  # a(w0, o=+1)
    accuracy_neg: np.ndarray  # a(w0, o=-1)
    output_pos: np.ndarray  # f(query; w0, o=+1)
    output_neg: np.ndarray  # f(query; w0, o=-1)
    product_pos: np.ndarray
    product_neg: np.ndarray
    integrand: np.ndarray


def default_decomposition_grid(problem: DecisionProblem1D, x_query: float) -> np.ndarray:
    """Step-0.0125 grid anchored at the query point (so the query is a
    node) and covering the quadrature truncation window.

    The step keeps the trapezoid error of the exported integrand a
    comfortable factor under 1e-4 for the worked examples; 0.025 would
    land just above it."""
    h = 0.0125
    lo, hi = _cut_points(problem)
    # the query is the node k = 0, inside [floor(q_lo), ceil(q_hi)] exactly
    # when q_lo < 1 and q_hi > -1, i.e. lo - h < x < hi + h.  NaN fails the
    # test, and so does an infinite quotient, before floor or ceil can raise
    q_lo, q_hi = (lo - x_query) / h, (hi - x_query) / h
    if not (q_lo < 1.0 and q_hi > -1.0):
        raise ValueError(f"query {x_query!r} is outside the truncation window [{lo}, {hi}]")
    k_lo = math.floor(q_lo)
    k_hi = math.ceil(q_hi)
    return x_query + h * np.arange(k_lo, k_hi + 1, dtype=np.float64)


def boundary_decomposition(problem: DecisionProblem1D, x_query: float) -> BoundaryDecomposition:
    x = float(x_query)
    w0 = default_decomposition_grid(problem, x)
    a_pos = np.asarray(accuracy_continuous(problem, w0), dtype=np.float64)
    a_neg = 1.0 - a_pos
    f_pos = np.where(x - w0 >= 0.0, 1.0, -1.0)
    f_neg = -f_pos
    prod_pos = a_pos * f_pos
    prod_neg = a_neg * f_neg
    # 2 (prod_pos + prod_neg) collapses to 2 (G- - G+) sgn(x - w0), the
    # quadrature integrand, so integrating this curve recovers E(x)
    integrand = 2.0 * (prod_pos + prod_neg)
    return BoundaryDecomposition(
        x, w0, a_pos, a_neg, f_pos, f_neg, prod_pos, prod_neg, integrand
    )


def integrate_decomposition(dec: BoundaryDecomposition) -> float:
    """Trapezoid rule over the sampled integrand, honoring the sign jump
    at the query node (the exported value there is the left limit; the
    right limit is its negation)."""
    w0, g = dec.w0, dec.integrand
    at_query = np.flatnonzero(np.abs(w0 - dec.query) < 1e-12)
    if at_query.size != 1:
        raise ValueError("the query point must appear exactly once in the grid")
    i = int(at_query[0])
    left = np.trapezoid(g[: i + 1], w0[: i + 1])
    right_vals = g[i:].copy()
    right_vals[0] = -g[i]
    right = np.trapezoid(right_vals, w0[i:])
    return float(left + right)
