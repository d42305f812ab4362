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
with exact closed-form pdf and cdf.  erf is scipy.special.erf, scipy's
own implementation rather than the C library's: math.erf, which calls
the latter, gives different bits on a tenth to a fifth of inputs, so
every erf here is scipy's.

The quadrature integrates the pieces between fixed cuts (the window ends
and the class breakpoints) once per problem and keeps them in a bounded
cache; only the pieces that touch the query are integrated per call, and
a query outside the window touches none.
The sums are formed in the same order either way, so the result does not
depend on which queries came before.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

GAUSSIAN = "gaussian"
BOX = "box"
LAPLACE = "laplace"

_TAIL_SCALES = 12.0
DEFAULT_TAIL_TOL = 1e-5
# fixed quadrature segments kept: a problem has at most 7 (its window ends
# and up to 6 breakpoints make 8 cuts), so this holds over 100 problems
_SEGMENT_CACHE_SIZE = 1024


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
            out = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
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


def accuracy_continuous(problem: DecisionProblem1D, w0):
    """Expected accuracy a(w0, +1) of the threshold at w0 with orientation
    +1; orientation -1 has accuracy 1 - a(w0, +1)."""
    return 0.5 * problem.minus.cdf(w0) + 0.5 * (1.0 - problem.plus.cdf(w0))


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


def _scalar_cdf(density: ClassDensity):
    """density.cdf on one Python float, with the same bits: the same
    operations in the same order, scalar calls of the same ufuncs."""
    loc, scale = density.loc, density.scale
    if density.kind == GAUSSIAN:
        root2 = math.sqrt(2.0)
        return lambda w: 0.5 * (1.0 + float(erf((w - loc) / scale / root2)))
    if density.kind == BOX:
        return lambda w: min(max((w - loc) / scale + 0.5, 0.0), 1.0)

    def laplace(w: float) -> float:
        z = (w - loc) / scale
        tail = 0.5 * float(np.exp(-abs(z)))
        return tail if z < 0 else 1.0 - tail

    return laplace


def _integrand(problem: DecisionProblem1D):
    """The committee integrand before the sign factor, 2 (G- - G+), on
    Python floats."""
    g_minus, g_plus = _scalar_cdf(problem.minus), _scalar_cdf(problem.plus)
    return lambda w: 2.0 * (g_minus(w) - g_plus(w))


def _cut_points(problem: DecisionProblem1D) -> tuple[float, float]:
    """The truncation window: _TAIL_SCALES of the wider class past each mean."""
    lo_loc = min(problem.minus.loc, problem.plus.loc)
    hi_loc = max(problem.minus.loc, problem.plus.loc)
    k = _TAIL_SCALES * problem.max_scale
    return lo_loc - k, hi_loc + k


def _segment(fn, a: float, b: float) -> float:
    # imported on first use: importing qens then loads no scipy.integrate,
    # nor the scipy.optimize and scipy.sparse that it pulls in
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        # segment accuracy is guarded by the explicit tail checks; scipy's
        # roundoff heuristic misfires on near-zero cusp segments
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fn, a, b, limit=200)[0]


@functools.lru_cache(maxsize=_SEGMENT_CACHE_SIZE)
def _fixed_segment(problem: DecisionProblem1D, a: float, b: float) -> float:
    return _segment(_integrand(problem), a, b)


def _quad_piecewise(problem, fn, lo: float, hi: float, x: float) -> float:
    """Integral of fn over [lo, hi], one segment between each pair of
    cuts, summed from the left; segments without x as an end are cached."""
    inner = [*problem.minus.breakpoints(), *problem.plus.breakpoints()]
    cuts = sorted({lo, hi, *[c for c in inner if lo < c < hi]})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += _segment(fn, a, b) if x in (a, b) else _fixed_segment(problem, a, b)
    return total


def expectation_quadrature(
    problem: DecisionProblem1D, x_query: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> float:
    """Committee score E(x_query) by adaptive quadrature on a truncated
    domain.  A query outside the window scores as the nearer window end,
    the sum of the cached fixed segments.  Raises QuadratureError when the
    integrand has not decayed below tail_tol at the cutoffs."""
    x = float(x_query)
    lo, hi = _cut_points(problem)
    fn = _integrand(problem)
    gap_lo, gap_hi = abs(fn(lo)), abs(fn(hi))
    if max(gap_lo, gap_hi) > tail_tol:
        raise QuadratureError(
            f"integrand at the truncation cutoffs is {max(gap_lo, gap_hi):.3g}, "
            f"above the tolerance {tail_tol:.3g}"
        )
    left = _quad_piecewise(problem, fn, lo, min(x, hi), x) if x > lo else 0.0
    right = _quad_piecewise(problem, fn, max(x, lo), hi, x) if x < hi else 0.0
    return left - right


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
    f_lo = expectation_quadrature(problem, lo)
    f_hi = expectation_quadrature(problem, hi)
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
        f_mid = expectation_quadrature(problem, mid)
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
