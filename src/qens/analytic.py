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
with exact closed-form pdf and cdf.  erf itself comes from the
platform's correctly rounded libm via numpy/scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import erf

GAUSSIAN = "gaussian"
BOX = "box"
LAPLACE = "laplace"

_TAIL_SCALES = 12.0
DEFAULT_TAIL_TOL = 1e-5


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


def accuracy_continuous(problem: DecisionProblem1D, w0, orientation: int):
    """Expected accuracy of the single threshold (orientation, w0)."""
    if orientation not in (-1, 1):
        raise ValueError("orientation must be -1 or +1")
    a_plus = 0.5 * problem.minus.cdf(w0) + 0.5 * (1.0 - problem.plus.cdf(w0))
    return a_plus if orientation == 1 else 1.0 - a_plus


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


def _signed_cdf_gap(problem: DecisionProblem1D, w):
    """The committee integrand before the sign factor: 2 (G- - G+)."""
    return 2.0 * (problem.minus.cdf(w) - problem.plus.cdf(w))


def _cut_points(problem: DecisionProblem1D) -> tuple[float, float]:
    """The truncation window: _TAIL_SCALES of the wider class past each mean."""
    lo_loc = min(problem.minus.loc, problem.plus.loc)
    hi_loc = max(problem.minus.loc, problem.plus.loc)
    k = _TAIL_SCALES * problem.max_scale
    return lo_loc - k, hi_loc + k


def _quad_piecewise(fn, lo: float, hi: float, inner: list[float]) -> float:
    cuts = sorted({lo, hi, *[c for c in inner if lo < c < hi]})
    total = 0.0
    with warnings.catch_warnings():
        # segment accuracy is guarded by the explicit tail checks; scipy's
        # roundoff heuristic misfires on near-zero cusp segments
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, _ = quad(fn, a, b, limit=200)
            total += val
    return total


def expectation_quadrature(
    problem: DecisionProblem1D, x_query: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> float:
    """Committee score E(x_query) by adaptive quadrature on a truncated
    domain.  Raises QuadratureError when the integrand has not decayed
    below tail_tol at the cutoffs."""
    x = float(x_query)
    lo, hi = _cut_points(problem)
    gap_lo, gap_hi = abs(_signed_cdf_gap(problem, lo)), abs(_signed_cdf_gap(problem, hi))
    if max(gap_lo, gap_hi) > tail_tol:
        raise QuadratureError(
            f"integrand at the truncation cutoffs is {max(gap_lo, gap_hi):.3g}, "
            f"above the tolerance {tail_tol:.3g}"
        )
    inner = [*problem.minus.breakpoints(), *problem.plus.breakpoints()]
    fn = lambda w: _signed_cdf_gap(problem, w)
    left = _quad_piecewise(fn, lo, x, inner) if x > lo else 0.0
    right = _quad_piecewise(fn, x, hi, inner) if x < hi else 0.0
    return left - right


def expectation_closed_equal_sigma(problem: DecisionProblem1D, x_query: float) -> float:
    """Closed-form committee score for equal-variance Gaussian classes."""
    if problem.minus.kind != GAUSSIAN or problem.plus.kind != GAUSSIAN:
        raise ValueError("closed form requires Gaussian class densities")
    if problem.minus.scale != problem.plus.scale:
        raise ValueError("closed form requires equal standard deviations")
    x = float(x_query)
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
    a_pos = np.asarray(accuracy_continuous(problem, w0, 1), dtype=np.float64)
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
