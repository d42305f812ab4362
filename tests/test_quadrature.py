"""expectation_quadrature against the algorithm it replaced, bit for bit.

The reference below integrates every segment afresh for each query with
scipy's quad, the integrand evaluated through ClassDensity.cdf on numpy
0-d arrays, and scores a query outside the truncation window as the
nearer window end.  The module under test integrates the segments between
fixed cuts once per call, with its QAGS port, whose rules for all the
queries of a call are evaluated together; neither may move a bit, whatever
the other queries of the call."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from qens import _qags, analytic
from qens.analytic import BOX, GAUSSIAN, LAPLACE, ClassDensity, DecisionProblem1D
from qens.analytic import QuadratureError, expectation_quadrature

# --- the reference ------------------------------------------------------------


def _signed_cdf_gap(problem, w):
    """The committee integrand before the sign factor: 2 (G- - G+)."""
    return 2.0 * (problem.minus.cdf(w) - problem.plus.cdf(w))


def _window(problem):
    lo_loc = min(problem.minus.loc, problem.plus.loc)
    hi_loc = max(problem.minus.loc, problem.plus.loc)
    k = 12.0 * problem.max_scale
    return lo_loc - k, hi_loc + k


def _quad_piecewise(fn, lo, hi, inner):
    cuts = sorted({lo, hi, *[c for c in inner if lo < c < hi]})
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, _ = quad(fn, a, b, limit=200)
            total += val
    return total


def reference_expectation(problem, x_query, tail_tol=analytic.DEFAULT_TAIL_TOL):
    x = float(x_query)
    lo, hi = _window(problem)
    gap_lo, gap_hi = abs(_signed_cdf_gap(problem, lo)), abs(_signed_cdf_gap(problem, hi))
    if max(gap_lo, gap_hi) > tail_tol:
        raise QuadratureError("tail")
    inner = [*problem.minus.breakpoints(), *problem.plus.breakpoints()]
    fn = lambda w: _signed_cdf_gap(problem, w)
    left = _quad_piecewise(fn, lo, min(x, hi), inner) if x > lo else 0.0
    right = _quad_piecewise(fn, max(x, lo), hi, inner) if x < hi else 0.0
    return left - right


# --- helpers and strategies -----------------------------------------------------


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


def outcome(fn, *args):
    """The bits fn returns, or the type of the error it raises."""
    try:
        return bits(fn(*args))
    except QuadratureError as exc:
        return type(exc)


_LOCS = st.floats(-3.0, 3.0)
_SCALES = st.floats(0.05, 3.0)


def _densities(kinds):
    return st.builds(ClassDensity, st.sampled_from(kinds), _LOCS, _SCALES)


PROBLEMS = st.one_of(
    st.tuples(_LOCS, _LOCS, _SCALES).map(
        lambda t: DecisionProblem1D(ClassDensity.gaussian(t[0], t[2]), ClassDensity.gaussian(t[1], t[2]))
    ),
    st.builds(DecisionProblem1D, _densities([GAUSSIAN]), _densities([GAUSSIAN])),
    st.builds(DecisionProblem1D, _densities([BOX]), _densities([BOX])),
    st.builds(DecisionProblem1D, _densities([LAPLACE]), _densities([LAPLACE])),
    st.builds(DecisionProblem1D, _densities([GAUSSIAN, BOX, LAPLACE]), _densities([GAUSSIAN, BOX, LAPLACE])),
)


def _nudged(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


def queries(problem):
    """Cuts (window ends, breakpoints, ±0.0) and a few ulps either side of
    each, points across and around the window, far outside it, ±inf and
    NaN."""
    lo, hi = _window(problem)
    anchors = [lo, hi, *problem.minus.breakpoints(), *problem.plus.breakpoints(), 0.0, -0.0]
    near_cut = st.builds(_nudged, st.sampled_from(anchors), st.integers(-3, 3))
    return st.one_of(
        near_cut,
        st.floats(lo - 5.0, hi + 5.0),
        st.floats(1e3, 1e6).flatmap(lambda d: st.sampled_from([lo - d, hi + d])),
        st.sampled_from([-math.inf, math.inf, math.nan]),
    )


# --- bit-for-bit tests ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quadrature_matches_the_reference_in_one_call_or_many(data):
    problem = data.draw(PROBLEMS)
    xs = data.draw(st.lists(queries(problem), min_size=1, max_size=6))
    expected = [outcome(reference_expectation, problem, x) for x in xs]

    def each(values):
        return [bits(v) for v in expectation_quadrature(problem, np.array(values))]

    if QuadratureError in expected:  # the tail check refuses the problem, whatever the queries
        assert set(expected) == {QuadratureError}
        with pytest.raises(QuadratureError):
            expectation_quadrature(problem, np.array(xs))
    else:
        assert each(xs) == expected
        assert each(xs[::-1]) == expected[::-1]
    assert [outcome(expectation_quadrature, problem, x) for x in xs] == expected


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_shuffled_batch_scores_each_query_as_alone(data):
    kind = data.draw(st.sampled_from([GAUSSIAN, BOX, LAPLACE]))
    problem = data.draw(st.builds(DecisionProblem1D, _densities([kind]), _densities([kind])))
    xs = data.draw(st.lists(queries(problem), min_size=1, max_size=40))
    alone = [bits(expectation_quadrature(problem, x)) for x in xs]
    order = data.draw(st.permutations(range(len(xs))))
    shuffled = np.array([xs[i] for i in order])
    expected = [alone[i] for i in order]
    assert [bits(v) for v in expectation_quadrature(problem, shuffled)] == expected
    # with the lockstep batch and the query chunk cut small, runs end and
    # start mid-batch and the queries span several chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_qags, "_BATCH", data.draw(st.integers(1, 4)))
        mp.setattr(analytic, "_QUERY_CHUNK", data.draw(st.integers(1, 4)))
        assert [bits(v) for v in expectation_quadrature(problem, shuffled)] == expected


def test_the_batch_holds_bounded_memory():
    problem = DecisionProblem1D(ClassDensity.gaussian(-1.0, 0.5), ClassDensity.gaussian(1.0, 0.5))

    def peak(n):
        xs = np.linspace(-3.0, 3.0, n)
        tracemalloc.start()
        try:
            expectation_quadrature(problem, xs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1024), peak(16384)
    # only the result grows with the queries, by 8 bytes each: the pieces in
    # flight are at most one chunk's and the dqagse runs at most one batch
    assert large - small < 8 * (16384 - 1024) + 512 * 1024


def test_signed_zero_locations_match_the_reference_bit_for_bit():
    # 0.0 and -0.0 locations make equal problems with the same cuts
    def pair(zero):
        return DecisionProblem1D(ClassDensity.box(zero, 1.0), ClassDensity.gaussian(1.0, 0.5))

    xs = [-2.0, -0.0, 0.0, 0.25, 3.0]
    for zero in (0.0, -0.0):
        got = expectation_quadrature(pair(zero), np.array(xs))
        for x, value in zip(xs, got):
            assert bits(value) == bits(reference_expectation(pair(zero), x))
            assert bits(expectation_quadrature(pair(zero), x)) == bits(value)


def _counting_qags(monkeypatch):
    """The (a, b) of every integration the module makes from now on, in the
    order it asks for them, counted at its QAGS port; the reference
    integrates with scipy's quad, which is not counted."""
    calls = []
    qags_each = analytic.qags_each

    def counting_qags_each(fn, intervals):
        calls.extend(intervals)
        return qags_each(fn, intervals)

    monkeypatch.setattr(analytic, "qags_each", counting_qags_each)
    return calls


def test_one_call_integrates_each_fixed_segment_once(monkeypatch):
    problem = DecisionProblem1D(ClassDensity.box(-0.75, 1.5), ClassDensity.gaussian(0.5, 0.4))
    lo, hi = _window(problem)
    cuts = sorted({lo, hi, *problem.minus.breakpoints(), *problem.plus.breakpoints()})
    fixed = list(zip(cuts[:-1], cuts[1:]))
    mids = [0.5 * (a + b) for a, b in fixed]
    xs = [*mids, 0.1, *cuts, lo - 1.0, hi + 1.0, lo - 1e6, hi + 1e6, -math.inf, math.inf, math.nan]
    inside = [x for x in xs if lo < x < hi and x not in cuts]
    calls = _counting_qags(monkeypatch)
    values = expectation_quadrature(problem, np.array(xs))
    # each fixed segment once, then the two segments that end at each query inside the window
    assert calls[: len(fixed)] == fixed
    assert calls[len(fixed) :] == [
        piece for x in inside for a, b in fixed if a < x < b for piece in [(a, x), (x, b)]
    ]
    assert len(calls) == len(fixed) + 2 * len(inside)
    for x, value in zip(xs, values):
        assert bits(value) == bits(reference_expectation(problem, x))


def test_decision_boundary_integrates_each_fixed_segment_once(monkeypatch):
    problem = DecisionProblem1D(ClassDensity.box(-0.75, 1.5), ClassDensity.gaussian(0.5, 0.4))
    lo, hi = _window(problem)
    cuts = sorted({lo, hi, *problem.minus.breakpoints(), *problem.plus.breakpoints()})
    fixed = list(zip(cuts[:-1], cuts[1:]))
    calls = _counting_qags(monkeypatch)
    analytic.decision_boundary(problem)
    assert calls[: len(fixed)] == fixed
    # then the two segments that end at each bracket end or midpoint
    rest = calls[len(fixed) :]
    assert rest and len(rest) % 2 == 0
    assert all(left[1] == right[0] for left, right in zip(rest[::2], rest[1::2]))
    assert not any(piece in fixed for piece in rest)


def test_far_queries_score_as_the_window_ends():
    # QUADPACK on [hi, x] for a far x misses the mass near hi: 3.601 at x >= 1e4
    problem = DecisionProblem1D(ClassDensity.gaussian(-1.0, 0.5), ClassDensity.gaussian(1.0, 0.5))
    lo, hi = _window(problem)
    for d in (1e3, 1e4, 1e6, 1e300):
        assert abs(expectation_quadrature(problem, hi + d) - 4.0) < 1e-12
        assert abs(expectation_quadrature(problem, lo - d) + 4.0) < 1e-12
        assert bits(expectation_quadrature(problem, hi + d)) == bits(expectation_quadrature(problem, hi))
        assert bits(expectation_quadrature(problem, lo - d)) == bits(expectation_quadrature(problem, lo))


@pytest.mark.parametrize(
    ("scale", "loc"),
    [(3e307, 1e307), (1e296, 9e307)],
    ids=["infinite-ends", "infinite-width"],
)
def test_window_wider_than_float64_is_refused(scale, loc):
    # QAGS takes finite ends (scipy's quad switches to QAGI at an infinite
    # one), and at an infinite width its abscissae are NaN
    problem = DecisionProblem1D(ClassDensity.gaussian(-loc, scale), ClassDensity.gaussian(loc, scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="wider than float64"):
            expectation_quadrature(problem, 0.0)
