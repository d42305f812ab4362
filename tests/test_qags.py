"""The QAGS port against scipy's quad(f, a, b, limit=200), bit for bit, and
its Gauss-Kronrod constants against mpmath.

Each integrand below is a scalar function of a Python float, which scipy
calls point by point; the port gets the same function mapped over the
abscissae of whole rules at once.  Result, error estimate and interval
count must agree, and scipy's warning must name the port's ier."""

import math
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from qens import _qags
from qens._qags import qags
from qens.analytic import BOX, GAUSSIAN, LAPLACE, ClassDensity, DecisionProblem1D

# scipy's message for each nonzero ier, by its first words
_SCIPY_IER = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


def scipy_qags(g, a, b):
    """(result, abserr, ier, last, rlist) of scipy's quad on the scalar g."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(g, a, b, limit=200, full_output=1)
    result, abserr, info = out[:3]
    ier = 0 if len(out) == 3 else next(v for k, v in _SCIPY_IER.items() if out[3].startswith(k))
    return result, abserr, ier, info["last"], info["rlist"]


def on_rule(g):
    return lambda x: np.array([g(v) for v in x.tolist()])


def compare_with_scipy(g, a, b, f=None):
    """Assert that the port (on f, else g mapped over each rule) and scipy
    (on g) give the same result and error bits, ier and interval count over
    [a, b]; return (exit, ier), exit saying how dqagse ended: after the
    first rule, with the sum over the intervals or with dqelg's value."""
    result, abserr, ier, last = qags(f or on_rule(g), a, b)
    expected, expected_err, expected_ier, expected_last, rlist = scipy_qags(g, a, b)
    assert (bits(result), bits(abserr), ier, last) == (
        bits(expected), bits(expected_err), expected_ier, expected_last
    )
    total = 0.0
    for value in rlist[:last]:  # dqagse's own order
        total = total + value
    exit_ = "first" if last == 1 else "summed" if bits(total) == bits(result) else "extrapolated"
    return exit_, ier


# --- every dqagse exit ----------------------------------------------------------


def _float16(g):
    """g rounded to float16: noise of a few parts in 1e4 that no subdivision removes."""
    return lambda x: float(np.float16(g(x)))


def _power(c, p):
    """|x - c|^p, and 0 at c."""
    return lambda x: abs(x - c) ** p if x != c else 0.0


def _sinc50(x):
    return math.sin(50.0 * x) / (x + 0.01)


EXITS = {
    # name: (g, a, b, exit, ier)
    "x^2": (lambda x: x * x, 0.0, 1.0, "first", 0),
    "exp": (math.exp, 0.0, 1.0, "first", 0),
    "1e12 (x - 0.5)": (lambda x: 1e12 * (x - 0.5), 0.0, 1.0, "first", 2),
    "1/sqrt(x)": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, "extrapolated", 0),
    "log(x)": (math.log, 0.0, 1.0, "extrapolated", 0),
    "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0, "extrapolated", 0),
    "sqrt|x - 1/3|": (lambda x: math.sqrt(abs(x - 1.0 / 3.0)), 0.0, 1.0, "extrapolated", 0),
    "step at 1/3": (lambda x: 1.0 if x > 1.0 / 3.0 else 0.0, 0.0, 1.0, "extrapolated", 0),
    "sin(50x)/(x + 0.01) on [0, 3]": (_sinc50, 0.0, 3.0, "summed", 0),
    "sin(50x)/(x + 0.01) on [0, 100]": (_sinc50, 0.0, 100.0, "summed", 1),
    "1/x": (lambda x: 1.0 / x, 0.0, 1.0, "summed", 1),
    "float16 sin(50x)/(x + 0.01) on [0, 2]": (_float16(_sinc50), 0.0, 2.0, "extrapolated", 2),
    "float16 sin(50x)/(x + 0.01) on [0, 3.5]": (_float16(_sinc50), 0.0, 3.5, "summed", 2),
    "float16 exp": (_float16(math.exp), 0.0, 1.0, "extrapolated", 1),
    "float16 |x - 0.83|^-0.93": (_float16(_power(0.83, -0.93)), 0.0, 0.6, "extrapolated", 1),
    "float16 log|x - 0.05|": (_float16(lambda x: math.log(abs(x - 0.05))), 0.0, 1.5, "extrapolated", 2),
    "|x - 0.13|^-0.78": (_power(0.13, -0.78), 0.0, 1.9, "extrapolated", 3),  # fills dqelg's table
    "|x - 0.97|^-0.9": (_power(0.97, -0.9), 0.0, 2.3, "extrapolated", 2),
    "|x - 0.96|^-0.87": (_power(0.96, -0.87), 0.0, 3.1, "extrapolated", 3),
    "|x - 0.79|^-0.58": (_power(0.79, -0.58), 0.0, 2.5, "summed", 3),
    "|x - 0.36|^-0.92": (_power(0.36, -0.92), 0.0, 1.0, "extrapolated", 4),
    "|x - 0.57|^-1.18": (_power(0.57, -1.18), 0.0, 1.3, "extrapolated", 5),
}


@pytest.mark.parametrize("name", EXITS)
def test_every_exit_matches_scipy_bit_for_bit(name):
    g, a, b, exit_, ier = EXITS[name]
    assert compare_with_scipy(g, a, b) == (exit_, ier)


def test_the_exits_cover_every_ier():
    assert {ier for *_, ier in EXITS.values()} == {0, 1, 2, 3, 4, 5}
    assert {exit_ for *_, exit_, _ in EXITS.values()} == {"first", "summed", "extrapolated"}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["pow", "log", "step", "float16 sinc"]),
    st.floats(0.0, 1.0),
    st.floats(-1.2, 0.5),
    st.floats(0.25, 4.0),
)
def test_singular_step_and_oscillating_integrands_match_scipy(family, c, p, b):
    g = {
        "pow": _power(c, p),
        "log": lambda x: math.log(abs(x - c)) if x != c else 0.0,
        "step": lambda x: 1.0 if x > c else p,
        "float16 sinc": _float16(lambda x: math.sin(50.0 * x) / (x + c + 0.01)),
    }[family]
    compare_with_scipy(g, 0.0, b)


def test_each_call_holds_whole_rules_on_scipys_abscissae():
    seen, scipy_seen = [], []

    def f(x):
        seen.append(x.copy())
        return np.sqrt(np.abs(x - 0.3))

    def g(x):
        scipy_seen.append(x)
        return math.sqrt(abs(x - 0.3))

    last = qags(f, -1.0, 2.0)[3]
    scipy_qags(g, -1.0, 2.0)
    # the first rule, then both halves of each bisection in one call
    assert [x.shape for x in seen] == [(21,)] + [(42,)] * (last - 1)
    # scipy's abscissae in scipy's order: rule after rule, each as dqk21 evaluates it
    assert list(map(bits, np.concatenate(seen).tolist())) == list(map(bits, scipy_seen))


def test_one_batch_runs_each_interval_as_alone():
    # every exit of the table in one lockstep batch; each b is moved a little
    # so that no two intervals share an abscissa, and the batch's integrand
    # can tell by the abscissa which interval's integrand to evaluate
    table = [(g, a, b * (1.0 + k * 1e-9)) for k, (g, a, b, _, _) in enumerate(EXITS.values())]
    owner = {}

    def recording(k, g):
        def f(x):
            for v in x.tolist():
                assert owner.setdefault(bits(v), k) == k
            return on_rule(g)(x)

        return f

    alone = [qags(recording(k, g), a, b) for k, (g, a, b) in enumerate(table)]
    assert {ier for *_, ier, _ in alone} == {0, 1, 2, 3, 4, 5}

    def f_all(x):
        return np.array([table[owner[bits(v)]][0](v) for v in x.tolist()])

    together = _qags.qags_each(f_all, [(a, b) for _, a, b in table])
    assert [(bits(r), bits(e), ier, last) for r, e, ier, last in together] == [
        (bits(r), bits(e), ier, last) for r, e, ier, last in alone
    ]


# --- the committee integrand of every density family ----------------------------

_LOCS = st.floats(-3.0, 3.0)
_SCALES = st.floats(0.05, 3.0)
_DENSITIES = st.builds(ClassDensity, st.sampled_from([GAUSSIAN, BOX, LAPLACE]), _LOCS, _SCALES)


@settings(max_examples=300, deadline=None)
@given(_DENSITIES, _DENSITIES, st.floats(-45.0, 45.0), st.floats(1e-6, 90.0))
def test_committee_segments_match_scipy_bit_for_bit(minus, plus, a, width):
    problem = DecisionProblem1D(minus, plus)

    def f(w):
        return 2.0 * (problem.minus.cdf(w) - problem.plus.cdf(w))

    compare_with_scipy(f, a, a + width, f=f)


# --- the constants --------------------------------------------------------------


def _moment_error(nodes, weights, degree):
    """|rule(x^degree) - integral of x^degree over [-1, 1]| at 50 digits,
    with the float64 constants taken exactly."""
    with mpmath.workdps(50):
        rule = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(x) ** degree for x, w in zip(nodes, weights))
        exact = mpmath.mpf(2) / (degree + 1) if degree % 2 == 0 else mpmath.mpf(0)
        return abs(rule - exact)


def _kronrod():
    nodes = [0.0, *[-x for x in _qags._XGK], *_qags._XGK]
    weights = [_qags._WGK[10], *_qags._WGK[:10], *_qags._WGK[:10]]
    return nodes, weights


def _gauss():
    xg = _qags._XGK[1::2]  # xgk(2), xgk(4), ..., xgk(10)
    return [*[-x for x in xg], *xg], [*_qags._WG, *_qags._WG]


def test_kronrod_rule_is_exact_to_degree_31():
    nodes, weights = _kronrod()
    assert max(_moment_error(nodes, weights, d) for d in range(32)) < 1e-16
    assert _moment_error(nodes, weights, 32) > 1e-12


def test_gauss_rule_is_exact_to_degree_19():
    nodes, weights = _gauss()
    assert max(_moment_error(nodes, weights, d) for d in range(20)) < 1e-16
    assert _moment_error(nodes, weights, 20) > 1e-8


def test_gauss_nodes_and_weights_are_the_nearest_floats():
    with mpmath.workdps(50):
        for x, w in zip(_qags._XGK[1::2], _qags._WG):
            root = mpmath.findroot(lambda t: mpmath.legendre(10, t), mpmath.mpf(x))
            weight = 2 / ((1 - root**2) * mpmath.diff(lambda t: mpmath.legendre(10, t), root) ** 2)
            assert (x, w) == (float(root), float(weight))
