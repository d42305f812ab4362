"""Continuous threshold-committee analytics: accuracies, quadrature,
closed form, boundary location, per-threshold decomposition."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from qens import analytic
from qens.analytic import (
    ClassDensity,
    DecisionProblem1D,
    NoBoundaryError,
    QuadratureError,
    accuracy_continuous,
    boundary_decomposition,
    decision_boundary,
    default_decomposition_grid,
    expectation_closed_equal_sigma,
    expectation_quadrature,
    gamma_antiderivative,
    integrate_decomposition,
)


def gaussian_pair(s_minus=0.5, s_plus=0.5, mu_minus=-1.0, mu_plus=1.0):
    return DecisionProblem1D(
        ClassDensity.gaussian(mu_minus, s_minus), ClassDensity.gaussian(mu_plus, s_plus)
    )


# --- densities ------------------------------------------------------------

@pytest.mark.parametrize(
    "density",
    [
        ClassDensity.gaussian(0.3, 0.7),
        ClassDensity.box(-1.2, 0.8),
        ClassDensity.laplace(0.5, 0.4),
    ],
)
def test_pdf_normalized_and_cdf_limits(density):
    lo, hi = density.loc - 60 * density.scale, density.loc + 60 * density.scale
    mass = sum(
        quad(density.pdf, a, b, limit=200)[0]
        for a, b in zip([lo, *density.breakpoints()], [*density.breakpoints(), hi])
    )
    tol = 1e-6
    assert mass == pytest.approx(1.0, abs=tol)
    assert density.cdf(lo) == pytest.approx(0.0, abs=tol)
    assert density.cdf(hi) == pytest.approx(1.0, abs=tol)
    grid = np.linspace(lo, hi, 400)
    assert np.all(np.diff(density.cdf(grid)) >= 0)


def test_cdf_matches_pdf_derivative():
    rng = np.random.default_rng(11)
    for density in (
        ClassDensity.gaussian(0.0, 1.0),
        ClassDensity.laplace(0.2, 0.5),
    ):
        xs = rng.uniform(-3, 3, size=50)
        h = 1e-6
        num = (density.cdf(xs + h) - density.cdf(xs - h)) / (2 * h)
        assert np.allclose(num, density.pdf(xs), atol=1e-6)


def test_box_cdf_shape():
    box = ClassDensity.box(0.0, 2.0)
    assert box.cdf(-1.0) == 0.0
    assert box.cdf(0.0) == 0.5
    assert box.cdf(1.0) == 1.0
    assert box.pdf(0.5) == 0.5
    assert box.pdf(1.5) == 0.0


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        ClassDensity.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        ClassDensity.box(0.0, -1.0)


# --- accuracy -------------------------------------------------------------

def test_accuracy_midthreshold_frozen_value():
    prob = gaussian_pair()
    assert accuracy_continuous(prob, 0.0) == 0.9772498680518208


@settings(max_examples=40)
@given(st.floats(-5, 5))
def test_accuracy_bounded(w0):
    a = accuracy_continuous(gaussian_pair(), w0)
    assert 0.0 <= a <= 1.0


# --- gamma antiderivative ---------------------------------------------------

def test_gamma_at_mean_frozen_value():
    assert gamma_antiderivative(0.0, 0.0, 0.5) == 0.3989422804014327


def test_gamma_asymptote():
    # far above the mean the erf saturates and gamma grows like x - mu
    v = gamma_antiderivative(10.0, 0.0, 1.0)
    assert v == pytest.approx(10.0, abs=1e-6)


def test_gamma_derivative_is_erf():
    rng = np.random.default_rng(23)
    mu, sigma = 0.3, 0.8
    xs = rng.uniform(-3, 3, size=100)
    h = 1e-5
    num = (gamma_antiderivative(xs + h, mu, sigma) - gamma_antiderivative(xs - h, mu, sigma)) / (
        2 * h
    )
    want = erf((xs - mu) / (math.sqrt(2) * sigma))
    assert np.max(np.abs(num - want)) < 1e-6


def test_gamma_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gamma_antiderivative(0.0, 0.0, -1.0)


# --- expectation ------------------------------------------------------------

def test_identical_densities_zero_everywhere():
    prob = DecisionProblem1D(ClassDensity.gaussian(0.0, 1.0), ClassDensity.gaussian(0.0, 1.0))
    for x in (-2.0, 0.0, 1.3):
        assert abs(expectation_quadrature(prob, x)) < 1e-12


def test_midpoint_expectation_vanishes():
    prob = gaussian_pair()
    assert abs(expectation_quadrature(prob, 0.0)) < 1e-8


def test_closed_form_matches_quadrature():
    prob = gaussian_pair()
    xs = np.linspace(-3, 3, 25)
    gaps = [
        abs(expectation_closed_equal_sigma(prob, x) - expectation_quadrature(prob, x)) for x in xs
    ]
    assert max(gaps) < 1e-6


def test_closed_form_on_an_array_is_the_per_point_form_clipped_to_the_window():
    prob = gaussian_pair()
    lo, hi = analytic._cut_points(prob)
    inside = np.linspace(lo, hi, 2401)
    got = expectation_closed_equal_sigma(prob, inside)
    # the unclipped per-point formula, one Python call per query
    want = [
        2.0 * gamma_antiderivative(x, -1.0, 0.5) - 2.0 * gamma_antiderivative(x, 1.0, 0.5)
        for x in inside
    ]
    assert got.tobytes() == np.array(want).tobytes()
    outside = np.array([-1e308, -1e17, lo - 1.0, hi + 1.0, 1e17, 1e308])
    ends = [want[0]] * 3 + [want[-1]] * 3
    assert expectation_closed_equal_sigma(prob, outside).tolist() == ends
    assert [expectation_closed_equal_sigma(prob, float(x)) for x in outside] == ends
    for x in outside:
        assert abs(expectation_closed_equal_sigma(prob, x) - expectation_quadrature(prob, x)) < 1e-12


def test_closed_form_requires_equal_sigma_gaussians():
    with pytest.raises(ValueError):
        expectation_closed_equal_sigma(gaussian_pair(0.5, 2.0), 0.0)
    with pytest.raises(ValueError):
        expectation_closed_equal_sigma(
            DecisionProblem1D(ClassDensity.box(-1, 1), ClassDensity.box(1, 1)), 0.0
        )


def test_narrow_sigma_limit_is_distance_difference():
    prob = gaussian_pair(1e-6, 1e-6)
    for x in (0.5, -0.3, 1.7):
        want = 2 * abs(x + 1.0) - 2 * abs(x - 1.0)
        assert expectation_closed_equal_sigma(prob, x) == pytest.approx(want, abs=1e-4)


def test_laplace_tail_tolerance():
    prob = DecisionProblem1D(ClassDensity.laplace(-1, 0.5), ClassDensity.laplace(1, 0.5))
    expectation_quadrature(prob, 0.5)  # default tolerance passes
    with pytest.raises(QuadratureError):
        expectation_quadrature(prob, 0.5, tail_tol=1e-7)


# --- boundary ----------------------------------------------------------------

def test_equal_sigma_boundary_at_midpoint():
    assert abs(decision_boundary(gaussian_pair())) < 1e-6
    shifted = gaussian_pair(mu_minus=0.0, mu_plus=3.0)
    assert decision_boundary(shifted) == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DecisionProblem1D(ClassDensity.box(-1, 0.8), ClassDensity.box(1, 0.8)),
        lambda: DecisionProblem1D(ClassDensity.laplace(-1, 0.5), ClassDensity.laplace(1, 0.5)),
    ],
)
def test_matched_scale_boundary_at_midpoint_other_families(make):
    assert abs(decision_boundary(make())) < 1e-6


def test_asymmetric_boundary_shifts_toward_flatter_side():
    prob = gaussian_pair(0.5, 2.0)
    b = decision_boundary(prob)
    assert b > 0.0
    assert abs(expectation_quadrature(prob, b)) < 1e-6


def test_no_boundary_error():
    prob = DecisionProblem1D(ClassDensity.gaussian(0.0, 1.0), ClassDensity.gaussian(0.0, 1.0))
    with pytest.raises(NoBoundaryError):
        decision_boundary(prob)


# --- decomposition ------------------------------------------------------------

def test_decomposition_grid_contains_query_as_node():
    prob = gaussian_pair()
    for q in (1.0, 0.3337, -2.71):
        grid = default_decomposition_grid(prob, q)
        assert np.count_nonzero(grid == q) == 1


def _grid_holds_query(prob, q):
    # reference rule: the query node k = 0 lies between the floor and ceil
    # step counts from the query to the window edges (means at -1 and +1)
    lo, hi = -1.0 - 12.0 * prob.max_scale, 1.0 + 12.0 * prob.max_scale
    return math.floor((lo - q) / 0.0125) <= 0 <= math.ceil((hi - q) / 0.0125)


@settings(max_examples=200)
@given(
    st.one_of(
        st.floats(-20.0, 20.0),
        # the two window edges lo - h = -7.0125 and hi + h = 7.0125, a few ulps either side
        st.sampled_from([-7.0125, 7.0125]).flatmap(
            lambda edge: st.integers(-4, 4).map(lambda n: edge + n * math.ulp(edge))
        ),
    )
)
def test_decomposition_grid_refuses_exactly_the_queries_off_its_nodes(q):
    prob = gaussian_pair()
    if _grid_holds_query(prob, q):
        grid = default_decomposition_grid(prob, q)
        assert np.count_nonzero(grid == q) == 1
    else:
        with pytest.raises(ValueError):
            default_decomposition_grid(prob, q)


def test_decomposition_identity_with_quadrature_integrand():
    prob = gaussian_pair(0.5, 2.0)
    dec = boundary_decomposition(prob, 1.0)
    gap = 2.0 * (prob.minus.cdf(dec.w0) - prob.plus.cdf(dec.w0))
    sgn = np.where(1.0 - dec.w0 >= 0, 1.0, -1.0)
    assert np.allclose(2.0 * (dec.product_pos + dec.product_neg), gap * sgn, atol=1e-15)
    assert np.allclose(dec.integrand, gap * sgn, atol=1e-15)


def test_decomposition_outputs_are_signs():
    dec = boundary_decomposition(gaussian_pair(), 1.0)
    assert set(np.unique(dec.output_pos)) <= {-1.0, 1.0}
    assert np.array_equal(dec.output_neg, -dec.output_pos)


def test_integrated_decomposition_matches_quadrature_both_examples():
    for s_plus in (0.5, 2.0):
        prob = gaussian_pair(0.5, s_plus)
        dec = boundary_decomposition(prob, 1.0)
        got = integrate_decomposition(dec)
        want = expectation_quadrature(prob, 1.0)
        assert abs(got - want) < 1e-4


def test_jump_handling_beats_naive_trapezoid():
    prob = gaussian_pair()
    dec = boundary_decomposition(prob, 1.0)
    want = expectation_quadrature(prob, 1.0)
    aware = integrate_decomposition(dec)
    naive = np.trapezoid(dec.integrand, dec.w0)
    assert abs(aware - want) < abs(naive - want)


def test_integrate_requires_query_on_grid():
    prob = gaussian_pair()
    dec = dataclasses.replace(boundary_decomposition(prob, 0.0), query=0.0123)
    with pytest.raises(ValueError):
        integrate_decomposition(dec)


def test_decomposition_accuracy_symmetric_for_equal_sigma():
    prob = gaussian_pair()
    d = np.linspace(0.0, 2.0, 101)
    a_right = np.asarray(accuracy_continuous(prob, d))
    a_left = np.asarray(accuracy_continuous(prob, -d))
    assert np.max(np.abs(a_right - a_left)) < 1e-12
