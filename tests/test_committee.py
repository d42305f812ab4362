"""Majority-vote error and the odds ratio."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qens.committee import (
    condorcet_curve,
    condorcet_error,
    odds_ratio,
)


def test_three_member_error_frozen():
    # p=0.6: losing needs 2 or 3 wrong of 3: 3*0.4^2*0.6 + 0.4^3 = 0.352
    assert condorcet_error(3, 0.6) == pytest.approx(0.352, abs=1e-15)


def test_single_member_error_is_complement():
    assert condorcet_error(1, 0.7) == pytest.approx(0.3, abs=1e-15)


def test_large_committee_converges():
    assert condorcet_error(1001, 0.6) < 1e-6


def test_edge_probabilities():
    assert condorcet_error(101, 0.0) == 1.0
    assert condorcet_error(101, 1.0) == 0.0


def test_half_probability_stays_half():
    for size in (1, 3, 101, 1001):
        assert condorcet_error(size, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_even_size_rejected():
    with pytest.raises(ValueError):
        condorcet_error(2, 0.6)
    with pytest.raises(ValueError):
        condorcet_error(0, 0.6)


def test_probability_range_checked():
    with pytest.raises(ValueError):
        condorcet_error(3, 1.2)


@settings(max_examples=80)
@given(st.integers(0, 150), st.floats(0.0, 1.0))
def test_complement_symmetry(half, p):
    size = 2 * half + 1
    assert condorcet_error(size, p) + condorcet_error(size, 1.0 - p) == pytest.approx(
        1.0, abs=1e-12
    )


def test_monotone_improvement_above_half():
    for p in (0.55, 0.6, 0.7):
        errs = [v for _, v in condorcet_curve(p, 401)]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


def test_monotone_decline_below_half():
    errs = [v for _, v in condorcet_curve(0.45, 201)]
    assert all(b >= a - 1e-15 for a, b in zip(errs, errs[1:]))


def test_curve_sizes_are_odd():
    curve = condorcet_curve(0.6, 10)
    assert [e for e, _ in curve] == [1, 3, 5, 7, 9]


def test_odds_ratio_values():
    assert odds_ratio(0.5) == 1.0
    assert odds_ratio(0.84) == pytest.approx(5.25, rel=1e-12)
    assert odds_ratio(0.0) == 0.0
    with pytest.raises(ValueError):
        odds_ratio(1.0)


def test_log_space_stability_extreme_sizes():
    # direct binomial sums overflow long before this
    v = condorcet_error(20001, 0.51)
    assert 0.0 < v < 0.0024
    # gammaln roundoff grows with size; 1e-12 holds only up to ~10^3 terms
    assert condorcet_error(20001, 0.49) == pytest.approx(1.0 - v, abs=1e-10)
