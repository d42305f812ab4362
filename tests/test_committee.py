"""Majority-vote error and the odds ratio."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from qens import committee
from qens.committee import (
    condorcet_curve,
    condorcet_error,
    odds_ratio,
)
from qens.figures import FIG2_SIZE_CAP

EDGE_P = (0.0, 1.0, 0.5, 5e-324, 1e-300, 1.0 - 2.0**-53, 0.45, 0.55, 0.6, 0.7)


def per_size_error(size, p):
    """The per-size formula that the batched pass reproduces: scipy's
    logsumexp over one size's own log terms."""
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    k = np.arange(size // 2 + 1, size + 1, dtype=np.float64)
    log_terms = (
        gammaln(size + 1.0)
        - gammaln(k + 1.0)
        - gammaln(size - k + 1.0)
        + k * np.log1p(-p)
        + (size - k) * np.log(p)
    )
    return float(min(1.0, np.exp(logsumexp(log_terms))))


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
        _, errs = condorcet_curve(p, 401)
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


def test_monotone_decline_below_half():
    _, errs = condorcet_curve(0.45, 201)
    assert all(b >= a - 1e-15 for a, b in zip(errs, errs[1:]))


def test_curve_sizes_are_odd():
    sizes, _ = condorcet_curve(0.6, 10)
    assert sizes.tolist() == [1, 3, 5, 7, 9]


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


@settings(max_examples=10, deadline=None)
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
@example(0.5)
@example(5e-324)
@example(1e-300)
@example(1.0 - 2.0**-53)
@example(0.45)
@example(0.55)
@example(0.6)
@example(0.7)
def test_batched_pass_matches_per_size_logsumexp_bit_for_bit(p):
    sizes, errs = condorcet_curve(p, 2001)
    assert sizes.tolist() == list(range(1, 2002, 2))
    assert errs.tolist() == [per_size_error(n, p) for n in sizes.tolist()]
    for size in (1, 3, 1609, 4001, 16383):
        assert condorcet_error(size, p) == per_size_error(size, p)


@pytest.mark.parametrize("p", (0.5, 0.6, 5e-324))
def test_curve_straddling_chunk_boundaries_keeps_per_size_values(p, monkeypatch):
    chunks = []
    chunk_errors = committee._chunk_errors

    def record(n, *args):
        chunks.append(n.tolist())
        return chunk_errors(n, *args)

    monkeypatch.setattr(committee, "_CHUNK_TERMS", 100)
    monkeypatch.setattr(committee, "_chunk_errors", record)
    sizes, errs = condorcet_curve(p, 401)
    # whole sizes per chunk, in order; from size 201 on a size has over 100
    # terms and is a chunk alone
    assert [n for chunk in chunks for n in chunk] == list(range(1, 402, 2))
    assert all(sum((n + 1) // 2 for n in c) <= 100 for c in chunks if c[0] < 201)
    assert sum(1 for c in chunks if c[0] < 201) > 10
    assert [c for c in chunks if c[0] >= 201] == [[n] for n in range(201, 402, 2)]
    assert sizes.tolist() == list(range(1, 402, 2))
    assert errs.tolist() == [per_size_error(n, p) for n in sizes.tolist()]


def test_curve_at_size_cap_memory_bound(peak_bytes):
    # about 33.6M log terms in all, held at most 2^20 at a time
    assert peak_bytes(condorcet_curve, 0.6, FIG2_SIZE_CAP) <= 64 << 20


def test_curve_checks_its_arguments():
    with pytest.raises(ValueError, match="max_size must be positive"):
        condorcet_curve(0.6, 0)
    with pytest.raises(ValueError, match="outside"):
        condorcet_curve(1.5, 11)
    with pytest.raises(ValueError, match="outside"):
        condorcet_curve(float("nan"), 11)
