"""Vote weighting, fixed-shape reduction, pairwise accurate-half collapse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qens.model import Dataset, ModelFamily, ParameterGrid, decode_all
from qens.weighting import (
    DEFAULT_MODEL_CAP,
    DegenerateEnsembleError,
    EnumerationCapError,
    UnboundedWeightError,
    WeightScheme,
    effective_expectation,
    ensemble_decide,
    signed_sum_table,
    signed_tree_sum,
    tree_sum,
    vote,
    weights_for,
)


# --- tree_sum ---------------------------------------------------------------

def test_tree_sum_scalar_result():
    out = tree_sum(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert isinstance(out, float)
    assert out == ((1.0 + 2.0) + (3.0 + 4.0)) + 5.0


def test_tree_sum_axis():
    # the first axis is reduced; the others are kept
    a = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(tree_sum(a), ((a[0] + a[1]) + (a[2] + a[3])))
    assert tree_sum(a.T).shape == (4,)
    assert tree_sum(np.empty((0, 3))).tolist() == [0.0, 0.0, 0.0]


def test_tree_sum_invariant_to_column_chunking():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(101, 57))
    whole = tree_sum(a)
    for split in (1, 7, 13, 56):
        parts = np.concatenate([tree_sum(a[:, :split]), tree_sum(a[:, split:])])
        assert np.array_equal(whole, parts)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80))
def test_tree_sum_close_to_fsum(vals):
    arr = np.array(vals)
    got = tree_sum(arr)
    want = math.fsum(vals)
    assert abs(got - want) <= 1e-12 * max(1.0, float(np.sum(np.abs(arr))))


# --- signed_tree_sum ------------------------------------------------------------

def random_signs(rng, e: int, n: int) -> np.ndarray:
    return np.where(rng.random((e, n)) < 0.5, 1, -1).astype(np.int8)


@pytest.mark.parametrize("n", [1, 17])
@pytest.mark.parametrize("e", [*range(1, 81), 17_576, 1 << 18])
def test_signed_tree_sum_is_tree_sum_bit_for_bit(e, n):
    # accuracy-like weights with zeros, so the -1 signs give -0.0 terms
    rng = np.random.default_rng(e * 31 + n)
    w = rng.integers(0, 50, e) / 49.0
    w[::7] = 0.0
    s = random_signs(rng, e, n)
    want = tree_sum(w[:, None] * s.astype(np.float64))
    assert signed_tree_sum(signed_sum_table(w), s).tobytes() == want.tobytes()


def test_signed_tree_sum_keeps_negative_zero():
    w = np.zeros(11)
    got = signed_tree_sum(signed_sum_table(w), np.full((11, 3), -1, dtype=np.int8))
    assert np.all(got == 0.0) and np.all(np.signbit(got))


def test_signed_tree_sum_needs_one_sign_row_per_weight():
    with pytest.raises(ValueError):
        signed_tree_sum(signed_sum_table(np.ones(9)), np.ones((8, 2), dtype=np.int8))


def test_signed_sum_table_memory_bound(peak_bytes):
    # built level by level: the 256-entry level and the 16-entry level it
    # comes from, never a (G, 8, 256) product
    e = 1 << 18
    w = np.random.default_rng(3).integers(0, 50, e) / 49.0
    table_bytes = signed_sum_table(w)[0].nbytes
    assert table_bytes == 256 * 8 * (e // 8)
    assert peak_bytes(signed_sum_table, w) <= 2 * table_bytes + 64 * e


def test_signed_tree_sum_chunk_memory_bound(peak_bytes):
    # one 256-point chunk: the packed bytes, their gather index, the level-3
    # rows and tree_sum's levels above them, at most half of the E x 256
    # float64 product that tree_sum used to be given
    e, n = 1 << 18, 256
    rng = np.random.default_rng(4)
    table = signed_sum_table(rng.integers(0, 50, e) / 49.0)
    s = random_signs(rng, e, n)
    level3_bytes = (e // 8) * n * 8
    assert peak_bytes(signed_tree_sum, table, s) <= 4 * level3_bytes < e * n * 8


# --- weight functions ---------------------------------------------------------

def one_weight(scheme, a):
    """weights_for on a one-element array."""
    (w,) = weights_for(scheme, np.array([a]))
    return w


def test_weight_values():
    assert one_weight(WeightScheme.UNIFORM, 0.3) == 1.0
    assert one_weight(WeightScheme.ACCURACY, 0.3) == 0.3
    assert one_weight(WeightScheme.EFFECTIVE_CENTERED, 0.84) == pytest.approx(0.34, abs=1e-15)
    assert one_weight(WeightScheme.LOG_ODDS, 0.84) == pytest.approx(math.log(5.25), abs=5e-16)


def test_weight_accepts_scheme_string():
    assert one_weight("uniform", 0.9) == 1.0


def test_log_odds_unbounded_at_extremes():
    for a in (0.0, 1.0):
        with pytest.raises(UnboundedWeightError):
            one_weight(WeightScheme.LOG_ODDS, a)


def test_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        one_weight(WeightScheme.ACCURACY, 1.5)


def test_weights_for_vectorized():
    a = np.array([0.2, 0.5, 0.84])
    assert np.array_equal(weights_for(WeightScheme.UNIFORM, a), np.ones(3))
    assert np.array_equal(weights_for(WeightScheme.ACCURACY, a), a)
    assert np.allclose(weights_for(WeightScheme.EFFECTIVE_CENTERED, a), a - 0.5)


# --- vote ---------------------------------------------------------------------

def labels(*signs):
    return np.array(signs, dtype=np.int8)


def test_vote_two_model_score():
    dec = vote(np.array([0.84, 0.16]), labels(1, -1))
    assert dec.raw_score == pytest.approx(0.68, abs=1e-15)
    assert dec.p_plus == pytest.approx(0.84, abs=1e-15)
    assert dec.p_minus == pytest.approx(0.16, abs=1e-15)
    assert dec.label == 1


def test_vote_tie_labels_plus():
    dec = vote(np.array([0.5, 0.5]), labels(1, -1))
    assert dec.raw_score == 0.0
    assert dec.label == 1


def test_vote_all_zero_weights_degenerate():
    with pytest.raises(DegenerateEnsembleError):
        vote(np.array([0.0]), labels(1))


def test_vote_zero_total_weight_gives_nan_probabilities():
    dec = vote(np.array([0.5, -0.5]), labels(1, -1))
    assert math.isnan(dec.p_plus) and math.isnan(dec.p_minus)
    assert dec.raw_score == pytest.approx(1.0)


def test_vote_needs_one_weight_per_label():
    with pytest.raises(ValueError):
        vote(np.array([0.5, 0.5]), labels(1, -1, 1))


def test_vote_is_the_tree_sums_of_weights_and_labels():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.0, 1.0, 1001)
    s = np.where(rng.random(1001) < 0.5, -1, 1).astype(np.int8)
    dec = vote(w, s)
    assert dec.raw_score == tree_sum(w * s)
    assert dec.p_plus == tree_sum(w * (s > 0)) / tree_sum(w)
    assert dec.p_minus == tree_sum(w * (s < 0)) / tree_sum(w)


# --- ensemble_decide ------------------------------------------------------------

def test_ensemble_decide_accuracy_scheme(region_dataset, sym_grid_1d):
    fam = ModelFamily("perceptron", 1)
    dec = ensemble_decide(fam, sym_grid_1d, region_dataset, WeightScheme.ACCURACY, np.array([2.0]))
    # weights (0.5, 0.16, 0.84, 0.5), outputs (-1, -1, +1, +1)
    assert dec.raw_score == pytest.approx(0.68, abs=1e-15)
    assert dec.p_plus == pytest.approx(1.34 / 2.0, abs=1e-15)
    assert dec.label == 1


def test_ensemble_decide_log_odds_nan_on_symmetric_grid(region_dataset, sym_grid_1d):
    fam = ModelFamily("perceptron", 1)
    dec = ensemble_decide(fam, sym_grid_1d, region_dataset, WeightScheme.LOG_ODDS, np.array([2.0]))
    # complement pairs cancel the total weight exactly
    assert math.isnan(dec.p_plus)


def test_ensemble_decide_cap(region_dataset):
    fam = ModelFamily("perceptron", 1)
    # 2^26 models: the cap is checked before the grid is enumerated
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 13)
    assert grid.size > DEFAULT_MODEL_CAP
    with pytest.raises(EnumerationCapError):
        ensemble_decide(fam, grid, region_dataset, WeightScheme.UNIFORM, np.array([0.0]))


@pytest.mark.parametrize("scheme", [WeightScheme.UNIFORM, WeightScheme.ACCURACY, WeightScheme.LOG_ODDS])
def test_ensemble_decide_is_the_vote_on_grid_accuracies(region_dataset, sym_grid_1d, scheme):
    from qens.model import grid_accuracies, predict_many

    fam = ModelFamily("perceptron", 1)
    x = np.array([0.3])
    acc = grid_accuracies(fam, sym_grid_1d, region_dataset)
    want = vote(weights_for(scheme, acc), predict_many(fam, decode_all(sym_grid_1d), x)[:, 0])
    assert ensemble_decide(fam, sym_grid_1d, region_dataset, scheme, x) == want


def test_uniform_equals_unweighted_majority(region_dataset, sym_grid_1d):
    fam = ModelFamily("perceptron", 1)
    dec = ensemble_decide(fam, sym_grid_1d, region_dataset, WeightScheme.UNIFORM, np.array([2.0]))
    assert dec.raw_score == 0.0  # symmetric grid, outputs cancel pairwise
    assert dec.label == 1


# --- accurate-half reduction ------------------------------------------------------

def test_effective_expectation_engineered_value(region_dataset, sym_grid_1d):
    fam = ModelFamily("perceptron", 1)
    eff = effective_expectation(fam, sym_grid_1d, region_dataset, np.array([2.0]))
    assert eff == pytest.approx(0.085, abs=1e-15)


def test_effective_expectation_equals_half_full_sum(region_dataset, sym_grid_1d):
    fam = ModelFamily("perceptron", 1)
    from qens.model import grid_accuracies, predict_many

    acc = grid_accuracies(fam, sym_grid_1d, region_dataset)
    for q in (-2.5, -0.3, 0.1, 2.0):
        x = np.array([q])
        preds = predict_many(fam, decode_all(sym_grid_1d), x[None, :]).ravel()
        full = tree_sum(acc * preds) / sym_grid_1d.size
        eff = effective_expectation(fam, sym_grid_1d, region_dataset, x)
        assert full == pytest.approx(2.0 * eff, abs=1e-15)


def test_effective_expectation_requires_symmetry(region_dataset):
    fam = ModelFamily("perceptron", 1)
    asym = ParameterGrid(((-1.0, 1.0), (0.0, 1.0)), 1)
    with pytest.raises(ValueError):
        effective_expectation(fam, asym, region_dataset, np.array([0.0]))


def test_effective_expectation_requires_point_symmetric_family(region_dataset):
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 1)
    with pytest.raises(ValueError):
        effective_expectation(ModelFamily("threshold1d", 1), grid, region_dataset, np.array([0.0]))


def test_effective_expectation_all_ties_is_zero():
    fam = ModelFamily("perceptron", 1)
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 1)
    # two points, mirrored labels: every model scores exactly 1/2
    ds = Dataset(np.array([[2.0], [2.0]]), np.array([-1, 1]))
    assert effective_expectation(fam, grid, ds, np.array([0.5])) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reduction_identity_random_problems(seed):
    rng = np.random.default_rng(seed)
    fam = ModelFamily("perceptron", int(rng.integers(1, 3)))
    bits = int(rng.integers(1, 4))
    grid = ParameterGrid(tuple((-1.0, 1.0) for _ in range(fam.parameter_count)), bits)
    m = int(rng.integers(1, 9))
    ds = Dataset(rng.normal(size=(m, fam.input_dim)), rng.choice([-1, 1], size=m))
    x = rng.normal(size=fam.input_dim)
    from qens.model import grid_accuracies, predict_many

    acc = grid_accuracies(fam, grid, ds)
    preds = predict_many(fam, decode_all(grid), x[None, :]).ravel()
    full = tree_sum(acc * preds) / grid.size
    eff = effective_expectation(fam, grid, ds, x)
    assert abs(full - 2.0 * eff) < 1e-12
