"""Model families, grid coding, dataset IO."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qens import model
from qens.model import (
    Dataset,
    ModelFamily,
    ParameterGrid,
    correct_counts,
    decode_all,
    grid_accuracies,
    grid_correct_counts,
    lattice,
    predict_many,
)


# --- family validation ---------------------------------------------------

def test_parameter_counts():
    assert ModelFamily("threshold1d", 1).parameter_count == 2
    assert ModelFamily("perceptron", 3).parameter_count == 4
    assert ModelFamily("mlp2", 2, (2, 2)).parameter_count == 2 * 2 + 2 * 2 + 2


def test_threshold_requires_univariate():
    with pytest.raises(ValueError):
        ModelFamily("threshold1d", 2)


def test_point_symmetry_flags():
    assert ModelFamily("perceptron", 2).is_point_symmetric
    assert ModelFamily("mlp2", 1, (2, 2)).is_point_symmetric
    assert not ModelFamily("threshold1d", 1).is_point_symmetric


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ModelFamily("tree", 1)


# --- predictions ----------------------------------------------------------

def test_threshold_prediction_values():
    fam = ModelFamily("threshold1d", 1)
    thetas = np.array([[1.0, 0.5], [-1.0, 0.5]])
    xs = np.array([[0.0], [1.0]])
    out = predict_many(fam, thetas, xs)
    assert out.tolist() == [[-1, 1], [1, -1]]


def test_perceptron_prediction_matches_manual():
    fam = ModelFamily("perceptron", 2)
    rng = np.random.default_rng(0)
    thetas = rng.normal(size=(5, 3))
    xs = rng.normal(size=(7, 2))
    out = predict_many(fam, thetas, xs)
    margins = thetas[:, :2] @ xs.T + thetas[:, 2:3]
    assert np.array_equal(out, np.where(margins >= 0, 1, -1))


def test_mlp_prediction_matches_manual():
    fam = ModelFamily("mlp2", 2, (2, 2))
    rng = np.random.default_rng(1)
    theta = rng.normal(size=(10,))
    x = rng.normal(size=(2,))
    w1 = theta[0:4].reshape(2, 2)
    w2 = theta[4:8].reshape(2, 2)
    w3 = theta[8:10]
    h1 = np.tanh(w1 @ x)
    h2 = np.tanh(w2 @ h1)
    margin = float(w3 @ h2)
    assert predict_many(fam, theta, x)[0, 0] == (1 if margin >= 0 else -1)


def test_sign_zero_margin_is_plus_one():
    fam = ModelFamily("perceptron", 1)
    assert predict_many(fam, np.array([1.0, 0.0]), np.array([0.0]))[0, 0] == 1
    # negative zero margin counts as zero
    assert predict_many(fam, np.array([-0.0, 0.0]), np.array([5.0]))[0, 0] == 1


def test_point_symmetry_of_predictions():
    rng = np.random.default_rng(2)
    for fam in (ModelFamily("perceptron", 3), ModelFamily("mlp2", 2, (2, 2))):
        thetas = rng.normal(size=(40, fam.parameter_count))
        xs = rng.normal(size=(25, fam.input_dim))
        a = predict_many(fam, thetas, xs)
        b = predict_many(fam, -thetas, xs)
        assert np.array_equal(a, -b)


def test_threshold_not_point_symmetric():
    fam = ModelFamily("threshold1d", 1)
    theta = np.array([1.0, 0.5])
    x = np.array([0.0])
    # between the two mirrored thresholds both signs flip, so the
    # negated parameters reproduce the same output instead of the opposite
    assert predict_many(fam, theta, x)[0, 0] == predict_many(fam, -theta, x)[0, 0] == -1


# --- grid coding ----------------------------------------------------------

def decode_theta(index, grid):
    """Parameter vector of basis state `index` by bit slicing, most
    significant parameter first: the row-by-row reference for decode_all."""
    assert 0 <= index < grid.size
    mask = (1 << grid.bits) - 1
    p = grid.parameter_count
    out = np.empty(p, dtype=np.float64)
    for j, (lo, hi) in enumerate(grid.intervals):
        slice_j = (index >> (grid.bits * (p - 1 - j))) & mask
        out[j] = model._tick_values(lo, hi, grid.bits, np.float64(slice_j))
    return out


def test_decode_three_bit_interval():
    grid = ParameterGrid(((-1.0, 1.0),), 3)
    assert decode_theta(0, grid)[0] == -1.0
    assert decode_theta(2, grid)[0] == -0.42857142857142855
    assert decode_theta(7, grid)[0] == 1.0


def test_decode_endpoints_exact():
    grid = ParameterGrid(((-2.5, 7.25),), 4)
    assert decode_theta(0, grid)[0] == -2.5
    assert decode_theta(15, grid)[0] == 7.25


def test_decode_negation_exact_on_symmetric_interval():
    grid = ParameterGrid(((-1.0, 1.0),), 5)
    vals = decode_all(grid).ravel()
    assert np.array_equal(vals, -vals[::-1])


def test_decode_msb_first_parameter_packing():
    grid = ParameterGrid(((-1.0, 1.0), (0.0, 3.0)), 2)
    # index = p0_bits * 4 + p1_bits
    assert np.array_equal(decode_theta(0b0110, grid), np.array([-1.0 / 3.0, 2.0]))


def test_decode_all_matches_decode_theta():
    for grid in (
        ParameterGrid(((-1.0, 2.0), (0.5, 1.5)), 3),
        ParameterGrid(((-2.5, 7.25), (0.1, 0.3), (-3.0, -1.0 / 3.0)), 2),  # asymmetric
    ):
        table = decode_all(grid)
        assert table.shape == (grid.size, grid.parameter_count)
        for i in range(grid.size):
            assert table[i].tobytes() == decode_theta(i, grid).tobytes()


def _meshgrid_lattice(axes):
    # the enumeration fig6 used before lattice(): meshgrid copies, then stack
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@pytest.mark.parametrize(
    "axes",
    [
        [np.linspace(-1.0, 1.0, 20)] * 3,
        [np.linspace(-1.0, 1.0, 21)] * 3,
        [np.linspace(-1.0, 1.0, 64)] * 3,
        [-2.0 + 0.025 * np.arange(161)] * 2,
        [np.array([0.5]), np.array([-0.0, 0.0, 3.0]), np.array([1.0, 2.0])],
    ],
    ids=["fig6_20", "fig6_21", "fig6_64", "raster_161", "uneven"],
)
def test_lattice_matches_meshgrid(axes):
    rows = lattice(axes)
    expected = _meshgrid_lattice(axes)
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def test_decode_all_memory_bound(peak_bytes):
    # one (E, P) float64 output filled column by column from the ticks; the
    # index-arithmetic form held E-length int64 and float64 temporaries too
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 10)
    assert peak_bytes(decode_all, grid) <= grid.size * 2 * 8 + (64 << 10)


def test_grid_validation():
    with pytest.raises(ValueError):
        ParameterGrid(((1.0, -1.0),), 2)
    with pytest.raises(ValueError):
        ParameterGrid(((-1.0, 1.0),), 0)
    with pytest.raises(ValueError):
        ParameterGrid(((-np.inf, 1.0),), 2)


@pytest.mark.parametrize(
    ("interval", "bits"),
    [((-1e308, 1e308), 2), ((0.0, 1e308), 1023), ((-1.0, 1.0), 1024), ((0.5, 1.0), 5000)],
)
def test_grid_rejects_ticks_that_overflow(interval, bits):
    # the ticks scale each end by 2**bits - 1, which must stay finite
    with pytest.raises(ValueError):
        ParameterGrid((interval, (-1.0, 1.0)), bits)


def test_grid_ticks_at_the_largest_finite_scale_are_finite():
    ticks = decode_all(ParameterGrid(((-1e307, 1e307),), 3))[:, 0]
    assert np.all(np.isfinite(ticks))
    assert ticks[0] == -1e307 and ticks[-1] == 1e307


def test_grid_symmetry_flag():
    assert ParameterGrid(((-1.0, 1.0), (-2.0, 2.0)), 2).is_symmetric
    assert not ParameterGrid(((-1.0, 1.0), (0.0, 2.0)), 2).is_symmetric


def test_index_complement_negates_on_symmetric_grid():
    grid = ParameterGrid(((-1.0, 1.0), (-3.0, 3.0)), 3)
    table = decode_all(grid)
    assert np.array_equal(table, -table[::-1])


# --- dataset --------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0]]), np.array([2]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([1]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 1)), np.zeros((0,), dtype=int))


def test_dataset_arrays_write_protected():
    ds = Dataset(np.array([[1.0]]), np.array([1]))
    with pytest.raises(ValueError):
        ds.x[0, 0] = 2.0


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(9, 2)), rng.choice([-1, 1], size=9))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    ds.to_csv(p1)
    back = Dataset.read_csv(p1)
    back.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(ds.x, back.x) and np.array_equal(ds.y, back.y)


def test_dataset_csv_header_and_exact_values(tmp_path):
    ds = Dataset(np.array([[0.1, -2.0], [3.5, 4.25]]), np.array([-1, 1]))
    p = tmp_path / "d.csv"
    ds.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x1,x2,y"
    assert lines[1] == "0.1,-2.0,-1"
    assert lines[2] == "3.5,4.25,1"


def test_read_csv_rejects_bad_label(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,y\n0.5,0\n")
    with pytest.raises(ValueError):
        Dataset.read_csv(p)


def test_read_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n0.5,1\n")
    with pytest.raises(ValueError):
        Dataset.read_csv(p)


def test_read_csv_rejects_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,x2,y\n0.5,1\n")
    with pytest.raises(ValueError):
        Dataset.read_csv(p)


# --- scoring --------------------------------------------------------------

def test_correct_counts_and_accuracy(region_dataset):
    fam = ModelFamily("perceptron", 1)
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 1)
    counts = grid_correct_counts(fam, grid, region_dataset)
    assert counts.tolist() == [25, 8, 42, 25]
    acc = grid_accuracies(fam, grid, region_dataset)
    assert np.allclose(acc, [0.5, 0.16, 0.84, 0.5], atol=0)
    theta = decode_theta(2, grid)
    assert correct_counts(fam, theta, region_dataset)[0] / len(region_dataset) == 0.84


def test_count_complement_under_negation():
    rng = np.random.default_rng(4)
    fam = ModelFamily("perceptron", 2)
    thetas = rng.normal(size=(30, 3))
    ds = Dataset(rng.normal(size=(11, 2)), rng.choice([-1, 1], size=11))
    c = correct_counts(fam, thetas, ds)
    c_neg = correct_counts(fam, -thetas, ds)
    assert np.array_equal(c + c_neg, np.full(30, 11))


def test_grid_family_mismatch_rejected(region_dataset):
    fam = ModelFamily("perceptron", 2)
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 1)
    with pytest.raises(ValueError):
        grid_accuracies(fam, grid, region_dataset)


def test_dataset_dimension_mismatch_rejected(region_dataset):
    fam = ModelFamily("perceptron", 2)
    thetas = np.zeros((1, 3))
    with pytest.raises(ValueError):
        correct_counts(fam, thetas, region_dataset)


# --- block evaluation -----------------------------------------------------

B = model._RUN  # models per run of the one-input kernel


def block_rows(fam, m):
    """Models per block of a wide family at m points: 2**18 float64 values,
    a margin and mlp2's h1 + h2 activations per (model, point)."""
    return max(1, model._BLOCK_VALUES // (m * (1 + sum(fam.hidden))))


def unblocked_predictions(fam, thetas, xs):
    """Unblocked reference: all margins as one float64 array, then the signs."""
    n = fam.input_dim
    if fam.kind == "threshold1d":
        margins = thetas[:, 0:1] * (xs[:, 0][None, :] - thetas[:, 1:2])
    elif fam.kind == "perceptron":
        margins = thetas[:, :n] @ xs.T + thetas[:, n : n + 1]
    else:
        h1, h2 = fam.hidden
        w1 = thetas[:, : h1 * n].reshape(-1, h1, n)
        w2 = thetas[:, h1 * n : h1 * n + h2 * h1].reshape(-1, h2, h1)
        w3 = thetas[:, h1 * n + h2 * h1 :]
        a1 = np.tanh(np.einsum("ehn,mn->ehm", w1, xs))
        a2 = np.tanh(np.einsum("ekh,ehm->ekm", w2, a1))
        margins = np.einsum("ek,ekm->em", w3, a2)
    return np.where(margins >= 0.0, 1, -1).astype(np.int8)


@pytest.mark.parametrize(
    "fam",
    [ModelFamily("threshold1d", 1), ModelFamily("perceptron", 1), ModelFamily("perceptron", 2), ModelFamily("perceptron", 3), ModelFamily("mlp2", 2, (2, 1))],
    ids=["threshold1d", "perceptron1", "perceptron2", "perceptron3", "mlp2"],
)
@pytest.mark.parametrize("e", [1, B - 1, B, B + 1, 3 * B + 7])
def test_blocked_predictions_match_unblocked(fam, e):
    # the wide families get the point count at which a block holds B models,
    # so e straddles the one-input runs and the wide blocks alike
    one_input = fam.kind != "mlp2" and fam.input_dim == 1
    m = 7 if one_input else model._BLOCK_VALUES // (B * (1 + sum(fam.hidden)))
    assert one_input or block_rows(fam, m) == B
    rng = np.random.default_rng(e)
    # quarter-step values make many margins exactly zero
    thetas = rng.integers(-4, 5, size=(e, fam.parameter_count)) / 4.0
    xs = rng.integers(-4, 5, size=(m, fam.input_dim)) / 4.0
    xs[0] = 0.25
    edges = [i for i in (0, B - 1, B, B + 1, 2 * B - 1, 2 * B, e - 1) if i < e]
    zero, negative_zero = np.zeros(fam.parameter_count), np.zeros(fam.parameter_count)
    if fam.kind == "threshold1d":
        zero[:] = 1.0, 0.25  # x = w0: margin 1 * 0.0
        negative_zero[:] = -1.0, 0.25  # margin -1 * 0.0 = -0.0
    else:
        negative_zero[:] = -0.0  # -0.0 * 0.25 + -0.0 = -0.0
    for k, i in enumerate(edges):
        thetas[i] = zero if k % 2 else negative_zero
    preds = predict_many(fam, thetas, xs)
    expected = unblocked_predictions(fam, thetas, xs)
    assert preds.dtype == np.int8
    assert preds.shape == (e, m)
    assert np.array_equal(preds, expected)
    assert np.all(preds[edges, 0] == 1)

    ds = Dataset(xs, rng.choice([-1, 1], size=m))
    counts = correct_counts(fam, thetas, ds)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.count_nonzero(expected == ds.y, axis=1))


# finite values with the edges drawn often: signed zeros, the smallest
# subnormal, and magnitudes whose products overflow to +-inf
_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308])
_FINITE = st.one_of(_EDGES, st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize(
    "kind, theta, x, sign",
    [
        ("threshold1d", (0.0, -1.7e308), 1.7e308, -1),  # o * (x - w0) = 0 * inf: NaN
        ("threshold1d", (0.0, 1.7e308), -1.7e308, -1),  # 0 * -inf: NaN
        ("threshold1d", (1.0, 0.25), 0.25, 1),  # 1 * 0.0 = +0.0
        ("threshold1d", (-1.0, 0.25), 0.25, 1),  # -1 * 0.0 = -0.0
        ("threshold1d", (-5e-324, 0.0), 0.5, 1),  # -2.5e-324 underflows to -0.0
        ("threshold1d", (-5e-324, 0.0), 0.75, -1),  # -3.75e-324 rounds to -5e-324
        ("perceptron", (-5e-324, 0.0), 0.5, 1),  # -0.0 + 0.0 = +0.0
        ("perceptron", (-5e-324, -0.0), 0.5, 1),  # -0.0 + -0.0 = -0.0
        ("perceptron", (0.0, -0.0), -3.0, 1),  # w = 0: -0.0 + -0.0
        ("perceptron", (-0.0, 5e-324), 1.7e308, 1),  # w = 0: the bias decides
        ("perceptron", (0.0, -5e-324), 1.7e308, -1),
        ("perceptron", (1.7e308, -1.7e308), -1.7e308, -1),  # -inf + -1.7e308
        ("perceptron", (1.7e308, -1.7e308), 1.7e308, 1),  # inf - 1.7e308 = inf
    ],
)
def test_one_input_edge_margins(kind, theta, x, sign):
    # the edge model in every row of three runs and a tail, at both ends of a
    # column of ordinary points
    fam = ModelFamily(kind, 1)
    thetas = np.tile(theta, (3 * B + 5, 1))
    xs = np.array([[1.0], [x], [-2.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = predict_many(fam, thetas, xs)
        assert np.array_equal(got, unblocked_predictions(fam, thetas, xs))
    assert np.all(got[:, 1] == sign)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["threshold1d", "perceptron"]),
    st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=40),
    st.lists(_FINITE, min_size=1, max_size=6),
    st.integers(1, 9),
)
def test_one_input_runs_match_unblocked(kind, models, points, run):
    fam = ModelFamily(kind, 1)
    thetas, xs = np.array(models), np.array(points)[:, None]
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(model, "_RUN", run)
        got = predict_many(fam, thetas, xs)
        want = unblocked_predictions(fam, thetas, xs)
    assert np.array_equal(got, want)


# the one-input kernel against the unblocked reference, non-finite values included
_SPECIAL = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0, 1.7e308, -1.7e308]
)
_ANY = st.one_of(_SPECIAL, st.floats())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["threshold1d", "perceptron"]),
    st.sampled_from([1, B - 1, B, B + 1, 3 * B + 5]),
    st.lists(st.tuples(_ANY, _ANY), min_size=1, max_size=12),
    st.lists(_ANY, min_size=1, max_size=12),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
)
def test_one_input_kernel_matches_unblocked(kind, e, models, points, m, seed):
    # the drawn models and points fill E rows and M points, the draws first
    # (so a short run meets them) and then at random; E * M stays under 2^22
    m = min(m, (1 << 22) // e)
    rng = np.random.default_rng(seed)
    models, points = np.array(models), np.array(points)
    thetas = models[np.concatenate([np.arange(min(e, len(models))), rng.integers(0, len(models), max(0, e - len(models)))])]
    xs = points[np.concatenate([np.arange(min(m, len(points))), rng.integers(0, len(points), max(0, m - len(points)))])]
    fam = ModelFamily(kind, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        got = predict_many(fam, thetas, xs[:, None])
        want = unblocked_predictions(fam, thetas, xs[:, None])
    assert got.dtype == np.int8 and got.shape == (e, m)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["threshold1d", "perceptron"])
def test_one_input_reductions_ignore_memory_order(kind, monkeypatch):
    # correct_counts and signed_tree_sum read the predictions as returned
    # and as C- and Fortran-ordered copies to the same bits
    from qens.weighting import signed_sum_table, signed_tree_sum

    fam = ModelFamily(kind, 1)
    rng = np.random.default_rng(21)
    e, m = 3 * B + 5, 24
    thetas = rng.integers(-4, 5, size=(e, 2)) / 4.0
    ds = Dataset(rng.integers(-4, 5, size=(m, 1)) / 4.0, rng.choice([-1, 1], size=m))
    preds = predict_many(fam, thetas, ds.x)
    table = signed_sum_table(rng.integers(0, 50, e) / 49.0)
    want_counts = correct_counts(fam, thetas, ds)
    want_sums = signed_tree_sum(table, preds).tobytes()
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert signed_tree_sum(table, layout(preds)).tobytes() == want_sums
        with monkeypatch.context() as mp:
            mp.setattr(model, "predict_many", lambda *args: layout(predict_many(*args)))
            assert np.array_equal(correct_counts(fam, thetas, ds), want_counts)


# signed powers of two and zeros: every product of two of them, and every
# product of one with a tanh value, is exact, and each margin or activation
# sums two terms, so any BLAS or einsum order, fused or not, rounds it alike.
# (Overflow is left out: a fused multiply-add of -inf's product onto +inf
# gives +inf, so there the order decides.)
_POWERS = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 4.0, -4.0, 2.0**-1000, -(2.0**-1000)])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([ModelFamily("perceptron", 2), ModelFamily("mlp2", 2, (2, 2))]),
    st.integers(1, 30),
    st.integers(1, 9),
    st.integers(1, 64),
    st.data(),
)
def test_wide_blocks_match_unblocked(fam, e, m, block_values, data):
    thetas = np.array(data.draw(st.lists(_POWERS, min_size=e * fam.parameter_count, max_size=e * fam.parameter_count))).reshape(e, -1)
    xs = np.array(data.draw(st.lists(_POWERS, min_size=2 * m, max_size=2 * m))).reshape(m, 2)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(model, "_BLOCK_VALUES", block_values)
        got = predict_many(fam, thetas, xs)
        want = unblocked_predictions(fam, thetas, xs)
    assert np.array_equal(got, want)


def test_nan_margin_predicts_minus_one():
    thetas = np.array([[np.nan, 0.0], [np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):
        assert predict_many(ModelFamily("perceptron", 1), thetas, np.array([[1.0]])).tolist() == [[-1], [-1]]


@pytest.mark.parametrize(
    "fam",
    [ModelFamily("threshold1d", 1), ModelFamily("perceptron", 1), ModelFamily("perceptron", 2), ModelFamily("perceptron", 3), ModelFamily("mlp2", 2, (2, 2))],
    ids=["threshold1d", "perceptron1", "perceptron2", "perceptron3", "mlp2"],
)
def test_block_evaluation_memory_bound(fam, peak_bytes):
    # the (E, M) int8 result plus one block of 2**18 float64 values (2 MiB),
    # whatever M is: a wide block's margins, and mlp2's activations a1 and
    # a2 beside them, or the one-input kernel's three run buffers (384 KiB),
    # which alone bound predict_many there: a float64 temporary of one
    # point's E margins (512 KiB) breaks that bound.
    # Blocks of 2**14 models held 32 MiB of margins at M = 256
    e, m = 1 << 16, 256
    rng = np.random.default_rng(9)
    thetas = rng.normal(size=(e, fam.parameter_count))
    ds = Dataset(rng.normal(size=(m, fam.input_dim)), rng.choice([-1, 1], size=m))
    bound = e * m + 8 * model._BLOCK_VALUES + (256 << 10)
    one_input = fam.kind != "mlp2" and fam.input_dim == 1
    assert peak_bytes(predict_many, fam, thetas, ds.x) <= (e * m + 3 * 8 * B + (16 << 10) if one_input else bound)
    assert peak_bytes(correct_counts, fam, thetas, ds) <= bound


# --- the one-input margins and the counts against the forms they replaced ----


def matmul_signs(thetas, xs):
    """The one-input perceptron as it was computed: margins from BLAS, w @ x + b."""
    margins = thetas[:, :1] @ xs.T + thetas[:, 1:2]
    return np.where(margins >= 0.0, 1, -1).astype(np.int8)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=12), st.lists(_FINITE, min_size=1, max_size=6))
def test_one_input_perceptron_signs_match_matmul(models, points):
    fam = ModelFamily("perceptron", 1)
    thetas = np.array(models)
    xs = np.array(points)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        # each model again with b = -fl(w * x0): its margin at the first point is exactly zero
        on_edge = np.column_stack([thetas[:, 0], -(thetas[:, 0] * xs[0, 0])])
        thetas = np.concatenate([thetas, on_edge, -on_edge])
        got = predict_many(fam, thetas, xs)
        want = matmul_signs(thetas, xs)
    assert np.array_equal(got, want)


def test_one_input_perceptron_signs_match_matmul_on_grid_blocks():
    # a whole grid, several blocks, at points that include tick values
    # (zero margins) and the grid's own negations
    fam = ModelFamily("perceptron", 1)
    thetas = decode_all(ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 8))
    xs = np.concatenate([decode_all(ParameterGrid(((-2.0, 2.0),), 4)), [[0.0], [-0.0], [1e-300]]])
    assert np.array_equal(predict_many(fam, thetas, xs), matmul_signs(thetas, xs))


def int8_row_sum_counts(fam, thetas, ds):
    """correct_counts as it was computed: signs times labels in int8, summed per row."""
    preds = predict_many(fam, thetas, ds.x)
    preds *= ds.y.astype(np.int8)
    return (len(ds) + preds.sum(axis=1, dtype=np.int64)) // 2


@pytest.mark.parametrize(
    "fam",
    [ModelFamily("threshold1d", 1), ModelFamily("perceptron", 1), ModelFamily("perceptron", 2), ModelFamily("mlp2", 2, (2, 2))],
    ids=["threshold1d", "perceptron1", "perceptron2", "mlp2"],
)
@pytest.mark.parametrize("m", [1, 7, 24, 200])
def test_correct_counts_match_int8_row_sums(fam, m):
    rows = model._COUNT_CHUNK // m
    rng = np.random.default_rng(m)
    ds = Dataset(rng.integers(-4, 5, size=(m, fam.input_dim)) / 4.0, rng.choice([-1, 1], size=m))
    for e in (1, rows - 1, rows, 2 * rows + 3):
        thetas = rng.integers(-4, 5, size=(e, fam.parameter_count)) / 4.0
        got = correct_counts(fam, thetas, ds)
        assert got.dtype == np.int64
        assert np.array_equal(got, int8_row_sum_counts(fam, thetas, ds))
    # every model right everywhere, and wrong everywhere
    ones = np.ones(m, dtype=np.int64)
    for y in (ones, -ones):
        both = Dataset(ds.x, y)
        assert np.array_equal(correct_counts(fam, thetas, both), int8_row_sum_counts(fam, thetas, both))


@pytest.mark.parametrize(
    "fam",
    [ModelFamily("threshold1d", 1), ModelFamily("perceptron", 1), ModelFamily("perceptron", 2)],
    ids=["threshold1d", "perceptron1", "perceptron2"],
)
def test_correct_counts_memory_bound(fam, peak_bytes):
    # the (E, M) int8 table, the (E,) int64 counts and one float64 block of
    # predictions; an E-sized float64 temporary (2 MiB here) breaks it.
    # predict_many's scratch, 2**18 float64 values, fits in the same bound
    e, m = 1 << 18, 16
    block = model._COUNT_CHUNK * 8
    assert 8 * model._BLOCK_VALUES <= 8 * e + block
    rng = np.random.default_rng(11)
    thetas = rng.normal(size=(e, fam.parameter_count))
    ds = Dataset(rng.normal(size=(m, fam.input_dim)), rng.choice([-1, 1], size=m))
    assert peak_bytes(correct_counts, fam, thetas, ds) <= e * m + 8 * e + block + (128 << 10)


@pytest.mark.parametrize("below, dtype", [(0, np.float32), (1, np.float64)], ids=["float32", "float64"])
@pytest.mark.parametrize("m", [1, 24, 3001])
def test_correct_counts_in_both_reduction_types(below, dtype, m, monkeypatch):
    # float32 while M is at most the limit, float64 above it; every partial
    # sum is an integer of magnitude at most M, exact in either type
    monkeypatch.setattr(model, "_FLOAT32_EXACT", m - below)
    seen = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: seen.append(a.dtype) or matmul(a, b, **kw))
    fam = ModelFamily("perceptron", 1)
    rng = np.random.default_rng(m)
    ds = Dataset(rng.normal(size=(m, 1)), rng.choice([-1, 1], size=m))
    thetas = rng.normal(size=(2 * (model._COUNT_CHUNK // m) + 3, 2))
    for y in (ds.y, np.ones(m, dtype=np.int64), -np.ones(m, dtype=np.int64)):
        both = Dataset(ds.x, y)
        want = np.count_nonzero(predict_many(fam, thetas, both.x) == both.y, axis=1)
        assert np.array_equal(correct_counts(fam, thetas, both), want)
    assert seen and set(seen) == {np.dtype(dtype)}
