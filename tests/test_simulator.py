"""Statevector engine: register layout, weighting rotation, postselection,
conditional label flips, measurement, amplitude amplification."""

import math

import numpy as np
import pytest

from qens import simulator
from qens.model import (
    Dataset,
    ModelFamily,
    ParameterGrid,
    decode_all,
    grid_accuracies,
    grid_correct_counts,
    predict_many,
)
from qens.simulator import (
    EnsembleState,
    GroverReport,
    PostselectionImpossibleError,
    QubitCapError,
    RegisterLayout,
    StateError,
    apply_accuracy_rotation_exact,
    apply_accuracy_rotation_sequential,
    apply_classifier,
    count_bits_for,
    expectation_sigma_z,
    grover_amplify_counts,
    measure_label_distribution,
    postselect_accuracy_zero,
    prepare_uniform,
    sample_measurements,
)
from qens.weighting import WeightScheme, ensemble_decide


def query_labels(family, grid, x):
    """Prediction of every grid model at query x, shape (E,)."""
    return predict_many(family, decode_all(grid), x[None, :])[:, 0]


def correct_flags(family, grid, ds):
    """(E, M) matrix of the grid models' correct classifications."""
    return predict_many(family, decode_all(grid), ds.x) == ds.y[None, :]


def two_model_state(amp0=math.sqrt(0.84), amp1=math.sqrt(0.16)):
    """One parameter qubit; model 0 votes +1, model 1 votes -1."""
    layout = RegisterLayout(1)
    state = prepare_uniform(layout)
    v = state.view()
    v[:] = 0
    v[0, 1, 0, 0] = amp0
    v[1, 0, 0, 0] = amp1
    return state


# --- layout -----------------------------------------------------------------

def test_layout_total_qubits():
    layout = RegisterLayout(4, count_bits=3)
    assert layout.total_qubits == 4 + 2 + 3
    assert layout.model_count == 16
    assert layout.count_values == 8


def test_layout_qubit_cap():
    RegisterLayout(24)  # 26 qubits exactly
    with pytest.raises(QubitCapError):
        RegisterLayout(25)
    with pytest.raises(QubitCapError):
        RegisterLayout(20, count_bits=5)


def test_count_bits_for():
    assert count_bits_for(1) == 1
    assert count_bits_for(2) == 2
    assert count_bits_for(3) == 2
    assert count_bits_for(4) == 3
    assert count_bits_for(8) == 4


# --- preparation and rotation --------------------------------------------------

def test_state_is_real():
    layout = RegisterLayout(1)
    assert prepare_uniform(layout).amplitudes.dtype == np.float64
    state = EnsembleState(layout)
    assert state.amplitudes.dtype == np.float64
    assert state.amplitudes.tolist() == [0.0] * 8


def test_prepare_uniform_distribution():
    layout = RegisterLayout(3)
    state = prepare_uniform(layout)
    assert state.norm() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(state.parameter_distribution(), 1 / 8, atol=1e-15)


def test_exact_rotation_sets_zero_branch_probabilities():
    layout = RegisterLayout(2)
    state = prepare_uniform(layout)
    acc = np.array([1.0, 0.25, 0.5, 0.0])
    apply_accuracy_rotation_exact(state, acc)
    assert np.allclose(state.accuracy_zero_probabilities(), acc, atol=1e-15)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_exact_rotation_writes_in_place(peak_bytes):
    # cos and sin columns plus one transient: no E x 2 complex temporary
    layout = RegisterLayout(16)
    state = prepare_uniform(layout)
    acc = np.linspace(0.0, 1.0, layout.model_count)
    assert peak_bytes(apply_accuracy_rotation_exact, state, acc) <= 32 * layout.model_count
    assert np.allclose(state.accuracy_zero_probabilities(), acc, atol=1e-12)


def test_exact_rotation_validates_input():
    state = prepare_uniform(RegisterLayout(2))
    with pytest.raises(ValueError):
        apply_accuracy_rotation_exact(state, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        apply_accuracy_rotation_exact(state, np.array([0.5, 0.5, 0.5, 1.5]))


def test_rotation_requires_clear_accuracy_register():
    state = prepare_uniform(RegisterLayout(2))
    acc = np.full(4, 0.5)
    apply_accuracy_rotation_exact(state, acc)
    with pytest.raises(StateError):
        apply_accuracy_rotation_exact(state, acc)


# --- postselection --------------------------------------------------------------

def test_postselection_probability_and_renormalization():
    layout = RegisterLayout(2)
    state = prepare_uniform(layout)
    acc = np.array([0.9, 0.6, 0.3, 0.2])
    apply_accuracy_rotation_exact(state, acc)
    state, report = postselect_accuracy_zero(state)
    assert report.acceptance_probability == pytest.approx(float(np.mean(acc)), abs=1e-15)
    assert report.expected_repetitions == pytest.approx(2.0, abs=1e-12)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(state.parameter_distribution(), acc / acc.sum(), atol=1e-15)


def test_postselection_impossible_when_all_models_wrong():
    state = prepare_uniform(RegisterLayout(1))
    apply_accuracy_rotation_exact(state, np.array([0.0, 0.0]))
    with pytest.raises(PostselectionImpossibleError):
        postselect_accuracy_zero(state)


# --- classifier flips and measurement ---------------------------------------------

def test_classifier_moves_plus_models_to_output_one(region_dataset, sym_grid_1d):
    fam = ModelFamily("perceptron", 1)
    acc = grid_accuracies(fam, sym_grid_1d, region_dataset)
    layout = RegisterLayout(sym_grid_1d.total_bits)
    state = prepare_uniform(layout)
    apply_accuracy_rotation_exact(state, acc)
    state, _ = postselect_accuracy_zero(state)
    apply_classifier(state, query_labels(fam, sym_grid_1d, np.array([2.0])))
    p_minus, p_plus = measure_label_distribution(state)
    dec = ensemble_decide(fam, sym_grid_1d, region_dataset, WeightScheme.ACCURACY, np.array([2.0]))
    assert p_plus == pytest.approx(dec.p_plus, abs=1e-12)
    assert p_minus == pytest.approx(dec.p_minus, abs=1e-12)


def test_classifier_requires_clear_output(region_dataset, sym_grid_1d):
    fam = ModelFamily("perceptron", 1)
    state = prepare_uniform(RegisterLayout(sym_grid_1d.total_bits))
    labels = query_labels(fam, sym_grid_1d, np.array([2.0]))
    apply_classifier(state, labels)
    with pytest.raises(StateError):
        apply_classifier(state, labels)


def test_classifier_layout_mismatch(sym_grid_1d):
    state = prepare_uniform(RegisterLayout(4))
    with pytest.raises(ValueError):
        apply_classifier(state, query_labels(ModelFamily("perceptron", 1), sym_grid_1d, np.array([2.0])))


def test_measurement_of_two_model_state():
    state = two_model_state()
    p_minus, p_plus = measure_label_distribution(state)
    assert p_plus == pytest.approx(0.84, abs=1e-15)
    assert p_minus == pytest.approx(0.16, abs=1e-15)
    assert expectation_sigma_z(state) == pytest.approx(0.16 - 0.84, abs=1e-15)


def test_measurement_rejects_unnormalized_state():
    state = two_model_state(1.0, 1.0)
    with pytest.raises(StateError):
        measure_label_distribution(state)


def p_plus_of(state):
    return measure_label_distribution(state)[1]


def test_sampling_frozen_counts():
    state = two_model_state(math.sqrt(0.5), math.sqrt(0.5))
    counts = sample_measurements(p_plus_of(state), 1_000_000, seed=7)
    assert counts == {-1: 500586, 1: 499414}


def test_sampling_reproducible_and_plausible():
    p_plus = p_plus_of(two_model_state())
    a = sample_measurements(p_plus, 40000, seed=9)
    b = sample_measurements(p_plus, 40000, seed=9)
    assert a == b
    assert abs(a[1] / 40000 - 0.84) < 0.01
    assert sample_measurements(p_plus, 40000, seed=10) != a


def test_sampling_validates_shots():
    with pytest.raises(ValueError):
        sample_measurements(0.84, 0, seed=1)


# --- state inspection ----------------------------------------------------------

def test_accuracy_zero_probabilities_nan_for_unpopulated():
    state = two_model_state(1.0, 0.0)  # model 1 carries no amplitude
    p0 = state.accuracy_zero_probabilities()
    assert p0[0] == 1.0
    assert math.isnan(p0[1])


# beside the state an operation holds O(E) values and one chunk of squares
# or temporaries, plus numpy's iterator buffers (64 KiB each) and a few
# Python objects; the two layouts put 8 MiB states behind 2^18 models and
# behind 2^14 models with a 4-qubit count register
CHUNK = 8 * simulator._NORM_CHUNK
SLACK = 128 << 10
MEMORY_LAYOUTS = pytest.mark.parametrize("param_bits, count_bits", [(18, 0), (14, 4)])


def rotated_state(param_bits, count_bits):
    layout = RegisterLayout(param_bits, count_bits)
    state = prepare_uniform(layout)
    apply_accuracy_rotation_exact(state, np.linspace(0.0, 1.0, layout.model_count))
    return state


def test_accuracy_zero_probabilities_memory_bound(peak_bytes):
    # per-model sums over one chunk of model rows at a time, never a
    # squared branch of the state
    state = rotated_state(18, 0)
    e = state.layout.model_count
    assert peak_bytes(state.accuracy_zero_probabilities) <= 32 * e + (64 << 10)
    assert np.allclose(state.accuracy_zero_probabilities(), np.linspace(0.0, 1.0, e), atol=1e-12)


def test_accuracy_zero_probabilities_memory_bound_with_count_register(peak_bytes):
    # 16 count values per model: a squared branch would be 32 values per model
    state = rotated_state(14, 4)
    e = state.layout.model_count
    assert peak_bytes(state.accuracy_zero_probabilities) <= 32 * e + CHUNK + SLACK


@MEMORY_LAYOUTS
def test_parameter_distribution_memory_bound(param_bits, count_bits, peak_bytes):
    state = rotated_state(param_bits, count_bits)
    e = state.layout.model_count
    assert peak_bytes(state.parameter_distribution) <= 8 * e + CHUNK + SLACK


@MEMORY_LAYOUTS
def test_postselection_memory_bound(param_bits, count_bits, peak_bytes):
    # no squared accuracy-|0> branch, and the renormalization is in place
    state = rotated_state(param_bits, count_bits)
    assert peak_bytes(postselect_accuracy_zero, state) <= CHUNK + SLACK


@MEMORY_LAYOUTS
def test_measurement_memory_bound(param_bits, count_bits, peak_bytes):
    # no squared copy of the state for either sum
    state = rotated_state(param_bits, count_bits)
    postselect_accuracy_zero(state)
    assert peak_bytes(measure_label_distribution, state) <= CHUNK + SLACK


@MEMORY_LAYOUTS
def test_classifier_memory_bound(param_bits, count_bits, peak_bytes):
    # the (E,) flip mask and a gather of at most one chunk of model rows
    state = rotated_state(param_bits, count_bits)
    e = state.layout.model_count
    labels = np.where(np.arange(e) % 3 == 0, 1, -1)
    assert peak_bytes(apply_classifier, state, labels) <= e + CHUNK + SLACK


# --- sequential rotation ----------------------------------------------------------

def seq_fixture(labels):
    fam = ModelFamily("threshold1d", 1)
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 1)
    ds = Dataset(np.array([[-2.0], [2.0]]), np.asarray(labels))
    return fam, grid, ds


def test_sequential_rotation_matches_cosine_formula():
    fam, grid, ds = seq_fixture([-1, 1])
    m = len(ds)
    delta = math.pi / (4 * m)
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_sequential(state, correct_flags(fam, grid, ds), delta)
    counts = grid_correct_counts(fam, grid, ds)
    want = np.cos(math.pi / 4 - (2 * counts - m) * delta) ** 2
    assert np.allclose(state.accuracy_zero_probabilities(), want, atol=1e-12)


def test_sequential_rotation_exact_at_extreme_and_half_counts():
    # dataset with both labels -1: every grid model gets exactly one right
    fam, grid, ds = seq_fixture([-1, -1])
    counts = grid_correct_counts(fam, grid, ds)
    assert set(counts.tolist()) == {1}
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_sequential(state, correct_flags(fam, grid, ds), math.pi / 8)
    assert np.allclose(state.accuracy_zero_probabilities(), 0.5, atol=1e-15)

    # mixed labels: counts 0 and 2 map to probabilities 0 and 1 at max delta
    fam, grid, ds = seq_fixture([-1, 1])
    counts = grid_correct_counts(fam, grid, ds)
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_sequential(state, correct_flags(fam, grid, ds), math.pi / 8)
    assert np.allclose(state.accuracy_zero_probabilities(), counts / 2.0, atol=1e-12)


@pytest.mark.parametrize("param_bits, count_bits", [(16, 0), (14, 4)])
def test_sequential_rotation_memory_bound(param_bits, count_bits, peak_bytes):
    # one chunk of model rows at a time through every point: two
    # half-chunk temporaries and the rows' angle columns, no state-sized term
    layout = RegisterLayout(param_bits, count_bits)
    state = prepare_uniform(layout)
    e, m = layout.model_count, 24
    correct = np.random.default_rng(3).random((e, m)) < 0.6
    bound = 48 * e
    assert peak_bytes(apply_accuracy_rotation_sequential, state, correct, math.pi / (4 * m)) <= bound


def test_sequential_delta_validation():
    fam, grid, ds = seq_fixture([-1, 1])
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    with pytest.raises(ValueError):
        apply_accuracy_rotation_sequential(state, correct_flags(fam, grid, ds), 0.0)
    with pytest.raises(ValueError):
        apply_accuracy_rotation_sequential(state, correct_flags(fam, grid, ds), math.pi / 4)


def test_sequential_layout_mismatch():
    fam, grid, ds = seq_fixture([-1, 1])
    state = prepare_uniform(RegisterLayout(4))
    with pytest.raises(ValueError):
        apply_accuracy_rotation_sequential(state, correct_flags(fam, grid, ds), math.pi / 8)


# --- amplitude amplification --------------------------------------------------------

def test_grover_quarter_fraction_reaches_certainty():
    fam = ModelFamily("perceptron", 1)
    grid = ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 2)
    ds = Dataset(np.array([[-2.0], [0.5]]), np.array([-1, 1]))
    state, report = grover_amplify_counts(grid_correct_counts(fam, grid, ds), len(ds))
    assert report.model_count == 16
    assert report.marked_count == 4
    assert report.iterations == 1
    assert report.iteration_scale == pytest.approx(2.0)
    assert report.marked_probability == pytest.approx(1.0, abs=1e-12)
    assert report.closed_form_probability == pytest.approx(1.0, abs=1e-12)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_grover_closed_form_various_fractions():
    for e, k in ((4, 1), (4, 2), (16, 1), (16, 4), (16, 8), (256, 64)):
        counts = np.zeros(e, dtype=int)
        counts[:k] = 2  # better than chance on a 2-point set
        state, report = grover_amplify_counts(counts, 2)
        assert report.marked_count == k
        want = math.sin((2 * report.iterations + 1) * math.asin(math.sqrt(k / e))) ** 2
        assert report.marked_probability == pytest.approx(want, abs=1e-10)


def test_grover_all_marked_needs_no_iterations():
    counts = np.full(8, 2, dtype=int)
    state, report = grover_amplify_counts(counts, 2)
    assert report.iterations == 0
    assert report.marked_probability == pytest.approx(1.0, abs=1e-12)


def test_grover_zero_marked_rejected():
    counts = np.zeros(8, dtype=int)
    with pytest.raises(ValueError):
        grover_amplify_counts(counts, 2)


def test_grover_tie_counts_are_not_marked():
    # two points classified half right: 2c = M, strictly-better test fails
    counts = np.array([1, 1, 1, 2])
    state, report = grover_amplify_counts(counts, 2)
    assert report.marked_count == 1


def test_grover_explicit_iterations_override():
    counts = np.array([2, 0, 0, 0])
    state, report = grover_amplify_counts(counts, 2, iterations=0)
    assert report.iterations == 0
    assert report.marked_probability == pytest.approx(0.25, abs=1e-12)


def test_grover_requires_power_of_two_models():
    with pytest.raises(ValueError):
        grover_amplify_counts(np.array([2, 0, 0]), 2)


def test_grover_count_range_validated():
    with pytest.raises(ValueError):
        grover_amplify_counts(np.array([3, 0, 0, 0]), 2)


def dense_grover(counts, m, iterations):
    """Reference amplitude amplification on a complex statevector with the
    prepared state psi0 stored in full: (amplitudes, marked probability)."""
    e = counts.size
    layout = RegisterLayout(int(np.log2(e)), count_bits_for(m))
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    view = amps.reshape(e, 2, 2, layout.count_values)
    view[np.arange(e), 0, 0, counts] = 1.0 / math.sqrt(e)
    psi0 = amps.copy()
    marked = 2 * np.arange(layout.count_values) > m
    for _ in range(iterations):
        view[:, :, :, marked] *= -1.0
        overlap = np.vdot(psi0, amps)
        amps[:] = 2.0 * overlap * psi0 - amps
    return amps, float(np.sum(np.abs(view[:, :, :, marked]) ** 2))


@pytest.mark.parametrize("param_bits", range(3, 14))
def test_grover_matches_dense_reference(param_bits):
    # with E = 4^k the amplitude 1/sqrt(E) is a power of two and every step
    # stays exact at these sizes, so even widths agree bit for bit; odd
    # widths round in the overlap sum, whose order differs from the dense
    # dot product's
    rng = np.random.default_rng(param_bits)
    for m in (5, 7, 14, 20):
        counts = rng.integers(0, m + 1, size=1 << param_bits)
        counts[0] = m
        for iterations in (0, 1, 2, 3, 5):
            want_amps, want_p = dense_grover(counts, m, iterations)
            state, report = grover_amplify_counts(counts, m, iterations)
            assert not np.any(want_amps.imag)
            if param_bits % 2 == 0:
                assert np.array_equal(state.amplitudes, want_amps.real)
                assert report.marked_probability == want_p
            else:
                assert np.allclose(state.amplitudes, want_amps.real, rtol=0.0, atol=1e-12)
                assert report.marked_probability == pytest.approx(want_p, abs=1e-12)


@pytest.mark.parametrize("qubits", range(1, 23))
def test_norm_is_numpy_sum_bit_for_bit(qubits):
    # chunk sums paired as numpy's pairwise sum pairs its halves; a state
    # of one qubit has no register layout, only the length matters here
    state = EnsembleState.__new__(EnsembleState)
    state.amplitudes = np.random.default_rng(qubits).normal(size=1 << qubits)
    assert state.norm() == float(np.sqrt(np.sum(np.square(state.amplitudes))))


def test_norm_memory_bound(peak_bytes):
    # one squared chunk, never a squared copy of the 32 MiB state
    state = prepare_uniform(RegisterLayout(20, 2))
    assert peak_bytes(state.norm) <= 8 * simulator._NORM_CHUNK + (64 << 10)


def test_grover_memory_bound(peak_bytes):
    # the returned state plus (E,) support vectors and one chunk of marked
    # squares, never a gather of the marked values (half the state at M = 14)
    e, m = 1 << 16, 14
    counts = np.zeros(e, dtype=np.int64)
    counts[: e // 64] = m  # K = E/64: six iterations
    state_bytes = 8 << RegisterLayout(16, count_bits_for(m)).total_qubits
    assert peak_bytes(grover_amplify_counts, counts, m) <= state_bytes + 64 * e + CHUNK
