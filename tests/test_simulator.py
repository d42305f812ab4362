"""Statevector engine: register layout, weighting rotation, postselection,
conditional label flips, measurement, amplitude amplification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def rotation_inputs(family, grid, ds):
    """(counts, M): the grid models' correct counts and the training set
    size, as the sequential rotation takes them."""
    return grid_correct_counts(family, grid, ds), len(ds)


def two_model_state(amp0=math.sqrt(0.84), amp1=math.sqrt(0.16)):
    """One parameter qubit; model 0 votes +1, model 1 votes -1."""
    layout = RegisterLayout(1)
    state = prepare_uniform(layout)
    v = state.view()
    v[:] = 0
    v[0, 1, 0] = amp0
    v[1, 0, 0] = amp1
    return state


# --- layout -----------------------------------------------------------------

def test_layout_total_qubits():
    layout = RegisterLayout(4, count_bits=3)
    assert layout.total_qubits == 4 + 2 + 3
    assert layout.model_count == 16


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

def test_statevector_has_no_count_register():
    # only Grover's layout has a count register, and Grover holds two values
    assert prepare_uniform(RegisterLayout(4)).view().shape == (16, 2, 2)
    layout = RegisterLayout(4, count_bits=3)
    for build in (EnsembleState, prepare_uniform):
        with pytest.raises(ValueError, match="no count register"):
            build(layout)


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
    # the cos and sin values and one transient for one chunk of models at a
    # time, at E = 4 chunks: no (E,) angle array and no state-sized temporary
    layout = RegisterLayout(18)
    state = prepare_uniform(layout)
    acc = np.linspace(0.0, 1.0, layout.model_count)
    assert peak_bytes(apply_accuracy_rotation_exact, state, acc) <= 3 * CHUNK + SLACK
    assert np.allclose(state.accuracy_zero_probabilities(), acc, atol=1e-12)


def test_exact_rotation_by_chunks_has_the_bits_of_one_pass():
    # 4 chunks of models; each amplitude is one product, whatever the chunk
    layout = RegisterLayout(18)
    acc = np.linspace(0.0, 1.0, layout.model_count)
    state = apply_accuracy_rotation_exact(prepare_uniform(layout), acc)
    amp = prepare_uniform(layout).view()[:, 0, 0]
    assert state.view()[:, 0, 0].tobytes() == (amp * np.sqrt(acc)).tobytes()
    assert state.view()[:, 0, 1].tobytes() == (amp * np.sqrt(1.0 - acc)).tobytes()


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


# beside the state an operation holds O(E) values only where its input or
# result is per model, and otherwise a few chunks of squares or temporaries,
# plus numpy's iterator buffers (64 KiB each) and a few Python objects; the
# cases keep the names of the count-register layouts the state once held
# and run them without the count register: an 8 MiB state behind 2^18
# models, and a 512 KiB one behind 2^14 models, fewer than one chunk
CHUNK = 8 * simulator._NORM_CHUNK
SLACK = 128 << 10
MEMORY_LAYOUTS = pytest.mark.parametrize("param_bits, count_bits", [(18, 0), (14, 4)])


def rotated_state(param_bits):
    layout = RegisterLayout(param_bits)
    state = prepare_uniform(layout)
    apply_accuracy_rotation_exact(state, np.linspace(0.0, 1.0, layout.model_count))
    return state


def test_accuracy_zero_probabilities_memory_bound(peak_bytes):
    # per-model sums over one chunk of model rows at a time, never a
    # squared branch of the state
    state = rotated_state(18)
    e = state.layout.model_count
    assert peak_bytes(state.accuracy_zero_probabilities) <= 32 * e + (64 << 10)
    assert np.allclose(state.accuracy_zero_probabilities(), np.linspace(0.0, 1.0, e), atol=1e-12)


def test_accuracy_zero_probabilities_memory_bound_with_count_register(peak_bytes):
    # a count register is Grover's alone: a statevector for 2^14 models and
    # 16 count values, 8 MiB, is refused before any of it is allocated
    def build():
        with pytest.raises(ValueError, match="no count register"):
            EnsembleState(RegisterLayout(14, 4))

    assert peak_bytes(build) <= 4 << 10


@MEMORY_LAYOUTS
def test_accuracy_zero_probabilities_of_slices_are_those_of_all(param_bits, count_bits):
    # each model's sums are its own, so any slice has the bits of the whole
    state = rotated_state(param_bits)
    whole = state.accuracy_zero_probabilities()
    chunks = simulator.model_chunks(state.layout.model_count)
    parts = [state.accuracy_zero_probabilities(models) for models in chunks]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert state.accuracy_zero_probabilities(slice(5, 9)).tobytes() == whole[5:9].tobytes()


@MEMORY_LAYOUTS
def test_parameter_distribution_memory_bound(param_bits, count_bits, peak_bytes):
    state = rotated_state(param_bits)
    e = state.layout.model_count
    assert peak_bytes(state.parameter_distribution) <= 8 * e + CHUNK + SLACK


@MEMORY_LAYOUTS
def test_postselection_memory_bound(param_bits, count_bits, peak_bytes):
    # no squared accuracy-|0> branch, and the renormalization is in place
    state = rotated_state(param_bits)
    assert peak_bytes(postselect_accuracy_zero, state) <= CHUNK + SLACK


@MEMORY_LAYOUTS
def test_measurement_memory_bound(param_bits, count_bits, peak_bytes):
    # no squared copy of the state for either sum
    state = rotated_state(param_bits)
    postselect_accuracy_zero(state)
    assert peak_bytes(measure_label_distribution, state) <= CHUNK + SLACK


@MEMORY_LAYOUTS
def test_classifier_memory_bound(param_bits, count_bits, peak_bytes):
    # the (E,) flip mask and a gather of at most one chunk of model rows
    state = rotated_state(param_bits)
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
    apply_accuracy_rotation_sequential(state, *rotation_inputs(fam, grid, ds), delta)
    counts = grid_correct_counts(fam, grid, ds)
    want = np.cos(math.pi / 4 - (2 * counts - m) * delta) ** 2
    assert np.allclose(state.accuracy_zero_probabilities(), want, atol=1e-12)


def test_sequential_rotation_exact_at_extreme_and_half_counts():
    # dataset with both labels -1: every grid model gets exactly one right
    fam, grid, ds = seq_fixture([-1, -1])
    counts = grid_correct_counts(fam, grid, ds)
    assert set(counts.tolist()) == {1}
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_sequential(state, *rotation_inputs(fam, grid, ds), math.pi / 8)
    assert np.allclose(state.accuracy_zero_probabilities(), 0.5, atol=1e-15)

    # mixed labels: counts 0 and 2 map to probabilities 0 and 1 at max delta
    fam, grid, ds = seq_fixture([-1, 1])
    counts = grid_correct_counts(fam, grid, ds)
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_sequential(state, *rotation_inputs(fam, grid, ds), math.pi / 8)
    assert np.allclose(state.accuracy_zero_probabilities(), counts / 2.0, atol=1e-12)


@pytest.mark.parametrize("param_bits, count_bits", [(16, 0), (18, 0), (14, 4)])
def test_sequential_rotation_memory_bound(param_bits, count_bits, peak_bytes):
    # the M + 1 angles and their values, then the gathered cos and sin of
    # one chunk of models at a time (or of all E models, if fewer), or one
    # chunk of squares for the clear check: nothing that grows with E past
    # a chunk, or with the training points; as in the memory cases above,
    # 14-4 runs its 2^14 models without the count register
    layout = RegisterLayout(param_bits)
    state = prepare_uniform(layout)
    m = 24
    counts = np.random.default_rng(3).integers(0, m + 1, layout.model_count)
    delta = math.pi / (4 * m)
    bound = 16 * min(layout.model_count, simulator._NORM_CHUNK) + CHUNK + SLACK
    assert peak_bytes(apply_accuracy_rotation_sequential, state, counts, m, delta) <= bound


def test_sequential_delta_validation():
    fam, grid, ds = seq_fixture([-1, 1])
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    with pytest.raises(ValueError):
        apply_accuracy_rotation_sequential(state, *rotation_inputs(fam, grid, ds), 0.0)
    with pytest.raises(ValueError):
        apply_accuracy_rotation_sequential(state, *rotation_inputs(fam, grid, ds), math.pi / 4)


def test_sequential_layout_mismatch():
    fam, grid, ds = seq_fixture([-1, 1])
    state = prepare_uniform(RegisterLayout(4))
    with pytest.raises(ValueError):
        apply_accuracy_rotation_sequential(state, *rotation_inputs(fam, grid, ds), math.pi / 8)


def test_sequential_counts_must_be_one_per_model_within_0_to_m():
    fam, grid, ds = seq_fixture([-1, 1])
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    counts, m = rotation_inputs(fam, grid, ds)
    for bad in (counts[:1], np.append(counts, 1), counts[None, :]):
        with pytest.raises(ValueError, match="one correct count per parameter basis state"):
            apply_accuracy_rotation_sequential(state, bad, m, math.pi / 8)
    for model, value in ((1, -1), (0, m + 1)):
        bad = counts.copy()
        bad[model] = value
        with pytest.raises(ValueError, match="counts outside 0..dataset_size"):
            apply_accuracy_rotation_sequential(state, bad, m, math.pi / 8)
    assert not state.view()[:, :, 1].any()  # refused before any amplitude moved


def test_sequential_counts_must_be_whole_numbers():
    fam, grid, ds = seq_fixture([-1, 1])
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    counts, m = rotation_inputs(fam, grid, ds)
    for value in (0.5, np.nan):
        bad = counts.astype(np.float64)
        bad[0] = value
        with pytest.raises(ValueError, match="whole numbers"):
            apply_accuracy_rotation_sequential(state, bad, m, math.pi / 8)
    assert not state.view()[:, :, 1].any()
    apply_accuracy_rotation_sequential(state, counts.astype(np.float64), m, math.pi / 8)
    want = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_sequential(want, counts, m, math.pi / 8)
    assert np.array_equal(state.amplitudes, want.amplitudes)


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


def test_grover_zero_marked_rejected(peak_bytes):
    counts = np.zeros(8, dtype=int)
    with pytest.raises(ValueError):
        grover_amplify_counts(counts, 2)

    # refused before any amplitude is evolved, within 1/32 of the 32 MiB a
    # dense state would take here.  A run that goes on holds two values and
    # the marked mask, so it allocates no statevector either
    e, m = 1 << 16, 14
    counts = np.full(e, m // 2, dtype=np.int64)
    state_bytes = 8 << RegisterLayout(16, count_bits_for(m)).total_qubits

    def refused():
        with pytest.raises(ValueError, match="better than chance"):
            grover_amplify_counts(counts, m)

    assert peak_bytes(refused) <= state_bytes // 32


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


@pytest.mark.parametrize("bad", [[2.9, 0.2, 1.5, 0.0], [2.0, np.nan, 1.0, 0.0], [2.0, 0.0, 0.5, 0.0]])
def test_grover_refuses_fractional_counts(bad):
    # 2.9 would otherwise be truncated to a count of 2 and marked
    with pytest.raises(ValueError, match="whole numbers"):
        grover_amplify_counts(np.array(bad), 2)


def test_grover_takes_whole_float_counts():
    want = grover_amplify_counts(np.array([2, 0, 1, 0]), 2)[1]
    assert grover_amplify_counts(np.array([2.0, 0.0, 1.0, 0.0]), 2)[1] == want
    with pytest.raises(ValueError, match="counts outside"):
        grover_amplify_counts(np.array([np.inf, 0.0, 0.0, 0.0]), 2)


@pytest.mark.parametrize("counts", [[2, 0, 1, 2], [2.0, 0.0, 1.0, 2.0]])
def test_grover_support_is_read_only(counts):
    # two values stand for every amplitude, so nothing may change the mask
    # or the counts under them; int64 counts are kept as passed, so the
    # caller's array is read-only too, and the expanded amplitudes are a
    # read-only copy
    counts = np.array(counts)
    state, _ = grover_amplify_counts(counts, 2)
    for a in (state.counts, state.marked, state.amplitudes):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    with pytest.raises(AttributeError):
        state.marked_amplitude = 0.0
    assert counts.flags.writeable == (counts.dtype != np.int64)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_grover_result_has_what_the_benchmark_tracer_reads():
    # bench/tracer.py observes Grover's result as a state: it reads
    # layout.total_qubits and amplitudes.nbytes, one float64 per model
    e, m = 1 << 12, 14
    counts = np.random.default_rng(5).integers(0, m + 1, e)
    state, _ = grover_amplify_counts(counts, m)
    assert state.layout.total_qubits == 12 + 2 + count_bits_for(m)
    assert state.amplitudes.nbytes == 8 * e
    assert set(state.amplitudes[state.marked]) == {state.marked_amplitude}


def dense_grover(counts, m, iterations):
    """Reference amplitude amplification on a complex statevector with the
    prepared state psi0 stored in full: (amplitudes, marked probability,
    norm).  The overlap <psi0|amps>, the marked mass and the norm's square
    are each summed exactly and rounded once (math.fsum), over the float
    products and squares that numpy forms."""
    e, w = counts.size, 1 << count_bits_for(m)
    amps = np.zeros(4 * e * w, dtype=np.complex128)
    view = amps.reshape(e, 2, 2, w)
    view[np.arange(e), 0, 0, counts] = 1.0 / math.sqrt(e)
    psi0 = amps.copy()
    support = psi0 != 0.0
    marked = 2 * np.arange(w) > m
    for _ in range(iterations):
        view[:, :, :, marked] *= -1.0
        overlap = math.fsum(psi0[support].real * amps[support].real)
        amps[:] = 2.0 * overlap * psi0 - amps
    squares = np.abs(amps) ** 2
    marked_mass = math.fsum(squares.reshape(view.shape)[:, :, :, marked].ravel())
    return amps, marked_mass, math.sqrt(math.fsum(squares))


@pytest.mark.parametrize("param_bits", range(3, 14))
def test_grover_matches_dense_reference(param_bits, scatter):
    # bit for bit at every width; the last case takes the default count on
    # five marked models, up to 31 iterations at 2^13 models
    rng = np.random.default_rng(param_bits)
    cases = []
    for m in (5, 7, 14, 20):
        counts = rng.integers(0, m + 1, size=1 << param_bits)
        counts[0] = m
        cases += [(counts, m, iterations) for iterations in (0, 1, 2, 3, 5)]
    few = rng.integers(0, 8, size=1 << param_bits)
    few[rng.choice(few.size, 5, replace=False)] = 14
    cases.append((few, 14, None))
    for counts, m, iterations in cases:
        state, report = grover_amplify_counts(counts, m, iterations)
        want_amps, want_p, want_norm = dense_grover(counts, m, report.iterations)
        assert not np.any(want_amps.imag)
        assert np.array_equal(scatter(state).ravel(), want_amps.real)
        assert report.marked_probability == want_p
        assert state.norm() == want_norm


def test_grover_sums_round_once():
    # K fl(x) rounded, then added in float, differs here from the exact sum
    # rounded once, so an overlap or readout evaluated in float cannot pass
    k, v, w = 65, float.fromhex("0x1.0530d08f17f5cp-2"), float.fromhex("0x1.fb5355e16737ap-2")
    want = math.fsum([v] * k + [w] * (1000 - k))
    assert k * v + (1000 - k) * w != want
    assert simulator._exact_sum((k, v), (1000 - k, w)) == want


@settings(max_examples=60, deadline=None)
@given(
    param_bits=st.integers(0, 10),
    m=st.integers(1, 31),
    iterations=st.integers(0, 31),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_run_keeps_one_marked_and_one_unmarked_value(param_bits, m, iterations, seed):
    # a plain float64 run on the whole statevector, its overlap numpy's
    # pairwise dot over all 2^n values: after every step the marked
    # amplitudes are bitwise equal, and so are the unmarked ones, which is
    # why Grover may hold the state as two values
    e, w = 1 << param_bits, 1 << count_bits_for(m)
    counts = np.random.default_rng(seed).integers(0, m + 1, e)
    amps = np.zeros(4 * e * w)
    view = amps.reshape(e, 2, 2, w)
    view[np.arange(e), 0, 0, counts] = 1.0 / math.sqrt(e)
    psi0 = amps.copy()
    marked = 2 * counts > m
    for _ in range(iterations):
        view[:, :, :, m // 2 + 1 :] *= -1.0
        overlap = float(np.sum(psi0 * amps))
        amps[:] = 2.0 * overlap * psi0 - amps
        support = view[np.arange(e), 0, 0, counts]
        for part in (support[marked], support[~marked]):
            assert np.unique(part.view(np.int64)).size <= 1
        assert np.count_nonzero(amps) <= e


@pytest.mark.parametrize("qubits", range(1, 23))
def test_norm_is_numpy_sum_bit_for_bit(qubits):
    # chunk sums paired as numpy's pairwise sum pairs its halves; a state
    # of one qubit has no register layout, only the length matters here
    state = EnsembleState.__new__(EnsembleState)
    state.amplitudes = np.random.default_rng(qubits).normal(size=1 << qubits)
    assert state.norm() == float(np.sqrt(np.sum(np.square(state.amplitudes))))


def test_norm_memory_bound(peak_bytes):
    # one squared chunk, never a squared copy of the 128 MiB state
    state = prepare_uniform(RegisterLayout(22))
    assert peak_bytes(state.norm) <= 8 * simulator._NORM_CHUNK + (64 << 10)


def test_grover_memory_bound(peak_bytes):
    # the run makes the (E,) bool mask beside the caller's int64 counts and
    # no E-sized float or int64 array; the norm makes nothing of size E
    e, m = 1 << 18, 14
    counts = np.zeros(e, dtype=np.int64)
    counts[: e // 64] = m  # K = E/64: six iterations
    assert peak_bytes(grover_amplify_counts, counts, m) <= 2 * e + (64 << 10)
    state, _ = grover_amplify_counts(counts, m)
    assert peak_bytes(state.norm) <= 4 << 10


def test_grover_reads_no_statevector(monkeypatch):
    # both readouts are sums of two values: no sum of squares is taken
    # over a statevector, in the run or in its norm
    calls = []
    sum_squares = simulator._sum_squares
    monkeypatch.setattr(simulator, "_sum_squares", lambda rows: calls.append(rows.size) or sum_squares(rows))
    e, m = 1 << 12, 14
    counts = np.random.default_rng(3).integers(0, m + 1, e)
    state, report = grover_amplify_counts(counts, m)
    assert report.marked_count > 0 and report.iterations > 0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert calls == []
    prepare_uniform(RegisterLayout(12)).norm()  # the counter does see a statevector pass
    assert calls
