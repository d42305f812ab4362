"""Statevector readouts against the numpy expressions they replaced, bit for bit.

The references below square the whole (E, 2, 2) state, or a strided part
of it, into a temporary and let numpy sum that; the simulator sums the same
squares one chunk at a time in numpy's order.  Grover holds two values, and
its sums are exact sums rounded once, so its references are math.fsum over
the dense (E, 2, 2, count values) array that its support stands for, built
in plain numpy.  Results are compared as struct bytes, so a signed zero or
a last-bit difference counts.  The layouts cover parameter bits 0-18, so
that states run longer than one chunk on every path and the label
readout's output-|0> mass spans many of numpy's 8192-value blocks.  The
cases keep the names of the count-register layouts (p, c) that the state
once held: case p-c is that layout without its count register, p
parameter bits, drawn from seeds of its own."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qens import simulator
from qens.simulator import (
    EnsembleState,
    RegisterLayout,
    SupportState,
    apply_accuracy_rotation_exact,
    apply_accuracy_rotation_sequential,
    apply_classifier,
    count_bits_for,
    grover_amplify_counts,
    measure_label_distribution,
    postselect_accuracy_zero,
)

# --- the references -------------------------------------------------------------


def ref_norm(state):
    return float(np.sqrt(np.sum(np.square(state.amplitudes))))


def ref_parameter_distribution(state):
    return np.square(state.view()).sum(axis=(1, 2))


def ref_accuracy_zero_probabilities(state):
    view = state.view()
    zero_branch = np.square(view[:, :, 0]).sum(axis=1)
    per_model = zero_branch + np.square(view[:, :, 1]).sum(axis=1)
    out = np.full(state.layout.model_count, np.nan)
    return np.divide(zero_branch, per_model, out=out, where=per_model > 0.0)


def ref_measure(state):
    probs = np.square(state.view())
    total = float(probs.sum())
    p_minus = float(probs[:, 0, :].sum()) / total
    return p_minus, 1.0 - p_minus


def ref_postselect(state):
    view = state.view()
    p_acc = float(np.sum(np.square(view[:, :, 0])))
    view[:, :, 1] = 0.0
    view[:, :, 0] *= 1.0 / math.sqrt(p_acc)
    return p_acc


def ref_classifier(state, labels):
    flip = labels == 1
    view = state.view()
    view[flip, 1, :] = view[flip, 0, :]
    view[flip, 0, :] = 0.0


def ref_rotation_exact(state, accuracies):
    view = state.view()
    c = np.sqrt(accuracies)[:, None]
    s = np.sqrt(1.0 - accuracies)[:, None]
    np.multiply(view[:, :, 0], s, out=view[:, :, 1])
    view[:, :, 0] *= c


def ref_sequential(state, counts, m, delta):
    """The net rotation, its angle and cos and sin taken per model."""
    t = math.pi / 4.0 - (2.0 * counts - m) * delta
    view = state.view()
    np.multiply(view[:, :, 0], np.sin(t)[:, None], out=view[:, :, 1])
    view[:, :, 0] *= np.cos(t)[:, None]


# --- helpers and cases -------------------------------------------------------------


def bits(v) -> bytes:
    if isinstance(v, np.ndarray):
        return v.tobytes()
    return struct.pack("<d", v)


# Grover's dataset sizes: M = 24 marks 19 count values, not a power of two
M_VALUES = (1, 2, 7, 14, 24, 31)
# every parameter width 0-18, up to 20 qubits: a label readout summed in
# blocks of 4096 values, half numpy's, first differs from numpy at width 14;
# and the count register of each M beside widths 0-16, up to 20 qubits,
# plus count registers longer than numpy's 8192-value reduction block
LAYOUTS = sorted(
    {(p, 0) for p in range(19)}
    | {(p, count_bits_for(m)) for p in range(17) for m in M_VALUES if p + 2 + count_bits_for(m) <= 20}
    | {(1, 15), (2, 13), (3, 12)}
)
LAYOUT_IDS = [f"p{p}-c{c}" for p, c in LAYOUTS]


def state_with(layout, amps):
    """A fresh state holding a copy of the amplitudes amps."""
    state = EnsembleState(layout)
    state.amplitudes[...] = amps
    return state


def random_state(layout, seed, zero=()):
    """Random normalized real amplitudes whose magnitudes span eight
    decades in runs of 64, so that summation order shows in the last bits;
    the models listed in `zero` carry no amplitude."""
    rng = np.random.default_rng(seed)
    n = 1 << layout.total_qubits
    amps = rng.normal(size=n) * np.repeat(10.0 ** rng.uniform(-4, 4, -(-n // 64)), 64)[:n]
    state = state_with(layout, amps)
    state.view()[list(zero)] = 0.0
    state.amplitudes /= ref_norm(state)
    return state


def zero_models(layout):
    """Some models to empty, never all of them."""
    e = layout.model_count
    return sorted({0, e // 3, e - 1}) if e > 2 else list(range(1, e))


@pytest.fixture(params=LAYOUTS, ids=LAYOUT_IDS)
def case(request):
    """(layout, salt): layout (p, c) without its count register, and 100 c
    to add to each seed, so that the cases of one width differ."""
    p, c = request.param
    return RegisterLayout(p), 100 * c


def test_layouts_reach_past_one_chunk():
    sizes = [4 << p for p, c in LAYOUTS if c == 0]
    assert max(sizes) > 4 * simulator._NORM_CHUNK
    assert max(sizes) > 64 * simulator._REDUCE_BLOCK
    assert {count_bits_for(m) for m in M_VALUES} <= {c for _, c in LAYOUTS}
    assert {p for p, _ in LAYOUTS} == set(range(19))


# --- readouts --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 8, 129, 1000, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5, 19 << 14, 1 << 20])
def test_pairwise_splits_as_numpy(n, monkeypatch):
    x = np.random.default_rng(n).random(n) * 10.0 ** np.random.default_rng(n + 1).uniform(-6, 6, n)
    want = float(np.sum(x))
    for chunk in (128, 1000, simulator._NORM_CHUNK):
        monkeypatch.setattr(simulator, "_NORM_CHUNK", chunk)
        got = simulator._pairwise(n, lambda s, k: float(np.sum(x[s : s + k])))
        assert bits(got) == bits(want)


def test_readouts_match_numpy(case):
    layout, salt = case
    for seed, zero in ((salt + 1, ()), (salt + 2, zero_models(layout))):
        state = random_state(layout, seed, zero)
        before = state.amplitudes.copy()
        assert bits(state.norm()) == bits(ref_norm(state))
        assert bits(state.parameter_distribution()) == bits(ref_parameter_distribution(state))
        assert bits(state.accuracy_zero_probabilities()) == bits(ref_accuracy_zero_probabilities(state))
        got = measure_label_distribution(state)
        want = ref_measure(state)
        assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])
        assert np.array_equal(state.amplitudes, before)


def test_branch_masses_match_numpy(case, monkeypatch):
    # the views of 1 and 2 columns that the norm, the postselection and the
    # two register checks sum, and the branches of a model range that is no
    # power of two long, with chunks of 128, 1000 and the default: every
    # leaf of the chunk recursion must hold whole rows
    layout, salt = case
    state = random_state(layout, salt + 3, zero_models(layout))
    a, view = state.amplitudes, state.view()
    part = view[: layout.model_count - layout.model_count // 3]
    cases = [a.reshape(-1, 1), a.reshape(-1, 2), a.reshape(-1, 2, 2)[:, 1], view[:, 1], part[:, 1]]
    for value in (0, 1):
        cases += [a.reshape(-1, 2, 1)[:, value], view[:, :, value], part[:, :, value]]
    for chunk in (128, 1000, simulator._NORM_CHUNK):
        monkeypatch.setattr(simulator, "_NORM_CHUNK", chunk)
        for rows in cases:
            assert bits(simulator._sum_squares(rows)) == bits(float(np.sum(np.square(rows))))


def test_zero_mass_branches():
    # all amplitude on output +1 and accuracy |1>: the other halves sum to +0.0
    layout = RegisterLayout(16)
    state = random_state(layout, 5)
    view = state.view()
    view[:, 0] = 0.0
    state.amplitudes /= ref_norm(state)
    assert bits(measure_label_distribution(state)[0]) == bits(ref_measure(state)[0]) == bits(0.0)
    view[:, :, 0] = 0.0
    state.amplitudes /= ref_norm(state)
    p0 = state.accuracy_zero_probabilities()
    assert bits(p0) == bits(ref_accuracy_zero_probabilities(state))
    assert bits(simulator._sum_squares(state.amplitudes.reshape(-1, 2, 2)[:, 0])) == bits(0.0)
    with pytest.raises(simulator.PostselectionImpossibleError):
        postselect_accuracy_zero(state)


def fsum_squares(values):
    """The exactly rounded sum of the squares of values (zeros add nothing)."""
    squares = np.square(values).ravel()
    return math.fsum(squares[squares != 0.0])


@pytest.mark.parametrize("param_bits", range(17))
def test_grover_marked_probability_matches_gather(param_bits, scatter):
    # Grover's readouts are exact sums rounded once: those of the dense
    # state's gathered marked squares and of all its squares; M = 13, 29
    # and 33 mark 9, 17 and 47 count values, no power of two
    for m in M_VALUES + (13, 29, 33):
        if param_bits + 2 + count_bits_for(m) > 22:
            continue
        rng = np.random.default_rng(param_bits * 100 + m)
        counts = rng.integers(0, m + 1, size=1 << param_bits)
        counts[0] = m
        for iterations in (None, 0, 1):
            state, report = grover_amplify_counts(counts, m, iterations)
            dense = scatter(state)
            assert bits(report.marked_probability) == bits(fsum_squares(dense[..., m // 2 + 1 :]))
            assert bits(state.norm()) == bits(math.sqrt(fsum_squares(dense)))


@pytest.mark.parametrize("p, c", LAYOUTS, ids=LAYOUT_IDS)
def test_marked_mass_matches_gather(p, c, scatter):
    # Grover on 2^p models for the M values whose count register is c
    # qubits (its ends, the M list, one more), each marked mass against the
    # dense array's gathered marked squares; with no count register M is 0,
    # and no model is better than chance
    if c == 0:
        with pytest.raises(ValueError, match="better than chance"):
            grover_amplify_counts(np.zeros(1 << p, dtype=np.int64), 0)
        return
    lo, hi = 1 << (c - 1), 1 << c
    ms = {lo, lo + 1, 3 * hi // 4 + 1, hi - 1} | {m for m in M_VALUES if count_bits_for(m) == c}
    for m in sorted(v for v in ms if lo <= v < hi):
        rng = np.random.default_rng(p * 100 + m)
        counts = rng.integers(0, m + 1, 1 << p)
        counts[0] = m
        for iterations in (None, 1):
            state, report = grover_amplify_counts(counts, m, iterations)
            assert state.layout == RegisterLayout(p, c)
            assert bits(report.marked_probability) == bits(fsum_squares(scatter(state)[..., m // 2 + 1 :]))


@pytest.mark.parametrize("param_bits", range(17))
def test_support_norm_matches_dense_norm(param_bits, scatter):
    # any two values, also far from a normalized state, on any marked set
    for m in M_VALUES:
        layout = RegisterLayout(param_bits, count_bits_for(m))
        rng = np.random.default_rng(param_bits * 100 + m)
        counts = rng.integers(0, m + 1, layout.model_count)
        x_m, x_u = rng.normal(size=2) * 10.0 ** rng.uniform(-150, 150, 2)
        support = SupportState(layout, counts, 2 * counts > m, float(x_m), float(x_u))
        assert bits(support.norm()) == bits(math.sqrt(fsum_squares(scatter(support))))


# --- sums taken from the nonzero values alone ----------------------------------------------


def check_sparse_sum(n, k, j, seed, wide):
    """The sum of v k times, w j times and n - k - j zeros from its two
    terms alone against math.fsum; v, w span 2**+-1000 if wide."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(-1000, 1001, 2) if wide else rng.integers(0, 10, 2)
    v, w = (rng.choice([-1.0, 1.0], 2) * np.ldexp(rng.random(2) + 0.5, exponents)).tolist()
    dense = np.zeros(n)
    dense[:k], dense[k : k + j] = v, w
    assert bits(simulator._exact_sum((k, v), (j, w))) == bits(math.fsum(dense))


SPARSE_LENGTHS = [1, 2, 7, 8, 9, 15, 100, 127, 128, 129, 136, 200, 255, 1000, 1001, 4097, 65541]
SPARSE_LENGTHS += [47 << 4, 47 << 10, 19 << 12, 1 << 16, 3 << 17, 1 << 20]


@pytest.mark.parametrize("n", SPARSE_LENGTHS)
def test_sparse_sum_matches_dense_sum(n):
    for seed, (k, j) in enumerate([(0, 0), (1, 0), (0, 1), (n, 0), (n // 3, n - n // 3), (n // 7, n // 2)]):
        for wide in (False, True):
            check_sparse_sum(n, k, j, seed, wide)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 1 << 20), data=st.data(), seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_sparse_sum_matches_dense_sum_on_draws(n, data, seed, wide):
    k = data.draw(st.integers(0, n))
    check_sparse_sum(n, k, data.draw(st.integers(0, n - k)), seed, wide)


def test_sparse_sum_memory_bound(peak_bytes):
    # 2**26 values from two terms: integers of a few words, never the vector
    n = 1 << 26
    assert peak_bytes(simulator._exact_sum, (n // 3, 2.0**-1000), (n - n // 3, 0.1)) <= 4 << 10


# --- operations that rewrite the state ---------------------------------------------------


def test_postselection_matches_numpy(case):
    layout, salt = case
    state = random_state(layout, salt + 6, zero_models(layout))
    want = state_with(layout, state.amplitudes)
    p_acc = ref_postselect(want)
    _, report = postselect_accuracy_zero(state)
    assert bits(report.acceptance_probability) == bits(p_acc)
    assert bits(state.amplitudes) == bits(want.amplitudes)


def faint(target, seed):
    """Set the branch `target`, a view of a state where one qubit is |1>, to
    amplitudes of +-1e-9 / sqrt(size) on a third of its models and zeros
    elsewhere: mass under the 1e-12 that the clear-qubit check tolerates,
    so the operation still runs, over nonzero values."""
    rng = np.random.default_rng(seed)
    target[...] = 0.0
    target[::3] = rng.choice([-1e-9, 1e-9], size=target[::3].shape) / math.sqrt(target.size)


def test_classifier_matches_gather(case):
    layout, salt = case
    state = random_state(layout, salt + 7, zero_models(layout))
    faint(state.view()[:, 1], salt + 11)
    labels = np.where(np.random.default_rng(salt + 8).random(layout.model_count) < 0.5, -1, 1)
    want = state_with(layout, state.amplitudes)
    ref_classifier(want, labels)
    apply_classifier(state, labels)
    assert bits(state.amplitudes) == bits(want.amplitudes)


@pytest.mark.parametrize("param_bits, count_bits, m", [(0, 0, 1), (3, 2, 5), (10, 5, 7), (15, 0, 3), (16, 0, 2), (11, 4, 4), (17, 0, 3)])
def test_sequential_rotation_matches_numpy(param_bits, count_bits, m):
    # the reference evaluates the angle, cos and sin for every model; the
    # rotation evaluates them once per count 0..M and gathers them; a case
    # named with a count register runs without it, as the layout cases do
    layout = RegisterLayout(param_bits)
    salt = 100 * count_bits
    counts = np.random.default_rng(salt + 10).integers(0, m + 1, layout.model_count)
    for delta in (math.pi / (4 * m), 0.01):
        state = random_state(layout, salt + 9, zero_models(layout))
        state.view()[:, :, 1] = 0.0
        want = state_with(layout, state.amplitudes)
        ref_sequential(want, counts, m, delta)
        apply_accuracy_rotation_sequential(state, counts, m, delta)
        assert bits(state.amplitudes) == bits(want.amplitudes)


def test_exact_rotation_matches_numpy(case):
    layout, salt = case
    state = random_state(layout, salt + 12, zero_models(layout))
    faint(state.view()[:, :, 1], salt + 13)
    rng = np.random.default_rng(salt + 14)
    accuracies = rng.random(layout.model_count)
    accuracies[::5] = rng.choice([0.0, 1.0, 0.5], size=accuracies[::5].shape)
    want = state_with(layout, state.amplitudes)
    ref_rotation_exact(want, accuracies)
    apply_accuracy_rotation_exact(state, accuracies)
    assert bits(state.amplitudes) == bits(want.amplitudes)
