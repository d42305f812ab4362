"""Statevector readouts against the numpy expressions they replaced, bit for bit.

The references below square the whole state, or a strided part of it, into
a temporary and let numpy sum that; the simulator sums the same squares one
chunk at a time in numpy's order.  Results are compared as struct bytes,
so a signed zero or a last-bit difference counts.  The layouts cover
parameter bits 0-16, the count registers of M in {1, 2, 7, 14, 24, 31}
(M = 24 marks 19 count values, not a power of two) and states longer than
one chunk on every path, so that the chunk recursion runs."""

import math
import struct

import numpy as np
import pytest

from qens import simulator
from qens.simulator import (
    EnsembleState,
    RegisterLayout,
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
    return np.square(state.view()).sum(axis=(1, 2, 3))


def ref_accuracy_zero_probabilities(state):
    view = state.view()
    zero_branch = np.square(view[:, :, 0, :]).sum(axis=(1, 2))
    per_model = zero_branch + np.square(view[:, :, 1, :]).sum(axis=(1, 2))
    out = np.full(state.layout.model_count, np.nan)
    return np.divide(zero_branch, per_model, out=out, where=per_model > 0.0)


def ref_accuracy_mass(state, value):
    return float(np.sum(np.square(state.view()[:, :, value, :])))


def ref_output_mass(state):
    return float(np.sum(np.square(state.view()[:, 1, :, :])))


def ref_measure(state):
    probs = np.square(state.view())
    total = float(probs.sum())
    p_minus = float(probs[:, 0, :, :].sum()) / total
    return p_minus, 1.0 - p_minus


def ref_marked_probability(state, m):
    gathered = state.view()[:, :, :, 2 * np.arange(state.layout.count_values) > m]
    np.square(gathered, out=gathered)
    return float(np.sum(gathered))


def ref_postselect(state):
    view = state.view()
    p_acc = float(np.sum(np.square(view[:, :, 0, :])))
    view[:, :, 1, :] = 0.0
    view[:, :, 0, :] *= 1.0 / math.sqrt(p_acc)
    return p_acc


def ref_classifier(state, labels):
    flip = labels == 1
    view = state.view()
    view[flip, 1, :, :] = view[flip, 0, :, :]
    view[flip, 0, :, :] = 0.0


def ref_rotation_exact(state, accuracies):
    view = state.view()
    c = np.sqrt(accuracies)[:, None, None]
    s = np.sqrt(1.0 - accuracies)[:, None, None]
    np.multiply(view[:, :, 0, :], s, out=view[:, :, 1, :])
    view[:, :, 0, :] *= c


def ref_sequential(state, correct, delta):
    view = state.view()
    a0, a1 = view[:, :, 0, :], view[:, :, 1, :]
    inv = 1.0 / math.sqrt(2.0)
    new0 = a0 + a1
    new0 *= inv
    np.subtract(a0, a1, out=a1)
    a1 *= inv
    a0[...] = new0
    for point in range(correct.shape[1]):
        phi = np.where(correct[:, point], -delta, delta)
        c = np.cos(phi)[:, None, None]
        s = np.sin(phi)[:, None, None]
        new0 = c * a0
        new0 -= s * a1
        a1 *= c
        a1 += s * a0
        a0[...] = new0


# --- helpers and cases -------------------------------------------------------------


def bits(v) -> bytes:
    if isinstance(v, np.ndarray):
        return v.tobytes()
    return struct.pack("<d", v)


M_VALUES = (1, 2, 7, 14, 24, 31)
# every parameter width 0-16 with no count register and with the count
# register of each M; up to 20 qubits, plus wide registers whose single
# model run is longer than numpy's 8192-value reduction block
LAYOUTS = sorted(
    {(p, 0) for p in range(17)}
    | {(p, count_bits_for(m)) for p in range(17) for m in M_VALUES if p + 2 + count_bits_for(m) <= 20}
    | {(1, 15), (2, 13), (3, 12)}
)


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


@pytest.fixture(params=LAYOUTS, ids=lambda pc: f"p{pc[0]}-c{pc[1]}")
def layout(request):
    return RegisterLayout(*request.param)


def test_layouts_reach_past_one_chunk():
    sizes = [1 << RegisterLayout(*pc).total_qubits for pc in LAYOUTS]
    assert max(sizes) > 4 * simulator._NORM_CHUNK
    assert {count_bits_for(m) for m in M_VALUES} <= {c for _, c in LAYOUTS}
    assert {p for p, _ in LAYOUTS} == set(range(17))


# --- readouts --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 8, 129, 1000, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5, 19 << 14, 1 << 20])
def test_pairwise_splits_as_numpy(n, monkeypatch):
    x = np.random.default_rng(n).random(n) * 10.0 ** np.random.default_rng(n + 1).uniform(-6, 6, n)
    want = float(np.sum(x))
    for chunk in (128, 1000, simulator._NORM_CHUNK):
        monkeypatch.setattr(simulator, "_NORM_CHUNK", chunk)
        got = simulator._pairwise(n, lambda s, k: float(np.sum(x[s : s + k])))
        assert bits(got) == bits(want)


def test_readouts_match_numpy(layout):
    for seed, zero in ((1, ()), (2, zero_models(layout))):
        state = random_state(layout, seed, zero)
        before = state.amplitudes.copy()
        assert bits(state.norm()) == bits(ref_norm(state))
        assert bits(state.parameter_distribution()) == bits(ref_parameter_distribution(state))
        assert bits(state.accuracy_zero_probabilities()) == bits(ref_accuracy_zero_probabilities(state))
        got = measure_label_distribution(state)
        want = ref_measure(state)
        assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])
        assert np.array_equal(state.amplitudes, before)


def test_branch_masses_match_numpy(layout):
    # the 2-D views that the postselection and the two register checks sum
    c = layout.count_values
    state = random_state(layout, 3, zero_models(layout))
    a = state.amplitudes
    for value in (0, 1):
        got = simulator._sum_squares(a.reshape(-1, 2, c)[:, value, :])
        assert bits(got) == bits(ref_accuracy_mass(state, value))
    assert bits(simulator._sum_squares(a.reshape(-1, 2, 2 * c)[:, 1, :])) == bits(ref_output_mass(state))


def test_marked_mass_matches_gather(layout):
    state = random_state(layout, 4, zero_models(layout))
    c = layout.count_values
    # M values whose count register this is: its ends, the M list, one more
    ms = {c // 2, c // 2 + 1, 3 * c // 4 + 1, c - 1} | {m for m in M_VALUES if count_bits_for(m) == layout.count_bits}
    for m in sorted(v for v in ms if c // 2 <= v < c):
        got = simulator._sum_squares(state.amplitudes.reshape(-1, c)[:, m // 2 + 1 :].T)
        assert bits(got) == bits(ref_marked_probability(state_with(layout, state.amplitudes), m))


def test_zero_mass_branches():
    # all amplitude on output +1 and accuracy |1>: the other halves sum to +0.0
    layout = RegisterLayout(15, 1)
    state = random_state(layout, 5)
    view = state.view()
    view[:, 0] = 0.0
    state.amplitudes /= ref_norm(state)
    assert bits(measure_label_distribution(state)[0]) == bits(ref_measure(state)[0]) == bits(0.0)
    view[:, :, 0] = 0.0
    state.amplitudes /= ref_norm(state)
    p0 = state.accuracy_zero_probabilities()
    assert bits(p0) == bits(ref_accuracy_zero_probabilities(state))
    assert bits(simulator._sum_squares(state.amplitudes.reshape(-1, 2, 2)[:, 0, :])) == bits(0.0)
    with pytest.raises(simulator.PostselectionImpossibleError):
        postselect_accuracy_zero(state)


@pytest.mark.parametrize("param_bits", range(17))
def test_grover_marked_probability_matches_gather(param_bits):
    for m in M_VALUES:
        if param_bits + 2 + count_bits_for(m) > 22:
            continue
        rng = np.random.default_rng(param_bits * 100 + m)
        counts = rng.integers(0, m + 1, size=1 << param_bits)
        counts[0] = m
        for iterations in (None, 0, 1):
            state, report = grover_amplify_counts(counts, m, iterations)
            want = ref_marked_probability(state, m)
            assert bits(report.marked_probability) == bits(want)


# --- operations that rewrite the state ---------------------------------------------------


def test_postselection_matches_numpy(layout):
    state = random_state(layout, 6, zero_models(layout))
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


def test_classifier_matches_gather(layout):
    state = random_state(layout, 7, zero_models(layout))
    faint(state.view()[:, 1], 11)
    labels = np.where(np.random.default_rng(8).random(layout.model_count) < 0.5, -1, 1)
    want = state_with(layout, state.amplitudes)
    ref_classifier(want, labels)
    apply_classifier(state, labels)
    assert bits(state.amplitudes) == bits(want.amplitudes)


@pytest.mark.parametrize("param_bits, count_bits, m", [(0, 0, 1), (3, 2, 5), (10, 5, 7), (15, 0, 3), (16, 0, 2), (11, 4, 4), (17, 0, 3)])
def test_sequential_rotation_matches_numpy(param_bits, count_bits, m):
    # the reference evaluates cos and sin at every (model, point) pair; the
    # rotation evaluates them once at delta and flips the sine's sign
    layout = RegisterLayout(param_bits, count_bits)
    rng = np.random.default_rng(10)
    predictions = np.where(rng.random((layout.model_count, m)) < 0.5, -1, 1).astype(np.int8)
    labels = np.where(rng.random(m) < 0.5, -1, 1)
    for delta in (math.pi / (4 * m), 0.01):
        state = random_state(layout, 9, zero_models(layout))
        state.view()[:, :, 1] = 0.0
        want = state_with(layout, state.amplitudes)
        ref_sequential(want, predictions == labels, delta)
        apply_accuracy_rotation_sequential(state, predictions, labels, delta)
        assert bits(state.amplitudes) == bits(want.amplitudes)


def test_exact_rotation_matches_numpy(layout):
    state = random_state(layout, 12, zero_models(layout))
    faint(state.view()[:, :, 1], 13)
    rng = np.random.default_rng(14)
    accuracies = rng.random(layout.model_count)
    accuracies[::5] = rng.choice([0.0, 1.0, 0.5], size=accuracies[::5].shape)
    want = state_with(layout, state.amplitudes)
    ref_rotation_exact(want, accuracies)
    apply_accuracy_rotation_exact(state, accuracies)
    assert bits(state.amplitudes) == bits(want.amplitudes)
