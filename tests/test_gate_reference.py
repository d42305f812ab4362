"""The exact and sequential routes against gate-by-gate circuits on a dense
vector.

The reference builds every gate of the exact route as a full matrix over
the parameter, output and accuracy qubits, most significant first, so a
basis index is (i * 2 + output) * 2 + accuracy: the layout the simulator's
module docstring states, with no count register.  It shares nothing with
the simulator's state views: Hadamards on the parameter qubits, one
controlled Ry per model that leaves sqrt(a) on accuracy |0>, the projector
onto accuracy |0> and a renormalisation, the classifier as the permutation
that flips the output qubit where the model says +1, and the output
marginal as p-, p+.  The sequential route is a Hadamard on the accuracy
qubit, then per training point that oracle on the point, Ry(-2 delta) on
the accuracy qubit where the output qubit holds the point's label, Ry(2
delta) where it does not, and the oracle again to uncompute; the simulator
applies it as one net rotation per model from the correct counts, so this
circuit is what checks that shortcut.

Amplitude amplification adds the count register below the accuracy qubit.
Its reference loads each model's correct count by X gates on the count
qubits, conditioned on the parameter basis state; the oracle flips the
phase of every count value v with 2v > M; the diffusion is the loading
circuit undone, the reflection 2|0><0| - I, and the loading circuit again."""

import math

import numpy as np
import pytest

from qens.datagen import gaussian_1d_pair
from qens.model import ModelFamily, ParameterGrid, decode_all, grid_accuracies, predict_many
from qens.simulator import (
    RegisterLayout,
    apply_accuracy_rotation_exact,
    apply_accuracy_rotation_sequential,
    apply_classifier,
    count_bits_for,
    grover_amplify_counts,
    measure_label_distribution,
    postselect_accuracy_zero,
    prepare_uniform,
)

I2 = np.eye(2)
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
ZERO = np.array([[1.0, 0.0], [0.0, 0.0]])  # |0><0|
ONE = np.array([[0.0, 0.0], [0.0, 1.0]])  # |1><1|


def ry(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def kron(*factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def on_model(i, e, gate):
    """gate on the (output, accuracy) pair where the parameter register is
    |i>, identity elsewhere."""
    select = np.zeros((e, e))
    select[i, i] = 1.0
    return kron(select, gate) + kron(np.eye(e) - select, np.eye(4))


def oracle(plus):
    """|i>|o>|a> -> |i>|o xor [plus[i]]>|a>, a basis permutation."""
    select = np.diag(plus.astype(np.float64))
    return kron(select, X, I2) + kron(np.eye(len(plus)) - select, I2, I2)


def uniform(p):
    psi = np.zeros(4 << p)
    psi[0] = 1.0
    return kron(*[H] * p, I2, I2) @ psi


def gate_route(p, accuracies, labels):
    """(p-, p+, acceptance, per-model distribution) of the exact route,
    one dense gate at a time."""
    e = 1 << p
    psi = uniform(p)
    for i, a in enumerate(accuracies):
        # Ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>, cos(theta/2) = sqrt(a)
        psi = on_model(i, e, kron(I2, ry(2.0 * math.acos(math.sqrt(a))))) @ psi
    psi = kron(np.eye(e), I2, ZERO) @ psi
    p_acc = float(psi @ psi)
    psi /= math.sqrt(p_acc)
    psi = oracle(labels == 1) @ psi
    probs = np.square(psi).reshape(e, 2, 2)  # (model, output, accuracy)
    return probs[:, 0].sum(), probs[:, 1].sum(), p_acc, probs.sum(axis=(1, 2))


def simulator_route(family, grid, dataset, query):
    acc = grid_accuracies(family, grid, dataset)
    labels = predict_many(family, decode_all(grid), np.array([[query]]))[:, 0]
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_exact(state, acc)
    state, post = postselect_accuracy_zero(state)
    apply_classifier(state, labels)
    p_minus, p_plus = measure_label_distribution(state)
    return (p_minus, p_plus, post.acceptance_probability, state.parameter_distribution()), acc, labels


CASES = {
    # 6 and 4 parameter qubits
    "perceptron": (ModelFamily("perceptron", 1), ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 3)),
    "threshold1d": (ModelFamily("threshold1d", 1), ParameterGrid(((-1.0, 1.0), (-2.0, 2.0)), 2)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("query", [-1.3, -0.2, 0.0, 0.45, 1.7])
def test_exact_route_matches_gates(case, query):
    family, grid = CASES[case]
    assert grid.total_bits <= 6
    dataset = gaussian_1d_pair(-1.0, 0.8, 1.0, 0.8, 6, seed=4)
    got, acc, labels = simulator_route(family, grid, dataset, query)
    assert 0 < np.count_nonzero(labels == 1) < grid.size  # both outputs carry mass
    want = gate_route(grid.total_bits, acc, labels)
    for g, w in zip(got[:3], want[:3]):
        assert abs(g - w) <= 1e-13
    assert np.max(np.abs(got[3] - want[3])) <= 1e-13


def gate_sequential(p, predictions, y, delta):
    """Per-model P(accuracy = 0) after the sequential rotation, one dense
    gate at a time; the output qubit must end back at |0>."""
    e = 1 << p
    psi = kron(np.eye(e), I2, H) @ uniform(p)
    for column, label in zip(predictions.T, y):
        # output |1> says +1, so the output equals the label on |1> for +1
        right, wrong = (ONE, ZERO) if label == 1 else (ZERO, ONE)
        rotate = kron(np.eye(e), right, ry(-2.0 * delta)) + kron(np.eye(e), wrong, ry(2.0 * delta))
        compute = oracle(column == 1)
        psi = compute @ (rotate @ (compute @ psi))
    amps = psi.reshape(e, 2, 2)  # (model, output, accuracy)
    assert not np.any(amps[:, 1])  # uncomputed: no amplitude left on output |1>
    probs = np.square(amps[:, 0])
    return probs[:, 0] / probs.sum(axis=1)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scale", [1.0, 0.3], ids=["delta-max", "delta-smaller"])
def test_sequential_rotation_matches_gates(case, scale):
    family, grid = CASES[case]
    dataset = gaussian_1d_pair(-1.0, 0.8, 1.0, 0.8, 6, seed=4)
    delta = scale * math.pi / (4.0 * len(dataset))
    predictions = predict_many(family, decode_all(grid), dataset.x)
    correct = np.count_nonzero(predictions == dataset.y[None, :], axis=1)
    assert 0 < correct.min() < correct.max() < len(dataset)  # right and wrong both rotate
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_sequential(state, correct, len(dataset), delta)
    want = gate_sequential(grid.total_bits, predictions, dataset.y, delta)
    assert np.max(np.abs(state.accuracy_zero_probabilities() - want)) <= 1e-13


def load_counts(counts, c):
    """|i>|o>|a>|v> -> |i>|o>|a>|v xor counts[i]>: an X on each count qubit
    whose bit of counts[i] is set, conditioned on the parameter register."""
    e = len(counts)
    out = np.zeros((4 * e << c, 4 * e << c))
    for i, k in enumerate(counts.tolist()):
        select = np.zeros((e, e))
        select[i, i] = 1.0
        flips = [X if k >> (c - 1 - q) & 1 else I2 for q in range(c)]
        out += kron(select, I2, I2, *flips)
    return out


def gate_grover(p, counts, m, iterations):
    """(amplitudes, marked probability) after the loading circuit and
    `iterations` rounds of oracle then diffusion, one dense gate at a time."""
    c = count_bits_for(m)
    w = 1 << c
    e = 1 << p
    load = load_counts(counts, c) @ kron(*[H] * p, I2, I2, np.eye(w))
    oracle = kron(np.eye(4 * e), np.diag([-1.0 if 2 * v > m else 1.0 for v in range(w)]))
    reflect = -np.eye(4 * e * w)
    reflect[0, 0] = 1.0  # 2|0><0| - I
    diffusion = load @ reflect @ load.T
    psi = load[:, 0].copy()  # the loading circuit on |0>
    for _ in range(iterations):
        psi = diffusion @ (oracle @ psi)
    marked = 2 * (np.arange(psi.size) % w) > m
    return psi, float(np.sum(np.square(psi[marked])))


@pytest.mark.parametrize("m", [3, 6, 7])
@pytest.mark.parametrize("iterations", [None, 3], ids=["default", "three"])
def test_grover_matches_gates(m, iterations, scatter):
    # 4 parameter qubits and 2 or 3 count qubits: at most 9 qubits.  Two
    # marked models, and for M = 6 the tie count 3, which is not marked.
    p = 4
    counts = np.random.default_rng(m).integers(0, m // 2 + 1, 1 << p)
    counts[[0, 1, 2, 5]] = [0, m, m // 2, m // 2 + 1]
    assert np.count_nonzero(2 * counts > m) == 2
    rounds = math.floor(math.pi / 4.0 * math.sqrt((1 << p) / 2)) if iterations is None else iterations
    state, rep = grover_amplify_counts(counts, m, iterations)
    assert rep.iterations == rounds
    psi, want = gate_grover(p, counts, m, rounds)
    assert abs(rep.marked_probability - want) <= 1e-13
    assert np.max(np.abs(scatter(state).ravel() - psi)) <= 1e-13
