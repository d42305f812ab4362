"""Dense statevector simulation of weighted classifier superpositions.

The register holds, most significant first:

  parameter   tau*P qubits, basis state i <-> grid model decode_theta(i)
  output      1 qubit, |0> <-> label -1, |1> <-> label +1
  accuracy    1 qubit, postselected on |0>
  count       ceil(log2(M+1)) qubits, only for the amplitude
              amplification path; holds the correct-classification count

so a basis index is ((i_param * 2 + output) * 2 + accuracy) * 2**c + count.
The data register that a hardware run would carry is deliberately not
simulated: classifier outputs enter as classical basis-state-conditional
bit flips, which leaves the statevector at 2**(tau*P + 2 + c) amplitudes
and a 26-qubit cap instead of being dominated by training data.

Every operation of the circuit is real (Ry rotations, bit flips, phase
flips and reflections about a real state), so the amplitudes are float64:
the state takes 8 * 2**n bytes, 512 MiB at the 26-qubit cap.

The weighting routine brings the accuracy qubit, conditioned on the
parameter basis state, to sqrt(a)|0> + sqrt(1-a)|1>, either exactly or
through the sequential per-training-point rotation approximation whose
conditional probability is cos^2(pi/4 - (2c - M) * delta).  Its gates
are the two fixed Ry(-2 delta) and Ry(2 delta), so cos delta and sin
delta are evaluated once, and per chunk of models each point's
right/wrong flags pick the sign of the sine.  Postselection is analytic:
the rejected branch is projected out and the survivor is renormalized,
and the report carries the acceptance probability and expected number of
repetitions 1/p_acc rather than simulating retries.

Operations mutate the passed state in place and return it.

Memory: beside the statevector an operation holds O(E) values (angles,
labels, per-model sums) and at most one chunk of _NORM_CHUNK = 2**16
float64 values (512 KiB) of squares or temporaries.  Grover evolves only
its E support amplitudes and writes the statevector once.  The elementwise steps
work in place along the model axis, so numpy's inner loops run over E
models rather than over the 2 values of one model: the exact rotation one
output value at a time, the classifier as masked copies of each model's
run of 2 * 2**c amplitudes, taken as one raw-byte element, and the
postselection on views that already merge into one long axis.  Only the
sequential rotation, which needs two temporaries and a flag per model
row, runs over model rows one chunk at a time.  Every readout has the
bits of np.sum over a squared copy of (part of) the state, because it
adds the chunks in the order numpy 2.4 uses (tests/test_state_sums.py
holds those numpy expressions as references):

  contiguous operand  one pairwise sum over its whole length, which numpy
                      splits at n/2 - (n/2 mod 8) down to blocks of 128;
                      _pairwise splits the same way down to chunks and
                      lets np.sum do the rest (the square of a strided
                      view is such an operand, in C order): the norm, the
                      branch masses and the label readout's total
  strided operand     buffered blocks of max(8192, contiguous run) values
                      (runs here are powers of two), each one pairwise
                      sum, added one after another: the label readout's
                      output-|0> mass, over an already squared state
  per-model sums      each model's row is summed alone, so any number of
                      rows at a time gives the same sums
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import prng

DEFAULT_QUBIT_CAP = 26
_ATOL = 1e-12
_NORM_CHUNK = 1 << 16  # float64 values an operation holds beside the state
_REDUCE_BLOCK = 8192  # numpy's default buffer: its block for a strided sum
_ACCURACY_NOT_CLEAR = "accuracy qubit is not |0>; rotation already applied?"
_OUTPUT_NOT_CLEAR = "output qubit is not |0>; classifier already applied?"


class QubitCapError(RuntimeError):
    """Requested register exceeds the simulable qubit budget."""


class StateError(RuntimeError):
    """Operation precondition on the state does not hold."""


class PostselectionImpossibleError(RuntimeError):
    """The postselected branch carries no probability mass."""


@dataclass(frozen=True)
class RegisterLayout:
    parameter_bits: int
    count_bits: int = 0

    def __post_init__(self) -> None:
        if self.parameter_bits < 0 or self.count_bits < 0:
            raise ValueError("register widths must be non-negative")
        if self.total_qubits > DEFAULT_QUBIT_CAP:
            raise QubitCapError(
                f"{self.total_qubits} qubits requested, cap is {DEFAULT_QUBIT_CAP}"
            )

    @property
    def total_qubits(self) -> int:
        return self.parameter_bits + 2 + self.count_bits

    @property
    def model_count(self) -> int:
        return 1 << self.parameter_bits

    @property
    def count_values(self) -> int:
        return 1 << self.count_bits


def count_bits_for(dataset_size: int) -> int:
    """Width of a count register holding 0..dataset_size."""
    return max(1, math.ceil(math.log2(dataset_size + 1)))


class EnsembleState:
    """Real statevector over the ensemble register, allocated as zeros;
    every gate of the circuit is real, so the amplitudes are float64."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout) -> None:
        self.layout = layout
        self.amplitudes = np.zeros(1 << layout.total_qubits, dtype=np.float64)

    def view(self) -> np.ndarray:
        """Amplitudes reshaped to (models, output, accuracy, count values)."""
        lay = self.layout
        return self.amplitudes.reshape(lay.model_count, 2, 2, lay.count_values)

    def norm(self) -> float:
        """sqrt(sum(a^2)) with the bits of np.sqrt(np.sum(np.square(a)))."""
        return float(np.sqrt(_sum_squares(self.amplitudes.reshape(1, -1))))

    def parameter_distribution(self) -> np.ndarray:
        """Probability of each parameter basis state, shape (E,)."""
        return _model_sums(self.view())

    def accuracy_zero_probabilities(self) -> np.ndarray:
        """P(accuracy qubit = |0> conditioned on each parameter state)."""
        view = self.view()
        zero_branch = _model_sums(view[:, :, 0, :])
        per_model = _model_sums(view[:, :, 1, :])
        per_model += zero_branch
        out = np.full(self.layout.model_count, np.nan)
        return np.divide(zero_branch, per_model, out=out, where=per_model > 0.0)


def _squares(seq: np.ndarray, start: int, n: int, buf: np.ndarray) -> np.ndarray:
    """buf[:n] set to the squares of values start..start+n-1 of the 2-D
    view seq taken in C order (a partial row, whole rows, a partial row)."""
    width = seq.shape[1]
    row, col = divmod(start, width)
    out = buf[:n]
    done = 0
    if col:
        done = min(n, width - col)
        np.square(seq[row, col : col + done], out=out[:done])
        row += 1
    full = (n - done) // width
    np.square(seq[row : row + full], out=out[done : done + full * width].reshape(full, width))
    done += full * width
    if done < n:
        np.square(seq[row + full, : n - done], out=out[done:])
    return out


def _pairwise(n: int, leaf, start: int = 0) -> float:
    """numpy's pairwise sum of n values, from leaf(start, count) = the
    np.sum of values start..start+count-1 for each count <= _NORM_CHUNK,
    called left to right."""
    if n <= _NORM_CHUNK:
        return leaf(start, n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, leaf, start) + _pairwise(n - half, leaf, start + half)


def _sum_squares(seq: np.ndarray) -> float:
    """np.sum(np.square(seq)) bit for bit for a 2-D view seq, one chunk of
    squares at a time: numpy squares into a contiguous C-order array and
    sums that as one pairwise sum."""
    buf = np.empty(min(seq.size, _NORM_CHUNK))
    return _pairwise(seq.size, lambda s, n: float(np.sum(_squares(seq, s, n, buf))))


def _model_sums(branch: np.ndarray) -> np.ndarray:
    """np.square(branch).sum(axis=(1, ...)) bit for bit, shape (E,),
    squaring as many model rows as fit in one chunk at a time."""
    e = branch.shape[0]
    rows = max(1, _NORM_CHUNK // branch[0].size)
    buf = np.empty((min(rows, e),) + branch.shape[1:])
    out = np.empty(e)
    axes = tuple(range(1, branch.ndim))
    for r in range(0, e, rows):
        sq = np.square(branch[r : r + rows], out=buf[: min(rows, e - r)])
        sq.sum(axis=axes, out=out[r : r + rows])
    return out


def _model_rows(layout: RegisterLayout) -> int:
    """Models whose whole register fits in one chunk, at least one."""
    return max(1, _NORM_CHUNK // (4 * layout.count_values))


def prepare_uniform(layout: RegisterLayout) -> EnsembleState:
    """Uniform superposition over the parameter register, work qubits |0>."""
    state = EnsembleState(layout)
    view = state.view()
    view[:, 0, 0, 0] = 1.0 / math.sqrt(layout.model_count)
    return state


def _require_clear(state: EnsembleState, run: int, message: str) -> None:
    """StateError(message) unless the qubit of basis stride `run` is |0>: the
    accuracy qubit has stride 2**c, the output qubit 2 * 2**c."""
    if _sum_squares(state.amplitudes.reshape(-1, 2, run)[:, 1, :]) > _ATOL:
        raise StateError(message)


def apply_accuracy_rotation_exact(state: EnsembleState, accuracies: np.ndarray) -> EnsembleState:
    """Rotate the accuracy qubit to sqrt(a)|0> + sqrt(1-a)|1> per model."""
    a = np.asarray(accuracies, dtype=np.float64)
    if a.shape != (state.layout.model_count,):
        raise ValueError("one accuracy per parameter basis state is required")
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError("accuracies outside [0, 1]")
    _require_clear(state, state.layout.count_values, _ACCURACY_NOT_CLEAR)
    view = state.view()
    c = np.sqrt(a)[:, None]
    s = np.sqrt(1.0 - a)[:, None]
    for output in (0, 1):  # per output value, so for c = 0 numpy's inner loop runs along E
        np.multiply(view[:, output, 0, :], s, out=view[:, output, 1, :])
        view[:, output, 0, :] *= c
    return state


def apply_accuracy_rotation_sequential(
    state: EnsembleState, predictions: np.ndarray, labels: np.ndarray, delta: float
) -> EnsembleState:
    """Hadamard the accuracy qubit, then for each training point j rotate
    it, per parameter basis state, by the fixed gate Ry(-2 delta) toward |0>
    where predict_many's (E, M) table `predictions` matches labels[j], else
    by Ry(2 delta) toward |1>; per chunk of models the flags pick sin's sign.

    The rotations share one axis, so the conditional probability lands at
    cos^2(pi/4 - (2 c_theta - M) delta), monotone in the correct count
    c_theta whenever 0 < delta <= pi/(4M)."""
    if predictions.ndim != 2 or predictions.shape[0] != state.layout.model_count:
        raise ValueError("one row of predictions per parameter basis state is required")
    m = predictions.shape[1]
    if labels.shape != (m,):
        raise ValueError("one label per prediction column is required")
    if not 0.0 < delta <= math.pi / (4.0 * m):
        raise ValueError(f"delta must lie in (0, pi/(4*{m})]")
    _require_clear(state, state.layout.count_values, _ACCURACY_NOT_CLEAR)
    view = state.view()
    e = state.layout.model_count
    cos_d, sin_d = float(np.cos(delta)), float(np.sin(delta))
    # one chunk of model rows at a time, through every point: the two
    # temporaries hold half a chunk each, the flags one value per row
    rows = _model_rows(state.layout)
    new0 = np.empty((min(rows, e), 2, state.layout.count_values))
    tmp = np.empty_like(new0)
    flags = np.empty(len(new0), dtype=bool)
    inv = 1.0 / math.sqrt(2.0)
    for r in range(0, e, rows):
        a0, a1 = view[r : r + rows, :, 0, :], view[r : r + rows, :, 1, :]
        n0, t, right = new0[: a0.shape[0]], tmp[: a0.shape[0]], flags[: a0.shape[0]]
        np.add(a0, a1, out=n0)
        n0 *= inv
        np.subtract(a0, a1, out=a1)
        a1 *= inv
        a0[...] = n0
        for point, label in enumerate(labels.tolist()):
            np.equal(predictions[r : r + rows, point], label, out=right)
            s = np.where(right, -sin_d, sin_d)[:, None, None]
            np.multiply(a0, cos_d, out=n0)
            n0 -= np.multiply(s, a1, out=t)
            a1 *= cos_d
            a1 += np.multiply(s, a0, out=t)
            a0[...] = n0
    return state


@dataclass(frozen=True)
class PostselectionReport:
    acceptance_probability: float
    expected_repetitions: float


def postselect_accuracy_zero(state: EnsembleState) -> tuple[EnsembleState, PostselectionReport]:
    """Project onto accuracy = |0> and renormalize."""
    view = state.view()
    p_acc = _sum_squares(state.amplitudes.reshape(-1, 2, state.layout.count_values)[:, 0, :])
    if p_acc <= _ATOL:
        raise PostselectionImpossibleError("accuracy-|0> branch has no mass")
    view[:, :, 1, :] = 0.0
    # times the reciprocal, not /=: the recorded artifacts were computed on
    # complex amplitudes, which numpy divides by a real scalar as x * (1/d);
    # a real division rounds differently and moves the readout's last bits
    view[:, :, 0, :] *= 1.0 / math.sqrt(p_acc)
    return state, PostselectionReport(p_acc, 1.0 / p_acc)


def apply_classifier(state: EnsembleState, labels: np.ndarray) -> EnsembleState:
    """Flip the output qubit on every branch whose model labels the query
    +1; `labels` holds each parameter basis state's prediction in {-1, +1}."""
    labels = np.asarray(labels)
    if labels.shape != (state.layout.model_count,):
        raise ValueError("one label per parameter basis state is required")
    _require_clear(state, 2 * state.layout.count_values, _OUTPUT_NOT_CLEAR)
    flip = labels == 1
    # one element per model and output value: the run of its 2 * 2**c
    # amplitudes as raw bytes, so each masked copy is one pass over E models
    runs = state.amplitudes.view(np.dtype((np.void, 16 * state.layout.count_values)))
    runs = runs.reshape(-1, 2)
    np.copyto(runs[:, 1], runs[:, 0], where=flip)
    np.copyto(runs[:, 0], np.zeros((), runs.dtype), where=flip)
    return state


def measure_label_distribution(state: EnsembleState) -> tuple[float, float]:
    """(p_minus, p_plus): output-qubit Born probabilities for labels -1, +1.

    Bit for bit p_minus = probs[:, 0].sum() / probs.sum() with probs the
    squared state, in numpy's two orders: the total is one pairwise sum over
    the whole state, and the strided output-|0> squares are summed in
    buffered blocks of max(8192, run) values, run = one model's values at
    one output, added one after another."""
    a = state.amplitudes
    total = _sum_squares(a.reshape(1, -1))
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise StateError("state is not normalized")
    run = 2 * state.layout.count_values
    block = 2 * max(_REDUCE_BLOCK, run)  # one buffered block with its output-|1> partners
    p_minus = 0.0
    for start in range(0, a.size, block):
        p_minus += _sum_squares(a[start : start + block].reshape(-1, 2, run)[:, 0, :])
    p_minus /= total
    return p_minus, 1.0 - p_minus


def expectation_sigma_z(state: EnsembleState) -> float:
    """Z expectation of the output qubit, p(-1) - p(+1) under the label
    encoding above.  The complementary single-label mass is available
    directly from measure_label_distribution."""
    p_minus, p_plus = measure_label_distribution(state)
    return p_minus - p_plus


def sample_measurements(p_plus: float, shots: int, seed: int) -> dict[int, int]:
    """Counts of simulated output-qubit measurements, keyed by label, for
    the label +1 probability p_plus from measure_label_distribution."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    u = prng.uniforms(prng.derive_key(seed, 0), shots)
    plus = int(np.count_nonzero(u < p_plus))
    return {-1: shots - plus, 1: plus}


@dataclass(frozen=True)
class GroverReport:
    marked_count: int
    model_count: int
    iterations: int
    iteration_scale: float
    marked_probability: float
    closed_form_probability: float


def grover_amplify_counts(
    correct_counts: np.ndarray,
    dataset_size: int,
    iterations: int | None = None,
) -> tuple[EnsembleState, GroverReport]:
    """Amplitude amplification of the better-than-chance models.

    The count register is loaded with each model's correct count; the
    oracle flips the phase of every basis state whose count register
    value v satisfies 2v > M (for M+1 a power of two this is exactly the
    register's top qubit).  Diffusion reflects about the prepared state.
    The state stays on the E basis states (i, 0, 0, counts[i]): iterations
    run on those E amplitudes, O(E) each, and the statevector is written
    once after them.  The default iteration count is floor(pi/4 sqrt(E/K)).
    """
    counts = np.asarray(correct_counts, dtype=np.int64)
    m = int(dataset_size)
    if counts.ndim != 1 or counts.size < 1 or (1 << int(np.log2(counts.size))) != counts.size:
        raise ValueError("correct_counts must have power-of-two length")
    if counts.min() < 0 or counts.max() > m:
        raise ValueError("counts outside 0..dataset_size")
    param_bits = int(np.log2(counts.size))
    layout = RegisterLayout(param_bits, count_bits_for(m))
    e = layout.model_count
    marked = 2 * counts > m
    k = int(np.count_nonzero(marked))
    if k == 0:
        raise ValueError("no model is better than chance; nothing to amplify")
    if iterations is None:
        iterations = math.floor(math.pi / 4.0 * math.sqrt(e / k))
    if iterations < 0:
        raise ValueError("iterations must be non-negative")

    # amps[i] at (i, 0, 0, counts[i]); diffusion 2|psi0><psi0| - I: negate, add the projection
    amp0 = 1.0 / math.sqrt(e)
    amps = np.full(e, amp0)
    for _ in range(iterations):
        np.negative(amps, out=amps, where=marked)
        overlap = float(np.sum(amps * amp0))
        np.negative(amps, out=amps)
        amps += 2.0 * overlap * amp0
    state = EnsembleState(layout)
    state.view()[np.arange(e), 0, 0, counts] = amps

    # the bits of np.sum over the squared boolean-mask gather of the marked
    # values, which numpy lays out one count value's slab after another
    amplified = _sum_squares(state.amplitudes.reshape(-1, layout.count_values)[:, m // 2 + 1 :].T)
    closed = math.sin((2 * iterations + 1) * math.asin(math.sqrt(k / e))) ** 2
    report = GroverReport(k, e, iterations, math.sqrt(e / k), amplified, closed)
    return state, report
