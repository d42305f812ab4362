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
conditional probability is cos^2(pi/4 - (2c - M) * delta).  Postselection
is analytic: the rejected branch is projected out and the survivor is
renormalized, and the report carries the acceptance probability and
expected number of repetitions 1/p_acc rather than simulating retries.

Operations mutate the passed state in place and return it.

Memory: beside the statevector an operation holds O(E) values (angles,
labels, per-model sums) and at most one chunk of _NORM_CHUNK = 2**16
float64 values (512 KiB) of squares or temporaries; elementwise steps run
over model rows one chunk at a time.  Every readout has the bits of np.sum
over a squared copy of (part of) the state, because it adds the chunks in
the order numpy 2.4 uses (tests/test_state_sums.py holds those numpy
expressions as references):

  contiguous operand  one pairwise sum over its whole length, which numpy
                      splits at n/2 - (n/2 mod 8) down to blocks of 128;
                      _pairwise splits the same way down to chunks and
                      lets np.sum do the rest (the square of a strided
                      view is such an operand, in C order)
  strided operand     buffered blocks of max(8192, contiguous run) values
                      (runs here are powers of two), each one pairwise
                      sum, added one after another
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


def _pairwise(n: int, leaf, limit: int = _NORM_CHUNK, start: int = 0) -> float:
    """numpy's pairwise sum of n values, from leaf(start, count) = the
    np.sum of values start..start+count-1 for each count <= limit
    (limit >= 128), called left to right."""
    if n <= limit:
        return leaf(start, n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, leaf, limit, start) + _pairwise(n - half, leaf, limit, start + half)


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
    c = np.sqrt(a)[:, None, None]
    s = np.sqrt(1.0 - a)[:, None, None]
    np.multiply(view[:, :, 0, :], s, out=view[:, :, 1, :])  # no E x 2 temporary
    view[:, :, 0, :] *= c
    return state


def apply_accuracy_rotation_sequential(
    state: EnsembleState, correct: np.ndarray, delta: float
) -> EnsembleState:
    """Hadamard the accuracy qubit, then for each training point rotate it
    by delta toward |0> (correctly classified) or |1> (misclassified),
    conditioned on the parameter basis state.  `correct` is the (E, M)
    boolean matrix of correct classifications, one row per basis state.

    The rotations share one axis, so the conditional probability lands at
    cos^2(pi/4 - (2 c_theta - M) delta), monotone in the correct count
    c_theta whenever 0 < delta <= pi/(4M)."""
    correct = np.asarray(correct, dtype=bool)
    if correct.ndim != 2 or correct.shape[0] != state.layout.model_count:
        raise ValueError("one row of correct flags per parameter basis state is required")
    m = correct.shape[1]
    if not 0.0 < delta <= math.pi / (4.0 * m):
        raise ValueError(f"delta must lie in (0, pi/(4*{m})]")
    _require_clear(state, state.layout.count_values, _ACCURACY_NOT_CLEAR)
    view = state.view()
    e = state.layout.model_count
    # one chunk of model rows at a time, through every point: the two
    # temporaries hold half a chunk each
    rows = _model_rows(state.layout)
    new0 = np.empty((min(rows, e), 2, state.layout.count_values))
    tmp = np.empty_like(new0)
    inv = 1.0 / math.sqrt(2.0)
    for r in range(0, e, rows):
        a0, a1 = view[r : r + rows, :, 0, :], view[r : r + rows, :, 1, :]
        n0, t = new0[: a0.shape[0]], tmp[: a0.shape[0]]
        np.add(a0, a1, out=n0)
        n0 *= inv
        np.subtract(a0, a1, out=a1)
        a1 *= inv
        a0[...] = n0
        for point in range(m):
            phi = np.where(correct[r : r + rows, point], -delta, delta)
            c = np.cos(phi)[:, None, None]
            s = np.sin(phi)[:, None, None]
            np.multiply(c, a0, out=n0)
            n0 -= np.multiply(s, a1, out=t)
            a1 *= c
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
    view = state.view()
    rows = _model_rows(state.layout)  # the gather holds at most half a chunk
    for r in range(0, state.layout.model_count, rows):
        sub, f = view[r : r + rows], flip[r : r + rows]
        sub[f, 1] = sub[f, 0]
        sub[f, 0] = 0.0
    return state


def measure_label_distribution(state: EnsembleState) -> tuple[float, float]:
    """(p_minus, p_plus): output-qubit Born probabilities for labels -1, +1.

    Bit for bit p_minus = probs[:, 0].sum() / probs.sum() with probs the
    squared state, in one pass: numpy sums the strided output-|0> values in
    blocks of max(8192, run), run = one model's values at one output, and a
    block with its output-|1> partners is an aligned power-of-two region of
    the state, so a subtree of the pairwise total."""
    a = state.amplitudes
    run = 2 * state.layout.count_values
    region = min(a.size, 2 * max(_REDUCE_BLOCK, run))
    p_minus = 0.0

    def leaf(start: int, n: int) -> float:
        nonlocal p_minus
        rows = a[start : start + n].reshape(-1, 2, run)
        p_minus += _sum_squares(rows[:, 0, :])
        return _sum_squares(rows.reshape(1, -1))

    total = _pairwise(a.size, leaf, region)
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise StateError("state is not normalized")
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
    The default iteration count is floor(pi/4 * sqrt(E/K)).
    """
    counts = np.asarray(correct_counts, dtype=np.int64)
    m = int(dataset_size)
    if counts.ndim != 1 or counts.size < 1 or (1 << int(np.log2(counts.size))) != counts.size:
        raise ValueError("correct_counts must have power-of-two length")
    if counts.min() < 0 or counts.max() > m:
        raise ValueError("counts outside 0..dataset_size")
    param_bits = int(np.log2(counts.size))
    layout = RegisterLayout(param_bits, count_bits_for(m))
    state = EnsembleState(layout)
    view = state.view()
    e = layout.model_count
    # the prepared state psi0 is amp0 on the support (i, 0, 0, counts[i])
    support = (np.arange(e), 0, 0, counts)
    amp0 = 1.0 / math.sqrt(e)
    view[support] = amp0

    k = int(np.count_nonzero(2 * counts > m))
    if k == 0:
        raise ValueError("no model is better than chance; nothing to amplify")
    if iterations is None:
        iterations = math.floor(math.pi / 4.0 * math.sqrt(e / k))
    if iterations < 0:
        raise ValueError("iterations must be non-negative")

    # diffusion 2|psi0><psi0| - I in place: negate, then add the projection
    # back on the support; the marked values v > M/2 are the tail of the count axis
    marked = view[..., m // 2 + 1 :]
    for _ in range(iterations):
        marked *= -1.0
        overlap = float(np.sum(view[support] * amp0))
        np.negative(state.amplitudes, out=state.amplitudes)
        view[support] += 2.0 * overlap * amp0

    # the bits of np.sum over the squared boolean-mask gather of the marked
    # values, which numpy lays out one count value's slab after another
    amplified = _sum_squares(state.amplitudes.reshape(-1, layout.count_values)[:, m // 2 + 1 :].T)
    closed = math.sin((2 * iterations + 1) * math.asin(math.sqrt(k / e))) ** 2
    report = GroverReport(k, e, iterations, math.sqrt(e / k), amplified, closed)
    return state, report
