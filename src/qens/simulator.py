"""Dense statevector simulation of weighted classifier superpositions.

The statevector holds, most significant first:

  parameter   tau*P qubits, basis state i <-> row i of model.decode_all
  output      1 qubit, |0> <-> label -1, |1> <-> label +1
  accuracy    1 qubit, postselected on |0>

so a basis index is (i_param * 2 + output) * 2 + accuracy.  Amplitude
amplification's layout adds a count register of ceil(log2(M+1)) qubits,
holding the correct-classification count; those qubits count against the
cap, but Grover never allocates a statevector (see below).  The data
register that a hardware run would carry is deliberately not simulated:
classifier outputs enter as classical basis-state-conditional bit flips,
which leaves the statevector at 2**(tau*P + 2) amplitudes and a 26-qubit
cap instead of being dominated by training data.

Every operation of the circuit is real (Ry rotations, bit flips, phase
flips and reflections about a real state), so the amplitudes are float64:
the state takes 8 * 2**n bytes, 512 MiB at the 26-qubit cap.

The weighting routine brings the accuracy qubit, conditioned on the
parameter basis state, to sqrt(a)|0> + sqrt(1-a)|1>, either exactly or
through the sequential per-training-point rotation approximation.  That
route's gates, a Hadamard and then one Ry(-+2 delta) per training point,
all turn about one axis, so it is applied as the one net rotation to
cos t|0> + sin t|1>, t = pi/4 - (2c - M) * delta for a model with correct
count c: both routes multiply the accuracy-|0> amplitudes by one value per
model and write the |1> amplitudes from them.  Postselection is analytic:
the rejected branch is projected out and the survivor is renormalized,
and the report carries the acceptance probability and expected number of
repetitions 1/p_acc rather than simulating retries.

Operations mutate the passed state in place and return it.

Memory: beside the statevector an operation holds O(E) values only where
its input or result has one value per model (the classifier's labels, the
per-model sums), and otherwise at most a few chunks of _NORM_CHUNK = 2**16
float64 values (512 KiB each) of squares or temporaries.  The rotation
asks for its cos and sin values one chunk of 2**16 models at a time
(model_chunks), so neither route makes an (E,) array of angles beside the
state.  The elementwise steps work in place along the model axis, so numpy's
inner loops run over E models rather than over the 2 values of one model:
the rotation one output value at a time, the classifier as masked copies of
each model's pair of amplitudes at one output, taken as one raw-byte
element, and the postselection on views that already merge into one long
axis.
Every readout has the bits of np.sum over a squared copy of (part of) the
state, because it adds the chunks in the order numpy 2.4 uses
(tests/test_state_sums.py holds those numpy expressions as references):

  contiguous operand  one pairwise sum over its whole length, which numpy
                      splits at n/2 - (n/2 mod 8) down to blocks of 128;
                      _pairwise splits the same way down to chunks and
                      lets np.sum do the rest (the square of a strided
                      view is such an operand, in C order): the norm, the
                      branch masses and the label readout's total
  strided operand     buffered blocks of 8192 values, each one pairwise
                      sum, added one after another: the label readout's
                      output-|0> mass, over an already squared state
  per-model sums      each model's row is summed alone, so any number of
                      rows at a time gives the same sums

Grover never allocates the statevector: each of its steps applies the same
float operations to every marked amplitude and the same ones to every
unmarked one, so from the uniform start its state is two values and the
marked count K (Grover 1996; Boyer, Brassard, Hoyer & Tapp 1998).  Its sums
of K equal and E - K equal terms are computed exactly and rounded once.
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


def count_bits_for(dataset_size: int) -> int:
    """Width of a count register holding 0..dataset_size."""
    return max(1, math.ceil(math.log2(dataset_size + 1)))


class EnsembleState:
    """Real statevector over the parameter, output and accuracy qubits,
    allocated as zeros; every gate of the circuit is real, so the
    amplitudes are float64."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout) -> None:
        if layout.count_bits:
            raise ValueError("the statevector has no count register")
        self.layout = layout
        self.amplitudes = np.zeros(1 << layout.total_qubits, dtype=np.float64)

    def view(self) -> np.ndarray:
        """Amplitudes reshaped to (models, output, accuracy)."""
        return self.amplitudes.reshape(self.layout.model_count, 2, 2)

    def norm(self) -> float:
        """sqrt(sum(a^2)) with the bits of np.sqrt(np.sum(np.square(a)))."""
        return float(np.sqrt(_sum_squares(self.amplitudes.reshape(-1, 2))))

    def parameter_distribution(self) -> np.ndarray:
        """Probability of each parameter basis state, shape (E,)."""
        return _model_sums(self.view())

    def accuracy_zero_probabilities(self, models: slice = slice(None)) -> np.ndarray:
        """P(accuracy qubit = |0> conditioned on each parameter state), for
        all of them or for the slice `models` of them."""
        view = self.view()[models]
        zero_branch = _model_sums(view[:, :, 0])
        per_model = _model_sums(view[:, :, 1])
        per_model += zero_branch
        out = np.full(zero_branch.size, np.nan)
        return np.divide(zero_branch, per_model, out=out, where=per_model > 0.0)


def _pairwise(n: int, leaf, start: int = 0) -> float:
    """numpy's pairwise sum of n values, from leaf(start, count) = the
    np.sum of values start..start+count-1 for each count <= _NORM_CHUNK,
    called left to right.  It splits at multiples of 8 values, so every
    leaf starts at a multiple of 8 and ends there or at n."""
    if n <= _NORM_CHUNK:
        return leaf(start, n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, leaf, start) + _pairwise(n - half, leaf, start + half)


def _sum_squares(rows: np.ndarray) -> float:
    """np.sum(np.square(rows)) bit for bit for a 2-D view of 1 or 2
    columns, one chunk of squares at a time: numpy squares into a
    contiguous C-order array and sums that as one pairwise sum.  Every
    _pairwise leaf holds whole rows, since 8 is a multiple of the width."""
    w = rows.shape[1]
    buf = np.empty(min(rows.size, _NORM_CHUNK))

    def leaf(s: int, n: int) -> float:
        np.square(rows[s // w : (s + n) // w], out=buf[:n].reshape(-1, w))
        return float(np.sum(buf[:n]))

    return _pairwise(rows.size, leaf)


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


def prepare_uniform(layout: RegisterLayout) -> EnsembleState:
    """Uniform superposition over the parameter register, work qubits |0>."""
    state = EnsembleState(layout)
    state.view()[:, 0, 0] = 1.0 / math.sqrt(layout.model_count)
    return state


def _require_clear(state: EnsembleState, stride: int, message: str) -> None:
    """StateError(message) unless the qubit of basis stride `stride` is |0>:
    the accuracy qubit has stride 1, the output qubit 2."""
    if _sum_squares(state.amplitudes.reshape(-1, 2, stride)[:, 1]) > _ATOL:
        raise StateError(message)


def model_chunks(model_count: int):
    """Slices of at most _NORM_CHUNK models covering 0..model_count-1 in
    order: the unit in which per-model values are made beside the state."""
    return (slice(start, start + _NORM_CHUNK) for start in range(0, model_count, _NORM_CHUNK))


def _rotate(state: EnsembleState, angles) -> EnsembleState:
    """Take each model's accuracy qubit from |0> to cos|0> + sin|1>, where
    angles(models) gives the (cos, sin) arrays of the models in a slice,
    asked for one chunk of models at a time."""
    _require_clear(state, 1, _ACCURACY_NOT_CLEAR)
    view = state.view()
    for models in model_chunks(state.layout.model_count):
        _rotate_chunk(view[models], *angles(models))  # a chunk's angles are freed before the next's
    return state


def _rotate_chunk(part: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    for output in (0, 1):  # per output value, so numpy's inner loop runs along the models
        np.multiply(part[:, output, 0], sin, out=part[:, output, 1])
        part[:, output, 0] *= cos


def apply_accuracy_rotation_exact(state: EnsembleState, accuracies: np.ndarray) -> EnsembleState:
    """Rotate the accuracy qubit to sqrt(a)|0> + sqrt(1-a)|1> per model."""
    a = np.asarray(accuracies, dtype=np.float64)
    if a.shape != (state.layout.model_count,):
        raise ValueError("one accuracy per parameter basis state is required")
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError("accuracies outside [0, 1]")
    return _rotate(state, lambda models: (np.sqrt(a[models]), np.sqrt(1.0 - a[models])))


def _whole_counts(counts: np.ndarray, dataset_size: int) -> np.ndarray:
    """counts as int64; ValueError unless every value is a whole number in
    0..dataset_size, so that no fraction or NaN is truncated to a count."""
    if counts.dtype.kind not in "iu" and not (
        counts.dtype.kind == "f" and np.array_equal(np.floor(counts), counts)
    ):
        raise ValueError("correct counts must be whole numbers")
    if counts.min() < 0 or counts.max() > dataset_size:
        raise ValueError("counts outside 0..dataset_size")
    return counts.astype(np.int64, copy=False)


def apply_accuracy_rotation_sequential(
    state: EnsembleState, correct_counts: np.ndarray, dataset_size: int, delta: float
) -> EnsembleState:
    """The Hadamard on the accuracy qubit, then per training point Ry(-2 delta)
    toward |0> where the model is right and Ry(2 delta) toward |1> where it is
    wrong, applied as the one net rotation they make: the gates share one
    axis, so a model with correct count c lands at cos t|0> + sin t|1>,
    t = pi/4 - (2c - M) delta, monotone in c whenever 0 < delta <= pi/(4M).
    The M + 1 values of cos t and sin t are evaluated once."""
    counts = np.asarray(correct_counts)
    m = int(dataset_size)
    if counts.shape != (state.layout.model_count,):
        raise ValueError("one correct count per parameter basis state is required")
    counts = _whole_counts(counts, m)
    if not 0.0 < delta <= math.pi / (4.0 * m):
        raise ValueError(f"delta must lie in (0, pi/(4*{m})]")
    t = math.pi / 4.0 - (2.0 * np.arange(m + 1) - m) * delta
    cos, sin = np.cos(t), np.sin(t)
    return _rotate(state, lambda models: (cos[counts[models]], sin[counts[models]]))


@dataclass(frozen=True)
class PostselectionReport:
    acceptance_probability: float
    expected_repetitions: float


def postselect_accuracy_zero(state: EnsembleState) -> tuple[EnsembleState, PostselectionReport]:
    """Project onto accuracy = |0> and renormalize."""
    view = state.view()
    p_acc = _sum_squares(view[:, :, 0])
    if p_acc <= _ATOL:
        raise PostselectionImpossibleError("accuracy-|0> branch has no mass")
    view[:, :, 1] = 0.0
    # times the reciprocal, not /=: the recorded artifacts were computed on
    # complex amplitudes, which numpy divides by a real scalar as x * (1/d);
    # a real division rounds differently and moves the readout's last bits
    view[:, :, 0] *= 1.0 / math.sqrt(p_acc)
    return state, PostselectionReport(p_acc, 1.0 / p_acc)


def apply_classifier(state: EnsembleState, labels: np.ndarray) -> EnsembleState:
    """Flip the output qubit on every branch whose model labels the query
    +1; `labels` holds each parameter basis state's prediction in {-1, +1}."""
    labels = np.asarray(labels)
    if labels.shape != (state.layout.model_count,):
        raise ValueError("one label per parameter basis state is required")
    _require_clear(state, 2, _OUTPUT_NOT_CLEAR)
    flip = labels == 1
    # one element per model and output value: its two accuracy amplitudes
    # as 16 raw bytes, so each masked copy is one pass over E models
    runs = state.amplitudes.view(np.dtype((np.void, 16))).reshape(-1, 2)
    np.copyto(runs[:, 1], runs[:, 0], where=flip)
    np.copyto(runs[:, 0], np.zeros((), runs.dtype), where=flip)
    return state


def measure_label_distribution(state: EnsembleState) -> tuple[float, float]:
    """(p_minus, p_plus): output-qubit Born probabilities for labels -1, +1.

    Bit for bit p_minus = probs[:, 0].sum() / probs.sum() with probs the
    squared (E, 2, 2) state, in numpy's two orders: the total is one
    pairwise sum over the whole state, and the strided output-|0> squares
    are summed in numpy's buffered blocks of 8192 values, each one pairwise
    sum, added one after another."""
    a = state.amplitudes
    total = _sum_squares(a.reshape(-1, 2))
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise StateError("state is not normalized")
    block = 2 * _REDUCE_BLOCK  # one buffered block with its output-|1> partners
    p_minus = 0.0
    for start in range(0, a.size, block):
        p_minus += _sum_squares(a[start : start + block].reshape(-1, 2, 2)[:, 0])
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


def _exact_sum(*terms: tuple[int, float]) -> float:
    """sum(count * value) over the terms, exact and rounded once: each value
    is p / q with q a power of two, and int / int rounds correctly."""
    ratios = [value.as_integer_ratio() for _, value in terms]
    den = max(q for _, q in ratios)
    return sum(count * p * (den // q) for (count, _), (p, q) in zip(terms, ratios)) / den


@dataclass(frozen=True)
class SupportState:
    """Grover's state: marked_amplitude at basis state (i, 0, 0, counts[i])
    where marked[i], else unmarked_amplitude; counts, marked are read-only."""

    layout: RegisterLayout
    counts: np.ndarray
    marked: np.ndarray
    marked_amplitude: float
    unmarked_amplitude: float

    @property
    def amplitudes(self) -> np.ndarray:
        """The E support amplitudes in model order, as a new read-only array."""
        amps = np.where(self.marked, self.marked_amplitude, self.unmarked_amplitude)
        amps.setflags(write=False)
        return amps

    def norm(self) -> float:
        """sqrt of the exact sum of the squared amplitudes, rounded once."""
        k, x_m, x_u = int(np.count_nonzero(self.marked)), self.marked_amplitude, self.unmarked_amplitude
        return math.sqrt(_exact_sum((k, x_m * x_m), (self.layout.model_count - k, x_u * x_u)))


def grover_amplify_counts(
    correct_counts: np.ndarray, dataset_size: int, iterations: int | None = None
) -> tuple[SupportState, GroverReport]:
    """Amplitude amplification of the better-than-chance models: the oracle
    flips the phase where the count register holds v with 2v > M, diffusion
    reflects about the prepared state.  On the support (i, 0, 0, counts[i])
    the K marked models share amplitude x_m and the rest x_u.  A step negates
    x_m, takes overlap = round(K fl(x_m amp0) + (E - K) fl(x_u amp0)),
    amp0 = 1/sqrt(E), and sets each x to -x + 2 overlap amp0, as a dense run
    does; the marked probability is round(K fl(x_m^2)).  Counts must be
    whole numbers in 0..M; int64 counts are kept and turn read-only.  The
    default iteration count is floor(pi/4 sqrt(E/K))."""
    counts = np.asarray(correct_counts)
    m = int(dataset_size)
    if counts.ndim != 1 or counts.size < 1 or (1 << int(np.log2(counts.size))) != counts.size:
        raise ValueError("correct_counts must have power-of-two length")
    counts = _whole_counts(counts, m)
    layout = RegisterLayout(int(np.log2(counts.size)), count_bits_for(m))
    e = layout.model_count
    marked = counts > m // 2  # 2c > M for whole c, with no E-sized int64 temporary
    k = int(np.count_nonzero(marked))
    if k == 0:
        raise ValueError("no model is better than chance; nothing to amplify")
    if iterations is None:
        iterations = math.floor(math.pi / 4.0 * math.sqrt(e / k))
    if iterations < 0:
        raise ValueError("iterations must be non-negative")

    amp0 = 1.0 / math.sqrt(e)
    x_m = x_u = amp0
    for _ in range(iterations):
        x_m = -x_m
        overlap = _exact_sum((k, x_m * amp0), (e - k, x_u * amp0))
        c = 2.0 * overlap * amp0
        x_m, x_u = -x_m + c, -x_u + c
    amplified = _exact_sum((k, x_m * x_m))
    closed = math.sin((2 * iterations + 1) * math.asin(math.sqrt(k / e))) ** 2
    report = GroverReport(k, e, iterations, math.sqrt(e / k), amplified, closed)
    counts.setflags(write=False)
    marked.setflags(write=False)
    return SupportState(layout, counts, marked, x_m, x_u), report
