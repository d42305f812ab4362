"""Binary classifier families on discretized parameter boxes.

Three families share one functional interface f(x; theta) -> {-1, +1}:

  threshold1d   f(x; o, w0) = sgn(o * (x - w0)), one input feature,
                orientation o and offset w0
  perceptron    f(x; w, w0) = sgn(w . x + w0)
  mlp2          f(x; W1, W2, w3) = sgn(w3 . tanh(W2 @ tanh(W1 @ x))),
                two hidden tanh layers, deliberately bias free so that
                negating every weight negates the output

sgn(0) is +1 throughout, so predictions are total and deterministic.
predict_many writes margin >= 0 into an int8 table of E*M bytes and maps it
to 2b - 1 in place; beside the table it holds one block of about 2 MiB of
float64 scratch, whatever M is.  One-input families run along the model axis: a run
of 2**14 models' two parameters sits in contiguous buffers, and one pass per
point x_j computes fl(fl(x_j - w0) * o) (threshold1d) or fl(fl(w * x_j) + b)
(perceptron) into row j of a point-major (M, E) table, so each pass writes
contiguous bytes; the (E, M) result is that table's transpose.  (A one-term
BLAS dot product also rounds once; it can differ only in the sign of a zero
product, which sgn maps to +1 either way.)  Wide families score blocks of
2**18 // (M * values) models, values being the float64 values per (model,
point): the margin, plus mlp2's h1 + h2 tanh activations, made in place.
Their margins come from BLAS (perceptron matmul) or einsum (mlp2), so their
last bits follow the host's kernels, which BLAS picks by the block's shape.
correct_counts reduces the int8 table 2**16 values at a
time, each block a matrix-vector product with the labels in float32 while
M <= 2**24 (float64 beyond): every partial sum is an integer of magnitude
at most M, exact in that type in any summation order.
Parameter vectors are flat float64 arrays; mlp2 packs W1 row-major, then
W2 row-major, then the output weights.

A ParameterGrid discretizes each parameter interval into 2**bits evenly
spaced values (endpoints included) and identifies the grid with basis
indices 0 .. 2**(bits * P) - 1, most significant parameter first.  That
index space is what both the exhaustive committee vote and the simulated
register use.  decode_all gives the map as a table, row i the parameter
vector of index i: the Cartesian product of the per-parameter ticks, which
tests hold to a bit-slicing decode of each index row by row.

Datasets are in-memory float64 matrices with labels in {-1, +1} and
round-trip through a strict CSV format (header x1,...,xN,y, label
literals -1 or 1, LF line endings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THRESHOLD1D = "threshold1d"
PERCEPTRON = "perceptron"
MLP_TWO_HIDDEN = "mlp2"

_KINDS = (THRESHOLD1D, PERCEPTRON, MLP_TWO_HIDDEN)
_RUN = 1 << 14  # models per run of the one-input kernel
_BLOCK_VALUES = 1 << 18  # float64 values per wide predict_many block: 2 MiB
_COUNT_CHUNK = 1 << 16  # prediction values per correct_counts block
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of magnitude up to this


@dataclass(frozen=True)
class ModelFamily:
    """A classifier family plus the metadata fixing its parameter count."""

    kind: str
    input_dim: int
    hidden: tuple[int, int] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if self.kind == THRESHOLD1D and self.input_dim != 1:
            raise ValueError("threshold1d takes exactly one input feature")
        if self.kind == MLP_TWO_HIDDEN:
            if len(self.hidden) != 2 or min(self.hidden) < 1:
                raise ValueError("mlp2 needs two positive hidden widths")
        elif self.hidden:
            raise ValueError(f"{self.kind} takes no hidden widths")

    @property
    def parameter_count(self) -> int:
        if self.kind == THRESHOLD1D:
            return 2
        if self.kind == PERCEPTRON:
            return self.input_dim + 1
        h1, h2 = self.hidden
        return h1 * self.input_dim + h2 * h1 + h2

    @property
    def is_point_symmetric(self) -> bool:
        """True when f(x; -theta) = -f(x; theta) for all x off the surface."""
        return self.kind in (PERCEPTRON, MLP_TWO_HIDDEN)


def _as_theta_matrix(family: ModelFamily, thetas: np.ndarray) -> np.ndarray:
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    if thetas.shape[1] != family.parameter_count:
        raise ValueError(
            f"expected {family.parameter_count} parameters per model, "
            f"got {thetas.shape[1]}"
        )
    return thetas


def _as_points(family: ModelFamily, xs: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != family.input_dim:
        raise ValueError(f"expected {family.input_dim} features, got {xs.shape[1]}")
    return xs


def _block_margins(family: ModelFamily, block: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Float64 margins of one block of wide-family models at every point;
    mlp2's hidden activations are locals here, freed on return."""
    n = family.input_dim
    if family.kind == PERCEPTRON:
        margins = block[:, :n] @ xs.T
        margins += block[:, n : n + 1]
        return margins
    h1, h2 = family.hidden
    w1 = block[:, : h1 * n].reshape(-1, h1, n)
    w2 = block[:, h1 * n : h1 * n + h2 * h1].reshape(-1, h2, h1)
    w3 = block[:, h1 * n + h2 * h1 :]
    a1 = np.einsum("ehn,mn->ehm", w1, xs)
    np.tanh(a1, out=a1)
    a2 = np.einsum("ekh,ehm->ekm", w2, a1)
    np.tanh(a2, out=a2)
    return np.einsum("ek,ekm->em", w3, a2)


def _one_input_signs(family: ModelFamily, thetas: np.ndarray, x: np.ndarray, signs: np.ndarray) -> None:
    """margin >= 0 of every one-input model at each point x_j into row j of
    the (M, E) bool signs, one run of models at a time along the model axis."""
    buffers = np.empty((3, min(_RUN, len(thetas))))
    for start in range(0, len(thetas), _RUN):
        run = thetas[start : start + _RUN]
        a, b, t = buffers[:, : len(run)]
        a[:] = run[:, 0]
        b[:] = run[:, 1]
        for j, xj in enumerate(x):
            if family.kind == THRESHOLD1D:  # a = o, b = w0
                np.subtract(xj, b, out=t)
                t *= a
            else:  # a = w, b = bias
                np.multiply(a, xj, out=t)
                t += b
            np.greater_equal(t, 0.0, out=signs[j, start : start + len(run)])


def predict_many(family: ModelFamily, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Predictions for every (model, point) pair, shape (E, M), int8 in {-1, +1}.

    The result's memory order is not part of the contract: one-input
    families return the transpose of a point-major (M, E) table."""
    thetas = _as_theta_matrix(family, thetas)
    xs = _as_points(family, xs)
    one_input = family.kind != MLP_TWO_HIDDEN and family.input_dim == 1
    out = np.empty((len(xs), len(thetas)) if one_input else (len(thetas), len(xs)), dtype=np.int8)
    # sgn(0) = sgn(-0.0) = +1 and NaN -> -1: margin >= 0 as 0/1, then 2b - 1
    signs = out.view(np.bool_)
    if one_input:
        _one_input_signs(family, thetas, xs[:, 0], signs)
    else:  # float64 values per (model, point): the margin and mlp2's activations
        rows = max(1, _BLOCK_VALUES // (max(len(xs), 1) * (1 + sum(family.hidden))))
        for start in range(0, len(thetas), rows):
            margins = _block_margins(family, thetas[start : start + rows], xs)
            np.greater_equal(margins, 0.0, out=signs[start : start + rows])
            del margins  # freed before the next block's margins exist
    out *= 2
    out -= 1
    return out.T if one_input else out


@dataclass(frozen=True)
class ParameterGrid:
    """Per-parameter intervals discretized into 2**bits inclusive endpoints."""

    intervals: tuple[tuple[float, float], ...]
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be at least 1")
        if not self.intervals:
            raise ValueError("at least one parameter interval is required")
        # _tick_values scales both ends by k = 2**bits - 1, which overflows past 1023 bits
        k = float((1 << self.bits) - 1) if self.bits < 1024 else math.inf
        normalized = []
        for lo, hi in self.intervals:
            lo, hi = float(lo), float(hi)
            if not (lo < hi and math.isfinite(max(-lo, hi) * k)):
                raise ValueError(f"invalid interval [{lo}, {hi}] for {self.bits} bits")
            normalized.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(normalized))

    @property
    def parameter_count(self) -> int:
        return len(self.intervals)

    @property
    def total_bits(self) -> int:
        return self.bits * self.parameter_count

    @property
    def size(self) -> int:
        return 1 << self.total_bits

    @property
    def is_symmetric(self) -> bool:
        """True when every interval is [-c, c], so the grid contains -theta
        for every theta (bitwise complement of the index)."""
        return all(lo == -hi for lo, hi in self.intervals)


def _tick_values(lo: float, hi: float, bits: int, ticks: np.ndarray) -> np.ndarray:
    k = float((1 << bits) - 1)
    # algebraically lo + i*(hi-lo)/k; this form keeps endpoints exact and
    # negates exactly on symmetric intervals
    return (lo * (k - ticks) + hi * ticks) / k


def lattice(axes: list[np.ndarray]) -> np.ndarray:
    """Every point of the Cartesian product of 1-D tick arrays as rows of one
    (prod n_i, d) float64 array, the last axis varying fastest."""
    d = len(axes)
    out = np.empty([len(a) for a in axes] + [d], dtype=np.float64)
    for j, ticks in enumerate(axes):
        out[..., j] = np.reshape(ticks, [-1 if k == j else 1 for k in range(d)])
    return out.reshape(-1, d)


def decode_all(grid: ParameterGrid) -> np.ndarray:
    """All grid parameter vectors as an (E, P) matrix, row i basis state i's."""
    ticks = np.arange(2**grid.bits)
    return lattice([_tick_values(lo, hi, grid.bits, ticks) for lo, hi in grid.intervals])


class Dataset:
    """Immutable training set: float64 points and labels in {-1, +1}."""

    __slots__ = ("x", "y")

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("dataset needs at least one point")
        if not np.all(np.isfinite(x)):
            raise ValueError("dataset features must be finite")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must be one per point")
        yi = y.astype(np.int64)
        if not np.array_equal(yi, y) or not np.all(np.isin(yi, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", yi)
        x.setflags(write=False)
        yi.setflags(write=False)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("Dataset is immutable")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[1]

    def to_csv(self, path: str | Path) -> None:
        """Write header x1..xN,y then one row per point; floats use repr
        (shortest round-trip form) so output is byte stable."""
        lines = [",".join([f"x{j + 1}" for j in range(self.dimension)] + ["y"])]
        for i in range(len(self)):
            cells = [repr(float(v)) for v in self.x[i]]
            cells.append(str(int(self.y[i])))
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")

    @classmethod
    def read_csv(cls, path: str | Path) -> "Dataset":
        text = Path(path).read_text()
        lines = [ln for ln in text.split("\n") if ln != ""]
        if not lines:
            raise ValueError("empty dataset file")
        header = lines[0].split(",")
        if header[-1] != "y" or any(
            h != f"x{j + 1}" for j, h in enumerate(header[:-1])
        ) or len(header) < 2:
            raise ValueError(f"bad header {lines[0]!r}")
        dim = len(header) - 1
        xs, ys = [], []
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != dim + 1:
                raise ValueError(f"row has {len(cells)} cells, expected {dim + 1}")
            if cells[-1] not in ("-1", "1"):
                raise ValueError(f"label must be -1 or 1, got {cells[-1]!r}")
            xs.append([float(c) for c in cells[:-1]])
            ys.append(int(cells[-1]))
        return cls(np.asarray(xs), np.asarray(ys))


def correct_counts(family: ModelFamily, thetas: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Number of training points each model classifies correctly, shape (E,)."""
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    preds = predict_many(family, thetas, dataset.x)
    e, m = preds.shape
    dtype = np.float32 if m <= _FLOAT32_EXACT else np.float64
    y = dataset.y.astype(dtype)
    rows = max(1, _COUNT_CHUNK // m)
    block = np.empty_like(preds[:rows], dtype)  # preds' memory order: contiguous copies
    dots = np.empty(len(block), dtype)  # sum of y * prediction: +1 where correct, -1 where wrong
    out = np.empty(e, dtype=np.int64)
    for start in range(0, e, rows):
        k = min(rows, e - start)
        block[:k] = preds[start : start + k]
        np.matmul(block[:k], y, out=dots[:k])
        out[start : start + k] = dots[:k]
    out += m
    out //= 2
    return out


def grid_accuracies(family: ModelFamily, grid: ParameterGrid, dataset: Dataset) -> np.ndarray:
    """Accuracy of every grid model, shape (E,)."""
    return grid_correct_counts(family, grid, dataset) / float(len(dataset))


def grid_correct_counts(family: ModelFamily, grid: ParameterGrid, dataset: Dataset) -> np.ndarray:
    if grid.parameter_count != family.parameter_count:
        raise ValueError("grid parameter count does not match the family")
    return correct_counts(family, decode_all(grid), dataset)
