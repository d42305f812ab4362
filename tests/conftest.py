import tracemalloc

import numpy as np
import pytest

from qens.model import Dataset, ModelFamily, ParameterGrid


@pytest.fixture
def perceptron1d() -> ModelFamily:
    return ModelFamily("perceptron", 1)


@pytest.fixture
def sym_grid_1d() -> ParameterGrid:
    return ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 1)


@pytest.fixture
def region_dataset() -> Dataset:
    """50 points engineered so the four models of the 1-bit symmetric
    perceptron grid score accuracies (0.5, 0.16, 0.84, 0.5).

    Regions: 8 points left of -1 labeled +1, 17 points between the
    thresholds labeled -1, 25 points right of +1 labeled +1.
    """
    x = np.concatenate([np.full(8, -2.0), np.zeros(17), np.full(25, 2.0)])[:, None]
    y = np.concatenate([np.ones(8), -np.ones(17), np.ones(25)]).astype(int)
    return Dataset(x, y)


@pytest.fixture
def peak_bytes():
    """peak_bytes(fn, *args) calls fn and returns the traced peak of the heap
    bytes it allocated, including any result it returns; what was allocated
    before the call is not counted."""

    def measure(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def scatter():
    """scatter(support) is the dense (E, 2, 2, 2**c) float64 array that the
    SupportState support stands for: zeros, and amplitudes[i] at
    (i, 0, 0, counts[i]).  Plain numpy, so that the Grover checks do not
    rest on the simulator's statevector."""

    def dense(support) -> np.ndarray:
        e, c = support.layout.model_count, support.layout.count_bits
        out = np.zeros((e, 2, 2, 1 << c))
        out[np.arange(e), 0, 0, support.counts] = support.amplitudes
        return out

    return dense
