"""Deterministic synthetic datasets.

Every generator draws from the counter-based streams in qens.prng, one
pre-split stream per class (class -1 first, then class +1), so output is
a pure function of the requested parameters and the seed: regenerating a dataset
yields a byte-identical CSV on any platform or thread count.  Sample i,
feature d of a class consumes draw i * dim + d of that class's stream.
"""

from __future__ import annotations

import numpy as np

from . import prng
from .model import Dataset
from .weighting import EnumerationCapError

_LANE_MINUS = 0
_LANE_PLUS = 1
VALUES_PER_CLASS_CAP = 1 << 20  # per_class * dimension, 8 MiB of float64 per class


def _two_classes(seed: int, per_class: int, minus: tuple, plus: tuple) -> Dataset:
    """per_class samples of each class's (mean, sigma); class -1 rows first."""
    if not (minus[1] > 0.0 and plus[1] > 0.0):  # NaN fails too
        raise ValueError("sigma must be positive")
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    if per_class * len(minus[0]) > VALUES_PER_CLASS_CAP:
        raise EnumerationCapError(f"per_class * dimension is over {VALUES_PER_CLASS_CAP}")
    parts = []
    for lane, (mean, sigma) in ((_LANE_MINUS, minus), (_LANE_PLUS, plus)):
        dim = len(mean)
        z = prng.normals(prng.derive_key(seed, lane), per_class * dim).reshape(per_class, dim)
        with np.errstate(over="ignore", invalid="ignore"):  # Dataset refuses what overflows
            parts.append(np.asarray(mean, dtype=np.float64)[None, :] + sigma * z)
    y = np.repeat(np.array([-1, 1], dtype=np.int64), per_class)
    return Dataset(np.concatenate(parts, axis=0), y)


def gaussian_blobs(
    mean_minus: tuple[float, ...],
    mean_plus: tuple[float, ...],
    sigma: float,
    per_class: int,
    seed: int,
) -> Dataset:
    """Balanced two-class sample of two isotropic Gaussian blobs with a shared
    standard deviation; class -1 rows first."""
    if len(mean_minus) != len(mean_plus) or not len(mean_minus):
        raise ValueError("class means must share a positive dimension")
    return _two_classes(seed, per_class, (mean_minus, sigma), (mean_plus, sigma))


def gaussian_1d_pair(
    mu_minus: float,
    sigma_minus: float,
    mu_plus: float,
    sigma_plus: float,
    per_class: int,
    seed: int,
) -> Dataset:
    """One-dimensional two-class sample with per-class scale parameters."""
    minus, plus = ((float(mu_minus),), sigma_minus), ((float(mu_plus),), sigma_plus)
    return _two_classes(seed, per_class, minus, plus)
