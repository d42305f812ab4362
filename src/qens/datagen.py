"""Deterministic synthetic datasets.

Every generator draws from the counter-based streams in qens.prng, one
pre-split stream per class (class -1 first, then class +1), so output is
a pure function of the requested parameters and the seed: regenerating a dataset
yields a byte-identical CSV on any platform or thread count.  Sample i,
feature d of a class consumes draw i * dim + d of that class's stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prng
from .model import Dataset

_LANE_MINUS = 0
_LANE_PLUS = 1


@dataclass(frozen=True)
class BlobSpec:
    """Two isotropic Gaussian blobs with a shared standard deviation."""

    mean_minus: tuple[float, ...]
    mean_plus: tuple[float, ...]
    sigma: float
    per_class: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_minus", tuple(float(v) for v in self.mean_minus))
        object.__setattr__(self, "mean_plus", tuple(float(v) for v in self.mean_plus))
        if len(self.mean_minus) != len(self.mean_plus) or not self.mean_minus:
            raise ValueError("class means must share a positive dimension")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.per_class < 1:
            raise ValueError("per_class must be at least 1")


def _two_classes(seed: int, per_class: int, minus: tuple, plus: tuple) -> Dataset:
    """per_class samples of each class's (mean, sigma); class -1 rows first."""
    parts = []
    for lane, (mean, sigma) in ((_LANE_MINUS, minus), (_LANE_PLUS, plus)):
        dim = len(mean)
        z = prng.normals(prng.derive_key(seed, lane), per_class * dim).reshape(per_class, dim)
        parts.append(np.asarray(mean, dtype=np.float64)[None, :] + sigma * z)
    y = np.repeat(np.array([-1, 1], dtype=np.int64), per_class)
    return Dataset(np.concatenate(parts, axis=0), y)


def gaussian_blobs(spec: BlobSpec) -> Dataset:
    """Balanced two-class blob dataset; class -1 rows first."""
    minus, plus = (spec.mean_minus, spec.sigma), (spec.mean_plus, spec.sigma)
    return _two_classes(spec.seed, spec.per_class, minus, plus)


def gaussian_1d_pair(
    mu_minus: float,
    sigma_minus: float,
    mu_plus: float,
    sigma_plus: float,
    per_class: int,
    seed: int,
) -> Dataset:
    """One-dimensional two-class sample with per-class scale parameters."""
    if not (sigma_minus > 0.0 and sigma_plus > 0.0):
        raise ValueError("standard deviations must be positive")
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    minus, plus = ((float(mu_minus),), sigma_minus), ((float(mu_plus),), sigma_plus)
    return _two_classes(seed, per_class, minus, plus)
