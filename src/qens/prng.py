"""Counter-based pseudo-random numbers for reproducible generation.

Draw i of a 64-bit stream key k is

    word(k, i) = mix64(k + (i + 1) * GOLDEN)   (mod 2**64)

where GOLDEN is the 64-bit golden-ratio increment and mix64 is the
splitmix64 output permutation.

Child streams are derived with an extra mix round (see derive_key), which
keeps per-class lanes decorrelated from the counter chain of the parent.

Gaussian variates use the inverse normal CDF (scipy's ndtri, which follows
Cephes' ndtri, not Wichura's AS241) applied to centered 53-bit uniforms.
Unlike polar or ziggurat methods this consumes exactly one word per
variate and gives identical output on every platform and thread schedule.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANE = 0xD1342543DE82EF95
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(z):
    """splitmix64 finaliser on np.uint64 values, a scalar or an array."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
        return z ^ (z >> np.uint64(31))


def derive_key(seed: int, lane: int) -> int:
    """Key for child stream `lane` of `seed`.

    Double mixing makes the lane chain structurally different from the
    single-mix counter chain, so a child key never collides with a draw.
    """
    if lane < 0:
        raise ValueError("lane must be non-negative")
    return int(mix64(mix64(np.uint64((seed + (lane + 1) * _LANE) & _MASK))))


def words(key: int, count: int) -> np.ndarray:
    """The first `count` raw 64-bit words of the stream."""
    if count < 0:
        raise ValueError("count must be non-negative")
    idx = np.arange(count, dtype=np.uint64)
    return mix64(np.uint64(key & _MASK) + (idx + np.uint64(1)) * np.uint64(_GOLDEN))


def uniforms(key: int, count: int) -> np.ndarray:
    """Uniform float64 samples in the open interval (0, 1).

    The top 53 bits of each word are centered by half a step, so 0.0 and
    1.0 are never produced and ndtri stays finite.
    """
    w = words(key, count)
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normals(key: int, count: int) -> np.ndarray:
    """Standard normal samples via the inverse-CDF transform."""
    return ndtri(uniforms(key, count))
