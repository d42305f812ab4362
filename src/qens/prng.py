"""Counter-based pseudo-random numbers for reproducible generation.

Draw i of a 64-bit stream key k is

    word(k, i) = mix64(k + (i + 1) * GOLDEN)   (mod 2**64)

where GOLDEN is the 64-bit golden-ratio increment and mix64 is the
splitmix64 output permutation.

Child streams are derived with an extra mix round (see derive_key), which
keeps per-class lanes decorrelated from the counter chain of the parent.

Gaussian variates use the inverse normal CDF applied to 53-bit uniforms:
Cephes' ndtri, not Wichura's AS241, in the port in _special that has the
bits of scipy.special.ndtri.  Unlike polar or ziggurat methods this
consumes exactly one word per variate and gives identical output on every
platform and thread schedule.
"""

from __future__ import annotations

import numpy as np

from qens._special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANE = 0xD1342543DE82EF95
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_BELOW_ONE = 1.0 - 2.0**-53  # the largest float64 below 1


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


def uniforms_from_words(w: np.ndarray) -> np.ndarray:
    """float64 values in the open interval (0, 1) from uint64 words.

    The top 53 bits k of each word give (k + 1/2) 2^-53, rounded to float64.
    Below 1/2 that is exact, the midpoint of k's step.  From 1/2 up,
    float64's spacing is 2^-53 itself and the half rounds to even: the value
    is whichever of k 2^-53 and (k + 1) 2^-53 is an even multiple.  The top
    k = 2^53 - 1 would so give 1.0, where ndtri is infinite; it is held at
    1 - 2^-53 instead, and every other word keeps those bits.
    """
    u = ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


def uniforms(key: int, count: int) -> np.ndarray:
    """Uniform float64 samples in the open interval (0, 1), from the
    stream's first `count` words."""
    return uniforms_from_words(words(key, count))


def normals(key: int, count: int) -> np.ndarray:
    """Standard normal samples via the inverse-CDF transform."""
    return ndtri(uniforms(key, count))
