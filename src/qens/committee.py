"""Majority-vote asymptotics for committees of independent members.

condorcet_error gives the probability that a majority of n independent
members, each correct with probability p, votes wrongly:

    sum_{n/2 < k <= n} C(n, k) * (1-p)**k * p**(n-k)

Committee sizes must be odd; ties are undefined and deliberately rejected.
Terms are evaluated in log space with log-gamma, so sizes in the thousands
neither overflow nor underflow:

    a_k = G(n+1) - G(k+1) - G(n-k+1) + k*log1p(-p) + (n-k)*log(p)

with G = gammaln read from one table over 0, 1, ..., n_max + 1.  Each size's
terms are then summed with the arithmetic of scipy's `logsumexp` on a real
1-D array: a_max is their maximum, m counts the terms equal to it, those
are set to -inf, s = np.sum(exp(a_k - a_max)) over that size's terms alone
(numpy's pairwise order, so no padding or shared reduction), s /= m unless
s == 0, and the error is min(1, exp(log1p(s) + log(m) + a_max)).  A curve
evaluates all its odd sizes in one vectorised pass, which gives the same
bits as one call per size.  The pass holds the terms of whole sizes in
chunks of at most _CHUNK_TERMS values, in one float and one int scratch
buffer that every chunk of the curve reuses; a curve to n_max has about
n_max^2/8 terms, so memory stays bounded while the work grows with n_max^2.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

_CHUNK_TERMS = 1 << 20  # log terms held at once; a size's terms are never split


def _majority_errors(sizes, p: float) -> np.ndarray:
    """Majority error for each odd size in the ascending sequence `sizes`,
    members iid correct with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"accuracy {p} outside [0, 1]")
    sizes = np.asarray(sizes, dtype=np.int64)
    if p == 0.0 or p == 1.0:
        return np.full(len(sizes), float(p == 0.0))
    g = gammaln(np.arange(sizes[-1] + 2.0))
    log_q, log_p = np.log1p(-p), np.log(p)
    widths = (sizes + 1) // 2  # the terms k = n//2 + 1, ..., n
    ends = np.cumsum(widths)
    # every chunk works in the same two rows of floats and of ints: a chunk
    # holds at most _CHUNK_TERMS terms, or a single size's
    cap = int(min(ends[-1], max(_CHUNK_TERMS, widths.max())))
    floats, ints = np.empty((2, cap)), np.empty((2, cap), dtype=np.int64)
    errors = np.empty(len(sizes))
    lo = 0
    while lo < len(sizes):
        limit = ends[lo] - widths[lo] + _CHUNK_TERMS
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        errors[lo:hi] = _chunk_errors(sizes[lo:hi], widths[lo:hi], g, log_q, log_p, floats, ints)
        lo = hi
    return errors


def _ramps(out, starts, widths, first, step: int):
    """out[starts[i] + r] = first[i] + step * r for r < widths[i]: the
    steps between consecutive terms, summed in place (exact in int64)."""
    out.fill(step)
    jumps = first.copy()
    jumps[1:] -= first[:-1] + step * (widths[:-1] - 1)
    out[starts] = jumps
    return np.cumsum(out, out=out)


def _chunk_errors(n, widths, g, log_q, log_p, floats, ints) -> np.ndarray:
    """_majority_errors for the sizes n, whose terms are all held at once in
    the first columns of the (2, cap) scratch rows floats and ints."""
    t = int(widths.sum())
    a, tmp = floats[0, :t], floats[1, :t]
    starts = np.cumsum(widths) - widths
    half = n // 2
    size_of = _ramps(ints[1, :t], starts, widths, np.arange(len(n)), 0)
    # mode="clip" only skips the copy that "raise" makes through a buffer: every index is in range
    np.take(g[n + 1], size_of, out=a, mode="clip")
    k = _ramps(ints[0, :t], starts, widths, half + 1, 1)
    a -= np.take(g[1:], k, out=tmp, mode="clip")  # G(k + 1)
    n_k = _ramps(ints[1, :t], starts, widths, half, -1)
    a -= np.take(g[1:], n_k, out=tmp, mode="clip")
    a += np.multiply(k, log_q, out=tmp)
    a += np.multiply(n_k, log_p, out=tmp)
    a_max = np.maximum.reduceat(a, starts)
    size_of = _ramps(ints[0, :t], starts, widths, np.arange(len(n)), 0)
    spread = np.take(a_max, size_of, out=tmp, mode="clip")
    top = np.equal(a, spread, out=ints[1].view(np.bool_)[:t])
    m = np.add.reduceat(top, starts, dtype=np.float64)
    np.copyto(a, -np.inf, where=top)
    a -= spread
    np.exp(a, out=a)
    s = np.array([a[i:i + w].sum() for i, w in zip(starts.tolist(), widths.tolist())])
    s = np.where(s == 0, s, s / m)
    return np.minimum(1.0, np.exp(np.log1p(s) + np.log(m) + a_max))


def condorcet_error(size: int, p: float) -> float:
    """Probability that the majority of `size` members errs, members iid
    correct with probability p."""
    if size < 1 or size % 2 == 0:
        raise ValueError("size must be odd and positive")
    return float(_majority_errors([size], p)[0])


def condorcet_curve(p: float, max_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, majority errors): every odd size up to max_size, ascending,
    and the majority error at each."""
    if max_size < 1:
        raise ValueError("max_size must be positive")
    sizes = np.arange(1, max_size + 1, 2)
    return sizes, _majority_errors(sizes, p)
