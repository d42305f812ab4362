"""Majority-vote asymptotics for committees of independent members.

condorcet_error gives the probability that a majority of n independent
members, each correct with probability p, votes wrongly:

    sum_{n/2 < k <= n} C(n, k) * (1-p)**k * p**(n-k)

Committee sizes must be odd; ties are undefined and deliberately rejected.
Terms are evaluated in log space with log-gamma, so sizes in the thousands
neither overflow nor underflow:

    a_k = G(n+1) - G(k+1) - G(n-k+1) + k*log1p(-p) + (n-k)*log(p)

with G = log Gamma read from one table over 0, 1, ..., n_max + 1, which
_special.log_gamma_range fills with the bits of scipy.special.gammaln.
Each size's terms are then summed with the arithmetic of scipy's
`logsumexp` on a real 1-D array: a_max is their maximum, m counts the terms
equal to it, those are set to -inf, s = np.sum(exp(a_k - a_max)) over that
size's terms alone (numpy's pairwise order, so no padding or shared
reduction), s /= m unless s == 0, and the error is
min(1, exp(log1p(s) + log(m) + a_max)).  A curve
evaluates all its odd sizes in one vectorised pass, which gives the same
bits as one call per size.  The pass holds the terms of whole sizes in
chunks of at most _CHUNK_TERMS = 2^19 values, in plain numpy temporaries
that each chunk makes and frees; a curve to n_max has about n_max^2/8
terms, so memory stays bounded while the work grows with n_max^2.
"""

from __future__ import annotations

import numpy as np

from qens._special import log_gamma_range

_CHUNK_TERMS = 1 << 19  # log terms held at once; a size's terms are never split


def _majority_errors(sizes, p: float) -> np.ndarray:
    """Majority error for each odd size in the ascending sequence `sizes`,
    members iid correct with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"accuracy {p} outside [0, 1]")
    sizes = np.asarray(sizes, dtype=np.int64)
    if p == 0.0 or p == 1.0:
        return np.full(len(sizes), float(p == 0.0))
    g = log_gamma_range(int(sizes[-1]) + 2)
    log_q, log_p = np.log1p(-p), np.log(p)
    widths = (sizes + 1) // 2  # the terms k = n//2 + 1, ..., n
    ends = np.cumsum(widths)
    errors = np.empty(len(sizes))
    lo = 0
    while lo < len(sizes):
        # at most _CHUNK_TERMS terms, or a single size's
        limit = ends[lo] - widths[lo] + _CHUNK_TERMS
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        errors[lo:hi] = _chunk_errors(sizes[lo:hi], g, log_q, log_p)
        lo = hi
    return errors


def _chunk_errors(n, g, log_q, log_p) -> np.ndarray:
    """_majority_errors for the sizes n, whose terms are all held at once."""
    widths = (n + 1) // 2
    starts = np.cumsum(widths) - widths
    k = np.arange(widths.sum()) + np.repeat(n // 2 + 1 - starts, widths)
    n_k = np.repeat(n, widths) - k
    a = np.repeat(g[n + 1], widths)
    a -= g[1:][k]  # G(k + 1)
    a -= g[1:][n_k]
    a += k * log_q
    a += n_k * log_p
    del k, n_k  # the index rows go as soon as the log terms are formed
    a_max = np.maximum.reduceat(a, starts)
    spread = np.repeat(a_max, widths)
    top = a == spread
    m = np.add.reduceat(top, starts, dtype=np.float64)
    a[top] = -np.inf
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
