"""Majority-vote asymptotics for committees of independent members.

condorcet_error gives the probability that a majority of `size`
independent members, each correct with probability p, votes wrongly:

    sum_{k > size/2} C(size, k) * (1-p)**k * p**(size-k)

Terms are evaluated in log space with log-gamma so sizes in the
thousands neither overflow nor underflow.  Committee sizes must be odd;
ties are undefined and deliberately rejected.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp


def condorcet_error(size: int, p: float) -> float:
    """Probability that the majority of `size` members errs, members iid
    correct with probability p."""
    if size < 1 or size % 2 == 0:
        raise ValueError("size must be odd and positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"accuracy {p} outside [0, 1]")
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    k = np.arange(size // 2 + 1, size + 1, dtype=np.float64)
    log_terms = (
        gammaln(size + 1.0)
        - gammaln(k + 1.0)
        - gammaln(size - k + 1.0)
        + k * np.log1p(-p)
        + (size - k) * np.log(p)
    )
    return float(min(1.0, np.exp(logsumexp(log_terms))))


def condorcet_curve(p: float, max_size: int) -> list[tuple[int, float]]:
    """(size, majority error) for every odd size up to max_size."""
    if max_size < 1:
        raise ValueError("max_size must be positive")
    return [(e, condorcet_error(e, p)) for e in range(1, max_size + 1, 2)]


def odds_ratio(a: float) -> float:
    """a / (1 - a); the signal carried by a member of accuracy a."""
    if not 0.0 <= a < 1.0:
        raise ValueError("odds ratio needs accuracy in [0, 1)")
    return a / (1.0 - a)

