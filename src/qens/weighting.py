"""Committee decisions over exhaustively enumerated parameter grids.

Four weight schemes map a model's training accuracy a to a vote weight:

  uniform             1
  accuracy            a
  log_odds            log(a / (1 - a)), the optimal independent-expert
                      weight; unbounded at a in {0, 1}
  effective_centered  a - 1/2, the signed weight that survives when a
                      point-symmetric ensemble is folded onto its
                      better-than-chance half

vote(weights, labels) is the decision at one query from each model's
weight w_theta and int8 label f(x; theta) in {-1, +1}; ensemble_decide
derives both from a grid, a dataset and a scheme.  The raw score is
sum_theta w_theta * f(x; theta).  Per-label masses
p(+-1) = sum_{f = +-1} w_theta / sum_theta w_theta are probabilities for
the non-negative schemes; for signed schemes they are formal and become
NaN when the total weight vanishes (for example log_odds on a symmetric
grid, where the pair weights cancel exactly).

All reductions over the grid go through tree_sum, a fixed-shape pairwise
reduction.  Its result depends only on the operand array, never on chunk
or thread boundaries, which is what makes repeated runs byte identical.
signed_tree_sum is a bit-exact evaluation of tree_sum for the case where
every term is +-w_theta, a weight times a classifier sign: tree_sum's
first three levels pair only inside aligned groups of 8 models, so one
table of the 256 signed sums per group, indexed by the group's packed
sign bits, gives its level-3 array with the same additions in the same
order, and tree_sum reduces the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    Dataset,
    ModelFamily,
    ParameterGrid,
    decode_all,
    grid_correct_counts,
    predict_many,
)

DEFAULT_MODEL_CAP = 1 << 24


class EnumerationCapError(RuntimeError):
    """Grid larger than the exhaustive enumeration cap."""


class DegenerateEnsembleError(ValueError):
    """Every model carries zero weight; no decision is defined."""


class UnboundedWeightError(ValueError):
    """log_odds requested for a model of accuracy 0 or 1."""


class WeightScheme(Enum):
    UNIFORM = "uniform"
    ACCURACY = "accuracy"
    LOG_ODDS = "log_odds"
    EFFECTIVE_CENTERED = "effective_centered"


def tree_sum(values: np.ndarray):
    """Pairwise (tree) sum over the first axis, with a shape that depends
    only on its length.

    Adjacent elements are paired level by level; an odd leftover is
    carried unchanged.  The same tree is used everywhere, so partial
    evaluation over the other axes (chunking, threads) cannot change
    a single bit of the result.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape[0] == 0:
        return np.zeros(arr.shape[1:], dtype=np.float64)
    while arr.shape[0] > 1:
        m = arr.shape[0] - (arr.shape[0] % 2)
        head = arr[0:m:2] + arr[1:m:2]
        arr = head if m == arr.shape[0] else np.concatenate([head, arr[-1:]], axis=0)
    out = arr[0]
    return float(out) if out.ndim == 0 else out


_GROUP = 8  # rows per packed sign byte: tree_sum's first three levels pair only inside them


def signed_sum_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every signed sum of each aligned group of 8 weights, for signed_tree_sum.

    Returns the (G, 256) table of the G = E // 8 full groups and the E % 8
    tail weights.  Entry b of group g is tree_sum's level-3 value for
    signs s_j = -1 where bit j of b is set: the terms +-w are paired in
    the same order with the same additions, so each entry has its bits.
    """
    w = np.asarray(weights, dtype=np.float64)
    full = w.shape[0] - w.shape[0] % _GROUP
    # level 0 is (+w, -w) per row; each level adds neighbour pairs as tree_sum does,
    # the second of a pair indexing the high half of the new entries
    table = np.stack([w[:full], -w[:full]], axis=1).reshape(full // _GROUP, _GROUP, 2)
    while table.shape[1] > 1:
        g, rows, n = table.shape
        table = (table[:, 0::2, None, :] + table[:, 1::2, :, None]).reshape(g, rows // 2, n * n)
    return table[:, 0], w[full:]


def signed_tree_sum(table: tuple[np.ndarray, np.ndarray], signs: np.ndarray) -> np.ndarray:
    """tree_sum(w[:, None] * signs) bit for bit, for (E, N) int8 signs in
    {-1, +1}, from the packed sign bits and signed_sum_table(w)."""
    groups, tail = table
    signs = np.asarray(signs, dtype=np.int8)
    full = groups.shape[0] * _GROUP
    if signs.shape[0] != full + tail.size:
        raise ValueError("one sign row per weight is required")
    # a -1 is 0xff and a +1 is 0x01: bit j of a group's row j is set iff its sign is -1
    neg = signs[:full].view(np.uint8).reshape(groups.shape[0], _GROUP, signs.shape[1])
    packed = neg[:, 0] >> 7
    for j in range(1, _GROUP):
        packed |= neg[:, j] & np.uint8(1 << j)
    index = packed.astype(np.intp)
    index += np.arange(0, groups.size, groups.shape[1], dtype=np.intp)[:, None]
    rows = np.empty((groups.shape[0] + (tail.size > 0), signs.shape[1]), dtype=np.float64)
    # every index is in range; mode "raise" would copy through a buffer the size of out
    np.take(groups.ravel(), index, out=rows[: groups.shape[0]], mode="clip")
    del index  # freed before tree_sum's levels exist
    if tail.size:
        rows[-1] = tree_sum(tail[:, None] * signs[full:].astype(np.float64))
    return tree_sum(rows)


@dataclass(frozen=True)
class EnsembleDecision:
    """Outcome of one exhaustive vote at a single query point."""

    raw_score: float
    label: int
    p_plus: float
    p_minus: float


def weights_for(scheme: WeightScheme | str, accuracies: np.ndarray) -> np.ndarray:
    """Vote weight of every model, given its training accuracy."""
    scheme = WeightScheme(scheme)
    a = np.asarray(accuracies, dtype=np.float64)
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError("accuracies outside [0, 1]")
    if scheme is WeightScheme.UNIFORM:
        return np.ones_like(a)
    if scheme is WeightScheme.ACCURACY:
        return a.copy()
    if scheme is WeightScheme.EFFECTIVE_CENTERED:
        return a - 0.5
    if np.any((a == 0.0) | (a == 1.0)):
        raise UnboundedWeightError("log_odds diverges at accuracy 0 or 1")
    return np.log(a / (1.0 - a))


def vote(weights: np.ndarray, labels: np.ndarray) -> EnsembleDecision:
    """Weighted vote of the models whose labels at the query are `labels`
    (int8 in {-1, +1}), one weight per model."""
    w = np.asarray(weights, dtype=np.float64)
    preds = np.asarray(labels).astype(np.float64)
    if w.shape != preds.shape:
        raise ValueError("one weight per model is required")
    if not np.any(w != 0.0):
        raise DegenerateEnsembleError("all model weights are zero")
    raw = tree_sum(w * preds)
    total = tree_sum(w)
    if total != 0.0:
        p_plus = tree_sum(w * (preds > 0)) / total
        p_minus = tree_sum(w * (preds < 0)) / total
    else:
        p_plus = p_minus = math.nan
    return EnsembleDecision(raw, 1 if raw >= 0 else -1, p_plus, p_minus)


def ensemble_decide(
    family: ModelFamily,
    grid: ParameterGrid,
    dataset: Dataset,
    scheme: WeightScheme | str,
    x: np.ndarray,
) -> EnsembleDecision:
    """Exhaustive vote of every grid model, weighted by `scheme`."""
    if grid.size > DEFAULT_MODEL_CAP:
        raise EnumerationCapError(f"grid has {grid.size} models, cap is {DEFAULT_MODEL_CAP}")
    acc = grid_correct_counts(family, grid, dataset) / float(len(dataset))
    w = weights_for(scheme, acc)
    return vote(w, predict_many(family, decode_all(grid), np.atleast_1d(x))[:, 0])


def effective_expectation(
    family: ModelFamily, grid: ParameterGrid, dataset: Dataset, x: np.ndarray
) -> float:
    """Score of the better-than-chance half under centered weights, over E.

    For point-symmetric families on symmetric grids this equals half the
    full accuracy-weighted score divided by E: the chance-or-worse half
    is redundant because each model's negation inverts both its
    prediction and its accuracy.  Models at exactly chance carry zero
    weight and are excluded (their pair partner is excluded too).
    """
    if not family.is_point_symmetric:
        raise ValueError(f"{family.kind} is not point symmetric")
    if not grid.is_symmetric:
        raise ValueError("grid intervals must be symmetric around zero")
    m = len(dataset)
    counts = grid_correct_counts(family, grid, dataset)
    mask = 2 * counts > m
    if not np.any(mask):
        return 0.0
    labels = predict_many(family, decode_all(grid)[mask], np.atleast_1d(x))[:, 0]
    weights = weights_for(WeightScheme.EFFECTIVE_CENTERED, counts[mask] / float(m))
    return vote(weights, labels).raw_score / float(grid.size)
