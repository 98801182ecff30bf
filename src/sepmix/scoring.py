"""Scoring a predicted partition against ground-truth labels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import Partition
from .errors import IndexMismatch


@dataclass(frozen=True)
class MatchResult:
    """Best-bijection agreement between predicted clusters and true classes.

    ``confusion[a, b]`` counts points of matched predicted cluster a landing
    in true class b after reordering clusters by the optimal bijection, so
    agreements sit on the diagonal.  ``mapping[a]`` is the true class matched
    to predicted cluster a.
    """

    exact_match: bool
    agreement: int
    confusion: np.ndarray
    mapping: np.ndarray


def partition_compare(predicted: Partition, truth_labels) -> MatchResult:
    """Score a partition against labels, maximizing agreement over bijections.

    Raises:
        IndexMismatch: the labels are not a 1-D array of nonnegative
            integers (integral floats such as 1.0 pass), or the partition
            does not cover exactly the label index range 0..M-1.
    """
    truth = _labels(truth_labels)
    m = truth.shape[0]
    covered = (
        np.concatenate(predicted.clusters) if predicted.clusters else np.array([], int)
    )
    if covered.size != m or np.unique(covered).size != m or (
        covered.size and (covered.min() != 0 or covered.max() != m - 1)
    ):
        raise IndexMismatch(
            f"partition covers {covered.size} indices, labels have {m}"
        )
    k_pred = predicted.k
    k_true = int(truth.max()) + 1 if m else 0
    k = max(k_pred, k_true)
    contingency = np.zeros((k, k), dtype=int)
    for a, cluster in enumerate(predicted.clusters):
        if cluster.size:
            contingency[a, :k_true] += np.bincount(truth[cluster], minlength=k_true)
    mapping = _max_assignment(contingency)
    confusion = contingency[:, mapping]
    agreement = int(np.trace(confusion))
    return MatchResult(
        exact_match=bool(agreement == m),
        agreement=agreement,
        confusion=confusion,
        mapping=mapping[:k_pred],
    )


def _labels(truth_labels) -> np.ndarray:
    """The boundary check on labels: a 1-D int array, each label >= 0.

    Floats pass when every one is integral; bools and other dtypes do not.
    """
    raw = np.asarray(truth_labels)
    if raw.ndim != 1:
        raise IndexMismatch(f"labels must be 1-D, got shape {raw.shape}")
    if raw.dtype.kind == "f":
        bad = ~np.isfinite(raw) | (raw < 0) | (raw != np.trunc(raw))
    elif raw.dtype.kind in "iu":
        bad = raw < 0
    else:
        raise IndexMismatch(f"labels must be integers, got dtype {raw.dtype}")
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IndexMismatch(f"label {i} is {raw.tolist()[i]!r}, not a nonnegative integer")
    return raw.astype(int)


def _max_assignment(counts: np.ndarray) -> np.ndarray:
    """The column each row of the square matrix ``counts`` is matched to in
    a bijection of largest total count: what
    ``scipy.optimize.linear_sum_assignment(counts, maximize=True)[1]``
    returns, tie for tie.

    A square-only port of scipy's rectangular_lsap.cpp (BSD-3-Clause), the
    shortest augmenting path method of Crouse (2016, IEEE Trans. Aerosp.
    Electron. Syst. 52(4):1679).  It keeps scipy's order of operations, so
    among bijections of equal count it returns the one scipy returns.
    scipy computes in float64 on the negated counts; every count is an
    integer below 2**53, so its arithmetic is exact and Python ints
    reproduce it.
    """
    cost = (-counts).tolist()
    k = len(cost)
    u, v = [0] * k, [0] * k
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for cur in range(k):
        # one shortest path search from row cur to a column no row holds
        shortest = [math.inf] * k
        rows, cols = [], []
        # descending, so that a constant matrix is matched to the identity
        remaining = list(range(k - 1, -1, -1))
        low, i, sink = 0, cur, -1
        while sink == -1:
            rows.append(i)
            index, lowest = -1, math.inf
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = low + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # among equal costs prefer a column no row holds yet
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            low = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the duals, then augment along the path
        u[cur] += low
        for i in rows[1:]:
            u[i] += low - shortest[col4row[i]]
        for j in cols:
            v[j] -= low - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=int)
