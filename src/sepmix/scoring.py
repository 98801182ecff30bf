"""Scoring a predicted partition against ground-truth labels."""

from __future__ import annotations

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
        IndexMismatch: the partition does not cover exactly the label index
            range 0..M-1.
    """
    # imported on first use, as every scipy module (tests/test_imports.py)
    from scipy.optimize import linear_sum_assignment

    truth = np.asarray(truth_labels, dtype=int).reshape(-1)
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
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    mapping = np.empty(k, dtype=int)
    mapping[rows] = cols
    agreement = int(contingency[rows, cols].sum())
    confusion = contingency[:, mapping]
    return MatchResult(
        exact_match=bool(agreement == m),
        agreement=agreement,
        confusion=confusion,
        mapping=mapping[:k_pred],
    )
