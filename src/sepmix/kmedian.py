"""Discrete k-median fitting of spherical mixtures by maximum likelihood.

Centers are restricted to sample points; the objective is the sum of squared
distances to the nearest center.  For a common spherical width the maximizing
variance has the closed form sigma^2 = 2 * objective / (M * n) under the
density normalizer (2 pi sigma)^(-n/2); with that plug-in the quadratic term
of the log-likelihood collapses to exactly M * n / 4.  The textbook
normalizer (2 pi sigma^2)^(-n/2) is available behind ``normalization =
"standard"``, where sigma^2 = objective / (M * n) instead.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classify import _SqDistRows, pairwise_sq_dists
from .errors import (
    DimensionMismatch,
    InconsistentSigma,
    InstanceTooLarge,
    LocalSearchCapWarning,
    TooFewPoints,
    ZeroSigmaWarning,
)
from .model import _int_at_least, _points_of

_NORMALIZATIONS = ("paper", "standard")
# The local search stops after _MAX_ROUNDS swap rounds, warning if the last
# one still improved, or at the first round that improves the objective by
# less than the factor (1 - _IMPROVEMENT_FACTOR / k).
_MAX_ROUNDS = 100
_IMPROVEMENT_FACTOR = 1e-3
# kmedian_exhaustive enumerates at most this many center subsets.
_MAX_SUBSETS = 1_000_000


@dataclass
class KMedianSolution:
    """Centers (sample points), nearest-center assignment, and objective."""

    center_indices: np.ndarray
    centers: np.ndarray
    assignment: np.ndarray
    objective: float

    @property
    def k(self) -> int:
        return self.center_indices.shape[0]


def _solution_from_indices(points, idx, to_centers) -> KMedianSolution:
    """Canonical solution for the ascending center indices ``idx``, ties to
    the lowest center index; ``to_centers`` holds the M x k squared
    distances to points[idx]."""
    assignment = np.argmin(to_centers, axis=1)  # first minimum = lowest index
    diff = points - points[idx][assignment]  # exact, no Gram roundoff
    objective = float(np.einsum("ij,ij->", diff, diff))
    return KMedianSolution(
        center_indices=idx,
        centers=points[idx].copy(),
        assignment=assignment,
        objective=objective,
    )


class _UpperTriangle:
    """The symmetric squared-distance matrix D of ``points``, upper triangle only.

    Stored as row blocks D[lo:hi, lo:], laid end to end in one buffer, each
    formed by _SqDistRows as one GEMM of its rows against the trailing
    points.  A block is about _BLOCK_BYTES and at least _MIN_GEMM_ROWS rows
    (_SqDistRows.gemm_rows), so blocks grow taller as they narrow.  A GEMM
    need not round (i, j) and (j, i) alike, so each block's leading square
    is made symmetric from its upper half: every unordered pair then has one
    value, read both ways.  Memory is about M^2 / 2 entries.

    Raises:
        InstanceTooLarge: the blocks would not fit in physical memory.
    """

    def __init__(self, points: np.ndarray):
        m = points.shape[0]
        bounds = [0]
        while bounds[-1] < m:
            lo = bounds[-1]
            bounds.append(min(m, lo + _SqDistRows.gemm_rows(m - lo)))
        sizes = [(hi - lo) * (m - lo) for lo, hi in zip(bounds, bounds[1:])]
        _SqDistRows.check_memory(
            sum(sizes), f"the upper triangle of a {m} x {m} distance matrix"
        )
        source = _SqDistRows(points)
        self.m = m
        self.los = bounds[:-1]
        self.flat = np.empty(sum(sizes))
        self.blocks = []
        # D[j, c] for c >= row_lo[j], the first column stored in row j, sits
        # at flat[base[j] + c]
        self.row_lo = np.empty(m, dtype=np.intp)
        self.base = np.empty(m, dtype=np.intp)
        offset = 0
        for lo, hi, size in zip(bounds, bounds[1:], sizes):
            blk = self.flat[offset : offset + size].reshape(hi - lo, m - lo)
            source.block(slice(lo, hi), lo, out=blk)
            for r in range(1, hi - lo):
                blk[r, :r] = blk[:r, r]
            self.blocks.append(blk)
            self.row_lo[lo:hi] = lo
            self.base[lo:hi] = offset - lo + (m - lo) * np.arange(hi - lo)
            offset += size

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """The M x len(idx) columns D[:, idx], read as D[j, c] where row j
        stores column c and as D[c, j] where it does not."""
        rows = np.arange(self.m)[:, None]
        at = np.where(
            idx >= self.row_lo[:, None],
            self.base[:, None] + idx,
            self.base[idx] + rows,
        )
        return self.flat[at]

    def column(self, c: int) -> np.ndarray:
        return self.columns(np.array([c]))[:, 0]


def kmedian_local_search(points, k: int, rng: np.random.Generator) -> KMedianSolution:
    """Farthest-point seeding plus best-single-swap descent.

    Each round evaluates every (current center, candidate point) swap and
    applies the best one as long as it improves the objective by the factor
    (1 - _IMPROVEMENT_FACTOR / k); otherwise the search stops.  The objective
    is nonincreasing round to round.  Among equal swap costs the first out
    position, then the lowest candidate index, wins.

    Swap costs come from each point j's nearest-center distance d1_j, that
    center's position near_j and the second-nearest distance d2nd_j (FastPAM1,
    Schubert & Rousseeuw 2019): swapping position i out and point c in costs

        sum_j min(d1_j, D_jc)
          + sum_{j: near_j = i} [min(d2nd_j, D_jc) - min(d1_j, D_jc)],

    exactly, whichever center a tie in d1_j is given to.  Only the upper
    triangle of the distance matrix D is stored (see _UpperTriangle); the
    seeding, the nearest centers and the final assignment read its columns,
    and a round is one pass over it, whatever k is, pricing each stored
    entry for both of its points.

    Raises:
        TooFewPoints: fewer points than centers.
        ValueError: k is not an integer >= 1.
        InstanceTooLarge: the triangle would not fit in physical memory.

    Warns:
        LocalSearchCapWarning: _MAX_ROUNDS ran out while the last round
            still improved the objective.
    """
    points, _ = _points_of(points)
    k = _int_at_least(k, 1, "k")
    m = points.shape[0]
    if m < k:
        raise TooFewPoints(f"{m} points < k = {k}")
    tri = _UpperTriangle(points)

    chosen = [int(rng.integers(m))]
    nearest = tri.column(chosen[0])
    while len(chosen) < k:
        far = int(np.argmax(nearest))  # first max = lowest index on ties
        chosen.append(far)
        np.minimum(nearest, tri.column(far), out=nearest)

    current = np.array(sorted(chosen), dtype=int)
    cost = float(tri.columns(current).min(axis=1).sum())
    shrink = 1.0 - _IMPROVEMENT_FACTOR / k
    for _ in range(_MAX_ROUNDS):
        swap_costs = _swap_costs(tri, current)
        swap_costs[:, current] = np.inf
        best_cost, best_pair = cost, None
        for out_pos in range(k):
            c = int(np.argmin(swap_costs[out_pos]))
            if swap_costs[out_pos, c] < best_cost:
                best_cost, best_pair = float(swap_costs[out_pos, c]), (out_pos, c)
        if best_pair is None or best_cost > shrink * cost:
            break
        current = current.copy()
        current[best_pair[0]] = best_pair[1]
        current.sort()
        cost = best_cost
    else:
        warnings.warn(
            f"local search stopped at max_rounds={_MAX_ROUNDS} while "
            "still improving",
            LocalSearchCapWarning,
        )
    return _solution_from_indices(points, current, tri.columns(current))


def _swap_costs(tri: _UpperTriangle, current: np.ndarray) -> np.ndarray:
    """Objective after each single swap: entry (i, c) swaps current[i] for c.

    Evaluated from nearest and second-nearest center distances, one stored
    block of the triangle at a time, so that no M x M temporary is formed.
    A block's entry D[j, c] (j in the block's rows, c >= lo) prices point j
    against candidate c; beyond the leading square, which holds both orders
    of its pairs, the same entry as D[c, j] also prices point c against
    candidate j.
    """
    m, k = tri.m, current.size
    to_centers = tri.columns(current)
    near = np.argmin(to_centers, axis=1)
    d1 = to_centers[np.arange(m), near]
    if k == 1:
        d2nd = np.full(m, np.inf)
    else:
        d2nd = np.partition(to_centers, 1, axis=1)[:, 1]
    owner = np.zeros((m, k))
    owner[np.arange(m), near] = 1.0
    kept = np.zeros(m)  # sum_j min(d1_j, D_jc), the cost when j keeps its center
    lost = np.zeros((k, m))  # the correction for points whose center leaves
    for lo, blk in zip(tri.los, tri.blocks):
        hi = lo + blk.shape[0]
        # rows j in [lo, hi) against candidates c >= lo
        kept_blk = np.minimum(d1[lo:hi, None], blk)
        kept[lo:] += kept_blk.sum(axis=0)
        moved = np.minimum(d2nd[lo:hi, None], blk)
        moved -= kept_blk
        lost[:, lo:] += owner[lo:hi].T @ moved
        # points j >= hi against candidates c in [lo, hi), read transposed
        tail = blk[:, hi - lo :]
        kept_blk = np.minimum(d1[None, hi:], tail)
        kept[lo:hi] += kept_blk.sum(axis=1)
        moved = np.minimum(d2nd[None, hi:], tail)
        moved -= kept_blk
        lost[:, lo:hi] += (moved @ owner[hi:]).T
    return kept + lost


def kmedian_exhaustive(points, k: int) -> KMedianSolution:
    """Exact optimum over all C(M, k) center subsets (ties: first subset).

    Raises:
        TooFewPoints: fewer points than centers.
        ValueError: k is not an integer >= 1.
        InstanceTooLarge: C(M, k) exceeds _MAX_SUBSETS.
    """
    points, _ = _points_of(points)
    k = _int_at_least(k, 1, "k")
    m = points.shape[0]
    if m < k:
        raise TooFewPoints(f"{m} points < k = {k}")
    total = math.comb(m, k)
    if total > _MAX_SUBSETS:
        raise InstanceTooLarge(f"C({m}, {k}) = {total} > {_MAX_SUBSETS}")
    d2 = pairwise_sq_dists(points)
    best_cost, best_idx = math.inf, None
    combos = itertools.combinations(range(m), k)
    chunk_size = max(1, min(8192, total))
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        idx = np.array(chunk, dtype=int)  # (batch, k)
        costs = d2[:, idx].min(axis=2).sum(axis=0)
        arg = int(np.argmin(costs))
        if costs[arg] < best_cost:
            best_cost, best_idx = float(costs[arg]), idx[arg]
    return _solution_from_indices(points, best_idx, d2[:, best_idx])


def _fitted_points(points, solution: KMedianSolution) -> np.ndarray:
    """The boundary check on points paired with the solution fitted to them.

    Raises:
        DimensionMismatch: malformed points, or a point count other than the
            solution's.
        NonFiniteInput: a coordinate is NaN or infinite.
    """
    points, _ = _points_of(points)
    if points.shape[0] != solution.assignment.shape[0]:
        raise DimensionMismatch(
            f"{points.shape[0]} points, but the solution assigns "
            f"{solution.assignment.shape[0]}"
        )
    return points


def sigma_hat(points, solution: KMedianSolution, normalization: str = "paper") -> float:
    """Maximum-likelihood spherical width for a fixed assignment.

    paper:    sigma^2 = 2 * objective / (M * n)
    standard: sigma^2 = objective / (M * n)

    Raises:
        DimensionMismatch: the points are malformed or are not as many as the
            solution assigns.
        NonFiniteInput: a coordinate is NaN or infinite.
    """
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {_NORMALIZATIONS}")
    m, n = _fitted_points(points, solution).shape
    scale = 2.0 if normalization == "paper" else 1.0
    return math.sqrt(scale * solution.objective / (m * n))


def spherical_log_likelihood(
    points,
    solution: KMedianSolution,
    sigma: float | None = None,
    normalization: str = "paper",
) -> float:
    """Log-likelihood of the points under the fitted spherical model.

    paper:    -[(M n / 2) ln(2 pi sigma) + objective / (2 sigma^2)]
    standard: -[(M n / 2) ln(2 pi sigma^2) + objective / (2 sigma^2)]

    With the matching maximum-likelihood sigma the quadratic term equals
    M n / 4 (paper) or M n / 2 (standard) exactly.  When every point sits on
    its center the likelihood is unbounded: returns +inf with a
    ZeroSigmaWarning.

    Raises:
        InconsistentSigma: the plug-in sigma misses that identity.
        DimensionMismatch: the points are malformed or are not as many as the
            solution assigns.
        NonFiniteInput: a coordinate is NaN or infinite.
    """
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {_NORMALIZATIONS}")
    m, n = _fitted_points(points, solution).shape
    cost = solution.objective
    if sigma is None:
        sigma = sigma_hat(points, solution, normalization)
        if sigma > 0.0:
            quad = cost / (2.0 * sigma * sigma)
            expected = m * n / (4.0 if normalization == "paper" else 2.0)
            if not abs(quad - expected) <= 1e-9 * expected:
                raise InconsistentSigma(
                    f"quadratic term {quad!r} differs from {expected!r} "
                    "at the plug-in sigma"
                )
    if sigma == 0.0:
        warnings.warn("all points coincide with centers", ZeroSigmaWarning)
        return math.inf
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    log_norm = (
        math.log(2.0 * math.pi * sigma)
        if normalization == "paper"
        else math.log(2.0 * math.pi * sigma * sigma)
    )
    return -((m * n / 2.0) * log_norm + cost / (2.0 * sigma * sigma))


@dataclass
class FitResult:
    """Output of fit_spherical_mixture."""

    solution: KMedianSolution
    sigma: float
    log_likelihood: float
    weights: np.ndarray
    normalization: str = "paper"


def fit_spherical_mixture(
    points,
    k: int,
    rng: np.random.Generator,
    normalization: str = "paper",
) -> FitResult:
    """Local-search k-median fit plus width, likelihood, and cluster weights.

    When every point sits on its center the likelihood is +inf, and
    spherical_log_likelihood warns ZeroSigmaWarning once.

    Raises:
        NonFiniteInput: a point coordinate is NaN or infinite.
        ValueError: k is not an integer >= 1.
    """
    points = np.asarray(points, dtype=float)
    solution = kmedian_local_search(points, k, rng)
    sig = sigma_hat(points, solution, normalization)
    loglik = spherical_log_likelihood(points, solution, None, normalization)
    counts = np.bincount(solution.assignment, minlength=k)
    return FitResult(
        solution=solution,
        sigma=sig,
        log_likelihood=loglik,
        weights=counts / points.shape[0],
        normalization=normalization,
    )
