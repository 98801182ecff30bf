"""Discrete k-median fitting of spherical mixtures by maximum likelihood.

Centers are restricted to sample points; the objective is the sum of squared
distances to the nearest center.  For a common spherical width the maximizing
variance has the closed form sigma^2 = 2 * objective / (M * n) under the
density normalizer (2 pi sigma)^(-n/2); with that plug-in the quadratic term
of the log-likelihood collapses to exactly M * n / 4.  The textbook
normalizer (2 pi sigma^2)^(-n/2) is available behind ``normalization =
"standard"``, where sigma^2 = objective / (M * n) instead.

The local search prices its swaps on a float32 copy of the upper triangle of
the squared-distance matrix, each price with a certified bound on its
distance from the float64 one, and forms float64 rows only for the centers
and for the swaps that can still win.  Its memory is that triangle, about
M^2 / 2 float32 entries or a quarter of the float64 matrix, plus O(B M) for
row blocks of B rows.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classify import _aligned_block, _SqDistRows, pairwise_sq_dists
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
    """A float32 screen of the upper triangle of the squared-distance matrix
    D of ``points``, and the row engine (``source``) that forms its float64
    rows.

    Stored as the row blocks D[lo:hi, lo:] of _SqDistRows.triangle, each
    one float32 GEMM of its rows against the trailing points
    (_SqDistRows.screen).  Row r keeps err[r]: every float64 entry the
    engine forms for a pair lies within err of the pair's stored entry, read
    either way.  A GEMM need not round (i, j) and (j, i) alike, so each
    block's leading square is made symmetric from its upper half: every
    unordered pair then has one value.  Memory is about M^2 / 2 float32
    entries, a quarter of the float64 matrix.  A void screen (float32
    overflow) stores no block.

    Raises:
        InstanceTooLarge: the blocks would not fit in physical memory.
        NonFiniteInput: the squared distances could overflow.
    """

    def __init__(self, points: np.ndarray):
        self.source = _SqDistRows(points)
        self.los, self.blocks = [], []
        if self.source.screen_void:
            return
        m = points.shape[0]
        grid = self.source.triangle()
        _SqDistRows.check_memory(
            sum((hi - lo) * (m - lo) for lo, hi in grid),
            f"the float32 upper triangle of a {m} x {m} distance matrix",
            np.float32,
        )
        self.err = np.empty(m)
        for lo, hi in grid:
            blk = np.empty((hi - lo, m - lo), np.float32)
            self.err[lo:hi] = self.source.screen(slice(lo, hi), lo, out=blk)[1]
            square = blk[:, : hi - lo]
            np.copyto(square, square.T, where=np.tri(hi - lo, k=-1, dtype=bool))
            self.los.append(lo)
            self.blocks.append(blk)


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

    exactly, whichever center a tie in d1_j is given to.

    Distances are read from the points less their mean (see _centered).
    Every float64 value is an entry of a row formed in that row's aligned
    block of B rows (classify._aligned_block), so it has the same bits
    whenever it is read.  The seeding, each round's d1, d2nd, near and cost,
    and the final assignment read the k center rows; the objective is then
    computed exactly from the points.  A round first prices every swap on a
    float32 screen of the triangle (see _UpperTriangle and _swap_costs),
    each cost with a certified bound on its distance from the float64 one.
    It stops when no lower bound reaches the improvement the round needs;
    otherwise only the swaps whose lower bound reaches the least upper
    bound, which include every swap that could win or tie, are priced in
    float64, from their candidates' rows (_price_exactly).  When the screen
    is void, or a float32 sum overflows, every swap is priced in float64,
    one aligned block at a time.  Memory is the float32 triangle, about
    M^2 / 2 entries, plus O(B M).

    Raises:
        TooFewPoints: fewer points than centers.
        ValueError: k is not an integer >= 1.
        InstanceTooLarge: the triangle would not fit in physical memory.
        NonFiniteInput: the squared distances could overflow.

    Warns:
        LocalSearchCapWarning: _MAX_ROUNDS ran out while the last round
            still improved the objective.
    """
    points, _ = _points_of(points)
    k = _int_at_least(k, 1, "k")
    m = points.shape[0]
    if m < k:
        raise TooFewPoints(f"{m} points < k = {k}")
    tri = _UpperTriangle(_centered(points))
    source = tri.source

    held = {}  # the center rows read last, kept across rounds
    chosen = [int(rng.integers(m))]
    nearest = _center_rows(source, chosen, held)[:, 0].copy()
    while len(chosen) < k:
        far = int(np.argmax(nearest))  # first max = lowest index on ties
        chosen.append(far)
        np.minimum(nearest, _center_rows(source, chosen, held)[:, -1], out=nearest)

    current = np.array(sorted(chosen), dtype=int)
    shrink = 1.0 - _IMPROVEMENT_FACTOR / k
    for _ in range(_MAX_ROUNDS):
        d1, d2nd, owner = _nearest_centers(_center_rows(source, current, held))
        cost = float(d1.sum())
        pairs = np.ones((k, m), dtype=bool)
        if tri.blocks:
            screened, bound = _swap_costs(tri, d1, d2nd, owner)
            if np.isfinite(bound).all():
                screened[:, current] = np.inf
                lower = screened - bound
                if not (lower <= shrink * cost).any():
                    break
                pairs = lower <= (screened + bound).min()
        swap_costs = _price_exactly(source, pairs, d1, d2nd, owner)
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
    else:
        warnings.warn(
            f"local search stopped at max_rounds={_MAX_ROUNDS} while "
            "still improving",
            LocalSearchCapWarning,
        )
    return _solution_from_indices(
        points, current, _center_rows(source, current, held)
    )


def _centered(points: np.ndarray) -> np.ndarray:
    """The points less their mean, rounded per coordinate to a multiple of
    the greatest power of two q not above that coordinate's range.  A
    centered coordinate then lies within 1.5 times its range of 0, and points
    on a grid of spacing q or coarser, an integer lattice among them, stay on
    it, so their squared distances stay exact."""
    span = points.max(axis=0) - points.min(axis=0)
    q = np.ldexp(1.0, np.frexp(span)[1] - 1)
    return points - np.rint(points.mean(axis=0) / q) * q


def _center_rows(source: _SqDistRows, idx, held: dict) -> np.ndarray:
    """The M x len(idx) squared distances to the points ``idx``: column c is
    row idx[c], read from its aligned block.  ``held`` maps the points read
    last time to their rows, and is left holding idx's."""
    rows = {}
    for c in map(int, idx):
        if c in held:
            rows[c] = held[c]
        else:
            lo, blk = _aligned_block(source, c)
            rows[c] = blk[c - lo].copy()
    held.clear()
    held.update(rows)
    return np.stack([rows[c] for c in map(int, idx)], axis=1)


def _nearest_centers(to_centers: np.ndarray) -> tuple[np.ndarray, ...]:
    """d1, d2nd (inf at k = 1) and the M x k indicator of each point's
    nearest center, ties to the lowest position, from the M x k squared
    distances to the centers."""
    m, k = to_centers.shape
    near = np.argmin(to_centers, axis=1)
    d1 = to_centers[np.arange(m), near]
    d2nd = np.partition(to_centers, 1, axis=1)[:, 1] if k > 1 else np.full(m, np.inf)
    owner = np.zeros((m, k))
    owner[np.arange(m), near] = 1.0
    return d1, d2nd, owner


def _swap_costs(
    tri: _UpperTriangle, d1: np.ndarray, d2nd: np.ndarray, owner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Screened swap costs, entry (i, c) for swapping out position i for
    candidate c, and a bound on how far each lies from its float64 price.

    ``owner`` is the M x k indicator of each point's nearest center.  One
    pass over the stored float32 blocks, so no M x M temporary is formed.  A
    block's entry D[j, c] (j in the block's rows, c >= lo) prices point j
    against candidate c; beyond the leading square, which holds both orders
    of its pairs, the same entry as D[c, j] also prices point c against
    candidate j.  Thresholds d1 and d2nd are rounded to float32, each block's
    sums are float32, and the blocks' sums are accumulated in float64.

    With u = 2^-24, E = max err over the rows, S the screened cost and t_j
    the larger of d1_j and d2nd_j that is finite (d2nd is inf at k = 1),

        bound = (1 + 2^-20) [M E + u sum_j t_j + 3 (M + 1) u S].

    Derivation.  Each term of the cost, min(d1_j, D_jc) or min(d2nd_j, D_jc),
    moves by at most as much as D_jc or its threshold does, so the stored
    entries move the exact-arithmetic cost by at most M E, and rounding the
    thresholds to float32 by at most u sum_j t_j (d1_j <= d2nd_j, and inf
    rounds to itself); the 2^-100 in err also covers rounding a subnormal
    threshold.  The terms are nonnegative.  No float32 sum, or GEMM, adds
    more than M of them, and forming min(d2nd, D) - min(d1, D) rounds once
    more, so each block's float32 sums lie within
    gamma_(M+1) = (M + 1) u / (1 - (M + 1) u) of their exact value, relative
    to the sum of their terms (Higham 2002, section 3.1; owner's entries are
    0 or 1, so its products are exact).
    The float64 accumulation adds far less than that, so S lies within
    2 gamma / (1 - 2 gamma) S < 3 (M + 1) u S of the exact sum of its terms
    when (M + 1) u <= 1/16.  The factor 1 + 2^-20 covers the float64
    summation of an exact price and the rounding of the bound and of
    S -/+ bound.  A float32 sum that overflows is infinite, and so is its
    bound; at (M + 1) u > 1/16 every bound is infinite.  That is the bound's
    own validity condition: it takes M >= 2^20 points, whose triangle needs
    about 2 TiB, so only a machine with that much memory reaches it.
    """
    m, k = owner.shape
    a, b = d1.astype(np.float32), d2nd.astype(np.float32)
    owner = owner.astype(np.float32)
    kept = np.zeros(m)  # sum_j min(d1_j, D_jc), the cost when j keeps its center
    lost = np.zeros((k, m))  # the correction for points whose center leaves
    with np.errstate(over="ignore"):
        for lo, blk in zip(tri.los, tri.blocks):
            hi = lo + blk.shape[0]
            # rows j in [lo, hi) against candidates c >= lo
            kept_blk = np.minimum(a[lo:hi, None], blk)
            kept[lo:] += kept_blk.sum(axis=0)
            moved = np.minimum(b[lo:hi, None], blk)
            moved -= kept_blk
            lost[:, lo:] += owner[lo:hi].T @ moved
            # points j >= hi against candidates c in [lo, hi), read transposed
            tail = blk[:, hi - lo :]
            kept_blk = np.minimum(a[None, hi:], tail)
            kept[lo:hi] += kept_blk.sum(axis=1)
            moved = np.minimum(b[None, hi:], tail)
            moved -= kept_blk
            lost[:, lo:hi] += (moved @ owner[hi:]).T
    costs = kept + lost
    u = 2.0**-24
    if (m + 1) * u > 1.0 / 16.0:
        return costs, np.full_like(costs, np.inf)
    largest = np.where(d2nd < np.inf, d2nd, d1)
    bound = m * tri.err.max() + u * largest.sum() + 3.0 * (m + 1) * u * costs
    bound *= 1.0 + 2.0**-20
    return costs, bound


def _price_exactly(
    source: _SqDistRows,
    pairs: np.ndarray,
    d1: np.ndarray,
    d2nd: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """Float64 swap costs, k x M, of every candidate with a pair marked in
    ``pairs``, and inf for the others.

    Each aligned block that holds such a candidate is formed once
    (classify._aligned_block), and all its candidates are priced for every
    out position from their rows, so a candidate's price depends only on
    its row, d1, d2nd and owner.  Memory is O(B M).
    """
    k, m = pairs.shape
    costs = np.full((k, m), np.inf)
    step = source.step
    for start in np.unique(np.flatnonzero(pairs.any(axis=0)) // step):
        lo, blk = _aligned_block(source, int(start) * step)
        kept = np.minimum(d1, blk)
        moved = np.minimum(d2nd, blk)
        moved -= kept
        costs[:, lo : lo + blk.shape[0]] = kept.sum(axis=1) + (moved @ owner).T
    return costs


def kmedian_exhaustive(points, k: int) -> KMedianSolution:
    """Exact optimum over all C(M, k) center subsets (ties: first subset).

    Raises:
        TooFewPoints: fewer points than centers.
        ValueError: k is not an integer >= 1.
        InstanceTooLarge: C(M, k) exceeds _MAX_SUBSETS.
        NonFiniteInput: the squared distances could overflow.
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
    points, solution: KMedianSolution, normalization: str = "paper"
) -> float:
    """Log-likelihood of the points under the fitted spherical model, at the
    maximum-likelihood sigma (sigma_hat).

    paper:    -[(M n / 2) ln(2 pi sigma) + objective / (2 sigma^2)]
    standard: -[(M n / 2) ln(2 pi sigma^2) + objective / (2 sigma^2)]

    At that sigma the quadratic term equals M n / 4 (paper) or M n / 2
    (standard) exactly.  When every point sits on its center the likelihood
    is unbounded: returns +inf with a ZeroSigmaWarning.

    Raises:
        InconsistentSigma: the plug-in sigma misses that identity.
        DimensionMismatch: the points are malformed or are not as many as the
            solution assigns.
        NonFiniteInput: a coordinate is NaN or infinite.
    """
    sigma = sigma_hat(points, solution, normalization)
    if sigma == 0.0:
        warnings.warn("all points coincide with centers", ZeroSigmaWarning)
        return math.inf
    m, n = _fitted_points(points, solution).shape
    quad = solution.objective / (2.0 * sigma * sigma)
    expected = m * n / (4.0 if normalization == "paper" else 2.0)
    if not abs(quad - expected) <= 1e-9 * expected:
        raise InconsistentSigma(
            f"quadratic term {quad!r} differs from {expected!r} at the plug-in sigma"
        )
    log_norm = (
        math.log(2.0 * math.pi * sigma)
        if normalization == "paper"
        else math.log(2.0 * math.pi * sigma * sigma)
    )
    return -((m * n / 2.0) * log_norm + quad)


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
    loglik = spherical_log_likelihood(points, solution, normalization)
    counts = np.bincount(solution.assignment, minlength=k)
    return FitResult(
        solution=solution,
        sigma=sig,
        log_likelihood=loglik,
        weights=counts / points.shape[0],
        normalization=normalization,
    )
