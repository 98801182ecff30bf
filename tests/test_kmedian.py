import itertools
import math
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import sepmix.kmedian
from conftest import kmedian_cost
from sepmix import classify as classify_module
from sepmix.classify import _SqDistRows, pairwise_sq_dists
from sepmix.errors import (
    DimensionMismatch,
    InconsistentSigma,
    InstanceTooLarge,
    LocalSearchCapWarning,
    NonFiniteInput,
    TooFewPoints,
    ZeroSigmaWarning,
)
from sepmix.kmedian import (
    FitResult,
    _UpperTriangle,
    fit_spherical_mixture,
    kmedian_exhaustive,
    kmedian_local_search,
    sigma_hat,
    spherical_log_likelihood,
)
from sepmix.model import Mixture, make_gaussian, sample_mixture


def _col(vals):
    return np.asarray(vals, dtype=float)[:, None]


# ---------------------------------------------------------------------------
# cost oracle
# ---------------------------------------------------------------------------


def test_cost_zero_when_centers_are_points():
    pts = np.random.default_rng(0).normal(size=(7, 3))
    assert kmedian_cost(pts, pts) == 0.0


def test_cost_single_center_line():
    assert kmedian_cost(_col([0.0, 2.0]), _col([0.0])) == pytest.approx(4.0)


def test_cost_matches_double_loop():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(25, 4))
    centers = pts[rng.choice(25, size=3, replace=False)]
    brute = 0.0
    for x in pts:
        brute += min(float(np.sum((x - c) ** 2)) for c in centers)
    assert kmedian_cost(pts, centers) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------


def test_local_search_m_equals_k():
    pts = np.random.default_rng(2).normal(size=(5, 2))
    sol = kmedian_local_search(pts, 5, np.random.default_rng(3))
    assert sol.objective == 0.0
    assert sorted(sol.center_indices.tolist()) == [0, 1, 2, 3, 4]


def test_local_search_line_three_points():
    sol = kmedian_local_search(_col([0.0, 1.0, 10.0]), 2, np.random.default_rng(4))
    assert sol.objective == pytest.approx(1.0)
    assert 2 in sol.center_indices  # the outlier is always its own center


def test_local_search_single_center_pair():
    sol = kmedian_local_search(_col([0.0, 2.0]), 1, np.random.default_rng(5))
    assert sol.objective == pytest.approx(4.0)
    assert sol.center_indices[0] in (0, 1)


def test_local_search_too_few_points():
    with pytest.raises(TooFewPoints):
        kmedian_local_search(np.zeros((2, 2)), 3, np.random.default_rng(0))


def test_exhaustive_too_few_points():
    with pytest.raises(TooFewPoints, match="2 points < k = 3"):
        kmedian_exhaustive(np.zeros((2, 2)), 3)


def test_local_search_assignment_consistent():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(60, 3))
    sol = kmedian_local_search(pts, 4, rng)
    # assignment maps to the nearest center with ties to the lowest index
    d2 = ((pts[:, None, :] - sol.centers[None]) ** 2).sum(axis=2)
    assert np.array_equal(sol.assignment, np.argmin(d2, axis=1))
    recomputed = float(d2[np.arange(60), sol.assignment].sum())
    assert sol.objective == pytest.approx(recomputed, rel=1e-12)


def test_local_search_no_worse_than_seeding(monkeypatch):
    # accepted swaps only ever lower the objective, so the result can never
    # exceed the plain farthest-point seed cost for the same stream
    rng_pts = np.random.default_rng(7)
    pts = np.vstack(
        [rng_pts.normal(size=(30, 2)), rng_pts.normal(size=(30, 2)) + 12.0]
    )
    sol = kmedian_local_search(pts, 2, np.random.default_rng(8))
    monkeypatch.setattr(sepmix.kmedian, "_MAX_ROUNDS", 1)
    with pytest.warns(LocalSearchCapWarning):
        seeded_only = kmedian_local_search(pts, 2, np.random.default_rng(8))
    assert sol.objective <= seeded_only.objective + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.01, max_value=100.0),
)
@example(seed=644, scale=97.0)  # two center sets cost exactly 17.488783228040326
def test_local_search_scale_equivariance(seed, scale):
    pts = np.random.default_rng(seed).normal(size=(20, 2))
    a = kmedian_local_search(pts, 3, np.random.default_rng(seed + 1))
    b = kmedian_local_search(pts * scale, 3, np.random.default_rng(seed + 1))
    if not np.array_equal(a.center_indices, b.center_indices):
        # roundoff in the scaled distances may only break a genuine tie
        tied = kmedian_cost(pts, pts[b.center_indices])
        assert tied == pytest.approx(a.objective, rel=1e-12)
    assert b.objective == pytest.approx(scale * scale * a.objective, rel=1e-9)


# ---------------------------------------------------------------------------
# swap costs against the direct evaluation
# ---------------------------------------------------------------------------


def _reference_local_search(points, k, rng):
    """kmedian_local_search with one M x M temporary per out-position, under
    the module's round cap and improvement factor; returns the sorted center
    indices."""
    m = points.shape[0]
    d2 = pairwise_sq_dists(points)
    chosen = [int(rng.integers(m))]
    nearest = d2[:, chosen[0]].copy()
    while len(chosen) < k:
        far = int(np.argmax(nearest))
        chosen.append(far)
        np.minimum(nearest, d2[:, far], out=nearest)
    current = np.array(sorted(chosen), dtype=int)
    cost = float(d2[:, current].min(axis=1).sum())
    shrink = 1.0 - sepmix.kmedian._IMPROVEMENT_FACTOR / k
    for _ in range(sepmix.kmedian._MAX_ROUNDS):
        best_cost, best_pair = cost, None
        in_set = np.zeros(m, dtype=bool)
        in_set[current] = True
        for out_pos in range(k):
            keep = np.delete(current, out_pos)
            base = d2[:, keep].min(axis=1) if keep.size else np.full(m, np.inf)
            cand_costs = np.minimum(base[:, None], d2).sum(axis=0)
            cand_costs[in_set] = np.inf
            c = int(np.argmin(cand_costs))
            if cand_costs[c] < best_cost:
                best_cost, best_pair = float(cand_costs[c]), (out_pos, c)
        if best_pair is None or best_cost > shrink * cost:
            break
        current = current.copy()
        current[best_pair[0]] = best_pair[1]
        current.sort()
        cost = best_cost
    return current


def _direct_swap_costs(d2, current):
    rows = []
    for out_pos in range(current.size):
        keep = np.delete(current, out_pos)
        base = d2[:, keep].min(axis=1) if keep.size else np.full(d2.shape[0], np.inf)
        rows.append(np.minimum(base[:, None], d2).sum(axis=0))
    return np.array(rows)


def _engine_rows(source):
    """Every point's float64 row, each formed in its aligned block, stacked:
    entry [c, j] prices point j against candidate c, as the search reads it."""
    m, step = source.norms.size, source.step
    return np.vstack([source.block(slice(lo, lo + step)) for lo in range(0, m, step)])


def _assert_swap_costs_match_direct_evaluation(points, rng, k, draws):
    """Against the direct evaluation on the rows the search reads: float64
    prices agree at rtol 1e-12, and each screened cost lies within its bound.
    Returns the triangle's block count."""
    m = points.shape[0]
    tri = _UpperTriangle(sepmix.kmedian._centered(points))
    d2 = _engine_rows(tri.source).T
    for _ in range(draws):
        current = np.sort(rng.choice(m, size=k, replace=False))
        direct = _direct_swap_costs(d2, current)
        d1, d2nd, owner = sepmix.kmedian._nearest_centers(d2[:, current])
        everything = np.ones((k, m), dtype=bool)
        exact = sepmix.kmedian._price_exactly(tri.source, everything, d1, d2nd, owner)
        np.testing.assert_allclose(exact, direct, rtol=1e-12)
        screened, bound = sepmix.kmedian._swap_costs(tri, d1, d2nd, owner)
        assert np.all(np.abs(screened - direct) <= bound)
    return len(tri.blocks)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_swap_costs_match_direct_evaluation(k):
    rng = np.random.default_rng(30 + k)
    pts = rng.normal(size=(90, 3))
    pts[60:75] = pts[:15]  # duplicate points
    lattice = rng.integers(-2, 3, size=(40, 2)).astype(float)  # exact ties
    for points in (pts, lattice):
        _assert_swap_costs_match_direct_evaluation(points, rng, k, 5)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_swap_costs_match_direct_evaluation_across_blocks(k):
    # 350 and 400 points make 3 and 4 triangle blocks of uneven heights, so
    # entries beyond each block's leading square price both of their points
    rng = np.random.default_rng(40 + k)
    pts = rng.normal(size=(400, 3))
    pts[300:330] = pts[:30]  # duplicate points, in other blocks
    lattice = rng.integers(-3, 4, size=(350, 2)).astype(float)  # exact ties
    for points in (pts, lattice):
        assert _assert_swap_costs_match_direct_evaluation(points, rng, k, 3) >= 3


def _assert_local_search_matches_reference(seed, m, n, k, lattice):
    rng = np.random.default_rng(seed)
    if lattice:  # integer points: exact, so even ties must break the same way
        pts = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        pts = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0)
    have = kmedian_local_search(pts, k, np.random.default_rng(seed + 1))
    want = _reference_local_search(pts, k, np.random.default_rng(seed + 1))
    if lattice or np.array_equal(have.center_indices, want):
        assert have.center_indices.tolist() == want.tolist()
    else:
        # summation order may only break a genuine tie differently
        tied = kmedian_cost(pts, pts[want])
        assert have.objective == pytest.approx(tied, rel=1e-12)
    return pts


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=4, max_value=40),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    lattice=st.booleans(),
)
def test_local_search_matches_reference_loop(seed, m, n, k, lattice):
    _assert_local_search_matches_reference(seed, m, n, k, lattice)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=300, max_value=400),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    lattice=st.booleans(),
)
def test_local_search_matches_reference_across_blocks(seed, m, n, k, lattice):
    # 300 to 400 points store their triangle in at least 3 blocks
    pts = _assert_local_search_matches_reference(seed, m, n, k, lattice)
    assert len(_UpperTriangle(pts).blocks) >= 3


def test_triangle_takes_the_row_engines_block_grid(monkeypatch):
    # the triangle's blocks come from the row engine's grid, so patching the
    # grid reaches them: blocks of 3 rows cut 40 points into 14 blocks
    monkeypatch.setattr(classify_module, "_block_rows", lambda cols: 3)
    monkeypatch.setattr(classify_module, "_MIN_GEMM_ROWS", 1)
    rng = np.random.default_rng(50)
    pts = rng.normal(size=(40, 3))
    for k in (1, 2, 3):
        assert _assert_swap_costs_match_direct_evaluation(pts, rng, k, 3) == 14


def _points_of_kind(rng, m, n, kind):
    if kind == "lattice":  # integer points: every distance exact, ties common
        return rng.integers(-2, 3, size=(m, n)).astype(float)
    pts = rng.normal(size=(m, n))
    if kind == "duplicates":
        pts[m // 2 :] = pts[: m - m // 2]
    return pts


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=4, max_value=120),
    n=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["normal", "lattice", "duplicates"]),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
@example(seed=1, m=400, n=3, k=4, kind="duplicates", offset=1e6, scale=1.0)
@example(seed=2, m=350, n=2, k=3, kind="lattice", offset=0.0, scale=1.0)
def test_screened_swap_costs_are_certified(seed, m, n, k, kind, offset, scale):
    # every screened cost lies within its bound of the float64 price, far
    # from the origin and across blocks too (350 and 400 points make 3 and
    # 4 blocks)
    rng = np.random.default_rng(seed)
    k = min(k, m)
    pts = _points_of_kind(rng, m, n, kind) * scale + offset * rng.normal(size=n)
    _assert_swap_costs_match_direct_evaluation(pts, rng, k, 3)


def test_screen_bound_covers_float32_sums():
    # A lattice closed under negation has mean exactly 0, so its float32
    # entries are the exact integer squared distances (all below 2^24), as
    # are d1 and d2nd.  With err zeroed only the float32 sums are left to
    # cover; over 2000 points their rounding reached 1.74 u sum(d2nd), the
    # bound's other term, on these draws, so the summation term is needed.
    rng = np.random.default_rng(63)
    half = rng.integers(-1000, 1001, size=(1000, 2)).astype(float)
    pts = np.vstack([half, -half])
    tri = _UpperTriangle(sepmix.kmedian._centered(pts))
    assert tri.source.points.mean(axis=0).tolist() == [0.0, 0.0]
    tri.err[:] = 0.0
    d2 = _engine_rows(tri.source).T
    for _ in range(4):
        current = np.sort(rng.choice(2000, size=2, replace=False))
        d1, d2nd, owner = sepmix.kmedian._nearest_centers(d2[:, current])
        screened, bound = sepmix.kmedian._swap_costs(tri, d1, d2nd, owner)
        assert np.all(np.abs(screened - _direct_swap_costs(d2, current)) <= bound)


def test_swap_cost_bounds_are_void_from_two_to_the_twenty_points():
    # (M + 1) u > 1/16 from M = 2^20 on, where the triangle would take
    # 2 TiB; a stub with no blocks reaches the branch with vectors of MBs
    for m, void in ((2**20 - 1, False), (2**20, True)):
        stub = types.SimpleNamespace(los=[], blocks=[], err=np.zeros(m))
        owner = np.ones((m, 1))
        costs, bound = sepmix.kmedian._swap_costs(stub, np.ones(m), np.full(m, np.inf), owner)
        assert costs.shape == bound.shape == (1, m)
        assert np.isinf(bound).all() == void and np.isinf(bound).any() == void


def test_local_search_on_a_void_screen_prices_every_swap(monkeypatch):
    # a void screen stores no block and prices every swap in float64, and
    # that finds the swaps the screen finds, bit for bit
    rng = np.random.default_rng(60)
    cases = [
        (_points_of_kind(rng, m, 3, kind), k)
        for m, kind, k in [(40, "normal", 3), (350, "duplicates", 4), (300, "lattice", 2)]
    ]
    want = [kmedian_local_search(p, k, np.random.default_rng(61)) for p, k in cases]
    monkeypatch.setattr(_SqDistRows, "screen_void", property(lambda self: True))
    screened = []
    monkeypatch.setattr(
        sepmix.kmedian, "_swap_costs", lambda *a: screened.append(a) or None
    )
    for (p, k), w in zip(cases, want):
        assert _UpperTriangle(p).blocks == []
        have = kmedian_local_search(p, k, np.random.default_rng(61))
        assert have.center_indices.tolist() == w.center_indices.tolist()
        assert have.objective == w.objective
    assert screened == []


@pytest.mark.parametrize("scale", [1e20, 1e18], ids=["void", "overflowing-sums"])
def test_local_search_outside_float32_range_matches_reference(scale):
    # at 1e20 the screen itself would overflow, so it is void; at 1e18 its
    # entries fit float32 but a sum of them does not, so a round's bounds are
    # infinite.  Either way every swap is priced in float64.
    rng = np.random.default_rng(62)
    pts = rng.normal(size=(300, 2)) * scale
    tri = _UpperTriangle(sepmix.kmedian._centered(pts))
    assert (tri.blocks == []) == (scale == 1e20)
    for k in (2, 3):
        have = kmedian_local_search(pts, k, np.random.default_rng(k))
        want = _reference_local_search(pts, k, np.random.default_rng(k))
        if not np.array_equal(have.center_indices, want):
            tied = kmedian_cost(pts, pts[want])
            assert have.objective == pytest.approx(tied, rel=1e-12)
    if tri.blocks:
        d1, d2nd, owner = sepmix.kmedian._nearest_centers(
            _engine_rows(tri.source).T[:, [0, 1]]
        )
        bound = sepmix.kmedian._swap_costs(tri, d1, d2nd, owner)[1]
        assert not np.isfinite(bound).all()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=4, max_value=60),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["normal", "lattice", "duplicates"]),
    offset=st.sampled_from([1.0, 1e3, 1e6]),
)
def test_local_search_is_translation_invariant(seed, m, n, k, kind, offset):
    # a lattice moves by an integer vector, so it stays exact and the search
    # must not move at all; real points move by a real vector, and the
    # centers may then differ only at a genuine tie
    rng = np.random.default_rng(seed)
    k = min(k, m)
    pts = _points_of_kind(rng, m, n, kind)
    shift = offset * rng.normal(size=n)
    if kind == "lattice":
        shift = np.round(shift)
    a = kmedian_local_search(pts, k, np.random.default_rng(seed + 1))
    b = kmedian_local_search(pts + shift, k, np.random.default_rng(seed + 1))
    if kind == "lattice" or np.array_equal(a.center_indices, b.center_indices):
        assert a.center_indices.tolist() == b.center_indices.tolist()
    else:
        tied = kmedian_cost(pts, pts[b.center_indices])
        assert tied == pytest.approx(a.objective, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=4, max_value=60),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    duplicates=st.booleans(),
    offset=st.sampled_from([0.0, 1e6]),
)
def test_local_search_is_permutation_invariant(seed, m, n, k, duplicates, offset):
    # the permutation keeps the seeded first center in place; the search
    # then finds the same points, or, where duplicates tie, points that cost
    # the same (lattices tie too often for the paths to stay comparable)
    rng = np.random.default_rng(seed)
    k = min(k, m)
    pts = _points_of_kind(rng, m, n, "duplicates" if duplicates else "normal")
    pts += offset
    first = int(np.random.default_rng(seed + 1).integers(m))
    perm = rng.permutation(m)
    where = int(np.flatnonzero(perm == first)[0])
    perm[[where, first]] = perm[[first, where]]
    a = kmedian_local_search(pts, k, np.random.default_rng(seed + 1))
    b = kmedian_local_search(pts[perm], k, np.random.default_rng(seed + 1))
    moved = np.sort(perm[b.center_indices])
    if not np.array_equal(a.center_indices, moved):
        assert kmedian_cost(pts, pts[moved]) == pytest.approx(a.objective, rel=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e6], ids=["origin", "far-offset"])
def test_local_search_prices_few_swaps_in_float64(monkeypatch, offset):
    # On the criterion-3 mixture (M=4000, n=64, k=4, simplex side 57.66) the
    # float32 screen leaves one or two swaps per round to price in float64,
    # and each round forms a few aligned float64 blocks: the new center's
    # row and the priced candidates'.  A bound gone loose prices more.
    centers = np.zeros((4, 64))
    centers[np.arange(4), np.arange(4)] = 57.66 / math.sqrt(2.0)
    comps = [make_gaussian(c, np.ones(64)) for c in centers]
    samples = sample_mixture(
        Mixture(components=comps, weights=np.full(4, 0.25)),
        np.random.default_rng(606),
        4000,
        seed=606,
    )
    rounds = []  # per round: [pairs priced in float64, float64 blocks formed]
    block, swap_costs, price = (
        _SqDistRows.block, sepmix.kmedian._swap_costs, sepmix.kmedian._price_exactly
    )

    def count_block(self, rows):
        if rounds:
            rounds[-1][1] += 1
        return block(self, rows)

    def count_round(*args):
        rounds.append([0, 0])
        return swap_costs(*args)

    def count_pairs(source, pairs, *args):
        rounds[-1][0] += int(pairs.sum())
        return price(source, pairs, *args)

    monkeypatch.setattr(_SqDistRows, "block", count_block)
    monkeypatch.setattr(sepmix.kmedian, "_swap_costs", count_round)
    monkeypatch.setattr(sepmix.kmedian, "_price_exactly", count_pairs)
    sol = kmedian_local_search(samples.points + offset, 4, np.random.default_rng(1))
    assert np.array_equal(np.sort(samples.labels[sol.center_indices]), np.arange(4))
    assert len(rounds) >= 3, rounds
    assert all(pairs <= 4 and blocks <= 4 for pairs, blocks in rounds), rounds
    assert rounds[-1] == [0, 0], rounds  # the last round stops on the screen


# ---------------------------------------------------------------------------
# round cap
# ---------------------------------------------------------------------------


def _two_cluster_points():
    rng = np.random.default_rng(7)
    return np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 12.0])


def test_local_search_warns_when_cap_cuts_an_improving_search(monkeypatch):
    pts = _two_cluster_points()
    with warnings.catch_warnings():
        warnings.simplefilter("error", LocalSearchCapWarning)
        full = kmedian_local_search(pts, 2, np.random.default_rng(8))
    monkeypatch.setattr(sepmix.kmedian, "_MAX_ROUNDS", 1)
    with pytest.warns(LocalSearchCapWarning, match="max_rounds=1"):
        capped = kmedian_local_search(pts, 2, np.random.default_rng(8))
    assert capped.objective > full.objective  # the search needed a second round


def test_local_search_silent_when_first_round_finds_no_swap(monkeypatch):
    pts = np.random.default_rng(9).normal(size=(4, 2))
    monkeypatch.setattr(sepmix.kmedian, "_MAX_ROUNDS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", LocalSearchCapWarning)
        kmedian_local_search(pts, 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def test_exhaustive_line_three_points():
    sol = kmedian_exhaustive(_col([0.0, 1.0, 10.0]), 2)
    assert sol.objective == pytest.approx(1.0)


def test_exhaustive_k_equals_m():
    pts = np.random.default_rng(9).normal(size=(6, 2))
    assert kmedian_exhaustive(pts, 6).objective == 0.0


def test_exhaustive_single_center_median_point():
    sol = kmedian_exhaustive(_col([0.0, 4.0, 5.0]), 1)
    assert sol.center_indices.tolist() == [1]
    assert sol.objective == pytest.approx(17.0)  # 16 + 0 + 1


def test_exhaustive_matches_subset_enumeration():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(9, 2))
    sol = kmedian_exhaustive(pts, 3)
    best = min(
        kmedian_cost(pts, pts[list(combo)])
        for combo in itertools.combinations(range(9), 3)
    )
    assert sol.objective == pytest.approx(best, rel=1e-12)


def test_exhaustive_rejects_zero_centers():
    with pytest.raises(ValueError, match="k must be >= 1"):
        kmedian_exhaustive(np.zeros((4, 2)), 0)


def test_exhaustive_instance_too_large():
    with pytest.raises(InstanceTooLarge):
        kmedian_exhaustive(np.zeros((300, 2)), 5)


# ---------------------------------------------------------------------------
# sigma_hat and log-likelihood
# ---------------------------------------------------------------------------


def test_sigma_hat_single_point_distance_d():
    for d in (0.5, 1.0, 3.0):
        pts = _col([d])
        sol = kmedian_exhaustive(pts, 1)
        sol.centers = np.array([[0.0]])  # move the center away by hand
        sol.objective = d * d
        assert sigma_hat(pts, sol) ** 2 == pytest.approx(2.0 * d * d, rel=1e-12)


def test_sigma_hat_zero_at_centers():
    pts = np.random.default_rng(11).normal(size=(4, 2))
    sol = kmedian_exhaustive(pts, 4)
    assert sigma_hat(pts, sol) == 0.0


def test_sigma_hat_two_points_two_dims():
    # both squared distances 1 -> sigma^2 = 2 * 2 / (2 * 2) = 1
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    sol = kmedian_exhaustive(pts, 1)
    sol.objective = 2.0
    assert sigma_hat(pts, sol) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_sigma_hat_standard_normalization():
    pts = _col([0.0, 2.0])
    sol = kmedian_exhaustive(pts, 1)
    assert sigma_hat(pts, sol) ** 2 == pytest.approx(2.0 * 4.0 / 2.0)
    assert sigma_hat(pts, sol, "standard") ** 2 == pytest.approx(4.0 / 2.0)


@pytest.mark.parametrize(
    "entry",
    [sigma_hat, spherical_log_likelihood],
    ids=["sigma_hat", "log_likelihood"],
)
def test_likelihood_terms_refuse_unknown_normalization(entry):
    pts = _col([0.0, 2.0])
    sol = kmedian_exhaustive(pts, 1)
    with pytest.raises(ValueError, match="normalization must be one of"):
        entry(pts, sol, normalization="Paper")


def test_log_likelihood_quadratic_term_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m, n, k = int(rng.integers(3, 30)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
        pts = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0)
        sol = kmedian_local_search(pts, k, rng)
        sig = sigma_hat(pts, sol)
        quad = sol.objective / (2.0 * sig * sig)
        assert quad == pytest.approx(m * n / 4.0, rel=1e-9)


def test_log_likelihood_rejects_inconsistent_plug_in_sigma(monkeypatch):
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(12, 3))
    sol = kmedian_local_search(pts, 2, rng)
    right = sigma_hat(pts, sol)
    monkeypatch.setattr(sepmix.kmedian, "sigma_hat", lambda *a, **kw: 1.1 * right)
    with pytest.raises(InconsistentSigma):
        spherical_log_likelihood(pts, sol)


@pytest.mark.parametrize(
    "entry",
    [sigma_hat, spherical_log_likelihood],
    ids=["sigma_hat", "log_likelihood"],
)
def test_likelihood_terms_check_points_against_solution(entry):
    pts = np.random.default_rng(16).normal(size=(6, 2))
    sol = kmedian_exhaustive(pts, 2)
    with pytest.raises(DimensionMismatch):
        entry(pts[:, 0], sol)  # 1-D
    with pytest.raises(DimensionMismatch):
        entry(pts[:5], sol)  # not the points the solution was fitted on
    bad = pts.copy()
    bad[2, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        entry(bad, sol)


def test_log_likelihood_zero_sigma_sentinel():
    pts = _col([0.0])
    sol = kmedian_exhaustive(pts, 1)
    with pytest.warns(ZeroSigmaWarning):
        out = spherical_log_likelihood(pts, sol)
    assert out == math.inf


def test_fit_on_coincident_points_warns_zero_sigma_once():
    pts = np.ones((6, 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit_spherical_mixture(pts, 1, np.random.default_rng(0))
    zero = [w for w in caught if issubclass(w.category, ZeroSigmaWarning)]
    assert len(zero) == 1
    assert result.sigma == 0.0 and result.log_likelihood == math.inf


def test_log_likelihood_closed_form():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(12, 3))
    sol = kmedian_local_search(pts, 2, rng)
    sig = sigma_hat(pts, sol)
    want = -((12 * 3 / 2.0) * math.log(2.0 * math.pi * sig) + 12 * 3 / 4.0)
    assert spherical_log_likelihood(pts, sol) == pytest.approx(want, rel=1e-12)


def test_log_likelihood_standard_normalization_closed_form():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(10, 2))
    sol = kmedian_local_search(pts, 2, rng)
    sig = sigma_hat(pts, sol, "standard")
    want = -((10 * 2 / 2.0) * math.log(2.0 * math.pi * sig * sig) + 10 * 2 / 2.0)
    assert spherical_log_likelihood(pts, sol, normalization="standard") == pytest.approx(
        want, rel=1e-12
    )


def test_scale_equivariance_of_sigma_hat():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(18, 2))
    sol = kmedian_local_search(pts, 3, rng)
    scaled = pts * 7.0
    sol_scaled = kmedian_exhaustive(scaled, 3)
    sol_same = kmedian_cost(scaled, scaled[sol.center_indices])
    # with the same centers sigma scales exactly by |c|
    assert math.sqrt(2.0 * sol_same / (18 * 2)) == pytest.approx(
        7.0 * sigma_hat(pts, sol), rel=1e-12
    )
    # and the re-optimized fit can only be tighter
    assert sol_scaled.objective <= sol_same + 1e-9


# ---------------------------------------------------------------------------
# oracle sandwich and restriction bound
# ---------------------------------------------------------------------------


def test_oracle_sandwich_small_instances():
    rng = np.random.default_rng(16)
    equal = 0
    for trial in range(50):
        m = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        pts = rng.normal(size=(m, 2)) * rng.uniform(0.5, 5.0)
        t0 = time.perf_counter()
        exact = kmedian_exhaustive(pts, k)
        assert time.perf_counter() - t0 < 1.0
        local = kmedian_local_search(pts, k, np.random.default_rng(trial))
        assert exact.objective <= local.objective + 1e-9
        assert local.objective <= 10.0 * exact.objective + 1e-9
        if local.objective <= exact.objective * (1 + 1e-9) + 1e-12:
            equal += 1
    assert equal >= 40


def test_restriction_within_factor_four_of_centroid():
    # k=1: the best sample-point center is at most 4x the continuous optimum
    rng = np.random.default_rng(17)
    for _ in range(25):
        pts = rng.normal(size=(int(rng.integers(2, 40)), 3))
        centroid_cost = float(((pts - pts.mean(axis=0)) ** 2).sum())
        restricted = kmedian_exhaustive(pts, 1).objective
        if centroid_cost == 0.0:
            assert restricted == 0.0
        else:
            assert restricted <= 4.0 * centroid_cost + 1e-9


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


def test_fit_weights_sum_to_one():
    rng = np.random.default_rng(18)
    pts = rng.normal(size=(50, 3))
    fit = fit_spherical_mixture(pts, 3, rng)
    assert isinstance(fit, FitResult)
    assert fit.weights.sum() == pytest.approx(1.0)
    assert np.all(fit.weights >= 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_points(bad):
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(20, 2))
    pts[3, 0] = bad
    with pytest.raises(NonFiniteInput):
        fit_spherical_mixture(pts, 2, rng)


@pytest.mark.parametrize(
    "entry",
    [
        lambda p: kmedian_local_search(p, 2, np.random.default_rng(0)),
        lambda p: kmedian_exhaustive(p, 2),
        lambda p: fit_spherical_mixture(p, 2, np.random.default_rng(0)),
    ],
    ids=["local_search", "exhaustive", "fit"],
)
def test_entry_points_reject_malformed_points(entry, bad_points):
    points, error = bad_points
    with pytest.raises(error):
        entry(points)


def test_fit_k1_center_minimizes_total_distance():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(15, 2))
    fit = fit_spherical_mixture(pts, 1, rng)
    oracle = kmedian_exhaustive(pts, 1)
    assert fit.solution.objective == pytest.approx(oracle.objective, rel=1e-12)
    assert fit.weights.tolist() == [1.0]


def test_fit_recovers_planted_centers():
    rng = np.random.default_rng(20)
    true_centers = np.array([[0.0] * 4, [20.0, 0, 0, 0]])
    pts = np.vstack(
        [rng.normal(size=(200, 4)) + c for c in true_centers]
    )
    fit = fit_spherical_mixture(pts, 2, np.random.default_rng(21))
    # each fitted center lies within 3 sigma / sqrt(M/k) of a true center
    tol = 3.0 * fit.sigma / math.sqrt(200.0)
    found = fit.solution.centers
    dists = np.linalg.norm(found[:, None, :] - true_centers[None], axis=2)
    assert np.all(dists.min(axis=1) < max(tol, 0.5))
    assert fit.weights == pytest.approx([0.5, 0.5], abs=0.05)
