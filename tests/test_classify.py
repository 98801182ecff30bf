import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import sq_dists

from sepmix import classify as classify_module
from sepmix.classify import (
    ClassifierConfig,
    _SqDistRows,
    _ball_variance,
    _dense_ball,
    _gap_steps,
    classify_general,
    classify_spherical,
    max_variance,
    pairwise_sq_dists,
)
from sepmix.errors import (
    EigenSolverFailed,
    EmptyPeel,
    InstanceTooLarge,
    NonFiniteInput,
    ResidualPointsAfterKPeels,
    ThresholdTooLarge,
)
from sepmix.kmedian import fit_spherical_mixture, kmedian_exhaustive, kmedian_local_search
from sepmix.model import Mixture, make_gaussian, sample_mixture, spherical_median_radius
from sepmix.scoring import partition_compare
from sepmix.separation import SeparationConfig, plant_separated_mixture


def _column(vals):
    return np.asarray(vals, dtype=float)[:, None]


def _spherical_mixture(centers, sigma=1.0):
    comps = []
    n = len(centers[0])
    for c in centers:
        g = make_gaussian(np.asarray(c, dtype=float), np.full(n, sigma * sigma))
        g.median_radius = spherical_median_radius(sigma, n)
        comps.append(g)
    k = len(centers)
    return Mixture(components=comps, weights=np.full(k, 1.0 / k))


# ---------------------------------------------------------------------------
# pairwise_sq_dists
# ---------------------------------------------------------------------------


def test_pairwise_sq_dists_matches_loops():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 4))
    d2 = pairwise_sq_dists(pts)
    for i in range(30):
        for j in range(30):
            assert d2[i, j] == pytest.approx(
                float(np.sum((pts[i] - pts[j]) ** 2)), rel=1e-9, abs=1e-9
            )


def test_pairwise_sq_dists_clips_negative_roundoff():
    pts = np.full((3, 2), 1e8)
    d2 = pairwise_sq_dists(pts)
    assert np.all(d2 >= 0.0)


@pytest.mark.parametrize(
    "rows, n, offset", [(1500, 4, 0.0), (700, 6, 1e6)], ids=["square", "far-offset"]
)
def test_pairwise_sq_dists_bytes_match_one_line_expansion(rows, n, offset):
    # several row blocks each, so block seams are covered
    rng = np.random.default_rng(rows)
    a = rng.normal(size=(rows, n)) + offset
    have = pairwise_sq_dists(a)
    want = sq_dists(a)
    assert have.shape == want.shape
    assert have.tobytes() == want.tobytes()


def test_pairwise_sq_dists_refuses_matrix_beyond_physical_memory():
    # zero-stride rows: 10**6 points that occupy 16 bytes
    huge = np.broadcast_to(np.zeros(2), (10**6, 2))
    with pytest.raises(InstanceTooLarge, match="physical memory"):
        pairwise_sq_dists(huge)


# ---------------------------------------------------------------------------
# the row engine's float32 screen
# ---------------------------------------------------------------------------


def _screen_points(seed, m, n, scale, offset, kind):
    """Gaussian blobs, integer lattice points or repeated points, scaled by
    ``scale`` and shifted by ``offset``."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        pts = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        blobs = rng.normal(scale=10.0, size=(int(rng.integers(1, 4)), n))
        pts = blobs[rng.integers(0, blobs.shape[0], size=m)] + rng.normal(size=(m, n))
        if kind == "duplicates":
            pts = pts[rng.integers(0, max(1, m // 3), size=m)]
    return pts * scale + offset


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=60),
    n=st.sampled_from([1, 2, 3, 16, 64]),
    scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e6, 1e20]),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    kind=st.sampled_from(["gaussian", "lattice", "duplicates"]),
)
@example(seed=0, m=60, n=64, scale=1e6, offset=1e6, kind="gaussian")
@example(seed=1, m=40, n=1, scale=1e-3, offset=1e6, kind="duplicates")
@example(seed=2, m=30, n=16, scale=1e-30, offset=0.0, kind="gaussian")  # underflow
def test_screen_bounds_every_float64_entry(seed, m, n, scale, offset, kind):
    # every float64 entry the engine forms between two points, in a block of
    # any height, and with either point as the row, lies within err of the
    # screened entry; on all columns and on gathered
    # live columns.  At scale 1e-30 the float32 products underflow, and at
    # 1e20 the squares overflow: err is then inf.
    pts = _screen_points(seed, m, n, scale, offset, kind)
    rng = np.random.default_rng(seed)
    src = _SqDistRows(pts)
    for cols in (None, np.flatnonzero(rng.random(m) < 0.6)):
        if cols is not None and cols.size == 0:
            continue
        src.live(cols)
        rows = np.arange(m) if cols is None else cols
        screened, err = src.screen(rows)
        assert screened.dtype == np.float32
        assert np.all(err >= 0.0)
        formed = [src.block(rows)]
        formed.append(np.vstack([src.block(rows[i : i + 1]) for i in range(rows.size)]))
        for d2 in formed:
            assert np.all(np.abs(d2 - screened) <= err[:, None])
            if cols is None:
                assert np.all(np.abs(d2.T - screened) <= err[:, None])


@pytest.mark.parametrize("scale", [1e20, 1e-30], ids=["overflow", "underflow"])
@pytest.mark.parametrize("seed", range(4))
def test_screen_outside_float32_range_changes_no_answer(scale, seed):
    # float32 overflows above about 3e38 and underflows below about 1e-38:
    # every row is then a candidate, and both classifiers still match their
    # references
    rng = np.random.default_rng(seed)
    pts = _screen_points(seed, 30, 3, scale, 0.0, "gaussian")
    _assert_spherical_matches_reference(pts, 1.0)
    k, per_blob, n = 2, 20, 2
    centers = rng.normal(scale=100.0, size=(k, n))
    blobs = centers[np.arange(k * per_blob) % k] + rng.normal(size=(k * per_blob, n))
    blobs *= scale
    config = ClassifierConfig(k=k, w_min=1.0 / k)
    want = _reference_general(blobs - blobs.mean(axis=0), config)
    have = _general_outcome(blobs, config)
    if isinstance(want, str):
        assert have == want
        return
    assert len(have) == len(want)
    for h, w in zip(have, want):
        for key in ("center_index", "s", "removed"):
            assert h[key] == w[key], key
        for key in ("alpha", "beta", "nu", "beta_prime", "removal_radius"):
            assert h[key] == pytest.approx(w[key], rel=1e-9, abs=0.0), key


@pytest.mark.parametrize("n", [3, 16, 64])
def test_a_row_rounds_alike_whatever_rows_share_its_block(n):
    # A canary for the BLAS: a row of a B-row float64 block has the same
    # bits whatever other rows share the block, at the same position.  The
    # dense ball forms a row in float64 in the block its screened rank put
    # it in.  Blocks of another height, and on OpenBLAS 0.3 another position
    # in the block when the column count is not a multiple of 8, may round
    # the row's last entries otherwise; its bound allows for that.
    rng = np.random.default_rng(n)
    pts = rng.normal(scale=30.0, size=(600, n)) + rng.normal(scale=1e3, size=n)
    src = _SqDistRows(pts)
    src.live(np.flatnonzero(rng.random(600) < 0.8))
    height = src.step
    for _ in range(200):
        r = rng.choice(src.cols)
        j = int(rng.integers(height))
        got = []
        for _ in range(2):
            rows = rng.choice(src.cols, size=height, replace=False)
            rows[j] = r
            got.append(src.block(rows)[j].tobytes())
        assert got[0] == got[1]


@pytest.mark.parametrize("m", [1, 17, 700, 5000])
def test_triangle_grid_tiles_the_rows(m):
    # block [lo, hi) takes gemm_rows(M - lo) rows, the last what is left
    grid = _SqDistRows(np.zeros((m, 2))).triangle()
    los = [lo for lo, _ in grid]
    assert los[0] == 0 and [hi for _, hi in grid] == los[1:] + [m]
    for lo, hi in grid:
        assert hi == min(m, lo + _SqDistRows.gemm_rows(m - lo))


# ---------------------------------------------------------------------------
# dense ball
# ---------------------------------------------------------------------------


def _stored_rows(points):
    return _SqDistRows(points, store=True)


# the row engine's two modes: rows of the stored matrix, rows formed on demand
_SOURCES = (_stored_rows, _SqDistRows)


def _dense_ball_of(pts, T, threshold, source):
    """(center point index, alpha) of _dense_ball ranking the rows and columns
    T of the points' squared distances, as a first peel does."""
    T = np.sort(np.asarray(T, dtype=int))
    local, alpha, _ = _dense_ball(source(pts), T, threshold, np.zeros(len(pts)))
    return int(T[local]), alpha


def test_dense_ball_line_example():
    pts = _column([0.0, 1.0, 2.0, 10.0])
    for source in _SOURCES:
        center, alpha = _dense_ball_of(pts, np.arange(4), 3, source)
        assert center == 1
        assert alpha == pytest.approx(1.0)


def test_dense_ball_threshold_one_is_radius_zero():
    pts = _column([5.0, 7.0, 3.0])
    for source in _SOURCES:
        center, alpha = _dense_ball_of(pts, np.arange(3), 1, source)
        assert alpha == 0.0
        assert center == 0  # lowest index wins the tie


def test_dense_ball_identical_points():
    pts = np.zeros((6, 3))
    for source in _SOURCES:
        for threshold in (1, 3, 6):
            center, alpha = _dense_ball_of(pts, np.arange(6), threshold, source)
            assert alpha == 0.0
            assert center == 0


def test_dense_ball_brute_force_oracle():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 3))
    T = np.arange(40)
    # oracle: for every candidate center the radius is the threshold-th
    # smallest distance; the reported alpha must be the global minimum
    d = np.sqrt(pairwise_sq_dists(pts))
    for source in _SOURCES:
        for threshold in (1, 5, 17, 40):
            center, alpha = _dense_ball_of(pts, T, threshold, source)
            radii = np.sort(d, axis=1)[:, threshold - 1]
            assert alpha == pytest.approx(float(radii.min()), rel=1e-12)
            assert center == int(np.argmin(radii))


def test_dense_ball_respects_subset():
    pts = _column([0.0, 1.0, 2.0, 10.0, 10.5])
    for source in _SOURCES:
        center, alpha = _dense_ball_of(pts, np.array([3, 4]), 2, source)
        assert center == 3
        assert alpha == pytest.approx(0.5)


def test_dense_ball_threshold_too_large():
    # threshold 2; the first peel removes three of the four points, so the
    # second finds one live point
    pts = _column([0.0, 0.1, 0.2, 100.0])
    with pytest.raises(ThresholdTooLarge):
        classify_general(pts, ClassifierConfig(k=2, w_min=0.5))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=60),
    lattice=st.booleans(),
)
def test_dense_ball_on_live_rows_matches_subset_matrix(seed, m, lattice):
    # ranking the live block of one squared matrix picks the same center and
    # radius as a matrix rebuilt on the live points; lattice points tie often
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(-2, 3, size=(m, 2)).astype(float)
    else:
        pts = rng.normal(size=(m, 3))
    alive = np.flatnonzero(rng.random(m) < 0.6)
    if alive.size == 0:
        alive = np.array([m - 1])
    threshold = int(rng.integers(1, alive.size + 1))
    sub_local, want, _ = _dense_ball(
        _stored_rows(pts[alive]), np.arange(alive.size), threshold, np.zeros(alive.size)
    )
    for source in _SOURCES:
        local, alpha, _ = _dense_ball(source(pts), alive, threshold, np.zeros(m))
        assert local == sub_local
        if lattice:
            assert alpha == want
        else:
            assert alpha == pytest.approx(want, rel=1e-12)


def _blocks_of(monkeypatch, rows):
    """Row blocks of ``rows`` rows in every pass of the row engine, so that
    small inputs span several blocks and the dense-ball bound can stop
    early."""
    monkeypatch.setattr(classify_module, "_block_rows", lambda cols: rows)
    monkeypatch.setattr(classify_module, "_MIN_GEMM_ROWS", 1)


def test_dense_ball_strict_stop_keeps_the_lowest_tied_position(monkeypatch):
    # every row's radius is 1; the bounds rank position 0 last, and its bound
    # equals the best radius, so the strict stop still ranks it and it wins
    pts = _column([0.0, 1.0, 10.0, 11.0])
    _blocks_of(monkeypatch, 1)
    for source in _SOURCES:
        lower = np.array([1.0, 0.0, 0.0, 0.0])
        local, alpha, _ = _dense_ball(source(pts), np.arange(4), 2, lower)
        assert (local, alpha) == (0, 1.0)
        # a bound above the best radius is never ranked, and keeps its value
        lower = np.array([0.0, 1.5, 0.0, 4.0])
        local, alpha, _ = _dense_ball(source(pts), np.arange(4), 2, lower)
        assert (local, alpha) == (0, 1.0)
        assert lower[[1, 3]].tolist() == [1.5, 4.0]
        assert lower[[0, 2]].tolist() == pytest.approx([1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=60),
    lattice=st.booleans(),
    block=st.integers(min_value=1, max_value=4),
)
def test_dense_ball_bound_from_an_earlier_peel_ranks_as_a_fresh_one(
    seed, m, lattice, block
):
    # the values a ranking of every row leaves in ``lower`` bound the rows
    # from below once columns leave; ranking on them picks the same center
    # and radius as ranking every live row afresh, returns the row alpha was
    # taken from, and leaves valid bounds behind
    with pytest.MonkeyPatch.context() as mp:
        _blocks_of(mp, block)
        _check_bound_ranks_as_fresh(seed, m, lattice)


def _check_bound_ranks_as_fresh(seed, m, lattice):
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(-2, 3, size=(m, 2)).astype(float)
    else:
        pts = rng.normal(size=(m, 3))
    alive = np.flatnonzero(rng.random(m) < 0.6)
    if alive.size == 0:
        alive = np.array([m - 1])
    threshold = int(rng.integers(1, alive.size + 1))
    for source in _SOURCES:
        src = source(pts)
        lower = np.zeros(m)
        _dense_ball(src, np.arange(m), threshold, lower)
        local, alpha, row = _dense_ball(src, alive, threshold, lower)
        want_local, want, _ = _dense_ball(src, alive, threshold, np.zeros(m))
        assert local == want_local
        if lattice:
            assert alpha == want
        else:
            assert alpha == pytest.approx(want, rel=1e-12)
        assert math.sqrt(np.partition(row, threshold - 1)[threshold - 1]) == alpha
        kth = np.partition(src.block(alive), threshold - 1, axis=1)[:, threshold - 1]
        assert np.all(lower[alive] <= np.maximum(kth, 0.0))


@pytest.mark.parametrize("n", [3, 16])
@pytest.mark.parametrize("source", _SOURCES, ids=["stored", "formed"])
def test_dense_ball_returns_the_row_alpha_was_taken_from(source, n):
    # at every peel the returned row is the center's clipped row over the
    # live columns, copied out of the block alpha was taken from: its rooted
    # threshold-th smallest entry is alpha, bit for bit, and it holds no
    # view of the block.  Three blobs of 200 points span several row blocks.
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(600, n)) + 20.0 * rng.integers(0, 3, size=(600, 1))
    src, lower, alive, threshold = source(pts), np.zeros(600), np.arange(600), 150
    while alive.size >= threshold:
        _, alpha, row = _dense_ball(src, alive, threshold, lower)
        assert row.shape == alive.shape and row.base is None
        assert np.all(row >= 0.0)
        kth = np.partition(row, threshold - 1)[threshold - 1]
        assert math.sqrt(kth) == alpha
        alive = alive[row > kth]


# ---------------------------------------------------------------------------
# max_variance
# ---------------------------------------------------------------------------


def test_max_variance_two_points():
    beta, direction = max_variance(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert beta == pytest.approx(1.0, rel=1e-6)
    assert abs(direction[0]) == pytest.approx(1.0, rel=1e-4)


def test_max_variance_single_point():
    beta, direction = max_variance(np.array([[3.0, 4.0]]))
    assert beta == 0.0
    assert np.linalg.norm(direction) == pytest.approx(1.0)


def test_max_variance_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 6)) @ np.diag([3.0, 2.0, 1.0, 1.0, 0.5, 0.1])
    beta, direction = max_variance(pts)
    centered = pts - pts.mean(axis=0)
    eigs = np.linalg.eigvalsh(centered.T @ centered / pts.shape[0])
    assert beta == pytest.approx(float(eigs[-1]), rel=1e-10)
    # direction quality: its Rayleigh quotient should match beta
    quad = float(direction @ (centered.T @ (centered @ direction))) / pts.shape[0]
    assert quad == pytest.approx(beta, rel=1e-10)


def test_max_variance_gram_side():
    # fewer points than dimensions: solved on the m x m Gram matrix
    rng = np.random.default_rng(4)
    m, n = 30, 200
    pts = rng.normal(size=(m, n)) * np.linspace(0.5, 2.0, n)
    beta, direction = max_variance(pts)
    centered = pts - pts.mean(axis=0)
    eigs = np.linalg.eigvalsh(centered.T @ centered / m)
    assert beta == pytest.approx(float(eigs[-1]), rel=1e-10)
    assert direction.shape == (n,)
    assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-12)
    quad = float(np.sum((centered @ direction) ** 2)) / m
    assert quad == pytest.approx(beta, rel=1e-10)


def _near_degenerate_points(m, n):
    """m points in n dims whose top three covariance eigenvalues lie within
    0.01% of each other, as on the concentric pair's balls; the covariance is
    built exactly as R diag(lam) R^T.  Returns (points, lam, R)."""
    rng = np.random.default_rng(7)
    lam = np.full(min(m - 1, n), 0.5)
    lam[:3] = [1.0 + 1e-4, 1.0 + 0.5e-4, 1.0]
    z = rng.normal(size=(m, lam.size))
    q, _ = np.linalg.qr(z - z.mean(axis=0))  # orthonormal, orthogonal to ones
    r, _ = np.linalg.qr(rng.normal(size=(n, lam.size)))
    return (q * np.sqrt(m * lam)) @ r.T + 50.0, lam, r


@pytest.mark.parametrize("m, n", [(600, 8), (40, 300)])
def test_max_variance_near_degenerate_top(m, n):
    pts, lam, r = _near_degenerate_points(m, n)
    beta, direction = max_variance(pts)
    assert beta == pytest.approx(lam[0], rel=1e-10)
    assert abs(float(direction @ r[:, 0])) == pytest.approx(1.0, abs=1e-8)


def _gram_side_sets():
    rng = np.random.default_rng(14)
    yield rng.normal(size=(30, 200)) * np.linspace(0.5, 2.0, 200) + 1e3
    yield _near_degenerate_points(40, 300)[0]


@pytest.mark.parametrize(
    "ball_pts", list(_gram_side_sets()), ids=["spread", "near-degenerate"]
)
def test_gram_from_distances_matches_max_variance(ball_pts):
    # the ball is the first rows of a larger centered set, as in a peel
    m, n = ball_pts.shape
    rest = np.random.default_rng(15).normal(size=(25, n)) * 3.0 + 40.0
    pts = np.vstack([ball_pts, rest])
    pts -= pts.mean(axis=0)
    ball = np.arange(m)
    beta = _ball_variance(pts, pairwise_sq_dists(pts), ball)
    assert beta == pytest.approx(max_variance(ball_pts)[0], rel=1e-10)


def test_max_variance_solver_failure_is_named(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
    pts = np.random.default_rng(8).normal(size=(20, 3))
    with pytest.raises(EigenSolverFailed):
        max_variance(pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_rejects_non_finite_points(bad):
    pts = np.random.default_rng(9).normal(size=(40, 3))
    pts[7, 1] = bad
    with pytest.raises(NonFiniteInput):
        classify_general(pts, ClassifierConfig(k=1, w_min=1.0))


@pytest.mark.parametrize(
    "entry",
    [
        lambda p: classify_general(p, ClassifierConfig(k=1, w_min=1.0)),
        lambda p: classify_spherical(p, k=1, t=1.0),
        max_variance,
    ],
    ids=["general", "spherical", "max_variance"],
)
def test_entry_points_reject_malformed_points(entry, bad_points):
    points, error = bad_points
    with pytest.raises(error):
        entry(points)


def test_max_variance_translation_invariant():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(80, 4))
    b1, _ = max_variance(pts)
    b2, _ = max_variance(pts + 1000.0)
    assert b1 == pytest.approx(b2, rel=1e-7)


# ---------------------------------------------------------------------------
# gap search (step 3: find the gap)
# ---------------------------------------------------------------------------


def _gap(dists, alpha, nu):
    return _gap_steps(np.sort(np.asarray(dists, dtype=float)), alpha, nu)


def test_find_gap_immediate():
    # B(0, 2) and B(0, 3) both hold {0,1,2}
    assert _gap([0.0, 1.0, 2.0, 10.0], alpha=2.0, nu=1.0) == 1


def test_find_gap_walks_until_stable():
    # radii 2,3,4,5: counts grow 3,4,5,5 -> s=4
    assert _gap([0.0, 1.0, 2.0, 3.0, 4.0, 20.0], alpha=1.0, nu=1.0) == 4


def test_find_gap_everything_inside_alpha():
    assert _gap([0.0, 0.5, 0.9], alpha=1.0, nu=0.1) == 1


def test_find_gap_walks_past_every_point():
    # every step admits one of the 49 points beyond alpha, so the march takes
    # its longest possible course: one step per point, plus the empty one
    assert _gap(np.arange(50), alpha=0.5, nu=1.0) == 50


def test_find_gap_zero_nu_is_one_step():
    # a ball of coincident points has nu = 0: the first step adds nothing
    assert _gap([0.0, 1.0, 2.0], alpha=0.5, nu=0.0) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_find_gap_matches_direct_enumeration(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(25, 2)) * rng.uniform(0.5, 3.0)
    alpha = float(rng.uniform(0.0, 2.0))
    nu = float(rng.uniform(0.05, 1.0))
    d = np.sqrt(((pts - pts[0]) ** 2).sum(axis=1))
    want = None
    for s in range(1, 1000):
        inner = np.count_nonzero(d <= alpha + (s - 1) * nu)
        outer = np.count_nonzero(d <= alpha + s * nu)
        if inner == outer:
            want = s
            break
    assert _gap(d, alpha=alpha, nu=nu) == want


# ---------------------------------------------------------------------------
# classify_general
# ---------------------------------------------------------------------------


def test_classify_single_component_single_cluster():
    mix = _spherical_mixture([[0.0] * 6])
    samples = sample_mixture(mix, np.random.default_rng(2), 300)
    part = classify_general(samples, ClassifierConfig(k=1, w_min=1.0))
    assert part.k == 1
    assert np.array_equal(np.sort(part.clusters[0]), np.arange(300))


def test_classify_planted_three_components_exact():
    cfg = SeparationConfig(t=10.0, mode="practical")
    mix = plant_separated_mixture(
        n=16, k=3, shape_spec=(1.0, 1.0), config=cfg, slack=1.5,
        rng=np.random.default_rng(20),
    )
    samples = sample_mixture(mix, np.random.default_rng(21), 3000, seed=21)
    part = classify_general(
        samples, ClassifierConfig(k=3, w_min=1.0 / 3.0, delta=0.05)
    )
    match = partition_compare(part, samples.labels)
    assert match.exact_match
    assert part.trace is not None and len(part.trace.steps) == 3


def test_classify_trace_records_peel_quantities():
    cfg = SeparationConfig(t=10.0, mode="practical")
    mix = plant_separated_mixture(
        n=8, k=2, shape_spec=(1.0, 1.0), config=cfg, slack=1.5,
        rng=np.random.default_rng(30),
    )
    samples = sample_mixture(mix, np.random.default_rng(31), 1000, seed=31)
    part = classify_general(
        samples, ClassifierConfig(k=2, w_min=0.5, delta=0.05)
    )
    for step in part.trace.steps:
        assert step.alpha >= 0
        assert step.beta > 0
        assert step.nu == pytest.approx(np.sqrt(0.5 * step.beta / 8.0))
        assert step.s >= 1
        assert step.removal_radius > step.alpha
        assert step.removed.size > 0
    sizes = sorted(len(c) for c in part.clusters)
    assert sum(sizes) == 1000


def _cluster_sets(points, config, relabel=None):
    """classify_general's clusters as a set of index sets, with indices mapped
    through ``relabel``, or the name of the peel error it raised."""
    try:
        clusters = classify_general(points, config).clusters
    except _PEEL_ERRORS as exc:
        return type(exc).__name__
    return {frozenset((c if relabel is None else relabel[c]).tolist()) for c in clusters}


def _separated_blobs(seed, offset):
    """Well-separated Gaussian blobs of random count, dimension and size,
    shifted by ``offset``, with the classifier config that asks for them."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    n = int(rng.choice([2, 5, 12]))
    per_blob = int(rng.integers(6, 201))
    centers = rng.normal(scale=1000.0, size=(k, n))
    pts = centers[np.arange(k * per_blob) % k] + rng.normal(size=(k * per_blob, n))
    pts += offset
    return pts, ClassifierConfig(k=k, w_min=1.0 / k), rng


_BLOB_CASES = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    offset=st.sampled_from([0.0, 1e6]),
)


@settings(max_examples=30, deadline=None)
@given(**_BLOB_CASES)
def test_classify_permutation_invariance(seed, offset):
    pts, config, rng = _separated_blobs(seed, offset)
    perm = rng.permutation(pts.shape[0])
    # the shuffled run's indices are mapped back to the original points
    assert _cluster_sets(pts[perm], config, relabel=perm) == _cluster_sets(pts, config)


@settings(max_examples=30, deadline=None)
@given(**_BLOB_CASES)
def test_classify_rigid_motion_invariance(seed, offset):
    from sepmix.model import random_rotation

    pts, config, rng = _separated_blobs(seed, offset)
    n = pts.shape[1]
    moved = pts @ random_rotation(n, rng).T + rng.normal(scale=1000.0, size=n)
    assert _cluster_sets(moved, config) == _cluster_sets(pts, config)


def test_classify_sample_size_precondition():
    # threshold is 1 here, so k * threshold = 4 exceeds the 3 samples
    pts = np.random.default_rng(0).normal(size=(3, 3))
    with pytest.raises(ValueError):
        classify_general(pts, ClassifierConfig(k=4, w_min=0.25))


def _two_blobs(scale, m):
    """m points in 3 dims, the first half around the origin and the rest 60
    units out along the first axis, all times ``scale``."""
    pts = np.random.default_rng(0).normal(size=(m, 3))
    pts[m // 2 :, 0] += 60.0
    return pts * scale


def test_classify_general_raises_when_points_remain_after_k_peels():
    # one peel of two far blobs removes one of them
    with pytest.raises(ResidualPointsAfterKPeels, match="1000 points remain after 1 peels"):
        classify_general(_two_blobs(1.0, 2000), ClassifierConfig(k=1, w_min=0.5))


_OVERFLOW_ENTRIES = {
    "general": (lambda pts: classify_general(pts, ClassifierConfig(k=2, w_min=0.5)), 2000),
    "spherical": (lambda pts: classify_spherical(pts, 2, 100.0), 200),
    "local-search": (lambda pts: kmedian_local_search(pts, 2, np.random.default_rng(0)), 200),
    "exhaustive": (lambda pts: kmedian_exhaustive(pts, 2), 12),
}


@pytest.mark.parametrize("scale", [1e152, 1e154], ids=["sums", "norms"])
@pytest.mark.parametrize("entry", sorted(_OVERFLOW_ENTRIES))
def test_points_whose_squared_distances_overflow_fail_at_the_boundary(entry, scale):
    # at 1e152 every squared norm is finite but a sum of M of them is not;
    # at 1e154 the squared norms themselves overflow
    call, m = _OVERFLOW_ENTRIES[entry]
    with pytest.raises(NonFiniteInput, match=f"squared distances of {m} points"):
        call(_two_blobs(scale, m))


@pytest.mark.parametrize("entry", sorted(_OVERFLOW_ENTRIES))
def test_far_points_within_the_overflow_bound_still_classify(entry):
    call, m = _OVERFLOW_ENTRIES[entry]
    near, far = call(_two_blobs(1.0, m)), call(_two_blobs(1e150, m))
    if entry in ("general", "spherical"):
        truth = (np.arange(m) >= m // 2).astype(int)
        assert partition_compare(far, truth).exact_match
        assert partition_compare(near, truth).exact_match
    else:
        assert far.center_indices.tolist() == near.center_indices.tolist()
        assert far.objective == pytest.approx(1e300 * near.objective, rel=1e-9)


def test_classify_unseparated_data_errors():
    # one blob asked to split into two: either the first peel removes nearly
    # everything (starving the second), or points beyond k peels remain
    pts = np.random.default_rng(60).normal(size=(400, 4))
    with pytest.raises((ResidualPointsAfterKPeels, EmptyPeel, ThresholdTooLarge)):
        classify_general(pts, ClassifierConfig(k=2, w_min=0.5))


def test_classifier_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(k=0, w_min=0.5)
    assert ClassifierConfig(k=np.int64(2), w_min=0.5).k == 2
    with pytest.raises(ValueError):
        ClassifierConfig(k=3, w_min=0.5)  # k * w_min > 1
    with pytest.raises(ValueError):
        ClassifierConfig(k=2, w_min=0.5, delta=0.0)
    for kwargs in ({"w_min": "0.5"}, {"w_min": 0.5, "delta": "0.05"}):
        with pytest.raises(ValueError, match="must be a number"):
            ClassifierConfig(k=2, **kwargs)
    with pytest.raises(ValueError, match="t must be a number"):
        classify_spherical(_TWELVE, k=2, t="5")


_TWELVE = np.random.default_rng(0).normal(size=(12, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ClassifierConfig(k=2.0, w_min=0.5),
        lambda: ClassifierConfig(k=True, w_min=0.5),
        lambda: classify_spherical(_TWELVE, k=2.0, t=1.0),
        lambda: classify_spherical(_TWELVE, k=True, t=1.0),
        lambda: kmedian_local_search(_TWELVE, 2.0, np.random.default_rng(0)),
        lambda: kmedian_exhaustive(_TWELVE, 1.5),
        lambda: fit_spherical_mixture(_TWELVE, 2.0, np.random.default_rng(0)),
        lambda: classify_spherical(_TWELVE, k=2, t=math.nan),
        lambda: classify_spherical(_TWELVE, k=2, t=math.inf),
    ],
    ids=[
        "config-float-k",
        "config-bool-k",
        "spherical-float-k",
        "spherical-bool-k",
        "local-search-float-k",
        "exhaustive-float-k",
        "fit-float-k",
        "spherical-nan-t",
        "spherical-inf-t",
    ],
)
def test_entry_points_reject_non_integral_k_and_non_finite_t(call):
    # k = 2.0 used to reach range(k) and die with a TypeError; t = nan used to
    # read as a ball too small to empty the sample, and t = inf removed all
    with pytest.raises(ValueError, match="must be an integer|positive and finite"):
        call()


@pytest.mark.parametrize("n", [2, 30], ids=["covariance-side", "gram-side"])
def test_classify_coincident_ball_has_zero_variance(n):
    # a ball of ten copies of one point, off the origin so the squared
    # distances between the copies are roundoff rather than 0, next to a
    # spread blob; the double-centered Gram side would give -0.0
    rng = np.random.default_rng(16)
    copies = np.tile(rng.normal(size=n) * 1e3, (10, 1))
    blob = rng.normal(size=(10, n)) + 1e4
    part = classify_general(
        np.vstack([copies, blob]), ClassifierConfig(k=2, w_min=0.5)
    )
    first = part.trace.steps[0]
    assert first.removed.tolist() == list(range(10))
    for value in (first.beta, first.beta_prime, first.nu):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0  # not -0.0
    assert first.s == 1


@pytest.mark.parametrize("n", [2, 30], ids=["covariance-side", "gram-side"])
def test_coincident_ball_ignores_roundoff_in_its_distances(n):
    # another BLAS may round the copies' squared distances differently; the
    # variance of coincident points is 0 whatever their distance block says
    rng = np.random.default_rng(17)
    pts = np.vstack([np.tile(rng.normal(size=n), (10, 1)), rng.normal(size=(5, n))])
    d2 = pairwise_sq_dists(pts)
    d2[:10, :10] += rng.random((10, 10)) * 1e-9
    assert _ball_variance(pts, d2, np.arange(10)) == 0.0


_PEEL_ERRORS = (ThresholdTooLarge, EmptyPeel, ResidualPointsAfterKPeels)


def _reference_general(points, config):
    """classify_general as one Gram expansion and one rooted matrix per peel
    over the live points, with each ball's variance from max_variance; returns
    the peel records as dicts, or the name of the error raised."""
    m_total = points.shape[0]
    threshold = math.ceil(3.0 * config.w_min * m_total / 4.0 - 1e-9)
    log_term = math.log(m_total / config.delta) + 1.0
    alive = np.arange(m_total)
    steps = []
    try:
        for _ in range(config.k):
            if alive.size < threshold:
                raise ThresholdTooLarge("too few live points")
            pts = points[alive]
            dists = np.sqrt(pairwise_sq_dists(pts))
            kth = np.partition(dists, threshold - 1, axis=1)[:, threshold - 1]
            x_loc = int(np.argmin(kth))
            alpha = float(kth[x_loc])
            row = dists[x_loc].copy()
            beta, _ = max_variance(pts[row <= alpha])
            nu = math.sqrt(config.w_min * beta / 8.0)
            s = 1
            inside = np.count_nonzero(row <= alpha)
            while (grown := np.count_nonzero(row <= alpha + s * nu)) != inside:
                inside = grown
                s += 1
            r_gap = alpha + s * nu
            beta_prime, _ = max_variance(pts[row <= r_gap])
            removal_radius = r_gap + 3.0 * math.sqrt(beta_prime) * log_term
            removed_mask = row <= removal_radius
            if not np.any(removed_mask):
                raise EmptyPeel("peel removed no points")
            steps.append(
                {
                    "center_index": int(alive[x_loc]),
                    "alpha": alpha,
                    "beta": beta,
                    "nu": nu,
                    "s": s,
                    "beta_prime": beta_prime,
                    "removal_radius": removal_radius,
                    "removed": alive[removed_mask].tolist(),
                }
            )
            alive = alive[~removed_mask]
        if alive.size:
            raise ResidualPointsAfterKPeels("points remain")
    except _PEEL_ERRORS as exc:
        return type(exc).__name__
    return steps


def _general_outcome(points, config):
    try:
        part = classify_general(points, config)
    except _PEEL_ERRORS as exc:
        return type(exc).__name__
    return [dict(step.to_dict(), removed=step.removed.tolist()) for step in part.trace.steps]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=3),
    per_blob=st.integers(min_value=6, max_value=20),
    n=st.sampled_from([2, 5, 12, 30, 80]),
    offset=st.sampled_from([0.0, 1e6]),
)
@example(seed=0, k=2, per_blob=20, n=2, offset=1e6)  # covariance side only
@example(seed=0, k=2, per_blob=20, n=80, offset=1e6)  # Gram side only
def test_general_matches_reference_loop(seed, k, per_blob, n, offset):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=100.0, size=(k, n))
    pts = centers[np.arange(k * per_blob) % k] + rng.normal(size=(k * per_blob, n))
    pts += offset
    config = ClassifierConfig(k=k, w_min=1.0 / k)
    # the reference is translation invariant in exact arithmetic; it gets the
    # points centered as classify_general centers them, so far from the
    # origin the two agree to roundoff of the centered coordinates
    want = _reference_general(pts - pts.mean(axis=0), config)
    have = _general_outcome(pts, config)
    if isinstance(want, str):
        assert have == want
        return
    assert len(have) == len(want)
    for h, w in zip(have, want):
        for key in ("center_index", "s", "removed"):
            assert h[key] == w[key], key
        for key in ("alpha", "beta", "nu", "beta_prime", "removal_radius"):
            assert h[key] == pytest.approx(w[key], rel=1e-9, abs=0.0), key


def _blobs(rng, k, per_blob, n, lattice):
    """k blobs of per_blob points around centers about 100 apart.  Lattice
    blobs are integer points, symmetric about integer centers that sum to 0:
    their mean is exactly 0 and every inner product is an exact integer, so
    distances that tie in exact arithmetic tie in both modes of the row
    engine."""
    centers = rng.normal(scale=100.0, size=(k, n))
    if not lattice:
        return centers[np.arange(k * per_blob) % k] + rng.normal(size=(k * per_blob, n))
    centers = np.round(centers)
    centers[-1] -= centers.sum(axis=0)
    half = rng.integers(-2, 3, size=(k, per_blob // 2, n)).astype(float)
    return (centers[:, None, :] + np.concatenate([half, -half], axis=1)).reshape(-1, n)


def _outcome_with(stored, points, config, block=None):
    """classify_general's outcome with its rows read from the stored matrix
    (``stored``) or formed on demand, whatever the threshold."""
    init = _SqDistRows.__init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            _SqDistRows, "__init__", lambda self, pts, store: init(self, pts, stored)
        )
        if block is not None:
            _blocks_of(mp, block)
        return _general_outcome(points, config)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=3),
    per_blob=st.integers(min_value=6, max_value=20),
    n=st.sampled_from([2, 5, 12, 30, 80]),
    offset=st.sampled_from([0.0, 1e6]),
    lattice=st.booleans(),
    block=st.sampled_from([1, 3, None]),
)
@example(seed=0, k=2, per_blob=20, n=80, offset=1e6, lattice=False, block=None)  # Gram side
@example(seed=3, k=3, per_blob=12, n=2, offset=1e6, lattice=True, block=1)  # many ties
def test_matrix_free_rows_peel_as_the_stored_matrix(
    seed, k, per_blob, n, offset, lattice, block
):
    # the same peels from rows formed on demand as from the stored matrix.
    # An inner product rounds differently in GEMMs of different shapes, and
    # with blobs about 100 apart |x|^2 is some 10^4 times alpha^2, so one
    # unit of roundoff in it is about 1e-12 of alpha^2; over 1500 random
    # draws alpha, beta, nu, beta' and the removal radius differed by at
    # most 3.7e-12 relative.  Lattice inner products are exact, and so are
    # the scalars.
    # Row blocks of 1 or 3 rows (None: the default size) let the bound stop
    # early on these small samples.
    pts = _blobs(np.random.default_rng(seed), k, per_blob, n, lattice) + offset
    config = ClassifierConfig(k=k, w_min=1.0 / k)
    stored = _outcome_with(True, pts, config, block)
    free = _outcome_with(False, pts, config, block)
    if isinstance(stored, str):
        assert free == stored
        return
    assert len(free) == len(stored)
    for f, s in zip(free, stored):
        for key in ("center_index", "s", "removed"):
            assert f[key] == s[key], key
        for key in ("alpha", "beta", "nu", "beta_prime", "removal_radius"):
            if lattice:
                assert f[key] == s[key], key
            else:
                assert f[key] == pytest.approx(s[key], rel=1e-11, abs=0.0), key


def test_general_picks_its_row_source_from_threshold_and_budget(monkeypatch):
    # the matrix is stored only when a ball may go to the Gram side
    # (threshold < n) and the matrix fits the budget
    picked = []
    init = _SqDistRows.__init__

    def record(self, points, store=False):
        init(self, points, store)
        picked.append("stored" if self.d2 is not None else "formed")

    monkeypatch.setattr(_SqDistRows, "__init__", record)
    pts = _blobs(np.random.default_rng(4), 2, 20, 30, False)
    config = ClassifierConfig(k=2, w_min=0.5)  # threshold 15
    classify_general(pts, config)
    classify_general(pts[:, :15], config)
    monkeypatch.setattr(classify_module, "_MATRIX_BUDGET", 40 * 40 * 8 - 1)
    classify_general(pts, config)
    assert picked == ["stored", "formed", "formed"]


def test_peels_form_few_float64_rows_on_a_planted_mixture(monkeypatch):
    # the float32 screen and the dense-ball bound: every peel on a separated
    # mixture, the first included, forms fewer than 5% of its live rows in
    # float64
    formed = []
    live, block = _SqDistRows.live, _SqDistRows.block

    def count_live(self, alive):
        if alive is not None:  # a peel's live columns, not the constructor's
            formed.append([alive.size, 0])
        live(self, alive)

    def count_block(self, rows, **kwargs):
        formed[-1][1] += rows.size
        return block(self, rows, **kwargs)

    monkeypatch.setattr(_SqDistRows, "live", count_live)
    monkeypatch.setattr(_SqDistRows, "block", count_block)
    mix = plant_separated_mixture(
        n=16, k=3, shape_spec=(1.0, 2.0), config=SeparationConfig(t=10.0, mode="practical"),
        slack=1.5, rng=np.random.default_rng(20),
    )
    samples = sample_mixture(mix, np.random.default_rng(21), 3000, seed=21)
    part = classify_general(samples, ClassifierConfig(k=3, w_min=1.0 / 3.0))
    assert partition_compare(part, samples.labels).exact_match
    assert len(formed) == 3
    for alive, count in formed:
        assert count < 0.05 * alive, formed


# ---------------------------------------------------------------------------
# classify_spherical
# ---------------------------------------------------------------------------


def test_spherical_single_cluster_covers_everything():
    mix = _spherical_mixture([[0.0] * 32])
    samples = sample_mixture(mix, np.random.default_rng(70), 500)
    part = classify_spherical(samples, k=1, t=5.0)
    assert np.array_equal(np.sort(part.clusters[0]), np.arange(500))


def test_spherical_planted_four_components():
    centers = np.zeros((4, 64))
    for i in range(1, 4):
        centers[i, i - 1] = 50.0
    mix = _spherical_mixture([c for c in centers])
    samples = sample_mixture(mix, np.random.default_rng(71), 2000, seed=71)
    part = classify_spherical(samples, k=4, t=5.0)
    assert partition_compare(part, samples.labels).exact_match


def test_spherical_coincident_pair_degenerate():
    # two identical points: min distance 0, first cluster is that ball of
    # radius 0 (all coincident copies)
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    part = classify_spherical(pts, k=2, t=1.0)
    assert sorted(part.clusters[0].tolist()) == [0, 1]
    assert part.clusters[1].tolist() == [2]


def test_spherical_requires_positive_t():
    pts = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(ValueError):
        classify_spherical(pts, k=1, t=0.0)


def test_spherical_residual_error_when_ball_too_small():
    # clusters too diffuse for the low-dimensional radius factor: stragglers
    # are left over after k peels
    mix = _spherical_mixture([[0.0] * 2, [60.0, 0.0]])
    samples = sample_mixture(mix, np.random.default_rng(72), 600, seed=72)
    with pytest.raises(ResidualPointsAfterKPeels):
        classify_spherical(samples, k=2, t=9.0)


def test_spherical_ambient_dim_override():
    # embedded concentric data carries its true dimension in metadata; the
    # radius factor must use it rather than the matrix width
    from sepmix.model import sample_concentric_spherical_embedded

    s = sample_concentric_spherical_embedded(
        sigmas=[1.0, 40.0],
        weights=[0.5, 0.5],
        ambient_dim=4_000_000,
        rng=np.random.default_rng(73),
        count=300,
    )
    part = classify_spherical(s, k=2, t=5.0)
    assert partition_compare(part, s.labels).exact_match


def _reference_spherical(points, k, t):
    """classify_spherical as a rooted copy of the whole distance matrix and
    one live submatrix per peel; returns the clusters."""
    m_total, n = points.shape
    factor = 1.0 + 3.0 * t / math.sqrt(n)
    dists = np.sqrt(pairwise_sq_dists(points))
    alive = np.arange(m_total)
    clusters = []
    for _ in range(k):
        if alive.size == 0:
            raise EmptyPeel("no points left to peel")
        if alive.size == 1:
            clusters.append(alive.copy())
            alive = alive[:0]
            continue
        sub = dists[np.ix_(alive, alive)]
        np.fill_diagonal(sub, np.inf)
        flat = int(np.argmin(sub))
        i_loc = flat // alive.size
        radius = float(sub.flat[flat]) * factor
        removed_mask = dists[alive[i_loc]][alive] <= radius
        clusters.append(alive[removed_mask])
        alive = alive[~removed_mask]
    if alive.size:
        raise ResidualPointsAfterKPeels(f"{alive.size} points remain after {k} peels")
    return clusters


def _peel_outcome(run):
    try:
        return [c.tolist() for c in run()]
    except (EmptyPeel, ResidualPointsAfterKPeels) as exc:
        return type(exc).__name__


def _assert_spherical_matches_reference(pts, t):
    # every k up to the first that leaves no residual points, so each peel
    # of the sequence is compared, not only the final partition
    for k in range(1, pts.shape[0] + 1):
        want = _peel_outcome(lambda: _reference_spherical(pts, k, t))
        have = _peel_outcome(lambda: classify_spherical(pts, k=k, t=t).clusters)
        assert have == want, k
        if want != "ResidualPointsAfterKPeels":
            break


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=40),
    n=st.integers(min_value=1, max_value=4),
    t=st.floats(min_value=0.01, max_value=20.0),
    lattice=st.booleans(),
    offset=st.sampled_from([0.0, 1e6]),
)
def test_spherical_matches_reference_loop(seed, m, n, t, lattice, offset):
    rng = np.random.default_rng(seed)
    if lattice:  # integer points: exact distances, many tied and repeated
        pts = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        blobs = rng.normal(scale=10.0, size=(int(rng.integers(1, 5)), n))
        pts = blobs[rng.integers(0, blobs.shape[0], size=m)] + rng.normal(size=(m, n))
    # far from the origin the Gram roundoff leaves nonzero self-distances
    _assert_spherical_matches_reference(pts + offset, t)


def _assert_spherical_peels_match_reference(pts, t):
    # the peel sequence does not depend on k, so the reference's peel count
    # K is found by bisection: k < K leaves residual points and k > K runs
    # out of points.  K - 1, K and K + 1 then compare every peel and both
    # errors at the cost of a few runs rather than K.
    lo, hi = 1, pts.shape[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if _peel_outcome(lambda: _reference_spherical(pts, mid, t)) == (
            "ResidualPointsAfterKPeels"
        ):
            lo = mid + 1
        else:
            hi = mid
    for k in range(max(lo - 1, 1), lo + 2):
        want = _peel_outcome(lambda: _reference_spherical(pts, k, t))
        have = _peel_outcome(lambda: classify_spherical(pts, k=k, t=t).clusters)
        assert have == want, k


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=150, max_value=400),
    n=st.integers(min_value=1, max_value=4),
    t=st.floats(min_value=0.01, max_value=20.0),
    lattice=st.booleans(),
    offset=st.sampled_from([0.0, 1e6]),
    min_blocks=st.booleans(),
)
@example(seed=1, m=397, n=3, t=0.5, lattice=False, offset=0.0, min_blocks=True)
@example(seed=2, m=389, n=4, t=0.05, lattice=True, offset=1e6, min_blocks=False)
def test_spherical_matches_reference_across_blocks(
    seed, m, n, t, lattice, offset, min_blocks
):
    # Several row blocks, the last one short, with stale rows refreshed from
    # blocks other than the removed points'.  min_blocks takes blocks of
    # _MIN_GEMM_ROWS rows; otherwise 150 to 400 points make 1 to 5 blocks.
    # Gaussian points stay at the origin: at 1e6 the Gram expansion resolves
    # squared distances only to about n eps |x|^2 ~ 1e-3, above the closest
    # distances here, and a block GEMM rounds them otherwise than the
    # reference's one symmetric product, so the two would compare roundings.
    # Integer points have exact distances at either offset.
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(-2, 3, size=(m, n)).astype(float) + offset
    else:
        blobs = rng.normal(scale=10.0, size=(int(rng.integers(1, 5)), n))
        pts = blobs[rng.integers(0, blobs.shape[0], size=m)] + rng.normal(size=(m, n))
    with pytest.MonkeyPatch.context() as mp:
        if min_blocks:
            mp.setattr(classify_module, "_BLOCK_BYTES", 0)
        _assert_spherical_peels_match_reference(pts, t)


def test_spherical_refreshes_stale_rows_block_by_block(monkeypatch):
    # a tight pair near the origin is every other point's nearest neighbour
    # (unit vectors, sqrt(2) apart), so the first peel leaves every live row
    # stale.  Every float64 row the warm-up reads comes from its aligned
    # block of 16 rows, formed anew each time it is read.  The pair (0, 1)
    # is found in block 0, and block 0 is formed again for its removal row;
    # then each of the 13 blocks is formed, once, to resolve the stale rows,
    # the pair (2, 3) among them, and block 0 again for its removal row.
    monkeypatch.setattr(classify_module, "_BLOCK_BYTES", 0)
    pts = np.vstack([np.zeros((2, 200)), np.eye(200)[2:]])
    pts[1, 0] = 1e-3
    formed = []
    block = _SqDistRows.block
    monkeypatch.setattr(
        _SqDistRows,
        "block",
        lambda self, rows: formed.append(rows) or block(self, rows),
    )
    part = classify_spherical(pts, k=2, t=0.01)
    assert [c.tolist() for c in part.clusters] == [[0, 1], list(range(2, 200))]
    assert all(rows.start % 16 == 0 and rows.stop == rows.start + 16 for rows in formed)
    starts = [rows.start for rows in formed]
    assert starts[:2] == [0, 0] and starts[-1] == 0
    assert sorted(starts[2:-1]) == list(range(0, 200, 16))


@pytest.mark.parametrize(
    "offset, share", [(0.0, 0.05), (1e6, 0.10)], ids=["origin", "far-offset"]
)
def test_warm_up_forms_few_float64_blocks(monkeypatch, offset, share):
    # The float32 screen leaves few rows that can still hold the closest
    # pair: on the criterion-3 mixture (n=64, k=4, simplex side 57.66), an
    # M=4000 warm-up forms few of its 250 aligned blocks in float64, removal
    # rows included.  Far from the origin the screen works on a centered
    # copy, and its float64 allowance grows with |x|^2; an uncentered float32
    # screen formed all of them at offsets 1e4 and 1e6.
    centers = np.zeros((4, 64))
    centers[np.arange(4), np.arange(4)] = 57.66 / math.sqrt(2.0)
    samples = sample_mixture(
        _spherical_mixture(list(centers)), np.random.default_rng(606), 4000, seed=606
    )
    formed = []
    block = _SqDistRows.block
    monkeypatch.setattr(
        _SqDistRows,
        "block",
        lambda self, rows: formed.append(rows) or block(self, rows),
    )
    part = classify_spherical(samples.points + offset, k=4, t=5.0)
    assert partition_compare(part, samples.labels).exact_match
    assert len(formed) <= share * 250, len(formed)


def test_spherical_matches_reference_on_grid_with_repeats():
    grid = np.array([[x, y] for x in range(6) for y in range(6)], dtype=float)
    pts = np.vstack([grid, grid[::5], 10.0 * grid[:7]])
    for t in (0.05, 0.2, 1.0, 3.0):
        _assert_spherical_matches_reference(pts, t)


def test_spherical_removal_ball_tests_the_centers_own_entry():
    # far from the origin the Gram roundoff leaves point 0's own squared
    # distance positive while its near-duplicate's clips to 0, so the
    # radius-0 ball around point 0 removes point 1 but not point 0 itself
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(10, 4)) * 1e3 + rng.normal(size=4) * 1e7
    pts[1] = pts[0] + rng.normal(size=4) * 1e-6
    d2 = pairwise_sq_dists(pts)
    assert d2[0, 0] > 0.0 == d2[0, 1]
    _assert_spherical_matches_reference(pts, 1.0)
    with pytest.raises(ResidualPointsAfterKPeels):
        classify_spherical(pts, k=3, t=1.0)
