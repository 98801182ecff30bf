"""Peak-memory guards for the M x M kernels and the Monte Carlo draws.

Every M x M pass forms its squared distances in the one row engine,
classify._SqDistRows, under one memory rule: a matrix is stored only within
classify._MATRIX_BUDGET, and an array larger than physical memory is refused
before it is allocated.  pairwise_sq_dists may hold the one M x M squared
distance matrix it builds, plus temporaries far smaller than it, and the
k-median search a float32 copy of its upper triangle.  A second M x M
temporary, such as an unblocked Gram expansion or a rooted copy of the
matrix, lifts the peak to 2 M^2 * 8 bytes or more and fails these tests.
The warm-up and classify_general on rows formed on demand hold no matrix at
all: row blocks of O(B M) entries, the points and vectors of one entry per
point.

The Monte Carlo checks and median_radius draw the variates of their
statistic's law in blocks of a quarter of model._DRAW_CHUNK samples, into
two reused buffers (512 KiB), and reduce each block as it is drawn, so none
forms its whole draw: each holds one block plus at most one vector of one
entry per draw.  The two pair checks draw x - y from its own law, so
neither keeps any points.  The covariance check holds an n x n Bartlett
factor, not a block of draws.  numpy reports its data buffers to
tracemalloc, so the traced peak covers every array allocated.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from sepmix import classify, model
from sepmix.classify import (
    ClassifierConfig,
    classify_general,
    classify_spherical,
    pairwise_sq_dists,
)
from sepmix.concentration import (
    ball_growth_check,
    covariance_concentration_check,
    cross_pair_check,
    pair_distance_check,
    point_distance_check,
    shell_mass_check,
)
from sepmix.errors import InstanceTooLarge
from sepmix.kmedian import _UpperTriangle, kmedian_local_search
from sepmix.model import median_radius

M, N = 3000, 8
LIMIT = 1.35 * M * M * 8


@pytest.fixture(scope="module")
def three_clusters():
    rng = np.random.default_rng(5)
    centers = np.zeros((3, N))
    centers[1, 0] = centers[2, 1] = 1e3
    return rng.normal(size=(M, N)) + centers[np.arange(M) % 3]


def _traced_peak(call) -> int:
    """Peak traced bytes above the level at the call's start."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda pts: pairwise_sq_dists(pts),
        lambda pts: classify_spherical(pts, k=3, t=100.0),
        lambda pts: classify_general(pts, ClassifierConfig(k=3, w_min=0.3)),
        lambda pts: kmedian_local_search(pts, 3, np.random.default_rng(1)),
    ],
    ids=[
        "pairwise_sq_dists",
        "classify_spherical",
        "classify_general",
        "kmedian_local_search",
    ],
)
def test_peak_stays_near_one_distance_matrix(call, three_clusters):
    peak = _traced_peak(lambda: call(three_clusters))
    assert peak <= LIMIT, f"peak {peak / (M * M * 8):.2f} x M^2 * 8 bytes"


def test_classify_general_holds_no_distance_matrix(three_clusters):
    # threshold 675 >= n = 8: every ball goes to the covariance side, so the
    # peels read rows formed on demand; the matrix alone is M^2 * 8 bytes
    config = ClassifierConfig(k=3, w_min=0.3)
    peak = _traced_peak(lambda: classify_general(three_clusters, config))
    assert peak <= 0.05 * M * M * 8, f"peak {peak / (M * M * 8):.3f} x M^2 * 8 bytes"


def test_warm_up_holds_no_distance_matrix(three_clusters):
    peak = _traced_peak(lambda: classify_spherical(three_clusters, k=3, t=100.0))
    assert peak <= 0.05 * M * M * 8, f"peak {peak / (M * M * 8):.3f} x M^2 * 8 bytes"


def test_kmedian_holds_half_a_distance_matrix(three_clusters):
    # the float32 upper triangle is about M (M + B) / 2 entries of 4 bytes
    # for blocks of B rows, a quarter of the float64 matrix; the float64 rows
    # the search forms are O(B M)
    peak = _traced_peak(
        lambda: kmedian_local_search(three_clusters, 3, np.random.default_rng(1))
    )
    assert peak <= 0.35 * M * M * 8, f"peak {peak / (M * M * 8):.2f} x M^2 * 8 bytes"


def test_kmedian_refuses_triangle_beyond_physical_memory(monkeypatch, three_clusters):
    # a machine with a quarter of the matrix, M^2 * 2 bytes: the float32
    # triangle takes (M^2 + sum of B^2 over its blocks) * 2 bytes, a little
    # more, and the search stops before forming any block
    monkeypatch.setattr(classify, "_physical_memory", lambda: M * M * 8 // 4)

    def search():
        with pytest.raises(InstanceTooLarge, match="physical memory"):
            kmedian_local_search(three_clusters, 3, np.random.default_rng(1))

    peak = _traced_peak(search)
    assert peak <= 0.01 * M * M * 8, f"peak {peak / (M * M * 8):.3f} x M^2 * 8 bytes"


def test_kmedian_triangle_is_sized_at_four_bytes_an_entry(monkeypatch, three_clusters):
    # a machine with a third of the matrix, M^2 * 8 / 3 bytes, holds the
    # float32 triangle (a little over M^2 * 2 bytes) but would not hold a
    # float64 one (M^2 * 4)
    monkeypatch.setattr(classify, "_physical_memory", lambda: M * M * 8 // 3)
    assert len(_UpperTriangle(three_clusters).blocks) > 1


def test_pairwise_sq_dists_refuses_before_forming_the_product(
    monkeypatch, three_clusters
):
    # the same machine, and the same rule: the matrix is refused before its
    # product is formed
    monkeypatch.setattr(classify, "_physical_memory", lambda: M * M * 8 // 4)

    def form():
        with pytest.raises(InstanceTooLarge, match="physical memory"):
            pairwise_sq_dists(three_clusters)

    peak = _traced_peak(form)
    assert peak <= 0.01 * M * M * 8, f"peak {peak / (M * M * 8):.3f} x M^2 * 8 bytes"


def _two_blobs(m, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, n))
    pts[m // 2 :, 0] += 1e3
    return pts


def test_classify_general_at_ten_thousand_points():
    # an 800 MB matrix is never formed: the peak stays under 1% of it
    m = 10_000
    pts = _two_blobs(m, 4, 7)
    config = ClassifierConfig(k=2, w_min=0.5)
    clusters = []
    peak = _traced_peak(lambda: clusters.extend(classify_general(pts, config).clusters))
    assert sorted(c.size for c in clusters) == [m // 2, m // 2]
    assert peak <= 0.01 * m * m * 8, f"peak {peak / (m * m * 8):.4f} x M^2 * 8 bytes"


def test_warm_up_at_ten_thousand_points():
    # an 800 MB matrix is never formed: the peak stays under 1% of it
    m = 10_000
    pts = _two_blobs(m, 16, 9)
    clusters = []

    def warm_up():
        clusters.extend(classify_spherical(pts, k=2, t=10.0).clusters)

    peak = _traced_peak(warm_up)
    assert sorted(c.size for c in clusters) == [m // 2, m // 2]
    assert peak <= 0.01 * m * m * 8, f"peak {peak / (m * m * 8):.4f} x M^2 * 8 bytes"


def test_classify_general_gram_side_balls_over_budget(monkeypatch):
    # threshold 60 < n = 64, so balls of 60 to 63 points take their Gram
    # matrices; a matrix over budget is not stored, and each such ball forms
    # its own m x m squared distances.  The rest is the points (centered,
    # gathered, and a ball's copy and deviations), row blocks and vectors of
    # one entry per point.
    m, n = 2000, 64
    monkeypatch.setattr(classify, "_MATRIX_BUDGET", 0)
    pts = _two_blobs(m, n, 8)
    config = ClassifierConfig(k=2, w_min=0.04)
    steps = []
    peak = _traced_peak(lambda: steps.extend(classify_general(pts, config).trace.steps))
    assert [s.removed.size for s in steps] == [m // 2, m // 2]
    block = max(classify._BLOCK_BYTES, classify._MIN_GEMM_ROWS * m * 8)
    limit = 4 * m * n * 8 + 4 * block + 2 * n * n * 8
    assert peak <= limit, f"peak {peak / limit:.2f} x the bound"


# The Monte Carlo checks and radii draw each squared distance from its law;
# the rotated draws, their deviations from the center and a projection of
# them are never formed, nor is the whole DRAWS x DIM normal block (6.4 MB).
# Each holds one draw block, within model._DRAW_CHUNK values and a quarter
# more for the vectors of one entry per row of it, plus at most one vector
# of one entry per draw.
DRAWS, DIM = 100_000, 8
DRAW_BLOCK = 1.25 * model._DRAW_CHUNK * 8


@pytest.fixture(scope="module")
def rotated_component():
    from sepmix.model import make_gaussian, random_rotation

    rng = np.random.default_rng(6)
    lam = rng.uniform(0.5, 3.0, size=DIM)
    g = make_gaussian(1e3 + rng.normal(size=DIM), lam, random_rotation(DIM, rng))
    g.median_radius = 4.0
    return g


# the directions the covariance check tests, (num_dirs + n + 1) x n, and its
# n x n Bartlett factor: it forms about eight arrays of the directions' size
# and two of the factor's; the rest is room for Python's own allocations
COV_DIRS, COV_FACTOR = (16 + DIM + 1) * DIM * 8, DIM * DIM * 8


@pytest.mark.parametrize(
    "call, limit",
    [
        (lambda g, rng: pair_distance_check(g, 1.0, DRAWS // 2, rng), DRAW_BLOCK),
        (
            lambda g, rng: covariance_concentration_check(g, DRAWS, 0.1, 16, rng),
            10 * COV_DIRS + 4 * COV_FACTOR,
        ),
        # the radius keeps one squared distance per draw
        (
            lambda g, rng: median_radius(g, rng, DRAWS, method="mc"),
            DRAW_BLOCK + DRAWS * 8,
        ),
    ],
    ids=["pair_distance_check", "covariance_concentration_check", "median_radius"],
)
def test_peak_stays_near_one_standard_normal_block(call, limit, rotated_component):
    rng = np.random.default_rng(2)
    peak = _traced_peak(lambda: call(rotated_component, rng))
    assert peak <= limit, f"peak {peak / limit:.3f} x the bound"


# Draws whose one block would be 51 MB.  A streamed check holds one draw
# block, with the few vectors of one entry per row of it; the pair checks
# draw one x - y a pair, so they hold no more.  A spectrum without repeats
# draws n normals per sample and a repeated one a few variates, both in
# blocks of a quarter chunk of samples, and they hold the same.
WIDE_DRAWS, WIDE_DIM = 100_000, 64
PER_DRAW = WIDE_DRAWS * 8


@pytest.fixture(scope="module")
def wide_pair():
    from sepmix.model import make_gaussian, random_rotation

    rng = np.random.default_rng(16)
    pair = []
    for offset in (0.0, 1e3):
        lam = rng.uniform(0.5, 3.0, size=WIDE_DIM)
        rot = random_rotation(WIDE_DIM, rng)
        g = make_gaussian(offset + rng.normal(size=WIDE_DIM), lam, rot)
        g.median_radius = 11.0
        pair.append(g)
    return pair


@pytest.mark.parametrize(
    "call, limit",
    [
        (
            lambda g, h, rng: shell_mass_check(g, 1.0, WIDE_DRAWS, rng),
            DRAW_BLOCK,
        ),
        (
            lambda g, h, rng: point_distance_check(g, h.center, 1.0, WIDE_DRAWS, rng),
            DRAW_BLOCK,
        ),
        (
            lambda g, h, rng: ball_growth_check(
                g, g.center, np.linspace(0.0, 20.0, 40), WIDE_DRAWS, rng
            ),
            DRAW_BLOCK,
        ),
        (
            lambda g, h, rng: pair_distance_check(g, 1.0, WIDE_DRAWS, rng),
            DRAW_BLOCK,
        ),
        (
            lambda g, h, rng: cross_pair_check(g, h, 1.0, WIDE_DRAWS, rng),
            DRAW_BLOCK,
        ),
    ],
    ids=[
        "shell_mass_check",
        "point_distance_check",
        "ball_growth_check",
        "pair_distance_check",
        "cross_pair_check",
    ],
)
def test_streamed_check_holds_no_draw_block(call, limit, wide_pair):
    rng = np.random.default_rng(4)
    peak = _traced_peak(lambda: call(*wide_pair, rng))
    assert peak <= limit, f"peak {peak / limit:.3f} x the bound"


def _wide_axis_pair(top):
    """Two axis-aligned components at WIDE_DIM, 1e3 apart on every axis, of
    spectrum diag(top, 1, ..., 1); spherical at top = 1.  Their checks draw
    one to three variates per sample, not WIDE_DIM normals."""
    from sepmix.model import make_gaussian

    lam = np.ones(WIDE_DIM)
    lam[0] = top
    pair = [make_gaussian(np.full(WIDE_DIM, c), lam) for c in (0.0, 1e3)]
    for g in pair:
        median_radius(g)
    return pair


@pytest.fixture(scope="module", params=[1.0, 100.0], ids=["spherical", "diag-top"])
def wide_repeated_pair(request):
    return _wide_axis_pair(request.param)


@pytest.mark.parametrize(
    "call, limit",
    [
        (lambda g, h, rng: shell_mass_check(g, 1.0, WIDE_DRAWS, rng), DRAW_BLOCK),
        (
            lambda g, h, rng: point_distance_check(g, h.center, 1.0, WIDE_DRAWS, rng),
            DRAW_BLOCK,
        ),
        (
            lambda g, h, rng: ball_growth_check(
                g, g.center, np.linspace(0.0, 20.0, 40), WIDE_DRAWS, rng
            ),
            DRAW_BLOCK,
        ),
        (lambda g, h, rng: pair_distance_check(g, 1.0, WIDE_DRAWS, rng), DRAW_BLOCK),
        (lambda g, h, rng: cross_pair_check(g, h, 1.0, WIDE_DRAWS, rng), DRAW_BLOCK),
        # the radius keeps one squared distance per draw
        (
            lambda g, h, rng: median_radius(g, rng, WIDE_DRAWS, method="mc"),
            DRAW_BLOCK + PER_DRAW,
        ),
    ],
    ids=[
        "shell_mass_check",
        "point_distance_check",
        "ball_growth_check",
        "pair_distance_check",
        "cross_pair_check",
        "median_radius",
    ],
)
def test_repeated_spectrum_check_holds_no_draw_block(call, limit, wide_repeated_pair):
    rng = np.random.default_rng(4)
    peak = _traced_peak(lambda: call(*wide_repeated_pair, rng))
    assert peak <= limit, f"peak {peak / limit:.3f} x the bound"


# A ball of m < n points takes its top eigenvalue from its m x m Gram matrix,
# double-centered from the ball's squared distances: a block gathered from
# the stored matrix, or formed from the ball's points when none is stored.
# LAPACK solves in that block, so the solve adds only its O(m) workspace.  A
# copy made for LAPACK would be a second block and lift either peak to two.
@pytest.fixture
def gram_side_peaks(monkeypatch):
    """Run classify_general on a concentric pair of M = 600 points in 600
    dimensions (threshold 225 < n) and return, per _ball_variance call, the
    ball size m, the call's traced peak and its peak while the eigenproblem
    is solved, both in bytes above the traced level at the call's start."""
    import scipy.linalg  # noqa: F401  (its import is not the solve's memory)

    ball_variance, solve = classify._ball_variance, classify._top_eigenpair
    calls, call = [], {}

    def traced_solve(g):
        call["before"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = solve(g)
        call["solve"] = tracemalloc.get_traced_memory()[1]
        return out

    def traced_ball(points, d2, ball):
        assert ball.size < points.shape[1]
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        beta = ball_variance(points, d2, ball)
        peak = max(call["before"], tracemalloc.get_traced_memory()[1])
        calls.append((ball.size, peak - start, call.pop("solve") - start))
        return beta

    monkeypatch.setattr(classify, "_top_eigenpair", traced_solve)
    monkeypatch.setattr(classify, "_ball_variance", traced_ball)

    def run():
        samples = model.sample_concentric_spherical_embedded(
            [1.0, 10.0], [0.5, 0.5], 10**6, np.random.default_rng(9), 600
        )
        gc.collect()
        tracemalloc.start()
        try:
            classify_general(samples.points, ClassifierConfig(k=2, w_min=0.5))
        finally:
            tracemalloc.stop()
        assert len(calls) == 4
        return calls

    return run


def test_stored_ball_solves_its_gram_block_in_place(gram_side_peaks):
    # the block gathered from the stored matrix is all the call holds
    for m, peak, solve_peak in gram_side_peaks():
        block = m * m * 8
        assert peak <= 1.5 * block, f"m = {m}: peak {peak / block:.2f} blocks"
        assert solve_peak <= 1.5 * block, f"m = {m}: {solve_peak / block:.2f} blocks"


def test_on_demand_ball_solves_its_gram_block_in_place(monkeypatch, gram_side_peaks):
    # no matrix is stored: forming the ball's squared distances holds its
    # m x n points, more than one block, but the solve holds the Gram block
    # alone
    monkeypatch.setattr(classify, "_MATRIX_BUDGET", 0)
    for m, _, solve_peak in gram_side_peaks():
        block = m * m * 8
        assert solve_peak <= 1.5 * block, f"m = {m}: {solve_peak / block:.2f} blocks"
