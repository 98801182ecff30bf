"""Peak-memory guards for the M x M kernels and the Monte Carlo draws.

Each kernel may hold the one M x M squared distance matrix it builds, plus
temporaries far smaller than it.  A second M x M temporary, such as an
unblocked Gram expansion or a rooted copy of the matrix, lifts the peak to
2 M^2 * 8 bytes or more and fails these tests.  numpy reports its data
buffers to tracemalloc, so the traced peak covers every array allocated.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from sepmix.classify import (
    ClassifierConfig,
    classify_general,
    classify_spherical,
    pairwise_sq_dists,
)
from sepmix.concentration import covariance_concentration_check, pair_distance_check
from sepmix.kmedian import kmedian_local_search
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


# The Monte Carlo checks and radii work on their standard normal block in
# place in eigen coordinates; the rotated draws, their deviations from the
# center and a projection of them are never formed.  Each may hold the block
# (median_radius only a chunk of it) plus vectors of one entry per draw.
DRAWS, DIM = 100_000, 8
BLOCK = DRAWS * DIM * 8


@pytest.fixture(scope="module")
def rotated_component():
    from sepmix.model import make_gaussian, random_rotation

    rng = np.random.default_rng(6)
    lam = rng.uniform(0.5, 3.0, size=DIM)
    g = make_gaussian(1e3 + rng.normal(size=DIM), lam, random_rotation(DIM, rng))
    g.median_radius = 4.0
    return g


@pytest.mark.parametrize(
    "call",
    [
        lambda g, rng: pair_distance_check(g, 1.0, DRAWS // 2, rng),
        lambda g, rng: covariance_concentration_check(g, DRAWS, 0.1, 16, rng),
        lambda g, rng: median_radius(g, rng, DRAWS, method="mc"),
    ],
    ids=["pair_distance_check", "covariance_concentration_check", "median_radius"],
)
def test_peak_stays_near_one_standard_normal_block(call, rotated_component):
    rng = np.random.default_rng(2)
    peak = _traced_peak(lambda: call(rotated_component, rng))
    assert peak <= 1.35 * BLOCK, f"peak {peak / BLOCK:.2f} x the normal block"
