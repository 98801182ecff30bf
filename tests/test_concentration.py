import math

import numpy as np
import pytest

import sepmix.concentration as concentration
import sepmix.model as model
from sepmix.concentration import (
    ball_growth_check,
    covariance_concentration_check,
    cross_pair_check,
    pair_distance_check,
    point_distance_check,
    shell_mass_check,
    _bound,
)
from sepmix.errors import (
    DimensionMismatch,
    GridTooCoarse,
    InvalidDelta,
    MissingMedianRadius,
    NonFiniteInput,
    PairNotSeparated,
    TooFewSamples,
)
from sepmix.model import (
    make_gaussian,
    median_radius,
    random_rotation,
    sample,
    spherical_median_radius,
)
from sepmix.separation import SeparationConfig, pair_separation_rhs


def _spherical(n, sigma=1.0, center=None):
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    g = make_gaussian(c, np.full(n, sigma * sigma))
    median_radius(g, method="auto")
    return g


def _eccentric(n, top=100.0, rng_seed=0):
    eigs = np.ones(n)
    eigs[0] = top
    g = make_gaussian(np.zeros(n), eigs)
    median_radius(g, np.random.default_rng(rng_seed), 200_000, method="mc")
    return g


# ---------------------------------------------------------------------------
# the 3-sigma slack rule
# ---------------------------------------------------------------------------


def test_bound_slack_formula():
    slack = 3.0 * math.sqrt(0.8647 * (1.0 - 0.8647) / 100_000)
    b = _bound(0.8647, 86_200, 100_000)
    assert b.slack == pytest.approx(slack)
    assert b.passed  # 0.862 >= 0.8647 - 0.00324
    assert not _bound(0.8647, 86_100, 100_000).passed  # 0.861 is below the gate


def test_bound_slack_floor():
    # degenerate claims keep a 3/N floor so zero-variance cases are not
    # impossible to pass by rounding
    b = _bound(1.0, 99_999, 100_000)
    assert b.slack == pytest.approx(3.0 / 100_000)
    assert b.passed


def test_bound_fails_when_observed_low():
    b = _bound(0.9, 80_000, 100_000)
    assert not b.passed


def test_bound_negative_claim_trivially_passes():
    # claims 1 - c e^{-t} can be negative at small t; any observation passes
    b = _bound(1.0 - 6.0 * math.exp(-1.0), 0, 10_000)
    assert b.passed


# ---------------------------------------------------------------------------
# shell mass (median shell of width t sigma)
# ---------------------------------------------------------------------------


def test_shell_mass_spherical():
    g = _spherical(16)
    b = shell_mass_check(g, 2.0, 100_000, np.random.default_rng(1))
    assert b.claimed == pytest.approx(1.0 - math.exp(-2.0))
    assert b.passed


def test_shell_mass_t_zero_vacuous():
    g = _spherical(4)
    b = shell_mass_check(g, 0.0, 10_000, np.random.default_rng(2))
    assert b.claimed == 0.0
    assert b.passed


def test_shell_mass_eccentric():
    g = _eccentric(8)
    b = shell_mass_check(g, 3.0, 100_000, np.random.default_rng(3))
    assert b.passed


def test_shell_mass_needs_radius():
    g = make_gaussian(np.zeros(4), np.ones(4))
    with pytest.raises(MissingMedianRadius):
        shell_mass_check(g, 1.0, 10_000, np.random.default_rng(0))


def test_shell_mass_needs_enough_samples():
    g = _spherical(4)
    with pytest.raises(TooFewSamples):
        shell_mass_check(g, 1.0, 9_999, np.random.default_rng(0))


def test_shell_mass_deterministic():
    g = _spherical(8)
    b1 = shell_mass_check(g, 1.5, 20_000, np.random.default_rng(9))
    b2 = shell_mass_check(g, 1.5, 20_000, np.random.default_rng(9))
    assert b1.observed == b2.observed


def test_claims_increase_with_t():
    claims = [1.0 - math.exp(-t) for t in (1.0, 2.0, 3.0)]
    assert claims == sorted(claims)


# ---------------------------------------------------------------------------
# distance from a fixed point
# ---------------------------------------------------------------------------


def test_point_distance_at_center_reduces_to_shell():
    g = _spherical(16)
    b = point_distance_check(g, g.center, 2.0, 100_000, np.random.default_rng(4))
    assert b.claimed == pytest.approx(1.0 - 2.0 * math.exp(-2.0))
    assert b.passed


def test_point_distance_far_point():
    g = _spherical(32)
    z = np.zeros(32)
    z[0] = 10.0 * g.median_radius
    b = point_distance_check(g, z, 2.0, 100_000, np.random.default_rng(5))
    assert b.passed


def test_point_distance_random_shape():
    rng = np.random.default_rng(6)
    from sepmix.model import random_rotation

    g = make_gaussian(rng.normal(size=4), rng.uniform(0.3, 3.0, size=4),
                      random_rotation(4, rng))
    median_radius(g, rng, 200_000, method="mc")
    b = point_distance_check(g, rng.normal(size=4), 1.0, 100_000, rng)
    assert b.passed


def test_point_distance_requires_t_at_least_one():
    g = _spherical(4)
    with pytest.raises(ValueError):
        point_distance_check(g, g.center, 0.5, 10_000, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# within-component pairs
# ---------------------------------------------------------------------------


def test_pair_distance_spherical():
    g = _spherical(64)
    b = pair_distance_check(g, 2.0, 100_000, np.random.default_rng(7))
    assert b.claimed == pytest.approx(1.0 - 3.0 * math.exp(-2.0))
    assert b.passed


def test_pair_distance_eccentric():
    g = _eccentric(16)
    b = pair_distance_check(g, 3.0, 100_000, np.random.default_rng(8))
    assert b.passed


def test_pair_distance_small_radius_lower_bound_vacuous():
    # R <= 4 t sigma makes the lower bound nonpositive; only the upper binds
    g = _spherical(1)
    assert g.median_radius <= 4.0 * 2.0 * g.sigma_max
    b = pair_distance_check(g, 2.0, 50_000, np.random.default_rng(9))
    assert b.passed


# ---------------------------------------------------------------------------
# cross-component pairs
# ---------------------------------------------------------------------------


def test_cross_pair_planted_spherical():
    # need paper-constant separation at t=2: d^2 >= 500*2*(Ri+Rj)*2 + 100*4*2
    n = 32
    r = spherical_median_radius(1.0, n)
    d = math.sqrt(500 * 2 * (2 * r) * 2 + 100 * 4 * 2) * 1.05
    gi = _spherical(n)
    center = np.zeros(n)
    center[0] = d
    gj = _spherical(n, center=center)
    b = cross_pair_check(gi, gj, 2.0, 20_000, np.random.default_rng(10))
    assert b.claimed == pytest.approx(1.0 - 6.0 * math.exp(-2.0))
    assert b.passed


def test_cross_pair_concentric_large_radius_gap():
    # concentric spherical pair in n = 10^6: radii ~ sigma sqrt(n) differ
    # enough to satisfy the separation inequality with everything at the
    # same center; the pair is drawn as one eigenvalue group of multiplicity n
    n = 1_000_000
    gi = make_gaussian(np.zeros(n), np.full(n, 0.01))
    gj = make_gaussian(np.zeros(n), np.full(n, 1.44))
    median_radius(gi, method="auto")
    median_radius(gj, method="auto")
    assert gi.median_radius == pytest.approx(100.0, rel=1e-3)
    assert gj.median_radius == pytest.approx(1200.0, rel=1e-3)
    b = cross_pair_check(gi, gj, 1.0, 10_000, np.random.default_rng(11))
    assert b.passed
    assert b.observed == 1.0  # the distances sit far above the bound


def test_cross_pair_unseparated_rejected():
    gi = _spherical(8)
    gj = _spherical(8, center=[1.0] + [0.0] * 7)
    with pytest.raises(PairNotSeparated):
        cross_pair_check(gi, gj, 2.0, 10_000, np.random.default_rng(0))


def _separated_spherical_pair(n, si, sj, t=1.0):
    """Spherical components N(0, si^2 I) and N(d e_1, sj^2 I), d 5% past the
    paper's separation threshold at t."""
    gi = _spherical(n, si)
    rj = spherical_median_radius(sj, n)
    rhs = pair_separation_rhs(
        gi.median_radius, si, rj, sj, SeparationConfig(t=t, mode="paper")
    )
    center = np.zeros(n)
    center[0] = 1.05 * math.sqrt(rhs)
    return gi, _spherical(n, sj, center=center)


def _spy_on_sq_dist_draws(monkeypatch):
    """Record every block of squared distances a check draws."""
    seen = []

    def spy(*args, **kwargs):
        for lo, d2 in model._sq_dist_draws(*args, **kwargs):
            seen.append(d2.copy())
            yield lo, d2

    monkeypatch.setattr(concentration, "_sq_dist_draws", spy)
    return seen


_DIFFERENCE_PAIRS = {
    "spherical": lambda n: _separated_spherical_pair(n, 1.0, 2.0),
    "rotated": lambda n: _rotated_pair(n),
    "spherical-rotated": lambda n: (_spherical(n), _rotated_eccentric(n, 1e3, 9)),
    "unrotated-rotated": lambda n: (_eccentric(n), _rotated_eccentric(n, 1e3, 9)),
}


@pytest.mark.parametrize("pair", sorted(_DIFFERENCE_PAIRS))
def test_cross_pair_draws_have_the_moments_of_sampled_differences(pair, monkeypatch):
    # |x - y|^2, drawn from the law of x - y, must have the mean and
    # variance of |sample(gi) - sample(gj)|^2 row by row
    num = 200_000
    gi, gj = _DIFFERENCE_PAIRS[pair](12)
    seen = _spy_on_sq_dist_draws(monkeypatch)
    cross_pair_check(gi, gj, 1.0, num, np.random.default_rng(12))
    drawn = np.concatenate(seen)
    assert drawn.size == num
    rng = np.random.default_rng(13)
    direct = np.sum((sample(gi, rng, num) - sample(gj, rng, num)) ** 2, axis=1)
    se_mean = math.sqrt(direct.var() / num + drawn.var() / num)
    assert abs(drawn.mean() - direct.mean()) < 6 * se_mean
    assert abs(drawn.var() / direct.var() - 1.0) < 0.05


def test_ill_conditioned_cross_pair_draws_are_finite(monkeypatch):
    # twelve eigenvalues of 1e-20 and four from 1e-3 to 1, under two
    # rotations: the sum has rank 8 above roundoff, and eigh gives three of
    # its eight eigenvalues near 0 as -2e-16 to -2e-17; they are clipped to 0
    n = 16
    rng = np.random.default_rng(21)
    lam = np.concatenate([np.full(12, 1e-20), np.logspace(-3.0, 0.0, 4)])
    gi = make_gaussian(np.zeros(n), lam, random_rotation(n, rng))
    gj = make_gaussian(np.full(n, 1e3), lam, random_rotation(n, rng))
    for g in (gi, gj):
        median_radius(g)
    seen = _spy_on_sq_dist_draws(monkeypatch)
    b = cross_pair_check(gi, gj, 1.0, 20_000, np.random.default_rng(22))
    assert np.isfinite(np.concatenate(seen)).all()
    assert b.passed


@pytest.mark.parametrize("n", [1, 2])
def test_low_dimensional_spherical_pairs_have_the_right_moments(n, monkeypatch):
    # |x - y|^2 = s (g - d / sqrt(s))^2 + s chi2(n - 1) with s = si^2 + sj^2:
    # mean n s + d^2, variance 2 n s^2 + 4 s d^2
    si, sj, num = 1.0, 1.5, 400_000
    gi, gj = _separated_spherical_pair(n, si, sj)
    seen = _spy_on_sq_dist_draws(monkeypatch)
    cross_pair_check(gi, gj, 1.0, num, np.random.default_rng(30 + n))
    d2 = np.concatenate(seen)
    s, d = si * si + sj * sj, gj.center[0]
    mean, var = n * s + d * d, 2.0 * n * s * s + 4.0 * s * d * d
    assert abs(d2.mean() - mean) < 6.0 * math.sqrt(var / num)
    se_var = math.sqrt(np.var((d2 - d2.mean()) ** 2) / num)
    assert abs(d2.var() - var) < 6.0 * se_var


def test_one_dimensional_spherical_pair_at_many_pairs():
    # above 2.5e7 pairs the old check switched a 1-D spherical pair to a
    # reduction that raised "scalar reduction needs n >= 2"
    gi, gj = _separated_spherical_pair(1, 1.0, 1.0)
    b = cross_pair_check(gi, gj, 1.0, 25_000_001, np.random.default_rng(14))
    assert b.num_trials == 25_000_001
    assert b.passed


# ---------------------------------------------------------------------------
# ball growth rates
# ---------------------------------------------------------------------------


def test_growth_mass_at_median_radius_is_half():
    g = _spherical(8)
    grid = np.linspace(0.0, g.median_radius + 4.0, 40)
    curve = ball_growth_check(g, g.center, grid, 1_000_000, np.random.default_rng(13))
    at_r = np.interp(g.median_radius, curve.radii, curve.mass)
    assert abs(at_r - 0.5) < 0.005


def test_growth_rates_meet_isoperimetric_bound():
    g = _spherical(8)
    grid = np.linspace(0.0, g.median_radius + 4.0, 40)
    curve = ball_growth_check(g, g.center, grid, 1_000_000, np.random.default_rng(14))
    assert curve.bound == pytest.approx(2.0 / math.sqrt(math.pi))
    assert curve.satisfied
    assert len(curve.low_pairs) >= 1 and len(curve.high_pairs) >= 1


def test_growth_mass_monotone():
    g = _spherical(4)
    grid = np.linspace(0.0, 6.0, 25)
    curve = ball_growth_check(g, g.center, grid, 100_000, np.random.default_rng(15))
    assert np.all(np.diff(curve.mass) >= 0)
    assert np.all((curve.mass >= 0) & (curve.mass <= 1))


def test_growth_off_center_ball():
    g = _spherical(6)
    x = np.full(6, 0.8)
    grid = np.linspace(0.0, 8.0, 40)
    curve = ball_growth_check(g, x, grid, 400_000, np.random.default_rng(16))
    assert curve.satisfied


def test_growth_grid_too_coarse():
    g = _spherical(8)
    grid = np.array([0.0, g.median_radius + 4.0])
    with pytest.raises(GridTooCoarse):
        ball_growth_check(g, g.center, grid, 50_000, np.random.default_rng(17))


def test_growth_counts_match_sorted_distances(monkeypatch):
    # binning each block's distances against the grid counts exactly what
    # sorting every distance and searching the grid in it counted
    g = _spherical(8)
    seen = _spy_on_sq_dist_draws(monkeypatch)
    grid = np.linspace(0.0, g.median_radius + 4.0, 40)
    grid[7] = grid[8]  # a repeated radius counts the same draws twice
    curve = ball_growth_check(g, g.center, grid, 1_000_000, np.random.default_rng(13))
    dist = np.sort(np.sqrt(np.concatenate(seen)))
    want = np.searchsorted(dist, np.sort(grid), side="right") / dist.size
    assert np.array_equal(curve.mass, want)


def test_growth_counts_draws_on_grid_radii_as_per_draw_binning(monkeypatch):
    # Draws that land exactly on grid radii, radius 0 among them, count as
    # #{dist <= r}: the same integers as binning each draw at the first
    # radius it does not exceed and summing the bins.  The squares of
    # multiples of 1/4 are exact, and so are their roots.
    rng = np.random.default_rng(18)
    grid = np.arange(41) * 0.25
    grid[20] = grid[21]  # a repeated radius counts the same draws twice
    blocks = [
        np.concatenate([(rng.integers(0, 41, size=8000) * 0.25) ** 2, [0.0] * 50,
                        rng.uniform(0.0, 100.0, size=1950)])
        for _ in range(2)
    ]
    monkeypatch.setattr(
        concentration,
        "_sq_dist_draws",
        lambda *args, **kwargs: ((i * 10_000, b.copy()) for i, b in enumerate(blocks)),
    )
    curve = ball_growth_check(_spherical(2), np.zeros(2), grid, 20_000, rng)
    radii = np.sort(grid)
    bins = np.searchsorted(radii, np.sqrt(np.concatenate(blocks)), side="left")
    counts = np.bincount(bins, minlength=radii.size + 1).cumsum()[: radii.size]
    assert counts[0] >= 100 and np.all(np.diff(counts)[np.diff(radii) > 0] > 0)
    assert np.array_equal(curve.mass, counts / 20_000)


# ---------------------------------------------------------------------------
# covariance concentration
# ---------------------------------------------------------------------------


def test_covariance_epsilon_formula_n2():
    g = make_gaussian(np.zeros(2), [1.0, 1.0])
    chk = covariance_concentration_check(g, 1_000_000, 0.1, 16, np.random.default_rng(18))
    want = 40.0 * (math.sqrt(math.log(2)) + math.sqrt(math.log(10))) / 1000.0
    assert chk.epsilon == pytest.approx(want, rel=1e-12)
    assert chk.epsilon == pytest.approx(0.094, abs=0.001)
    assert chk.passed and not chk.vacuous


def test_covariance_vacuous_at_tiny_sample():
    g = make_gaussian(np.zeros(4), [2.0, 1.0, 1.0, 0.5])
    chk = covariance_concentration_check(g, 100, 0.1, 8, np.random.default_rng(19))
    assert chk.epsilon >= 1.0
    assert chk.vacuous
    assert chk.passed  # the interval covers everything


def test_covariance_passes_moderate_sample():
    from sepmix.model import random_rotation

    rng = np.random.default_rng(20)
    g = make_gaussian(np.zeros(8), rng.uniform(0.5, 4.0, size=8),
                      random_rotation(8, rng))
    chk = covariance_concentration_check(g, 100_000, 0.1, 16, rng)
    assert chk.passed
    assert chk.num_directions == 16 + 8 + 1


# ---------------------------------------------------------------------------
# spectral draws against the materialized draws of the old checkers
# ---------------------------------------------------------------------------
#
# Each reference below is the old body of a checker: it samples the rotated
# points in one block and measures them directly.  The checkers draw each
# distance from its law instead, block by block.  These spectra have no
# repeated eigenvalue, so a draw takes n standard normals either way and the
# generator must end in the same state, however many blocks the draws take;
# the normals land on other coordinates, so the observed fractions agree
# within 4 two-sample binomial standard errors, not bit for bit.  The two
# pair checks draw x - y itself: the references sample that difference as a
# component, with doubled eigenvalues at center 0 for the pair check, and
# with the eigendecomposition of the dense sum of the two covariances for
# the cross pair.  Every cross pair here lands past its bound, so for it
# both fractions read 1; the law is pinned by
# test_cross_pair_draws_have_the_moments_of_sampled_differences.


def _old_shell_hits(g, t, num, rng):
    dist = np.linalg.norm(sample(g, rng, num) - g.center, axis=1)
    r, s = g.median_radius, g.sigma_max
    return int(np.count_nonzero((dist >= r - t * s) & (dist <= r + t * s)))


def _old_point_hits(g, z, t, num, rng):
    r, s = g.median_radius, g.sigma_max
    zp = float(np.linalg.norm(z - g.center))
    cross = 2.0 * math.sqrt(2.0 * t) * zp * s
    lo = max(r - t * s, 0.0) ** 2 + zp * zp - cross
    hi = (r + t * s) ** 2 + zp * zp + cross
    d2 = np.sum((sample(g, rng, num) - z) ** 2, axis=1)
    return int(np.count_nonzero((d2 >= lo) & (d2 <= hi)))


def _materialized_pair_hits(g, t, num, rng):
    r, s = g.median_radius, g.sigma_max
    diff = make_gaussian(np.zeros(g.dim), 2.0 * g.eigenvalues, g.rotation)
    d2 = np.sum(sample(diff, rng, num) ** 2, axis=1)
    lo = 2.0 * r * r - 8.0 * t * s * r
    hi = 2.0 * (r + 2.0 * t * s) ** 2
    return int(np.count_nonzero((d2 >= lo) & (d2 <= hi)))


def _materialized_cross_hits(gi, gj, t, num, rng):
    c1, c2 = 60.0, 30.0  # the practical separation constants
    r_i, s_i, r_j, s_j = gi.median_radius, gi.sigma_max, gj.median_radius, gj.sigma_max
    bound = (
        2.0 * min(r_i, r_j) ** 2
        + c1 * t * (s_i + s_j) * (r_i + r_j)
        + c2 * t * t * (s_i * s_i + s_j * s_j)
    )
    cov = sum((g.rotation * g.eigenvalues) @ g.rotation.T for g in (gi, gj))
    lam, rot = np.linalg.eigh(cov)
    diff = make_gaussian(gi.center - gj.center, lam, rot)
    d2 = np.sum(sample(diff, rng, num) ** 2, axis=1)
    return int(np.count_nonzero(d2 >= bound))


def _old_growth_mass(g, x, radii, num, rng):
    dist = np.sort(np.linalg.norm(sample(g, rng, num) - x, axis=1))
    return np.searchsorted(dist, radii, side="right") / num


def _materialized_covariance_worst(g, size, num_dirs, rng):
    # the n rows of the Bartlett factor's transpose A^T have the Gram matrix
    # A A^T, whose law is that of z^T z for size standard normal rows z, so
    # the points mapped from them stand in for the size draws: their squared
    # projections are summed and divided by size
    n = g.dim
    dirs = rng.standard_normal((num_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    top = g.rotation[:, int(np.argmax(g.eigenvalues))]
    w = np.vstack([dirs, np.eye(n), top[None, :]])
    points = model._from_standard_normal(g, model._bartlett_factor(rng, size, n).T)
    proj = (points - g.center) @ w.T
    wr = w @ g.rotation
    true_moment = (wr * wr) @ g.eigenvalues
    moment = np.sum(proj * proj, axis=0) / size
    return float(np.max(np.abs(moment / true_moment - 1.0)))


def _rotated_eccentric(n, offset, seed):
    """A rotated eccentric component centered near ``offset``, with its
    Monte Carlo median radius."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 3.0, size=n)
    lam[0] = 50.0
    g = make_gaussian(offset + rng.normal(size=n), lam, random_rotation(n, rng))
    median_radius(g, rng, 100_000, method="mc")
    return g


def _near(g, seed):
    return g.center + np.random.default_rng(seed).normal(size=g.dim)


def _partner(g):
    """Another rotated eccentric component, far enough from g to be
    separated at t = 1 with the paper's constants."""
    return _rotated_eccentric(g.dim, g.center + 1e3, 99)


def _rotated_pair(n):
    """Two rotated eccentric components with distinct spectra, separated."""
    g = _rotated_eccentric(n, 0.0, 7)
    return g, _partner(g)


# (new call, old call, draws), each call on (component, seed-derived rng)
# returning an observed fraction, or the masses of a growth curve, of
# ``draws`` draws.
_CHECKER_PAIRS = {
    "shell_mass": (
        lambda g, rng: shell_mass_check(g, 1.5, 20_000, rng).observed,
        lambda g, rng: _old_shell_hits(g, 1.5, 20_000, rng) / 20_000,
        20_000,
    ),
    "point_distance": (
        lambda g, rng: point_distance_check(g, _near(g, 1), 1.0, 20_000, rng).observed,
        lambda g, rng: _old_point_hits(g, _near(g, 1), 1.0, 20_000, rng) / 20_000,
        20_000,
    ),
    "pair_distance": (
        lambda g, rng: pair_distance_check(g, 1.0, 20_000, rng).observed,
        lambda g, rng: _materialized_pair_hits(g, 1.0, 20_000, rng) / 20_000,
        20_000,
    ),
    "cross_pair": (
        lambda g, rng: cross_pair_check(g, _partner(g), 1.0, 20_000, rng).observed,
        lambda g, rng: _materialized_cross_hits(g, _partner(g), 1.0, 20_000, rng) / 20_000,
        20_000,
    ),
    "ball_growth": (
        lambda g, rng: ball_growth_check(
            g, _near(g, 2), np.linspace(0.0, 30.0, 40), 40_000, rng
        ).mass,
        lambda g, rng: _old_growth_mass(
            g, _near(g, 2), np.linspace(0.0, 30.0, 40), 40_000, rng
        ),
        40_000,
    ),
}


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("seed", [5, 61])
@pytest.mark.parametrize("checker", sorted(_CHECKER_PAIRS))
def test_checker_matches_materialized_draws(checker, seed, offset, monkeypatch):
    # at the default chunk every draw takes one or two blocks; at 11 111
    # values a block is 2777 draws high, so 20 000 draws take 8 blocks of
    # 2500 and 40 000 draws take 15 of 2666 or 2667
    g = _rotated_eccentric(6, offset, seed)
    new, old, num = _CHECKER_PAIRS[checker]
    for chunk in (model._DRAW_CHUNK, 11_111):
        monkeypatch.setattr(model, "_DRAW_CHUNK", chunk)
        rng_new = np.random.default_rng(seed + 1)
        rng_old = np.random.default_rng(seed + 1)
        got, want = np.asarray(new(g, rng_new)), np.asarray(old(g, rng_old))
        p = (got + want) / 2.0
        se = np.sqrt(2.0 * p * (1.0 - p) / num)
        assert np.all(np.abs(got - want) <= 4.0 * se), f"chunk {chunk}"
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("seed", [5, 61])
def test_covariance_check_matches_materialized_draws(seed, offset):
    # the moments come from the Bartlett factor in eigen coordinates
    # instead of projecting points mapped from it; they agree to roundoff,
    # far inside any epsilon the check compares against
    g = _rotated_eccentric(6, offset, seed)
    rng_new = np.random.default_rng(seed + 1)
    rng_old = np.random.default_rng(seed + 1)
    chk = covariance_concentration_check(g, 50_000, 0.1, 12, rng_new)
    worst = _materialized_covariance_worst(g, 50_000, 12, rng_old)
    assert chk.worst_rel_err == pytest.approx(worst, rel=1e-9)
    assert chk.passed == (worst <= chk.epsilon)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


# ---------------------------------------------------------------------------
# bad inputs fail at the boundary
# ---------------------------------------------------------------------------


def _nan_point():
    return np.array([np.nan, 0.0, 0.0, 0.0])


def _inf_point():
    return np.array([np.inf, 0.0, 0.0, 0.0])


_BAD_CHECKER_INPUTS = {
    "point_distance-nan-z": (
        lambda g, rng: point_distance_check(g, _nan_point(), 2.0, 10_000, rng),
        NonFiniteInput,
    ),
    "point_distance-nan-t": (
        lambda g, rng: point_distance_check(g, g.center, math.nan, 10_000, rng),
        ValueError,
    ),
    "shell_mass-nan-t": (
        lambda g, rng: shell_mass_check(g, math.nan, 10_000, rng),
        ValueError,
    ),
    "shell_mass-inf-t": (
        lambda g, rng: shell_mass_check(g, math.inf, 10_000, rng),
        ValueError,
    ),
    "pair_distance-nan-t": (
        lambda g, rng: pair_distance_check(g, math.nan, 10_000, rng),
        ValueError,
    ),
    "cross_pair-nan-t": (
        lambda g, rng: cross_pair_check(g, g, math.nan, 10_000, rng),
        ValueError,
    ),
    "ball_growth-inf-x": (
        lambda g, rng: ball_growth_check(g, _inf_point(), np.linspace(0, 5, 20), 10_000, rng),
        NonFiniteInput,
    ),
    "ball_growth-nan-grid": (
        lambda g, rng: ball_growth_check(g, g.center, [0.0, 1.0, math.nan], 10_000, rng),
        ValueError,
    ),
    "covariance-nan-delta": (
        lambda g, rng: covariance_concentration_check(g, 1000, math.nan, 4, rng),
        InvalidDelta,
    ),
    # malformed counts and t: named ValueErrors, not TypeErrors in the draw
    "shell_mass-str-t": (
        lambda g, rng: shell_mass_check(g, "1", 10_000, rng),
        ValueError,
    ),
    "shell_mass-float-count": (
        lambda g, rng: shell_mass_check(g, 1.0, 20000.0, rng),
        ValueError,
    ),
    "point_distance-str-t": (
        lambda g, rng: point_distance_check(g, g.center, "2", 10_000, rng),
        ValueError,
    ),
    "pair_distance-float-count": (
        lambda g, rng: pair_distance_check(g, 1.0, 1e5, rng),
        ValueError,
    ),
    "ball_growth-float-count": (
        lambda g, rng: ball_growth_check(g, g.center, np.linspace(0, 5, 20), 1e4, rng),
        ValueError,
    ),
    "covariance-float-size": (
        lambda g, rng: covariance_concentration_check(g, 2000.5, 0.1, 4, rng),
        ValueError,
    ),
    "covariance-float-directions": (
        lambda g, rng: covariance_concentration_check(g, 2000, 0.1, 4.0, rng),
        ValueError,
    ),
    "covariance-str-delta": (
        lambda g, rng: covariance_concentration_check(g, 2000, "0.1", 4, rng),
        ValueError,
    ),
    "median_radius-float-count": (
        lambda g, rng: median_radius(g, rng, 2000.5, method="mc"),
        ValueError,
    ),
    "covariance-few": (
        lambda g, rng: covariance_concentration_check(g, 1, 0.1, 4, rng),
        TooFewSamples,
    ),
    # points and components of another dimension than the component's
    "point_distance-short-z": (
        lambda g, rng: point_distance_check(g, np.zeros(3), 2.0, 10_000, rng),
        DimensionMismatch,
    ),
    "ball_growth-long-x": (
        lambda g, rng: ball_growth_check(g, np.zeros(5), np.linspace(0, 5, 20), 10_000, rng),
        DimensionMismatch,
    ),
    "cross_pair-mixed-dims": (
        lambda g, rng: cross_pair_check(g, _spherical(3), 2.0, 10_000, rng),
        DimensionMismatch,
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_CHECKER_INPUTS))
def test_checkers_reject_non_finite_inputs(case):
    call, error = _BAD_CHECKER_INPUTS[case]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error):
        call(_spherical(4), rng)
    assert rng.bit_generator.state == state  # rejected before drawing


# ---------------------------------------------------------------------------
# work counters: the variates each check draws
# ---------------------------------------------------------------------------


class _CountingGenerator:
    """A duck-typed np.random.Generator that counts every value drawn."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.drawn = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if not callable(method):
            return method

        def counted(*args, **kwargs):
            result = method(*args, **kwargs)
            self.drawn += int(np.size(result))
            return result

        return counted


def _diag_top(n):
    lam = np.ones(n)
    lam[0] = 100.0
    g = make_gaussian(np.zeros(n), lam)
    median_radius(g)
    return g


def _no_repeats(n):
    g = make_gaussian(np.zeros(n), np.linspace(1.0, 2.0, n))
    median_radius(g)
    return g


@pytest.mark.parametrize(
    "component, per_sample",
    [
        (lambda: _spherical(64), 1),
        (lambda: _diag_top(64), 2),
        (lambda: _no_repeats(64), 64),
    ],
    ids=["spherical", "diag-top", "no-repeats"],
)
@pytest.mark.parametrize(
    "check",
    [
        lambda g, rng: shell_mass_check(g, 1.0, 20_000, rng),
        lambda g, rng: point_distance_check(g, g.center, 1.0, 20_000, rng),
        lambda g, rng: pair_distance_check(g, 1.0, 20_000, rng),
        lambda g, rng: ball_growth_check(
            g, g.center, np.linspace(0.0, 2.0 * g.median_radius, 60), 20_000, rng
        ),
        lambda g, rng: median_radius(g, rng, 20_000, method="mc"),
    ],
    ids=[
        "shell_mass",
        "point_distance",
        "pair_distance",
        "ball_growth",
        "median_radius",
    ],
)
def test_variates_drawn_per_sample(check, component, per_sample):
    # a spherical component at its center is one chi-square a sample,
    # diag(top, 1, ..., 1) a squared normal and a chi-square, and a spectrum
    # without repeats its n standard normals
    rng = _CountingGenerator(40)
    check(component(), rng)
    assert rng.drawn == per_sample * 20_000


@pytest.mark.parametrize(
    "pair, per_pair",
    [
        (lambda: _separated_spherical_pair(64, 1.0, 2.0), 2),
        (lambda: _rotated_pair(64), 64),
    ],
    ids=["spherical", "rotated"],
)
def test_variates_drawn_by_cross_pair(pair, per_pair):
    # a spherical pair is one eigenvalue group with an offset, a normal and
    # a chi-square a pair; a rotated pair with distinct spectra is the n
    # normals of one draw of x - y, not two draws of n
    gi, gj = pair()
    rng = _CountingGenerator(42)
    cross_pair_check(gi, gj, 1.0, 20_000, rng)
    assert rng.drawn == per_pair * 20_000


def test_variates_drawn_by_covariance_check():
    # the directions, then O(n^2) values for z^T z: n^2 normals for the
    # Bartlett factor's block and n chi-squares, not N n normals
    n, num_dirs = 8, 16
    rng = _CountingGenerator(41)
    chk = covariance_concentration_check(_spherical(n), 100_000, 0.1, num_dirs, rng)
    assert chk.passed
    assert rng.drawn == num_dirs * n + n * n + n
