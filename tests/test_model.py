import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sepmix.model as model
from sepmix.errors import (
    DimensionMismatch,
    MedianRadiusNotConverged,
    NonFiniteInput,
    NonOrthonormalRotation,
    NonPositiveEigenvalue,
    TooFewSamples,
)
from sepmix.model import (
    GaussianParams,
    Mixture,
    _bartlett_factor,
    _brentq,
    _sq_dist_draws,
    make_gaussian,
    median_radius,
    random_rotation,
    sample,
    sample_concentric_spherical_embedded,
    sample_mixture,
    spherical_median_radius,
)


# ---------------------------------------------------------------------------
# make_gaussian
# ---------------------------------------------------------------------------


def test_sigma_max_1d_standard():
    g = make_gaussian([0.0], [1.0])
    assert g.sigma_max == 1.0
    assert g.dim == 1


def test_sigma_max_is_sqrt_of_top_eigenvalue():
    g = make_gaussian([0.0, 0.0], [4.0, 1.0], np.eye(2))
    assert g.sigma_max == 2.0


def test_zero_eigenvalue_rejected():
    with pytest.raises(NonPositiveEigenvalue):
        make_gaussian([0.0, 0.0], [1.0, 0.0])


def test_negative_eigenvalue_rejected():
    with pytest.raises(NonPositiveEigenvalue):
        make_gaussian([0.0], [-2.0])


def test_non_orthonormal_rotation_rejected():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NonOrthonormalRotation):
        make_gaussian([0.0, 0.0], [1.0, 1.0], bad)


def test_center_eigenvalue_length_mismatch():
    with pytest.raises(DimensionMismatch):
        make_gaussian([0.0, 0.0], [1.0])


def test_rotation_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        make_gaussian([0.0, 0.0], [1.0, 1.0], np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["center", "eigenvalues", "rotation"])
def test_non_finite_parameter_rejected(field, bad):
    # NaN passes both the eigenvalue sign test and the Gram test
    args = {"center": np.zeros(2), "eigenvalues": np.ones(2), "rotation": np.eye(2)}
    args[field][0] = bad
    with pytest.raises(NonFiniteInput):
        make_gaussian(**args)


def test_random_rotation_is_orthonormal():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 9):
        rot = random_rotation(n, rng)
        assert np.allclose(rot.T @ rot, np.eye(n), atol=1e-12)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_mean_close_to_center():
    # standard error is 1/sqrt(count) per coordinate; 0.02 is > 6 sigma
    rng = np.random.default_rng(11)
    g = make_gaussian(np.arange(8.0), np.ones(8))
    draws = sample(g, rng, 100_000)
    assert draws.shape == (100_000, 8)
    assert np.all(np.abs(draws.mean(axis=0) - g.center) < 0.02)


def test_sample_scaling_equivariance():
    # scaling every eigenvalue by c^2 scales deviations by c, same stream
    center = np.array([1.0, -2.0, 0.5])
    rot = random_rotation(3, np.random.default_rng(5))
    g1 = make_gaussian(center, [1.0, 2.0, 0.25], rot)
    g2 = make_gaussian(center, [9.0, 18.0, 2.25], rot)
    a = sample(g1, np.random.default_rng(42), 50)
    b = sample(g2, np.random.default_rng(42), 50)
    assert np.allclose(b - center, 3.0 * (a - center), atol=1e-12)


def test_sample_deterministic_given_seed():
    g = make_gaussian([0.0, 0.0], [1.0, 4.0])
    a = sample(g, np.random.default_rng(7), 20)
    b = sample(g, np.random.default_rng(7), 20)
    assert np.array_equal(a, b)


def test_sample_covariance_concentrates():
    # directional second moments of 1e6 draws stay within the concentration
    # epsilon for that sample size (checked along axes and the top axis)
    rng = np.random.default_rng(19)
    g = make_gaussian([0.0, 0.0], [3.0, 0.5])
    draws = sample(g, rng, 1_000_000)
    eps = 20 * 2 * (math.sqrt(math.log(2)) + math.sqrt(math.log(10))) / 1000.0
    centered = draws - draws.mean(axis=0)
    cov = centered.T @ centered / draws.shape[0]
    true = np.diag([3.0, 0.5])
    for w in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(2) / math.sqrt(2)):
        have = float(w @ cov @ w)
        want = float(w @ true @ w)
        assert abs(have - want) <= eps * want


def test_covariance_fit_recovers_known_gaussian():
    rng = np.random.default_rng(29)
    rot = random_rotation(4, rng)
    eigs = np.array([5.0, 2.0, 1.0, 0.2])
    g = make_gaussian(np.zeros(4), eigs, rot)
    draws = sample(g, rng, 100_000)
    centered = draws - draws.mean(axis=0)
    cov = centered.T @ centered / draws.shape[0]
    true = rot @ np.diag(eigs) @ rot.T
    eps = 20 * 4 * (math.sqrt(math.log(4)) + math.sqrt(math.log(10))) / math.sqrt(1e5)
    for _ in range(20):
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        assert abs(w @ cov @ w - w @ true @ w) <= eps * (w @ true @ w)


# ---------------------------------------------------------------------------
# median_radius
# ---------------------------------------------------------------------------


def test_median_radius_1d_monte_carlo():
    g = make_gaussian([0.0], [1.0])
    r, half = median_radius(g, np.random.default_rng(101), 1_000_000, method="mc")
    # |x| median for a standard normal = Phi^-1(0.75)
    assert abs(r - 0.67449) < 0.005
    assert half > 0
    assert g.median_radius == r


def test_median_radius_spherical_exact_n4():
    g = make_gaussian(np.zeros(4), np.ones(4))
    r, half = median_radius(g, method="auto")
    assert abs(r - 1.8320) < 0.005
    assert half == 0.0


def test_median_radius_exact_matches_cdf_root():
    # independent oracle: bisection on the chi-square CDF via scipy.stats
    from scipy.stats import chi2

    for n in (1, 2, 4, 16, 64):
        want = math.sqrt(chi2.ppf(0.5, df=n))
        assert spherical_median_radius(1.0, n) == pytest.approx(want, rel=1e-12)
        assert spherical_median_radius(2.5, n) == pytest.approx(2.5 * want, rel=1e-12)


def test_median_radius_mc_agrees_with_exact_path():
    g = make_gaussian(np.zeros(8), np.full(8, 4.0))
    r_mc, half = median_radius(g, np.random.default_rng(55), 200_000, method="mc")
    r_exact = spherical_median_radius(2.0, 8)
    assert abs(r_mc - r_exact) < max(3 * half, 0.01)


def test_median_radius_scaling():
    rng = np.random.default_rng(77)
    rot = random_rotation(3, rng)
    g1 = make_gaussian(np.zeros(3), [1.0, 2.0, 4.0], rot)
    g4 = make_gaussian(np.zeros(3), [4.0, 8.0, 16.0], rot)
    r1, _ = median_radius(g1, np.random.default_rng(9), 100_000, method="mc")
    r4, _ = median_radius(g4, np.random.default_rng(9), 100_000, method="mc")
    assert r4 == pytest.approx(2.0 * r1, rel=1e-12)


def test_median_radius_at_least_two_thirds_sigma_max():
    rng = np.random.default_rng(13)
    for n, eigs in [(1, [1.0]), (2, [100.0, 1.0]), (6, [50.0, 1, 1, 1, 1, 1])]:
        g = make_gaussian(np.zeros(n), np.asarray(eigs, dtype=float))
        r, _ = median_radius(g, rng, 100_000)
        assert r >= (2.0 / 3.0) * g.sigma_max


# ---------------------------------------------------------------------------
# the exact median radius of a general spectrum
# ---------------------------------------------------------------------------


def _one_spike_median_radius(top, n):
    """Median radius of N(0, diag(top, 1, ..., 1)) from its CDF as a
    chi-square convolution: with z_1^2 = v^2,
    F(x) = int_0^sqrt(x/top) sqrt(2/pi) e^{-v^2/2} P((n-1)/2, (x - top v^2)/2) dv,
    P the regularized lower incomplete gamma function."""
    from scipy.integrate import quad
    from scipy.optimize import brentq
    from scipy.special import gammainc

    def cdf(x):
        def f(v):
            return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * v * v) * gammainc(
                0.5 * (n - 1), 0.5 * (x - top * v * v)
            )

        return quad(f, 0.0, math.sqrt(x / top), epsabs=0.0, epsrel=1e-13, limit=200)[0]

    hi = top + n - 1 + math.sqrt(2.0 * (top * top + n - 1))
    return math.sqrt(brentq(lambda x: cdf(x) - 0.5, 1e-3, hi, rtol=1e-15))


_SWEEP_DIMS = (2, 4, 8, 16, 64, 256, 1024)


def _sweep_spectrum(kind, n):
    if kind == "spike":
        lam = np.ones(n)
        lam[0] = 100.0
        return lam
    hi = 2.0 if kind == "uniform[1,2]" else 100.0
    return np.random.default_rng(n).uniform(1.0, hi, size=n)


@pytest.mark.parametrize("top", [9.0, 100.0])
@pytest.mark.parametrize("n", _SWEEP_DIMS)
def test_exact_radius_matches_one_spike_convolution(n, top):
    lam = np.ones(n)
    lam[0] = top
    radius, half = median_radius(make_gaussian(np.zeros(n), lam))
    want = _one_spike_median_radius(top, n)
    # the reference carries its own error of a few 1e-15 relative
    assert abs(radius - want) <= half + 1e-14 * want
    assert half <= 1e-9 * radius


@pytest.mark.parametrize("n", [2, 3, 8, 50, 400])
@pytest.mark.parametrize("sigma", [0.3, 1.0, 7.0])
def test_exact_solver_matches_spherical_closed_form(n, sigma):
    # the quadrature, forced onto a spectrum that median_radius would send
    # to the closed form
    radius, half = model._exact_median_radius(np.full(n, sigma * sigma))
    want = spherical_median_radius(sigma, n)
    assert abs(radius - want) <= half + 4e-16 * want
    assert half <= 1e-9 * radius


@pytest.mark.parametrize("kind", ["uniform[1,2]", "uniform[1,100]", "spike"])
def test_exact_radius_sweep_is_certified(kind):
    for n in _SWEEP_DIMS:
        g = make_gaussian(np.zeros(n), _sweep_spectrum(kind, n))
        radius, half = median_radius(g)
        assert 0.0 < half <= 1e-9 * radius, (n, radius, half)
        assert (g.median_radius, g.median_radius_halfwidth) == (radius, half)


# 10^6 draws cost a second at n = 64 and grow with n, so the Monte Carlo
# side of the sweep stops there; the certified sweep above covers n = 1024.
@pytest.mark.parametrize("kind", ["uniform[1,2]", "uniform[1,100]", "spike"])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_exact_radius_within_monte_carlo_interval(n, kind):
    lam = _sweep_spectrum(kind, n)
    exact, _ = median_radius(make_gaussian(np.zeros(n), lam))
    rng = np.random.default_rng(1000 + n)
    mc, half = median_radius(make_gaussian(np.zeros(n), lam), rng, 1_000_000, method="mc")
    assert abs(exact - mc) <= half


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    c=st.floats(1e-3, 1e3),
    offset=st.sampled_from([0.0, 1e6]),
)
def test_exact_radius_scales_and_ignores_rotation_and_center(seed, n, c, offset):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 50.0, size=n)
    r1, h1 = median_radius(make_gaussian(np.zeros(n), lam))
    r2, h2 = median_radius(make_gaussian(np.zeros(n), c * c * lam))
    assert abs(r2 - c * r1) <= h2 + c * h1
    moved = make_gaussian(offset + rng.normal(size=n), lam, random_rotation(n, rng))
    assert median_radius(moved) == (r1, h1)


@pytest.mark.parametrize("eigs", [[1.0, 1.0, 1.0], [100.0, 1.0, 1.0], [1.0, 2.0]])
def test_auto_and_exact_draw_nothing(eigs):
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    # the closed form and the exact quadrature both run under "auto"
    median_radius(make_gaussian(np.zeros(len(eigs)), eigs), rng, method="auto")
    assert rng.bit_generator.state == before


def test_exact_method_is_rejected():
    # "auto" is already exact for every spectrum; "exact" is no second name
    g = make_gaussian(np.zeros(3), [4.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="unknown method"):
        median_radius(g, method="exact")


def _skewed(rule, check_order, shift):
    """``rule`` with the CDF of its check order moved up by ``shift``."""

    def skewed_rule(*args):
        cdf, root_error = rule(*args)
        if args[-1] == check_order:
            return (lambda x: cdf(x) + shift), root_error
        return cdf, root_error

    return skewed_rule


def _skew_talbot(monkeypatch):
    rule = _skewed(model._talbot_rule, model._TALBOT_ORDERS[1], 1e-6)
    monkeypatch.setattr(model, "_talbot_rule", rule)


def test_disagreeing_orders_raise(monkeypatch):
    _skew_talbot(monkeypatch)
    rule = _skewed(model._imhof_rule, model._IMHOF_ORDERS[1], 1e-6)
    monkeypatch.setattr(model, "_imhof_rule", rule)
    for n in (3, 64):  # Talbot only, then Talbot and Imhof
        g = make_gaussian(np.zeros(n), np.linspace(1.0, 2.0, n))
        with pytest.raises(MedianRadiusNotConverged, match="Talbot") as err:
            median_radius(g)
        assert ("Imhof" in str(err.value)) == (n == 64)
        assert g.median_radius is None


def test_talbot_disagreement_falls_back_to_imhof(monkeypatch):
    # Talbot alone certifies this spectrum unskewed, and Imhof can run on it
    lam = np.linspace(1.0, 2.0, 16)
    want = model._exact_median_radius(lam)
    _skew_talbot(monkeypatch)
    radius, half = model._exact_median_radius(lam)
    assert abs(radius - want[0]) <= half + want[1]


# ---------------------------------------------------------------------------
# _brentq: scipy.optimize.brentq, bit for bit
# ---------------------------------------------------------------------------


def _outcome(solver, f, a, b, **options):
    """The root ``solver`` returns, or the type of the error it raises."""
    try:
        return solver(f, a, b, **options)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _recorded_solves(monkeypatch, spectra):
    """(f, lo, hi, options) of every root _exact_median_radius solves for."""
    solves = []

    def recording(f, lo, hi, **options):
        solves.append((f, lo, hi, options))
        return _brentq(f, lo, hi, **options)

    monkeypatch.setattr(model, "_brentq", recording)
    for lam in spectra:
        try:
            model._exact_median_radius(lam)
        except MedianRadiusNotConverged:
            pass
    return solves


@pytest.mark.parametrize("imhof", [False, True], ids=["talbot", "imhof"])
def test_brentq_matches_scipy_on_median_cdfs(monkeypatch, imhof):
    from scipy.optimize import brentq

    rng = np.random.default_rng(21)
    spectra = [
        rng.uniform(0.01, 1.0, size=n) ** rng.uniform(0.5, 6.0)
        for n in rng.integers(2, 64, size=60)
    ]
    if imhof:  # Talbot then certifies nothing, so Imhof solves where it can
        _skew_talbot(monkeypatch)
    solves = _recorded_solves(monkeypatch, spectra)
    assert len(solves) > (3 if imhof else 2) * len(spectra)
    for f, lo, hi, options in solves:
        want = _outcome(brentq, f, lo, hi, **options)
        assert _outcome(_brentq, f, lo, hi, **options) == want


_TIGHT = {"xtol": 2e-12, "rtol": 4.0 * np.finfo(float).eps}


@pytest.mark.parametrize(
    "f, a, b, options",
    [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, _TIGHT),
        (lambda x: math.tanh(x - 0.3), 3.0, -2.0, _TIGHT),
        (lambda x: math.atan(1e6 * (x - 0.25)), -3.0, 3.0, _TIGHT),
        (lambda x: x - 1.0, 1.0, 2.0, _TIGHT),
        (lambda x: x * x + 1.0, -1.0, 2.0, _TIGHT),
        (lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0, _TIGHT),
        (lambda x: math.nan if abs(x - 0.5) < 0.1 else x - 0.5, 0.0, 1.0, _TIGHT),
        (lambda x: math.cos(x) - x, 0.0, 1.0, _TIGHT | {"maxiter": 1}),
    ],
    ids=[
        "cubic",
        "reversed-bracket",
        "steep",
        "root-at-a",
        "no-sign-change",
        "nan-at-b",
        "nan-inside",
        "one-iteration",
    ],
)
def test_brentq_matches_scipy_on_edge_cases(f, a, b, options):
    from scipy.optimize import brentq

    assert _outcome(_brentq, f, a, b, **options) == _outcome(
        brentq, f, a, b, **options
    )


def test_chi2_1_median_literal_is_the_closed_form():
    from scipy.special import gammaincinv

    assert model._CHI2_1_MEDIAN == 2.0 * float(gammaincinv(0.5, 0.5))


def test_median_radius_too_few_samples():
    g = make_gaussian(np.zeros(2), [1.0, 2.0])
    with pytest.raises(TooFewSamples):
        median_radius(g, np.random.default_rng(0), 999, method="mc")


# The Monte Carlo median radius against the old computation, which sampled
# the rotated points and measured them.  Both draw n standard normals a
# sample, so they leave the generator in one state, but they assign the
# normals to different coordinates, so their radii agree within the sum of
# their 99% halfwidths rather than bit for bit.


def _materialized_median_radius(params, rng, num_samples):
    """The old Monte Carlo path: rotated draws, sort, np.median."""
    draws = sample(params, rng, num_samples)
    dists = np.sort(np.linalg.norm(draws - params.center, axis=1))
    return _sorted_median_and_halfwidth(dists)


def _sorted_median_and_halfwidth(dists):
    """np.median and the 99% order-statistic halfwidth of sorted ``dists``."""
    num = dists.size
    half_span = 2.576 * math.sqrt(num) / 2.0
    lo = max(int(math.floor(num / 2.0 - half_span)), 0)
    hi = min(int(math.ceil(num / 2.0 + half_span)), num - 1)
    return float(np.median(dists)), float(dists[hi] - dists[lo]) / 2.0


def _rotated_eccentric(n, offset, rng):
    """Rotated, with one dominant eigenvalue; centered at the origin for
    offset 0, and at a jittered point near (offset, ..., offset) otherwise."""
    lam = rng.uniform(0.2, 5.0, size=n)
    lam[0] = 40.0
    jitter = rng.normal(size=n)
    center = np.zeros(n) if offset == 0.0 else offset + jitter
    return make_gaussian(center, lam, random_rotation(n, rng))


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("seed", [3, 41, 977])
def test_median_radius_matches_materialized_draws(seed, offset):
    g = _rotated_eccentric(8, offset, np.random.default_rng(seed))
    rng_new = np.random.default_rng(seed + 1)
    rng_old = np.random.default_rng(seed + 1)
    radius, half = median_radius(g, rng_new, 100_000, method="mc")
    want_radius, want_half = _materialized_median_radius(g, rng_old, 100_000)
    assert abs(radius - want_radius) <= half + want_half
    # as many standard normals are consumed
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize(
    "rows, dim, chunk",
    [
        (10, 3, 1 << 17),  # one block
        (20_001, 6, 11_111),  # 8 blocks of 2500 or 2501 rows
        (2 * (1 << 15) + 5, 64, 1 << 17),  # two quarter chunks and 5 rows: 3 blocks
        (7, 300, 12),  # blocks of 2 or 3 rows
        (0, 4, 1 << 17),
    ],
)
def test_sq_dist_draws_cut_even_row_blocks(rows, dim, chunk, monkeypatch):
    # the blocks are consecutive, their heights differ by at most one row
    # and none holds more than a quarter chunk (or one row); a spectrum
    # without repeats draws the rows * dim normals of sample's block
    monkeypatch.setattr(model, "_DRAW_CHUNK", chunk)
    g = make_gaussian(np.zeros(dim), np.linspace(1.0, 2.0, dim))
    rng_new = np.random.default_rng(3)
    rng_old = np.random.default_rng(3)
    starts, heights = [], []
    for lo, d2 in _sq_dist_draws(g, rng_new, rows, g.center + 1.0):
        starts.append(lo)
        heights.append(len(d2))
    assert starts == np.cumsum([0] + heights[:-1]).tolist()
    assert sum(heights) == rows
    assert max(heights) - min(heights) <= 1
    assert max(heights) <= max(chunk // 4, 1)
    sample(g, rng_old, rows)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("num_samples", [1000, 100_000, 100_001])
def test_median_radius_selection_matches_sort_and_median(num_samples):
    # one partition at the four order statistics gives exactly what sorting
    # the same draws and calling np.median gives
    g = _rotated_eccentric(5, 0.0, np.random.default_rng(8))
    radius, half = median_radius(g, np.random.default_rng(9), num_samples, method="mc")
    d2 = _drawn_sq_dists(g, np.random.default_rng(9), num_samples)
    dists = np.sort(np.sqrt(d2))
    assert (radius, half) == _sorted_median_and_halfwidth(dists)


# The squared distances drawn from their law, one or two variates per group
# of equal eigenvalues, against the moments of that law and against the
# distances of sampled points.

_KINDS = ["spherical", "diag-top", "rotated-groups", "no-repeats"]


def _grouped_component(kind, rng, n=12):
    """A component in eigenvalue groups: spherical, diag(top, 1, ..., 1),
    three groups in shuffled order under a Haar rotation, or n groups of
    one (a uniform spectrum) under a Haar rotation."""
    rot = None
    if kind == "spherical":
        lam = np.full(n, 2.5)
    elif kind == "diag-top":
        lam = np.ones(n)
        lam[0] = 100.0
    elif kind == "rotated-groups":
        lam = rng.permutation(np.repeat([4.0, 1.0, 0.3], [5, 4, 3]))
        rot = random_rotation(n, rng)
    else:
        lam = rng.uniform(0.3, 4.0, size=n)
        rot = random_rotation(n, rng)
    return make_gaussian(rng.normal(size=n), lam, rot)


def _sq_dist_moments(g, point):
    """Mean and variance of |x - point|^2: a group of eigenvalue lambda and
    multiplicity m, offset o = |v_g|, has mean lambda m + o^2 and variance
    2 lambda^2 m + 4 lambda o^2."""
    v = np.zeros(g.dim) if point is None else point - g.center
    if g.rotation is not None:
        v = v @ g.rotation
    mean = float(np.sum(g.eigenvalues) + v @ v)
    var = float(np.sum(2.0 * g.eigenvalues**2 + 4.0 * g.eigenvalues * v * v))
    return mean, var


def _drawn_sq_dists(g, rng, count, point=None):
    return np.concatenate([d2.copy() for _, d2 in _sq_dist_draws(g, rng, count, point)])


@pytest.mark.parametrize("at_center", [True, False], ids=["center", "off-center"])
@pytest.mark.parametrize("kind", _KINDS)
def test_sq_dist_draws_have_the_moments_of_their_law(kind, at_center):
    rng = np.random.default_rng(50)
    g = _grouped_component(kind, rng)
    point = None if at_center else g.center + 3.0 * rng.normal(size=g.dim)
    num = 400_000
    d2 = _drawn_sq_dists(g, np.random.default_rng(51), num, point)
    mean, var = _sq_dist_moments(g, point)
    assert abs(d2.mean() - mean) < 6.0 * math.sqrt(var / num)
    se_var = math.sqrt(np.var((d2 - d2.mean()) ** 2) / num)
    assert abs(d2.var() - var) < 6.0 * se_var


@pytest.mark.parametrize("at_center", [True, False], ids=["center", "off-center"])
@pytest.mark.parametrize("kind", _KINDS)
def test_sq_dist_draws_match_sampled_points(kind, at_center):
    # two-sample Kolmogorov-Smirnov test against the distances of points
    # drawn by sample, on pinned seeds
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(52)
    g = _grouped_component(kind, rng)
    point = g.center if at_center else g.center + 3.0 * rng.normal(size=g.dim)
    num = 50_000
    drawn = _drawn_sq_dists(g, np.random.default_rng(53), num, point)
    sampled = np.sum((sample(g, np.random.default_rng(54), num) - point) ** 2, axis=1)
    assert ks_2samp(drawn, sampled).pvalue > 1e-3


def test_sq_dist_draws_are_reproducible(monkeypatch):
    # the draw of a repeated spectrum depends on its block grid, so it is
    # checked at a chunk that cuts it into 7 blocks
    monkeypatch.setattr(model, "_DRAW_CHUNK", 4 * 3000)
    g = _grouped_component("rotated-groups", np.random.default_rng(55))
    first = _drawn_sq_dists(g, np.random.default_rng(56), 20_000, g.center + 1.0)
    again = _drawn_sq_dists(g, np.random.default_rng(56), 20_000, g.center + 1.0)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("dof, size", [(10, 4), (4, 4), (3, 5)])
def test_bartlett_factor_has_the_wishart_moments(dof, size):
    # S = A A^T ~ Wishart(dof, I): E S = dof I and Var S_ij = dof (1 + d_ij),
    # also for dof < size, where S is singular of rank dof
    rng = np.random.default_rng(57)
    reps = 10_000
    s = np.empty((reps, size, size))
    for r in range(reps):
        a = _bartlett_factor(rng, dof, size)
        s[r] = a @ a.T
    assert np.array_equal(np.triu(a, 1), np.zeros((size, size)))
    assert np.all(a[:, dof:] == 0.0)
    assert np.linalg.matrix_rank(s[0]) == min(dof, size)
    mean, var = dof * np.eye(size), dof * (1.0 + np.eye(size))
    assert np.all(np.abs(s.mean(axis=0) - mean) < 6.0 * np.sqrt(var / reps))
    dev2 = (s - s.mean(axis=0)) ** 2
    se_var = np.sqrt(dev2.var(axis=0) / reps)
    assert np.all(np.abs(s.var(axis=0) - var) < 6.0 * se_var)


def test_require_median_radius_raises_until_estimated():
    from sepmix.errors import MissingMedianRadius

    g = make_gaussian(np.zeros(2), [1.0, 1.0])
    with pytest.raises(MissingMedianRadius):
        g.require_median_radius()
    median_radius(g, method="auto")
    assert g.require_median_radius() > 0


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def _two_component_mixture() -> Mixture:
    a = make_gaussian(np.zeros(2), [1.0, 1.0])
    b = make_gaussian(np.array([30.0, 0.0]), [1.0, 1.0])
    return Mixture(components=[a, b], weights=np.array([0.5, 0.5]))


def test_mixture_weight_sum_validated():
    a = make_gaussian(np.zeros(1), [1.0])
    b = make_gaussian(np.ones(1), [1.0])
    with pytest.raises(ValueError):
        Mixture(components=[a, b], weights=np.array([0.5, 0.4]))


@pytest.mark.parametrize("weights", [[np.nan, 1.0]], ids=["weight"])
def test_mixture_rejects_nan_weights(weights):
    a = make_gaussian(np.zeros(1), [1.0])
    b = make_gaussian(np.ones(1), [1.0])
    with pytest.raises(ValueError):
        Mixture(components=[a, b], weights=np.array(weights))


def test_mixture_w_min_default():
    mix = Mixture(
        components=[make_gaussian(np.zeros(1), [1.0]) for _ in range(3)],
        weights=np.array([0.2, 0.3, 0.5]),
    )
    assert mix.k == 3


def test_sample_mixture_single_component_labels():
    mix = Mixture(components=[make_gaussian(np.zeros(2), [1.0, 1.0])], weights=np.ones(1))
    out = sample_mixture(mix, np.random.default_rng(1), 64)
    assert np.array_equal(out.labels, np.zeros(64, dtype=int))


def test_sample_mixture_balanced_counts():
    out = sample_mixture(_two_component_mixture(), np.random.default_rng(17), 10_000)
    counts = np.bincount(out.labels, minlength=2)
    assert counts.sum() == 10_000
    assert 4500 <= counts[0] <= 5500


def test_sample_mixture_deterministic():
    mix = _two_component_mixture()
    a = sample_mixture(mix, np.random.default_rng(8), 500, seed=8)
    b = sample_mixture(mix, np.random.default_rng(8), 500, seed=8)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    assert a.seed == 8


def test_sample_mixture_metadata():
    out = sample_mixture(_two_component_mixture(), np.random.default_rng(3), 200)
    assert out.size == 200
    assert out.dim == 2
    assert out.component_sigmas == pytest.approx([1.0, 1.0])


def test_sample_mixture_points_match_labels():
    # every labeled point should be near its own center at this separation
    out = sample_mixture(_two_component_mixture(), np.random.default_rng(21), 2000)
    centers = np.array([[0.0, 0.0], [30.0, 0.0]])
    nearest = np.argmin(
        np.linalg.norm(out.points[:, None, :] - centers[None], axis=2), axis=1
    )
    assert np.array_equal(nearest, out.labels)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sample_mixture_single_component_matches_sample(seed):
    # the mixture sampler draws the labels' uniforms first, then the same
    # normal block ``sample`` draws, and maps it through the same transform
    rng = np.random.default_rng(40)
    comp = make_gaussian(
        rng.normal(size=3), rng.uniform(0.5, 4.0, size=3), random_rotation(3, rng)
    )
    m = 60
    r = np.random.default_rng(seed)
    r.random(m)
    got = sample_mixture(Mixture([comp], [1.0]), np.random.default_rng(seed), m).points
    assert got.tobytes() == sample(comp, r, m).tobytes()


def test_sample_mixture_balance_warning_fires():
    from sepmix.errors import SampleBalanceWarning

    mix = Mixture(
        components=[
            make_gaussian(np.zeros(1), [1.0]),
            make_gaussian(np.full(1, 10.0), [1.0]),
        ],
        weights=np.array([0.01, 0.99]),
    )
    # with an expected count of 1 the 0.9..1.1 band only admits exactly one
    # draw; seed 2 gives a different count
    with pytest.warns(SampleBalanceWarning):
        sample_mixture(mix, np.random.default_rng(2), 100)


# ---------------------------------------------------------------------------
# concentric spherical sets in huge ambient dimension
# ---------------------------------------------------------------------------


def test_embedded_norms_match_chi_square():
    # |x|^2 / sigma^2 for each embedded point is chi-square with n degrees
    # of freedom; compare first two moments against 6-sigma Monte Carlo bands
    n = 50_000
    rng = np.random.default_rng(41)
    reps, m = 400, 5
    vals = []
    for _ in range(reps):
        s = sample_concentric_spherical_embedded(
            sigmas=[1.0, 3.0], weights=[0.5, 0.5], ambient_dim=n, rng=rng, count=m
        )
        sig = np.array([1.0, 3.0])[s.labels]
        vals.extend((np.linalg.norm(s.points, axis=1) ** 2 / sig**2).tolist())
    vals = np.asarray(vals)
    se_mean = math.sqrt(2.0 * n / vals.size)
    assert abs(vals.mean() - n) < 6 * se_mean
    assert abs(vals.var() / (2.0 * n) - 1.0) < 0.3


@pytest.mark.filterwarnings("ignore::sepmix.errors.SampleBalanceWarning")
def test_embedded_pairwise_distances_match_direct_sampling():
    # at small ambient dimension the construction must agree in distribution
    # with direct mixture sampling; compare moments of squared distances
    n, m, reps = 24, 4, 3000
    rng = np.random.default_rng(43)
    d2_emb = []
    for _ in range(reps):
        s = sample_concentric_spherical_embedded(
            sigmas=[1.0, 2.0], weights=[0.5, 0.5], ambient_dim=n, rng=rng, count=m
        )
        diff = s.points[:, None, :] - s.points[None, :, :]
        d2 = (diff**2).sum(axis=2)
        d2_emb.extend(d2[np.triu_indices(m, 1)].tolist())
    mix = Mixture(
        components=[
            make_gaussian(np.zeros(n), np.ones(n)),
            make_gaussian(np.zeros(n), np.full(n, 4.0)),
        ],
        weights=np.array([0.5, 0.5]),
    )
    d2_dir = []
    for _ in range(reps):
        s = sample_mixture(mix, rng, m)
        diff = s.points[:, None, :] - s.points[None, :, :]
        d2 = (diff**2).sum(axis=2)
        d2_dir.extend(d2[np.triu_indices(m, 1)].tolist())
    d2_emb, d2_dir = np.asarray(d2_emb), np.asarray(d2_dir)
    pooled = math.sqrt(d2_emb.var() / d2_emb.size + d2_dir.var() / d2_dir.size)
    assert abs(d2_emb.mean() - d2_dir.mean()) < 6 * pooled


def test_embedded_points_are_the_bartlett_block_draw():
    # the Bartlett factor moved into its own helper with the same draws in
    # the same order: labels, the (count, count) normal block, then the
    # chi-squares; this is the sampler's old body
    rng_new, rng_old = np.random.default_rng(58), np.random.default_rng(58)
    sigmas, weights, dim, count = np.array([1.0, 10.0]), np.array([0.5, 0.5]), 10**7, 60
    s = sample_concentric_spherical_embedded(sigmas, weights, dim, rng_new, count)
    labels = model._draw_labels(weights, rng_old, count)
    points = rng_old.standard_normal((count, count))
    for i in range(count):
        points[i, i:] = 0.0
    np.fill_diagonal(points, np.sqrt(rng_old.chisquare(dim - np.arange(count))))
    points *= sigmas[labels][:, None]
    assert np.array_equal(s.labels, labels)
    assert np.array_equal(s.points, points)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_embedded_set_reports_ambient_dim():
    s = sample_concentric_spherical_embedded(
        sigmas=[1.0, 10.0],
        weights=[0.5, 0.5],
        ambient_dim=10**7,
        rng=np.random.default_rng(5),
        count=8,
        seed=5,
    )
    assert s.points.shape == (8, 8)
    assert s.ambient_dim == 10**7
    assert s.seed == 5
    assert sorted(set(s.labels.tolist())) in ([0], [1], [0, 1])


def test_embedded_requires_enough_dimensions():
    with pytest.raises(ValueError):
        sample_concentric_spherical_embedded(
            sigmas=[1.0, 2.0],
            weights=[0.5, 0.5],
            ambient_dim=3,
            rng=np.random.default_rng(0),
            count=10,
        )


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"weights": [1.5, -0.5]}, ValueError, "every weight must be > 0"),
        ({"weights": [np.nan, 0.5]}, ValueError, "weights contain NaN"),
        ({"weights": [1.0]}, DimensionMismatch, "2 components but 1 weights"),
        ({"sigmas": [np.nan, 2.0]}, NonFiniteInput, "sigmas contain NaN"),
        ({"sigmas": [1.0, 0.0]}, NonPositiveEigenvalue, "sigmas must be positive"),
        ({"ambient_dim": 100.5}, ValueError, "ambient_dim must be an integer"),
    ],
    ids=["negative-weight", "nan-weight", "one-weight", "nan-sigma", "zero-sigma",
         "fractional-dim"],
)
def test_embedded_checks_its_arguments_before_drawing(kwargs, error, message):
    # the concentric pair takes the weights check of Mixture itself
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    args = dict(sigmas=[1.0, 2.0], weights=[0.5, 0.5], ambient_dim=100) | kwargs
    with pytest.raises(error, match=message):
        sample_concentric_spherical_embedded(**args, rng=rng, count=50)
    assert rng.bit_generator.state == before


def test_mixture_rejects_non_positive_weights():
    a = make_gaussian(np.zeros(1), [1.0])
    b = make_gaussian(np.ones(1), [1.0])
    with pytest.raises(ValueError, match="every weight must be > 0"):
        Mixture(components=[a, b], weights=np.array([1.5, -0.5]))
