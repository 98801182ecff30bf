import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sepmix.errors import InfeasiblePlacement, MissingMedianRadius, NonFiniteInput
from sepmix.model import Mixture, make_gaussian, median_radius, random_rotation
from sepmix.separation import (
    SeparationConfig,
    pair_margin,
    pair_separation_rhs,
    plant_separated_mixture,
    separation_margin,
)


def _spherical(center, sigma):
    n = len(center)
    g = make_gaussian(np.asarray(center, dtype=float), np.full(n, sigma * sigma))
    median_radius(g, method="auto")
    return g


def _with_radius(center, sigma, radius):
    """Component with a hand-set radius, for closed-form margin checks."""
    n = len(center)
    g = make_gaussian(np.asarray(center, dtype=float), np.full(n, sigma * sigma))
    g.median_radius = float(radius)
    g.median_radius_halfwidth = 0.0
    return g


# ---------------------------------------------------------------------------
# separation_margin
# ---------------------------------------------------------------------------


def test_config_paper_mode_constants():
    cfg = SeparationConfig(t=1.0, mode="paper")
    assert (cfg.c1, cfg.c2) == (500.0, 100.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t": math.nan},
        {"t": math.inf},
    ],
    ids=["t-nan", "t-inf"],
)
def test_config_rejects_non_finite_scales(kwargs):
    with pytest.raises(ValueError):
        SeparationConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t": "5"},
        {"t": True},
    ],
    ids=["t-string", "t-bool"],
)
def test_config_rejects_scales_that_are_not_numbers(kwargs):
    with pytest.raises(ValueError, match="must be a number"):
        SeparationConfig(**kwargs)


def test_config_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        SeparationConfig(t=1.0, mode="bogus")


def test_config_practical_mode_constants():
    cfg = SeparationConfig(t=1.0, mode="practical")
    assert (cfg.c1, cfg.c2) == (60.0, 30.0)


def test_concentric_t_zero_margin_is_radius_gap():
    # at t=0 the requirement degenerates to -|Ri^2 - Rj^2| <= |pi - pj|^2
    a = _with_radius([0.0, 0.0], 1.0, 2.0)
    b = _with_radius([0.0, 0.0], 1.0, 3.0)
    mix = Mixture(components=[a, b], weights=np.array([0.5, 0.5]))
    rep = separation_margin(mix, SeparationConfig(t=0.0, mode="paper"))
    assert rep.margins[0, 1] == pytest.approx(abs(2.0**2 - 3.0**2))
    assert rep.satisfied


def test_equal_spherical_pair_threshold_distance():
    # R=10, sigma=1, t=1, paper constants: need d^2 >= 500*1*20*2 + 100*1*2
    need = 500.0 * 20.0 * 2.0 + 100.0 * 2.0
    assert need == 20200.0
    d_ok = math.sqrt(need) + 1e-9
    d_bad = math.sqrt(need) - 1e-6
    for d, expect in ((d_ok, True), (d_bad, False)):
        a = _with_radius([0.0, 0.0], 1.0, 10.0)
        b = _with_radius([d, 0.0], 1.0, 10.0)
        mix = Mixture(components=[a, b], weights=np.array([0.5, 0.5]))
        rep = separation_margin(mix, SeparationConfig(t=1.0, mode="paper"))
        assert rep.satisfied is expect
    assert math.sqrt(need) == pytest.approx(142.13, abs=0.01)


def test_concentric_unequal_radii_example():
    a = _with_radius([0.0], 0.1, 100.0)
    b = _with_radius([0.0], 1.2, 1200.0)
    mix = Mixture(components=[a, b], weights=np.array([0.5, 0.5]))
    rep = separation_margin(mix, SeparationConfig(t=1.0, mode="paper"))
    # |Ri^2-Rj^2| - 500*t*(Ri+Rj)(si+sj) - 100*t^2*(si^2+sj^2)
    assert rep.margins[0, 1] == pytest.approx(1430000.0 - 845000.0 - 145.0)
    assert rep.margins[0, 1] == pytest.approx(584855.0)
    assert rep.satisfied


def test_margin_requires_radius():
    a = make_gaussian(np.zeros(2), [1.0, 1.0])
    b = make_gaussian(np.ones(2), [1.0, 1.0])
    mix = Mixture(components=[a, b], weights=np.array([0.5, 0.5]))
    with pytest.raises(MissingMedianRadius):
        separation_margin(mix, SeparationConfig(t=1.0, mode="paper"))


def test_margin_matrix_symmetric_and_nan_diagonal():
    rng = np.random.default_rng(3)
    comps = [_spherical(rng.normal(size=3) * 200, 1.0 + i) for i in range(4)]
    mix = Mixture(components=comps, weights=np.full(4, 0.25))
    rep = separation_margin(mix, SeparationConfig(t=2.0, mode="practical"))
    assert np.array_equal(rep.margins, rep.margins.T, equal_nan=True)
    assert np.all(np.isnan(np.diag(rep.margins)))


def test_nan_radius_is_not_separated():
    a = _with_radius([0.0, 0.0], 1.0, math.nan)
    b = _with_radius([100.0, 0.0], 1.0, 1.2)
    mix = Mixture(components=[a, b], weights=np.array([0.5, 0.5]))
    rep = separation_margin(mix, SeparationConfig(t=1.0, mode="practical"))
    assert not rep.satisfied
    assert math.isnan(rep.min_margin)


def test_margin_monotone_in_t():
    a = _spherical([0.0] * 4, 1.0)
    b = _spherical([400.0, 0, 0, 0], 2.0)
    mix = Mixture(components=[a, b], weights=np.array([0.5, 0.5]))
    margins = [
        separation_margin(mix, SeparationConfig(t=t, mode="paper")).margins[0, 1]
        for t in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(m1 > m2 for m1, m2 in zip(margins, margins[1:]))


def test_margin_rigid_motion_invariance():
    rng = np.random.default_rng(9)
    rot = random_rotation(3, rng)
    shift = rng.normal(size=3) * 10
    centers = [np.zeros(3), np.array([300.0, 0.0, 0.0])]
    sigmas = [1.0, 1.5]
    cfg = SeparationConfig(t=1.5, mode="practical")
    base = Mixture(
        components=[_spherical(c, s) for c, s in zip(centers, sigmas)],
        weights=np.array([0.5, 0.5]),
    )
    moved = Mixture(
        components=[_spherical(rot @ c + shift, s) for c, s in zip(centers, sigmas)],
        weights=np.array([0.5, 0.5]),
    )
    m1 = separation_margin(base, cfg).margins[0, 1]
    m2 = separation_margin(moved, cfg).margins[0, 1]
    assert m1 == pytest.approx(m2, abs=1e-8 * max(1.0, abs(m1)))


@settings(max_examples=40, deadline=None)
@given(
    ri=st.floats(min_value=0.7, max_value=50.0),
    rj=st.floats(min_value=0.7, max_value=50.0),
    si=st.floats(min_value=0.1, max_value=5.0),
    sj=st.floats(min_value=0.1, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=20.0),
)
def test_pair_margin_matches_direct_formula(ri, rj, si, sj, t):
    cfg = SeparationConfig(t=t, mode="paper")
    rhs = -abs(ri * ri - rj * rj) + 500 * t * (ri + rj) * (si + sj) + 100 * t * t * (
        si * si + sj * sj
    )
    assert pair_separation_rhs(ri, si, rj, sj, cfg) == pytest.approx(
        rhs, rel=1e-12, abs=1e-9
    )
    d2 = 1234.5
    assert pair_margin(ri, si, rj, sj, d2, cfg) == pytest.approx(
        d2 - rhs, rel=1e-12, abs=1e-9
    )


# ---------------------------------------------------------------------------
# plant_separated_mixture
# ---------------------------------------------------------------------------


def test_plant_single_component():
    mix = plant_separated_mixture(
        n=4, k=1, shape_spec=(1.0, 1.0),
        config=SeparationConfig(t=5.0, mode="practical"),
        slack=1.0, rng=np.random.default_rng(0),
    )
    assert mix.k == 1
    assert mix.components[0].median_radius is not None


def test_plant_pair_is_separated():
    cfg = SeparationConfig(t=10.0, mode="practical")
    mix = plant_separated_mixture(
        n=8, k=2, shape_spec=(1.0, 1.0), config=cfg, slack=1.0,
        rng=np.random.default_rng(1),
    )
    rep = separation_margin(mix, cfg)
    assert rep.satisfied


def test_plant_paper_mode():
    cfg = SeparationConfig(t=2.0, mode="paper")
    mix = plant_separated_mixture(
        n=6, k=3, shape_spec=(0.5, 2.0), config=cfg, slack=1.2,
        rng=np.random.default_rng(4),
    )
    assert separation_margin(mix, cfg).satisfied


def test_plant_slack_one_margins_near_zero():
    # slack=1 places equal-shape pairs right at the boundary; min margin
    # should be within 5% of zero relative to the required distance scale
    cfg = SeparationConfig(t=10.0, mode="practical")
    mix = plant_separated_mixture(
        n=8, k=2, shape_spec=(1.0, 1.0), config=cfg, slack=1.0,
        rng=np.random.default_rng(2),
    )
    rep = separation_margin(mix, cfg)
    d2 = float(np.sum((mix.components[0].center - mix.components[1].center) ** 2))
    assert 0 <= rep.margins[0, 1] <= 0.05 * d2


def test_plant_explicit_spectra():
    cfg = SeparationConfig(t=5.0, mode="practical")
    spectra = [np.array([4.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0])]
    mix = plant_separated_mixture(
        n=3, k=2, shape_spec=spectra, config=cfg, slack=1.3,
        rng=np.random.default_rng(6),
    )
    for comp, spec in zip(mix.components, spectra):
        assert np.allclose(np.sort(comp.eigenvalues), np.sort(spec))
    assert separation_margin(mix, cfg).satisfied


def test_plant_draws_only_shapes_and_rotations():
    # the radii are exact, so the generator gives out one eigenvalue block
    # and one rotation per component and nothing else
    rng = np.random.default_rng(21)
    plant_separated_mixture(
        n=16, k=3, shape_spec=(1.0, 2.0),
        config=SeparationConfig(t=10.0, mode="practical"), slack=1.5, rng=rng,
    )
    replay = np.random.default_rng(21)
    for _ in range(3):
        replay.uniform(1.0, 2.0, size=16)
        random_rotation(16, replay)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_plant_weights_passthrough():
    cfg = SeparationConfig(t=5.0, mode="practical")
    mix = plant_separated_mixture(
        n=4, k=2, shape_spec=(1.0, 1.0), config=cfg, slack=1.5,
        rng=np.random.default_rng(8), weights=[0.3, 0.7],
    )
    assert mix.weights == pytest.approx([0.3, 0.7])


def test_plant_more_components_than_orthogonal_slots():
    # k - 1 > n forces the random-direction fallback, which still verifies
    cfg = SeparationConfig(t=3.0, mode="practical")
    mix = plant_separated_mixture(
        n=2, k=5, shape_spec=(1.0, 1.0), config=cfg, slack=1.5,
        rng=np.random.default_rng(10),
    )
    assert separation_margin(mix, cfg).satisfied


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", 4.0, "n must be an integer"),
        ("k", 2.0, "k must be an integer"),
        ("k", True, "k must be an integer"),
        ("slack", "2", "slack must be a number"),
    ],
)
def test_plant_rejects_arguments_of_the_wrong_type(key, value, message):
    # k = 2.0 used to die in [shape_spec] * k with a TypeError
    args = {"n": 4, "k": 2, "slack": 1.5} | {key: value}
    with pytest.raises(ValueError, match=message):
        plant_separated_mixture(
            **args, shape_spec=(1.0, 1.0),
            config=SeparationConfig(t=5.0, mode="practical"),
            rng=np.random.default_rng(0),
        )


@pytest.mark.parametrize("slack", [math.nan, math.inf])
def test_plant_rejects_non_finite_slack(slack):
    with pytest.raises(ValueError, match="slack"):
        plant_separated_mixture(
            n=4, k=2, shape_spec=(1.0, 1.0),
            config=SeparationConfig(t=5.0, mode="practical"),
            slack=slack, rng=np.random.default_rng(0),
        )


def test_plant_infeasible_when_k_exceeds_attempt_budget():
    # slack below 1 is rejected outright
    with pytest.raises((InfeasiblePlacement, ValueError)):
        plant_separated_mixture(
            n=4, k=2, shape_spec=(1.0, 1.0),
            config=SeparationConfig(t=5.0, mode="practical"),
            slack=0.5, rng=np.random.default_rng(0),
        )


def _plant(**kwargs):
    args = dict(n=4, k=2, shape_spec=(1.0, 1.0), slack=1.0,
                config=SeparationConfig(t=5.0, mode="practical"),
                rng=np.random.default_rng(0))
    return plant_separated_mixture(**(args | kwargs))


@pytest.mark.parametrize(
    "shape_spec, message",
    [
        ((2.0, 1.0), r"bad eigenvalue range \(2.0, 1.0\)"),
        ((0.0, 1.0), r"bad eigenvalue range \(0.0, 1.0\)"),
        ([(1.0, 1.0)] * 3, "shape_spec has 3 entries for k=2"),
    ],
    ids=["reversed-range", "zero-range", "three-entries"],
)
def test_plant_rejects_malformed_shape_specs(shape_spec, message):
    with pytest.raises(ValueError, match=message):
        _plant(shape_spec=shape_spec)


@pytest.mark.parametrize(
    "spectrum, slack",
    [(1e306, 1.0), (1e300, 1e3)],
    ids=["margins-overflow", "distances-overflow"],
)
@pytest.mark.parametrize("n, k", [(4, 2), (1, 3)], ids=["orthogonal", "random-directions"])
def test_plant_refuses_spectra_whose_margins_overflow(n, k, spectrum, slack):
    # eigenvalues of 1e306 overflow the required distances themselves; at
    # 1e300 with slack 1e3 the distances are finite (about 6e154) but their
    # squares overflow, and an infinite margin would pass verification.
    # Both fail at the boundary, before any center is placed.
    with pytest.raises(NonFiniteInput, match="would overflow float64"):
        _plant(n=n, k=k, shape_spec=np.full(n, spectrum), slack=slack)
