"""Monte Carlo validators for concentration claims about Gaussian geometry.

Each check draws seeded samples, measures how often an event holds, and
compares the observed fraction against a claimed probability with a
3-standard-deviation binomial slack:

    slack = max(3 * sqrt(p (1 - p) / trials), 3 / trials)
    pass  = observed >= claimed - slack

A claim can be vacuous (claimed <= 0, or a relative tolerance >= 1); that is
reported, never hidden.

Every check reduces its n-dimensional draws to one statistic, and draws
that statistic from its exact law rather than the draws themselves.  A draw
x = c + R diag(sqrt(lambda)) z has |x - p|^2 = sum_i (sqrt(lambda_i) z_i -
v_i)^2 with v = R^T (p - c), because R is an isometry.  Grouping equal
eigenvalues, a group of multiplicity m contributes one noncentral
chi-square, drawn as one normal and one chi-square with m - 1 degrees of
freedom (model._sq_dist_draws), so a spherical component takes one or two
variates a sample whatever its dimension, and a spectrum without repeated
eigenvalues the n standard normals a sample that ``sample`` takes.  The two
pair checks draw x - y ~ N(c_i - c_j, Sigma_i + Sigma_j) (model._difference)
and measure it from the origin, so no check samples points.  The shell,
point, pair and cross-pair checks each count one event,
lo <= |x - p|^2 <= hi, in one counter (``_distance_bound``).  The
covariance check needs z^T z, a Wishart matrix, and draws its Bartlett
factor (model._bartlett_factor): O(n^2) variates instead of N n.

Every draw is made in consecutive blocks of 512 KiB and reduced as it is
drawn, so a check holds one block and no value per draw.  On a spectrum
without repeats the generator ends where sampling the points would leave
it, whatever the block grid.  Reruns are byte-identical on any spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InvalidDelta,
    NonFiniteInput,
    PairNotSeparated,
)
from .model import (
    GaussianParams,
    _bartlett_factor,
    _difference,
    _draw_count,
    _int_at_least,
    _real,
    _sq_dist_draws,
    sample,  # noqa: F401  # the benchmark rebinds sepmix.concentration.sample
)
from .separation import _CONSTANTS, SeparationConfig, pair_margin


@dataclass(frozen=True)
class EmpiricalBound:
    """Observed frequency of an event against its claimed lower bound."""

    claimed: float
    observed: float
    num_trials: int
    slack: float
    passed: bool


def _bound(claimed: float, hits: int, trials: int) -> EmpiricalBound:
    p = min(max(claimed, 0.0), 1.0)
    slack = max(3.0 * math.sqrt(p * (1.0 - p) / trials), 3.0 / trials)
    observed = hits / trials
    return EmpiricalBound(
        claimed=claimed,
        observed=observed,
        num_trials=trials,
        slack=slack,
        passed=bool(observed >= claimed - slack),
    )


def _require_scale(params: GaussianParams) -> tuple[float, float]:
    return params.require_median_radius(), params.sigma_max


def _t_at_least(t, low: float) -> float:
    t = _real(t, "t")
    if not (math.isfinite(t) and t >= low):
        raise ValueError(f"stated for finite t >= {low:g}, got {t}")
    return t


def _distance_bound(
    law: GaussianParams, point, lo: float, hi: float, claimed: float, count: int, rng
) -> EmpiricalBound:
    """The fraction of ``count`` draws x of ``law`` with lo <= |x - point|^2
    <= hi, against ``claimed``."""
    hits = 0
    for _, d2 in _sq_dist_draws(law, rng, count, point=point):
        hits += int(np.count_nonzero((d2 >= lo) & (d2 <= hi)))
    return _bound(claimed, hits, count)


def _point_of(params: GaussianParams, point, name: str) -> np.ndarray:
    """A fixed point of the component's dimension with finite coordinates.

    Raises:
        DimensionMismatch: wrong length.
        NonFiniteInput: a coordinate is NaN or infinite.
    """
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape[0] != params.dim:
        raise DimensionMismatch(
            f"{name} has dim {point.shape[0]}, component {params.dim}"
        )
    if not np.isfinite(point).all():
        raise NonFiniteInput(f"{name} contains NaN or an infinity")
    return point


def shell_mass_check(
    params: GaussianParams, t: float, num_samples: int, rng: np.random.Generator
) -> EmpiricalBound:
    """Mass of the shell R +- t sigma_max around the center, claim 1 - e^-t.

    t = 0 is allowed; the claim is then vacuous (lower bound 0).
    """
    t = _t_at_least(t, 0.0)
    num_samples = _draw_count(num_samples, 10_000, "num_samples")
    radius, sigma = _require_scale(params)
    lo, hi = max(radius - t * sigma, 0.0) ** 2, (radius + t * sigma) ** 2
    claimed = 1.0 - math.exp(-t)
    return _distance_bound(params, None, lo, hi, claimed, num_samples, rng)


def point_distance_check(
    params: GaussianParams,
    z,
    t: float,
    num_samples: int,
    rng: np.random.Generator,
) -> EmpiricalBound:
    """Squared distance from a fixed point z, claim 1 - 2 e^-t (t >= 1).

    Event:  ((R - t s)+)^2 + |z-p|^2 - 2 sqrt(2 t) |z-p| s
              <= |x - z|^2 <=
            (R + t s)^2 + |z-p|^2 + 2 sqrt(2 t) |z-p| s
    """
    t = _t_at_least(t, 1.0)
    num_samples = _draw_count(num_samples, 10_000, "num_samples")
    z = _point_of(params, z, "z")
    radius, sigma = _require_scale(params)
    zp = float(np.linalg.norm(z - params.center))
    cross = 2.0 * math.sqrt(2.0 * t) * zp * sigma
    lo = max(radius - t * sigma, 0.0) ** 2 + zp * zp - cross
    hi = (radius + t * sigma) ** 2 + zp * zp + cross
    claimed = 1.0 - 2.0 * math.exp(-t)
    return _distance_bound(params, z, lo, hi, claimed, num_samples, rng)


def pair_distance_check(
    params: GaussianParams, t: float, num_pairs: int, rng: np.random.Generator
) -> EmpiricalBound:
    """Squared distance of two independent draws, claim 1 - 3 e^-t (t >= 1).

    Event:  2 R^2 - 8 t s R <= |x - y|^2 <= 2 (R + 2 t s)^2.
    """
    t = _t_at_least(t, 1.0)
    num_pairs = _draw_count(num_pairs, 10_000, "num_pairs")
    radius, sigma = _require_scale(params)
    lo = 2.0 * radius * radius - 8.0 * t * sigma * radius
    hi = 2.0 * (radius + 2.0 * t * sigma) ** 2
    diff, origin = _difference(params, params), np.zeros(params.dim)
    claimed = 1.0 - 3.0 * math.exp(-t)
    return _distance_bound(diff, origin, lo, hi, claimed, num_pairs, rng)


def cross_pair_check(
    params_i: GaussianParams,
    params_j: GaussianParams,
    t: float,
    num_pairs: int,
    rng: np.random.Generator,
) -> EmpiricalBound:
    """Cross-pair squared distance for a separated pair, claim 1 - 6 e^-t.

    Requires the pair to satisfy the separation inequality with the (500,
    100) constants at this t; raises PairNotSeparated otherwise.  Event:

        |x-y|^2 >= 2 min(R_i, R_j)^2
                   + 60 t (s_i + s_j)(R_i + R_j) + 30 t^2 (s_i^2 + s_j^2).

    x - y ~ N(c_i - c_j, Sigma_i + Sigma_j), so |x - y|^2 is drawn from its
    law, one or two variates a pair for each group of equal eigenvalues of
    Sigma_i + Sigma_j: one group for a spherical pair, n groups of one when
    the sum has no repeated eigenvalue.
    """
    t = _t_at_least(t, 1.0)
    num_pairs = _draw_count(num_pairs, 10_000, "num_pairs")
    if params_i.dim != params_j.dim:
        raise DimensionMismatch("components live in different dimensions")
    r_i, s_i = _require_scale(params_i)
    r_j, s_j = _require_scale(params_j)
    d2_centers = float(np.sum((params_i.center - params_j.center) ** 2))
    margin = pair_margin(r_i, s_i, r_j, s_j, d2_centers, SeparationConfig(t=t, mode="paper"))
    if margin < 0:
        raise PairNotSeparated(f"margin {margin:.4g} < 0 at t={t}")
    # the cross-distance lower bound uses the practical separation constants
    c1, c2 = _CONSTANTS["practical"]
    bound = (
        2.0 * min(r_i, r_j) ** 2
        + c1 * t * (s_i + s_j) * (r_i + r_j)
        + c2 * t * t * (s_i * s_i + s_j * s_j)
    )
    diff, origin = _difference(params_i, params_j), np.zeros(params_i.dim)
    claimed = 1.0 - 6.0 * math.exp(-t)
    return _distance_bound(diff, origin, bound, math.inf, claimed, num_pairs, rng)


@dataclass
class GrowthCurve:
    """Empirical ball-mass curve and its log-growth rate checks.

    ``low_*`` covers consecutive grid intervals confidently below mass 1/2
    (rate of ln(mass) must be >= bound - slack); ``high_*`` covers intervals
    confidently above 1/2 (rate of ln(1 - mass) must be <= -bound + slack).
    Pair index i refers to the interval [radii[i], radii[i+1]].
    """

    radii: np.ndarray
    mass: np.ndarray
    bound: float
    low_pairs: list[int]
    low_rates: np.ndarray
    low_slacks: np.ndarray
    high_pairs: list[int]
    high_rates: np.ndarray
    high_slacks: np.ndarray

    @property
    def low_pass(self) -> np.ndarray:
        return self.low_rates >= self.bound - self.low_slacks

    @property
    def high_pass(self) -> np.ndarray:
        return self.high_rates <= -self.bound + self.high_slacks

    @property
    def satisfied(self) -> bool:
        return bool(np.all(self.low_pass) and np.all(self.high_pass))


def ball_growth_check(
    params: GaussianParams,
    x,
    radius_grid,
    num_samples: int,
    rng: np.random.Generator,
) -> GrowthCurve:
    """Check the isoperimetric growth rate 2 / (sqrt(pi) sigma_max).

    Estimates mass(r) = F(B(x, r)) on the grid from one set of draws, then
    forms secant slopes of ln(mass) below the half-mass radius and of
    ln(1 - mass) above it.  Grid points enter a regime only when they are
    confidently on its side of 1/2 (3 standard errors) and their log is
    finite.

    Raises:
        GridTooCoarse: fewer than 3 usable grid points in either regime.
    """
    num_samples = _draw_count(num_samples, 10_000, "num_samples")
    x = _point_of(params, x, "x")
    radii = np.sort(np.asarray(radius_grid, dtype=float).reshape(-1))
    if radii.size < 2 or not np.all(np.isfinite(radii) & (radii >= 0)):
        raise ValueError("radius grid needs >= 2 finite nonnegative radii")
    # counts[i] = #{dist <= radii[i]}: each block of draws is sorted, and
    # the grid searched in it, so no draw needs a search of its own
    counts = np.zeros(radii.size, dtype=np.int64)
    for _, d2 in _sq_dist_draws(params, rng, num_samples, point=x):
        d2.sort()
        counts += np.searchsorted(np.sqrt(d2, out=d2), radii, side="right")
    mass = counts / num_samples
    se = np.sqrt(np.maximum(mass * (1.0 - mass), 0.0) / num_samples)
    bound = 2.0 / (math.sqrt(math.pi) * params.sigma_max)

    low_ok = (mass > 0) & (mass + 3.0 * se <= 0.5)
    high_ok = (mass < 1) & (mass - 3.0 * se >= 0.5)
    if int(low_ok.sum()) < 3 or int(high_ok.sum()) < 3:
        raise GridTooCoarse(
            f"usable grid points: {int(low_ok.sum())} below half mass, "
            f"{int(high_ok.sum())} above; need >= 3 in each regime"
        )

    low_pairs, low_rates, low_slacks = [], [], []
    high_pairs, high_rates, high_slacks = [], [], []
    for i in range(radii.size - 1):
        dr = radii[i + 1] - radii[i]
        if dr <= 0:
            continue
        if low_ok[i] and low_ok[i + 1]:
            rate = (math.log(mass[i + 1]) - math.log(mass[i])) / dr
            # standard error of ln(mass) is se / mass
            slack = 3.0 * (se[i] / mass[i] + se[i + 1] / mass[i + 1]) / dr
            low_pairs.append(i)
            low_rates.append(rate)
            low_slacks.append(slack)
        if high_ok[i] and high_ok[i + 1]:
            rate = (math.log(1.0 - mass[i + 1]) - math.log(1.0 - mass[i])) / dr
            slack = 3.0 * (
                se[i] / (1.0 - mass[i]) + se[i + 1] / (1.0 - mass[i + 1])
            ) / dr
            high_pairs.append(i)
            high_rates.append(rate)
            high_slacks.append(slack)
    return GrowthCurve(
        radii=radii,
        mass=mass,
        bound=bound,
        low_pairs=low_pairs,
        low_rates=np.asarray(low_rates),
        low_slacks=np.asarray(low_slacks),
        high_pairs=high_pairs,
        high_rates=np.asarray(high_rates),
        high_slacks=np.asarray(high_slacks),
    )


@dataclass(frozen=True)
class CovarianceCheck:
    """Directional second-moment agreement at tolerance epsilon."""

    epsilon: float
    passed: bool
    vacuous: bool
    worst_rel_err: float
    num_directions: int


def covariance_concentration_check(
    params: GaussianParams,
    sample_size: int,
    delta: float,
    num_directions: int,
    rng: np.random.Generator,
) -> CovarianceCheck:
    """Directional second moments about the true mean within (1 +- epsilon).

    epsilon = 20 n (sqrt(ln n) + sqrt(ln(1/delta))) / sqrt(sample_size);
    epsilon >= 1 makes the claim vacuous, which is flagged.  Tested
    directions: ``num_directions`` random unit vectors, the n coordinate
    axes, and the top eigenvector.
    """
    if not (0 < _real(delta, "delta") <= 1):
        raise InvalidDelta(f"delta must be in (0, 1], got {delta}")
    sample_size = _draw_count(sample_size, 2, "sample_size")
    num_directions = _int_at_least(num_directions, 0, "num_directions")
    n = params.dim
    eps = (
        20.0
        * n
        * (math.sqrt(math.log(n)) + math.sqrt(math.log(1.0 / delta)))
        / math.sqrt(sample_size)
    )
    dirs = rng.standard_normal((num_directions, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    top = np.zeros(n)
    top_idx = int(np.argmax(params.eigenvalues))
    if params.rotation is None:
        top[top_idx] = 1.0
    else:
        top = params.rotation[:, top_idx]
    w = np.vstack([dirs, np.eye(n), top[None, :]])
    # the projection of x - c on w is V z with V = w R diag(sqrt(lambda)), so
    # the mean square projections are diag(V z^T z V^T) / N, and z^T z has
    # the law of A A^T for the Bartlett factor A
    a = _bartlett_factor(rng, sample_size, n)
    wr = w if params.rotation is None else w @ params.rotation
    va = (wr * np.sqrt(params.eigenvalues)) @ a
    sample_moment = np.einsum("ij,ij->i", va, va) / sample_size
    true_moment = (wr * wr) @ params.eigenvalues
    rel_err = np.abs(sample_moment / true_moment - 1.0)
    worst = float(rel_err.max())
    return CovarianceCheck(
        epsilon=eps,
        passed=bool(worst <= eps),
        vacuous=bool(eps >= 1.0),
        worst_rel_err=worst,
        num_directions=w.shape[0],
    )
