"""Pairwise separation margins and planting of separated mixtures.

A pair of components (with median radii R_i, R_j and top standard deviations
sigma_i, sigma_j) counts as t-separated when

    |p_i - p_j|^2 >= -|R_i^2 - R_j^2|
                     + c1 * t * (R_i + R_j) * (sigma_i + sigma_j)
                     + c2 * t^2 * (sigma_i^2 + sigma_j^2).

"paper" mode fixes (c1, c2) = (500, 100), which is what the classification
guarantees assume.  "practical" mode fixes (60, 30), the coefficients of the
cross-distance lower bound that the peeling argument actually consumes; it
keeps desk-scale experiments affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePlacement, NonFiniteInput
from .model import (
    Mixture,
    _int_at_least,
    _real,
    make_gaussian,
    median_radius,
    random_rotation,
)

# the inequality constants (c1, c2) of each mode
_CONSTANTS = {"paper": (500.0, 100.0), "practical": (60.0, 30.0)}
_MODES = tuple(_CONSTANTS)


@dataclass(frozen=True)
class SeparationConfig:
    """Separation scale t and the mode, which fixes the constants c1, c2.

    t = 0 is accepted for diagnostics (the margin is then just the distance
    term against the radius gap); classification refuses it.  t must be a
    finite number.
    """

    t: float
    mode: str = "paper"

    def __post_init__(self):
        if not 0 <= _real(self.t, "t") < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def c1(self) -> float:
        return _CONSTANTS[self.mode][0]

    @property
    def c2(self) -> float:
        return _CONSTANTS[self.mode][1]


@dataclass
class SeparationReport:
    """Margin matrix (NaN diagonal) and the overall verdict."""

    margins: np.ndarray
    satisfied: bool
    config: SeparationConfig

    @property
    def min_margin(self) -> float:
        """Least off-diagonal margin: NaN if any is NaN, inf when k = 1."""
        off = _off_diagonal(self.margins)
        return float(off.min()) if off.size else math.inf


def _off_diagonal(margins: np.ndarray) -> np.ndarray:
    return margins[~np.eye(margins.shape[0], dtype=bool)]


def pair_separation_rhs(
    r_i: float, sigma_i: float, r_j: float, sigma_j: float, config: SeparationConfig
) -> float:
    """Right-hand side of the separation inequality for one pair."""
    t = config.t
    return (
        -abs(r_i * r_i - r_j * r_j)
        + config.c1 * t * (r_i + r_j) * (sigma_i + sigma_j)
        + config.c2 * t * t * (sigma_i * sigma_i + sigma_j * sigma_j)
    )


def pair_margin(
    r_i: float,
    sigma_i: float,
    r_j: float,
    sigma_j: float,
    center_dist_sq: float,
    config: SeparationConfig,
) -> float:
    """Margin |p_i - p_j|^2 - rhs for one pair; >= 0 means separated."""
    return center_dist_sq - pair_separation_rhs(r_i, sigma_i, r_j, sigma_j, config)


def separation_margin(mixture: Mixture, config: SeparationConfig) -> SeparationReport:
    """Evaluate all pairwise margins.

    Every component must carry an estimated median radius.  The matrix is
    exactly symmetric: each unordered pair is evaluated once and mirrored.
    A NaN margin, as from a NaN radius, counts as not separated.
    """
    k = mixture.k
    radii = [c.require_median_radius() for c in mixture.components]
    sigmas = [c.sigma_max for c in mixture.components]
    centers = np.array([c.center for c in mixture.components])
    margins = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            d2 = float(np.sum((centers[i] - centers[j]) ** 2))
            m = pair_margin(radii[i], sigmas[i], radii[j], sigmas[j], d2, config)
            margins[i, j] = m
            margins[j, i] = m
    satisfied = bool(np.all(_off_diagonal(margins) >= 0))
    return SeparationReport(margins=margins, satisfied=satisfied, config=config)


def _component_from_shape(n, shape, rng) -> tuple[np.ndarray, np.ndarray]:
    """Return (eigenvalues, rotation) for one shape spec entry.

    A (lo, hi) pair draws eigenvalues uniformly from [lo, hi] with a random
    rotation; an explicit length-n array is used as-is with a random rotation.
    """
    if isinstance(shape, tuple) and len(shape) == 2 and np.isscalar(shape[0]):
        lo, hi = float(shape[0]), float(shape[1])
        if not (0 < lo <= hi):
            raise ValueError(f"bad eigenvalue range ({lo}, {hi})")
        lam = rng.uniform(lo, hi, size=n)
    else:
        lam = np.asarray(shape, dtype=float).reshape(-1)
    return lam, random_rotation(n, rng)


def _check_scale(d: float) -> None:
    """Refuse to place centers up to ``d`` from the origin when d, or the
    squared distance separation_margin forms between two such centers (at
    most (2 d)^2), is not a finite float64: an infinite margin would count
    as separated and a NaN one would fail verification for no stated reason.

    Raises:
        NonFiniteInput: 4 d^2 exceeds the largest float64, or d is NaN.
    """
    if not 4.0 * d * d <= np.finfo(float).max:
        raise NonFiniteInput(
            f"centers up to {d:.6g} from the origin: their squared distances "
            "would overflow float64"
        )


def plant_separated_mixture(
    n: int,
    k: int,
    shape_spec,
    config: SeparationConfig,
    slack: float,
    rng: np.random.Generator,
    weights=None,
) -> Mixture:
    """Build a mixture whose every pair is separated with the given slack.

    Shapes are drawn per ``shape_spec`` (one entry, or a list of k entries,
    each either a (lo, hi) eigenvalue range or an explicit spectrum); ``rng``
    draws only the eigenvalues, rotations and fallback directions.  Median
    radii are computed up front by ``median_radius``, exactly: closed form
    when spherical, certified quadrature otherwise.  For each pair
    the minimal center distance d_ij = sqrt(max(rhs, 0)) is computed, and
    centers go on mutually orthogonal axes at distances chosen so that every
    pairwise distance is >= slack * d_ij.  With slack = 1 the binding pairs
    sit exactly at the threshold.

    When k - 1 > n orthogonal axes are unavailable; placement falls back to
    random unit directions with a verification loop and raises
    InfeasiblePlacement after 100 rejected attempts.

    Raises:
        NonFiniteInput: a required center distance, or a squared distance
            between centers placed at it, would overflow float64 (for
            example eigenvalues near 1e306), checked before any center is
            placed at that distance.
    """
    if not 1.0 <= _real(slack, "slack") < math.inf:
        raise ValueError(f"slack must be finite and >= 1, got {slack}")
    n = _int_at_least(n, 1, "n")
    k = _int_at_least(k, 1, "k")
    specs = shape_spec if isinstance(shape_spec, list) else [shape_spec] * k
    if len(specs) != k:
        raise ValueError(f"shape_spec has {len(specs)} entries for k={k}")
    comps = []
    for spec in specs:
        lam, rot = _component_from_shape(n, spec, rng)
        comp = make_gaussian(np.zeros(n), lam, rot)
        median_radius(comp)
        comps.append(comp)
    if weights is None:
        weights = np.full(k, 1.0 / k)
    radii = [c.median_radius for c in comps]
    sigmas = [c.sigma_max for c in comps]
    need = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            rhs = pair_separation_rhs(radii[i], sigmas[i], radii[j], sigmas[j], config)
            need[i, j] = need[j, i] = math.sqrt(max(rhs, 0.0))

    pad = 1.0 + 1e-9  # keeps float roundoff from flipping a zero margin negative
    # no center of the orthogonal placement, or of the first random one, lies
    # farther from the origin than d_scale
    d_scale = slack * float(need.max()) * pad
    _check_scale(d_scale)
    if k - 1 <= n:
        # component 0 at the origin, the rest on distinct axes: the (0, i)
        # distance is D_i and the (i, j) distance is sqrt(D_i^2 + D_j^2), so
        # D_i >= slack * max(d_0i, max_j d_ij / sqrt(2)) covers every pair.
        for i, comp in enumerate(comps):
            if i == 0:
                continue
            others = [need[i, j] / math.sqrt(2.0) for j in range(1, k) if j != i]
            d = slack * max([need[0, i]] + others) * pad
            comp.center = comp.center.copy()
            comp.center[i - 1] = d
        mixture = Mixture(components=comps, weights=weights)
        report = separation_margin(mixture, config)
        if not report.satisfied:
            raise InfeasiblePlacement(
                f"orthogonal placement failed verification: min margin "
                f"{report.min_margin:.3e}"
            )
        return mixture
    # random-direction fallback
    for attempt in range(100):
        _check_scale(d_scale)
        centers = np.zeros((k, n))
        for i in range(1, k):
            u = rng.standard_normal(n)
            centers[i] = d_scale * u / np.linalg.norm(u)
        for i, comp in enumerate(comps):
            comp.center = centers[i]
        mixture = Mixture(components=comps, weights=weights)
        if separation_margin(mixture, config).satisfied:
            return mixture
        d_scale *= 1.5
    raise InfeasiblePlacement(f"no valid placement after 100 attempts (k={k}, n={n})")
