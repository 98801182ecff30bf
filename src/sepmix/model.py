"""Gaussian components in spectral form, mixtures, and seeded sampling.

A component is stored as (center, eigenvalues, rotation): the covariance is
``rotation @ diag(eigenvalues) @ rotation.T`` and never materialized as a
dense matrix for sampling or density evaluation.  Radii of median mass are
estimated once and cached on the component.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from .errors import (
    DegenerateSample,
    DiagnosticWarning,
    DimensionMismatch,
    MissingMedianRadius,
    NonFiniteInput,
    NonOrthonormalRotation,
    NonPositiveEigenvalue,
    SampleBalanceWarning,
    TooFewSamples,
)

# Gram test tolerance for rotation matrices (max abs deviation from identity).
_ORTHO_TOL = 1e-8
# Eigenvalues within this relative spread of each other count as spherical.
_SPHERICAL_RTOL = 1e-12
# Standard normal values per chunk of Monte Carlo radius draws (1 MiB).
_DRAW_CHUNK = 1 << 17


@dataclass
class GaussianParams:
    """One Gaussian component in spectral form.

    Attributes:
        center: mean vector, shape (n,).
        eigenvalues: positive covariance eigenvalues, shape (n,).
        rotation: orthonormal eigenvector matrix, shape (n, n); column i is
            the direction of eigenvalues[i].  None stands for the identity,
            which keeps very high-dimensional axis-aligned components cheap.
        median_radius: radius R of the ball around the center holding mass
            exactly 1/2, or None until estimated.
        median_radius_halfwidth: half-width of a 99% interval for the
            estimate (0.0 on the closed-form spherical path).
    """

    center: np.ndarray
    eigenvalues: np.ndarray
    rotation: np.ndarray | None
    median_radius: float | None = field(default=None)
    median_radius_halfwidth: float | None = field(default=None)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def sigma_max(self) -> float:
        """Largest directional standard deviation, sqrt(max eigenvalue)."""
        return math.sqrt(float(np.max(self.eigenvalues)))

    def is_spherical(self) -> bool:
        lam = self.eigenvalues
        return bool(np.max(lam) - np.min(lam) <= _SPHERICAL_RTOL * np.max(lam))

    def require_median_radius(self) -> float:
        if self.median_radius is None:
            raise MissingMedianRadius(
                "median radius not estimated; call median_radius() first"
            )
        return self.median_radius


def make_gaussian(center, eigenvalues, rotation=None) -> GaussianParams:
    """Validate and build a GaussianParams.

    Args:
        center: length-n mean.
        eigenvalues: length-n positive spectrum.
        rotation: optional n x n orthonormal matrix; identity when omitted.

    Raises:
        NonPositiveEigenvalue: any eigenvalue <= 0.
        NonOrthonormalRotation: Gram test ``max|R^T R - I|`` fails at 1e-8.
        DimensionMismatch: inconsistent shapes.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    eigenvalues = np.asarray(eigenvalues, dtype=float).reshape(-1)
    n = center.shape[0]
    if eigenvalues.shape[0] != n:
        raise DimensionMismatch(
            f"center has dim {n} but spectrum has {eigenvalues.shape[0]} entries"
        )
    if np.any(eigenvalues <= 0):
        raise NonPositiveEigenvalue(f"min eigenvalue {eigenvalues.min()} <= 0")
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=float)
        if rotation.shape != (n, n):
            raise DimensionMismatch(
                f"rotation shape {rotation.shape} does not match dim {n}"
            )
        gram_err = np.max(np.abs(rotation.T @ rotation - np.eye(n)))
        if gram_err > _ORTHO_TOL:
            raise NonOrthonormalRotation(
                f"max |R^T R - I| = {gram_err:.3e} exceeds {_ORTHO_TOL}"
            )
    return GaussianParams(center=center, eigenvalues=eigenvalues, rotation=rotation)


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign fixing."""
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def sample(params: GaussianParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` points: center + rotation @ (sqrt(eigenvalues) * z).

    Scaling all eigenvalues by c**2 scales the deviations from the center by
    exactly c for the same seed, because the standard normal block is drawn
    identically either way.  Code that needs only distances from the draws
    does not call this: it draws the same block and passes it to
    ``_sq_dists``, which never forms the rotated points.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _from_standard_normal(params, rng.standard_normal((count, params.dim)))


def _from_standard_normal(params: GaussianParams, z: np.ndarray) -> np.ndarray:
    """Map standard normal rows z to center + (z * sqrt(eigenvalues)) @ R^T."""
    dev = z * np.sqrt(params.eigenvalues)
    if params.rotation is not None:
        dev = dev @ params.rotation.T
    return params.center + dev


def _sq_dists(params: GaussianParams, z: np.ndarray, point=None) -> np.ndarray:
    """|x - point|^2 for each draw x = _from_standard_normal(params, z),
    without forming x; ``point`` defaults to the center.

    The rotation is an isometry, so in eigen coordinates
    |x - point|^2 = sum_i (sqrt(lambda_i) z_i - v_i)^2 with
    v = R^T (point - center), and v = 0 at the center.  ``z`` is consumed:
    it is scaled and shifted in place, so no second block is allocated.
    """
    z *= np.sqrt(params.eigenvalues)
    if point is not None:
        v = np.asarray(point, dtype=float) - params.center
        if params.rotation is not None:
            v = v @ params.rotation
        z -= v
    return np.einsum("ij,ij->i", z, z)


def log_density(params: GaussianParams, x) -> np.ndarray | float:
    """Log density at x (single vector) or at each row of x (matrix).

    Evaluated in spectral form: no inverse or determinant of the dense
    covariance is ever formed.

    Raises:
        DimensionMismatch: x does not have the component's dimension.
        NonFiniteInput: a coordinate is NaN or infinite.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != params.dim:
        raise DimensionMismatch(
            f"points have dim {pts.shape[1]}, component has dim {params.dim}"
        )
    if not np.isfinite(pts).all():
        raise NonFiniteInput("points contain NaN or an infinity")
    y = pts - params.center
    if params.rotation is not None:
        y = y @ params.rotation  # coordinates along eigenvectors
    quad = np.sum(y * y / params.eigenvalues, axis=1)
    log_norm = -0.5 * params.dim * math.log(2 * math.pi) - 0.5 * float(
        np.sum(np.log(params.eigenvalues))
    )
    out = log_norm - 0.5 * quad
    return float(out[0]) if single else out


def median_radius(
    params: GaussianParams,
    rng: np.random.Generator | None = None,
    num_samples: int = 100_000,
    method: str = "auto",
) -> tuple[float, float]:
    """Estimate the radius R with F(B(center, R)) = 1/2 and cache it.

    For spherical components the closed path is exact: |x - center|^2 / sigma^2
    is chi-square with n degrees of freedom, so R = sigma * sqrt(m) where m is
    the chi-square median, obtained by inverting the regularized incomplete
    gamma function.  Otherwise R is the sample median of |x - center| over
    ``num_samples`` draws, with a distribution-free 99% order-statistic
    interval attached.  The draws are never rotated: |x - center|^2 equals
    sum_i lambda_i z_i^2 for the standard normal block z that ``sample``
    would map, so the distances come from the spectrum alone, and one
    partition selects the four order statistics the estimate reads.

    Args:
        method: "auto" (closed path when spherical, Monte Carlo otherwise),
            "exact", or "mc".  Every caller inside the package uses "auto".

    Returns:
        (radius, halfwidth); both are also cached on ``params``.
    """
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" or (method == "auto" and params.is_spherical()):
        if not params.is_spherical():
            raise ValueError("exact path requires a spherical component")
        radius = spherical_median_radius(
            math.sqrt(float(params.eigenvalues[0])), params.dim
        )
        halfwidth = 0.0
    else:
        if rng is None:
            raise ValueError("Monte Carlo path needs an rng")
        if num_samples < 1000:
            raise TooFewSamples(f"num_samples={num_samples} < 1000")
        # The generator fills a block value by value in row order, so drawing
        # it in row chunks consumes the stream of one (num_samples, n) block
        # while holding only the distances and one chunk of about 1 MiB.
        d2 = np.empty(num_samples)
        step = max(_DRAW_CHUNK // params.dim, 1)
        for a in range(0, num_samples, step):
            z = rng.standard_normal((min(step, num_samples - a), params.dim))
            d2[a : a + len(z)] = _sq_dists(params, z)
        # distribution-free 99% interval for the median from order statistics
        half_span = 2.576 * math.sqrt(num_samples) / 2.0
        lo = max(int(math.floor(num_samples / 2.0 - half_span)), 0)
        hi = min(int(math.ceil(num_samples / 2.0 + half_span)), num_samples - 1)
        mid = ((num_samples - 1) // 2, num_samples // 2)  # equal when odd
        # one selection of the four order statistics read; sqrt is monotone,
        # so these are the order statistics of the distances themselves
        d2.partition(sorted({lo, *mid, hi}))
        d_lo, d_mid0, d_mid1, d_hi = np.sqrt(d2[[lo, *mid, hi]])
        radius = float((d_mid0 + d_mid1) / 2.0)  # np.median's arithmetic
        halfwidth = float(d_hi - d_lo) / 2.0
    if radius + halfwidth < (2.0 / 3.0) * params.sigma_max:
        warnings.warn(
            f"median radius {radius:.4g} below (2/3) sigma_max "
            f"{params.sigma_max:.4g}; input may not be Gaussian",
            DiagnosticWarning,
        )
    params.median_radius = radius
    params.median_radius_halfwidth = halfwidth
    return radius, halfwidth


def sample_covariance_fit(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (1/M)-normalized covariance of the rows of ``points``.

    All-identical rows yield the zero matrix and a DegenerateSample warning;
    the fit is still returned.
    """
    points, _ = _points_of(points)
    mean = points.mean(axis=0)
    centered = points - mean
    cov = centered.T @ centered / points.shape[0]
    if np.all(points == points[0]):
        warnings.warn("all rows identical; covariance is zero", DegenerateSample)
    return mean, cov


@dataclass
class Mixture:
    """Weighted list of components with a minimum-weight floor."""

    components: list[GaussianParams]
    weights: np.ndarray
    w_min: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.components) != self.weights.shape[0]:
            raise DimensionMismatch(
                f"{len(self.components)} components but {self.weights.shape[0]} weights"
            )
        if len(self.components) == 0:
            raise DimensionMismatch("mixture needs at least one component")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()}, not 1")
        if self.w_min == 0.0:
            self.w_min = float(self.weights.min())
        if self.w_min <= 0 or np.any(self.weights < self.w_min - 1e-15):
            raise ValueError("every weight must be >= w_min > 0")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise DimensionMismatch(f"components have mixed dims {sorted(dims)}")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass
class LabeledSampleSet:
    """Sampled points with ground-truth component labels.

    ``component_sigmas`` / ``component_radii`` carry generation metadata used
    by runtime diagnostics; ``ambient_dim`` records the true dimension when
    the stored coordinates are an isometric reduction of higher-dimensional
    draws (pairwise geometry is preserved exactly in that case).
    """

    points: np.ndarray
    labels: np.ndarray
    seed: int | None = None
    component_sigmas: np.ndarray | None = None
    component_radii: np.ndarray | None = None
    ambient_dim: int | None = None

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _points_of(samples) -> tuple[np.ndarray, LabeledSampleSet | None]:
    """The boundary check on a point set: (float M x n matrix, metadata or None).

    Raises:
        DimensionMismatch: not a 2-D matrix with at least one row and column.
        NonFiniteInput: a coordinate is NaN or infinite.
    """
    if isinstance(samples, LabeledSampleSet):
        points, meta = np.asarray(samples.points, dtype=float), samples
    else:
        points, meta = np.asarray(samples, dtype=float), None
    if points.ndim != 2 or points.size == 0:
        raise DimensionMismatch(
            f"points must be a nonempty M x n matrix, got shape {points.shape}"
        )
    if not np.isfinite(points).all():
        raise NonFiniteInput("points contain NaN or an infinity")
    return points, meta


def _cluster_count(k) -> int:
    """The boundary check on a cluster count: ``k`` as an int >= 1.

    Raises:
        ValueError: k is a bool, not an integer (2.0 included), or < 1.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(k)


def _draw_labels(weights: np.ndarray, rng: np.random.Generator, count: int):
    """Component labels by inverse CDF on one block of ``count`` uniforms."""
    labels = np.searchsorted(np.cumsum(weights), rng.random(count), side="right")
    return np.minimum(labels, weights.shape[0] - 1)  # guard the u == 1.0 edge


def sample_mixture(
    mixture: Mixture,
    rng: np.random.Generator,
    count: int,
    seed: int | None = None,
) -> LabeledSampleSet:
    """Draw a labeled sample of size ``count`` from the mixture.

    Labels are drawn by inverse CDF on a single uniform block and the normal
    block is drawn once up front, so results are reproducible and the draw
    for point m does not depend on the labels of other points.  Component
    counts outside [0.9 * w * count, 1.1 * w * count] are reported with a
    SampleBalanceWarning, not failed.
    """
    if count < 1:
        raise ValueError("count must be positive")
    labels = _draw_labels(mixture.weights, rng, count)
    z = rng.standard_normal((count, mixture.dim))
    points = np.empty_like(z)
    for j, comp in enumerate(mixture.components):
        rows = labels == j
        if np.any(rows):
            points[rows] = _from_standard_normal(comp, z[rows])
    counts = np.bincount(labels, minlength=mixture.k)
    lo = 0.9 * mixture.weights * count
    hi = 1.1 * mixture.weights * count
    bad = [j for j in range(mixture.k) if not (lo[j] <= counts[j] <= hi[j])]
    if bad:
        warnings.warn(
            f"components {bad} outside the 0.9/1.1 expected-count band: "
            f"counts={counts.tolist()}",
            SampleBalanceWarning,
        )
    sigmas = np.array([c.sigma_max for c in mixture.components])
    radii = None
    if all(c.median_radius is not None for c in mixture.components):
        radii = np.array([c.median_radius for c in mixture.components])
    return LabeledSampleSet(
        points=points,
        labels=labels,
        seed=seed,
        component_sigmas=sigmas,
        component_radii=radii,
        ambient_dim=mixture.dim,
    )


def spherical_median_radius(sigma: float, n: int) -> float:
    """Closed-form median radius of N(0, sigma^2 I_n)."""
    return sigma * math.sqrt(2.0 * float(gammaincinv(n / 2.0, 0.5)))


def sample_concentric_spherical_embedded(
    sigmas,
    weights,
    ambient_dim: int,
    rng: np.random.Generator,
    count: int,
    seed: int | None = None,
) -> LabeledSampleSet:
    """Sample a concentric spherical mixture in huge dimension, reduced.

    For components N(0, sigma_j^2 I_n) sharing one center, the points can be
    written X = diag(sigma_label) Z with Z standard normal (count x n).  Any
    classification or distance computation depends on X only through its Gram
    matrix, and Z Z^T is Wishart(n, I) of order ``count``.  The Bartlett
    factorization gives a lower-triangular A (count x count) with
    A A^T ~ Wishart(n, I): diagonal entries are chi variables with n, n-1, ...
    degrees of freedom and subdiagonal entries are standard normal.  The rows
    of diag(sigma_label) A are therefore an exact isometric image of the
    n-dimensional draw: every pairwise distance and every subset covariance
    spectrum has the same joint distribution as for X itself.

    Requires ``ambient_dim >= count``.
    """
    sigmas = np.asarray(sigmas, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if sigmas.shape != weights.shape:
        raise DimensionMismatch("sigmas and weights must have the same length")
    if np.any(sigmas <= 0):
        raise NonPositiveEigenvalue("component sigmas must be positive")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    if ambient_dim < count:
        raise ValueError("embedding needs ambient_dim >= count")
    labels = _draw_labels(weights, rng, count)
    a = np.tril(rng.standard_normal((count, count)), k=-1)
    dof = ambient_dim - np.arange(count)
    np.fill_diagonal(a, np.sqrt(rng.chisquare(dof)))
    points = sigmas[labels][:, None] * a
    radii = np.array([spherical_median_radius(s, ambient_dim) for s in sigmas])
    return LabeledSampleSet(
        points=points,
        labels=labels,
        seed=seed,
        component_sigmas=sigmas.copy(),
        component_radii=radii,
        ambient_dim=ambient_dim,
    )
