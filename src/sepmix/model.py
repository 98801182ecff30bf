"""Gaussian components in spectral form, mixtures, and seeded sampling.

A component is stored as (center, eigenvalues, rotation): the covariance is
``rotation @ diag(eigenvalues) @ rotation.T`` and never materialized as a
dense matrix for sampling.  Radii of median mass are computed once and cached
on the component.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MedianRadiusNotConverged,
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
# Values per 1 MiB block: the node-by-eigenvalue tables of the exact
# median-radius solver.  Every Monte Carlo distance (the concentration
# checks' and median_radius's, through _sq_dist_draws) is drawn in blocks of
# a quarter of it: two buffers of _DRAW_CHUNK / 4 values, 512 KiB.
_DRAW_CHUNK = 1 << 17

# The exact median-radius solver (_exact_median_radius) keeps a radius only
# when its certified halfwidth is at most _RADIUS_RTOL * R.
_RADIUS_RTOL = 1e-10
# (answer, check) orders.  Talbot's rounding grows with its order, so the
# lower one answers; Gauss-Legendre loses nothing to rounding as its order
# grows, so the higher one answers.
_TALBOT_ORDERS = (24, 32)  # contour nodes
_IMHOF_ORDERS = (16, 8)  # Gauss-Legendre nodes per panel
_IMHOF_PANEL_PHASE = 2.0  # radians of integrand phase one panel may span
_IMHOF_MAX_PANELS = 4096
_IMHOF_TAIL = 1e-16  # bound on the CDF error from cutting the integral off
_EPS = float(np.finfo(float).eps)
_ROOT_RTOL = 4.0 * _EPS  # the least rtol scipy allows Brent's method
_CHI2_1_MEDIAN = 0.454936423119572  # 2 * gammaincinv(1/2, 1/2)


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
            exactly 1/2, or None until computed.
        median_radius_halfwidth: how far R may be from the true radius:
            0.0 on the closed-form spherical path; on the quadrature path,
            a bound at most 1e-10 * R (the gap between two quadrature
            orders, plus rounding and the root finder's tolerance); under
            method="mc", the half-width of a 99% order-statistic interval.
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
        NonFiniteInput: a center, eigenvalue or rotation entry is NaN or
            infinite.
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
    if not (np.isfinite(center).all() and np.isfinite(eigenvalues).all()):
        raise NonFiniteInput("center or eigenvalues contain NaN or an infinity")
    if np.any(eigenvalues <= 0):
        raise NonPositiveEigenvalue(f"min eigenvalue {eigenvalues.min()} <= 0")
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=float)
        if rotation.shape != (n, n):
            raise DimensionMismatch(
                f"rotation shape {rotation.shape} does not match dim {n}"
            )
        if not np.isfinite(rotation).all():
            raise NonFiniteInput("rotation contains NaN or an infinity")
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
    does not call this: ``_sq_dist_draws`` draws them from their law.
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


def _row_blocks(rows: int, step: int) -> tuple[int, list[tuple[int, int]]]:
    """(height, blocks): ``rows`` rows cut into consecutive blocks (lo, hi)
    of at most ``step`` rows whose heights differ by at most one; height is
    the tallest."""
    count = max(-(-rows // step), 1)
    bounds = [(rows * b // count, rows * (b + 1) // count) for b in range(count)]
    return -(-rows // count), bounds


def _eigen_offset(params: GaussianParams, point) -> np.ndarray:
    """v = R^T (point - center): the point in the component's eigen frame."""
    v = np.asarray(point, dtype=float) - params.center
    return v if params.rotation is None else v @ params.rotation


def _sq_dist_draws(
    params: GaussianParams, rng: np.random.Generator, count: int, point=None
):
    """Yield (lo, d2): |x - point|^2 for ``count`` draws x of the component,
    d2 holding draws lo, lo + 1, ... of them; ``point`` defaults to the
    center.

    The draws come from the exact law of the distance, not from n-vectors.
    With v = R^T (point - center), the eigenvalues are grouped by exact
    equality, in order of first occurrence; a group of eigenvalue lambda and
    multiplicity m, whose part of v has norm o, contributes

        (sqrt(lambda) g - o)^2 + lambda chi2(m - 1),

    g standard normal, because the group's covariance is lambda I_m and a
    rotation within its eigenspace takes its offset onto one axis; with
    o = 0 it contributes lambda chi2(m) (noncentral chi-square; Johnson,
    Kotz & Balakrishnan 1995, ch. 29).  The groups are independent, so a
    sample takes one or two variates a group, whatever n: one for a
    spherical component at its center, two for diag(top, 1, ..., 1).  A
    distinct eigenvalue is a group of one and takes one standard normal, so
    a spectrum without repeats takes the n normals a sample that ``sample``
    takes, and leaves the generator where ``sample`` leaves it.

    The blocks are a quarter of _DRAW_CHUNK draws high, their heights within
    one of each other, and each draws its groups' variates in turn, so the
    stream depends on that block grid (as on ``count``).  d2 is a view of a
    buffer that the next block overwrites: the caller may work on it in
    place and must copy what it keeps.
    """
    values, first, group, mult = np.unique(
        params.eigenvalues, return_index=True, return_inverse=True, return_counts=True
    )
    if point is None:
        offsets = np.zeros(values.size)
    else:
        v = _eigen_offset(params, point)
        offsets = np.sqrt(np.bincount(group, weights=v * v, minlength=values.size))
    groups = [
        (float(values[g]), int(mult[g]), float(offsets[g])) for g in np.argsort(first)
    ]
    height, bounds = _row_blocks(count, max(_DRAW_CHUNK // 4, 1))
    d2, part = np.empty(height), np.empty(height)
    for lo, hi in bounds:
        out, tmp = d2[: hi - lo], part[: hi - lo]
        out.fill(0.0)
        for value, m, offset in groups:
            if offset != 0.0:
                rng.standard_normal(out=tmp)
                tmp *= math.sqrt(value)
                tmp -= offset
                tmp *= tmp
                out += tmp
                m -= 1
            if m > 0:
                _chi_square(rng, m, tmp)
                tmp *= value
                out += tmp
        yield lo, out


def _difference(p: GaussianParams, q: GaussianParams) -> GaussianParams:
    """N(c_p - c_q, Sigma_p + Sigma_q), the law of x - y for independent
    draws x of p and y of q.  A shared rotation adds the spectra, a spherical
    component its eigenvalue to the other's, so equal eigenvalues stay equal
    for ``_sq_dist_draws`` to group; two spherical ones make one eigenvalue.
    Any other pair eigendecomposes the n x n sum, clipped at 0 so that
    roundoff on an ill-conditioned pair cannot give a NaN."""
    center = p.center - q.center
    if p.rotation is q.rotation:
        return GaussianParams(center, p.eigenvalues + q.eigenvalues, p.rotation)
    if p.is_spherical() and q.is_spherical():
        lam = np.full(p.dim, p.eigenvalues[0] + q.eigenvalues[0])
        return GaussianParams(center, lam, None)
    ball, other = (p, q) if p.is_spherical() else (q, p)
    if ball.is_spherical():
        lam = other.eigenvalues + ball.eigenvalues[0]
        return GaussianParams(center, lam, other.rotation)
    rp, rq = (np.eye(p.dim) if g.rotation is None else g.rotation for g in (p, q))
    cov = (rp * p.eigenvalues) @ rp.T + (rq * q.eigenvalues) @ rq.T
    lam, rotation = np.linalg.eigh(cov)
    return GaussianParams(center, np.maximum(lam, 0.0), rotation)


def _chi_square(rng: np.random.Generator, dof: int, out: np.ndarray) -> None:
    """Fill ``out`` with chi-square(dof) draws: a squared normal at dof 1,
    otherwise 2 Gamma(dof / 2), the draws ``rng.chisquare(dof)`` makes."""
    if dof == 1:
        rng.standard_normal(out=out)
        out *= out
    else:
        rng.standard_gamma(dof / 2.0, out=out)
        out *= 2.0


def _bartlett_factor(rng: np.random.Generator, dof: int, size: int) -> np.ndarray:
    """Lower-triangular A (size x size) with A A^T ~ Wishart(dof, I_size).

    A A^T has the law of Z^T Z for a (dof x size) standard normal Z
    (Bartlett 1933): with Z^T = L Q, Q orthogonal and L lower-trapezoidal,
    Z^T Z = L L^T, where L_ii is a chi variable with dof - i degrees of
    freedom and the entries below the diagonal are standard normal.  When
    dof < size, Z^T has rank dof, so only the first dof columns are nonzero.
    One (size, size) normal block is drawn and cleared on and above its
    diagonal row by row (and right of column dof), so no second array is
    formed; then one chi-square a diagonal entry.
    """
    a = rng.standard_normal((size, size))
    for i in range(size):
        a[i, i:] = 0.0
    rank = min(dof, size)
    a[:, rank:] = 0.0
    np.fill_diagonal(a[:rank, :rank], np.sqrt(rng.chisquare(dof - np.arange(rank))))
    return a


def median_radius(
    params: GaussianParams,
    rng: np.random.Generator | None = None,
    num_samples: int = 100_000,
    method: str = "auto",
) -> tuple[float, float]:
    """Compute the radius R with F(B(center, R)) = 1/2 and cache it.

    |x - center|^2 equals sum_i lambda_i z_i^2 for the standard normal block
    z that ``sample`` would map, so its law depends on the spectrum alone.
    For a spherical component it is sigma^2 times a chi-square with n degrees
    of freedom, and R = sigma * sqrt(m) with m the chi-square median, from the
    inverse regularized incomplete gamma function (halfwidth 0).  For any
    other spectrum, R^2 is the root of the weighted chi-square CDF at 1/2,
    computed by quadrature and kept only when a second quadrature order
    certifies it to 1e-10 relative (``_exact_median_radius``).  Neither path
    draws from ``rng``.

    Under method="mc", R is the sample median of |x - center| over
    ``num_samples`` draws, with a distribution-free 99% order-statistic
    interval attached.  The squared distances are drawn from their exact law
    in blocks (``_sq_dist_draws``: one or two variates a sample for each
    group of equal eigenvalues, so one for a spherical component), and one
    partition selects the four order statistics the estimate reads.

    Args:
        method: "auto" (closed form when spherical, quadrature otherwise)
            or "mc" (Monte Carlo from ``rng``).  Every caller inside the
            package uses "auto".

    Returns:
        (radius, halfwidth); both are also cached on ``params``.

    Raises:
        MedianRadiusNotConverged: no quadrature certified the radius.
    """
    if method not in ("auto", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "mc":
        if rng is None:
            raise ValueError("Monte Carlo path needs an rng")
        num_samples = _draw_count(num_samples, 1000, "num_samples")
        d2 = np.empty(num_samples)
        for a, block in _sq_dist_draws(params, rng, num_samples):
            d2[a : a + len(block)] = block
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
    elif params.is_spherical():
        radius = spherical_median_radius(
            math.sqrt(float(params.eigenvalues[0])), params.dim
        )
        halfwidth = 0.0
    else:
        radius, halfwidth = _exact_median_radius(params.eigenvalues)
    params.median_radius = radius
    params.median_radius_halfwidth = halfwidth
    return radius, halfwidth


def _exact_median_radius(eigenvalues) -> tuple[float, float]:
    """(R, halfwidth): the median of |x - center| for the spectrum, certified.

    R^2 is the median of Q = sum_i lambda_i z_i^2, solved for on the spectrum
    scaled to lambda_max = 1, where every eigenvalue is taken once with its
    multiplicity.  Two quadratures of the CDF of Q are tried in turn:

    - the fixed Talbot inversion (Abate & Valko 2004) of the Laplace
      transform phi(s)/s, phi(s) = prod_i (1 + 2 lambda_i s)^(-1/2).  It is
      cheap and accurate while Q is spread out, as under a few dominant
      eigenvalues, and loses digits as Q sharpens;
    - Imhof's (1961) integral of the characteristic function, on
      Gauss-Legendre panels cut off where its tail bound falls below 1e-16.
      It is accurate exactly where Talbot is not, and is skipped when the
      cut-off needs more than _IMHOF_MAX_PANELS panels, as at small
      effective dimension, where the integrand decays slowly.

    Brent's method (_brentq) finds F = 1/2 on a bracket that must hold the
    median: Cantelli's inequality puts it within one standard deviation of
    the mean, and Q >= lambda_max z_1^2 puts it at or above the chi-square(1)
    median.  Each quadrature answers at one order and checks at another.
    The answer is kept when its halfwidth is at most _RADIUS_RTOL * R; the
    halfwidth adds the distance to the check, the answer's rounding error
    (``root_error``) and the root finder's tolerance.

    Raises:
        MedianRadiusNotConverged: neither quadrature certified its answer.
    """
    scale = float(np.max(eigenvalues))
    lam, mult = np.unique(np.asarray(eigenvalues) / scale, return_counts=True)
    mean = float(lam @ mult)
    sq = float((lam * lam) @ mult)
    lo = max(mean - math.sqrt(2.0 * sq), _CHI2_1_MEDIAN)
    hi = mean + math.sqrt(2.0 * sq)
    quadratures = [
        ("Talbot", _TALBOT_ORDERS, lambda m: _talbot_rule(lam, mult, m))
    ]
    cut = _imhof_cut(lam, mult, hi, sq)
    if cut is not None:
        quadratures.append(
            ("Imhof", _IMHOF_ORDERS, lambda m: _imhof_rule(lam, mult, *cut, m))
        )
    misses = []
    for name, orders, rule in quadratures:
        (cdf, root_error), (check_cdf, _) = rule(orders[0]), rule(orders[1])
        try:
            x, x_check = _median_of(cdf, lo, hi), _median_of(check_cdf, lo, hi)
        except (ValueError, RuntimeError) as exc:
            misses.append(f"{name}: {exc}")
            continue
        # _brentq leaves |x - root| <= xtol + rtol |x| <= 2 rtol x
        err = abs(x - x_check) + root_error(x) + 2.0 * _ROOT_RTOL * x
        radius = math.sqrt(scale * x)
        # R - sqrt(scale (x - err)), the larger side, without cancellation
        halfwidth = scale * err / (radius + math.sqrt(scale * max(x - err, 0.0)))
        if halfwidth <= _RADIUS_RTOL * radius:
            return radius, halfwidth
        misses.append(
            f"{name} orders {orders} give R^2 = {scale * x!r} and "
            f"{scale * x_check!r}, halfwidth {halfwidth:.3g}"
        )
    raise MedianRadiusNotConverged(
        f"no quadrature certified the median radius within {_RADIUS_RTOL:g} "
        f"relative (n={int(mult.sum())}): " + "; ".join(misses)
    )


def _median_of(cdf, lo: float, hi: float) -> float:
    """Root of cdf(x) = 1/2 on [lo, hi] to the tightest tolerance _brentq takes."""
    return _brentq(
        lambda x: cdf(x) - 0.5, lo, hi, xtol=_ROOT_RTOL * lo, rtol=_ROOT_RTOL
    )


def _brentq(
    f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100
) -> float:
    """Root of ``f`` in the bracket [xa, xb] by Brent's (1973) method.

    An operation-for-operation port of scipy's optimize/Zeros/brentq.c
    (BSD-3-Clause), plus the NaN check of scipy.optimize.brentq's wrapper,
    so it returns scipy's root bit for bit.  Each step interpolates (secant
    or inverse quadratic) when that shrinks the bracket fast enough, and
    bisects otherwise; it stops once half the bracket is below
    (xtol + rtol |x|) / 2.

    Raises:
        ValueError: f is NaN at some x, or f(xa) and f(xb) have one sign.
        RuntimeError: no convergence within ``maxiter`` iterations.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation proposes a step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0:  # C divides by 0 to an inf or a NaN: a bisection
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations")


def _spectral_sum(fn, nodes: np.ndarray, lam: np.ndarray, mult: np.ndarray):
    """sum_i mult_i * fn(nodes * lam_i), over eigenvalue blocks of ~1 MiB."""
    out = np.zeros(nodes.shape, dtype=np.result_type(nodes, lam))
    step = max(_DRAW_CHUNK // nodes.size, 1)
    for a in range(0, lam.size, step):
        out += fn(np.multiply.outer(nodes, lam[a : a + step])) @ mult[a : a + step]
    return out


def _talbot_rule(lam: np.ndarray, mult: np.ndarray, order: int):
    """(cdf, root_error) of sum_i lam_i z_i^2 by the fixed Talbot rule.

    With M = ``order``, r = 2M / (5x), theta_k = k pi / M,
    s_k = r theta_k (cot theta_k + i) and
    w_k = theta_k + (theta_k cot theta_k - 1) cot theta_k,

        F(x) = (1/M) [e^{rx} phi(r) / 2
                      + sum_k Re(e^{x s_k} phi(s_k) (1 + i w_k) / (s_k / r))],

    and the density is the same sum with each term times s_k.
    ``root_error(x)`` is the rounding of F at x, at one unit roundoff per
    operation on each term, divided by the density: a bound on how far the
    rounding moves the root.  The terms reach e^{2M/5} in size, so it grows
    with M.
    """
    theta = np.arange(1, order) * (math.pi / order)
    cot = 1.0 / np.tan(theta)
    z = np.concatenate(([1.0], theta * (cot + 1j)))  # s / r, real node first
    weight = np.concatenate(
        ([0.5], (1.0 + 1j * (theta + (theta * cot - 1.0) * cot)) / z[1:])
    )

    def terms(x: float):
        s = (2.0 * order / (5.0 * x)) * z
        log_phi = -0.5 * _spectral_sum(np.log1p, 2.0 * s, lam, mult)
        return s, weight * np.exp(x * s + log_phi)

    def cdf(x: float) -> float:
        return float(terms(x)[1].real.sum()) / order

    def root_error(x: float) -> float:
        s, t = terms(x)
        size = _spectral_sum(lambda v: np.abs(np.log1p(v)), 2.0 * s, lam, mult)
        rounding = _EPS * float(np.abs(t) @ (3.0 + np.abs(x * s) + 0.5 * size.real))
        rounding /= order
        density = float((t * s).real.sum()) / order
        return rounding / density if density > 0.0 else math.inf

    return cdf, root_error


def _imhof_cut(lam: np.ndarray, mult: np.ndarray, hi: float, sq: float):
    """(u_max, panels) for Imhof's integral, or None past _IMHOF_MAX_PANELS.

    For u >= U, 1 + lam^2 u^2 >= (1 + lam^2 U^2) (u/U)^(2q) with
    q = lam^2 U^2 / (1 + lam^2 U^2), because log(1 + lam^2 e^(2v)) is convex
    in v = log u.  So rho(u) >= rho(U) (u/U)^(Q/2) with Q = sum q, and the
    integral beyond U changes F by at most 2 / (pi Q rho(U)).  The integrand's
    phase turns at most hi/2 per unit of u inside the bracket, and its
    amplitude starts as exp(-sq u^2 / 4); a panel spans _IMHOF_PANEL_PHASE
    radians of the sum of the two rates.
    """
    rate = 0.5 * (hi + math.sqrt(sq))
    u = 1.0 / math.sqrt(sq)
    while True:
        panels = math.ceil(u * rate / _IMHOF_PANEL_PHASE)
        if panels > _IMHOF_MAX_PANELS:
            return None
        q = (lam * u) ** 2
        log_rho = 0.25 * float(np.log1p(q) @ mult)
        tail = 2.0 / (math.pi * float((q / (1.0 + q)) @ mult)) * math.exp(-log_rho)
        if tail <= _IMHOF_TAIL:
            return u, panels
        u *= 1.25


def _imhof_rule(lam, mult, u_max: float, panels: int, order: int):
    """(cdf, root_error) of sum_i lam_i z_i^2 by Imhof's integral on
    [0, u_max] with ``order``-point Gauss-Legendre on ``panels`` equal panels:

        F(x) = 1/2 - (1/pi) int sin(theta(u) - x u / 2) / (u rho(u)) du,

    theta(u) = (1/2) sum arctan(lam_i u), rho(u) = prod (1 + lam_i^2 u^2)^(1/4);
    the density is (1/2pi) int cos(theta(u) - x u / 2) / rho(u) du.
    Everything but the x u / 2 term is tabulated once, so one evaluation is
    one pass over the nodes.  ``root_error`` is as for ``_talbot_rule``, with
    the cut-off tail's bound added to the rounding.
    """
    g, w = np.polynomial.legendre.leggauss(order)
    h = u_max / panels
    u = (h * (np.arange(panels)[:, None] + 0.5 * (g + 1.0))).ravel()
    theta = 0.5 * _spectral_sum(np.arctan, u, lam, mult)
    log_rho = 0.25 * _spectral_sum(lambda v: np.log1p(v * v), u, lam, mult)
    amp = np.tile(0.5 * h * w, panels) * np.exp(-log_rho) / u

    def cdf(x: float) -> float:
        return 0.5 - float(amp @ np.sin(theta - 0.5 * x * u)) / math.pi

    def root_error(x: float) -> float:
        phase = theta - 0.5 * x * u
        rounding = _EPS * float(amp @ (3.0 + log_rho + theta + 0.5 * x * u)) / math.pi
        density = float((amp * u) @ np.cos(phase)) / (2.0 * math.pi)
        return (rounding + _IMHOF_TAIL) / density if density > 0.0 else math.inf

    return cdf, root_error


def _weights(weights, count: int) -> np.ndarray:
    """The boundary check on mixture weights: a float vector of ``count``
    finite, positive weights that sum to 1 (within 1e-12).

    Raises:
        DimensionMismatch: there are not ``count`` weights.
        ValueError: a weight is NaN, infinite or not positive, or the
            weights do not sum to 1.
    """
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape[0] != count:
        raise DimensionMismatch(f"{count} components but {weights.shape[0]} weights")
    if not np.isfinite(weights).all():
        raise ValueError("weights contain NaN or an infinity")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {weights.sum()}, not 1")
    if not np.all(weights > 0):
        raise ValueError("every weight must be > 0")
    return weights


@dataclass
class Mixture:
    """Weighted list of components: at least one, all of one dimension, and
    finite, positive weights that sum to 1 (``_weights``)."""

    components: list[GaussianParams]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.components) == 0:
            raise DimensionMismatch("mixture needs at least one component")
        self.weights = _weights(self.weights, len(self.components))
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

    ``component_sigmas`` carries generation metadata used by runtime
    diagnostics; ``ambient_dim`` records the true dimension when
    the stored coordinates are an isometric reduction of higher-dimensional
    draws (pairwise geometry is preserved exactly in that case).
    """

    points: np.ndarray
    labels: np.ndarray
    seed: int | None = None
    component_sigmas: np.ndarray | None = None
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


def _int_at_least(value, low: int, name: str) -> int:
    """The boundary check on a count or a seed: ``value`` as an int >= ``low``.

    Raises:
        ValueError: value is a bool, not an integer (2.0 included), or below
            ``low``; the message names it ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def _draw_count(value, low: int, name: str) -> int:
    """The boundary check on a number of draws: ``value`` as an int >= ``low``.

    Raises:
        ValueError: value is not a nonnegative integer; the message names it.
        TooFewSamples: value is below ``low``.
    """
    count = _int_at_least(value, 0, name)
    if count < low:
        raise TooFewSamples(f"{name}={count} < {low}")
    return count


def _real(value, name: str) -> float:
    """The boundary check on a real parameter: ``value`` as a float.

    Raises:
        ValueError: value is a bool or not a real number ("5" included); the
            message names it ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
    return LabeledSampleSet(
        points=points,
        labels=labels,
        seed=seed,
        component_sigmas=sigmas,
        ambient_dim=mixture.dim,
    )


def spherical_median_radius(sigma: float, n: int) -> float:
    """Closed-form median radius of N(0, sigma^2 I_n)."""
    # imported on first use, as every scipy module (tests/test_imports.py)
    from scipy.special import gammaincinv

    return sigma * math.sqrt(2.0 * float(gammaincinv(n / 2.0, 0.5)))


def _concentric_pair(sigmas, weights, ambient_dim, count: int):
    """A concentric pair's sigmas and weights as float vectors, once they and
    ``ambient_dim`` are checked for an embedding of ``count`` points.

    Raises:
        DimensionMismatch: not one weight per sigma.
        NonFiniteInput, NonPositiveEigenvalue: a sigma is NaN or infinite, or <= 0.
        ValueError, TypeError: a value is not a number, ``Mixture`` would refuse
            the weights, or ``ambient_dim`` is not an integer >= ``count``.
    """
    sigmas = np.asarray(sigmas, dtype=float).reshape(-1)
    weights = _weights(weights, sigmas.shape[0])
    if not np.isfinite(sigmas).all():
        raise NonFiniteInput("component sigmas contain NaN or an infinity")
    if np.any(sigmas <= 0):
        raise NonPositiveEigenvalue("component sigmas must be positive")
    if _int_at_least(ambient_dim, 1, "ambient_dim") < count:
        raise ValueError(f"embedding {count} points needs ambient_dim >= {count}")
    return sigmas, weights


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
    factorization (``_bartlett_factor``) gives a lower-triangular A
    (count x count) with A A^T ~ Wishart(n, I): diagonal entries are chi
    variables with n, n-1, ... degrees of freedom and subdiagonal entries
    are standard normal.  The rows of diag(sigma_label) A are therefore an
    exact isometric image of the n-dimensional draw: every pairwise distance
    and every subset covariance spectrum has the same joint distribution as
    for X itself.

    Every argument is checked before anything is drawn (_concentric_pair).
    """
    sigmas, weights = _concentric_pair(sigmas, weights, ambient_dim, count)
    labels = _draw_labels(weights, rng, count)
    points = _bartlett_factor(rng, ambient_dim, count)
    points *= sigmas[labels][:, None]
    return LabeledSampleSet(
        points=points,
        labels=labels,
        seed=seed,
        component_sigmas=sigmas.copy(),
        ambient_dim=ambient_dim,
    )
