"""Distance-based peeling classifiers for separated Gaussian mixtures.

The general classifier repeats k times on the remaining index set T:

  1. find the smallest ball around a sample point holding at least
     ceil(3 * w_min * |S| / 4) points of T (center x, radius alpha);
  2. beta = largest directional variance of the points in B(x, alpha), i.e.
     the top eigenvalue of their covariance;
  3. march outward from alpha in steps of nu = sqrt(w_min * beta / 8) until
     one step adds no new point of T (step count s; on a finite T the march
     always ends);
  4. beta' = largest directional variance within B(x, alpha + s * nu);
  5. remove B(x, alpha + s * nu + 3 * sqrt(beta') * (ln(|S| / delta) + 1)).

Every quantity above depends on the points only through pairwise distances
and subset covariance spectra, so the output is invariant under rigid
motions and (up to index relabeling) under point order.  None of the radii
depends on the separation scale t, so the classifier takes no t.

Every M x M pass, here and in the k-median fit, reads its squared distances
from one row engine, _SqDistRows.  It owns the squared norms, the block grid,
the Gram expansion, the choice between storing the M x M matrix and forming
row blocks on demand under _MATRIX_BUDGET, the refusal of an array larger
than physical memory or of points whose squared distances could overflow,
the per-row roundoff slack, and a float32 screen: row blocks formed in
float32 from a centered copy of the points, each row with a certified bound
on how far any float64 entry the engine forms for it may lie from its
screened one.  A float64 block is one GEMM finished in place by _expand and
clipped at 0.  A float32 block is one GEMM whose operands carry the squared
norms, so each entry is finished inside its dot product and then clipped at
0 in place.  The engine keeps nothing of either.  Both
classifiers screen first and form a float64 block only where one of its
rows may still win or tie.  So does the k-median search: it stores the
screened upper triangle, prices swaps on it, and forms float64 rows, each in
its aligned block, only for its centers and the swaps that may still win or
tie.  The warm-up reads every float64 row as it would without the screen.
The dense ball forms a float64 row in a block of the height it would
otherwise have had, but among other rows, so at a later peel the last
entries of the row may round otherwise, within the slack its bounds allow.

classify_general centers the points on their mean and reads squared-distance
rows over the live points.  When the threshold is at least the dimension n,
every ball holds at least n points and its beta comes from the n x n
covariance, so no block of the M x M matrix is ever needed: rows are formed
on demand, a block at a time, from the centered points.  So are they when
the matrix would not fit the memory budget; a ball with fewer points than
dimensions then forms its own squared distances.  Otherwise the matrix is
formed once, and such a ball double-centers its block of it into its Gram
matrix, -1/2 J D J / m.  A row's threshold-th smallest entry can only grow
as points leave, so each peel ranks rows in ascending order of their bound
from the last peel that ranked them, and stops at the first block that
cannot beat the best radius.  Rows formed on demand are ranked on their
screened order statistic, and a block is formed in float64, at the height
it was screened at, only when one of its rows' bounds reaches the best
radius.

The spherical warm-up instead removes, k times, the ball of radius
|x0 - y0| * (1 + 3 t / sqrt(n)) around the closest remaining pair (x0, y0).
It stores no matrix either.  One float32 pass bounds every point's nearest
squared distance from below; each peel then forms float64 rows only in
fixed, aligned row blocks, and only for rows whose bound does not exceed
the closest distance found, so memory is O(B M) for blocks of B rows.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DiagnosticWarning,
    EigenSolverFailed,
    EmptyPeel,
    InstanceTooLarge,
    NonFiniteInput,
    ResidualPointsAfterKPeels,
    ThresholdTooLarge,
)
from .model import LabeledSampleSet, _int_at_least, _points_of, _real

# Row blocks of M x M passes are kept near this size, so no pass allocates a
# second M x M array and a block's few temporaries stay in a per-core L2
# cache: on a Xeon with 2 MiB of L2 per core, one k-median swap pass at
# M=4000 took 0.07 s with 256 KiB blocks and 0.13-0.14 s with 4 MiB blocks.
_BLOCK_BYTES = 256 << 10

# A row block formed on demand is one GEMM against all live points, so it
# takes at least this many rows, or reading the live points costs more than
# writing the block: a classify_general call at M = 2e4, n = 16 took 6.5 s
# with 1-row blocks, 2.6 s with 16 and 2.8 s with 64 (2-core x86-64 VM, two
# OpenBLAS threads).
_MIN_GEMM_ROWS = 16


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


# The row engine stores an M x M squared distance matrix only when it takes
# at most this many bytes; otherwise it forms rows on demand.
_MATRIX_BUDGET = _physical_memory() // 4


@dataclass(frozen=True)
class ClassifierConfig:
    """Knobs for the general classifier.

    ``k`` peels are made (an integer: not a bool, nor 2.0); ``w_min`` (the
    least component weight) sets the dense-ball threshold and the gap step;
    ``delta`` (the failure probability) sets the removal margin through
    ln(|S| / delta).  Both are numbers, not strings.
    """

    k: int
    w_min: float
    delta: float = 0.05

    def __post_init__(self):
        _int_at_least(self.k, 1, "k")
        _real(self.w_min, "w_min")
        _real(self.delta, "delta")
        if not (0 < self.w_min <= 1) or self.k * self.w_min > 1 + 1e-12:
            raise ValueError(f"need 0 < w_min and k * w_min <= 1, got {self.w_min}")
        if not (0 < self.delta <= 1):
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")


@dataclass
class PeelStep:
    """Trace of one peel iteration."""

    center_index: int
    alpha: float
    beta: float
    nu: float
    s: int
    beta_prime: float
    removal_radius: float
    removed: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready record: the scalars plus the removed-point count."""
        return {
            "center_index": self.center_index,
            "alpha": self.alpha,
            "beta": self.beta,
            "nu": self.nu,
            "s": self.s,
            "beta_prime": self.beta_prime,
            "removal_radius": self.removal_radius,
            "removed_count": int(self.removed.size),
        }


@dataclass
class PeelTrace:
    threshold: int
    delta: float
    steps: list[PeelStep] = field(default_factory=list)

    def records(self) -> list[dict]:
        """The steps' JSON-ready records, in peel order."""
        return [step.to_dict() for step in self.steps]


@dataclass
class Partition:
    """Disjoint index clusters covering the whole sample, in peel order."""

    clusters: list[np.ndarray]
    trace: PeelTrace | None = None

    @property
    def k(self) -> int:
        return len(self.clusters)

    def size(self) -> int:
        return int(sum(len(c) for c in self.clusters))

    def as_labels(self) -> np.ndarray:
        """Cluster id per point index (clusters must cover 0..M-1)."""
        labels = np.full(self.size(), -1, dtype=int)
        for cid, cluster in enumerate(self.clusters):
            labels[cluster] = cid
        return labels


def pairwise_sq_dists(a: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between the rows of ``a``, via the Gram
    expansion.

    Computes ``aa[:, None] + aa[None, :] - 2 (a @ a.T)`` clipped at 0, with
    the same rounding, while allocating only the output matrix and one row
    block: the expansion is finished in place (see _expand).

    Raises:
        InstanceTooLarge: the M x M float64 result would not fit in physical
            memory.
        NonFiniteInput: the squared distances could overflow (_sq_norms).
    """
    m = a.shape[0]
    _SqDistRows.check_memory(m * m, f"a {m} x {m} distance matrix")
    aa = _sq_norms(a)
    return _expand(a @ a.T, aa, aa, scale=-2.0)


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of ``points``, once it is known that no
    quantity the package forms from their squared distances can overflow.

    With T the largest squared norm and M the row count, no such quantity
    exceeds 16 M T:
      - an entry's expansion adds terms of at most 2 T (the norms) and 2 T
        (twice the inner product), so every entry and partial sum is at
        most 4 T;
      - a ball's Gram block (_gram_from_sq_dists) sums at most M entries for
        each row mean, at most 4 M T, and after three subtractions its
        entries are at most 16 T;
      - a covariance recenters the points, so |y|^2 <= 4 T, and each of its
        entries sums at most M products, at most 4 M T; so does a k-median
        cost or objective, a sum of at most M squared distances;
      - the removal radius adds square roots of these.
    Rounding multiplies each bound by at most 1 + gamma_(M + n) < 2, so
    32 M T at most the largest float64 rules out overflow, and with it the
    inf - inf that would make a distance, beta or beta' NaN.

    Raises:
        NonFiniteInput: 32 M T exceeds the largest float64, or T is not
            finite.
    """
    norms = np.einsum("ij,ij->i", points, points)
    top = float(norms.max(initial=0.0))
    if not 32.0 * norms.size * top <= np.finfo(float).max:
        raise NonFiniteInput(
            f"squared distances of {norms.size} points with squared norms up "
            f"to {top:.6g} could overflow float64"
        )
    return norms


def _expand(
    g: np.ndarray, aa: np.ndarray, bb: np.ndarray, scale: float | None = None
) -> np.ndarray:
    """Squared distances from the inner products ``g = a @ (-2 b).T``.

    ``g`` becomes ``(aa[:, None] + bb[None, :]) + g`` clipped at 0, in place,
    with aa and bb the squared norms of the rows of a and b.
    Given ``scale`` = -2, ``g`` holds a @ b.T and is scaled in place first.
    Scaling by -2 is exact, so both forms round as (aa + bb) - 2 (a @ b.T).
    The work goes one row block of about ``_BLOCK_BYTES`` at a time, so each
    pass over a block runs in cache.  Every float64 squared distance in the
    package is finished here; the float32 screen finishes its entries inside
    their GEMM (_SqDistRows.screen).
    """
    rows, cols = g.shape
    step = _block_rows(cols)
    buf = np.empty((min(step, rows), cols), g.dtype)
    for lo in range(0, rows, step):
        blk = g[lo : lo + step]
        if scale is not None:
            blk *= scale
        norms = buf[: blk.shape[0]]
        np.add(aa[lo : lo + step, None], bb[None, :], out=norms)
        np.add(norms, blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
    return g


def _block_rows(cols: int) -> int:
    """Rows of a float64 block of ``cols`` columns that fit in _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * max(cols, 1)))


class _SqDistRows:
    """Squared-distance rows between the rows of ``points``, in row blocks.

    Every M x M pass reads its distances here: classify_general's dense
    ball, the warm-up's nearest neighbours and the k-median's triangle.  A
    block holds some rows' squared distances to the live columns, all points
    until ``live`` narrows them, clipped at 0.

    With ``store`` set, the M x M matrix is formed once by pairwise_sq_dists
    if it fits _MATRIX_BUDGET, and a block is a copy of its entries.
    Otherwise a block is one GEMM of its rows against the live points,
    finished in place by _expand, so memory is O(B M) for B rows.  Nothing
    of a block is kept once it is returned: a row read again is formed again.

    An inner product can round differently in GEMMs of different shapes, by
    at most n eps |x_i| |x_j| each way, so an entry formed in two block
    shapes differs by at most 2 (n + 2) eps (|x_i|^2 + |x_j|^2), counting
    the rounding of the expansion; ``slack`` holds that allowance per row, 0
    for stored rows.  It is twice what one formation can lie from the exact
    squared distance.  A block formed again from the same rows and columns
    has the same bits, and so has a row formed at the same position of
    another block of the same height (the tests check this of the BLAS in
    use).  At another position or height its last entries may round
    otherwise.

    ``screen`` forms rows formed on demand in float32 first, with a bound
    on how far every float64 entry of them may lie; see there.
    """

    def __init__(self, points: np.ndarray, store: bool = False):
        m, n = points.shape
        self.points = points
        self.norms = _sq_norms(points)
        self.d2 = None
        self.err = None
        if store and m * m * 8 <= _MATRIX_BUDGET:
            self.d2 = pairwise_sq_dists(points)
            self.slack = np.zeros(m)
        else:
            eps = np.finfo(float).eps
            self.slack = 2.0 * (n + 2) * eps * (self.norms + self.norms.max())
        self.live(None)

    @staticmethod
    def gemm_rows(cols: int) -> int:
        """Rows of a block of ``cols`` columns: about _BLOCK_BYTES, and at
        least _MIN_GEMM_ROWS, so each GEMM reads its columns for enough rows."""
        return max(_block_rows(cols), _MIN_GEMM_ROWS)

    def triangle(self) -> list[tuple[int, int]]:
        """The row blocks [lo, hi) of the upper triangle, each screened
        against the columns from lo on: gemm_rows(M - lo) rows each, so
        blocks grow taller as they narrow."""
        m = self.points.shape[0]
        grid, lo = [], 0
        while lo < m:
            hi = min(m, lo + self.gemm_rows(m - lo))
            grid.append((lo, hi))
            lo = hi
        return grid

    @staticmethod
    def check_memory(entries: int, what: str, dtype=np.float64):
        """Refuse ``what``, an array of ``entries`` entries of ``dtype``,
        before it is allocated when it would not fit in physical memory.

        Raises:
            InstanceTooLarge: it would not fit.
        """
        need = entries * np.dtype(dtype).itemsize
        if need > _physical_memory():
            raise InstanceTooLarge(
                f"{what} needs {need} bytes, more than physical memory"
            )

    def live(self, cols: np.ndarray | None):
        """Take the points indexed by ``cols`` (None: all points) as columns.

        Gathered columns are copied as -2 times the points, so a block needs
        no doubling pass.  All points are used as they are, so that a block
        holding every row is numpy's symmetric product, as in
        pairwise_sq_dists.
        """
        self.cols = cols
        self.yt = None
        width = self.points.shape[0] if cols is None else cols.size
        self.step = self.gemm_rows(width)
        if self.d2 is not None:
            return
        if cols is None:
            self.x, self.xx, self.scale = self.points, self.norms, -2.0
        else:
            self.x, self.xx, self.scale = self.points[cols], self.norms[cols], None
            self.x *= -2.0

    def block(self, rows) -> np.ndarray:
        """Squared distances of ``rows`` (indices, or a slice when no columns
        are gathered) to the live columns.

        A block is one GEMM, finished in place by _expand; nothing of it is
        kept.  Stored rows are a copy.
        """
        if self.d2 is not None:
            if self.cols.size == self.d2.shape[1]:
                return self.d2[rows]
            return self.d2[np.ix_(rows, self.cols)]
        g = np.matmul(self.points[rows], self.x.T)
        return _expand(g, self.norms[rows], self.xx, scale=self.scale)

    def screen(
        self, rows, lo: int = 0, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float32 squared distances of ``rows`` to the live columns from the
        lo-th on, written into ``out`` when given, and the rows' bounds err:
        every float64 entry the engine forms between points r and c, in any
        block and with either of them as the row, lies within err[r] of their
        screened entry, whichever of them was screened as the row.

        For rows formed on demand only.  A screened block is one float32
        GEMM, clipped at 0 in place: rows [y_r, |y_r|^2, 1] of y, the points
        less their mean rounded to float32, against the live columns held as
        one contiguous (n + 2)-row operand [-2 y^T; 1; |y|^2 ^T], so each
        entry is finished inside its dot product and no pass adds the norms.
        Rows are rounded as they are screened, so only the column operand is
        stored: O(M n) float32.  With u = 2^-24,
        gamma_m = m u / (1 - m u), |y|^2 the squared norms of y taken in
        float64 and N = |y_r|^2 + |y_c|^2,

            err[r] = 2 gamma_(n+4) (|y_r|^2 + max_j |y_j|^2)
                     + 2^-100 + slack[r] / 2.

        Derivation.  A computed m-term dot product, in any order of
        summation, is sum a_i b_i (1 + theta_i) with |theta_i| <= gamma_m
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.
        2002, section 3.1), and |theta_i| <= gamma_(m-1) for a term whose
        product is exact, as a norm times 1 is: it meets only the m - 1
        additions.  The
        products y_ri (-2 y_ci) sum in absolute value to at most
        2 |y_r| |y_c| <= N.  A float64 norm of a float32 vector (exact
        products, n - 1 float64 additions) lies within n 2^-53 of |y|^2
        relative, for n < 2^21 as a bound that is not void needs, so the two
        norms, rounded to float32, lie within u1 = u + n 2^-53 relative of
        |y_r|^2 and |y_c|^2, and sum to at most (1 + u1) N.  So an entry
        lies within gamma_(n+2) N + gamma_(n+1) (1 + u1) N of the sum of its
        terms, which lies within u1 N of |y_r - y_c|^2, whichever of r and c
        is the row.  The translation cancels in exact arithmetic, and
        rounding a centered coordinate to float64 and then float32 moves it
        by at most u (1 + u) of itself, which moves |y_r - y_c|^2 from the
        exact squared distance by at most 4 u (1 + 5 u) N.  These add up to
        less than 2 gamma_(n+4) N: 2 gamma_(n+4) - gamma_(n+2) - gamma_(n+1)
        >= 5 u (1 + (2 n + 5) u), which exceeds
        u1 (1 + gamma_(n+1)) + 4 u (1 + 5 u) by more than 8 n u^2,
        enough for the float64 rounding of err as well.  Clipping at 0 moves
        no screened entry away from a float64 one, which is at least 0.
        Gradual underflow adds at most 2^-150 to a float32 product or
        conversion, so a few n 2^-150 to an entry, which 2^-100 covers.  A
        float64 entry lies within slack / 2 of the exact squared distance,
        in any block.  When a float32 entry could overflow
        (4 max |y|^2 >= 2^126) or the bound is void ((n + 4) u > 1/8), the
        screen is void: its entries are 0 and err is inf for every row, so
        every row is a candidate.
        """
        if self.screen_void:
            width = self.norms.size if self.cols is None else self.cols.size
            shape = (self.norms[rows].size, width - lo)
            return np.zeros(shape, np.float32), self.err[rows]
        n = self.points.shape[1]
        if self.yt is None:
            cols = np.arange(self.norms.size) if self.cols is None else self.cols
            self.yt = np.empty((n + 2, cols.size), np.float32)
            step = _block_rows(n)
            for c in range(0, cols.size, step):
                self.yt[:n, c : c + step] = self._centered32(cols[c : c + step]).T
            self.yt[:n] *= np.float32(-2.0)
            self.yt[n] = 1.0
            self.yt[n + 1] = self.yy[cols]
        y = self._centered32(rows)
        aug = np.empty((y.shape[0], n + 2), np.float32)
        aug[:, :n] = y
        aug[:, n] = self.yy[rows]
        aug[:, n + 1] = 1.0
        g = np.matmul(aug, self.yt[:, lo:], out=out)
        return np.maximum(g, 0.0, out=g), self.err[rows]

    @property
    def screen_void(self) -> bool:
        """True when the screen is void (see screen): every err is inf."""
        if self.err is None:
            self._screen_bound()
        return self.void

    def _centered32(self, rows) -> np.ndarray:
        """Rows of the screen's copy y: the points less their mean, rounded
        to float64 and then to float32."""
        return (self.points[rows] - self.mean).astype(np.float32)

    def _screen_bound(self):
        """The squared norms of y, in float32 and in float64, and err."""
        m, n = self.points.shape
        self.mean = self.points.mean(axis=0)
        step = _block_rows(n)
        yy = np.empty(m)
        with np.errstate(over="ignore"):
            for lo in range(0, m, step):
                y = self._centered32(slice(lo, lo + step))
                yy[lo : lo + step] = np.einsum("ij,ij->i", y, y, dtype=float)
        u = 2.0**-24
        top = yy.max()
        self.void = (n + 4) * u > 0.125 or not 4.0 * top < 2.0**126
        if self.void:
            self.err = np.full(m, np.inf)
            return
        self.yy = yy.astype(np.float32)
        gamma = (n + 4) * u / (1.0 - (n + 4) * u)
        self.err = 2.0 * gamma * (yy + top) + 2.0**-100 + 0.5 * self.slack


def _dense_ball(
    source: _SqDistRows, alive: np.ndarray, threshold: int, lower: np.ndarray
) -> tuple[int, float, np.ndarray]:
    """Densest ball over the live rows and columns of a squared-distance source.

    A ranked row's threshold-th smallest squared entry over the live columns
    is found by partition, in row blocks of ``source.step`` rows; only those
    order statistics are rooted.  The root is monotone, so they equal the
    order statistics of the rooted rows.

    ``lower[r]`` is a lower bound on row r's order statistic.  Columns only
    leave, so the value a row had at an earlier peel (less the source's
    roundoff slack) stays one.  Rows are ranked in ascending order of their
    bound, and ranking stops at the first block whose rooted bound is
    strictly greater than the best radius found: no row after it can win or
    tie.  Ranked rows get their new value as bound.

    Rows formed on demand are screened first (_SqDistRows.screen): a ranked
    block's float32 order statistics less their err bound every float64
    formation of them, and become the rows' bounds.  Only a block with a
    row whose rooted bound is at most the best radius is formed in float64,
    with the same rows, so at the same height, and partitioned as above.

    Returns (position in ``alive`` of the center, radius alpha, the center's
    squared row over ``alive``), ties in the rooted radius to the lowest
    position.  The row is copied out of the block alpha was taken from.
    """
    source.live(alive)
    order = np.argsort(lower[alive], kind="stable")
    best, best_pos, best_row = math.inf, -1, None
    for lo in range(0, alive.size, source.step):
        pos = order[lo : lo + source.step]
        rows = alive[pos]
        if math.sqrt(lower[rows[0]]) > best:
            break
        if source.d2 is None:
            lower[rows] = _screened_kth(source, rows, threshold)
            if math.sqrt(lower[rows].min()) > best:
                continue
        blk = source.block(rows)
        kth = np.partition(blk, threshold - 1, axis=1)[:, threshold - 1]
        lower[rows] = np.maximum(kth - source.slack[rows], 0.0)
        rooted = np.sqrt(kth)
        ties = np.flatnonzero(rooted == rooted.min())
        j = ties[np.argmin(pos[ties])]
        if rooted[j] < best or (rooted[j] == best and pos[j] < best_pos):
            best, best_pos, best_row = float(rooted[j]), int(pos[j]), blk[j].copy()
    return best_pos, best, best_row


def _screened_kth(
    source: _SqDistRows, rows: np.ndarray, threshold: int
) -> np.ndarray:
    """Lower bounds on the rows' threshold-th smallest float64 entries: their
    screened order statistics less err, clipped at 0.  The float32 block is
    freed on return, before a float64 block of the same rows is formed."""
    screened, err = source.screen(rows)
    screened.partition(threshold - 1, axis=1)
    return np.fmax(screened[:, threshold - 1] - err, 0.0)


def max_variance(points) -> tuple[float, np.ndarray]:
    """Largest directional variance of a point set and its direction.

    The exact top eigenpair of the centered covariance y^T y / m, from a dense
    solve on the smaller side: the n x n covariance when n <= m, otherwise the
    m x m Gram matrix y y^T / m.  Both have the same nonzero spectrum, and a
    Gram eigenvector u maps to the direction y^T u / ||y^T u||.  Only the top
    pair is computed.  When all points coincide the variance is exactly 0 and
    the direction is the first axis.  The product is formed by one symmetric
    rank-k update, so it equals its transpose bit for bit, and its transpose
    view goes to _top_eigenpair, which solves in it without a copy.

    Raises:
        EigenSolverFailed: LAPACK did not converge.
    """
    points, _ = _points_of(points)
    m, n = points.shape
    if _coincident(points, np.arange(m)):
        v = np.zeros(n)
        v[0] = 1.0
        return 0.0, v
    y = points - points.mean(axis=0)
    gram_side = m < n
    g = y @ y.T if gram_side else y.T @ y
    g /= m
    w, v = _top_eigenpair(g.T)
    if gram_side:
        v = y.T @ v
        v /= np.linalg.norm(v)
    return w, v


def _coincident(points: np.ndarray, rows: np.ndarray) -> bool:
    """True when the points indexed by ``rows`` are all equal.

    Their variance is then exactly 0.  Row blocks of about _BLOCK_BYTES are
    compared with the first point, stopping at the first block that holds
    another point, so spread-out points cost one block.
    """
    first = points[rows[0]]
    step = _block_rows(points.shape[1])
    for lo in range(1, rows.size, step):
        if (points[rows[lo : lo + step]] != first).any():
            return False
    return True


def _top_eigenpair(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue and unit eigenvector of the symmetric ``g``.

    ``g`` must be Fortran-contiguous: LAPACK then solves in it, and it is
    overwritten.  scipy would solve a C-ordered ``g`` in a Fortran-ordered
    copy, one more m x m array, and leave ``g`` as it was.  Only the lower
    triangle is read, column by column.

    Raises:
        EigenSolverFailed: LAPACK did not converge.
    """
    # imported on first use, as every scipy module (tests/test_imports.py)
    import scipy.linalg

    d = g.shape[0]
    try:
        w, u = scipy.linalg.eigh(
            g,
            subset_by_index=[d - 1, d - 1],
            driver="evr",
            overwrite_a=True,
            check_finite=False,
        )
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailed(
            f"top eigenpair of a {d} x {d} matrix did not converge: {exc}"
        ) from exc
    return float(w[0]), u[:, 0]


def _gram_from_sq_dists(d2: np.ndarray) -> np.ndarray:
    """Centered Gram matrix y y^T / m of m points from their squared distances.

    Classical double-centering (Gower 1966): -1/2 J D J / m with
    J = I - 11^T / m, in O(m^2) instead of the O(m^2 n) product.  Overwrites
    the C-ordered m x m matrix ``d2``, which must equal its transpose bit for
    bit, and returns its transpose, a Fortran-ordered view for
    _top_eigenpair.  Entry (i, j) of that view is
    ((d2[i, j] - r_i) - r_j + mean(r)) * (-1/2m), r the row means: the
    column means are subtracted from ``d2`` first, and d2[j, i] = d2[i, j].
    """
    m = d2.shape[0]
    r = d2.mean(axis=1)
    d2 -= r[None, :]
    d2 -= r[:, None]
    d2 += r.mean()
    d2 *= -0.5 / m
    return d2.T


def _ball_variance(points: np.ndarray, d2: np.ndarray | None, ball: np.ndarray) -> float:
    """Top covariance eigenvalue of the points indexed by ``ball``.

    ``d2`` holds the squared distances between all rows of ``points``, or is
    None.  A ball of at least as many points as dimensions goes to
    max_variance, which solves the n x n covariance.  A smaller ball's Gram
    matrix is double-centered from its block of ``d2``, or, without ``d2``,
    from its own points' squared distances, formed by the same expansion.
    Either block is C-ordered and equals its transpose bit for bit (the
    expansion adds the norms in either order to a symmetric product), so its
    Gram matrix is solved in place (_gram_from_sq_dists, _top_eigenpair).
    Coincident points give exactly 0 on both sides.
    """
    if ball.size >= points.shape[1]:
        return max_variance(points[ball])[0]
    if _coincident(points, ball):
        return 0.0
    block = pairwise_sq_dists(points[ball]) if d2 is None else d2[np.ix_(ball, ball)]
    return _top_eigenpair(_gram_from_sq_dists(block))[0]


def _gap_steps(sorted_dists: np.ndarray, alpha: float, nu: float) -> int:
    """Least s >= 1 with B(x, alpha + s nu) and B(x, alpha + (s-1) nu) equal.

    ``sorted_dists`` holds the ascending distances from x to the live points.
    Every step that does not end the march admits at least one new point, so
    s <= (points beyond alpha) + 1; nu = 0 gives s = 1.
    """
    prev = int(np.searchsorted(sorted_dists, alpha, side="right"))
    s = 1
    while True:
        cur = int(np.searchsorted(sorted_dists, alpha + s * nu, side="right"))
        if cur == prev:
            return s
        prev = cur
        s += 1


def classify_general(samples, config: ClassifierConfig) -> Partition:
    """Partition a sample from a separated mixture into k clusters by peeling.

    ``samples`` may be a LabeledSampleSet (labels are ignored for the
    partition itself; generation metadata feeds warn-only diagnostics) or a
    plain M x n matrix.

    The points are centered on their mean, which keeps the Gram expansion
    free of cancellation far from the origin.  Each peel reads them through
    squared-distance rows over the live points (see _SqDistRows): rows
    formed on demand in row blocks when the threshold is at least the
    dimension n or the M x M matrix would not fit the memory budget, and
    otherwise rows of that matrix, formed once.  Memory is O(B M) for a
    block of B rows on the first path, and the matrix on the second; an
    M = 10^5 sample needs no 80 GB matrix.

    The dense ball takes ranked rows' threshold-th smallest squared entries
    and roots only those order statistics and the center's row.  A row's
    value at the last peel that ranked it bounds it from below, so ranking
    stops once no unranked row can win; on a separated mixture the peels
    after the first rank a block or two.  beta and beta' of a ball with
    fewer points m than dimensions n come from the ball's m x m Gram matrix,
    double-centered (Gower 1966) from its block of the stored matrix or from
    squared distances formed from its points; a ball with m >= n goes to
    max_variance, which solves the n x n covariance.  A ball of coincident
    points has beta exactly 0 on both sides.  The gap search marches on the
    center's rooted row, the entries alpha was taken from, until a step
    adds no live point, which takes at most one step more than there are
    live points beyond alpha.

    Raises:
        ThresholdTooLarge: a peel finds fewer live points than the threshold.
        ResidualPointsAfterKPeels: points remain after k peels.
        NonFiniteInput: the squared distances could overflow (_sq_norms).
    """
    points, meta = _points_of(samples)
    m_total = points.shape[0]
    threshold = math.ceil(3.0 * config.w_min * m_total / 4.0 - 1e-9)
    if m_total < config.k * threshold:
        raise ValueError(
            f"|S| = {m_total} < k * threshold = {config.k * threshold}; "
            "sample too small for the configured w_min"
        )
    log_term = math.log(m_total / config.delta) + 1.0
    trace = PeelTrace(threshold=threshold, delta=config.delta)
    points = points - points.mean(axis=0)
    # every ball holds at least threshold points, so at a threshold of at
    # least n every ball goes to max_variance and reads no block of a
    # stored matrix
    source = _SqDistRows(points, store=threshold < points.shape[1])
    lower = np.zeros(m_total)
    alive = np.arange(m_total)
    clusters: list[np.ndarray] = []
    for _ in range(config.k):
        if alive.size < threshold:
            raise ThresholdTooLarge(
                f"{alive.size} live points < threshold {threshold} "
                f"after {len(clusters)} peels"
            )
        x_loc, alpha, row = _dense_ball(source, alive, threshold, lower)
        np.sqrt(row, out=row)
        beta = _ball_variance(points, source.d2, alive[row <= alpha])
        nu = math.sqrt(config.w_min * beta / 8.0)
        s = _gap_steps(np.sort(row), alpha, nu)
        r_gap = alpha + s * nu
        beta_prime = _ball_variance(points, source.d2, alive[row <= r_gap])
        removal_radius = r_gap + 3.0 * math.sqrt(beta_prime) * log_term
        # alpha is the root of the threshold-th entry of this very row, and
        # the radius adds only finite nonnegative terms to it (_sq_norms
        # rules out overflow), so at least threshold points are removed
        removed_mask = row <= removal_radius
        removed = alive[removed_mask]
        trace.steps.append(
            PeelStep(
                center_index=int(alive[x_loc]),
                alpha=alpha,
                beta=beta,
                nu=nu,
                s=s,
                beta_prime=beta_prime,
                removal_radius=removal_radius,
                removed=removed,
            )
        )
        clusters.append(removed)
        alive = alive[~removed_mask]
    if alive.size:
        raise ResidualPointsAfterKPeels(
            f"{alive.size} points remain after {config.k} peels"
        )
    if meta is not None:
        _emit_bracket_diagnostics(trace, meta, config)
    return Partition(clusters=clusters, trace=trace)


def _emit_bracket_diagnostics(trace: PeelTrace, meta: LabeledSampleSet, config):
    """Warn when beta / beta' leave their theory brackets (needs true sigmas)."""
    if meta.component_sigmas is None or meta.labels is None:
        return
    for step in trace.steps:
        lbls = meta.labels[step.removed]
        comp = int(np.bincount(lbls).argmax())
        s2 = float(meta.component_sigmas[comp]) ** 2
        lo, hi = config.w_min**2 * s2 / 8.0, 4.0 * s2 / config.w_min
        if not (lo <= step.beta <= hi):
            warnings.warn(
                f"beta={step.beta:.4g} outside [{lo:.4g}, {hi:.4g}] for component "
                f"{comp}; sample size is likely below the guarantee scale",
                DiagnosticWarning,
            )
        if not (0.16 * s2 <= step.beta_prime <= 2.5 * s2):
            warnings.warn(
                f"beta'={step.beta_prime:.4g} outside [{0.16 * s2:.4g}, "
                f"{2.5 * s2:.4g}] for component {comp}",
                DiagnosticWarning,
            )


def classify_spherical(samples, k: int, t: float) -> Partition:
    """Warm-up partition for spherical mixtures via closest-pair balls.

    Repeats k times on the remaining set T: find the closest pair (x0, y0)
    (ties to the lexicographically first index pair), then remove
    T ∩ B(x0, |x0 - y0| * (1 + 3 t / sqrt(n))).

    No M x M matrix is stored.  Every float64 row is formed in its aligned
    block of B rows, [b B, (b + 1) B), one GEMM against all points (see
    _SqDistRows).  A GEMM may round an entry differently at another shape
    (a 1-row product goes to GEMV), so a row has the same value whenever it
    is formed, the center's row included.  Memory is O(B M).

    One float32 pass (_SqDistRows.screen) first bounds each row's nearest
    squared distance from below.  Each live row holds its nearest live
    neighbour and that squared distance once resolved, and a lower bound on
    it until then; a resolved row whose neighbour is removed keeps its old
    distance as its bound.  Each peel resolves rows in ascending order of
    their bound, a whole aligned block at a time, and stops at the first
    row whose rooted bound exceeds the least rooted distance found (see
    _closest_live).  The pair is ranked on rooted distances: with r the
    square root of the least live neighbour distance, the pair is the
    lowest live index whose rooted neighbour distance equals r and that
    neighbour, so squared distances that round to the same root tie as they
    would on a rooted matrix.  x0 is the pair's lower index: the two blocks
    holding a pair's entries may round them differently, and the lower
    index wins either way.  The removal ball tests rooted entries of x0's
    row, its own (clipped roundoff) entry included; the row is read from
    x0's aligned block, formed again.

    Raises:
        ValueError: k is not an integer >= 1, or t is not a positive, finite
            number.
        EmptyPeel: no points are left for a peel.
        ResidualPointsAfterKPeels: points remain after k peels.
        NonFiniteInput: the squared distances could overflow (_sq_norms).
    """
    points, meta = _points_of(samples)
    if not (0 < _real(t, "t") < math.inf):
        raise ValueError(f"t must be positive and finite, got {t}")
    k = _int_at_least(k, 1, "k")
    m_total, n = points.shape
    if meta is not None and meta.ambient_dim is not None:
        n = meta.ambient_dim
    factor = 1.0 + 3.0 * t / math.sqrt(n)
    source = _SqDistRows(points)
    nn = np.zeros(m_total, dtype=int)
    nd = _screened_nearest(source)
    exact = np.zeros(m_total, dtype=bool)
    live = np.ones(m_total, dtype=bool)
    alive = np.arange(m_total)
    clusters: list[np.ndarray] = []
    for _ in range(k):
        if alive.size == 0:
            raise EmptyPeel("no points left to peel")
        if alive.size == 1:
            clusters.append(alive.copy())
            alive = alive[:0]
            continue
        i = _closest_live(source, alive, live, nn, nd, exact)
        center = min(i, int(nn[i]))
        radius = math.sqrt(nd[i]) * factor
        lo, blk = _aligned_block(source, center)
        removed_mask = np.sqrt(blk[center - lo, alive]) <= radius
        removed = alive[removed_mask]
        clusters.append(removed)
        live[removed] = False
        alive = alive[~removed_mask]
        exact[alive[~live[nn[alive]]]] = False
    if alive.size:
        raise ResidualPointsAfterKPeels(
            f"{alive.size} points remain after {k} peels"
        )
    return Partition(clusters=clusters)


def _aligned_block(source: _SqDistRows, r: int) -> tuple[int, np.ndarray]:
    """(lo, the block of rows [lo, lo + B)) holding row r, lo = r - r mod B
    for B = ``source.step``: a row is always formed in the same block, so it
    has the same bits whenever it is formed."""
    lo = r - r % source.step
    return lo, source.block(slice(lo, lo + source.step))


def _screened_nearest(source: _SqDistRows) -> np.ndarray:
    """Lower bounds on each row's least squared distance to another point,
    from one screened pass over the upper triangle (_SqDistRows.triangle):
    an entry bounds both of its points."""
    m = source.points.shape[0]
    least = np.full(m, np.inf, np.float32)
    err = np.empty(m)
    for lo, hi in source.triangle():
        screened, err[lo:hi] = source.screen(slice(lo, hi), lo)
        screened[np.arange(hi - lo), np.arange(hi - lo)] = np.inf
        np.minimum(least[lo:hi], screened.min(axis=1), out=least[lo:hi])
        np.minimum(least[lo:], screened.min(axis=0), out=least[lo:])
    return np.fmax(least - err, 0.0)


def _closest_live(source: _SqDistRows, alive, live, nn, nd, exact):
    """The lowest live row whose rooted nearest-live distance is least.

    nd[r] is row r's squared distance to its nearest live neighbour nn[r]
    where exact[r], and a lower bound on it elsewhere.  Rows are taken in
    ascending order of nd; a row not yet exact has its aligned block formed,
    which resolves every live row of the block that is not.  The search
    stops at the first row whose rooted bound exceeds the least rooted
    distance found: neither it nor any row after it can win or tie.
    """
    order = alive[np.argsort(nd[alive], kind="stable")]
    keys = np.sqrt(nd[order])
    dead = np.flatnonzero(~live)
    best, best_r = math.inf, -1
    for r, key in zip(order, keys):
        if key > best:
            break
        if not exact[r]:
            _resolve_block(source, r, live, dead, nn, nd, exact)
        d = math.sqrt(nd[r])
        if d < best or (d == best and r < best_r):
            best, best_r = d, r
    return int(best_r)


def _resolve_block(source: _SqDistRows, r: int, live, dead, nn, nd, exact):
    """Form row r's aligned block and set nn, nd of each live row in it not
    yet exact to its nearest live column other than itself (ties to the
    lowest column) and that squared distance."""
    lo, blk = _aligned_block(source, r)
    hi = lo + blk.shape[0]
    rows = lo + np.flatnonzero(live[lo:hi] & ~exact[lo:hi])
    blk[rows - lo, rows] = np.inf
    blk[:, dead] = np.inf
    near = np.argmin(blk, axis=1)[rows - lo]
    nn[rows] = near
    nd[rows] = blk[rows - lo, near]
    exact[rows] = True
