"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them after the run, outside pytest's output capture, provides the
malformed point sets every point-taking entry point must reject, and the
k-median cost oracle."""

import numpy as np
import pytest

from sepmix.classify import pairwise_sq_dists
from sepmix.errors import DimensionMismatch, NonFiniteInput

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def _with_nan():
    pts = np.random.default_rng(31).normal(size=(20, 2))
    pts[5, 1] = np.nan
    return pts


_BAD_POINTS = {
    "1-D": (lambda: np.arange(20.0), DimensionMismatch),
    "no-rows": (lambda: np.zeros((0, 2)), DimensionMismatch),
    "nan": (_with_nan, NonFiniteInput),
}


@pytest.fixture(params=sorted(_BAD_POINTS))
def bad_points(request):
    """(points, the SepmixError the boundary check must raise for them)."""
    make, error = _BAD_POINTS[request.param]
    return make(), error


def kmedian_cost(points, centers) -> float:
    """Sum over points of the squared distance to the nearest center.

    Nearest centers are found with the Gram expansion on points and centers
    moved by the points' mean, so a far offset (1e6) costs the expansion no
    digits; the returned value is then recomputed from explicit differences,
    so a point sitting exactly on a center contributes exactly zero.
    """
    points = np.asarray(points, dtype=float)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    mean = points.mean(axis=0)
    nearest = np.argmin(pairwise_sq_dists(points - mean, centers - mean), axis=1)
    diff = points - centers[nearest]
    return float(np.einsum("ij,ij->", diff, diff))
