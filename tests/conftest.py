"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them after the run, outside pytest's output capture, and provides the
malformed point sets every point-taking entry point must reject."""

import numpy as np
import pytest

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
