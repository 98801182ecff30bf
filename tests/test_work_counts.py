"""Work counts of the float32 screen, pinned as exact budgets.

Timings on a shared machine move by more than a perf change is worth; counts
of work do not.  Each workload runs once, at fixed seeds, in a fresh
interpreter with one BLAS thread, so its float32 GEMMs round the same way on
every run.  The counts come from wrapping the row engine and the k-median
search, as the other counting tests do:

- float64 blocks and rows formed (_SqDistRows.block);
- screened swap rounds (kmedian._swap_costs);
- rounds that price swaps in float64 (kmedian._price_exactly).

The screen only decides which float64 rows get formed, so a change to its
rounding that keeps every bound certified keeps these counts.  A count that
rises means the screen or a bound prunes less; one that falls, that it
prunes more, which a change must explain.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import json, math
    import numpy as np
    import sepmix.kmedian as km
    from sepmix.classify import (
        ClassifierConfig, _SqDistRows, classify_general, classify_spherical,
    )
    from sepmix.model import (
        Mixture, make_gaussian, sample_mixture, spherical_median_radius,
    )
    from sepmix.separation import SeparationConfig, plant_separated_mixture

    counts, stage = {}, [None]
    block, swap_costs, price = _SqDistRows.block, km._swap_costs, km._price_exactly

    def count(key, n=1):
        counts[stage[0]][key] += n

    def count_block(self, rows):
        out = block(self, rows)
        count("blocks")
        count("rows", out.shape[0])
        return out

    def count_round(*args):
        count("screened_rounds")
        return swap_costs(*args)

    def count_pricing(*args):
        count("exact_rounds")
        return price(*args)

    _SqDistRows.block = count_block
    km._swap_costs = count_round
    km._price_exactly = count_pricing

    def begin(name):
        stage[0] = name
        counts[name] = dict(blocks=0, rows=0, screened_rounds=0, exact_rounds=0)

    # planted n=16 k=3 M=3000, with planted_cli's mixture parameters
    mix = plant_separated_mixture(
        n=16, k=3, shape_spec=(1.0, 2.0),
        config=SeparationConfig(t=10.0, mode="practical"), slack=1.5,
        rng=np.random.default_rng(20),
    )
    samples = sample_mixture(mix, np.random.default_rng(21), 3000, seed=21)
    begin("planted")
    classify_general(samples, ClassifierConfig(k=3, w_min=1.0 / 3.0))

    # the criterion-3 mixture: n=64 k=4 M=4000, regular simplex
    n, k, t = 64, 4, 5.0
    radius = spherical_median_radius(1.0, n)
    rhs = 2.0 * radius**2 + 12.0 * t * (2.0 * radius) ** 2 / math.sqrt(n)
    dsq = rhs - 2.0 * n
    for _ in range(8):
        dsq = rhs - 2.0 * n + 8.5 * math.sqrt(8.0 * (n + dsq + 2.0 * n))
    centers = np.zeros((k, n))
    centers[np.arange(k), np.arange(k)] = math.sqrt(dsq) / math.sqrt(2.0)
    comps = [make_gaussian(c, np.ones(n)) for c in centers]
    for comp in comps:
        comp.median_radius = radius
    mix = Mixture(components=comps, weights=np.full(k, 1.0 / k))
    samples = sample_mixture(mix, np.random.default_rng(606), 4000, seed=606)
    begin("warm_up")
    classify_spherical(samples, k=k, t=t)
    begin("fit")
    km.fit_spherical_mixture(samples.points, k, np.random.default_rng(1))
    print(json.dumps(counts))
    """
)

# exact, not bounded: with fixed seeds and one BLAS thread each count repeats
BUDGETS = {
    "planted": dict(blocks=8, rows=143, screened_rounds=0, exact_rounds=0),
    "warm_up": dict(blocks=12, rows=192, screened_rounds=0, exact_rounds=0),
    "fit": dict(blocks=13, rows=208, screened_rounds=5, exact_rounds=4),
}


@pytest.fixture(scope="module")
def counts():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_screen_work_counts_match_their_budgets(counts, workload):
    assert counts[workload] == BUDGETS[workload]
