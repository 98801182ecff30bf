"""Acceptance gate: thirteen end-to-end criteria, one verdict line each.

Every criterion pins its seeds and tolerances; reruns are deterministic.
The whole module takes several minutes, dominated by the two 100-trial
classification sweeps (criteria 1 and 2).
"""

import math
import time

import numpy as np
import pytest

import conftest
from conftest import kmedian_cost, sq_dists
from sepmix.classify import ClassifierConfig, classify_general, classify_spherical
from sepmix.concentration import covariance_concentration_check
from sepmix.experiment import (
    ExperimentConfig,
    run_experiment,
    run_validation_suite,
)
from sepmix.kmedian import (
    KMedianSolution,
    kmedian_exhaustive,
    kmedian_local_search,
    sigma_hat,
)
from sepmix.model import (
    Mixture,
    make_gaussian,
    median_radius,
    sample_concentric_spherical_embedded,
    sample_mixture,
    spherical_median_radius,
)
from sepmix.scoring import partition_compare
from sepmix.separation import SeparationConfig, pair_margin

pytestmark = pytest.mark.filterwarnings(
    "ignore::sepmix.errors.SampleBalanceWarning",
    "ignore::sepmix.errors.DiagnosticWarning",
)


def _record(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 1 + its half of criterion 13: general classifier on planted
# mixtures, run twice for the byte-identity check
# ---------------------------------------------------------------------------

CRIT1_DOC = {
    "scenario": "classify_general",
    "trials": 100,
    "master_seed": 20260813,
    "sample_size": 3000,
    "source": {
        "kind": "plant",
        "n": 16,
        "k": 3,
        "shapes": [1.0, 2.0],
        "t": 10.0,
        "mode": "practical",
        "slack": 1.5,
    },
    "classifier": {"k": 3, "w_min": 1.0 / 3.0, "delta": 0.05, "t": 10.0},
}

CRIT11_DOC = {
    "scenario": "fit",
    "trials": 100,
    "master_seed": 271828,
    "sample_size": 400,
    "source": {
        "kind": "plant",
        "n": 4,
        "k": 2,
        "shapes": [1.0, 1.0],
        "t": 10.0,
        "mode": "practical",
        "slack": 2.0,
    },
    "fit": {"k": 2},
}


def _run_twice(doc, tmp_path_factory, tag):
    dirs = [tmp_path_factory.mktemp(f"{tag}_{i}") for i in range(2)]
    results = [
        run_experiment(ExperimentConfig.from_dict({**doc, "out_dir": str(d)}))
        for d in dirs
    ]
    return results, dirs


@pytest.fixture(scope="module")
def crit1_runs(tmp_path_factory):
    return _run_twice(CRIT1_DOC, tmp_path_factory, "crit1")


@pytest.fixture(scope="module")
def crit11_runs(tmp_path_factory):
    return _run_twice(CRIT11_DOC, tmp_path_factory, "crit11")


def test_criterion_01_general_classifier(crit1_runs):
    results, _ = crit1_runs
    res = results[0]
    exact = res.exact_match_count
    slowest = max(r.wall_time_s for r in res.reports)
    _record(
        1,
        exact >= 95 and slowest < 30.0 and res.error_count == 0,
        f"planted n=16 k=3: {exact}/100 exact, slowest trial {slowest:.2f} s",
    )


# ---------------------------------------------------------------------------
# criterion 2: concentric spherical pair
# ---------------------------------------------------------------------------

AMBIENT = 40_000_000  # large enough that |R_j^2 - R_i^2| swallows the paper-mode RHS


def test_criterion_02_concentric_pair():
    r_small = spherical_median_radius(1.0, AMBIENT)
    r_big = spherical_median_radius(10.0, AMBIENT)
    margin = pair_margin(
        r_small, 1.0, r_big, 10.0, 0.0, SeparationConfig(t=10.0, mode="paper")
    )
    assert margin > 0, "concentric pair must satisfy the paper-mode bound"

    config = ExperimentConfig.from_dict(
        {
            "scenario": "classify_general",
            "trials": 100,
            "master_seed": 20260813,
            "sample_size": 2000,
            "source": {
                "kind": "concentric_spherical",
                "sigmas": [1.0, 10.0],
                "ambient_dim": AMBIENT,
            },
            "classifier": {"k": 2, "w_min": 0.5, "delta": 0.05, "t": 10.0},
        }
    )
    res = run_experiment(config)
    exact = res.exact_match_count

    # the first peel must take the smaller-radius component
    samples = sample_concentric_spherical_embedded(
        [1.0, 10.0], [0.5, 0.5], AMBIENT, np.random.default_rng(9), 2000, seed=9
    )
    part = classify_general(samples, ClassifierConfig(k=2, w_min=0.5, delta=0.05))
    match = partition_compare(part, samples.labels)
    first_small = bool(match.exact_match and match.mapping[0] == 0)

    _record(
        2,
        exact >= 95 and first_small,
        f"concentric sigmas (1,10): {exact}/100 exact, margin {margin:.3g}, "
        f"first peel = small component: {first_small}",
    )


# ---------------------------------------------------------------------------
# criterion 3: spherical warm-up classifier
# ---------------------------------------------------------------------------


def test_criterion_03_spherical_warmup():
    n, k, t, c_prime, size = 64, 4, 5.0, 12.0, 4000
    radius = spherical_median_radius(1.0, n)
    rhs = 2.0 * radius**2 + c_prime * t * (2.0 * radius) ** 2 / math.sqrt(n)
    # center distance: shift the cross-pair distance mean above rhs with an
    # 8.5-sigma pad so the sample-level bound holds in essentially every trial
    dsq = rhs - 2.0 * n
    for _ in range(8):
        dsq = rhs - 2.0 * n + 8.5 * math.sqrt(8.0 * (n + dsq + 2.0 * n))
    d = math.sqrt(dsq)

    centers = np.zeros((k, n))
    for j in range(k):
        centers[j, j] = d / math.sqrt(2.0)  # regular simplex, pairwise d
    comps = [make_gaussian(c, np.ones(n)) for c in centers]
    for comp in comps:
        comp.median_radius = radius
    mix = Mixture(components=comps, weights=np.full(k, 1.0 / k))

    exact = separated = 0
    for i in range(100):
        seed = 606 ^ i
        rng = np.random.default_rng(seed)
        s = sample_mixture(mix, rng, size, seed=seed)
        # the least cross-component squared distance, label pair by label pair
        groups = [s.points[s.labels == a] for a in range(k)]
        least = min(
            sq_dists(groups[a], groups[b]).min()
            for a in range(k)
            for b in range(a + 1, k)
        )
        separated += int(least >= rhs)
        part = classify_spherical(s, k=k, t=t)
        exact += int(partition_compare(part, s.labels).exact_match)
    _record(
        3,
        exact >= 95 and separated >= 95,
        f"n=64 k=4 d={d:.2f}: {exact}/100 exact, "
        f"sample-level bound held in {separated}/100",
    )


# ---------------------------------------------------------------------------
# criteria 4-8: Monte Carlo concentration suites
# ---------------------------------------------------------------------------


def _suite_excess(report):
    return min(r["observed"] - r["claimed"] for r in report["rows"])


def test_criterion_04_shell_mass():
    rep = run_validation_suite("lemma5", {}, np.random.default_rng(413))
    _record(
        4,
        rep["all_pass"] and len(rep["rows"]) == 12,
        f"shell mass, 12 cells at 1e5 draws: worst excess {_suite_excess(rep):.4f}",
    )


def test_criterion_05_pair_distance():
    rep = run_validation_suite("lemma7", {}, np.random.default_rng(415))
    _record(
        5,
        rep["all_pass"] and len(rep["rows"]) == 12,
        f"pair distance, 12 cells at 1e5 pairs: worst excess {_suite_excess(rep):.4f}",
    )


def test_criterion_06_cross_pair():
    rep = run_validation_suite("lemma8", {}, np.random.default_rng(417))
    _record(
        6,
        rep["all_pass"] and len(rep["rows"]) == 4,
        f"cross pairs on planted pairs, 4 cells at 1e5: "
        f"worst excess {_suite_excess(rep):.4f}",
    )


def test_criterion_07_growth_rates():
    rep = run_validation_suite("corollary4", {}, np.random.default_rng(419))
    row = rep["rows"][0]
    _record(
        7,
        rep["all_pass"] and row["grid_points"] == 40,
        f"ball growth n=8, 40-point grid, 1e6 draws: "
        f"{row['low_intervals']} low / {row['high_intervals']} high intervals, "
        f"bound {row['bound']:.4f}",
    )


def test_criterion_08_covariance():
    rep = run_validation_suite(
        "lemma12",
        {"repeats": 100, "dims": [2, 8], "sample_size": 100_000, "delta": 0.1},
        np.random.default_rng(421),
    )
    passes = {r["n"]: r["passes"] for r in rep["rows"]}
    check = covariance_concentration_check(
        make_gaussian(np.zeros(2), np.ones(2)),
        1_000_000,
        0.1,
        16,
        np.random.default_rng(423),
    )
    eps_ok = abs(check.epsilon - 0.094) <= 0.001
    _record(
        8,
        rep["all_pass"] and eps_ok,
        f"repeats passed n=2: {passes[2]}/100, n=8: {passes[8]}/100; "
        f"epsilon(n=2, 1e6) = {check.epsilon:.5f}",
    )


# ---------------------------------------------------------------------------
# criteria 9-11: k-median fitting
# ---------------------------------------------------------------------------


def test_criterion_09_sigma_hat_exactness():
    worst = 0.0

    def rel_err(points, centers, assignment, want_sq):
        points = np.asarray(points, dtype=float)
        centers = np.asarray(centers, dtype=float)
        sol = KMedianSolution(
            center_indices=np.arange(centers.shape[0]),
            centers=centers,
            assignment=np.asarray(assignment),
            objective=kmedian_cost(points, centers),
        )
        got = sigma_hat(points, sol) ** 2
        if want_sq == 0.0:
            return abs(got)
        return abs(got - want_sq) / want_sq

    d = 0.77
    worst = max(worst, rel_err([[0.0]], [[d]], [0], 2.0 * d * d))
    worst = max(worst, rel_err([[1.0, 2.0], [3.0, 4.0]],
                               [[1.0, 2.0], [3.0, 4.0]], [0, 1], 0.0))
    worst = max(worst, rel_err([[0.0, 0.0], [3.0, 4.0]],
                               [[1.0, 0.0], [3.0, 3.0]], [0, 1], 1.0))
    hand_ok = worst <= 1e-12

    rng = np.random.default_rng(427)
    worst_id = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        points = rng.normal(size=(m, n))
        sol = kmedian_local_search(points, k, rng)
        sig = sigma_hat(points, sol)
        quad = kmedian_cost(points, sol.centers) / (2.0 * sig * sig)
        worst_id = max(worst_id, abs(quad - m * n / 4.0) / (m * n / 4.0))
    _record(
        9,
        hand_ok and worst_id <= 1e-9,
        f"hand instances worst err {worst:.2e}; "
        f"quadratic identity worst rel err {worst_id:.2e} over 50 instances",
    )


def test_criterion_10_oracle_sandwich():
    rng = np.random.default_rng(431)
    equal = 0
    slowest = 0.0
    ok = True
    for _ in range(50):
        m = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        points = rng.normal(size=(m, n))
        local = kmedian_local_search(points, k, rng)
        start = time.perf_counter()
        exact = kmedian_exhaustive(points, k)
        slowest = max(slowest, time.perf_counter() - start)
        tol = 1e-9 * max(1.0, exact.objective)
        ok &= exact.objective <= local.objective + tol
        ok &= local.objective <= 10.0 * exact.objective + tol
        equal += int(abs(local.objective - exact.objective) <= tol)
    _record(
        10,
        ok and equal >= 40 and slowest < 1.0,
        f"sandwich held on 50/50, equality in {equal}/50, "
        f"slowest exhaustive {slowest * 1000:.1f} ms",
    )


def test_criterion_11_planted_fit(crit11_runs):
    results, _ = crit11_runs
    res = results[0]
    good = 0
    for rep in res.reports:
        w = rep.extras["weights"]
        good += int(
            rep.objective <= 2.0 * rep.extras["planted_objective"]
            and abs(w[0] - 0.5) <= 0.05
            and abs(w[1] - 0.5) <= 0.05
        )
    _record(
        11,
        good >= 95 and res.error_count == 0,
        f"planted 2-component fit: {good}/100 within objective and weight bounds",
    )


# ---------------------------------------------------------------------------
# criteria 12-13: calibration and determinism
# ---------------------------------------------------------------------------


def test_criterion_12_median_radius_calibration():
    r1, _ = median_radius(
        make_gaussian([0.0], [1.0]),
        np.random.default_rng(433),
        num_samples=1_000_000,
        method="mc",
    )
    closed, _ = median_radius(make_gaussian(np.zeros(4), np.ones(4)), method="auto")
    r4, _ = median_radius(
        make_gaussian(np.zeros(4), np.ones(4)),
        np.random.default_rng(434),
        num_samples=1_000_000,
        method="mc",
    )
    _record(
        12,
        abs(r1 - 0.67449) <= 0.005
        and abs(closed - 1.8320) <= 0.005
        and abs(r4 - closed) <= 0.005,
        f"n=1 MC {r1:.5f} (target 0.67449), n=4 closed {closed:.5f} "
        f"vs MC {r4:.5f} (target 1.8320)",
    )


def test_criterion_13_byte_identical_reruns(crit1_runs, crit11_runs):
    _, dirs1 = crit1_runs
    _, dirs11 = crit11_runs
    same1 = (dirs1[0] / "summary.csv").read_bytes() == (
        dirs1[1] / "summary.csv"
    ).read_bytes()
    same11 = (dirs11[0] / "summary.csv").read_bytes() == (
        dirs11[1] / "summary.csv"
    ).read_bytes()
    _record(
        13,
        same1 and same11,
        f"summary.csv byte-identical on rerun: "
        f"criterion 1 config {same1}, criterion 11 config {same11}",
    )
