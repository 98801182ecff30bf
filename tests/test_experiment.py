import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from sepmix import experiment
from sepmix.classify import Partition
from sepmix.errors import IndexMismatch, SampleBalanceWarning
from sepmix.experiment import (
    ExperimentConfig,
    run_experiment,
    run_validation_suite,
    summary_rows,
    guarantee_sample_floor,
)
from sepmix.io import save_params, save_samples
from sepmix.model import Mixture, make_gaussian, sample_mixture, spherical_median_radius
from sepmix.separation import SeparationConfig, plant_separated_mixture
from sepmix.scoring import _max_assignment, partition_compare


def _part(*clusters):
    return Partition(clusters=[np.asarray(c, dtype=int) for c in clusters])


# ---------------------------------------------------------------------------
# partition_compare
# ---------------------------------------------------------------------------


def test_compare_identity():
    truth = np.array([0, 0, 1, 1, 2])
    match = partition_compare(_part([0, 1], [2, 3], [4]), truth)
    assert match.exact_match
    assert match.agreement == 5


def test_compare_relabeled_clusters():
    truth = np.array([0, 0, 1, 1, 2])
    # same sets, shuffled cluster identities
    match = partition_compare(_part([4], [0, 1], [2, 3]), truth)
    assert match.exact_match
    assert match.mapping.tolist() == [2, 0, 1]


def test_compare_one_moved_point():
    truth = np.array([0, 0, 0, 1, 1, 1])
    match = partition_compare(_part([0, 1, 2, 3], [4, 5]), truth)
    assert not match.exact_match
    assert match.agreement == 5
    off_diagonal = match.confusion.sum() - np.trace(match.confusion)
    assert off_diagonal == 1


def test_compare_recovers_random_shuffle():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 3, size=60)
    perm = np.array([2, 0, 1])
    clusters = [np.flatnonzero(perm[truth] == c) for c in range(3)]
    match = partition_compare(Partition(clusters=clusters), truth)
    assert match.exact_match
    # mapping sends predicted id -> true label it was built from
    assert match.mapping.tolist() == [1, 2, 0]


def test_compare_counts_mismatch():
    truth = np.array([0, 1, 1])
    with pytest.raises(IndexMismatch):
        partition_compare(_part([0, 1]), truth)  # index 2 missing


def test_compare_duplicate_indices_rejected():
    truth = np.array([0, 1])
    with pytest.raises(IndexMismatch):
        partition_compare(_part([0, 1], [1]), truth)


def test_compare_more_predicted_than_true_clusters():
    truth = np.array([0, 0, 0, 0])
    match = partition_compare(_part([0, 1], [2], [3]), truth)
    assert not match.exact_match
    assert match.agreement == 2
    assert match.confusion.shape == (3, 3)


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, 1, -1], "label 2 is -1"),
        ([0, 0.5, 1], "label 1 is 0.5"),
        ([0, 1, np.nan], "label 2 is nan"),
        ([[0, 1, 1]], "must be 1-D"),
    ],
    ids=["negative", "fractional", "nan", "2-d"],
)
def test_compare_refuses_bad_labels(labels, message):
    # each used to fail inside numpy or be truncated and scored
    with pytest.raises(IndexMismatch, match=message):
        partition_compare(_part([0, 1], [2]), labels)


def test_compare_accepts_integral_float_labels():
    match = partition_compare(_part([0, 1], [2]), [1.0, 1.0, 0.0])
    assert match.exact_match
    assert match.mapping.tolist() == [1, 0]


@st.composite
def _count_matrices(draw):
    """Square count matrices, k = 0..8, with small entries (many ties) and
    some all-zero rows and columns."""
    k = draw(st.integers(0, 8))
    high = draw(st.sampled_from([1, 2, 3, 50]))
    flat = draw(st.lists(st.integers(0, high), min_size=k * k, max_size=k * k))
    counts = np.array(flat, dtype=int).reshape(k, k)
    if k:
        counts[draw(st.lists(st.integers(0, k - 1), max_size=2)), :] = 0
        counts[:, draw(st.lists(st.integers(0, k - 1), max_size=2))] = 0
    return counts


@settings(max_examples=400, deadline=None)
@given(_count_matrices())
@example(np.ones((3, 3), dtype=int))
@example(np.zeros((4, 4), dtype=int))
@example(np.array([[2, 2, 0], [2, 2, 0], [0, 1, 1]]))
def test_max_assignment_matches_scipy_tie_for_tie(counts):
    # the assignment fixes the confusion and mapping bytes trials record
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(counts, maximize=True)
    assert rows.tolist() == list(range(counts.shape[0]))
    assert _max_assignment(counts).tolist() == cols.tolist()


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------


def _plant_config(**overrides):
    doc = {
        "scenario": "classify_general",
        "trials": 3,
        "master_seed": 7,
        "sample_size": 600,
        "source": {
            "kind": "plant",
            "n": 8,
            "k": 2,
            "shapes": [1.0, 1.0],
            "t": 10.0,
            "mode": "practical",
            "slack": 1.5,
        },
        "classifier": {"k": 2, "w_min": 0.5, "delta": 0.05, "t": 10.0},
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def test_run_experiment_planted_exact():
    result = run_experiment(_plant_config(trials=2))
    assert len(result.reports) == 2
    assert result.exact_match_count == 2
    assert result.error_count == 0
    for i, rep in enumerate(result.reports):
        assert rep.trial == i
        assert rep.seed == 7 ^ i
        assert rep.exact_match
        assert rep.extras["peels"]


def test_run_experiment_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(_plant_config(out_dir=str(a)))
    run_experiment(_plant_config(out_dir=str(b)))
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_source_radius_samples_is_ignored(tmp_path):
    # configs written for Monte Carlo or precomputed radii still load; each
    # key changes nothing, not even at a size the Monte Carlo path would
    # have refused
    plain = tmp_path / "plain"
    run_experiment(_plant_config(trials=1, out_dir=str(plain)))
    for key, value in (("radius_samples", 5), ("estimate_radii", True)):
        sized = tmp_path / key
        doc = _plant_config().source | {key: value}
        run_experiment(_plant_config(trials=1, source=doc, out_dir=str(sized)))
        for name in sorted(p.name for p in plain.iterdir()):
            assert (plain / name).read_bytes() == (sized / name).read_bytes()


def _planted_files(tmp_path):
    """A planted mixture, its parameter file, and a labeled sample file."""
    mixture = plant_separated_mixture(
        n=8, k=2, shape_spec=(1.0, 2.0),
        config=SeparationConfig(t=10.0, mode="practical"),
        slack=1.5, rng=np.random.default_rng(3),
    )
    params, samples = tmp_path / "params.json", tmp_path / "samples.csv"
    save_params(params, mixture)
    with warnings.catch_warnings():  # the 400 draws split 176 / 224
        warnings.simplefilter("ignore", SampleBalanceWarning)
        drawn = sample_mixture(mixture, np.random.default_rng(4), 400, seed=4)
    save_samples(samples, drawn.points, drawn.labels)
    return mixture, params, samples


def test_params_source_matches_the_same_mixture(tmp_path):
    mixture, params, _ = _planted_files(tmp_path)
    written = {}
    for kind, source in (
        ("mixture", {"kind": "mixture", "object": mixture}),
        ("params", {"kind": "params", "path": str(params)}),
    ):
        out = tmp_path / kind
        run_experiment(_plant_config(source=source, out_dir=str(out)))
        written[kind] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "sample_floor" in json.loads(written["params"]["metadata.json"])
    assert written["params"] == written["mixture"]


def test_samples_source_classifies_its_file(tmp_path):
    _, _, samples = _planted_files(tmp_path)
    config = _plant_config(trials=2, source={"kind": "samples", "path": str(samples)})
    result = run_experiment(config)
    assert result.error_count == 0
    assert result.exact_match_count == 2


@pytest.mark.parametrize(
    "kind, reader", [("params", "load_params"), ("samples", "load_samples")]
)
def test_file_source_is_read_once(tmp_path, monkeypatch, kind, reader):
    _, params, samples = _planted_files(tmp_path)
    path = str(params if kind == "params" else samples)
    calls = []
    read = getattr(experiment, reader)

    def counted(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(experiment, reader, counted)
    config = _plant_config(trials=3, source={"kind": kind, "path": path})
    result = run_experiment(config)
    assert len(result.reports) == 3 and result.error_count == 0
    assert calls == [path]


def test_summary_csv_shape(tmp_path):
    out = tmp_path / "runs"
    run_experiment(_plant_config(out_dir=str(out)))
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "trial,seed,exact_match,objective,time_ms,error"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "true"
        assert fields[4] == "0"  # timing suppressed by default for determinism


def test_record_timing_opt_in(tmp_path):
    out = tmp_path / "runs"
    run_experiment(_plant_config(trials=1, record_timing=True, out_dir=str(out)))
    line = (out / "summary.csv").read_text().splitlines()[1]
    assert float(line.split(",")[4]) > 0.0


def test_errors_recorded_without_aborting():
    # an unseparated two-blob source cannot be classified; every trial must
    # finish with an error string instead of raising
    g1 = make_gaussian(np.zeros(4), np.ones(4))
    g2 = make_gaussian(np.full(4, 2.0), np.ones(4))
    for g in (g1, g2):
        g.median_radius = spherical_median_radius(1.0, 4)
    mix = Mixture(components=[g1, g2], weights=np.array([0.5, 0.5]))
    config = ExperimentConfig.from_dict(
        {
            "scenario": "classify_general",
            "trials": 3,
            "master_seed": 1,
            "sample_size": 400,
            "source": {"kind": "mixture", "object": mix},
            "classifier": {"k": 2, "w_min": 0.5, "t": 10.0, "step_cap": 500},
        }
    )
    result = run_experiment(config)
    assert len(result.reports) == 3
    assert result.error_count == 3
    for rep in result.reports:
        assert rep.exact_match is None
        assert ":" in rep.error


def test_non_integral_k_fails_when_the_config_is_made():
    # "k": 2.0 is the same error in every trial, so it fails the config, as
    # a source's k does, in whichever dict the trials read it from
    for part, doc in [
        ("classifier", {"k": 2.0, "w_min": 0.5}),
        ("spherical", {"k": 2.0, "t": 1.0}),
        ("fit", {"k": 2.0}),
    ]:
        message = rf"^{part}\.k must be an integer, got 2\.0$"
        with pytest.raises(ValueError, match=message):
            _plant_config(trials=1, **{part: doc})


def test_error_text_sanitized_in_summary():
    class Dummy:
        pass

    from sepmix.experiment import ExperimentResult, TrialReport

    rep = TrialReport(trial=0, seed=0, error="Bad: x, y\nnext")
    res = ExperimentResult(config=_plant_config(), reports=[rep], metadata={})
    line = summary_rows(res)[1]
    assert line.count(",") == 5  # commas inside the error were replaced
    assert "\n" not in line


def test_fit_scenario_reports_objective():
    config = ExperimentConfig.from_dict(
        {
            "scenario": "fit",
            "trials": 2,
            "master_seed": 3,
            "sample_size": 200,
            "source": {
                "kind": "plant",
                "n": 4,
                "k": 2,
                "shapes": [1.0, 1.0],
                "t": 5.0,
                "mode": "practical",
                "slack": 2.0,
            },
            "fit": {"k": 2},
        }
    )
    result = run_experiment(config)
    for rep in result.reports:
        assert rep.objective is not None and rep.objective > 0
        assert rep.extras["sigma"] > 0
        assert rep.extras["planted_objective"] > 0
        assert sum(rep.extras["weights"]) == pytest.approx(1.0)


def test_spherical_scenario():
    config = ExperimentConfig.from_dict(
        {
            "scenario": "classify_spherical",
            "trials": 2,
            "master_seed": 11,
            "sample_size": 800,
            "source": {
                "kind": "plant",
                "n": 64,
                "k": 3,
                "shapes": [1.0, 1.0],
                "t": 10.0,
                "mode": "practical",
                "slack": 1.5,
            },
            "spherical": {"k": 3, "t": 5.0},
        }
    )
    result = run_experiment(config)
    assert result.exact_match_count == 2


def test_validate_scenario():
    config = ExperimentConfig.from_dict(
        {
            "scenario": "validate",
            "trials": 1,
            "master_seed": 2,
            "validate": {
                "suite": "lemma5",
                "options": {"t_values": [2.0], "dims": [8], "num_samples": 20_000},
            },
        }
    )
    result = run_experiment(config)
    assert result.reports[0].exact_match is True
    assert result.reports[0].extras["suite"]["rows"]


@pytest.mark.parametrize(
    "options, message",
    [
        ({"t_values": ["1"]}, "t must be a number, got '1'"),
        ({"dims": [8.5]}, "n must be an integer, got 8.5"),
    ],
    ids=["t-string", "dims-fractional"],
)
def test_validate_trial_records_malformed_options(options, message):
    config = ExperimentConfig.from_dict(
        {
            "scenario": "validate",
            "trials": 1,
            "master_seed": 2,
            "validate": {"suite": "lemma5", "options": options},
        }
    )
    report = run_experiment(config).reports[0]
    assert report.error == f"ValueError: {message}"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"scenario": "fit", "trials": 1, "master_seed": 0,
                                    "bogus": 1})


def test_config_rejects_bad_scenario():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"scenario": "nope", "trials": 1, "master_seed": 0})


def test_config_rejects_unknown_suite():
    # an unknown suite fails every trial alike, so it fails the config, as
    # an unknown scenario does
    doc = {"scenario": "validate", "trials": 1, "master_seed": 0,
           "validate": {"suite": "lemma9"}}
    with pytest.raises(ValueError, match=r"^validate\.suite must be one of"):
        ExperimentConfig.from_dict(doc)


def test_trial_json_fields(tmp_path):
    out = tmp_path / "runs"
    run_experiment(_plant_config(trials=1, out_dir=str(out)))
    doc = json.loads((out / "trial_0000.json").read_text())
    assert doc["trial"] == 0
    assert doc["seed"] == 7
    assert doc["exact_match"] is True
    assert doc["time_ms"] == 0
    assert doc["error"] is None
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["trials"] == 1
    assert meta["sample_floor"] > 0
    assert meta["meets_sample_floor"] is False  # desk scale is far below it


def test_guarantee_sample_floor_scales():
    base = guarantee_sample_floor(8, 2, 0.05, 0.5)
    assert guarantee_sample_floor(16, 2, 0.05, 0.5) > base
    assert guarantee_sample_floor(8, 4, 0.05, 0.5) > base
    assert guarantee_sample_floor(8, 2, 0.05, 0.25) > base
    want = 1e7 * 64 * 4 * math.log(2 * 64) / (0.05**2 * 0.5**6)
    assert base == pytest.approx(want)


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def test_suite_lemma5_small_grid():
    report = run_validation_suite(
        "lemma5",
        {"t_values": [2.0], "dims": [8], "num_samples": 20_000},
        np.random.default_rng(0),
    )
    assert report["suite"] == "lemma5"
    assert report["all_pass"]
    assert len(report["rows"]) == 2  # spherical and eccentric


def test_suite_lemma12_epsilon_value():
    report = run_validation_suite(
        "lemma12",
        {"dims": [2], "sample_size": 1_000_000, "delta": 0.1, "repeats": 3},
        np.random.default_rng(1),
    )
    assert report["all_pass"]
    eps = report["rows"][0]["epsilon"]
    assert eps == pytest.approx(0.094, abs=0.001)


@pytest.mark.parametrize(
    "suite, options, message",
    [
        ("lemma5", {"num_samples": 20_000.7}, "num_samples must be an integer"),
        ("lemma12", {"sample_size": 2000.5}, "sample_size must be an integer"),
        ("lemma12", {"repeats": 2.9}, "repeats must be an integer"),
        ("lemma12", {"delta": "0.1"}, "delta must be a number"),
        ("corollary4", {"n": 8.5}, "n must be an integer"),
        ("corollary4", {"grid_points": 40.9}, "grid_points must be an integer"),
        ("lemma8", {"num_samples": 20000.7}, "num_samples must be an integer"),
    ],
    ids=["lemma5-draws", "lemma12-size", "lemma12-repeats", "lemma12-delta",
         "corollary4-n", "corollary4-grid", "lemma8-draws"],
)
def test_suite_refuses_options_instead_of_casting(suite, options, message):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        run_validation_suite(suite, options, rng)
    assert rng.bit_generator.state == before


def test_suite_unknown_name():
    with pytest.raises(ValueError):
        run_validation_suite("lemma99", {}, np.random.default_rng(0))
