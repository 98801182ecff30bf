import json

import numpy as np
import pytest

from sepmix.cli import build_parser, main

pytestmark = pytest.mark.filterwarnings(
    "ignore::sepmix.errors.SampleBalanceWarning"
)
from sepmix.io import load_samples, save_params, save_samples
from sepmix.kmedian import _NORMALIZATIONS
from sepmix.model import Mixture, make_gaussian
from sepmix.scoring import partition_compare
from sepmix.separation import _MODES
from sepmix.classify import ClassifierConfig, Partition, classify_general


def _gen(tmp_path, count=400, n=8, k=2, seed=0, labels=True):
    params = tmp_path / "params.json"
    samples = tmp_path / "samples.csv"
    argv = [
        "gen",
        "--plant-n", str(n),
        "--plant-k", str(k),
        "--plant-t", "10",
        "--plant-slack", "1.5",
        "--seed", str(seed),
        "--count", str(count),
        "--out-params", str(params),
        "--out", str(samples),
    ]
    if not labels:
        argv.append("--no-labels")
    assert main(argv) == 0
    return params, samples


def test_gen_writes_params_and_samples(tmp_path, capsys):
    params, samples = _gen(tmp_path)
    doc = json.loads(params.read_text())
    assert len(doc["components"]) == 2
    header = samples.read_text().splitlines()[0]
    assert header == ",".join(f"dim_{i}" for i in range(8)) + ",label"
    assert "wrote 400 samples" in capsys.readouterr().out


def test_gen_no_labels_header(tmp_path):
    _, samples = _gen(tmp_path, count=10, labels=False)
    header = samples.read_text().splitlines()[0]
    assert not header.endswith("label")
    points, labels = load_samples(samples)
    assert labels is None
    assert points.shape == (10, 8)


def test_gen_without_source_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--out", str(tmp_path / "x.csv")])


def test_check_sep_planted_passes(tmp_path, capsys):
    params, _ = _gen(tmp_path, count=1)
    capsys.readouterr()  # drop the gen banner
    rc = main(["check-sep", "--params", str(params), "--t", "10",
               "--mode", "practical"])
    out_lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out_lines[0] == ",c0,c1"
    assert out_lines[-1] == "satisfied,true"
    # off-diagonal entries parse as positive floats, diagonal blank
    row = out_lines[1].split(",")
    assert row[0] == "c0" and row[1] == "" and float(row[2]) > 0


@pytest.mark.parametrize("option", ["--seed", "--radius-samples"])
def test_check_sep_takes_no_radius_draw_options(tmp_path, option):
    # the radii are exact, so nothing is left to seed or size
    params, _ = _gen(tmp_path, count=1)
    with pytest.raises(SystemExit):
        main(["check-sep", "--params", str(params), "--t", "10", option, "5"])


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_check_sep_non_finite_t_exits_two(tmp_path, capsys, t):
    params, _ = _gen(tmp_path, count=1)
    capsys.readouterr()
    rc = main(["check-sep", "--params", str(params), "--t", t])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ValueError")


def test_check_sep_close_centers_fails(tmp_path, capsys):
    comps = [
        make_gaussian(np.zeros(4), np.ones(4)),
        make_gaussian(np.full(4, 0.5), np.ones(4)),
    ]
    mix = Mixture(components=comps, weights=np.array([0.5, 0.5]))
    path = tmp_path / "close.json"
    save_params(path, mix)
    rc = main(["check-sep", "--params", str(path), "--t", "10",
               "--mode", "practical"])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[-1] == "satisfied,false"


def test_classify_round_trip(tmp_path, capsys):
    _, samples = _gen(tmp_path, count=400)
    out = tmp_path / "partition.csv"
    trace = tmp_path / "trace.json"
    rc = main(["classify", "--samples", str(samples), "--k", "2",
               "--wmin", "0.5",
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    assert "cluster sizes" in capsys.readouterr().out

    predicted = np.loadtxt(out, delimiter=",", skiprows=1, dtype=int)
    assert predicted.shape == (400,)
    _, truth = load_samples(samples)
    clusters = [np.flatnonzero(predicted == c) for c in range(2)]
    assert partition_compare(Partition(clusters=clusters), truth).exact_match

    steps = json.loads(trace.read_text())
    assert len(steps) == 2
    for step in steps:
        assert set(step) == {"center_index", "alpha", "beta", "nu", "s",
                             "beta_prime", "removal_radius", "removed_count"}
        assert step["removed_count"] > 0


def test_classify_trace_is_peel_step_records(tmp_path):
    _, samples = _gen(tmp_path, count=400, seed=3)
    trace = tmp_path / "trace.json"
    rc = main(["classify", "--samples", str(samples), "--k", "2",
               "--wmin", "0.5",
               "--out", str(tmp_path / "partition.csv"), "--trace", str(trace)])
    assert rc == 0
    points, _ = load_samples(samples)
    part = classify_general(points, ClassifierConfig(k=2, w_min=0.5))
    steps = json.loads(trace.read_text())
    assert steps == [s.to_dict() for s in part.trace.steps]
    assert list(steps[0]) == ["center_index", "alpha", "beta", "nu", "s",
                              "beta_prime", "removal_radius", "removed_count"]


def test_classify_spherical_round_trip(tmp_path):
    _, samples = _gen(tmp_path, count=400, n=64, seed=3)
    out = tmp_path / "partition.csv"
    rc = main(["classify-spherical", "--samples", str(samples),
               "--k", "2", "--t", "5", "--out", str(out)])
    assert rc == 0
    predicted = np.loadtxt(out, delimiter=",", skiprows=1, dtype=int)
    _, truth = load_samples(samples)
    clusters = [np.flatnonzero(predicted == c) for c in range(2)]
    assert partition_compare(Partition(clusters=clusters), truth).exact_match


def test_fit_json_contract(tmp_path, capsys):
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.normal(0, 1, (20, 2)), rng.normal(9, 1, (20, 2))])
    path = tmp_path / "pts.csv"
    save_samples(path, pts, None)
    rc = main(["fit", "--samples", str(path), "--k", "2", "--oracle"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"centers", "center_indices", "assignment", "objective",
                        "sigma_hat", "log_likelihood", "weights",
                        "normalization", "oracle_objective", "oracle_ratio"}
    assert doc["objective"] >= doc["oracle_objective"] > 0
    assert 1.0 <= doc["oracle_ratio"] <= 10.0
    assert len(doc["assignment"]) == 40
    assert sum(doc["weights"]) == pytest.approx(1.0)


def test_fit_writes_file_without_oracle(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "pts.csv"
    save_samples(path, rng.normal(size=(30, 3)), None)
    out = tmp_path / "fit.json"
    rc = main(["fit", "--samples", str(path), "--k", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "oracle_objective" not in doc
    assert doc["normalization"] == "paper"


def test_validate_suite_report(tmp_path, capsys):
    cfg = tmp_path / "opts.json"
    cfg.write_text(json.dumps(
        {"t_values": [2.0], "dims": [8], "num_samples": 20_000}))
    out = tmp_path / "report.json"
    rc = main(["validate", "--suite", "lemma5", "--seed", "4",
               "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "lemma5: pass" in captured.err
    doc = json.loads(out.read_text())
    assert doc["seed"] == 4
    assert doc["all_pass"] is True
    assert doc["suites"][0]["suite"] == "lemma5"


@pytest.mark.parametrize(
    "suite, options, message",
    [
        ("lemma5", {"t_values": ["1"]}, "t must be a number, got '1'"),
        ("lemma5", {"dims": [8.5]}, "n must be an integer, got 8.5"),
        ("lemma5", {"num_samples": 20_000.7}, "num_samples must be an integer, got 20000.7"),
        ("lemma12", {"sample_size": 2000.5}, "sample_size must be an integer, got 2000.5"),
        ("lemma12", {"repeats": 2.9}, "repeats must be an integer, got 2.9"),
        ("lemma12", {"delta": "0.1"}, "delta must be a number, got '0.1'"),
        ("corollary4", {"n": 8.5}, "n must be an integer, got 8.5"),
        ("corollary4", {"grid_points": 40.9}, "grid_points must be an integer, got 40.9"),
    ],
    ids=["t-string", "dims-fractional", "lemma5-draws", "lemma12-size",
         "lemma12-repeats", "lemma12-delta", "corollary4-n", "corollary4-grid"],
)
def test_validate_rejects_malformed_options(tmp_path, capsys, suite, options, message):
    cfg = tmp_path / "opts.json"
    cfg.write_text(json.dumps(options))
    rc = main(["validate", "--suite", suite, "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: ValueError: {message}"]


def test_parser_choices_are_the_library_tuples():
    def choices(command, dest):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return next(a for a in sub.choices[command]._actions if a.dest == dest).choices

    assert choices("gen", "plant_mode") is _MODES
    assert choices("check-sep", "mode") is _MODES
    assert choices("fit", "normalization") is _NORMALIZATIONS


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "scenario": "classify_general",
        "trials": 2,
        "master_seed": 7,
        "sample_size": 400,
        "source": {"kind": "plant", "n": 8, "k": 2, "shapes": [1.0, 1.0],
                   "t": 10.0, "mode": "practical", "slack": 1.5},
        "classifier": {"k": 2, "w_min": 0.5, "t": 10.0},
    }))
    out_dir = tmp_path / "runs"
    rc = main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    assert "2/2 exact matches" in capsys.readouterr().out
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "metadata.json").exists()


def test_library_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("dim_0\n1.0\nnot-a-number\n")
    rc = main(["fit", "--samples", str(bad), "--k", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ParseError")


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["check-sep", "--params", str(tmp_path / "gone.json"), "--t", "5"])
    assert rc == 2
    assert "error: FileNotFoundError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [("master_seed", 1.5), ("trials", "2"), ("trials", True), ("sample_size", 2.5)],
)
def test_non_integer_experiment_field_exits_two(tmp_path, capsys, field, value):
    cfg = tmp_path / "exp.json"
    doc = {"scenario": "fit", "trials": 1, "master_seed": 0, "fit": {"k": 1}}
    cfg.write_text(json.dumps(doc | {field: value}))
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ValueError: {field} must be")


_PLANT = {"kind": "plant", "n": 4, "k": 2, "t": 5.0, "shapes": [1.0, 1.0]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"source": _PLANT | {"t": "5"}}, "source.t must be a number"),
        ({"spherical": {"k": 2, "t": "5"}}, "spherical.t must be a number"),
        ({"source": _PLANT | {"k": 2.0}}, "source.k must be an integer"),
        (
            {"scenario": "classify_general", "classifier": {"k": 2, "w_min": "0.5"}},
            "classifier.w_min must be a number",
        ),
        ({"spherical": {"k": 2.0, "t": 1.0}}, "spherical.k must be an integer"),
        (
            {"scenario": "classify_general", "classifier": {"k": 2.0, "w_min": 0.5}},
            "classifier.k must be an integer",
        ),
        ({"fit": {"k": 2.0}}, "fit.k must be an integer"),
    ],
    ids=[
        "source-t",
        "spherical-t",
        "source-k",
        "classifier-w_min",
        "spherical-k",
        "classifier-k",
        "fit-k",
    ],
)
def test_experiment_number_that_is_not_one_exits_two(tmp_path, capsys, doc, message):
    base = {"scenario": "classify_spherical", "trials": 1, "master_seed": 0,
            "sample_size": 200, "source": _PLANT, "spherical": {"k": 2, "t": 1.0}}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(base | doc))
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ValueError: {message}")


def test_bad_experiment_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": "fit", "trials": 1,
                               "master_seed": 0, "bogus": 1}))
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    assert "error: ValueError" in capsys.readouterr().err


_GENERAL = {"scenario": "classify_general", "trials": 1, "master_seed": 0,
            "sample_size": 200, "source": _PLANT, "classifier": {"k": 2, "w_min": 0.5}}


def _drop(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([_GENERAL], "config must be an object"),
        (_drop(_GENERAL, "trials"), "missing config keys ['trials']"),
        (_drop(_GENERAL, "master_seed"), "missing config keys ['master_seed']"),
        (
            _GENERAL | {"classifier": {"k": 2, "w_min": 0.5, "delta": 0}},
            "classifier: delta must be in (0, 1]",
        ),
        (_GENERAL | {"source": [_PLANT]}, "source must be an object"),
        (_GENERAL | {"validate": ["lemma5"]}, "validate must be an object"),
        (
            _GENERAL | {"source": {"kind": "concentric_spherical", "sigmas": [],
                                   "ambient_dim": 400}},
            "source.sigmas must not be empty",
        ),
        (_GENERAL | {"source": _drop(_PLANT, "k")}, "source.k is required"),
        (_GENERAL | {"source": _drop(_PLANT, "n")}, "source.n is required"),
        (_GENERAL | {"source": _drop(_PLANT, "t")}, "source.t is required"),
        (
            _GENERAL | {"scenario": "fit", "fit": {"normalization": "paper"}},
            "fit.k is required",
        ),
        (_GENERAL | {"scenario": "classify_spherical"}, "spherical.k is required"),
        (
            _GENERAL | {"scenario": "classify_spherical", "spherical": {"k": 2}},
            "spherical.t is required",
        ),
        (
            _GENERAL | {"scenario": "validate", "validate": {"options": [1]}},
            "validate.options must be an object, got list",
        ),
        (_GENERAL | {"source": _drop(_PLANT, "kind")}, "source.kind is required"),
        (_GENERAL | {"source": _PLANT | {"kind": "nope"}}, "source.kind must be one of"),
        (_GENERAL | {"source": _PLANT | {"shapes": "abc"}}, "source.shapes: could not"),
        (_GENERAL | {"source": _PLANT | {"mode": "bogus"}}, "source.mode must be one of"),
        (_GENERAL | {"source": _PLANT | {"c1": 60.0}}, "source.c1 is retired"),
        (_GENERAL | {"source": _PLANT | {"c2": 30.0}}, "source.c2 is retired"),
        (_GENERAL | {"source": _PLANT | {"eig_lo": 1.0}}, "source.eig_lo is retired"),
        (_GENERAL | {"source": _PLANT | {"eig_hi": 2.0}}, "source.eig_hi is retired"),
        (
            _GENERAL | {"source": _PLANT | {"shapes": {"range": [1.0, 2.0]}}},
            "source.shapes: shape entry needs 'spectrum'",
        ),
        (
            _GENERAL | {"scenario": "fit", "fit": {"k": 2, "normalization": "x"}},
            "fit.normalization must be one of",
        ),
    ],
    ids=[
        "top-level-list",
        "no-trials",
        "no-master_seed",
        "delta-0",
        "source-list",
        "validate-list",
        "sigmas-empty",
        "no-source-k",
        "no-source-n",
        "no-source-t",
        "no-fit-k",
        "no-spherical",
        "no-spherical-t",
        "validate-options-list",
        "no-source-kind",
        "unknown-source-kind",
        "shapes-abc",
        "mode-bogus",
        "retired-c1",
        "retired-c2",
        "retired-eig_lo",
        "retired-eig_hi",
        "shapes-range",
        "normalization-x",
    ],
)
def test_malformed_experiment_config_exits_two(tmp_path, capsys, doc, message):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ValueError: {message}")
