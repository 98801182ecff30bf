"""The benchmark reaches into sepmix by name; a refactor that renames or moves
one of those names must fail here rather than in a traced bench run."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_span_patches_resolve(monkeypatch):
    spans = _load("spans", monkeypatch)
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in spans.PATCHES
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert spans.PATCHES and not missing


def test_every_counted_span_fires_in_a_traced_run(tmp_path, monkeypatch):
    # a counter reads its call's arguments by name, so renaming one breaks
    # only a traced bench run; small calls through every counted span run
    # each counter here
    from sepmix import classify, cli, experiment, kmedian

    spans = _load("spans", monkeypatch)
    tracer = spans.Tracer()
    params, samples = tmp_path / "params.json", tmp_path / "samples.csv"
    gen = ["gen", "--plant-n", "8", "--plant-k", "2", "--count", "400", "--seed", "1",
           "--out-params", str(params), "--out", str(samples)]
    check = ["check-sep", "--params", str(params), "--t", "10", "--mode", "practical"]
    peel = ["classify", "--samples", str(samples), "--k", "2", "--wmin", "0.5",
            "--out", str(tmp_path / "partition.csv")]
    concentric = experiment.ExperimentConfig.from_dict(
        {
            "scenario": "classify_general",
            "trials": 1,
            "master_seed": 3,
            "sample_size": 200,
            "source": {"kind": "concentric_spherical", "sigmas": [1.0, 10.0],
                       "ambient_dim": 1_000_000},
            "classifier": {"k": 2, "w_min": 0.5},
        }
    )
    options = {"num_samples": 10_000, "sample_size": 10_000, "repeats": 1}
    blobs = np.random.default_rng(4).normal(size=(200, 16))
    blobs[100:, 0] += 40.0
    with spans.Rebinding(tracer), contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main(argv) for argv in (gen, check, peel)] == [0, 0, 0]
        rng = np.random.default_rng(5)
        for suite in experiment.SUITES:
            experiment.run_validation_suite(suite, options, rng)
        assert experiment.run_experiment(concentric).error_count == 0
        classify.classify_spherical(blobs, 2, 5.0)
        kmedian.fit_spherical_mixture(blobs, 2, np.random.default_rng(6))
    counted = {name for _, _, name, counter in spans.PATCHES if counter is not None}
    assert counted - {span.name for span in tracer.spans} == set()


def test_workloads_import(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert callable(workloads.input_seed)


def _planted_cli_argv(tmp_path, monkeypatch):
    """The gen and classify command lines of the planted_cli workload."""
    workloads = _load("workloads", monkeypatch)
    (_, gen, cls), = workloads.PlantedCli(0, tmp_path).inputs()
    return gen, cls


def test_planted_cli_command_lines_parse(tmp_path, monkeypatch):
    from sepmix import cli

    gen, cls = _planted_cli_argv(tmp_path, monkeypatch)
    assert cli.build_parser().parse_args(gen).command == "gen"
    assert cli.build_parser().parse_args(cls).command == "classify"


def test_classify_ignores_t(tmp_path, monkeypatch):
    # classify still accepts the --t the benchmark passes, and reads nothing
    # from it; options appended below override the workload's own
    from sepmix import cli

    gen, cls = _planted_cli_argv(tmp_path, monkeypatch)
    gen = gen + ["--count", "600"]
    assert cli.main(gen) == 0
    at = cls.index("--t")
    without_t = cls[:at] + cls[at + 2 :]
    outputs = {}
    for name, argv in (("with", cls), ("without", without_t)):
        out, trace = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        argv = argv + ["--out", str(out), "--trace", str(trace)]
        assert cli.main(argv) == 0
        outputs[name] = (out.read_bytes(), trace.read_bytes())
    assert outputs["with"] == outputs["without"]


def test_experiment_ignores_classifier_t_and_step_cap(tmp_path):
    from sepmix.experiment import ExperimentConfig, run_experiment

    def artifacts(name, classifier):
        out = tmp_path / name
        config = ExperimentConfig.from_dict(
            {
                "scenario": "classify_general",
                "trials": 2,
                "master_seed": 5,
                "sample_size": 400,
                "source": {"kind": "plant", "n": 8, "k": 2, "shapes": [1.0, 2.0],
                           "t": 10.0, "mode": "practical", "slack": 1.5},
                "classifier": classifier,
                "out_dir": str(out),
            }
        )
        run_experiment(config)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    plain = {"k": 2, "w_min": 0.5, "delta": 0.05}
    old = artifacts("old", dict(plain, t=10.0, step_cap=500))
    new = artifacts("new", plain)
    assert {"summary.csv", "trial_0000.json", "trial_0001.json"} <= set(new)
    assert old == new
