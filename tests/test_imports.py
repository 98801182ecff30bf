"""Which scipy modules each entry point loads, read in a fresh interpreter.

scipy.special and scipy.linalg each take a large share of a short process's
start-up time and memory, so sepmix imports each one inside the function
that calls it.  These tests fail on a module-level scipy import.  Nothing in
sepmix loads scipy.optimize: partition scoring solves its assignment problem
in-package, so neither scoring nor an experiment that scores loads it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.special")
# planted_cli's arguments in the benchmark: eigenvalues in [1, 2], so every
# component is nonspherical and its median radius is solved for
GEN = (
    "gen --plant-n 16 --plant-k 3 --plant-t 10 --plant-slack 1.5 "
    "--eig-lo 1 --eig-hi 2 --count 3000 --seed 5"
).split()


def _scipy_modules(body: str, cwd: Path) -> set[str]:
    """Names of the scipy modules loaded after ``body`` runs in a fresh
    interpreter with sepmix on the path."""
    script = textwrap.dedent(body) + textwrap.dedent(
        """
        import json, sys
        names = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        sys.stderr.write("\\n" + json.dumps(names) + "\\n")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def _cli(argv) -> str:
    return f"from sepmix.cli import main\nassert main({list(argv)!r}) == 0\n"


HELP = """
    from sepmix.cli import main
    try:
        main(["--help"])
    except SystemExit:
        pass
"""


@pytest.mark.parametrize(
    "body", ["import sepmix, sepmix.cli\n", HELP], ids=["import", "help"]
)
def test_import_and_help_load_no_scipy(tmp_path, body):
    assert _scipy_modules(body, tmp_path) == set()


def test_gen_loads_no_scipy(tmp_path):
    body = _cli(GEN + ["--out-params", "params.json", "--out", "samples.csv"])
    assert _scipy_modules(body, tmp_path) == set()


def test_validation_suites_load_scipy_special_only(tmp_path):
    body = """
        import numpy as np
        from sepmix.experiment import SUITES, run_validation_suite
        rng = np.random.default_rng(0)
        for suite in SUITES:
            run_validation_suite(suite, {}, rng)
    """
    loaded = _scipy_modules(body, tmp_path)
    assert {m for m in HEAVY if m in loaded} == {"scipy.special"}


def test_classify_loads_scipy_linalg_not_optimize(tmp_path):
    body = _cli(GEN + ["--out", "samples.csv"]) + _cli(
        "classify --k 3 --wmin 0.3333 --samples samples.csv --out partition.csv".split()
    )
    loaded = _scipy_modules(body, tmp_path)
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded


def test_partition_compare_loads_no_scipy(tmp_path):
    body = """
        import numpy as np
        import sepmix
        part = sepmix.Partition(clusters=[np.array([0, 1]), np.array([2])])
        match = sepmix.partition_compare(part, np.array([1, 1, 0]))
        assert match.exact_match and match.mapping.tolist() == [1, 0]
    """
    assert _scipy_modules(body, tmp_path) == set()


def test_experiment_scores_without_scipy_optimize(tmp_path):
    # one classify_general trial on a planted pair: the scenario solves eigen
    # problems (scipy.linalg) and the trial is scored
    config = {
        "scenario": "classify_general",
        "trials": 1,
        "master_seed": 7,
        "sample_size": 600,
        "source": {"kind": "plant", "n": 8, "k": 2, "shapes": [1.0, 1.0],
                   "t": 10.0, "mode": "practical", "slack": 1.5},
        "classifier": {"k": 2, "w_min": 0.5, "delta": 0.05},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    body = _cli("experiment --config config.json --out-dir runs".split()) + (
        "trial = open('runs/summary.csv').read().splitlines()[1].split(',')\n"
        "assert trial[2] == 'true', trial\n"
    )
    loaded = _scipy_modules(body, tmp_path)
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded
