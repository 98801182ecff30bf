"""The four benchmark workloads.

A workload builds a fixed set of inputs from its seed in ``inputs`` (part of
set-up), runs one trial of sepmix work on one of them in ``run`` (the timed
part) and checks the output afterwards in ``check``.  A run times the same
inputs over and over, so its median does not depend on which trials happened
to draw slow inputs.  ``run`` reaches sepmix through module attributes
(``cli.main``, ``experiment.run_experiment`` ...) so that a traced run can
rebind them; the checks use references taken at import time, which are never
traced.  Random generators are made afresh inside ``run`` from a stored seed,
so every repeat of an input draws the same numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sepmix import classify, cli, experiment, kmedian
from sepmix.classify import Partition
from sepmix.experiment import ExperimentConfig, _planted_restricted_objective
from sepmix.io import load_partition, load_samples
from sepmix.model import (
    Mixture,
    make_gaussian,
    sample_concentric_spherical_embedded,
    sample_mixture,
    spherical_median_radius,
)
from sepmix.scoring import partition_compare


def input_seed(seed: int, i: int) -> int:
    """Seed of the run's input i; neighbouring run seeds share no inputs."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digest: str = ""  # hash of the trial's partitions / objectives
    objective_ratio: float | None = None


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _labels_partition(labels: np.ndarray) -> Partition:
    return Partition(clusters=[np.flatnonzero(labels == c) for c in range(labels.max() + 1)])


class PlantedCli:
    """`sepmix gen` then `sepmix classify`, in-process, on files."""

    name = "planted_cli"
    size = "M=3000 n=16 k=3"
    GEN = (
        "gen --plant-n 16 --plant-k 3 --plant-t 10 --plant-slack 1.5 "
        "--eig-lo 1 --eig-hi 2 --count 3000"
    ).split()
    CLASSIFY = "classify --k 3 --wmin 0.3333 --t 10".split()
    OUTPUTS = ("params.json", "samples.csv", "partition.csv", "trace.json")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        d = self.workdir / self.name
        d.mkdir(parents=True, exist_ok=True)
        gen = self.GEN + [
            "--seed", str(input_seed(self.seed, 0)),
            "--out-params", str(d / "params.json"),
            "--out", str(d / "samples.csv"),
        ]
        cls = self.CLASSIFY + [
            "--samples", str(d / "samples.csv"),
            "--out", str(d / "partition.csv"),
            "--trace", str(d / "trace.json"),
        ]
        return [(d, gen, cls)]

    def run(self, inp):
        _, gen, cls = inp
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(gen), cli.main(cls)

    def check(self, inp, codes) -> Outcome:
        d = inp[0]
        try:
            if codes != (0, 0):
                return Outcome(False, f"exit codes gen={codes[0]} classify={codes[1]}")
            _, truth = load_samples(d / "samples.csv")
            pred = load_partition(d / "partition.csv")
            digest = digest_of(pred.astype(np.int64).tobytes())
            if not partition_compare(_labels_partition(pred), truth).exact_match:
                return Outcome(False, "partition does not match the labels", digest)
            return Outcome(True, digest=digest)
        finally:
            # The next trial must not find this trial's files.
            for out in self.OUTPUTS:
                (d / out).unlink(missing_ok=True)


AMBIENT = 40_000_000
SIGMAS = [1.0, 10.0]


class ConcentricPeel:
    """One-trial `run_experiment` on the criterion-2 concentric pair."""

    name = "concentric_peel"
    size = "M=2000 ambient 4e7 k=2"
    M = 2000
    # Peak memory is about 208 MiB on some inputs and 224 MiB on others.  A
    # run's peak is the largest over its inputs, so with five of them it
    # rarely depends on the seed.  One round of five fills a default run.
    INPUTS = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out_dir = workdir / self.name

    def inputs(self):
        return [self._input(input_seed(self.seed, i)) for i in range(self.INPUTS)]

    def _input(self, master: int):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "classify_general",
                "trials": 1,
                "master_seed": master,
                "sample_size": self.M,
                "source": {
                    "kind": "concentric_spherical",
                    "sigmas": SIGMAS,
                    "ambient_dim": AMBIENT,
                },
                "classifier": {"k": 2, "w_min": 0.5, "delta": 0.05, "t": 10.0},
                "out_dir": str(self.out_dir),
            }
        )
        # The labels run_experiment's only trial draws: its generator is
        # seeded with master_seed ^ 0 and feeds the same sampler call.
        labels = sample_concentric_spherical_embedded(
            SIGMAS, [0.5, 0.5], AMBIENT, np.random.default_rng(master), self.M, seed=master
        ).labels
        return config, labels

    def run(self, inp):
        return experiment.run_experiment(inp[0]).reports[0]

    def check(self, inp, report) -> Outcome:
        labels = inp[1]
        if report.error is not None:
            return Outcome(False, report.error)
        peels = report.extras["peels"]
        digest = digest_of(
            json.dumps(report.confusion),
            json.dumps([(p["center_index"], p["removed_count"]) for p in peels]),
        )
        if not report.exact_match:
            return Outcome(False, "partition does not match the labels", digest)
        if labels[peels[0]["center_index"]] != 0:
            return Outcome(False, "first peel took the sigma=10 component", digest)
        return Outcome(True, digest=digest)


class SphericalFit:
    """Criterion-3 mixture: `classify_spherical`, then `fit_spherical_mixture`."""

    name = "spherical_fit"
    size = "M=4000 n=64 k=4"
    N, K, T, M = 64, 4, 5.0, 4000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        n, k, t = self.N, self.K, self.T
        # Regular simplex with the criterion-3 center distance.
        radius = spherical_median_radius(1.0, n)
        rhs = 2.0 * radius**2 + 12.0 * t * (2.0 * radius) ** 2 / math.sqrt(n)
        dsq = rhs - 2.0 * n
        for _ in range(8):
            dsq = rhs - 2.0 * n + 8.5 * math.sqrt(8.0 * (n + dsq + 2.0 * n))
        centers = np.zeros((k, n))
        for c in range(k):
            centers[c, c] = math.sqrt(dsq) / math.sqrt(2.0)
        comps = [make_gaussian(c, np.ones(n)) for c in centers]
        for comp in comps:
            comp.median_radius = radius
        self.mixture = Mixture(components=comps, weights=np.full(k, 1.0 / k))

    def inputs(self):
        s = input_seed(self.seed, 0)
        samples = sample_mixture(self.mixture, np.random.default_rng(s), self.M, seed=s)
        planted = _planted_restricted_objective(samples.points, samples.labels)
        return [(samples, input_seed(self.seed, 1), planted)]

    def run(self, inp):
        samples, fit_seed, _ = inp
        part = classify.classify_spherical(samples, k=self.K, t=self.T)
        fit = kmedian.fit_spherical_mixture(
            samples.points, self.K, np.random.default_rng(fit_seed)
        )
        return part, fit

    def check(self, inp, out) -> Outcome:
        samples, _, planted = inp
        part, fit = out
        sol = fit.solution
        digest = digest_of(
            part.as_labels().astype(np.int64).tobytes(),
            sol.center_indices.astype(np.int64).tobytes(),
            repr(sol.objective),
        )
        ratio = sol.objective / planted
        reasons = []
        if not partition_compare(part, samples.labels).exact_match:
            reasons.append("warm-up partition does not match the labels")
        if ratio > 2.0:
            reasons.append(f"fit objective {ratio:.4f}x the planted one")
        if np.any(np.abs(fit.weights - 1.0 / self.K) > 0.05):
            reasons.append(f"fit weights {np.round(fit.weights, 4).tolist()}")
        return Outcome(not reasons, "; ".join(reasons), digest, ratio)


class ValidateSuites:
    """One `run_validation_suite` per trial; the inputs are the six suites."""

    name = "validate_suites"
    size = "one suite per trial"
    SUITES = ("lemma5", "lemma6", "lemma7", "lemma8", "corollary4", "lemma12")
    OPTIONS = {
        "lemma12": {"repeats": 100, "dims": [2, 8], "sample_size": 100_000, "delta": 0.1}
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self):
        return [
            (suite, self.OPTIONS.get(suite, {}), input_seed(self.seed, i))
            for i, suite in enumerate(self.SUITES)
        ]

    def run(self, inp):
        suite, options, seed = inp
        return experiment.run_validation_suite(suite, options, np.random.default_rng(seed))

    def check(self, inp, report) -> Outcome:
        digest = digest_of(json.dumps(report, sort_keys=True))
        if not report["all_pass"]:
            failed = [r for r in report["rows"] if not r["passed"]]
            return Outcome(False, f"{report['suite']}: {len(failed)} rows fail", digest)
        return Outcome(True, digest=digest)


WORKLOADS = {
    w.name: w for w in (PlantedCli, ConcentricPeel, SphericalFit, ValidateSuites)
}
