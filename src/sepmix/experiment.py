"""Seeded experiment orchestration and validation suites.

Trial i runs on its own stream seeded with ``master_seed XOR i``; with
``record_timing`` off (the default) every artifact written to disk is a
deterministic function of the config and master seed, so reruns are
byte-identical.  Wall times are always measured and kept on the in-memory
reports; they reach the artifacts only when timing is opted in.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .classify import (
    ClassifierConfig,
    classify_general,
    classify_spherical,
    pairwise_sq_dists,
)
from .concentration import (
    ball_growth_check,
    covariance_concentration_check,
    cross_pair_check,
    pair_distance_check,
    point_distance_check,
    shell_mass_check,
)
from .errors import DiagnosticWarning, SampleBalanceWarning, SepmixError
from .kmedian import fit_spherical_mixture
from .model import (
    LabeledSampleSet,
    _int_at_least,
    _real,
    make_gaussian,
    median_radius,
    random_rotation,
    sample_concentric_spherical_embedded,
    sample_mixture,
)
from .separation import SeparationConfig, plant_separated_mixture
from .io import load_params, load_samples

SCENARIOS = ("classify_general", "classify_spherical", "fit", "validate")
SUITES = ("lemma5", "lemma6", "lemma7", "lemma8", "corollary4", "lemma12")

# Numbers the trials read from a config's dicts, as (reals, integers >= 1) per
# dict.  They are checked to be numbers when the config is made, so that a
# malformed one, a k of 2.0 in any dict among them, fails the run before its
# first trial; the reals' ranges are left to the code that takes them.
_NUMBER_KEYS = {
    "source": (("t", "c1", "c2", "slack"), ("n", "k")),
    "spherical": (("t",), ("k",)),
    "classifier": (("w_min", "delta"), ("k",)),
    "fit": ((), ("k",)),
}


@dataclass
class ExperimentConfig:
    """One experiment: a data source, a scenario, and trial bookkeeping.

    ``classifier`` holds ``k``, ``w_min`` and optionally ``delta``, which
    must make a ClassifierConfig when the scenario is classify_general.  The
    separation scale ``t`` and the step cap that older configs carry there
    are ignored, and so are ``source.radius_samples`` and
    ``source.estimate_radii``: median radii are computed exactly, without
    draws, where they are needed.  ``trials``, ``master_seed`` and
    ``sample_size`` are integers (not bools), at least 1, 0 and 0.  The five
    dicts must be dicts, the numbers in _NUMBER_KEYS numbers where given,
    ``source.sigmas`` not empty where given, and ``validate.suite`` one of
    SUITES.
    """

    scenario: str
    trials: int
    master_seed: int
    sample_size: int = 0
    source: dict = field(default_factory=dict)
    classifier: dict = field(default_factory=dict)
    spherical: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)
    validate: dict = field(default_factory=dict)
    record_timing: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        for part in (*_NUMBER_KEYS, "validate"):
            doc = getattr(self, part)
            if not isinstance(doc, dict):
                raise ValueError(f"{part} must be an object, got {type(doc).__name__}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.validate.get("suite", "lemma5") not in SUITES:
            raise ValueError(f"validate.suite must be one of {SUITES}")
        _int_at_least(self.trials, 1, "trials")
        _int_at_least(self.master_seed, 0, "master_seed")
        _int_at_least(self.sample_size, 0, "sample_size")
        for part, (reals, integers) in _NUMBER_KEYS.items():
            doc = getattr(self, part)
            for key in reals:
                if doc.get(key) is not None:
                    _real(doc[key], f"{part}.{key}")
            for key in integers:
                if key in doc:
                    _int_at_least(doc[key], 1, f"{part}.{key}")
        if "sigmas" in self.source and np.size(self.source["sigmas"]) == 0:
            raise ValueError("source.sigmas must not be empty")
        if self.scenario == "classify_general":
            _classifier_config(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be an object, got {type(doc).__name__}")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config keys {sorted(extra)}")
        required = [
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
        ]
        missing = [name for name in required if name not in doc]
        if missing:
            raise ValueError(f"missing config keys {missing}")
        return cls(**doc)


def _classifier_config(config: ExperimentConfig) -> ClassifierConfig:
    """classify_general's ClassifierConfig, from ``classifier``'s k, w_min
    and delta alone.

    Raises:
        ValueError: k or w_min is missing, or ClassifierConfig refuses them;
            the message names ``classifier``.
    """
    doc = config.classifier
    missing = [key for key in ("k", "w_min") if key not in doc]
    if missing:
        raise ValueError(f"classifier needs keys {missing}")
    try:
        return ClassifierConfig(
            k=doc["k"], w_min=doc["w_min"], delta=doc.get("delta", 0.05)
        )
    except ValueError as exc:
        raise ValueError(f"classifier: {exc}") from None


@dataclass
class TrialReport:
    trial: int
    seed: int
    exact_match: bool | None = None
    agreement: int | None = None
    confusion: list | None = None
    objective: float | None = None
    wall_time_s: float = 0.0
    error: str | None = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self, record_timing: bool) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "exact_match": self.exact_match,
            "agreement": self.agreement,
            "confusion": self.confusion,
            "objective": self.objective,
            "time_ms": (self.wall_time_s * 1000.0) if record_timing else 0,
            "error": self.error,
            "extras": self.extras,
        }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    reports: list[TrialReport]
    metadata: dict

    @property
    def exact_match_count(self) -> int:
        return sum(1 for r in self.reports if r.exact_match)

    @property
    def error_count(self) -> int:
        return sum(1 for r in self.reports if r.error is not None)


def guarantee_sample_floor(n: int, k: int, delta: float, w_min: float) -> float:
    """Sample size at which the classification guarantee kicks in."""
    return 1e7 * n * n * k * k * math.log(k * n * n) / (delta**2 * w_min**6)


def _build_samples(config: ExperimentConfig, rng, seed, cache: dict) -> LabeledSampleSet:
    src = config.source
    kind = src.get("kind")
    if kind == "plant":
        sep = SeparationConfig(
            t=src["t"],
            mode=src.get("mode", "practical"),
            c1=src.get("c1"),
            c2=src.get("c2"),
        )
        shapes = _parse_shapes(
            src.get("shapes", [src.get("eig_lo", 1.0), src.get("eig_hi", 1.0)])
        )
        mixture = plant_separated_mixture(
            n=src["n"],
            k=src["k"],
            shape_spec=shapes,
            config=sep,
            slack=src.get("slack", 1.0),
            rng=rng,
            weights=src.get("weights"),
        )
        return sample_mixture(mixture, rng, config.sample_size, seed=seed)
    if kind == "concentric_spherical":
        return sample_concentric_spherical_embedded(
            sigmas=src["sigmas"],
            weights=src.get("weights", [1.0 / len(src["sigmas"])] * len(src["sigmas"])),
            ambient_dim=src["ambient_dim"],
            rng=rng,
            count=config.sample_size,
            seed=seed,
        )
    if kind == "params":
        if "mixture" not in cache:
            cache["mixture"] = load_params(src["path"])
        return sample_mixture(cache["mixture"], rng, config.sample_size, seed=seed)
    if kind == "mixture":
        return sample_mixture(src["object"], rng, config.sample_size, seed=seed)
    if kind == "samples":
        if "data" not in cache:
            cache["data"] = load_samples(src["path"])
        points, labels = cache["data"]
        return LabeledSampleSet(points=points, labels=labels, seed=seed)
    raise ValueError(f"unknown source kind {kind!r}")


def _parse_shapes(raw):
    """JSON-friendly shape specs: a two-number list is an eigenvalue range,
    {"range": [lo, hi]} / {"spectrum": [...]} are explicit, and a list of such
    entries gives one per component."""

    def one(entry):
        if isinstance(entry, dict):
            if "range" in entry:
                return (float(entry["range"][0]), float(entry["range"][1]))
            if "spectrum" in entry:
                return np.asarray(entry["spectrum"], dtype=float)
            raise ValueError(f"shape entry needs 'range' or 'spectrum': {entry}")
        if isinstance(entry, tuple):
            return entry
        seq = list(entry)
        if len(seq) == 2 and all(isinstance(v, (int, float)) for v in seq):
            return (float(seq[0]), float(seq[1]))
        return np.asarray(seq, dtype=float)

    if isinstance(raw, list) and raw and isinstance(raw[0], (list, dict, tuple)):
        return [one(e) for e in raw]
    return one(raw)


def _run_trial(config: ExperimentConfig, trial: int, cache: dict) -> TrialReport:
    from .scoring import partition_compare

    seed = config.master_seed ^ trial
    rng = np.random.default_rng(seed)
    report = TrialReport(trial=trial, seed=seed)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            warnings.simplefilter("ignore", SampleBalanceWarning)
            if config.scenario == "validate":
                suite = run_validation_suite(
                    config.validate.get("suite", "lemma5"),
                    config.validate.get("options", {}),
                    rng,
                )
                report.exact_match = suite["all_pass"]
                report.extras["suite"] = suite
            else:
                samples = _build_samples(config, rng, seed, cache)
                if config.scenario == "classify_general":
                    part = classify_general(samples, _classifier_config(config))
                    report.extras["peels"] = [s.to_dict() for s in part.trace.steps]
                elif config.scenario == "classify_spherical":
                    part = classify_spherical(
                        samples, k=config.spherical["k"], t=config.spherical["t"]
                    )
                else:  # fit
                    result = fit_spherical_mixture(
                        samples.points,
                        k=config.fit["k"],
                        rng=rng,
                        normalization=config.fit.get("normalization", "paper"),
                    )
                    report.objective = result.solution.objective
                    report.extras["sigma"] = result.sigma
                    report.extras["log_likelihood"] = result.log_likelihood
                    report.extras["weights"] = result.weights.tolist()
                    if samples.labels is not None:
                        planted = _planted_restricted_objective(
                            samples.points, samples.labels
                        )
                        report.extras["planted_objective"] = planted
                        counts = np.bincount(samples.labels, minlength=config.fit["k"])
                        report.extras["sampled_weights"] = (
                            counts / samples.size
                        ).tolist()
                    part = None
                if part is not None and samples.labels is not None:
                    match = partition_compare(part, samples.labels)
                    report.exact_match = match.exact_match
                    report.agreement = match.agreement
                    report.confusion = match.confusion.tolist()
    except (SepmixError, ValueError) as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    report.wall_time_s = time.perf_counter() - start
    return report


def _planted_restricted_objective(points: np.ndarray, labels: np.ndarray) -> float:
    """Best sum of squared distances with one sample-point center per class."""
    total = 0.0
    for lbl in np.unique(labels):
        d2 = pairwise_sq_dists(points[labels == lbl])
        total += float(d2.sum(axis=0).min())
    return total


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials, write artifacts when out_dir is set, and summarize."""
    cache: dict = {}
    reports = [_run_trial(config, i, cache) for i in range(config.trials)]
    metadata = {"scenario": config.scenario, "trials": config.trials}
    if config.scenario == "classify_general":
        src = config.source
        n = src.get("n")
        if n is None and src.get("kind") == "mixture":
            n = src["object"].dim
        if n is not None:
            cc = _classifier_config(config)
            floor = guarantee_sample_floor(n, cc.k, cc.delta, cc.w_min)
            metadata["sample_floor"] = floor
            metadata["meets_sample_floor"] = bool(config.sample_size >= floor)
    result = ExperimentResult(config=config, reports=reports, metadata=metadata)
    if config.out_dir is not None:
        _write_artifacts(result)
    return result


def summary_rows(result: ExperimentResult) -> list[str]:
    """summary.csv lines: trial,seed,exact_match,objective,time_ms,error."""
    lines = ["trial,seed,exact_match,objective,time_ms,error"]
    for r in result.reports:
        exact = "" if r.exact_match is None else ("true" if r.exact_match else "false")
        obj = "" if r.objective is None else "%.17g" % r.objective
        tms = ("%.3f" % (r.wall_time_s * 1000.0)) if result.config.record_timing else "0"
        err = "" if r.error is None else r.error.replace(",", ";").replace("\n", " ")
        lines.append(f"{r.trial},{r.seed},{exact},{obj},{tms},{err}")
    return lines


def _write_artifacts(result: ExperimentResult) -> None:
    out = Path(result.config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for r in result.reports:
        doc = r.to_json_dict(result.config.record_timing)
        (out / f"trial_{r.trial:04d}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    (out / "summary.csv").write_text("\n".join(summary_rows(result)) + "\n")
    (out / "metadata.json").write_text(
        json.dumps(result.metadata, indent=2, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def _spherical_component(n: int, sigma: float = 1.0):
    comp = make_gaussian(np.zeros(n), np.full(n, sigma * sigma))
    median_radius(comp)
    return comp


def _eccentric_component(n: int, top: float = 100.0, rng=None):
    """N(0, diag(top, 1, ..., 1)) with its median radius set, Haar-rotated
    by a rotation drawn from ``rng`` when one is given."""
    lam = np.ones(n)
    lam[0] = top
    rot = None if rng is None else random_rotation(n, rng)
    comp = make_gaussian(np.zeros(n), lam, rot)
    median_radius(comp)
    return comp


def _bound_row(bound, **inputs) -> dict:
    row = dict(inputs)
    row.update(
        claimed=bound.claimed,
        observed=bound.observed,
        num_trials=bound.num_trials,
        slack=bound.slack,
        passed=bound.passed,
    )
    return row


def run_validation_suite(suite: str, options: dict, rng: np.random.Generator) -> dict:
    """Run one named Monte Carlo suite; returns rows plus an overall verdict."""
    options = dict(options or {})
    num = int(options.get("num_samples", 100_000))
    rows: list[dict] = []
    if suite in ("lemma5", "lemma7"):
        t_values = options.get("t_values", [1.0, 2.0, 3.0])
        dims = options.get("dims", [8, 64])
        for n in dims:
            for shape in ("spherical", "eccentric"):
                comp = (
                    _spherical_component(n)
                    if shape == "spherical"
                    else _eccentric_component(n)
                )
                for t in t_values:
                    if suite == "lemma5":
                        b = shell_mass_check(comp, t, num, rng)
                    else:
                        b = pair_distance_check(comp, t, num, rng)
                    rows.append(_bound_row(b, n=n, shape=shape, t=t))
    elif suite == "lemma6":
        comp16 = _spherical_component(16)
        rows.append(
            _bound_row(
                point_distance_check(comp16, np.zeros(16), 2.0, num, rng),
                n=16, t=2.0, z="center",
            )
        )
        comp32 = _spherical_component(32)
        z = np.zeros(32)
        z[0] = 10.0 * comp32.median_radius
        rows.append(
            _bound_row(
                point_distance_check(comp32, z, 2.0, num, rng),
                n=32, t=2.0, z="10R",
            )
        )
        comp4 = _eccentric_component(4, top=9.0, rng=rng)
        z4 = rng.standard_normal(4)
        rows.append(
            _bound_row(
                point_distance_check(comp4, z4, 1.0, num, rng),
                n=4, t=1.0, z="random",
            )
        )
    elif suite == "lemma8":
        t_values = options.get("t_values", [1.0, 2.0])
        for t in t_values:
            for shape, n in (("spherical", 32), ("eccentric", 16)):
                spec = (
                    (1.0, 1.0)
                    if shape == "spherical"
                    else _eccentric_component(n).eigenvalues
                )
                mix = plant_separated_mixture(
                    n=n,
                    k=2,
                    shape_spec=spec,
                    config=SeparationConfig(t=t, mode="paper"),
                    slack=options.get("slack", 1.2),
                    rng=rng,
                )
                b = cross_pair_check(mix.components[0], mix.components[1], t, num, rng)
                rows.append(_bound_row(b, n=n, shape=shape, t=t))
    elif suite == "corollary4":
        n = int(options.get("n", 8))
        grid_points = int(options.get("grid_points", 40))
        draws = int(options.get("num_samples", 1_000_000))
        comp = _spherical_component(n)
        grid = np.linspace(0.0, comp.median_radius + 4.0 * comp.sigma_max, grid_points)
        curve = ball_growth_check(comp, comp.center, grid, draws, rng)
        rows.append(
            {
                "n": n,
                "grid_points": grid_points,
                "num_samples": draws,
                "bound": curve.bound,
                "low_intervals": len(curve.low_pairs),
                "high_intervals": len(curve.high_pairs),
                "passed": curve.satisfied,
            }
        )
    elif suite == "lemma12":
        dims = options.get("dims", [2, 8])
        size = int(options.get("sample_size", 100_000))
        delta = float(options.get("delta", 0.1))
        repeats = int(options.get("repeats", 10))
        num_dirs = int(options.get("num_directions", 16))
        for n in dims:
            comp = _spherical_component(n)
            passes = 0
            eps = None
            for _ in range(repeats):
                check = covariance_concentration_check(comp, size, delta, num_dirs, rng)
                eps = check.epsilon
                passes += int(check.passed)
            rows.append(
                {
                    "n": n,
                    "sample_size": size,
                    "delta": delta,
                    "epsilon": eps,
                    "vacuous": bool(eps >= 1.0),
                    "repeats": repeats,
                    "passes": passes,
                    "passed": bool(passes >= math.ceil(0.99 * repeats)),
                }
            )
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return {
        "suite": suite,
        "rows": rows,
        "all_pass": bool(all(r["passed"] for r in rows)),
    }
