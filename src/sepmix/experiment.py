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
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
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
from .kmedian import _NORMALIZATIONS, fit_spherical_mixture
from .model import (
    LabeledSampleSet,
    Mixture,
    _concentric_pair,
    _draw_count,
    _int_at_least,
    _real,
    make_gaussian,
    median_radius,
    random_rotation,
    sample_concentric_spherical_embedded,
    sample_mixture,
)
from .separation import _MODES, SeparationConfig, plant_separated_mixture
from .io import load_params, load_samples

SCENARIOS = ("classify_general", "classify_spherical", "fit", "validate")
SUITES = ("lemma5", "lemma6", "lemma7", "lemma8", "corollary4", "lemma12")
_KINDS = ("plant", "concentric_spherical", "params", "samples")
# plant keys older configs carry, each with the key that now sets its value
_RETIRED = {"c1": "mode", "c2": "mode", "eig_lo": "shapes", "eig_hi": "shapes"}


@dataclass
class ExperimentConfig:
    """One experiment: a data source, a scenario, and trial bookkeeping.

    Making a config reads it, once, into the plan every trial follows: the
    source's draw, the scenario bound to its settings, and the sample floor.
    Whatever would fail alike in every trial raises ValueError then, naming
    the key as ``part.key``.  ``trials``, ``master_seed`` and ``sample_size``
    are integers (not bools), at least 1, 0 and 0.  The five sections must be
    objects.  Each non-empty one is read in full, whichever scenario runs, and
    the scenario's own (with ``source``, except under validate) even when
    empty.  A ``params`` or ``samples`` source's file is read then.
    ``classifier`` holds ``k``, ``w_min`` and optionally ``delta``, which must
    make a ClassifierConfig.  A plant source's ``shapes`` defaults to
    [1.0, 1.0]; the keys ``c1``, ``c2``, ``eig_lo`` and ``eig_hi`` older plant
    configs carry are refused, since ``mode`` now fixes the constants and
    ``shapes`` gives the eigenvalue range.  Other keys in a section are
    ignored, among them the separation scale ``t`` and step cap older configs
    carry under ``classifier``, and ``source.radius_samples`` and
    ``source.estimate_radii``: median radii are computed exactly, without
    draws.  What is checked only while a plant is drawn (weights, shapes,
    slack's range), a sample too small for k and validate's option values
    fail per trial.  The plan is made from the sections as they are at
    construction.
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
        for part in _READERS:
            _object(getattr(self, part), part)
        _one_of(SCENARIOS)(self.scenario, "scenario")
        _int_at_least(self.trials, 1, "trials")
        _int_at_least(self.master_seed, 0, "master_seed")
        _int_at_least(self.sample_size, 0, "sample_size")
        parts, run = _PLANS[self.scenario]
        read = {
            part: reader(self)
            for part, reader in _READERS.items()
            if getattr(self, part) or part in parts
        }
        self._run = partial(run, *read[parts[-1]])
        self._draw, dim = read["source"] if "source" in parts else (None, None)
        self._floor = None
        if self.scenario == "classify_general" and dim is not None:
            (cc,) = read["classifier"]
            self._floor = guarantee_sample_floor(dim, cc.k, cc.delta, cc.w_min)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _object(doc, "config")
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


# ---------------------------------------------------------------------------
# the plan: each key read, with its default, and checked in one place
# ---------------------------------------------------------------------------


def _key(config: ExperimentConfig, name: str, check=None, default=MISSING):
    """The config's value for ``name`` ("part.key"), or ``default`` when the
    key is absent, passed through ``check(value, name)`` when one is given.

    Raises:
        ValueError: the key is absent and has no default ("part.key is
            required"), or ``check`` refuses the value.
    """
    part, _, key = name.partition(".")
    doc = getattr(config, part)
    if key not in doc and default is MISSING:
        raise ValueError(f"{name} is required")
    value = doc.get(key, default)
    return value if check is None else check(value, name)


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


def _count(value, name: str) -> int:
    return _int_at_least(value, 1, name)


def _one_of(choices: tuple):
    def check(value, name: str):
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        return value

    return check


def _made(part: str, build, **kwargs):
    """build(**kwargs), bad input it refuses raised as a ValueError on ``part``."""
    try:
        return build(**kwargs)
    except (TypeError, ValueError, SepmixError) as exc:
        raise ValueError(f"{part}: {exc}") from None


def _parse_shapes(raw, name: str):
    """JSON-friendly shape specs: a two-number list [lo, hi] is an eigenvalue
    range, any other list of numbers is a spectrum, {"spectrum": [...]} is a
    spectrum of any length (two numbers included), and a list of such entries
    gives one per component.

    Raises:
        ValueError: an entry is none of these; the message names ``name``.
    """

    def one(entry):
        if isinstance(entry, dict):
            if "spectrum" in entry:
                return np.asarray(entry["spectrum"], dtype=float)
            raise ValueError(f"shape entry needs 'spectrum': {entry}")
        seq = list(entry)
        if len(seq) == 2 and all(isinstance(v, (int, float)) for v in seq):
            return (float(seq[0]), float(seq[1]))
        return np.asarray(seq, dtype=float)

    try:
        if isinstance(raw, list) and raw and isinstance(raw[0], (list, dict, tuple)):
            return [one(e) for e in raw]
        return one(raw)
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _read_source(config: ExperimentConfig):
    """The source's draw(rng, seed) and the dimension the sample floor takes:
    None for a concentric pair or a sample file, whose runs report no floor."""
    src, dim = config.source, None
    kind = _key(config, "source.kind", _one_of(_KINDS))
    if kind == "plant":
        for key, instead in _RETIRED.items():
            if key in src:
                raise ValueError(f"source.{key} is retired: source.{instead} sets it")
        n, k = _key(config, "source.n", _count), _key(config, "source.k", _count)
        sep = _made(
            "source",
            SeparationConfig,
            t=_key(config, "source.t", _real),
            mode=_key(config, "source.mode", _one_of(_MODES), "practical"),
        )
        shapes = _key(config, "source.shapes", _parse_shapes, [1.0, 1.0])
        plant = dict(
            n=n,
            k=k,
            shape_spec=shapes,
            config=sep,
            slack=_key(config, "source.slack", _real, 1.0),
            weights=src.get("weights"),
        )
        draw, dim = partial(_draw_plant, plant), n
    elif kind == "concentric_spherical":
        sigmas = _key(config, "source.sigmas")
        count = np.size(sigmas)
        if count == 0:
            raise ValueError("source.sigmas must not be empty")
        pair = dict(sigmas=sigmas, weights=src.get("weights", [1.0 / count] * count))
        pair["ambient_dim"] = _key(config, "source.ambient_dim")
        _made("source", _concentric_pair, **pair, count=config.sample_size)
        draw = partial(_draw_concentric, pair)
    elif kind == "samples":
        draw = partial(_draw_samples, load_samples(_key(config, "source.path")))
    else:  # a mixture, read from a parameter file
        mixture = load_params(_key(config, "source.path"))
        draw, dim = partial(_draw_mixture, mixture), mixture.dim
    return partial(draw, config.sample_size), dim


def _read_classifier(config: ExperimentConfig) -> tuple[ClassifierConfig]:
    k = _key(config, "classifier.k", _count)
    w_min = _key(config, "classifier.w_min", _real)
    delta = _key(config, "classifier.delta", _real, 0.05)
    return (_made("classifier", ClassifierConfig, k=k, w_min=w_min, delta=delta),)


def _read_spherical(config: ExperimentConfig) -> tuple[int, float]:
    return _key(config, "spherical.k", _count), _key(config, "spherical.t", _real)


def _read_fit(config: ExperimentConfig) -> tuple[int, str]:
    k = _key(config, "fit.k", _count)
    return k, _key(config, "fit.normalization", _one_of(_NORMALIZATIONS), "paper")


def _read_validate(config: ExperimentConfig) -> tuple[str, dict]:
    suite = _key(config, "validate.suite", _one_of(SUITES), "lemma5")
    return suite, _key(config, "validate.options", _object, {})


# Draws: each looks its sampler up at call time, so that a rebinding of the
# module attribute sees the call.


def _draw_plant(plant: dict, size: int, rng, seed: int) -> LabeledSampleSet:
    return _draw_mixture(plant_separated_mixture(rng=rng, **plant), size, rng, seed)


def _draw_mixture(mixture: Mixture, size: int, rng, seed: int) -> LabeledSampleSet:
    return sample_mixture(mixture, rng, size, seed=seed)


def _draw_concentric(pair: dict, size: int, rng, seed: int) -> LabeledSampleSet:
    return sample_concentric_spherical_embedded(**pair, rng=rng, count=size, seed=seed)


def _draw_samples(data: tuple, size: int, rng, seed: int) -> LabeledSampleSet:
    points, labels = data
    return LabeledSampleSet(points=points, labels=labels, seed=seed)


# Scenarios: each runs on a trial's samples (None under validate), fills the
# report's scenario fields, and returns the partition to score, if any.


def _classify_general(config: ClassifierConfig, samples, rng, report):
    part = classify_general(samples, config)
    report.extras["peels"] = part.trace.records()
    return part


def _classify_spherical(k: int, t: float, samples, rng, report):
    return classify_spherical(samples, k=k, t=t)


def _fit(k: int, normalization: str, samples, rng, report):
    points = samples.points
    result = fit_spherical_mixture(points, k=k, rng=rng, normalization=normalization)
    report.objective = result.solution.objective
    report.extras.update(
        sigma=result.sigma,
        log_likelihood=result.log_likelihood,
        weights=result.weights.tolist(),
    )
    if samples.labels is not None:
        planted = _planted_restricted_objective(points, samples.labels)
        counts = np.bincount(samples.labels, minlength=k)
        report.extras.update(
            planted_objective=planted, sampled_weights=(counts / samples.size).tolist()
        )


def _validate(suite: str, options: dict, samples, rng, report):
    result = run_validation_suite(suite, options, rng)
    report.exact_match = result["all_pass"]
    report.extras["suite"] = result


# Section readers in the order they are read, and per scenario the sections
# it needs (its own last) and the function its trials run.
_READERS = {
    "source": _read_source,
    "classifier": _read_classifier,
    "spherical": _read_spherical,
    "fit": _read_fit,
    "validate": _read_validate,
}
_PLANS = {
    "classify_general": (("source", "classifier"), _classify_general),
    "classify_spherical": (("source", "spherical"), _classify_spherical),
    "fit": (("source", "fit"), _fit),
    "validate": (("validate",), _validate),
}


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


def _run_trial(config: ExperimentConfig, trial: int) -> TrialReport:
    """One trial of the config's plan: draw, run the scenario, score."""
    from .scoring import partition_compare

    seed = config.master_seed ^ trial
    rng = np.random.default_rng(seed)
    report = TrialReport(trial=trial, seed=seed)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            warnings.simplefilter("ignore", SampleBalanceWarning)
            samples = None if config._draw is None else config._draw(rng, seed)
            part = config._run(samples, rng, report)
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
    reports = [_run_trial(config, i) for i in range(config.trials)]
    metadata = {"scenario": config.scenario, "trials": config.trials}
    if config._floor is not None:
        metadata["sample_floor"] = config._floor
        metadata["meets_sample_floor"] = bool(config.sample_size >= config._floor)
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


def _component(n: int, top: float = 1.0, rng=None):
    """N(0, diag(top, 1, ..., 1)) with its median radius set, Haar-rotated
    by a rotation drawn from ``rng`` when one is given: the standard normal
    at the default ``top``."""
    n = _int_at_least(n, 1, "n")
    lam = np.ones(n)
    lam[0] = top
    rot = None if rng is None else random_rotation(n, rng)
    comp = make_gaussian(np.zeros(n), lam, rot)
    median_radius(comp)
    return comp


def _bound_row(bound, **inputs) -> dict:
    return {**inputs, **asdict(bound)}


def run_validation_suite(suite: str, options: dict, rng: np.random.Generator) -> dict:
    """Run one named Monte Carlo suite; returns rows plus an overall verdict.

    Option values are checked, not cast: a count that is not an integer
    (20000.7) or a number given as a string ("0.1") raises ValueError.
    """
    options = dict(options or {})
    num = options.get("num_samples", 100_000)
    rows: list[dict] = []
    if suite in ("lemma5", "lemma7"):
        checker = shell_mass_check if suite == "lemma5" else pair_distance_check
        t_values = options.get("t_values", [1.0, 2.0, 3.0])
        dims = options.get("dims", [8, 64])
        for n in dims:
            for shape in ("spherical", "eccentric"):
                comp = _component(n, 1.0 if shape == "spherical" else 100.0)
                for t in t_values:
                    b = checker(comp, t, num, rng)
                    rows.append(_bound_row(b, n=n, shape=shape, t=t))
    elif suite == "lemma6":
        # the center, a point 10 median radii out, and a random point of a
        # rotated eccentric component, drawn in this order
        for n, t, at in ((16, 2.0, "center"), (32, 2.0, "10R"), (4, 1.0, "random")):
            comp = _component(n, 9.0, rng) if at == "random" else _component(n)
            z = np.zeros(n)
            if at == "10R":
                z[0] = 10.0 * comp.median_radius
            elif at == "random":
                z = rng.standard_normal(n)
            b = point_distance_check(comp, z, t, num, rng)
            rows.append(_bound_row(b, n=n, t=t, z=at))
    elif suite == "lemma8":
        # checked before the first plant draws, under the option's own name
        num = _draw_count(num, 10_000, "num_samples")
        t_values = options.get("t_values", [1.0, 2.0])
        for t in t_values:
            for shape, n in (("spherical", 32), ("eccentric", 16)):
                eccentric = shape == "eccentric"
                spec = _component(n, 100.0).eigenvalues if eccentric else (1.0, 1.0)
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
        n = options.get("n", 8)
        grid_points = _int_at_least(options.get("grid_points", 40), 2, "grid_points")
        draws = options.get("num_samples", 1_000_000)
        comp = _component(n)
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
        size = options.get("sample_size", 100_000)
        delta = _real(options.get("delta", 0.1), "delta")
        repeats = _int_at_least(options.get("repeats", 10), 1, "repeats")
        num_dirs = options.get("num_directions", 16)
        for n in dims:
            comp = _component(n)
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
