"""Spans around sepmix layer calls, recorded from outside the package.

Each traced function is rebound, on the module that looks the name up at
call time, to a wrapper that records a span: name, start, end, parent, the
trial it belongs to, the tracemalloc peak above the span's starting level,
and optional counts taken from the call's arguments and result.  Nothing
under ``src/`` changes.  Spans stay in memory until the run writes them out.

numpy reports its data buffers to tracemalloc, so a span's peak covers the
arrays it allocates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    trial: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    start: float
    end: float = 0.0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack with a tracemalloc peak per open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        # Absolute tracemalloc peak seen so far by each open span, and the
        # traced size when it opened.
        self._peak: list[int] = []
        self._base: list[int] = []
        self.trial = -1

    def open(self, name: str) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._peak:
            self._peak[-1] = max(self._peak[-1], peak)
        tracemalloc.reset_peak()
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        self._base.append(current)
        self._peak.append(current)
        self.spans.append(Span(name, self.trial, parent, time.perf_counter()))
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span_peak = max(self._peak.pop(), peak)
        span = self.spans[idx]
        span.end = end
        span.peak_bytes = span_peak - self._base.pop()
        if self._peak:
            self._peak[-1] = max(self._peak[-1], span_peak)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# Counters run after the span closes, on the call's bound arguments (defaults
# applied) and its result.


def _peel_counts(result, a):
    steps = result.trace.steps
    m = result.size()
    return {"peels": len(steps), "gap_steps": sum(s.s for s in steps), "m_sq": m * m}


def _spherical_counts(result, a):
    m = result.size()
    return {"m_sq": m * m}


def _dist_entries(result, a):
    return {"entries": int(result.size)}


def _eig_rows(result, a):
    return {"rows": int(len(a["points"]))}


def _radius_draws(result, a):
    mc = a["method"] == "mc" or (a["method"] == "auto" and not a["params"].is_spherical())
    return {"draws": int(a["num_samples"]) if mc else 0}


def _file_bytes(result, a):
    return {"csv_bytes": os.path.getsize(a["path"])}


def _draws(arg: str, per_draw: int = 1):
    return lambda result, a: {"draws": per_draw * int(a[arg])}


# (module, attribute, span name, counter).  Each entry is a name looked up at
# call time by the module that calls it; the benchmark itself calls the
# entry points through their module attributes, so those are rebound too.
PATCHES = [
    ("sepmix.cli", "main", "cli.main", None),
    ("sepmix.cli", "classify_general", "classify.general", _peel_counts),
    ("sepmix.experiment", "classify_general", "classify.general", _peel_counts),
    ("sepmix.classify", "pairwise_sq_dists", "classify.dists", _dist_entries),
    ("sepmix.classify", "max_variance", "classify.eig", _eig_rows),
    ("sepmix.classify", "classify_spherical", "classify.spherical", _spherical_counts),
    ("sepmix.kmedian", "fit_spherical_mixture", "kmedian.fit", None),
    ("sepmix.kmedian", "kmedian_local_search", "kmedian.search", None),
    ("sepmix.cli", "median_radius", "model.median_radius", _radius_draws),
    ("sepmix.separation", "median_radius", "model.median_radius", _radius_draws),
    ("sepmix.experiment", "median_radius", "model.median_radius", _radius_draws),
    ("sepmix.model", "sample", "model.sample", None),
    ("sepmix.concentration", "sample", "model.sample", None),
    ("sepmix.cli", "sample_mixture", "model.sample", None),
    ("sepmix.experiment", "sample_mixture", "model.sample", None),
    ("sepmix.experiment", "sample_concentric_spherical_embedded", "model.sample", None),
    ("sepmix.cli", "plant_separated_mixture", "separation.plant", None),
    ("sepmix.experiment", "plant_separated_mixture", "separation.plant", None),
    ("sepmix.cli", "save_samples", "io.write", _file_bytes),
    ("sepmix.cli", "save_partition", "io.write", _file_bytes),
    ("sepmix.cli", "save_params", "io.write", None),
    ("sepmix.cli", "load_samples", "io.read", _file_bytes),
    ("sepmix.cli", "load_params", "io.read", None),
    ("sepmix.experiment", "load_samples", "io.read", _file_bytes),
    ("sepmix.experiment", "load_params", "io.read", None),
    ("sepmix.scoring", "partition_compare", "scoring.compare", None),
    ("sepmix.experiment", "run_experiment", "experiment.run", None),
    ("sepmix.experiment", "run_validation_suite", "experiment.suite", None),
    ("sepmix.experiment", "shell_mass_check", "concentration.shell_mass", _draws("num_samples")),
    ("sepmix.experiment", "point_distance_check", "concentration.point_distance", _draws("num_samples")),
    ("sepmix.experiment", "pair_distance_check", "concentration.pair_distance", _draws("num_pairs", 2)),
    ("sepmix.experiment", "cross_pair_check", "concentration.cross_pair", _draws("num_pairs", 2)),
    ("sepmix.experiment", "ball_growth_check", "concentration.ball_growth", _draws("num_samples")),
    ("sepmix.experiment", "covariance_concentration_check", "concentration.covariance", _draws("sample_size")),
]


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[idx].counts = counter(result, bound.arguments)
        return result

    return wrapper


class Rebinding:
    """Context manager that installs the span wrappers and restores the
    original functions on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(self.tracer, name, original, counter))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# Per-layer metrics: name -> (kind, span names, count key).  total / self sum
# span durations (self subtracts direct children), calls counts spans, sum
# adds a count, peak takes the largest tracemalloc peak.  Each is taken per
# traced trial and averaged over them, except peak, which is the maximum.
_CONCENTRATION = (
    "concentration.shell_mass",
    "concentration.pair_distance",
    "concentration.point_distance",
    "concentration.cross_pair",
    "concentration.ball_growth",
    "concentration.covariance",
)
LAYER_METRICS = {
    "classify.general_s": ("total", ("classify.general",), None),
    "classify.dists_s": ("total", ("classify.dists",), None),
    "classify.dist_entries": ("sum", ("classify.dists",), "entries"),
    "classify.peel_rest_s": ("self", ("classify.general",), None),
    "classify.eig_s": ("total", ("classify.eig",), None),
    "classify.eig_calls": ("calls", ("classify.eig",), None),
    "classify.eig_rows": ("sum", ("classify.eig",), "rows"),
    "classify.peels": ("sum", ("classify.general",), "peels"),
    "classify.gap_steps": ("sum", ("classify.general",), "gap_steps"),
    "classify.spherical_s": ("total", ("classify.spherical",), None),
    "classify.general_peak_mb": ("peak", ("classify.general",), None),
    "classify.spherical_peak_mb": ("peak", ("classify.spherical",), None),
    "kmedian.fit_s": ("total", ("kmedian.fit",), None),
    "kmedian.search_s": ("total", ("kmedian.search",), None),
    "kmedian.fit_peak_mb": ("peak", ("kmedian.fit",), None),
    "model.median_radius_s": ("total", ("model.median_radius",), None),
    "model.median_radius_draws": ("sum", ("model.median_radius",), "draws"),
    "model.sample_s": ("total", ("model.sample",), None),
    "separation.plant_s": ("self", ("separation.plant",), None),
    "io.write_s": ("total", ("io.write",), None),
    "io.read_s": ("total", ("io.read",), None),
    "io.csv_bytes": ("sum", ("io.write", "io.read"), "csv_bytes"),
    "cli.self_s": ("self", ("cli.main",), None),
    "scoring.compare_s": ("total", ("scoring.compare",), None),
    "experiment.self_s": ("self", ("experiment.run",), None),
    "experiment.suite_self_s": ("self", ("experiment.suite",), None),
    **{f"{n}_s": ("total", (n,), None) for n in _CONCENTRATION},
    "concentration.draws": ("sum", _CONCENTRATION, "draws"),
}


def layer_metrics(spans: list[Span], trials: int) -> dict[str, float]:
    """Per-layer metrics over the spans of ``trials`` traced trials, plus
    ``classify.dist_reuse``: M^2 per classify call over distance entries."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    out = {}
    for metric, (kind, names, key) in LAYER_METRICS.items():
        picked = [(i, s) for i, s in enumerate(spans) if s.name in names]
        if kind == "peak":
            out[metric] = max((s.peak_bytes for _, s in picked), default=0) / MIB
            continue
        if kind == "total":
            total = sum(s.duration for _, s in picked)
        elif kind == "self":
            total = sum(s.duration - child_time[i] for i, s in picked)
        elif kind == "calls":
            total = len(picked)
        else:
            total = sum(s.counts.get(key, 0) for _, s in picked)
        out[metric] = total / trials
    m_sq = sum(
        s.counts.get("m_sq", 0)
        for s in spans
        if s.name in ("classify.general", "classify.spherical")
    )
    entries = out["classify.dist_entries"] * trials
    out["classify.dist_reuse"] = m_sq / entries if entries else 0.0
    return out
