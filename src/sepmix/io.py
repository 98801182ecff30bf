"""CSV/JSON serialization for samples, mixture parameters, and partitions.

Floats are written with 17 significant digits, which round-trips IEEE
doubles bit for bit.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NonOrthonormalRotation,
    NonPositiveEigenvalue,
    ParseError,
    SchemaError,
)
from .model import LabeledSampleSet, Mixture, make_gaussian

_FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def save_samples(path, samples: LabeledSampleSet | np.ndarray, labels=None) -> None:
    """Write points (and labels, when present) as CSV with dim_i columns."""
    if isinstance(samples, LabeledSampleSet):
        points, labels = samples.points, samples.labels
    else:
        points = np.asarray(samples, dtype=float)
    n = points.shape[1]
    header = [f"dim_{i}" for i in range(n)]
    if labels is not None:
        header.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(points):
            out = [_fmt(v) for v in row]
            if labels is not None:
                out.append(str(int(labels[i])))
            writer.writerow(out)


def load_samples(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a samples CSV; returns (points, labels-or-None).

    Raises ParseError with the offending line (and column for bad fields),
    and NonFiniteInput when a point coordinate is NaN or infinite.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        has_label = bool(header) and header[-1] == "label"
        dim_cols = header[:-1] if has_label else header
        expected = [f"dim_{i}" for i in range(len(dim_cols))]
        if dim_cols != expected:
            raise ParseError(
                f"header {header!r} is not dim_0..dim_{{n-1}}[,label]", line=1
            )
        rows, labels = [], []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(rec)}", line=lineno
                )
            vals = []
            for col, tok in enumerate(rec[: len(dim_cols)], start=1):
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise ParseError(
                        f"bad float {tok!r}", line=lineno, column=col
                    ) from None
            rows.append(vals)
            if has_label:
                try:
                    labels.append(int(rec[-1]))
                except ValueError:
                    raise ParseError(
                        f"bad label {rec[-1]!r}", line=lineno, column=len(header)
                    ) from None
    if not rows:
        raise ParseError("no data rows", line=2)
    points = np.asarray(rows, dtype=float)
    finite = np.isfinite(points)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteInput(
            f"non-finite value {points[row, col]} in data row {row + 1}, "
            f"column {col + 1}"
        )
    return points, (np.asarray(labels, dtype=int) if has_label else None)


def save_params(path, mixture: Mixture) -> None:
    """Write mixture parameters as JSON."""
    comps = []
    for w, c in zip(mixture.weights, mixture.components):
        entry = {
            "weight": float(w),
            "center": [float(v) for v in c.center],
            "eigenvalues": [float(v) for v in c.eigenvalues],
        }
        if c.rotation is not None:
            entry["rotation"] = [[float(v) for v in row] for row in c.rotation]
        comps.append(entry)
    Path(path).write_text(json.dumps({"components": comps}, indent=2) + "\n")


def load_params(path) -> Mixture:
    """Read mixture parameters from JSON.

    Raises:
        ParseError: not valid JSON.
        SchemaError: valid JSON violating the component schema (missing
            keys, bad shapes, nonpositive eigenvalues, non-orthonormal
            rotation, weights not summing to 1).
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict) or "components" not in doc:
        raise SchemaError('top level must be an object with a "components" list')
    raw = doc["components"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError('"components" must be a nonempty list')
    comps, weights = [], []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"component {i} is not an object")
        missing = {"weight", "center", "eigenvalues"} - set(entry)
        if missing:
            raise SchemaError(f"component {i} missing keys {sorted(missing)}")
        try:
            comps.append(
                make_gaussian(
                    entry["center"], entry["eigenvalues"], entry.get("rotation")
                )
            )
        except (NonPositiveEigenvalue, NonOrthonormalRotation, DimensionMismatch) as exc:
            raise SchemaError(f"component {i}: {exc}") from None
        weights.append(float(entry["weight"]))
    try:
        return Mixture(components=comps, weights=np.asarray(weights))
    except (ValueError, DimensionMismatch) as exc:
        raise SchemaError(str(exc)) from None


def save_partition(path, labels: np.ndarray) -> None:
    """Write a cluster-id-per-point CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster"])
        for v in labels:
            writer.writerow([str(int(v))])


def load_partition(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["cluster"]:
            raise ParseError(f"header {header!r} is not ['cluster']", line=1)
        out = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            try:
                out.append(int(rec[0]))
            except ValueError:
                raise ParseError(f"bad cluster id {rec[0]!r}", line=lineno) from None
    return np.asarray(out, dtype=int)
