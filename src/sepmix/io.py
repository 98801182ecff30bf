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
from .model import LabeledSampleSet, Mixture, _real, make_gaussian

_FLOAT_FMT = "%.17g"
# Rows per block: save_samples formats one block per write, load_samples
# converts one block per numpy cast.  A block's text and tokens stay well
# under glibc's 128 KiB mmap threshold, so freeing them does not raise the
# threshold, and with it the process's later peak RSS.
_ROWS_PER_BLOCK = 256


def save_samples(path, samples: LabeledSampleSet | np.ndarray, labels=None) -> None:
    """Write points (and labels, when present) as CSV with dim_i columns.

    Each row is one %-format of its values, which gives the bytes
    ``csv.writer`` gave for the same fields: no formatted float or integer
    holds a character that needs quoting.
    """
    if isinstance(samples, LabeledSampleSet):
        points, labels = samples.points, samples.labels
    else:
        points = np.asarray(samples, dtype=float)
    n = points.shape[1]
    header = [f"dim_{i}" for i in range(n)]
    row_fmt = ",".join([_FLOAT_FMT] * n)
    if labels is not None:
        header.append("label")
        row_fmt += ",%d"
        labels = np.asarray(labels)
    row_fmt += "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, points.shape[0], _ROWS_PER_BLOCK):
            rows = points[a : a + _ROWS_PER_BLOCK].tolist()
            if labels is not None:
                block_labels = labels[a : a + _ROWS_PER_BLOCK].tolist()
                for row, label in zip(rows, block_labels):
                    row.append(label)
            fh.write("".join([row_fmt % tuple(row) for row in rows]))


def load_samples(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a samples CSV; returns (points, labels-or-None).

    Rows are tokenized by ``csv.reader`` and each block of them converted in
    one numpy cast, which parses a token as ``float`` does.  Only when a
    cast fails is the block searched for the bad field.

    Raises ParseError with the offending line (and column for bad fields),
    and NonFiniteInput when a point coordinate is NaN or infinite.  Of
    several faults, the first in the file is reported, as a row-by-row
    parse would.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        has_label = bool(header) and header[-1] == "label"
        n = len(header) - has_label
        if header[:n] != [f"dim_{i}" for i in range(n)]:
            raise ParseError(
                f"header {header!r} is not dim_0..dim_{{n-1}}[,label]", line=1
            )
        parsed, block, lines = [], [], []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                _parse_block(block, lines, n, has_label)  # earlier faults first
                raise ParseError(
                    f"expected {len(header)} fields, got {len(rec)}", line=lineno
                )
            block.append(rec)
            lines.append(lineno)
            if len(block) == _ROWS_PER_BLOCK:
                parsed.append(_parse_block(block, lines, n, has_label))
                block, lines = [], []
    if block:
        parsed.append(_parse_block(block, lines, n, has_label))
    if not parsed:
        raise ParseError("no data rows", line=2)
    points = np.concatenate([p for p, _ in parsed])
    finite = np.isfinite(points)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteInput(
            f"non-finite value {points[row, col]} in data row {row + 1}, "
            f"column {col + 1}"
        )
    return points, (np.concatenate([l for _, l in parsed]) if has_label else None)


def _parse_block(records, lines, n: int, has_label: bool):
    """(points, labels or None) of tokenized rows found on ``lines``.

    Raises:
        ParseError: for the first field, in file order, that does not
            parse: a coordinate as ``float`` or the label as an int64
            (_int64).  When every field parses alone, the cast's own error
            is raised.
    """
    try:
        if not has_label:
            return np.array(records, dtype=float), None
        return (
            np.array([rec[:n] for rec in records], dtype=float),
            np.array([int(rec[n]) for rec in records], dtype=int),
        )
    except (ValueError, OverflowError) as exc:
        error = exc
    for rec, lineno in zip(records, lines):
        for col, tok in enumerate(rec[:n], start=1):
            try:
                float(tok)
            except ValueError:
                raise ParseError(
                    f"bad float {tok!r}", line=lineno, column=col
                ) from None
        if has_label:
            try:
                _int64(rec[n])
            except ValueError:
                raise ParseError(
                    f"bad label {rec[n]!r}", line=lineno, column=n + 1
                ) from None
    raise error


def _int64(token: str) -> int:
    """``token`` parsed by ``int``.

    Raises:
        ValueError: it does not parse, or lies outside the int64 range.
    """
    value = int(token)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{token!r} is outside the int64 range")
    return value


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
            keys, bad shapes, entries that are not numbers, NaN or infinite
            entries, nonpositive eigenvalues, non-orthonormal rotation,
            weights not summing to 1).
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
            weights.append(_real(entry["weight"], "weight"))
        except (
            NonFiniteInput,
            NonPositiveEigenvalue,
            NonOrthonormalRotation,
            DimensionMismatch,
            TypeError,
            ValueError,
        ) as exc:
            raise SchemaError(f"component {i}: {exc}") from None
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
    """Read a cluster-id-per-point CSV; blank lines are skipped.

    Raises:
        ParseError: the header is not ``cluster``, or an id is not an int64
            (_int64).
    """
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
                out.append(_int64(rec[0]))
            except ValueError:
                raise ParseError(
                    f"bad cluster id {rec[0]!r}", line=lineno, column=1
                ) from None
    return np.asarray(out, dtype=int)
