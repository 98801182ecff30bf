"""The benchmark reaches into sepmix by name; a refactor that renames or moves
one of those names must fail here rather than in a traced bench run."""

import importlib
import importlib.util
import sys
from pathlib import Path

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


def test_workloads_import(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert callable(workloads.input_seed)
