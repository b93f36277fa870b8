"""The benchmark's per-layer tracer finds the functions it wraps by module
attribute name (perfbench/spans.py), so a renamed package function would
drop out of its metrics without an error: each traced target must exist."""
from __future__ import annotations

import importlib
import inspect
from pathlib import Path

from bimodfusion import engine as E

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_targets_are_package_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = layers.LayerStats(E).targets()
    assert targets
    for module, name, _ in targets:
        mod = importlib.import_module(f"{layers.PACKAGE}.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{module}.{name}"
