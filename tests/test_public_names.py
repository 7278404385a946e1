"""Every name the package exports, and every function the benchmark traces, exists.

``perfbench/bench.py`` wraps the attributes in its ``TRACE_TARGETS`` by name,
and the suite does not run the benchmark, so a deleted or renamed function
would otherwise break only traced benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

import deformest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ["cli", "evaluation", "fem", "mesh", "nn", "sampling"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"deformest.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"deformest.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(deformest.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{mod}.{name}"
        for mod, name in imported
        if not hasattr(importlib.import_module(f"deformest.{mod}"), name)
        or not hasattr(deformest, name)
    ]
    assert not missing, f"deformest/__init__.py names missing: {missing}"


def test_perfbench_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    assert bench.TRACE_TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in bench.TRACE_TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"perfbench TRACE_TARGETS that do not resolve: {missing}"
