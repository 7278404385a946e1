"""Every name the package exports, and every function the benchmark traces, exists;
every shipped config and the README's config example parse; the benchmark's
check targets still come out of the config path it calls.

``perfbench/bench.py`` wraps the attributes in its ``TRACE_TARGETS`` by name,
and the suite does not run the benchmark, so a deleted or renamed function,
or a config key the parser no longer accepts, would otherwise break only
benchmark runs.
"""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import deformest
from deformest import cli

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


@pytest.mark.parametrize("name", sorted(cli.PROFILES))
def test_profiles_parse(name):
    raw = json.loads(json.dumps(cli.PROFILES[name]))
    if raw["mesh"].get("generator") is None:
        raw["mesh"] = {"path": "mesh.txt"}  # as ``repro --mesh`` supplies it
    cli.PipelineConfig.from_dict(raw)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert examples
    for example in examples:
        cli.PipelineConfig.from_dict(json.loads(example))


def test_perfbench_workload_configs_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        cli.PipelineConfig.from_dict(workloads.check_config(w))
        if w.primary == "learn":  # only these have a learn lattice
            cli.PipelineConfig.from_dict(workloads.learn_config(w))


def test_perfbench_check_targets_match_reference(monkeypatch):
    """make_reference builds its meshes and check targets through cli; the
    targets must still be the ones its stored reference fields were computed for."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    make_reference = importlib.import_module("make_reference")
    fields = json.loads((PERFBENCH / "reference.json").read_text())["fields"]
    for w in workloads.WORKLOADS.values():
        cfg = cli.PipelineConfig.from_dict(workloads.check_config(w))
        targets = make_reference.check_targets(cli.build_mesh(cfg), cfg)
        assert targets.tolist() == fields[workloads.mesh_key(w.spacing_mm)]["targets"], w.name
