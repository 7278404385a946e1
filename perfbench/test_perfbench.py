"""Tests of the benchmark itself, on seconds-long variants of its workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_deformest()

import bench  # noqa: E402
import workloads  # noqa: E402

TINY = ["tiny-sample-fine", "tiny-learn-desk"]


def declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY)
def test_tiny_run_reports_every_metric_and_passes_gate(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    w = workloads.WORKLOADS["tiny-learn-desk"]
    r = bench.Run(w, seed=2, seconds=0.5, traced=False, workdir=tmp_path_factory.mktemp("run"))
    r.execute()
    return r.out


def perturb_field(out):
    out.check_fields[0, 7] += 0.05  # 12.8 mm on one vertex component


def poison_field(out):
    out.check_fields[1, 0] = np.nan


def perturb_cv(out):
    out.cv_rmse_mm[:] = [v * 2 for v in out.cv_rmse_mm]


def unsampled(out):
    out.attempted = out.completed = 0


@pytest.mark.parametrize("perturb", [perturb_field, poison_field, perturb_cv, unsampled])
def test_gate_fails_on_perturbed_output(tiny_outputs, perturb):
    assert bench.gate_failures(tiny_outputs) == []
    bad = copy.deepcopy(tiny_outputs)
    perturb(bad)
    assert bench.gate_failures(bad)


def test_fails_without_sources(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run must fail and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_gate_fails_when_predict_output_is_perturbed(tmp_path, monkeypatch):
    predict = bench.nn.predict
    monkeypatch.setattr(bench.nn, "predict", lambda model, obs: predict(model, obs) + 1e-6)
    w = workloads.WORKLOADS["tiny-sample-fine"]
    r = bench.Run(w, seed=2, seconds=0.1, traced=False, workdir=tmp_path)
    r.execute()
    problems = bench.gate_failures(r.out)
    assert len(problems) == 1 and "nn.predict" in problems[0]
