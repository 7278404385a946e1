"""Smoke tests: every demo script runs to completion.

Each demo runs as a subprocess in one shared temporary directory, in file
order, because 04 reads the dataset that 03 writes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("demos")


def run_demo(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, workdir):
    if demo.name.startswith("04") and not (workdir / "box_dataset.ds").exists():
        assert run_demo(ROOT / "demos" / "03_dataset_generation.py", workdir).returncode == 0
    done = run_demo(demo, workdir)
    assert done.returncode == 0, done.stderr
