"""Every demo script runs to completion against the current public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import collabnet

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter in an empty directory, importing the package under test
    env = dict(os.environ, PYTHONPATH=str(Path(collabnet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
