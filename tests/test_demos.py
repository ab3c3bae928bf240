"""Demos: each script in ``demos/`` runs to completion with a clean stderr.

A demo runs from a copy in a temporary directory, because demo 03 writes
its CSV next to itself.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import symclone

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path):
    script = Path(shutil.copy(demo, tmp_path))
    # the package this suite imports comes first, then the inherited path
    paths = [str(Path(symclone.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
