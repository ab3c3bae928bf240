"""Tools: ``tools/same_output.py`` compares the CLI output of two source trees."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAME_OUTPUT = ROOT / "tools" / "same_output.py"


def _same_output(*args):
    return subprocess.run([sys.executable, str(SAME_OUTPUT), *args],
                          capture_output=True, text=True, timeout=300)


def test_same_output_finds_a_tree_identical_to_itself():
    result = _same_output("--against", str(ROOT), "--shots", "2000", "--seeds", "0")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 7 and all(line.startswith("identical  ") for line in lines[:6])
    assert lines[-1] == "6/6 commands identical"


def test_same_output_needs_a_source_tree(tmp_path):
    result = _same_output("--against", str(tmp_path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: no symclone source tree")
