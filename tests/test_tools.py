"""Tools: ``tools/same_output.py`` compares the CLI output of two source trees."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAME_OUTPUT = ROOT / "tools" / "same_output.py"

_spec = importlib.util.spec_from_file_location("same_output", SAME_OUTPUT)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def _same_output(*args):
    return subprocess.run([sys.executable, str(SAME_OUTPUT), *args],
                          capture_output=True, text=True, timeout=300)


def test_same_output_finds_a_tree_identical_to_itself():
    result = _same_output("--against", str(ROOT), "--shots", "2000", "--seeds", "0")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 15 and all(line.startswith("identical  ") for line in lines[:14])
    assert lines[-1] == "14/14 commands identical"


def test_same_output_states_the_largest_json_difference(tmp_path):
    # a tree whose f_clon is off by 0.25 changes only the cascade outputs
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cloning = tmp_path / "src" / "symclone" / "cloning.py"
    cloning.write_text(cloning.read_text() + "\n\n_f_clon = f_clon\n\n\n"
                       "def f_clon(n, m, d):\n    return _f_clon(n, m, d) + 0.25\n")
    result = _same_output("--against", str(tmp_path), "--shots", "2000", "--seeds", "0")
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert all(line.startswith("identical  ") for line in lines[:6])
    assert lines[6] == ("different  cascade --json  "
                        "(stdout: largest difference 0.25 over 40 numbers)")
    assert lines[9] == ("different  cascade --json 1->10 d=8 amplitudes  "
                        "(stdout: largest difference 0.25 over 136 numbers)")
    assert lines[10] == "different  cascade 2->6 IV:2  (stdout)"
    assert lines[11] == "identical  clone --json"
    assert lines[12] == "identical  clone --mode oracle --json IV:3"
    assert lines[13] == "identical  hom"
    assert lines[-1] == "9/14 commands identical"


def test_difference_report_needs_two_json_values_of_one_shape():
    report = same_output._difference
    assert report(b'{"a": [1, 2.0], "b": "x"}', b'{"a": [1, 2.5], "b": "x"}') == (
        ": largest difference 0.5 over 2 numbers")
    assert report(b'{"a": [1, 2.0]}', b'{"a": [1, 2.0, 3.0]}') == ""
    assert report(b'{"a": true}', b'{"a": 1}') == ""
    assert report(b'{"b": "x"}', b'{"b": "y"}') == ""
    assert report(b"rows 1", b"rows 2") == ""
    assert report(b"{}", None) == ""


def test_same_output_needs_a_source_tree(tmp_path):
    result = _same_output("--against", str(tmp_path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: no symclone source tree")
