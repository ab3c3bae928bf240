"""Tools: ``tools/same_output.py`` compares the CLI output of two source trees."""

import argparse
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert len(lines) == 30 and all(line.startswith("identical  ") for line in lines[:29])
    assert lines[15] == "identical  symclone --help"
    assert lines[21] == "identical  formulas --n 2 --m 1 (usage error)"
    assert lines[-1] == "29/29 commands identical"


def test_same_output_states_the_largest_json_difference(tmp_path):
    # a tree whose f_clon is off by 0.25 changes the cascade outputs and the
    # clone outputs, whose fidelity is f_clon(1, 2, d), and one help text and one error message of its CLI change the standard
    # output of ``formulas --help`` and the standard error of a usage error
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cloning = tmp_path / "src" / "symclone" / "cloning.py"
    cloning.write_text(cloning.read_text() + "\n\n_f_clon = f_clon\n\n\n"
                       "def f_clon(n, m, d):\n    return _f_clon(n, m, d) + 0.25\n")
    cli = tmp_path / "src" / "symclone" / "cli.py"
    text = cli.read_text()
    for old, new in [('help="input copies N"', 'help="copies N"'),
                     ("need an increasing delay range", "need a rising delay range")]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text)
    result = _same_output("--against", str(tmp_path), "--shots", "2000", "--seeds", "0")
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert all(line.startswith("identical  ") for line in lines[:6])
    assert lines[6] == ("different  cascade --json  "
                        "(stdout: largest difference 0.25 over 40 numbers)")
    assert lines[9] == ("different  cascade --json 1->10 d=8 amplitudes  "
                        "(stdout: largest difference 0.25 over 136 numbers)")
    assert lines[10] == "different  cascade 2->6 IV:2  (stdout)"
    assert lines[11] == "different  clone  (stdout)"
    assert lines[12] == ("different  clone --json  "
                         "(stdout: largest difference 0.25 over 38 numbers)")
    assert lines[13] == ("different  cascade --json 1->2 IV:3  "
                         "(stdout: largest difference 0.25 over 40 numbers)")
    assert lines[14] == "identical  hom"
    assert lines[15] == "identical  symclone --help"
    assert lines[16] == "different  formulas --help  (stdout)"
    assert all(line.startswith("identical  ") for line in lines[17:23])
    assert lines[23] == "different  hom --steps 1 (usage error)  (stderr)"
    assert all(line.startswith("identical  ") for line in lines[24:26])
    assert lines[26] == ("different  clone --json d=3 amplitudes  "
                         "(stdout: largest difference 0.25 over 24 numbers)")
    assert lines[27] == "different  clone IV:2  (stdout)"
    assert lines[28] == "identical  hom IV:1 ancilla I:1"
    assert lines[-1] == "17/29 commands identical"


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


def test_seeds_reject_a_part_that_names_no_seed():
    assert same_output._seeds("0-2,5,7-7") == [0, 1, 2, 5, 7]
    # "5-3" is reversed, an empty range, which once compared no experiment
    # command at all and still reported every command identical
    for text, part in [("5-3", "5-3"), ("0-9,", ""), ("1,,2", ""), ("3-", "3-"), ("-3", "-3"),
                       ("x", "x")]:
        with pytest.raises(argparse.ArgumentTypeError, match=f"bad seed range {part!r}"):
            same_output._seeds(text)


def test_same_output_rejects_a_reversed_seed_range():
    result = _same_output("--against", str(ROOT), "--seeds", "5-3")
    assert result.returncode == 2
    assert "argument --seeds: bad seed range '5-3'" in result.stderr
    assert result.stdout == ""
