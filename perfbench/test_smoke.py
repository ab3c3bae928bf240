"""Smoke test of the benchmark at reduced sizes: every workload runs, its
checks pass, and every metric named in BENCHMARK.json is emitted.

Run with ``python -m pytest -q perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(name, trace, seed=3):
    return harness.measure(name, seed, seconds=0.0, trace=trace, small=True, probes=1)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_run_is_correct_and_emits_every_metric(name, trace):
    result = _small(name, trace)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name, layer_metric", [
    ("mc_ideal_I", "experiment.batches"),
    ("cascade_grid", "bosonic.beam_splitter.terms_out"),
    ("engine_small", "bosonic.coalescence_enhancement.calls"),
])
def test_traced_counts_repeat_for_a_fixed_seed(name, layer_metric):
    first, second = (_small(name, True)["result"]["metrics"] for _ in range(2))
    assert first[layer_metric]["value"] > 0
    for key in tracing.DETERMINISTIC:
        assert first[key] == second[key], key


def test_monte_carlo_digests_are_recorded():
    record = _small("mc_degraded_IV", False)
    assert set(record["digests"]) == {"experiment_IV.csv", "experiment_IV.json"}


def test_command_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "engine_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
