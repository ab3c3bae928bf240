"""Command-line surface: flags, exit codes, CSV/JSON outputs, schemas."""

import csv
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

try:
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    HAVE_JSONSCHEMA = True
except ImportError:  # pragma: no cover
    HAVE_JSONSCHEMA = False

import symclone
from symclone import cli, experiment
from symclone.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, HOM_MAX_STEPS, main, parse_state_spec
from symclone.hilbert import basis_four


def _load_schemas() -> dict:
    schemas = {}
    for entry in resources.files("symclone.schemas").iterdir():
        if entry.name.endswith(".schema.json"):
            schemas[entry.name.removesuffix(".schema.json")] = json.loads(
                entry.read_text()
            )
    return schemas


def _validator(name: str):
    schemas = _load_schemas()
    registry = Registry().with_resources(
        (s["$id"], Resource.from_contents(s)) for s in schemas.values()
    )
    return Draft7Validator(schemas[name], registry=registry)


needs_jsonschema = pytest.mark.skipif(not HAVE_JSONSCHEMA, reason="jsonschema missing")


# ---------------------------------------------------------- input parsing


def test_parse_basis_specs():
    state, label = parse_state_spec("I:1")
    assert np.allclose(state.amps, [1, 0, 0, 0])
    assert label == "I:1"
    state, _ = parse_state_spec("IV:3")
    assert np.allclose(state.amps, basis_four().states[2].amps)


def test_parse_amplitude_spec():
    state, _ = parse_state_spec("1,0")
    assert np.allclose(state.amps, [1, 0])
    state, _ = parse_state_spec("1+1j, 1-1j")
    assert state.dim == 2
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_parse_normalizes_with_warning(capsys):
    state, _ = parse_state_spec("2,0")
    assert np.allclose(state.amps, [1, 0])
    assert "normalizing" in capsys.readouterr().err


def test_parse_errors():
    from symclone.cli import _UsageError

    for bad in ["I:9", "I:x", "nonsense"]:
        with pytest.raises(_UsageError):
            parse_state_spec(bad)
    # amplitudes that parse are checked by PureState.normalized
    with pytest.raises(ValueError, match="below 1e-12"):
        parse_state_spec("0,0")


# ------------------------------------------------------------------ formulas


def test_formulas_text_output(capsys):
    assert main(["formulas", "--n", "1", "--m", "2", "--d", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "= 0.4" in out and "= 0.7" in out


@needs_jsonschema
def test_formulas_json_matches_schema(capsys):
    assert main(["formulas", "--n", "1", "--m", "2", "--d", "2", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    _validator("formulas_result").validate(payload)
    assert payload["fClon"] == pytest.approx(5 / 6, abs=1e-15)


def test_formulas_rejects_m_not_above_n(capsys):
    assert main(["formulas", "--n", "2", "--m", "1", "--d", "4"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


# --------------------------------------------------------------------- clone


@needs_jsonschema
def test_clone_logical_input(capsys):
    assert main(["clone", "--input", "I:1", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    _validator("cloning_outcome").validate(payload)
    assert payload["fidelity"] == pytest.approx(0.7, abs=1e-12)


def test_clone_entangled_input(capsys):
    assert main(["clone", "--input", "IV:1", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(0.7, abs=1e-12)


def test_clone_qubit_amplitudes(capsys):
    assert main(["clone", "--input", "1,0", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(5 / 6, abs=1e-12)


def test_clone_text_output(capsys):
    assert main(["clone"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "input            I:1  (d=4)",
        "fidelity         0.7",
        "success prob     0.625",
        "clone state diag 0.7, 0.1, 0.1, 0.1",
    ]


def test_clone_bad_spec(capsys):
    assert main(["clone", "--input", "V:1"]) == EXIT_USAGE


@pytest.mark.parametrize("spec", ["1e-13,0", "0,0"])
def test_amplitudes_below_the_norm_bound_are_one_usage_error(spec, capsys):
    assert main(["clone", f"--input={spec}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the norm of the state amplitudes is below 1e-12"]


@pytest.mark.parametrize("argv, message", [
    # the dimension is the state's own: no option repeats it
    (["cascade", "--input", "IV:1", "--d", "4"], "unrecognized arguments: --d 4"),
    (["hom", "--input", "I:1", "--ancilla", "1,0"], "signal and ancilla dimensions differ"),
    (["experiment", "--shots", "100", "--ancilla-weights", "abc"],
     "cannot parse ancilla weights 'abc'"),
    # the one-stage route is ``cascade --m 2``, not a mode of ``clone``
    (["clone", "--mode", "oracle"], "unrecognized arguments: --mode oracle"),
])
def test_inconsistent_input_is_one_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMCLONE_OUT_DIR", str(tmp_path))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["clone", "cascade"])
@pytest.mark.parametrize("spec", ["nan,1", "1,inf", "-inf,0", "nanj,1"])
def test_non_finite_amplitudes_are_usage_errors(command, spec, capsys):
    assert main([command, f"--input={spec}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: amplitudes must be finite"]


# ----------------------------------------------------------------------- hom


def test_hom_csv_to_stdout(capsys):
    assert main(["hom", "--input", "I:4", "--tau-min-fs", "-900",
                 "--tau-max-fs", "900", "--steps", "7"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau_fs,R"
    rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert rows[0.0] == pytest.approx(2.0, abs=1e-9)
    assert rows[900.0] == pytest.approx(1.0, abs=1e-3)
    assert rows[-900.0] == pytest.approx(rows[900.0], abs=1e-12)


def test_hom_entangled_pair_peaks_at_two(capsys):
    assert main(["hom", "--input", "IV:1", "--steps", "3",
                 "--tau-min-fs", "-100", "--tau-max-fs", "100"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    mid = lines[2].split(",")
    assert float(mid[0]) == 0.0 and float(mid[1]) == pytest.approx(2.0, abs=1e-9)


def test_hom_bad_range(capsys):
    assert main(["hom", "--tau-min-fs", "5", "--tau-max-fs", "-5"]) == EXIT_USAGE


def _refuse(*args, **kwargs):
    raise AssertionError("no delay grid may be built for a refused --steps")


@pytest.mark.parametrize("steps", [HOM_MAX_STEPS + 1, 10**12])
def test_hom_steps_above_the_bound_are_usage_errors(steps, monkeypatch, capsys):
    monkeypatch.setattr(cli.np, "linspace", _refuse)
    monkeypatch.setattr(cli, "hom_curve", _refuse)
    assert main(["hom", "--steps", str(steps)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --steps must be at most {HOM_MAX_STEPS}, got {steps}"]


def test_hom_steps_bound_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "hom_curve", lambda s, a, delays, model: [(t, 1.0) for t in delays])
    assert main(["hom", "--steps", str(HOM_MAX_STEPS)]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + HOM_MAX_STEPS


def test_hom_help_states_the_steps_bound(capsys):
    with pytest.raises(SystemExit):
        main(["hom", "--help"])
    assert f"2..{HOM_MAX_STEPS}" in capsys.readouterr().out


def test_help_opens_with_one_whole_sentence(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    description = capsys.readouterr().out.split("\n\n")[1]
    assert description.split() == cli.__doc__.split("\n\n")[0].split()
    assert description.rstrip().endswith(".") and description.count(".") == 1


@pytest.mark.parametrize("argv", [["clone", "--json"], ["hom", "--steps", "100000"]])
def test_a_closed_stdout_is_no_error(argv):
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails whatever the timing: at the flush of a
    # short output, inside the handler for a long one
    paths = [str(Path(symclone.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "symclone", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (EXIT_OK, b"")


def test_hom_to_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["hom", "--steps", "5", "--output", str(out)]) == EXIT_OK
    assert out.read_text().startswith("tau_fs,R\n")


# ------------------------------------------------------------------ cascade


@needs_jsonschema
def test_cascade_matches_formula(capsys):
    assert main(["cascade", "--n", "1", "--m", "3", "--input", "I:1", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    _validator("cloning_outcome").validate(payload)
    assert payload["fidelity"] == pytest.approx(0.6, abs=1e-9)
    assert payload["formulaFidelity"] == pytest.approx(0.6, abs=1e-15)
    assert abs(payload["difference"]) < 1e-9


def test_cascade_base_case(capsys):
    assert main(["cascade", "--n", "1", "--m", "2", "--input", "I:1", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(0.7, abs=1e-12)


def test_cascade_qubit_two_to_three(capsys):
    assert main(["cascade", "--n", "2", "--m", "3", "--input", "1,0", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["fidelity"] == pytest.approx(11 / 12, abs=1e-9)
    assert abs(payload["difference"]) < 1e-9


def test_cascade_text_prints_rounding_residue_as_zero(capsys):
    # the stage arithmetic leaves a difference of ~1e-16 here; --json keeps it
    argv = ["cascade", "--input", "1,0", "--m", "3"]
    assert main(argv + ["--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["difference"] == payload["fidelity"] - payload["formulaFidelity"]
    assert abs(payload["difference"]) < 1e-12
    assert main(argv) == EXIT_OK
    assert "difference        0\n" in capsys.readouterr().out


def test_cascade_cap_exceeded(capsys):
    assert main(["cascade", "--n", "1", "--m", "9", "--input", "1,0"]) == EXIT_USAGE
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["50", "60"])
def test_cascade_success_probability_underflow_is_one_usage_error(m, capsys):
    argv = ["cascade", "--input", "1,0", "--n", "1", "--m", m, "--cap", m]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the cascade's success probability underflows the float range at M={m}, d=2"
    ]


def test_cascade_far_past_the_underflow_stops_at_the_first_underflowing_stage(capsys):
    # the success first underflows at M = 49 for d = 4; the loop must stop
    # there and not run the other ~1e5 stages
    argv = ["cascade", "--m", "100000", "--cap", "100000"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the cascade's success probability underflows the float range at M=100000, d=4"
    ]


# --------------------------------------------------------------- experiment


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs")
    code = main([
        "experiment", "--basis", "I", "--shots", "4000", "--seed", "7",
        "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    return out_dir


def test_experiment_writes_csv_and_json(experiment_run):
    csv_path = experiment_run / "experiment_I.csv"
    json_path = experiment_run / "experiment_I.json"
    assert csv_path.exists() and json_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["input", "outcome", "count"]
    assert len(rows) == 17
    per_input = {}
    for inp, _, count in rows[1:]:
        per_input[inp] = per_input.get(inp, 0) + int(count)
    assert set(per_input.values()) == {4000}


@needs_jsonschema
def test_experiment_summary_schema(experiment_run):
    payload = json.loads((experiment_run / "experiment_I.json").read_text())
    _validator("experiment_summary").validate(payload)
    for res in payload["results"]:
        assert sum(res["probs"]) == pytest.approx(1.0, abs=1e-9)
        assert abs(res["fidelity"] - 0.7) < 4 * res["stderr"]


def test_experiment_summary_records_the_versions(experiment_run):
    # a fixed seed reproduces counts only under the numpy Generator that drew
    # them, so the summary names it beside the package version; the schema
    # requires both
    payload = json.loads((experiment_run / "experiment_I.json").read_text())
    assert payload["version"] == symclone.__version__
    assert payload["numpyVersion"] == np.__version__
    schema = _load_schemas()["experiment_summary"]
    assert {"version", "numpyVersion"} <= set(schema["required"])
    assert schema["properties"]["version"] == schema["properties"]["numpyVersion"] == {"type": "string"}


def test_experiment_is_byte_deterministic(tmp_path, capsys):
    args = ["experiment", "--basis", "I", "--shots", "1500", "--seed", "3"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(args + ["--out-dir", str(first)]) == EXIT_OK
    assert main(args + ["--out-dir", str(second)]) == EXIT_OK
    assert (first / "experiment_I.csv").read_bytes() == (second / "experiment_I.csv").read_bytes()
    assert (first / "experiment_I.json").read_bytes() == (second / "experiment_I.json").read_bytes()


def test_experiment_config_file_with_flag_override(tmp_path, capsys):
    in_file = {"shots": 300, "v": 0.9, "prepFidelity": 0.95, "analysisFidelity": 0.9,
               "seed": 5, "ancillaWeights": [0.25, 0.25, 0.25, 0.25]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(in_file))
    for flag, value, key, expected in [
        ("--shots", "800", "shots", 800),
        ("--v", "0.7", "v", 0.7),
        ("--prep-fid", "0.8", "prepFidelity", 0.8),
        ("--analysis-fid", "0.6", "analysisFidelity", 0.6),
        ("--seed", "9", "seed", 9),
        ("--ancilla-weights", "0.4,0.2,0.2,0.2", "ancillaWeights", [0.4, 0.2, 0.2, 0.2]),
    ]:
        code = main([
            "experiment", "--basis", "I", "--config", str(cfg),
            flag, value, "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "experiment_I.json").read_text())
        config = payload["counts"][0]["config"]
        assert config[key] == expected, flag  # flag wins
        kept = {k: v for k, v in in_file.items() if k != key}
        assert {k: config[k] for k in kept} == kept, flag  # the file's other values kept


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "must hold a JSON object"),
    ('{"shots": 100, "prepFidelty": 0.9}', "'prepFidelty'"),
    ('{"shots": 100, "ancillaWeights": 5}', "bad config value"),
    ('{"shots": 100, "v": null}', "bad config value"),
    ('{"shots": 1e400}', "bad config value"),
    ('{"shots": 100, "v": true}', "'v' must be a number, got True"),
    ('{"shots": 100, "ancillaWeights": []}', "'ancillaWeights' must be null or a non-empty list"),
    ('{"shots": 100, "ancillaWeights": [-0.5, 0.5, 0.5, 0.5]}', "ancilla weights must be nonnegative"),
])
def test_experiment_bad_config_file_is_usage_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not (tmp_path / "experiment_I.csv").exists()


@pytest.mark.parametrize("content, message", [
    ('{"shots": 2.9, "seed": 1}', "'shots' must be an integer, got 2.9"),
    ('{"shots": 100, "seed": 1.7}', "'seed' must be an integer, got 1.7"),
    ('{"shots": true}', "'shots' must be an integer, got True"),
    ('{"shots": 100, "seed": false}', "'seed' must be an integer, got False"),
])
def test_experiment_config_integers_are_checked(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not (tmp_path / "experiment_I.csv").exists()


@pytest.mark.parametrize("content, reason", [
    (b'{"shots": 100, bad}', "Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
    (b'{"shots": 100, "v": 0.9\xff}', "'utf-8' codec can't decode byte 0xff in position 23"),
], ids=["malformed", "not-utf-8"])
def test_experiment_config_file_that_is_not_json_is_named(tmp_path, capsys, content, reason):
    # malformed JSON and bytes that are not UTF-8: one error line that names
    # the file, and the usage exit code
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    code = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config file {cfg} is not valid JSON: {reason}")
    assert not (tmp_path / "experiment_I.csv").exists()


def test_experiment_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMCLONE_OUT_DIR", str(tmp_path))
    assert main(["experiment", "--basis", "I", "--shots", "500", "--seed", "2"]) == EXIT_OK
    assert (tmp_path / "experiment_I.csv").exists()


def test_experiment_runtime_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a kernel that never yields a coincidence: the run gives up after the
    # dry-batch budget, a runtime failure, and writes nothing
    monkeypatch.setattr(experiment, "_MAX_DRY_BATCHES", 3)
    monkeypatch.setattr(experiment, "_simulate_batch", lambda table, rng: np.zeros(0, dtype=np.intp))
    out_dir = tmp_path / "runs"
    assert main(["experiment", "--shots", "100", "--out-dir", str(out_dir)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: post-selection yield is (near) zero for this configuration"
    ]
    assert not out_dir.exists()


def test_experiment_bad_weights(capsys):
    assert main(["experiment", "--shots", "100",
                 "--ancilla-weights", "0.5,0.4"]) == EXIT_USAGE


# --------------------------------------------------------- non-finite input


@pytest.mark.parametrize("argv", [
    ["hom", "--wavelength-nm", "nan"],
    ["hom", "--tau-min-fs", "nan"],
    ["hom", "--tau-max-fs", "inf", "--steps", "3"],
    ["experiment", "--shots", "100", "--ancilla-weights", "nan,0,0,1"],
    ["clone", "--input", "1e308,1e308"],
    # finite, but past the float range once squared or subtracted
    ["hom", "--tau-min-fs=-1e308", "--tau-max-fs=1e308", "--steps", "3"],
    ["hom", "--wavelength-nm", "1e300"],
    ["hom", "--wavelength-nm", "1e-300"],
    ["hom", "--bandwidth-nm", "1e300"],
])
def test_non_finite_input_is_one_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMCLONE_OUT_DIR", str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_USAGE
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""  # hom prints its CSV here
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_huge_finite_delays_give_finite_rows(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["hom", "--tau-min-fs=-1e307", "--tau-max-fs=1e307", "--steps", "3"]) == EXIT_OK
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    # far outside the coherence time the photons are distinguishable: R = 1
    assert captured.out.splitlines() == ["tau_fs,R", "-1e+307,1", "0,2", "1e+307,1"]


# ------------------------------------------------------------------ parsing


def test_unknown_flag_is_usage_error(capsys):
    assert main(["formulas", "--bogus"]) == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert main(["teleport"]) == EXIT_USAGE


@pytest.mark.parametrize("module", ["symclone", "symclone.cli"])
def test_python_m_runs_the_cli(module):
    paths = [str(Path(symclone.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-m", module, "formulas"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == EXIT_OK
    assert result.stderr == ""
    assert result.stdout.splitlines() == [
        "f_est(N=1, d=4)          = 0.4",
        "f_clon(N=1, M=2, d=4)    = 0.7",
        "cloning advantage          = 0.3",
    ]


def test_the_parser_built_at_import_keeps_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # four commands in one process, through the one parser: each output,
    # exit code and written file must equal those of the same command in a
    # fresh interpreter, so no config file, flag value or subcommand of a
    # call reaches the next
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"shots": 400, "seed": 5, "v": 0.9, "analysisFidelity": 0.8,
                                  "ancillaWeights": [0.4, 0.2, 0.2, 0.2]}))
    paths = [str(Path(symclone.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    commands = [
        ["experiment", "--config", str(config), "--shots", "50"],
        ["experiment", "--shots", "50"],
        ["cascade", "--m", "8", "--cap", "8"],
        ["cascade"],
    ]
    for i, argv in enumerate(commands):
        here, fresh_dir = tmp_path / f"in-process-{i}", tmp_path / f"fresh-{i}"
        here.mkdir()
        fresh_dir.mkdir()
        monkeypatch.chdir(here)
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "symclone", *argv], cwd=fresh_dir,
                               env=env, capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == EXIT_OK and out, argv
        files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (here, fresh_dir)]
        assert files[0] == files[1], argv
