"""Command-line surface: flags, exit codes, CSV/JSON outputs, schemas."""

import csv
import json
import warnings
from importlib import resources

import numpy as np
import pytest

try:
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    HAVE_JSONSCHEMA = True
except ImportError:  # pragma: no cover
    HAVE_JSONSCHEMA = False

from symclone import cli
from symclone.cli import EXIT_OK, EXIT_USAGE, HOM_MAX_STEPS, main, parse_state_spec
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
    state, label = parse_state_spec("I:1", 4)
    assert np.allclose(state.amps, [1, 0, 0, 0])
    assert label == "I:1"
    state, _ = parse_state_spec("IV:3", None)
    assert np.allclose(state.amps, basis_four().states[2].amps)


def test_parse_amplitude_spec():
    state, _ = parse_state_spec("1,0", 2)
    assert np.allclose(state.amps, [1, 0])
    state, _ = parse_state_spec("1+1j, 1-1j", None)
    assert state.dim == 2
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_parse_normalizes_with_warning(capsys):
    state, _ = parse_state_spec("2,0", 2)
    assert np.allclose(state.amps, [1, 0])
    assert "normalizing" in capsys.readouterr().err


def test_parse_errors():
    from symclone.cli import _UsageError

    for bad, d in [("I:9", 4), ("I:x", 4), ("nonsense", None), ("0,0", 2), ("1,0", 4)]:
        with pytest.raises(_UsageError):
            parse_state_spec(bad, d)


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
@pytest.mark.parametrize("mode", ["analytic", "oracle"])
def test_clone_logical_input(mode, capsys):
    assert main(["clone", "--input", "I:1", "--d", "4", "--mode", mode, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    _validator("cloning_outcome").validate(payload)
    assert payload["fidelity"] == pytest.approx(0.7, abs=1e-12)


def test_clone_entangled_input(capsys):
    assert main(["clone", "--input", "IV:1", "--mode", "oracle", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(0.7, abs=1e-12)


def test_clone_qubit_amplitudes(capsys):
    assert main(["clone", "--input", "1,0", "--d", "2", "--mode", "oracle", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(5 / 6, abs=1e-12)


def test_clone_bad_spec(capsys):
    assert main(["clone", "--input", "V:1"]) == EXIT_USAGE


@pytest.mark.parametrize("spec", ["1e-13,0", "0,0"])
def test_amplitudes_below_the_norm_bound_are_one_usage_error(spec, capsys):
    assert main(["clone", f"--input={spec}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the norm of the state amplitudes is below 1e-12"]


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


def test_hom_to_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["hom", "--steps", "5", "--output", str(out)]) == EXIT_OK
    assert out.read_text().startswith("tau_fs,R\n")


# ------------------------------------------------------------------ cascade


@needs_jsonschema
def test_cascade_matches_formula(capsys):
    assert main(["cascade", "--n", "1", "--m", "3", "--d", "4",
                 "--input", "I:1", "--json"]) == EXIT_OK
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


def test_experiment_is_byte_deterministic(tmp_path, capsys):
    args = ["experiment", "--basis", "I", "--shots", "1500", "--seed", "3"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(args + ["--out-dir", str(first)]) == EXIT_OK
    assert main(args + ["--out-dir", str(second)]) == EXIT_OK
    assert (first / "experiment_I.csv").read_bytes() == (second / "experiment_I.csv").read_bytes()
    assert (first / "experiment_I.json").read_bytes() == (second / "experiment_I.json").read_bytes()


def test_experiment_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 1000, "seed": 5, "v": 0.9}))
    code = main([
        "experiment", "--basis", "I", "--config", str(cfg),
        "--shots", "800", "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "experiment_I.json").read_text())
    config = payload["counts"][0]["config"]
    assert config["shots"] == 800  # flag wins
    assert config["v"] == 0.9  # file value kept


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "must hold a JSON object"),
    ('{"shots": 100, "prepFidelty": 0.9}', "'prepFidelty'"),
    ('{"shots": 100, "ancillaWeights": 5}', "bad config value"),
    ('{"shots": 100, "v": null}', "bad config value"),
    ('{"shots": 1e400}', "bad config value"),
    ('{"shots": 100, "v": true}', "'v' must be a number, got True"),
    ('{"shots": 100, "ancillaWeights": []}', "'ancillaWeights' must be null or a non-empty list"),
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


def test_experiment_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMCLONE_OUT_DIR", str(tmp_path))
    assert main(["experiment", "--basis", "I", "--shots", "500", "--seed", "2"]) == EXIT_OK
    assert (tmp_path / "experiment_I.csv").exists()


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
