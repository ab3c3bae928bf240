"""Monte Carlo bench: trial statistics, the count-ratio estimator, RNG streams."""

import io
import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from _engine_reference import coincidence_probabilities, first_column_basis, outcome_law
from symclone import experiment
from symclone.experiment import (
    BATCH_TRIALS,
    STREAM_LAYOUT,
    CountsTable,
    EstimationResult,
    ExperimentConfig,
    FidelityTable,
    _Q_TOTAL_CUTOFF,
    _abs2,
    _acceptance_thresholds,
    _clean_row_table,
    _complement_states,
    _e_trial_weights,
    _event_terms,
    _fail_draws,
    _filter_terms,
    _half_coal,
    _scanner_bound,
    _scanner_overlaps,
    _signal_and_filter_arms,
    _simulate_batch,
    estimate_probabilities,
    replicate_table,
    run_cloning_experiment,
    write_counts_csv,
)
from symclone.hilbert import LabeledBasis, PureState, basis_four, basis_logical, named_basis


def _haar(rng, d):
    return PureState.normalized(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def _labeled(cols):
    d = len(cols)
    return LabeledBasis(dim=d, states=tuple(PureState(dim=d, amps=c) for c in cols.T),
                        labels=tuple(f"b{k}" for k in range(d)))


def _fourier(d):
    """The Fourier basis of dimension d, b_k = sum_l w^(kl) e_l / sqrt(d), w = exp(2 pi i/d)."""
    return _labeled(np.exp(2j * np.pi / d) ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d))


def _fourier_basis():
    return _fourier(3)


def _haar_basis(d=4):
    """A fixed Haar-random d x d unitary (QR of a seeded complex Gaussian matrix)."""
    q, r = np.linalg.qr(np.random.default_rng(2010).standard_normal((d, d, 2)) @ np.array([1.0, 1j]))
    return _labeled(q * (np.diag(r) / np.abs(np.diag(r))))


# Bases I and IV are real, so conj(U) = U on them; the complex bases tell the
# two apart.
_BASES = [basis_logical, basis_four, _fourier_basis, _haar_basis]


def _basis_with_column(x, k):
    """A unitary whose column k is the unit vector ``x``: the Householder
    basis of :func:`_engine_reference.first_column_basis` with its column 0
    moved to k."""
    return np.roll(first_column_basis(PureState(dim=len(x), amps=x)), k, axis=1)


def _in_basis(U, x):
    """States ``x`` (lab coordinates, one per row) in the coordinates of the
    basis U: U^dagger x."""
    return x @ np.conj(U)


def _terms(S, k, v, filters, F, G):
    """p_filter and the scanner weights q through the kernel's closed forms:
    ``_filter_terms``, then ``_event_terms`` on its amplitudes."""
    p_filter, A, B = _filter_terms(S, k, v, filters)
    return p_filter, _event_terms(A, B, v, F, G)


def _batch_rng(seed, input_index, batch):
    """Reference stream of one batch (stream layouts 8 and 9): the input's
    PCG64 advanced from its start state by batch * 2^64 outputs."""
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(input_index,)))
    bit_generator.advance(batch << 64)
    return np.random.Generator(bit_generator)


def _counts_table(counts: tuple) -> CountsTable:
    labels = tuple(f"s{i}" for i in range(len(counts)))
    return CountsTable(
        basis_labels=labels,
        phi_index=0,
        counts=counts,
        config=ExperimentConfig(shots=max(1, sum(counts))),
    )


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(shots=0)
    with pytest.raises(ValueError):
        ExperimentConfig(shots=10, v=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(shots=10, prep_fidelity=-0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(shots=10, ancilla_weights=(0.5, 0.4))  # sums to 0.9


def test_config_round_trip():
    cfg = ExperimentConfig(
        shots=5000, v=0.9, ancilla_weights=(0.4, 0.2, 0.2, 0.2),
        prep_fidelity=0.95, analysis_fidelity=0.9, seed=123,
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_records_the_stream_layout():
    cfg = ExperimentConfig(shots=10)
    assert cfg.to_dict()["streamLayout"] == 13
    data = cfg.to_dict()
    del data["streamLayout"]
    assert ExperimentConfig.from_dict(data) == cfg
    for layout in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, "13", None):
        with pytest.raises(ValueError, match="streamLayout"):
            ExperimentConfig.from_dict({**cfg.to_dict(), "streamLayout": layout})


def test_stream_layout_agrees_in_the_schema_the_readme_and_the_config():
    # the layout is written by hand in three places besides STREAM_LAYOUT,
    # and the batch size in three places of the README besides BATCH_TRIALS
    schema = json.loads(
        (Path(experiment.__file__).parent / "schemas" / "experiment_summary.schema.json").read_text()
    )
    config_schema = schema["properties"]["counts"]["items"]["properties"]["config"]
    assert config_schema["properties"]["streamLayout"] == {"const": STREAM_LAYOUT}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"`streamLayout`\s+\(must\s+be\s+(\d+)\)", readme) == [str(STREAM_LAYOUT)]
    for pattern in (r"fixed\s+(\d+)-trial\s+batches", r"batches\s+×\s+(\d+)",
                    r"Multinomial\((\d+),\s+\(w_0"):
        assert re.findall(pattern, readme) == [str(BATCH_TRIALS)], pattern
    cfg = ExperimentConfig.from_dict({"shots": 1, "streamLayout": STREAM_LAYOUT})
    assert cfg.to_dict()["streamLayout"] == STREAM_LAYOUT


# the constructor's field for each ``to_dict`` key
_FIELD_OF_KEY = {"shots": "shots", "v": "v", "ancillaWeights": "ancilla_weights",
                 "prepFidelity": "prep_fidelity", "analysisFidelity": "analysis_fidelity",
                 "seed": "seed"}


def _error_of_both_entries(data: dict) -> str:
    """The message of the ValueError that ``from_dict(data)`` raises; the
    constructor, given the same values, raises the same message."""
    with pytest.raises(ValueError) as from_dict:
        ExperimentConfig.from_dict(data)
    with pytest.raises(ValueError) as constructor:
        ExperimentConfig(**{_FIELD_OF_KEY[key]: value for key, value in data.items()})
    assert str(constructor.value) == str(from_dict.value)
    return str(from_dict.value)


def _keys_of_fields(kwargs: dict) -> dict:
    """Constructor keyword arguments keyed as ``from_dict`` reads them."""
    key_of_field = {field: key for key, field in _FIELD_OF_KEY.items()}
    return {key_of_field[field]: value for field, value in kwargs.items()}


@pytest.mark.parametrize("data, key", [
    ({"shots": 2.9, "seed": 1}, "'shots'"),
    ({"shots": 10, "seed": 1.7}, "'seed'"),
    ({"shots": True}, "'shots'"),
    ({"shots": 10, "seed": False}, "'seed'"),
    ({"shots": "10"}, "'shots'"),
    ({"shots": float("nan")}, "'shots'"),
])
def test_config_rejects_non_integral_shots_and_seed(data, key):
    assert re.search(key, _error_of_both_entries(data))


@pytest.mark.parametrize("kwargs, message", [
    ({"shots": 2.5}, "'shots' must be an integer, got 2.5"),
    ({"shots": 10, "seed": 1.5}, "'seed' must be an integer, got 1.5"),
    ({"shots": True}, "'shots' must be an integer, got True"),
    ({"shots": 10, "seed": False}, "'seed' must be an integer, got False"),
    # past the float range: integrality is decided without a float
    ({"shots": Fraction(10**400, 3)}, "'shots' must be an integer"),
    ({"shots": 10, "seed": Fraction(10**400, 3)}, "'seed' must be an integer"),
    ({"shots": 10, "seed": Fraction(10**400)}, "^seed must fit in 64 unsigned bits$"),
])
def test_config_constructor_rejects_non_integral_or_boolean_shots_and_seed(kwargs, message):
    # such values would fail mid-run (a slice index, the seed entropy) or
    # run and be written out as a JSON boolean
    assert re.search(message, _error_of_both_entries(_keys_of_fields(kwargs)))


@pytest.mark.parametrize("data, key", [
    ({"shots": 10, "v": True}, r"'v' must be a number, got True"),
    ({"shots": 10, "v": "0.5"}, r"'v' must be a number, got '0.5'"),
    ({"shots": 10, "prepFidelity": True}, r"'prepFidelity' must be a number"),
    ({"shots": 10, "analysisFidelity": "1"}, r"'analysisFidelity' must be a number"),
    ({"shots": 10, "ancillaWeights": [True, False, False, False]}, r"'ancillaWeights\[0\]'"),
    ({"shots": 10, "ancillaWeights": [0.5, "0.5"]}, r"'ancillaWeights\[1\]'"),
    ({"shots": 10, "ancillaWeights": [0.5, [0.5]]}, r"'ancillaWeights\[1\]'"),
    # only a missing key or null means uniform weights
    ({"shots": 10, "ancillaWeights": False}, r"'ancillaWeights' must be null or a non-empty list"),
    ({"shots": 10, "ancillaWeights": 0}, r"'ancillaWeights' must be null or a non-empty list"),
    ({"shots": 10, "ancillaWeights": []}, r"'ancillaWeights' must be null or a non-empty list"),
    ({"shots": 10, "ancillaWeights": ""}, r"'ancillaWeights' must be null or a non-empty list"),
    ({"shots": 10, "ancillaWeights": {}}, r"'ancillaWeights' must be null or a non-empty list"),
    # an integer past the float range
    ({"shots": 10, "v": 10**400}, r"^bad config value: 'v' must be a number in the float range$"),
    ({"shots": 1, "ancillaWeights": [10**400, 0]},
     r"^bad config value: 'ancillaWeights\[0\]' must be a number in the float range$"),
])
def test_config_rejects_booleans_and_non_numbers(data, key):
    assert re.search(key, _error_of_both_entries(data))


@pytest.mark.parametrize("kwargs, message", [
    ({"v": True}, r"'v' must be a number, got True"),
    ({"v": "0.5"}, r"'v' must be a number, got '0.5'"),
    ({"prep_fidelity": True}, r"'prepFidelity' must be a number, got True"),
    ({"analysis_fidelity": "1"}, r"'analysisFidelity' must be a number, got '1'"),
    ({"ancilla_weights": (True, False, False, False)}, r"'ancillaWeights\[0\]' must be a number"),
    ({"ancilla_weights": (0.5, "0.5")}, r"'ancillaWeights\[1\]' must be a number"),
    ({"ancilla_weights": (0.5, 0.5 + 0j)}, r"'ancillaWeights\[1\]' must be a number"),
])
def test_config_constructor_rejects_booleans_and_non_numbers(kwargs, message):
    # a bool would run and be written out as a JSON boolean, where the
    # summary schema wants a number
    assert re.search(message, _error_of_both_entries(_keys_of_fields({"shots": 1, **kwargs})))


def test_config_constructor_stores_floats():
    cfg = ExperimentConfig(shots=1, v=1, prep_fidelity=0, analysis_fidelity=np.float32(0.5),
                           ancilla_weights=(1, 0, 0, 0))
    data = cfg.to_dict()
    for value in (data["v"], data["prepFidelity"], data["analysisFidelity"], *data["ancillaWeights"]):
        assert type(value) is float
    assert (data["v"], data["prepFidelity"], data["analysisFidelity"]) == (1.0, 0.0, 0.5)


@pytest.mark.parametrize("weights", [
    0.5, 1, np.float64(1.0), np.array(1.0), "1", "0.25,0.25,0.25,0.25",
    {1.0: "x"}, {0.25, 0.75}, frozenset({1.0}), np.ones((1, 1)),
], ids=["float", "int", "numpy-float", "0-d-array", "str", "csv-str", "dict", "set", "frozenset", "2-d-array"])
def test_config_constructor_rejects_weights_that_are_not_a_sequence(weights):
    # iterating a number fails, a string gives its characters, a mapping its
    # keys and a set no fixed order; each is a ValueError naming the key,
    # and ``from_dict`` gives the same
    message = _error_of_both_entries({"shots": 1, "ancillaWeights": weights})
    assert re.search(r"'ancillaWeights' must be null or a non-empty list, tuple or 1-D array", message)


@pytest.mark.parametrize("weights", [
    [0.4, 0.2, 0.2, 0.2], (0.4, 0.2, 0.2, 0.2), np.array([0.4, 0.2, 0.2, 0.2]),
])
def test_config_constructor_takes_weights_as_a_list_tuple_or_vector(weights):
    cfg = ExperimentConfig(shots=1, ancilla_weights=weights)
    assert cfg.ancilla_weights == (0.4, 0.2, 0.2, 0.2)
    assert all(type(w) is float for w in cfg.ancilla_weights)


def test_config_accepts_integers_for_real_keys():
    cfg = ExperimentConfig.from_dict(
        {"shots": 10, "v": 1, "prepFidelity": 0, "ancillaWeights": [1, 0, 0, 0]}
    )
    assert cfg == ExperimentConfig(shots=10, v=1.0, prep_fidelity=0.0, ancilla_weights=(1.0, 0.0, 0.0, 0.0))


def test_config_accepts_integral_floats():
    for cfg in (ExperimentConfig.from_dict({"shots": 3.0, "seed": 2.0}),
                ExperimentConfig(shots=3.0, seed=np.float64(2.0))):
        assert cfg == ExperimentConfig(shots=3, seed=2)
        assert type(cfg.shots) is int and type(cfg.seed) is int


def test_config_keeps_numpy_integers_as_ints_for_the_summary():
    cfg = ExperimentConfig(shots=np.int64(5), seed=np.uint64(3))
    assert type(cfg.shots) is int and type(cfg.seed) is int
    summary = json.loads(json.dumps(replicate_table("I", cfg).to_dict()))
    assert {(t["config"]["shots"], t["config"]["seed"]) for t in summary["counts"]} == {(5, 3)}


def test_config_shots_default_to_10_000_in_both_entries():
    assert ExperimentConfig().shots == 10_000
    assert ExperimentConfig.from_dict({"seed": 3}) == ExperimentConfig(shots=10_000, seed=3)


def test_config_seed_must_fit_in_64_unsigned_bits():
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            ExperimentConfig(shots=1, seed=seed)
    # the largest seed derives its stream keys and runs
    table = replicate_table("I", ExperimentConfig(shots=1, seed=2**64 - 1))
    assert [sum(t.counts) for t in table.tables] == [1, 1, 1, 1]


def test_weights_dimension_check():
    cfg = ExperimentConfig(shots=10, ancilla_weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        cfg.weights_for(4)


# ----------------------------------------------------------- state errors


def _orthogonalized(psi: np.ndarray, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, ``chi`` minus its projection on ``psi``, and its norm."""
    chi = chi - np.einsum("...i,...i->...", np.conj(psi), chi)[:, None] * psi
    flat = chi.view(float)
    return chi, np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _lab_complement_states(psi: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Replaced states as layout 2 drew them, in lab coordinates: per
    row of ``z``, a Haar-random unit vector orthogonal to the target ``psi``
    (one state, shape (d,), or one per row, shape (n, d)), made from the
    row's 2d standard normals z[:d] + i z[d:]."""
    d = psi.shape[-1]
    chi = np.empty((len(z), d), dtype=complex)
    if not len(chi):
        return chi
    chi.real, chi.imag = z[:, :d], z[:, d:]
    chi, norms = _orthogonalized(psi, chi)
    low = norms < 1e-12
    if low.any():
        # measure-zero degenerate draws: orthogonalize the basis vector
        # least parallel to the target instead
        psi_low = np.broadcast_to(psi, chi.shape)[low]
        fb = np.zeros((len(psi_low), d), dtype=complex)
        fb[np.arange(len(fb)), np.argmin(np.abs(psi_low), axis=1)] = 1.0
        chi[low], norms[low] = _orthogonalized(psi_low, fb)
    chi.view(float)[:] /= norms[:, None]
    return chi


def _perturbed(targets, f, rng):
    """Reference perturbation of ``targets`` (shape (..., d)) in the draw
    order of layout 2, in lab coordinates: one pass uniform per row, then 2d
    normals per failing row, which is replaced by a Haar-random unit vector
    orthogonal to it. :func:`_layout2_batch` perturbs with it."""
    d = targets.shape[-1]
    out = np.array(targets, dtype=complex, order="C")
    if f >= 1.0:
        return out
    bad = np.flatnonzero(rng.random(targets.shape[:-1]) >= f)
    z = rng.standard_normal((len(bad), 2 * d))
    rows = out.reshape(-1, d)  # a view, since out is C-ordered: bad holds row-major indices
    rows[bad] = _lab_complement_states(rows[bad], z)
    return out


def _basis_complement(t, z):
    """Reference for the kernel's ``_complement_states``, in basis
    coordinates: per row, component j + (j >= t) holds the row's normal pair
    j, z[2j] + i z[2j + 1], for j < d - 1, and the row is normalized; a row
    of zero normals gives e_0, or e_1 for t = 0."""
    d = z.shape[1] // 2 + 1
    t = np.broadcast_to(t, (len(z),))
    rows = np.arange(len(z))
    norms = np.linalg.norm(z, axis=1)
    chi = np.zeros((len(z), d), dtype=complex)
    for j in range(d - 1):
        chi[rows, j + (j >= t)] = (z[:, 2 * j] + 1j * z[:, 2 * j + 1]) / np.where(norms > 0, norms, 1.0)
    chi[rows[norms == 0], (t[norms == 0] == 0).astype(int)] = 1.0
    return chi


def _basis_perturbed(basis_cols, t, lead, f, rng, complement=_basis_complement):
    """Reference perturbation in the kernel's draw order, in lab
    coordinates: basis states ``t`` of the basis U = ``basis_cols`` (one
    index, or an array that broadcasts to ``lead``) through the kernel's
    draws, each replaced state U chi with chi from ``complement``, the
    reference :func:`_basis_complement` or the kernel's
    ``_complement_states``."""
    d = len(basis_cols)
    t = np.broadcast_to(t, lead).reshape(-1)
    bad, z = _fail_draws(math.prod(lead), d, f, rng)
    chi = np.eye(d, dtype=complex)[t]
    chi[bad] = complement(t[bad], z)
    return (chi @ basis_cols.T).reshape(*lead, d)


def test_perturbation_mean_overlap():
    basis = basis_four()
    phi = basis.states[0].amps
    out = _basis_perturbed(basis.matrix, 0, (20_000,), 0.9, np.random.default_rng(4), _complement_states)
    assert np.mean(np.abs(out @ np.conj(phi)) ** 2) == pytest.approx(0.9, abs=0.01)


def _moment_z(x, y):
    """Two-sample z-score of the means of ``x`` and ``y``."""
    return (x.mean() - y.mean()) / np.sqrt(x.var() / len(x) + y.var() / len(y))


@pytest.mark.parametrize("make_basis", _BASES)
def test_complement_states_are_the_lab_complements_in_basis_coordinates(make_basis):
    # the kernel's replaced states, rotated to lab coordinates by U, against
    # layout 2's lab-coordinate complements of the same targets from other
    # normals: both unit vectors orthogonal to the target, with the same
    # law, checked through the first two moments of |<a|x>|^2 for fixed
    # test vectors a (|z| < 5, fixed beforehand)
    U = make_basis().matrix
    d = len(U)
    rng = np.random.default_rng(16)
    n = 20_000
    probes = _haar_rows(rng, 3, d)
    for targets in (rng.integers(0, d, n), 1):
        psi = np.broadcast_to(U.T[targets], (n, d))
        kernel = _complement_states(targets, rng.standard_normal((n, 2 * d - 2))) @ U.T
        lab = _lab_complement_states(psi, rng.standard_normal((n, 2 * d)))
        for x in (kernel, lab):
            assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12
            assert np.max(np.abs(np.einsum("ei,ei->e", np.conj(psi), x))) < 1e-12
        for a in probes:
            k2, l2 = (np.abs(x @ np.conj(a)) ** 2 for x in (kernel, lab))
            assert abs(_moment_z(k2, l2)) < 5.0
            assert abs(_moment_z(k2 * k2, l2 * l2)) < 5.0


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_complement_states_fill_the_other_components_in_order(d):
    # against the reference, one target per row and one target for every row
    rng = np.random.default_rng(30 + d)
    z = rng.standard_normal((300, 2 * d - 2))
    targets = rng.integers(0, d, 300)
    assert np.max(np.abs(_complement_states(targets, z) - _basis_complement(targets, z))) < 1e-15
    for t in range(d):
        chi = _complement_states(t, z)
        assert not chi[:, t].any()
        assert np.max(np.abs(chi - _basis_complement(t, z))) < 1e-15


class _DegenerateRng:
    """Stand-in stream: every pass test fails and every normal is zero."""

    def random(self, n):
        return np.ones(n)

    def binomial(self, n, p):
        return n

    def choice(self, n, k, replace, shuffle):
        return np.arange(k)

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_perturbation_falls_back_on_degenerate_draws():
    targets = np.stack([s.amps for s in (*basis_four().states, *basis_logical().states)])
    out = _perturbed(targets, 0.5, _DegenerateRng())
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs((np.conj(targets) * out).sum(axis=1))) < 1e-12
    # the kernel's fallback is one fixed unit vector orthogonal to the target:
    # e_0, or e_1 for target 0, for one target per row and for one target
    for d in (2, 3, 4):
        bad, z = _fail_draws(d, d, 0.5, _DegenerateRng())
        assert np.array_equal(bad, np.arange(d)) and z.shape == (d, 2 * d - 2) and not z.any()
        fallback = np.eye(d)[[1] + [0] * (d - 1)]
        assert np.array_equal(_complement_states(np.arange(d), z), fallback)
        for t in range(d):
            assert np.array_equal(_complement_states(t, z[:1]), fallback[t : t + 1])


def _stream_position(rng):
    return rng.bit_generator.state


def _replay_fail_draws(rng, n, f):
    """The mask of the replaced states among ``n`` states of dimension 4
    that :func:`_fail_draws` draws at fidelity f, replayed on ``rng``: their
    number, which ones, then their normals."""
    bad = np.zeros(n, dtype=bool)
    if f < 1.0:
        k = rng.binomial(n, 1.0 - f)
        bad[rng.choice(n, k, replace=False, shuffle=False)] = True
        rng.standard_normal((k, 6))
    return bad


def _apply_infidelity(f, n=500):
    """Perturb ``n`` copies of a target at fidelity ``f``; check that the
    stream advanced only by the draws of the replaced rows, that the other
    rows are untouched and that replaced rows are orthogonal to the target.
    Returns the mask of replaced rows."""
    basis = basis_four()
    phi = basis.states[0].amps
    rng = _batch_rng(8, 0, 0)
    out = _basis_perturbed(basis.matrix, 0, (n,), f, rng, _complement_states)
    fresh = _batch_rng(8, 0, 0)
    bad = _replay_fail_draws(fresh, n, f)
    assert _stream_position(rng) == _stream_position(fresh)
    assert np.all(out[~bad] == phi)
    assert np.max(np.abs(out[bad] @ np.conj(phi)), initial=0.0) < 1e-12
    return bad


@pytest.mark.parametrize("n, f", [
    *(pytest.param(n, f, id=f"lead{i}-{f}")
      for i, n in enumerate([500, 480]) for f in (0.0, 0.7, 1.0)),
    # k > n/20 of n > 10 000 states: numpy samples them by a partial shuffle,
    # not by Floyd's algorithm, as a degraded scanner perturbation does
    pytest.param(12_000, 0.9, id="lead2-0.9"),
    pytest.param(12_000, 0.0, id="lead2-0.0"),
])
def test_fail_draws_give_the_replaced_states_as_row_major_indices(n, f):
    # against the draws replayed: the number k of replaced states, which k of
    # them, then 2(d - 1) normals per replaced state; f = 1 draws nothing.
    # A caller that perturbs an array of states passes their count and reads
    # the indices as row-major (flat) ones
    rng, fresh = _batch_rng(5, 0, 0), _batch_rng(5, 0, 0)
    idx, z = _fail_draws(n, 4, f, rng)
    if f < 1.0:
        k = fresh.binomial(n, 1.0 - f)
        picked = fresh.choice(n, k, replace=False, shuffle=False)
        normals = fresh.standard_normal((k, 6))
    else:
        picked, normals = np.empty(0, dtype=np.intp), np.empty((0, 6))
    bad = np.zeros(n, dtype=bool)
    bad[picked] = True
    assert idx.dtype == np.intp and np.array_equal(idx, np.flatnonzero(bad))
    assert np.array_equal(z, normals)
    assert _stream_position(rng) == _stream_position(fresh)


def test_fail_draws_replace_each_state_independently():
    # the law of independent pass tests: over 4000 perturbations of 5
    # states at f = 0.7, each of the 32 replaced-state patterns against its
    # probability 0.3^k 0.7^(5 - k) (|z| < 5, fixed beforehand)
    rng = np.random.default_rng(19)
    runs, n, f = 4000, 5, 0.7
    patterns = np.zeros(2**n)
    for _ in range(runs):
        idx, _ = _fail_draws(n, 3, f, rng)
        patterns[np.sum(2**idx)] += 1
    k = np.array([bin(m).count("1") for m in range(2**n)])
    p = (1.0 - f) ** k * f ** (n - k)
    assert np.max(np.abs((patterns - runs * p) / np.sqrt(runs * p * (1.0 - p)))) < 5.0


def test_perturbation_draws_normals_only_for_failing_rows():
    bad = _apply_infidelity(0.7)
    assert 0 < bad.sum() < bad.size


def test_apply_infidelity_passthrough():
    # f = 1 draws nothing and passes every row unchanged
    assert not _apply_infidelity(1.0).any()


def test_apply_infidelity_fully_randomized_is_orthogonal():
    # f = 0 replaces every row by a state orthogonal to its target
    assert _apply_infidelity(0.0).all()


# ----------------------------------------------- closed forms vs the engine


def test_trial_terms_agree_with_fock_engine():
    rng = np.random.default_rng(6)
    for i in range(8):
        d = int(rng.choice([2, 3, 4]))
        v = float(rng.uniform(0, 1))
        s, n, f = _haar(rng, d), _haar(rng, d), _haar(rng, d)
        outs = [_haar(rng, d) for _ in range(d)]
        p_coal_e, p_split_e, p_fil_e, q_e = coincidence_probabilities(s, n, v, f, outs)
        # the closed forms in the coordinates of a basis whose column k is
        # the ancilla, which is then e_k
        k = i % d
        U = _basis_with_column(n.amps, k)
        S, filt, bras = (_in_basis(U, x) for x in (s.amps[None], f.amps[None], np.stack([o.amps for o in outs])))
        F, G = _overlaps(bras, S), np.conj(bras[:, k])[None]
        p_fil_c, q_c = _terms(S, [k], v, filt, F, G)
        x = (v * abs(np.vdot(s.amps, n.amps))) ** 2
        assert p_coal_e == pytest.approx(2 * _half_coal(S, [k], v)[0], abs=1e-12)
        assert p_split_e == pytest.approx(0.5, abs=1e-12)
        assert p_fil_e == pytest.approx(p_fil_c[0], abs=1e-12)
        # engine weights live on the normalized pair state
        assert np.max(np.abs(q_e - q_c[0] / (2 * (1 + x)))) < 1e-12


def _haar_rows(rng, n, d):
    z = rng.standard_normal((n, d, 2)) @ np.array([1.0, 1j])
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _overlaps(states, x):
    """<g_j|x> for explicit scanner states g_j (shape (..., d, d)), per row."""
    return np.einsum("...ji,...i->...j", np.conj(states), x)


def _elementwise_terms(S, N, v, F, G):
    """The closed forms of ``_event_terms``, written out term by term."""
    c = (np.conj(S) * N).sum(axis=-1)
    x = v * v * np.abs(c) ** 2
    A = (np.conj(F) * S).sum(axis=-1)
    B = (np.conj(F) * N).sum(axis=-1)
    p_filter = (
        np.abs(A) ** 2 + np.abs(B) ** 2 + 2 * v * v * np.real(np.conj(A) * B * np.conj(c))
    ) / (2 * (1 + x))
    F_j = (np.conj(G) * S[..., None, :]).sum(axis=-1)
    G_j = (np.conj(G) * N[..., None, :]).sum(axis=-1)
    q = (
        np.abs(A[..., None] * G_j) ** 2
        + np.abs(B[..., None] * F_j) ** 2
        + 2 * v * v * np.real(np.conj(A)[..., None] * B[..., None] * np.conj(G_j) * F_j)
    )
    return p_filter, q


def test_event_terms_match_the_elementwise_formulas():
    rng = np.random.default_rng(14)

    def states(*shape):
        z = rng.standard_normal((*shape, 2)) @ np.array([1.0, 1j])
        return z / np.linalg.norm(z, axis=-1, keepdims=True)

    for d in (2, 4, 5):
        S, N, F, G = states(60, d), states(60, d), states(60, d), states(60, d, d)
        # per row, the coordinates of a basis whose column k is that row's N
        k = np.arange(60) % d
        U = [_basis_with_column(n, kr) for n, kr in zip(N, k)]
        Sb, Fb = (np.stack([_in_basis(u, x) for u, x in zip(U, X)]) for X in (S, F))
        bras = np.stack([_in_basis(u, g) for u, g in zip(U, G)])
        for v in (0.0, 0.6, 1.0):
            got = _terms(Sb, k, v, Fb, _overlaps(bras, Sb), np.conj(bras[np.arange(60), :, k]))
            for a, b in zip(got, _elementwise_terms(S, N, v, F, G)):
                assert np.max(np.abs(a - b)) < 1e-12
            assert np.all(got[1] >= 0.0)


def _unit_vector_terms(S, k, v, filters, bras, replaced):
    """The closed forms with the ancilla as the unit vector N = e_k, each
    overlap with N a product summed over components: p_coal/2, p_filter, A,
    B and q. Scanner setting j of a row is its row of ``bras`` (conjugated
    settings) where ``replaced`` and e_j elsewhere."""
    d = S.shape[1]
    N = np.eye(d, dtype=complex)[k]
    settings = np.where(replaced[..., None], np.conj(bras), np.eye(d, dtype=complex))
    c = np.einsum("...i,...i->...", np.conj(S), N)
    x = (v * v) * _abs2(c)
    A = np.einsum("...i,...i->...", np.conj(filters), S)
    B = np.einsum("...i,...i->...", np.conj(filters), N)
    p_filter = (_abs2(A) + _abs2(B) + 2.0 * v * v * np.real(np.conj(A) * B * np.conj(c))) / (2.0 * (1.0 + x))
    a = A[:, None] * np.einsum("...ji,...i->...j", np.conj(settings), N)
    b = B[:, None] * np.einsum("...ji,...i->...j", np.conj(settings), S)
    q = (v * v) * _abs2(a + b) + (1.0 - v * v) * (_abs2(a) + _abs2(b))
    return (1.0 + x) / 8.0, p_filter, A, B, q


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_index_closed_forms_equal_the_unit_vector_products_exactly(d):
    # with the ancilla e_k, each overlap with it is a component (a gather),
    # and the products with 0 and 1 that it replaces are exact: bit for bit
    # the same numbers, for every k, on Haar signals, filters and settings
    rng = np.random.default_rng(40 + d)
    n = 30 * d
    S, filters = _haar_rows(rng, n, d), _haar_rows(rng, n, d)
    bras = np.conj(_haar_rows(rng, n * d, d)).reshape(n, d, d)
    replaced = rng.random((n, d)) < 0.5
    k = np.arange(n) % d
    rows = np.arange(n)
    # the kernel's scanner overlaps: F_j = S_j and G_j = delta_jk for an
    # unperturbed setting, bra_j . S and bra_j[k] for a replaced one
    F = np.where(replaced, np.einsum("eji,ei->ej", bras, S), S)
    G = np.where(replaced, bras[rows, :, k], np.eye(d)[k])
    for v in (0.0, 0.6, 1.0):
        half_coal, p_filter, A, B, q = _unit_vector_terms(S, k, v, filters, bras, replaced)
        assert np.array_equal(_half_coal(S, k, v), half_coal)
        got = _filter_terms(S, k, v, filters)
        for a, b in zip(got, (p_filter, A, B)):
            assert np.array_equal(a, b)
        assert np.array_equal(_event_terms(got[1], got[2], v, F, G), q)


def test_e_trial_scanner_weights_are_a_factor_times_the_weights_drawn():
    # an E trial has S = filter = e_p and N = e_k, so A = 1 and B = delta_pk,
    # and its scanner weights are q_j = c X_j, X_j = |component k of g_j|^2,
    # c = 2 + 2 v^2 for k = p and 1 otherwise: at d = 5, for every p and k,
    # on settings each kept (e_j) or replaced by a Haar state orthogonal to
    # e_j, which covers every value of X, 1 for an unreplaced setting k and
    # 0 for an unreplaced other setting or a replaced setting k. The bound
    # is 8 ulps of c, fixed beforehand
    d, v, n = 5, 0.83, 200
    rng = np.random.default_rng(58)
    targets = np.tile(np.arange(d), n)
    for p in range(d):
        S = np.zeros((n, d), dtype=complex)
        S[:, p] = 1.0
        for k in range(d):
            _, A, B = _filter_terms(S, np.full(n, k), v, S)
            haar = _complement_states(targets, rng.standard_normal((n * d, 2 * d - 2)))
            g = np.where((rng.random((n, d)) < 0.5)[..., None], haar.reshape(n, d, d), np.eye(d))
            c = 2.0 + 2.0 * v * v if k == p else 1.0
            q = _event_terms(A, B, v, np.conj(g[:, :, p]), np.conj(g[:, :, k]))
            assert np.max(np.abs(q - c * _abs2(g[:, :, k]))) <= 8 * np.finfo(float).eps * c


@pytest.mark.parametrize("d", [3, 4, 8, 32])
def test_e_trial_weight_has_the_law_of_a_replaced_settings_component(d):
    # the X = 1 - U^(1/(d - 2)) that an E trial draws for its first replaced
    # setting j (at f_a = 1 no other setting is replaced) against
    # |component k|^2 of Haar states orthogonal to e_j from
    # ``_complement_states``: both Beta(1, d - 2) samples, with mean
    # 1/(d - 1), second moment 2/(d (d - 1)) and 1/10 of the draws in each
    # of 10 bins of equal probability (|z| < 5, fixed beforehand)
    rng = np.random.default_rng(50 + d)
    n = 20_000
    rows = np.arange(n)
    k = rng.integers(0, d, n)
    j = (k + rng.integers(1, d, n)) % d
    table = _clean_row_table(0, np.full(d, 1.0 / d), 0.9, 1.0, 1.0)
    x = _e_trial_weights(table, k, j, rng)
    drawn = np.zeros((n, d), dtype=bool)
    drawn[rows, j] = True
    assert np.array_equal(x[~drawn], np.eye(d)[k][~drawn])  # 1 for setting k, 0 elsewhere
    haar = _abs2(_complement_states(j, rng.standard_normal((n, 2 * d - 2)))[rows, k])
    edges = 1.0 - (1.0 - np.linspace(0.0, 1.0, 11)) ** (1.0 / (d - 2))
    for sample in (x[rows, j], haar):
        for power, moment in ((1, 1.0 / (d - 1)), (2, 2.0 / (d * (d - 1)))):
            y = sample**power
            assert abs(y.mean() - moment) < 5.0 * y.std() / np.sqrt(n)
        counts = np.histogram(sample, edges)[0]
        assert np.max(np.abs(_one_sample_z(counts, n, 0.1))) < 5.0


def _one_sample_z(counts, n, probs):
    """Per outcome, the z-score of the ``counts`` of n independent draws
    against the outcome probabilities ``probs``."""
    return (counts - n * probs) / np.sqrt(n * probs * (1.0 - probs))


# The configs with an ideal analyzer, where the exact law exists: basis, v,
# preparation fidelity, ancilla weights (None: uniform), the stream seed of
# the pooled batches and the seed of the whole runs
_LAW_CASES = {
    "ideal-I": (basis_logical, 1.0, 1.0, None, 111, 101),
    "prep-only-IV": (basis_four, 0.95, 0.8, (0.4, 0.2, 0.2, 0.2), 112, 102),
    "uneven-F3": (_fourier_basis, 0.9, 0.85, (0.5, 0.3, 0.2), 113, 103),
    "uneven-Haar4": (_haar_basis, 0.8, 0.7, (0.1, 0.2, 0.3, 0.4), 114, 104),
}


@pytest.mark.parametrize("case", sorted(_LAW_CASES))
def test_batches_and_runs_sample_the_exact_outcome_law(case):
    # per input, against the exact per-trial law P_j that ``outcome_law``
    # builds from the second-quantized engine, with none of the kernel's
    # closed forms (|z| < 5, fixed beforehand): 16 pooled batches against
    # 16 BATCH_TRIALS P_j, which checks the yield per trial, and a whole run
    # of 25 000 shots against shots P_j / sum(P), which checks the batch loop
    # and the sample kept of the batch that fills shots
    make_basis, v, prep_f, weights, pooled_seed, run_seed = _LAW_CASES[case]
    basis = make_basis()
    d = basis.dim
    config = ExperimentConfig(shots=25_000, v=v, prep_fidelity=prep_f, ancilla_weights=weights,
                              seed=run_seed)
    for i, phi in enumerate(basis.states):
        law = outcome_law(basis, i, config)
        table = _clean_row_table(i, config.weights_for(d), v, prep_f, 1.0)
        pooled = np.zeros(d)
        for b in range(16):
            pooled += _simulate_batch(table, _batch_rng(pooled_seed, i, b))
        assert np.max(np.abs(_one_sample_z(pooled, 16 * BATCH_TRIALS, law))) < 5.0
        counts = run_cloning_experiment(phi, basis, config).counts
        counts = np.array([counts[k] for k in range(d)])
        assert np.max(np.abs(_one_sample_z(counts, config.shots, law / law.sum()))) < 5.0


class _CallLog:
    """A stream that records the name of each method called on it and
    forwards the call to ``rng``."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_ideal_batch_draws_one_multinomial_and_nothing_else():
    # with f = 1 no state can be replaced, so every near cell is empty and a
    # batch is one multinomial draw, whose outcome cells are its counts. At
    # v = 1 a trial with the input's ancilla is counted below p_coal/2 = 1/4,
    # any other below its bound of step 5, 1/16: 7/64 of a batch
    table = _clean_row_table(0, np.full(4, 0.25), 1.0, 1.0, 1.0)
    assert not table.cells[:24].any()
    assert table.cells[24:28].sum() == pytest.approx(7 / 64, rel=1e-12)
    rng = _CallLog(_batch_rng(3, 0, 0))
    counts = _simulate_batch(table, rng)
    assert rng.calls == ["multinomial"]
    fresh = _batch_rng(3, 0, 0)
    assert np.array_equal(counts, fresh.multinomial(BATCH_TRIALS, table.cells)[24:28])
    assert _stream_position(rng.rng) == _stream_position(fresh)


def test_prep_only_batch_draws_its_perturbation_only_for_near_trials():
    # with an ideal analyzer only the A cell of the input's ancilla, a
    # replaced signal below 1/16, holds near trials: (1 - f) w_2/16 of a
    # batch draws its accept uniform and its signal's normals, and nothing
    # else draws
    v, f = 0.9, 0.8
    table = _clean_row_table(2, np.full(4, 0.25), v, f, 1.0)
    rng = _batch_rng(21, 2, 0)
    _simulate_batch(table, rng)
    fresh = _batch_rng(21, 2, 0)
    n = fresh.multinomial(BATCH_TRIALS, table.cells)
    n_a = n[:4].sum()
    assert 0 < n_a < BATCH_TRIALS // 16 and not n[4:24].any()
    fresh.random(n_a)
    fresh.standard_normal((n_a, 6))
    assert _stream_position(rng) == _stream_position(fresh)


def test_analysis_only_batch_draws_scanner_states_only_for_filter_passing_trials():
    # with a clean signal there are no A or A' trials, and no C trial with
    # the input's ancilla, whose replaced filter can never click; a C trial
    # draws its replaced filter, and its scanner settings only if it passes
    # its own bound of step 5, each replaced with its normals; an E trial
    # draws which settings after its first replaced one in the order that
    # puts its ancilla's setting last are replaced, then one uniform per
    # replaced setting other than its ancilla's and one for that first one
    basis = basis_logical()
    phi, v, f = basis.states[0].amps, 0.9, 0.7
    table = _clean_row_table(0, np.full(4, 0.25), v, 1.0, f)
    rng = _batch_rng(22, 0, 0)
    _simulate_batch(table, rng)
    fresh = _batch_rng(22, 0, 0)
    n = fresh.multinomial(BATCH_TRIALS, table.cells)[:24]
    cell = np.repeat(np.arange(24), n)
    kind, anc = np.divmod(cell, 4)
    assert not n[:9].any()
    u = fresh.random(len(cell)) * table.reach[cell]
    c = kind == 2
    N = basis.matrix.T[anc[c]]
    filters = _basis_complement(0, fresh.standard_normal((int(c.sum()), 6))) @ basis.matrix.T
    p_filter, _ = _elementwise_terms(phi, N, v, filters, basis.matrix.T)
    half_coal = (1.0 + v * v * np.abs(N @ np.conj(phi)) ** 2) / 8.0
    passing = int(np.count_nonzero(u[c] < half_coal * p_filter * (1.0 + 1e-9)))
    assert 0 < passing < c.sum()
    _replay_fail_draws(fresh, 4 * passing, f)
    e = kind >= 3
    position, i = _setting_order(kind[e], anc[e], 4)
    free = position > i
    replaced = np.zeros(int(free.sum()), dtype=bool)
    replaced[fresh.choice(len(replaced), fresh.binomial(len(replaced), 1.0 - f), replace=False,
                          shuffle=False)] = True
    assert replaced.any()
    others = np.count_nonzero(replaced & (position[free] != 3))  # the replaced settings j != k
    assert 0 < others < replaced.sum()
    fresh.random(others + int(e.sum()))
    assert _stream_position(rng) == _stream_position(fresh)


def _two_sample_z(case, reference, seeds, batches=16):
    """Per input and outcome, the z-score between the pooled counts of
    ``batches`` batches per input of the kernel (stream seed ``seeds[0]``)
    and of ``reference`` (seed ``seeds[1]``)."""
    make_basis, v, prep_f, analysis_f, weights = _TABLE_CASES[case]
    basis = make_basis()
    weights = np.full(4, 0.25) if weights is None else np.array(weights)
    n = batches * BATCH_TRIALS
    counts = np.zeros((2, 4, 4))
    for i in range(4):
        table = _clean_row_table(i, weights, v, prep_f, analysis_f)
        for b in range(batches):
            counts[0, i] += _simulate_batch(table, _batch_rng(seeds[0], i, b))
            hits = reference(i, basis.matrix, weights, v, prep_f, analysis_f, _batch_rng(seeds[1], i, b))
            counts[1, i] += np.bincount(hits, minlength=4)
    p = counts.sum(axis=0) / (2 * n)
    return (counts[0] - counts[1]) / np.sqrt(2 * n * p * (1.0 - p))


def test_lazy_draws_sample_the_layout_2_law():
    # two independent samples of the degraded basis-IV bench, and of basis I
    # with analysis noise alone, where only the analyzer states are ever
    # replaced: one from the kernel and one from a reference that draws
    # every perturbation as layout 2 did, for every trial below 1. Per input
    # and outcome the pooled counts must agree. With analysis noise the law
    # has no closed form, so this is its reference
    for case, seeds in [("degraded-IV", (71, 72)), ("analysis-only-I", (73, 74))]:
        assert np.max(np.abs(_two_sample_z(case, _layout2_batch, seeds))) < 5.0, case


# ------------------------------------------------- clean-row threshold table


def _reference_hits(u, half_coal, p_filter, q):
    """The outcomes of the accepted rows, from their cumulative thresholds."""
    cum_q = np.cumsum(q, axis=1)
    totals = cum_q[:, -1:]
    thresholds = (half_coal * p_filter)[:, None] * cum_q / np.where(totals > 0.0, totals, 1.0)
    thresholds[totals[:, 0] <= _Q_TOTAL_CUTOFF] = 0.0  # rounding residue never clicks
    outcomes = (u[:, None] >= thresholds).sum(axis=1)
    return outcomes[outcomes < q.shape[1]]


def _clean_reference(p, d, v):
    """The clean trial of each ancilla of input ``p``, written out term by
    term: its bound b_k of step 5 and its thresholds, capped at b_k. In
    basis coordinates, where a structural zero of the bench is an exact 0 as
    in the kernel: a cell of probability 0 draws nothing, one of 1e-33
    draws."""
    eye = np.eye(d, dtype=complex)
    S = np.broadcast_to(eye[p], (d, d))
    clean_coal = (1.0 + (v * v) * np.abs(eye[:, p]) ** 2) / 8.0
    clean_filter, q = _elementwise_terms(S, eye, v, S, np.broadcast_to(eye, (d, d, d)))
    bound = np.minimum(clean_coal, clean_coal * clean_filter * (1.0 + 1e-9))
    thresholds = (clean_coal * clean_filter)[:, None] * np.cumsum(q, axis=1) / q.sum(axis=1, keepdims=True)
    return bound, np.minimum(thresholds, bound[:, None])


def _reference_near_trials(p, basis_cols, weights, v, prep_f, analysis_f, rng):
    """Steps 1-4 of a reference batch of input ``p`` in the draw order of
    stream layouts 12 and 13, which build the cells from the clean trial of
    each ancilla and the reach of each kind of near trial, written out term
    by term, and evaluate p_coal/2 and the filter terms on every near trial
    from explicit states in lab coordinates, with no clean-row table. The
    closed forms take the signal and filter states in the coordinates of the
    measurement basis, whose column k is ancilla k. A trial passes step 5's
    bounds as two comparisons, u below p_coal/2 and u below
    p_coal/2 * p_filter * (1 + 1e-9). Returns the counts of the clean trials
    and, for the near trials that pass, in cell order, their kind, ancilla
    index, u, signal, ancilla, filter and p_coal/2."""
    d = len(basis_cols)
    phi = basis_cols[:, p]
    settings = basis_cols.T
    margin = 1.0 + 1e-9
    bound, thresholds = _clean_reference(p, d, v)
    # the reach of each kind, per ancilla: a replaced signal S is orthogonal
    # to e_p, so with the ancilla e_p, p_coal/2 = 1/8 and p_filter <= 1/2;
    # with another ancilla and the filter e_p kept, <e_p|S> = <e_p|N> = 0
    # and the filter never clicks, nor does a replaced filter on the signal
    # e_p and the ancilla e_p
    at_p = np.arange(d) == p
    p_near = (1.0 + v * v) / 8.0 * margin
    reach = np.concatenate([
        np.where(at_p, margin / 16.0, 0.0),  # A_k: signal replaced, filter kept
        np.where(at_p, margin / 16.0, p_near),  # A'_k: both replaced
        np.where(at_p, 0.0, bound),  # C_k: filter replaced
        np.tile(bound, d - 1),  # E_{i,k} (i-major): setting i of the k-last order first replaced
    ])
    # the cells: the near cells, O_j, the rest
    w = weights / weights.sum()
    near = [w * (1.0 - prep_f) * analysis_f, w * (1.0 - prep_f) * (1.0 - analysis_f),
            w * prep_f * (1.0 - analysis_f)]
    near += [w * prep_f * analysis_f * analysis_f**i * (1.0 - analysis_f) for i in range(d - 1)]
    near = np.concatenate(near) * reach
    clean = w * prep_f * analysis_f ** (d + 1) @ np.diff(thresholds, axis=1, prepend=0.0)
    n = rng.multinomial(BATCH_TRIALS, [*near, *clean, 1.0 - near.sum() - clean.sum()])
    counts = n[len(near) : len(near) + d].copy()
    cell = np.repeat(np.arange(len(near)), n[: len(near)])
    kind, anc = np.divmod(cell, d)
    u = rng.random(len(anc)) * reach[cell]
    N = settings[anc]
    # step 3: the signals of the A and A' trials; p_coal/2 of every trial
    S = np.array(np.broadcast_to(phi, (len(anc), d)))
    s_rows = np.flatnonzero(kind <= 1)
    S[s_rows] = _basis_complement(p, rng.standard_normal((len(s_rows), 2 * d - 2))) @ settings
    half_coal = (1.0 + (v * v) * np.abs(np.einsum("bi,bi->b", np.conj(S), N)) ** 2) / 8.0
    # step 4: the filters of the A' trials kept, then of the C trials
    filters = np.array(np.broadcast_to(phi, (len(anc), d)))
    f_rows = np.flatnonzero(((kind == 1) & (u < half_coal)) | (kind == 2))
    filters[f_rows] = _basis_complement(p, rng.standard_normal((len(f_rows), 2 * d - 2))) @ settings
    p_filter = _filter_terms(_in_basis(basis_cols, S), anc, v, _in_basis(basis_cols, filters))[0]
    rows = np.flatnonzero((u < half_coal) & (u < half_coal * p_filter * margin))
    return (counts, *(x[rows] for x in (kind, anc, u, S, N, filters, half_coal)))


def _setting_order(kind, anc, d):
    """Per trial, the position of each scanner setting j in the order that
    puts the ancilla's setting k last, and the position i of the trial's
    first replaced setting (kind 3 + i), -1 for an A, A' or C trial."""
    k = anc[:, None]
    j = np.arange(d)
    return np.where(j == k, d - 1, j - (j > k)), np.where(kind >= 3, kind - 3, -1)[:, None]


def _reference_counts(basis_cols, v, kind, anc, u, S, N, filters, half_coal, G):
    """The counts per outcome of the trials that reach step 5, from their
    explicit scanner settings ``G`` (lab coordinates) through the full
    closed forms."""
    p_filter, q = _terms(_in_basis(basis_cols, S), anc, v, _in_basis(basis_cols, filters),
                         _overlaps(G, S), _overlaps(G, N))
    return np.bincount(_reference_hits(u, half_coal, p_filter, q), minlength=len(basis_cols))


def _settings_with_weight(j, k, x, settings):
    """Scanner settings in lab coordinates, one per entry of ``j``, ``k`` and
    ``x``: sqrt(x) e_k + sqrt(1 - x) e_m in basis coordinates, m the first
    index other than j and k, rotated by the basis whose rows are
    ``settings``. It is a unit vector orthogonal to e_j (for j = k when
    x = 0) with |component k|^2 = x."""
    d = len(settings)
    m = np.where((j != 0) & (k != 0), 0, np.where((j != 1) & (k != 1), 1, 2))
    chi = np.zeros((len(j), d))
    chi[np.arange(len(j)), k] = np.sqrt(x)
    chi[np.arange(len(j)), np.minimum(m, d - 1)] += np.sqrt(1.0 - x)  # at d = 2 x = 1 for j != k
    return chi @ settings


def _per_row_batch(p, basis_cols, weights, v, prep_f, analysis_f, rng):
    """Reference: a batch of input ``p`` in the kernel's draw order (stream
    layout 13), with steps 1-4 of :func:`_reference_near_trials`; returns its
    counts per outcome. Step 5 replaces every scanner setting of each A, A'
    and C trial with probability 1 - f_a by a Haar state orthogonal to it.
    Then, for the E trials, it draws which settings after the first
    replaced one in the order that puts setting k last are replaced, one
    uniform U per replaced setting j != k and one per trial for that first
    one, X = 1 - U^(1/(d - 2)) (X = 1 at d = 2). Each such setting is built
    in full, in lab coordinates, with |component k|^2 = X, and a replaced
    setting k with component k = 0 (:func:`_settings_with_weight`): any
    completion gives the same scanner weights, so evaluating every trial
    through the full closed forms checks the kernel's shortcut trial by
    trial."""
    counts, kind, anc, u, S, N, filters, half_coal = _reference_near_trials(
        p, basis_cols, weights, v, prep_f, analysis_f, rng)
    d = len(basis_cols)
    settings = basis_cols.T
    G = np.array(np.broadcast_to(settings, (len(anc), d, d)))
    full = int(np.count_nonzero(kind <= 2))  # the A, A' and C trials come first
    G[:full] = _basis_perturbed(basis_cols, np.arange(d), (full, d), analysis_f, rng)
    position, i = _setting_order(kind[full:], anc[full:], d)
    k = anc[full:, None]
    free = position > i
    replaced = np.zeros(int(free.sum()), dtype=bool)
    if analysis_f < 1.0:
        n_free = len(replaced)
        replaced[rng.choice(n_free, rng.binomial(n_free, 1.0 - analysis_f), replace=False,
                            shuffle=False)] = True
    bad = np.zeros_like(free)
    bad[free] = replaced
    rows, cols = np.nonzero(bad & (np.arange(d) != k))
    rows = np.concatenate([rows, np.arange(len(k))])
    cols = np.concatenate([cols, np.argmax(position == i, axis=1)])
    x = np.ones(len(rows)) if d == 2 else 1.0 - rng.random(len(rows)) ** (1.0 / (d - 2))
    G_e = G[full:]  # a view: the settings of the E trials
    G_e[rows, cols] = _settings_with_weight(cols, k[rows, 0], x, settings)
    k_rows = np.flatnonzero(bad[np.arange(len(k)), k[:, 0]])
    G_e[k_rows, k[k_rows, 0]] = _settings_with_weight(k[k_rows, 0], k[k_rows, 0], 0.0, settings)
    return counts + _reference_counts(basis_cols, v, kind, anc, u, S, N, filters, half_coal, G)


def _layout12_batch(p, basis_cols, weights, v, prep_f, analysis_f, rng):
    """Reference for the sampled law: a batch of input ``p`` as stream
    layout 12 drew it, with steps 1-4 of :func:`_reference_near_trials`;
    returns its counts per outcome. Step 5 replaces each scanner setting
    after the trial's first replaced one in the order that puts setting k
    last (every setting of an A, A' or C trial) with probability 1 - f_a,
    then that first one of each E trial, each by a Haar state orthogonal to
    it drawn from 2(d - 1) normals, and evaluates every trial through the
    full closed forms."""
    counts, kind, anc, u, S, N, filters, half_coal = _reference_near_trials(
        p, basis_cols, weights, v, prep_f, analysis_f, rng)
    d = len(basis_cols)
    settings = basis_cols.T
    position, i = _setting_order(kind, anc, d)
    free = position > i
    G = np.array(np.broadcast_to(settings, (len(anc), d, d)))
    G[free] = _basis_perturbed(basis_cols, np.nonzero(free)[1], (int(free.sum()),), analysis_f, rng)
    e = np.flatnonzero(i[:, 0] >= 0)
    first = np.argmax(position[e] == i[e], axis=1)
    z = rng.standard_normal((len(e), 2 * d - 2))
    G[e, first] = _basis_complement(first, z) @ settings
    return counts + _reference_counts(basis_cols, v, kind, anc, u, S, N, filters, half_coal, G)


def _layout2_batch(p, basis_cols, weights, v, prep_f, analysis_f, rng):
    """Reference for the sampled law: a batch of input ``p`` in the
    stream-layout-2 draw order, which perturbs the signal of every trial and
    both analyzer arms of every trial kept at p_coal/2, evaluated row by
    row."""
    B = BATCH_TRIALS
    d = len(basis_cols)
    phi = basis_cols[:, p]
    u = rng.random(B)
    anc_idx = np.minimum(np.searchsorted(np.cumsum(weights), rng.random(B), side="right"), d - 1)
    N = basis_cols.T[anc_idx]
    S = _perturbed(np.broadcast_to(phi, (B, d)), prep_f, rng)
    half_coal = (1.0 + (v * v) * np.abs(np.einsum("bi,bi->b", np.conj(S), N)) ** 2) / 8.0
    keep = u < half_coal
    u, S, N, anc_idx, half_coal = u[keep], S[keep], N[keep], anc_idx[keep], half_coal[keep]
    filters = _perturbed(np.broadcast_to(phi, (len(u), d)), analysis_f, rng)
    G = _perturbed(np.broadcast_to(basis_cols.T, (len(u), d, d)), analysis_f, rng)
    p_filter, q = _terms(_in_basis(basis_cols, S), anc_idx, v, _in_basis(basis_cols, filters),
                         _overlaps(G, S), _overlaps(G, N))
    return _reference_hits(u, half_coal, p_filter, q)


def _assert_table_path_matches_reference(basis, phi_index, weights, v, prep_f, analysis_f,
                                         seed, batches):
    table = _clean_row_table(phi_index, weights, v, prep_f, analysis_f)
    for b in range(batches):
        fast, slow = _batch_rng(seed, phi_index, b), _batch_rng(seed, phi_index, b)
        counts = _simulate_batch(table, fast)
        expected = _per_row_batch(phi_index, basis.matrix, weights, v, prep_f, analysis_f, slow)
        assert np.array_equal(counts, expected), (b, counts, expected)
        assert _stream_position(fast) == _stream_position(slow)


_TABLE_CASES = {
    "ideal-I": (basis_logical, 1.0, 1.0, 1.0, None),
    "prep-only-IV": (basis_four, 0.95, 0.8, 1.0, (0.4, 0.2, 0.2, 0.2)),
    "analysis-only-I": (basis_logical, 0.9, 1.0, 0.7, None),
    "degraded-IV": (basis_four, 0.9165, 0.9, 0.9, (0.3, 0.3, 0.2, 0.2)),
    "degraded-F3": (_fourier_basis, 0.9165, 0.9, 0.9, (0.4, 0.3, 0.3)),
    "degraded-Haar4": (_haar_basis, 0.9165, 0.9, 0.9, (0.3, 0.3, 0.2, 0.2)),
    "all-replaced-IV": (basis_four, 0.9, 0.0, 0.0, None),  # every row dirty
    "degraded-Haar2": (partial(_haar_basis, 2), 0.9165, 0.9, 0.9, (0.6, 0.4)),  # X = 1
    "degraded-F8": (partial(_fourier, 8), 0.9165, 0.9, 0.9, None),
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_table_path_matches_per_row_reference(case):
    make_basis, v, prep_f, analysis_f, weights = _TABLE_CASES[case]
    basis = make_basis()
    weights = np.full(basis.dim, 1.0 / basis.dim) if weights is None else np.array(weights)
    for phi_index in range(basis.dim):
        _assert_table_path_matches_reference(
            basis, phi_index, weights, v, prep_f, analysis_f, seed=43, batches=6
        )


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_near_trials_reach_as_far_as_a_trial_can_be_kept(monkeypatch, case):
    # the reach of a near cell is the largest bound of step 5 that a trial
    # of its kind can reach: with the input's ancilla k = p, 1/16 for a
    # replaced signal, whose p_coal/2 is 1/8 and p_filter at most 1/2, and 0
    # for a C trial; with k != p, 0 for a replaced signal behind a kept
    # filter, p_near for a replaced signal and filter, and the clean bound
    # b_k of step 5 for a C trial, whose replaced filter never raises
    # p_filter above the clean one; b_k for an E trial, whose signal and
    # filter are clean. So every near trial lies below its reach, every A
    # trial passes to step 5, every C trial is kept at step 4, the A, A'
    # and C trials that pass reach the scanner draws of step 5, every E
    # trial reaches its own with a first replaced setting other than k, and
    # a batch that can replace no state walks no trial
    make_basis, v, prep_f, analysis_f, weights = _TABLE_CASES[case]
    d = make_basis().dim
    weights = np.full(d, 1.0 / d) if weights is None else np.array(weights)
    arms, scanners, e_trials = [], [], []

    def signal_and_filter_arms(table, u, anc, n_a, n_af, n_c, rng):
        out = _signal_and_filter_arms(table, u, anc, n_a, n_af, n_c, rng)
        arms.append((u.copy(), anc.copy(), n_a, n_af, n_c, out[0]))
        return out

    def scanner_overlaps(table, S, anc, rng):
        scanners.append(len(S))
        return _scanner_overlaps(table, S, anc, rng)

    def e_trial_weights(table, anc, first, rng):
        e_trials.append((anc.copy(), first.copy()))
        return _e_trial_weights(table, anc, first, rng)

    monkeypatch.setattr(experiment, "_signal_and_filter_arms", signal_and_filter_arms)
    monkeypatch.setattr(experiment, "_scanner_overlaps", scanner_overlaps)
    monkeypatch.setattr(experiment, "_e_trial_weights", e_trial_weights)
    p_near = (1.0 + v * v) / 8.0 * (1.0 + 1e-9)
    low = (1.0 + 1e-9) / 16.0
    for p in range(d):
        table = _clean_row_table(p, weights, v, prep_f, analysis_f)
        bound = _scanner_bound(table.half_coal, table.p_filter)
        at_p = np.arange(d) == p
        assert np.array_equal(table.reach, np.concatenate([
            np.where(at_p, low, 0.0), np.where(at_p, low, p_near), np.where(at_p, 0.0, bound),
            np.tile(bound, d - 1),
        ]))
        for b in range(3):
            arms.clear()
            scanners.clear()
            e_trials.clear()
            _simulate_batch(table, _batch_rng(47, p, b))
            if prep_f == analysis_f == 1.0:
                assert arms == scanners == e_trials == []
                continue
            (u, anc, n_a, n_af, n_c, passed), = arms
            n_s = n_a + n_af
            assert len(u) > 0
            assert np.all(anc[:n_a] == p) and np.all(u[:n_a] < low)
            assert np.all(u[n_a:n_s] < np.where(anc[n_a:n_s] == p, low, p_near))
            assert np.all(anc[n_s : n_s + n_c] != p)
            assert np.all(u[n_s:] < bound[anc[n_s:]])
            assert np.all(u[n_s : n_s + n_c] < table.half_coal[anc[n_s : n_s + n_c]])
            assert np.isin(np.arange(n_a), passed).all()
            assert scanners == [len(passed)]
            (e_anc, e_first), = e_trials
            assert len(e_first) == len(u) - n_s - n_c
            assert np.all((e_first >= 0) & (e_first < d) & (e_first != e_anc))


def test_a_replaced_filter_never_raises_p_filter_above_the_clean_one():
    # the reaches rest on the structural zeros of the bench: a replaced
    # state is orthogonal to its target. With the signal e_p a replaced
    # filter has A = <filter|e_p> = 0 and p_filter = |filter_k|^2/2 <= 1/2
    # for k != p and 0 for k = p, never above the clean p_filter of ancilla
    # k (1/2 and 1), so a C trial stays below the clean bound b_k. A
    # replaced signal S has S_p = 0 and A = 0 behind the kept filter e_p:
    # with k != p also B = 0, so p_filter = 0; with k = p, p_coal/2 = 1/8
    # and p_filter <= 1/2, a bound at or below the reach 1/16 of its cells,
    # with the filter kept or replaced. A clean trial whose only replaced
    # scanner setting is k has every q_j = 0. The zeros are exact; a trial's
    # largest threshold, p_coal/2 * p_filter, lies at or below the reach of
    # its cell to rounding far inside the reach's margin (the trial's bound
    # of step 5 carries that margin itself, so it may pass the reach by an
    # ulp, where no threshold lies)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(d=st.integers(2, 8), v=st.floats(0.0, 1.0), data=st.data(),
                      seed=st.integers(0, 2**32))
    def check(d, v, data, seed):
        p, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        rng = np.random.default_rng(seed)
        filters = _complement_states(p, rng.standard_normal((64, 2 * d - 2)))
        S = np.zeros((64, d), dtype=complex)
        S[:, p] = 1.0
        anc = np.full(64, k)
        table = _clean_row_table(p, np.full(d, 1.0 / d), v, 1.0, 1.0)
        reach = table.reach.reshape(-1, d)[:, k]  # per kind: A, A', C, then E
        # C: the signal kept, the filter replaced
        p_filter, A, _ = _filter_terms(S, anc, v, filters)
        assert not A.any()
        assert np.all(p_filter <= table.p_filter[k] * (1.0 + 1e-12))
        assert k != p or not p_filter.any()
        assert np.all(table.half_coal[anc] * p_filter <= reach[2])
        # A and A': the signal replaced, the filter kept (S holds e_p) or replaced
        signals = _complement_states(p, rng.standard_normal((64, 2 * d - 2)))
        half_coal = _half_coal(signals, anc, v)
        assert k != p or np.all(half_coal == 1.0 / 8.0)
        for kind, kept in ((0, True), (1, False)):
            p_filter = _filter_terms(signals, anc, v, S if kept else filters)[0]
            assert not kept or k == p or not p_filter.any()
            assert np.all(half_coal * p_filter <= reach[kind])
        # E: signal and filter kept and only setting k replaced, by a state
        # orthogonal to e_k, so G_k = <g_k|e_k> = 0
        _, A, B = _filter_terms(S, anc, v, S)
        bra = np.conj(_complement_states(k, rng.standard_normal((64, 2 * d - 2))))
        F, G = S.copy(), np.zeros_like(S)
        F[:, k], G[:, k] = bra[:, p], bra[:, k]
        assert not _event_terms(A, B, v, F, G).sum(axis=1).any()

    check()


@pytest.mark.parametrize("make_basis", [basis_logical, basis_four])
def test_clean_row_thresholds_are_the_scanner_weights_over_16(make_basis):
    # with an ideal scanner sum(q) = 2 (1 + x) p_filter, so a clean row's
    # thresholds p_coal/2 * p_filter * cum(q)/sum(q) are cum(q)/16, with q
    # written out term by term; a table whose weight is all on ancilla k
    # holds their steps in its outcome cells
    basis = make_basis()
    d = basis.dim
    settings = basis.matrix.T
    scanner = np.broadcast_to(settings, (d, d, d))
    for phi in basis.states:
        S = np.broadcast_to(phi.amps, (d, d))
        for v in (0.0, 0.5, 0.9165, 1.0):
            _, q = _elementwise_terms(S, settings, v, S, scanner)
            for k in range(d):
                table = _clean_row_table(basis.index_of(phi), np.eye(d)[k], v, 1.0, 1.0)
                thresholds = np.cumsum(table.cells[-1 - d : -1])
                assert np.max(np.abs(thresholds - np.cumsum(q[k]) / 16.0)) < 1e-15


def test_ideal_batch_never_evaluates_event_terms(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return _event_terms(*args)

    weights = np.full(4, 0.25)
    table = _clean_row_table(1, weights, 1.0, 1.0, 1.0)
    noisy = _clean_row_table(1, weights, 1.0, 0.5, 1.0)
    monkeypatch.setattr(experiment, "_event_terms", counted)
    for b in range(5):
        counts = _simulate_batch(table, _batch_rng(9, 1, b))
        assert counts.sum() > 0
    assert calls == []
    # the counter sees the rows of a noisy batch, which do need the terms
    _simulate_batch(noisy, _batch_rng(9, 1, 0))
    assert len(calls) == 1 and calls[0] > 0


def test_table_path_matches_reference_on_random_configs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fidelity = st.one_of(st.just(1.0), st.floats(0.0, 1.0))

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        v=st.floats(0.0, 1.0),
        prep_f=fidelity,
        analysis_f=fidelity,
        raw_weights=st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any),
        make_basis=st.sampled_from(_BASES),
        phi_index=st.integers(0, 3),
        seed=st.integers(0, 2**32),
    )
    def check(v, prep_f, analysis_f, raw_weights, make_basis, phi_index, seed):
        basis = make_basis()
        # a d = 3 basis takes the first three weights and any of its inputs
        raw_weights = raw_weights[: basis.dim]
        hypothesis.assume(any(raw_weights))
        weights = np.array(raw_weights, dtype=float) / sum(raw_weights)
        _assert_table_path_matches_reference(
            basis, phi_index % basis.dim, weights, v, prep_f, analysis_f, seed, batches=1
        )

    check()


# -------------------------------------------------------------- batch loop


@pytest.mark.parametrize("weights", [
    (1.0 + 0.9e-12, 0.0, 0.0, 0.0),  # one weight above 1
    (1.0 - 0.9e-12, 0.0, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25 + 0.9e-12),
    (0.3, 0.3, 0.4 - 0.9e-12, 0.0),  # a zero last weight below a sum under 1
    (0.5, 0.5, 0.0, 0.0),
    (0.0, 0.5, 0.0, 0.5),
    (0.0, 0.0, 0.0, 1.0),
])
def test_edge_ancilla_weights_run_through_the_multinomial(weights):
    # every weight vector the constructor accepts runs: the cells of a
    # batch's draw sum to 1 to rounding, the last cell, the trials that are
    # never counted, taking what the others leave, so every near cell of an
    # ancilla of weight zero has probability exactly 0 and no near trial
    # has that ancilla
    config = ExperimentConfig(shots=500, seed=6, ancilla_weights=weights)
    basis = basis_logical()
    table = _clean_row_table(0, config.weights_for(4), config.v, 0.9, 0.9)
    assert table.cells[-1] > 0 and abs(table.cells.sum() - 1.0) < 1e-15
    zero = [k for k, w in enumerate(weights) if w == 0.0]
    assert np.all(table.cells[:24].reshape(6, 4)[:, zero] == 0.0)
    arms = []

    def signal_and_filter_arms(table, u, anc, *args):
        arms.append(anc.copy())
        return _signal_and_filter_arms(table, u, anc, *args)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(experiment, "_signal_and_filter_arms", signal_and_filter_arms)
        for b in range(20):
            _simulate_batch(table, _batch_rng(6, 0, b))
    assert len(arms) == 20 and not np.isin(np.concatenate(arms), zero).any()
    table = run_cloning_experiment(basis.states[0], basis, config)
    assert sum(table.counts) == 500


def _single_batch_run(phi, basis, config):
    """Reference: run_cloning_experiment as one reference stream per batch
    (:func:`_batch_rng`), keeping a ``multivariate_hypergeometric`` sample
    of the outcome counts of the batch that fills ``shots``, drawn on its
    stream after the batch."""
    i = basis.index_of(phi)
    table = _clean_row_table(i, config.weights_for(basis.dim), config.v, config.prep_fidelity,
                             config.analysis_fidelity)
    counts, collected, batch = np.zeros(basis.dim, dtype=np.int64), 0, 0
    while collected < config.shots:
        rng = _batch_rng(config.seed, i, batch)
        batch_counts = _simulate_batch(table, rng)
        if collected + batch_counts.sum() > config.shots:
            batch_counts = rng.multivariate_hypergeometric(batch_counts, config.shots - collected)
        counts += batch_counts
        collected += int(batch_counts.sum())
        batch += 1
    return tuple(counts.tolist()), batch


def _fresh_batch(rng, seed, input_index):
    """The batch whose stream ``rng`` starts: b for a generator at the
    input's start state advanced by b * 2^64 outputs that has drawn
    nothing since (b < 64)."""
    position = _stream_position(rng)
    for b in range(64):
        if _stream_position(_batch_rng(seed, input_index, b)) == position:
            return b
    raise AssertionError(f"not the start of a batch window: {position}")


_RUN_CASES = [
    ("I", ExperimentConfig(shots=3000, seed=3)),
    ("IV", ExperimentConfig(shots=2500, v=0.9165, prep_fidelity=0.9, analysis_fidelity=0.9,
                            ancilla_weights=(0.3, 0.3, 0.2, 0.2), seed=4)),
    ("I", ExperimentConfig(shots=1200, v=0.8, prep_fidelity=0.7, analysis_fidelity=0.8, seed=5)),
]


@pytest.mark.parametrize("runs", [None, 2, 3, 4])
@pytest.mark.parametrize("basis_name, config", _RUN_CASES)
def test_run_counts_match_single_batches(monkeypatch, basis_name, config, runs):
    # the run evaluates batches 0, 1, ... in order, batch b on the input's
    # PCG64 at its start state advanced by b * 2^64 outputs, stops at the
    # batch that fills ``shots`` and records how many kernel calls it made;
    # ``runs`` repeats the run in one process (None: once), and each repeat
    # must start again from batch 0 with nothing carried over from the last
    basis = named_basis(basis_name)
    for i, phi in enumerate(basis.states):
        counts, batches = _single_batch_run(phi, basis, config)
        for _ in range(runs or 1):
            evaluated = []

            def kernel(table, rng):
                evaluated.append(_fresh_batch(rng, config.seed, i))
                return _simulate_batch(table, rng)

            with monkeypatch.context() as patched:
                patched.setattr(experiment, "_simulate_batch", kernel)
                table = run_cloning_experiment(phi, basis, config)
            assert table.counts == counts
            assert evaluated == list(range(batches))
            record = table.to_dict()
            assert record["batches"] == table.batches == batches
            assert record["trials"] == table.trials == batches * BATCH_TRIALS


def _whole_run_z(basis_name, seeds, reference):
    """Per input and outcome, the z-score between the counts of whole runs
    of ``_GOLDEN_CONFIGS[basis_name]`` at 25 000 shots per input (seed
    ``seeds[0]``) and those of ``reference(phi, basis, config)`` on the same
    config at seed ``seeds[1]``."""
    config = replace(_GOLDEN_CONFIGS[basis_name], shots=25000, seed=seeds[0])
    basis = named_basis(basis_name)
    counts = np.zeros((2, 4, 4))
    for i, phi in enumerate(basis.states):
        counts[0, i] = [run_cloning_experiment(phi, basis, config).counts[k] for k in range(4)]
        reference_counts = reference(phi, basis, replace(config, seed=seeds[1]))
        counts[1, i] = [reference_counts[k] for k in range(4)]
    n = config.shots
    p = counts.sum(axis=0) / (2 * n)
    return (counts[0] - counts[1]) / np.sqrt(2 * n * p * (1.0 - p))


def _layout12_run(phi, basis, config):
    """The counts of a whole run of ``config`` whose batches are layout
    12's (:func:`_layout12_batch`) in place of the kernel's."""
    weights = config.weights_for(basis.dim)

    def layout12(table, rng):
        return _layout12_batch(table.p, basis.matrix, weights, table.v, config.prep_fidelity,
                               table.analysis_f, rng)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(experiment, "_simulate_batch", layout12)
        return run_cloning_experiment(phi, basis, config).counts


@pytest.mark.parametrize("basis_name", ["I", "IV"])
def test_whole_runs_sample_the_layout_12_law(basis_name):
    # whole runs of the ideal basis-I and the degraded basis-IV bench (seed
    # 95) against the same runs with layout 12's batches, which draw every
    # replaced scanner setting of an E trial as a Haar state (seed 96): per
    # input and outcome the counts must agree (|z| < 5, fixed beforehand)
    assert np.max(np.abs(_whole_run_z(basis_name, (95, 96), _layout12_run))) < 5.0


@pytest.mark.parametrize("shots", [50, 51, 16, 17, 1])
def test_the_batch_that_fills_shots_keeps_a_hypergeometric_sample(monkeypatch, shots):
    # a stand-in kernel gives every batch the same 17 hits, counted per
    # outcome and drawing nothing; the run adds every full batch and, of the
    # batch that fills ``shots``, a multivariate_hypergeometric sample of its
    # counts drawn from the start of that batch's window
    hits = np.array([5, 3, 2, 7])
    monkeypatch.setattr(experiment, "_simulate_batch", lambda table, rng: hits.copy())
    basis = basis_logical()
    config = ExperimentConfig(shots=shots, seed=12)
    for i, phi in enumerate(basis.states):
        full, need = divmod(shots, 17)
        expected = full * hits
        if need:
            expected += _batch_rng(12, i, full).multivariate_hypergeometric(hits, need)
        table = run_cloning_experiment(phi, basis, config)
        assert [table.counts[k] for k in range(4)] == expected.tolist()
        assert sum(table.counts) == shots
        assert table.batches == full + (need > 0)


def test_the_batch_that_fills_shots_samples_the_outcome_law_of_whole_batches():
    # 30-shot degraded basis-IV tables, one subsample of one batch each,
    # pooled over seeds 0-199, against the pooled outcomes of whole batches
    # (seed 1000, 8 per input): per input and outcome |z| < 5, fixed
    # beforehand. Keeping the first 30 hits in outcome order would count
    # only outcome-0 trials
    config = _GOLDEN_CONFIGS["IV"]
    basis = basis_four()
    tables = np.zeros((4, 4))
    batches = np.zeros((4, 4))
    for i, phi in enumerate(basis.states):
        for seed in range(200):
            counts = run_cloning_experiment(phi, basis, replace(config, shots=30, seed=seed)).counts
            tables[i] += [counts[k] for k in range(4)]
        table = _clean_row_table(i, config.weights_for(4), config.v, config.prep_fidelity,
                                 config.analysis_fidelity)
        for b in range(8):
            batches[i] += _simulate_batch(table, _batch_rng(1000, i, b))
    n1, n2 = tables.sum(axis=1, keepdims=True), batches.sum(axis=1, keepdims=True)
    p = (tables + batches) / (n1 + n2)
    z = (tables / n1 - batches / n2) / np.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))
    assert np.max(np.abs(z)) < 5.0


@pytest.mark.parametrize("runs", [None, 3, 4])
@pytest.mark.parametrize("hit_batches, raises", [
    ({0, 5, 10}, False),  # dry runs of 4 between hits: each hit resets the count
    ({4}, False),  # 4 dry batches first
    ({5}, True),  # the 5th consecutive dry batch gives up
    ({0, 6}, True),
    ({0, 3, 9}, True),
])
def test_dry_batch_guard_counts_consecutive_batches(monkeypatch, hit_batches, raises, runs):
    # a stand-in kernel: batch b yields one coincidence when b is in hit_batches;
    # ``runs`` repeats the run in one process (None: once), and the dry count
    # of each repeat must start again from zero
    monkeypatch.setattr(experiment, "_MAX_DRY_BATCHES", 5)
    monkeypatch.setattr(
        experiment, "_simulate_batch",
        lambda table, rng: np.array([_fresh_batch(rng, 0, 0) in hit_batches, 0, 0, 0], dtype=np.int64),
    )
    basis = basis_logical()
    config = ExperimentConfig(shots=len(hit_batches))
    for _ in range(runs or 1):
        if raises:
            with pytest.raises(RuntimeError, match="yield is"):
                run_cloning_experiment(basis.states[0], basis, config)
        else:
            table = run_cloning_experiment(basis.states[0], basis, config)
            assert table.counts[0] == len(hit_batches)
            assert table.batches == max(hit_batches) + 1  # the dry batches count too


def test_dry_batch_guard_gives_up_after_8192000_trials():
    # the budget is a number of trials, not of batches, whatever the batch size
    assert experiment._MAX_DRY_BATCHES * BATCH_TRIALS == 8_192_000


# ------------------------------------------------- unresolvable scanner rows


def test_rounding_residue_in_scanner_weights_never_accepts():
    q = np.array([[1e-33, 2e-33, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 1.0]])
    thresholds = _acceptance_thresholds(np.full(3, 0.25), np.ones(3), q)
    assert np.all(thresholds[:2] == 0.0)
    assert thresholds[2] == pytest.approx([0.0625, 0.1875, 0.1875, 0.25])
    # u = 0, the smallest accept uniform, passes no zero threshold
    assert np.array_equal((0.0 >= thresholds).sum(axis=1), [4, 4, 0])


def test_degraded_batch_accepts_no_row_with_residue_weights(monkeypatch):
    # on basis IV an analyzer error can leave a trial in which no scanner
    # setting can click, sum(q) = 0 in exact arithmetic; such rows must not be
    # accepted. Lab coordinates left rounding residue (~1e-33, below the
    # cutoff) in its place; in the kernel's basis coordinates it is an exact 0
    basis = basis_four()
    weights = np.array([0.3, 0.3, 0.2, 0.2])
    seen = []

    def recorded(half_coal, p_filter, q):
        thresholds = _acceptance_thresholds(half_coal, p_filter, q)
        seen.append((q.sum(axis=1), thresholds))
        return thresholds

    for i in range(4):
        table = _clean_row_table(i, weights, 0.9165, 0.9, 0.9)
        monkeypatch.setattr(experiment, "_acceptance_thresholds", recorded)
        # ten batches per input: the 40 leave 153 such rows at seed 0 (a
        # trial whose only replaced scanner setting is its ancilla's, the
        # most common such trial, is never walked)
        for b in range(10):
            _simulate_batch(table, _batch_rng(0, i, b))
        monkeypatch.undo()
    totals = np.concatenate([t for t, _ in seen])
    thresholds = np.concatenate([th for _, th in seen])
    unresolvable = totals <= _Q_TOTAL_CUTOFF
    assert unresolvable.sum() > 100
    assert np.all(totals[unresolvable] == 0.0)
    assert np.all(thresholds[unresolvable] == 0.0)
    assert np.all(thresholds[~unresolvable][:, -1] > 0.0)


# ---------------------------------------------------- fixed-seed regression

# Integer counts per input (rows) and outcome (columns), from one PCG64 per
# input advanced by 2^64 outputs per batch, over 32768-trial batches. "I"
# was recorded at stream layout 11, which draws the clean trials of a batch
# as outcome counts and walks only the trials with a replaced state; layouts
# 12 and 13 draw an ideal batch as layout 11 did, so it stands. "IV" was
# re-recorded at layout 13, whose E trials draw one uniform per replaced
# scanner setting in place of a Haar state. A change to the Monte Carlo
# arithmetic that keeps the draws and the accept rule must leave them as
# they are.
_GOLDEN_COUNTS = {
    "I": [[1204, 257, 277, 262], [296, 1174, 271, 259], [302, 293, 1133, 272], [282, 321, 278, 1119]],
    "IV": [[1111, 366, 253, 270], [367, 1123, 250, 260], [400, 394, 897, 309], [389, 421, 287, 903]],
}
_GOLDEN_CONFIGS = {
    "I": ExperimentConfig(shots=2000, seed=0),
    # the degraded bench of acceptance criterion 6
    "IV": ExperimentConfig(shots=2000, v=0.9165, prep_fidelity=0.9, analysis_fidelity=0.9,
                           ancilla_weights=(0.3, 0.3, 0.2, 0.2), seed=0),
}


@pytest.mark.parametrize("basis_name", sorted(_GOLDEN_COUNTS))
def test_fixed_seed_counts_are_pinned(basis_name):
    table = replicate_table(basis_name, _GOLDEN_CONFIGS[basis_name])
    assert [[t.counts[i] for i in range(4)] for t in table.tables] == _GOLDEN_COUNTS[basis_name]


# ------------------------------------------------------------------- runs


def test_ideal_run_matches_clone_diagonal():
    basis = basis_logical()
    cfg = ExperimentConfig(shots=100_000, seed=7)
    table = run_cloning_experiment(basis.states[0], basis, cfg)
    assert sum(table.counts) == cfg.shots
    res = estimate_probabilities(table)
    assert abs(res.fidelity - 0.7) < 3 * res.stderr
    # off-input outcomes are each near 0.1
    for i in (1, 2, 3):
        assert res.probs[i] == pytest.approx(0.1, abs=0.005)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_ideal_run_reaches_the_optimal_fidelity_at_any_dimension(d):
    # the 1 -> 2 optimum (d + 3)/(2 (d + 1)) = 1/2 + 1/(d + 1), within 4 sigma
    # (k = 4 fixed beforehand), on the computational and the Fourier basis;
    # at f = 1 a trial depends only on basis indices, so the two bases give
    # the same counts
    cfg = ExperimentConfig(shots=40_000, seed=11)
    bases = (_labeled(np.eye(d, dtype=complex)), _fourier(d))
    tables = [run_cloning_experiment(basis.states[0], basis, cfg) for basis in bases]
    assert tables[0].counts == tables[1].counts
    res = estimate_probabilities(tables[0])
    assert abs(res.fidelity - (d + 3) / (2 * (d + 1))) < 4 * res.stderr
    # the exact law of the counts (|z| < 5, fixed beforehand), and the
    # estimator on it gives the optimum itself
    law = outcome_law(bases[0], 0, cfg)
    law /= law.sum()
    assert abs(1.0 / (2.0 - law[0]) - (d + 3) / (2 * (d + 1))) < 1e-12
    counts = np.array([tables[0].counts[k] for k in range(d)])
    assert np.max(np.abs(_one_sample_z(counts, cfg.shots, law))) < 5.0


@pytest.mark.parametrize("d, weights", [(3, (0.5, 0.3, 0.2)), (4, (0.4, 0.3, 0.2, 0.1))])
def test_counts_do_not_depend_on_the_basis_at_any_fidelity(d, weights):
    # the kernel draws replaced states in basis coordinates and never sees
    # the basis, so a degraded bench gives identical counts on the
    # computational, the Fourier and a Haar basis, input by input
    config = ExperimentConfig(shots=2000, v=0.9, prep_fidelity=0.8, analysis_fidelity=0.7,
                              ancilla_weights=weights, seed=8)
    bases = [_labeled(np.eye(d, dtype=complex)), _fourier(d), _haar_basis(d)]
    for i in range(d):
        tables = [run_cloning_experiment(basis.states[i], basis, config) for basis in bases]
        assert tables[0].counts == tables[1].counts == tables[2].counts


def test_stderr_covers_the_ideal_fidelity():
    # 400 inputs (seeds 0-99 of a 2000-shot basis-I table): |F - 0.7| < 1.96
    # sigma should hold for ~95 % of them, so the count must lie within
    # 4 sd of Binomial(400, 0.95), 380 +- 17.4
    inside = 0
    for seed in range(100):
        table = replicate_table("I", ExperimentConfig(shots=2000, seed=seed))
        inside += sum(abs(r.fidelity - 0.7) < 1.96 * r.stderr for r in table.results)
    assert 363 <= inside <= 397


def test_stderr_covers_the_predicted_fidelity_where_the_estimator_is_biased():
    # the same coverage check on basis IV at v = 0.9, preparation fidelity
    # 0.9 and uneven weights, against the fidelity F_p = 1/(2 - P_p/sum(P))
    # that the estimator gives on the exact law of input p; the band of the
    # ideal check, fixed beforehand
    config = ExperimentConfig(shots=2000, v=0.9, prep_fidelity=0.9, ancilla_weights=(0.4, 0.3, 0.2, 0.1))
    basis = basis_four()
    laws = [outcome_law(basis, p, config) for p in range(4)]
    predicted = [1.0 / (2.0 - law[p] / law.sum()) for p, law in enumerate(laws)]
    inside = 0
    for seed in range(100):
        table = replicate_table("IV", replace(config, seed=seed))
        inside += sum(abs(r.fidelity - f) < 1.96 * r.stderr for r, f in zip(table.results, predicted))
    assert 363 <= inside <= 397


def test_same_seed_reproduces_counts_exactly():
    basis = basis_logical()
    cfg = ExperimentConfig(shots=3000, v=0.93, prep_fidelity=0.95, seed=11)
    a = run_cloning_experiment(basis.states[1], basis, cfg)
    b = run_cloning_experiment(basis.states[1], basis, cfg)
    assert a.counts == b.counts


def test_distinguishable_photons_lose_the_interference_boost():
    # with v = 0 the matched-ancilla branch loses its factor-2 coalescence
    # enhancement: count ratio drops to 2:1 and the estimator reads
    # (2 + 3) / (2 + 2*3) = 0.625 for d = 4
    basis = basis_logical()
    cfg = ExperimentConfig(shots=60_000, v=0.0, seed=13)
    res = estimate_probabilities(run_cloning_experiment(basis.states[0], basis, cfg))
    assert abs(res.fidelity - 0.625) < 3 * res.stderr


def test_matched_ancilla_always_clones_perfectly():
    basis = basis_logical()
    cfg = ExperimentConfig(shots=4000, ancilla_weights=(1.0, 0.0, 0.0, 0.0), seed=17)
    res = estimate_probabilities(run_cloning_experiment(basis.states[0], basis, cfg))
    assert res.fidelity == 1.0


def test_fidelity_is_monotone_in_v_and_prep():
    basis = basis_logical()
    fid_v = []
    for v in (0.0, 0.5, 1.0):
        cfg = ExperimentConfig(shots=30_000, v=v, seed=5)
        fid_v.append(estimate_probabilities(run_cloning_experiment(basis.states[0], basis, cfg)).fidelity)
    # expectation gaps are ~0.04, far above the ~0.001 Monte Carlo error
    assert fid_v[0] < fid_v[1] < fid_v[2]
    fid_p = []
    for prep in (0.7, 1.0):
        cfg = ExperimentConfig(shots=30_000, prep_fidelity=prep, seed=5)
        fid_p.append(estimate_probabilities(run_cloning_experiment(basis.states[0], basis, cfg)).fidelity)
    assert fid_p[0] < fid_p[1]


def test_run_requires_phi_in_basis():
    basis = basis_logical()
    cfg = ExperimentConfig(shots=100)
    with pytest.raises(ValueError):
        run_cloning_experiment(basis_four().states[0], basis, cfg)


# --------------------------------------------------------------- estimator


def test_estimator_on_clone_ratio_counts():
    res = estimate_probabilities(_counts_table((4, 1, 1, 1)))
    assert np.allclose(res.probs, [0.7, 0.1, 0.1, 0.1], atol=1e-15)
    assert res.fidelity == pytest.approx(0.7, abs=1e-15)


def test_estimator_single_matched_count():
    res = estimate_probabilities(_counts_table((1, 0, 0, 0)))
    assert res.fidelity == 1.0


def test_estimator_single_orthogonal_count():
    # one orthogonal-pair coincidence means exactly one clone matched
    res = estimate_probabilities(_counts_table((0, 1, 0, 0)))
    assert res.fidelity == pytest.approx(0.5, abs=1e-15)


def test_estimator_probabilities_sum_to_one_exactly():
    # exact in the defining rational arithmetic; the float image only
    # carries the final rounding of each division
    rng = np.random.default_rng(23)
    for _ in range(20):
        counts = [int(rng.integers(0, 50)) for _ in range(4)]
        if sum(counts) == 0:
            counts[0] = 1
        k = counts[0]
        s = sum(counts) - k
        norm = k + 2 * s
        total = Fraction(k + s, norm) + sum(Fraction(counts[i], norm) for i in (1, 2, 3))
        assert total == 1
        res = estimate_probabilities(_counts_table(counts))
        assert float(res.probs.sum()) == pytest.approx(1.0, abs=1e-15)


def test_estimator_is_unchanged_by_relabelling_the_outcomes():
    # moving outcome i to label perm[i], and phi_index with it, permutes the
    # probabilities the same way and leaves fidelity and stderr bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        counts=st.lists(st.integers(0, 10**9), min_size=2, max_size=8).filter(any),
        data=st.data(),
    )
    def check(counts, data):
        d = len(counts)
        phi_index = data.draw(st.integers(0, d - 1))
        perm = data.draw(st.permutations(range(d)))
        labels = tuple(f"s{i}" for i in range(d))
        moved = [""] * d
        for i in range(d):
            moved[perm[i]] = labels[i]
        config = ExperimentConfig(shots=sum(counts))
        moved_counts = [0] * d
        for i, n in enumerate(counts):
            moved_counts[perm[i]] = n
        table = CountsTable(labels, phi_index, counts, config)
        relabelled = CountsTable(tuple(moved), perm[phi_index], moved_counts, config)
        before = estimate_probabilities(table)
        after = estimate_probabilities(relabelled)
        assert np.array_equal(after.probs[perm], before.probs)
        assert after.fidelity == before.fidelity
        assert after.stderr == before.stderr

    check()


def test_estimator_rejects_empty_counts():
    with pytest.raises(ValueError):
        estimate_probabilities(_counts_table((0, 0, 0, 0)))


@pytest.mark.parametrize("counts", [
    (4, 1, 1, 1),
    (1234, 17, 0, 305),
    (3, 9),
    (70, 10, 10, 10, 0),
    (0, 5, 2),
    (10, 0, 0),
])
def test_estimator_stderr_is_the_propagated_binomial_error(counts):
    # F(k) = n / (2n - k) at fixed total n; sigma = |dF/dk| sqrt(n q (1 - q))
    # with q = k / n, dF/dk taken as an exact central difference
    n, k = sum(counts), counts[0]

    def fidelity(x):
        return Fraction(n) / (2 * n - x)

    h = Fraction(1, 10**6)
    slope = (fidelity(k + h) - fidelity(k - h)) / (2 * h)
    q = Fraction(k, n)
    res = estimate_probabilities(_counts_table(counts))
    assert res.fidelity == pytest.approx(float(fidelity(k)), rel=1e-15)
    expected = abs(float(slope)) * math.sqrt(n * q * (1 - q))
    assert res.stderr == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_estimator_stderr_shrinks_with_counts():
    small = estimate_probabilities(_counts_table((40, 10, 10, 10)))
    large = estimate_probabilities(_counts_table((4000, 1000, 1000, 1000)))
    assert large.stderr < small.stderr / 5


# ------------------------------------------------------------ whole tables


def test_replicate_table_ideal_basis_one():
    table = replicate_table("I", ExperimentConfig(shots=20_000, seed=42))
    assert table.input_labels == ("R,+2", "R,-2", "L,+2", "L,-2")
    for res in table.results:
        assert abs(res.fidelity - 0.7) < 3 * res.stderr
    assert table.average == pytest.approx(0.7, abs=0.01)
    lines = str(table).splitlines()
    assert lines[0] == "basis I: cloning fidelities"
    assert lines[5].split()[0] == "average"
    assert lines[6:8] == ["", "p(i|phi) matrix (rows = inputs, columns = outcomes):"]
    assert len(lines) == 12
    for line, label, res in zip(lines[8:], table.input_labels, table.results):
        assert line == f"  {label:>20s}   " + "  ".join(f"{p:.4f}" for p in res.probs)


def test_replicate_table_rejects_an_unknown_basis_name():
    with pytest.raises(ValueError, match=r"^unknown basis 'II'; expected one of I, IV$"):
        replicate_table("II", ExperimentConfig(shots=10))


def test_table_average_stderr_combines_the_input_errors(monkeypatch):
    # four hand-built count tables with distinct errors, so no single
    # input's error stands in for the combination
    given = iter([(200, 40, 30, 30), (50, 150, 60, 40), (70, 20, 190, 20), (25, 25, 50, 180)])

    def hand_built(phi, basis, config):
        return CountsTable(tuple(basis.labels), basis.index_of(phi), next(given), config)

    monkeypatch.setattr(experiment, "run_cloning_experiment", hand_built)
    table = replicate_table("IV", ExperimentConfig(shots=300))
    sigmas = [r.stderr for r in table.results]
    assert len(set(sigmas)) == 4
    expected = math.sqrt(sum(s * s for s in sigmas)) / 4
    assert table.average_stderr == pytest.approx(expected, rel=1e-12)
    assert table.average == pytest.approx(np.mean([r.fidelity for r in table.results]), rel=1e-15)


def test_fidelity_table_estimates_each_table_once_on_construction(monkeypatch):
    calls = []

    def counted(table):
        calls.append(table)
        return estimate_probabilities(table)

    monkeypatch.setattr(experiment, "estimate_probabilities", counted)
    tables = [_counts_table((4, 1, 1, 1)), _counts_table((40, 10, 10, 10))]
    table = FidelityTable("I", tables)
    str(table), table.to_dict(), table.average, table.average_stderr
    assert calls == tables
    assert table.tables == tuple(tables) and table.input_labels == ("s0", "s0")
    assert table.average == pytest.approx(0.7, abs=1e-15)
    # an all-zero counts table cannot make a record
    with pytest.raises(ValueError, match="counts are all zero"):
        FidelityTable("I", [_counts_table((0, 0, 0, 0))])


def test_counts_csv_format():
    table = replicate_table("I", ExperimentConfig(shots=200, seed=1))
    buf = io.StringIO()
    write_counts_csv(table.tables, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "input,outcome,count"
    assert len(lines) == 1 + 16  # four inputs x four outcomes
    # labels contain commas, so fields must be quoted
    assert lines[1].startswith('"R,+2","R,+2",')


def test_counts_keep_basis_labels_that_contain_the_separator():
    labels = ("a / b", "c", "d / e / f")
    table = CountsTable(basis_labels=labels, phi_index=1, counts=(3, 5, 7),
                        config=ExperimentConfig(shots=15))
    buf = io.StringIO()
    write_counts_csv([table], buf)
    assert buf.getvalue().splitlines()[1:] == ["c,a / b,3", "c,c,5", "c,d / e / f,7"]
    # the JSON summary keeps its " / "-joined string
    assert table.to_dict()["basis"] == "a / b / c / d / e / f"


@pytest.mark.parametrize("phi_index, counts, batches, message", [
    (0, (3, -1), 0, "counts must be nonnegative"),
    (0, (3, 1), -1, "batches must be nonnegative"),
    # the estimator reads the input's count at this index
    (2, (3, 1), 0, "phi index 2 out of range"),
    (-1, (3, 1), 0, "phi index -1 out of range"),
    # one count per basis label: the CSV and the estimator read them in pairs
    (0, (3, 1, 2), 0, "3 counts for 2 basis labels"),
    (0, (3,), 0, "1 counts for 2 basis labels"),
    # the CSV would write 2.5, the JSON 2 and the estimator read 2.5
    (0, (2.5, 0.5), 0, r"^counts must be integers, got 2\.5$"),
    (0, (2.0, 1), 0, r"^counts must be integers, got 2\.0$"),
    (0, (3, float("nan")), 0, r"^counts must be integers, got nan$"),
    (0, (True, 1), 0, r"^counts must be integers, got True$"),
    (0, (3, 1), 1.5, r"^batches must be integers, got 1\.5$"),
    (0, (3, 1), True, r"^batches must be integers, got True$"),
    # numpy reads True as a mask, not as index 1
    (True, (3, 1), 0, r"^phi index must be an integer, got True$"),
    (1.0, (3, 1), 0, r"^phi index must be an integer, got 1\.0$"),
])
def test_counts_table_rejects_bad_entries(phi_index, counts, batches, message):
    with pytest.raises(ValueError, match=message):
        CountsTable(basis_labels=("s0", "s1"), phi_index=phi_index,
                    counts=counts, config=ExperimentConfig(shots=3), batches=batches)


def test_counts_table_keeps_its_counts_as_a_tuple_in_outcome_order():
    table = CountsTable(("s0", "s1", "s2"), 2, [4, 0, 9], ExperimentConfig(shots=13))
    assert table.counts == (4, 0, 9)
    assert table.input_label == "s2"
    # numpy integers are integers, kept as ints
    table = CountsTable(("s0", "s1"), 0, list(np.array([4, 9])), ExperimentConfig(shots=13))
    assert table.counts == (4, 9) and all(type(n) is int for n in table.counts)
    # a mapping names its outcomes by key, which the table cannot check
    with pytest.raises(TypeError, match="counts must be a list or a tuple, got dict"):
        CountsTable(("s0", "s1"), 0, {1: 3, 2: 4}, ExperimentConfig(shots=7))


def test_estimation_result_rejects_probabilities_that_do_not_sum_to_one():
    # the sum is shown as a Python float, not as np.float64(...)
    with pytest.raises(ValueError) as excinfo:
        EstimationResult(probs=np.array([0.7, 0.2]), fidelity=0.7, stderr=0.01)
    assert str(excinfo.value) == "probabilities sum to 0.8999999999999999, not 1"
    # a NaN sum is not within 1e-9 of 1 either
    with pytest.raises(ValueError, match=r"^probabilities sum to nan, not 1$"):
        EstimationResult(probs=np.array([np.nan, np.nan]), fidelity=np.nan, stderr=0.0)


def test_counts_table_records_the_basis_labels():
    table = replicate_table("IV", ExperimentConfig(shots=50, seed=2)).tables[0]
    assert table.basis_labels == tuple(basis_four().labels)
    assert table.to_dict()["basis"] == " / ".join(basis_four().labels)
