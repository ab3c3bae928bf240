"""Cloning formulas, the symmetrization channel, and the cascade driver."""

import math
import re

import numpy as np
import pytest

from _engine_reference import (
    engine_stage,
    engine_stage_operators,
    first_column_basis,
    fock_basis,
    haar_state,
    lab_cascade,
    lab_photons,
    lab_stage,
    mixed_ancilla_branches,
    raising,
)
from symclone import bosonic, cloning
from symclone.cloning import (
    CloningOutcome,
    CloningSpec,
    _stage,
    cascade_clone,
    clone_analytic,
    clone_oracle,
    f_clon,
    f_est,
)
from symclone.hilbert import (
    DensityMatrix,
    LabeledBasis,
    PureState,
    basis_computational,
    basis_four,
    basis_state,
    fidelity_pure,
)


def _haar_basis(rng, d) -> LabeledBasis:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    states = tuple(PureState.normalized(q[:, j]) for j in range(d))
    return LabeledBasis(d, states, tuple(f"u{j}" for j in range(d)))


# ----------------------------------------------------------------- formulas


def test_estimation_fidelity_values():
    assert f_est(1, 4) == 0.4
    assert f_est(1, 2) == pytest.approx(2 / 3, abs=1e-15)


def test_estimation_fidelity_increases_to_one():
    vals = [f_est(n, 4) for n in (1, 10, 100, 10_000, 10**6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-5)


def test_estimation_fidelity_rejects_bad_args():
    with pytest.raises(ValueError):
        f_est(0, 4)
    with pytest.raises(ValueError):
        f_est(1, 1)


def test_cloning_fidelity_values():
    assert f_clon(1, 2, 4) == 0.7
    assert f_clon(1, 2, 2) == pytest.approx(5 / 6, abs=1e-15)


def test_cloning_fidelity_reaches_estimation_limit():
    assert f_clon(1, 10**7, 4) == pytest.approx(f_est(1, 4), abs=1e-6)


def test_cloning_fidelity_rejects_bad_args():
    # f_clon applies CloningSpec's N -> M rules, with the same messages
    for n, m, d in [(2, 1, 4), (1, 2, 1), (2, 2, 4), (0, 2, 4), (2, 2, 1)]:
        with pytest.raises(ValueError) as spec_error:
            CloningSpec(d=d, n=n, m=m)
        with pytest.raises(ValueError, match=f"^{re.escape(str(spec_error.value))}$"):
            f_clon(n, m, d)


@pytest.mark.parametrize("field, value", [
    ("d", 4.0), ("d", True), ("n", 1.5), ("n", True), ("m", 2.5), ("m", "3"), ("m", None),
])
def test_formulas_and_spec_reject_a_count_that_is_not_an_integer(field, value):
    # a photon count or a dimension is an integer: the formulas would give
    # a number for 2.5 and the cascade a bare TypeError. A numpy integer is
    # an integer and is kept as an int
    valid = {"d": 4, "n": 1, "m": 3}
    args = {**valid, field: value}
    message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        CloningSpec(**args)
    with pytest.raises(ValueError, match=message):
        f_clon(args["n"], args["m"], args["d"])
    if field != "m":
        with pytest.raises(ValueError, match=message):
            f_est(args["n"], args["d"])
    spec = CloningSpec(**{**valid, field: np.int64(valid[field])})
    assert type(getattr(spec, field)) is int and spec == CloningSpec(**valid)


def test_cloning_advantage_grows_with_dimension():
    gaps = [f_clon(1, 2, d) - f_est(1, d) for d in range(2, 101)]
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


# --------------------------------------------------------------- analytic


def test_analytic_clone_of_logical_state():
    out = clone_analytic(basis_state(4, 0))
    assert np.allclose(out.clone_state.mat, np.diag([0.7, 0.1, 0.1, 0.1]), atol=1e-15)
    assert out.fidelity == pytest.approx(0.7, abs=1e-15)
    assert out.success_prob == pytest.approx(5 / 8, abs=1e-15)


def test_analytic_clone_for_qubits():
    out = clone_analytic(basis_state(2, 0))
    assert np.allclose(out.clone_state.mat, np.diag([5 / 6, 1 / 6]), atol=1e-15)
    assert out.fidelity == pytest.approx(5 / 6, abs=1e-15)


def test_outcome_serialization_keys():
    out = clone_analytic(basis_state(4, 0))
    data = out.to_dict()
    assert set(data) == {"d", "N", "M", "fidelity", "successProb", "cloneState"}
    assert data["d"] == 4 and data["N"] == 1 and data["M"] == 2


@pytest.mark.parametrize("success_prob", [0.0, -0.5, 1.5])
def test_outcome_rejects_a_success_probability_outside_the_unit_interval(success_prob):
    with pytest.raises(ValueError, match=r"success probability out of \(0, 1\]"):
        CloningOutcome(input_state=basis_state(2, 0), fidelity=5 / 6, success_prob=success_prob)


@pytest.mark.parametrize("fidelity", [math.nan, -0.1, 1.1])
def test_outcome_rejects_a_fidelity_outside_the_unit_interval(fidelity):
    # outside [0, 1] the derived clone state would not be a density matrix
    with pytest.raises(ValueError, match=r"fidelity out of \[0, 1\]"):
        CloningOutcome(input_state=basis_state(2, 0), fidelity=fidelity, success_prob=0.75)


@pytest.mark.parametrize("make", [
    pytest.param(clone_analytic, id="analytic"),
    pytest.param(lambda phi: cascade_clone(phi, CloningSpec(d=4, n=2, m=6)), id="cascade"),
])
def test_outcome_builds_its_clone_state_once_when_first_read(monkeypatch, make):
    # the clone state is derived from F: no DensityMatrix is built until it
    # is read, then exactly one, however often it is read, and its
    # <phi|rho|phi> is F
    built = []

    def counted(*args, **kwargs):
        built.append(kwargs)
        return DensityMatrix(*args, **kwargs)

    monkeypatch.setattr(cloning, "DensityMatrix", counted)
    out = make(basis_four().states[1])
    assert built == []
    rho = out.clone_state
    assert out.clone_state is rho and len(built) == 1
    assert fidelity_pure(rho, out.input_state) == pytest.approx(out.fidelity, abs=1e-12)


# ----------------------------------------------------------------- oracle


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_oracle_matches_analytic_on_random_inputs(d):
    rng = np.random.default_rng(d)
    for _ in range(6):
        phi = haar_state(rng, d)
        oracle = clone_oracle(phi, d)
        analytic = clone_analytic(phi)
        assert np.max(np.abs(oracle.clone_state.mat - analytic.clone_state.mat)) < 1e-12
        assert oracle.fidelity == pytest.approx(analytic.fidelity, abs=1e-12)
        assert oracle.success_prob == pytest.approx(analytic.success_prob, abs=1e-12)


def test_oracle_on_entangled_input():
    out = clone_oracle(basis_four().states[0], 4)
    assert out.fidelity == pytest.approx(0.7, abs=1e-12)


def test_oracle_fidelity_is_input_independent():
    rng = np.random.default_rng(123)
    fids = [clone_oracle(haar_state(rng, 4), 4).fidelity for _ in range(8)]
    assert np.max(np.abs(np.array(fids) - 0.7)) < 1e-12


def test_oracle_is_ancilla_basis_independent():
    # a fully mixed ancilla is the equal mixture over any basis, so the
    # engine-built branches over a Haar basis reproduce the oracle exactly
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 5):
        phi = haar_state(rng, d)
        oracle = clone_oracle(phi, d)
        for _ in range(3):
            branches = mixed_ancilla_branches(phi, _haar_basis(rng, d))
            success = sum(w * p for w, p, _ in branches)
            clone = sum(w * p * rho.mat for w, p, rho in branches) / success
            assert np.max(np.abs(clone - oracle.clone_state.mat)) < 1e-12
            assert abs(success - oracle.success_prob) < 1e-12


def test_oracle_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: spec.d=2 but phi.dim=4$"):
        clone_oracle(basis_state(4, 0), 2)


# ---------------------------------------------------------------- cascade


def test_cascade_spec_validation():
    with pytest.raises(ValueError):
        CloningSpec(d=4, n=2, m=2)
    with pytest.raises(ValueError):
        CloningSpec(d=1, n=1, m=2)


def test_cascade_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: spec.d=3 but phi.dim=4$"):
        cascade_clone(basis_state(4, 0), CloningSpec(d=3, n=1, m=2))


def test_single_stage_cascade_reproduces_oracle_exactly():
    phi = basis_four().states[2]
    cascade = cascade_clone(phi, CloningSpec(d=4, n=1, m=2))
    oracle = clone_oracle(phi, 4)
    assert np.array_equal(cascade.clone_state.mat, oracle.clone_state.mat)
    assert cascade.success_prob == oracle.success_prob


@pytest.mark.parametrize(
    "n,m,d",
    [(1, 2, 2), (1, 2, 4), (1, 3, 2), (1, 3, 4), (2, 3, 2), (1, 4, 2)],
)
def test_cascade_reaches_optimal_fidelity(n, m, d):
    out = cascade_clone(basis_state(d, 0), CloningSpec(d=d, n=n, m=m))
    assert out.fidelity == pytest.approx(f_clon(n, m, d), abs=1e-9)


def test_cascade_on_superposition_input():
    rng = np.random.default_rng(4)
    phi = haar_state(rng, 2)
    out = cascade_clone(phi, CloningSpec(d=2, n=1, m=3))
    assert out.fidelity == pytest.approx(f_clon(1, 3, 2), abs=1e-9)


def test_cascade_success_prob_composes_stagewise():
    # one 1->2 stage on d=4 succeeds with 5/8; the 1->3 driver multiplies in
    # the second-stage conditional probability, so its success is below that
    two = cascade_clone(basis_state(4, 0), CloningSpec(d=4, n=1, m=2))
    three = cascade_clone(basis_state(4, 0), CloningSpec(d=4, n=1, m=3))
    assert two.success_prob == pytest.approx(5 / 8, abs=1e-12)
    assert 0.0 < three.success_prob < two.success_prob


@pytest.mark.parametrize("m", [50, 60])
def test_cascade_success_probability_underflow_is_one_error(m):
    # for qubits the success probability first falls below the smallest
    # normal float at M = 50 (a subnormal 2.4e-318); at M = 60 it is 0.0
    with pytest.raises(ValueError, match=f"underflows the float range at M={m}, d=2$"):
        cascade_clone(basis_state(2, 0), CloningSpec(d=2, n=1, m=m), cap=m)


def test_cascade_success_probability_stays_normal_below_the_underflow():
    out = cascade_clone(basis_state(2, 0), CloningSpec(d=2, n=1, m=49), cap=49)
    _, success = _werner_clone(basis_state(2, 0), 1, 49)
    assert out.success_prob >= np.finfo(float).tiny
    assert abs(out.success_prob / success - 1) < 1e-12


def test_cascade_cap_guard():
    with pytest.raises(ValueError, match="cap"):
        cascade_clone(basis_state(2, 0), CloningSpec(d=2, n=1, m=7))
    # explicit cap raise is honored
    out = cascade_clone(basis_state(2, 0), CloningSpec(d=2, n=1, m=7), cap=7)
    assert out.fidelity == pytest.approx(f_clon(1, 7, 2), abs=1e-9)


def _werner_clone(phi: PureState, n: int, m: int) -> tuple[np.ndarray, float]:
    """Werner's optimal cloner in closed form: (per-clone state, cascade success probability).

    The clone is eta |phi><phi| + (1 - eta) I/d with eta = N(M+d) / (M(N+d));
    stage m -> m+1 of the cascade succeeds with probability (m+d) / (d 2^m).
    """
    d = phi.dim
    eta = n * (m + d) / (m * (n + d))
    clone = eta * np.outer(phi.amps, phi.amps.conj()) + (1 - eta) * np.eye(d) / d
    success = math.prod((k + d) / (d * 2**k) for k in range(n, m))
    return clone, success


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_cascade_matches_werner_cloner_in_closed_form(d, n):
    rng = np.random.default_rng(10 * d + n)
    for phi in (basis_state(d, d - 1), haar_state(rng, d)):
        for m in range(n + 1, 9):
            out = cascade_clone(phi, CloningSpec(d=d, n=n, m=m), cap=8)
            clone, success = _werner_clone(phi, n, m)
            assert np.max(np.abs(out.clone_state.mat - clone)) < 1e-12
            assert abs(out.success_prob - success) < 1e-12
            assert abs(out.success_prob / success - 1) < 1e-12


def test_cascade_one_to_ten_matches_werner_cloner():
    phi = haar_state(np.random.default_rng(110), 4)
    out = cascade_clone(phi, CloningSpec(d=4, n=1, m=10), cap=10)
    clone, success = _werner_clone(phi, 1, 10)
    assert np.max(np.abs(out.clone_state.mat - clone)) < 1e-12
    assert abs(out.success_prob / success - 1) < 1e-12
    assert out.fidelity == pytest.approx(f_clon(1, 10, 4), abs=1e-12)


# (d, N, M)
_HIGH_DIMENSION = [(5, 1, 6), (8, 1, 7), (16, 1, 4), (16, 1, 8), (8, 1, 12), (32, 2, 20),
                   (4, 5, 40)]


@pytest.mark.parametrize(
    "d,n,m", _HIGH_DIMENSION,
    ids=[f"{d}-{m}" if n == 1 else f"{d}-{n}-{m}" for d, n, m in _HIGH_DIMENSION],
)
def test_cascade_matches_werner_cloner_in_high_dimension(d, n, m):
    phi = haar_state(np.random.default_rng(d * m), d)
    out = cascade_clone(phi, CloningSpec(d=d, n=n, m=m), cap=m)
    clone, success = _werner_clone(phi, n, m)
    assert np.max(np.abs(out.clone_state.mat - clone)) < 1e-12
    assert abs(out.success_prob / success - 1) < 1e-12


def _branch_enumeration(
    phi: PureState, n: int, m: int, ancillas: LabeledBasis | None = None
) -> tuple[np.ndarray, float]:
    """Reference cascade: one pure Fock state per ancilla branch, d^(M-N) of
    them, each ancilla drawn from ``ancillas`` (default computational)."""
    d = phi.dim
    ancillas = ancillas or basis_computational(d)
    branches = [(1.0, bosonic.identical_photons(0, phi, n))]
    for _ in range(m - n):
        grown = []
        for weight, state in branches:
            for ancilla in ancillas.states:
                merged = bosonic.add_photon(state, 1, ancilla)
                merged = bosonic.beam_splitter(merged, 0, 1)
                p0, kept = bosonic.postselect_same_port(merged, 0)
                p1, _ = bosonic.postselect_same_port(merged, 1)
                grown.append((weight * (p0 + p1) / d, kept))
        branches = grown
    success = sum(w for w, _ in branches)
    rho = sum(w * bosonic.reduced_single_photon(state, 0).mat for w, state in branches)
    return rho / success, success


def test_cascade_fidelity_is_independent_of_the_input_state():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(2, 16))
        m = draw(st.integers(2, 12))
        n = draw(st.integers(1, m - 1))
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d))
        return d, n, m, parts

    # phi = e^(i pi/4) e_0 with a 1e-12 tail: an input within 1e-12 of a
    # phased basis vector, where a basis built around phi can lose its
    # precision; the isotropic clone builds none
    @hypothesis.example(case=(2, 1, 2, [1.0, 1e-12, 1.0, 0.0]))
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=cases())
    def check(case):
        d, n, m, parts = case
        amps = np.array(parts[:d]) + 1j * np.array(parts[d:])
        hypothesis.assume(np.linalg.norm(amps) > 1e-3)
        out = cascade_clone(PureState.normalized(amps), CloningSpec(d=d, n=n, m=m), cap=m)
        assert out.fidelity == pytest.approx(f_clon(n, m, d), abs=1e-12)

    check()


@pytest.mark.parametrize("n,m,d", [(1, 3, 2), (2, 5, 2), (1, 3, 3), (1, 3, 4)])
def test_cascade_matches_branch_enumeration(n, m, d):
    phi = haar_state(np.random.default_rng(m * d), d)
    out = cascade_clone(phi, CloningSpec(d=d, n=n, m=m))
    rho, success = _branch_enumeration(phi, n, m)
    assert np.max(np.abs(out.clone_state.mat - rho)) < 1e-12
    assert abs(out.success_prob - success) < 1e-12


def test_cascade_is_ancilla_basis_independent():
    # every stage's ancilla is drawn from a Haar basis instead of the
    # computational one; the mixture over the branches is the same cascade
    rng = np.random.default_rng(14)
    phi = haar_state(rng, 4)
    reference = cascade_clone(phi, CloningSpec(d=4, n=1, m=4))
    for _ in range(2):
        rho, success = _branch_enumeration(phi, 1, 4, _haar_basis(rng, 4))
        assert np.max(np.abs(rho - reference.clone_state.mat)) < 1e-12
        assert abs(success - reference.success_prob) < 1e-12


# ------------------------------------------------- engine vs closed form


def _creation_matrix(d: int, m: int, k: int) -> np.ndarray:
    """Dense a_k^dag from the m-photon to the (m+1)-photon symmetric basis."""
    up, factor = raising(d, m)
    mat = np.zeros((math.comb(m + d, m + 1), up.shape[1]))
    mat[up[k], np.arange(up.shape[1])] = np.sqrt(factor[k])
    return mat


def _random_hermitian(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = z + z.conj().T
    return h / np.trace(h).real


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_engine_kraus_operators_are_phased_creation_operators(d, m):
    kraus = engine_stage_operators(d, m)
    scale = 2.0 ** (-(m + 1) / 2)
    for port in (0, 1):
        a0 = _creation_matrix(d, m, 0)
        # one phase per (port, m), read off any nonzero entry of K[port, 0]
        row, col = np.argwhere(a0)[0]
        phase = kraus[port, 0, row, col] / (scale * a0[row, col])
        assert abs(abs(phase) - 1) < 1e-12
        for k in range(d):
            expected = phase * scale * _creation_matrix(d, m, k)
            assert np.max(np.abs(kraus[port, k] - expected)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_engine_stage_map_equals_closed_form_stage(d, m):
    rng = np.random.default_rng(100 * d + m)
    rho = _random_hermitian(rng, math.comb(m + d - 1, m))
    sigma = _random_hermitian(rng, d)
    assert np.max(np.abs(engine_stage(rho, m, sigma) - lab_stage(rho, m, sigma))) < 1e-12


def _level_zero_marginal(diagonal: np.ndarray, d: int, m: int) -> np.ndarray:
    """P(n_0): a diagonal over the m-photon basis summed at fixed occupation of level 0."""
    marginal = np.zeros(m + 1)
    for occ, pos in fock_basis(d, m).items():
        marginal[occ[0]] += diagonal[pos]
    return marginal


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_vector_stage_is_the_engine_stage_on_diagonal_states(d, m):
    # the cascade's vector stage moves the n_0-marginal of a diagonal rho as
    # the full stage does, under sigma = I/d, even for a rho that is not
    # symmetric in the levels k >= 1
    rng = np.random.default_rng(1000 * d + m)
    rho = rng.random(math.comb(m + d - 1, m))
    rho /= rho.sum()
    sigma = np.eye(d, dtype=complex) / d
    expected = _stage(_level_zero_marginal(rho, d, m), m, d)
    for route in (engine_stage, lab_stage):
        out = np.diag(route(np.diag(rho).astype(complex), m, sigma)).real
        assert np.max(np.abs(_level_zero_marginal(out, d, m + 1) - expected)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_start_state_matches_the_engine(d, n):
    # the cascade's start |phi^(x)n>, raised photon by photon through the
    # stage's table, against the engine's n photons in phi
    phi = haar_state(np.random.default_rng(10 * d + n), d)
    index = fock_basis(d, n)
    vec = np.zeros(len(index), dtype=complex)
    for occ, amp in bosonic.identical_photons(0, phi, n).terms.items():
        vec[index[occ[:d]]] = amp
    assert np.max(np.abs(lab_photons(phi, n) - vec)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n,m", [(1, m) for m in range(2, 7)] + [(2, m) for m in range(3, 7)])
def test_vector_cascade_matches_the_lab_cascade(d, n, m):
    # the dense rho in the computational basis, started from |phi^(x)n>,
    # against the n_0 recursion and its isotropic clone
    phi = haar_state(np.random.default_rng(100 * d + 10 * n + m), d)
    out = cascade_clone(phi, CloningSpec(d=d, n=n, m=m))
    success, clone = lab_cascade(phi, n, m, np.eye(d, dtype=complex) / d)
    assert np.max(np.abs(out.clone_state.mat - clone)) < 1e-12
    assert abs(out.success_prob / success - 1) < 1e-12


def _first_column_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(17)
    tail = np.zeros(4, dtype=complex)
    tail[1:] = 1e-12 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return {
        "e0": basis_state(4, 0).amps,
        "-e0": -basis_state(4, 0).amps,
        "i e0": 1j * basis_state(4, 0).amps,
        "phi0=0": np.array([0, 0.6, 0.8j, 0]),
        "e3": basis_state(4, 3).amps,
        "e0 with a 1e-12 tail": basis_state(4, 0).amps + tail,
        "-i e0 with a 1e-12 tail": -1j * basis_state(4, 0).amps + tail,
        "haar d=2": haar_state(rng, 2).amps,
        "haar d=4": haar_state(rng, 4).amps,
        "haar d=16": haar_state(rng, 16).amps,
    }


_FIRST_COLUMN_CASES = _first_column_cases()


@pytest.mark.parametrize("amps", _FIRST_COLUMN_CASES.values(), ids=_FIRST_COLUMN_CASES.keys())
def test_first_column_basis_is_unitary_with_phi_first(amps):
    phi = PureState.normalized(amps)
    basis = first_column_basis(phi)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(phi.dim))) < 1e-14
    assert np.max(np.abs(basis[:, 0] - phi.amps)) < 1e-14


def _no_engine(*args, **kwargs):
    raise AssertionError("cloning must not evolve Fock states")


def test_cloning_makes_no_engine_evolution_call(monkeypatch):
    for name in ("beam_splitter", "postselect_same_port", "add_photon", "identical_photons"):
        monkeypatch.setattr(bosonic, name, _no_engine)
    phi = haar_state(np.random.default_rng(6), 6)
    out = cascade_clone(phi, CloningSpec(d=6, n=1, m=3))
    clone, success = _werner_clone(phi, 1, 3)
    assert np.max(np.abs(out.clone_state.mat - clone)) < 1e-12
    assert abs(out.success_prob - success) < 1e-12
    oracle = clone_oracle(phi, 6)
    assert oracle.fidelity == pytest.approx(f_clon(1, 2, 6), abs=1e-12)
