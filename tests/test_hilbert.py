"""Hilbert-space primitives: state validation, bench bases, fidelities."""

import numpy as np
import pytest

from symclone.hilbert import (
    DensityMatrix,
    LabeledBasis,
    PureState,
    basis_adapted_to,
    basis_computational,
    basis_four,
    basis_logical,
    basis_state,
    fidelity_pure,
    inner,
    maximally_mixed,
    unbiasedness_check,
)

RT2 = 1 / np.sqrt(2)


# ---------------------------------------------------------------- PureState


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 1.0]))


def test_pure_state_requires_dim_at_least_two():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0]))


def test_pure_state_normalized_constructor():
    s = PureState.normalized([3.0, 4.0])
    assert np.allclose(s.amps, [0.6, 0.8])
    with pytest.raises(ValueError):
        PureState.normalized([0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        PureState(2, np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        PureState.normalized([bad, 1.0])


def test_pure_state_is_immutable():
    s = basis_state(4, 0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_pure_state_json_round_trip():
    s = PureState.normalized([1.0, 1j, 0.0, -1.0])
    data = s.to_dict()
    assert data["dim"] == 4 and len(data["amps"]) == 4
    back = PureState.from_dict(data)
    assert np.allclose(back.amps, s.amps)


# ------------------------------------------------------------ DensityMatrix


def test_density_matrix_rejects_non_hermitian():
    mat = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError):
        DensityMatrix(2, mat)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(2, np.eye(2))


def test_density_matrix_rejects_negative_eigenvalues():
    with pytest.raises(ValueError):
        DensityMatrix(2, np.diag([1.5, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(2, np.array([[bad, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(2, np.array([[0.5, bad], [bad, 0.5]]))


def test_density_matrix_from_pure_and_purity():
    rho = DensityMatrix.from_pure(basis_state(4, 2))
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)
    assert maximally_mixed(4).purity() == pytest.approx(0.25, abs=1e-12)


def test_density_matrix_json_round_trip():
    rho = maximally_mixed(3)
    back = DensityMatrix.from_dict(rho.to_dict())
    assert np.allclose(back.mat, rho.mat)


# ------------------------------------------------------------------- inner


def test_inner_on_logical_basis():
    b = basis_logical()
    assert inner(b.states[0], b.states[0]) == pytest.approx(1.0)
    assert inner(b.states[0], b.states[1]) == pytest.approx(0.0)


def test_inner_logical_vs_entangled():
    overlap = inner(basis_logical().states[0], basis_four().states[0])
    assert overlap == pytest.approx(RT2, abs=1e-12)


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(1)
    a = PureState.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = PureState.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-12)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(basis_state(2, 0), basis_state(3, 0))


# ------------------------------------------------------------------- bases


def test_logical_basis_states_and_labels():
    b = basis_logical()
    assert np.allclose(b.states[0].amps, [1, 0, 0, 0])
    assert b.labels == ("R,+2", "R,-2", "L,+2", "L,-2")
    assert b.labels[3] == "L,-2"


def test_logical_basis_orthonormal():
    gram = basis_logical().matrix.conj().T @ basis_logical().matrix
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_entangled_basis_states():
    b = basis_four()
    assert np.allclose(b.states[0].amps, [RT2, 0, 0, RT2])
    assert np.allclose(b.states[1].amps, [RT2, 0, 0, -RT2])
    assert np.allclose(b.states[2].amps, [0, RT2, RT2, 0])
    assert np.allclose(b.states[3].amps, [0, -RT2, RT2, 0])
    gram = b.matrix.conj().T @ b.matrix
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_entangled_basis_overlap_table_with_logical():
    # Direct enumeration of all 16 cross overlaps: each entangled state has
    # support on exactly two logical states, so |<i|j>|^2 is 1/2 or 0 (the
    # two bases are NOT mutually unbiased, despite each entangled state
    # being unbiased within its own support pair).
    table = np.abs(basis_logical().matrix.conj().T @ basis_four().matrix) ** 2
    expected = 0.5 * np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [1, 1, 0, 0],
        ]
    )
    assert np.max(np.abs(table - expected)) < 1e-12


def test_labeled_basis_rejects_non_orthonormal():
    s = basis_state(2, 0)
    with pytest.raises(ValueError):
        LabeledBasis(2, (s, s), ("a", "b"))


def test_index_of():
    b = basis_four()
    assert b.index_of(b.states[2]) == 2
    phased = PureState(4, b.states[2].amps * np.exp(0.3j))
    assert b.index_of(phased) == 2
    with pytest.raises(ValueError):
        b.index_of(basis_state(4, 0))


def test_basis_adapted_to_random_state():
    rng = np.random.default_rng(5)
    phi = PureState.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    adapted = basis_adapted_to(phi)
    assert adapted.states[0] is phi
    gram = adapted.matrix.conj().T @ adapted.matrix
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


# ----------------------------------------------------------- unbiasedness


def _fourier_basis(d: int) -> LabeledBasis:
    k = np.arange(d)
    cols = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    states = tuple(PureState(d, cols[:, j]) for j in range(d))
    return LabeledBasis(d, states, tuple(f"f{j}" for j in range(d)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fourier_basis_is_unbiased_to_computational(d):
    assert unbiasedness_check(basis_computational(d), _fourier_basis(d), 1e-10)


def test_basis_is_not_unbiased_to_itself():
    b = basis_logical()
    assert not unbiasedness_check(b, b, 1e-10)


def test_logical_vs_entangled_is_not_unbiased():
    # overlaps are 1/2 and 0, never 1/4
    assert not unbiasedness_check(basis_logical(), basis_four(), 1e-10)


def test_unbiasedness_dimension_mismatch():
    with pytest.raises(ValueError):
        unbiasedness_check(basis_computational(2), basis_computational(3), 1e-10)


# ------------------------------------------------------- mixed state, fidelity


def test_maximally_mixed():
    rho = maximally_mixed(4)
    assert np.allclose(rho.mat, np.eye(4) / 4)
    assert np.trace(rho.mat) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        maximally_mixed(1)


def test_fidelity_against_clone_diagonal():
    rho = DensityMatrix(4, np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex))
    assert fidelity_pure(rho, basis_state(4, 0)) == pytest.approx(0.7, abs=1e-12)


def test_fidelity_of_mixed_state_is_one_over_d():
    rng = np.random.default_rng(9)
    psi = PureState.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert fidelity_pure(maximally_mixed(4), psi) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_of_projector_is_one():
    psi = basis_four().states[1]
    assert fidelity_pure(DensityMatrix.from_pure(psi), psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_is_global_phase_invariant():
    rng = np.random.default_rng(11)
    psi = PureState.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    rho = maximally_mixed(4)
    phased = PureState(4, psi.amps * np.exp(1.234j))
    assert fidelity_pure(rho, psi) == pytest.approx(fidelity_pure(rho, phased), abs=1e-14)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_pure(maximally_mixed(3), basis_state(4, 0))
