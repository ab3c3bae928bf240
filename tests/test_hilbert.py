"""Hilbert-space primitives: state validation, bench bases, fidelities."""

import re
import warnings

import numpy as np
import pytest

from _engine_reference import fourier_basis, haar_state
from symclone.bosonic import FockState, beam_splitter, identical_photons, single_photon
from symclone.cloning import CloningSpec, f_est
from symclone.hilbert import (
    BASIS_NAMES,
    DensityMatrix,
    LabeledBasis,
    PureState,
    basis_computational,
    basis_four,
    basis_logical,
    basis_state,
    fidelity_pure,
    named_basis,
)

RT2 = 1 / np.sqrt(2)


def _mixed(d: int) -> DensityMatrix:
    return DensityMatrix(d, np.eye(d, dtype=complex) / d)


def _cross_overlaps(b1: LabeledBasis, b2: LabeledBasis) -> np.ndarray:
    """|<i|j>|^2 for every state i of ``b1`` and j of ``b2``."""
    return np.abs(b1.matrix.conj().T @ b2.matrix) ** 2


# ---------------------------------------------------------------- PureState


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 1.0]))


def test_pure_state_requires_dim_at_least_two():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0]))


# The callers of the one integer rule and the one dimension rule of
# ``symclone.hilbert``, each with a value that is not an integer
_NOT_AN_INTEGER = [
    pytest.param(lambda v: PureState(v, np.eye(4)[0]), 4.0, id="PureState-dim"),
    pytest.param(lambda v: DensityMatrix(v, np.eye(2) / 2), 2.0, id="DensityMatrix-dim"),
    pytest.param(lambda v: LabeledBasis(v, basis_logical().states, basis_logical().labels), 4.0,
                 id="LabeledBasis-dim"),
    pytest.param(lambda v: CloningSpec(d=v, n=1, m=2), 4.0, id="CloningSpec-d"),
    pytest.param(lambda v: basis_state(4, v), 1.0, id="basis_state-k-float"),
    pytest.param(lambda v: basis_state(4, v), True, id="basis_state-k-bool"),
    pytest.param(basis_computational, 4.0, id="basis_computational-d"),
    pytest.param(lambda v: FockState.vacuum(2, v), 4.0, id="FockState.vacuum-dim"),
    pytest.param(lambda v: beam_splitter(single_photon(0, basis_state(4, 0)), 0, v), True,
                 id="beam_splitter-port"),
    pytest.param(lambda v: identical_photons(0, basis_state(4, 0), v), 2.0,
                 id="identical_photons-n"),
]


@pytest.mark.parametrize("build, value", _NOT_AN_INTEGER)
def test_a_dimension_index_or_count_that_is_not_an_integer_is_an_error_naming_it(build, value):
    # a float such as 4.0 or a bool is not an integer, even where numpy or
    # Python would read it as one
    with pytest.raises(ValueError, match=rf" must be an integer, got {re.escape(repr(value))}$"):
        build(value)


def test_one_dimension_rule_serves_states_bases_and_specs():
    # a numpy integer is an integer, stored as an int; below 2 is one error
    d = np.int64(4)
    dims = (PureState(d, np.eye(4)[0]).dim, DensityMatrix(d, np.eye(4) / 4).dim,
            basis_computational(d).dim, basis_state(d, np.int64(1)).dim,
            CloningSpec(d=d, n=1, m=2).d)
    assert all(type(x) is int and x == 4 for x in dims)
    for build in (lambda: PureState(1, [1.0]), lambda: basis_computational(1),
                  lambda: CloningSpec(d=1, n=1, m=2), lambda: f_est(1, 1)):
        with pytest.raises(ValueError, match=r"^dimension must be >= 2, got 1$"):
            build()


def test_pure_state_normalized_constructor():
    s = PureState.normalized([3.0, 4.0])
    assert np.allclose(s.amps, [0.6, 0.8])
    with pytest.raises(ValueError, match=r"^the norm of the state amplitudes is below 1e-12$"):
        PureState.normalized([0.0, 0.0])


def test_pure_state_normalized_rejects_a_norm_that_overflows():
    # finite amplitudes whose squares pass the float range: one ValueError,
    # with no numpy overflow warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the norm of the state amplitudes overflows$"):
            PureState.normalized([1e300, 1e300])


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


def test_density_matrix_json_round_trip():
    rho = _mixed(3)
    data = rho.to_dict()
    back = np.array([[complex(re, im) for re, im in row] for row in data["mat"]])
    assert data["dim"] == 3
    assert np.allclose(back, rho.mat)


# -------------------------------------------------------------- overlaps


def test_inner_on_logical_basis():
    b = basis_logical()
    assert np.vdot(b.states[0].amps, b.states[0].amps) == pytest.approx(1.0)
    assert np.vdot(b.states[0].amps, b.states[1].amps) == pytest.approx(0.0)


def test_inner_logical_vs_entangled():
    overlap = np.vdot(basis_logical().states[0].amps, basis_four().states[0].amps)
    assert overlap == pytest.approx(RT2, abs=1e-12)


# ------------------------------------------------------------------- bases


def test_logical_basis_states_and_labels():
    b = basis_logical()
    assert np.allclose(b.states[0].amps, [1, 0, 0, 0])
    assert b.labels == ("R,+2", "R,-2", "L,+2", "L,-2")
    assert b.labels[3] == "L,-2"


def test_named_bases_are_the_bench_bases():
    assert BASIS_NAMES == ("I", "IV")
    for name, make in zip(BASIS_NAMES, (basis_logical, basis_four)):
        basis, expected = named_basis(name), make()
        assert basis.labels == expected.labels
        assert np.array_equal(basis.matrix, expected.matrix)


@pytest.mark.parametrize("name", ["II", "i", "", "I:1"])
def test_unknown_basis_name_is_an_error_that_lists_the_names(name):
    with pytest.raises(ValueError) as caught:
        named_basis(name)
    assert str(caught.value) == f"unknown basis {name!r}; expected one of I, IV"


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


# ----------------------------------------------------------- unbiasedness


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fourier_basis_is_unbiased_to_computational(d):
    overlaps = _cross_overlaps(basis_computational(d), fourier_basis(d))
    assert np.max(np.abs(overlaps - 1 / d)) < 1e-10


def test_basis_is_not_unbiased_to_itself():
    b = basis_logical()
    assert np.allclose(_cross_overlaps(b, b), np.eye(4), atol=1e-12)


def test_logical_vs_entangled_is_not_unbiased():
    # overlaps are 1/2 and 0, never 1/4
    overlaps = _cross_overlaps(basis_logical(), basis_four())
    assert np.all(np.abs(overlaps - 0.25) > 0.2)


# ------------------------------------------------------- mixed state, fidelity


def test_maximally_mixed():
    rho = _mixed(4)
    assert np.allclose(rho.mat, np.eye(4) / 4)
    assert np.trace(rho.mat) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(1, dtype=complex))


def test_fidelity_against_clone_diagonal():
    rho = DensityMatrix(4, np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex))
    assert fidelity_pure(rho, basis_state(4, 0)) == pytest.approx(0.7, abs=1e-12)


def test_fidelity_of_mixed_state_is_one_over_d():
    rng = np.random.default_rng(9)
    psi = haar_state(rng, 4)
    assert fidelity_pure(_mixed(4), psi) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_of_projector_is_one():
    psi = basis_four().states[1]
    projector = DensityMatrix(4, np.outer(psi.amps, psi.amps.conj()))
    assert fidelity_pure(projector, psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_is_global_phase_invariant():
    rng = np.random.default_rng(11)
    psi = haar_state(rng, 4)
    rho = _mixed(4)
    phased = PureState(4, psi.amps * np.exp(1.234j))
    assert fidelity_pure(rho, psi) == pytest.approx(fidelity_pure(rho, phased), abs=1e-14)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_pure(_mixed(3), basis_state(4, 0))
