"""Finite-dimensional Hilbert-space primitives for photonic qudits.

States live in an abstract d-dimensional internal space. For d = 4 the
convenience constructors label the levels with the polarization / orbital
angular momentum (OAM) product encoding used on the optical bench:
right/left circular polarization combined with the OAM eigenvalues m = +-2.
All cloning math downstream is label-agnostic; only the constructors here
know about photons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "STRUCT_TOL",
    "PSD_FLOOR",
    "PureState",
    "DensityMatrix",
    "LabeledBasis",
    "basis_state",
    "basis_computational",
    "basis_logical",
    "basis_four",
    "BASIS_NAMES",
    "named_basis",
    "fidelity_pure",
]

# Structural identities (norms, orthogonality) hold to this tolerance; all
# amplitudes in the bench bases are exact-form rationals over sqrt(2).
STRUCT_TOL = 1e-12
# Density matrices may carry tiny negative eigenvalues from float roundoff.
PSD_FLOOR = -1e-10
# Constructor rejection threshold for Hermiticity / trace defects.
_MATRIX_TOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized ket over a d-dimensional internal space.

    Immutable; the amplitude array is marked read-only, so instances can be
    shared freely across threads.
    """

    dim: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > STRUCT_TOL:
            raise ValueError(f"state is not normalized: sum |amps|^2 = {norm_sq!r}")
        object.__setattr__(self, "amps", _readonly(amps))

    @classmethod
    def normalized(cls, amps) -> "PureState":
        """Build a state from un-normalized amplitudes, which must be finite,
        with a norm that neither overflows nor falls below 1e-12."""
        amps = np.asarray(amps, dtype=complex)
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        if np.isinf(norm):
            raise ValueError("the norm of the state amplitudes overflows")
        if norm < 1e-12:
            raise ValueError("the norm of the state amplitudes is below 1e-12")
        return cls(dim=len(amps), amps=amps / norm)


@dataclass(frozen=True)
class DensityMatrix:
    """d x d Hermitian, unit-trace, positive-semidefinite matrix.

    Constructor rejects non-finite entries, non-Hermitian or trace != 1
    inputs (tolerance 1e-9) and eigenvalues below the PSD floor.
    """

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_defect > _MATRIX_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > _MATRIX_TOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        min_eig = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)))
        if min_eig < PSD_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite (min eig {min_eig:.3e})")
        object.__setattr__(self, "mat", _readonly(mat))

    def to_dict(self) -> dict:
        """JSON-ready form: {"dim": d, "mat": [[[re, im], ...], ...]}."""
        return {
            "dim": self.dim,
            "mat": [
                [[float(x.real), float(x.imag)] for x in row] for row in self.mat
            ],
        }


@dataclass(frozen=True)
class LabeledBasis:
    """Orthonormal basis of d states with human-readable labels."""

    dim: int
    states: tuple[PureState, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        states = tuple(self.states)
        labels = tuple(self.labels)
        if len(states) != self.dim or len(labels) != self.dim:
            raise ValueError("need exactly d states and d labels")
        for s in states:
            if s.dim != self.dim:
                raise ValueError("basis state dimension mismatch")
        gram = self.matrix.conj().T @ self.matrix
        if float(np.max(np.abs(gram - np.eye(self.dim)))) > STRUCT_TOL:
            raise ValueError("basis states are not orthonormal")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)

    @property
    def matrix(self) -> np.ndarray:
        """Unitary with the basis states as columns."""
        return np.column_stack([s.amps for s in self.states])

    def index_of(self, psi: PureState) -> int:
        """Index of the basis state equal to ``psi`` up to global phase."""
        if psi.dim != self.dim:
            raise ValueError("dimension mismatch")
        overlaps = np.abs(self.matrix.conj().T @ psi.amps) ** 2
        best = int(np.argmax(overlaps))
        if abs(overlaps[best] - 1.0) > 1e-9:
            raise ValueError("state is not an element of this basis")
        return best


def basis_state(d: int, k: int) -> PureState:
    """Computational unit vector |k> in d dimensions."""
    if not 0 <= k < d:
        raise ValueError(f"level index {k} out of range for dimension {d}")
    amps = np.zeros(d, dtype=complex)
    amps[k] = 1.0
    return PureState(dim=d, amps=amps)


def basis_computational(d: int) -> LabeledBasis:
    """Computational basis {|0>, ..., |d-1>} with plain index labels."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return LabeledBasis(
        dim=d,
        states=tuple(basis_state(d, k) for k in range(d)),
        labels=tuple(str(k) for k in range(d)),
    )


#: Logical level order for the d=4 spin-orbit encoding:
#: |1> = R,+2   |2> = R,-2   |3> = L,+2   |4> = L,-2
_LOGICAL_LABELS = ("R,+2", "R,-2", "L,+2", "L,-2")


def basis_logical() -> LabeledBasis:
    """The d=4 separable "logic" basis: circular polarization x OAM m = +-2."""
    return LabeledBasis(
        dim=4,
        states=tuple(basis_state(4, k) for k in range(4)),
        labels=_LOGICAL_LABELS,
    )


def basis_four() -> LabeledBasis:
    """The d=4 basis of spin-orbit entangled states (basis "IV").

    States, in logical coordinates and with the sign order (+, -, +, -):

        (|R,+2> + |L,-2>)/sqrt2,  (|R,+2> - |L,-2>)/sqrt2,
        (|L,+2> + |R,-2>)/sqrt2,  (|L,+2> - |R,-2>)/sqrt2
    """
    r = 1 / np.sqrt(2)
    vectors = [
        (r, 0, 0, r),
        (r, 0, 0, -r),
        (0, r, r, 0),
        (0, -r, r, 0),
    ]
    labels = (
        "(R,+2 + L,-2)/√2",
        "(R,+2 - L,-2)/√2",
        "(L,+2 + R,-2)/√2",
        "(L,+2 - R,-2)/√2",
    )
    states = tuple(PureState(dim=4, amps=np.array(v, dtype=complex)) for v in vectors)
    return LabeledBasis(dim=4, states=states, labels=labels)


_NAMED = {"I": basis_logical, "IV": basis_four}
#: The bench bases by name, as the CLI and ``replicate_table`` take them.
BASIS_NAMES = tuple(_NAMED)


def named_basis(name: str) -> LabeledBasis:
    """The bench basis called ``name``, one of ``BASIS_NAMES``."""
    if name not in _NAMED:
        raise ValueError(f"unknown basis {name!r}; expected one of {', '.join(BASIS_NAMES)}")
    return _NAMED[name]()


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """Overlap <psi|rho|psi>; real for Hermitian rho, invariant under global phase."""
    if rho.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {psi.dim}")
    return float(np.real(np.vdot(psi.amps, rho.mat @ psi.amps)))
