"""Optimal universal cloning: closed-form fidelities, the beam-splitter
symmetrization channel, and its cascaded N -> M extension.

The symmetrization channel interferes the input photon with an ancilla
photon in the fully mixed state I_d/d on a balanced beam splitter and keeps
only the events where both photons coalesce into a common output port. Two
derived numbers anchor everything: conditioned on coalescence, the
ancilla-matches-input branch carries relative weight 2/(d+1) (fidelity 1)
and the d-1 orthogonal branches carry total weight (d-1)/(d+1) (fidelity
1/2), giving the optimal 1 -> 2 average fidelity 1/2 + 1/(d+1).

Derivation. The cascade (:func:`cascade_clone`, and :func:`clone_oracle`
as its one-stage case) carries the photons in port 0 as a state rho on the
m-photon symmetric subspace, of dimension C(m+d-1, m). A stage m -> m+1
meets them with one ancilla photon a_k^dag on port 1. The balanced splitter
sends each creation operator to (a_0^dag + i a_1^dag)/sqrt2 or
(i a_0^dag + a_1^dag)/sqrt2, so keeping only the term with every photon in
one output port multiplies the (m+1)-photon creation product by a phase and
2^(-(m+1)/2). The Kraus operator of that outcome is

    K[port, k] = phase(port, m) 2^(-(m+1)/2) a_k^dag,

relabelled as a port-0 ket. The phase cancels in K rho K^dag, and the two
ports contribute equally, so a stage is Werner's symmetric-subspace cloner

    rho' = 2^(-m) sum_{k, l} sigma_kl a_k^dag rho a_l,

with sigma the ancilla's density matrix. The trace of rho' is the stage's
coalescence probability, and the success probability is the product of the
stage traces. The clone state is the single-photon reduction
<a_l^dag a_k> / M of the final M-photon rho.

Basis coordinates. The ancilla is fully mixed, sigma = I_d/d, which is
diag(w) with w = 1/d in every basis. So the cascade works in a basis U whose
column 0 is phi (a Householder reflection). There the N-photon start
|phi^(x)N> is the single occupation (N, 0, ..., 0), and since
a_k^dag |n><n| a_k = (n_k + 1) |n + e_k><n + e_k|, each stage keeps rho
diagonal in the occupations n:

    rho'(n + e_k) += w_k (n_k + 1) rho(n) / 2^m.

The cascade therefore carries rho as a vector of C(m+d-1, m)
probabilities, one per occupation. The clone is diagonal in U as well:
U diag(c) U^dag with c_k = sum_n n_k rho(n) / M.

The tests rebuild each K[port, k] with the second-quantized engine in
:mod:`symclone.bosonic`, one basis ket at a time, check the vector stage
against it on diagonal states, and run the dense stage in the lab basis as
an independent cascade.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hilbert import DensityMatrix, PureState, fidelity_pure

__all__ = [
    "CloningSpec",
    "CloningOutcome",
    "f_est",
    "f_clon",
    "clone_analytic",
    "clone_oracle",
    "cascade_clone",
    "DEFAULT_CASCADE_CAP",
]

# Guard on M, which sets the length C(M+d-1, M) of the occupation vector
# the cascade carries through its stages.
DEFAULT_CASCADE_CAP = 6


@dataclass(frozen=True)
class CloningSpec:
    """An N -> M cloning task for internal dimension d."""

    d: int
    n: int
    m: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if not 1 <= self.n < self.m:
            raise ValueError(f"need 1 <= N < M, got N={self.n}, M={self.m}")


@dataclass(frozen=True)
class CloningOutcome:
    """Result of a cloning run: per-clone state, its fidelity, success odds."""

    input_state: PureState
    clone_state: DensityMatrix
    fidelity: float
    success_prob: float
    n: int = 1
    m: int = 2

    def __post_init__(self):
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success probability out of (0, 1]: {self.success_prob}")
        check = fidelity_pure(self.clone_state, self.input_state)
        if abs(check - self.fidelity) > 1e-12:
            raise ValueError(
                f"recorded fidelity {self.fidelity!r} disagrees with "
                f"<phi|rho|phi> = {check!r}"
            )

    def to_dict(self) -> dict:
        return {
            "d": self.input_state.dim,
            "N": self.n,
            "M": self.m,
            "fidelity": self.fidelity,
            "successProb": self.success_prob,
            "cloneState": self.clone_state.to_dict(),
        }


def f_est(n: int, d: int) -> float:
    """Optimal mean fidelity for estimating a d-dim state from n copies: (n+1)/(n+d)."""
    if n < 1:
        raise ValueError(f"need at least one copy, got {n}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return (n + 1) / (n + d)


def f_clon(n: int, m: int, d: int) -> float:
    """Optimal symmetric N -> M cloning fidelity: (M - N + N(M + d)) / (M(N + d)).

    Always exceeds f_est(n, d) and tends to it as m -> infinity.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 1 <= n < m:
        raise ValueError(f"need 1 <= N < M, got N={n}, M={m}")
    return (m - n + n * (m + d)) / (m * (n + d))


def _success_1_to_2(d: int) -> float:
    """Probability that signal and mixed ancilla coalesce into a common port."""
    return (d + 1) / (2 * d)


def clone_analytic(phi: PureState) -> CloningOutcome:
    """Closed-form 1 -> 2 outcome.

    The per-clone state is diagonal in any basis whose first element is phi:

        rho = (d+3)/(2(d+1)) |phi><phi| + 1/(2(d+1)) (I - |phi><phi|)

    i.e. diag(7, 1, 1, 1)/10 for d = 4.
    """
    d = phi.dim
    top = (d + 3) / (2 * (d + 1))
    rest = 1 / (2 * (d + 1))
    proj = np.outer(phi.amps, phi.amps.conj())
    rho = rest * np.eye(d) + (top - rest) * proj
    return CloningOutcome(
        input_state=phi,
        clone_state=DensityMatrix(dim=d, mat=rho),
        fidelity=top,
        success_prob=_success_1_to_2(d),
        n=1,
        m=2,
    )


@cache
def _fock_basis(d: int, m: int) -> dict[tuple[int, ...], int]:
    """Position of each m-photon occupation of d levels: the symmetric-subspace basis."""
    index = {}
    for levels in itertools.combinations_with_replacement(range(d), m):
        occ = [0] * d
        for k in levels:
            occ[k] += 1
        index[tuple(occ)] = len(index)
    return index


@cache
def _raising(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """a_k^dag on the m-photon basis: |n> -> sqrt(factor[k, n]) |up[k, n]>, factor = n_k + 1.

    ``factor`` holds the integers n_k + 1 as floats.
    """
    source = _fock_basis(d, m)
    target = _fock_basis(d, m + 1)
    up = np.empty((d, len(source)), dtype=np.intp)
    factor = np.empty((d, len(source)))
    for col, occ in enumerate(source):
        for k in range(d):
            raised = list(occ)
            raised[k] += 1
            up[k, col] = target[tuple(raised)]
            factor[k, col] = raised[k]
    up.setflags(write=False)
    factor.setflags(write=False)
    return up, factor


def _first_column_basis(phi: PureState) -> np.ndarray:
    """A unitary U whose column 0 is phi: a phased Householder reflection.

    With theta = arg phi_0 and w = e_0 + e^(-i theta) phi,
    U = -e^(i theta) (I - 2 w w^dag / |w|^2). Since e^(-i theta) phi_0 = |phi_0|,
    |w|^2 = 2 (1 + |phi_0|) >= 2: nothing cancels, even for phi near e_0.
    """
    phase = np.exp(1j * np.angle(phi.amps[0]))
    w = phi.amps / phase
    w[0] += 1.0
    reflection = np.eye(phi.dim) - np.outer(w, w.conj()) * (2 / np.vdot(w, w).real)
    return -phase * reflection


def _stage(rho: np.ndarray, m: int, weights: np.ndarray) -> np.ndarray:
    """One stage in basis coordinates: m port-0 photons meet an ancilla photon and coalesce.

    ``rho`` holds the probability of each m-photon occupation, and
    ``weights`` the ancilla's diagonal density matrix in the same basis.
    Returns the unnormalized (m+1)-photon vector with
    rho'(n + e_k) += w_k (n_k + 1) rho(n) / 2^m over every n and k (see the
    module docstring); for unit-sum rho its sum is the coalescence
    probability, both output ports counted.
    """
    d = len(weights)
    up, factor = _raising(d, m)
    raised = weights[:, None] * factor * rho
    return np.bincount(up.ravel(), raised.ravel(), len(_fock_basis(d, m + 1))) / 2**m


def _interfere(d: int, n: int, m: int, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Carry n photons in basis state 0 through m - n stages: (success probability, c).

    c_k = sum_n n_k rho(n) / m is the clone's diagonal in the same basis,
    summed as sum_i (i_k + 1) rho(i + e_k) / m over the (m-1)-photon kets i.
    """
    start = _fock_basis(d, n)
    rho = np.zeros(len(start))
    rho[start[(n,) + (0,) * (d - 1)]] = 1.0
    success = 1.0
    for photons in range(n, m):
        rho = _stage(rho, photons, weights)
        prob = float(rho.sum())
        success *= prob
        rho /= prob
    up, factor = _raising(d, m - 1)
    return success, np.sum(factor * rho[up], axis=1) / m


def clone_oracle(phi: PureState, d: int) -> CloningOutcome:
    """1 -> 2 outcome of the one-stage cascade: one stage in the basis adapted to phi.

    An independent route to :func:`clone_analytic`, with which it agrees to
    machine precision.
    """
    if d != phi.dim:
        raise ValueError(f"dimension mismatch: d={d} but phi.dim={phi.dim}")
    return cascade_clone(phi, CloningSpec(d=d, n=1, m=2))


def cascade_clone(
    phi: PureState, spec: CloningSpec, cap: int = DEFAULT_CASCADE_CAP
) -> CloningOutcome:
    """N -> M cloning by a chain of M - N beam splitters and mixed ancillas.

    Starts with N photons in phi on one port; each stage interferes the
    accumulated photons with one fresh fully mixed ancilla photon and keeps
    only total coalescence into a common output port (partial-coalescence
    outcomes count as failures). The photons are carried in a basis U whose
    column 0 is phi, where their state stays diagonal: a vector of
    C(m+d-1, m) occupation probabilities after m photons, moved by the stage
    of the module docstring. The success probability is the product of the
    stage sums; the clone state is U diag(c) U^dag, with c_k the mean
    occupation of level k per photon. The ancilla enters only through its
    density matrix I_d/d. A success probability below the smallest normal
    float is an error, not a result.
    """
    if phi.dim != spec.d:
        raise ValueError(f"dimension mismatch: spec.d={spec.d} but phi.dim={phi.dim}")
    d = spec.d
    if spec.m > cap:
        raise ValueError(
            f"M={spec.m} exceeds the cap {cap}; the cascade's occupation vector would have "
            f"length C(M+d-1, M) = {math.comb(spec.m + d - 1, spec.m)}. Raise `cap` "
            "explicitly to allow it"
        )
    success, c = _interfere(d, spec.n, spec.m, np.full(d, 1.0 / d))
    if success < sys.float_info.min:
        raise ValueError(
            f"the cascade's success probability underflows the float range at M={spec.m}, d={d}"
        )
    basis = _first_column_basis(phi)
    mat = (basis * c) @ basis.conj().T
    clone = DensityMatrix(dim=d, mat=(mat + mat.conj().T) / 2)
    return CloningOutcome(
        input_state=phi,
        clone_state=clone,
        fidelity=fidelity_pure(clone, phi),
        success_prob=success,
        n=spec.n,
        m=spec.m,
    )
