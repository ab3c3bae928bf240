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

Input-level marginal. The ancilla is fully mixed, and sigma = I_d/d has
the same matrix in every basis, so take a basis whose first vector is phi.
There the N-photon start |phi^(x)N> is the single occupation
(N, 0, ..., 0), and since a_k^dag |n><n| a_k = (n_k + 1) |n + e_k><n + e_k|,
each stage keeps rho diagonal in the occupations n:

    rho'(n + e_k) += (n_k + 1) rho(n) / (d 2^m).

Summed over the levels k >= 1, which leave n_0 alone, the factors give
sum_{k>=1} (n_k + 1) = m - n_0 + d - 1, a function of n_0 only. So the
distribution P of n_0, the number of photons in phi's level, is moved on
its own:

    P'(j) = [j P(j-1) + (m - j + d - 1) P(j)] / (d 2^m),

a vector of at most M + 1 numbers. The fidelity is the mean n_0 per photon,
F = sum_j j P(j) / M, and since the start and every stage are symmetric in
the levels k >= 1 the clone is isotropic around phi:

    F |phi><phi| + (1 - F)/(d - 1) (I - |phi><phi|).

So phi and F give the clone, and a :class:`CloningOutcome` records only
them: its ``clone_state`` is derived from F when first read.

The tests rebuild each K[port, k] with the second-quantized engine in
:mod:`symclone.bosonic`, one basis ket at a time, check the n_0 stage
against the n_0-marginal of the engine stage on diagonal states, and run
the dense stage in the computational basis as an independent cascade.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import DensityMatrix, PureState

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

# Default largest M. The cascade carries at most M + 1 numbers, so this
# bounds neither memory nor time; it stays because the benchmark's cascade
# grid reads it and passes ``cap``.
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
    """Result of a cloning run: the input, the per-clone fidelity F and the
    success odds. The clone state follows from phi and F (the module
    docstring), so it is derived, not stored."""

    input_state: PureState
    fidelity: float
    success_prob: float
    n: int = 1
    m: int = 2

    def __post_init__(self):
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success probability out of (0, 1]: {self.success_prob}")
        # a NaN fails this test too; 0 <= F <= 1 keeps the clone state
        # positive semidefinite
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity out of [0, 1]: {self.fidelity}")

    @cached_property
    def clone_state(self) -> DensityMatrix:
        """The isotropic F |phi><phi| + (1 - F)/(d - 1) (I - |phi><phi|),
        built once, when first read."""
        phi, fidelity = self.input_state, self.fidelity
        d = phi.dim
        rest = (1 - fidelity) / (d - 1)
        proj = np.outer(phi.amps, phi.amps.conj())
        return DensityMatrix(dim=d, mat=rest * np.eye(d) + (fidelity - rest) * proj)

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
    CloningSpec(d=d, n=n, m=m)  # raises for d < 2 or unless 1 <= N < M
    return (m - n + n * (m + d)) / (m * (n + d))


def _success_1_to_2(d: int) -> float:
    """Probability that signal and mixed ancilla coalesce into a common port."""
    return (d + 1) / (2 * d)


def clone_analytic(phi: PureState) -> CloningOutcome:
    """Closed-form 1 -> 2 outcome.

    The per-clone state is the isotropic

        rho = (d+3)/(2(d+1)) |phi><phi| + 1/(2(d+1)) (I - |phi><phi|)

    i.e. diag(7, 1, 1, 1)/10 for d = 4 in any basis whose first element is phi:
    its fidelity is f_clon(1, 2, d).
    """
    d = phi.dim
    return CloningOutcome(phi, f_clon(1, 2, d), _success_1_to_2(d))


def _stage(p: np.ndarray, m: int, d: int) -> np.ndarray:
    """One stage on the input level's occupation: m port-0 photons meet an ancilla photon.

    ``p[j]`` is the probability that j of the m photons occupy phi's level.
    Returns the unnormalized (m+1)-photon distribution

        p'(j) = [j p(j-1) + (m - j + d - 1) p(j)] / (d 2^m)

    (see the module docstring); for unit-sum p its sum is the coalescence
    probability, both output ports counted.
    """
    j = np.arange(m + 1)
    grown = np.append((m - j + d - 1) * p, 0.0)
    grown[1:] += (j + 1) * p
    return grown / (d * 2.0**m)


def clone_oracle(phi: PureState, d: int) -> CloningOutcome:
    """1 -> 2 outcome of the one-stage cascade: one stage on the input level's occupation.

    An independent route to :func:`clone_analytic`, with which it agrees to
    machine precision.
    """
    return cascade_clone(phi, CloningSpec(d=d, n=1, m=2))


def cascade_clone(
    phi: PureState, spec: CloningSpec, cap: int = DEFAULT_CASCADE_CAP
) -> CloningOutcome:
    """N -> M cloning by a chain of M - N beam splitters and mixed ancillas.

    Starts with N photons in phi on one port; each stage interferes the
    accumulated photons with one fresh fully mixed ancilla photon and keeps
    only total coalescence into a common output port (partial-coalescence
    outcomes count as failures). The photons are carried as the distribution
    of n_0, the number of them in phi's level, M + 1 numbers at most, moved
    by the stage of the module docstring. The success probability is the
    product of the stage sums; the fidelity is the mean n_0 per photon, and
    the clone is isotropic around phi. The ancilla enters only through its
    density matrix I_d/d. A success probability below the smallest normal
    float is an error, not a result, raised at the first stage that reaches it.
    """
    if phi.dim != spec.d:
        raise ValueError(f"dimension mismatch: spec.d={spec.d} but phi.dim={phi.dim}")
    d = spec.d
    if spec.m > cap:
        raise ValueError(f"M={spec.m} exceeds the cap {cap}; raise `cap` explicitly to allow it")
    p = np.zeros(spec.n + 1)
    p[spec.n] = 1.0
    success = 1.0
    for photons in range(spec.n, spec.m):
        p = _stage(p, photons, d)
        prob = float(p.sum())
        success *= prob
        if success < sys.float_info.min:
            raise ValueError(
                "the cascade's success probability underflows the float range "
                f"at M={spec.m}, d={d}"
            )
        p /= prob
    fidelity = float(np.arange(spec.m + 1) @ p) / spec.m
    return CloningOutcome(phi, fidelity, success, spec.n, spec.m)
