"""Second-quantized engine routes that the cloning tests compare against.

These rebuild, one Fock state at a time, what :mod:`symclone.cloning`
computes in closed form, so every cloning number has an independent check
that runs through :mod:`symclone.bosonic` alone.
"""

import math
from functools import cache

import numpy as np

from symclone import bosonic
from symclone.cloning import _fock_basis
from symclone.hilbert import DensityMatrix, LabeledBasis, PureState, basis_state


@cache
def engine_stage_operators(d: int, m: int) -> np.ndarray:
    """Kraus operators K[port, k] of one m -> m+1 stage, built by the engine.

    Column n of K[port, k] is the unnormalized state left when the port-0
    basis ket |n> meets the ancilla |k> on port 1 at the beam splitter and
    every photon coalesces into ``port``, relabelled as a port-0 ket.
    Returns a read-only array of shape (2, d, C(m+d, m+1), C(m+d-1, m)),
    cached per (d, m).
    """
    source = _fock_basis(d, m)
    target = _fock_basis(d, m + 1)
    kraus = np.zeros((2, d, len(target), len(source)), dtype=complex)
    empty_port = (0,) * d
    for k in range(d):
        ancilla = basis_state(d, k)
        for col, occ in enumerate(source):
            state = bosonic.FockState(2, d, {occ + empty_port: 1.0 + 0j})
            state = bosonic.beam_splitter(bosonic.add_photon(state, 1, ancilla), 0, 1)
            for port in (0, 1):
                prob, kept = bosonic.postselect_same_port(state, port)
                for out_occ, out_amp in kept.terms.items():
                    row = target[out_occ[port * d:(port + 1) * d]]
                    kraus[port, k, row, col] += math.sqrt(prob) * out_amp
    kraus.setflags(write=False)
    return kraus


def engine_stage(rho: np.ndarray, m: int, sigma: np.ndarray) -> np.ndarray:
    """rho' = sum_{port, k, l} sigma_kl K[port, k] rho K[port, l]^dag on engine-built K."""
    d = len(sigma)
    kraus = engine_stage_operators(d, m)
    return sum(
        sigma[k, l] * kraus[port, k] @ rho @ kraus[port, l].conj().T
        for port in (0, 1)
        for k in range(d)
        for l in range(d)
    )


def mixed_ancilla_branches(
    phi: PureState, ancilla_basis: LabeledBasis
) -> list[tuple[float, float, DensityMatrix]]:
    """Run the 1 -> 2 channel once per ancilla basis state: (weight, coalescence prob, clone).

    The fully mixed ancilla is an exact equal-weight convex combination over
    the basis states, never a sample. Each branch adds the ancilla on port 1,
    applies the beam splitter and keeps coalescence into either output port;
    the clone is the single-photon reduction of the coalesced pair, both
    ports weighted by their probabilities.
    """
    weight = 1.0 / phi.dim
    branches = []
    for anc in ancilla_basis.states:
        pair = bosonic.add_photon(bosonic.single_photon(0, phi), 1, anc)
        state = bosonic.beam_splitter(pair, 0, 1)
        total, mat = 0.0, np.zeros((phi.dim, phi.dim), dtype=complex)
        for port in (0, 1):
            prob, kept = bosonic.postselect_same_port(state, port)
            total += prob
            mat += prob * bosonic.reduced_single_photon(kept, port).mat
        branches.append((weight, total, DensityMatrix(dim=phi.dim, mat=mat / total)))
    return branches
