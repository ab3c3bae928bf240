"""Reference routes the cloning and Monte Carlo tests check against.

The engine routes rebuild, one Fock state at a time, what
:mod:`symclone.cloning` and the Monte Carlo event terms of
:mod:`symclone.experiment` compute in closed form, so every cloning and
coincidence number has an independent check that runs through
:mod:`symclone.bosonic` alone. The lab-coordinate cascade carries the dense
density operator through the closed-form Kraus stage in the computational
basis, for any ancilla sigma, where :mod:`symclone.cloning` carries only
the distribution of the input level's occupation. The Fock tables index the
m-photon symmetric subspace for both. The outcome law of a Monte Carlo run,
built from the engine's coincidence probabilities, is the exact law its
counts sample when the analyzer is ideal. ``haar_state`` draws the
Haar-random input states the test modules share, and ``fourier_basis``
builds their Fourier basis.
"""

import itertools
import math
from functools import cache

import numpy as np

from symclone import bosonic
from symclone.hilbert import DensityMatrix, LabeledBasis, PureState, basis_state


def haar_state(rng: np.random.Generator, d: int) -> PureState:
    """A Haar-random state of dimension d from 2d standard normals of ``rng``:
    d real parts, then d imaginary parts."""
    return PureState.normalized(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def fourier_basis(d: int) -> LabeledBasis:
    """The Fourier basis of dimension d, b_k = sum_l w^(kl) e_l / sqrt(d),
    w = exp(2 pi i/d), labelled f0, ..., f(d-1)."""
    cols = np.exp(2j * np.pi / d) ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d)
    return LabeledBasis(d, tuple(PureState(d, c) for c in cols.T), tuple(f"f{k}" for k in range(d)))


@cache
def fock_basis(d: int, m: int) -> dict[tuple[int, ...], int]:
    """Position of each m-photon occupation of d levels: the symmetric-subspace basis."""
    index = {}
    for levels in itertools.combinations_with_replacement(range(d), m):
        occ = [0] * d
        for k in levels:
            occ[k] += 1
        index[tuple(occ)] = len(index)
    return index


@cache
def raising(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """a_k^dag on the m-photon basis: |n> -> sqrt(factor[k, n]) |up[k, n]>, factor = n_k + 1.

    ``factor`` holds the integers n_k + 1 as floats.
    """
    source = fock_basis(d, m)
    target = fock_basis(d, m + 1)
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


def first_column_basis(phi: PureState) -> np.ndarray:
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


@cache
def engine_stage_operators(d: int, m: int) -> np.ndarray:
    """Kraus operators K[port, k] of one m -> m+1 stage, built by the engine.

    Column n of K[port, k] is the unnormalized state left when the port-0
    basis ket |n> meets the ancilla |k> on port 1 at the beam splitter and
    every photon coalesces into ``port``, relabelled as a port-0 ket.
    Returns a read-only array of shape (2, d, C(m+d, m+1), C(m+d-1, m)),
    cached per (d, m).
    """
    source = fock_basis(d, m)
    target = fock_basis(d, m + 1)
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


def lab_stage(rho: np.ndarray, m: int, sigma: np.ndarray) -> np.ndarray:
    """Dense closed-form stage rho' = 2^(-m) sum_{k,l} sigma_kl a_k^dag rho a_l.

    One scatter update per nonzero sigma_kl on the computational basis's
    m-photon symmetric subspace.
    """
    d = len(sigma)
    up, factor = raising(d, m)
    coeff = np.sqrt(factor)
    out = np.zeros((len(fock_basis(d, m + 1)),) * 2, dtype=complex)
    for k, l in zip(*np.nonzero(sigma)):
        weight = sigma[k, l] / 2**m
        out[np.ix_(up[k], up[l])] += weight * (coeff[k][:, None] * rho * coeff[l])
    return out


def lab_photons(phi: PureState, n: int) -> np.ndarray:
    """|phi^(x)n> = (a_phi^dag)^n |0> / sqrt(n!) on the computational n-photon basis.

    Applies a_phi^dag = sum_k phi_k a_k^dag one photon at a time, as a
    matrix built from the raising table.
    """
    d = phi.dim
    vec = np.ones(1, dtype=complex)
    for m in range(n):
        up, factor = raising(d, m)
        raise_phi = np.zeros((len(fock_basis(d, m + 1)), len(vec)), dtype=complex)
        raise_phi[up, np.arange(len(vec))] = phi.amps[:, None] * np.sqrt(factor)
        vec = raise_phi @ vec / math.sqrt(m + 1)
    return vec


def lab_cascade(phi: PureState, n: int, m: int, sigma: np.ndarray) -> tuple[float, np.ndarray]:
    """Dense cascade of n photons in ``phi`` through m - n stages: (success, clone matrix).

    The clone is the single-photon reduction <a_l^dag a_k> / m of the final
    m-photon rho, i.e. sum_i sqrt(i_k + 1) sqrt(i_l + 1) rho[i + e_k, i + e_l] / m
    over the (m-1)-photon basis kets i.
    """
    vec = lab_photons(phi, n)
    rho = np.outer(vec, vec.conj())
    success = 1.0
    for photons in range(n, m):
        rho = lab_stage(rho, photons, sigma)
        prob = float(np.real(np.trace(rho)))
        success *= prob
        rho /= prob
    up, factor = raising(phi.dim, m - 1)
    coeff = np.sqrt(factor)
    weights = coeff[:, None, :] * coeff[None, :, :]
    clone = np.sum(weights * rho[up[:, None, :], up[None, :, :]], axis=-1) / m
    return success, clone


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


def coincidence_probabilities(
    signal: PureState,
    ancilla: PureState,
    v: float,
    filter_state: PureState,
    outcome_states,
) -> tuple[float, float, float, np.ndarray]:
    """Single-trial engine reference for the Monte Carlo coincidence pipeline.

    Builds the full second-quantized computation (temporal-mode doubling,
    first splitter, coalescence into the monitored port, second splitter,
    one-photon-per-arm coincidence, analyzer projections) and returns

        (p_coal, p_split, p_filter, q)

    where q holds the relative scanner-click weights per outcome. Slow but
    independent of the closed forms ``_half_coal`` and ``_event_terms`` of
    :mod:`symclone.experiment`, against which the tests check it.
    """
    d = signal.dim
    state = bosonic._two_photon_input(signal, ancilla, v, ports=3)
    state = bosonic.beam_splitter(state, 0, 1)
    p_coal, cond = bosonic.postselect_same_port(state, 0)
    if p_coal == 0.0:
        return 0.0, 0.0, 0.0, np.zeros(len(outcome_states))
    split = bosonic.beam_splitter(cond, 0, 2)
    # one photon in port 0, one in port 2 -> 2d x 2d amplitude matrix
    dd = 2 * d
    psi = np.zeros((dd, dd), dtype=complex)
    p_split = 0.0
    for occ, amp in split.terms.items():
        port0 = occ[0:dd]
        port2 = occ[2 * dd : 3 * dd]
        if sum(port0) == 1 and sum(port2) == 1:
            p_split += abs(amp) ** 2
            psi[port0.index(1), port2.index(1)] = amp
    if p_split == 0.0:
        return p_coal, 0.0, 0.0, np.zeros(len(outcome_states))
    psi /= math.sqrt(p_split)

    def temporal_pair(s: PureState) -> np.ndarray:
        cols = np.zeros((dd, 2), dtype=complex)
        cols[:d, 0] = s.amps
        cols[d:, 1] = s.amps
        return cols

    fil = temporal_pair(filter_state)
    p_filter = float(np.sum(np.abs(fil.conj().T @ psi) ** 2))
    q = np.array(
        [
            np.sum(np.abs(fil.conj().T @ psi @ np.conj(temporal_pair(out))) ** 2)
            for out in outcome_states
        ]
    )
    return float(p_coal), float(p_split), p_filter, q


def outcome_law(basis: LabeledBasis, p: int, config) -> np.ndarray:
    """Exact per-trial law of a Monte Carlo run of input ``p`` of ``basis``
    under ``config`` (an ``ExperimentConfig``), built by the engine.

    Returns P, unnormalized: P_j is the probability that one trial is a
    coincidence with outcome j, so sum(P) is the yield per trial and P/sum(P)
    the law of a run's counts. With an ideal analyzer a trial with signal S
    and ancilla N is accepted with outcome j with probability
    L_j(S, N) = p_coal p_split p_filter q_j / sum(q), all four from
    :func:`coincidence_probabilities` with the filter b_p and the basis as
    scanner. L_j is linear in |S><S|, and a signal replaced at preparation
    fidelity f averages to (I - |b_p><b_p|)/(d - 1), so

        P_j = sum_k w_k [f L_j(b_p, b_k) + (1 - f)/(d - 1) sum_{t != p} L_j(b_t, b_k)]

    for the ancilla weights w. A noisy analyzer divides by sum(q) over
    replaced settings, which is not linear, so ``analysis_fidelity < 1`` has
    no closed form and raises ``ValueError``.
    """
    if config.analysis_fidelity < 1.0:
        raise ValueError("the outcome law has no closed form for analysis_fidelity < 1")
    d, f = basis.dim, config.prep_fidelity
    states = basis.states
    signals = [(f, p)]  # (share, index t of the signal b_t)
    if f < 1.0:
        signals += [((1.0 - f) / (d - 1), t) for t in range(d) if t != p]
    law = np.zeros(d)
    for w_k, ancilla in zip(config.weights_for(d), states):
        for share, t in signals:
            p_coal, p_split, p_filter, q = coincidence_probabilities(
                states[t], ancilla, config.v, states[p], states
            )
            if q.sum() > 0.0:  # else no scanner setting can click
                law += w_k * share * p_coal * p_split * p_filter * q / q.sum()
    return law
