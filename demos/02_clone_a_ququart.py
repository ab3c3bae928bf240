#!/usr/bin/env python3
"""Clone a ququart by symmetrization and inspect the output state.

The channel mixes the signal photon with a fully mixed ancilla photon on a
balanced beam splitter and keeps coalesced pairs. Run both routes: the
closed-form clone state and the one-stage cascade, which carries the
photons' occupation probabilities in a basis whose first vector is the
input; they agree to machine precision, for separable and spin-orbit
entangled inputs alike.
"""

import numpy as np

from symclone import PureState, basis_four, basis_logical, clone_analytic, clone_oracle


def show(label, phi):
    oracle = clone_oracle(phi, phi.dim)
    analytic = clone_analytic(phi)
    gap = np.max(np.abs(oracle.clone_state.mat - analytic.clone_state.mat))
    print(f"{label}")
    print(f"  fidelity      {oracle.fidelity:.12f}")
    print(f"  success prob  {oracle.success_prob:.6f}")
    print(f"  |oracle - analytic|_max = {gap:.2e}")


def main():
    logical = basis_logical()
    entangled = basis_four()

    print("cloning the four logical (separable) inputs")
    for label, phi in zip(logical.labels, logical.states):
        show(f"  input |{label}>", phi)
    print()

    print("cloning the four spin-orbit entangled inputs")
    for label, phi in zip(entangled.labels, entangled.states):
        show(f"  input {label}", phi)
    print()

    rng = np.random.default_rng(1)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    show("a Haar-random ququart (universality: same fidelity)", PureState.normalized(z))

    print()
    phi = logical.states[0]
    rho = clone_oracle(phi, 4).clone_state.mat
    print("clone density matrix for input |R,+2>, logical coordinates:")
    with np.printoptions(precision=3, suppress=True):
        print(np.real(rho))


if __name__ == "__main__":
    main()
