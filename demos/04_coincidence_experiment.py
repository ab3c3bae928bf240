#!/usr/bin/env python3
"""Replicate the coincidence-count experiment for a full basis of inputs.

One run per input: collect post-selected coincidences N_{phi,i}, then form
the count-ratio estimate p(i|phi) whose diagonal is the cloning fidelity.
First with an ideal bench (expect 0.7 across the board for d=4), then with
the three imperfections dialed in: reduced wavepacket overlap, unbalanced
ancilla randomization, and ~0.9 preparation/analysis fidelities.
"""

from symclone import ExperimentConfig, replicate_table

SHOTS = 50_000


def main():
    print(f"ideal bench, logical basis, {SHOTS} coincidences per input")
    ideal = replicate_table("I", ExperimentConfig(shots=SHOTS, seed=7))
    print(ideal)
    print()

    print("degraded bench, entangled basis:")
    print("  overlap v = 0.9165 (enhancement R = 1.84), ancilla weights")
    print("  (0.3, 0.3, 0.2, 0.2), preparation/analysis fidelity 0.9")
    degraded_config = ExperimentConfig(
        shots=SHOTS,
        v=0.9165,
        ancilla_weights=(0.3, 0.3, 0.2, 0.2),
        prep_fidelity=0.9,
        analysis_fidelity=0.9,
        seed=7,
    )
    degraded = replicate_table("IV", degraded_config)
    print(degraded)
    print()

    drop = ideal.average - degraded.average
    print(f"average fidelity drop from imperfections: {drop:.4f}")
    print("(still far above the 0.4 estimation bound for d=4)")


if __name__ == "__main__":
    main()
