#!/usr/bin/env python3
"""Scale cloning to N -> M with a chain of beam splitters.

Each stage merges the accumulated photons with one fresh fully mixed
ancilla photon and keeps total coalescence. The per-clone fidelity of the
chain lands exactly on the optimal N -> M bound, while the success
probability (the price of post-selection) shrinks stage by stage.
"""

from symclone import CloningSpec, basis_state, cascade_clone, f_clon

CASES = [
    (1, 2, 2), (1, 3, 2), (1, 4, 2), (1, 5, 2),
    (2, 3, 2), (2, 4, 2), (3, 4, 2),
    (1, 2, 4), (1, 3, 4), (1, 4, 4),
    (2, 3, 4),
    (1, 2, 3), (1, 3, 3),
]


def main():
    print(f"{'N':>3} {'M':>3} {'d':>3} {'cascade F':>12} {'formula F':>12} "
          f"{'|diff|':>9} {'P(success)':>11}")
    for n, m, d in CASES:
        out = cascade_clone(basis_state(d, 0), CloningSpec(d=d, n=n, m=m))
        formula = f_clon(n, m, d)
        print(
            f"{n:>3} {m:>3} {d:>3} {out.fidelity:>12.8f} {formula:>12.8f} "
            f"{abs(out.fidelity - formula):>9.1e} {out.success_prob:>11.6f}"
        )
    print()
    print("every chain reproduces the optimal bound; each stage is the closed-form")
    print("symmetric cloner, which the tests check against the second-quantized engine")


if __name__ == "__main__":
    main()
