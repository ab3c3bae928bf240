"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
under plain ``pytest`` they appear in the captured-output section of any
failure.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from _engine_reference import haar_state, mixed_ancilla_branches
from symclone.bosonic import (
    FockState,
    beam_splitter,
    coalescence_enhancement,
)
from symclone.cloning import (
    CloningSpec,
    cascade_clone,
    clone_analytic,
    clone_oracle,
    f_clon,
    f_est,
)
from symclone.experiment import ExperimentConfig, replicate_table, run_cloning_experiment
from symclone.hilbert import (
    basis_computational,
    basis_four,
    basis_logical,
    basis_state,
)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{title}]: FAIL")
        raise
    print(f"criterion {num} [{title}]: PASS")


@pytest.fixture(scope="module")
def ideal_basis_one_table():
    # shared between criteria 5, 6 and 8 (estimator consistency)
    return replicate_table("I", ExperimentConfig(shots=100_000, seed=42))


def test_criterion_1_formula_exactness():
    with criterion(1, "formula exactness"):
        assert f_clon(1, 2, 4) == 0.7
        assert f_est(1, 4) == 0.4


def test_criterion_2_oracle_reproduces_clone_matrix():
    with criterion(2, "oracle vs analytic clone state"):
        rng = np.random.default_rng(2024)
        bench_states = list(basis_logical().states) + list(basis_four().states)
        probes = bench_states + [haar_state(rng, 4) for _ in range(20)]
        for phi in probes:
            rho = clone_oracle(phi, 4).clone_state.mat
            assert np.max(np.abs(rho - clone_analytic(phi).clone_state.mat)) < 1e-12
            # diag(0.7, 0.1, 0.1, 0.1) in any basis whose first element is phi
            expected = 0.1 * np.eye(4) + 0.6 * np.outer(phi.amps, phi.amps.conj())
            assert np.max(np.abs(rho - expected)) < 1e-12


def test_criterion_3_coalescence_branch_weights():
    with criterion(3, "coalescence branch weights 2/(d+1)"):
        for d in (2, 3, 4, 5):
            branches = mixed_ancilla_branches(basis_state(d, 0), basis_computational(d))
            total = sum(w * p for w, p, _ in branches)
            matched = branches[0][0] * branches[0][1] / total
            orthogonal = sum(w * p for w, p, _ in branches[1:]) / total
            assert abs(matched - 2 / (d + 1)) < 1e-12
            assert abs(orthogonal - (d - 1) / (d + 1)) < 1e-12


def test_criterion_4_hom_enhancement():
    with criterion(4, "HOM enhancement"):
        logical = basis_logical().states[3]  # |L,-2>
        entangled = basis_four().states[0]
        assert abs(coalescence_enhancement(logical, logical, 1.0) - 2.0) < 1e-12
        assert abs(coalescence_enhancement(entangled, entangled, 1.0) - 2.0) < 1e-12
        assert abs(coalescence_enhancement(entangled, entangled, 0.9165) - 1.84) <= 0.005
        b = basis_logical()
        r_orth = coalescence_enhancement(b.states[0], b.states[1], 1.0)
        assert abs(r_orth - 1.0) < 1e-12  # exact up to float rounding


def test_criterion_5_monte_carlo_basis_one(ideal_basis_one_table):
    with criterion(5, "basis I replication at shots=1e5"):
        table = ideal_basis_one_table
        for res in table.results:
            assert abs(res.fidelity - 0.7) <= 3 * res.stderr
        assert abs(table.average - 0.7) <= 0.005


def test_criterion_6_basis_four_degradation(ideal_basis_one_table):
    with criterion(6, "basis IV degradation directionality"):
        config = ExperimentConfig(
            shots=50_000,
            v=0.9165,  # reproduces the measured enhancement R = 1.84
            prep_fidelity=0.9,
            analysis_fidelity=0.9,
            ancilla_weights=(0.3, 0.3, 0.2, 0.2),
            seed=42,
        )
        degraded = replicate_table("IV", config)
        assert 0.40 < degraded.average < 0.70
        assert degraded.average < ideal_basis_one_table.average


def test_criterion_7_cascade_matches_formula():
    with criterion(7, "cascade vs closed-form fidelity"):
        for n, m, d in [(1, 2, 2), (1, 2, 4), (1, 3, 2), (1, 3, 4), (2, 3, 2), (1, 4, 2)]:
            out = cascade_clone(basis_state(d, 0), CloningSpec(d=d, n=n, m=m))
            mismatch = abs(out.fidelity - f_clon(n, m, d))
            assert mismatch < 1e-9, (
                f"cascade ({n},{m},{d}) deviates from the optimal formula "
                f"by {mismatch:.3e}"
            )


def _occupations(modes: int, n: int):
    # all ways to place n photons into `modes` modes
    for cut in itertools.combinations(range(n + modes - 1), modes - 1):
        prev = -1
        occ = []
        for c in cut:
            occ.append(c - prev - 1)
            prev = c
        occ.append(n + modes - 2 - prev)
        yield tuple(occ)


def test_criterion_8a_beam_splitter_properties():
    with criterion(8, "a: BS unitarity and photon-number conservation"):
        for d in (2, 3, 4):
            for n in range(1, 7):
                for occ in _occupations(2 * d, n):
                    state = FockState(2, d, {occ: 1.0 + 0j})
                    out = beam_splitter(state, 0, 1)
                    assert abs(out.norm() - 1.0) < 1e-12
                    assert out.n_photons == n


def test_criterion_8b_estimator_consistency_and_determinism(ideal_basis_one_table):
    with criterion(8, "b: estimator consistency and seed determinism"):
        expected = np.array([0.7, 0.1, 0.1, 0.1])
        for i, res in enumerate(ideal_basis_one_table.results):
            target = np.roll(expected, i)
            assert abs(res.fidelity - 0.7) <= 3 * res.stderr
            assert np.max(np.abs(res.probs - target)) < 0.005
        basis = basis_logical()
        cfg = ExperimentConfig(shots=2000, v=0.9, prep_fidelity=0.95, seed=99)
        first = run_cloning_experiment(basis.states[2], basis, cfg)
        second = run_cloning_experiment(basis.states[2], basis, cfg)
        assert first.counts == second.counts


def test_criterion_8c_cloning_beats_estimation_on_grid():
    with criterion(8, "c: f_clon > f_est over the grid"):
        for d in range(2, 11):
            for n in range(1, 100):
                for m in range(n + 1, 101):
                    assert f_clon(n, m, d) > f_est(n, d)


def test_criterion_8d_oracle_universality():
    with criterion(8, "d: oracle fidelity is input-independent"):
        rng = np.random.default_rng(808)
        for d in (2, 3, 4, 5):
            target = 0.5 + 1 / (d + 1)
            for _ in range(6):
                out = clone_oracle(haar_state(rng, d), d)
                assert abs(out.fidelity - target) < 1e-12
