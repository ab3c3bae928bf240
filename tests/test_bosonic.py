"""Second-quantized engine: beam splitter algebra, post-selection, HOM."""

import itertools
import math

import numpy as np
import pytest

from symclone import bosonic
from symclone.bosonic import (
    DistinguishabilityModel,
    FockState,
    add_photon,
    beam_splitter,
    coalescence_enhancement,
    hom_curve,
    identical_photons,
    postselect_same_port,
    reduced_single_photon,
    single_photon,
)
from symclone.cli import main
from symclone.hilbert import PureState, basis_four, basis_logical, basis_state

RT2 = 1 / np.sqrt(2)


def _pair(level_s: int, level_a: int, d: int = 4) -> FockState:
    state = single_photon(0, basis_state(d, level_s))
    return add_photon(state, 1, basis_state(d, level_a))


# ------------------------------------------------------------- FockState


def test_fock_state_rejects_mixed_photon_number():
    with pytest.raises(ValueError):
        FockState(1, 2, {(1, 0): RT2, (1, 1): RT2})


def test_fock_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        FockState(1, 2, {(1, 0): 0.5})


def test_empty_state_marker():
    empty = FockState(2, 2, {})
    assert empty.is_empty and empty.n_photons == 0


# ---------------------------------------------------------- single_photon


def test_single_photon_basis_state():
    state = single_photon(0, basis_state(4, 0))
    assert state.amplitude((1, 0, 0, 0, 0, 0, 0, 0)) == pytest.approx(1.0)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_single_photon_superposition():
    psi = PureState.normalized([1.0, 1.0])
    state = single_photon(0, psi, ports=1)
    assert state.amplitude((1, 0)) == pytest.approx(RT2)
    assert state.amplitude((0, 1)) == pytest.approx(RT2)


def test_single_photon_bad_port():
    with pytest.raises(ValueError):
        single_photon(2, basis_state(2, 0), ports=2)


def test_add_photon_dimension_mismatch():
    state = FockState.vacuum(2, 4)
    with pytest.raises(ValueError):
        add_photon(state, 0, basis_state(2, 0))


# ---------------------------------------------------------- beam splitter


def test_beam_splitter_single_photon_amplitudes():
    state = beam_splitter(single_photon(0, basis_state(2, 0)), 0, 1)
    assert state.amplitude((1, 0, 0, 0)) == pytest.approx(RT2, abs=1e-15)
    assert state.amplitude((0, 0, 1, 0)) == pytest.approx(1j * RT2, abs=1e-15)


def test_hom_identical_photons_cancel_coincidences():
    # (a + ib)(ia + b)/2 = i(a^2 + b^2)/2: the ab terms cancel and the
    # bunched kets |2> pick up the sqrt(2!) ladder factor -> i/sqrt2 each.
    out = beam_splitter(_pair(0, 0, d=2), 0, 1)
    assert out.amplitude((1, 0, 1, 0)) == pytest.approx(0.0, abs=1e-15)
    assert out.amplitude((2, 0, 0, 0)) == pytest.approx(1j * RT2, abs=1e-15)
    assert out.amplitude((0, 0, 2, 0)) == pytest.approx(1j * RT2, abs=1e-15)


def test_orthogonal_photons_keep_half_coincidence():
    # (a0 + ib0)(ia1 + b1)/2: four cross terms, each weight 1/4.
    out = beam_splitter(_pair(0, 1, d=2), 0, 1)
    assert out.amplitude((1, 1, 0, 0)) == pytest.approx(0.5j, abs=1e-15)
    assert out.amplitude((0, 0, 1, 1)) == pytest.approx(0.5j, abs=1e-15)
    assert out.amplitude((1, 0, 0, 1)) == pytest.approx(0.5, abs=1e-15)
    assert out.amplitude((0, 1, 1, 0)) == pytest.approx(-0.5, abs=1e-15)
    coincidence = abs(out.amplitude((1, 0, 0, 1))) ** 2 + abs(out.amplitude((0, 1, 1, 0))) ** 2
    assert coincidence == pytest.approx(0.5, abs=1e-12)


def _bs_level_amplitude(p: int, q: int, ja: int, jb: int) -> complex:
    """<ja, jb| BS |p, q> on one internal level, from the monomials of
    (x + iy)^p (ix + y)^q / 2^((p+q)/2), x and y the output creation operators."""
    if ja + jb != p + q:
        return 0j
    poly = sum(math.comb(p, r) * math.comb(q, ja - r) * 1j ** (p - 2 * r + ja)
               for r in range(max(0, ja - q), min(p, ja) + 1))
    ladder = math.sqrt(math.factorial(ja) * math.factorial(jb) / (math.factorial(p) * math.factorial(q)))
    return 2 ** (-(p + q) / 2) * ladder * poly


def test_beam_splitter_amplitudes_match_the_closed_form():
    # every amplitude, the terms with photons in both output ports included:
    # one level with up to 6 photons, then two levels with up to 4
    for p in range(7):
        for q in range(7 - p):
            out = beam_splitter(FockState(2, 1, {(p, q): 1.0}), 0, 1)
            for ja in range(p + q + 1):
                expected = _bs_level_amplitude(p, q, ja, p + q - ja)
                assert out.amplitude((ja, p + q - ja)) == pytest.approx(expected, abs=1e-14), (p, q, ja)
            assert set(out.terms) <= {(ja, p + q - ja) for ja in range(p + q + 1)}
    for p0, p1, q0, q1 in itertools.product(range(5), repeat=4):
        n0, n1 = p0 + q0, p1 + q1
        if not (n0 and n1 and n0 + n1 <= 4):
            continue
        out = beam_splitter(FockState(2, 2, {(p0, p1, q0, q1): 1.0}), 0, 1)
        for ja0, ja1 in itertools.product(range(n0 + 1), range(n1 + 1)):
            expected = _bs_level_amplitude(p0, q0, ja0, n0 - ja0) * _bs_level_amplitude(p1, q1, ja1, n1 - ja1)
            occ = (ja0, ja1, n0 - ja0, n1 - ja1)
            assert out.amplitude(occ) == pytest.approx(expected, abs=1e-14), (p0, p1, q0, q1, occ)


def test_beam_splitter_rejects_bad_ports():
    state = _pair(0, 0)
    with pytest.raises(ValueError):
        beam_splitter(state, 0, 0)
    with pytest.raises(ValueError):
        beam_splitter(state, 0, 5)


def _random_state(rng, ports, dim, n) -> FockState:
    state = FockState.vacuum(ports, dim)
    for _ in range(n):
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = add_photon(state, int(rng.integers(ports)), PureState.normalized(amps))
    return state


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_beam_splitter_unitary_on_random_states(n):
    rng = np.random.default_rng(n)
    state = _random_state(rng, 2, 3, n)
    out = beam_splitter(state, 0, 1)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert out.n_photons == n


def _inner(a: FockState, b: FockState) -> complex:
    return sum(np.conj(amp) * b.amplitude(occ) for occ, amp in a.terms.items())


def test_beam_splitter_preserves_inner_products_of_fock_superpositions():
    # unitarity on superpositions of Fock kets, not only on the norms of
    # single kets: <U psi|U chi> = <psi|chi>, and every output term keeps
    # the input's photon number
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        dim = data.draw(st.integers(1, 4), label="dim")
        ports = data.draw(st.integers(2, 3), label="ports")
        n = data.draw(st.integers(1, 4), label="photons")
        port_a, port_b = data.draw(st.permutations(range(ports)), label="splitter")[:2]
        modes = ports * dim
        occupation = st.lists(st.integers(0, modes - 1), min_size=n, max_size=n).map(
            lambda photons: tuple(int(c) for c in np.bincount(photons, minlength=modes))
        )
        amplitude = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda z: complex(*z))

        def superposition(label):
            terms = data.draw(
                st.dictionaries(occupation, amplitude, min_size=1, max_size=6).filter(
                    lambda t: sum(abs(a) ** 2 for a in t.values()) > 1e-6
                ),
                label=label,
            )
            norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
            return FockState(ports, dim, {occ: a / norm for occ, a in terms.items()})

        psi, chi = superposition("psi"), superposition("chi")
        out_psi, out_chi = (beam_splitter(s, port_a, port_b) for s in (psi, chi))
        assert abs(_inner(out_psi, out_chi) - _inner(psi, chi)) < 1e-12
        assert out_psi.norm() == pytest.approx(1.0, abs=1e-12)
        assert all(sum(occ) == n for s in (out_psi, out_chi) for occ in s.terms)

    check()


def test_double_pass_is_i_swap():
    # BS^2 maps each creation operator to i x (the swapped port's one), so
    # an n-photon state returns port-swapped with global phase i^n.
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        state = _random_state(rng, 2, 2, n)
        twice = beam_splitter(beam_splitter(state, 0, 1), 0, 1)
        d = state.dim
        for occ, amp in state.terms.items():
            swapped = tuple(occ[d:]) + tuple(occ[:d])
            assert twice.amplitude(swapped) == pytest.approx((1j) ** n * amp, abs=1e-12)


# ---------------------------------------------------------- post-selection


def test_postselect_identical_pair():
    out = beam_splitter(_pair(0, 0), 0, 1)
    p0, cond = postselect_same_port(out, 0)
    p1, _ = postselect_same_port(out, 1)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    assert cond.norm() == pytest.approx(1.0, abs=1e-12)


def test_postselect_orthogonal_pair():
    out = beam_splitter(_pair(0, 1), 0, 1)
    for port in (0, 1):
        p, _ = postselect_same_port(out, port)
        assert p == pytest.approx(0.25, abs=1e-12)


def test_postselect_before_splitter_is_all_or_nothing():
    state = identical_photons(0, basis_state(4, 2), 2)
    p_here, _ = postselect_same_port(state, 0)
    p_there, cond = postselect_same_port(state, 1)
    assert p_here == pytest.approx(1.0, abs=1e-12)
    assert p_there == 0.0 and cond.is_empty


@pytest.mark.parametrize("same", [True, False])
def test_postselect_probability_vs_ancilla_overlap(same):
    # per output port: 1/2 for identical inputs, 1/4 for orthogonal ones
    level_a = 0 if same else 3
    out = beam_splitter(_pair(0, level_a), 0, 1)
    p, _ = postselect_same_port(out, 0)
    assert p == pytest.approx(0.5 if same else 0.25, abs=1e-12)


# ------------------------------------------------------ reduced density op


def test_reduced_state_of_bunched_pair():
    state = identical_photons(0, basis_state(4, 1), 2)
    rho = reduced_single_photon(state, 0)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(rho.mat, expected, atol=1e-12)


def test_reduced_state_of_two_distinct_levels():
    state = add_photon(single_photon(0, basis_state(4, 0)), 0, basis_state(4, 1))
    rho = reduced_single_photon(state, 0)
    assert np.allclose(rho.mat, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12)


def test_reduced_state_of_cloning_mixture_matches_clone_diagonal():
    # signal |0>, ancilla mixed over the basis, coalescence in port 0
    d = 4
    rho = np.zeros((d, d), dtype=complex)
    total = 0.0
    for level in range(d):
        out = beam_splitter(_pair(0, level, d=d), 0, 1)
        p0, cond = postselect_same_port(out, 0)
        p1, _ = postselect_same_port(out, 1)
        weight = (p0 + p1) / d
        rho += weight * reduced_single_photon(cond, 0).mat
        total += weight
    rho /= total
    assert np.allclose(rho, np.diag([0.7, 0.1, 0.1, 0.1]), atol=1e-12)


def test_reduced_state_requires_occupied_port():
    state = identical_photons(0, basis_state(2, 0), 2)
    with pytest.raises(ValueError):
        reduced_single_photon(state, 1)
    with pytest.raises(ValueError):
        reduced_single_photon(FockState(2, 2, {}), 0)


def test_both_split_photons_carry_the_same_reduced_state():
    # split a coalesced pair across two arms; each arm's photon has the
    # same reduced state by exchange symmetry
    rng = np.random.default_rng(8)
    psi = PureState.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    anc = PureState.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    state = FockState.vacuum(3, 4)
    state = add_photon(add_photon(state, 0, psi), 1, anc)
    state = beam_splitter(state, 0, 1)
    _, cond = postselect_same_port(state, 0)
    split = beam_splitter(cond, 0, 2)
    coincidence = {
        occ: amp
        for occ, amp in split.terms.items()
        if sum(occ[0:4]) == 1 and sum(occ[8:12]) == 1
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in coincidence.values()))
    pair = FockState(3, 4, {k: v / norm for k, v in coincidence.items()})
    rho_a = reduced_single_photon(pair, 0)
    rho_b = reduced_single_photon(pair, 2)
    assert np.allclose(rho_a.mat, rho_b.mat, atol=1e-12)


# ------------------------------------------------- distinguishability model


def test_model_validation():
    with pytest.raises(TypeError):
        DistinguishabilityModel(wavelength=795e-9)  # bandwidth missing
    for wavelength, bandwidth in ((795e-9, 0.0), (-795e-9, 4.5e-9), (795e-9, math.inf),
                                  (math.nan, 4.5e-9)):
        with pytest.raises(ValueError, match="positive and finite"):
            DistinguishabilityModel(wavelength=wavelength, bandwidth=bandwidth)


@pytest.mark.parametrize("wavelength, bandwidth", [
    (1e291, 4.5e-9),  # the square of the wavelength overflows
    (1e-170, 4.5e-9),  # ... or underflows to 0
    (795e-9, 1e291),  # a spectrum too wide: coherence time 0
])
def test_model_rejects_spectra_without_a_finite_coherence_time(wavelength, bandwidth):
    with pytest.raises(ValueError, match="coherence time"):
        DistinguishabilityModel(wavelength=wavelength, bandwidth=bandwidth)


def test_overlap_vanishes_at_huge_delays():
    model = DistinguishabilityModel.from_spectrum(795.0, 4.5)
    for tau in (1e150, -1e292, 1.7e308):  # (tau / tau_c)^2 is past the float range
        assert model.v_of_delay(tau) == 0.0


def test_coherence_time_for_bench_spectrum():
    model = DistinguishabilityModel.from_spectrum(795.0, 4.5)
    # FWHM 4.5 nm at 795 nm -> Gaussian coherence time ~0.25 ps
    assert model.coherence_time == pytest.approx(2.483e-13, rel=1e-3)


def test_v_of_delay_invariants():
    model = DistinguishabilityModel.from_spectrum(795.0, 4.5)
    taus = np.linspace(0.0, 2e-12, 40)
    vals = [model.v_of_delay(t) for t in taus]
    assert vals[0] == pytest.approx(1.0, abs=1e-15)
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))  # nonincreasing
    assert model.v_of_delay(-5e-13) == pytest.approx(model.v_of_delay(5e-13), abs=1e-15)


# --------------------------------------------------- coalescence enhancement


def test_enhancement_of_identical_photons():
    psi = basis_logical().states[3]
    r = coalescence_enhancement(psi, psi, 1.0)
    assert r == pytest.approx(2.0, abs=1e-12)


def test_enhancement_at_partial_overlap():
    psi = basis_four().states[0]
    r = coalescence_enhancement(psi, psi, 0.9165)
    assert r == pytest.approx(1.84, abs=0.005)


def test_enhancement_of_orthogonal_photons():
    b = basis_logical()
    r = coalescence_enhancement(b.states[0], b.states[1], 0.7)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_enhancement_matches_overlap_law():
    # R = 1 + v^2 |<a|s>|^2, checked against the engine on random states
    rng = np.random.default_rng(21)
    for _ in range(6):
        d = int(rng.choice([2, 3, 4]))
        s = PureState.normalized(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        a = PureState.normalized(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        v = float(rng.uniform(0, 1))
        r = coalescence_enhancement(s, a, v)
        expected = 1.0 + (v * abs(np.vdot(a.amps, s.amps))) ** 2
        assert r == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("v", [-0.1, 1.2, math.nan])
def test_enhancement_rejects_an_overlap_outside_the_unit_interval(v):
    psi = basis_four().states[0]
    with pytest.raises(ValueError, match=r"overlap v must lie in \[0, 1\]"):
        coalescence_enhancement(psi, psi, v)


def test_enhancement_depends_only_on_total_overlap():
    # a pair of single-particle entangled states interferes exactly like a
    # separable pair with the same total overlap
    c = np.cos(0.7)
    s = np.sin(0.7)
    ent = basis_four()
    sep = basis_logical()
    ent_partner = PureState(4, c * ent.states[0].amps + s * ent.states[1].amps)
    sep_partner = PureState(4, c * sep.states[0].amps + s * sep.states[1].amps)
    r_ent = coalescence_enhancement(ent.states[0], ent_partner, 0.83)
    r_sep = coalescence_enhancement(sep.states[0], sep_partner, 0.83)
    assert r_ent == pytest.approx(r_sep, abs=1e-12)


# -------------------------------------------------------------- HOM curve


def test_hom_curve_shape():
    model = DistinguishabilityModel.from_spectrum(795.0, 4.5)
    psi = basis_four().states[0]
    right = np.linspace(1.5e-13, 1.5e-12, 10)
    taus = np.concatenate([-right[::-1], [0.0], right])  # exact +-tau pairs
    curve = hom_curve(psi, psi, taus, model)
    rs = {tau: r for tau, r in curve}
    assert rs[0.0] == pytest.approx(2.0, abs=1e-12)
    assert rs[max(rs)] == pytest.approx(1.0, abs=1e-3)
    for tau, r in curve:
        assert r == pytest.approx(rs[-tau], abs=1e-12)  # even in tau
    assert max(rs.values()) == rs[0.0]


def _per_delay_reference(psi_s, psi_a, delays, model):
    """One full engine run per delay: the HOM curve before its v^2 decomposition."""
    return [(float(tau), coalescence_enhancement(psi_s, psi_a, model.v_of_delay(float(tau))))
            for tau in delays]


def _random_ket(rng, d):
    return PureState.normalized(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def _assert_curves_match(curve, reference):
    assert len(curve) == len(reference)
    for (tau, r), (tau_ref, r_ref) in zip(curve, reference):
        assert tau == tau_ref
        assert r == pytest.approx(r_ref, abs=1e-12)


_BENCH_MODEL = DistinguishabilityModel.from_spectrum(795.0, 4.5)
_BENCH_DELAYS = np.linspace(-1000.0, 1000.0, 81) * 1e-15


def test_hom_curve_matches_per_delay_engine_runs_on_random_states():
    rng = np.random.default_rng(5)
    for d in range(2, 6):
        s, a = _random_ket(rng, d), _random_ket(rng, d)
        for psi_s, psi_a in ((s, s), (s, a), (a, s)):
            _assert_curves_match(
                hom_curve(psi_s, psi_a, _BENCH_DELAYS, _BENCH_MODEL),
                _per_delay_reference(psi_s, psi_a, _BENCH_DELAYS, _BENCH_MODEL),
            )


def test_hom_curve_matches_per_delay_engine_runs_on_unequal_bench_pairs():
    states = [*basis_logical().states, *basis_four().states]
    delays = _BENCH_DELAYS[::8]
    for psi_s in states:
        for psi_a in states:
            _assert_curves_match(
                hom_curve(psi_s, psi_a, delays, _BENCH_MODEL),
                _per_delay_reference(psi_s, psi_a, delays, _BENCH_MODEL),
            )


def test_hom_curve_matches_per_delay_engine_runs_below_full_overlap():
    rng = np.random.default_rng(8)
    model = DistinguishabilityModel.from_spectrum(810.0, 3.0)
    # off the peak the delays take the overlap strictly between 0 and 1
    assert any(0.0 < model.v_of_delay(tau) < 1.0 for tau in _BENCH_DELAYS)
    s, a = _random_ket(rng, 4), _random_ket(rng, 4)
    _assert_curves_match(
        hom_curve(s, a, _BENCH_DELAYS, model),
        _per_delay_reference(s, a, _BENCH_DELAYS, model),
    )


def _counting(monkeypatch, name):
    calls = []
    real = getattr(bosonic, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bosonic, name, counted)
    return calls


@pytest.mark.parametrize("n_delays", [3, 81])
def test_hom_curve_runs_the_engine_twice(monkeypatch, n_delays):
    calls = _counting(monkeypatch, "coalescence_enhancement")
    psi = basis_four().states[2]
    curve = hom_curve(psi, psi, np.linspace(-5e-13, 5e-13, n_delays), _BENCH_MODEL)
    assert len(curve) == n_delays
    assert len(calls) == 2


def test_hom_curve_of_no_delays_is_empty():
    psi = basis_four().states[0]
    assert hom_curve(psi, psi, [], _BENCH_MODEL) == []
    assert hom_curve(psi, psi, np.array([]), _BENCH_MODEL) == []


def test_cli_hom_matches_per_delay_engine_runs(capsys):
    # the CLI's default delay grid and spectrum, each bench state against itself
    labels = [f"I:{k}" for k in range(1, 5)] + [f"IV:{k}" for k in range(1, 5)]
    states = [*basis_logical().states, *basis_four().states]
    for label, psi in zip(labels, states, strict=True):
        assert main(["hom", "--input", label]) == 0
        reference = _per_delay_reference(psi, psi, _BENCH_DELAYS, _BENCH_MODEL)
        expected = ["tau_fs,R"] + [f"{tau * 1e15:.6g},{r:.9g}" for tau, r in reference]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_two_photon_input_leaves_extra_ports_empty():
    s, a = basis_four().states[0], basis_logical().states[1]
    two = bosonic._two_photon_input(s, a, 0.6)
    three = bosonic._two_photon_input(s, a, 0.6, ports=3)
    assert three.ports == 3 and three.dim == two.dim == 8
    assert three.terms == {occ + (0,) * 8: amp for occ, amp in two.terms.items()}
