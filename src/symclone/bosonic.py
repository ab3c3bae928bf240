"""Few-photon second-quantized states and balanced beam-splitter evolution.

This is the brute-force engine behind the HOM curves, and the independent
route against which the test suite checks the closed-form cloning stages of
:mod:`symclone.cloning`: states are sparse maps from mode-occupation vectors
to complex amplitudes, a mode being one (spatial port, internal level)
pair. The 50/50 beam splitter acts identically on every internal level, so
two-photon interference (Hong-Ou-Mandel coalescence) emerges from the
operator algebra rather than from any closed-form shortcut.

Conventions
-----------
* Basis kets are normalized: occupation (n_1, ...) means
  prod_k (a_k^dag)^(n_k) / sqrt(n_k!) acting on vacuum.
* The beam splitter uses the symmetric phase convention

      a_A^dag -> (a_A^dag + i a_B^dag) / sqrt2
      a_B^dag -> (i a_A^dag + a_B^dag) / sqrt2

  Any convention with |r| = |t| = 1/sqrt2 yields the same post-selection
  probabilities; this one is fixed so amplitudes are reproducible.
* One routine creates a photon in a superposition of modes, sum_j c_j
  a_j^dag, on a sparse map. ``add_photon`` calls it with its internal
  state; the beam splitter takes the photons of its two ports out of each
  term and calls it once per photon, with the image of that photon's mode.
* Partial distinguishability is a scalar wavepacket overlap v: the second
  photon is split into a v-weighted copy of the first photon's temporal
  mode and a sqrt(1 - v^2)-weighted orthogonal temporal mode. This
  reproduces the standard HOM visibility law with a single parameter.
* After the beam splitter that input is v|Phi_1> + sqrt(1 - v^2)|Phi_0>,
  where |Phi_1> (both photons in the shared temporal mode) and |Phi_0>
  (one photon in each) occupy disjoint modes, and the same-port projection
  is diagonal in the occupation basis. So every coalescence probability is
  exactly P(v) = v^2 P(1) + (1 - v^2) P(0), and a HOM curve over any number
  of delays costs two engine runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import STRUCT_TOL, DensityMatrix, PureState, _integer

__all__ = [
    "FockState",
    "DistinguishabilityModel",
    "single_photon",
    "identical_photons",
    "add_photon",
    "beam_splitter",
    "postselect_same_port",
    "reduced_single_photon",
    "coalescence_enhancement",
    "hom_curve",
]

# Amplitudes below this are dropped after each evolution step. Beam-splitter
# expansions generate exact zeros (HOM cancellations) that would otherwise
# clutter the sparse map.
_PRUNE_TOL = 1e-14

_SPEED_OF_LIGHT = 299_792_458.0  # m/s


class FockState:
    """Sparse n-photon state over ``ports`` x ``dim`` modes.

    ``terms`` maps occupation tuples (length ports*dim, mode order
    port-major) to complex amplitudes. All terms must share one total
    photon number, and the state must be normalized; the empty map is the
    zero-state marker returned by a failed post-selection.
    """

    __slots__ = ("ports", "dim", "terms")

    def __init__(self, ports: int, dim: int, terms: dict[tuple[int, ...], complex]):
        ports, dim = _integer(ports, "ports"), _integer(dim, "dim")
        if ports < 1 or dim < 1:
            raise ValueError("need at least one port and one level")
        n_modes = ports * dim
        photon_counts = set()
        for occ, amp in terms.items():
            if len(occ) != n_modes:
                raise ValueError(f"occupation length {len(occ)} != {n_modes}")
            if any(n < 0 for n in occ):
                raise ValueError("negative occupation")
            photon_counts.add(sum(occ))
        if len(photon_counts) > 1:
            raise ValueError(f"mixed photon numbers in one state: {sorted(photon_counts)}")
        if terms:
            norm_sq = sum(abs(a) ** 2 for a in terms.values())
            if abs(norm_sq - 1.0) > STRUCT_TOL:
                raise ValueError(f"state is not normalized: |amp|^2 sums to {norm_sq!r}")
        self.ports = ports
        self.dim = dim
        self.terms = dict(terms)

    @classmethod
    def vacuum(cls, ports: int, dim: int) -> "FockState":
        ports, dim = _integer(ports, "ports"), _integer(dim, "dim")
        return cls(ports, dim, {(0,) * (ports * dim): 1.0 + 0j})

    @property
    def is_empty(self) -> bool:
        return not self.terms

    @property
    def n_photons(self) -> int:
        if self.is_empty:
            return 0
        return sum(next(iter(self.terms)))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.terms.values()))

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        return self.terms.get(tuple(occ), 0j)


def _pruned(raw: dict[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    return {occ: amp for occ, amp in raw.items() if abs(amp) > _PRUNE_TOL}


def _check_port(state: FockState, port: int) -> None:
    if not 0 <= _integer(port, "port") < state.ports:
        raise ValueError(f"port {port} out of range for {state.ports} ports")


def _create(
    terms: dict[tuple[int, ...], complex], modes: list[tuple[int, complex]]
) -> dict[tuple[int, ...], complex]:
    """Apply sum_j c_j a_j^dag, for the (mode j, c_j) pairs of ``modes``, to
    the sparse map ``terms``; the result is not renormalized."""
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in terms.items():
        for mode, c in modes:
            new_occ = list(occ)
            new_occ[mode] += 1
            key = tuple(new_occ)
            out[key] = out.get(key, 0j) + amp * c * math.sqrt(new_occ[mode])
    return out


def single_photon(port: int, psi: PureState, ports: int = 2) -> FockState:
    """One photon in spatial ``port`` carrying the internal state ``psi``."""
    return add_photon(FockState.vacuum(ports, psi.dim), port, psi)


def identical_photons(port: int, psi: PureState, n: int, ports: int = 2) -> FockState:
    """n photons in one port, all in internal state ``psi``: (a_psi^dag)^n / sqrt(n!) |0>."""
    if _integer(n, "n") < 1:
        raise ValueError("need at least one photon")
    state = FockState.vacuum(ports, psi.dim)
    for _ in range(n):
        state = add_photon(state, port, psi)
    return state


def add_photon(state: FockState, port: int, psi: PureState) -> FockState:
    """Apply the creation operator a_psi^dag on ``port`` and renormalize.

    The renormalization divides by sqrt(m + 1) with m the photon number
    already in ``port``-modes overlapping psi; for an empty port this is a
    plain tensor product.
    """
    _check_port(state, port)
    if psi.dim != state.dim:
        raise ValueError(f"internal dimension mismatch: {psi.dim} vs {state.dim}")
    base = port * state.dim
    modes = [(base + k, c) for k, c in enumerate(psi.amps) if abs(c) > _PRUNE_TOL]
    raw = _pruned(_create(state.terms, modes))
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    if norm == 0.0:
        raise ValueError("creation operator annihilated the state")
    return FockState(state.ports, state.dim, {k: v / norm for k, v in raw.items()})


def beam_splitter(state: FockState, port_a: int, port_b: int) -> FockState:
    """Evolve through a 50/50 beam splitter joining ``port_a`` and ``port_b``.

    Each term prod_j (a_j^dag)^(n_j) / sqrt(n_j!) |0> loses the photons of
    the two joined ports, and its amplitude is divided by sqrt(prod n_j!)
    over their modes; each of those photons is then created again, in the
    splitter's image of its mode. Acts identically on every internal level;
    unitary, so the norm and total photon number are preserved.
    """
    _check_port(state, port_a)
    _check_port(state, port_b)
    if port_a == port_b:
        raise ValueError("beam splitter needs two distinct ports")
    d = state.dim
    r = 1 / math.sqrt(2)
    images: dict[int, list[tuple[int, complex]]] = {}
    for k in range(d):
        a, b = port_a * d + k, port_b * d + k
        images[a] = [(a, r), (b, 1j * r)]
        images[b] = [(a, 1j * r), (b, r)]
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        rest = list(occ)
        weight = 1
        for mode in images:
            rest[mode] = 0
            weight *= math.factorial(occ[mode])
        image = {tuple(rest): amp / math.sqrt(weight)}
        for mode, image_modes in images.items():
            for _ in range(occ[mode]):
                image = _create(image, image_modes)
        for key, a in image.items():
            out[key] = out.get(key, 0j) + a
    return FockState(state.ports, state.dim, _pruned(out))


def postselect_same_port(state: FockState, port: int) -> tuple[float, FockState]:
    """Keep only the component with every photon in ``port``.

    Returns ``(prob, conditional)``. ``prob`` is the squared norm of that
    component; when it vanishes the conditional is the empty-state marker.
    """
    _check_port(state, port)
    d = state.dim
    lo, hi = port * d, (port + 1) * d
    kept = {
        occ: amp
        for occ, amp in state.terms.items()
        if sum(occ) == sum(occ[lo:hi])
    }
    prob = sum(abs(a) ** 2 for a in kept.values())
    if prob <= 0.0:
        return 0.0, FockState(state.ports, state.dim, {})
    root = math.sqrt(prob)
    conditional = FockState(
        state.ports, state.dim, {occ: amp / root for occ, amp in kept.items()}
    )
    return float(prob), conditional


def reduced_single_photon(state: FockState, port: int) -> DensityMatrix:
    """Single-photon density matrix of the photons found in ``port``.

    rho_kl = <a_l^dag a_k> / n, with n the photon number in ``port``; for a
    state with all photons coalesced in one port this is the per-clone
    reduced state. Raises if the port is unoccupied.
    """
    if state.is_empty:
        raise ValueError("cannot reduce the empty state")
    _check_port(state, port)
    d = state.dim
    base = port * d
    # row k of ``lowered`` holds a_k |state>, one column per occupation reached
    columns: dict[tuple[int, ...], int] = {}
    rows, cols, values = [], [], []
    for occ, amp in state.terms.items():
        for k in range(d):
            n_k = occ[base + k]
            if n_k:
                key = occ[: base + k] + (n_k - 1,) + occ[base + k + 1 :]
                rows.append(k)
                cols.append(columns.setdefault(key, len(columns)))
                values.append(amp * math.sqrt(n_k))
    lowered = np.zeros((d, len(columns)), dtype=complex)
    lowered[rows, cols] = values
    rho = lowered @ lowered.conj().T
    trace = float(np.real(np.trace(rho)))
    if trace < 1e-12:
        raise ValueError(f"no photons in port {port}")
    rho = rho / trace
    rho = (rho + rho.conj().T) / 2  # scrub float asymmetry
    return DensityMatrix(dim=d, mat=rho)


@dataclass(frozen=True)
class DistinguishabilityModel:
    """Scalar wavepacket-overlap model of photon distinguishability versus
    relative path delay.

    ``wavelength`` and ``bandwidth`` are in meters; bandwidth is the FWHM of
    a Gaussian intensity spectrum. The photons are fully indistinguishable
    at zero delay, and ``v_of_delay`` gives their overlap as a function of
    the relative delay in seconds:

        v(tau) = exp(-(tau / tau_c)^2),   tau_c = sqrt(2) / sigma_omega,

    with sigma_omega the std of the angular-frequency intensity spectrum.
    """

    wavelength: float
    bandwidth: float

    def __post_init__(self):
        if not (0 < self.wavelength < math.inf and 0 < self.bandwidth < math.inf):
            raise ValueError("wavelength and bandwidth must be positive and finite")
        if not 0.0 < self.coherence_time < math.inf:
            raise ValueError("wavelength and bandwidth give no finite, nonzero coherence time")

    @classmethod
    def from_spectrum(cls, wavelength_nm: float, bandwidth_nm: float) -> "DistinguishabilityModel":
        """Convenience constructor taking nanometers."""
        return cls(wavelength=wavelength_nm * 1e-9, bandwidth=bandwidth_nm * 1e-9)

    @cached_property
    def coherence_time(self) -> float:
        """tau_c in seconds. Computed once per model: ``v_of_delay`` reads it
        for every delay of a curve."""
        # a float product overflows to inf where ``**`` raises; a square that
        # underflows to 0 means an unbounded spectral width
        square = self.wavelength * self.wavelength
        fwhm_nu = _SPEED_OF_LIGHT * self.bandwidth / square if square > 0 else math.inf
        sigma_omega = 2 * math.pi * fwhm_nu / (2 * math.sqrt(2 * math.log(2)))
        return math.sqrt(2) / sigma_omega if sigma_omega > 0 else math.inf

    def v_of_delay(self, tau: float) -> float:
        """Gaussian overlap-vs-delay law; v(0) = 1, even, nonincreasing in |tau|."""
        r = tau / self.coherence_time
        return math.exp(-(r * r))  # an overflowing r * r gives overlap 0


def _two_photon_input(
    psi_s: PureState, psi_a: PureState, v: float, ports: int = 2
) -> FockState:
    """Signal photon on port 0, ancilla on port 1, with temporal overlap v.

    The internal space is doubled: levels [0, d) are the signal's temporal
    mode, levels [d, 2d) an orthogonal one carrying the ancilla's
    distinguishable fraction. Ports beyond 1 start empty.
    """
    d = psi_s.dim
    w = math.sqrt(max(0.0, 1.0 - v * v))
    signal = PureState(2 * d, np.concatenate([psi_s.amps, np.zeros(d)]))
    ancilla = PureState(2 * d, np.concatenate([v * psi_a.amps, w * psi_a.amps]))
    state = FockState.vacuum(ports, 2 * d)
    state = add_photon(state, 0, signal)
    return add_photon(state, 1, ancilla)


def coalescence_enhancement(psi_s: PureState, psi_a: PureState, v: float) -> float:
    """Same-port coincidence-rate enhancement R relative to distinguishable
    photons, for the wavepacket overlap v of the two photons.

    Computed by evolving the two-photon state through the beam splitter and
    post-selecting coalescence; for fully distinguishable photons that
    probability is exactly 1/2, so R = P_same / (1/2). Equals
    1 + v^2 |<psi_a|psi_s>|^2 and therefore lies in [1, 2].
    """
    if psi_s.dim != psi_a.dim:
        raise ValueError(f"dimension mismatch: {psi_s.dim} vs {psi_a.dim}")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"overlap v must lie in [0, 1], got {v}")
    state = beam_splitter(_two_photon_input(psi_s, psi_a, v), 0, 1)
    p0, _ = postselect_same_port(state, 0)
    p1, _ = postselect_same_port(state, 1)
    return (p0 + p1) / 0.5


def hom_curve(
    psi_s: PureState,
    psi_a: PureState,
    delays,
    model: DistinguishabilityModel,
) -> list[tuple[float, float]]:
    """Sample the coalescence enhancement versus relative path delay.

    ``delays`` are in seconds. Returns (tau, R) pairs with R(0) maximal and
    R -> 1 far off the peak.

    The delay only sets the overlap v(tau), and R is exactly
    v^2 R(1) + (1 - v^2) R(0) (see the module docstring), so the engine
    runs twice, at v = 1 and v = 0, whatever the number of delays.
    """
    taus = [float(tau) for tau in delays]
    v2 = [model.v_of_delay(tau) ** 2 for tau in taus]
    r_one = coalescence_enhancement(psi_s, psi_a, 1.0)
    r_zero = coalescence_enhancement(psi_s, psi_a, 0.0)
    return [(tau, w * r_one + (1.0 - w) * r_zero) for tau, w in zip(taus, v2)]
