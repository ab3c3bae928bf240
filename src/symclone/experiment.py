"""Monte Carlo replica of the cloning bench: randomized ancilla, imperfect
preparation and analysis, coincidence counting, and the count-ratio
estimator for p(i|phi).

A single trial walks the optical path: prepare the signal (with preparation
infidelity), draw one ancilla basis state, interfere both photons on the
first balanced splitter with wavepacket overlap v, keep events where the
pair coalesces into the monitored output port, split the pair on a second
balanced splitter, keep one-photon-per-arm events, filter arm 1 on |phi>
and resolve arm 2 in the measurement basis (both with analysis
infidelity). Trials repeat until the requested number of post-selected
coincidences has been collected.

Randomness
----------
Counter-based and reproducible. Trials are processed in fixed-size batches
(``BATCH_TRIALS``); batch ``b`` of the run for input index ``i`` draws all
its variates from

    Generator(Philox(SeedSequence(entropy=config.seed, spawn_key=(i, b))))

so results are identical no matter how batches are distributed across
workers, and two runs with the same config are count-for-count identical.

Within a batch of B trials the draws follow stream layout 2
(``STREAM_LAYOUT``), which draws only the variates a trial uses, in this
order:

1. one accept uniform ``u`` per trial (B values);
2. one ancilla uniform per trial (B values);
3. the preparation perturbation of the signal;
4. for the trials kept by the coalescence thinning below, the filter-arm
   perturbation, then the scanner-arm perturbation (d states per trial);
   ``swap_detectors`` reverses these two blocks.

A perturbation with fidelity f = 1 draws nothing; otherwise it draws one
pass uniform per state, then 2d standard normals for each state that fails
the pass test, in order. A trial is post-selected with outcome j when

    u < p_coal * 1/2 * p_filter * (q_0 + ... + q_j) / (q_0 + ... + q_{d-1})

for the smallest such j (p_coal, p_filter and the scanner weights q_j as in
``_event_terms``). This has the joint law of separate coalescence, split,
filter-click and outcome draws. Since the right-hand side never
exceeds p_coal/2, which depends only on the signal and the ancilla, trials
with u >= p_coal/2 are dropped before any analyzer state is built.

In a trial where no state was replaced, p_coal/2 and the d thresholds
depend only on the ancilla index, so each run computes them once per input
(``_clean_row_table``) and such trials read them from that table; only
trials with a replaced state evaluate the event terms row by row. The
table changes which code computes the thresholds, not their values or the
draw order: the same variates are drawn and fixed-seed counts are
unchanged.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bosonic
from .hilbert import LabeledBasis, PureState, basis_four, basis_logical

__all__ = [
    "BATCH_TRIALS",
    "STREAM_LAYOUT",
    "ExperimentConfig",
    "CountsTable",
    "EstimationResult",
    "FidelityTable",
    "randomize_ancilla",
    "apply_infidelity",
    "coincidence_probabilities",
    "run_cloning_experiment",
    "estimate_probabilities",
    "replicate_table",
    "write_counts_csv",
]

# Trials per RNG stream. Fixed: changing it changes which variates feed
# which trial and therefore the realization (not the statistics).
BATCH_TRIALS = 4096

# Order and use of the variates within a batch (see the module docstring).
# Recorded in every config dict: a fixed seed reproduces counts only under
# the layout that drew them.
STREAM_LAYOUT = 2

# Give up if this many consecutive batches yield no coincidence at all.
_MAX_DRY_BATCHES = 2000

_CONFIG_KEYS = frozenset(
    {"shots", "v", "ancillaWeights", "prepFidelity", "analysisFidelity", "seed", "streamLayout"}
)


def _integral(data: dict, key: str, default: int | None = None) -> int:
    """``data[key]`` as an int; a bool or a number with a fraction is an
    error, and so is a missing key without a default."""
    if key not in data:
        if default is None:
            raise ValueError(f"missing config key {key!r}")
        return default
    value = data[key]
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"bad config value: {key!r} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """A config number as a float; a bool or a non-number is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"bad config value: {key!r} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the simulated bench.

    shots counts post-selected coincidences, not source pairs; v is the
    two-photon wavepacket overlap at the first splitter; ancilla_weights
    (None = uniform) describe imperfect randomization of the ancilla over
    the measurement basis; prep/analysis fidelities model state-level
    preparation and analyzer errors.
    """

    shots: int
    v: float = 1.0
    ancilla_weights: tuple[float, ...] | None = None
    prep_fidelity: float = 1.0
    analysis_fidelity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        if not 0.0 <= self.v <= 1.0:
            raise ValueError(f"v must lie in [0, 1], got {self.v}")
        for name in ("prep_fidelity", "analysis_fidelity"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.ancilla_weights is not None:
            w = tuple(float(x) for x in self.ancilla_weights)
            if not all(math.isfinite(x) for x in w):
                raise ValueError("ancilla weights must be finite")
            if any(x < 0 for x in w):
                raise ValueError("ancilla weights must be nonnegative")
            if abs(sum(w) - 1.0) > 1e-12:
                raise ValueError(f"ancilla weights must sum to 1, got {sum(w)!r}")
            object.__setattr__(self, "ancilla_weights", w)

    def weights_for(self, d: int) -> np.ndarray:
        if self.ancilla_weights is None:
            return np.full(d, 1.0 / d)
        if len(self.ancilla_weights) != d:
            raise ValueError(
                f"{len(self.ancilla_weights)} ancilla weights for dimension {d}"
            )
        return np.asarray(self.ancilla_weights)

    def to_dict(self) -> dict:
        return {
            "shots": self.shots,
            "v": self.v,
            "ancillaWeights": list(self.ancilla_weights) if self.ancilla_weights else None,
            "prepFidelity": self.prep_fidelity,
            "analysisFidelity": self.analysis_fidelity,
            "seed": self.seed,
            "streamLayout": STREAM_LAYOUT,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ValueError("unknown config key " + ", ".join(map(repr, unknown)))
        layout = data.get("streamLayout", STREAM_LAYOUT)
        if layout != STREAM_LAYOUT:
            raise ValueError(
                f"streamLayout {layout!r} is not supported; this version draws layout {STREAM_LAYOUT}"
            )
        weights = data.get("ancillaWeights")
        try:
            return cls(
                shots=_integral(data, "shots"),
                v=_real(data.get("v", 1.0), "v"),
                ancilla_weights=(
                    tuple(_real(w, f"ancillaWeights[{i}]") for i, w in enumerate(weights))
                    if weights
                    else None
                ),
                prep_fidelity=_real(data.get("prepFidelity", 1.0), "prepFidelity"),
                analysis_fidelity=_real(data.get("analysisFidelity", 1.0), "analysisFidelity"),
                seed=_integral(data, "seed", 0),
            )
        except (TypeError, OverflowError) as exc:  # e.g. null or a scalar for a list
            raise ValueError(f"bad config value: {exc}") from None


@dataclass(frozen=True)
class CountsTable:
    """Coincidence counts N_{phi,i} for one input state."""

    input_label: str
    basis_label: str
    phi_index: int
    counts: dict[int, int]
    config: ExperimentConfig

    def __post_init__(self):
        if any(n < 0 for n in self.counts.values()):
            raise ValueError("counts must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.counts)

    def to_dict(self) -> dict:
        return {
            "input": self.input_label,
            "basis": self.basis_label,
            "phiIndex": self.phi_index,
            "counts": {str(i): int(self.counts[i]) for i in sorted(self.counts)},
            "config": self.config.to_dict(),
        }


@dataclass(frozen=True)
class EstimationResult:
    """Estimated outcome probabilities and the fidelity F = p(phi|phi)."""

    probs: np.ndarray
    fidelity: float
    stderr: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def to_dict(self) -> dict:
        return {
            "probs": [float(p) for p in self.probs],
            "fidelity": float(self.fidelity),
            "stderr": float(self.stderr),
        }


def randomize_ancilla(rng: np.random.Generator, config: ExperimentConfig, basis: LabeledBasis) -> PureState:
    """Draw one ancilla state from the basis according to the config weights.

    With uniform weights the drawn ensemble averages to the fully mixed
    state I_d/d, as required for a universal cloner.
    """
    weights = config.weights_for(basis.dim)
    idx = int(rng.choice(basis.dim, p=weights))
    return basis.states[idx]


def _perturb_batch(
    targets: np.ndarray, f: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`apply_infidelity` on every row of ``targets`` (shape (..., d)).

    Returns the perturbed rows and the boolean mask of the replaced ones
    (shape (...)). Draws nothing when f = 1 (the rows come back as given,
    none replaced). Otherwise it draws one pass uniform per row, then 2d
    standard normals for each row that fails the pass test, in C order of
    the rows; a failing row is replaced by a Haar-random unit vector in the
    orthogonal complement of its target.
    """
    lead, d = targets.shape[:-1], targets.shape[-1]
    if f >= 1.0:
        return targets, np.zeros(lead, dtype=bool)
    bad = rng.random(lead) >= f
    out = np.array(targets, dtype=complex)
    psi = out[bad]
    if len(psi):
        z = rng.standard_normal((len(psi), 2 * d))
        chi = z[:, :d] + 1j * z[:, d:]
        chi -= (np.conj(psi) * chi).sum(axis=1, keepdims=True) * psi
        norms = np.linalg.norm(chi, axis=1)
        low = norms < 1e-12
        if np.any(low):
            # measure-zero degenerate draws: orthogonalize the basis vector
            # least parallel to the target instead
            psi_low = psi[low]
            fb = np.zeros_like(psi_low)
            fb[np.arange(len(fb)), np.argmin(np.abs(psi_low), axis=1)] = 1.0
            fb -= (np.conj(psi_low) * fb).sum(axis=1, keepdims=True) * psi_low
            chi[low] = fb
            norms = np.linalg.norm(chi, axis=1)
        out[bad] = chi / norms[:, None]
    return out, bad


def apply_infidelity(psi: PureState, f: float, rng: np.random.Generator) -> PureState:
    """Depolarizing-style state error with mean overlap f.

    With probability f the state passes unchanged; otherwise it is replaced
    by a Haar-random state in the orthogonal complement, so the expected
    overlap |<psi|out>|^2 over the channel equals f.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    out, bad = _perturb_batch(psi.amps[None, :], f, rng)
    if not bad[0]:
        return psi
    return PureState(psi.dim, out[0])


def _batch_rng(seed: int, input_index: int, batch: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(input_index, batch))
    return np.random.Generator(np.random.Philox(ss))


def _event_terms(S, N_arr, v, F_states, G_states):
    """Closed-form event quantities for one trial (broadcasts over leading axes).

    With u = S (x) e0 and a = N (x) (v e0 + w e1) the coalesced pair,
    split across the two detection arms, is (|u,a> + |a,u>) / sqrt(2(1+x)),
    x = v^2 |<S|N>|^2. Writing A = <filter|S>, B = <filter|N>,
    F_j = <outcome_j|S>, G_j = <outcome_j|N> and tracing the temporal
    modes at the detectors gives

        p_coal   = (1 + x) / 4                      (into the monitored port)
        p_filter = (|A|^2 + |B|^2 + 2 v^2 Re(conj(A) B conj(c))) / (2 (1+x))
        q_j      = |A G_j|^2 + |B F_j|^2 + 2 v^2 Re(conj(A) B conj(G_j) F_j)

    q_j are relative scanner-click weights (normalized by the caller).
    :func:`coincidence_probabilities` recomputes all of this through the
    second-quantized engine; the two routes must agree.
    """
    c = (np.conj(S) * N_arr).sum(axis=-1)
    x = (v * v) * np.abs(c) ** 2
    p_coal = (1.0 + x) / 4.0
    A = (np.conj(F_states) * S).sum(axis=-1)
    B = (np.conj(F_states) * N_arr).sum(axis=-1)
    p_filter = (
        np.abs(A) ** 2 + np.abs(B) ** 2 + 2.0 * v * v * np.real(np.conj(A) * B * np.conj(c))
    ) / (2.0 * (1.0 + x))
    F_j = (np.conj(G_states) * S[..., None, :]).sum(axis=-1)
    G_j = (np.conj(G_states) * N_arr[..., None, :]).sum(axis=-1)
    q = (
        np.abs(A[..., None] * G_j) ** 2
        + np.abs(B[..., None] * F_j) ** 2
        + 2.0 * v * v * np.real(np.conj(A)[..., None] * B[..., None] * np.conj(G_j) * F_j)
    )
    return p_coal, p_filter, np.maximum(q, 0.0)


def coincidence_probabilities(
    signal: PureState,
    ancilla: PureState,
    v: float,
    filter_state: PureState,
    outcome_states,
) -> tuple[float, float, float, np.ndarray]:
    """Engine-backed single-trial reference for the coincidence pipeline.

    Builds the full second-quantized computation (temporal-mode doubling,
    first splitter, coalescence into the monitored port, second splitter,
    one-photon-per-arm coincidence, analyzer projections) and returns

        (p_coal, p_split, p_filter, q)

    where q holds the relative scanner-click weights per outcome. Slow but
    independent of the vectorized closed forms used in the Monte Carlo
    loop; exists so the two can be cross-checked.
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


def _half_coal(S: np.ndarray, N: np.ndarray, v: float) -> np.ndarray:
    """p_coal/2 = (1 + v^2 |<S|N>|^2)/8 per row: the coalesced-and-split
    probability, which bounds every acceptance threshold of the row."""
    return (1.0 + (v * v) * np.abs(np.einsum("bi,bi->b", np.conj(S), N)) ** 2) / 8.0


def _acceptance_thresholds(half_coal: np.ndarray, p_filter: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, the d cumulative thresholds p_coal/2 * p_filter * cum(q)_j/sum(q)."""
    cum_q = np.cumsum(q, axis=1)
    totals = cum_q[:, -1:]
    # unresolvable rows (sum q = 0) get all-zero thresholds and never pass
    return (half_coal * p_filter)[:, None] * cum_q / np.where(totals > 0.0, totals, 1.0)


def _clean_row_table(
    phi: np.ndarray, basis_cols: np.ndarray, v: float
) -> tuple[np.ndarray, np.ndarray]:
    """Thinning bounds and acceptance thresholds of unperturbed trials.

    In a trial where no state was replaced the signal and the filter are
    |phi>, the scanner is the basis and the ancilla is basis state k, so
    its numbers depend on k alone. Returns p_coal/2 (shape (d,)) and the
    thresholds (shape (d, d)), row k for ancilla k, evaluated by the same
    arithmetic, on arrays of the same layout, as the replaced rows in
    :func:`_simulate_batch`.
    """
    d = len(phi)
    S = np.broadcast_to(phi, (d, d))
    N = basis_cols.T[np.arange(d)]
    G = np.broadcast_to(basis_cols.T, (d, d, d))[np.arange(d)]
    half_coal = _half_coal(S, N, v)
    _, p_filter, q = _event_terms(np.array(S), N, v, S, G)
    return half_coal, _acceptance_thresholds(half_coal, p_filter, q)


def _simulate_batch(
    phi: np.ndarray,
    basis_cols: np.ndarray,
    weights: np.ndarray,
    v: float,
    prep_f: float,
    analysis_f: float,
    rng: np.random.Generator,
    swap_detectors: bool,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Run BATCH_TRIALS single-shot trials; return the outcomes of the
    post-selected ones, in trial order.

    Stream layout 2: draw the accept uniforms u (B) and the ancilla uniforms
    (B), then perturb the prepared signals. The coalesced-and-split
    probability p_coal/2 = (1 + v^2 |<S|N>|^2)/8 bounds every acceptance
    threshold, so only rows with u < p_coal/2 go on. For those rows draw the
    filter-arm perturbations, then the scanner-arm ones (reversed when
    ``swap_detectors``), and accept outcome j for the smallest j with
    u < p_coal/2 * p_filter * cum(q)_j/sum(q).

    ``table`` is :func:`_clean_row_table` for these arguments (built here
    when None). Rows whose signal was not replaced read p_coal/2 from it,
    and rows where no state was replaced read their thresholds from it;
    only the other rows evaluate :func:`_event_terms`. The table holds the
    numbers those rows would compute, so the draws and the outcomes are
    the same either way.
    """
    B = BATCH_TRIALS
    d = len(phi)
    if table is None:
        table = _clean_row_table(phi, basis_cols, v)
    clean_half_coal, clean_thresholds = table

    u = rng.random(B)
    anc_idx = np.minimum(np.searchsorted(np.cumsum(weights), rng.random(B), side="right"), d - 1)
    S, s_bad = _perturb_batch(np.broadcast_to(phi, (B, d)), prep_f, rng)

    # thinning: p_coal/2 bounds every acceptance threshold of the row
    half_coal = clean_half_coal[anc_idx]
    if s_bad.any():
        half_coal[s_bad] = _half_coal(S[s_bad], basis_cols.T[anc_idx[s_bad]], v)
    rows = np.flatnonzero(u < half_coal)
    u, anc_idx, s_bad, half_coal = u[rows], anc_idx[rows], s_bad[rows], half_coal[rows]
    K = len(rows)

    filters = np.broadcast_to(phi, (K, d))  # arm-1 filter on |phi>
    settings = np.broadcast_to(basis_cols.T, (K, d, d))  # arm-2 scanner
    if swap_detectors:
        G_states, g_bad = _perturb_batch(settings, analysis_f, rng)
        F_states, f_bad = _perturb_batch(filters, analysis_f, rng)
    else:
        F_states, f_bad = _perturb_batch(filters, analysis_f, rng)
        G_states, g_bad = _perturb_batch(settings, analysis_f, rng)

    thresholds = clean_thresholds[anc_idx]
    dirty = np.flatnonzero(s_bad | f_bad | g_bad.any(axis=1))
    if len(dirty):
        _, p_filter, q = _event_terms(
            S[rows[dirty]],
            basis_cols.T[anc_idx[dirty]],
            v,
            F_states[dirty],
            G_states[dirty],
        )
        thresholds[dirty] = _acceptance_thresholds(half_coal[dirty], p_filter, q)
    outcomes = (u[:, None] >= thresholds).sum(axis=1)
    return outcomes[outcomes < d]


def run_cloning_experiment(
    phi: PureState,
    basis: LabeledBasis,
    config: ExperimentConfig,
    *,
    swap_detectors: bool = False,
) -> CountsTable:
    """Collect coincidence counts for one input state of ``basis``.

    ``phi`` must be an element of ``basis``; trials accumulate until
    ``config.shots`` post-selected coincidences are recorded. Fully
    deterministic given the config (see the module docstring for the
    stream layout). ``swap_detectors`` exchanges which arm filters on
    |phi> and which arm scans the basis; the estimator's expectation is
    unchanged by the exchange symmetry of the photon pair.
    """
    phi_index = basis.index_of(phi)
    weights = config.weights_for(basis.dim)
    basis_cols = basis.matrix
    table = _clean_row_table(phi.amps, basis_cols, config.v)
    counts = np.zeros(basis.dim, dtype=np.int64)
    collected = 0
    batch = 0
    dry = 0
    while collected < config.shots:
        rng = _batch_rng(config.seed, phi_index, batch)
        hits = _simulate_batch(
            phi.amps,
            basis_cols,
            weights,
            config.v,
            config.prep_fidelity,
            config.analysis_fidelity,
            rng,
            swap_detectors,
            table,
        )
        if hits.size == 0:
            dry += 1
            if dry >= _MAX_DRY_BATCHES:
                raise RuntimeError(
                    "post-selection yield is (near) zero for this configuration"
                )
        else:
            dry = 0
            room = config.shots - collected
            if hits.size > room:
                hits = hits[:room]
            counts += np.bincount(hits, minlength=basis.dim)
            collected += hits.size
        batch += 1
    return CountsTable(
        input_label=basis.labels[phi_index],
        basis_label=" / ".join(basis.labels),
        phi_index=phi_index,
        counts={i: int(counts[i]) for i in range(basis.dim)},
        config=config,
    )


def estimate_probabilities(table: CountsTable, phi_index: int) -> EstimationResult:
    """Count-ratio estimator for p(i|phi).

    With S = sum of the off-input counts and the normalization
    N = N_{phi,phi} + 2 S (the factor 2 accounts for the coincidences the
    swapped detector assignment would have recorded for i != phi):

        p(i|phi)   = N_{phi,i} / N          (i != phi)
        p(phi|phi) = (N_{phi,phi} + S) / N  = fidelity

    The standard error propagates the binomial fluctuation of
    N_{phi,phi} at fixed total coincidences.
    """
    d = table.dim
    if not 0 <= phi_index < d:
        raise ValueError(f"phi index {phi_index} out of range")
    counts = np.array([table.counts[i] for i in range(d)], dtype=float)
    n_tot = counts.sum()
    if n_tot <= 0:
        raise ValueError("counts are all zero")
    k = counts[phi_index]
    s = n_tot - k
    norm = k + 2.0 * s
    probs = counts / norm
    probs[phi_index] = (k + s) / norm
    fidelity = float(probs[phi_index])
    q = k / n_tot
    stderr = float(n_tot * math.sqrt(n_tot * q * (1.0 - q)) / norm**2)
    return EstimationResult(probs=probs, fidelity=fidelity, stderr=stderr)


@dataclass(frozen=True)
class FidelityTable:
    """Cloning fidelities for every input of one basis, plus their average."""

    basis_name: str
    input_labels: tuple[str, ...]
    tables: tuple[CountsTable, ...]
    results: tuple[EstimationResult, ...]
    average: float
    average_stderr: float

    def to_dict(self) -> dict:
        return {
            "basis": self.basis_name,
            "inputs": list(self.input_labels),
            "results": [r.to_dict() for r in self.results],
            "counts": [t.to_dict() for t in self.tables],
            "average": {"fidelity": self.average, "stderr": self.average_stderr},
        }

    def __str__(self) -> str:
        lines = [f"basis {self.basis_name}: cloning fidelities"]
        for label, res in zip(self.input_labels, self.results):
            lines.append(f"  {label:>20s}   {res.fidelity:.4f} +- {res.stderr:.4f}")
        lines.append(
            f"  {'average':>20s}   {self.average:.4f} +- {self.average_stderr:.4f}"
        )
        return "\n".join(lines)


_NAMED_BASES = {"I": basis_logical, "IV": basis_four}


def replicate_table(basis_name: str, config: ExperimentConfig) -> FidelityTable:
    """Run the full four-input fidelity table for basis I or IV.

    Each input uses its own RNG stream family derived from the one config
    seed, so the whole table is reproducible from a single integer.
    """
    try:
        basis = _NAMED_BASES[basis_name]()
    except KeyError:
        raise ValueError(f"unknown basis {basis_name!r}; expected one of I, IV") from None
    tables = []
    results = []
    for phi in basis.states:
        table = run_cloning_experiment(phi, basis, config)
        tables.append(table)
        results.append(estimate_probabilities(table, table.phi_index))
    fidelities = [r.fidelity for r in results]
    avg = float(np.mean(fidelities))
    avg_err = float(math.sqrt(sum(r.stderr**2 for r in results)) / len(results))
    return FidelityTable(
        basis_name=basis_name,
        input_labels=tuple(t.input_label for t in tables),
        tables=tuple(tables),
        results=tuple(results),
        average=avg,
        average_stderr=avg_err,
    )


def write_counts_csv(tables, fileobj) -> None:
    """Write counts as RFC-4180 CSV with the columns input, outcome, count."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["input", "outcome", "count"])
    for table in tables:
        labels = table.basis_label.split(" / ")
        for i in sorted(table.counts):
            writer.writerow([table.input_label, labels[i], table.counts[i]])
