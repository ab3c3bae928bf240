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
Reproducible, with one stream per input drawn in order. Trials come in
fixed-size batches of B = ``BATCH_TRIALS``, and a run evaluates them in
draws of one or more batches. The run for input index ``i`` draws every
variate from one generator,

    Generator(PCG64(SeedSequence(config.seed, spawn_key=(i,))))

built when the run starts. Draws 0, 1, ... take their variates from it in
order, each where the one before it stopped, until ``shots`` coincidences
are counted, so two runs with the same config are count-for-count
identical. The run records the number of batches it evaluated, summed over
its draws, and the number of its draws in its ``CountsTable``.

Draw 0 is one batch. With h coincidences counted over the b batches drawn
so far and ``need`` still to count, the next draw takes

    m = ceil((need + 3 sqrt(need)) * b / h)

batches, enough to fill ``need`` at the yield so far with three standard
deviations to spare, and one batch while h = 0. m is at most the cap of
the table (``_draw_cap``): the most batches that keep a draw's expected
near trials (below) times d at or below ``_DRAW_CELLS``, and at least one,
so ~4 on the degraded basis-IV bench and 1 at d >= 16. A table with no near
cells is capped at ``_MAX_DRAW_BATCHES`` only, which keeps a draw's hits
within what ``multivariate_hypergeometric`` takes. The sizes do not change
the law: a draw of m batches is one multinomial draw over m B trials, which
counts them per cell as m draws over B trials would in sum; and a draw's
size depends only on the draws before it, so the hits stay independent in
trial order.

The draw that fills ``shots`` usually yields more coincidences than are
still needed. A draw returns its counts per outcome, not its hits in trial
order, so the run keeps a uniformly random subset of them of the size it
needs, with one ``multivariate_hypergeometric`` draw on those counts, from
the input's generator after the draw's own variates. This is exact: the
trials are independent, so the first r hits in trial order would be a
uniformly random r-subset of the draw's hits as well.

A trial is post-selected with outcome j when

    u < p_coal * 1/2 * p_filter * (q_0 + ... + q_j) / (q_0 + ... + q_{d-1})

for the smallest such j, with u uniform on [0, 1) (p_coal as in
``_half_coal``, p_filter and the scanner weights q_j as in
``_event_terms``). This has the joint law of separate coalescence, split,
filter-click and outcome draws. The signal, the filter and each of the d
scanner settings are replaced independently, the signal with probability
1 - f_p and the others with 1 - f_a, for the preparation and analysis
fidelities f_p and f_a; the ancilla k has probability w_k and is never
replaced. The right-hand side never exceeds p_coal/2 * p_filter, which does
not depend on the scanner, nor p_coal/2, which depends only on the signal
and the ancilla, nor p_near = (1 + v^2)/8, the largest p_coal/2 of any
trial. A trial whose scanner weights sum to at most ``_Q_TOTAL_CUTOFF`` is
never accepted: no scanner setting can click, and a sum that small is
rounding residue of an exact 0, not a click probability.

The variates of a run follow stream layout 16 (``STREAM_LAYOUT``): its
draws in order, then that sample. Within a draw of n = m B trials the
layout draws only the variates a trial can still use.
In a trial where no state was replaced (a "clean" trial) p_coal/2,
p_filter, the bound b_k = min(p_coal/2, p_coal/2 * p_filter) of step 5
below and the d thresholds t_{k,j} depend on the ancilla index alone, so
each run computes them once per input (``_clean_row_table``). A trial
with a replaced state can be counted only below a reach r that depends on
which states were replaced and on whether k is the input's index p, the
largest bound of step 5 such a trial can have. A replaced state is
orthogonal to its target, so a replaced signal S has S_p = 0 and
<e_p|S> = 0: with k = p its p_coal/2 is 1/8 and its p_filter is 1/2 with
the filter kept and at most 1/2 with it replaced, so r = 1/16. Each trial
falls in one cell of one ``multinomial`` draw of n trials:

- A_k, ancilla k, the signal replaced, the filter kept and u < r:
  w_k (1 - f_p) f_a r, r = 1/16 for k = p and 0 otherwise, where the
  filter e_p is orthogonal to both photons and never clicks;
- A'_k, signal and filter replaced and u < r: w_k (1 - f_p) (1 - f_a) r,
  r = 1/16 for k = p and p_near otherwise;
- C_k, the signal kept, the filter replaced and u < r: w_k f_p (1 - f_a) r,
  r = 1/(16 (d - 1)) for k != p (below), and r = 0 for k = p, where the
  filter is orthogonal to both photons;
- E_{i,k}, signal and filter kept, u < b_k and, with the scanner settings
  taken in the order that puts setting k last, setting i of that order the
  first one replaced: w_k f_p f_a b_k f_a^i (1 - f_a), i < d - 1. A trial
  whose only replaced setting is k has every q_j = 0 and is never counted;
- O_j, a clean trial counted with outcome j: the sum over k of
  w_k f_p f_a^(d + 1) (t_{k,j} - t_{k,j-1}), for the clean thresholds
  t_{k,j}, each at most b_k, and t_{k,-1} = 0;
- the rest of 1, the trials that can never be counted.

The table of an input holds these cells with the input index, v and f_a
that the walk below reads, so it is a draw's whole law: a draw takes the
table, its stream and its number of batches and nothing else, and cannot
pair the cells with other values. The O cells are the draw's counts of its
clean trials, so an ideal draw (f_p = f_a = 1, every other cell empty) is
that one multinomial; at v = 1 with uniform ancilla weights, 7/64 of its
trials land in the O cells. The trials of the A, A', C and E cells, the
"near" trials, are walked; their draws, in this order:

1. the multinomial draw over the cells;
2. one accept uniform ``u`` per near trial, uniform on [0, r) for the
   reach r of its cell;
3. the replaced signal of each A and A' trial;
4. the replaced filter of each A' trial kept, u < p_coal/2;
5. the scanner-arm perturbation of the A and A' trials that also pass
   u < p_coal/2 * p_filter; then, of the C and E trials, which of the
   settings they may still replace are replaced (every setting of a C
   trial, and of an E trial k and those after its first replaced one in
   its order), one uniform per replaced setting other than the one at the
   trial's coordinate (below), in the order of the replaced settings, and
   one per E trial for its first replaced setting.

The trials of a draw are independent, so only how many fall in each cell
matters, not which: a draw holds its near trials grouped by cell, and a
trial outside every near cell draws nothing at all. A perturbation of n
states with fidelity f = 1 draws nothing; otherwise it draws the number
k ~ Binomial(n, 1 - f) of states it replaces, then which k of them (a
sample without replacement), then 2(d - 1) standard normals for each
replaced state, in order: the law of n independent pass tests with
probability f, drawn with k indices in place of n uniforms. A state
that is replaced for certain (the signal of an A or A' trial, the filter
of an A' trial) draws only its normals. The reaches carry a relative
rounding margin (``_BOUND_MARGIN``), so each lies above every threshold a
trial of its cell can have, rounding included.

The trials whose signal is kept, C and E, take one walk
(``_e_trial_weights``): their scanner weights are q_j = c X_j, for a factor
c that cancels in cum(q)/sum(q) and X_j = |<e_c|g_j>|^2 read at one
coordinate c, k for an E trial and p for a C trial. An unreplaced setting
c gives X = 1 and an unreplaced other setting 0; a replaced setting c is
orthogonal to e_c and gives 0. A replaced setting j != c is Haar-random on
the complement of e_j, so X_j is a Beta(1, d - 2) variate, drawn from one
uniform U as X = 1 - U^(1/(d - 2)), and X = 1 at d = 2, where no uniform
is drawn. So these trials draw no normal, build no state and evaluate no
``_event_terms``; their thresholds are p_coal/2 * p_filter *
cum(X)_j/sum(X) with p_coal/2 and p_filter of the table.

A C trial has S = e_p, N = e_k (k != p) and a replaced filter chi
orthogonal to e_p, so A = 0, B = conj(chi_k), p_coal/2 = 1/8,
p_filter = |chi_k|^2/2 and q_j = |chi_k|^2 X_j with X read at p. chi
enters only as the factor |chi_k|^2 on thresholds below the reach, where u
is uniform, so each outcome's probability is linear in that factor, and
chi is independent of the scanner. Averaging chi out exactly (conditional
Monte Carlo; Casella and Robert, Biometrika 83, 81 (1996)) puts the mean
E|chi_k|^2 = 1/(d - 1), over the (d - 1)-dimensional complement of e_p,
in its place: the C cell still draws the replaced-filter event, with
p_filter 1/(2 (d - 1)), but no filter. A C trial has no forced first
setting.

A fixed seed reproduces counts only under the layout that drew them;
CHANGES.md records what each layout changed from the one before. The tests
check layout 16 against

- the exact outcome law of each configuration with an ideal analyzer,
  which ``outcome_law`` builds from the second-quantized engine, averaging
  a replaced signal exactly: per trial over pooled batches and per whole
  run, on ideal basis I, on prep-only basis IV, and with uneven ancilla
  weights on a Fourier d = 3 and a Haar d = 4 basis;
- a reference that perturbs every trial as layout 2 did, in a two-sample
  test on the degraded basis-IV bench and on basis I with analysis noise
  alone: with analysis noise the law has no closed form, so this is its
  reference;
- whole runs with layout 12's batches, which draw every C filter and
  replaced scanner setting as a Haar state, in a two-sample test;
- whole runs in sized draws against the same runs drawn one batch at a
  time, in a two-sample test;
- a replay of the run, draw by draw, with the size rule written out, bit
  for bit, the walked cells of each degraded draw against the cap, and
  fixed-seed counts whose later draws stay below the cap;
- a per-row reference batch in the kernel's own draw order, bit for bit.
  It builds each walked scanner setting in full from its X, and a C
  trial's filter with |filter_k|^2 = 1/(d - 1), and evaluates the full
  closed forms, so it checks the walk trial by trial;
- the walk's own math: the drawn X against |<e_k|g>|^2 of replaced states
  at d = 3, 4, 8 and 32 (first two moments and binned counts), the scanner
  weights of C and E trials against c X_j at d = 5, and the mean of
  |chi_k|^2 over replaced filters at d = 2, 3, 4, 8 and 32.

A trial is evaluated in the coordinates of the measurement basis U, of
which the input, every ancilla state and every scanner setting are
members: the input is e_p, ancilla k is e_k and scanner setting j is e_j.
A replaced state is drawn in these coordinates: its 2(d - 1) normals fill
its components other than the target e_t (``_complement_states``). The
complex Gaussian law on the complement of e_t is invariant under its
unitaries, so the state is Haar-random on that complement whatever the
basis, and the kernel never sees U: the counts depend on the basis only
through the indices of the input, the ancillas and the outcomes. The
structural zeros of the bench (a filter or scanner setting orthogonal to a
photon) come out exact, so a cell that cannot hold a trial has probability
exactly 0.

The ancilla is never replaced, so a trial carries it as its index k, and
each overlap with it is a component: <S|N> = conj(S_k), <filter|N> =
conj(filter_k), and <g_j|N> is 1 for j = k and 0 otherwise for an
unreplaced scanner setting, component k of a replaced one. These gathers
are exact, as were the products with 0 and 1 they replace. The overlaps of
S with the unreplaced scanner settings are its components, and only a
replaced setting takes an inner product.

A near trial reads from the table each number that no replaced state
changes: p_coal/2 unless its signal was replaced, and p_filter of a C or E
trial. A trial passes both thinning steps exactly when
u < min(p_coal/2, p_coal/2 * p_filter * margin), one comparison. A
perturbation returns the indices of the states it replaced, and a replaced
state is kept with the index of its trial. The near trials that reach
step 5 are counted in two passes, the A and A' trials, then the C and E
trials: outcome j is the number of the trial's thresholds at or below u.

The two-photon step (interfere on the first splitter, post-select
coalescence, split, analyze) is computed in one place, the closed forms
``_half_coal``, ``_filter_terms`` (the filter arm, which an A or A' trial
evaluates once, for the bound of step 5, and reuses for its thresholds)
and ``_event_terms`` (the scanner weights of the A and A' trials), which
also give the table.
The tests check them against the second-quantized engine of
:mod:`symclone.bosonic`, which a run never calls, and against the same
forms written as products with the unit vector e_k.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .hilbert import LabeledBasis, PureState, _integer, named_basis

__all__ = [
    "BATCH_TRIALS",
    "STREAM_LAYOUT",
    "ExperimentConfig",
    "CountsTable",
    "EstimationResult",
    "FidelityTable",
    "run_cloning_experiment",
    "estimate_probabilities",
    "replicate_table",
    "write_counts_csv",
]

# Trials per batch. A batch pays a fixed cost, the overhead of each numpy
# call, so 32768 trials halve the batches of 16384 and their share of it. On
# 2 cores, 10 alternated runs per side of ``perfbench/run.py --seconds 8``
# read ``wall_rel`` 21.1 -> 18.3 on the ideal basis-I table (lower in 10/10)
# and 131.7 -> 116.3 on the degraded basis-IV bench (9/10); in process,
# 65536 ran slower than 32768 on the ideal table. Fixed: changing it changes
# which variates feed which trial and therefore the realization (not the
# statistics).
BATCH_TRIALS = 32768

# The order of the variates in a run and their use: the draws of batches in
# order, each sized and drawn as the module docstring states, then the
# sample of the draw that fills ``shots``. Recorded in every config dict: a
# fixed seed reproduces counts only under the layout that drew them.
STREAM_LAYOUT = 16

# Scanner weights sum(q) at or below this are rounding residue, not a
# click probability. In lab coordinates a basis-IV trial whose scanner arm
# can give no click left sum(q) ~ 1e-33: over the 7.96e5 rows that evaluate
# their scanner weights in the degraded basis-IV bench (seeds 1-10, 5e4
# shots, stream layout 3), 1.54e5 residue totals stayed below 7.4e-30 and
# genuine totals above 2.4e-6, so the cutoff sits far from both. The
# basis-coordinate kernel computes those sums as exact zeros.
_Q_TOTAL_CUTOFF = 1e-20

# Relative margin on the bounds that select the trials whose perturbations
# are drawn (the reaches of the module docstring): a trial's thresholds are
# computed by other arithmetic than its bound and may exceed it by rounding,
# never by 1e-9.
_BOUND_MARGIN = 1.0 + 1e-9

# Give up if this many consecutive batches, 8 192 000 trials whatever the
# batch size, yield no coincidence at all. A draw without a coincidence
# counts all its batches and a draw with one starts the count again; before
# the first coincidence every draw is one batch.
_MAX_DRY_BATCHES = 8_192_000 // BATCH_TRIALS

# A draw walks all its near trials at once, so the cap of a table
# (``_draw_cap``) keeps a draw's expected near trials times d, the entries
# of its widest arrays, at or below this many: 4 batches a draw on the
# degraded basis-IV bench. There, at layout 15, warm 5e4-shot tables took a
# median of 0, 4 and 1 379 minor faults at 8 192, 16 384 and 32 768 cells (3
# at layout 14, one batch a draw): past ~0.5 MB of arrays glibc trims the
# heap top after a draw and the next one faults it back.
_DRAW_CELLS = 16_384

# The most batches of one draw: its hits stay below the 10^9 that
# ``multivariate_hypergeometric`` takes.
_MAX_DRAW_BATCHES = 10**9 // BATCH_TRIALS

# Each field of ``ExperimentConfig`` and its key, in ``to_dict`` order. The
# key names the value in ``to_dict``, in config files, in the JSON summary and
# in every error message.
_KEYS = {
    "shots": "shots",
    "v": "v",
    "ancilla_weights": "ancillaWeights",
    "prep_fidelity": "prepFidelity",
    "analysis_fidelity": "analysisFidelity",
    "seed": "seed",
}


def _config_integer(value, key: str) -> int:
    """A config integer as an int: an int, a numpy integer, an integral
    Fraction or an integral float such as 3.0 (JSON may write an integer
    that way); a bool, a number with a fraction or a non-number is an
    error. Counts and indices follow the stricter :func:`hilbert._integer
    <symclone.hilbert._integer>`, which takes no float."""
    if isinstance(value, numbers.Rational):  # exact: a Fraction may be past the float range
        integral = int(value) == value
    else:
        integral = isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"bad config value: {key!r} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """A config number as a float; a bool, a non-number or an integer past
    the float range is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"bad config value: {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"bad config value: {key!r} must be a number in the float range") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the simulated bench.

    shots counts post-selected coincidences, not source pairs; v is the
    two-photon wavepacket overlap at the first splitter; ancilla_weights
    (None = uniform) describe imperfect randomization of the ancilla over
    the measurement basis; prep/analysis fidelities model state-level
    preparation and analyzer errors.

    The constructor is the one place where a value is checked and
    converted; ``from_dict`` only maps keys to fields. ``shots`` and
    ``seed`` are kept as ints, the fidelities, v and each weight as floats,
    and the weights as a tuple; an error names the value by its ``to_dict``
    key.
    """

    shots: int = 10_000
    v: float = 1.0
    ancilla_weights: tuple[float, ...] | None = None
    prep_fidelity: float = 1.0
    analysis_fidelity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shots", _config_integer(self.shots, "shots"))
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        for name in ("v", "prep_fidelity", "analysis_fidelity"):
            value = _real(getattr(self, name), _KEYS[name])
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{_KEYS[name]} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        weights = self.ancilla_weights
        if weights is not None:
            # iterating a number fails, a string gives characters, a mapping
            # its keys and a set no order
            key = _KEYS["ancilla_weights"]
            vector = isinstance(weights, np.ndarray) and weights.ndim == 1
            if not (vector or isinstance(weights, (list, tuple))) or len(weights) == 0:
                raise ValueError(
                    f"bad config value: {key!r} must be null or a non-empty list, tuple or"
                    f" 1-D array of numbers, got {weights!r}"
                )
            w = tuple(_real(x, f"{key}[{i}]") for i, x in enumerate(weights))
            if not all(math.isfinite(x) for x in w):
                raise ValueError("ancilla weights must be finite")
            if any(x < 0 for x in w):
                raise ValueError("ancilla weights must be nonnegative")
            if abs(sum(w) - 1.0) > 1e-12:
                raise ValueError(f"ancilla weights must sum to 1, got {sum(w)!r}")
            object.__setattr__(self, "ancilla_weights", w)
        object.__setattr__(self, "seed", _config_integer(self.seed, "seed"))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def weights_for(self, d: int) -> np.ndarray:
        if self.ancilla_weights is None:
            return np.full(d, 1.0 / d)
        if len(self.ancilla_weights) != d:
            raise ValueError(
                f"{len(self.ancilla_weights)} ancilla weights for dimension {d}"
            )
        return np.asarray(self.ancilla_weights)

    def to_dict(self) -> dict:
        data = {key: getattr(self, name) for name, key in _KEYS.items()}
        if self.ancilla_weights is not None:
            data[_KEYS["ancilla_weights"]] = list(self.ancilla_weights)
        data["streamLayout"] = STREAM_LAYOUT
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a ``to_dict`` dict or a config file. A missing key
        takes the field's default, and the constructor checks every value."""
        unknown = sorted(set(data) - {*_KEYS.values(), "streamLayout"})
        if unknown:
            raise ValueError("unknown config key " + ", ".join(map(repr, unknown)))
        layout = data.get("streamLayout", STREAM_LAYOUT)
        if layout != STREAM_LAYOUT:
            raise ValueError(
                f"streamLayout {layout!r} is not supported; this version draws layout {STREAM_LAYOUT}"
            )
        return cls(**{name: data[key] for name, key in _KEYS.items() if key in data})


@dataclass(frozen=True)
class CountsTable:
    """Coincidence counts N_{phi,i} for one input state, one per basis label
    in outcome order, the number of batches of ``BATCH_TRIALS`` trials the
    run evaluated to collect them and the number of draws, kernel calls,
    it took them in (both 0 for counts that no run produced). ``counts`` is
    given as a list or a tuple of integers and kept as a tuple of ints;
    ``phi_index``, ``batches`` and ``draws`` are kept as ints. A bool or a
    float, even 2.0, is not an integer here: the CSV, the JSON and the
    estimator would read it differently, and the estimator indexes the
    counts with ``phi_index``."""

    basis_labels: tuple[str, ...]
    phi_index: int
    counts: tuple[int, ...]
    config: ExperimentConfig
    batches: int = 0
    draws: int = 0

    def __post_init__(self):
        if not isinstance(self.counts, (list, tuple)):
            raise TypeError(f"counts must be a list or a tuple, got {type(self.counts).__name__}")
        counts = tuple(self.counts)
        if len(counts) != len(self.basis_labels):
            raise ValueError(f"{len(counts)} counts for {len(self.basis_labels)} basis labels")
        if not 0 <= _integer(self.phi_index, "phi index") < len(counts):
            raise ValueError(f"phi index {self.phi_index} out of range")
        for name, values in (("counts", counts), ("batches", (self.batches,)),
                             ("draws", (self.draws,))):
            if any(_integer(n, name) < 0 for n in values):
                raise ValueError(f"{name} must be nonnegative")
        object.__setattr__(self, "counts", tuple(map(int, counts)))
        for name in ("phi_index", "batches", "draws"):
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def input_label(self) -> str:
        return self.basis_labels[self.phi_index]

    @property
    def trials(self) -> int:
        return self.batches * BATCH_TRIALS

    def to_dict(self) -> dict:
        return {
            "input": self.input_label,
            "basis": " / ".join(self.basis_labels),
            "phiIndex": self.phi_index,
            "counts": {str(i): n for i, n in enumerate(self.counts)},
            "batches": self.batches,
            "draws": self.draws,
            "trials": self.trials,
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
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-9:  # a NaN sum fails this test too
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def to_dict(self) -> dict:
        return {
            "probs": [float(p) for p in self.probs],
            "fidelity": float(self.fidelity),
            "stderr": float(self.stderr),
        }


def _replaced(n: int, f: float, rng: np.random.Generator) -> np.ndarray:
    """The indices, ascending, of the states that one perturbation of n
    states with fidelity f replaces, drawn from ``rng`` by the law that the
    module docstring states."""
    if f >= 1.0:
        return np.empty(0, dtype=np.intp)
    return np.sort(rng.choice(n, rng.binomial(n, 1.0 - f), replace=False, shuffle=False))


def _fail_draws(
    n: int, d: int, f: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one perturbation of n states of dimension d with
    fidelity f, by the law that the module docstring states: the indices of
    the replaced states (:func:`_replaced`) and their normals, one row of
    2(d - 1) per replaced state in the same order."""
    bad = _replaced(n, f, rng)
    return bad, rng.standard_normal((len(bad), 2 * d - 2))


def _complement_states(targets, z: np.ndarray) -> np.ndarray:
    """Per row of ``z``, a Haar-random unit vector orthogonal to basis state
    ``targets`` (one index, or one per row), in basis coordinates, made from
    the row's 2(d - 1) standard normals.

    The normals, taken in pairs as real and imaginary part, fill the d - 1
    components other than the target t in order, and the vector is
    normalized. A standard complex Gaussian vector on the complement of e_t
    is invariant under the unitaries of that complement, so its direction is
    Haar-random there in any basis of it: no rotation is needed. A
    degenerate draw (norm below 1e-12, measure zero) takes instead the first
    basis vector other than e_t.
    """
    d = z.shape[1] // 2 + 1
    t = np.broadcast_to(targets, (len(z),))
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    low = norms < 1e-12
    degenerate = low.any()
    if degenerate:
        norms[low] = np.inf  # these rows come out zero, then take the fallback
    chi = np.zeros((len(z), d), dtype=complex)
    chi[np.arange(d) != t[:, None]] = (z / norms[:, None]).view(complex).ravel()
    if degenerate:
        chi[low, (t[low] == 0).astype(np.intp)] = 1.0
    return chi


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _half_coal(S: np.ndarray, k: np.ndarray, v: float) -> np.ndarray:
    """p_coal/2 per row: the coalesced-and-split probability, which bounds
    every acceptance threshold of the row.

    The pair coalesces into the monitored port of the first splitter with
    p_coal = (1 + x)/4, x = v^2 |<S|N>|^2, and the second splitter sends
    one photon to each arm with probability 1/2, so p_coal/2 = (1 + x)/8.
    ``S`` holds one signal per row in basis coordinates and ``k`` the row's
    ancilla index: N = e_k, so <S|N> = conj(S_k).
    """
    return (1.0 + (v * v) * _abs2(S[np.arange(len(S)), k])) / 8.0


def _filter_terms(S: np.ndarray, k: np.ndarray, v: float, filters: np.ndarray):
    """The filter-arm click probability of a coalesced-and-split pair and
    its filter amplitudes, per row.

    ``S`` and ``filters`` hold one signal and one filter state per row in
    basis coordinates, and ``k`` the row's ancilla index, N = e_k. With
    c = <S|N> = conj(S_k), x = v^2 |c|^2, A = <filter|S> and
    B = <filter|N> = conj(filter_k):

        p_filter = (|A|^2 + |B|^2 + 2 v^2 Re(conj(A) B conj(c))) / (2 (1+x))

    Returns ``(p_filter, A, B)``; :func:`_event_terms` gives the derivation.
    """
    rows = np.arange(len(S))
    S_k = S[rows, k]  # conj(c)
    B = np.conj(filters[rows, k])
    A = np.einsum("ij,ij->i", np.conj(filters), S)
    p_filter = (
        _abs2(A) + _abs2(B) + 2.0 * v * v * np.real(np.conj(A) * B * S_k)
    ) / (2.0 * (1.0 + (v * v) * _abs2(S_k)))
    return p_filter, A, B


def _event_terms(A: np.ndarray, B: np.ndarray, v: float, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The scanner-click weights q_j of a filter-passing pair, per row.

    With u = S (x) e0 and a = N (x) (v e0 + w e1) the coalesced pair,
    split across the two detection arms, is (|u,a> + |a,u>) / sqrt(2(1+x)),
    x = v^2 |<S|N>|^2 (its probability is :func:`_half_coal`). Writing
    A = <filter|S>, B = <filter|N> and, for scanner setting g_j,
    F_j = <g_j|S> and G_j = <g_j|N> (the scanner overlaps ``F`` and ``G``,
    shape (rows, d)), tracing the temporal modes at the detectors gives the
    filter-click probability p_filter of :func:`_filter_terms` and

        q_j = |A G_j|^2 + |B F_j|^2 + 2 v^2 Re(conj(A) B conj(G_j) F_j)

    The amplitudes A and B come from :func:`_filter_terms`; this returns q,
    the relative scanner-click weights (normalized by the caller). With
    N = e_k, G_j is 1 for j = k and 0 otherwise when g_j is the
    unperturbed setting e_j, and a component of the setting otherwise. The
    tests recompute all of this, and p_coal, through the second-quantized
    engine of :mod:`symclone.bosonic`; the two routes must agree.
    """
    # q_j = |a|^2 + |b|^2 + 2 v^2 Re(conj(a) b) with a = A G_j, b = B F_j,
    # as v^2 |a + b|^2 + (1 - v^2) (|a|^2 + |b|^2), summed in place
    a = A[:, None] * G
    b = B[:, None] * F
    rest = _abs2(a) + _abs2(b)
    rest *= 1.0 - v * v
    a += b
    q = _abs2(a)
    q *= v * v
    q += rest
    return q


def _scanner_bound(half_coal: np.ndarray, p_filter: np.ndarray) -> np.ndarray:
    """The bound of draw step 5 of the module docstring per row,
    min(p_coal/2, p_coal/2 * p_filter * ``_BOUND_MARGIN``): a trial is kept
    for step 4 and passes on to step 5 if and only if u lies below it.

    The minimum matters where p_filter = 1 (ancilla = input): a trial with
    p_coal/2 <= u < p_coal/2 * _BOUND_MARGIN was dropped before step 4 and
    stays dropped.
    """
    return np.minimum(half_coal, half_coal * p_filter * _BOUND_MARGIN)


def _acceptance_thresholds(half_coal: np.ndarray, p_filter: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, the d cumulative thresholds p_coal/2 * p_filter * cum(q)_j/sum(q),
    written over the weights ``q``.

    A row with sum(q) <= ``_Q_TOTAL_CUTOFF`` is unresolvable (no scanner
    setting can click): it gets all-zero thresholds and never passes.
    """
    # cum_q, then scale * cum_q / totals, in place: these are a draw's widest
    # arrays
    cum_q = np.cumsum(q, axis=1, out=q)
    totals = cum_q[:, -1:]
    resolvable = totals > _Q_TOTAL_CUTOFF
    totals = np.where(resolvable, totals, 1.0)
    cum_q *= np.where(resolvable, (half_coal * p_filter)[:, None], 0.0)
    cum_q /= totals
    return cum_q


class _CleanRows(NamedTuple):
    """The constants of one input's draws (see :func:`_clean_row_table`),
    a draw's whole law. Every per-ancilla array is indexed by the ancilla
    index k."""

    p: int  # the input, basis state p of the measurement basis
    v: float  # the overlap at the first splitter
    analysis_f: float  # the fidelity of the filter-arm and scanner-arm perturbations
    cells: np.ndarray  # the multinomial cells of a trial: near cells, outcome cells, the rest
    reach: np.ndarray  # per near cell, the bound below which its accept uniform is drawn
    half_coal: np.ndarray  # p_coal/2 of a trial with a clean signal
    p_filter: np.ndarray  # per C and E cell, from cell 2d on, the p_filter of its walk


def _clean_row_table(
    p: int, weights: np.ndarray, v: float, prep_f: float, analysis_f: float
) -> _CleanRows:
    """The constants of the draws of input ``p`` with ancilla weights
    ``weights``, overlap v and fidelities ``prep_f`` and ``analysis_f``,
    computed once per input: the cells of the stream layout and their
    reaches (see the module docstring). It keeps p, v and ``analysis_f`` as
    well, the values that :func:`_simulate_batch` reads besides the cells;
    ``prep_f`` acts through the cells alone.

    In a trial where no state was replaced the signal and the filter are
    basis state p, the ancilla is basis state k and the scanner is the
    basis, so its numbers depend on k alone. In basis coordinates these
    states are unit vectors: S = filter = e_p, N = e_k, and the overlaps
    with the scanner settings are F = S and G = N. The table holds their
    p_coal/2 per ancilla, evaluated by the same closed forms as the near
    trials in :func:`_simulate_batch`, and the p_filter of each C and E
    cell: the clean one of ancilla k for E_{i,k}, the mean over the
    replaced filter for C_k.

    ``cells`` are the probabilities of the one ``multinomial`` of a draw,
    for the weights w_k normalized, f_p = ``prep_f`` and f_a =
    ``analysis_f``: first the near cells, cell c = kind * d + k for ancilla
    k, with kind 0 for A_k, 1 for A'_k, 2 for C_k and 3 + i for E_{i,k};
    then the outcome cells O_j; then the rest of 1. ``reach`` holds the
    reach r of each near cell, with ``_BOUND_MARGIN``, and r = 0 for a
    cell whose trials can never be counted.
    """
    d = len(weights)
    k = np.arange(d)
    S = np.zeros((d, d), dtype=complex)
    S[:, p] = 1.0
    half_coal = _half_coal(S, k, v)
    p_filter, A, B = _filter_terms(S, k, v, S)
    q = _event_terms(A, B, v, S, np.eye(d, dtype=complex))  # F = S and G = N
    bound = _scanner_bound(half_coal, p_filter)
    # a clean trial, as a near one, is counted only below its bound of step 5
    thresholds = np.minimum(_acceptance_thresholds(half_coal, p_filter, q), bound[:, None])
    # a C trial's p_filter, |filter_k|^2/2 averaged over its replaced
    # filter, and 0 with the ancilla e_p; then, per walked cell, C_k and
    # E_{i,k} (the lists repeat the clean arrays, cheaper than np.tile)
    c_filter = np.full(d, 0.5 / (d - 1))
    c_filter[p] = 0.0
    walk_filter = np.concatenate([c_filter, *[p_filter] * (d - 1)])
    w = weights / weights.sum()
    p_near = (1.0 + v * v) / 8.0 * _BOUND_MARGIN
    reach = np.concatenate([np.zeros(d), np.full(d, p_near), _scanner_bound(half_coal, c_filter),
                            *[bound] * (d - 1)])
    # with the ancilla e_p, a replaced signal's bound
    reach[[p, d + p]] = _BOUND_MARGIN / 16.0
    # per kind, the probability of its replacements: A, A', C, then E_i
    kept, replaced = analysis_f, 1.0 - analysis_f
    kinds = [(1.0 - prep_f) * kept, (1.0 - prep_f) * replaced, prep_f * replaced]
    kinds += [prep_f * kept ** (i + 1) * replaced for i in range(d - 1)]
    near = reach * np.outer(kinds, w).ravel()
    outcomes = w * (prep_f * kept ** (d + 1)) @ np.diff(thresholds, axis=1, prepend=0.0)
    return _CleanRows(
        p=p,
        v=v,
        analysis_f=analysis_f,
        # the last cell takes the rest of the unit sum, as ``rng.multinomial``
        # does with its last probability
        cells=np.concatenate([near, outcomes, [1.0 - near.sum() - outcomes.sum()]]),
        reach=reach,
        half_coal=half_coal,
        p_filter=walk_filter,
    )


def _signal_and_filter_arms(
    table: _CleanRows, u: np.ndarray, anc: np.ndarray, n_a: int, rng: np.random.Generator
):
    """Draw steps 3 and 4 of the module docstring for the A and A' trials of
    a draw, the trials whose signal is replaced: ``u`` and ``anc`` hold
    their accept uniforms and ancilla indices, the ``n_a`` A trials first.

    Returns the indices of those trials below their bound of step 5, with
    their signals, p_coal/2 and filter terms (:func:`_filter_terms`).
    """
    p, v, d = table.p, table.v, len(table.half_coal)
    S = _complement_states(p, rng.standard_normal((len(u), 2 * d - 2)))
    half_coal = _half_coal(S, anc, v)
    kept = np.flatnonzero(u < half_coal)
    S, half_coal = S[kept], half_coal[kept]
    filters = np.zeros_like(S)
    filters[:, p] = 1.0
    f_rows = np.flatnonzero(kept >= n_a)  # the A' trials kept
    filters[f_rows] = _complement_states(p, rng.standard_normal((len(f_rows), 2 * d - 2)))
    p_filter, A, B = _filter_terms(S, anc[kept], v, filters)
    passing = np.flatnonzero(u[kept] < _scanner_bound(half_coal, p_filter))
    return kept[passing], S[passing], half_coal[passing], p_filter[passing], A[passing], B[passing]


def _scanner_overlaps(table: _CleanRows, S: np.ndarray, anc: np.ndarray, rng: np.random.Generator):
    """Draw step 5 of the module docstring for the A and A' trials that
    reach it: ``S`` holds their signals and ``anc`` their ancilla indices
    k. Returns the scanner overlaps F_j = <g_j|S> and G_j = <g_j|N>, one
    row per trial.
    """
    d = S.shape[1]
    F = S.copy()
    G = np.zeros_like(F)
    G[np.arange(len(G)), anc] = 1.0
    g_idx, g_z = _fail_draws(F.size, d, table.analysis_f, rng)
    g_rows, g_cols = np.divmod(g_idx, d)
    bra = np.conj(_complement_states(g_cols, g_z))
    F[g_rows, g_cols] = np.einsum("ei,ei->e", bra, S[g_rows])
    G[g_rows, g_cols] = bra[np.arange(len(g_rows)), anc[g_rows]]
    return F, G


def _e_trial_weights(table: _CleanRows, coord: np.ndarray, first: np.ndarray, rng: np.random.Generator):
    """Draw step 5 of the module docstring for the C and E trials of a
    draw, by their one-coordinate walk: returns X_j = |g_j[c]|^2, one row
    of d settings per trial, for the coordinate c that the trial reads,
    ``coord``: the ancilla index k of an E trial, the input index p of a C
    trial. ``first`` is an E trial's first replaced scanner setting, in the
    order of the settings that puts setting k last, so the settings that
    may still be replaced are j > ``first`` and k; a C trial has
    ``first`` = -1 and may replace any setting.

    X is the trial's scanner weights up to a factor that cancels in
    cum(q)/sum(q): :func:`_event_terms` gives q_j = c X_j, in an E trial
    (A = 1, B = delta_pk) with c = 2 + 2 v^2 for k = p and 1 otherwise, in
    a C trial (A = 0) with c = |filter_k|^2.
    """
    d = len(table.half_coal)
    j = np.arange(d)
    free = (j > first[:, None]) | (j == coord[:, None])
    bad = np.flatnonzero(free)[_replaced(np.count_nonzero(free), table.analysis_f, rng)]
    rows, cols = np.divmod(bad, d)
    x = np.zeros((len(coord), d))
    x[np.arange(len(coord)), coord] = 1.0
    x[rows, cols] = 0.0  # a replaced setting c is orthogonal to e_c
    other = cols != coord[rows]
    forced = np.flatnonzero(first >= 0)
    rows = np.concatenate([rows[other], forced])
    cols = np.concatenate([cols[other], first[forced]])
    x[rows, cols] = 1.0 if d == 2 else 1.0 - rng.random(len(rows)) ** (1.0 / (d - 2))
    return x


def _outcome_counts(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The number of trials counted with each outcome, for accept uniforms
    ``u`` and one row of thresholds per trial: outcome j is the number of
    the trial's thresholds at or below its u, and d is no count."""
    d = thresholds.shape[1]
    return np.bincount((u[:, None] >= thresholds).sum(axis=1), minlength=d + 1)[:d]


def _full_path_counts(
    table: _CleanRows, u: np.ndarray, anc: np.ndarray, n_a: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw steps 3 to 5 of the module docstring for the A and A' trials of
    a draw (see :func:`_signal_and_filter_arms` for the arguments); returns
    their counts per outcome. Their arrays are freed on return, before the
    C and E trials draw."""
    rows, S, half_coal, p_filter, A, B = _signal_and_filter_arms(table, u, anc, n_a, rng)
    q = _event_terms(A, B, table.v, *_scanner_overlaps(table, S, anc[rows], rng))
    return _outcome_counts(u[rows], _acceptance_thresholds(half_coal, p_filter, q))


def _simulate_batch(table: _CleanRows, rng: np.random.Generator, batches: int) -> np.ndarray:
    """Run one draw of ``batches`` batches, batches * BATCH_TRIALS
    single-shot trials, on ``rng``; return the number of post-selected
    trials with each outcome. ``table`` is
    :func:`_clean_row_table` of the input, the overlap v, the ancilla
    weights and the run's fidelities, and it is the draw's whole law: the
    input index p, v and the analysis fidelity f_a, which the scanner-arm
    perturbation draws with, are read from it, so a draw cannot be run
    under values other than those its cells were built for.

    The draw follows the stream layout (see the module docstring): steps 1
    and 2 here, then, in :func:`_full_path_counts`, steps 3 and 4 in
    :func:`_signal_and_filter_arms` and step 5 in :func:`_scanner_overlaps`
    for the A and A' trials that reach it, whose scanner weights then come
    from :func:`_event_terms`, and step 5 in :func:`_e_trial_weights` for
    the C and E trials.
    """
    d = len(table.half_coal)
    n = rng.multinomial(batches * BATCH_TRIALS, table.cells)
    counts = n[-1 - d : -1]
    near = n[: len(table.reach)]
    cell = np.repeat(np.arange(len(near)), near)  # grouped by cell: A, A', C, then E trials
    if not len(cell):
        return counts
    u = rng.random(len(cell))
    u *= table.reach[cell]
    anc = cell % d
    n_s = near[: 2 * d].sum()  # the A and A' trials, whose signal is replaced
    # steps 3-4 and the draws of step 5 run in functions of their own, so
    # their arrays are freed before the next step allocates. Written as one
    # function, a degraded basis-IV batch peaked at ~0.95 MB of arrays in
    # place of ~0.59 MB, glibc trimmed the heap top after each batch and the
    # next one faulted it back: 7 467 minor faults per 5e4-shot table
    # against 0 (4 499 against 0 once a 300 KB array had raised glibc's trim
    # threshold), and slower tables. The A and A' trials are counted before
    # the C and E trials draw, the walk keeps its free settings as a mask
    # and the thresholds are summed and scaled in place: a 4-batch draw of
    # inputs 0 and 1 of that bench peaks at ~0.41 MB of arrays
    # (tracemalloc); at ~0.51 MB otherwise, a loop of harness passes took
    # ~1 650 minor faults per pass in place of ~700
    counts += _full_path_counts(table, u[:n_s], anc[:n_s], near[:d].sum(), rng)
    # the C and E trials follow, with their terms read from the table.
    # Position i of the order that puts setting k last is setting i below k
    # and setting i + 1 from k on; a C trial (kind 2) has first = -1
    walk = cell[n_s:]
    w_anc = anc[n_s:]
    first = walk // d - 3
    first += first >= w_anc
    x = _e_trial_weights(table, np.where(first < 0, table.p, w_anc), first, rng)
    counts += _outcome_counts(u[n_s:], _acceptance_thresholds(table.half_coal[w_anc],
                                                              table.p_filter[walk - 2 * d], x))
    return counts


def _draw_cap(table: _CleanRows) -> int:
    """The most batches one draw of ``table`` takes: the most that keep the
    draw's expected near trials times d at or below ``_DRAW_CELLS``, at
    least 1 and at most ``_MAX_DRAW_BATCHES``, which alone caps a table with
    no near cells."""
    cells = BATCH_TRIALS * len(table.half_coal) * table.cells[: len(table.reach)].sum()
    if cells * _MAX_DRAW_BATCHES <= _DRAW_CELLS:
        return _MAX_DRAW_BATCHES
    return max(1, int(_DRAW_CELLS // cells))


def run_cloning_experiment(
    phi: PureState,
    basis: LabeledBasis,
    config: ExperimentConfig,
) -> CountsTable:
    """Collect coincidence counts for one input state of ``basis``.

    ``phi`` must be an element of ``basis``; trials accumulate, in draws
    of batches sized to the coincidences still needed, until
    ``config.shots`` post-selected coincidences are recorded. Fully
    deterministic given the config (see the module docstring for the
    stream layout and the size of each draw).
    """
    phi_index = basis.index_of(phi)
    table = _clean_row_table(
        phi_index,
        config.weights_for(basis.dim),
        config.v,
        config.prep_fidelity,
        config.analysis_fidelity,
    )
    cap = _draw_cap(table)
    # one stream per input: the draws, then the closing sample, draw from it in order
    seed = np.random.SeedSequence(config.seed, spawn_key=(phi_index,))
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(basis.dim, dtype=np.int64)
    collected = 0
    batches = 0
    draws = 0
    dry = 0
    while collected < config.shots:
        need = config.shots - collected
        size = 1
        if collected:
            # ``need`` at the yield so far, with three standard deviations to spare
            size = min(cap, math.ceil((need + 3.0 * math.sqrt(need)) * batches / collected))
        draw_counts = _simulate_batch(table, rng, size)
        batches += size
        draws += 1
        hits = int(draw_counts.sum())
        if hits == 0:
            dry += size
            if dry >= _MAX_DRY_BATCHES:
                raise RuntimeError("post-selection yield is (near) zero for this configuration")
            continue
        dry = 0
        if hits > need:
            # keep a uniformly random ``need`` of the draw's hits, as the
            # first ``need`` in trial order of independent trials would be
            draw_counts = rng.multivariate_hypergeometric(draw_counts, need)
        counts += draw_counts
        collected += min(hits, need)
    return CountsTable(
        basis_labels=tuple(basis.labels),
        phi_index=phi_index,
        counts=counts.tolist(),
        config=config,
        batches=batches,
        draws=draws,
    )


def estimate_probabilities(table: CountsTable) -> EstimationResult:
    """Count-ratio estimator for p(i|phi), phi the table's input.

    With S = sum of the off-input counts and the normalization
    N = N_{phi,phi} + 2 S (the factor 2 accounts for the coincidences the
    swapped detector assignment would have recorded for i != phi):

        p(i|phi)   = N_{phi,i} / N          (i != phi)
        p(phi|phi) = (N_{phi,phi} + S) / N  = fidelity

    The standard error propagates the binomial fluctuation of
    N_{phi,phi} at fixed total coincidences.
    """
    phi_index = table.phi_index
    counts = np.array(table.counts, dtype=float)
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
    """Cloning fidelities for every input of one basis, plus their average.

    ``tables`` holds at least one table. ``results`` holds
    ``estimate_probabilities`` of each table, computed once on construction.
    """

    basis_name: str
    tables: tuple[CountsTable, ...]
    results: tuple[EstimationResult, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        if not self.tables:
            raise ValueError("a fidelity table needs at least one counts table")
        object.__setattr__(self, "results", tuple(map(estimate_probabilities, self.tables)))

    @property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(t.input_label for t in self.tables)

    @property
    def average(self) -> float:
        return float(np.mean([r.fidelity for r in self.results]))

    @property
    def average_stderr(self) -> float:
        return float(math.sqrt(sum(r.stderr**2 for r in self.results)) / len(self.results))

    def to_dict(self) -> dict:
        """The JSON summary. It records this package's version and numpy's:
        a fixed seed reproduces counts only under the stream layout and the
        numpy ``Generator`` that drew them."""
        return {
            "basis": self.basis_name,
            "inputs": list(self.input_labels),
            "results": [r.to_dict() for r in self.results],
            "counts": [t.to_dict() for t in self.tables],
            "average": {"fidelity": self.average, "stderr": self.average_stderr},
            "version": __version__,
            "numpyVersion": np.__version__,
        }

    def __str__(self) -> str:
        """The fidelities with their average, then the p(i|phi) matrix."""
        lines = [f"basis {self.basis_name}: cloning fidelities"]
        for label, res in zip(self.input_labels, self.results):
            lines.append(f"  {label:>20s}   {res.fidelity:.4f} +- {res.stderr:.4f}")
        lines.append(
            f"  {'average':>20s}   {self.average:.4f} +- {self.average_stderr:.4f}"
        )
        lines += ["", "p(i|phi) matrix (rows = inputs, columns = outcomes):"]
        for label, res in zip(self.input_labels, self.results):
            lines.append(f"  {label:>20s}   " + "  ".join(f"{p:.4f}" for p in res.probs))
        return "\n".join(lines)


def replicate_table(basis_name: str, config: ExperimentConfig) -> FidelityTable:
    """Run the fidelity table over every input of the basis ``basis_name``,
    one of ``hilbert.BASIS_NAMES``.

    Each input draws from its own stream derived from the one config seed,
    so the whole table is reproducible from a single integer.
    """
    basis = named_basis(basis_name)
    return FidelityTable(basis_name, [run_cloning_experiment(phi, basis, config)
                                      for phi in basis.states])


def write_counts_csv(tables, fileobj) -> None:
    """Write counts as RFC-4180 CSV with the columns input, outcome, count."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["input", "outcome", "count"])
    for table in tables:
        for label, count in zip(table.basis_labels, table.counts):
            writer.writerow([table.input_label, label, count])
