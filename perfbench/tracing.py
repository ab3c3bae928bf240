"""Outside-in tracing: timing wrappers put on the package's module
attributes for the length of one pass, and the per-layer metrics made from
the spans they record.

Callers inside the package look these functions up through their module
(``bosonic.beam_splitter`` from ``cloning``, a module global from inside
``bosonic``), so replacing the attribute is enough to see every call. Each
span is ``[name, parent index, start, end]``; a layer's self time is its
span minus the spans of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from symclone import bosonic, cli, cloning, experiment

BOSONIC_TIMED = ("beam_splitter", "postselect_same_port", "reduced_single_photon",
                 "add_photon", "coalescence_enhancement")

# (module, attribute) pairs that get a span
SPANNED = (
    (cli, "main"),
    (experiment, "replicate_table"),
    (experiment, "run_cloning_experiment"),
    (cloning, "cascade_clone"),
    (cloning, "clone_oracle"),
    *((bosonic, fn) for fn in BOSONIC_TIMED),
)

PER_LAYER_UNITS = {
    "experiment.run_s": "s",
    "experiment.batches": "count",
    "experiment.trials": "count",
    "experiment.yield": "ratio",
    "experiment.batch_ms": "ms",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cloning.cascade_s": "s",
    "cloning.cascade_self_s": "s",
    "cloning.oracle_s": "s",
    "cloning.oracle_self_s": "s",
    **{f"bosonic.{fn}.{kind}": unit for fn in BOSONIC_TIMED
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "bosonic.beam_splitter.terms_in": "count",
    "bosonic.beam_splitter.terms_out": "count",
    "bosonic.beam_splitter.us_per_term_in": "us",
    "bosonic.postselect.kept_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that are fixed by the seed: two traced passes must agree exactly.
DETERMINISTIC = frozenset(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes", "ratio")
)


def _count_beam_splitter(counts, args, result):
    counts["beam_splitter.terms_in"] += len(args[0].terms)
    counts["beam_splitter.terms_out"] += len(result.terms)


def _count_postselect(counts, args, result):
    counts["postselect.terms_in"] += len(args[0].terms)
    counts["postselect.terms_kept"] += len(result[1].terms)


_COUNTERS = {"beam_splitter": _count_beam_splitter, "postselect_same_port": _count_postselect}


class Tracer:
    """Spans and counts of one traced pass, held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call, then ``count(counts, args, result)``."""
        spans, open_, counts, clock = self.spans, self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, open_[-1] if open_ else -1, clock(), 0.0]
            open_.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def count_calls(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_times(self) -> tuple[Counter, defaultdict, defaultdict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for (name, _, start, end), child in zip(self.spans, covered):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
        return calls, total, own

    def dump(self) -> list[dict]:
        """Spans as records, times in seconds from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {"id": i, "name": name, "parent": parent, "start": start - t0, "end": end - t0}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]


@contextmanager
def installed(tracer: Tracer):
    """Swap the traced wrappers in for the ``with`` block, then restore."""
    saved = [(module, attr, getattr(module, attr)) for module, attr in SPANNED]
    saved.append((np.random, "Philox", np.random.Philox))
    try:
        for module, attr, fn in saved[:-1]:
            layer = module.__name__.rsplit(".", 1)[-1]
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", fn, _COUNTERS.get(attr)))
        # one Philox stream per (input, batch): constructions count batches
        np.random.Philox = tracer.count_calls("numpy.random.Philox", np.random.Philox)
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, coincidences: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every name in PER_LAYER_UNITS but ``trace.*``)."""
    calls, total, own = tracer.layer_times()
    counts = tracer.counts
    batches = counts["numpy.random.Philox"]
    trials = batches * experiment.BATCH_TRIALS
    run_s = total["experiment.run_cloning_experiment"]
    metrics = {
        "experiment.run_s": run_s,
        "experiment.batches": batches,
        "experiment.trials": trials,
        "experiment.yield": coincidences / trials if trials else 0.0,
        "experiment.batch_ms": 1e3 * run_s / batches if batches else 0.0,
        "cli.self_s": own["cli.main"],
        "cli.output_bytes": output_bytes,
        "cloning.cascade_s": total["cloning.cascade_clone"],
        "cloning.cascade_self_s": own["cloning.cascade_clone"],
        "cloning.oracle_s": total["cloning.clone_oracle"],
        "cloning.oracle_self_s": own["cloning.clone_oracle"],
    }
    for fn in BOSONIC_TIMED:
        metrics[f"bosonic.{fn}.calls"] = calls[f"bosonic.{fn}"]
        metrics[f"bosonic.{fn}.s"] = total[f"bosonic.{fn}"]
    terms_in = counts["beam_splitter.terms_in"]
    metrics["bosonic.beam_splitter.terms_in"] = terms_in
    metrics["bosonic.beam_splitter.terms_out"] = counts["beam_splitter.terms_out"]
    metrics["bosonic.beam_splitter.us_per_term_in"] = (
        1e6 * total["bosonic.beam_splitter"] / terms_in if terms_in else 0.0
    )
    seen = counts["postselect.terms_in"]
    metrics["bosonic.postselect.kept_ratio"] = counts["postselect.terms_kept"] / seen if seen else 0.0
    return metrics
