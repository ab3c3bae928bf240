"""Benchmark runner: fresh-process set-up probes, a closed loop of timed
passes in one thread, the traced passes, and the result record.

End-to-end numbers always come from untraced passes. With ``trace`` set,
every untraced pass is followed by a traced one, and the per-layer metrics
come from the traced passes alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import symclone
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_PY = HERE / "run.py"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900

# Raw pass wall time swings by a fifth from run to run on a shared host, so
# the bounded metric is wall_rel: the pass time over the time of the
# workload's reference kernel, interleaved with the passes. The raw wall_s
# is printed and recorded beside it.
END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}

# Share of each cycle of the pass loop given to the reference kernel.
REF_SHARE = 0.1
FIRST_REF_BURST_S = 0.2


class Checks:
    """Every output check attempted in a run, and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def quartiles(samples: list[float]) -> dict:
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "symclone": symclone.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def setup_probe(name: str, seed: int) -> int:
    """Child side of a set-up probe: build the inputs, warm up, say ``ready``."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workloads.build(name, seed, Path(tmp)).warm_up()
        print("ready", flush=True)
    return 0


def probe_setup(name: str, seed: int) -> float | None:
    """Seconds from spawning a fresh interpreter until its warm-up is done."""
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait()
        finally:
            timer.cancel()
    return elapsed if proc.returncode == 0 and line.strip() == "ready" else None


def _reference_burst(kernel, seconds: float, samples: list) -> None:
    """Time ``kernel`` repeatedly for about ``seconds`` (at least once)."""
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
        if start >= end:
            return


def _pass(workload, checks: Checks, digests: list, tracer=None):
    """Time one pass, traced when a tracer is given, then check its output.

    Returns (seconds, report); the report is None when the pass or its
    checking raised, which counts as a failed check.
    """
    run = workload.run if tracer is None else tracer.wrap("pass", workload.run)
    with tracing.installed(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            output = run()
        except Exception as exc:  # a failing pass is a failed check, not a crashed benchmark
            checks.add(f"pass raised {type(exc).__name__}: {exc}", False)
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
    try:
        report = workload.check(output)
    except Exception as exc:
        checks.add(f"checking raised {type(exc).__name__}: {exc}", False)
        return wall, None
    for name, ok in report.checks:
        checks.add(name, ok)
    if report.digests:
        digests.append(report.digests)
    return wall, report


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Run one workload for ``seconds`` (at least one pass) and return its record."""
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    walls, traced_walls, refs, layers, digests = [], [], [], [], []
    spans = None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.build(name, seed, Path(tmp), small)
        workload.warm_up()
        setup = []
        for _ in range(probes):
            elapsed = probe_setup(name, seed)
            checks.add("fresh-process set-up finished", elapsed is not None)
            if elapsed is not None:
                setup.append(elapsed)

        # closed loop of cycles (reference burst, pass, traced pass): start a
        # cycle only if one more of the median length so far still ends
        # within ``seconds``; the first cycle always runs
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start
                            + (1.0 + REF_SHARE) * statistics.median(walls)
                            + statistics.median(traced_walls or [0.0]) <= seconds):
            _reference_burst(workload.reference, REF_SHARE * statistics.median(walls) if walls
                             else FIRST_REF_BURST_S, refs)
            wall, _ = _pass(workload, checks, digests)
            walls.append(wall)
            if not trace:
                continue
            tracer = tracing.Tracer()
            wall, report = _pass(workload, checks, digests, tracer)
            traced_walls.append(wall)
            if report is not None:
                layers.append(tracing.layer_metrics(tracer, report.coincidences, report.output_bytes))
                if spans is None:
                    spans = tracer.dump()
        # a closing burst, so that a reference burst brackets every pass
        _reference_burst(workload.reference, REF_SHARE * statistics.median(walls), refs)

    if len(digests) > 1:
        checks.add("outputs byte-identical across passes, traced or not", all(d == digests[0] for d in digests))
    if len(layers) > 1:
        checks.add("traced counts repeat across passes", all(
            m[k] == layers[0][k] for m in layers for k in tracing.DETERMINISTIC))

    if trace:
        metrics = {k: 0.0 for k in tracing.PER_LAYER_UNITS}
        for k in layers[0] if layers else ():
            values = [m[k] for m in layers]
            metrics[k] = values[0] if k in tracing.DETERMINISTIC else statistics.median(values)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            # the mean, not the median: the host flips between a fast and a slow
            # state, and a pass's time grows with the share of time spent slow
            "wall_rel": statistics.median(walls) / statistics.fmean(refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    failed = len(checks.failures)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(seed),
        "setup_s": quartiles(setup) if setup else None,
        "wall_s": quartiles(walls),
        "traced_wall_s": quartiles(traced_walls) if traced_walls else None,
        "reference_s": quartiles(refs),
        "error_rate": failed / checks.attempted,
        "failures": checks.failures[:20],
        "digests": digests[0] if digests else {},
        "spans": spans,
        "result": {
            "correct": failed == 0,
            "attempted": checks.attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def _fmt(x) -> str:
    return format(x, ".6g")


def report_lines(record: dict, record_path: Path, spans_path: Path | None) -> list[str]:
    result = record["result"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
        f"  seconds {_fmt(record['seconds'])}",
        "env " + json.dumps(record["env"], sort_keys=True),
    ]
    wall = record["wall_s"]
    if record["trace"]:
        for name, m in result["metrics"].items():
            lines.append(f"{name:40s} {_fmt(m['value']):>12s} {m['unit']}")
        lines.append(f"tracing overhead: traced wall_s {_fmt(record['traced_wall_s']['median'])} s"
                     f" - untraced wall_s {_fmt(wall['median'])} s (medians of {wall['n']} passes each)")
    else:
        setup = record["setup_s"] or {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
        ref = record["reference_s"]
        rel = result["metrics"]["wall_rel"]["value"]
        rss = result["metrics"]["peak_rss_mb"]["value"]
        lines += [
            f"setup_s      {_fmt(setup['median']):>10s} s      median of {setup['n']} fresh processes"
            f" (q1 {_fmt(setup['q1'])}, q3 {_fmt(setup['q3'])})",
            f"wall_s       {_fmt(wall['median']):>10s} s      median of {wall['n']} passes"
            f" (q1 {_fmt(wall['q1'])}, q3 {_fmt(wall['q3'])})",
            f"reference    {_fmt(statistics.fmean(ref['samples'])):>10s} s      mean of {ref['n']}"
            f" reference kernels (q1 {_fmt(ref['q1'])}, q3 {_fmt(ref['q3'])})",
            f"wall_rel     {_fmt(rel):>10s} ratio  wall_s / reference",
            f"peak_rss_mb  {_fmt(rss):>10s} MB     ru_maxrss of the measuring process",
        ]
    lines.append(f"error_rate   {_fmt(record['error_rate']):>10s} ratio "
                 f"  ({result['failed']} failed of {result['attempted']} checks)")
    lines += [f"  failed: {name}" for name in record["failures"]]
    lines += [f"sha256 {name} {digest}" for name, digest in record["digests"].items()]
    lines.append(f"record -> {record_path.relative_to(ROOT)}")
    if spans_path is not None:
        lines.append(f"spans  -> {spans_path.relative_to(ROOT)}")
    return lines


def run_one(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}"
    spans_path = None
    if record["spans"] is not None:
        spans_path = OUT / f"{stem}-spans.json"
        spans_path.write_text(json.dumps(record["spans"]))
    record_path = OUT / f"{stem}-trace{args.trace}.json"
    record_path.write_text(json.dumps({k: v for k, v in record.items() if k != "spans"}, indent=2))
    for line in report_lines(record, record_path, spans_path):
        print(line)
    print(json.dumps(record["result"]))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS is its own."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if results[name] is None or not results[name]["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)
