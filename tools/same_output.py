"""Check that two source trees give byte-identical CLI output.

    python tools/same_output.py --against DIR [--shots N] [--seeds 0-9,17]
    python tools/same_output.py --record tests/data/cli_digests.json

Runs a fixed matrix of ``symclone`` commands: each command of
``_EXPERIMENTS`` once per seed, then each command of ``_ONCE`` once. A
command's outputs are its standard output, its standard error, its exit
code and the files it writes.

``--against`` runs the matrix on this checkout's ``src/`` and on
``DIR/src`` and compares every output byte for byte. It prints
``identical`` or ``different`` per command, and for a differing JSON file
whose two sides hold the same keys, lengths and non-numeric values, the
largest absolute difference over its numbers. It exits with 0 when every
output is identical, 1 when one differs and 2 when a tree cannot run.
Another revision's tree comes from git:

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python tools/same_output.py --against ../parent --seeds 0-9

Each tree runs in its own interpreter with one BLAS thread and imports only
its own ``src/``.

``--record FILE`` runs the matrix at seed 0 and 2000 shots in this
interpreter, on this checkout's ``src/``, and writes the sha256 of every
output to FILE, with the numpy and Python versions that ran it and the
stream layout of the Monte Carlo. The test suite re-runs that matrix and
compares the digests, so a change that alters any output on purpose
records the file again.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]

_EXPERIMENTS = {
    "experiment I": ["--basis", "I"],
    "experiment IV degraded": ["--basis", "IV", "--v", "0.9165", "--prep-fid", "0.9",
                               "--analysis-fid", "0.9", "--ancilla-weights", "0.3,0.3,0.2,0.2"],
    "experiment IV v=0.8 analysis-fid=0.5": ["--basis", "IV", "--v", "0.8", "--analysis-fid", "0.5"],
    "experiment IV prep-fid=0.8": ["--basis", "IV", "--v", "0.95", "--prep-fid", "0.8",
                                   "--ancilla-weights", "0.4,0.2,0.2,0.2"],
    "experiment IV all replaced": ["--basis", "IV", "--v", "0.9", "--prep-fid", "0",
                                   "--analysis-fid", "0"],
    "experiment I analysis-fid=0.7": ["--basis", "I", "--v", "0.9", "--analysis-fid", "0.7"],
}
_ONCE = {
    "cascade --json": ["cascade", "--json"],
    "cascade --json 2->6 IV:2": ["cascade", "--json", "--n", "2", "--m", "6", "--input", "IV:2"],
    "cascade --json 1->8 d=2 amplitudes": ["cascade", "--json", "--m", "8", "--cap", "8",
                                           "--input", "0.6,0.8j"],
    "cascade --json 1->10 d=8 amplitudes": ["cascade", "--json", "--n", "1", "--m", "10",
                                            "--cap", "10", "--input",
                                            "0.5,0.5j,-0.4,-0.4j,0.3,0.2j,-0.2,0.1"],
    "cascade 2->6 IV:2": ["cascade", "--n", "2", "--m", "6", "--input", "IV:2"],
    "clone": ["clone"],
    "clone --json": ["clone", "--json"],
    "cascade --json 1->2 IV:3": ["cascade", "--json", "--m", "2", "--input", "IV:3"],
    "hom": ["hom"],
    "symclone --help": ["--help"],
    **{f"{command} --help": [command, "--help"]
       for command in ("formulas", "clone", "hom", "experiment", "cascade")},
    "formulas --n 2 --m 1 (usage error)": ["formulas", "--n", "2", "--m", "1"],
    "clone --input I:9 (usage error)": ["clone", "--input", "I:9"],
    "hom --steps 1 (usage error)": ["hom", "--steps", "1"],
    "experiment --basis X (usage error)": ["experiment", "--basis", "X"],
    "cascade --m 9 (usage error)": ["cascade", "--m", "9"],
    "clone --json d=3 amplitudes": ["clone", "--json", "--input", "0.6,0.8j,0"],
    "clone IV:2": ["clone", "--input", "IV:2"],
    "hom IV:1 ancilla I:1": ["hom", "--input", "IV:1", "--ancilla", "I:1"],
    "clone --json --input=-0.6,0.8": ["clone", "--json", "--input=-0.6,0.8"],
    # several draws of batches per input, so the size of each draw shows
    "experiment IV degraded --shots 20000": ["experiment", *_EXPERIMENTS["experiment IV degraded"],
                                             "--shots", "20000"],
}

# The size of the recorded digests: small enough for the test suite.
DIGEST_SHOTS = 2000
DIGEST_SEEDS = [0]

# Set for every run: one BLAS thread, and the width argparse wraps help
# texts at, which otherwise follows the terminal. A run in this interpreter,
# which has loaded its BLAS already, gets only the width.
_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "COLUMNS": "80"}

# Runs in the other tree's interpreter: argv[1] is the output directory,
# argv[2] a JSON list of [name, argv].
_WORKER = f"""
import json, runpy, sys
runpy.run_path({str(Path(__file__).resolve())!r})["_write_outputs"](sys.argv[1], json.loads(sys.argv[2]))
"""


def _write_outputs(out, matrix) -> None:
    """Run each (name, argv) of ``matrix`` through ``symclone.cli.main`` in
    this interpreter, in directory ``out/<position>``, which then holds the
    command's standard output, its standard error, its exit code (``--help``
    exits through SystemExit) and any files it writes."""
    from symclone import cli

    out = os.path.abspath(out)
    cwd = os.getcwd()
    try:
        for i, (_, argv) in enumerate(matrix):
            here = os.path.join(out, str(i))
            os.makedirs(here)
            os.chdir(here)
            with open("stdout", "w") as fh, open("stderr", "w") as eh, \
                    contextlib.redirect_stdout(fh), contextlib.redirect_stderr(eh):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            with open("exit", "w") as fh:
                fh.write(f"{code}\n")
    finally:
        os.chdir(cwd)


def _seeds(text: str) -> list[int]:
    """``0-9,17`` -> [0, 1, ..., 9, 17]. A part that names no seed, such as
    an empty or a reversed range, is an argparse error that quotes it."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        hi = hi if sep else lo
        if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}: expected N or LO-HI with LO <= HI")
        seeds.extend(range(int(lo), int(hi) + 1))
    return seeds


def _commands(shots: int, seeds: list[int]) -> list[tuple[str, list[str]]]:
    """The matrix: (name, argv) per command, with paths relative to its directory."""
    matrix = [
        (f"{name} seed {seed}",
         ["experiment", *args, "--shots", str(shots), "--seed", str(seed), "--out-dir", "."])
        for seed in seeds
        for name, args in _EXPERIMENTS.items()
    ]
    return matrix + list(_ONCE.items())


def _run(tree: Path, matrix, out: Path) -> None:
    env = {**os.environ, **_ENV, "PYTHONPATH": str(tree / "src")}
    result = subprocess.run([sys.executable, "-c", _WORKER, str(out), json.dumps(matrix)],
                            env=env, capture_output=True, text=True)
    if result.returncode:
        raise RuntimeError(f"{tree}: {result.stderr.strip()}")


def _outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def digests() -> dict[str, dict[str, str]]:
    """The sha256 of every output of the matrix at ``DIGEST_SHOTS`` and
    ``DIGEST_SEEDS``, per command name and output file, run in this
    interpreter on the ``symclone`` it imports."""
    matrix = _commands(DIGEST_SHOTS, DIGEST_SEEDS)
    with mock.patch.dict(os.environ, _ENV), tempfile.TemporaryDirectory() as tmp:
        _write_outputs(tmp, matrix)
        return {name: {file: hashlib.sha256(data).hexdigest()
                       for file, data in _outputs(Path(tmp) / str(i)).items()}
                for i, (name, _) in enumerate(matrix)}


def _differing(mine: dict, theirs: dict) -> list[str]:
    """The output files, sorted, that two runs of one command do not share
    with equal contents (or digests)."""
    return sorted(f for f in mine.keys() | theirs.keys() if mine.get(f) != theirs.get(f))


def _numbers(a, b) -> list[float] | None:
    """|x - y| over the numeric leaves of two JSON values, or None if their shapes differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [_numbers(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [_numbers(x, y) for x, y in zip(a, b)]
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return [abs(a - b)]
    else:
        return [] if type(a) is type(b) and a == b else None
    return None if None in parts else [x for part in parts for x in part]


def _difference(mine: bytes | None, theirs: bytes | None) -> str:
    """': largest difference D over N numbers' for two same-shaped JSON texts, else ''."""
    try:
        diffs = _numbers(json.loads(mine), json.loads(theirs))
    except (TypeError, ValueError):
        return ""
    if not diffs:
        return ""
    return f": largest difference {max(diffs):.3g} over {len(diffs)} numbers"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--against", type=Path,
                      help="root of the other tree (it must hold src/symclone)")
    side.add_argument("--record", type=Path, metavar="FILE",
                      help="write the digests of this checkout's outputs to FILE")
    parser.add_argument("--shots", type=int, help="shots per experiment for --against (default 10000)")
    parser.add_argument("--seeds", type=_seeds, help="seeds for --against, e.g. 0-9 or 3,5,11-12 (default 0)")
    args = parser.parse_args(argv)
    if args.record:
        if args.shots is not None or args.seeds is not None:
            parser.error(f"--record runs at {DIGEST_SHOTS} shots and seeds {DIGEST_SEEDS};"
                         " --shots and --seeds go with --against")
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        from symclone.experiment import STREAM_LAYOUT

        record = {"numpy": numpy.__version__, "python": platform.python_version(),
                  "streamLayout": STREAM_LAYOUT, "shots": DIGEST_SHOTS, "seeds": DIGEST_SEEDS, "digests": digests()}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
        print(f"recorded {len(record['digests'])} commands in {args.record}")
        return 0
    trees = (ROOT, args.against.resolve())
    for tree in trees:
        if not (tree / "src" / "symclone" / "__init__.py").is_file():
            print(f"error: no symclone source tree at {tree / 'src'}", file=sys.stderr)
            return 2
    matrix = _commands(10_000 if args.shots is None else args.shots,
                       [0] if args.seeds is None else args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / str(side) for side in range(2)]
        try:
            for tree, out in zip(trees, outs):
                _run(tree, matrix, out)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        different = 0
        for i, (name, _) in enumerate(matrix):
            mine, theirs = (_outputs(out / str(i)) for out in outs)
            differs = _differing(mine, theirs)
            different += bool(differs)
            files = ", ".join(f + _difference(mine.get(f), theirs.get(f)) for f in differs)
            print(f"{'different' if differs else 'identical'}  {name}"
                  + (f"  ({files})" if differs else ""))
    print(f"{len(matrix) - different}/{len(matrix)} commands identical")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
