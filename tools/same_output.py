"""Check that two source trees give byte-identical CLI output.

    python tools/same_output.py --against DIR [--shots N] [--seeds 0-9,17]

Runs a fixed matrix of ``symclone`` commands on this checkout's ``src/`` and
on ``DIR/src`` and compares every output byte for byte: per seed,
``experiment`` on basis I, on the degraded basis-IV bench, on basis IV with
``--v 0.8 --analysis-fid 0.5``, on the prep-only basis-IV bench, where
only the signal is ever replaced, on basis IV with ``--prep-fid 0
--analysis-fid 0``, where every state is replaced, and on basis I with
``--analysis-fid 0.7`` alone (standard output, CSV and JSON), and once
four ``cascade --json`` runs (the last 1 -> 10 at d = 8), one ``cascade``
text run, ``clone --json``, ``clone --mode oracle --json`` and the default
``hom`` curve (standard output). It prints ``identical``
or ``different`` per command, and for a differing JSON file whose two sides
hold the same keys, lengths and non-numeric values, the largest absolute
difference over its numbers. It exits with 0 when every output is
identical, 1 when one differs and 2 when a tree cannot run.

Another revision's tree comes from git:

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python tools/same_output.py --against ../parent --seeds 0-9

Each tree runs in its own interpreter with one BLAS thread and imports only
its own ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    "clone --json": ["clone", "--json"],
    "clone --mode oracle --json IV:3": ["clone", "--mode", "oracle", "--json", "--input", "IV:3"],
    "hom": ["hom"],
}

# Runs in the tree's own interpreter: argv[1] is the output directory,
# argv[2] a JSON list of [name, argv]. Each command writes its standard
# output, and any files it writes, into a directory of its own.
_WORKER = """
import contextlib, json, os, sys
from symclone import cli
out = os.path.abspath(sys.argv[1])
for i, (name, argv) in enumerate(json.loads(sys.argv[2])):
    here = os.path.join(out, str(i))
    os.makedirs(here)
    os.chdir(here)
    with open("stdout", "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(argv)
    if code:
        sys.exit(f"{name}: exit code {code}")
"""


def _seeds(text: str) -> list[int]:
    """``0-9,17`` -> [0, 1, ..., 9, 17]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
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
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", _WORKER, str(out), json.dumps(matrix)],
                            env=env, capture_output=True, text=True)
    if result.returncode:
        raise RuntimeError(f"{tree}: {result.stderr.strip()}")


def _outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


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
    parser.add_argument("--against", required=True, type=Path,
                        help="root of the other tree (it must hold src/symclone)")
    parser.add_argument("--shots", type=int, default=10_000)
    parser.add_argument("--seeds", type=_seeds, default=[0], help="e.g. 0-9 or 3,5,11-12")
    args = parser.parse_args(argv)
    trees = (ROOT, args.against.resolve())
    for tree in trees:
        if not (tree / "src" / "symclone" / "__init__.py").is_file():
            print(f"error: no symclone source tree at {tree / 'src'}", file=sys.stderr)
            return 2
    matrix = _commands(args.shots, args.seeds)
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
            differs = sorted(f for f in mine.keys() | theirs.keys() if mine.get(f) != theirs.get(f))
            different += bool(differs)
            files = ", ".join(f + _difference(mine.get(f), theirs.get(f)) for f in differs)
            print(f"{'different' if differs else 'identical'}  {name}"
                  + (f"  ({files})" if differs else ""))
    print(f"{len(matrix) - different}/{len(matrix)} commands identical")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
