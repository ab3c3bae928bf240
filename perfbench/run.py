"""Run the symclone benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of mc_ideal_I, mc_degraded_IV, cascade_grid, engine_small, or
``all`` (each workload in its own process). The last line of standard output
is the result as one JSON object. ``symclone`` is imported from ``src/`` of
the checkout, never from an installed copy; without that tree the run exits
with code 2 and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    # one BLAS thread, set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "symclone" / "__init__.py").is_file():
        print(f"error: no symclone source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
