"""Command-line front-end of symclone: closed-form fidelities, the cloned
state of one input, HOM curves, coincidence-count experiments and
beam-splitter cascades.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Errors go to
stderr as a single line with an ``error:`` prefix. A reader that closes
standard output early (``symclone clone --json | head -1``) is no error:
the rest of the output is dropped, nothing is printed on stderr and the
exit code is 0. Floating output is printed with 6 significant digits;
``--json`` switches to full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiment
from .bosonic import DistinguishabilityModel, hom_curve
from .cloning import (
    DEFAULT_CASCADE_CAP,
    CloningSpec,
    cascade_clone,
    clone_analytic,
    f_clon,
    f_est,
)
from .hilbert import BASIS_NAMES, PureState, named_basis

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

OUT_DIR_ENV = "SYMCLONE_OUT_DIR"

# Largest ``hom --steps``: one curve row per step is computed and printed.
HOM_MAX_STEPS = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; remap to the documented usage code.
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _json(payload) -> str:
    """Strict JSON: a NaN or an infinity raises instead of printing a bare token."""
    return json.dumps(payload, indent=2, allow_nan=False)


def parse_state_spec(spec: str) -> tuple[PureState, str]:
    """Parse ``BASIS:index`` (e.g. I:1, IV:3; 1-based) or raw amplitudes.

    Raw amplitudes are comma-separated Python complex literals and are
    normalized on parse (``PureState.normalized``), with a warning if the
    norm is off by more than 1e-6. Returns the state and a display label.
    """
    spec = spec.strip()
    name, colon, idx_text = spec.partition(":")
    if colon and name in BASIS_NAMES:
        basis = named_basis(name)
        try:
            idx = int(idx_text)
        except ValueError:
            raise _UsageError(f"bad basis index in {spec!r}") from None
        if not 1 <= idx <= basis.dim:
            raise _UsageError(f"basis index must be 1..{basis.dim}, got {idx}")
        return basis.states[idx - 1], f"{name}:{idx}"
    try:
        amps = np.array([complex(tok.strip()) for tok in spec.split(",")])
    except ValueError:
        raise _UsageError(f"cannot parse state spec {spec!r}") from None
    state = PureState.normalized(amps)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        print(f"warning: normalizing input state (norm was {_fmt(norm)})", file=sys.stderr)
    return state, spec


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"cannot parse ancilla weights {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="symclone", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formulas", help="closed-form estimation and cloning fidelities")
    p.add_argument("--n", type=int, default=1, help="input copies N")
    p.add_argument("--m", type=int, default=2, help="output copies M")
    p.add_argument("--d", type=int, default=4, help="internal dimension")
    p.add_argument("--json", action="store_true", help="full-precision JSON output")

    p = sub.add_parser("clone", help="1 -> 2 cloning of one input state")
    p.add_argument("--input", default="I:1", help="state spec: BASIS:index or amplitudes")
    p.add_argument("--json", action="store_true", help="full-precision JSON output")

    p = sub.add_parser("hom", help="coalescence enhancement versus path delay (CSV)")
    p.add_argument("--input", default="I:4", help="signal state spec")
    p.add_argument("--ancilla", default=None, help="ancilla state spec (default: same as input)")
    p.add_argument("--tau-min-fs", type=float, default=-1000.0)
    p.add_argument("--tau-max-fs", type=float, default=1000.0)
    p.add_argument("--steps", type=int, default=81,
                   help=f"number of delays, 2..{HOM_MAX_STEPS} (default: 81)")
    p.add_argument("--wavelength-nm", type=float, default=795.0)
    p.add_argument("--bandwidth-nm", type=float, default=4.5)
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")

    p = sub.add_parser("experiment", help="coincidence-count run over a full basis")
    p.add_argument("--basis", choices=BASIS_NAMES, default="I")
    p.add_argument("--shots", type=int, default=None, help="post-selected coincidences per input")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--v", type=float, default=None, help="wavepacket overlap at the splitter")
    p.add_argument("--prep-fid", type=float, default=None)
    p.add_argument("--analysis-fid", type=float, default=None)
    p.add_argument("--ancilla-weights", default=None, help="comma-separated, must sum to 1")
    p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default: ${OUT_DIR_ENV} or the cwd)")

    p = sub.add_parser("cascade", help="N -> M cloning through a beam-splitter chain")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--input", default="I:1", help="state spec: BASIS:index or amplitudes")
    p.add_argument("--cap", type=int, default=DEFAULT_CASCADE_CAP,
                   help="largest allowed M (default: %(default)s)")
    p.add_argument("--json", action="store_true", help="full-precision JSON output")

    return parser


def _cmd_formulas(args) -> int:
    est = f_est(args.n, args.d)
    clon = f_clon(args.n, args.m, args.d)
    payload = {
        "N": args.n,
        "M": args.m,
        "d": args.d,
        "fEst": est,
        "fClon": clon,
        "advantage": clon - est,
    }
    if args.json:
        print(_json(payload))
    else:
        print(f"f_est(N={args.n}, d={args.d})          = {_fmt(est)}")
        print(f"f_clon(N={args.n}, M={args.m}, d={args.d})    = {_fmt(clon)}")
        print(f"cloning advantage          = {_fmt(clon - est)}")
    return EXIT_OK


def _cmd_clone(args) -> int:
    phi, label = parse_state_spec(args.input)
    outcome = clone_analytic(phi)
    payload = outcome.to_dict()
    payload["input"] = label
    if args.json:
        print(_json(payload))
    else:
        diag = np.real(np.diag(outcome.clone_state.mat))
        print(f"input            {label}  (d={phi.dim})")
        print(f"fidelity         {_fmt(outcome.fidelity)}")
        print(f"success prob     {_fmt(outcome.success_prob)}")
        print(f"clone state diag {', '.join(_fmt(x) for x in diag)}")
    return EXIT_OK


def _cmd_hom(args) -> int:
    if not all(map(math.isfinite, (args.tau_min_fs, args.tau_max_fs))):
        raise _UsageError("delay bounds must be finite")
    if args.steps < 2 or args.tau_max_fs <= args.tau_min_fs:
        raise _UsageError("need an increasing delay range with at least 2 steps")
    if not math.isfinite(args.tau_max_fs - args.tau_min_fs):
        raise _UsageError("the delay range is too wide to represent")
    if args.steps > HOM_MAX_STEPS:
        raise _UsageError(f"--steps must be at most {HOM_MAX_STEPS}, got {args.steps}")
    signal, _ = parse_state_spec(args.input)
    ancilla, _ = (
        parse_state_spec(args.ancilla) if args.ancilla else (signal, args.input)
    )
    if ancilla.dim != signal.dim:
        raise _UsageError("signal and ancilla dimensions differ")
    model = DistinguishabilityModel.from_spectrum(args.wavelength_nm, args.bandwidth_nm)
    delays = np.linspace(args.tau_min_fs, args.tau_max_fs, args.steps) * 1e-15
    rows = hom_curve(signal, ancilla, delays, model)
    lines = ["tau_fs,R"]
    lines += [f"{tau * 1e15:.6g},{r:.9g}" for tau, r in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.steps} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _experiment_config(args) -> experiment.ExperimentConfig:
    data = {}
    if args.config:
        # JSON is UTF-8 text; a file that is not is a usage error that names it
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _UsageError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise _UsageError(f"config file {args.config} must hold a JSON object")
    weights = args.ancilla_weights
    flags = {  # each flag's value by config field; a given flag wins over the file
        "shots": args.shots,
        "v": args.v,
        "prep_fidelity": args.prep_fid,
        "analysis_fidelity": args.analysis_fid,
        "seed": args.seed,
        "ancilla_weights": None if weights is None else _parse_weights(weights),
    }
    data.update({experiment._KEYS[name]: value for name, value in flags.items() if value is not None})
    return experiment.ExperimentConfig.from_dict(data)


def _cmd_experiment(args) -> int:
    config = _experiment_config(args)
    table = experiment.replicate_table(args.basis, config)
    summary = _json(table.to_dict()) + "\n"
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"experiment_{args.basis}.csv"
    json_path = out_dir / f"experiment_{args.basis}.json"
    with open(csv_path, "w", newline="") as fh:
        experiment.write_counts_csv(table.tables, fh)
    with open(json_path, "w") as fh:
        fh.write(summary)
    print(table)
    print()
    print(f"counts  -> {csv_path}")
    print(f"summary -> {json_path}")
    return EXIT_OK


def _cmd_cascade(args) -> int:
    phi, label = parse_state_spec(args.input)
    spec = CloningSpec(d=phi.dim, n=args.n, m=args.m)
    outcome = cascade_clone(phi, spec, cap=args.cap)
    formula = f_clon(args.n, args.m, phi.dim)
    payload = outcome.to_dict()
    payload["input"] = label
    payload["formulaFidelity"] = formula
    difference = outcome.fidelity - formula
    payload["difference"] = difference
    if args.json:
        print(_json(payload))
    else:
        # below 1e-12 the difference is rounding residue of the stage arithmetic
        shown = 0.0 if abs(difference) < 1e-12 else difference
        print(f"cascade {args.n} -> {args.m}, d={phi.dim}, input {label}")
        print(f"cascade fidelity  {_fmt(outcome.fidelity)}")
        print(f"formula fidelity  {_fmt(formula)}")
        print(f"difference        {_fmt(shown)}")
        print(f"success prob      {_fmt(outcome.success_prob)}")
    return EXIT_OK


_HANDLERS = {
    "formulas": _cmd_formulas,
    "clone": _cmd_clone,
    "hom": _cmd_hom,
    "experiment": _cmd_experiment,
    "cascade": _cmd_cascade,
}

# Built once, at import: each ``parse_args`` call fills a fresh namespace.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output: send what is left to the null
        # device, so that the flush at exit cannot fail again (the "Note on
        # SIGPIPE" of Python's signal module documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (_UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad argument values are usage errors; I/O and run failures are runtime
        return EXIT_RUNTIME if isinstance(exc, (OSError, RuntimeError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
