"""The benchmark's workloads: inputs made from the seed, one pass of work
through the package's public entry points, and the checks on its outputs.

Every workload object offers ``warm_up()`` (one small operation of the same
kind), ``run()`` (one full pass, timed by the caller) and ``check(output)``
(the output checks, untimed), which returns a :class:`PassReport`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symclone import bosonic, cli, cloning, experiment, hilbert


@dataclass
class PassReport:
    """Outcome of the checks on one pass, plus what the pass wrote."""

    checks: list[tuple[str, bool]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    coincidences: int = 0
    output_bytes: int = 0

    def expect(self, name: str, ok) -> bool:
        self.checks.append((name, bool(ok)))
        return bool(ok)


def _werner_fidelity(n: int, m: int, d: int) -> float:
    """Optimal symmetric N -> M cloning fidelity (Werner, PRA 58, 1827, 1998)."""
    return (m - n + n * (m + d)) / (m * (n + d))


def _haar_state(rng: np.random.Generator, d: int) -> hilbert.PureState:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return hilbert.PureState(d, z / np.linalg.norm(z))


# Reference kernels: fixed work of the same kind as a workload's, running
# no symclone code. Timed between passes, they slow down with the host
# while a change to symclone cannot move them.

def numpy_reference() -> float:
    """Monte Carlo-like work: one batch of Philox draws and complex vector math."""
    rng = np.random.Generator(np.random.Philox(2010))
    z = rng.standard_normal((4096, 8))
    u = rng.random(4096)
    chi = z[:, :4] + 1j * z[:, 4:]
    p = np.abs(chi.sum(axis=1)) ** 2
    return float(np.cumsum(p * u)[-1])


def python_reference() -> float:
    """Fock-engine-like work: a dict of occupation-like tuple keys with complex values."""
    terms = {}
    for i in range(4096):
        key = (i % 7, i % 11, i % 13)
        terms[key] = terms.get(key, 0j) + complex(i, -i) * 0.5
    return sum(abs(a) for a in terms.values())


class _MonteCarlo:
    """``symclone experiment`` through ``cli.main``, writing CSV and JSON."""

    basis = ""
    shots = 0
    small_shots = 2_000
    flags: tuple[str, ...] = ()
    reference = staticmethod(numpy_reference)

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.out_dir = Path(out_dir)
        if small:
            self.shots = self.small_shots
        self._common = ["experiment", "--basis", self.basis, "--seed", str(seed),
                        *self.flags, "--out-dir", str(self.out_dir)]
        self.argv = [*self._common, "--shots", str(self.shots)]
        self.csv_path = self.out_dir / f"experiment_{self.basis}.csv"
        self.json_path = self.out_dir / f"experiment_{self.basis}.json"
        self._validator = None

    def warm_up(self) -> None:
        # one shot per input: a single batch of each RNG stream family
        with redirect_stdout(io.StringIO()):
            code = cli.main([*self._common, "--shots", "1"])
        if code != 0:
            raise RuntimeError(f"warm-up experiment exited with code {code}")

    def run(self) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, code: int) -> PassReport:
        report = PassReport()
        if not report.expect("cli exit code is 0", code == 0):
            return report
        csv_bytes = self.csv_path.read_bytes()
        json_bytes = self.json_path.read_bytes()
        report.digests = {
            self.csv_path.name: hashlib.sha256(csv_bytes).hexdigest(),
            self.json_path.name: hashlib.sha256(json_bytes).hexdigest(),
        }
        report.output_bytes = len(csv_bytes) + len(json_bytes)
        summary = json.loads(json_bytes)
        errors = list(self.validator().iter_errors(summary))
        report.expect("summary JSON matches experiment_summary schema", not errors)
        for table in summary["counts"]:
            total = sum(table["counts"].values())
            report.coincidences += total
            report.expect(f"JSON counts of {table['input']} sum to shots", total == self.shots)
        csv_totals = Counter()
        for row in csv.DictReader(io.StringIO(csv_bytes.decode())):
            csv_totals[row["input"]] += int(row["count"])
        report.expect("CSV has one table per input", len(csv_totals) == len(summary["inputs"]))
        for label, total in csv_totals.items():
            report.expect(f"CSV counts of {label} sum to shots", total == self.shots)
        self.check_fidelities(summary, report)
        return report

    def check_fidelities(self, summary: dict, report: PassReport) -> None:
        raise NotImplementedError

    def validator(self):
        if self._validator is None:
            from jsonschema import Draft7Validator

            schema_file = Path(experiment.__file__).parent / "schemas" / "experiment_summary.schema.json"
            self._validator = Draft7Validator(json.loads(schema_file.read_text()))
        return self._validator


class McIdealI(_MonteCarlo):
    """The paper's headline table: ideal bench, logical basis, 1e5 shots."""

    basis = "I"
    shots = 100_000

    def check_fidelities(self, summary, report):
        # 5 sigma keeps the check independent of the seed
        for label, res in zip(summary["inputs"], summary["results"]):
            report.expect(
                f"fidelity of {label} within 5 sigma of 0.7",
                abs(res["fidelity"] - 0.7) <= 5.0 * res["stderr"],
            )


class McDegradedIV(_MonteCarlo):
    """The degraded entangled-basis bench of acceptance criterion 6."""

    basis = "IV"
    shots = 50_000
    flags = ("--v", "0.9165", "--prep-fid", "0.9", "--analysis-fid", "0.9",
             "--ancilla-weights", "0.3,0.3,0.2,0.2")

    def check_fidelities(self, summary, report):
        average = summary["average"]["fidelity"]
        report.expect("average fidelity in (0.40, 0.70)", 0.40 < average < 0.70)


class CascadeGrid:
    """``cascade_clone`` over a grid of (d, N, M) and input states."""

    reference = staticmethod(python_reference)

    def __init__(self, seed: int, out_dir: Path | None = None, small: bool = False):
        rng = np.random.default_rng(seed)
        d4_inputs = [
            ("I:1", hilbert.basis_logical().states[0]),
            ("IV:1", hilbert.basis_four().states[0]),
            ("haar4", _haar_state(rng, 4)),
        ]
        top = 4 if small else 6
        self.cases = [
            (label, phi, cloning.CloningSpec(d=4, n=1, m=m))
            for m in range(2, top + 1)
            for label, phi in d4_inputs
        ]
        extra = ((2, 1, 4), (2, 2, 4), (3, 1, 3)) if small else ((2, 1, 8), (2, 2, 8), (3, 1, 6))
        for d, n, m in extra:
            self.cases.append((f"haar{d}", _haar_state(rng, d), cloning.CloningSpec(d=d, n=n, m=m)))

    @staticmethod
    def _clone(phi, spec):
        # raise the Fock-space guard only where the grid goes past it
        if spec.m > cloning.DEFAULT_CASCADE_CAP:
            return cloning.cascade_clone(phi, spec, cap=spec.m)
        return cloning.cascade_clone(phi, spec)

    def warm_up(self) -> None:
        self._clone(hilbert.basis_logical().states[0], cloning.CloningSpec(d=4, n=1, m=2))

    def run(self) -> list:
        return [self._clone(phi, spec) for _, phi, spec in self.cases]

    def check(self, outcomes) -> PassReport:
        report = PassReport()
        for (label, _, spec), out in zip(self.cases, outcomes, strict=True):
            case = f"{label} {spec.n}->{spec.m} d={spec.d}"
            report.expect(
                f"cascade {case} fidelity equals f_clon within 1e-9",
                abs(out.fidelity - _werner_fidelity(spec.n, spec.m, spec.d)) <= 1e-9,
            )
            report.expect(f"cascade {case} success in (0, 1]", 0.0 < out.success_prob <= 1.0)
        return report


class EngineSmall:
    """Thousands of tiny two-photon states: HOM curves and ``clone_oracle``.

    The inputs are fixed bench states, so the seed does not change them.
    """

    reference = staticmethod(python_reference)

    def __init__(self, seed: int, out_dir: Path | None = None, small: bool = False):
        # the eight d = 4 bench states: basis I, then basis IV
        self.states = [*hilbert.basis_logical().states, *hilbert.basis_four().states]
        self.model = bosonic.DistinguishabilityModel.from_spectrum(795.0, 4.5)
        # an odd step count puts one sample exactly at zero delay
        self.delays = np.linspace(-1000.0, 1000.0, 9 if small else 81) * 1e-15
        top = 4 if small else 16
        self.oracle_inputs = self.states + [hilbert.basis_state(d, 0) for d in range(2, top + 1)]

    def warm_up(self) -> None:
        cloning.clone_oracle(self.states[0], 4)

    def run(self) -> tuple[list, list]:
        curves = [bosonic.hom_curve(psi, psi, self.delays, self.model) for psi in self.states]
        clones = [cloning.clone_oracle(phi, phi.dim) for phi in self.oracle_inputs]
        return curves, clones

    def check(self, output) -> PassReport:
        curves, clones = output
        report = PassReport()
        for k, rows in enumerate(curves):
            at_zero = [r for tau, r in rows if tau == 0.0]
            report.expect(
                f"HOM R(0) of bench state {k} equals 2 within 1e-12",
                len(at_zero) == 1 and abs(at_zero[0] - 2.0) <= 1e-12,
            )
        for phi, out in zip(self.oracle_inputs, clones, strict=True):
            d = phi.dim
            report.expect(
                f"clone_oracle fidelity at d={d} equals 1/2 + 1/(d+1) within 1e-12",
                abs(out.fidelity - (0.5 + 1.0 / (d + 1))) <= 1e-12,
            )
        return report


_CLASSES = {
    "mc_ideal_I": McIdealI,
    "mc_degraded_IV": McDegradedIV,
    "cascade_grid": CascadeGrid,
    "engine_small": EngineSmall,
}
WORKLOADS = tuple(_CLASSES)


def build(name: str, seed: int, out_dir: Path, small: bool = False):
    """Make the named workload's inputs from ``seed``; ``out_dir`` takes CLI output."""
    return _CLASSES[name](seed, out_dir, small)
