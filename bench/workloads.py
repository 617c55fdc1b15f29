"""Benchmark ops and the correctness gate that checks every verdict.

An op is one call a user makes: one state or channel decided, or one CLI
command.  ``run()`` is the timed part; ``check(raw)`` runs untimed right
after and returns ``OK``, ``FAILED`` (undecided verdict, exception, or an
unexpected exit code) or ``WRONG`` (a verdict contradicting a reference that
holds by construction, or a witness that does not re-verify).  A wrong
verdict fails the whole run; a failed op only counts towards ``fail_frac``.
"""

from __future__ import annotations

import contextlib
import csv
import io as stdio
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import inputs
from symext import channels, cli, io, oracle
from symext.errors import SymextError
from symext.oracle import Feasibility, OracleOptions
from symext.states import BipartiteState, coherent_information, is_symmetric_extension
from symext.twoqubit import conjecture_margin

OK, FAILED, WRONG = "ok", "failed", "wrong"

WITNESS_TOL = 1e-7
COHERENT_TOL = 1e-6
MARGIN_TOL = 1e-4
DAMPING_FLIP_BAND = 1e-3


@dataclass(frozen=True)
class Outcome:
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class Reference:
    """Verdicts that hold by construction for one state and symmetry mode."""

    coherent_information: float
    margin: float | None  # conjecture margin, two qubits only
    traced: bool

    @classmethod
    def of(cls, rho: BipartiteState, traced: bool) -> "Reference":
        margin = conjecture_margin(rho) if (rho.d_a, rho.d_b) == (2, 2) else None
        return cls(coherent_information(rho), margin, traced)

    def forbids(self, feasible: bool) -> str:
        """Why a FEASIBLE (True) or INFEASIBLE (False) verdict is wrong, or ''."""
        if not feasible and self.traced:
            return "traced-symmetric state declared infeasible"
        if feasible and self.coherent_information > COHERENT_TOL:
            return f"coherent information {self.coherent_information:.3e} > 0 but feasible"
        if self.margin is not None and abs(self.margin) > MARGIN_TOL and feasible != (self.margin > 0):
            return f"verdict contradicts conjecture margin {self.margin:+.3e}"
        return ""


def check_feasibility(result, rho: BipartiteState, ref: Reference) -> Outcome:
    if result.status is Feasibility.UNDECIDED:
        return Outcome(FAILED, "undecided")
    feasible = result.status is Feasibility.FEASIBLE
    why = ref.forbids(feasible)
    if why:
        return Outcome(WRONG, why)
    if feasible and (result.witness is None
                     or not is_symmetric_extension(result.witness, rho, tol=WITNESS_TOL)):
        return Outcome(WRONG, "witness does not re-verify")
    return Outcome(OK)


class StateOp:
    def __init__(self, item: inputs.StateInput):
        self.item = item
        self.opts = OracleOptions(symmetry=item.mode)

    @property
    def label(self) -> str:
        return self.item.label

    def run(self):
        return oracle.find_symmetric_extension(self.item.rho, self.opts)

    @cached_property
    def reference(self) -> Reference:
        return Reference.of(self.item.rho, self.item.traced)

    def check(self, result) -> Outcome:
        return check_feasibility(result, self.item.rho, self.reference)


class ChannelOp:
    def __init__(self, item: inputs.ChannelInput):
        self.item = item

    @property
    def label(self) -> str:
        return self.item.label

    def run(self):
        return channels.classify_channel(self.item.channel)

    @cached_property
    def choi_states(self) -> tuple[tuple[BipartiteState, Reference], ...]:
        """Choi states, with references, whose extendibility decides
        (degradable, anti-degradable)."""
        channel = self.item.channel
        pair = (channels.choi_state(channels.complementary_channel(channel)).state,
                channels.choi_state(channel).state)
        return tuple((rho, Reference.of(rho, traced=False)) for rho in pair)

    def check(self, result) -> Outcome:
        outcomes = [check_feasibility(part, rho, ref)
                    for part, (rho, ref) in zip((result.degradable, result.anti_degradable),
                                                self.choi_states)]
        worst = min(outcomes, key=lambda o: (WRONG, FAILED, OK).index(o.kind))
        if worst.kind != OK:
            return worst
        if result.tag is channels.ChannelTag.UNDECIDED:
            return Outcome(FAILED, "undecided")
        return Outcome(OK)


class FermionicExampleOp:
    label = "fermionic-qutrit-example"

    def run(self):
        return oracle.fermionic_qutrit_example()

    def check(self, result) -> Outcome:
        rho, bosonic, anysym = result
        if anysym.witness is None or not is_symmetric_extension(anysym.witness, rho, tol=WITNESS_TOL):
            return Outcome(WRONG, "constructed fermionic witness does not re-verify")
        if bosonic.status is Feasibility.FEASIBLE:
            return Outcome(WRONG, "bosonic extension reported for the fermionic-only example")
        if bosonic.status is Feasibility.UNDECIDED:
            return Outcome(FAILED, "undecided")
        return Outcome(OK)


def qubit_sweep_ops(seed: int, workdir: Path) -> list:
    return [StateOp(item) for item in inputs.qubit_sweep(seed)]


def qudit_mix_ops(seed: int, workdir: Path) -> list:
    items = inputs.qudit_mix(seed)
    states = [StateOp(i) for i in items if isinstance(i, inputs.StateInput)]
    chans = [ChannelOp(i) for i in items if isinstance(i, inputs.ChannelInput)]
    # The first op is the warm-up call: the fixed d=27 example starts the BLAS
    # threads, which would otherwise cost the first large op about a second.
    return [FermionicExampleOp()] + states + chans


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

EXIT_ANSWERS = {0: True, 1: False}  # exit code -> "yes" (True) / "no" (False)


def cli_env() -> dict[str, str]:
    """The caller's environment, BLAS settings untouched, with the imported
    ``symext`` source tree first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


class CliOp:
    """One ``symext`` command, as its own interpreter or in-process.

    ``expect(code, stdout)`` returns the Outcome of one run; a command that
    writes a CSV must also write the same bytes every time.
    """

    def __init__(self, argv: list[str], expect, csv_path: Path | None = None):
        self.argv = argv
        self.in_process = False
        self.env = cli_env()
        self.expect = expect
        self.csv_path = csv_path
        self.first_csv: bytes | None = None
        self.peak_rss_kb = 0

    @property
    def label(self) -> str:
        return " ".join(a if "/" not in a else Path(a).name for a in self.argv)

    def run(self):
        if self.in_process:
            out = stdio.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
            return code, out.getvalue()
        proc = subprocess.Popen([sys.executable, "-m", "symext.cli", *self.argv], env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def check(self, raw) -> Outcome:
        code, out = raw
        outcome = self.expect(code, out)
        if outcome.kind != OK or self.csv_path is None:
            return outcome
        data = self.csv_path.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            return Outcome(WRONG, "CSV differs between runs with the same seed")
        return _check_damping_csv(data) if "amplitude-damping" in self.argv else Outcome(OK)


def _expect_verdict(forbids):
    """Exit 0 (yes) or 1 (no), and not the answer ``forbids`` rules out."""
    def expect(code: int, out: str) -> Outcome:
        if code not in EXIT_ANSWERS:
            return Outcome(FAILED, f"exit code {code}: {out.strip()[-200:]}")
        why = forbids(EXIT_ANSWERS[code])
        return Outcome(WRONG, why) if why else Outcome(OK)
    return expect


def _expect_exit_zero(code: int, out: str) -> Outcome:
    return Outcome(OK) if code == 0 else Outcome(FAILED, f"exit code {code}: {out.strip()[-200:]}")


def _expect_witness(path: Path, rho: BipartiteState):
    def expect(code: int, out: str) -> Outcome:
        outcome = _expect_verdict(Reference.of(rho, traced=True).forbids)(code, out)
        if outcome.kind != OK:
            return outcome
        try:
            sigma = io.load_extension(str(path), rho)
        except SymextError as exc:
            return Outcome(WRONG, f"written witness does not load: {exc}")
        if not is_symmetric_extension(sigma, rho, tol=WITNESS_TOL):
            return Outcome(WRONG, "written witness does not re-verify")
        return Outcome(OK)
    return expect


def _expect_class(allowed: set[str] | None):
    def expect(code: int, out: str) -> Outcome:
        if code != 0:
            return Outcome(FAILED, f"exit code {code}: {out.strip()[-200:]}")
        label = out.split("classification:", 1)[-1].split()[0] if "classification:" in out else "?"
        if allowed is not None and label not in allowed:
            return Outcome(WRONG, f"classified {label}, expected one of {sorted(allowed)}")
        return Outcome(OK)
    return expect


def damping_classes(eta: float) -> set[str] | None:
    """Amplitude damping is anti-degradable below eta = 1/2 and degradable above."""
    if abs(eta - 0.5) <= DAMPING_FLIP_BAND:
        return None
    return {"anti-degradable", "both"} if eta < 0.5 else {"degradable", "both"}


def _check_damping_csv(data: bytes) -> Outcome:
    for row in csv.DictReader(stdio.StringIO(data.decode())):
        allowed = damping_classes(float(row["eta"]))
        if allowed is not None and row["class"] not in allowed:
            return Outcome(WRONG, f"scan amplitude-damping: eta={row['eta']} classified {row['class']}")
    return Outcome(OK)


def cli_ops(seed: int, workdir: Path) -> list:
    objects = inputs.cli_files(seed, workdir)
    path = {stem: str(workdir / f"{stem}.json") for stem in objects}
    ops = [CliOp(["check", path[stem]],
                 _expect_verdict(Reference.of(objects[stem], traced=False).forbids))
           for stem in objects if stem.split("-")[0] in inputs.CHECK_FAMILIES]
    witness = workdir / "witness.json"
    eta = abs(objects["damping"].kraus[0][1, 1]) ** 2
    ops += [
        CliOp(["extend", path["traced"], "-o", str(witness)],
              _expect_witness(witness, objects["traced"])),
        CliOp(["verify-extension", str(witness), path["traced"]],
              _expect_verdict(lambda yes: "" if yes else "verified witness rejected")),
        CliOp(["channel", "classify", path["damping"]], _expect_class(damping_classes(eta))),
        # qubit channels with a qubit environment are degradable or anti-degradable
        CliOp(["channel", "classify", path["qubit_channel"]],
              _expect_class({"degradable", "anti-degradable", "both"})),
    ]
    for family, flags in (("zcorr", ["--seed", str(seed), "--samples", "200"]),
                          ("bell", ["--steps", "12"]),
                          ("amplitude-damping", ["--steps", "50"])):
        out = workdir / f"scan-{family}.csv"
        ops.append(CliOp(["scan", family, *flags, "--csv", str(out)], _expect_exit_zero, out))
    return ops


OPS_BY_WORKLOAD = {"qubit-sweep": qubit_sweep_ops, "qudit-mix": qudit_mix_ops, "cli": cli_ops}
