"""Command-line front end.

Subcommands: check, extend, verify-extension, channel, gallery, scan.
Exit codes are a stable contract: 0 computed-yes, 1 computed-no,
2 invalid input, 3 undecided.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import gallery, io, states, twoqubit
from .channels import (
    Channel,
    ChannelTag,
    choi_state,
    classify_channel,
    complementary_channel,
)
from .errors import OutOfRange, SymextError
from .oracle import WITNESS_TOL, Feasibility, FeasibilityResult, OracleOptions, decide, find_symmetric_extension

EXIT_YES = 0
EXIT_NO = 1
EXIT_INVALID = 2
EXIT_UNDECIDED = 3


@dataclass
class Verdict:
    question: str
    answer: str  # yes | no | undecided
    method: str
    proven: bool
    residuals: dict = field(default_factory=dict)
    witness_path: str | None = None
    stop_reason: str | None = None

    def exit_code(self) -> int:
        return {"yes": EXIT_YES, "no": EXIT_NO}.get(self.answer, EXIT_UNDECIDED)

    def emit(self, as_json: bool) -> None:
        if as_json:
            payload = {
                "question": self.question,
                "answer": self.answer,
                "method": self.method,
                "proven": self.proven,
                "residuals": {k: float(v) for k, v in self.residuals.items()},
            }
            if self.witness_path:
                payload["witness_path"] = self.witness_path
            if self.stop_reason:
                payload["stop_reason"] = self.stop_reason
            print(json.dumps(payload, sort_keys=True))
            return
        print(f"question: {self.question}")
        print(f"answer: {self.answer}")
        print(f"method: {self.method}")
        print(f"proven: {'true' if self.proven else 'false'}")
        for key, value in self.residuals.items():
            print(f"residual.{key}: {io.format_real(value)}")
        if self.witness_path:
            print(f"witness: {self.witness_path}")


def _witness_tol(args) -> float:
    """Witness re-verification tolerance: --tol, a finite number in (0, 1), else WITNESS_TOL."""
    if args.tol is None:
        return WITNESS_TOL
    if not (math.isfinite(args.tol) and 0.0 < args.tol < 1.0):
        raise OutOfRange(f"--tol must lie in (0, 1), got {args.tol!r}")
    return args.tol


def _verdict(result: FeasibilityResult) -> Verdict:
    """Verdict for a decided state; ``residual.oracle`` when the oracle ran,
    else ``residual.margin`` of the closed form."""
    answer = {Feasibility.FEASIBLE: "yes", Feasibility.INFEASIBLE: "no"}.get(
        result.status, "undecided")
    residuals = {"oracle" if result.stop_reason else "margin": result.residual}
    if result.witness is not None:
        residuals["witness_symmetry"] = result.witness.symmetry_residual
        residuals["witness_reduction"] = result.witness.reduction_residual
    return Verdict("symmetric extension", answer, result.method, result.proven,
                   residuals=residuals, stop_reason=result.stop_reason)


def cmd_check(args) -> int:
    rho = io.load_state(args.file)
    opts = OracleOptions(symmetry=args.symmetry)
    verdict = _verdict(decide(rho, opts) if args.method == "auto" else find_symmetric_extension(rho, opts))
    verdict.emit(args.json)
    return verdict.exit_code()


def cmd_extend(args) -> int:
    rho = io.load_state(args.file)
    result = decide(rho, OracleOptions(symmetry=args.symmetry), want_witness=True)
    if not result.feasible:
        verdict = _verdict(result)
        verdict.emit(args.json)
        return verdict.exit_code()

    io.save_extension(args.output, result.witness)
    reloaded = io.load_extension(args.output, rho)
    if not states.is_symmetric_extension(reloaded, rho, tol=WITNESS_TOL):
        print("error: witness failed re-verification after write", file=sys.stderr)
        return EXIT_INVALID
    Verdict("symmetric extension", "yes", result.method, result.proven,
            residuals={"symmetry": reloaded.symmetry_residual,
                       "reduction": reloaded.reduction_residual},
            witness_path=args.output).emit(args.json)
    return EXIT_YES


def cmd_verify_extension(args) -> int:
    rho = io.load_state(args.state_file)
    sigma = io.load_extension(args.ext_file, rho)
    ok = states.is_symmetric_extension(sigma, rho, tol=_witness_tol(args))
    Verdict("is symmetric extension", "yes" if ok else "no", "definition", True,
            residuals={"symmetry": sigma.symmetry_residual,
                       "reduction": sigma.reduction_residual}).emit(args.json)
    return EXIT_YES if ok else EXIT_NO


def cmd_channel(args) -> int:
    channel = io.load_channel(args.kraus_file)
    if args.action != "classify":
        payload = (io.state_payload(choi_state(channel).state) if args.action == "choi"
                   else io.channel_payload(complementary_channel(channel)))
        if args.output:
            io.write_json(args.output, payload)
            print(f"{args.action}: {args.output}")
        else:
            print(json.dumps(payload))
        return EXIT_YES

    opts = OracleOptions(symmetry=args.symmetry)
    result = classify_channel(channel, opts)
    answer = result.tag.value
    if args.json:
        print(json.dumps({
            "classification": answer,
            "degradable": result.degradable.status.value,
            "anti_degradable": result.anti_degradable.status.value,
            "methods": {"degradable": result.degradable.method,
                        "anti_degradable": result.anti_degradable.method},
        }, sort_keys=True))
    else:
        print(f"classification: {answer}")
        print(f"degradable: {result.degradable.status.value} ({result.degradable.method})")
        print(f"anti-degradable: {result.anti_degradable.status.value} "
              f"({result.anti_degradable.method})")
    if result.tag is ChannelTag.UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_YES


def cmd_gallery(args) -> int:
    entry = args.build(args)
    print(f"name: {entry.name}")
    print(f"description: {entry.description}")
    print(f"extendible: {entry.extendible}")
    for key, value in entry.findings:
        print(f"{key}: {value}")
    return EXIT_YES if entry.extendible == "yes" else (
        EXIT_NO if entry.extendible == "no" else EXIT_UNDECIDED)


def cmd_gallery_werner(args) -> int:
    code = cmd_gallery(args)
    if args.csv:
        with io.open_output(args.csv) as fh:
            io.write_csv(fh, ["p", "conjecture", "oracle", "threshold"], _werner_rows(args.steps))
        print(f"csv: {args.csv}")
    return code


def _werner_rows(steps: int):
    threshold = gallery.werner_threshold()
    for p in np.linspace(0.0, 1.0, steps):
        state = gallery.werner(float(p))
        conj = twoqubit.check_conjecture(state)
        result = find_symmetric_extension(state)
        yield [float(p), str(conj), result.status.value, threshold]


def cmd_scan(args) -> int:
    stream = io.open_output(args.csv) if args.csv else sys.stdout
    try:
        io.write_csv(stream, args.header, args.rows(args))
    finally:
        if args.csv:
            stream.close()
    return EXIT_YES


def _scan_werner(args):
    for p in np.linspace(0.0, 1.0, args.steps):
        bell = gallery.werner_bell_params(float(p))
        closed = twoqubit.bell_extendible(bell)
        conj = twoqubit.check_conjecture(gallery.werner(float(p)))
        yield [float(p), str(closed), str(conj), str(closed == conj)]


def _scan_bell(args):
    grid = np.linspace(0.0, 1.0, args.steps)
    for pi in grid:
        for px in grid:
            for py in grid:
                pz = 1.0 - pi - px - py
                if pz < -1e-12:
                    continue
                params = twoqubit.BellDiagonalParams(float(pi), float(px), float(py), max(float(pz), 0.0))
                closed = twoqubit.bell_extendible(params)
                conj = twoqubit.bell_conjecture_form(params)
                yield [float(pi), float(px), float(py), max(float(pz), 0.0),
                       str(closed), str(conj), str(closed == conj)]


def _scan_zcorr(args):
    rng = np.random.default_rng(args.seed)
    for _ in range(args.samples):
        probs = np.sort(rng.dirichlet([1.0] * 4))[::-1]
        p1, rest = probs[0], rng.permutation(probs[1:])
        p2, p3, p4 = (float(v) for v in rest)
        x = float(rng.uniform(0.0, np.sqrt(max(p1 * p4, 0.0))))
        z = twoqubit.ZCorrParams(float(p1), p2, p3, p4, x, 0.0)
        bound = twoqubit.zcorr_bound_y0(z.p1, z.p2, z.p3, z.p4)
        yield [z.p1, z.p2, z.p3, z.p4, z.x, bound,
               str(twoqubit.zcorr_extendible(z)), str(twoqubit.check_conjecture(z.state()))]


def _scan_damping(args):
    for eta in np.linspace(0.0, 1.0, args.steps):
        result = classify_channel(amplitude_damping(float(eta)))
        yield [float(eta), result.degradable.status.value, result.anti_degradable.status.value,
               result.tag.value]


def amplitude_damping(eta: float) -> Channel:
    """Damping with transmission eta: eta = 1 is the identity channel."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(eta)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(1.0 - eta)], [0.0, 0.0]], dtype=np.complex128)
    return Channel((k0, k1), 2, 2)


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symext",
        description="Symmetric extendibility of bipartite states and channel degradability")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--symmetry", choices=["any", "bosonic", "fermionic"], default="any")
        p.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="decide symmetric extendibility of a state file")
    p_check.add_argument("file")
    p_check.add_argument("--method", choices=["auto", "oracle"], default="auto")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_ext = sub.add_parser("extend", help="construct and save a symmetric extension")
    p_ext.add_argument("file")
    p_ext.add_argument("-o", "--output", required=True)
    common(p_ext)
    p_ext.set_defaults(func=cmd_extend)

    p_ver = sub.add_parser("verify-extension", help="verify an extension file against a state file")
    p_ver.add_argument("ext_file")
    p_ver.add_argument("state_file")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify_extension)

    # channel actions, gallery entries and scan families are subparsers that
    # declare only the flags they read, so any other flag exits 2
    p_ch = sub.add_parser("channel", help="channel tools: classify, choi, complement")
    actions = p_ch.add_subparsers(dest="action", required=True)
    p_cls = actions.add_parser("classify")
    common(p_cls)
    for action in ("choi", "complement"):
        actions.add_parser(action).add_argument("-o", "--output", default=None)
    for p in actions.choices.values():
        p.add_argument("kraus_file")
        p.set_defaults(func=cmd_channel)

    p_gal = sub.add_parser("gallery", help="named example states with recomputed findings")
    entries = p_gal.add_subparsers(dest="name", required=True)
    for name, builder in sorted(gallery.ENTRIES.items()):
        entries.add_parser(name).set_defaults(func=cmd_gallery, build=lambda a, b=builder: b())
    p_ex3 = entries.choices["example3"]
    p_ex3.add_argument("--s", type=float, default=0.75)
    p_ex3.add_argument("--p", type=float, default=0.5)
    p_ex3.set_defaults(build=lambda a: gallery.entry_qubit_qutrit(s=a.s, p=a.p))
    p_wer = entries.choices["werner"]
    p_wer.add_argument("--steps", type=_count, default=21)
    p_wer.add_argument("--csv", default=None)
    p_wer.set_defaults(func=cmd_gallery_werner, build=lambda a: gallery.entry_werner(steps=a.steps))

    p_scan = sub.add_parser("scan", help="parameter sweeps emitting CSV")
    families = p_scan.add_subparsers(dest="family", required=True)
    for family, rows, header, counts in (
            ("werner", _scan_werner, ["p", "closed_form", "conjecture", "agree"], {"steps": 50}),
            ("bell", _scan_bell, ["p_i", "p_x", "p_y", "p_z", "closed_form", "conjecture_form", "agree"],
             {"steps": 50}),
            ("zcorr", _scan_zcorr, ["p1", "p2", "p3", "p4", "x", "y0_bound", "extendible", "conjecture"],
             {"samples": 200, "seed": 7}),
            ("amplitude-damping", _scan_damping, ["eta", "degradable", "anti_degradable", "class"],
             {"steps": 50})):
        p = families.add_parser(family)
        for flag, default in counts.items():
            p.add_argument(f"--{flag}", type=_count, default=default)
        p.add_argument("--csv", default=None)
        p.set_defaults(func=cmd_scan, header=header, rows=rows)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SymextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
