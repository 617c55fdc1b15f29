"""Print one JSON line per ``symext`` command over a fixed battery, for diffing two trees.

    python3 tools/cli_battery.py > change.jsonl
    python3 tools/cli_battery.py --src ../parent/src > parent.jsonl
    diff <(python3 tools/cli_battery.py --src ../parent/src) <(python3 tools/cli_battery.py)

Each command runs in-process through ``symext.cli.main``, with a temporary
directory as the working directory, so every file is named relative to it.
Each line holds the command's ``argv``, its ``exit`` code, the SHA-256 of its
``stdout`` and ``files``: the SHA-256 of each file the command wrote, by name.
A command that raises stops the battery with its exception.  The 210 commands:

- 20 seeded states, shapes 2x2, 3x2 and 2x3 in turn, each a full-rank, rank-2,
  traced swap-symmetric or traced swap-antisymmetric draw in turn: ``check`` in
  every mode, plain and ``--json``, and ``extend --json`` in every mode;
- ``channel classify``, plain and ``--json``, on amplitude damping at eta =
  0.3, 0.5 and 0.7 in every mode;
- the five ``gallery`` entries at their defaults (``werner`` with ``--csv``),
  and ``gallery example3`` at (s, p) = (0.3, 0.5), (0.5, 0.5) and (0.75, 2.0);
- ``scan werner``, ``scan bell --steps 12``, ``scan zcorr --seed 1 --samples 200``
  and ``scan amplitude-damping --steps 50``.

``--src`` selects the ``symext`` sources; the state generators come from this
checkout's ``tests/conftest.py``.  Compare runs made with the same
``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ((2, 2), (3, 2), (2, 3))
STATES = 20
ETAS = (0.3, 0.5, 0.7)
EXAMPLE3 = ((0.3, 0.5), (0.5, 0.5), (0.75, 2.0))


def _write_inputs() -> list[str]:
    """Write the state and Kraus files into the working directory; return the state files."""
    import numpy as np
    from conftest import random_state, traced_symmetric_state

    from symext import cli, io as symext_io

    names = []
    for i in range(STATES):
        d_a, d_b = SHAPES[i % len(SHAPES)]
        rng = np.random.default_rng(i)
        kind = i % 4
        if kind < 2:
            rho = random_state(d_a, d_b, rng, rank=None if kind == 0 else 2)
        else:
            rho = traced_symmetric_state(rng, d_a, d_b, 1.0 if kind == 2 else -1.0)
        names.append(f"state{i}.json")
        symext_io.save_state(names[-1], rho)
    for eta in ETAS:
        symext_io.save_channel(f"damping{eta}.json", cli.amplitude_damping(eta))
    return names


def _commands(state_files: list[str]):
    from symext.oracle import SYMMETRIES

    for name in state_files:
        stem = name.removesuffix(".json")
        for mode in SYMMETRIES:
            yield ["check", name, "--symmetry", mode]
            yield ["check", name, "--symmetry", mode, "--json"]
        for mode in SYMMETRIES:
            yield ["extend", name, "-o", f"{stem}-{mode}-ext.json", "--symmetry", mode, "--json"]
    for eta in ETAS:
        for mode in SYMMETRIES:
            yield ["channel", "classify", f"damping{eta}.json", "--symmetry", mode]
            yield ["channel", "classify", f"damping{eta}.json", "--symmetry", mode, "--json"]
    for entry in ("example1", "example2", "example3", "qutrit-fermionic"):
        yield ["gallery", entry]
    yield ["gallery", "werner", "--csv", "gallery-werner.csv"]
    for s, p in EXAMPLE3:
        yield ["gallery", "example3", "--s", str(s), "--p", str(p)]
    yield ["scan", "werner"]
    yield ["scan", "bell", "--steps", "12"]
    yield ["scan", "zcorr", "--seed", "1", "--samples", "200"]
    yield ["scan", "amplitude-damping", "--steps", "50"]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot() -> dict[str, str]:
    return {name: _digest(Path(name).read_bytes()) for name in sorted(os.listdir("."))}


def _run(argv: list[str]) -> dict:
    from symext.cli import main

    before = _snapshot()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    after = _snapshot()
    return {"argv": argv, "exit": code, "stdout": _digest(out.getvalue().encode()),
            "files": {name: digest for name, digest in after.items() if before.get(name) != digest}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the symext package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in _commands(_write_inputs()):
                print(json.dumps(_run(command)), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
