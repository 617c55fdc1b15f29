"""Print one JSON line per oracle call over a fixed set of states, for diffing two trees.

    python3 tools/verdict_matrix.py > change.jsonl
    python3 tools/verdict_matrix.py --src ../parent/src > parent.jsonl
    diff <(python3 tools/verdict_matrix.py --src ../parent/src) <(python3 tools/verdict_matrix.py)

Each line holds the call's label, ``status``, ``stop_reason``, ``iterations``
and ``proven``.  The set:

- ``bench``: the ``qubit-sweep`` and ``qudit-mix`` states of ``bench/inputs.py``
  at seeds 1-3 in their own modes, and the Choi states of each qutrit channel
  and of its complement in all three modes;
- ``c7``: the 2000 draws of acceptance criterion 7;
- ``random``: random 3x2, 2x3, 4x2, 3x3, 2x4 and 4x3 states of ranks 1, 2, 3,
  n/2, n-1 and n (three each) and traced states, in every mode;
- ``local``: the states of ``tests/test_oracle.py::test_verdict_invariant_under_local_maps``
  (``local_map_states`` of ``tests/conftest.py``), each with its U_A (x) U_B
  rotation and its A-filtered copy, under ``find_symmetric_extension`` and
  ``decide``;
- ``jv``: the isotropic and Werner states of ``tests/test_oracle.py::test_johnson_viola_thresholds``
  (d = 2 to 6, 0.02 on either side of the Johnson-Viola thresholds), in every mode.

``--src`` selects the ``symext`` sources; the generators come from this
checkout's ``bench/inputs.py`` and ``tests/conftest.py``.  Iteration counts
can differ in rare cases between BLAS thread counts, so compare runs made
with the same ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SHAPES = ((3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (4, 3))
PER_RANK = 3


def _calls():
    """Yield (label, thunk) for every call of the set, in a fixed order."""
    import inputs
    import numpy as np
    from conftest import johnson_viola_states, local_map_states, random_state, traced_symmetric_state

    from symext import channels
    from symext.oracle import SYMMETRIES, OracleOptions, decide, find_symmetric_extension

    def solve(rho, mode, fn=find_symmetric_extension):
        return lambda: fn(rho, OracleOptions(symmetry=mode))

    for seed in SEEDS:
        for item in inputs.qubit_sweep(seed) + inputs.qudit_mix(seed):
            if isinstance(item, inputs.StateInput):
                yield f"bench:{seed}:{item.label}", solve(item.rho, item.mode)
                continue
            pair = (("choi", channels.choi_state(item.channel).state),
                    ("complement", channels.choi_state(channels.complementary_channel(item.channel)).state))
            for side, rho in pair:
                for mode in SYMMETRIES:
                    yield f"bench:{seed}:{item.label}:{side}:{mode}", solve(rho, mode)

    rng = np.random.default_rng(707)
    for i in range(2000):
        rho = random_state(2, 2, rng, rank=int(rng.integers(1, 5)))
        yield f"c7:{i}", solve(rho, "any")

    rng = np.random.default_rng(19)
    for d_a, d_b in SHAPES:
        n = d_a * d_b
        for rank in sorted({1, 2, 3, n // 2, n - 1, n}):
            for k in range(PER_RANK):
                rho = random_state(d_a, d_b, rng, rank=rank)
                for mode in SYMMETRIES:
                    yield f"random:{d_a}x{d_b}:rank{rank}:{k}:{mode}", solve(rho, mode)
        for mode in SYMMETRIES:
            for k in range(PER_RANK):
                rho = traced_symmetric_state(rng, d_a, d_b, -1.0 if mode == "fermionic" else 1.0)
                yield f"random:{d_a}x{d_b}:traced:{k}:{mode}", solve(rho, mode)

    # the draws of test_verdict_invariant_under_local_maps, in its order
    for mode in SYMMETRIES:
        for label, draws in local_map_states(np.random.default_rng(2008), mode):
            for fn in (find_symmetric_extension, decide):
                for name, x in draws:
                    yield f"local:{mode}:{label}:{name}:{fn.__name__}", solve(x, mode, fn)

    # the draws of test_johnson_viola_thresholds, in its order
    for label, rho, _ in johnson_viola_states(np.random.default_rng(2013)):
        for mode in SYMMETRIES:
            yield f"jv:{label}:{mode}", solve(rho, mode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the symext package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench"), str(ROOT / "tests")]
    for label, call in _calls():
        result = call()
        print(json.dumps({"label": label, "status": result.status.value,
                          "stop_reason": result.stop_reason, "iterations": result.iterations,
                          "proven": result.proven}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
