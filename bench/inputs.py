"""Seeded input generators for the benchmark workloads.

Oracle difficulty is heavy-tailed: one 2x2 state in a few hundred needs tens
of thousands of iterations.  Drawing fresh states per seed would make a
twenty-second run measure the luck of the draw, so the states and channels
of ``qubit-sweep`` and ``qudit-mix`` are a fixed draw from ``BASE_SEED``
(made as the workload describes, never filtered by how the program does on
them) and the run seed rotates each one by random local unitaries
U_A (x) U_B.  Extendibility, the coherent information, the conjecture
margin and, in exact arithmetic, every Douglas-Rachford iterate are
covariant under such rotations, so every seed poses different matrices of
the same difficulty.  The ``cli`` inputs only reach closed forms, whose cost
does not depend on the draw, so they come straight from the run seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from symext import io, linalg, twoqubit
from symext.channels import Channel
from symext.cli import amplitude_damping
from symext.states import BipartiteState

BASE_SEED = 2008

QUBIT_SWEEP_STATES = 120
QUDIT_SHAPES = ((3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (4, 3))
QUDIT_FAMILIES = ("traced", "full", "rank2")
MODES = ("any", "bosonic", "fermionic")
QUDIT_CHANNEL_KRAUS = (2, 3)


@dataclass(frozen=True)
class StateInput:
    label: str
    rho: BipartiteState
    mode: str  # symmetry mode the oracle is asked about
    traced: bool  # extendible in ``mode`` by construction


@dataclass(frozen=True)
class ChannelInput:
    label: str
    channel: Channel


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d_a: int, d_b: int, rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.standard_normal((d_a * d_b, rank)) + 1j * rng.standard_normal((d_a * d_b, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def traced_state(d_a: int, d_b: int, rng: np.random.Generator, sign: float) -> np.ndarray:
    """B' traced out of a random pure vector on A B B' that the B <-> B' swap
    maps to ``sign`` times itself; extendible with that parity by construction."""
    n = d_a * d_b * d_b
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v + sign * v.reshape(d_a, d_b, d_b).transpose(0, 2, 1).reshape(-1)
    v /= np.linalg.norm(v)
    return linalg.partial_trace(np.outer(v, v.conj()), [d_a, d_b, d_b], keep=[0, 1])


def rotate(mat: np.ndarray, d_a: int, d_b: int, rng: np.random.Generator) -> BipartiteState:
    u = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
    return BipartiteState(u @ mat @ u.conj().T, d_a, d_b)


def random_channel(d: int, n_kraus: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Kraus operators sliced from a Haar-like isometry C^d -> C^d (x) C^n."""
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    q, _ = np.linalg.qr(g)
    return tuple(q.reshape(n_kraus, d, d))


def qubit_sweep(seed: int) -> list[StateInput]:
    """Every third state is a traced-symmetric boundary state; the others have
    rank 1-4 drawn uniformly, as in acceptance criterion 7."""
    base, spin = np.random.default_rng(BASE_SEED), np.random.default_rng(seed)
    out = []
    for i in range(QUBIT_SWEEP_STATES):
        if i % 3 == 0:
            mat, label = traced_state(2, 2, base, 1.0), "traced"
        else:
            rank = int(base.integers(1, 5))
            mat, label = random_state(2, 2, base, rank), f"rank{rank}"
        out.append(StateInput(f"{i}:{label}", rotate(mat, 2, 2, spin), "any", label == "traced"))
    return out


def qudit_mix(seed: int) -> list[StateInput | ChannelInput]:
    """Each shape meets each family once; the symmetry mode rotates so every
    shape is asked about every mode.  Qutrit channels follow."""
    base, spin = np.random.default_rng([BASE_SEED, 1]), np.random.default_rng(seed)
    out: list[StateInput | ChannelInput] = []
    for s, (d_a, d_b) in enumerate(QUDIT_SHAPES):
        for f, family in enumerate(QUDIT_FAMILIES):
            mode = MODES[(s + f) % len(MODES)]
            if family == "traced":
                mat = traced_state(d_a, d_b, base, -1.0 if mode == "fermionic" else 1.0)
            else:
                mat = random_state(d_a, d_b, base, d_a * d_b if family == "full" else 2)
            out.append(StateInput(f"{d_a}x{d_b}:{family}:{mode}", rotate(mat, d_a, d_b, spin),
                                  mode, family == "traced"))
    for n_kraus in QUDIT_CHANNEL_KRAUS:
        kraus = random_channel(3, n_kraus, base)
        u_in, u_out = random_unitary(3, spin), random_unitary(3, spin)
        out.append(ChannelInput(f"qutrit-channel:{n_kraus}-kraus",
                                Channel(tuple(u_out @ k @ u_in for k in kraus), 3, 3)))
    return out


CHECK_FAMILIES = ("pure", "bell", "rank2", "zcorr", "coherent")
CHECK_FILES_PER_FAMILY = 3


def _check_state(family: str, rng: np.random.Generator) -> BipartiteState:
    """A 2x2 state of one family ``symext check`` decides in closed form."""
    if family == "pure":
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return BipartiteState(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, 2, 2)
    if family == "bell":
        return twoqubit.BellDiagonalParams(*(float(v) for v in rng.dirichlet([1.0] * 4))).state()
    if family == "rank2":
        return BipartiteState(random_state(2, 2, rng, 2), 2, 2)
    if family == "zcorr":  # y = 0, drawn as in acceptance criterion 5
        probs = np.sort(rng.dirichlet([1.0] * 4))[::-1]
        p1, (p2, p3, p4) = float(probs[0]), (float(v) for v in rng.permutation(probs[1:]))
        x = float(rng.uniform(0.0, np.sqrt(p1 * p4)))
        return twoqubit.ZCorrParams(p1, p2, p3, p4, x, 0.0).state()
    # a Bell pair with a little white noise keeps positive coherent information
    noise = float(rng.uniform(0.01, 0.15))
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = np.sqrt(0.5)
    return rotate((1.0 - noise) * np.outer(bell, bell) + noise * np.eye(4) / 4.0, 2, 2, rng)


def cli_files(seed: int, workdir) -> dict[str, object]:
    """Write the state and channel files the ``cli`` commands read.

    Returns the in-memory object behind every file, keyed by file stem, so
    the checks can compute references without parsing the files back.
    """
    rng = np.random.default_rng(seed)
    objects: dict[str, object] = {
        f"{family}-{i}": _check_state(family, rng)
        for family in CHECK_FAMILIES for i in range(CHECK_FILES_PER_FAMILY)}
    objects["traced"] = BipartiteState(traced_state(2, 2, rng, 1.0), 2, 2)
    objects["damping"] = amplitude_damping(float(rng.uniform(0.0, 1.0)))
    objects["qubit_channel"] = Channel(random_channel(2, 2, rng), 2, 2)
    for stem, obj in objects.items():
        path = str(workdir / f"{stem}.json")
        if isinstance(obj, Channel):
            io.save_channel(path, obj)
        else:
            io.save_state(path, obj)
    return objects
