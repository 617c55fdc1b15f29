"""Quantum channels: Choi states, complementary channels, degradability.

A channel is anti-degradable exactly when its Choi state admits a symmetric
extension of the output system, and degradable exactly when the Choi state of
its complementary channel does.  This module carries channels as Kraus
families, moves between Kraus and Choi pictures, builds minimal-environment
complementary channels, and classifies degradability by deciding Choi
states with :func:`oracle.decide` (closed forms first, the oracle last).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import InvalidChannel, NotAChoiState, NotAnExtension
# find_symmetric_extension stays importable from here: bench/test_bench.py reads it
from .oracle import Feasibility, FeasibilityResult, OracleOptions, decide, find_symmetric_extension
from .states import BipartiteState, TripartiteExtension, is_symmetric_extension


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map as a Kraus family."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.kraus)
        if not ops:
            raise InvalidChannel("empty Kraus family")
        if any(k.shape != (self.d_out, self.d_in) for k in ops):
            raise InvalidChannel(
                f"Kraus operators must be {self.d_out}x{self.d_in}, got {[k.shape for k in ops]}")
        total = sum(linalg.dagger(k) @ k for k in ops)
        if np.max(np.abs(total - np.eye(self.d_in))) > 1e-9:
            raise InvalidChannel("Kraus family is not trace preserving")
        object.__setattr__(self, "kraus", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.complex128)
        return sum(k @ rho @ linalg.dagger(k) for k in self.kraus)

    def environment_dim(self) -> int:
        """Rank of the Kraus Gram matrix: the minimal Stinespring environment."""
        return linalg.numerical_rank(np.array([[np.trace(linalg.dagger(a) @ b) for b in self.kraus]
                                               for a in self.kraus]))


@dataclass(frozen=True)
class ChoiState:
    """Choi representation: maximally entangled input, channel on the second half."""

    state: BipartiteState

    def __post_init__(self):
        marginal = self.state.rho_a
        if np.max(np.abs(marginal - np.eye(self.state.d_a) / self.state.d_a)) > 1e-9:
            raise NotAChoiState("input marginal of a Choi state must be maximally mixed")

    @property
    def d_in(self) -> int:
        return self.state.d_a

    @property
    def d_out(self) -> int:
        return self.state.d_b


def choi_state(channel: Channel) -> ChoiState:
    """(1/d) sum_ij |i><j| (x) N(|i><j|), computed Kraus by Kraus."""
    d = channel.d_in
    mat = np.zeros((d * channel.d_out, d * channel.d_out), dtype=np.complex128)
    for k in channel.kraus:
        vec = k.T.reshape(-1)  # component (i, b) = K[b, i]
        mat += np.outer(vec, vec.conj())
    return ChoiState(BipartiteState(mat / d, d, channel.d_out))


def _stinespring(choi: ChoiState) -> np.ndarray:
    """T[i, b, m] = K_m[b, i] for the minimal Kraus family K_m = sqrt(d_in lam_m) v_m,
    (lam_m, v_m) running over the support of the Choi state: i is the input,
    b the output and m the environment index of a minimal Stinespring dilation."""
    lam, vecs = linalg.support(choi.state.matrix)
    return (vecs * np.sqrt(lam * choi.d_in)).reshape(choi.d_in, choi.d_out, lam.size)


def kraus_from_choi(choi: ChoiState) -> Channel:
    """Minimal Kraus family recovering the channel from its Choi state."""
    t = _stinespring(choi)
    return Channel(tuple(t[:, :, m].T for m in range(t.shape[2])), d_in=choi.d_in, d_out=choi.d_out)


def complementary_channel(channel: Channel) -> Channel:
    """Channel to the environment of a minimal Stinespring dilation.

    Its Kraus operators re-slice the minimal family K_m as L_b[m, i] = K_m[b, i];
    the result is unique up to a unitary on the environment output.
    """
    t = _stinespring(choi_state(channel))
    return Channel(tuple(t[:, b, :].T for b in range(channel.d_out)), d_in=channel.d_in, d_out=t.shape[2])


def is_anti_degradable(channel: Channel, opts: OracleOptions | None = None) -> FeasibilityResult:
    """Symmetric extendibility of the Choi state, with a witness behind every "yes"."""
    return decide(choi_state(channel).state, opts, want_witness=True)


def is_degradable(channel: Channel, opts: OracleOptions | None = None) -> FeasibilityResult:
    """Anti-degradability of the complementary channel.

    Qubit-output fast path: a degradable channel with a qubit output cannot
    have an environment larger than a qubit, so environment rank >= 3 settles
    the question without any iteration.
    """
    if channel.d_out == 2 and channel.environment_dim() > 2:
        return FeasibilityResult(Feasibility.INFEASIBLE, None, float("inf"), 0,
                                 method="qubit-output-environment-bound", proven=True)
    return is_anti_degradable(complementary_channel(channel), opts)


class ChannelTag(Enum):
    DEGRADABLE = "degradable"
    ANTI_DEGRADABLE = "anti-degradable"
    BOTH = "both"
    NEITHER = "neither"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ChannelClass:
    tag: ChannelTag
    degradable: FeasibilityResult
    anti_degradable: FeasibilityResult


def classify_channel(channel: Channel, opts: OracleOptions | None = None) -> ChannelClass:
    """Joint degradable / anti-degradable verdict.

    Undecided evidence keeps the tag Undecided unless the channel belongs to
    the class where "neither" is impossible (qubit channels with at most a
    qubit environment), in which case one conclusive Infeasible pins the tag.
    """
    deg = is_degradable(channel, opts)
    anti = is_anti_degradable(channel, opts)
    table = {
        (Feasibility.FEASIBLE, Feasibility.FEASIBLE): ChannelTag.BOTH,
        (Feasibility.FEASIBLE, Feasibility.INFEASIBLE): ChannelTag.DEGRADABLE,
        (Feasibility.INFEASIBLE, Feasibility.FEASIBLE): ChannelTag.ANTI_DEGRADABLE,
        (Feasibility.INFEASIBLE, Feasibility.INFEASIBLE): ChannelTag.NEITHER,
    }
    tag = table.get((deg.status, anti.status), ChannelTag.UNDECIDED)
    if tag is ChannelTag.UNDECIDED:
        never_neither = (channel.d_in == 2 and channel.d_out == 2
                         and channel.environment_dim() <= 2)
        if never_neither:
            if deg.status is Feasibility.INFEASIBLE and anti.status is Feasibility.UNDECIDED:
                tag = ChannelTag.ANTI_DEGRADABLE
            elif anti.status is Feasibility.INFEASIBLE and deg.status is Feasibility.UNDECIDED:
                tag = ChannelTag.DEGRADABLE
    return ChannelClass(tag=tag, degradable=deg, anti_degradable=anti)


def degrading_map_from_extension(channel: Channel, sigma: TripartiteExtension) -> Channel:
    """Anti-degrading map from a symmetric extension of the Choi state.

    Purifying the extension makes B' (x) R an environment for the channel, so
    tracing R degrades that environment back to the output.  The returned map
    acts on the minimal environment of ``complementary_channel(channel)``; it
    is found by aligning the two Stinespring isometries.
    """
    choi = choi_state(channel)
    if not is_symmetric_extension(sigma, choi.state, tol=1e-7):
        raise NotAnExtension("sigma does not verify as an extension of the Choi state")
    d_in, d_out = channel.d_in, channel.d_out

    # purification psi[i, b, (b', r)] = sqrt(lam_r) v_r[i, b, b'] from the support of
    # sigma: sqrt(d_in) psi is a Stinespring isometry with environment B' (x) R
    lam, vecs = linalg.support(sigma.matrix)
    psi = (vecs * np.sqrt(lam)).reshape(d_in, d_out, d_out * lam.size)
    t = _stinespring(choi)
    e_min = t.shape[2]

    # isometry V with sum_m V[(b', r), m] T[i, b, m] = sqrt(d_in) psi[i, b, (b', r)],
    # solved in least squares over the rows (b, i) and checked
    lhs = t.transpose(1, 0, 2).reshape(d_out * d_in, e_min)
    rhs = np.sqrt(d_in) * psi.transpose(1, 0, 2).reshape(d_out * d_in, -1)
    v_t = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    if np.max(np.abs(lhs @ v_t - rhs)) > 1e-6:
        raise NotAnExtension("extension is inconsistent with the channel's dilation")

    # degrading map = embed the environment into B' (x) R through V, then trace R
    v = v_t.T.reshape(d_out, lam.size, e_min)
    return Channel(tuple(v[:, r, :] for r in range(lam.size)), d_in=e_min, d_out=d_out)
