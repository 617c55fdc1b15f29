"""Closed-form symmetric-extension machinery for two qubits and rank-2 states.

Contents: the constructive pure extension for two-qubit states satisfying the
spectrum condition (one null vector of a 4x4 real system), the
purity/determinant extendibility test (proven by Chen, Ji, Kribs, Lutkenhaus
and Zeng, PRA 90, 032318 (2014)), the rank-2 criterion and its split into two
pure-extendible states (the roots of one quadratic), Bell-diagonal
inequalities, the Z-correlated family with its y = 0 closed form, and the
extremality classification of pure-extendible states.  ``oracle.decide``
leaves what these forms do not settle (a rank-2 state with larger A that no
tracing refutes, a Z-correlated state with y > 0) to the two-qubit condition
and the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    ConditionUnsatisfied,
    DimensionMismatch,
    NotCanonical,
    OutOfRange,
    PreconditionFailed,
    SpectrumMismatch,
    WrongRank,
)
from .states import BipartiteState, TripartiteExtension, spectrum_condition

I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)

# Bell basis order: (|00>+|11>), (|00>-|11>), (|01>+|10>), (|01>-|10>), all /sqrt(2).
BELL = (
    np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0),
    np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2.0),
    np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2.0),
    np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2.0),
)

# U = a0 I + i (a1 X + a2 Y + a3 Z) is in SU(2) for every real unit vector a.
_SU2_BASIS = np.stack([I2, 1j * SX, 1j * SY, 1j * SZ])


# ---------------------------------------------------------------------------
# constructive pure extension (two qubits)
# ---------------------------------------------------------------------------

def construct_pure_extension(rho: BipartiteState) -> TripartiteExtension:
    """Pure symmetric extension of a two-qubit state with matching spectra.

    Write rho = L L^dag with L (4x2) from the two largest eigenpairs.  Every
    purification on a qubit B' is psi[a, b, b'] = (L U)[(a, b), b'] with U
    unitary, and psi is swap-symmetric iff both 2x2 blocks L_a U are
    symmetric matrices.  With U = a0 I + i (a1 X + a2 Y + a3 Z) the two
    complex conditions (L_a U)[1, 0] = (L_a U)[0, 1] are four real linear
    equations R a = 0.  The spectrum condition guarantees a pure symmetric
    extension, which is of this form up to a global phase, so R is singular
    and its last right singular vector gives U.
    """
    if rho.d_a != 2 or rho.d_b != 2:
        raise DimensionMismatch("pure-extension construction requires two qubits")
    if not spectrum_condition(rho):
        raise SpectrumMismatch("global and local spectra differ; no pure symmetric extension")

    # noise eigenvalues must go: sqrt(1e-16) would leave a 1e-8 column in L
    lam, vecs = linalg.support(rho.matrix)
    rank = min(lam.size, 2)
    left = np.zeros((4, 2), dtype=np.complex128)
    left[:, :rank] = vecs[:, :rank] * np.sqrt(lam[:rank])
    blocks = np.einsum("abk,jkc->jabc", left.reshape(2, 2, 2), _SU2_BASIS)
    skew = blocks[:, :, 1, 0] - blocks[:, :, 0, 1]
    coeffs = np.linalg.svd(np.vstack([skew.real.T, skew.imag.T]))[2][-1]
    psi = (left @ np.tensordot(coeffs, _SU2_BASIS, 1)).reshape(-1)
    psi /= np.linalg.norm(psi)
    return TripartiteExtension(np.outer(psi, psi.conj()), 2, 2, rho.matrix)


# ---------------------------------------------------------------------------
# purity/determinant condition (Chen, Ji, Kribs, Lutkenhaus, Zeng 2014)
# ---------------------------------------------------------------------------

def conjecture_margin(rho: BipartiteState) -> float:
    """tr(rho_B^2) + 4 sqrt(det rho) - tr(rho^2); nonnegative iff the state is
    extendible (conjectured in the source paper, proven by Chen, Ji, Kribs,
    Lutkenhaus and Zeng, PRA 90, 032318 (2014), arXiv:1310.3530)."""
    if rho.d_a != 2 or rho.d_b != 2:
        raise DimensionMismatch("the purity/determinant condition is for two qubits")
    mat = np.asarray(rho.matrix)
    det = max(float(np.real(np.linalg.det(mat))), 0.0)
    purity_b = float(np.real(np.trace(rho.rho_b @ rho.rho_b)))
    purity_ab = float(np.real(np.trace(mat @ mat)))
    return purity_b + 4.0 * math.sqrt(det) - purity_ab


def check_conjecture(rho: BipartiteState) -> bool:
    """Sign of :func:`conjecture_margin` (proven by Chen et al., PRA 90, 032318
    (2014)), read without the rounding band ``oracle.decide`` applies."""
    return conjecture_margin(rho) >= -1e-10


# ---------------------------------------------------------------------------
# rank-2 states
# ---------------------------------------------------------------------------

def _rank_le2_violation(mat: np.ndarray, d_a: int, d_b: int, tol: float = 1e-9) -> float | None:
    """Necessary conditions for a rank<=2 state to have a symmetric extension:
    rank(rho_B) <= 2 and lambda_max(rho_AB) <= lambda_max(rho_B).  None when
    both hold, else a negative margin: -lambda_3(rho_B) when the rank fails,
    lambda_max(rho_B) - lambda_max(rho_AB) otherwise."""
    lam_b = linalg.nonzero_eigenvalues(linalg.partial_trace(mat, [d_a, d_b], keep=[1]))
    if lam_b.size > 2:
        return -float(lam_b[2])
    lmax_ab, lmax_b = float(linalg.nonzero_eigenvalues(mat)[0]), float(lam_b[0])
    return lmax_b - lmax_ab if lmax_ab > lmax_b + tol else None


def _rank2_probes(rho: BipartiteState):
    """(matrix, d_a) of rho, then, for d_a > 2, of every rank<=2 tracing of a
    tensor factor of A: all are 1-LOCC images, so the necessary conditions
    must survive on each."""
    mat = np.asarray(rho.matrix)
    yield mat, rho.d_a
    for m in range(2, rho.d_a):
        if rho.d_a % m:
            continue
        n = rho.d_a // m
        full = mat.reshape(m, n, rho.d_b, m, n, rho.d_b)
        for reduced, d_left in ((np.einsum("iljiLJ->ljLJ", full).reshape(n * rho.d_b, n * rho.d_b), n),
                                (np.einsum("iljIlJ->ijIJ", full).reshape(m * rho.d_b, m * rho.d_b), m)):
            if linalg.numerical_rank(reduced) <= 2:
                yield reduced, d_left


def rank2_violation(rho: BipartiteState) -> float | None:
    """Rank-2 extendibility via the maximum-eigenvalue comparison: the margin
    of the first probe (see :func:`_rank2_probes`) that fails the necessary
    conditions of :func:`_rank_le2_violation`, or None.

    For qubit A only rho itself is probed, and the verdict is exact: the
    state has a symmetric extension iff rank(rho_B) <= 2 and
    lambda_max(rho_AB) <= lambda_max(rho_B).  For larger A only a violation
    is conclusive (rho itself or a rank<=2 tracing of a tensor factor of A
    fails); None then means "no violation found", not a proof.
    """
    if rho.rank() != 2:
        raise WrongRank(f"the rank-2 test needs a rank-2 state, got rank {rho.rank()}")
    violations = (_rank_le2_violation(mat, d_a, rho.d_b) for mat, d_a in _rank2_probes(rho))
    return next((v for v in violations if v is not None), None)


def rank2_condition(rho: BipartiteState) -> bool:
    """True when :func:`rank2_violation` finds none: exact for qubit A."""
    return rank2_violation(rho) is None


@dataclass(frozen=True)
class Rank2Decomposition:
    """Convex split of a rank-2 extendible state into two pure-extendible ones."""

    weight: float            # mixture weight of the second component
    p0: float
    p1: float
    component0: BipartiteState
    component1: BipartiteState
    extension0: TripartiteExtension
    extension1: TripartiteExtension

    def mixed_extension(self, target: BipartiteState) -> TripartiteExtension:
        mixed = ((1.0 - self.weight) * np.asarray(self.extension0.matrix)
                 + self.weight * np.asarray(self.extension1.matrix))
        return TripartiteExtension(mixed, 2, 2, target.matrix)


def rank2_decompose(rho: BipartiteState) -> Rank2Decomposition:
    """Split a rank-2 two-qubit state satisfying the rank-2 condition into
    pure-extendible components along its eigenvector pencil.

    On the family rho_p = (1-p) |psi0><psi0| + p |psi1><psi1| the spectrum
    condition reads det rho_B(p) = p (1-p).  For a trace-one 2x2 matrix
    det M = (1 - tr M^2) / 2, so with M_k = tr_A |psi_k><psi_k| and
    D = M_1 - M_0 this is the quadratic
    q0 + q1 p + q2 p^2 = 0,  q0 = (1 - ||M_0||^2) / 2,  q1 = -1 - tr(M_0 D),
    q2 = 1 - ||D||^2 / 2.
    It is >= 0 at p = 0 and p = 1 and <= 0 at p = lambda (the rank-2
    condition), so its two roots bracket lambda; they are taken with the
    cancellation-free formula.  When rho itself meets the condition
    (lambda_max(rho_B) within 1e-13 of lambda_max(rho)) it is its own single
    component with weight 0, and the other root (p = 1 for the Choi state of
    amplitude damping at eta = 1/2) goes unused.
    """
    if rho.d_a != 2 or rho.d_b != 2:
        raise DimensionMismatch("rank2_decompose requires two qubits")
    if rho.rank() != 2:
        raise WrongRank(f"rank2_decompose needs a rank-2 state, got rank {rho.rank()}")
    if not rank2_condition(rho):
        raise ConditionUnsatisfied("lambda_max(rho_AB) exceeds lambda_max(rho_B)")

    eig = linalg.hermitian_eig(rho.matrix)
    psi0 = eig.eigenvectors[:, 0]
    psi1 = eig.eigenvectors[:, 1]
    lam = float(eig.eigenvalues[1])
    proj0 = np.outer(psi0, psi0.conj())
    proj1 = np.outer(psi1, psi1.conj())
    marg0 = linalg.partial_trace(proj0, [2, 2], keep=[1])
    diff = linalg.partial_trace(proj1, [2, 2], keep=[1]) - marg0

    lmax_b = float(np.linalg.eigvalsh(marg0 + lam * diff)[-1])
    if lmax_b - max(lam, 1.0 - lam) <= 1e-13:
        p0 = p1 = lam
        weight = 0.0
    else:
        q0 = (1.0 - linalg.frobenius(marg0) ** 2) / 2.0
        q1 = -1.0 - float(np.vdot(marg0, diff).real)
        q2 = 1.0 - linalg.frobenius(diff) ** 2 / 2.0
        root = (math.sqrt(max(q1 * q1 - 4.0 * q0 * q2, 0.0)) - q1) / 2.0
        p0 = min(max(q0 / root, 0.0), lam)
        p1 = min(max(root / q2, lam), 1.0)
        weight = 0.0 if p1 == p0 else (lam - p0) / (p1 - p0)

    def pencil_state(p: float) -> BipartiteState:
        return BipartiteState((1.0 - p) * proj0 + p * proj1, 2, 2)

    comp0 = pencil_state(p0)
    comp1 = pencil_state(p1) if p1 != p0 else comp0
    ext0 = construct_pure_extension(comp0)
    ext1 = construct_pure_extension(comp1) if p1 != p0 else ext0
    return Rank2Decomposition(weight=float(weight), p0=float(p0), p1=float(p1),
                              component0=comp0, component1=comp1,
                              extension0=ext0, extension1=ext1)


# ---------------------------------------------------------------------------
# Bell-diagonal states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BellDiagonalParams:
    """Eigenvalues of a Bell-diagonal state, in the order of the BELL basis."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        probs = self.as_array()
        if probs.min() < -1e-12:
            raise OutOfRange(f"negative Bell weight {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise OutOfRange(f"Bell weights sum to {probs.sum()}, not 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_i, self.p_x, self.p_y, self.p_z])

    def state(self) -> BipartiteState:
        # p_x weights |01>+|10>, p_y weights |01>-|10>, p_z weights |00>-|11>
        mat = (self.p_i * np.outer(BELL[0], BELL[0].conj())
               + self.p_x * np.outer(BELL[2], BELL[2].conj())
               + self.p_y * np.outer(BELL[3], BELL[3].conj())
               + self.p_z * np.outer(BELL[1], BELL[1].conj()))
        return BipartiteState(mat, 2, 2)


def bell_alphas(params: BellDiagonalParams) -> tuple[float, float, float]:
    """Coordinates (a1, a2, a3) of the extendibility inequalities."""
    return _bell_alphas(params.as_array())


def _bell_alphas(probs):
    """(a1, a2, a3) for Bell weights (p_i, p_x, p_y, p_z) along the last axis."""
    p_i, p_x, p_y, p_z = probs.T
    return p_i - p_x - p_y + p_z, math.sqrt(2.0) * (p_i - p_z), math.sqrt(2.0) * (p_x - p_y)


def _bell_margins_from_alphas(a1, a2, a3):
    d = a2 ** 2 - a3 ** 2
    quartic = 4.0 * a1 * d - d ** 2 - 4.0 * a1 ** 2 * (a2 ** 2 + a3 ** 2)
    lin2 = d - 2.0 * math.sqrt(2.0) * a1 * np.abs(a2)
    lin3 = -d + 2.0 * math.sqrt(2.0) * a1 * np.abs(a3)
    return quartic, lin2, lin3


def _bell_conjecture_margin(probs):
    det = np.clip(np.prod(probs, axis=-1), 0.0, None)
    return 4.0 * np.sqrt(det) - (np.sum(probs ** 2, axis=-1) - 0.5)


def bell_margins(params: BellDiagonalParams) -> tuple[float, float, float]:
    """Slack of the three closed-form inequalities (any one >= 0 suffices)."""
    return _bell_margins_from_alphas(*bell_alphas(params))


def bell_extendible(params: BellDiagonalParams) -> bool:
    """Exact extendibility of a Bell-diagonal state."""
    return max(bell_margins(params)) >= -1e-10


def bell_conjecture_margin(params: BellDiagonalParams) -> float:
    """Slack of 4 sqrt(det rho) >= tr(rho^2) - 1/2 for Bell-diagonal states."""
    return float(_bell_conjecture_margin(params.as_array()))


def bell_conjecture_form(params: BellDiagonalParams) -> bool:
    return bell_conjecture_margin(params) >= -1e-10


@dataclass(frozen=True)
class BellEquivalenceReport:
    samples: int
    disagreements: int
    boundary_skipped: int
    seed: int


def bell_equivalence_check(n: int, seed: int = 1, band: float = 1e-9) -> BellEquivalenceReport:
    """Sample Bell probability vectors and compare the two verdict forms.

    Points where either margin lies within ``band`` of zero are skipped as
    boundary; everywhere else the verdicts must agree, and the report counts
    how often they do not (expected: zero).
    """
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet([1.0, 1.0, 1.0, 1.0], size=n)
    closed = np.max(_bell_margins_from_alphas(*_bell_alphas(probs)), axis=0)
    conj = _bell_conjecture_margin(probs)
    boundary = (np.abs(closed) <= band) | (np.abs(conj) <= band)
    disagree = ((closed >= 0) != (conj >= 0)) & ~boundary
    return BellEquivalenceReport(samples=n, disagreements=int(disagree.sum()),
                                 boundary_skipped=int(boundary.sum()), seed=seed)


# ---------------------------------------------------------------------------
# Z-correlated states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZCorrParams:
    """Diagonal (p1..p4) plus antidiagonal couplings x (outer) and y (inner).

    Canonical ordering requires p1 to be the largest diagonal entry; x and y
    are nonnegative and bounded by positivity of the two 2x2 blocks.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    x: float
    y: float

    def __post_init__(self):
        probs = np.array([self.p1, self.p2, self.p3, self.p4])
        if probs.min() < -1e-12:
            raise OutOfRange(f"negative diagonal entry {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise OutOfRange(f"diagonal sums to {probs.sum()}, not 1")
        if self.p1 < max(self.p2, self.p3, self.p4) - 1e-12:
            raise NotCanonical("p1 must be the largest diagonal entry")
        if self.x < -1e-12 or self.y < -1e-12:
            raise NotCanonical("couplings must be nonnegative")
        if self.x > math.sqrt(max(self.p1 * self.p4, 0.0)) + 1e-12:
            raise OutOfRange("x exceeds sqrt(p1 p4); matrix not PSD")
        if self.y > math.sqrt(max(self.p2 * self.p3, 0.0)) + 1e-12:
            raise OutOfRange("y exceeds sqrt(p2 p3); matrix not PSD")

    def matrix(self) -> np.ndarray:
        m = np.diag([self.p1, self.p2, self.p3, self.p4]).astype(np.complex128)
        m[0, 3] = m[3, 0] = self.x
        m[1, 2] = m[2, 1] = self.y
        return m

    def state(self) -> BipartiteState:
        return BipartiteState(self.matrix(), 2, 2)


def _zcorr_f(s, t, p1, p4):
    return np.sqrt(np.clip(s, 0.0, None)) * np.sqrt(np.clip(p1 - t, 0.0, None)) \
        + np.sqrt(np.clip(t, 0.0, None)) * np.sqrt(np.clip(p4 - s, 0.0, None))


def _zcorr_h(s, t, p2, p3):
    return np.sqrt(np.clip(s, 0.0, None)) * np.sqrt(np.clip(p2 - t, 0.0, None)) \
        + np.sqrt(np.clip(t, 0.0, None)) * np.sqrt(np.clip(p3 - s, 0.0, None))


def _zcorr_y0(p1: float, p2: float, p3: float, p4: float) -> tuple[float, float, float]:
    """(bound, s, t) for y = 0: the largest admissible x and an (s, t) attaining it."""
    if p3 >= p4:
        return math.sqrt(max(p1 * p4, 0.0)), p4, 0.0
    if p1 * p3 + p2 * p4 >= p1 * p4:
        return math.sqrt(max(p1 * p4, 0.0)), p3, 0.0 if p4 <= 1e-15 else p1 * (p4 - p3) / p4
    return math.sqrt(max(p3 * (p1 - p2), 0.0)) + math.sqrt(max(p2 * (p4 - p3), 0.0)), p3, p2


def zcorr_bound_y0(p1: float, p2: float, p3: float, p4: float) -> float:
    """Largest x compatible with a symmetric extension when y = 0.

    Two-branch closed form; when p3 >= p4 every admissible x works, so the
    bound saturates at the positivity limit sqrt(p1 p4).
    """
    if p1 < max(p2, p3, p4) - 1e-12:
        raise NotCanonical("p1 must be the largest diagonal entry")
    return _zcorr_y0(p1, p2, p3, p4)[0]


def zcorr_feasible_point(z: ZCorrParams) -> tuple[float, float] | None:
    """An (s, t) witness satisfying both coupling inequalities when y = 0, or
    None when x exceeds :func:`zcorr_bound_y0`.  Raises PreconditionFailed for
    y > 0, where no closed form is known (the two-qubit condition decides)."""
    if z.y > 1e-12:
        raise PreconditionFailed("the Z-correlated closed form needs y = 0")
    if z.x <= 1e-12:
        return (0.0, 0.0)
    bound, s, t = _zcorr_y0(z.p1, z.p2, z.p3, z.p4)
    return None if z.x > bound + 1e-9 else (float(s), float(min(t, z.p2)))


def zcorr_extendible(z: ZCorrParams) -> bool:
    """Exact extendibility of a Z-correlated state with y = 0 (see
    :func:`zcorr_feasible_point`)."""
    return zcorr_feasible_point(z) is not None


def zcorr_from_state(rho: BipartiteState) -> tuple[ZCorrParams, np.ndarray, np.ndarray] | None:
    """Canonical form (z, u_a, u_b) of a real diagonal-plus-antidiagonal state, or None.

    (u_a (x) u_b) rho (u_a (x) u_b)^dag = z.matrix(): a phase gate makes
    both couplings nonnegative, then a relabeling puts p1 first.
    """
    if rho.d_a != 2 or rho.d_b != 2:
        return None
    m = np.asarray(rho.matrix)
    outside = ~(np.eye(4, dtype=bool) | np.fliplr(np.eye(4, dtype=bool)))
    anti = np.fliplr(m).diagonal()  # rho[0, 3], rho[1, 2], rho[2, 1], rho[3, 0]
    if np.max(np.abs(m[outside])) > 1e-12 or np.max(np.abs(anti[:2].imag)) > 1e-12:
        return None
    # diag(1, e^ia) (x) diag(1, e^ib) multiplies rho[0, 3] by e^-i(a+b) and
    # rho[1, 2] by e^i(b-a); a + b and a - b are 0 or pi here
    sum_ab, diff_ab = np.angle(anti[0].real), np.angle(anti[1].real)
    phase_a = np.diag([1.0, np.exp(0.5j * (sum_ab + diff_ab))])
    phase_b = np.diag([1.0, np.exp(0.5j * (sum_ab - diff_ab))])
    diag = np.real(np.diag(m))
    x, y = abs(anti[0].real), abs(anti[1].real)
    # relabelings I, X(x)X, I(x)X, X(x)I permute the diagonal; the last two swap x and y
    for flip_a, flip_b, order in ((I2, I2, [0, 1, 2, 3]), (SX, SX, [3, 2, 1, 0]),
                                  (I2, SX, [1, 0, 3, 2]), (SX, I2, [2, 3, 0, 1])):
        p1, p2, p3, p4 = diag[order]
        cx, cy = (x, y) if order[0] in (0, 3) else (y, x)
        if p1 >= max(p2, p3, p4) - 1e-12:
            return ZCorrParams(p1, p2, p3, p4, cx, cy), flip_a @ phase_a, flip_b @ phase_b
    return None


def _phase_gates(u: complex, v: complex) -> np.ndarray:
    """diag(1,u) on A and diag(1,v) on both B and B' of an extension."""
    d_a = np.diag([1.0, u]).astype(np.complex128)
    d_b = np.diag([1.0, v]).astype(np.complex128)
    return np.kron(d_a, np.kron(d_b, d_b))


def zcorr_build_extension(z: ZCorrParams, s: float, t: float) -> TripartiteExtension:
    """Explicit rank-2 symmetric extension of a Z-correlated state.

    For the given (s, t) the construction reaches couplings exactly at the
    two inequality bounds; smaller target couplings are obtained by mixing
    with phase-flipped copies, which leaves the diagonal untouched.
    """
    if not (-1e-12 <= s <= min(z.p3, z.p4) + 1e-12):
        raise OutOfRange(f"s={s} outside [0, min(p3, p4)]")
    if not (-1e-12 <= t <= z.p2 + 1e-12):
        raise OutOfRange(f"t={t} outside [0, p2]")
    s = min(max(s, 0.0), min(z.p3, z.p4))
    t = min(max(t, 0.0), z.p2)
    x_sat = float(_zcorr_f(s, t, z.p1, z.p4))
    y_sat = float(_zcorr_h(s, t, z.p2, z.p3))
    if z.x > x_sat + 1e-9 or z.y > y_sat + 1e-9:
        raise OutOfRange("couplings exceed what this (s, t) supports")

    def ket3(i, j, k):
        v = np.zeros(8, dtype=np.complex128)
        v[(i * 2 + j) * 2 + k] = 1.0
        return v

    vec1 = (math.sqrt(max(z.p1 - t, 0.0)) * ket3(0, 0, 0)
            + math.sqrt(max(z.p2 - t, 0.0)) * ket3(0, 1, 1)
            + math.sqrt(max(s, 0.0)) * (ket3(1, 0, 1) + ket3(1, 1, 0)))
    vec2 = (math.sqrt(max(t, 0.0)) * (ket3(0, 0, 1) + ket3(0, 1, 0))
            + math.sqrt(max(z.p3 - s, 0.0)) * ket3(1, 0, 0)
            + math.sqrt(max(z.p4 - s, 0.0)) * ket3(1, 1, 1))
    saturated = np.outer(vec1, vec1.conj()) + np.outer(vec2, vec2.conj())

    frac_x = 1.0 if x_sat <= 1e-15 else min(z.x / x_sat, 1.0)
    frac_y = 1.0 if y_sat <= 1e-15 else min(z.y / y_sat, 1.0)
    flip_x = _phase_gates(1j, 1j)        # x -> -x, y unchanged
    flip_y = _phase_gates(1j, -1j)       # y -> -y, x unchanged
    flip_xy = _phase_gates(-1.0, 1.0)    # both flip
    out = np.zeros_like(saturated)
    for gate, wx, wy in ((None, 1.0 + frac_x, 1.0 + frac_y),
                         (flip_x, 1.0 - frac_x, 1.0 + frac_y),
                         (flip_y, 1.0 + frac_x, 1.0 - frac_y),
                         (flip_xy, 1.0 - frac_x, 1.0 - frac_y)):
        w = wx * wy / 4.0
        if w <= 0.0:
            continue
        term = saturated if gate is None else gate @ saturated @ linalg.dagger(gate)
        out += w * term
    return TripartiteExtension(out, 2, 2, z.matrix())


# ---------------------------------------------------------------------------
# extremality of pure-extendible states
# ---------------------------------------------------------------------------

class PureExtendibleTag(Enum):
    EXTREMAL = "extremal"
    SEPARABLE_NON_EXTREMAL = "separable-non-extremal"


@dataclass(frozen=True)
class SeparableWitness:
    """Two-product-term form lam |a0 b0><a0 b0| + (1-lam) |a1 b1><a1 b1|
    with <b0|b1> = 0."""

    weight: float
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v0 = np.kron(self.a0, self.b0)
        v1 = np.kron(self.a1, self.b1)
        return self.weight * np.outer(v0, v0.conj()) + (1.0 - self.weight) * np.outer(v1, v1.conj())


@dataclass(frozen=True)
class PureExtendibleClass:
    tag: PureExtendibleTag
    witness: SeparableWitness | None


def _factor_product_vector(vec4: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Split a product vector into its unit tensor factors (None if entangled)."""
    m = vec4.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    if s[1] > 1e-7 * max(s[0], 1e-300):
        return None
    return u[:, 0], vh[0, :].conj()


def classify_pure_extendible(rho: BipartiteState) -> PureExtendibleClass:
    """Is a mixed pure-extendible two-qubit state extremal in the extendible set?

    Non-extremal ones are exactly the separable ones (PPT for two qubits),
    and those have a two-term product decomposition with orthogonal B parts,
    recovered here from the eigenvectors.
    """
    if rho.d_a != 2 or rho.d_b != 2:
        raise DimensionMismatch("classification is for two qubits")
    if not spectrum_condition(rho):
        raise PreconditionFailed("state is not pure-extendible (spectrum condition fails)")
    if rho.purity() >= 1.0 - 1e-9:
        raise PreconditionFailed("state is pure; extremality classification needs a mixed state")

    pt = linalg.partial_transpose(rho.matrix, [2, 2], "B")
    if float(np.linalg.eigvalsh((pt + linalg.dagger(pt)) / 2.0).min()) < -1e-9:
        return PureExtendibleClass(PureExtendibleTag.EXTREMAL, None)

    eig = linalg.hermitian_eig(rho.matrix)
    lam0, lam1 = float(eig.eigenvalues[0]), float(eig.eigenvalues[1])
    if lam0 - lam1 > 1e-9:
        pieces = []
        for idx, weight in ((0, lam0), (1, lam1)):
            fac = _factor_product_vector(eig.eigenvectors[:, idx])
            if fac is None:
                raise PreconditionFailed("separable pure-extendible state with non-product eigenvector")
            a, b = fac
            pieces.append((weight, a / np.linalg.norm(a), b / np.linalg.norm(b)))
        (w0, a0, b0), (_, a1, b1) = pieces
        return PureExtendibleClass(
            PureExtendibleTag.SEPARABLE_NON_EXTREMAL,
            SeparableWitness(weight=w0, a0=a0, a1=a1, b0=b0, b1=b1))

    # degenerate weights: find the product directions inside the eigenspace
    v = eig.eigenvectors[:, 0].reshape(2, 2)
    w = eig.eigenvectors[:, 1].reshape(2, 2)
    c2 = np.linalg.det(v)
    c0 = np.linalg.det(w)
    c1 = np.linalg.det(v + w) - c2 - c0
    coeffs = np.array([c2, c1, c0])
    if np.max(np.abs(coeffs)) < 1e-12:
        # every vector in the span is product: rho = |a><a| (x) rho_B
        a_side = np.linalg.svd(v)[0][:, 0]
        rb = linalg.hermitian_eig(rho.rho_b)
        return PureExtendibleClass(
            PureExtendibleTag.SEPARABLE_NON_EXTREMAL,
            SeparableWitness(weight=float(rb.eigenvalues[0]), a0=a_side, a1=a_side,
                             b0=rb.eigenvectors[:, 0], b1=rb.eigenvectors[:, 1]))
    roots = np.roots(coeffs)  # ratios alpha/beta with det(alpha V + beta W) = 0
    vectors = []
    for r in roots:
        cand = r * eig.eigenvectors[:, 0] + eig.eigenvectors[:, 1]
        nrm = np.linalg.norm(cand)
        if nrm > 1e-12:
            vectors.append(cand / nrm)
    if len(roots) < 2:
        # degree dropped: beta = 0 (pure V direction) is the missing root
        vectors.append(eig.eigenvectors[:, 0])
    factored = [_factor_product_vector(vec) for vec in vectors]
    if len(factored) < 2 or any(f is None for f in factored):
        raise PreconditionFailed("could not factor the degenerate eigenspace into products")
    (a0, b0), (a1, b1) = factored[0], factored[1]
    return PureExtendibleClass(
        PureExtendibleTag.SEPARABLE_NON_EXTREMAL,
        SeparableWitness(weight=0.5,
                         a0=a0 / np.linalg.norm(a0), a1=a1 / np.linalg.norm(a1),
                         b0=b0 / np.linalg.norm(b0), b1=b1 / np.linalg.norm(b1)))
