"""Numerical feasibility oracle for symmetric, bosonic and fermionic extensions.

The decision problem "does rho_AB admit a (swap-invariant) extension to
A (x) B (x) B'?" is a semidefinite feasibility problem: find a PSD matrix in
the affine set of Hermitian operators that are swap-symmetric (or supported
on the symmetric/antisymmetric subspace) and reduce to rho_AB.  It is solved
with Douglas-Rachford reflections between the PSD cone and the affine set.
The three modes differ only in the parity sectors of the B <-> B' swap that
S (the projection of the mode, :func:`linalg.parity_projection`) keeps, and
the constraint operator C = tr_B' o S o ( . (x) I/d_b) has one closed-form
pseudo-inverse C^+ for all of them.  The iteration starts at
S(rho (x) I/d_b) and its iterates stay in the range of S.

Feasibility is certified by an explicit witness that is independently
re-verified.  Infeasibility is certified by a dual witness: a Hermitian W on
AB, built from the Douglas-Rachford step difference (which converges to the
minimal displacement vector on inconsistent problems), with
S(W (x) I_B') >= 0 and tr(W rho) < 0.  Any extension sigma would give
tr(W rho) = tr(S(W (x) I_B') sigma) >= 0, so such a W rules one out; the
check has a margin of CERTIFICATE_MARGIN * ||W||_F and is re-run from scratch
by :func:`verify_infeasibility_certificate`.  A run that stalls or hits the
iteration cap without either certificate comes back Undecided.

:func:`decide` is the decision pipeline: the closed forms in a fixed order, this oracle last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import linalg, twoqubit
from .errors import DimensionMismatch, NotSymmetric, TooLarge, WrongDimension
from .states import (
    BipartiteState,
    TripartiteExtension,
    coherent_information,
    is_symmetric_extension,
    spectrum_condition,
)

MAX_EXTENSION_DIM = 1024

SYMMETRIES = ("any", "bosonic", "fermionic")

# The step difference is turned into a candidate dual certificate and checked
# every CERTIFY_EVERY iterations.
CERTIFY_EVERY = 25

# A dual certificate W proves infeasibility when tr(W rho) + mu falls below
# -CERTIFICATE_MARGIN * ||W||_F, mu being the shift that makes S(W (x) I) PSD.
CERTIFICATE_MARGIN = 1e-9

# The iteration gives up Undecided after MAX_ITERATIONS, or once the best
# residual has improved by a relative amount below STALL_IMPROVEMENT over the
# last STALL_WINDOW iterations.
MAX_ITERATIONS = 50000
STALL_WINDOW = 500
STALL_IMPROVEMENT = 1e-7

# Every witness a verdict rests on re-verifies at this tolerance.
WITNESS_TOL = 1e-7

# A two-qubit state with |conjecture_margin| at most this goes to the oracle.
# For a singular rho a rounding error of about 1e-16 in det rho becomes up to
# about 4e-8 after 4 sqrt(.), so the sign of a smaller margin is not reliable.
TWO_QUBIT_BAND = 1e-6


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class OracleOptions:
    """Tuning knobs for the feasibility iteration.

    ``symmetry`` selects plain swap invariance ("any") or support on the
    symmetric/antisymmetric subspace ("bosonic"/"fermionic").  The iteration
    ends Feasible once the constraint residual drops to ``tol_feasible`` and
    the witness re-verifies, and Infeasible once a dual certificate verifies
    (checked every CERTIFY_EVERY iterations, margin CERTIFICATE_MARGIN).
    It gives up Undecided when the residual has stopped improving (see
    STALL_WINDOW and STALL_IMPROVEMENT) or after MAX_ITERATIONS.
    """

    symmetry: str = "any"
    tol_feasible: float = 1e-9

    def __post_init__(self):
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        if not (math.isfinite(self.tol_feasible) and 0.0 < self.tol_feasible < 1.0):
            raise ValueError(f"tol_feasible must lie in (0, 1), got {self.tol_feasible!r}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict with the evidence behind it.

    ``witness`` backs a Feasible verdict, ``certificate`` (a shifted dual
    witness W on AB, see :func:`verify_infeasibility_certificate`) an
    Infeasible one.  ``proven``: the verdict rests on a theorem (such as the
    two-qubit condition, Chen et al., PRA 90, 032318 (2014)) or a verified
    certificate, not on the grid search or an oracle "yes".  ``residual`` is
    the oracle's best constraint residual, or a closed form's margin (>= 0 on
    the extendible side).  ``stop_reason`` says why the oracle stopped:
    "converged", "certified", "stalled", "iteration-cap", "support" (the
    state is outside the reductions the symmetry mode can reach) or
    "witness-rejected"; it is None for closed-form verdicts.
    """

    status: Feasibility
    witness: TripartiteExtension | None
    residual: float
    iterations: int
    method: str = "oracle"
    certificate: np.ndarray | None = None
    stop_reason: str | None = None
    proven: bool = False

    @property
    def feasible(self) -> bool:
        return self.status is Feasibility.FEASIBLE

    @property
    def infeasible(self) -> bool:
        return self.status is Feasibility.INFEASIBLE


class _ExtensionGeometry:
    """Projections for one (d_a, d_b, symmetry) problem instance.

    S is the projection of the symmetry mode: the swap-invariant part in mode
    "any" (parity 0), the symmetric or antisymmetric sector otherwise.
    """

    def __init__(self, d_a: int, d_b: int, symmetry: str):
        self.d_a, self.d_b = d_a, d_b
        self.perm = linalg.swap_permutation(d_a, d_b)
        self.parity = {"any": 0, "bosonic": 1, "fermionic": -1}[symmetry]
        # C = c0 (Id - E) + c1 E, summed over the parity sectors S allows.
        parities = (1, -1) if self.parity == 0 else (self.parity,)
        c0 = sum((1.0 + 2.0 * s / d_b) / 4.0 for s in parities)
        self.inv0, self.inv1 = (0.0 if abs(c) <= 1e-12 else 1.0 / c
                                for c in (c0, c0 + len(parities) / 4.0))

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Partial trace over the last factor (B' of A B B', or B of A B)."""
        n, db = x.shape[0] // self.d_b, self.d_b
        return np.einsum("aibi->ab", x.reshape(n, db, n, db))

    def embed(self, m: np.ndarray) -> np.ndarray:
        """m (x) I/d_b, one factor larger (so reduce(embed(m)) = m)."""
        n, db = m.shape[0], self.d_b
        out = np.zeros((n, db, n, db), dtype=np.complex128)
        diag = np.arange(db)
        out[:, diag, :, diag] = m / db
        return out.reshape(n * db, n * db)

    def lift(self, m: np.ndarray) -> np.ndarray:
        """S(m (x) I/d_b); C is reduce o lift."""
        return linalg.parity_projection(self.embed(m), self.perm, self.parity)

    def _spectral(self, r: np.ndarray, f0: float, f1: float) -> np.ndarray:
        """f0 (Id - E) r + f1 E r, with E(m) = (tr_B m) (x) I_B/d_b."""
        return f0 * r + (f1 - f0) * self.embed(self.reduce(r))

    def solve_constraint(self, r: np.ndarray) -> np.ndarray:
        """Apply the pseudo-inverse C^+ of the constraint operator C = reduce o lift.

        C = c0 (Id - E) + c1 E with E an orthogonal projector, so C^+ inverts
        each nonzero coefficient and keeps zero ones at zero.
        """
        return self._spectral(r, self.inv0, self.inv1)

    def unreachable_part(self, rho: np.ndarray) -> np.ndarray:
        """rho - C C^+ rho, the component of rho that nothing in the range of S reduces to.

        It is nonzero only for fermionic symmetry with qubit B (c0 = 0: only
        M_A (x) I/2 is reachable) and with d_b = 1 (c1 = 0: nothing is).
        """
        return self._spectral(rho, float(self.inv0 == 0.0), float(self.inv1 == 0.0))

    def project_affine(self, x: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto {Y = S(Y), tr_B' Y = rho}."""
        sx = linalg.parity_projection(x, self.perm, self.parity)
        return sx + self.lift(self.solve_constraint(rho - self.reduce(sx)))

    def dual_candidate(self, step: np.ndarray) -> np.ndarray:
        """Hermitian W = -C^+(tr_B' step) on AB from a DR step difference in the range of S."""
        w = -self.solve_constraint(self.reduce(step))
        return 0.5 * (w + w.conj().T)

    def certificate_shift(self, w: np.ndarray) -> float:
        """Smallest mu >= 0 with S((W + mu I) (x) I_B') PSD."""
        lam = np.linalg.eigvalsh(self.lift(w))[0]
        return self.d_b * max(0.0, -float(lam))

    def shifted(self, w: np.ndarray) -> np.ndarray:
        return w + self.certificate_shift(w) * np.eye(w.shape[0])


def verify_infeasibility_certificate(w: np.ndarray, rho: BipartiteState, symmetry: str = "any") -> bool:
    """Check from scratch that ``w`` proves ``rho`` has no extension.

    With mu the smallest shift making S((W + mu I) (x) I_B'/d_b) PSD, any
    extension sigma of rho would give
    tr((W + mu I) rho) = d_b tr(S((W + mu I) (x) I_B'/d_b) sigma) >= 0, so
    tr(W rho) + mu < -CERTIFICATE_MARGIN * ||W||_F rules every extension
    out.  Only the Hermitian part of ``w`` is used.
    """
    if symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    w = linalg.as_matrix(w)
    if w.shape[0] != rho.dim:
        raise DimensionMismatch(f"certificate dimension {w.shape[0]} does not match the state's {rho.dim}")
    w = 0.5 * (w + w.conj().T)
    geom = _ExtensionGeometry(rho.d_a, rho.d_b, symmetry)
    mu = geom.certificate_shift(w)
    value = float(np.vdot(w, rho.matrix).real) + mu
    return value < -CERTIFICATE_MARGIN * linalg.frobenius(w)


def find_symmetric_extension(rho: BipartiteState, opts: OracleOptions | None = None) -> FeasibilityResult:
    """Decide whether ``rho`` admits a symmetric extension of its B system.

    Douglas-Rachford iteration between the PSD cone and the affine constraint
    set.  The residual is the negative-eigenvalue mass of the affine-feasible
    iterate; it converges to zero exactly when an extension exists and to the
    distance between the two constraint sets otherwise.
    """
    opts = opts or OracleOptions()
    d_a, d_b = rho.d_a, rho.d_b
    if d_a * d_b * d_b > MAX_EXTENSION_DIM:
        raise TooLarge(f"extension dimension {d_a * d_b * d_b} exceeds {MAX_EXTENSION_DIM}")
    geom = _ExtensionGeometry(d_a, d_b, opts.symmetry)

    target = np.asarray(rho.matrix)
    method = f"oracle({opts.symmetry})"
    unreachable = geom.unreachable_part(target)
    bad = linalg.frobenius(unreachable)
    if bad > 1e-10:
        # No Hermitian operator with the required support reduces to rho, PSD
        # or not.  S(W (x) I) vanishes for W = -(rho - C C^+ rho), whose
        # trace against rho is -bad**2.
        cert = geom.shifted(-unreachable)
        certified = verify_infeasibility_certificate(cert, rho, opts.symmetry)
        return FeasibilityResult(
            Feasibility.INFEASIBLE if certified else Feasibility.UNDECIDED, None, bad, 0,
            method=f"oracle({opts.symmetry}-support)",
            certificate=cert if certified else None, stop_reason="support", proven=certified)

    # Starting in the range of S keeps every iterate there: the PSD part of an
    # S-invariant matrix is S-invariant.
    z = geom.lift(target)
    # The raw residual wobbles (it can bump up right before the final plunge
    # of a feasible run), so stall detection tracks the monotone running best.
    best_history: list[float] = []
    best = float("inf")
    for it in range(1, MAX_ITERATIONS + 1):
        x = geom.project_affine(z, target)
        vals = np.linalg.eigvalsh(x)
        res = float(np.sqrt(np.sum(np.minimum(vals, 0.0) ** 2)))
        best = min(best, res)
        best_history.append(best)
        if res <= opts.tol_feasible:
            return _verified_feasible(x, rho, res, it, method)
        reflected = 2.0 * x - z
        w, vecs = np.linalg.eigh(reflected)
        psd = (vecs * np.maximum(w, 0.0)) @ vecs.conj().T
        if it % CERTIFY_EVERY == 0:
            # x - psd = z_k - z_{k+1} tends to the minimal displacement vector.
            cert = geom.shifted(geom.dual_candidate(x - psd))
            if verify_infeasibility_certificate(cert, rho, opts.symmetry):
                return FeasibilityResult(Feasibility.INFEASIBLE, None, best, it, method,
                                         certificate=cert, stop_reason="certified", proven=True)
        if it > STALL_WINDOW:
            old = best_history[it - 1 - STALL_WINDOW]
            if old > 0.0 and (old - best) / old < STALL_IMPROVEMENT:
                return FeasibilityResult(Feasibility.UNDECIDED, None, best, it, method,
                                         stop_reason="stalled")
        z = z + psd - x
    return FeasibilityResult(Feasibility.UNDECIDED, None, best, MAX_ITERATIONS, method,
                             stop_reason="iteration-cap")


def _verified_feasible(x: np.ndarray, rho: BipartiteState, res: float, iterations: int,
                       method: str) -> FeasibilityResult:
    witness = TripartiteExtension(x, rho.d_a, rho.d_b, rho.matrix)
    if not is_symmetric_extension(witness, rho, tol=WITNESS_TOL):
        return FeasibilityResult(Feasibility.UNDECIDED, None, res, iterations, method,
                                 stop_reason="witness-rejected")
    return FeasibilityResult(Feasibility.FEASIBLE, witness, res, iterations, method,
                             stop_reason="converged")


def _closed_form(ok: bool, name: str, margin: float, witness: TripartiteExtension | None = None,
                 proven: bool = True) -> FeasibilityResult:
    return FeasibilityResult(Feasibility.FEASIBLE if ok else Feasibility.INFEASIBLE, witness,
                             float(margin), 0, f"closed-form({name})", proven=proven)


def _lambda_max_margin(rho: BipartiteState) -> float:
    """lambda_max(rho_B) - lambda_max(rho_AB)."""
    return float(linalg.nonzero_eigenvalues(rho.rho_b)[0] - linalg.nonzero_eigenvalues(rho.matrix)[0])


def _pure_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    """A pure state is extendible iff the spectrum condition holds."""
    if rho.purity() < 1.0 - 1e-9:
        return None
    ok, margin = spectrum_condition(rho), _lambda_max_margin(rho)
    if ok and want_witness and (rho.d_a, rho.d_b) == (2, 2):
        return _closed_form(True, "pure-extension", margin, twoqubit.construct_pure_extension(rho))
    return _closed_form(ok, "spectrum", margin)


def _coherent_information_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    """Positive coherent information S(B) - S(AB) rules an extension out."""
    coherent = coherent_information(rho)
    return _closed_form(False, "coherent-information", -coherent) if coherent > 1e-6 else None


def _rank2_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    """Rank 2: ``twoqubit.rank2_condition``, exact for qubit A; for larger A only
    its "no" is proven, and may come with the state's own margin >= 0."""
    if rho.rank() != 2:
        return None
    ok = twoqubit.rank2_condition(rho)
    if ok and rho.d_a != 2:
        return None
    margin = _lambda_max_margin(rho)
    if ok and want_witness and rho.d_b == 2:
        return _closed_form(True, "rank2-decomposition", margin,
                            twoqubit.rank2_decompose(rho).mixed_extension(rho))
    return _closed_form(ok, "rank2", margin)


def _zcorr_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    """Z-correlated states: the closed form decides when y = 0; when y > 0
    one grid search only builds a witness, for ``want_witness``."""
    found = twoqubit.zcorr_from_state(rho)
    if found is None or (found[0].y > 1e-12 and not want_witness):
        return None
    z, u_a, u_b = found
    point = twoqubit.zcorr_feasible_point(z)
    if z.y <= 1e-12:
        margin, name = twoqubit.zcorr_bound_y0(z.p1, z.p2, z.p3, z.p4) - z.x, "zcorr-y0"
    elif point is None:
        return None
    else:  # the slack of both coupling inequalities at the point
        margin, name = min(twoqubit._zcorr_f(*point, z.p1, z.p4) - z.x,
                           twoqubit._zcorr_h(*point, z.p2, z.p3) - z.y), "zcorr-grid"
    witness = None
    if point is not None and want_witness:
        local = np.kron(u_a, np.kron(u_b, u_b))
        canonical = twoqubit.zcorr_build_extension(z, *point).matrix
        witness = TripartiteExtension(linalg.dagger(local) @ canonical @ local, 2, 2, rho.matrix)
    return _closed_form(point is not None, name, margin, witness, proven=name == "zcorr-y0")


def _two_qubit_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    """Two qubits are extendible iff ``twoqubit.conjecture_margin`` >= 0, proven by
    Chen, Ji, Kribs, Lutkenhaus and Zeng, PRA 90, 032318 (2014), arXiv:1310.3530."""
    if (rho.d_a, rho.d_b) != (2, 2):
        return None
    margin = twoqubit.conjecture_margin(rho)
    return _closed_form(margin > 0.0, "two-qubit", margin) if abs(margin) > TWO_QUBIT_BAND else None


def decide(rho: BipartiteState, opts: OracleOptions | None = None,
           want_witness: bool = False) -> FeasibilityResult:
    """Decide whether ``rho`` has an extension of the requested symmetry.

    The first closed form that applies decides: pure state, positive coherent
    information, rank 2, Z-correlated (y = 0), two qubits (Chen et al., PRA 90,
    032318 (2014), when |margin| > TWO_QUBIT_BAND).  A closed-form "no" holds
    in every mode; a "yes" in mode "any", and in mode "bosonic" with qubit B
    after :func:`bosonic_from_symmetric`.  Any other "yes", and a state no
    closed form decides, goes to :func:`find_symmetric_extension`.  With
    ``want_witness`` a "yes" counts only with a witness that re-verifies at
    WITNESS_TOL and a "no" only when proven; otherwise the next step runs.
    """
    opts = opts or OracleOptions()
    for step in (_pure_step, _coherent_information_step, _rank2_step, _zcorr_step, _two_qubit_step):
        result = step(rho, want_witness)
        if result is not None and result.feasible and opts.symmetry != "any":
            if (opts.symmetry, rho.d_b) != ("bosonic", 2):
                break
            if result.witness is not None:
                result = replace(result, witness=bosonic_from_symmetric(result.witness))
        if result is not None and (not want_witness or _backed(result, rho)):
            return result
    return find_symmetric_extension(rho, opts)


def _backed(result: FeasibilityResult, rho: BipartiteState) -> bool:
    """A "yes" with a witness that re-verifies, or a proven "no"."""
    if result.feasible:
        return result.witness is not None and is_symmetric_extension(result.witness, rho, WITNESS_TOL)
    return result.proven


def bosonic_from_symmetric(sigma: TripartiteExtension, tol: float = 1e-8) -> TripartiteExtension:
    """Convert a symmetric extension with qubit B, B' into a bosonic one.

    The antisymmetric subspace of C2 (x) C2 is the singlet, so a
    swap-symmetric state is Pi+ sigma Pi+ + tau_A (x) |singlet><singlet| with
    tau_A = <singlet| sigma |singlet>.  Replacing the singlet by the
    |01>+|10> triplet keeps the reduction to AB and moves all support to the
    symmetric subspace.
    """
    if sigma.d_b != 2:
        raise WrongDimension("bosonic conversion requires B and B' to be qubits")
    if sigma.symmetry_residual > tol:
        raise NotSymmetric(f"symmetry residual {sigma.symmetry_residual:.3e} exceeds {tol}")
    mat = np.asarray(sigma.matrix)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    triplet = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    tau = np.einsum("i,aibj,j->ab", singlet, mat.reshape(sigma.d_a, 4, sigma.d_a, 4), singlet)
    out = (linalg.parity_projection(mat, linalg.swap_permutation(sigma.d_a, 2), 1)
           + np.kron(tau, np.outer(triplet, triplet)))
    return TripartiteExtension(out, sigma.d_a, sigma.d_b, sigma.target_matrix)


def fermionic_qutrit_example(a: float = 1.0, b: float = 1.0, c: float = 1.0):
    """Two-qutrit state with a fermionic but no bosonic extension.

    Built from the totally antisymmetric combinations of |012>, |120>, |201>
    (weights a, b, c before normalization).  Returns the reduced state, the
    oracle verdict under bosonic symmetry, and the directly constructed
    fermionic witness packaged as a Feasible result under plain symmetry.
    """
    if a == 0.0 or b == 0.0 or c == 0.0:
        raise ValueError("all three coefficients must be nonzero")

    def ket(i, j, k):
        v = np.zeros(27, dtype=np.complex128)
        v[(i * 3 + j) * 3 + k] = 1.0
        return v

    psi = (a * (ket(0, 1, 2) - ket(0, 2, 1))
           + b * (ket(1, 2, 0) - ket(1, 0, 2))
           + c * (ket(2, 0, 1) - ket(2, 1, 0)))
    psi /= np.linalg.norm(psi)
    reduced = linalg.partial_trace(np.outer(psi, psi.conj()), [3, 3, 3], keep=[0, 1])
    rho = BipartiteState(reduced, 3, 3)
    witness = TripartiteExtension(np.outer(psi, psi.conj()), 3, 3, rho.matrix)
    any_result = FeasibilityResult(
        Feasibility.FEASIBLE, witness,
        residual=max(witness.symmetry_residual, witness.reduction_residual),
        iterations=0, method="construction(fermionic)")
    bosonic_result = find_symmetric_extension(rho, OracleOptions(symmetry="bosonic"))
    return rho, bosonic_result, any_result
