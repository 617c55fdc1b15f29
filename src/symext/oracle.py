"""Numerical feasibility oracle for symmetric, bosonic and fermionic extensions.

The decision problem "does rho_AB admit a (swap-invariant) extension to
A (x) B (x) B'?" is a semidefinite feasibility problem: find a PSD matrix in
the affine set of Hermitian operators that are swap-symmetric (or supported
on the symmetric/antisymmetric subspace) and reduce to rho_AB.  It is solved
with Douglas-Rachford reflections between the PSD cone and the affine set;
the affine projection has a closed form for all three symmetry modes.

Feasibility is certified by an explicit witness that is independently
re-verified.  Infeasibility is certified by a dual witness: a Hermitian W on
AB, built from the Douglas-Rachford step difference (which converges to the
minimal displacement vector on inconsistent problems), with
S(W (x) I_B') >= 0 and tr(W rho) < 0, where S is the projection of the
symmetry mode.  Any extension sigma would give
tr(W rho) = tr(S(W (x) I_B') sigma) >= 0, so such a W rules one out; the
check has a margin of CERTIFICATE_MARGIN * ||W||_F and is re-run from scratch
by :func:`verify_infeasibility_certificate`.  A run that stalls or hits the
iteration cap without either certificate comes back Undecided.

:func:`decide` is the decision pipeline: the closed forms in a fixed order, this oracle last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, twoqubit
from .errors import DimensionMismatch, NotSymmetric, TooLarge, WrongDimension
from .states import (
    BipartiteState,
    TripartiteExtension,
    coherent_information,
    is_symmetric_extension,
    spectral_symmetric_decomposition,
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

# Every witness a verdict rests on re-verifies at this tolerance.
WITNESS_TOL = 1e-7


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
    It gives up Undecided when the residual has stopped improving (relative
    change below ``stall_improvement`` across ``stall_window`` iterations)
    or after ``max_iterations``.
    """

    symmetry: str = "any"
    tol_feasible: float = 1e-9
    max_iterations: int = 50000
    stall_window: int = 500
    stall_improvement: float = 1e-7

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
    Infeasible one.  ``proven``: the verdict rests on a theorem or a
    verified certificate (not on the grid search or an oracle "yes").
    ``residual`` is the oracle's best constraint residual, or a closed
    form's margin (>= 0 on the extendible side).  ``stop_reason`` says why
    the oracle stopped: "converged", "certified", "stalled", "iteration-cap",
    "support" (the state is outside the reductions the symmetry mode can
    reach) or "witness-rejected"; it is None for closed-form verdicts.
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
    """Projections for one (d_a, d_b, symmetry) problem instance."""

    def __init__(self, d_a: int, d_b: int, symmetry: str):
        self.d_a, self.d_b, self.symmetry = d_a, d_b, symmetry
        self.dim = d_a * d_b * d_b
        self.perm = linalg.swap_permutation(d_a, d_b)
        self._ix = np.ix_(self.perm, self.perm)
        if symmetry == "any":
            self.sign = 0.0
            self.alpha, self.beta = 0.5, 0.5
        else:
            self.sign = 1.0 if symmetry == "bosonic" else -1.0
            self.alpha = (1.0 + self.sign * 2.0 / d_b) / 4.0
            self.beta = 0.25

    def symmetrize(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the symmetry subspace of matrices."""
        if self.symmetry == "any":
            return 0.5 * (x + x[self._ix])
        half = 0.5 * (x + self.sign * x[self.perm, :])
        return 0.5 * (half + self.sign * half[:, self.perm])

    def reduce_bprime(self, x: np.ndarray) -> np.ndarray:
        dab, db = self.d_a * self.d_b, self.d_b
        return np.einsum("aibi->ab", x.reshape(dab, db, dab, db))

    def _reduce_b(self, m: np.ndarray) -> np.ndarray:
        return np.einsum("aibi->ab", m.reshape(self.d_a, self.d_b, self.d_a, self.d_b))

    def _embed_b(self, m: np.ndarray) -> np.ndarray:
        out = np.zeros((self.d_a * self.d_b, self.d_a * self.d_b), dtype=np.complex128)
        v = out.reshape(self.d_a, self.d_b, self.d_a, self.d_b)
        for i in range(self.d_b):
            v[:, i, :, i] = m / self.d_b
        return out

    def embed_bprime(self, m: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        v = out.reshape(self.d_a * self.d_b, self.d_b, self.d_a * self.d_b, self.d_b)
        for i in range(self.d_b):
            v[:, i, :, i] = m / self.d_b
        return out

    def unreachable_part(self, rho: np.ndarray) -> np.ndarray | None:
        """Component of rho outside the reachable reductions, or None.

        Only a singular constraint operator leaves anything unreachable,
        which happens for fermionic symmetry with qubit B: the antisymmetric
        subspace is spanned by the singlet, so only states of the form
        M_A (x) I/2 are reachable at all.
        """
        if self.alpha > 1e-12:
            return None
        return rho - self._embed_b(self._reduce_b(rho))

    def solve_constraint(self, r: np.ndarray) -> np.ndarray:
        """Apply C^-1 (the pseudo-inverse when C is singular).

        The constraint operator C = tr_B' o S o ( . (x) I/d_b ) equals
        alpha*Id + beta*E with E(m) = (tr_B m) (x) I_B/d_b an orthogonal
        projector, so its inverse is available in closed form.
        """
        if self.alpha > 1e-12:
            er = self._embed_b(self._reduce_b(r))
            return r / self.alpha + (1.0 / (self.alpha + self.beta) - 1.0 / self.alpha) * er
        return r / self.beta

    def project_affine(self, x: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto {Y = S(Y), tr_B' Y = rho}."""
        sx = self.symmetrize(x)
        r = rho - self.reduce_bprime(sx)
        return sx + self.symmetrize(self.embed_bprime(self.solve_constraint(r)))

    def dual_candidate(self, step: np.ndarray) -> np.ndarray:
        """Hermitian W = -C^-1(tr_B' S(step)) on AB from a DR step difference."""
        w = -self.solve_constraint(self.reduce_bprime(self.symmetrize(step)))
        return 0.5 * (w + w.conj().T)

    def certificate_shift(self, w: np.ndarray) -> float:
        """Smallest mu >= 0 with S((W + mu I) (x) I_B') PSD."""
        lam = np.linalg.eigvalsh(self.symmetrize(self.embed_bprime(w)))[0]
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
    if unreachable is not None:
        bad = linalg.frobenius(unreachable)
        if bad > 1e-10:
            # No Hermitian operator with the required support reduces to rho,
            # PSD or not.  S(W (x) I) vanishes for W = -unreachable, whose
            # trace against rho is -bad**2.
            cert = geom.shifted(-unreachable)
            certified = verify_infeasibility_certificate(cert, rho, opts.symmetry)
            return FeasibilityResult(
                Feasibility.INFEASIBLE if certified else Feasibility.UNDECIDED, None, bad, 0,
                method=f"oracle({opts.symmetry}-support)",
                certificate=cert if certified else None, stop_reason="support", proven=certified)

    z = geom.embed_bprime(target)
    # The raw residual wobbles (it can bump up right before the final plunge
    # of a feasible run), so stall detection tracks the monotone running best.
    best_history: list[float] = []
    best = float("inf")
    for it in range(1, opts.max_iterations + 1):
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
        if it > opts.stall_window:
            old = best_history[it - 1 - opts.stall_window]
            if old > 0.0 and (old - best) / old < opts.stall_improvement:
                return FeasibilityResult(Feasibility.UNDECIDED, None, best, it, method,
                                         stop_reason="stalled")
        z = z + psd - x
    return FeasibilityResult(Feasibility.UNDECIDED, None, best, opts.max_iterations, method,
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
    """Rank 2: the maximum-eigenvalue test, necessary always and sufficient for qubit A."""
    if rho.rank() != 2:
        return None
    margin = _lambda_max_margin(rho)
    if not twoqubit._rank_le2_necessary_ok(np.asarray(rho.matrix), rho.d_a, rho.d_b):
        return _closed_form(False, "rank2", margin)
    if rho.d_a != 2:
        return None
    if want_witness and rho.d_b == 2:
        return _closed_form(True, "rank2-decomposition", margin,
                            twoqubit.rank2_decompose(rho).mixed_extension(rho))
    return _closed_form(True, "rank2", margin)


def _bell_diagonal_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    bell = twoqubit.bell_diagonal_from_state(rho)
    if bell is None:
        return None
    return _closed_form(twoqubit.bell_extendible(bell), "bell-diagonal", max(twoqubit.bell_margins(bell)))


def _zcorr_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    """Z-correlated states: exact when y = 0, an unproven grid search otherwise."""
    found = twoqubit.zcorr_from_state(rho)
    if found is None:
        return None
    z, u_a, u_b = found
    exact = bool(z.y <= 1e-12)
    if exact:
        bound = twoqubit.zcorr_bound_y0(z.p1, z.p2, z.p3, z.p4)
        ok, margin = z.x <= bound + 1e-9, bound - z.x
    else:
        ok, margin = twoqubit.zcorr_extendible(z), twoqubit._zcorr_grid_search(z)[0]
    point = twoqubit.zcorr_feasible_point(z) if ok and want_witness else None
    witness = None
    if point is not None:
        local = np.kron(u_a, np.kron(u_b, u_b))
        canonical = twoqubit.zcorr_build_extension(z, *point).matrix
        witness = TripartiteExtension(linalg.dagger(local) @ canonical @ local, 2, 2, rho.matrix)
    return _closed_form(ok, "zcorr-y0" if exact else "zcorr-grid", margin, witness, proven=exact)


def decide(rho: BipartiteState, opts: OracleOptions | None = None,
           want_witness: bool = False) -> FeasibilityResult:
    """Decide whether ``rho`` has a symmetric extension.

    In mode "any" the first closed form that applies decides, in this order:
    pure state, positive coherent information, rank 2, Bell-diagonal,
    Z-correlated.  Other modes, and states no closed form decides, go to
    :func:`find_symmetric_extension`.  With ``want_witness`` a closed-form
    "yes" counts only with a witness that re-verifies at WITNESS_TOL and a
    "no" only when proven; otherwise the next step runs.
    """
    opts = opts or OracleOptions()
    steps = (_pure_step, _coherent_information_step, _rank2_step, _bell_diagonal_step,
             _zcorr_step) if opts.symmetry == "any" else ()
    for step in steps:
        result = step(rho, want_witness)
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

    Antisymmetric eigenvectors of a swap-symmetric state on A (x) C2 (x) C2
    factor through the singlet; replacing the singlet with the |01>+|10>
    triplet state preserves the reduction to AB while moving all support to
    the symmetric subspace.
    """
    if sigma.d_b != 2:
        raise WrongDimension("bosonic conversion requires B and B' to be qubits")
    if sigma.symmetry_residual > tol:
        raise NotSymmetric(f"symmetry residual {sigma.symmetry_residual:.3e} exceeds {tol}")
    d_a = sigma.d_a
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)
    triplet = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)

    out = np.zeros((sigma.dim, sigma.dim), dtype=np.complex128)
    for weight, vec, parity in spectral_symmetric_decomposition(sigma):
        if parity > 0:
            out += weight * np.outer(vec, vec.conj())
        else:
            a_part = vec.reshape(d_a, 4) @ singlet.conj()
            replaced = np.kron(a_part, triplet)
            out += weight * np.outer(replaced, replaced.conj())
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
