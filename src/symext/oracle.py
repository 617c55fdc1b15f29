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
S(rho (x) I/d_b) and its iterates stay in the range of S, so they commute
with the swap and are block diagonal on its two sectors, of dimensions
k_s = d_a d_b (d_b +- 1)/2 of N = d_a d_b^2 (Doherty, Parrilo and
Spedalieri, PRA 69, 022308 (2004)).  Every eigendecomposition of the
full-space iteration (its residual, its PSD step and the certificate shift)
runs on the blocks of the sectors S keeps: one in bosonic and fermionic
mode, whose other sector adds only zero eigenvalues, and both in mode "any"
above N = WHOLE_EIGH_MAX_DIM = 25, where LAPACK's eigensolver would leave its
single-threaded QR path.  Up to 25 mode "any" decomposes the whole N x N
matrix, which is cheaper there than two blocks.

Feasibility is certified by an explicit witness that is independently
re-verified.  Infeasibility is certified by a dual witness: a Hermitian W on
AB, built from the Douglas-Rachford step difference (which converges to the
minimal displacement vector on inconsistent problems), with
S(W (x) I_B') >= 0 and tr(W rho) < 0.  Any extension sigma would give
tr(W rho) = tr(S(W (x) I_B') sigma) >= 0, so such a W rules one out; the
check has a margin of CERTIFICATE_MARGIN * ||W||_F and is re-run from scratch
by :func:`verify_infeasibility_certificate`.  A run that stalls or hits the
iteration cap without either certificate comes back Undecided.

A run still undecided after two certificate checks (ANDERSON_START
iterations) switches from the plain step z <- T(z) = z - g to type-II
Anderson steps over its last ANDERSON_MEMORY step differences, with memory
cleared whenever ||g|| grows (Walker and Ni, SIAM J. Numer. Anal. 49 (2011);
Fu, Zhang and Boyd, "Anderson accelerated Douglas-Rachford splitting", SIAM J.
Sci. Comput. 42 (2020)).  Each later check that fails on g tries the
Anderson-mixed residual, which approximates the minimal displacement vector
sooner, as a second candidate.  A run of at most ANDERSON_START iterations is
plain Douglas-Rachford.

A rank-deficient rho is decided on its face, and only there.  With R an
orthonormal basis of its range, every extension lives on (R (x) H_B') within
the sectors S keeps: for v in ker rho, tr((|v><v| (x) I) sigma) = <v|rho|v> = 0
(Drusvyatskiy and Wolkowicz, "The many faces of degeneracy in conic
optimization", 2017).  One eigh of the swap in the coordinates of
X = R (x) I_B' gives the face (:func:`_face_bases`, an absolute cut on the
principal angles); there sigma = X (sum_s C_s Y_s C_s^dag) X^dag and the
reduction constraint is one small matrix M, factored once.  An empty face, an
empty affine set (M row-rank deficient) and a face affine set of one point
are decided with no iteration; otherwise Douglas-Rachford runs on the blocks
Y_s.  A face witness is rescaled to unit trace (the mass of rho under the
zero cut lies off the face); a face "no" is a dual witness W0 on the range,
lifted to W = R W0 R^dag + t (I - R R^dag); both are re-verified like any
other.  The full-space iteration runs only for a full-rank rho and for a face
whose M has more than MAX_FACE_ENTRIES entries, so every call runs at most
one Douglas-Rachford loop.

:func:`decide` is the decision pipeline: the closed forms in a fixed order, this oracle last.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import linalg, twoqubit
from .errors import DimensionMismatch, NotAState, NotSymmetric, TooLarge, WrongDimension
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

# A run still undecided after ANDERSON_START iterations takes Anderson steps
# over its last ANDERSON_MEMORY step differences (see the module docstring).
ANDERSON_START = 2 * CERTIFY_EVERY
ANDERSON_MEMORY = 5

# A dual certificate W proves infeasibility when tr(W rho) + mu falls below
# -CERTIFICATE_MARGIN * ||W||_F, mu being the shift that makes S(W (x) I) PSD.
CERTIFICATE_MARGIN = 1e-9

# The iteration gives up Undecided after MAX_ITERATIONS, or once the best
# residual has improved by a relative amount below STALL_IMPROVEMENT over the
# last STALL_WINDOW iterations.
MAX_ITERATIONS = 50000
STALL_WINDOW = 500
STALL_IMPROVEMENT = 1e-7

# A rank-deficient rho of rank r goes straight to the full-space iteration
# when its face constraint matrix M has more than this many entries
# (r^2 * sum_s k_s^2; 2^22 complex entries are 64 MB).
MAX_FACE_ENTRIES = 2 ** 22

# Mode "any" eigendecomposes the whole N x N iterate up to this extension
# dimension N and its two swap-sector blocks above it.  LAPACK's Hermitian
# eigensolver (xSTEDC) runs its QR path up to n = SMLSIZ = 25 and divide and
# conquer, which calls threaded BLAS-3, above it.  Up to 25 one whole eigh is
# cheaper than two smaller ones.  Above it the blocks cost fewer flops, and
# at 3x3, 2x4 and 4x3 (N = 27, 32, 36; blocks 18 and 9, 20 and 12, 24 and
# 12 wide) each stays on the single-threaded QR path.
WHOLE_EIGH_MAX_DIM = 25

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
    """The extension the oracle asks for.

    ``symmetry`` selects plain swap invariance ("any") or support on the
    symmetric/antisymmetric subspace ("bosonic"/"fermionic").  The iteration
    ends Feasible once the negative-eigenvalue mass of its affine point is
    within ``linalg.EIGENVALUE_TOL`` and the witness re-verifies, and
    Infeasible once a dual certificate verifies (checked every CERTIFY_EVERY
    iterations, margin CERTIFICATE_MARGIN).  It gives up Undecided when the
    residual has stopped improving (see STALL_WINDOW and STALL_IMPROVEMENT)
    or after MAX_ITERATIONS.
    """

    symmetry: str = "any"

    def __post_init__(self):
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry {self.symmetry!r}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict with the evidence behind it.

    ``witness`` backs a Feasible verdict, ``certificate`` (a shifted dual
    witness W on AB, see :func:`verify_infeasibility_certificate`) an
    Infeasible one.  ``proven``: the verdict rests on a theorem (such as the
    two-qubit condition, Chen et al., PRA 90, 032318 (2014)) or a verified
    certificate, not on an oracle "yes".  ``residual`` is the oracle's best
    constraint residual, or a closed form's margin: < 0 on every closed-form
    "no", and >= 0 on the extendible side up to the rounding tolerance the
    closed form reads it with (1e-9 for rank 2 and the Z-correlated y = 0
    form, spectra matching to 1e-8), so a "yes" may print a margin such as
    -2.2e-16.  ``stop_reason`` says why the oracle stopped:
    "converged", "certified", "stalled", "iteration-cap", "support" (the
    state is outside the reductions the symmetry mode can reach; Undecided
    if its certificate fails to verify), "witness-rejected" or
    "certificate-rejected" (a face's one affine point is not PSD and the dual
    witness of its negative part fails to verify); it is None for closed-form
    verdicts.  ``iterations`` counts the iterations of the one
    Douglas-Rachford loop that ran, on the face or on the full space, the
    Anderson steps after the first ANDERSON_START included; a face
    exit of a rank-deficient state reports 0 with ``residual`` the
    negative-eigenvalue mass of the face's one affine point, or the distance
    ||e|| of the face's affine set from the constraint when that set is
    empty (the whole face being empty included).
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


class _SectorBlock:
    """The diagonal block of a swap-invariant matrix on parity sector s of the B <-> B' swap P.

    The sector has dimension k_s = d_a d_b (d_b + s)/2 and the orthonormal
    basis |a i j> (i = j, s = +1) and (|a i j> + s |a j i>)/sqrt(2) (i < j),
    the columns of ``basis``.  With I the indices of |a i j>, i <= j
    (s = +1) or i < j (s = -1), and D sqrt(2) where i < j and 1 where i = j,
    the block of an x with P x P = x is
    basis^dag x basis = (x[I, I] + s x[I, P(I)]) D D^T / 2, gathered through
    the flat indices ``index`` of x[I, I] and x[I, P(I)] and the weights
    ``weight`` = D D^T / 2.  For an x in the sector itself
    (x[I, P(I)] = s x[I, I]) that is D x[I, I] D.
    """

    def __init__(self, d_a: int, d_b: int, perm: np.ndarray, s: int):
        n = perm.size
        i, j = np.indices((d_a, d_b, d_b))[1:].reshape(2, -1)
        rows = np.flatnonzero(i <= j if s > 0 else i < j)
        scale = np.where(i[rows] < j[rows], np.sqrt(2.0), 1.0)
        self.s = s
        self.index = np.stack([rows[:, None] * n + rows, rows[:, None] * n + perm[rows]])
        self.weight = np.outer(scale, scale) / 2.0
        scatter = np.zeros((n, rows.size), dtype=np.complex128)
        scatter[rows, np.arange(rows.size)] = scale
        self.basis = 0.5 * (scatter + s * scatter[perm])
        for a in (self.index, self.weight, self.basis):
            a.flags.writeable = False  # shared like _ExtensionGeometry.perm

    def _block(self, x: np.ndarray) -> np.ndarray:
        t = x.take(self.index)
        return (t[0] + self.s * t[1]) * self.weight

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self._block(x))

    def psd_part(self, x: np.ndarray) -> np.ndarray:
        """basis psd(block) basis^dag: the PSD part of x on this sector."""
        w, vecs = np.linalg.eigh(self._block(x))
        vecs = self.basis @ vecs
        return (vecs * np.maximum(w, 0.0)) @ vecs.conj().T


class _WholeMatrix:
    """The whole N x N matrix as its own one block."""

    @staticmethod
    def spectrum(x: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(x)

    @staticmethod
    def psd_part(x: np.ndarray) -> np.ndarray:
        return _psd_part(x)


class _ExtensionGeometry:
    """Projections for one (d_a, d_b, symmetry) problem instance.

    S is the projection of the symmetry mode: the swap-invariant part in mode
    "any" (parity 0), the symmetric or antisymmetric sector otherwise.  A
    matrix x in the range of S commutes with the swap, so it is block
    diagonal on the swap's two sectors, and ``blocks`` lists what every
    eigendecomposition of x runs on: the kept sector's :class:`_SectorBlock`
    in bosonic and fermionic mode (x has N - k_s more eigenvalues, all
    zero), both sectors' in mode "any" when N = d_a d_b^2 exceeds
    WHOLE_EIGH_MAX_DIM, and :class:`_WholeMatrix` in mode "any" up to that
    size, where one eigh of the whole N x N matrix is cheaper than two and
    LAPACK keeps it single-threaded.
    """

    def __init__(self, d_a: int, d_b: int, symmetry: str):
        self.d_a, self.d_b, self.symmetry = d_a, d_b, symmetry
        self.perm = linalg.swap_permutation(d_a, d_b)
        self.perm.flags.writeable = False  # shared by every call through _geometry
        self.parity = {"any": 0, "bosonic": 1, "fermionic": -1}[symmetry]
        # C = c0 (Id - E) + c1 E, summed over the parity sectors S allows.
        self.sectors = (1, -1) if self.parity == 0 else (self.parity,)
        c0 = sum((1.0 + 2.0 * s / d_b) / 4.0 for s in self.sectors)
        self.inv0, self.inv1 = (0.0 if abs(c) <= 1e-12 else 1.0 / c
                                for c in (c0, c0 + len(self.sectors) / 4.0))
        if self.parity == 0 and self.perm.size <= WHOLE_EIGH_MAX_DIM:
            self.blocks = (_WholeMatrix(),)
        else:
            self.blocks = tuple(_SectorBlock(d_a, d_b, self.perm, s) for s in self.sectors)

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

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        """Eigenvalues of x in the range of S, block by block; one sector's block leaves out N - k_s zeros."""
        first, *rest = (block.spectrum(x) for block in self.blocks)
        return np.concatenate([first, *rest]) if rest else first

    def psd_part(self, x: np.ndarray) -> np.ndarray:
        """Projection onto the PSD cone of x in the range of S, which it stays in."""
        first, *rest = (block.psd_part(x) for block in self.blocks)
        return sum(rest, first)

    def certificate_shift(self, w: np.ndarray) -> float:
        """Smallest mu >= 0 with S((W + mu I) (x) I_B') PSD."""
        lam = self.spectrum(self.lift(w)).min(initial=0.0)
        return self.d_b * max(0.0, -float(lam))

    def certified(self, w: np.ndarray, rho: BipartiteState) -> np.ndarray | None:
        """W + mu I if :func:`verify_infeasibility_certificate` accepts it for ``rho``, else None."""
        cert = w + self.certificate_shift(w) * np.eye(w.shape[0])
        return cert if verify_infeasibility_certificate(cert, rho, self.symmetry) else None


@lru_cache(maxsize=64)
def _geometry(d_a: int, d_b: int, symmetry: str) -> _ExtensionGeometry:
    """The one :class:`_ExtensionGeometry` of each shape and mode."""
    return _ExtensionGeometry(d_a, d_b, symmetry)


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
    mu = _geometry(rho.d_a, rho.d_b, symmetry).certificate_shift(w)
    value = float(np.vdot(w, rho.matrix).real) + mu
    return value < -CERTIFICATE_MARGIN * linalg.frobenius(w)


def find_symmetric_extension(rho: BipartiteState, opts: OracleOptions | None = None) -> FeasibilityResult:
    """Decide whether ``rho`` admits a symmetric extension of its B system.

    Douglas-Rachford iteration between the PSD cone and the affine constraint
    set, on the face of a rank-deficient ``rho`` (see the module docstring)
    and on the full space otherwise; the verdict of the route taken is
    returned, Undecided included.  The residual is the negative-eigenvalue
    mass of the affine-feasible iterate; it converges to zero exactly when an
    extension exists and to the distance between the two constraint sets
    otherwise.
    """
    opts = opts or OracleOptions()
    d_a, d_b = rho.d_a, rho.d_b
    if d_a * d_b * d_b > MAX_EXTENSION_DIM:
        raise TooLarge(f"extension dimension {d_a * d_b * d_b} exceeds {MAX_EXTENSION_DIM}")
    geom = _geometry(d_a, d_b, opts.symmetry)

    target = np.asarray(rho.matrix)
    method = f"oracle({opts.symmetry})"
    unreachable = geom.unreachable_part(target)
    bad = linalg.frobenius(unreachable)
    if bad > 1e-10:
        # No Hermitian operator with the required support reduces to rho, PSD
        # or not.  S(W (x) I) vanishes for W = -(rho - C C^+ rho), whose
        # trace against rho is -bad**2.
        cert = geom.certified(-unreachable, rho)
        return FeasibilityResult(
            Feasibility.UNDECIDED if cert is None else Feasibility.INFEASIBLE, None, bad, 0,
            method=f"oracle({opts.symmetry}-support)",
            certificate=cert, stop_reason="support", proven=cert is not None)

    lam, range_basis = linalg.support(target)
    if lam.size < target.shape[0]:
        x = np.kron(range_basis, np.eye(d_b))
        bases = _face_bases(geom, x)
        if lam.size ** 2 * sum(f.shape[1] ** 2 for f in bases) <= MAX_FACE_ENTRIES:
            return _decide_on_face(_Face(rho, geom, range_basis, x, bases), method)

    # Starting in the range of S keeps every iterate there: the PSD part of an
    # S-invariant matrix is S-invariant.
    outcome = _douglas_rachford(geom.lift(target), lambda z: geom.project_affine(z, target),
                                geom.spectrum, geom.psd_part,
                                lambda step: geom.certified(geom.dual_candidate(step), rho))
    return _loop_result(outcome, rho, method, lambda x: x)


def _negative_mass(vals: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.minimum(vals, 0.0) ** 2)))


def _psd_part(m: np.ndarray) -> np.ndarray:
    """Projection of a Hermitian matrix onto the PSD cone."""
    w, vecs = np.linalg.eigh(m)
    return (vecs * np.maximum(w, 0.0)) @ vecs.conj().T


def _douglas_rachford(z, project, eigvalsh, psd_part, certify):
    """Douglas-Rachford iteration from ``z`` between an affine set and the PSD cone.

    ``project`` is the projection onto the affine set, ``eigvalsh`` the spectrum
    of an affine point and ``psd_part`` the projection onto the cone.  The
    plain step is z <- T(z) = z - g with g = x - psd_part(2x - z), x =
    project(z); after ANDERSON_START iterations :class:`_Anderson` mixes it.
    Every CERTIFY_EVERY iterations the step difference g goes to ``certify``,
    which returns a verified infeasibility certificate or None, and when that
    fails, so does the Anderson-mixed residual.  Returns (stop_reason, found,
    residual, iterations): "converged" with the affine point whose residual
    fell to ``linalg.EIGENVALUE_TOL``, "certified" with the certificate, or
    "stalled" / "iteration-cap" with None and the best residual.
    """
    # The raw residual wobbles (it can bump up right before the final plunge
    # of a feasible run), so stall detection tracks the monotone running best.
    best_history: list[float] = []
    best = float("inf")
    anderson = _Anderson()
    for it in range(1, MAX_ITERATIONS + 1):
        x = project(z)
        res = _negative_mass(eigvalsh(x))
        best = min(best, res)
        best_history.append(best)
        if res <= linalg.EIGENVALUE_TOL:
            return "converged", x, res, it
        psd = psd_part(2.0 * x - z)
        # g = z - T(z) tends to the minimal displacement vector of an
        # inconsistent problem; the mixed residual approximates it sooner.
        g, z = x - psd, z + psd - x
        mixing = it >= ANDERSON_START and anderson.push(z, g)
        if mixing:
            z = anderson.step()
        if it % CERTIFY_EVERY == 0:
            cert = certify(g)
            if cert is None and mixing:
                cert = certify(anderson.residual())
            if cert is not None:
                return "certified", cert, best, it
        if it > STALL_WINDOW:
            old = best_history[it - 1 - STALL_WINDOW]
            if old > 0.0 and (old - best) / old < STALL_IMPROVEMENT:
                return "stalled", None, best, it
    return "iteration-cap", None, best, MAX_ITERATIONS


def _real(a: np.ndarray) -> np.ndarray:
    """A complex array as one flat vector of its real and imaginary parts (a view)."""
    return np.ascontiguousarray(a, dtype=np.complex128).reshape(-1).view(np.float64)


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point iteration z <- T(z) = z - g.

    With the last ANDERSON_MEMORY differences of T(z) and of g as the rows of
    dT and dG, gamma minimizes ||g - gamma dG||, the step is
    T(z) - gamma dT and g - gamma dG is the mixed residual.  Inner products
    are real (the real parts of the Frobenius ones), so gamma is real and
    Hermitian iterates stay Hermitian.  dT and dG live in ring buffers, and
    the Gram matrix of dG gains one row per step.  The memory is cleared, and
    that step left plain, when ||g|| grows, which a plain step never lets
    happen (T is firmly nonexpansive).
    """

    def __init__(self):
        self.count = self.slot = 0
        self.last = None

    def push(self, t: np.ndarray, g: np.ndarray) -> bool:
        """Record T(z) and g of one iterate; True when there is a difference to mix with."""
        tf, gf = _real(t), _real(g)
        norm = gf @ gf
        last, self.last, self.shape = self.last, (tf, gf, norm), t.shape
        if last is None:
            self.dt, self.dg = np.empty((2, ANDERSON_MEMORY, tf.size))
            self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
            # a relative ridge on the diagonal keeps gamma bounded when dG is
            # nearly rank deficient
            self.ridge = 1.0 + 1e-12 * np.eye(ANDERSON_MEMORY)
            return False
        if norm > last[2]:
            self.count = self.slot = 0
            return False
        k, dg = self.slot, self.dg
        np.subtract(tf, last[0], out=self.dt[k])
        np.subtract(gf, last[1], out=dg[k])
        c = self.count = min(self.count + 1, ANDERSON_MEMORY)
        self.slot = (k + 1) % ANDERSON_MEMORY
        self.gram[k, :c] = self.gram[:c, k] = dg[:c] @ dg[k]
        try:
            self.gamma = np.linalg.solve(self.gram[:c, :c] * self.ridge[:c, :c], dg[:c] @ gf)
        except np.linalg.LinAlgError:  # dG = 0: g has stopped moving
            self.count = self.slot = 0
            return False
        return True

    def residual(self) -> np.ndarray:
        """g - gamma dG for the last iterate pushed."""
        out = self.last[1] - self.gamma @ self.dg[:self.count]
        return out.view(np.complex128).reshape(self.shape)

    def step(self) -> np.ndarray:
        """T(z) - gamma dT for the last iterate pushed."""
        out = self.last[0] - self.gamma @ self.dt[:self.count]
        return out.view(np.complex128).reshape(self.shape)


def _loop_result(outcome, rho: BipartiteState, method: str, extension) -> FeasibilityResult:
    """The verdict of a :func:`_douglas_rachford` outcome or a face exit; ``extension``
    maps its affine point to a matrix on A B B', which must re-verify at WITNESS_TOL."""
    reason, found, res, it = outcome
    if reason == "converged":
        try:
            witness = TripartiteExtension(extension(found), rho.d_a, rho.d_b, rho.matrix)
        except NotAState:
            witness = None
        if witness is not None and is_symmetric_extension(witness, rho, tol=WITNESS_TOL):
            return FeasibilityResult(Feasibility.FEASIBLE, witness, res, it, method, stop_reason=reason)
        reason = "witness-rejected"
    elif reason == "certified":
        return FeasibilityResult(Feasibility.INFEASIBLE, None, res, it, method,
                                 certificate=found, stop_reason=reason, proven=True)
    return FeasibilityResult(Feasibility.UNDECIDED, None, res, it, method, stop_reason=reason)


class _Face:
    """The face of the extension problem that the support of rho leaves.

    ``x`` is X = R (x) I_B' (as given to :func:`_face_bases`), and ``bases``
    holds, for each sector S keeps, the coordinates C_s (r d_b x k_s, possibly
    no columns) of the face's orthonormal basis X C_s.
    A point y stacks the blocks Y_s of sigma = X (sum_s C_s Y_s C_s^dag) X^dag
    row-major.  As R^dag tr_B'(X Z X^dag) R = tr_B'(Z), the reduction
    constraint R^dag tr_B'(sigma) R = R^dag rho R reads M y = b with M built
    from the C_s alone, M = U diag(s) Vh kept above the zero cut.
    """

    def __init__(self, rho: BipartiteState, geom: _ExtensionGeometry, range_basis: np.ndarray,
                 x: np.ndarray, bases: list[np.ndarray]):
        self.rho, self.geom = rho, geom
        self.range, self.x, self.bases = range_basis, x, bases
        r = range_basis.shape[1]
        self.sizes = [c.shape[1] for c in bases]
        self.offsets = np.cumsum([0] + [k * k for k in self.sizes])
        self.b = (linalg.dagger(range_basis) @ rho.matrix @ range_basis).ravel()
        columns = []
        for c, k in zip(bases, self.sizes):
            g = c.reshape(r, geom.d_b, k)
            columns.append(np.einsum("pbi,qbj->pqij", g, g.conj()).reshape(r * r, k * k))
        self.m = np.hstack(columns)
        u, s, vh = np.linalg.svd(self.m, full_matrices=False)
        keep = linalg.above_cut(s)
        self.u, self.s, self.vh = u[:, keep], s[keep], vh[keep]
        self.v = linalg.dagger(self.vh)
        # the least-squares point of least norm
        self.y0 = self.v @ ((linalg.dagger(self.u) @ self.b) / self.s)

    def blocks(self, y: np.ndarray) -> list[np.ndarray]:
        return [y[lo:hi].reshape(k, k) for lo, hi, k in zip(self.offsets, self.offsets[1:], self.sizes)]

    def extension(self, y: np.ndarray) -> np.ndarray:
        """S(X (sum_s C_s Y_s C_s^dag) X^dag) at unit trace: X C_s has parity s up
        to rounding, and the mass of rho under the zero cut lies off the face."""
        z = sum(c @ blk @ c.conj().T for c, blk in zip(self.bases, self.blocks(y)))
        sigma = linalg.parity_projection(self.x @ z @ self.x.conj().T, self.geom.perm, self.geom.parity)
        trace = np.trace(z).real
        return sigma / trace if trace > 0.0 else sigma

    def project(self, z: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto {M y = U U^dag b}."""
        return self.y0 + z - self.v @ (self.vh @ z)

    def eigvalsh(self, y: np.ndarray) -> np.ndarray:
        return np.concatenate([np.linalg.eigvalsh(blk) for blk in self.blocks(y)])

    def psd_part(self, y: np.ndarray) -> np.ndarray:
        return np.concatenate([_psd_part(blk).ravel() for blk in self.blocks(y)])

    def dual(self, c: np.ndarray) -> np.ndarray:
        """(M^dag)^+ c as an r x r matrix."""
        r = self.range.shape[1]
        return (self.u @ ((self.vh @ c) / self.s)).reshape(r, r)

    def certify(self, step: np.ndarray) -> np.ndarray | None:
        return self.certificate(-self.dual(step))

    def certificate(self, w0: np.ndarray) -> np.ndarray | None:
        """A verified certificate W = R W0 R^dag + t (I - R R^dag), or None.

        On the face, S(W (x) I) compresses to A*(W0) = M^dag W0 whatever t is,
        so a W0 with <W0, b> + max(0, -lambda_min(A*(W0))) >= 0 cannot be lifted
        to one; otherwise t runs over 0, 1, 4, ..., 4^6 (in units of ||W0||_F)
        until one verifies.
        """
        w0 = 0.5 * (w0 + w0.conj().T)
        scale = linalg.frobenius(w0)
        low = self.eigvalsh(self.m.conj().T @ w0.ravel()).min(initial=0.0)
        if np.vdot(w0.ravel(), self.b).real - low >= -CERTIFICATE_MARGIN * scale:
            return None
        on_range = self.range @ w0 @ linalg.dagger(self.range)
        kernel = np.eye(on_range.shape[0]) - self.range @ linalg.dagger(self.range)
        for t in (0.0, *(4.0 ** j for j in range(7))):
            cert = self.geom.certified(on_range + t * scale * kernel, self.rho)
            if cert is not None:
                return cert
        return None


def _face_bases(geom: _ExtensionGeometry, x: np.ndarray) -> list[np.ndarray]:
    """Per sector s that S keeps, the coordinates C_s of the face in X = R (x) I_B'.

    One eigh of Q = X^dag P X, P the swap: for an eigenpair (lambda, c),
    (1 - s lambda)/2 = ||(I - P_s) X c||^2 with P_s = (I + s P)/2 is the squared
    sine of the principal angle between X c and sector s, and C_s keeps the c
    where it is at most ZERO_CUTOFF.  The cut is absolute: with d_b = 1 every
    lambda is 1 up to rounding, and a relative cut would drop face vectors.
    """
    vals, vecs = np.linalg.eigh(linalg.dagger(x) @ x[geom.perm])
    return [vecs[:, (1.0 - s * vals) / 2.0 <= linalg.ZERO_CUTOFF] for s in geom.sectors]


def _decide_on_face(face: _Face, method: str) -> FeasibilityResult:
    """Decide a rank-deficient rho on its face, by an exit or by one Douglas-Rachford loop.

    Only an M of row rank below r^2 (fewer than r^2 singular values above the
    cut) can leave the affine set empty, so only then is the least-squares
    residual e = M y0 - b tried as a certificate; otherwise e is rounding noise.
    """
    # e has A*(e) = 0 and tr(e rho) = -||e||^2; on an empty face (sigma = 0,
    # whose trace is not 1) it is -R^dag rho R.
    e = face.m @ face.y0 - face.b
    deficient = face.s.size < face.m.shape[0]
    cert = face.certificate(e.reshape(face.range.shape[1], -1)) if deficient else None
    if cert is not None:
        outcome = ("certified", cert, linalg.frobenius(e), 0)
    elif face.s.size < face.m.shape[1]:
        outcome = _douglas_rachford(face.y0, face.project, face.eigvalsh, face.psd_part, face.certify)
    else:
        # One point Y0: the witness if it is PSD; otherwise the dual candidate of
        # its step difference, the negative part N of Y0, solves M^dag W0 = N
        # with tr(W0 rho) = -||N||^2.
        res = _negative_mass(face.eigvalsh(face.y0))
        if res <= linalg.EIGENVALUE_TOL:
            outcome = ("converged", face.y0, res, 0)
        else:
            cert = face.certify(face.y0 - face.psd_part(face.y0))
            outcome = ("certificate-rejected" if cert is None else "certified", cert, res, 0)
    return _loop_result(outcome, face.rho, method, face.extension)


def _closed_form(ok: bool, name: str, margin: float,
                 witness: TripartiteExtension | None = None) -> FeasibilityResult:
    """Every closed form ``decide`` runs is a theorem, so its verdict is proven."""
    return FeasibilityResult(Feasibility.FEASIBLE if ok else Feasibility.INFEASIBLE, witness,
                             float(margin), 0, f"closed-form({name})", proven=True)


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
    """Rank 2: ``twoqubit.rank2_violation``, exact for qubit A.  For larger A
    only a violation of rho or of a tracing of a tensor factor of A is proven,
    with the margin of the state that failed; otherwise the face oracle,
    which decides a rank-2 state with no iteration, answers."""
    if rho.rank() != 2:
        return None
    violation = twoqubit.rank2_violation(rho)
    if violation is not None:
        return _closed_form(False, "rank2", violation)
    if rho.d_a != 2:
        return None
    margin = _lambda_max_margin(rho)
    if want_witness and rho.d_b == 2:
        return _closed_form(True, "rank2-decomposition", margin,
                            twoqubit.rank2_decompose(rho).mixed_extension(rho))
    return _closed_form(True, "rank2", margin)


def _zcorr_step(rho: BipartiteState, want_witness: bool) -> FeasibilityResult | None:
    """Z-correlated states with y = 0: the closed form of ``twoqubit.zcorr_bound_y0``.
    When y > 0 the two-qubit condition or the oracle decides."""
    found = twoqubit.zcorr_from_state(rho)
    if found is None or found[0].y > 1e-12:
        return None
    z, u_a, u_b = found
    point = twoqubit.zcorr_feasible_point(z)
    witness = None
    if point is not None and want_witness:
        local = np.kron(u_a, np.kron(u_b, u_b))
        canonical = twoqubit.zcorr_build_extension(z, *point).matrix
        witness = TripartiteExtension(linalg.dagger(local) @ canonical @ local, 2, 2, rho.matrix)
    margin = twoqubit.zcorr_bound_y0(z.p1, z.p2, z.p3, z.p4) - z.x
    return _closed_form(point is not None, "zcorr-y0", margin, witness)


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
    information, rank 2 (a "yes" for qubit A only), Z-correlated (y = 0), two
    qubits (Chen et al., PRA 90, 032318 (2014), when |margin| >
    TWO_QUBIT_BAND).  A closed-form "no" holds in every mode; a "yes" in mode
    "any", and in mode "bosonic" with qubit B after
    :func:`bosonic_from_symmetric`.  Any other "yes", and a state no closed
    form decides, goes to :func:`find_symmetric_extension`.  With
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
