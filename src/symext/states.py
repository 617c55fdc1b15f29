"""Bipartite and tripartite state types plus the spectrum-condition machinery.

The central objects are :class:`BipartiteState` (a validated density matrix
with declared subsystem dimensions) and :class:`TripartiteExtension` (a state
on A (x) B (x) B' whose swap-symmetry and reduction residuals are always
recomputed from the matrix, never trusted from the caller).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InvalidInstrument,
    NotAState,
    NotSymmetric,
    SpectrumMismatch,
    ZeroProbability,
)

# Two spectra "match" when they have equal length after the zero cutoff and
# agree entrywise to this absolute tolerance (eigenvalues are bounded by 1,
# so an absolute comparison is stable).
SPECTRUM_MATCH_TOL = 1e-8

# filter_probe declares the spectrum condition broken only beyond this wider
# threshold, to keep the verdict from flapping at the match tolerance.
PROBE_BREAK_TOL = 1e-6


def _frozen_array(m) -> np.ndarray:
    a = np.array(m, dtype=np.complex128, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on A (x) B with d_a * d_b equal to the matrix dimension."""

    matrix: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self):
        a = linalg.validate_state(self.matrix, "bipartite state")
        if self.d_a < 1 or self.d_b < 1 or self.d_a * self.d_b != a.shape[0]:
            raise DimensionMismatch(
                f"dims ({self.d_a}, {self.d_b}) incompatible with matrix dimension {a.shape[0]}"
            )
        object.__setattr__(self, "matrix", _frozen_array(a))
        # Tracing out a d-dimensional factor can scale a borderline negative
        # eigenvalue by up to d, hence the widened tolerance.
        linalg.validate_state(self.rho_a, "reduced state on A", eig_tol=self.d_b * 1e-9)
        linalg.validate_state(self.rho_b, "reduced state on B", eig_tol=self.d_a * 1e-9)

    @cached_property
    def rho_a(self) -> np.ndarray:
        return linalg.partial_trace(self.matrix, [self.d_a, self.d_b], keep=[0])

    @cached_property
    def rho_b(self) -> np.ndarray:
        return linalg.partial_trace(self.matrix, [self.d_a, self.d_b], keep=[1])

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def rank(self) -> int:
        return linalg.numerical_rank(self.matrix)


def pure_state(vector, d_a: int, d_b: int) -> BipartiteState:
    """Projector onto a (normalized copy of a) state vector."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(v)
    if norm <= 0.0:
        raise NotAState("zero vector")
    v = v / norm
    return BipartiteState(np.outer(v, v.conj()), d_a, d_b)


@dataclass(frozen=True)
class TripartiteExtension:
    """State on A (x) B (x) B' with residuals recomputed at construction.

    ``symmetry_residual`` is the Frobenius distance to its own B <-> B' swap
    conjugate; ``reduction_residual`` is the trace distance between the B'
    partial trace and the bipartite target the extension claims to extend.
    """

    matrix: np.ndarray
    d_a: int
    d_b: int
    target_matrix: np.ndarray
    symmetry_residual: float = field(init=False)
    reduction_residual: float = field(init=False)

    def __post_init__(self):
        a = linalg.validate_state(self.matrix, "tripartite state")
        if self.d_a * self.d_b * self.d_b != a.shape[0]:
            raise DimensionMismatch(
                f"dims ({self.d_a}, {self.d_b}, {self.d_b}) incompatible with dimension {a.shape[0]}"
            )
        target = linalg.as_matrix(self.target_matrix)
        if target.shape[0] != self.d_a * self.d_b:
            raise DimensionMismatch("target state has wrong dimension for this extension")
        object.__setattr__(self, "matrix", _frozen_array(a))
        object.__setattr__(self, "target_matrix", _frozen_array(target))
        perm = linalg.swap_permutation(self.d_a, self.d_b)
        swapped = a[np.ix_(perm, perm)]
        object.__setattr__(self, "symmetry_residual", linalg.frobenius(a - swapped))
        object.__setattr__(
            self, "reduction_residual", linalg.trace_distance(self.reduced_ab(), target)
        )

    def reduced_ab(self) -> np.ndarray:
        return linalg.partial_trace(self.matrix, [self.d_a, self.d_b, self.d_b], keep=[0, 1])

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b * self.d_b


@dataclass(frozen=True)
class Spectrum:
    """Non-zero eigenvalues in non-increasing order."""

    values: np.ndarray

    @property
    def lambda_max(self) -> float:
        return float(self.values[0]) if self.values.size else 0.0

    def __len__(self) -> int:
        return int(self.values.size)


def spectrum(rho: np.ndarray) -> Spectrum:
    """Non-zero spectrum of a density matrix (NotAState if invalid)."""
    a = linalg.validate_state(rho, "spectrum input")
    return Spectrum(values=linalg.nonzero_eigenvalues(a))


def spectra_match(first: Spectrum, second: Spectrum, tol: float = SPECTRUM_MATCH_TOL) -> bool:
    if len(first) != len(second):
        return False
    if len(first) == 0:
        return True
    return bool(np.max(np.abs(first.values - second.values)) <= tol)


def spectrum_condition(rho: BipartiteState, tol: float = SPECTRUM_MATCH_TOL) -> bool:
    """Whether the non-zero global and B-local spectra agree entrywise."""
    return spectra_match(spectrum(rho.matrix), spectrum(rho.rho_b), tol)


@dataclass(frozen=True)
class FilterOutcome:
    """Unnormalized post-filter operator together with its success probability."""

    matrix: np.ndarray
    d_a: int
    d_b: int
    probability: float

    def normalized(self) -> BipartiteState:
        return BipartiteState(np.asarray(self.matrix) / self.probability, self.d_a, self.d_b)


def apply_filter_A(rho: BipartiteState, m: np.ndarray) -> FilterOutcome:
    """Apply (M (x) I) rho (M (x) I)^dag without normalizing.

    The trace of the output is the success probability of the filter;
    normalization is left to the caller.
    """
    filt = np.asarray(m, dtype=np.complex128)
    if filt.ndim != 2 or filt.shape[1] != rho.d_a:
        raise DimensionMismatch(f"filter shape {filt.shape} does not act on A (dim {rho.d_a})")
    big = linalg.tensor(filt, np.eye(rho.d_b))
    out = big @ rho.matrix @ linalg.dagger(big)
    prob = float(np.trace(out).real)
    if prob < 1e-12:
        raise ZeroProbability(f"filter succeeds with probability {prob:.3e}")
    return FilterOutcome(matrix=out, d_a=filt.shape[0], d_b=rho.d_b, probability=prob)


def random_invertible_filter(d: int, rng: np.random.Generator,
                             strength: float = 0.3, min_singular: float = 1e-6) -> np.ndarray:
    """Near-identity random filter I + strength * G with G complex Gaussian.

    Redraws until the smallest singular value exceeds ``min_singular``, so the
    filter is invertible and the filtered state keeps full information.
    """
    while True:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = np.eye(d) + strength * g
        if np.linalg.svd(m, compute_uv=False)[-1] > min_singular:
            return m


def filter_probe(rho: BipartiteState, trials: int = 20, seed: int = 0) -> bool:
    """Random-filter test of pure extendibility.

    Returns False ("not pure-extendible", conclusive) as soon as one random
    invertible filter on A breaks the spectrum condition by more than the
    break threshold.  True only means no probed filter broke the condition;
    it is a one-sided verdict.
    """
    if not spectrum_condition(rho):
        return False
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        filt = random_invertible_filter(rho.d_a, rng)
        filtered = apply_filter_A(rho, filt).normalized()
        spec_ab = spectrum(filtered.matrix)
        spec_b = spectrum(filtered.rho_b)
        if len(spec_ab) != len(spec_b):
            return False
        if len(spec_ab) and np.max(np.abs(spec_ab.values - spec_b.values)) > PROBE_BREAK_TOL:
            return False
    return True


def is_symmetric_extension(sigma: TripartiteExtension, rho: BipartiteState, tol: float = 1e-8) -> bool:
    """Re-verify that ``sigma`` is a symmetric extension of ``rho``.

    Recomputes state validity, the swap-symmetry residual and the reduction
    residual from scratch; nothing stored on ``sigma`` is trusted.
    """
    if sigma.d_a != rho.d_a or sigma.d_b != rho.d_b:
        raise DimensionMismatch("extension and state dimensions do not match")
    mat = np.asarray(sigma.matrix)
    if not linalg.is_density_matrix(mat):
        return False
    perm = linalg.swap_permutation(sigma.d_a, sigma.d_b)
    sym_residual = linalg.frobenius(mat - mat[np.ix_(perm, perm)])
    red_residual = linalg.trace_distance(sigma.reduced_ab(), rho.matrix)
    return sym_residual <= tol and red_residual <= tol


def spectral_symmetric_decomposition(sigma: TripartiteExtension, tol: float = 1e-8):
    """Eigendecomposition of a swap-symmetric state into definite-parity terms.

    Returns a list of (weight, vector, parity) with parity +1 or -1 such that
    P|v> = parity * |v> within 1e-8.  A swap-symmetric sigma is the sum of its
    two parity parts Pi+ sigma Pi+ and Pi- sigma Pi-, so each part is
    eigendecomposed on its own; weights at or below the zero cut of sigma
    (:func:`linalg.above_cut`) are dropped.
    """
    if sigma.symmetry_residual > tol:
        raise NotSymmetric(f"symmetry residual {sigma.symmetry_residual:.3e} exceeds {tol}")
    mat, perm = np.asarray(sigma.matrix), linalg.swap_permutation(sigma.d_a, sigma.d_b)
    # eigh, not hermitian_eig: a near-zero parity part fails its relative
    # Hermiticity check.  The cut is relative to lambda_max of all of sigma.
    vals, vecs = zip(*(np.linalg.eigh(linalg.parity_projection(mat, perm, parity)) for parity in (1, -1)))
    keep = linalg.above_cut(np.concatenate(vals)).reshape(2, -1)
    return [(float(vals[p][k]), vecs[p][:, k], parity)
            for p, parity in enumerate((1, -1)) for k in np.flatnonzero(keep[p])]


def _equal_margins_purification_vector(rho: BipartiteState) -> np.ndarray:
    """Pure vector on A,B,B' with tr_B' = rho and rho_B = rho_B'.

    Requires the spectrum condition.  The vector is sum_j sqrt(lam_j)
    |phi_j>_AB |b_j>_B' with phi_j, b_j eigenvectors of the global and local
    states paired in non-increasing eigenvalue order.
    """
    if not spectrum_condition(rho):
        raise SpectrumMismatch("global and local spectra differ; no equal-margins purification")
    lam, phi = linalg.support(rho.matrix)
    local = linalg.hermitian_eig(rho.rho_b).eigenvectors[:, :lam.size]
    psi = ((phi * np.sqrt(lam)) @ local.T).reshape(-1)
    return psi / np.linalg.norm(psi)


def purify_equal_margins(rho: BipartiteState) -> TripartiteExtension:
    """Equal-margins purification, packaged as a (not necessarily symmetric) extension."""
    psi = _equal_margins_purification_vector(rho)
    return TripartiteExtension(np.outer(psi, psi.conj()), rho.d_a, rho.d_b, rho.matrix)


def _check_kraus_family(ops, d_expected: int, complete: bool, label: str) -> list[np.ndarray]:
    mats = [np.asarray(k, dtype=np.complex128) for k in ops]
    if not mats:
        raise InvalidInstrument(f"{label}: empty Kraus family")
    cols = mats[0].shape[1]
    rows = mats[0].shape[0]
    if cols != d_expected:
        raise InvalidInstrument(f"{label}: Kraus operators act on dimension {cols}, expected {d_expected}")
    if any(m.shape != (rows, cols) for m in mats):
        raise InvalidInstrument(f"{label}: inconsistent Kraus shapes")
    total = sum(linalg.dagger(m) @ m for m in mats)
    if complete:
        if np.max(np.abs(total - np.eye(cols))) > 1e-9:
            raise InvalidInstrument(f"{label}: Kraus family is not trace preserving")
    else:
        top = float(np.linalg.eigvalsh((total + linalg.dagger(total)) / 2).max())
        if top > 1.0 + 1e-9:
            raise InvalidInstrument(f"{label}: Kraus family exceeds the identity (max eig {top})")
    return mats


def apply_1locc(rho: BipartiteState, alice_kraus, bob_kraus_per_outcome) -> tuple[BipartiteState, float]:
    """One-way LOCC: Alice measures, Bob applies a channel conditioned on her outcome.

    ``alice_kraus`` is a subnormalized family {A_i}; ``bob_kraus_per_outcome``
    holds one trace-preserving family {B_ij}_j per outcome i.  Returns the
    renormalized output state and the success probability.
    """
    a_ops = _check_kraus_family(alice_kraus, rho.d_a, complete=False, label="Alice")
    if len(bob_kraus_per_outcome) != len(a_ops):
        raise InvalidInstrument("need one Bob Kraus family per Alice outcome")
    b_families = [
        _check_kraus_family(fam, rho.d_b, complete=True, label=f"Bob[{i}]")
        for i, fam in enumerate(bob_kraus_per_outcome)
    ]
    d_a_out = a_ops[0].shape[0]
    d_b_out = b_families[0][0].shape[0]
    if any(fam[0].shape[0] != d_b_out for fam in b_families):
        raise InvalidInstrument("Bob output dimension must not depend on Alice's outcome")

    out = np.zeros((d_a_out * d_b_out, d_a_out * d_b_out), dtype=np.complex128)
    for a_op, fam in zip(a_ops, b_families):
        for b_op in fam:
            k = linalg.tensor(a_op, b_op)
            out += k @ rho.matrix @ linalg.dagger(k)
    prob = float(np.trace(out).real)
    if prob < 1e-12:
        raise ZeroProbability(f"instrument succeeds with probability {prob:.3e}")
    return BipartiteState(out / prob, d_a_out, d_b_out), prob


def coherent_information(rho: BipartiteState) -> float:
    """S(rho_B) - S(rho_AB) in bits; positive values rule out a symmetric extension."""
    return linalg.von_neumann_entropy(rho.rho_b) - linalg.von_neumann_entropy(rho.matrix)
