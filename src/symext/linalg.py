"""Dense complex linear algebra kernels sized for small multipartite systems.

Everything here operates on plain ``numpy.ndarray`` matrices (complex128,
row-major).  Matrices up to dimension ~64 are the design target; nothing is
sparse and nothing is optimized beyond what numpy already provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, NotAState, NotHermitian

# The zero cut: eigenvalues at or below ZERO_CUTOFF * lambda_max count as
# exact zeros wherever a spectrum, rank, entropy or support is read off.
ZERO_CUTOFF = 1e-9

# Default relative Frobenius tolerance for "is Hermitian" checks.
HERMITICITY_TOL = 1e-10

# A density matrix may have eigenvalues down to -EIGENVALUE_TOL.
EIGENVALUE_TOL = 1e-9

ComplexMatrix = np.ndarray


def as_matrix(m: ComplexMatrix) -> np.ndarray:
    """Coerce to a square complex128 array without reordering entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m: ComplexMatrix) -> float:
    return float(np.linalg.norm(m))


def dagger(m: ComplexMatrix) -> np.ndarray:
    return np.asarray(m).conj().T


def hermiticity_defect(m: ComplexMatrix) -> float:
    """Relative Frobenius distance between ``m`` and its adjoint."""
    a = as_matrix(m)
    scale = frobenius(a)
    if scale == 0.0:
        return 0.0
    return frobenius(a - dagger(a)) / scale


@dataclass(frozen=True)
class HermitianEigen:
    """Full eigendecomposition, eigenvalues sorted non-increasing.

    Columns of ``eigenvectors`` are orthonormal and match the eigenvalue
    order, so ``eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T``
    reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: ComplexMatrix) -> HermitianEigen:
    """Eigendecompose a Hermitian matrix.

    Raises NotHermitian when the relative Frobenius defect exceeds
    HERMITICITY_TOL.  Backed by LAPACK (``numpy.linalg.eigh``) on the
    Hermitian part, which is deterministic for identical input on a given
    platform.
    """
    a = as_matrix(m)
    if hermiticity_defect(a) > HERMITICITY_TOL:
        raise NotHermitian(f"matrix is not Hermitian within tolerance {HERMITICITY_TOL}")
    herm = (a + dagger(a)) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    order = np.argsort(vals, kind="stable")[::-1]
    return HermitianEigen(eigenvalues=vals[order].real, eigenvectors=vecs[:, order])


def tensor(a: ComplexMatrix, b: ComplexMatrix, *rest: ComplexMatrix) -> np.ndarray:
    """Kronecker product of two or more matrices."""
    out = np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
    for extra in rest:
        out = np.kron(out, np.asarray(extra, dtype=np.complex128))
    return out


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def partial_trace(m: ComplexMatrix, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; their product
    must equal the matrix dimension.  The kept subsystems stay in their
    original relative order and the trace is preserved.
    """
    a = as_matrix(m)
    dims = [int(d) for d in dims]
    n = len(dims)
    if any(d < 1 for d in dims) or math.prod(dims) != a.shape[0]:
        raise DimensionMismatch(f"dims {dims} incompatible with matrix dimension {a.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep {keep} out of range for {n} subsystems")
    if 2 * n > len(_LETTERS):
        raise DimensionMismatch("too many subsystems")

    keep_set = set(keep)
    row = [_LETTERS[i] for i in range(n)]
    col = [_LETTERS[n + i] if i in keep_set else _LETTERS[i] for i in range(n)]
    out = [_LETTERS[i] for i in keep] + [_LETTERS[n + i] for i in keep]
    spec = "".join(row) + "".join(col) + "->" + "".join(out)
    reduced = np.einsum(spec, a.reshape(dims + dims))
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    return np.ascontiguousarray(reduced.reshape(d_keep, d_keep))


def partial_transpose(m: ComplexMatrix, dims: Sequence[int], subsystem: str = "B") -> np.ndarray:
    """Transpose one factor of a bipartite operator.

    ``subsystem`` is "A" (first factor) or "B" (second factor).  The
    operation is involutive and exchanges no entries beyond the named block
    transpose.
    """
    a = as_matrix(m)
    if len(dims) != 2:
        raise DimensionMismatch("partial_transpose expects exactly two subsystem dimensions")
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a * d_b != a.shape[0]:
        raise DimensionMismatch(f"dims ({d_a}, {d_b}) incompatible with matrix dimension {a.shape[0]}")
    t = a.reshape(d_a, d_b, d_a, d_b)
    if subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise DimensionMismatch(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return np.ascontiguousarray(t.reshape(d_a * d_b, d_a * d_b))


def swap_operator(d: int) -> np.ndarray:
    """The d^2 x d^2 permutation exchanging two d-dimensional factors.

    Entries are exact zeros and ones; the operator is Hermitian, unitary and
    involutive.
    """
    if d < 1:
        raise DimensionMismatch("swap dimension must be >= 1")
    p = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            p[i * d + j, j * d + i] = 1.0
    return p


def swap_permutation(d_a: int, d_b: int) -> np.ndarray:
    """Index permutation realizing the B <-> B' swap on A (x) B (x) B'.

    Conjugating by the swap operator equals reindexing rows and columns with
    this permutation, which is much cheaper than matrix products.
    """
    idx = np.arange(d_a * d_b * d_b).reshape(d_a, d_b, d_b)
    return np.ascontiguousarray(idx.transpose(0, 2, 1)).reshape(-1)


def parity_projection(x: np.ndarray, perm: np.ndarray, parity: int) -> np.ndarray:
    """Project ``x`` onto a parity sector of the swap P given by ``perm``.

    Parity 0 keeps the swap-invariant part (x + PxP)/2; parity +1 or -1 gives
    Pi x Pi with Pi = (I +- P)/2, the compression to the symmetric or
    antisymmetric subspace.  The result is exactly invariant, in floating
    point, under the swap it projects for.
    """
    if parity == 0:
        return 0.5 * (x + x.take(perm, 0).take(perm, 1))
    half = 0.5 * (x + parity * x.take(perm, 0))
    return 0.5 * (half + parity * half.take(perm, 1))


def trace_norm(m: ComplexMatrix) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    a = as_matrix(m)
    if hermiticity_defect(a) <= HERMITICITY_TOL:
        herm = (a + dagger(a)) / 2.0
        return float(np.sum(np.abs(np.linalg.eigvalsh(herm))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def trace_distance(a: ComplexMatrix, b: ComplexMatrix) -> float:
    return trace_norm(np.asarray(a) - np.asarray(b))


def validate_state(rho: ComplexMatrix, name: str = "matrix",
                   eig_tol: float = EIGENVALUE_TOL) -> np.ndarray:
    """Return ``rho`` as complex128 or raise NotAState with the failing check.

    A state has Hermiticity defect at most HERMITICITY_TOL, no eigenvalue
    below -``eig_tol`` and a trace within 1e-9 of 1.
    """
    a = as_matrix(rho)
    herm_defect = hermiticity_defect(a)
    if herm_defect > HERMITICITY_TOL:
        raise NotAState(f"{name}: Hermiticity defect {herm_defect:.3e} exceeds {HERMITICITY_TOL}")
    min_eig = float(min(np.linalg.eigvalsh((a + dagger(a)) / 2.0).min(), 0.0))
    if min_eig < -eig_tol:
        raise NotAState(f"{name}: negative eigenvalue {min_eig:.3e}")
    trace_err = abs(float(np.trace(a).real) - 1.0)
    if trace_err > 1e-9:
        raise NotAState(f"{name}: trace deviates from 1 by {trace_err:.3e}")
    return a


def above_cut(values: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above the zero cut, ZERO_CUTOFF * max(lambda_max, 0).

    Tiny negatives fall below it, and a spectrum with lambda_max <= 0 keeps nothing.
    """
    return values > ZERO_CUTOFF * values.max(initial=0.0)


def support(m: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs above the zero cut, eigenvalues non-increasing.

    Returns (lam, vecs) with the eigenvectors as columns, so
    ``(vecs * lam) @ vecs.conj().T`` is ``m`` without its cut part and
    ``vecs * sqrt(lam)`` is a square-root factor of it.  Raises NotHermitian
    like :func:`hermitian_eig`.
    """
    eig = hermitian_eig(m)
    keep = above_cut(eig.eigenvalues)
    return eig.eigenvalues[keep], eig.eigenvectors[:, keep]


def von_neumann_entropy(rho: ComplexMatrix) -> float:
    """Entropy -sum(lam * log2 lam) over eigenvalues above the zero cut, in bits."""
    a = validate_state(rho, "entropy input")
    lam = np.ascontiguousarray(nonzero_eigenvalues(a)[::-1])  # smallest terms first
    return float(-np.sum(lam * np.log2(lam)))


def nonzero_eigenvalues(m: ComplexMatrix) -> np.ndarray:
    """Eigenvalues of a PSD-up-to-noise matrix above the zero cut, non-increasing."""
    a = as_matrix(m)
    vals = np.linalg.eigvalsh((a + dagger(a)) / 2.0)[::-1]
    return vals[above_cut(vals)]


def numerical_rank(m: ComplexMatrix) -> int:
    return int(nonzero_eigenvalues(m).size)
