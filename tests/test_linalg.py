import numpy as np
import pytest
from conftest import random_state

from symext import linalg
from symext.errors import DimensionMismatch, NotAState, NotHermitian


def test_hermitian_eig_pauli_z():
    eig = linalg.hermitian_eig(np.diag([1.0, -1.0]))
    assert np.allclose(eig.eigenvalues, [1.0, -1.0])


def test_hermitian_eig_bell_projector():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    eig = linalg.hermitian_eig(np.outer(v, v.conj()))
    assert np.allclose(eig.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("dim", [8, 17, 64])
def test_hermitian_eig_reconstruction(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = (g + g.conj().T) / 2
    eig = linalg.hermitian_eig(m)
    recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    scale = np.linalg.norm(m)
    assert np.linalg.norm(m - recon) <= 1e-11 * scale
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.linalg.norm(gram - np.eye(dim)) <= 1e-11


def test_hermitian_eig_deterministic(rng):
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = (g + g.conj().T) / 2
    first = linalg.hermitian_eig(m)
    second = linalg.hermitian_eig(m.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_tensor_identities():
    assert np.allclose(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(linalg.tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                       np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_mixed_product(rng):
    for _ in range(5):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        lhs = linalg.tensor(a, b) @ linalg.tensor(c, d)
        rhs = linalg.tensor(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


def test_tensor_associative(rng):
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    assert np.allclose(linalg.tensor(linalg.tensor(a, b), c), linalg.tensor(a, b, c))


def test_partial_trace_bell():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    reduced = linalg.partial_trace(np.outer(v, v.conj()), [2, 2], keep=[1])
    assert np.allclose(reduced, np.eye(2) / 2)


def test_partial_trace_product(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a @ a.conj().T
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = b @ b.conj().T
    reduced = linalg.partial_trace(linalg.tensor(a, b), [2, 3], keep=[0])
    assert np.allclose(reduced, a * np.trace(b), atol=1e-12)


def test_partial_trace_of_coupled_extension():
    # the explicit two-vector extension of a diagonal state, at s = t = 0
    p = [0.4, 0.3, 0.2, 0.1]

    def ket(i, j, k):
        v = np.zeros(8, dtype=complex)
        v[(i * 2 + j) * 2 + k] = 1.0
        return v

    v1 = np.sqrt(p[0]) * ket(0, 0, 0) + np.sqrt(p[1]) * ket(0, 1, 1)
    v2 = np.sqrt(p[2]) * ket(1, 0, 0) + np.sqrt(p[3]) * ket(1, 1, 1)
    sigma = np.outer(v1, v1.conj()) + np.outer(v2, v2.conj())
    reduced = linalg.partial_trace(sigma, [2, 2, 2], keep=[0, 1])
    assert np.allclose(reduced, np.diag(p), atol=1e-14)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace(np.eye(6), [2, 2], keep=[0])


def test_partial_transpose_product(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pt = linalg.partial_transpose(linalg.tensor(a, b), [2, 2], "B")
    assert np.allclose(pt, linalg.tensor(a, b.T))
    pt_a = linalg.partial_transpose(linalg.tensor(a, b), [2, 2], "A")
    assert np.allclose(pt_a, linalg.tensor(a.T, b))


def test_partial_transpose_bell_eigenvalue():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    pt = linalg.partial_transpose(np.outer(v, v.conj()), [2, 2], "B")
    assert abs(np.linalg.eigvalsh(pt).min() + 0.5) < 1e-14


def test_partial_transpose_involution(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    twice = linalg.partial_transpose(linalg.partial_transpose(g, [2, 2], "B"), [2, 2], "B")
    assert np.array_equal(twice, g.astype(complex))


def test_swap_operator_entries():
    p = linalg.swap_operator(2)
    expected = np.zeros((4, 4))
    for pos in [(0, 0), (1, 2), (2, 1), (3, 3)]:
        expected[pos] = 1.0
    assert np.array_equal(p.real, expected)
    assert np.array_equal(p @ p, np.eye(4).astype(complex))
    assert np.array_equal(p, p.conj().T)


def test_swap_operator_exchanges_vectors(rng):
    for d in (2, 3):
        p = linalg.swap_operator(d)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert np.allclose(p @ np.kron(u, v), np.kron(v, u))


def test_swap_permutation_matches_operator(rng):
    d_a, d_b = 3, 2
    p = linalg.tensor(np.eye(d_a), linalg.swap_operator(d_b))
    perm = linalg.swap_permutation(d_a, d_b)
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    assert np.allclose(p @ g @ p, g[np.ix_(perm, perm)])


def test_parity_projection_matches_operator(rng):
    # parity 0 is (g + PgP)/2, parity +-1 is Pi g Pi with Pi = (I +- P)/2, and
    # each result is exactly invariant under the swap it projects for
    d_a, d_b = 2, 3
    p = linalg.tensor(np.eye(d_a), linalg.swap_operator(d_b))
    perm = linalg.swap_permutation(d_a, d_b)
    g = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    assert np.allclose(linalg.parity_projection(g, perm, 0), (g + p @ g @ p) / 2)
    assert np.array_equal(linalg.parity_projection(g, perm, 0)[np.ix_(perm, perm)],
                          linalg.parity_projection(g, perm, 0))
    for parity in (1, -1):
        pi = (np.eye(18) + parity * p) / 2
        out = linalg.parity_projection(g, perm, parity)
        assert np.allclose(out, pi @ g @ pi)
        assert np.array_equal(out[perm, :], parity * out)
        assert np.array_equal(out[:, perm], parity * out)


def test_trace_norm_values():
    assert abs(linalg.trace_norm(np.diag([0.5, -0.5])) - 1.0) < 1e-14
    assert abs(linalg.trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-14


def test_trace_norm_is_a_norm(rng):
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert linalg.trace_norm(a) >= 0
        assert linalg.trace_norm(a + b) <= linalg.trace_norm(a) + linalg.trace_norm(b) + 1e-10
    assert linalg.trace_norm(np.zeros((3, 3))) <= 1e-12


def test_trace_norm_contracts_under_partial_trace(rng):
    for _ in range(5):
        rho = random_state(2, 2, rng)
        sig = random_state(2, 2, rng)
        full = linalg.trace_norm(rho.matrix - sig.matrix)
        reduced = linalg.trace_norm(rho.rho_b - sig.rho_b)
        assert full >= reduced - 1e-12


def test_entropy_values():
    assert abs(linalg.von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(linalg.von_neumann_entropy(np.diag([1.0, 0.0]))) < 1e-12
    expected = -(5 / 6) * np.log2(5 / 6) - (1 / 6) * np.log2(1 / 6)
    assert abs(linalg.von_neumann_entropy(np.diag([5 / 6, 1 / 6])) - expected) < 1e-12


def test_entropy_rejects_non_states():
    with pytest.raises(NotAState):
        linalg.von_neumann_entropy(np.diag([1.0, 1.0]))
    with pytest.raises(NotAState):
        linalg.von_neumann_entropy(np.diag([1.5, -0.5]))
