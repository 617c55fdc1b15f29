import numpy as np
import pytest

from symext import linalg
from symext.states import BipartiteState


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_state(d_a: int, d_b: int, rng: np.random.Generator, rank: int | None = None) -> BipartiteState:
    d = d_a * d_b
    k = rank if rank is not None else d
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    mat = g @ g.conj().T
    return BipartiteState(mat / np.trace(mat).real, d_a, d_b)


def random_symmetric_vector(rng: np.random.Generator, d_a: int = 2, d_b: int = 2,
                            sign: float = 1.0) -> np.ndarray:
    """Random pure vector on A,B,B' invariant under the B <-> B' swap
    (antisymmetric under it for ``sign=-1``)."""
    v = rng.standard_normal(d_a * d_b * d_b) + 1j * rng.standard_normal(d_a * d_b * d_b)
    v = v + sign * v.reshape(d_a, d_b, d_b).transpose(0, 2, 1).reshape(-1)
    return v / np.linalg.norm(v)


def traced_symmetric_state(rng: np.random.Generator, d_a: int = 2, d_b: int = 2,
                           sign: float = 1.0) -> BipartiteState:
    """State obtained by tracing B' from a random swap-symmetric (``sign=-1``:
    antisymmetric) pure vector; extendible by construction, with bosonic
    (fermionic) symmetry."""
    v = random_symmetric_vector(rng, d_a, d_b, sign)
    mat = linalg.partial_trace(np.outer(v, v.conj()), [d_a, d_b, d_b], keep=[0, 1])
    return BipartiteState(mat, d_a, d_b)


def random_rank2_state(rng: np.random.Generator, d_a: int = 2, d_b: int = 2) -> BipartiteState:
    d = d_a * d_b
    g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(0.0, 0.5)
    mat = (1 - lam) * np.outer(q[:, 0], q[:, 0].conj()) + lam * np.outer(q[:, 1], q[:, 1].conj())
    return BipartiteState(mat, d_a, d_b)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def bell_state():
    from symext.states import pure_state
    return pure_state([1, 0, 0, 1], 2, 2)


@pytest.fixture
def maximally_mixed():
    return BipartiteState(np.eye(4) / 4.0, 2, 2)
