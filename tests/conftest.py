import numpy as np
import pytest

from symext import linalg, states
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


def isotropic_state(d: int, f: float) -> BipartiteState:
    """F |Phi><Phi| + (1 - F)(I - |Phi><Phi|)/(d^2 - 1), |Phi> maximally entangled."""
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(phi, phi)
    return BipartiteState(f * proj + (1.0 - f) * (np.eye(d * d) - proj) / (d * d - 1), d, d)


def werner_state(d: int, q: float) -> BipartiteState:
    """q Pi_-/d_- + (1 - q) Pi_+/d_+, Pi_+- the (anti)symmetric projectors of C^d (x) C^d."""
    swap, identity = linalg.swap_operator(d), np.eye(d * d)
    mat = q * (identity - swap) / (d * (d - 1)) + (1.0 - q) * (identity + swap) / (d * (d + 1))
    return BipartiteState(mat, d, d)


def johnson_viola_states(rng: np.random.Generator):
    """Yield (label, rho, extendible) for d = 2..6 qudit states 0.02 from their known threshold.

    Johnson and Viola, "Compatible quantum correlations: Extension problems
    for Werner and isotropic states", PRA 88, 032323 (2013): an isotropic
    state (:func:`isotropic_state`) is symmetric extendible iff
    F <= (d + 1)/(2d), and a Werner state (:func:`werner_state`) iff
    q <= min(1, (d + 1)/4).  Isotropic states come at F = (d + 1)/(2d) +- 0.02;
    Werner states at q = min(1, (d + 1)/4) - 0.02, and + 0.02 where that
    threshold is below 1 (d = 2 only).  Each is rotated by a random
    U_A (x) U_B, which keeps extendibility.
    """
    for d in range(2, 7):
        for family, make, threshold in (("isotropic", isotropic_state, (d + 1) / (2 * d)),
                                        ("werner", werner_state, min(1.0, (d + 1) / 4))):
            for delta in (-0.02, 0.02) if threshold < 1.0 else (-0.02,):
                u = linalg.tensor(random_unitary(d, rng), random_unitary(d, rng))
                rho = make(d, threshold + delta)
                yield (f"{family}:{d}:{delta:+.2f}", BipartiteState(u @ rho.matrix @ u.conj().T, d, d),
                       delta < 0.0)


def local_map_states(rng: np.random.Generator, symmetry: str):
    """Yield (label, ((name, state), ...)) for 20 draws per shape 2x2, 3x2 and 2x3.

    Each draw is a random state of random rank, or every fourth one a traced
    (anti)symmetric state (:func:`traced_symmetric_state`, antisymmetric for
    ``symmetry="fermionic"``), together with its copy rotated by a random
    U_A (x) U_B and its copy filtered by a random invertible filter on A.
    Both maps keep extendibility in every symmetry mode.
    """
    for d_a, d_b in ((2, 2), (3, 2), (2, 3)):
        for i in range(20):
            if i % 4 == 0:
                rho = traced_symmetric_state(rng, d_a, d_b, -1.0 if symmetry == "fermionic" else 1.0)
            else:
                rho = random_state(d_a, d_b, rng, rank=int(rng.integers(1, d_a * d_b + 1)))
            u = linalg.tensor(random_unitary(d_a, rng), random_unitary(d_b, rng))
            rotated = BipartiteState(u @ rho.matrix @ u.conj().T, d_a, d_b)
            filtered = states.apply_filter_A(rho, states.random_invertible_filter(d_a, rng)).normalized()
            yield f"{d_a}x{d_b}:{i}", (("rho", rho), ("rotated", rotated), ("filtered", filtered))
