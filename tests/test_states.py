import numpy as np
import pytest
from conftest import random_state, random_unitary, traced_symmetric_state

from symext import gallery, linalg, states
from symext.errors import (
    DimensionMismatch,
    InvalidInstrument,
    NotAState,
    NotSymmetric,
    SpectrumMismatch,
    ZeroProbability,
)
from symext.states import BipartiteState, TripartiteExtension, pure_state


def ghz_extension():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    target = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    return TripartiteExtension(np.outer(v, v.conj()), 2, 2, target)


class TestSpectrum:
    def test_maximally_mixed_qubit(self):
        spec = states.spectrum(np.eye(2) / 2)
        assert np.allclose(spec.values, [0.5, 0.5])
        assert spec.lambda_max == pytest.approx(0.5)

    def test_qutrit_qubit_example(self):
        rho = gallery.qutrit_qubit()
        assert np.allclose(states.spectrum(rho.matrix).values, [5 / 6, 1 / 6], atol=1e-12)

    def test_pure_state(self, bell_state):
        assert np.allclose(states.spectrum(bell_state.matrix).values, [1.0])

    def test_rejects_non_state(self):
        with pytest.raises(NotAState):
            states.spectrum(np.eye(2))


class TestSpectrumCondition:
    def test_ancilla_example_satisfies(self):
        assert states.spectrum_condition(gallery.two_qubit_with_ancilla())

    def test_bell_fails(self, bell_state):
        assert not states.spectrum_condition(bell_state)

    def test_product_pure_passes(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = pure_state(np.kron(a, b), 2, 3)
        assert states.spectrum_condition(rho)

    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            rho = traced_symmetric_state(rng)
            u = linalg.tensor(random_unitary(2, rng), random_unitary(2, rng))
            rotated = BipartiteState(u @ rho.matrix @ u.conj().T, 2, 2)
            assert states.spectrum_condition(rho) == states.spectrum_condition(rotated)


class TestFilter:
    def test_identity_filter(self, maximally_mixed):
        out = states.apply_filter_A(maximally_mixed, np.eye(2))
        assert out.probability == pytest.approx(1.0)
        assert np.allclose(out.matrix, maximally_mixed.matrix)

    def test_qutrit_qubit_projective_filter(self):
        rho = gallery.qutrit_qubit()
        out = states.apply_filter_A(rho, np.diag([1.0, 0.0, 1.0]))
        assert out.probability == pytest.approx(5 / 6, abs=1e-12)
        filtered = out.normalized()
        # the filtered state is the pure entangled |psi_{1/5}>
        psi = np.zeros(6, dtype=complex)
        psi[0] = np.sqrt(1 / 5)
        psi[5] = np.sqrt(4 / 5)
        assert linalg.trace_distance(filtered.matrix, np.outer(psi, psi.conj())) < 1e-12

    def test_qubit_qutrit_filter_spectra(self):
        # global (1/2, 5/12, 1/12) and local (7/12, 1/4, 1/6) at s=3/4, p=1/2
        rho = gallery.qubit_qutrit(0.75)
        filtered = states.apply_filter_A(rho, np.diag([np.sqrt(0.5), 1.0])).normalized()
        assert np.allclose(states.spectrum(filtered.matrix).values,
                           [1 / 2, 5 / 12, 1 / 12], atol=1e-12)
        assert np.allclose(states.spectrum(filtered.rho_b).values,
                           [7 / 12, 1 / 4, 1 / 6], atol=1e-12)

    def test_zero_probability(self, bell_state):
        with pytest.raises(ZeroProbability):
            states.apply_filter_A(bell_state, np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_dimension_mismatch(self, bell_state):
        with pytest.raises(DimensionMismatch):
            states.apply_filter_A(bell_state, np.eye(3))


class TestFilterProbe:
    def test_ancilla_example_not_pure_extendible(self):
        assert states.filter_probe(gallery.two_qubit_with_ancilla(), seed=3) is False

    def test_product_pure_survives(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = pure_state(np.kron(a, b), 2, 2)
        assert states.filter_probe(rho, seed=4) is True

    def test_qubit_qutrit_family_detected(self):
        assert states.filter_probe(gallery.qubit_qutrit(0.75), seed=5) is False

    def test_diagonal_filter_family_breaks_qubit_qutrit(self):
        # the closed-form diagonal filters of the 2x3 family break the condition
        rho = gallery.qubit_qutrit(0.75)
        filtered = states.apply_filter_A(rho, np.diag([np.sqrt(0.5), 1.0])).normalized()
        assert not states.spectrum_condition(filtered)


class TestIsSymmetricExtension:
    def test_product_extension(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        vec = np.kron(a, np.kron(b, b))
        rho = pure_state(np.kron(a, b), 2, 2)
        sigma = TripartiteExtension(np.outer(vec, vec.conj()), 2, 2, rho.matrix)
        assert states.is_symmetric_extension(sigma, rho, tol=1e-10)

    def test_ghz_extends_classical_mixture(self):
        sigma = ghz_extension()
        rho = BipartiteState(np.diag([0.5, 0, 0, 0.5]).astype(complex), 2, 2)
        assert states.is_symmetric_extension(sigma, rho, tol=1e-12)

    def test_wrong_reduction_rejected(self, rng, bell_state):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        vec = np.kron(a, np.kron(b, b))
        sigma = TripartiteExtension(np.outer(vec, vec.conj()), 2, 2, bell_state.matrix)
        assert not states.is_symmetric_extension(sigma, bell_state, tol=1e-8)


class TestSpectralSymmetricDecomposition:
    def test_product_vector_single_term(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        vec = np.kron(a, np.kron(b, b))
        rho = pure_state(np.kron(a, b), 2, 2)
        sigma = TripartiteExtension(np.outer(vec, vec.conj()), 2, 2, rho.matrix)
        terms = states.spectral_symmetric_decomposition(sigma)
        assert len(terms) == 1
        assert terms[0][2] == 1

    def test_singlet_factor_all_antisymmetric(self):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        mat = np.kron(np.eye(2) / 2, np.outer(singlet, singlet.conj()))
        target = np.kron(np.eye(2) / 2, np.eye(2) / 2)
        sigma = TripartiteExtension(mat, 2, 2, target)
        terms = states.spectral_symmetric_decomposition(sigma)
        assert len(terms) == 2
        assert all(parity == -1 for _, _, parity in terms)

    def test_symmetrized_random_state(self, rng):
        perm = linalg.swap_permutation(2, 2)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mat = g @ g.conj().T
        mat = 0.5 * (mat + mat[np.ix_(perm, perm)])
        mat /= np.trace(mat).real
        target = linalg.partial_trace(mat, [2, 2, 2], keep=[0, 1])
        sigma = TripartiteExtension(mat, 2, 2, target)
        recon = np.zeros((8, 8), dtype=complex)
        for weight, vec, parity in states.spectral_symmetric_decomposition(sigma):
            swapped = vec[perm]
            assert np.linalg.norm(swapped - parity * vec) <= 1e-8
            recon += weight * np.outer(vec, vec.conj())
        assert linalg.frobenius(recon - mat) < 1e-10

    def test_rejects_asymmetric(self, rng):
        mat = np.diag([0.5, 0.3, 0.1, 0.05, 0.05, 0, 0, 0]).astype(complex)
        target = linalg.partial_trace(mat, [2, 2, 2], keep=[0, 1])
        sigma = TripartiteExtension(mat, 2, 2, target)
        with pytest.raises(NotSymmetric):
            states.spectral_symmetric_decomposition(sigma)

    def test_residuals_on_solver_and_constructor_witnesses(self, rng):
        # every extension the package itself builds must decompose cleanly
        from symext.oracle import find_symmetric_extension
        from symext.twoqubit import ZCorrParams, zcorr_build_extension
        witnesses = [find_symmetric_extension(traced_symmetric_state(rng)).witness,
                     zcorr_build_extension(ZCorrParams(0.4, 0.3, 0.2, 0.1, 0.15, 0.0),
                                           0.1, 0.0)]
        perm = linalg.swap_permutation(2, 2)
        for sigma in witnesses:
            assert sigma is not None
            for _, vec, parity in states.spectral_symmetric_decomposition(sigma):
                assert np.linalg.norm(vec[perm] - parity * vec) <= 1e-8


class TestPurifyEqualMargins:
    def test_product_state(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = pure_state(np.kron(a, b), 2, 2)
        ext = states.purify_equal_margins(rho)
        assert ext.reduction_residual < 1e-10

    def test_classical_mixture(self):
        rho = BipartiteState(np.diag([0.5, 0, 0, 0.5]).astype(complex), 2, 2)
        ext = states.purify_equal_margins(rho)
        rho_b = linalg.partial_trace(ext.matrix, [2, 2, 2], keep=[1])
        rho_bp = linalg.partial_trace(ext.matrix, [2, 2, 2], keep=[2])
        assert np.allclose(rho_b, np.eye(2) / 2, atol=1e-10)
        assert np.allclose(rho_bp, np.eye(2) / 2, atol=1e-10)

    def test_ancilla_example_margins(self):
        rho = gallery.two_qubit_with_ancilla()
        ext = states.purify_equal_margins(rho)
        assert ext.dim == 16
        rho_b = linalg.partial_trace(ext.matrix, [4, 2, 2], keep=[1])
        rho_bp = linalg.partial_trace(ext.matrix, [4, 2, 2], keep=[2])
        assert linalg.trace_distance(rho_b, rho_bp) <= 1e-10

    def test_margin_property_on_batch(self, rng):
        for _ in range(20):
            rho = traced_symmetric_state(rng)
            ext = states.purify_equal_margins(rho)
            rho_b = linalg.partial_trace(ext.matrix, [2, 2, 2], keep=[1])
            rho_bp = linalg.partial_trace(ext.matrix, [2, 2, 2], keep=[2])
            assert linalg.trace_norm(rho_b - rho_bp) <= 1e-8

    def test_requires_spectrum_condition(self, bell_state):
        with pytest.raises(SpectrumMismatch):
            states.purify_equal_margins(bell_state)


class TestApply1Locc:
    def test_identity_instrument(self, rng):
        rho = random_state(2, 2, rng)
        out, prob = states.apply_1locc(rho, [np.eye(2)], [[np.eye(2)]])
        assert prob == pytest.approx(1.0)
        assert linalg.trace_distance(out.matrix, rho.matrix) < 1e-12

    def test_sign_flip_on_coupled_state(self):
        from symext.twoqubit import SZ, ZCorrParams
        z = ZCorrParams(0.4, 0.3, 0.2, 0.1, x=0.15, y=0.0)
        out, prob = states.apply_1locc(z.state(), [np.eye(2)], [[SZ]])
        assert prob == pytest.approx(1.0)
        flipped = ZCorrParams(0.4, 0.3, 0.2, 0.1, x=0.15, y=0.0).matrix()
        flipped[0, 3] = flipped[3, 0] = -0.15
        assert linalg.trace_distance(out.matrix, flipped) < 1e-12

    def test_filter_plus_unitary_preserves_extendibility(self, rng):
        from symext.oracle import find_symmetric_extension
        hits = 0
        for _ in range(6):
            rho = traced_symmetric_state(rng)
            filt = 0.8 * random_unitary(2, rng) + 0.2 * np.eye(2)
            filt /= np.linalg.svd(filt, compute_uv=False)[0]
            bob = random_unitary(2, rng)
            out, _ = states.apply_1locc(rho, [filt], [[bob]])
            result = find_symmetric_extension(out)
            assert not result.infeasible
            hits += result.feasible
        assert hits >= 4  # allow occasional undecided near the boundary

    def test_conjecture_verdict_monotone_under_1locc(self, rng):
        # outputs of one-way LOCC on a conjecture-satisfying state satisfy it too
        from symext.twoqubit import check_conjecture, conjecture_margin
        checked = 0
        while checked < 10:
            rho = random_state(2, 2, rng, rank=int(rng.integers(2, 5)))
            if conjecture_margin(rho) < 1e-6:
                continue
            checked += 1
            filt = 0.7 * random_unitary(2, rng) + 0.3 * np.eye(2)
            filt /= np.linalg.svd(filt, compute_uv=False)[0]
            kraus0 = random_unitary(2, rng) * np.sqrt(0.4)
            kraus1 = random_unitary(2, rng) * np.sqrt(0.6)
            out, _ = states.apply_1locc(rho, [filt], [[kraus0, kraus1]])
            assert check_conjecture(out)

    def test_invalid_instruments(self, rng):
        rho = random_state(2, 2, rng)
        with pytest.raises(InvalidInstrument):
            states.apply_1locc(rho, [np.eye(2) * 1.2], [[np.eye(2)]])
        with pytest.raises(InvalidInstrument):
            states.apply_1locc(rho, [np.eye(2)], [[np.eye(2) * 0.5]])
        with pytest.raises(InvalidInstrument):
            states.apply_1locc(rho, [np.eye(2)], [])


class TestCoherentInformation:
    def test_bell(self, bell_state):
        assert states.coherent_information(bell_state) == pytest.approx(1.0, abs=1e-10)

    def test_product_not_positive(self, rng):
        a = random_state(1, 2, rng)  # just a qubit state on B
        rho_a = random_state(1, 2, rng).matrix
        rho_b = random_state(1, 2, rng).matrix
        rho = BipartiteState(linalg.tensor(rho_a, rho_b), 2, 2)
        assert states.coherent_information(rho) <= 1e-12

    def test_filtered_qubit_qutrit_positive(self):
        rho = gallery.qubit_qutrit(0.75)
        filtered = states.apply_filter_A(rho, np.diag([np.sqrt(0.5), 1.0])).normalized()
        assert states.coherent_information(filtered) > 1e-3

    def test_positive_coherent_information_blocks_oracle(self, rng):
        from symext.oracle import find_symmetric_extension
        checked = 0
        for _ in range(10):
            rho = random_state(2, 2, rng, rank=int(rng.integers(1, 3)))
            if states.coherent_information(rho) > 1e-6:
                checked += 1
                assert not find_symmetric_extension(rho).feasible
        assert checked >= 2
