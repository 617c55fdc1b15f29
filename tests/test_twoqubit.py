import numpy as np
import pytest
from conftest import (
    random_rank2_state,
    random_state,
    random_symmetric_vector,
    random_unitary,
    traced_symmetric_state,
)

from symext import channels, gallery, linalg, states, twoqubit
from symext.cli import amplitude_damping
from symext.errors import (
    ConditionUnsatisfied,
    DimensionMismatch,
    NotCanonical,
    OutOfRange,
    PreconditionFailed,
    SpectrumMismatch,
    WrongRank,
)
from symext.oracle import decide, verify_infeasibility_certificate
from symext.states import BipartiteState, pure_state
from symext.twoqubit import (
    BELL,
    BellDiagonalParams,
    PureExtendibleTag,
    ZCorrParams,
)


class TestConstructPureExtension:
    def test_product_state(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = pure_state(np.kron(a, b), 2, 2)
        ext = twoqubit.construct_pure_extension(rho)
        assert states.is_symmetric_extension(ext, rho, tol=1e-10)

    def test_classical_mixture(self):
        rho = BipartiteState(np.diag([0.5, 0, 0, 0.5]).astype(complex), 2, 2)
        ext = twoqubit.construct_pure_extension(rho)
        assert states.is_symmetric_extension(ext, rho, tol=1e-10)
        # rank-1 extension of a rank-2 state: GHZ-like up to local phases
        assert linalg.numerical_rank(ext.matrix) == 1

    def test_roundtrip_batch(self, rng):
        for _ in range(100):
            rho = traced_symmetric_state(rng)
            ext = twoqubit.construct_pure_extension(rho)
            assert ext.symmetry_residual <= 1e-8
            assert ext.reduction_residual <= 1e-8

    def test_balanced_and_nearly_balanced_marginals(self, rng):
        # rho_B = I/2 exactly (A entangled with two Bell states of BB'), then
        # swap-symmetric nudges that put ||rho_B - I/2||_1 between 1e-3 and 1e-11
        inputs = []
        for trial in range(40):
            ks = rng.choice(4, size=2, replace=False)
            if 3 in ks and ks[0] != ks[1]:
                ks = np.array([0, 1]) if trial % 2 else np.array([3, 3])
            u = random_unitary(2, rng)
            p = rng.uniform(0, 1)
            if ks[0] == ks[1]:
                chi = np.kron(u[:, 0], BELL[ks[0]])
            else:
                chi = (np.sqrt(p) * np.kron(u[:, 0], BELL[ks[0]])
                       + np.sqrt(1 - p) * np.kron(u[:, 1], BELL[ks[1]]))
            inputs.append(chi)
        for scale in np.logspace(-3, -11, 40):
            ks = rng.choice(3, size=2, replace=False)
            u = random_unitary(2, rng)
            p = rng.uniform(0, 1)
            chi = (np.sqrt(p) * np.kron(u[:, 0], BELL[ks[0]])
                   + np.sqrt(1 - p) * np.kron(u[:, 1], BELL[ks[1]])
                   + scale * random_symmetric_vector(rng))
            inputs.append(chi / np.linalg.norm(chi))
        gaps = []
        for chi in inputs:
            mat = linalg.partial_trace(np.outer(chi, chi.conj()), [2, 2, 2], keep=[0, 1])
            rho = BipartiteState(mat, 2, 2)
            gaps.append(linalg.trace_norm(rho.rho_b - np.eye(2) / 2))
            ext = twoqubit.construct_pure_extension(rho)
            assert max(ext.symmetry_residual, ext.reduction_residual) <= 1e-8
            assert linalg.numerical_rank(ext.matrix) == 1
        assert max(gaps[:40]) < 1e-14
        assert min(gaps[40:]) < 1e-10 and max(gaps[40:]) > 1e-4

    def test_requires_spectrum_condition(self, bell_state):
        with pytest.raises(SpectrumMismatch):
            twoqubit.construct_pure_extension(bell_state)

    def test_requires_two_qubits(self):
        with pytest.raises(DimensionMismatch):
            twoqubit.construct_pure_extension(gallery.qutrit_qubit())


class TestConjecture:
    def test_maximally_mixed(self, maximally_mixed):
        assert twoqubit.check_conjecture(maximally_mixed)

    def test_bell_state(self, bell_state):
        assert not twoqubit.check_conjecture(bell_state)

    def test_werner_threshold_against_closed_form(self):
        # bisection on the conjectured inequality must land on the same 2/3
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if twoqubit.check_conjecture(gallery.werner(mid)):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 2 / 3) < 1e-9

    def test_local_unitary_invariance(self, rng):
        # sqrt(det) amplifies rotation noise near singular states, so the
        # margin itself is compared loosely and the verdict outside a band
        for _ in range(15):
            rho = random_state(2, 2, rng, rank=int(rng.integers(1, 5)))
            u = linalg.tensor(random_unitary(2, rng), random_unitary(2, rng))
            rotated = BipartiteState(u @ rho.matrix @ u.conj().T, 2, 2)
            before = twoqubit.conjecture_margin(rho)
            after = twoqubit.conjecture_margin(rotated)
            assert abs(before - after) < 1e-8
            if abs(before) > 1e-9:
                assert twoqubit.check_conjecture(rho) == twoqubit.check_conjecture(rotated)


class TestRank2:
    def test_boundary_mixture(self):
        rho = BipartiteState(np.diag([0.5, 0, 0, 0.5]).astype(complex), 2, 2)
        assert twoqubit.rank2_condition(rho)

    def test_bell_mixture_fails(self):
        mat = 0.9 * np.outer(BELL[0], BELL[0].conj()) + 0.1 * np.outer(BELL[1], BELL[1].conj())
        assert not twoqubit.rank2_condition(BipartiteState(mat, 2, 2))

    def test_ancilla_example_rejected(self):
        # spectra match but tracing one A factor exposes a maximally entangled pair
        assert not twoqubit.rank2_condition(gallery.two_qubit_with_ancilla())
        # the traced pair has lambda_max(rho_B) - lambda_max(rho) = 1/2 - 1
        assert abs(twoqubit.rank2_violation(gallery.two_qubit_with_ancilla()) + 0.5) < 1e-15

    def test_rank3_marginal_rejected(self):
        # rank-2 state on 2x3 whose B marginal has rank 3
        psi1 = np.zeros(6, dtype=complex)
        psi1[0] = 1.0  # |0,0>
        psi2 = np.zeros(6, dtype=complex)
        psi2[1] = psi2[5] = 1 / np.sqrt(2)  # |0,1> + |1,2>
        rho = BipartiteState(0.5 * np.outer(psi1, psi1.conj())
                             + 0.5 * np.outer(psi2, psi2.conj()), 2, 3)
        assert linalg.numerical_rank(rho.rho_b) == 3
        assert not twoqubit.rank2_condition(rho)
        assert abs(twoqubit.rank2_violation(rho) + 0.25) < 1e-15  # -lambda_3(rho_B)

    def test_violation_is_a_negative_margin(self, rng):
        samples = [gallery.two_qubit_with_ancilla()] + [random_rank2_state(rng, d_a, d_b)
                                                        for d_a in (2, 3, 4) for d_b in (2, 3) for _ in range(10)]
        violations = [twoqubit.rank2_violation(rho) for rho in samples]
        assert violations[0] < 0
        assert all(v is None or v < 0 for v in violations)
        # the paper's 3x2 example fails no tracing; the face oracle refutes it
        # with no iteration
        rho = gallery.qutrit_qubit()
        assert twoqubit.rank2_violation(rho) is None
        result = decide(rho)
        assert result.method == "oracle(any)" and result.infeasible and result.proven
        assert result.iterations == 0 and result.residual == pytest.approx(5 / 6)
        assert verify_infeasibility_certificate(result.certificate, rho)

    def test_wrong_rank(self, rng, maximally_mixed):
        with pytest.raises(WrongRank):
            twoqubit.rank2_condition(maximally_mixed)

    def test_agrees_with_conjecture_on_rank2(self, rng):
        # the determinant term vanishes at rank 2, so the two tests coincide
        for _ in range(100):
            rho = random_rank2_state(rng)
            assert twoqubit.rank2_condition(rho) == twoqubit.check_conjecture(rho)

    def test_decompose_degenerate_single_term(self, rng):
        rho = traced_symmetric_state(rng)
        while rho.rank() != 2 or rho.purity() > 1 - 1e-6:
            rho = traced_symmetric_state(rng)
        if states.spectrum_condition(rho):
            dec = twoqubit.rank2_decompose(rho)
            assert dec.p0 == pytest.approx(dec.p1)
        # the Choi state of amplitude damping at 1/2 meets the spectrum
        # condition itself; the other root of the quadratic is p = 1
        choi = channels.choi_state(amplitude_damping(0.5)).state
        dec = twoqubit.rank2_decompose(choi)
        lam = float(linalg.hermitian_eig(choi.matrix).eigenvalues[1])
        assert dec.p0 == dec.p1 == lam
        assert dec.weight == 0.0
        assert states.is_symmetric_extension(dec.mixed_extension(choi), choi, tol=1e-12)

    def test_decompose_classical_mixture(self):
        rho = BipartiteState(np.diag([0.5, 0, 0, 0.5]).astype(complex), 2, 2)
        dec = twoqubit.rank2_decompose(rho)
        assert states.is_symmetric_extension(dec.mixed_extension(rho), rho, tol=1e-8)

    def test_decompose_batch(self, rng):
        done = 0
        while done < 50:
            rho = random_rank2_state(rng)
            if not twoqubit.rank2_condition(rho):
                continue
            dec = twoqubit.rank2_decompose(rho)
            sigma = dec.mixed_extension(rho)
            assert states.is_symmetric_extension(sigma, rho, tol=1e-8)
            done += 1

    def test_decompose_requires_condition(self):
        mat = 0.9 * np.outer(BELL[0], BELL[0].conj()) + 0.1 * np.outer(BELL[1], BELL[1].conj())
        with pytest.raises(ConditionUnsatisfied):
            twoqubit.rank2_decompose(BipartiteState(mat, 2, 2))


class TestBellDiagonal:
    def test_alphas_pure(self):
        assert twoqubit.bell_alphas(BellDiagonalParams(1, 0, 0, 0)) == pytest.approx(
            (1.0, np.sqrt(2.0), 0.0))

    def test_alphas_maximally_mixed(self):
        assert twoqubit.bell_alphas(BellDiagonalParams(0.25, 0.25, 0.25, 0.25)) == pytest.approx(
            (0.0, 0.0, 0.0))

    def test_alphas_generic(self):
        got = twoqubit.bell_alphas(BellDiagonalParams(1 / 2, 1 / 6, 1 / 6, 1 / 6))
        assert got == pytest.approx((1 / 3, np.sqrt(2) / 3, 0.0))

    def test_extendible_maximally_mixed(self):
        assert twoqubit.bell_extendible(BellDiagonalParams(0.25, 0.25, 0.25, 0.25))

    def test_extendible_generic(self):
        params = BellDiagonalParams(1 / 2, 1 / 6, 1 / 6, 1 / 6)
        assert twoqubit.bell_margins(params)[0] == pytest.approx(12 / 81)
        assert twoqubit.bell_extendible(params)

    def test_pure_bell_not_extendible(self):
        params = BellDiagonalParams(1, 0, 0, 0)
        assert max(twoqubit.bell_margins(params)) < 0
        assert not twoqubit.bell_extendible(params)

    def test_conjecture_form_mirrors(self):
        for params in [BellDiagonalParams(0.25, 0.25, 0.25, 0.25),
                       BellDiagonalParams(1 / 2, 1 / 6, 1 / 6, 1 / 6),
                       BellDiagonalParams(1, 0, 0, 0)]:
            assert twoqubit.bell_conjecture_form(params) == twoqubit.bell_extendible(params)

    def test_state_construction_matches_margins(self, rng):
        probs = rng.dirichlet([1, 1, 1, 1])
        params = BellDiagonalParams(*probs)
        state = params.state()
        assert twoqubit.check_conjecture(state) == twoqubit.bell_conjecture_form(params)

    def test_equivalence_check(self):
        report = twoqubit.bell_equivalence_check(100000, seed=1)
        assert report.disagreements == 0

    def test_equivalence_single_points(self):
        assert twoqubit.bell_equivalence_check(1, seed=2).disagreements == 0
        pure = BellDiagonalParams(1, 0, 0, 0)
        assert twoqubit.bell_extendible(pure) == twoqubit.bell_conjecture_form(pure) is False


class TestZCorrelated:
    def test_from_state_canonicalizes(self):
        z = ZCorrParams(0.4, 0.3, 0.2, 0.1, 0.15, 0.05)
        i2, sx = twoqubit.I2, twoqubit.SX
        for flip_a, flip_b in ((i2, i2), (sx, sx), (i2, sx), (sx, i2)):
            for sign_x, sign_y in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                mat = z.matrix()
                mat[0, 3] = mat[3, 0] = sign_x * z.x
                mat[1, 2] = mat[2, 1] = sign_y * z.y
                relabel = np.kron(flip_a, flip_b)
                rho = BipartiteState(relabel @ mat @ relabel, 2, 2)
                found, u_a, u_b = twoqubit.zcorr_from_state(rho)
                assert found == z
                local = np.kron(u_a, u_b)
                assert np.allclose(local @ rho.matrix @ local.conj().T, z.matrix(), atol=1e-14)

    def test_from_state_rejects_other_forms(self, rng):
        assert twoqubit.zcorr_from_state(random_state(2, 2, rng)) is None
        assert twoqubit.zcorr_from_state(random_state(2, 3, rng)) is None

    def test_bound_reachable_branch(self):
        # p1 p3 + p2 p4 = 0.11 >= p1 p4 = 0.04, so the bound is sqrt(p1 p4)
        assert twoqubit.zcorr_bound_y0(0.4, 0.3, 0.2, 0.1) == pytest.approx(0.2)
        assert twoqubit.zcorr_extendible(ZCorrParams(0.4, 0.3, 0.2, 0.1, x=0.15, y=0.0))

    def test_bound_corner_branch(self):
        bound = twoqubit.zcorr_bound_y0(0.7, 0.05, 0.05, 0.2)
        expected = np.sqrt(0.05) * np.sqrt(0.65) + np.sqrt(0.05) * np.sqrt(0.15)
        assert bound == pytest.approx(expected, abs=1e-12)
        assert not twoqubit.zcorr_extendible(ZCorrParams(0.7, 0.05, 0.05, 0.2, x=0.27, y=0.0))

    def test_bound_degenerate_corner(self):
        # with p2 = p3 = 0 both branch tests collapse and the bound vanishes
        assert twoqubit.zcorr_bound_y0(0.6, 0.0, 0.0, 0.4) == pytest.approx(0.0)

    def test_diagonal_always_extendible(self, rng):
        probs = np.sort(rng.dirichlet([1, 1, 1, 1]))[::-1]
        z = ZCorrParams(*probs, x=0.0, y=0.0)
        assert twoqubit.zcorr_extendible(z)

    def test_not_canonical_rejected(self):
        with pytest.raises(NotCanonical):
            ZCorrParams(0.1, 0.4, 0.3, 0.2, x=0.0, y=0.0)
        with pytest.raises(NotCanonical):
            twoqubit.zcorr_bound_y0(0.1, 0.4, 0.3, 0.2)

    def test_positivity_bounds_enforced(self):
        with pytest.raises(OutOfRange):
            ZCorrParams(0.4, 0.3, 0.2, 0.1, x=0.5, y=0.0)

    def test_build_diagonal_extension(self):
        z = ZCorrParams(0.4, 0.3, 0.2, 0.1, x=0.0, y=0.0)
        ext = twoqubit.zcorr_build_extension(z, 0.0, 0.0)
        assert states.is_symmetric_extension(ext, z.state(), tol=1e-12)

    def test_build_saturated_extension(self):
        p1, p2, p3, p4 = 0.7, 0.05, 0.05, 0.2
        s = t = 0.05
        x = float(twoqubit._zcorr_f(s, t, p1, p4))
        y = float(twoqubit._zcorr_h(s, t, p2, p3))
        z = ZCorrParams(p1, p2, p3, p4, x=x, y=y)
        ext = twoqubit.zcorr_build_extension(z, s, t)
        assert states.is_symmetric_extension(ext, z.state(), tol=1e-8)

    def test_build_second_branch_optimum(self):
        p1, p2, p3, p4 = 0.7, 0.05, 0.05, 0.2
        bound = twoqubit.zcorr_bound_y0(p1, p2, p3, p4)
        z = ZCorrParams(p1, p2, p3, p4, x=bound, y=0.0)
        ext = twoqubit.zcorr_build_extension(z, p3, p2)
        assert states.is_symmetric_extension(ext, z.state(), tol=1e-8)
        reduced = ext.reduced_ab()
        assert reduced[0, 3].real == pytest.approx(bound, abs=1e-12)

    def test_build_rejects_bad_ranges(self):
        z = ZCorrParams(0.4, 0.3, 0.2, 0.1, x=0.0, y=0.0)
        with pytest.raises(OutOfRange):
            twoqubit.zcorr_build_extension(z, 0.3, 0.0)  # s beyond min(p3, p4)
        z2 = ZCorrParams(0.4, 0.3, 0.2, 0.1, x=0.19, y=0.0)
        with pytest.raises(OutOfRange):
            twoqubit.zcorr_build_extension(z2, 0.0, 0.0)  # x unreachable at s=t=0

    def test_feasible_points_yield_witnesses(self, rng):
        built = 0
        while built < 25:
            probs = np.sort(rng.dirichlet([1, 1, 1, 1]))[::-1]
            p1 = probs[0]
            rest = rng.permutation(probs[1:])
            x_max = np.sqrt(p1 * rest[2])
            z = ZCorrParams(p1, *rest, x=float(rng.uniform(0, x_max)), y=0.0)
            if not twoqubit.zcorr_extendible(z):
                continue
            point = twoqubit.zcorr_feasible_point(z)
            assert point is not None
            ext = twoqubit.zcorr_build_extension(z, *point)
            assert states.is_symmetric_extension(ext, z.state(), tol=1e-8)
            built += 1

    def test_y_positive_left_to_decide(self, rng):
        # no closed form for y > 0: decide answers by the two-qubit condition
        # or, for a witness, by the oracle
        with pytest.raises(PreconditionFailed):
            twoqubit.zcorr_feasible_point(ZCorrParams(0.4, 0.3, 0.1, 0.2, 0.15, 0.05))
        compared = 0
        for _ in range(20):
            probs = np.sort(rng.dirichlet([1, 1, 1, 1]))[::-1]
            p1 = probs[0]
            rest = rng.permutation(probs[1:])
            z = ZCorrParams(p1, *rest,
                            x=float(rng.uniform(0, np.sqrt(p1 * rest[2]))),
                            y=float(rng.uniform(0, np.sqrt(rest[0] * rest[1]))))
            rho = z.state()
            result = decide(rho, want_witness=True)
            assert not result.method.startswith("closed-form(zcorr")
            margin = twoqubit.conjecture_margin(rho)
            if abs(margin) > 1e-4:
                assert result.feasible == (margin > 0)
                compared += 1
            if result.feasible:
                assert states.is_symmetric_extension(result.witness, rho, tol=1e-7)
            else:
                assert result.infeasible and result.proven
        assert compared >= 15


class TestClassifyPureExtendible:
    def test_two_term_witness_recovered(self, rng):
        a0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a0 /= np.linalg.norm(a0)
        a1 /= np.linalg.norm(a1)
        lam = 0.3
        v0, v1 = np.kron(a0, [1, 0]), np.kron(a1, [0, 1])
        mat = lam * np.outer(v0, v0.conj()) + (1 - lam) * np.outer(v1, v1.conj())
        cls = twoqubit.classify_pure_extendible(BipartiteState(mat, 2, 2))
        assert cls.tag is PureExtendibleTag.SEPARABLE_NON_EXTREMAL
        assert linalg.trace_distance(cls.witness.reconstruct(), mat) <= 1e-8

    def test_degenerate_mixture(self, rng):
        a0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a0 /= np.linalg.norm(a0)
        a1 /= np.linalg.norm(a1)
        v0, v1 = np.kron(a0, [1, 0]), np.kron(a1, [0, 1])
        mat = 0.5 * np.outer(v0, v0.conj()) + 0.5 * np.outer(v1, v1.conj())
        cls = twoqubit.classify_pure_extendible(BipartiteState(mat, 2, 2))
        assert cls.tag is PureExtendibleTag.SEPARABLE_NON_EXTREMAL
        assert linalg.trace_distance(cls.witness.reconstruct(), mat) <= 1e-8

    def test_product_times_mixed(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        rho_b = np.diag([0.5, 0.5]).astype(complex)
        mat = linalg.tensor(np.outer(a, a.conj()), rho_b)
        cls = twoqubit.classify_pure_extendible(BipartiteState(mat, 2, 2))
        assert cls.tag is PureExtendibleTag.SEPARABLE_NON_EXTREMAL
        assert linalg.trace_distance(cls.witness.reconstruct(), mat) <= 1e-8

    def test_entangled_rank2_extremal(self, rng):
        found = 0
        for _ in range(100):
            rho = traced_symmetric_state(rng)
            if rho.purity() >= 1 - 1e-9 or not states.spectrum_condition(rho):
                continue
            pt = linalg.partial_transpose(rho.matrix, [2, 2], "B")
            if np.linalg.eigvalsh(pt).min() < -1e-6:
                cls = twoqubit.classify_pure_extendible(rho)
                assert cls.tag is PureExtendibleTag.EXTREMAL
                found += 1
        assert found >= 10

    def test_rejects_pure_and_non_extendible(self, rng, bell_state, maximally_mixed):
        with pytest.raises(PreconditionFailed):
            twoqubit.classify_pure_extendible(bell_state)  # pure
        with pytest.raises(PreconditionFailed):
            twoqubit.classify_pure_extendible(maximally_mixed)  # spectrum fails


class TestConjectureVersusOracle:
    def test_seeded_batch_agrees_outside_band(self, rng):
        from symext.oracle import find_symmetric_extension
        for _ in range(40):
            rho = random_state(2, 2, rng, rank=int(rng.integers(1, 5)))
            margin = twoqubit.conjecture_margin(rho)
            if abs(margin) <= 1e-4:
                continue
            result = find_symmetric_extension(rho)
            if result.feasible:
                assert margin > 0
            elif result.infeasible:
                assert margin < 0


def test_roundtrip_reduction_only_comparison(rng):
    # the extension is unique only up to phase freedom; compare reductions
    v = random_symmetric_vector(rng)
    rho = BipartiteState(linalg.partial_trace(np.outer(v, v.conj()), [2, 2, 2], [0, 1]), 2, 2)
    ext = twoqubit.construct_pure_extension(rho)
    assert linalg.trace_distance(ext.reduced_ab(), rho.matrix) <= 1e-8
