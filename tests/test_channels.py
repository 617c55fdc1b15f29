import numpy as np
import pytest

from symext import gallery, linalg, states, twoqubit
from symext.channels import (
    Channel,
    ChannelTag,
    choi_state,
    classify_channel,
    complementary_channel,
    degrading_map_from_extension,
    is_anti_degradable,
    is_degradable,
    kraus_from_choi,
)
from symext.cli import amplitude_damping
from symext.errors import InvalidChannel, NotAnExtension, WrongRank
from symext.oracle import Feasibility, OracleOptions, find_symmetric_extension
from symext.states import BipartiteState


def identity_channel():
    return Channel((np.eye(2, dtype=complex),), 2, 2)


def depolarizing_full():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    return Channel(tuple(0.5 * p.astype(complex) for p in paulis), 2, 2)


def random_kraus_channel(n_kraus, rng, d=2):
    # random isometry from C^d to C^d (x) C^n sliced into Kraus operators
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    q, _ = np.linalg.qr(g)
    return Channel(tuple(q.reshape(d, n_kraus, d)[:, k, :] for k in range(n_kraus)), d, d)


class TestChannelBasics:
    def test_completeness_enforced(self):
        with pytest.raises(InvalidChannel):
            Channel((np.eye(2) * 0.5,), 2, 2)

    def test_shape_enforced(self):
        with pytest.raises(InvalidChannel):
            Channel((np.eye(3),), 2, 2)

    def test_environment_dim(self, rng):
        assert identity_channel().environment_dim() == 1
        assert amplitude_damping(0.5).environment_dim() == 2
        assert random_kraus_channel(3, rng).environment_dim() == 3
        # redundant Kraus family still has minimal environment 1
        u = np.eye(2, dtype=complex)
        redundant = Channel((u * np.sqrt(0.5), u * np.sqrt(0.5)), 2, 2)
        assert redundant.environment_dim() == 1

    def test_environment_dims_agree(self, rng):
        # the Kraus recovery, the complement and the Gram rank read one support
        cases = [(random_kraus_channel(n, rng, d), n) for n in (1, 2, 3, 4) for d in (2, 3)]
        # a redundant family: each operator of a two-Kraus qubit channel split in two
        two = cases[2][0]
        cases.append((Channel(tuple(k * np.sqrt(w) for k in two.kraus for w in (0.3, 0.7)), 2, 2), 2))
        for channel, env in cases:
            assert channel.environment_dim() == env
            assert len(kraus_from_choi(choi_state(channel)).kraus) == env
            assert complementary_channel(channel).d_out == env


class TestChoi:
    def test_identity_channel(self, bell_state):
        choi = choi_state(identity_channel())
        assert linalg.trace_distance(choi.state.matrix, bell_state.matrix) < 1e-12

    def test_depolarizing(self):
        choi = choi_state(depolarizing_full())
        assert linalg.trace_distance(choi.state.matrix, np.eye(4) / 4) < 1e-12

    def test_damping_half(self):
        choi = choi_state(amplitude_damping(0.5))
        assert choi.state.rank() == 2
        assert np.allclose(choi.state.rho_a, np.eye(2) / 2, atol=1e-12)

    def test_kraus_roundtrip(self, rng):
        for channel in (identity_channel(), depolarizing_full(), amplitude_damping(0.5),
                        random_kraus_channel(2, rng)):
            recovered = kraus_from_choi(choi_state(channel))
            again = choi_state(recovered)
            assert linalg.trace_distance(again.state.matrix,
                                         choi_state(channel).state.matrix) < 1e-9


class TestComplementary:
    def test_identity_goes_to_point(self):
        comp = complementary_channel(identity_channel())
        assert comp.d_out == 1
        out = comp.apply(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(out, [[1.0]])

    def test_double_complement_spectra(self, rng):
        for channel in (amplitude_damping(0.3), random_kraus_channel(2, rng)):
            twice = complementary_channel(complementary_channel(channel))
            spec1 = np.sort(np.linalg.eigvalsh(choi_state(channel).state.matrix))
            spec2 = np.sort(np.linalg.eigvalsh(choi_state(twice).state.matrix))
            assert np.allclose(spec1, spec2, atol=1e-9)

    def test_damping_complement_is_damping(self):
        for eta in (0.2, 0.7):
            comp = complementary_channel(amplitude_damping(eta))
            spec_comp = np.sort(np.linalg.eigvalsh(choi_state(comp).state.matrix))
            spec_flip = np.sort(np.linalg.eigvalsh(choi_state(amplitude_damping(1 - eta)).state.matrix))
            assert np.allclose(spec_comp, spec_flip, atol=1e-9)


class TestDegradability:
    def test_depolarizing_anti_degradable(self):
        assert is_anti_degradable(depolarizing_full()).feasible

    def test_identity_not_anti_degradable(self):
        assert is_anti_degradable(identity_channel()).infeasible

    def test_identity_degradable(self):
        assert is_degradable(identity_channel()).feasible

    def test_damping_sides(self):
        assert is_degradable(amplitude_damping(0.8)).feasible
        assert is_degradable(amplitude_damping(0.3)).infeasible
        assert is_anti_degradable(amplitude_damping(0.3)).feasible
        assert is_anti_degradable(amplitude_damping(0.8)).infeasible

    def test_symmetry_mode_is_honoured(self):
        # With qubit B, fermionic extensions only reach states M_A (x) I/2,
        # which the damping Choi state is not; bosonic ones reach everything
        # a plain extension does.
        damping = amplitude_damping(0.3)
        fermionic = is_anti_degradable(damping, OracleOptions(symmetry="fermionic"))
        assert fermionic.status is not Feasibility.FEASIBLE
        assert is_anti_degradable(damping, OracleOptions(symmetry="bosonic")).feasible

    def test_damping_threshold(self):
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            if is_anti_degradable(amplitude_damping(mid)).feasible:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 0.5) <= 1e-3

    def test_three_kraus_fast_path(self, rng):
        channel = random_kraus_channel(3, rng)
        result = is_degradable(channel)
        assert result.infeasible
        assert result.method == "qubit-output-environment-bound"

    def test_fast_path_agrees_with_oracle(self, rng):
        for _ in range(3):
            channel = random_kraus_channel(3, rng)
            comp = complementary_channel(channel)
            direct = is_anti_degradable(comp)
            assert not direct.feasible

    def test_classification_symmetry(self, rng):
        # anti-degradability of N equals degradability of its complement
        for _ in range(5):
            channel = random_kraus_channel(2, rng)
            lhs = is_anti_degradable(channel).status
            rhs = is_degradable(complementary_channel(channel)).status
            if Feasibility.UNDECIDED not in (lhs, rhs):
                assert lhs == rhs

    def test_two_kraus_never_neither(self, rng):
        for _ in range(10):
            channel = random_kraus_channel(2, rng)
            assert classify_channel(channel).tag is not ChannelTag.NEITHER

    def test_anti_degradable_choi_satisfies_rank2_bounds(self, rng):
        found = 0
        for _ in range(20):
            channel = random_kraus_channel(2, rng)
            result = is_anti_degradable(channel)
            if not result.feasible:
                continue
            found += 1
            choi = choi_state(channel).state
            assert choi.rank() <= 2
            lmax_ab = states.spectrum(choi.matrix).lambda_max
            lmax_b = states.spectrum(choi.rho_b).lambda_max
            assert lmax_ab <= lmax_b + 1e-9
        assert found >= 1


class TestMarginalRankBound:
    # The rank(rho_B) <= 2 bound is the first test of the rank-2 step that
    # is_anti_degradable reaches through oracle.decide.
    def test_ancilla_example_not_excluded(self):
        rho = gallery.two_qubit_with_ancilla()
        assert linalg.numerical_rank(rho.rho_b) <= 2
        assert twoqubit._rank_le2_violation(np.asarray(rho.matrix), rho.d_a, rho.d_b) is None

    def test_wrong_rank(self, maximally_mixed):
        with pytest.raises(WrongRank):
            twoqubit.rank2_condition(maximally_mixed)


class TestDegradingMap:
    def verify(self, channel):
        result = is_anti_degradable(channel)
        assert result.feasible
        degrader = degrading_map_from_extension(channel, result.witness)
        comp = complementary_channel(channel)
        composed = Channel(tuple(dk @ ck for dk in degrader.kraus for ck in comp.kraus),
                           channel.d_in, channel.d_out)
        err = linalg.trace_distance(choi_state(composed).state.matrix,
                                    choi_state(channel).state.matrix)
        assert err <= 1e-6

    def test_depolarizing(self):
        self.verify(depolarizing_full())

    def test_damping(self):
        self.verify(amplitude_damping(0.4))

    def test_product_choi_constant_degrader(self):
        # channel whose Choi state is product: replace input with a fixed state
        out = np.diag([0.5, 0.5]).astype(complex)
        kraus = tuple(np.sqrt(out[i, i]) * np.outer(np.eye(2)[:, i], np.eye(2)[:, j].conj())
                      for i in range(2) for j in range(2))
        channel = Channel(kraus, 2, 2)
        choi = choi_state(channel)
        assert linalg.trace_distance(choi.state.matrix, np.eye(4) / 4) < 1e-12
        self.verify(channel)

    def test_rejects_wrong_extension(self, rng, bell_state):
        channel = amplitude_damping(0.4)
        wrong = find_symmetric_extension(BipartiteState(np.eye(4) / 4, 2, 2)).witness
        with pytest.raises(NotAnExtension):
            degrading_map_from_extension(channel, wrong)
