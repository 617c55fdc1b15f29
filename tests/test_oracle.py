import numpy as np
import pytest
from conftest import (
    isotropic_state,
    johnson_viola_states,
    random_rank2_state,
    random_state,
    random_unitary,
    traced_symmetric_state,
    werner_state,
)

from symext import gallery, linalg, oracle, states, twoqubit
from symext.errors import DimensionMismatch, NotSymmetric, TooLarge, WrongDimension
from symext.oracle import (
    TWO_QUBIT_BAND,
    Feasibility,
    OracleOptions,
    bosonic_from_symmetric,
    decide,
    fermionic_qutrit_example,
    find_symmetric_extension,
    verify_infeasibility_certificate,
)
from symext.states import BipartiteState, TripartiteExtension, is_symmetric_extension


def random_symmetric_mixed_extension(rng, d_a=2, d_b=2, rank=4):
    d = d_a * d_b * d_b
    perm = linalg.swap_permutation(d_a, d_b)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat[np.ix_(perm, perm)])
    mat /= np.trace(mat).real
    target = linalg.partial_trace(mat, [d_a, d_b, d_b], keep=[0, 1])
    return TripartiteExtension(mat, d_a, d_b, target)


class TestFindSymmetricExtension:
    def test_feasible_by_construction(self, rng):
        z = twoqubit.ZCorrParams(0.7, 0.05, 0.05, 0.2, x=0.1, y=0.03)
        built = twoqubit.zcorr_build_extension(z, 0.05, 0.02)
        rho = BipartiteState(built.reduced_ab(), 2, 2)
        result = find_symmetric_extension(rho)
        assert result.feasible
        assert is_symmetric_extension(result.witness, rho, tol=1e-7)

    def test_bell_state_infeasible(self, bell_state):
        result = find_symmetric_extension(bell_state)
        assert result.infeasible
        assert result.residual >= 1e-6

    def test_werner_above_and_below_threshold(self):
        assert find_symmetric_extension(gallery.werner(0.6)).feasible
        assert find_symmetric_extension(gallery.werner(0.75)).infeasible

    def test_feasible_witness_independently_verified(self, rng):
        for _ in range(5):
            rho = traced_symmetric_state(rng)
            result = find_symmetric_extension(rho)
            assert result.feasible
            assert is_symmetric_extension(result.witness, rho, tol=1e-7)
            assert result.witness.symmetry_residual <= 1e-7
            assert result.witness.reduction_residual <= 1e-7

    def test_verdict_local_unitary_invariant(self, rng):
        for _ in range(6):
            rho = random_state(2, 2, rng, rank=int(rng.integers(1, 5)))
            u = linalg.tensor(random_unitary(2, rng), random_unitary(2, rng))
            rotated = BipartiteState(u @ rho.matrix @ u.conj().T, 2, 2)
            first = find_symmetric_extension(rho).status
            second = find_symmetric_extension(rotated).status
            if Feasibility.UNDECIDED not in (first, second):
                assert first == second

    def test_bell_diagonal_agreement(self, rng):
        for _ in range(15):
            probs = rng.dirichlet([1, 1, 1, 1])
            params = twoqubit.BellDiagonalParams(*probs)
            closed = twoqubit.bell_extendible(params)
            margin = max(twoqubit.bell_margins(params))
            if abs(margin) < 1e-3:
                continue
            result = find_symmetric_extension(params.state())
            if result.status is Feasibility.UNDECIDED:
                continue
            assert result.feasible == closed

    def test_mixing_monotonicity(self, rng):
        rho = random_state(2, 2, rng, rank=2)
        weights = np.linspace(0.0, 1.0, 6)
        statuses = []
        for w in weights:
            mixed = BipartiteState((1 - w) * rho.matrix + w * np.eye(4) / 4, 2, 2)
            statuses.append(find_symmetric_extension(mixed).status)
        first_feasible = next((i for i, s in enumerate(statuses) if s is Feasibility.FEASIBLE), None)
        if first_feasible is not None:
            for s in statuses[first_feasible:]:
                assert s is Feasibility.FEASIBLE

    def test_too_large_rejected(self):
        with pytest.raises(TooLarge):
            find_symmetric_extension(BipartiteState(np.eye(68) / 68, 4, 17))

    def test_options_validated(self):
        with pytest.raises(ValueError):
            OracleOptions(symmetry="anyonic")


class TestBosonicFermionic:
    def test_already_bosonic_unchanged(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b /= np.linalg.norm(b)
        vec = np.kron(a, np.kron(b, b))
        target = linalg.partial_trace(np.outer(vec, vec.conj()), [2, 2, 2], [0, 1])
        sigma = TripartiteExtension(np.outer(vec, vec.conj()), 2, 2, target)
        out = bosonic_from_symmetric(sigma)
        assert linalg.frobenius(np.asarray(out.matrix) - np.asarray(sigma.matrix)) < 1e-10

    def test_singlet_becomes_triplet(self):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        triplet = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        mat = np.kron(np.eye(2) / 2, np.outer(singlet, singlet.conj()))
        target = np.kron(np.eye(2) / 2, np.eye(2) / 2)
        sigma = TripartiteExtension(mat, 2, 2, target)
        out = bosonic_from_symmetric(sigma)
        expected = np.kron(np.eye(2) / 2, np.outer(triplet, triplet.conj()))
        assert linalg.frobenius(np.asarray(out.matrix) - expected) < 1e-12
        assert out.reduction_residual < 1e-12

    def test_seeded_conversions_preserve_reduction(self, rng):
        perm = linalg.swap_permutation(2, 2)
        proj_asym = (np.eye(8) - np.eye(8)[perm, :]) / 2
        for _ in range(20):
            d_a = int(rng.integers(2, 4))
            sigma = random_symmetric_mixed_extension(rng, d_a=d_a)
            out = bosonic_from_symmetric(sigma)
            assert linalg.trace_distance(out.reduced_ab(), sigma.reduced_ab()) <= 1e-9
            p = linalg.swap_permutation(d_a, 2)
            anti = (np.asarray(out.matrix) - np.asarray(out.matrix)[p, :]) / 2
            assert linalg.frobenius(anti) <= 1e-9

    def test_wrong_dimension_rejected(self, rng):
        sigma = random_symmetric_mixed_extension(rng, d_a=2, d_b=3)
        with pytest.raises(WrongDimension):
            bosonic_from_symmetric(sigma)

    def test_asymmetric_rejected(self):
        mat = np.diag([0.5, 0.2, 0.1, 0.1, 0.1, 0, 0, 0]).astype(complex)
        target = linalg.partial_trace(mat, [2, 2, 2], [0, 1])
        sigma = TripartiteExtension(mat, 2, 2, target)
        with pytest.raises(NotSymmetric):
            bosonic_from_symmetric(sigma)

    def test_bosonic_feasible_implies_any(self, rng):
        rho = traced_symmetric_state(rng)
        bos = find_symmetric_extension(rho, OracleOptions(symmetry="bosonic"))
        if bos.feasible:
            assert find_symmetric_extension(rho).feasible

    def test_qubit_any_implies_bosonic(self, rng):
        # convert an arbitrary symmetric witness into a bosonic one
        for _ in range(5):
            rho = traced_symmetric_state(rng)
            result = find_symmetric_extension(rho)
            assert result.feasible
            converted = bosonic_from_symmetric(result.witness)
            assert linalg.trace_distance(converted.reduced_ab(), rho.matrix) <= 1e-7

    def test_fermionic_qubit_support_is_restrictive(self, rng):
        # with qubit B the only reachable reductions are M_A (x) I/2, and
        # W = -(rho - M_A (x) I/2) certifies every other state; with d_b = 1
        # nothing is reachable and W = -rho certifies
        fermionic = OracleOptions(symmetry="fermionic")
        for rho in (traced_symmetric_state(rng), random_state(3, 2, rng), random_state(4, 2, rng),
                    random_state(2, 1, rng)):
            result = find_symmetric_extension(rho, fermionic)
            assert result.infeasible and result.stop_reason == "support"
            assert verify_infeasibility_certificate(result.certificate, rho, "fermionic")
        product = BipartiteState(np.kron(np.diag([0.3, 0.7]), np.eye(2) / 2), 2, 2)
        result2 = find_symmetric_extension(product, OracleOptions(symmetry="fermionic"))
        assert result2.feasible


class TestFermionicQutritExample:
    def test_default_coefficients(self):
        rho, bosonic, anysym = fermionic_qutrit_example()
        assert anysym.feasible
        assert not bosonic.feasible
        assert bosonic.residual > 1e-6 or bosonic.status is Feasibility.UNDECIDED

    def test_witness_swap_invariance(self):
        _, _, anysym = fermionic_qutrit_example()
        assert anysym.witness.symmetry_residual <= 1e-12

    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            fermionic_qutrit_example(a=0.0)


# States that neither converge nor certify within ten iterations: a full-rank
# state runs the full-space loop, a rank-3 state the face loop, and each
# returns the verdict of its one loop.
LOOP_STATES = {
    "full-rank": gallery.werner(0.75),
    "rank-3": twoqubit.BellDiagonalParams(0.8, 0.0, 0.1, 0.1).state(),
}


class TestInfeasibilityCertificate:
    def test_certified_before_stall_window(self, bell_state):
        werner = gallery.werner(0.75)
        qutrit, bosonic, _ = fermionic_qutrit_example()
        for rho, symmetry, result in ((bell_state, "any", find_symmetric_extension(bell_state)),
                                      (werner, "any", find_symmetric_extension(werner)),
                                      (qutrit, "bosonic", bosonic)):
            assert result.infeasible
            assert result.stop_reason == "certified"
            assert result.iterations < oracle.STALL_WINDOW
            assert verify_infeasibility_certificate(result.certificate, rho, symmetry)

    def test_extendible_states_never_certified(self, rng):
        modes = (("any", 1.0), ("bosonic", 1.0), ("fermionic", -1.0))
        for i in range(20):
            symmetry, sign = modes[i % 3]
            rho = traced_symmetric_state(rng, 2 + i % 2, 2, sign)
            result = find_symmetric_extension(rho, OracleOptions(symmetry=symmetry))
            assert result.certificate is None
            assert not result.infeasible

    def test_tampered_certificate_rejected(self, bell_state):
        cert = find_symmetric_extension(bell_state).certificate
        assert verify_infeasibility_certificate(cert, bell_state)
        assert not verify_infeasibility_certificate(-cert, bell_state)
        # Without the shift mu, any W with tr(W rho) < 0 would pass, even for
        # an extendible state; the re-check must restore mu and reject it.
        werner = gallery.werner(0.6)
        dropped = cert - (float(np.vdot(cert, werner.matrix).real) + 0.1) * np.eye(4)
        assert float(np.vdot(dropped, werner.matrix).real) < 0.0
        assert not verify_infeasibility_certificate(dropped, werner)
        assert not verify_infeasibility_certificate(-np.eye(4), bell_state)

    def test_certificate_arguments_checked(self, bell_state):
        with pytest.raises(DimensionMismatch):
            verify_infeasibility_certificate(np.eye(3), bell_state)
        with pytest.raises(ValueError):
            verify_infeasibility_certificate(np.eye(4), bell_state, "anyonic")

    @pytest.mark.parametrize("state", LOOP_STATES)
    def test_forced_stall_is_undecided(self, state, monkeypatch):
        monkeypatch.setattr(oracle, "STALL_WINDOW", 2)
        monkeypatch.setattr(oracle, "STALL_IMPROVEMENT", 1.0)
        result = find_symmetric_extension(LOOP_STATES[state])
        assert result.status is Feasibility.UNDECIDED
        assert result.stop_reason == "stalled"
        assert result.certificate is None
        assert result.iterations == 3

    @pytest.mark.parametrize("state", LOOP_STATES)
    def test_iteration_cap_is_undecided(self, state, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 10)
        result = find_symmetric_extension(LOOP_STATES[state])
        assert result.status is Feasibility.UNDECIDED
        assert result.stop_reason == "iteration-cap"
        assert result.iterations == 10


@pytest.mark.parametrize("symmetry", ["any", "bosonic", "fermionic"])
def test_decide_witness_rule(rng, symmetry):
    # gallery states, a Bell-diagonal state with both couplings nonzero, and
    # 20 seeded two-qubit states of mixed rank
    samples = [gallery.two_qubit_with_ancilla(), gallery.qutrit_qubit(), gallery.qubit_qutrit(0.75),
               gallery.werner(0.5), gallery.werner(0.8), fermionic_qutrit_example()[0],
               twoqubit.BellDiagonalParams(0.4, 0.3, 0.2, 0.1).state()]
    makers = (lambda: random_state(2, 2, rng), lambda: random_state(2, 2, rng, rank=1),
              lambda: random_rank2_state(rng), lambda: traced_symmetric_state(rng))
    samples += [makers[i % len(makers)]() for i in range(20)]
    opts = OracleOptions(symmetry=symmetry)
    for rho in samples:
        plain, backed = decide(rho, opts), decide(rho, opts, want_witness=True)
        if Feasibility.UNDECIDED not in (plain.status, backed.status):
            assert plain.status is backed.status
        oracle_status = find_symmetric_extension(rho, opts).status
        for result in (plain, backed):
            if Feasibility.UNDECIDED not in (result.status, oracle_status):
                assert result.status is oracle_status
            if result.infeasible and symmetry != "any" and result.method.startswith("closed-form"):
                assert result.proven
            if result.method.startswith("closed-form"):
                # a "no" has a negative margin; a "yes" is >= 0 up to rounding
                assert result.residual < 0 if result.infeasible else result.residual >= -1e-8
            if result.witness is not None:
                assert is_symmetric_extension(result.witness, rho, tol=1e-7)
                if symmetry == "bosonic":
                    perm = linalg.swap_permutation(rho.d_a, rho.d_b)
                    assert not np.any(linalg.parity_projection(result.witness.matrix, perm, -1))
        if symmetry == "bosonic" and rho.d_b == 2:
            # every qubit-B sample here reaches a closed form, and its verdict carries over
            assert plain.proven
        assert backed.witness is not None or not backed.feasible
        assert backed.proven or not backed.infeasible


def test_two_qubit_step_matches_oracle(rng):
    for i in range(40):
        rho = random_state(2, 2, rng, rank=3 + i % 2)
        result = decide(rho)
        assert result.method == "closed-form(two-qubit)" and result.proven
        assert result.residual == twoqubit.conjecture_margin(rho)
        checked = find_symmetric_extension(rho)
        if checked.status is not Feasibility.UNDECIDED:
            assert checked.status is result.status


def test_two_qubit_band_goes_to_oracle(rng):
    # Werner(2/3) sits on the boundary (margin ~1e-16); a local rotation takes
    # it out of Z-correlated form, so only the oracle may decide it
    u = linalg.tensor(random_unitary(2, rng), random_unitary(2, rng))
    rho = BipartiteState(u @ gallery.werner(2.0 / 3.0).matrix @ u.conj().T, 2, 2)
    assert twoqubit.zcorr_from_state(rho) is None
    assert abs(twoqubit.conjecture_margin(rho)) <= TWO_QUBIT_BAND
    result = decide(rho)
    assert result.method == "oracle(any)"
    assert result.feasible


@pytest.mark.parametrize("symmetry", oracle.SYMMETRIES)
def test_verdict_invariant_under_local_maps(symmetry):
    # a local unitary U_A (x) U_B and an invertible filter on A map extensions
    # to extensions both ways, so neither the oracle nor decide may flip a
    # verdict under them, and all of them are decided; random ranks and traced
    # states, 20 per shape.  In mode "any" the filtered copy of 3x2 draw 7
    # (full rank) needs the Anderson steps: plain Douglas-Rachford stalls on
    # it after 1582 iterations.
    rng = np.random.default_rng(2008)
    opts = OracleOptions(symmetry=symmetry)
    for d_a, d_b in ((2, 2), (3, 2), (2, 3)):
        for i in range(20):
            if i % 4 == 0:
                rho = traced_symmetric_state(rng, d_a, d_b, -1.0 if symmetry == "fermionic" else 1.0)
            else:
                rho = random_state(d_a, d_b, rng, rank=int(rng.integers(1, d_a * d_b + 1)))
            u = linalg.tensor(random_unitary(d_a, rng), random_unitary(d_b, rng))
            rotated = BipartiteState(u @ rho.matrix @ u.conj().T, d_a, d_b)
            filtered = states.apply_filter_A(rho, states.random_invertible_filter(d_a, rng)).normalized()
            verdicts = {solve(x, opts).status for solve in (find_symmetric_extension, decide)
                        for x in (rho, rotated, filtered)}
            assert len(verdicts) == 1 and Feasibility.UNDECIDED not in verdicts, (d_a, d_b, i, verdicts)


def test_face_bases_span_the_face():
    # X C_s (X = R (x) I_B') is an orthonormal basis of the vectors of sector s
    # in R (x) H_B'.  Its dimension is checked against the kernel of
    # Pi_ker(rho) (x) I_B' compressed to the sector (the range of the parity
    # projection of the identity).  With d_b = 1 every swap eigenvalue is 1
    # up to rounding, so a relative cut on the face would lose face vectors.
    rng = np.random.default_rng(2020)
    for d_a, d_b in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)):
        n = d_a * d_b
        identity = np.eye(n * d_b, dtype=np.complex128)
        for rank in range(1, n):
            range_basis = linalg.support(random_state(d_a, d_b, rng, rank=rank).matrix)[1]
            x = np.kron(range_basis, np.eye(d_b))
            kernel = np.kron(np.eye(n) - range_basis @ range_basis.conj().T, np.eye(d_b))
            for symmetry in oracle.SYMMETRIES:
                geom = oracle._geometry(d_a, d_b, symmetry)
                for s, c in zip(geom.sectors, oracle._face_bases(geom, x)):
                    f = x @ c
                    assert np.allclose(f.conj().T @ f, np.eye(f.shape[1]), atol=1e-12)
                    assert linalg.frobenius(kernel @ f) < 1e-12
                    assert np.allclose(f[geom.perm], s * f, atol=1e-12)
                    sector = linalg.support(linalg.parity_projection(identity, geom.perm, s))[1]
                    expected = np.count_nonzero(~linalg.above_cut(np.linalg.eigvalsh(
                        sector.conj().T @ kernel @ sector)))
                    assert f.shape[1] == expected, (d_a, d_b, rank, symmetry, s)


def test_geometry_embed_and_reduce(rng):
    # embed is m (x) I/d_b on either size (AB or A B B'); the slice-by-slice
    # loop is the reference, and reduce undoes embed.  C = reduce o lift and
    # its pseudo-inverse split every r into C C^+ r plus the unreachable part,
    # which is nonzero only for fermionic symmetry with d_b <= 2.
    for symmetry in oracle.SYMMETRIES:
        for d_a, d_b in ((2, 1), (2, 2), (3, 2), (2, 3)):
            geom = oracle._ExtensionGeometry(d_a, d_b, symmetry)
            for n in (d_a, d_a * d_b):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                expected = np.zeros((n * d_b, n * d_b), dtype=np.complex128)
                for i in range(d_b):
                    expected.reshape(n, d_b, n, d_b)[:, i, :, i] = m / d_b
                assert np.array_equal(geom.embed(m), expected)
                assert np.allclose(geom.reduce(geom.embed(m)), m, atol=1e-15)
            g = rng.standard_normal((d_a * d_b,) * 2) + 1j * rng.standard_normal((d_a * d_b,) * 2)
            r = g + g.conj().T
            reached = geom.reduce(geom.lift(geom.solve_constraint(r)))
            unreachable = geom.unreachable_part(r)
            assert np.allclose(reached + unreachable, r, atol=1e-12)
            if symmetry == "fermionic" and d_b <= 2:
                assert linalg.frobenius(unreachable) > 1e-3
            else:
                assert not unreachable.any()


@pytest.mark.parametrize("symmetry", oracle.SYMMETRIES)
def test_sector_block_matches_the_whole_matrix(symmetry, monkeypatch):
    # A matrix x in the range of S has the eigenvalues of its blocks (N - k_s
    # zeros more when one sector is kept), and the blocks' PSD parts lift
    # back to that of x.  certificate_shift matches d_b max(0, -lambda_min)
    # of the whole lift, also with d_b = 1 in fermionic mode, where the block
    # is 0 x 0.  Mode "any" is whole up to WHOLE_EIGH_MAX_DIM and split above
    # it.  At 3x3, 2x4 and 4x3 (25 < N <= 36) every block eigendecomposed
    # stays within LAPACK's QR path (n <= 25); with d_b = 1 the swap is the
    # identity, so the symmetric block of 30x1 is the whole matrix and the
    # antisymmetric one is empty.
    widths = []

    def recording(decompose):
        def run(a, *args, **kwargs):
            widths.append(a.shape[0])
            return decompose(a, *args, **kwargs)
        return run

    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    rng = np.random.default_rng(2004)
    for d_a, d_b in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (4, 3), (30, 1)):
        geom = oracle._ExtensionGeometry(d_a, d_b, symmetry)
        n = d_a * d_b * d_b
        k = n if symmetry == "any" else d_a * d_b * (d_b + geom.parity) // 2
        split = symmetry != "any" or n > oracle.WHOLE_EIGH_MAX_DIM
        assert len(geom.blocks) == (len(geom.sectors) if split else 1)
        for block in geom.blocks if split else ():
            assert not any(a.flags.writeable for a in (block.index, block.weight, block.basis))
        for _ in range(3):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = linalg.parity_projection(g + g.conj().T, geom.perm, geom.parity)
            del widths[:]
            spectrum, psd = geom.spectrum(x), geom.psd_part(x)
            assert sum(widths) == 2 * k
            if 25 < n <= 36 and d_b > 1:
                assert max(widths) <= 25, (d_a, d_b, widths)
            padded = np.sort(np.concatenate([spectrum, np.zeros(n - k)]))
            assert np.allclose(padded, np.linalg.eigvalsh(x), rtol=0.0, atol=1e-12)
            assert np.allclose(psd, oracle._psd_part(x), rtol=0.0, atol=1e-12)
            h = rng.standard_normal((d_a * d_b,) * 2) + 1j * rng.standard_normal((d_a * d_b,) * 2)
            w = h + h.conj().T
            expected = d_b * max(0.0, -float(np.linalg.eigvalsh(geom.lift(w))[0]))
            assert abs(geom.certificate_shift(w) - expected) <= 1e-12, (d_a, d_b)
            if k == 0:
                assert geom.certificate_shift(w) == 0.0


def test_split_keeps_the_verdict_of_the_whole_matrix(monkeypatch):
    # Mode "any" on full-rank states above WHOLE_EIGH_MAX_DIM: the iteration
    # on the two sector blocks stops for the same reason after as many
    # iterations as the one on the whole matrix.
    rng = np.random.default_rng(22)
    states = [random_state(d_a, d_b, rng) for d_a, d_b in ((3, 3), (2, 4), (4, 3)) for _ in range(2)]

    def verdicts():
        oracle._geometry.cache_clear()
        found = [find_symmetric_extension(rho) for rho in states]
        return [(r.status, r.stop_reason, r.iterations) for r in found]

    split = verdicts()
    monkeypatch.setattr(oracle, "WHOLE_EIGH_MAX_DIM", oracle.MAX_EXTENSION_DIM)
    try:
        assert verdicts() == split
    finally:
        oracle._geometry.cache_clear()
    assert all(reason in ("converged", "certified") for _, reason, _ in split)


def test_johnson_viola_thresholds():
    # Isotropic and Werner states at d = 2..6, 0.02 from their thresholds
    # (conftest.johnson_viola_states): mode "any" gives the known verdict, a
    # state above its threshold has no bosonic or fermionic extension either
    # (each is a symmetric one), and nothing is undecided.  Full rank, so the
    # full-space kernel runs, on one swap sector outside mode "any" and on
    # both in mode "any" from N = 27, up to N = 216.  At d = 2,
    # gallery.werner(p) is the isotropic state with F = (3p + 1)/4, so its
    # threshold 2/3 is F = 3/4, and the Werner state with weight q is the
    # isotropic one with F = q up to I (x) iY.
    p = gallery.werner_threshold()
    assert abs((3.0 * p + 1.0) / 4.0 - 3.0 / 4.0) < 1e-9
    assert np.allclose(gallery.werner(p).matrix, isotropic_state(2, (3.0 * p + 1.0) / 4.0).matrix, atol=1e-15)
    flip = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(werner_state(2, 0.7).matrix, flip @ isotropic_state(2, 0.7).matrix @ flip.T, atol=1e-15)
    for label, rho, extendible in johnson_viola_states(np.random.default_rng(2013)):
        for symmetry in oracle.SYMMETRIES:
            result = find_symmetric_extension(rho, OracleOptions(symmetry=symmetry))
            assert result.status is not Feasibility.UNDECIDED, (label, symmetry)
            if symmetry == "any" or not extendible:
                assert result.feasible is extendible, (label, symmetry)
            assert_backed(result, rho, symmetry)


def test_undecided_criterion_7_draws_now_feasible():
    # rank-3 draws of acceptance criterion 7 with positive conjecture margin;
    # started outside the symmetry subspace, the iteration stalls on them
    # just above the convergence tolerance
    rng = np.random.default_rng(707)
    draws = {}
    for i in range(1807):
        rank = int(rng.integers(1, 5))
        rho = random_state(2, 2, rng, rank=rank)
        if i in (176, 1132, 1189, 1806):
            draws[i] = rho
    for i, rho in draws.items():
        assert twoqubit.conjecture_margin(rho) > 1e-4, i
        result = find_symmetric_extension(rho)
        assert result.feasible, (i, result.stop_reason)
        assert is_symmetric_extension(result.witness, rho, tol=oracle.WITNESS_TOL)


def test_runs_within_two_checks_stay_plain(rng, monkeypatch):
    # Anderson steps start after ANDERSON_START iterations, so a run that ends
    # by then keeps the plain Douglas-Rachford iterates: the same verdict,
    # iteration count and residual as with no acceleration at all
    samples = [random_state(d_a, d_b, rng) for d_a, d_b in ((2, 2), (3, 2), (2, 3), (3, 3))
               for _ in range(3)]
    accelerated = [find_symmetric_extension(rho) for rho in samples]
    start = oracle.ANDERSON_START
    monkeypatch.setattr(oracle, "ANDERSON_START", oracle.MAX_ITERATIONS)
    short = 0
    for rho, fast in zip(samples, accelerated):
        plain = find_symmetric_extension(rho)
        assert fast.status is plain.status
        if plain.iterations <= start:
            assert (fast.iterations, fast.residual) == (plain.iterations, plain.residual)
            short += 1
    assert 6 <= short < len(samples)


def test_zcorr_y_positive_draw_accelerated():
    # draw 12 of the Z-correlated y > 0 states of
    # test_twoqubit.py::TestZCorrelated::test_y_positive_left_to_decide
    # (default_rng(5)): conjecture margin +0.095, full rank with one eigenvalue
    # near 1e-4; plain Douglas-Rachford needs 682 iterations
    rng = np.random.default_rng(5)
    for _ in range(12):
        probs = np.sort(rng.dirichlet([1, 1, 1, 1]))[::-1]
        rest = rng.permutation(probs[1:])
        z = twoqubit.ZCorrParams(probs[0], *rest,
                                 x=float(rng.uniform(0, np.sqrt(probs[0] * rest[2]))),
                                 y=float(rng.uniform(0, np.sqrt(rest[0] * rest[1]))))
    rho = z.state()
    assert z.y > 0.0 and twoqubit.conjecture_margin(rho) > 0.09
    result = find_symmetric_extension(rho)
    assert result.feasible and result.iterations < 200
    assert is_symmetric_extension(result.witness, rho, tol=oracle.WITNESS_TOL)


def test_invalid_witness_is_rejected(bell_state):
    # a converged point that is not a state is reported, not raised
    for point in (np.diag([1.0, -0.5, 0.5, 0, 0, 0, 0, 0]), np.eye(8)):
        result = oracle._loop_result(("converged", point.astype(complex), 0.0, 7), bell_state,
                                     "oracle(any)", lambda x: x)
        assert result.status is Feasibility.UNDECIDED and result.witness is None
        assert (result.stop_reason, result.iterations) == ("witness-rejected", 7)


def face_of(rho, symmetry="any"):
    geom = oracle._ExtensionGeometry(rho.d_a, rho.d_b, symmetry)
    range_basis = linalg.support(rho.matrix)[1]
    x = np.kron(range_basis, np.eye(rho.d_b))
    return oracle._Face(rho, geom, range_basis, x, oracle._face_bases(geom, x))


def assert_backed(result, rho, symmetry="any"):
    if result.feasible:
        assert is_symmetric_extension(result.witness, rho, tol=oracle.WITNESS_TOL)
    else:
        assert result.infeasible and result.proven
        assert verify_infeasibility_certificate(result.certificate, rho, symmetry)


def test_criterion_7_draw_1723_certified():
    # a rank-3 criterion-7 draw just inside the infeasible side; the
    # full-space iteration stalls on it
    rng = np.random.default_rng(707)
    for _ in range(1724):
        rho = random_state(2, 2, rng, rank=int(rng.integers(1, 5)))
    assert -2e-4 < twoqubit.conjecture_margin(rho) < -1e-4
    result = find_symmetric_extension(rho)
    assert result.infeasible and result.stop_reason == "certified"
    assert_backed(result, rho)


def test_rank3_qubit_qutrit_draws_all_decided():
    # the full-space iteration leaves five of these undecided
    rng = np.random.default_rng(32)
    for i in range(16):
        rho = random_state(3, 2, rng, rank=3)
        result = find_symmetric_extension(rho)
        assert result.status is not Feasibility.UNDECIDED, i
        assert_backed(result, rho)


def test_rank2_qubit_qutrit_draws_all_decided():
    # one of these draws stalled Undecided in the full-space loop, and
    # rank2_violation finds no violation for it; the face decides all of them
    rng = np.random.default_rng(1234)
    draws = [random_state(3, 2, rng, rank=2) for _ in range(20)]
    for symmetry in oracle.SYMMETRIES:
        for i, rho in enumerate(draws):
            result = find_symmetric_extension(rho, OracleOptions(symmetry=symmetry))
            assert result.status is not Feasibility.UNDECIDED, (symmetry, i)
            assert_backed(result, rho, symmetry)


class TestFace:
    def test_face_vectors_lie_in_the_support(self, rng):
        # X = R (x) I_B' has orthonormal columns that Pi_ker(rho) (x) I_B'
        # kills; the coordinates C_s are orthonormal eigenvectors of the swap
        # compressed to X, with eigenvalue s
        for symmetry in oracle.SYMMETRIES:
            rho = random_state(3, 2, rng, rank=4)
            face = face_of(rho, symmetry)
            range_basis = linalg.support(rho.matrix)[1]
            kernel = np.kron(np.eye(6) - range_basis @ range_basis.conj().T, np.eye(2))
            assert np.allclose(face.x.conj().T @ face.x, np.eye(8), atol=1e-12)
            assert linalg.frobenius(kernel @ face.x) < 1e-12
            swap = face.x.conj().T @ face.x[face.geom.perm]
            for s, c in zip(face.geom.sectors, face.bases):
                assert np.allclose(c.conj().T @ c, np.eye(c.shape[1]), atol=1e-12)
                assert np.allclose(swap @ c, s * c, atol=1e-12)

    def test_empty_face(self, rng):
        # an entangled pure state: no vector of R (x) H_B' is swap-invariant
        for _ in range(3):
            rho = random_state(2, 2, rng, rank=1)
            assert not any(face_of(rho).sizes)
            result = find_symmetric_extension(rho)
            assert result.stop_reason == "certified" and result.iterations == 0
            assert result.residual == pytest.approx(1.0)
            assert_backed(result, rho)

    def test_empty_affine_set(self, rng):
        # a density matrix on the 2-dimensional range of a traced-symmetric
        # 3x2 state: the face is one vector, and it reduces to rho only for
        # the traced state
        for _ in range(4):
            range_basis = linalg.support(traced_symmetric_state(rng, 3, 2).matrix)[1]
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = BipartiteState(range_basis @ (g @ g.conj().T) @ range_basis.conj().T
                                 / np.trace(g @ g.conj().T).real, 3, 2)
            face = face_of(rho)
            gap = linalg.frobenius(face.m @ face.y0 - face.b)
            assert gap > 1e-3
            result = find_symmetric_extension(rho)
            assert result.infeasible and result.iterations == 0
            assert result.residual == pytest.approx(gap)
            assert_backed(result, rho)

    def test_one_point_yes(self, rng):
        for _ in range(3):
            rho = traced_symmetric_state(rng)
            face = face_of(rho)
            assert face.s.size == face.m.shape[1]
            result = find_symmetric_extension(rho)
            assert result.feasible and result.iterations == 0
            assert_backed(result, rho)
        # traced rank-2 states with qutrit and ququart A: the rank-2 step has
        # no "yes" for them, and decide's oracle builds the witness
        for d_a in (3, 4):
            for _ in range(3):
                rho = traced_symmetric_state(rng, d_a, 2)
                assert rho.rank() == 2
                for symmetry in ("any", "bosonic"):
                    result = decide(rho, OracleOptions(symmetry=symmetry), want_witness=True)
                    assert result.method == f"oracle({symmetry})"
                    assert result.feasible and result.iterations == 0
                    assert_backed(result, rho)

    def test_one_point_no(self, rng):
        # rank-2 states have a one-point face; with qutrit and ququart A the
        # rank-2 step refutes only what a tracing of a factor of A exposes,
        # and decide leaves the rest to the face
        for d_a in (2, 3, 4):
            refuted = unrefuted_by_tracing = 0
            for _ in range(12):
                rho = random_rank2_state(rng, d_a, 2)
                if d_a == 2 and twoqubit.rank2_condition(rho):
                    continue
                face = face_of(rho)
                assert face.s.size == face.m.shape[1]
                result = find_symmetric_extension(rho)
                assert result.iterations == 0
                assert_backed(result, rho)
                if result.feasible:
                    continue
                assert result.residual > 0.0
                refuted += 1
                if twoqubit.rank2_violation(rho) is None:
                    unrefuted_by_tracing += 1
                    for want_witness in (False, True):
                        verdict = decide(rho, want_witness=want_witness)
                        assert verdict.method == "oracle(any)" and verdict.iterations == 0
                        assert_backed(verdict, rho)
            assert refuted >= 2
            assert unrefuted_by_tracing >= (2 if d_a > 2 else 0)

    def test_face_iteration(self, rng):
        # rank-3 two-qubit states: a face of 4x4 blocks and 9 constraints;
        # random draws are mostly extendible, rotated Bell-diagonal ones are not
        samples = [random_state(2, 2, rng, rank=3) for _ in range(8)]
        for probs in ((0.8, 0.0, 0.1, 0.1), (0.7, 0.2, 0.1, 0.0)):
            u = linalg.tensor(random_unitary(2, rng), random_unitary(2, rng))
            bell = twoqubit.BellDiagonalParams(*probs).state().matrix
            samples.append(BipartiteState(u @ bell @ u.conj().T, 2, 2))
        seen = set()
        for rho in samples:
            face = face_of(rho)
            assert face.s.size < face.m.shape[1]
            result = find_symmetric_extension(rho)
            assert 0 < result.iterations <= 200
            assert result.feasible == (twoqubit.conjecture_margin(rho) > 0)
            assert_backed(result, rho)
            seen.add(result.status)
        assert seen == {Feasibility.FEASIBLE, Feasibility.INFEASIBLE}

    def test_mass_under_the_cut_decided_on_the_face(self):
        # two eigenvalues just under the zero cut: the face point misses their
        # 1.4e-9 of trace, and the witness rescaled to unit trace re-verifies
        traced = traced_symmetric_state(np.random.default_rng(11))
        eig = linalg.hermitian_eig(traced.matrix)
        kernel = eig.eigenvectors[:, 2:]
        mat = traced.matrix + 0.9e-9 * eig.eigenvalues[0] * kernel @ kernel.conj().T
        rho = BipartiteState(mat / np.trace(mat).real, 2, 2)
        assert rho.rank() == 2
        face = face_of(rho)
        assert 1.0 - np.trace(face.b.reshape(2, 2)).real > 1e-9  # the trace the face point misses
        result = find_symmetric_extension(rho)
        assert result.feasible and result.iterations == 0
        assert abs(np.trace(result.witness.matrix).real - 1.0) < 1e-14
        assert_backed(result, rho)

    def test_size_gate(self, rng, monkeypatch):
        samples = [traced_symmetric_state(rng), random_rank2_state(rng), random_state(2, 2, rng, rank=3),
                   traced_symmetric_state(rng, 3, 2)]
        on_face = [find_symmetric_extension(rho) for rho in samples]
        monkeypatch.setattr(oracle, "MAX_FACE_ENTRIES", 0)
        for rho, face_result in zip(samples, on_face):
            result = find_symmetric_extension(rho)
            assert result.status is face_result.status
            assert result.iterations > 0  # the full-space iteration ran

    def test_face_without_a_verdict_is_undecided(self, rng, monkeypatch):
        # a face run returns its own verdict: with every face certificate
        # rejected, a rank-2 "no" is Undecided at its one-point exit instead of
        # going on to the full-space loop
        monkeypatch.setattr(oracle._Face, "certificate", lambda self, w0: None)
        checked = 0
        for _ in range(8):
            rho = random_rank2_state(rng)
            if twoqubit.rank2_condition(rho):
                continue
            result = find_symmetric_extension(rho)
            assert result.status is Feasibility.UNDECIDED and result.certificate is None
            assert result.stop_reason == "certificate-rejected" and result.iterations == 0
            checked += 1
        assert checked >= 2
