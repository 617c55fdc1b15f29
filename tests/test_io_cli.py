import csv
import json

import numpy as np
import pytest
from conftest import random_state, traced_symmetric_state

from symext import channels, gallery, io, linalg, states, twoqubit
from symext.channels import Channel, choi_state, complementary_channel
from symext.cli import EXIT_INVALID, EXIT_NO, EXIT_UNDECIDED, EXIT_YES, amplitude_damping, main
from symext.oracle import Feasibility, FeasibilityResult, decide

# I/4 as a file's "matrix" field
MIXED = json.dumps(io.matrix_to_json(np.eye(4) / 4.0))
# a Kraus file of amplitude damping at eta = 0.3
DAMPING = json.dumps(io.channel_payload(amplitude_damping(0.3)))


@pytest.fixture
def bell_file(tmp_path, bell_state):
    path = tmp_path / "bell.json"
    io.save_state(str(path), bell_state)
    return str(path)


@pytest.fixture
def mixed_file(tmp_path, maximally_mixed):
    path = tmp_path / "mixed.json"
    io.save_state(str(path), maximally_mixed)
    return str(path)


class TestIO:
    def test_state_roundtrip(self, tmp_path, rng):
        rho = random_state(2, 3, rng)
        path = str(tmp_path / "state.json")
        io.save_state(path, rho)
        loaded = io.load_state(path)
        assert loaded.d_a == 2 and loaded.d_b == 3
        assert linalg.trace_distance(loaded.matrix, rho.matrix) < 1e-14

    def test_channel_roundtrip(self, tmp_path):
        path = str(tmp_path / "chan.json")
        io.save_channel(path, amplitude_damping(0.3))
        loaded = io.load_channel(path)
        assert loaded.d_in == 2 and loaded.d_out == 2
        assert len(loaded.kraus) == 2

    def test_malformed_json_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [2, 2], "matrix": [[[1, 0], [0')
        with pytest.raises(io.FileFormatError) as err:
            io.load_state(str(path))
        assert "broken.json:" in str(err.value)

    def test_bad_entry_positions_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": [[[1, 0], [0, 0], [0, 0], "x"]] * 4}))
        with pytest.raises(io.FileFormatError) as err:
            io.load_state(str(path))
        assert "[0][3]" in str(err.value)

    @pytest.mark.parametrize("text, argv", [
        (f'{{"dims": [true, 4], "matrix": {MIXED}}}', ["check", "{file}"]),
        (f'{{"dims": [2, 2], "matrix": {MIXED.replace("0.25", "NaN", 1)}}}', ["check", "{file}"]),
        ('{"dims": [1, 1], "matrix": [[[true, 0]]]}', ["check", "{file}"]),
        ('{"d_in": true, "d_out": 1, "kraus": [[[[1.0, 0.0]]]]}', ["channel", "classify", "{file}"]),
        ('{"dims": [1, 2], "matrix": [5, 6]}', ["check", "{file}"]),
        ('{"d_in": 1, "d_out": 1, "kraus": [[5]]}', ["channel", "classify", "{file}"]),
        # unwritable output paths
        (f'{{"dims": [2, 2], "matrix": {MIXED}}}', ["extend", "{file}", "-o", "{out}"]),
        (DAMPING, ["channel", "choi", "{file}", "-o", "{out}"]),
        (DAMPING, ["channel", "complement", "{file}", "-o", "{out}"]),
        ("{}", ["scan", "werner", "--steps", "3", "--csv", "{out}"]),
        ("{}", ["gallery", "werner", "--steps", "3", "--csv", "{out}"]),
    ], ids=["bool-dims", "nan-entry", "bool-entry", "bool-channel-dims", "row-not-a-list",
            "kraus-row-not-a-list", "extend-output", "choi-output", "complement-output",
            "scan-csv", "gallery-csv"])
    def test_malformed_file_is_invalid_input(self, tmp_path, capsys, text, argv):
        path = tmp_path / "bad.json"
        path.write_text(text)
        unwritable = tmp_path / "missing" / "out"
        assert main([a.format(file=path, out=unwritable) for a in argv]) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not unwritable.parent.exists()

    def test_non_state_rejected(self, tmp_path):
        path = tmp_path / "notastate.json"
        mat = np.eye(4)
        path.write_text(json.dumps({"dims": [2, 2], "matrix": io.matrix_to_json(mat)}))
        with pytest.raises(io.FileFormatError):
            io.load_state(str(path))


class TestCheckCommand:
    def test_bell_is_no_proven(self, bell_file, capsys):
        assert main(["check", bell_file]) == EXIT_NO
        out = capsys.readouterr().out
        assert "answer: no" in out
        assert "proven: true" in out

    def test_mixed_is_yes(self, mixed_file):
        assert main(["check", mixed_file]) == EXIT_YES

    def test_ancilla_example_is_no(self, tmp_path):
        path = str(tmp_path / "ex1.json")
        io.save_state(path, gallery.two_qubit_with_ancilla())
        assert main(["check", path]) == EXIT_NO

    def test_oracle_method(self, mixed_file, capsys):
        assert main(["check", mixed_file, "--method", "oracle", "--json"]) == EXIT_YES
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "yes"
        assert payload["method"].startswith("oracle")

    @pytest.mark.parametrize("method", ["spectrum", "conjecture"])
    def test_spectrum_method_removed(self, mixed_file, method):
        # both read one closed form on its own; ``auto`` reaches them through decide
        with pytest.raises(SystemExit) as exc:
            main(["check", mixed_file, "--method", method])
        assert exc.value.code == EXIT_INVALID

    def test_invalid_file_exit_code(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{")
        assert main(["check", str(path)]) == EXIT_INVALID

    def test_oracle_no_is_certified(self, bell_file, capsys):
        assert main(["check", bell_file, "--method", "oracle", "--json"]) == EXIT_NO
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "no"
        assert payload["proven"] is True
        assert payload["stop_reason"] == "certified"

    @pytest.mark.parametrize("argv", [["check", "{state}"], ["extend", "{state}", "-o", "{out}"],
                                      ["channel", "classify", "{kraus}"], ["channel", "choi", "{kraus}"]],
                             ids=["check", "extend", "channel-classify", "channel-choi"])
    def test_tol_only_on_verify_extension(self, mixed_file, tmp_path, capsys, argv):
        # the oracle has no convergence knob; --tol sets verify-extension's tolerance only
        kraus = tmp_path / "damp.json"
        kraus.write_text(DAMPING)
        out = tmp_path / "ext.json"
        with pytest.raises(SystemExit) as exc:
            main([a.format(state=mixed_file, kraus=kraus, out=out) for a in argv] + ["--tol", "1e-3"])
        assert exc.value.code == EXIT_INVALID
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "-1e-9", "1", "nan", "inf"])
    def test_bad_tol_is_invalid_input(self, mixed_file, tmp_path, capsys, tol):
        ext_path = str(tmp_path / "ext.json")
        assert main(["extend", mixed_file, "-o", ext_path]) == EXIT_YES
        capsys.readouterr()
        assert main(["verify-extension", ext_path, mixed_file, f"--tol={tol}"]) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestExtendCommand:
    def test_extend_and_verify(self, tmp_path, rng):
        rho = traced_symmetric_state(rng)
        state_path = str(tmp_path / "state.json")
        ext_path = str(tmp_path / "ext.json")
        io.save_state(state_path, rho)
        assert main(["extend", state_path, "-o", ext_path]) == EXIT_YES
        assert main(["verify-extension", ext_path, state_path]) == EXIT_YES

    def test_extend_oracle_witness(self, mixed_file, tmp_path):
        ext_path = str(tmp_path / "ext.json")
        assert main(["extend", mixed_file, "-o", ext_path]) == EXIT_YES
        assert main(["verify-extension", ext_path, mixed_file]) == EXIT_YES

    def test_extend_rank2_decomposition_branch(self, tmp_path, rng, capsys):
        # rank-2 state passing the eigenvalue test but not the spectrum condition
        from conftest import random_rank2_state
        from symext import states as states_mod, twoqubit
        rho = random_rank2_state(rng)
        while not twoqubit.rank2_condition(rho) or states_mod.spectrum_condition(rho):
            rho = random_rank2_state(rng)
        state_path = str(tmp_path / "rank2.json")
        ext_path = str(tmp_path / "ext.json")
        io.save_state(state_path, rho)
        assert main(["extend", state_path, "-o", ext_path]) == EXIT_YES
        assert "rank2-decomposition" in capsys.readouterr().out
        assert main(["verify-extension", ext_path, state_path]) == EXIT_YES

    @pytest.mark.parametrize("relabel", [False, True])
    def test_extend_zcorr_witness(self, tmp_path, capsys, relabel):
        # y = 0 has the closed-form witness; y > 0 has none and the oracle builds it
        for z, method in ((twoqubit.ZCorrParams(0.4, 0.3, 0.2, 0.1, 0.15, 0.0), "closed-form(zcorr-y0)"),
                          (twoqubit.ZCorrParams(0.4, 0.3, 0.1, 0.2, 0.15, 0.05), "oracle(any)")):
            mat = z.matrix()
            if relabel:  # X (x) X copy with a negative x
                xx = np.kron(twoqubit.SX, twoqubit.SX)
                mat = xx @ mat @ xx
                mat[0, 3] = mat[3, 0] = -z.x
            rho = states.BipartiteState(mat, 2, 2)
            result = decide(rho, want_witness=True)
            assert result.method == method
            assert result.proven == (not z.y)
            assert states.is_symmetric_extension(result.witness, rho, tol=1e-7)
            state_path = str(tmp_path / "zcorr.json")
            ext_path = str(tmp_path / "ext.json")
            io.save_state(state_path, rho)
            assert main(["extend", state_path, "-o", ext_path]) == EXIT_YES
            assert f"method: {method}" in capsys.readouterr().out
            assert main(["verify-extension", ext_path, state_path]) == EXIT_YES

    def test_extend_honours_symmetry(self, tmp_path, rng, capsys):
        # rank 2 with the spectrum condition, so a plain pure extension exists;
        # a fermionic one with qubit B needs rho = M_A (x) I/2
        rho = traced_symmetric_state(rng)
        assert rho.rank() == 2 and states.spectrum_condition(rho)
        state_path = str(tmp_path / "state.json")
        ext_path = tmp_path / "ext.json"
        io.save_state(state_path, rho)
        code = main(["extend", state_path, "-o", str(ext_path), "--symmetry", "fermionic", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_NO
        assert not payload["method"].startswith("closed-form")
        assert not ext_path.exists()

    def test_extend_json_names_the_witness(self, mixed_file, tmp_path, capsys):
        ext_path = str(tmp_path / "ext.json")
        assert main(["extend", mixed_file, "-o", ext_path, "--json"]) == EXIT_YES
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "yes" and payload["witness_path"] == ext_path
        assert set(payload["residuals"]) == {"symmetry", "reduction"}
        assert main(["verify-extension", ext_path, mixed_file]) == EXIT_YES

    def test_extend_refuses_bell(self, bell_file, tmp_path):
        ext_path = str(tmp_path / "ext.json")
        assert main(["extend", bell_file, "-o", ext_path]) == EXIT_NO

    def test_verify_tol_bounds_the_residuals(self, tmp_path, rng, capsys):
        rho = traced_symmetric_state(rng, 3, 2)
        state_path = str(tmp_path / "state.json")
        ext_path = str(tmp_path / "ext.json")
        io.save_state(state_path, rho)
        assert main(["extend", state_path, "-o", ext_path, "--json"]) == EXIT_YES
        assert json.loads(capsys.readouterr().out)["residuals"]["reduction"] > 1e-30
        assert main(["verify-extension", ext_path, state_path, "--tol", "1e-6"]) == EXIT_YES
        capsys.readouterr()
        assert main(["verify-extension", ext_path, state_path, "--tol", "1e-30"]) == EXIT_NO
        assert "answer: no" in capsys.readouterr().out

    def test_verify_rejects_wrong_pair(self, tmp_path, rng, bell_file):
        rho = traced_symmetric_state(rng)
        state_path = str(tmp_path / "state.json")
        ext_path = str(tmp_path / "ext.json")
        io.save_state(state_path, rho)
        assert main(["extend", state_path, "-o", ext_path]) == EXIT_YES
        assert main(["verify-extension", ext_path, bell_file]) == EXIT_NO


class TestChannelCommand:
    def test_classify_damping(self, tmp_path, capsys):
        path = str(tmp_path / "damp.json")
        io.save_channel(path, amplitude_damping(0.3))
        assert main(["channel", "classify", path]) == EXIT_YES
        assert "anti-degradable" in capsys.readouterr().out

    def test_classify_json(self, tmp_path, capsys):
        path = tmp_path / "damp.json"
        path.write_text(DAMPING)
        assert main(["channel", "classify", str(path), "--json"]) == EXIT_YES
        assert json.loads(capsys.readouterr().out) == {
            "classification": "anti-degradable",
            "degradable": "infeasible",
            "anti_degradable": "feasible",
            "methods": {"degradable": "closed-form(coherent-information)",
                        "anti_degradable": "closed-form(rank2-decomposition)"},
        }

    def test_classify_depolarizing(self, tmp_path, capsys):
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
        chan = Channel(tuple(0.5 * p.astype(complex) for p in paulis), 2, 2)
        path = str(tmp_path / "depol.json")
        io.save_channel(path, chan)
        assert main(["channel", "classify", path]) == EXIT_YES
        out = capsys.readouterr().out
        assert "classification: anti-degradable" in out

    def test_identity_degradable_only(self, tmp_path, capsys):
        path = str(tmp_path / "id.json")
        io.save_channel(path, Channel((np.eye(2, dtype=complex),), 2, 2))
        assert main(["channel", "classify", path]) == EXIT_YES
        assert "classification: degradable" in capsys.readouterr().out

    @pytest.mark.parametrize("channel", [Channel((np.eye(2, dtype=complex),), 2, 2), amplitude_damping(1.0)],
                             ids=["identity", "damping-1"])
    def test_fermionic_one_dimensional_environment(self, tmp_path, capsys, channel):
        # the complement's Choi state is 2x1, and no fermionic extension has d_b = 1
        path = str(tmp_path / "chan.json")
        io.save_channel(path, channel)
        assert main(["channel", "classify", path, "--symmetry", "fermionic"]) == EXIT_YES
        assert "classification: neither" in capsys.readouterr().out

    def test_undecided_side_keeps_the_tag_undecided(self, tmp_path, capsys, monkeypatch):
        # the degradable side is a certified no; an undecided anti-degradable
        # side leaves the tag undecided, whatever the channel's dimensions
        choi = choi_state(amplitude_damping(0.3)).state.matrix
        real = channels.is_anti_degradable

        def undecided_for_the_channel(channel, opts=None):
            if np.allclose(choi_state(channel).state.matrix, choi):
                return FeasibilityResult(Feasibility.UNDECIDED, None, float("inf"), 0, method="stub")
            return real(channel, opts)

        monkeypatch.setattr(channels, "is_anti_degradable", undecided_for_the_channel)
        result = channels.classify_channel(amplitude_damping(0.3))
        assert result.degradable.status is Feasibility.INFEASIBLE
        assert result.tag is channels.ChannelTag.UNDECIDED
        path = tmp_path / "damp.json"
        path.write_text(DAMPING)
        assert main(["channel", "classify", str(path)]) == EXIT_UNDECIDED
        assert "classification: undecided" in capsys.readouterr().out

    def test_choi_output(self, tmp_path):
        path = str(tmp_path / "damp.json")
        out_path = str(tmp_path / "choi.json")
        io.save_channel(path, amplitude_damping(0.5))
        assert main(["channel", "choi", path, "-o", out_path]) == EXIT_YES
        loaded = io.load_state(out_path)
        assert loaded.d_a == 2 and loaded.d_b == 2

    def test_stdout_output_loads_back(self, tmp_path, capsys):
        path = str(tmp_path / "damp.json")
        out_path = tmp_path / "out.json"
        channel = amplitude_damping(0.5)
        io.save_channel(path, channel)
        assert main(["channel", "choi", path]) == EXIT_YES
        out_path.write_text(capsys.readouterr().out)
        assert np.array_equal(io.load_state(str(out_path)).matrix, choi_state(channel).state.matrix)
        assert main(["channel", "complement", path]) == EXIT_YES
        out_path.write_text(capsys.readouterr().out)
        loaded = io.load_channel(str(out_path))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.kraus, complementary_channel(channel).kraus))

    def test_complement_output(self, tmp_path):
        path = str(tmp_path / "damp.json")
        out_path = str(tmp_path / "comp.json")
        io.save_channel(path, amplitude_damping(0.5))
        assert main(["channel", "complement", path, "-o", out_path]) == EXIT_YES
        loaded = io.load_channel(out_path)
        assert loaded.d_in == 2


class TestGalleryCommand:
    @pytest.mark.parametrize("name,expected", [
        ("example1", EXIT_NO),
        ("example2", EXIT_NO),
        ("example3", EXIT_NO),
        ("qutrit-fermionic", EXIT_YES),
        ("werner", EXIT_YES),
    ])
    def test_entries_run(self, name, expected, capsys):
        assert main(["gallery", name] + (["--steps", "5"] if name == "werner" else [])) == expected
        out = capsys.readouterr().out
        assert f"name: {name}" in out

    def test_example2_findings(self, capsys):
        main(["gallery", "example2"])
        out = capsys.readouterr().out
        assert "spectrum condition: True" in out
        assert "0.833333333333" in out

    def test_example3_positive_coherent_information(self, capsys):
        main(["gallery", "example3", "--s", "0.75"])
        out = capsys.readouterr().out
        assert "spectrum condition: True" in out
        assert "excludes one: True" in out

    @pytest.mark.parametrize("p", ["-1", "nan", "inf"])
    def test_example3_rejects_bad_filter(self, p, capsys):
        # the filter diag(sqrt(p), 1) needs a finite p >= 0; p > 1 stays valid
        assert main(["gallery", "example3", "--p", p]) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert gallery.entry_qubit_qutrit(p=2.0).name == "example3"

    @pytest.mark.parametrize("s,p,expected", [(0.3, 0.5, EXIT_NO), (0.5, 0.5, EXIT_YES), (0.75, 2.0, EXIT_NO)])
    def test_example3_verdict_comes_from_decide(self, s, p, expected, capsys):
        # the state depends on s alone, and so does the verdict; p only filters a finding
        status = decide(gallery.qubit_qutrit(s)).status
        assert status is {EXIT_YES: Feasibility.FEASIBLE, EXIT_NO: Feasibility.INFEASIBLE}[expected]
        assert main(["gallery", "example3", "--s", str(s), "--p", str(p)]) == expected
        assert f"extendible: {'yes' if expected == EXIT_YES else 'no'}" in capsys.readouterr().out

    def test_werner_csv_threshold_column(self, tmp_path, capsys):
        csv_path = tmp_path / "werner.csv"
        assert main(["gallery", "werner", "--steps", "5", "--csv", str(csv_path)]) == EXIT_YES
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "p,conjecture,oracle,threshold"
        assert len(lines) == 6
        # extendible below the threshold, not above
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[2] == "feasible" and last[2] == "infeasible"
        assert abs(float(last[3]) - 2 / 3) < 1e-9


class TestScanCommand:
    def test_bell_grid_agreement(self, tmp_path):
        csv_path = tmp_path / "bell.csv"
        assert main(["scan", "bell", "--steps", "8", "--csv", str(csv_path)]) == EXIT_YES
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        agree_idx = header.index("agree")
        assert all(line.split(",")[agree_idx] == "True" for line in lines[1:])

    def test_werner_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "werner", "--steps", "11", "--csv", str(a)]) == EXIT_YES
        assert main(["scan", "werner", "--steps", "11", "--csv", str(b)]) == EXIT_YES
        assert a.read_text() == b.read_text()

    def test_zcorr_scan_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "zcorr", "--samples", "20", "--seed", "5", "--csv", str(a)]) == EXIT_YES
        assert main(["scan", "zcorr", "--samples", "20", "--seed", "5", "--csv", str(b)]) == EXIT_YES
        assert a.read_text() == b.read_text()

    def test_damping_scan(self, tmp_path):
        csv_path = tmp_path / "ad.csv"
        assert main(["scan", "amplitude-damping", "--steps", "5", "--csv", str(csv_path)]) == EXIT_YES
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "eta,degradable,anti_degradable,class"
        assert len(lines) == 6

    def test_damping_scan_flips_at_half(self, tmp_path):
        csv_path = str(tmp_path / "ad.csv")
        assert main(["scan", "amplitude-damping", "--steps", "11", "--csv", csv_path]) == EXIT_YES
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        for row in rows:
            eta = float(row["eta"])
            if abs(eta - 0.5) < 1e-12:
                assert row["class"] == "both"
            else:
                assert row["class"] == ("anti-degradable" if eta < 0.5 else "degradable")

    @pytest.mark.parametrize("argv", [["scan", "werner", "--steps", "-1"], ["scan", "bell", "--steps", "-2"],
                                      ["gallery", "werner", "--steps", "-1"],
                                      ["scan", "zcorr", "--samples", "-3"],
                                      ["scan", "zcorr", "--seed", "-1", "--samples", "2"]])
    def test_negative_count_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID

    def test_unread_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "bell", "--symmetry", "bosonic"])
        assert exc.value.code == EXIT_INVALID

    @pytest.mark.parametrize("action,flags,unread", [("choi", ["--json"], "--json"),
                                                     ("complement", ["--symmetry", "fermionic"], "--symmetry"),
                                                     ("complement", ["--symmetry", "any"], "--symmetry"),
                                                     ("classify", ["-o", "{out}"], "-o")],
                             ids=["choi-json", "complement-symmetry", "complement-symmetry-any",
                                  "classify-output"])
    def test_channel_unread_flag_rejected(self, tmp_path, capsys, action, flags, unread):
        # classify reads --symmetry and --json; choi and complement read -o
        path = tmp_path / "damp.json"
        path.write_text(DAMPING)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["channel", action, str(path)] + [f.format(out=out) for f in flags])
        assert exc.value.code == EXIT_INVALID
        assert f"unrecognized arguments: {unread}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,unread", [
        (["gallery", "example2", "--csv", "{out}"], "--csv"),
        (["gallery", "example1", "--steps", "5"], "--steps"),
        (["gallery", "werner", "--p", "0.5"], "--p"),
        (["gallery", "example3", "--steps", "5"], "--steps"),
        (["scan", "bell", "--seed", "3", "--samples", "4"], "--seed"),
        (["scan", "werner", "--samples", "4", "--csv", "{out}"], "--samples"),
        (["scan", "zcorr", "--steps", "5"], "--steps"),
        (["scan", "amplitude-damping", "--seed", "3", "--csv", "{out}"], "--seed")],
        ids=["gallery-example2-csv", "gallery-example1-steps", "gallery-werner-p", "gallery-example3-steps",
             "scan-bell-seed", "scan-werner-samples", "scan-zcorr-steps", "scan-damping-seed"])
    def test_gallery_and_scan_unread_flag_rejected(self, tmp_path, capsys, argv, unread):
        # each gallery entry and scan family declares only the flags it reads
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out) for a in argv])
        assert exc.value.code == EXIT_INVALID
        assert f"unrecognized arguments: {unread}" in capsys.readouterr().err
        assert not out.exists()
