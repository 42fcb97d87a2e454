import dataclasses
import json

import numpy as np
import pytest

import discordium.cli as cli
from conftest import bell_state
from discordium.cli import main, read_matrix_file, read_state_file, write_state_file
from discordium.states import random_cq_state


@pytest.fixture()
def cq_file(tmp_path):
    path = tmp_path / "cq.json"
    state = random_cq_state(2, 2, seed=7)
    write_state_file(str(path), state.mat, [2, 2])
    return str(path)


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    write_state_file(str(path), bell_state().mat, [2, 2])
    return str(path)


@pytest.fixture()
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    write_state_file(str(path), np.eye(4) / 4, [2, 2])
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        state = random_cq_state(2, 3, seed=3)
        write_state_file(str(path), state.mat, [2, 3])
        rho, dims = read_state_file(str(path))
        mat = rho.mat
        assert dims == [2, 3]
        assert np.allclose(mat, state.mat, atol=1e-15)

    def test_nested_rows_accepted(self, tmp_path):
        path = tmp_path / "nested.json"
        payload = {
            "dims": [2],
            "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        }
        path.write_text(json.dumps(payload))
        rho, dims = read_state_file(str(path))
        mat = rho.mat
        assert np.allclose(mat, np.eye(2) / 2)

    def test_writes_are_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        state = random_cq_state(2, 2, seed=1)
        write_state_file(str(p1), state.mat, [2, 2])
        write_state_file(str(p2), state.mat, [2, 2])
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
    @pytest.mark.parametrize("dims", [[2, 3], [3], [1]])
    def test_matrix_read_back_bit_for_bit(self, tmp_path, nested, dims):
        path = tmp_path / "m.json"
        dim = int(np.prod(dims))
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((2, dim, dim))
        m = g[0] + 1j * g[1]
        m[0, 0] = -0.0 - 0.0j
        write_state_file(str(path), m, dims)
        if nested:
            payload = json.loads(path.read_text())
            payload["matrix"] = [payload["matrix"][i * dim:(i + 1) * dim] for i in range(dim)]
            path.write_text(json.dumps(payload))
        back, back_dims = read_matrix_file(str(path))
        assert back_dims == dims
        assert back.dtype == complex and back.tobytes() == m.tobytes()

    def test_numeric_strings_and_booleans_are_entries(self, tmp_path, capsys):
        path = tmp_path / "spelled.json"
        path.write_text(json.dumps({"dims": [2], "matrix": [
            ["0.5", False], [0, "-0"], [" 0 ", 0.0], [5e-1, "0"]]}))
        back, _ = read_matrix_file(str(path))
        assert back.tobytes() == np.array([[0.5, complex(0, -0.0)], [0, 0.5]]).tobytes()
        assert main(["entropy", str(path)]) == 0


def _pairs(dim):
    """Flat [re, im] pairs of I / dim."""
    return [[1.0 / dim if i == j else 0.0, 0.0] for i in range(dim) for j in range(dim)]


# name: (file contents, start of the message after the path).
MALFORMED = {
    # Each of these ended in a traceback and exit 1, or in exit 0, before.
    "row-not-a-list": (json.dumps({"dims": [2], "matrix": [[[0.5, 0], [0, 0]], 5]}),
                       "'matrix' is not an array of numeric [re, im] pairs"),
    "dims-product-wraps": (json.dumps({"dims": [2**32, 2**32], "matrix": []}),
                           f"'matrix' has shape (0,), expected ({2**128}, 2) or "
                           f"({2**64}, {2**64}, 2)"),
    "boolean-dim": (json.dumps({"dims": [True, 2], "matrix": _pairs(2)}), "'dims' must be"),
    "entry-beyond-float-range": ('{"dims": [1], "matrix": [[1' + "0" * 400 + ", 0]]}",
                                 "'matrix' is not an array"),
    "over-long-integer": ('{"dims": [1], "matrix": [[' + "1" * 5000 + ", 0]]}",
                          "invalid JSON (Exceeds the limit"),
    "too-deeply-nested": ('{"dims": [1], "matrix": ' + "[" * 10**5 + "]" * 10**5 + "}",
                          "invalid JSON (maximum recursion depth exceeded"),
    "ragged-rows": (json.dumps({"dims": [3], "matrix": [_pairs(3)[:3], _pairs(3)[3:7],
                                                        _pairs(3)[7:]]}),
                    "'matrix' is not an array"),
    "invalid-utf8": (b'{"dims": [1], "matrix": [["\xff", 0]]}',
                     "invalid JSON ('utf-8' codec can't decode"),
    # Rejected before as well.
    "invalid-json": ("{not json", "invalid JSON (Expecting property name"),
    "top-level-array": (json.dumps([{"dims": [1], "matrix": [[1, 0]]}]),
                        "top level must be a JSON object"),
    "missing-matrix": (json.dumps({"dims": [1]}), "missing key 'matrix'"),
    "dims-empty": (json.dumps({"dims": [], "matrix": [[1, 0]]}), "'dims' must be"),
    "dims-three-factors": (json.dumps({"dims": [1, 1, 1], "matrix": [[1, 0]]}), "'dims' must be"),
    "dims-zero": (json.dumps({"dims": [0], "matrix": []}), "'dims' must be"),
    "dims-float": (json.dumps({"dims": [1.0], "matrix": [[1, 0]]}), "'dims' must be"),
    "dims-not-a-list": (json.dumps({"dims": 1, "matrix": [[1, 0]]}), "'dims' must be"),
    "matrix-object": (json.dumps({"dims": [1], "matrix": {"re": 1, "im": 0}}),
                      "'matrix' is not an array"),
    "matrix-scalar": (json.dumps({"dims": [1], "matrix": 1}),
                      "'matrix' has shape (), expected (1, 2) or (1, 1, 2)"),
    "wrong-count": (json.dumps({"dims": [2], "matrix": _pairs(2)[:3]}),
                    "'matrix' has shape (3, 2), expected (4, 2) or (2, 2, 2)"),
    "triple-not-pair": (json.dumps({"dims": [1], "matrix": [[1, 0, 0]]}),
                        "'matrix' has shape (1, 3)"),
    "non-numeric": (json.dumps({"dims": [1], "matrix": [["one", 0]]}), "'matrix' is not an array"),
    "null-entry": (json.dumps({"dims": [1], "matrix": [[None, 0]]}),
                   "matrix entry 0 is not finite"),
    "non-finite": (json.dumps({"dims": [2], "matrix": _pairs(2)[:3] + [[float("nan"), 0]]}),
                   "matrix entry 3 is not finite"),
    "non-finite-string": (json.dumps({"dims": [1], "matrix": [["inf", 0]]}),
                          "matrix entry 0 is not finite"),
}


class TestMalformedFiles:
    """Every malformed state file exits 2 with a one-line ParseError."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_2_with_parse_error(self, name, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data, message = MALFORMED[name]
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        assert main(["entropy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParseError: {path}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, message", [("missing.json", "No such file or directory"),
                                               (".", "Is a directory")])
    def test_unreadable_file(self, tmp_path, capsys, name, message):
        path = tmp_path / name
        assert main(["entropy", str(path)]) == 2
        assert capsys.readouterr().err == f"error: ParseError: {path}: {message}\n"


class TestEntropyCommand:
    def test_counterexample_matrix_file(self, tmp_path, capsys):
        from discordium.counterexample import COUNTEREXAMPLE_MATRIX

        path = tmp_path / "m.json"
        write_state_file(str(path), COUNTEREXAMPLE_MATRIX, [2, 2])
        code, report = run_json(capsys, ["entropy", str(path), "--json"])
        assert code == 0
        assert abs(report["results"]["entropy_bits"] - 1.7555) <= 5e-4

    def test_maximally_mixed(self, mixed_file, capsys):
        code, report = run_json(capsys, ["entropy", mixed_file, "--json"])
        assert code == 0
        assert np.isclose(report["results"]["entropy_bits"], 2.0)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["entropy", str(path)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_invalid_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        write_state_file(str(path), np.diag([1.5, -0.5]), [2])
        assert main(["entropy", str(path)]) == 2
        assert "NotPositive" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", [[[1e308, 0]] * 3 + [[-1e308, 0]], [[1.5e308, 0]] * 4],
                             ids=["indefinite", "trace-overflow"])
    def test_entries_near_float_limit_exit_2(self, tmp_path, capsys, matrix):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dims": [2], "matrix": matrix}))
        assert main(["entropy", str(path), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(("error: NotPositive: ", "error: TraceNotOne: "))
        assert err.count("\n") == 1

    def test_missing_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nokey.json"
        path.write_text(json.dumps({"dims": [2]}))
        assert main(["entropy", str(path)]) == 2


class TestDiscordCommand:
    def test_cq_fixture_near_zero(self, cq_file, capsys):
        code, report = run_json(capsys, ["discord", cq_file, "--json", "--seed", "0"])
        assert code == 0
        assert report["results"]["value_bits"] <= 1e-6
        assert report["results"]["converged"] is True

    def test_bell_fixture_value(self, bell_file, capsys):
        code, report = run_json(capsys, ["discord", bell_file, "--json"])
        assert code == 0
        assert abs(report["results"]["value_bits"] - 1.0) <= 2e-3

    def test_same_seed_identical_reports(self, cq_file, capsys):
        code1 = main(["discord", cq_file, "--json", "--seed", "5"])
        out1 = capsys.readouterr().out
        code2 = main(["discord", cq_file, "--json", "--seed", "5"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("bad", ["abc", "1.5"])
    def test_malformed_seed_env_exits_2(self, cq_file, capsys, monkeypatch, bad):
        monkeypatch.setenv("DISCORDIUM_SEED", bad)
        with pytest.raises(SystemExit) as exc:
            main(["discord", cq_file, "--json"])
        assert exc.value.code == 2
        assert repr(bad) in capsys.readouterr().err

    def test_seed_env_honoured(self, cq_file, capsys, monkeypatch):
        monkeypatch.setenv("DISCORDIUM_SEED", "5")
        code, report = run_json(capsys, ["discord", cq_file, "--json"])
        assert code == 0
        assert report["seed"] == 5

    def test_negative_seed_exits_2(self, cq_file, capsys):
        assert main(["discord", cq_file, "--seed", "-1"]) == 2
        assert "BadConfig" in capsys.readouterr().err

    # The CLI has no seed check of its own: the search's check names the seed.
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    @pytest.mark.parametrize("command", ["discord", "certify"])
    def test_negative_seed_reaches_search_check(self, cq_file, capsys, monkeypatch, command,
                                                via_env):
        argv = [command, cq_file, "--json"]
        if via_env:
            monkeypatch.setenv("DISCORDIUM_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: BadConfig: seed must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["inf", "0", "nan"])
    def test_bad_step_tol_exits_2(self, bell_file, capsys, tol):
        # Accepted, tol inf stopped every start at once and reported the
        # start's gap as a converged discord.
        assert main(["discord", bell_file, "--json", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "error: BadConfig: step_tol must be positive and finite" in captured.err
        assert captured.out == ""

    def test_single_system_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        write_state_file(str(path), np.eye(2) / 2, [2])
        assert main(["discord", str(path)]) == 2


class TestCertifyCommand:
    def test_cq_fixture_exit_zero(self, cq_file, capsys):
        code, report = run_json(capsys, ["certify", cq_file, "--json"])
        assert code == 0
        assert report["results"]["classical"] is True
        assert report["results"]["partition"]

    def test_bell_fixture_exit_one_with_witness(self, bell_file, capsys):
        code, report = run_json(capsys, ["certify", bell_file, "--json"])
        assert code == 1
        assert report["results"]["classical"] is False
        assert abs(report["results"]["witness_value_bits"] - 1.0) <= 2e-3

    def test_product_fixture_single_part(self, tmp_path, capsys):
        from discordium.linalg import kron
        from discordium.states import random_state

        path = tmp_path / "prod.json"
        mat = kron(random_state(2, 2, seed=1).mat, random_state(2, 2, seed=2).mat)
        write_state_file(str(path), mat, [2, 2])
        code, report = run_json(capsys, ["certify", str(path), "--json"])
        assert code == 0
        assert report["results"]["partition"] == [[0, 1]]

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_exits_2(self, tmp_path, bell_file, capsys, tol):
        # Accepted, tol -1 would report the cq file not classical (exit 1) and
        # tol nan would send the generic one into extraction.
        cq = str(tmp_path / "cq.json")
        assert main(["random", "--kind", "cq", "--da", "2", "--db", "2", "--seed", "3",
                     "-o", cq]) == 0
        capsys.readouterr()
        for path in (cq, bell_file):
            assert main(["certify", path, "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert f"error: BadConfig: tol must be >= 0, got {float(tol)}" in captured.err
            assert captured.out == ""


class TestPetzVerifyCommand:
    def test_cq_with_generating_basis(self, tmp_path, capsys):
        from discordium.states import random_cq_state_with_parts

        s, basis, _, _ = random_cq_state_with_parts(2, 2, seed=11)
        state_path = tmp_path / "s.json"
        basis_path = tmp_path / "b.json"
        write_state_file(str(state_path), s.mat, [2, 2])
        write_state_file(str(basis_path), basis, [2])
        code, report = run_json(
            capsys, ["petz-verify", str(state_path), "--basis", str(basis_path), "--json"]
        )
        assert code == 0
        assert report["results"]["residual_trace_distance"] <= 1e-9
        assert abs(report["results"]["mutual_information_gap_bits"]) <= 1e-9

    def test_bell_identity_basis_residual_large(self, bell_file, tmp_path, capsys):
        basis_path = tmp_path / "eye.json"
        write_state_file(str(basis_path), np.eye(2), [2])
        code, report = run_json(
            capsys, ["petz-verify", bell_file, "--basis", str(basis_path), "--json"]
        )
        assert code == 0
        assert report["results"]["residual_trace_distance"] > 0.1

    def test_mismatched_basis_dimension_exits_2(self, bell_file, tmp_path, capsys):
        basis_path = tmp_path / "wrong.json"
        write_state_file(str(basis_path), np.eye(3), [3])
        assert main(["petz-verify", bell_file, "--basis", str(basis_path)]) == 2


class TestCounterexampleCommand:
    def test_reference_checks_pass(self, capsys):
        code, report = run_json(capsys, ["counterexample", "--json"])
        assert code == 0
        checks = report["results"]["checks"]
        assert all(checks.values())
        outer = report["results"]["zeroing_outer_pair"]
        assert abs(outer["original_entropy"] - 1.7555) <= 5e-4
        assert abs(outer["modified_entropy"] - 1.7546) <= 5e-4
        inner = report["results"]["zeroing_inner_pair"]
        assert inner["entropy_delta"] < 0.0

    def test_repeated_runs_byte_identical(self, capsys):
        main(["counterexample", "--json"])
        out1 = capsys.readouterr().out
        main(["counterexample", "--json"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_json_is_valid(self, capsys):
        code, report = run_json(capsys, ["counterexample", "--json"])
        assert report["command"] == "counterexample"


class TestRandomCommand:
    def test_same_seed_identical_files(self, tmp_path, capsys):
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        assert main(["random", "--kind", "cq", "--da", "2", "--db", "2",
                     "--seed", "7", "-o", str(p1), "--json"]) == 0
        capsys.readouterr()
        assert main(["random", "--kind", "cq", "--da", "2", "--db", "2",
                     "--seed", "7", "-o", str(p2), "--json"]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_generated_cq_certifies(self, tmp_path, capsys):
        path = tmp_path / "cq.json"
        main(["random", "--kind", "cq", "--da", "2", "--db", "2", "--seed", "3",
              "-o", str(path)])
        capsys.readouterr()
        assert main(["certify", str(path)]) == 0

    def test_pure_haar_state_has_zero_entropy(self, tmp_path, capsys):
        path = tmp_path / "pure.json"
        main(["random", "--kind", "haar", "--da", "4", "--rank", "1", "--seed", "2",
              "-o", str(path)])
        capsys.readouterr()
        code, report = run_json(capsys, ["entropy", str(path), "--json"])
        assert code == 0
        assert abs(report["results"]["entropy_bits"]) <= 1e-9

    def test_cq_requires_db(self, tmp_path, capsys):
        assert main(["random", "--kind", "cq", "--da", "2", "-o",
                     str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("kind", ["cq", "haar"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, kind):
        out = tmp_path / "x.json"
        assert main(["random", "--kind", kind, "--da", "2", "--db", "2", "--seed", "-1",
                     "-o", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, da, db", [("cq", "0", "2"), ("cq", "2", "0"),
                                              ("haar", "0", "2"), ("haar", "2", "-1")])
    def test_dimension_below_one_exits_2(self, tmp_path, capsys, kind, da, db):
        out = tmp_path / "x.json"
        assert main(["random", "--kind", kind, "--da", da, "--db", db, "-o", str(out)]) == 2
        assert f"error: ParseError: dimensions must be >= 1, got [{da}, {db}]" in \
            capsys.readouterr().err
        assert not out.exists()

    # Products past int64 and past numpy's array limits, neither of which may allocate,
    # and the first dimension past the cap.
    @pytest.mark.parametrize("da, db", [("4294967296", "4294967296"), ("100000", "100000"),
                                        ("1025", "1")])
    def test_dimension_product_above_cap_exits_2(self, tmp_path, capsys, da, db):
        out = tmp_path / "x.json"
        assert main(["random", "--kind", "haar", "--da", da, "--db", db, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: ParseError: dimensions [{da}, {db}] give state dimension "
                       f"{int(da) * int(db)}, above 1024\n")
        assert not out.exists()

    def test_rank_above_dimension_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["random", "--kind", "haar", "--da", "2", "--db", "2", "--rank", "9",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: BadConfig: rank must be in 1..4, got 9\n"
        assert not out.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["random", "--kind", "haar", "--da", "2", "-o", str(out)]) == 2
        assert f"error: ParseError: {out}: " in capsys.readouterr().err

    def test_negative_seed_env_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DISCORDIUM_SEED", "-1")
        assert main(["random", "--kind", "haar", "--da", "2", "-o",
                     str(tmp_path / "x.json")]) == 2
        assert "BadConfig" in capsys.readouterr().err


def test_json_reports_round_trip(cq_file, capsys):
    code, report = run_json(capsys, ["discord", cq_file, "--json", "--seed", "1"])
    text = json.dumps(report, sort_keys=True)
    assert json.loads(text) == report


@pytest.mark.parametrize("command, name, fixture, key", [
    ("discord", "discord", "bell_file", "best_basis"),
    ("certify", "certify_classical", "bell_file", "witness_basis"),
    ("certify", "certify_classical", "cq_file", "basis"),
])
def test_basis_column_phases_do_not_change_json(command, name, fixture, key, capsys,
                                                monkeypatch, request):
    # Multiplying a column by -1 or +-i is exact, so the reports agree byte for byte.
    path = request.getfixturevalue(fixture)
    argv = [command, path, "--json", "--seed", "3"]
    main(argv)
    plain = capsys.readouterr().out
    search = getattr(cli, name)

    def rotated(*args, **kwargs):
        out = search(*args, **kwargs)
        field = "best_basis" if command == "discord" else "basis"
        basis = getattr(out, field)
        phases = np.resize([-1.0, 1j, -1j], basis.shape[1])
        return dataclasses.replace(out, **{field: basis * phases})

    monkeypatch.setattr(cli, name, rotated)
    main(argv)
    assert capsys.readouterr().out == plain
    u = np.array(json.loads(plain)["results"][key]["matrix"]).view(complex)[:, 0]
    u = u.reshape(json.loads(plain)["results"][key]["dims"] * 2)
    lead = u[np.argmax(np.abs(u) > 1e-6, axis=0), np.arange(u.shape[1])]
    assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)
