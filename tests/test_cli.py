import importlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quatnil import jsonio, qcore
from quatnil.cli import main
from quatnil.errors import ParseError
from quatnil.gen import KINDS
from quatnil.qcore import AlgebraParams
from quatnil.qlinalg import QMatrix

from conftest import random_quaternion

classify_module = importlib.import_module("quatnil.classify")
decompose_module = importlib.import_module("quatnil.decompose")


class TestSerialization:
    def test_matrix_round_trip(self, H):
        rng = random.Random(3)
        m = QMatrix([[random_quaternion(rng, H) for _ in range(3)] for _ in range(3)])
        data = jsonio.matrix_to_json(m)
        again = jsonio.matrix_from_json(json.loads(json.dumps(data)))
        assert again == m

    def test_rational_strings(self, H):
        q = H.quat(Fraction(1, 2), -2, 0, Fraction(-7, 3))
        assert jsonio.quaternion_to_json(q) == ["1/2", "-2", "0", "-7/3"]
        assert jsonio.quaternion_from_json(["1/2", "-2", "0", "-7/3"], H) == q

    def test_algebra_round_trip(self):
        alg = AlgebraParams(Fraction(-1), Fraction(-7))
        assert jsonio.algebra_from_json(jsonio.algebra_to_json(alg)) == alg

    def test_parse_errors(self, H):
        with pytest.raises(ParseError):
            jsonio.fraction_from_str("not-a-number")
        with pytest.raises(ParseError):
            jsonio.matrix_from_json({"rows": 1})
        with pytest.raises(ParseError):
            jsonio.quaternion_from_json(["1", "2"], H)
        with pytest.raises(ParseError):
            jsonio.matrix_from_json(
                {"algebra": {"a": "-1", "b": "-1"}, "rows": 2, "cols": 2,
                 "entries": [[["0", "0", "0", "0"]]]}
            )

    def test_decomposition_round_trip(self, H):
        from quatnil.decompose import decompose_two_nilpotents

        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        dec = decompose_two_nilpotents(m)
        data = json.loads(json.dumps(jsonio.decomposition_to_json(dec)))
        again = jsonio.decomposition_from_json(data)
        assert again.n1 == dec.n1 and again.n2 == dec.n2
        assert again.witness is not None and again.witness.P == dec.witness.P


def run_cli(*args):
    """`quatnil` in a subprocess with a 30 s timeout, so that a hang fails the test."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "quatnil.cli", *args],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=30,
    )


#: -(2^61 - 1)(2^89 - 1): 150 bits, and Pollard rho needs about 2^30 steps for its smaller factor
HOSTILE_PARAMETER = "-1427247692705959880439315947500961989719490561"


def write_matrix(path, m):
    path.write_text(json.dumps(jsonio.matrix_to_json(m)))
    return str(path)


def decomposed(H, tmp_path):
    """Matrix path and decomposition document for [[0, i], [i, 0]]."""
    mat_path = write_matrix(tmp_path / "m.json", QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]]))
    out_path = tmp_path / "dec.json"
    assert main(["decompose", "-i", mat_path, "-o", str(out_path)]) == 0
    return mat_path, json.loads(out_path.read_text())


def check(mat_path, data, tmp_path, capsys):
    """(exit code, stdout, stderr) of `quatnil check` on a decomposition document."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["check", mat_path, str(path)])
    captured = capsys.readouterr()
    return rc, captured.out.strip(), captured.err


def move_corner(data):
    """Move 1 from N2[0][0] to N1[0][0]: the sum is kept, nilpotency is lost."""
    for key, delta in (("N1", 1), ("N2", -1)):
        entry = data[key]["entries"][0][0]
        entry[0] = str(Fraction(entry[0]) + delta)


class TestCli:
    def test_classify_type_ii_non_example(self, H, tmp_path, capsys):
        m = QMatrix.diagonal([H.i(), H.zero(), H.zero()])
        path = write_matrix(tmp_path / "m.json", m)
        rc = main(["classify", "-i", path])
        out = capsys.readouterr().out
        assert rc == 3
        assert "TypeII" in out and "NO" in out and "supertrace" in out

    def test_classify_zero_yes(self, H, tmp_path, capsys):
        path = write_matrix(tmp_path / "z.json", QMatrix.zeros(3, 3, H))
        rc = main(["classify", "-i", path])
        out = capsys.readouterr().out
        assert rc == 0 and "Zero" in out and "YES" in out

    def test_classify_scalar_type_i(self, H, tmp_path, capsys):
        path = write_matrix(tmp_path / "s.json", QMatrix.scalar(2, 5, H))
        rc = main(["classify", "-i", path])
        out = capsys.readouterr().out
        assert rc == 3 and "TypeI" in out and "NO" in out

    def test_classify_json_format(self, H, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", QMatrix.zeros(2, 2, H))
        rc = main(["classify", "-i", path, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["classification"]["verdict"] == "Zero"
        assert data["decision"]["answer"] is True

    def test_decompose_and_check(self, H, tmp_path, capsys):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        mat_path = write_matrix(tmp_path / "m.json", m)
        out_path = tmp_path / "dec.json"
        rc = main(["decompose", "-i", mat_path, "-o", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        n1 = jsonio.matrix_from_json(data["N1"])
        assert n1 == QMatrix([[H.zero(), H.i()], [H.zero(), H.zero()]])
        capsys.readouterr()
        assert main(["check", mat_path, str(out_path)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("ab", [(-1, -1), (-1, -7)])
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("block", ["J2(i)", "[[i,1],[0,j]]"])
    def test_decompose_padded_2x2_block(self, ab, n, block, tmp_path, capsys):
        # (2x2 block) + 0: the first corner bases admit no accepted trailing
        # perturbation, so the reduction has to move on to a later x
        alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
        top = {"J2(i)": alg.i(), "[[i,1],[0,j]]": alg.j()}[block]
        rows = [[alg.zero()] * n for _ in range(n)]
        rows[0][:2] = [alg.i(), alg.one()]
        rows[1][1] = top
        mat_path = write_matrix(tmp_path / "m.json", QMatrix(rows))
        out_path = tmp_path / "dec.json"
        assert main(["decompose", "-i", mat_path, "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["check", mat_path, str(out_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_detects_tampering(self, H, tmp_path, capsys):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        mat_path = write_matrix(tmp_path / "m.json", m)
        out_path = tmp_path / "dec.json"
        main(["decompose", "-i", mat_path, "-o", str(out_path)])
        data = json.loads(out_path.read_text())
        data["N1"]["entries"][0][1] = ["1", "0", "0", "0"]
        out_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", mat_path, str(out_path)]) != 0

    def test_check_tampered_witness_is_invalid(self, H, tmp_path, capsys):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        mat_path = write_matrix(tmp_path / "m.json", m)
        out_path = tmp_path / "dec.json"
        main(["decompose", "-i", mat_path, "-o", str(out_path)])
        data = json.loads(out_path.read_text())
        entry = data["P"]["entries"][0][0]
        entry[0] = str(Fraction(entry[0]) + 1)
        out_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", mat_path, str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip() == "INVALID"
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_check_moved_corner_is_invalid(self, H, tmp_path, capsys):
        mat_path, data = decomposed(H, tmp_path)
        move_corner(data)
        assert check(mat_path, data, tmp_path, capsys)[:2] == (1, "INVALID")

    def test_check_witness_must_triangularize(self, H, tmp_path, capsys):
        # swapped summands: nilpotent with sum M and a valid witness pair, but
        # P*N1*Pinv is strictly lower
        mat_path, data = decomposed(H, tmp_path)
        data["N1"], data["N2"] = data["N2"], data["N1"]
        assert check(mat_path, data, tmp_path, capsys)[:2] == (1, "INVALID")
        # without the witness only nilpotency and the sum are checked
        del data["P"], data["Pinv"]
        assert check(mat_path, data, tmp_path, capsys)[:2] == (0, "OK")

    def test_check_without_witness(self, H, tmp_path, capsys):
        mat_path, data = decomposed(H, tmp_path)
        del data["P"], data["Pinv"], data["diagZero"]
        assert check(mat_path, data, tmp_path, capsys)[:2] == (0, "OK")
        move_corner(data)
        assert check(mat_path, data, tmp_path, capsys)[:2] == (1, "INVALID")

    @pytest.mark.parametrize("sizes", [(3, 2), (2, 3), (3, 3)])
    def test_check_witness_of_wrong_size(self, H, tmp_path, capsys, sizes):
        mat_path, data = decomposed(H, tmp_path)
        for key, n in zip(("P", "Pinv"), sizes):
            data[key] = jsonio.matrix_to_json(QMatrix.identity(n, H))
        rc, out, err = check(mat_path, data, tmp_path, capsys)
        # a pair of two sizes is not a witness; a 3x3 pair does not fit the 2x2 matrix
        assert (rc, out) == ((2, "") if sizes == (3, 3) else (1, "INVALID"))
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_classify_runs_one_classification(self, H, tmp_path, capsys, monkeypatch):
        calls = []
        original = classify_module.classify

        def counted(m, *args, **kwargs):
            calls.append(m)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(classify_module, "classify", counted)
        path = write_matrix(tmp_path / "m.json", QMatrix.diagonal([H.i()] * 3))
        assert main(["classify", "-i", path, "--format", "json"]) == 3
        data = json.loads(capsys.readouterr().out)
        assert data["classification"]["verdict"] == "TypeIII"
        assert len(calls) == 1

    def test_search_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # J_2(i) (+) 0 at n = 4 needs trial decisions in the n >= 4 reduction;
        # with none allowed the construction runs out
        monkeypatch.setattr(decompose_module, "MAX_TRIAL_DECISIONS", 0)
        alg = qcore.hamilton_algebra()
        z = alg.zero()
        m = QMatrix([[alg.i(), alg.one(), z, z], [z, alg.i(), z, z], [z] * 4, [z] * 4])
        path = write_matrix(tmp_path / "m.json", m)
        rc = main(["decompose", "-i", path, "-o", str(tmp_path / "dec.json")])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_certificate_error_exit_code(self, H, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(decompose_module, "verify_certificate", lambda *args: False)
        path = write_matrix(tmp_path / "m.json", QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]]))
        rc = main(["decompose", "-i", path, "-o", str(tmp_path / "dec.json")])
        err = capsys.readouterr().err
        assert rc == 6
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "dec.json").exists()

    def test_decompose_refuses_type_iii(self, H, tmp_path, capsys):
        m = QMatrix.diagonal([H.i()] * 3)
        mat_path = write_matrix(tmp_path / "m.json", m)
        out_path = tmp_path / "dec.json"
        rc = main(["decompose", "-i", mat_path, "-o", str(out_path)])
        err = capsys.readouterr().err
        assert rc == 3 and "TypeIII" in err
        report = json.loads(out_path.read_text())
        assert report["decision"]["answer"] is False
        assert report["decision"]["reason"] == "TypeIII"
        assert "typeIII" in report["decision"]

    def test_gen_deterministic(self, tmp_path):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "type-III", "-n", "3", "--seed", "1"]
        assert main(args + ["-o", str(a_path)]) == 0
        assert main(args + ["-o", str(b_path)]) == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_gen_kinds_classify_as_requested(self, tmp_path, capsys):
        for kind, n, expect_rc, marker, extra in (
            ("type-I", 2, 3, "TypeI", []),
            ("type-II", 3, 3, "TypeII", ["--lam", "0", "--rep=0,1,0,0"]),
            ("type-III", 3, 3, "TypeIII", []),
            ("generic-trace-zero", 4, 0, "Generic", []),
        ):
            path = tmp_path / f"{kind}.json"
            assert main(["gen", "--kind", kind, "-n", str(n), "--seed", "7",
                         *extra, "-o", str(path)]) == 0
            rc = main(["classify", "-i", str(path)])
            out = capsys.readouterr().out
            assert marker in out
            assert rc == expect_rc, (kind, out)

    def test_gen_type_ii_zero_supertrace_is_yes(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        assert main(["gen", "--kind", "type-II", "-n", "3", "--seed", "5",
                     "--lam", "1", "--rep=-3,0,0,0", "-o", str(path)]) == 0
        rc = main(["classify", "-i", str(path)])
        out = capsys.readouterr().out
        assert rc == 0 and "TypeII" in out and "YES" in out

    def test_gen_unsatisfiable_spec(self, tmp_path, capsys):
        rc = main(["gen", "--kind", "type-III", "-n", "4", "--seed", "0",
                   "-o", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("height", [0, -1])
    def test_gen_rejects_a_height_below_one(self, height, tmp_path):
        # in a subprocess, so that a rejection loop that never ends fails the test
        for kind in KINDS:
            out = run_cli("gen", "--kind", kind, "-n", "3", "--height", str(height), "-o", str(tmp_path / "x.json"))
            assert out.returncode == 2, (kind, out.stderr)
            assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, (kind, out.stderr)

    @pytest.mark.parametrize(
        "option", ["--lam=abc", "--lam=1/0", "--algebra=x,1", "--algebra=1/0,-1"]
    )
    def test_gen_rejects_a_malformed_rational(self, option, tmp_path, capsys):
        rc = main(["gen", "--kind", "type-II", "-n", "3", option, "-o", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: bad rational literal") and err.count("\n") == 1

    @pytest.mark.parametrize("route", ["gen", "classify"])
    def test_a_hostile_algebra_parameter_fails_fast(self, route, tmp_path):
        # it is rejected by its size before it is factored
        if route == "gen":
            out = run_cli("gen", "--kind", "random", "-n", "2", f"--algebra={HOSTILE_PARAMETER},-1",
                          "-o", str(tmp_path / "x.json"))
        else:
            doc = {"algebra": {"a": HOSTILE_PARAMETER, "b": "-1"}, "entries": [[["1", "0", "0", "0"]]]}
            (tmp_path / "m.json").write_text(json.dumps(doc))
            out = run_cli("classify", "-i", str(tmp_path / "m.json"))
        assert out.returncode == 2, out.stderr
        assert "exceeds 64 bits" in out.stderr and out.stderr.count("\n") == 1, out.stderr

    @pytest.mark.parametrize("literal", ["1e100000000", "1e-100000000", "1E4301"])
    def test_a_huge_exponent_fails_fast(self, literal, tmp_path):
        # Fraction would compute 10**exponent
        doc = {"algebra": {"a": "-1", "b": "-1"}, "entries": [[[literal, "0", "0", "0"]]]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        out = run_cli("classify", "-i", str(tmp_path / "m.json"))
        assert out.returncode == 2, out.stderr
        assert "exponent beyond 4300" in out.stderr and out.stderr.count("\n") == 1, out.stderr

    def test_a_matrix_row_that_is_not_a_list_is_a_parse_error(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text(json.dumps({"algebra": {"a": "-1", "b": "-1"}, "entries": [1]}))
        rc = main(["classify", "-i", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("key", ["N2", "P", "Pinv", "diagZero"])
    def test_a_summand_that_is_not_an_object_is_a_parse_error(self, H, key, tmp_path, capsys):
        mat_path, data = decomposed(H, tmp_path)
        data[key] = 5
        rc, out, err = check(mat_path, data, tmp_path, capsys)
        assert rc == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1, err

    def test_an_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path):
        # json.load itself refuses to convert it
        text = '{"algebra": {"a": "-1", "b": "-1"}, "entries": [[[%s, 0, 0, 0]]]}' % ("1" * 5000)
        (tmp_path / "m.json").write_text(text)
        out = run_cli("classify", "-i", str(tmp_path / "m.json"))
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr

    @pytest.mark.parametrize("route", ["gen", "decompose"])
    def test_output_past_the_digit_limit_is_a_parameter_error(self, route, tmp_path):
        # 10^4300 has 4301 digits; Python's limit on integer strings is not raised
        if route == "gen":
            out = run_cli("gen", "--kind", "type-I", "--size", "2", "--lam", "1e4300", "-o", str(tmp_path / "x.json"))
        else:
            entry = lambda w: [w, "0", "0", "0"]
            doc = {"algebra": {"a": "-1", "b": "-1"},
                   "entries": [[entry("1e4300"), entry("0")], [entry("0"), entry("-1e4300")]]}
            (tmp_path / "m.json").write_text(json.dumps(doc))
            out = run_cli("decompose", "-i", str(tmp_path / "m.json"), "-o", str(tmp_path / "dec.json"))
        assert out.returncode == 2, out.stderr
        assert "4300-digit limit" in out.stderr and out.stderr.count("\n") == 1, out.stderr

    def test_split_algebra_exit_code(self, tmp_path):
        rc = main(["gen", "--kind", "random", "-n", "2", "--algebra", "1,-1",
                   "-o", str(tmp_path / "x.json")])
        assert rc == 4

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "-i", str(bad)]) == 2

    def test_check_shape_mismatch_is_error(self, H, tmp_path, capsys):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        mat_path = write_matrix(tmp_path / "m.json", m)
        out_path = tmp_path / "dec.json"
        main(["decompose", "-i", mat_path, "-o", str(out_path)])
        other = write_matrix(tmp_path / "m3.json", QMatrix.zeros(3, 3, H))
        capsys.readouterr()
        assert main(["check", other, str(out_path)]) == 2

    def test_selftest_quick(self, capsys):
        rc = main(["selftest", "--quick", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 11
