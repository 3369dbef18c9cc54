"""Command-line interface: golden outputs, exit codes, determinism."""
import json

import pytest

from hyperalg.cli import main
from hyperalg.csets import member, parse_celem, parse_cset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAdd:
    def test_complex_arc_golden(self, capsys):
        code, out, _ = run(capsys, "add", "TC", "1∠0", "1∠1.5707963268")
        assert code == 0
        assert out.strip() == "arc r=1 from=0 sweep=1.5707963268"

    def test_triangle_golden(self, capsys):
        code, out, _ = run(capsys, "add", "tri", "2", "1")
        assert code == 0 and out.strip() == "interval [1,3]"

    def test_krasner_golden(self, capsys):
        code, out, _ = run(capsys, "add", "K", "1", "1")
        assert code == 0 and out.strip() == "{0,1}"

    def test_ascii_angle_form(self, capsys):
        code, out, _ = run(capsys, "add", "TC", "1@0", "1@3.14159265358979")
        assert code == 0 and out.strip().startswith("disk")

    def test_output_parses_back(self, capsys):
        code, out, _ = run(capsys, "add", "TC", "1∠0", "1∠1.0")
        s = parse_cset(out.strip())
        assert member(parse_celem("1∠0.5"), s)

    @pytest.mark.parametrize(
        "structure,a,b",
        [
            ("TC", "zzz", "1"),
            ("TR", "nan", "1"),
            ("trop", "nan", "1"),
            ("R", "inf", "1"),
            ("tri", "inf", "1"),
            ("maxplus", "-1", "2"),
            ("TC", "inf∠0", "1"),
            ("TC", "1e400∠0", "1"),
            ("quat", "nan,0,0,0", "1,0,0,0"),
            ("mono", "nant^1", "1t^0"),
            ("padic:5:0", "1", "1"),
            ("padic:4:8", "1", "1"),
            ("TC", "1∠inf", "1"),
            ("TC", "1e400+1i", "1"),
            ("Phi", "1@nan", "1∠0"),
            ("mono-rational", "1t^1/0", "1t^0"),
        ],
    )
    def test_parse_failure_exit_2(self, capsys, structure, a, b):
        code, _, err = run(capsys, "add", structure, a, b)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv,literal",
        [
            (["add", "TC", "1∠inf", "1"], "1∠inf"),
            (["add", "C", "1", "1@-inf"], "1@-inf"),
            (["deq", "complex", "1∠0", "1∠inf"], "1∠inf"),
            (["add", "mono-rational", "1t^1/0", "1t^0"], "1t^1/0"),
        ],
    )
    def test_parse_failure_names_literal(self, capsys, argv, literal):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and repr(literal) in err

    def test_unknown_structure_exit_2(self, capsys):
        code, _, err = run(capsys, "add", "nosuch", "1", "2")
        assert code == 2


class TestSum:
    def test_nary_disk(self, capsys):
        code, out, _ = run(
            capsys, "sum", "TC", "--", "1∠0", "i", "-i", "1"
        )
        assert code == 0 and out.strip() == "disk r=1"

    def test_trop(self, capsys):
        code, out, _ = run(capsys, "sum", "trop", "1", "2", "2")
        assert code == 0 and out.strip() == "interval [-inf,2]"
        # -inf is the tropical zero, the one non-finite literal trop accepts
        code, out, _ = run(capsys, "sum", "trop", "--", "-inf", "2")
        assert code == 0 and out.strip() == "point 2"

    def test_phase_non_unit_exit_2(self, capsys):
        code, _, err = run(capsys, "sum", "Phi", "--", "2∠0", "1∠0")
        assert code == 2 and "error" in err


class TestVerify:
    def test_sign_hyperfield_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "S", "--level", "hyperfield")
        assert code == 0
        assert "verdict=fail" not in out

    def test_tc_dd_reports_failure(self, capsys):
        code, out, _ = run(
            capsys, "verify", "TC", "--level", "dd", "--budget", "400", "--seed", "5"
        )
        assert code == 1
        assert "axiom=double-distributivity verdict=fail" in out
        assert "axiom=half-double-distributivity verdict=pass" in out

    def test_maxplus_without_negation_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "maxplus")
        assert (code, out, err) == (2, "", "error: max-plus has no negation\n")

    def test_padic_dd_violation_exit_1(self, capsys):
        code, out, err = run(
            capsys, "verify", "padic:3:8", "--level", "dd", "--budget", "400", "--seed", "0"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: padic:3:8: (") and err.count("\n") == 1
        assert "not inside the expanded sum" in err

    def test_m_hyperfield_search(self, capsys):
        code, out, _ = run(capsys, "verify", "M", "--level", "hyperfield-search")
        assert code == 0
        assert out.strip() == "no univalued multiplication admits hyperfield"

    def test_deterministic_under_seed(self, capsys):
        args = ("verify", "TC", "--level", "multigroup", "--budget", "300", "--seed", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("budget", ["0", "-5", "x"])
    @pytest.mark.parametrize("command", [["verify", "TC", "--level", "dd"], ["hom", "abs-tc"]])
    def test_budget_below_one_exit_2(self, capsys, command, budget):
        code, out, err = run(capsys, *command, "--budget", budget)
        assert (code, out) == (2, "") and "--budget" in err

    @pytest.mark.parametrize(
        "edit,cell",
        [
            (lambda t: t["add"].update({"1,1": [0, 5]}), "add table cell (1, 1)"),
            (lambda t: t["mul"].update({"1,1": 7}), "mul table cell (1, 1)"),
            (lambda t: t["mul"].pop("0,1"), "mul table cell (0, 1)"),
            (lambda t: t.update(zero=2), "zero index 2"),
            (lambda t: t.update(one=-1), "one index -1"),
        ],
        ids=["add-index", "mul-index", "mul-missing", "zero", "one"],
    )
    def test_finite_table_out_of_range_exit_2(self, capsys, tmp_path, edit, cell):
        from hyperalg.finite import make_krasner

        table = json.loads(make_krasner().to_json())
        edit(table)
        path = tmp_path / "T.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        code, out, err = run(capsys, "verify", f"finite:{path}", "--level", "hyperfield")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and cell in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "K", "--level", "hyperfield", "--format", "json"
        )
        data = json.loads(out)
        assert data["structure"] == "K" and data["passed"] is True


class TestQuotient:
    def test_f3_by_units_is_krasner(self, capsys, tmp_path):
        from hyperalg.finite import FiniteMultistructure, make_krasner, make_zmod, find_isomorphism

        path = tmp_path / "F3.json"
        path.write_text(make_zmod(3).to_json(), encoding="utf-8")
        code, out, _ = run(capsys, "quotient", str(path), "--by", "1,2")
        assert code == 0
        q = FiniteMultistructure.from_json(out)
        assert find_isomorphism(q, make_krasner()) is not None

    def test_f5_quotient_three_classes(self, capsys, tmp_path):
        from hyperalg.finite import FiniteMultistructure, make_zmod

        path = tmp_path / "F5.json"
        path.write_text(make_zmod(5).to_json(), encoding="utf-8")
        code, out, _ = run(capsys, "quotient", str(path), "--by", "1,4")
        assert code == 0
        assert len(FiniteMultistructure.from_json(out).elements) == 3

    def test_zero_collapses(self, capsys, tmp_path):
        from hyperalg.finite import FiniteMultistructure, make_zmod

        path = tmp_path / "X.json"
        path.write_text(make_zmod(4).to_json(), encoding="utf-8")
        code, out, _ = run(capsys, "quotient", str(path), "--by", "0,1,2,3")
        assert code == 0
        assert len(FiniteMultistructure.from_json(out).elements) == 1


class TestChar:
    def test_krasner(self, capsys):
        code, out, _ = run(capsys, "char", "K")
        assert code == 0
        assert "characteristic=2" in out and "c-characteristic=1" in out

    def test_powers(self, capsys):
        code, out, _ = run(capsys, "char", "powers:2:6")
        assert "characteristic=2" in out and "c-characteristic=2" in out


class TestHom:
    def test_sign_hom(self, capsys):
        code, out, _ = run(capsys, "hom", "sign", "--budget", "120")
        assert code == 0
        assert "axiom=additive-containment verdict=pass" in out

    def test_modulus_maxplus_fails(self, capsys):
        code, out, _ = run(capsys, "hom", "modulus-maxplus", "--budget", "200")
        assert code == 1
        assert "axiom=additive-containment verdict=fail" in out

    def test_w_map(self, capsys):
        code, out, _ = run(capsys, "hom", "w", "--budget", "150")
        assert code == 0


class TestPoly:
    def test_tc_eval(self, capsys):
        code, out, _ = run(capsys, "poly", "TC", "X^2 + 1∠0", "--at", "1∠1.5707963268")
        assert code == 0
        assert out.splitlines()[0] == "disk r=1"
        assert "zero-member=true" in out

    def test_krasner_eval(self, capsys):
        code, out, _ = run(capsys, "poly", "K", "X + 1", "--at", "1")
        assert code == 0 and out.splitlines()[0] == "{0,1}"

    def test_exponent_above_cap_exit_2(self, capsys):
        from hyperalg.homs import MAX_POLY_EXPONENT

        code, out, _ = run(capsys, "poly", "trop", f"X^{MAX_POLY_EXPONENT} + 1", "--at", "1")
        assert code == 0 and out.splitlines()[0] == f"point {MAX_POLY_EXPONENT}"
        code, out, err = run(capsys, "poly", "trop", "X^99999999999 + 1", "--at", "1")
        assert (code, out) == (2, "") and "X^99999999999" in err


class TestDeq:
    def test_lm_csv(self, capsys):
        code, out, _ = run(capsys, "deq", "lm", "1", "2", "--h", "1,0.1,0.01")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,a,b,result,reference,error"
        assert len(lines) == 4
        errs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert errs == sorted(errs, reverse=True)

    def test_complex_reference(self, capsys):
        code, out, _ = run(capsys, "deq", "complex", "-1", "i", "--h", "0.1")
        assert code == 0
        assert "1∠2.3561944902" in out

    def test_tri_family(self, capsys):
        code, out, _ = run(capsys, "deq", "tri", "2", "2", "--h", "0.01")
        assert code == 0
        assert "[0," in out


class TestSpectrum:
    def test_z6(self, capsys, tmp_path):
        from hyperalg.finite import make_zmod

        path = tmp_path / "Z6.json"
        path.write_text(make_zmod(6).to_json(), encoding="utf-8")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        assert "prime-ideal={0,2,4}" in out and "prime-ideal={0,3}" in out
        assert "count=2" in out

    def test_structure_name(self, capsys):
        code, out, _ = run(capsys, "spectrum", "S")
        assert code == 0 and "prime-ideal={0}" in out
