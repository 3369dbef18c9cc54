"""Command-line interface: golden outputs, exit codes, determinism."""
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalg.cli import HOM_TABLE, MAX_CAP, main
from hyperalg.csets import format_cset, parse_celem
from hyperalg.ctrop import ct_add
from hyperalg.structures import REGISTRY_NAMES


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _verify_all(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "verify_all.py"), *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAdd:
    def test_complex_arc_golden(self, capsys):
        code, out, _ = run(capsys, "add", "TC", "1∠0", "1∠1.5707963268")
        assert code == 0
        assert out.strip() == "arc r=1 from=0 sweep=1.5707963268"

    def test_huge_radius_prints_in_exponent_form(self, capsys):
        code, out, _ = run(capsys, "add", "TC", "1e154@0", "1e154@1")
        assert code == 0 and out.strip() == "arc r=1e+154 from=0 sweep=1"

    def test_triangle_golden(self, capsys):
        code, out, _ = run(capsys, "add", "tri", "2", "1")
        assert code == 0 and out.strip() == "interval [1,3]"

    def test_krasner_golden(self, capsys):
        code, out, _ = run(capsys, "add", "K", "1", "1")
        assert code == 0 and out.strip() == "{0,1}"

    @pytest.mark.parametrize(
        "a, b, want",
        [("0", "0", "point 0"), ("1@2t^1", "1t^0", "point (-0.4161468365+0.9092974268i)t^1")],
    )
    def test_monomial_zero_and_polar_coefficient(self, capsys, a, b, want):
        code, out, _ = run(capsys, "add", "mono", a, b)
        assert code == 0 and out.strip() == want

    def test_ascii_angle_form(self, capsys):
        code, out, _ = run(capsys, "add", "TC", "1@0", "1@3.14159265358979")
        assert code == 0 and out.strip().startswith("disk")

    @pytest.mark.parametrize(
        "structure,a,b,want",
        [
            ("TC", "0.25@0", "0.2499999995@3.141592653589793", "disk r=0.25"),
            ("quat", "0.25,0,0,0", "-0.2499999995,0,0,0", "ball r=0.25"),
            ("TR", "0.25", "-0.2499999995", "interval [-0.25,0.25]"),
        ],
    )
    def test_tied_exact_antipodes_below_one_cancel_in_both_orders(self, capsys, structure, a, b, want):
        for x, y in ((a, b), (b, a)):
            code, out, _ = run(capsys, "add", structure, "--", x, y)
            assert code == 0 and out.strip() == want, (x, y)

    def test_output_parses_back(self, capsys):
        code, out, _ = run(capsys, "add", "TC", "1∠0", "1∠1.0")
        assert out.strip() == format_cset(ct_add(parse_celem("1∠0"), parse_celem("1∠1.0")))

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
            ("mono", "1t^" + "9" * 400, "1t^0"),
            ("mono-int", "1t^" + "9" * 400, "1t^0"),
            ("mono-rational", "1t^" + "9" * 400 + "/1", "1t^0"),
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

    @pytest.mark.parametrize(
        "structure,literal,expected",
        [("padic:5:3", "3125", "point 5^5"), ("padic:2:3", "1024", "point 2^10")],
    )
    def test_padic_literal_keeps_its_top_carry(self, capsys, structure, literal, expected):
        # the folded constant's only nonzero digit lies above depth + 2 digits
        assert run(capsys, "add", structure, literal, "0") == (0, expected + "\n", "")

    @pytest.mark.parametrize("structure", ["mono-int", "mono-rational"])
    def test_exponents_beyond_float_precision_stay_exact(self, capsys, structure):
        # 2^53 + 1 and 2^53 round to the same float; the exact sum is dominant
        argv = ("add", structure, "--", "1t^9007199254740993", "-1t^9007199254740992")
        assert run(capsys, *argv) == (0, "point 1t^9007199254740993\n", "")

    @pytest.mark.parametrize(
        "a,b,expected",
        [("1t^0", "1t^1/1000000000000", "point 1t^1/1000000000000"), ("1t^1/3", "0", "point 1t^1/3")],
    )
    def test_rational_exponents_print_exactly(self, capsys, a, b, expected):
        assert run(capsys, "add", "mono-rational", a, b) == (0, expected + "\n", "")

    def test_padic_literal_with_a_long_run_of_zero_digits(self, capsys):
        # 10^99999 = 2^99999 * 5^99999 and 5^99999 = 1 + 2^2 (mod 2^3)
        expected = "point 2^99999 + 2^100001\n"
        assert run(capsys, "add", "padic:2:3", "10^99999", "0") == (0, expected, "")

    @pytest.mark.parametrize(
        "argv",
        [["add", "mono", "1e308t^1", "1e308t^1"], ["poly", "mono", "X^1000", "--at", "10t^1"]],
    )
    def test_monomial_coefficient_overflow_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: monomial coefficient") and "not finite" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["add", "R", "1e308", "1e308"], "real sum 1e+308 + 1e+308 leaves the float range"),
            (["add", "tri", "1e308", "1e308"], "triangle sum 1e+308 + 1e+308 leaves the float range"),
            (["sum", "tri", "1e308", "1e308", "1"],
             "triangle set sum with upper end 1e+308 + 1e+308 leaves the float range"),
            (["poly", "R", "X^2", "--at", "1e200"], "product 1e+200 * 1e+200 leaves the float range"),
            (["poly", "tri", "X^2", "--at", "1e200"], "product 1e+200 * 1e+200 leaves the float range"),
            (["poly", "trop", "X^2", "--at", "1e308"],
             "tropical product 1e+308 + 1e+308 leaves the float range"),
            (["poly", "TC", "X^2", "--at", "1e200"], "modulus must be finite and nonnegative, got inf"),
        ],
    )
    def test_float_overflow_exit_2(self, capsys, argv, message):
        """A sum or product of finite operands beyond the float range is an
        error, as for the monomial carriers, not an `inf` point."""
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["add", "quat", "1e160,0,0,0", "0,1e160,0,0"],
             "quaternion literal must have a finite norm: '1e160,0,0,0'"),
            (["poly", "quat", "X^2", "--at", "1e100,0,0,0"],
             "quaternion product of norms 1e+100 * 1e+100 leaves the float range"),
            (["poly", "quat", "X^2", "--at", "1e160,0,0,0"],
             "quaternion literal must have a finite norm: '1e160,0,0,0'"),
        ],
    )
    def test_quaternion_float_range_exit_2(self, capsys, argv, message):
        """A quaternion literal or product whose norm is not finite is an
        error, not a traceback or an `inf` point."""
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_tied_quaternions_whose_distance_overflows_sum_to_an_arc(self, capsys):
        # |a - b| squares past the float range, so dist is inf: not within eps
        code, out, err = run(capsys, "add", "quat", "--", "1e154,0,0,0", "-6e153,8e153,0,0")
        assert (code, err) == (0, "") and out.startswith("garc -6") and out.count("\n") == 1


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

    @pytest.mark.parametrize("name", ["K", "S", "F2", "zmod:4", "zmod:6", "zmod:8", "powers:2:4", "powers:3:4"])
    def test_finite_multirings_pass_the_multiring_level(self, capsys, name):
        code, out, _ = run(capsys, "verify", name, "--level", "multiring")
        assert code == 0 and "verdict=fail" not in out
        assert "axiom=distributive-inclusion verdict=pass" in out

    def test_tc_dd_reports_failure(self, capsys):
        code, out, _ = run(
            capsys, "verify", "TC", "--level", "dd", "--budget", "400", "--seed", "5"
        )
        assert code == 1
        assert "axiom=double-distributivity verdict=fail" in out
        assert "axiom=half-double-distributivity verdict=pass" in out

    def test_mono_int_dd_reports_failure(self, capsys):
        import random

        from hyperalg.axioms import check_double_distributivity, replay
        from hyperalg.structures import get_structure

        argv = ("verify", "mono-int", "--level", "dd", "--seed", "0", "--budget", "300")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "axiom=double-distributivity verdict=fail witness=(" in out
        # the witness replays: ax + ay + bx + by is not inside (a+b)(x+y)
        X = get_structure("mono-int")
        rep = check_double_distributivity(X, 300, random.Random(0))
        (check,) = rep.failures()
        assert replay(X, check) is False

    def test_maxplus_without_negation_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "maxplus")
        assert (code, out, err) == (2, "", "error: max-plus has no negation\n")

    def test_maxplus_dd_needs_no_negation(self, capsys):
        code, out, err = run(capsys, "verify", "maxplus", "--level", "dd", "--budget", "300")
        assert (code, err) == (0, "")
        assert out == (
            "axiom=half-double-distributivity verdict=pass\n"
            "axiom=double-distributivity verdict=pass\n"
            "checked 300 tuples\n"
        )

    # the README documents HYPERALG_SEED as the default seed
    SEEDED = ("verify", "TC", "--level", "dd", "--budget", "1000")

    def test_seed_variable_is_the_default_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("HYPERALG_SEED", raising=False)
        explicit = run(capsys, *self.SEEDED, "--seed", "5")
        assert explicit != run(capsys, *self.SEEDED)  # seed 0 finds another witness
        monkeypatch.setenv("HYPERALG_SEED", "5")
        assert run(capsys, *self.SEEDED) == explicit

    def test_explicit_seed_wins_over_the_variable(self, capsys, monkeypatch):
        monkeypatch.delenv("HYPERALG_SEED", raising=False)
        seed0 = run(capsys, *self.SEEDED, "--seed", "0")
        monkeypatch.setenv("HYPERALG_SEED", "5")
        assert run(capsys, *self.SEEDED, "--seed", "0") == seed0

    def test_padic_dd_violation_exit_1(self, capsys):
        code, out, err = run(
            capsys, "verify", "padic:3:8", "--level", "dd", "--budget", "400", "--seed", "0"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: padic:3:8: (") and err.count("\n") == 1
        assert "not inside the expanded sum" in err

    def test_padic_below_two_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "padic:1:8")
        assert code == 2 and err.strip() == "error: 1 is not prime"

    def test_m_hyperfield_search(self, capsys):
        code, out, _ = run(capsys, "verify", "M", "--level", "hyperfield-search")
        assert code == 0
        assert out.strip() == "no univalued multiplication admits hyperfield"

    def test_s_hyperfield_search(self, capsys):
        code, out, _ = run(capsys, "verify", "S", "--level", "hyperfield-search")
        assert (code, out) == (0, "2 univalued multiplications admit a hyperfield\n")

    def test_k_hyperfield_search(self, capsys):
        code, out, _ = run(capsys, "verify", "K", "--level", "hyperfield-search")
        assert (code, out) == (0, "1 univalued multiplications admit a hyperfield\n")

    @pytest.mark.parametrize(
        "name, answer",
        [
            ("zmod:5", "4 univalued multiplications admit a hyperfield"),
            ("zmod:7", "6 univalued multiplications admit a hyperfield"),
            ("powers:3:4", "no univalued multiplication admits hyperfield"),
            ("zmod:8", "no univalued multiplication admits hyperfield"),
        ],
        ids=["zmod:5", "zmod:7", "powers:3:4", "zmod:8"],
    )
    def test_hyperfield_search_up_to_8_elements(self, capsys, name, answer):
        """Only the relabelled unit groups are tried: 840 tables at 8 elements."""
        code, out, err = run(capsys, "verify", name, "--level", "hyperfield-search")
        assert (code, out, err) == (0, answer + "\n", "")

    @pytest.mark.parametrize("name", ["zmod:9", "zmod:12"])
    def test_hyperfield_search_refuses_more_than_8_elements(self, capsys, name):
        """At 9 elements the search would relabel 5 groups by 8! bijections each."""
        code, out, err = run(capsys, "verify", name, "--level", "hyperfield-search")
        n = int(name.split(":")[1])
        assert (code, out) == (2, "")
        assert err == (
            f"error: hyperfield search over {n} elements would relabel every group of "
            f"order {n - 1}; it takes at most 8 elements\n"
        )

    def test_continuous_hyperfield_search_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "TR", "--level", "hyperfield-search")
        assert (code, out, err) == (2, "", "error: hyperfield-search needs a finite structure\n")

    def test_zero_ring_is_not_a_hyperfield(self, capsys):
        from hyperalg.axioms import check_multiring, replay
        from hyperalg.structures import get_structure

        code, out, _ = run(capsys, "verify", "zmod:1", "--level", "hyperfield")
        assert code == 1
        assert "axiom=units-group verdict=fail witness=(0)" in out
        assert out.count("verdict=fail") == 1
        X = get_structure("zmod:1")
        (check,) = check_multiring(X, "hyperfield").failures()
        assert check.axiom == "units-group" and replay(X, check) is False

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

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_verify_all_budget_below_one_exit_2(self, budget):
        proc = _verify_all("--budget", budget)
        assert (proc.returncode, proc.stdout) == (2, "") and "--budget" in proc.stderr

    def test_verify_all_table(self):
        # at budget 200 a p-adic row misses negation-unique on about a
        # quarter to a half of seeds; at 2000, the perfbench sweep budget,
        # no seed of 0-299 misses it
        proc = _verify_all("--budget", "2000")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[1:] if not line.startswith(" ")]
        names = [row[0] for row in rows]
        assert sorted(names) == sorted(
            REGISTRY_NAMES + [f"hom:{name}" for name in HOM_TABLE] + ["dequantization", "seminorm"]
        )
        red = {row[0]: row[row.index("<-") + 1] for row in rows if row[2] == "FAIL"}
        assert red == {
            "M": "reversal",
            **{f"padic:{p}:8": "associativity,negation-unique" for p in (2, 3, 5)},
            "hom:modulus-maxplus": "additive-containment",
        }
        deq = rows[names.index("dequantization")]
        assert deq[-1] == (
            "checks=modulus-containment,log-transfer,limit-row,semiring-isomorphism,graph-limit"
        )

    def test_verify_all_counts_a_witness_that_does_not_replay_false(self):
        import dataclasses
        import importlib.util
        import random

        spec = importlib.util.spec_from_file_location(
            "verify_all", os.path.join(ROOT, "scripts", "verify_all.py")
        )
        verify_all = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(verify_all)
        rep = verify_all.run_hom("S-K", 50, random.Random(0))
        (strong,) = [c for c in rep.checks if not c.passed]
        assert verify_all.unreplayed("hom:S-K", "hom", rep) == []
        # S -> K is strong on (0, 1): 0 + 1 = 1 is all of f(0) + f(1)
        rep.checks.append(dataclasses.replace(strong, witness=("0", "1")))
        rep.checks.append(dataclasses.replace(strong, witness=None))
        assert verify_all.unreplayed("hom:S-K", "hom", rep) == ["strong", "strong"]

    @pytest.mark.parametrize(
        "edit,cell",
        [
            (lambda t: t["add"].update({"1,1": [0, 5]}), "add table cell (1, 1)"),
            (lambda t: t["mul"].update({"1,1": 7}), "mul table cell (1, 1)"),
            (lambda t: t["mul"].pop("0,1"), "mul table cell (0, 1)"),
            (lambda t: t["add"].update({"5,5": [9]}), "add table cell (5, 5) is outside"),
            (lambda t: t["mul"].update({"7,0": 3}), "mul table cell (7, 0) is outside"),
            (lambda t: t.update(zero=2), "zero index 2"),
            (lambda t: t.update(one=-1), "one index -1"),
        ],
        ids=["add-index", "mul-index", "mul-missing", "add-outside", "mul-outside", "zero", "one"],
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

    @pytest.mark.parametrize("name", ["powers:2:3", "powers:2:8", "powers:5:4"])
    def test_powers_named_by_depth(self, capsys, name):
        """Each depth is its own table, named the way the CLI spells it."""
        code, out, _ = run(capsys, "verify", name, "--format", "json")
        assert code == 0 and json.loads(out)["structure"] == name


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

    @pytest.mark.parametrize("cap", ["0", "1", str(MAX_CAP + 1), "100000000000"])
    def test_cap_out_of_range_exit_2(self, capsys, cap):
        code, out, err = run(capsys, "char", "R", "--cap", cap)
        assert (code, out) == (2, "") and "--cap" in err


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


class TestClosedPipe:
    @pytest.mark.parametrize("argv", [["add", "tri", "2", "1"], ["hom", "sign", "--budget", "120"]])
    def test_closed_reader_exits_141_silently(self, argv):
        """A reader that closed the pipe is no usage error: exit 128 + SIGPIPE
        with an empty stderr, neither an `error:` line nor a traceback at
        interpreter exit.  The read end is closed before the child starts, so
        its first write fails every time."""
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperalg.cli", *argv],
                stdout=w, stderr=subprocess.PIPE, text=True, env=_child_env(), timeout=60,
            )
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (141, "")


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

    @pytest.mark.parametrize(
        "structure,poly,at,first",
        [
            ("TR", "X^2 - 1", "1", "interval [-1,1]"),
            ("TR", "1e-3X + 1", "1", "point 1"),
            ("TC", "1@-1X + 1", "1", "arc r=1 from=5.2831853072 sweep=1"),
            ("TC", "(1+1i)X + 1", "1", "point 1.4142135624∠0.7853981634"),
            ("quat", "0,-1,0,0X + 1,0,0,0", "1,0,0,0", "garc 0,-1,0,0 to 1,0,0,0"),
            ("padic:5:8", "(2 + 3*5)X + 1", "1", "point 3 + 3*5"),
        ],
    )
    def test_signs_and_groups_stay_in_their_literal(self, capsys, structure, poly, at, first):
        code, out, err = run(capsys, "poly", structure, poly, "--at", at)
        assert (code, err) == (0, "") and out.splitlines()[0] == first

    @pytest.mark.parametrize("structure", ["mono-int", "mono"])
    def test_monomial_exponent_overflow_exit_2(self, capsys, structure):
        code, out, err = run(capsys, "poly", structure, "X^1000", "--at", "1t^1" + "0" * 306)
        assert (code, out) == (2, "")
        assert err.startswith("error: monomial product exponent") and "float range" in err

    @pytest.mark.parametrize("term", ["X X", "X^-1", "X^2X^3", "X ^2", "X^{2}"])
    def test_malformed_x_term_exit_2_names_term(self, capsys, term):
        code, out, err = run(capsys, "poly", "TR", f"{term} + 1", "--at", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and repr(term) in err


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

    def test_tri_family_zero_operand(self, capsys):
        code, out, _ = run(capsys, "deq", "tri", "0", "1")
        assert code == 0
        assert [row.split(",")[3:5] for row in out.strip().splitlines()[1:]] == [["point 1"] * 2] * 4

    def test_tri_family(self, capsys):
        code, out, _ = run(capsys, "deq", "tri", "2", "2", "--h", "0.01")
        assert code == 0
        assert "[0," in out

    @pytest.mark.parametrize("h", ["nan", "inf", "-1", ",,", "1,nan", ""])
    @pytest.mark.parametrize(
        "family,a,b", [("lm", "1", "2"), ("tri", "1", "2"), ("complex", "1@0", "1@1")]
    )
    def test_bad_h_exit_2_names_option(self, capsys, family, a, b, h):
        code, out, err = run(capsys, "deq", family, a, b, f"--h={h}")
        assert (code, out) == (2, "")
        assert err.startswith("error: --h ") and repr(h) in err

    @pytest.mark.parametrize(
        "family,a,b",
        [("lm", "1", "nan"), ("lm", "inf", "2"), ("lm", "1", "1e400"), ("tri", "1", "1e400")],
    )
    def test_operands_use_the_family_carrier(self, capsys, family, a, b):
        code, out, err = run(capsys, "deq", family, "--", a, b)
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_lm_both_tropical_zero(self, capsys):
        code, out, _ = run(capsys, "deq", "lm", "--h", "1,0", "--", "-inf", "-inf")
        assert code == 0
        rows = ["1.0,-inf,-inf,-inf,-inf,0.0", "0.0,-inf,-inf,-inf,-inf,0.0"]
        assert out.splitlines()[1:] == rows

    @pytest.mark.parametrize(
        "family,a,b",
        [("lm", "1", "2"), ("lm", "-inf", "3"), ("tri", "2", "2"), ("tri", "1", "3"), ("complex", "-1", "i"),
         ("complex", "1", "-1")],
    )
    def test_json_rows_hold_the_csv_values(self, capsys, family, a, b):
        head, operands = ["deq", family, "--h", "1,0.1,0.001,0"], ["--", a, b]
        code, out, _ = run(capsys, *head, *operands)
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(out)))
        code, out, _ = run(capsys, *head, "--format", "json", *operands)
        assert code == 0
        rows = json.loads(out)
        assert [r["h"] for r in rows] == [1.0, 0.1, 0.001, 0.0]
        assert [{k: str(v) for k, v in r.items()} for r in rows] == csv_rows

    @pytest.mark.parametrize(
        "family,a,b,h,sum_at",
        [
            ("tri", "1", "2", "1,1e300", "triangle sum at h=1e+300"),
            ("complex", "1@0", "1@1", "1,1e300", "complex sum at h=1e+300"),
            ("tri", "1e308", "1e308", "1", "triangle sum at h=1"),
            ("lm", "1.7e308", "1.7e308", "1e308", "Litvinov-Maslov sum at h=1e+308"),
        ],
    )
    def test_sum_beyond_the_float_range_exit_2(self, capsys, family, a, b, h, sum_at):
        """Every finite h >= 0 is a valid --h, but at h = 1e300 (or at h = 1
        for operands near the largest float) the sum has no float value."""
        code, out, err = run(capsys, "deq", family, a, b, "--h", h)
        assert (code, out, err) == (2, "", f"error: the {sum_at} leaves the float range\n")

    def test_h_schedule_parser(self):
        from hyperalg.deq import parse_h_schedule

        assert parse_h_schedule("1,0.5,0,-0") == [1.0, 0.5, 0.0, -0.0]
        with pytest.raises(ValueError, match="--h"):
            parse_h_schedule("1,inf")


class TestSpectrum:
    def test_z6(self, capsys, tmp_path):
        from hyperalg.finite import make_zmod

        path = tmp_path / "Z6.json"
        path.write_text(make_zmod(6).to_json(), encoding="utf-8")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        assert "prime-ideal={0,2,4}" in out and "prime-ideal={0,3}" in out
        assert "count=2" in out

    def test_declared_one_that_is_no_unity_exit_2(self, capsys, tmp_path):
        # Z/6 with 3 as its one would drop the prime ideal {0,3} without a word
        from hyperalg.finite import make_zmod

        table = json.loads(make_zmod(6).to_json())
        table["one"] = 3
        path = tmp_path / "Z6.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        code, out, err = run(capsys, "spectrum", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: one index 3 is no multiplicative identity")

    def test_structure_name(self, capsys):
        code, out, _ = run(capsys, "spectrum", "S")
        assert code == 0 and "prime-ideal={0}" in out

    def test_members_print_in_table_order(self, capsys):
        # two-digit labels: sorted as text, 10 would come before 2
        code, out, _ = run(capsys, "spectrum", "zmod:12")
        assert code == 0
        assert out.splitlines() == [
            "prime-ideal={0,3,6,9}", "prime-ideal={0,2,4,6,8,10}", "count=2",
        ]


# malformed table shapes: each must exit 2 with an error naming the file
BAD_TABLES = {
    "no-zero": lambda t: t.pop("zero"),
    "add-list": lambda t: t.update(add=[]),
    "add-cell-int": lambda t: t["add"].update({"1,1": 5}),
    "add-cell-name": lambda t: t["add"].update({"1;1": [0]}),
    "zero-null": lambda t: t.update(zero=None),
    "elements-int": lambda t: t.update(elements=5),
    "top-level-list": None,
}


def _write_table(directory, shape: str) -> str:
    from hyperalg.finite import make_sign

    table = json.loads(make_sign().to_json())
    if shape == "top-level-list":
        table = [table]
    elif shape in BAD_TABLES:
        BAD_TABLES[shape](table)
    path = directory / f"{shape}.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    return str(path)


class TestTables:
    @pytest.mark.parametrize("shape", sorted(BAD_TABLES))
    @pytest.mark.parametrize(
        "command",
        [
            lambda path: ["add", f"finite:{path}", "1", "1"],
            lambda path: ["verify", f"finite:{path}", "--level", "hyperfield"],
            lambda path: ["spectrum", path],
            lambda path: ["quotient", path, "--by", "1"],
        ],
        ids=["add", "verify", "spectrum", "quotient"],
    )
    def test_malformed_table_exit_2_names_file(self, capsys, tmp_path, shape, command):
        path = _write_table(tmp_path, shape)
        code, out, err = run(capsys, *command(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "shape,key",
        [("add-list", "'add'"), ("zero-null", "'zero'"), ("elements-int", "'elements'"),
         ("add-cell-int", "'1,1'")],
    )
    def test_error_names_the_key(self, capsys, tmp_path, shape, key):
        code, _, err = run(capsys, "add", f"finite:{_write_table(tmp_path, shape)}", "1", "1")
        assert code == 2 and key in err

    @staticmethod
    def _relabelled_z3(directory, elements) -> str:
        from hyperalg.finite import make_zmod

        table = json.loads(make_zmod(3).to_json())
        table["elements"] = elements
        path = directory / "Z3.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_mixed_labels_dd_exits_cleanly(self, capsys, tmp_path, fmt):
        """Labels that mix ints and strings do not compare; dd lists the
        points of a value set in table order instead of sorting them."""
        path = self._relabelled_z3(tmp_path, [0, "a", "b"])
        code, out, err = run(capsys, "verify", f"finite:{path}", "--level", "dd", "--format", fmt)
        assert code in (0, 1) and out
        assert "Traceback" not in err

    def test_labels_that_print_alike_exit_2(self, capsys, tmp_path):
        path = self._relabelled_z3(tmp_path, [0, 1, "1"])
        code, out, err = run(capsys, "add", f"finite:{path}", "1", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and "print alike" in err

    def test_load_round_trips(self, tmp_path):
        from hyperalg.finite import FiniteMultistructure, make_sign

        path = _write_table(tmp_path, "sign")
        assert FiniteMultistructure.load(path).to_json() == make_sign().to_json()


# ---------------------------------------------------------------------------
# argv fuzz: every subcommand on edge-case literals ends in exit 0, 1 or 2,
# never in a traceback, and a successful run prints no nan

LITERALS = [
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-0", "", " ", "0", "1", "2", "-1",
    "0.5", "1e-3", "1e99999", "1@-1", "1∠-0.5", "1∠0", "2∠1", "1∠inf", "1@nan", "inf∠0",
    "1+1i", "(1+1i)", "i", "-i", "1,0,0,0", "0,-1,0,0", "-0,0,0,1", "nan,0,0,0", "1e400,0,0,0",
    "1e154,0,0,0", "1e160,0,0,0", "-6e153,8e153,0,0",
    "1t^1", "-1t^1", "1t^-2", "1t^1/0", "nant^1", "1t^" + "9" * 400, "-1t^-" + "9" * 400,
    "1t^1" + "0" * 306, "10t^1", "1e-320t^-1",
    "5", "2 + 3*5", "5^-1 * (1 + 2*5)", "3^2", "5^99999", "zzz", "{0}",
]
STRUCTURES = [
    "K", "S", "M", "F2", "TC", "TR", "Phi", "tri", "ultra", "trop", "amoeba", "quat", "mono",
    "mono-int", "mono-rational", "maxplus", "C", "R", "padic:5:8", "padic:2:3", "padic:5:0",
    "zmod:6", "zmod:0", "powers:2:3", "nosuch",
] + [f"finite:<{shape}>" for shape in ["sign", "not-json", *BAD_TABLES]]
# <shape> stands for the path of a table file of that shape
TABLE_ARGS = [f"<{shape}>" for shape in ["sign", "not-json", "missing", *BAD_TABLES]]
COEFFS = [
    "", "-", "2", "-1", "1e-3", "(1+1i)", "1@-1", "nan", "1e400", "1,0,0,0", "1t^1", "(2 + 3*5)",
]
POWERS = ["", "X", "X^2", "X^-1", "X X", "X^99999999999", "X^3X", "X^1000"]
H_VALUES = ["1", "0.1", "0", "-0", "nan", "inf", "-1", "", "1e400", "1e-400"]

lit = st.sampled_from(LITERALS)
poly = st.lists(
    st.tuples(
        st.sampled_from([" + ", " - ", "-"]), st.sampled_from(COEFFS), st.sampled_from(POWERS)
    ),
    min_size=1,
    max_size=3,
).map(lambda terms: "".join(sep + c + x for sep, c, x in terms).removeprefix(terms[0][0]))


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(
        ["add", "sum", "poly", "deq", "char", "hom", "verify", "quotient", "spectrum"]
    ))
    s = draw(st.sampled_from(STRUCTURES))
    sep = draw(st.sampled_from([[], ["--"]]))
    if cmd == "add":
        return ["add", s, *sep, draw(lit), draw(lit)]
    if cmd == "sum":
        return ["sum", s, *sep, *draw(st.lists(lit, min_size=1, max_size=4))]
    if cmd == "poly":
        return ["poly", s, f"--at={draw(lit)}", *sep, draw(poly)]
    if cmd == "deq":
        family = draw(st.sampled_from(["lm", "tri", "complex"]))
        h = ",".join(draw(st.lists(st.sampled_from(H_VALUES), min_size=1, max_size=3)))
        return ["deq", family, f"--h={h}", *sep, draw(lit), draw(lit)]
    if cmd == "char":
        caps = ["2", "8", "64", "1", "-1", "0", "x", str(MAX_CAP), str(MAX_CAP + 1)]
        return ["char", s, "--cap", draw(st.sampled_from(caps))]
    if cmd == "hom":
        name = draw(st.sampled_from([*HOM_TABLE, "nosuch"]))
        budget, seed = draw(st.integers(1, 20)), draw(st.integers(0, 3))
        fmt = draw(st.sampled_from(["text", "json"]))
        return ["hom", name, "--budget", str(budget), "--seed", str(seed), "--format", fmt]
    if cmd == "verify":
        level = draw(st.sampled_from(["multigroup", "multiring", "hyperring", "hyperfield", "dd"]))
        budget, seed = draw(st.integers(1, 20)), draw(st.integers(0, 3))
        return ["verify", s, "--level", level, "--budget", str(budget), "--seed", str(seed)]
    if cmd == "quotient":
        by = draw(st.sampled_from(["1", "1,-1", "0,1", "x", ""]))
        return ["quotient", draw(st.sampled_from(TABLE_ARGS)), "--by", by]
    return ["spectrum", draw(st.sampled_from(TABLE_ARGS + ["K", "S", "TC", "zmod:6", "nosuch"]))]


@pytest.fixture(scope="module")
def table_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tables")
    paths = {shape: _write_table(directory, shape) for shape in ["sign", *BAD_TABLES]}
    (directory / "not-json.json").write_text("{", encoding="utf-8")
    paths["not-json"] = str(directory / "not-json.json")
    paths["missing"] = str(directory / "missing.json")
    return paths


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
def test_argv_fuzz_exits_cleanly(table_paths, argv):
    argv = [re.sub(r"<([a-z-]+)>", lambda m: table_paths[m[1]], a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") or "usage: " in err
    if code == 0:
        assert not re.search(r"\bnan\b", out, re.IGNORECASE)
