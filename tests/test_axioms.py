"""Generic axiom checking: verdicts, witnesses, characteristics, homs."""
import itertools
import math
import random

import pytest

from hyperalg import axioms
from hyperalg.axioms import (
    DoubleDistributivityViolation,
    c_characteristic,
    characteristic,
    check_double_distributivity,
    check_hom,
    check_multigroup,
    check_multiring,
    replay,
)
from hyperalg.csets import CArc, CDisk, ComplexElem, set_eq
from hyperalg.finite import (
    FiniteMultistructure,
    make_krasner,
    make_M,
    make_powers_quotient,
    make_sign,
)
from hyperalg.cli import HOM_BUDGET, HOM_TABLE, run_hom
from hyperalg.homs import Polynomial, abs_map, check_w_hom, log_abs, phase_map, sign_map, w_map
from hyperalg.structures import FiniteStructure, get_structure


class TestMultigroup:
    def test_krasner_passes_both_modes(self):
        k = get_structure("K")
        assert check_multigroup(k, "full").passed
        assert check_multigroup(k, "minimal").passed

    def test_broken_negation_fails_with_witness(self):
        # Krasner table with neg redefined: neg(1) = 0
        base = make_krasner()
        broken = FiniteMultistructure(
            elements=base.elements,
            add_table=base.add_table,
            zero_idx=base.zero_idx,
            mul_table=base.mul_table,
            one_idx=base.one_idx,
            neg_map=(0, 0),
            name="K-broken",
        )
        rep = check_multigroup(FiniteStructure(broken), "full")
        assert not rep.passed
        failing = {c.axiom for c in rep.failures()}
        assert failing & {"negation-exists", "negation-unique", "reversal"}
        w = next(c for c in rep.failures() if c.witness is not None)
        assert "1" in w.witness_text

    def test_tc_sampled(self):
        rep = check_multigroup(get_structure("TC"), budget=1500, rng=random.Random(9))
        assert rep.passed, rep.failures()

    def test_minimal_mode_on_continuous_carriers(self):
        for name in ("TC", "TR", "Phi", "tri", "ultra", "trop", "amoeba", "mono", "quat"):
            rep = check_multigroup(
                get_structure(name), "minimal", budget=600, rng=random.Random(11)
            )
            assert rep.passed, (name, rep.failures())

    def test_witness_replay(self):
        base = make_krasner()
        broken = FiniteMultistructure(
            elements=base.elements,
            add_table=base.add_table,
            zero_idx=base.zero_idx,
            neg_map=(0, 0),
            name="K-broken",
        )
        x = FiniteStructure(broken)
        rep = check_multigroup(x, "full")
        for c in rep.failures():
            if c.witness is not None:
                assert replay(x, c) is False


class TestMultiring:
    def test_sign_hyperfield(self):
        rep = check_multiring(get_structure("S"), level="hyperfield")
        assert rep.passed

    def test_triangle_hyperfield_sampled(self):
        rep = check_multiring(get_structure("tri"), level="hyperfield", budget=1200, rng=random.Random(4))
        assert rep.passed, rep.failures()

    def test_M_admits_no_hyperfield_multiplication(self):
        from hyperalg.finite import search_hyperfield_multiplications

        assert search_hyperfield_multiplications(make_M()) == []

    def test_K_admits_exactly_its_own_multiplication(self):
        from hyperalg.finite import search_hyperfield_multiplications

        K = make_krasner()
        assert search_hyperfield_multiplications(K) == [K.mul_table]

    def test_nilpotent_minus_one_breaks_distributive_inclusion(self):
        # S with (-1)(-1) = 0: -1 * (1 + -1) = {0, -1} is not inside -1 + 0
        s = make_sign()
        X = FiniteStructure(FiniteMultistructure(
            elements=s.elements,
            add_table=s.add_table,
            zero_idx=s.zero_idx,
            mul_table={**s.mul_table, (2, 2): s.zero_idx},
            one_idx=s.one_idx,
            name="S-nilpotent",
        ))
        rep = check_multiring(X, level="multiring")
        (bad,) = rep.failures()
        assert (bad.axiom, bad.witness, bad.witness_text) == ("distributive-inclusion", ("-1", "1", "-1"), "(-1, 1, -1)")
        assert replay(X, bad) is False

    def test_hyperring_distributivity_is_equality(self):
        rep = check_multiring(get_structure("K"), level="hyperring")
        names = {c.axiom for c in rep.checks}
        assert "distributive-equality" in names

    def test_small_budget_runs_every_sampled_axiom_on_eight_tuples(self, monkeypatch):
        # at budget 7 the ring and field shares budget * weight // 8 are 0
        # or 1; the floor of 8 keeps every sampled axiom evaluated
        calls = {}

        def counting(axiom, pred):
            def run(X, tup):
                calls[axiom] = calls.get(axiom, 0) + 1
                return pred(X, tup)

            return run

        for axiom, pred in list(axioms.PREDICATES.items()):
            monkeypatch.setitem(axioms.PREDICATES, axiom, counting(axiom, pred))
        rep = check_multiring(get_structure("TC"), "hyperfield", budget=7, rng=random.Random(0))
        assert rep.passed and len(rep.checks) == 15
        for c in rep.checks:
            if c.axiom != "neg-zero":  # a constant law, checked on one tuple
                assert calls[c.axiom] >= 8, (c.axiom, calls)
        assert calls["neg-zero"] == 1


class TestDoubleDistributivity:
    def test_tr_doubly_distributive(self):
        rep = check_double_distributivity(get_structure("TR"), budget=600, rng=random.Random(3))
        assert rep.passed

    def test_tr_exhaustive_sign_magnitude_grid(self):
        # every sign/magnitude relation among the four operands
        tr = get_structure("TR")
        rng = random.Random(0)
        grid = [0.0, 1.0, -1.0, 2.0, -2.0]
        for a in grid:
            for b in grid:
                sab = tr.add(a, b)
                for x in grid:
                    for y in grid:
                        sxy = tr.add(x, y)
                        rhs = tr.add_sets(
                            tr.add_sets(tr.add(a * x, a * y), tr.singleton(b * x)),
                            tr.singleton(b * y),
                        )
                        lhs = tr.mul_sets(sab, sxy)
                        assert tr.set_eq(lhs, rhs), (a, b, x, y)

    def test_linear_order_carriers_doubly_distributive(self):
        for name in ("ultra", "trop"):
            rep = check_double_distributivity(
                get_structure(name), budget=400, rng=random.Random(3)
            )
            assert rep.passed, name

    def test_amoeba_fails_like_triangle(self):
        rep = check_double_distributivity(
            get_structure("amoeba"), budget=400, rng=random.Random(3)
        )
        assert not rep.passed

    def test_tc_fails_with_quarter_witness(self):
        tc = get_structure("TC")
        # the canonical witness (1, i, 1, -i): arc against the unit disk
        one = ComplexElem(1, 0)
        i = ComplexElem(1, math.pi / 2)
        mi = ComplexElem(1, 3 * math.pi / 2)
        lhs = tc.mul_sets(tc.add(one, i), tc.add(one, mi))
        rhs = tc.add_sets(
            tc.add_sets(tc.add(one.times(one), one.times(mi)), tc.singleton(i.times(one))),
            tc.singleton(i.times(mi)),
        )
        assert set_eq(lhs, CArc(1, 3 * math.pi / 2, math.pi))
        assert set_eq(rhs, CDisk(1))
        assert tc.subset(lhs, rhs) and not tc.subset(rhs, lhs)
        rep = check_double_distributivity(tc, budget=700, rng=random.Random(5))
        assert not rep.passed

    def test_triangle_witness_values(self):
        tri = get_structure("tri")
        from hyperalg.rsets import rinterval, rset_eq

        lhs = tri.mul_sets(tri.add(2.0, 1.0), tri.add(2.0, 1.0))
        rhs = tri.add_sets(
            tri.add_sets(tri.add(4.0, 2.0), tri.singleton(2.0)), tri.singleton(1.0)
        )
        assert rset_eq(lhs, rinterval(1, 9))
        assert rset_eq(rhs, rinterval(0, 9))
        rep = check_double_distributivity(tri, budget=500, rng=random.Random(5))
        assert not rep.passed

    @pytest.mark.parametrize("name", ["TC", "Phi", "tri", "amoeba", "mono-int", "quat"])
    def test_failing_witnesses_replay(self, name):
        X = get_structure(name)
        failures = []
        for seed in range(6):
            rep = check_double_distributivity(X, budget=400, rng=random.Random(seed))
            failures += rep.failures()
        assert failures
        for check in failures:
            assert check.axiom == "double-distributivity"
            assert replay(X, check) is False, check.witness_text

    def test_forward_holds_across_structures(self):
        for name in ("K", "S", "F2", "TC", "TR", "tri", "ultra", "trop", "amoeba", "mono"):
            check_double_distributivity(get_structure(name), budget=250, rng=random.Random(8))
            # no DoubleDistributivityViolation raised

    def test_forward_violation_raises(self):
        # a deliberately wrong structure: multiplication that ignores zero
        base = make_krasner()
        bad = FiniteMultistructure(
            elements=base.elements,
            add_table={(0, 0): frozenset([1]), (0, 1): frozenset([0]),
                       (1, 0): frozenset([0]), (1, 1): frozenset([0])},
            zero_idx=0,
            mul_table=base.mul_table,
            one_idx=base.one_idx,
            neg_map=(1, 0),
            name="bad",
        )
        with pytest.raises(DoubleDistributivityViolation):
            check_double_distributivity(FiniteStructure(bad), budget=50)

    def test_maxplus_tuples_never_negate(self, monkeypatch):
        # max-plus has no negation, so its tuples take no N or M letter
        from hyperalg.structures import MaxPlusReals

        negated = []
        monkeypatch.setattr(MaxPlusReals, "neg", lambda self, a: negated.append(a) or a)
        X = get_structure("maxplus")
        for arity in (1, 2, 3, 4):
            tuples = list(axioms.stratified_tuples(X, random.Random(arity), arity, 500))
            assert len(tuples) == 500
        assert negated == []

    def test_symbolic_forward_violation_names_the_component(self):
        # a scratch carrier whose set product reaches outside every expansion
        from hyperalg import rsets
        from hyperalg.structures import RealTropical

        class LoosePoint(RealTropical):
            name = "loose-TR"

            def mul_sets(self, s1, s2):
                product = super().mul_sets(s1, s2)
                return rsets.rinterval(product.lo, 12345.0)

        with pytest.raises(DoubleDistributivityViolation) as exc:
            check_double_distributivity(LoosePoint(), budget=50, rng=random.Random(3))
        text = str(exc.value)
        assert text.startswith("loose-TR: (") and "not inside the expanded sum" in text
        assert " at interval [" in text and text.endswith(",12345]")

    def test_complex_forward_violation_names_the_component(self, monkeypatch):
        # a set product that is always the disk of radius 100, which no
        # expansion of TC holds
        from hyperalg import ctrop

        monkeypatch.setattr(ctrop, "ct_mul_sets", lambda s1, s2: CDisk(100.0))
        with pytest.raises(DoubleDistributivityViolation) as exc:
            check_double_distributivity(get_structure("TC"), budget=50, rng=random.Random(3))
        text = str(exc.value)
        assert text.startswith("TC: (") and text.endswith(" not inside the expanded sum at disk r=100")


class TestCharacteristic:
    def test_krasner(self):
        assert characteristic(get_structure("K")).value == 2
        assert c_characteristic(get_structure("K")).value == 1

    def test_sign_idempotent(self):
        ch = characteristic(get_structure("S"))
        assert ch.value == 0 and ch.stabilized
        assert c_characteristic(get_structure("S")).value == 1

    def test_powers_quotients(self):
        p2 = FiniteStructure(make_powers_quotient(2, 6))
        assert characteristic(p2).value == 2
        assert c_characteristic(p2).value == 2
        p3 = FiniteStructure(make_powers_quotient(3, 6))
        assert characteristic(p3).value == 2
        assert c_characteristic(p3).value == 1

    def test_relation_chr_bounds_cchr(self):
        # chr = p != 0 forces cchr <= p
        for name in ("K", "F2", "tri", "TR", "amoeba"):
            x = get_structure(name)
            ch = characteristic(x, cap=16)
            if ch.value:
                assert c_characteristic(x, cap=16).value <= ch.value

    def test_idempotent_structures(self):
        # a + a = {a} in the complex/real tropical and phase carriers
        for name in ("TC", "TR", "Phi", "S"):
            x = get_structure(name)
            ch = characteristic(x)
            assert (ch.value, ch.stabilized) == (0, True)
            assert c_characteristic(x).value == 1

    def test_linear_order_hyperfields_have_char_two(self):
        # 1 + 1 is the down-set below 1, which contains zero
        for name in ("ultra", "trop"):
            x = get_structure(name)
            assert characteristic(x).value == 2
            assert c_characteristic(x).value == 1


class TestHoms:
    def test_sign_hom(self):
        tr, s = get_structure("TR"), get_structure("S")
        f = lambda v: {1: "1", -1: "-1", 0: "0"}[sign_map(v)]
        rep = check_hom(f, tr, s, budget=250, rng=random.Random(2), name="sign")
        assert rep.is_homomorphism and not rep.strong_exact  # sampled source
        assert rep.kernel == ["0"]

    def test_kernel_scan_stops_at_the_sixteen_listed(self, monkeypatch):
        """The report lists at most 16 elements of each kernel, so the scan
        compares each domain element with at most 16 kept ones: on R -> S at
        budget 2,000 (2,000 domain elements) it lists 16 positive reals of the
        multiplicative kernel with fewer than 16 comparisons per element."""
        r, s = get_structure("R"), get_structure("S")
        calls = []
        eq = r.eq
        monkeypatch.setattr(r, "eq", lambda a, b, *tol: calls.append(a) or eq(a, b, *tol))
        f = lambda v: {1: "1", -1: "-1", 0: "0"}[sign_map(v)]
        rep = check_hom(f, r, s, budget=2000, rng=random.Random(1), name="sign")
        assert rep.kernel == ["0"] and len(rep.mul_kernel) == 16
        assert len(calls) < 16 * 2000

    def test_sign_collapse_not_strong(self):
        s, k = get_structure("S"), get_structure("K")
        f = lambda lbl: "0" if lbl == "0" else "1"
        rep = check_hom(f, s, k, name="S->K")
        assert rep.is_homomorphism and not rep.strong and rep.strong_exact
        assert rep.kernel == ["0"]

    def test_phase_hom(self):
        tc, phi = get_structure("TC"), get_structure("Phi")
        rep = check_hom(phase_map, tc, phi, budget=200, rng=random.Random(3), name="phase")
        assert rep.is_homomorphism, rep.witness_text

    def test_abs_hom_into_triangle(self):
        tc, tri = get_structure("TC"), get_structure("tri")
        rep = check_hom(abs_map, tc, tri, budget=200, rng=random.Random(4), name="abs")
        assert rep.is_homomorphism, rep.witness_text

    def test_logabs_hom_into_trop(self):
        tc, trop = get_structure("TC"), get_structure("trop")
        rep = check_hom(log_abs, tc, trop, budget=200, rng=random.Random(5), name="logabs")
        assert rep.is_homomorphism, rep.witness_text

    def test_modulus_into_maxplus_is_not_a_hom(self):
        tc, mp = get_structure("TC"), get_structure("maxplus")
        rep = check_hom(abs_map, tc, mp, budget=300, rng=random.Random(6), name="mod-maxplus")
        assert not rep.is_homomorphism
        a, b = rep.witness
        # the witness is a cancelling pair: |x+(-x)| sweeps [0,|x|], max-plus keeps |x|
        assert a.eq(-b) or abs(a.modulus - b.modulus) < 1e-9

    def test_a_constant_map_fails_only_zero_preserved(self):
        s = get_structure("S")
        rep = check_hom(lambda e: "1", s, s, name="const")
        (bad,) = [c for c in rep.checks if not c.passed]
        assert (bad.axiom, bad.witness, bad.witness_text) == ("zero-preserved", ("0",), "(0)")
        assert replay(s, bad) is False
        assert rep.witness is None and rep.witness_text == ""
        assert not rep.is_homomorphism
        lines = rep.to_lines()
        assert "axiom=zero-preserved verdict=fail" in lines
        assert not any(line.startswith("witness=") for line in lines)

    def test_report_serialization(self):
        s, k = get_structure("S"), get_structure("K")
        rep = check_hom(lambda lbl: "0" if lbl == "0" else "1", s, k, name="S->K")
        lines = rep.to_lines()
        assert any(line.startswith("axiom=strong verdict=fail") for line in lines)
        assert '"homomorphism": true' in rep.to_json()


class TestMapVerdicts:
    """Each map verdict is a Check with its own first failing pair, and
    replay re-runs it."""

    @pytest.mark.parametrize("name", sorted(HOM_TABLE))
    def test_every_failing_verdict_replays_false(self, name):
        src = HOM_TABLE[name][0]
        x = get_structure(src) if src else None  # w checks polynomials, no carrier
        for seed in range(3):
            rep = run_hom(name, HOM_BUDGET, random.Random(seed))
            assert [c.axiom for c in rep.checks if not c.passed], (name, seed)
            for c in rep.checks:
                if not c.passed:
                    assert c.witness is not None, (name, seed, c.axiom)
                    assert replay(x, c) is False, (name, seed, c.axiom, c.witness_text)

    def test_w_fails_strong_at_a_tie_with_a_replayable_witness(self):
        rep = check_w_hom(budget=60, rng=random.Random(3))
        assert rep.is_homomorphism and rep.strong_exact and rep.witness is None
        (strong,) = [c for c in rep.checks if c.axiom == "strong"]
        assert not strong.passed and replay(None, strong) is False
        p, q = strong.witness
        assert w_map(p).modulus == w_map(q).modulus  # tied or cancelling leaders
        # a dominant pair maps onto the single point w(p+q)
        dominant = (Polynomial.make({2: 1j, 0: 1}), Polynomial.make({1: 3}))
        assert strong.predicate(None, dominant) is True

    @pytest.mark.parametrize("seed", range(4))
    def test_w_on_real_exponent_sums_fails_only_strong(self, seed):
        rep = check_w_hom(rng=random.Random(seed), real_exponents=True)
        (strong,) = [c for c in rep.checks if not c.passed]
        assert strong.axiom == "strong" and replay(None, strong) is False
        assert any(e != int(e) for p in strong.witness for e, _ in p.terms)

    def test_report_witness_is_the_earliest_broken_pair(self):
        # on S -> S, 1 |-> -1 breaks multiplicative at (1, 1), before it
        # breaks additive-containment at (1, -1)
        s = get_structure("S")
        table = {"0": "0", "1": "-1", "-1": "-1"}
        rep = check_hom(table.__getitem__, s, s, name="f")
        pairs = list(itertools.product(s.elements(), repeat=2))
        by_axiom = {c.axiom: c for c in rep.failures()}
        mul, add = by_axiom["multiplicative"].witness, by_axiom["additive-containment"].witness
        assert pairs.index(mul) < pairs.index(add)
        assert (rep.witness, rep.witness_text) == (mul, "(1, 1)")
        assert replay(s, by_axiom["multiplicative"]) is False
        assert replay(s, by_axiom["additive-containment"]) is False


class TestReportForms:
    def test_axiom_report_lines_and_json(self):
        rep = check_multigroup(get_structure("K"))
        lines = rep.to_lines()
        assert all(line.startswith("axiom=") for line in lines)
        assert '"structure": "K"' in rep.to_json()
