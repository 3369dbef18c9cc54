"""Finite constructors, quotients, ideals, and exhaustive verification."""
import itertools
import math
import random

import pytest

from hyperalg.axioms import check_multigroup, check_multiring
from hyperalg.finite import (
    FiniteMultistructure,
    InvalidStructureError,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    direct_product,
    find_isomorphism,
    ideals,
    make_double_coset,
    make_f2,
    make_krasner,
    make_linear_order,
    make_M,
    make_powers_quotient,
    make_q1,
    make_sign,
    make_zmod,
    mul_quotient,
    prime_ideals,
    quaternion_group,
    quotient_by_normal,
    search_hyperfield_multiplications,
    small_groups,
    symmetric3,
)
from hyperalg.structures import FiniteStructure, get_structure


class TestTables:
    def test_krasner_table(self):
        k = make_krasner()
        assert k.add("1", "1") == {"0", "1"}
        assert k.add("0", "1") == {"1"}
        assert k.mul("1", "1") == "1"

    def test_sign_table(self):
        s = make_sign()
        assert s.add("-1", "1") == {"-1", "0", "1"}
        assert s.add("1", "1") == {"1"}
        assert s.mul("-1", "-1") == "1"

    def test_M_table(self):
        m = make_M()
        assert m.add("1", "2") == {"0", "1"}
        assert m.add("1", "1") == {"2"}
        assert m.add("0", "2") == {"2"}

    def test_linear_orders(self):
        q1 = make_linear_order(2, strict=False)
        assert find_isomorphism(q1, _bare(make_q1())) is not None
        f2 = make_linear_order(2, strict=True)
        assert f2.add("1", "1") == {"0"}
        chain = make_linear_order(3, strict=True)
        assert chain.add("2", "2") == {"0", "1"}

    def test_f2_is_z2_named_f2(self):
        f2, z2 = make_f2(), make_zmod(2)
        assert f2.name == "F2"
        z2.name = "F2"
        assert f2 == z2 and f2.to_json() == z2.to_json()

    def test_linear_order_invalid(self):
        with pytest.raises(InvalidStructureError):
            make_linear_order(0)

    def test_json_roundtrip(self):
        for make in (make_krasner, make_sign, make_M, lambda: make_linear_order(4)):
            x = make()
            y = FiniteMultistructure.from_json(x.to_json())
            assert y.elements == tuple(str(e) for e in x.elements)
            assert y.add_table == x.add_table
            assert y.mul_table == x.mul_table


class TestTableShape:
    """Tables are checked at construction, so a bad one never half-loads."""

    @pytest.mark.parametrize("table", ["add_table", "mul_table"])
    def test_cell_outside_the_carrier(self, table):
        k = make_krasner()
        extra = {(5, 5): frozenset([0])} if table == "add_table" else {(1, 7): 0}
        fields = {"add_table": k.add_table, "mul_table": k.mul_table}
        fields[table] = {**fields[table], **extra}
        cell = next(iter(extra))
        with pytest.raises(InvalidStructureError, match=rf"cell \({cell[0]}, {cell[1]}\) is outside"):
            FiniteMultistructure(k.elements, zero_idx=0, one_idx=1, **fields)

    @pytest.mark.parametrize("neg_map", [(0, 7), (0,), (0, 1, 1), (0, -1)])
    def test_bad_neg_map(self, neg_map):
        k = make_krasner()
        with pytest.raises(InvalidStructureError, match="neg_map"):
            FiniteMultistructure(k.elements, k.add_table, 0, k.mul_table, 1, neg_map=neg_map)

    @pytest.mark.parametrize("labels", [(0, 1, "1"), ("0", 1, "1"), (0.5, "a", "0.5")])
    def test_labels_that_print_alike(self, labels):
        """Elements are parsed and printed by their text, so two labels with
        one text form would be one element to the CLI."""
        z3 = make_zmod(3)
        with pytest.raises(InvalidStructureError, match="print alike"):
            FiniteMultistructure(labels, z3.add_table, 0)

    def test_supplied_neg_map_is_used(self):
        k = make_krasner()
        x = FiniteMultistructure(k.elements, k.add_table, 0, k.mul_table, 1, neg_map=(0, 1))
        assert x.neg("1") == "1"


def _bare(x: FiniteMultistructure) -> FiniteMultistructure:
    return FiniteMultistructure(x.elements, x.add_table, x.zero_idx, neg_map=x.neg_map)


class TestUnknownLabels:
    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_binary_op_names_the_unknown_label(self, op):
        s = make_sign()
        for args, bad in ((("2", "1"), "'2'"), (("1", "x"), "'x'"), ((0, "1"), "0")):
            with pytest.raises(InvalidStructureError, match=f"unknown element {bad}"):
                getattr(s, op)(*args)

    @pytest.mark.parametrize("op", ["neg", "inv", "idx"])
    def test_unary_op_names_the_unknown_label(self, op):
        with pytest.raises(InvalidStructureError, match="unknown element '5'"):
            getattr(make_zmod(5), op)("5")

    def test_mul_without_multiplication(self):
        chain = make_linear_order(3)
        for args in (("1", "2"), ("1", "nosuch")):
            with pytest.raises(InvalidStructureError, match="has no multiplication"):
                chain.mul(*args)
        with pytest.raises(InvalidStructureError, match="no multiplicative structure"):
            chain.inv("1")


def _zmod_quotients() -> list:
    """Z/n for n = 1..12, with its quotients by each unit subgroup and by
    each additive subgroup."""
    out = []
    for n in range(1, 13):
        z = make_zmod(n)
        out.append(z)
        units = [i for i in range(1, n) if math.gcd(i, n) == 1]
        for r in range(1, len(units) + 1):
            for sub in itertools.combinations(units, r):
                if all(a * b % n in sub for a in sub for b in sub):
                    out.append(mul_quotient(z, [str(a) for a in sub]))
        for d in range(1, n + 1):
            if n % d == 0:
                out.append(quotient_by_normal(_bare(z), [str(k) for k in range(0, n, d)]))
    return out


def _one_sided_inverse() -> FiniteMultistructure:
    """Z/4's addition with a product in which x*y = 1 but y*x = x, so x has a
    right inverse and no two-sided one."""
    z4 = make_zmod(4)
    products = {(2, 3): 1, (3, 2): 2, (2, 2): 2, (3, 3): 3}

    def mul(i, j):
        return 0 if 0 in (i, j) else j if i == 1 else i if j == 1 else products[(i, j)]

    mul_table = {(i, j): mul(i, j) for i in range(4) for j in range(4)}
    return FiniteMultistructure(("0", "1", "x", "y"), z4.add_table, 0, mul_table, 1, name="1sided")


_ORACLE_FAMILIES = {
    "one-sided": lambda: [_one_sided_inverse()],
    "named": lambda: [make() for make in (make_krasner, make_sign, make_f2, make_q1, make_M)],
    "chains": lambda: [make_linear_order(n, s) for n in range(1, 5) for s in (False, True)],
    "zmod": _zmod_quotients,
    "double-cosets": lambda: [
        make_double_coset(g, h) for g in small_groups(8) for h in all_subgroups(g)
    ],
    "powers": lambda: [make_powers_quotient(p, d) for p in (2, 3, 5) for d in (2, 4, 6)],
    "normal-quotients": lambda: [
        quotient_by_normal(x, [x.zero]) for x in (make_sign(), make_M(), make_krasner())
    ],
}


def test_equal_sum_cells_share_one_label_set():
    x = make_powers_quotient(2, 8)
    els = x.elements
    sums = [x.add(a, b) for a in els for b in els]
    assert len({id(s) for s in sums}) == len(set(x.add_table.values())) < len(sums)


@pytest.mark.parametrize("json_roundtrip", [False, True], ids=["built", "json"])
@pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
def test_label_results_match_index_tables(family, json_roundtrip):
    """add, mul, neg and inv by label agree with add_table, mul_table and
    neg_map by index, in every cell of every table of the family."""
    for x in _ORACLE_FAMILIES[family]():
        if json_roundtrip:
            x = FiniteMultistructure.from_json(x.to_json())
        els, n = x.elements, len(x.elements)
        for i, j in itertools.product(range(n), repeat=2):
            cell = (x.name, els[i], els[j])
            assert x.add(els[i], els[j]) == frozenset(els[k] for k in x.add_table[(i, j)]), cell
            if x.mul_table is not None:
                assert x.mul(els[i], els[j]) == els[x.mul_table[(i, j)]], cell
        for i in range(n):
            assert x.neg(els[i]) == els[x.neg_map[i]], (x.name, els[i])
            if x.mul_table is None or x.one_idx is None:
                continue
            inverses = [
                j for j in range(n)
                if x.mul_table[(i, j)] == x.one_idx and x.mul_table[(j, i)] == x.one_idx
            ]
            if inverses:
                assert x.inv(els[i]) == els[inverses[0]], (x.name, els[i])
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inv(els[i])


def _adapter_sets(x: FiniteMultistructure) -> list:
    """Every distinct sum cell and every singleton, as index sets."""
    return sorted(
        set(x.add_table.values()) | {frozenset([i]) for i in range(len(x.elements))},
        key=sorted,
    )


@pytest.mark.parametrize("json_roundtrip", [False, True], ids=["built", "json"])
@pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
def test_adapter_matches_index_tables(family, json_roundtrip):
    """FiniteStructure's set operations agree with add_table, mul_table and
    zero_idx over every pair of sum cells and singletons of every table."""
    for x in _ORACLE_FAMILIES[family]():
        if json_roundtrip:
            x = FiniteMultistructure.from_json(x.to_json())
        X = FiniteStructure(x)
        els, n = x.elements, len(x.elements)

        def labels(idx):
            return frozenset(els[k] for k in idx)

        assert X.zero == els[x.zero_idx], x.name
        assert X.singleton(("not", "a", "label")) == {("not", "a", "label")}, x.name
        for i in range(n):
            assert X.singleton(els[i]) == {els[i]}, (x.name, els[i])
            assert X.is_zero(els[i]) == (i == x.zero_idx), (x.name, els[i])
        sets = _adapter_sets(x)
        for s1, s2 in itertools.product(sets, repeat=2):
            cell = (x.name, sorted(s1), sorted(s2))
            union = frozenset().union(*(x.add_table[(i, j)] for i in s1 for j in s2))
            assert X.add_sets(labels(s1), labels(s2)) == labels(union), cell
            assert X.set_eq(labels(s1), labels(s2)) == (s1 == s2), cell
            assert X.subset(labels(s1), labels(s2)) == (s1 <= s2), cell
            if x.mul_table is not None:
                product = {x.mul_table[(i, j)] for i in s1 for j in s2}
                assert X.mul_sets(labels(s1), labels(s2)) == labels(product), cell
        for i, s in itertools.product(range(n), sets):
            cell = (x.name, els[i], sorted(s))
            assert X.member(els[i], labels(s)) == (i in s), cell
            if x.mul_table is not None:
                left = {x.mul_table[(i, k)] for k in s}
                right = {x.mul_table[(k, i)] for k in s}
                assert X.scale(els[i], labels(s), "left") == labels(left), cell
                assert X.scale(els[i], labels(s), "right") == labels(right), cell


def test_adapter_reads_the_table_operations_at_call_time(monkeypatch):
    """A patch of FiniteMultistructure.add or .mul made after an adapter is
    built (as a call tracer installs it) sees every table call the adapter
    makes: no adapter binds a table operation once."""
    X = FiniteStructure(make_sign())
    seen = []

    def spy(name):
        original = getattr(FiniteMultistructure, name)

        def patched(self, a, b):
            seen.append(name)
            return original(self, a, b)

        return patched

    monkeypatch.setattr(FiniteMultistructure, "add", spy("add"))
    monkeypatch.setattr(FiniteMultistructure, "mul", spy("mul"))
    one, both = frozenset(["1"]), frozenset(["-1", "1"])
    calls = [
        (lambda: X.add("1", "-1"), ["add"]),
        (lambda: X.add_sets(one, one), ["add"]),
        (lambda: X.add_sets(both, one), ["add"] * 2),
        (lambda: X.scale("-1", both, "left"), ["mul"] * 2),
        (lambda: X.scale("-1", both, "right"), ["mul"] * 2),
        (lambda: X.mul_sets(both, both), ["mul"] * 4),
    ]
    for call, expected in calls:
        seen.clear()
        call()
        assert seen == expected


def test_pick_and_components_follow_table_order():
    """Labels of mixed types do not compare, so a finite value set, whole or
    not, is picked in table order, as format_set prints it; the structure
    lists no components, since every value set is one set."""
    x = FiniteMultistructure((0, "a", "b"), make_zmod(3).add_table, 0)
    X = FiniteStructure(x)
    everything = frozenset(x.elements)
    assert X.pick(everything, rng=None) == [0, "a", "b"]
    assert not hasattr(X, "components")
    assert X.format_set(everything) == "{0,a,b}"
    assert X.pick(frozenset(["b", 0]), rng=None) == [0, "b"]
    assert X.format_set(frozenset(["b", 0])) == "{0,b}"


class TestExhaustiveAxioms:
    def test_named_structures_pass_both_modes(self):
        for name in ("K", "Q1", "S", "F2"):
            x = get_structure(name)
            assert check_multigroup(x, "full").passed, name
            assert check_multigroup(x, "minimal").passed, name

    def test_M_fails_the_reversal_axiom(self):
        """The published three-element table is forced into a reversal
        violation: with 1+1={2} and 1+2={0,1} fixed, associativity forces
        2+2={1,2}, and then 2 in 2+2 while -2=1 is not in 1+1.  Both checker
        modes agree on the failure."""
        x = get_structure("M")
        full = check_multigroup(x, "full")
        minimal = check_multigroup(x, "minimal")
        assert not full.passed and not minimal.passed
        assert {c.axiom for c in full.failures()} == {"reversal"}
        assert {c.axiom for c in minimal.failures()} == {"reversibility"}
        # axioms (1)-(3) do hold: only the mirror law breaks
        passing = {c.axiom for c in full.checks if c.passed}
        assert {"associativity", "neutral", "negation-exists", "negation-unique"} <= passing

    def test_linear_orders_up_to_six(self):
        for n in range(1, 7):
            for strict in (False, True):
                x = FiniteStructure(make_linear_order(n, strict))
                assert check_multigroup(x, "full").passed, (n, strict)
                assert check_multigroup(x, "minimal").passed, (n, strict)

    def test_hyperfield_levels(self):
        assert check_multiring(get_structure("K"), level="hyperfield").passed
        assert check_multiring(get_structure("S"), level="hyperfield").passed
        assert check_multiring(get_structure("F2"), level="hyperfield").passed

    def test_q1_is_the_unique_two_element_multigroup_that_is_not_a_group(self):
        # enumerate every multivalued table on {0, 1} with neutral 0
        cells = [frozenset(s) for s in ({0}, {1}, {0, 1})]
        q1 = _bare(make_q1())
        found = []
        for c00, c01, c10, c11 in itertools.product(cells, repeat=4):
            table = {(0, 0): c00, (0, 1): c01, (1, 0): c10, (1, 1): c11}
            for neg in ((0, 1), (0, 0), (1, 0), (1, 1)):
                try:
                    cand = FiniteMultistructure(
                        elements=("0", "1"),
                        add_table=table,
                        zero_idx=0,
                        neg_map=neg,
                        name="cand",
                    )
                except InvalidStructureError:
                    continue
                if not check_multigroup(FiniteStructure(cand), "full").passed:
                    continue
                univalued = all(len(v) == 1 for v in table.values())
                if not univalued:
                    found.append(table)
        assert found, "Q1 should be found"
        for table in found:
            cand = FiniteMultistructure(("0", "1"), table, 0, name="cand")
            assert find_isomorphism(cand, q1) is not None

    def test_neg_involution_everywhere(self):
        for name in ("K", "Q1", "S", "F2", "M"):
            x = get_structure(name)
            assert x.neg(x.zero) == x.zero
            for a in x.elements():
                assert x.neg(x.neg(a)) == a


class TestGroups:
    def test_small_groups_inventory(self):
        gs = small_groups(8)
        orders = sorted(g.order for g in gs)
        assert orders == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]

    def test_subgroup_counts(self):
        assert len(all_subgroups(symmetric3())) == 6
        assert len(all_subgroups(quaternion_group())) == 6
        assert len(all_subgroups(dihedral_group(4))) == 10

    def test_q8_relations(self):
        g = quaternion_group()
        idx = {label: k for k, label in enumerate(g.elements)}

        def times(x, y):
            return g.elements[g.mul(idx[x], idx[y])]

        assert (times("i", "j"), times("j", "i"), times("i", "i"), times("k", "i")) == (
            "k",
            "-k",
            "-1",
            "j",
        )

    def test_double_coset_trivial(self):
        g = cyclic_group(1)
        dc = make_double_coset(g, frozenset({0}))
        assert len(dc.elements) == 1

    def test_double_coset_s3(self):
        g = symmetric3()
        h2 = next(s for s in all_subgroups(g) if len(s) == 2)
        dc = make_double_coset(g, h2)
        assert len(dc.elements) == 2
        nt = next(e for e in dc.elements if e != dc.zero)
        assert dc.add(nt, nt) == set(dc.elements)

    def test_double_coset_z4(self):
        dc = make_double_coset(cyclic_group(4), frozenset({0, 2}))
        assert len(dc.elements) == 2
        assert find_isomorphism(dc, make_linear_order(2, strict=True)) is not None

    def test_double_coset_tables_follow_their_definition(self):
        # (HaH)(HbH) = {HahbH : h in H} and -(HaH) = Ha^-1H, for every
        # representative a and b of every double coset
        for g in small_groups(8):
            for h in all_subgroups(g):
                hs = sorted(h)

                def label(x):
                    coset = {g.mul(g.mul(h1, x), h2) for h1 in hs for h2 in hs}
                    return "{" + ",".join(str(k) for k in sorted(coset)) + "}"

                dc = make_double_coset(g, h)
                assert set(dc.elements) == {label(x) for x in range(g.order)}
                for a in range(g.order):
                    assert dc.neg(label(a)) == label(g.inverse(a)), (g.name, hs, a)
                    for b in range(g.order):
                        want = {label(g.mul(g.mul(a, k), b)) for k in hs}
                        assert dc.add(label(a), label(b)) == want, (g.name, hs, a, b)

    @pytest.mark.parametrize(
        "g",
        [
            *small_groups(8),
            dihedral_group(5),
            direct_product(symmetric3(), cyclic_group(2)),
            direct_product(quaternion_group(), cyclic_group(3)),
        ],
        ids=lambda g: g.name,
    )
    def test_identity_is_index_0_and_inverses_are_two_sided(self, g):
        for x in range(g.order):
            assert g.mul(0, x) == x and g.mul(x, 0) == x
            y = g.inverse(x)
            assert g.mul(x, y) == 0 and g.mul(y, x) == 0

    def test_all_double_cosets_are_multigroups(self):
        for g in small_groups(8):
            for h in all_subgroups(g):
                dc = FiniteStructure(make_double_coset(g, h))
                full = check_multigroup(dc, "full")
                minimal = check_multigroup(dc, "minimal")
                assert full.passed and minimal.passed, (g.name, sorted(h))


class TestQuotients:
    def test_f3_mod_units_is_krasner(self):
        q = mul_quotient(make_zmod(3), ["1", "2"])
        assert find_isomorphism(q, make_krasner()) is not None

    def test_f5_quotient(self):
        q = mul_quotient(make_zmod(5), ["1", "4"])
        assert len(q.elements) == 3
        assert check_multiring(FiniteStructure(q), level="hyperfield").passed

    def test_zero_in_s_collapses(self):
        q = mul_quotient(make_zmod(5), ["0", "1", "2", "3", "4"])
        assert len(q.elements) == 1

    def test_not_closed_rejected(self):
        with pytest.raises(InvalidStructureError):
            mul_quotient(make_zmod(5), ["2"])  # 2*2 = 4 not in S

    def test_quotient_by_full_units_gives_krasner(self):
        # X /m (X minus 0) is Krasner for every finite hyperfield except F2
        for make in (make_krasner, make_sign, lambda: make_zmod(3), lambda: make_zmod(5)):
            x = make()
            units = [e for e in x.elements if e != x.zero]
            q = mul_quotient(x, units)
            assert find_isomorphism(q, make_krasner()) is not None, x.name

    def test_powers_quotient_tables(self):
        p2 = make_powers_quotient(2, 5)
        got = p2.add("2^0", "2^0")
        assert got == {"0", "2^1", "2^2", "2^3", "2^4"}
        p3 = make_powers_quotient(3, 5)
        assert p3.add("3^0", "3^0") == {"0", "3^0", "3^1", "3^2", "3^3", "3^4"}
        with pytest.raises(InvalidStructureError):
            make_powers_quotient(4, 5)

    def test_quotient_by_normal_trivial(self):
        for make in (make_sign, make_M, make_krasner):
            x = make()
            q = quotient_by_normal(x, [x.zero])
            assert find_isomorphism(q, _bare(x)) is not None

    def test_quotient_by_normal_group_case(self):
        z4 = make_zmod(4)
        q = quotient_by_normal(_bare(z4), ["0", "2"])
        assert find_isomorphism(q, make_linear_order(2, strict=True)) is not None

    def test_non_strong_submultigroup_rejected(self):
        # {0, 1} in the sign carrier is not closed: 1 + (-1) covers everything
        with pytest.raises(InvalidStructureError):
            quotient_by_normal(make_sign(), ["0", "1", "-1"][:2])

    def test_strong_factorization_theorem(self):
        # a surjective strong hom: Z/4 -> Z/2, quotient by kernel is the image
        z4 = _bare(make_zmod(4))
        q = quotient_by_normal(z4, ["0", "2"])
        image = make_linear_order(2, strict=True)
        assert find_isomorphism(q, image) is not None

    def test_q2_strongness_counterexample(self):
        # quotient of the sign carrier by {0} is itself, while the collapse
        # onto Krasner has trivial kernel and is not injective, not strong
        s = make_sign()
        q = quotient_by_normal(s, ["0"])
        assert len(q.elements) == 3
        from hyperalg.axioms import check_hom

        rep = check_hom(
            lambda lbl: "0" if lbl == "0" else "1",
            get_structure("S"),
            get_structure("K"),
            name="Q2->Q1",
        )
        assert rep.is_homomorphism and not rep.strong
        assert rep.kernel == ["0"]

    @pytest.mark.parametrize(
        "x,kernel",
        [
            (make_zmod(4), ["0", "2"]),
            (make_sign(), ["0"]),
            (make_zmod(6), ["0", "3"]),
            (make_zmod(6), ["0", "2", "4"]),
            (make_linear_order(3, strict=False), ["0"]),
            (make_linear_order(3, strict=False), ["0", "1"]),
        ],
        ids=["Z4/{0,2}", "S/{0}", "Z6/{0,3}", "Z6/{0,2,4}", "chain3/{0}", "chain3/{0,1}"],
    )
    def test_projection_onto_a_normal_quotient_is_strong(self, x, kernel):
        # the quotient has no multiplication, so `multiplicative` holds vacuously
        from hyperalg.axioms import check_hom

        q = quotient_by_normal(x, kernel)
        assert q.mul_table is None
        proj = {e: cls for cls in q.elements for e in cls[1:-1].split(",")}
        rep = check_hom(proj.__getitem__, FiniteStructure(x), FiniteStructure(q), name="proj")
        assert rep.strong_exact and len(rep.checks) == 5
        verdicts = ("zero-preserved", "one-preserved", "additive-containment", "multiplicative", "strong")
        assert {c.axiom: c.passed for c in rep.checks} == dict.fromkeys(verdicts, True)


class TestIdeals:
    def test_z6_prime_ideals(self):
        entries = prime_ideals(make_zmod(6))
        got = sorted(tuple(sorted(e["ideal"])) for e in entries)
        assert got == [("0", "2", "4"), ("0", "3")]

    def test_hyperfield_has_only_zero_ideal(self):
        # the ideals of a hyperfield are {0} and the whole carrier
        for make in (make_krasner, make_sign):
            x = make()
            got = sorted(ideals(x), key=len)
            assert got == [frozenset({x.zero}), frozenset(x.elements)]
            entries = prime_ideals(x)
            assert len(entries) == 1 and entries[0]["ideal"] == frozenset({x.zero})

    def test_characteristic_map_is_hom(self):
        from hyperalg.axioms import check_hom

        for name in ("S", "K", "zmod:6"):
            x = get_structure(name)
            for entry in prime_ideals(x.table):
                f = lambda e, m=entry["to_K"]: m[e]
                rep = check_hom(f, x, get_structure("K"), name=f"f_I on {name}")
                assert rep.is_homomorphism, (name, entry["ideal"])

    def test_sign_ideal_map_is_collapse(self):
        entries = prime_ideals(make_sign())
        f = entries[0]["to_K"]
        assert f["0"] == "0" and f["1"] == "1" and f["-1"] == "1"

    def test_size_cap(self):
        with pytest.raises(InvalidStructureError):
            ideals(make_zmod(13))


class TestInheritance:
    """Small-substructure inheritance from characteristics."""

    def test_chr0_cchr1_gives_sign(self):
        # {-1, 0, 1} inside the sign carrier is the sign table itself
        s = make_sign()
        for a in ("1", "-1"):
            for b in ("1", "-1"):
                induced = s.add(a, b) & {"0", "1", "-1"}
                assert induced == s.add(a, b)

    def test_chr2_cchr1_gives_krasner(self):
        k = make_krasner()
        assert k.add("1", "1") == {"0", "1"}

    def test_chr2_cchr2_gives_f2(self):
        # in the powers-of-2 quotient, {0, 1} inherits the field F2
        p2 = make_powers_quotient(2, 5)
        sub = {"0", "2^0"}
        induced = p2.add("2^0", "2^0") & sub
        assert induced == {"0"}
        assert p2.add("0", "2^0") & sub == {"2^0"}


# ---------------------------------------------------------------------------
# the answers of the searches, pinned against brute-force references


def _relabelled(x: FiniteMultistructure, rng, one_idx="keep") -> FiniteMultistructure:
    """An isomorphic copy of x with its elements stored in a random order
    (its unity index given by `one_idx` unless that is "keep")."""
    n = len(x.elements)
    perm = list(range(n))
    rng.shuffle(perm)  # old index i -> new index perm[i]
    elements = [None] * n
    for i, e in enumerate(x.elements):
        elements[perm[i]] = e
    mul = None
    if x.mul_table is not None:
        mul = {(perm[i], perm[j]): perm[k] for (i, j), k in x.mul_table.items()}
    if one_idx == "keep":
        one_idx = None if x.one_idx is None else perm[x.one_idx]
    return FiniteMultistructure(
        elements=tuple(elements),
        add_table={
            (perm[i], perm[j]): frozenset(perm[k] for k in cell)
            for (i, j), cell in x.add_table.items()
        },
        zero_idx=perm[x.zero_idx],
        mul_table=mul,
        one_idx=one_idx,
        name=x.name,
    )


def _first_isomorphism(a: FiniteMultistructure, b: FiniteMultistructure) -> dict | None:
    """The first bijection in `itertools.permutations` order that maps a's
    tables onto b's, zero to zero and, when both multiply and both declare
    a unity, one to one."""
    n = len(a.elements)
    if n != len(b.elements) or (a.mul_table is None) != (b.mul_table is None):
        return None
    units = a.mul_table is not None and a.one_idx is not None and b.one_idx is not None
    cells = list(itertools.product(range(n), repeat=2))
    for p in itertools.permutations(range(n)):
        if p[a.zero_idx] != b.zero_idx or (units and p[a.one_idx] != b.one_idx):
            continue
        if all(
            frozenset(p[t] for t in a.add_table[i, j]) == b.add_table[p[i], p[j]]
            and (a.mul_table is None or p[a.mul_table[i, j]] == b.mul_table[p[i], p[j]])
            for i, j in cells
        ):
            return {a.elements[i]: b.elements[p[i]] for i in range(n)}
    return None


def _search_tables(max_size: int) -> list:
    """Every table of the oracle families with at most max_size elements,
    plus the chains of 5 and 6 elements."""
    tables = [x for family in _ORACLE_FAMILIES.values() for x in family()]
    tables += [make_linear_order(n, s) for n in (5, 6) for s in (False, True)]
    return [x for x in tables if len(x.elements) <= max_size]


class TestIsomorphismAnswer:
    """find_isomorphism returns the first isomorphism in permutation order."""

    def test_relabelled_tables_map_back_by_the_first_isomorphism(self):
        rng = random.Random(26)
        for x in _search_tables(6):
            for _ in range(2):
                y = _relabelled(x, rng)
                for a, b in ((y, x), (x, y)):
                    want = _first_isomorphism(a, b)
                    assert want is not None, x.name
                    assert find_isomorphism(a, b) == want, (x.name, a.elements, b.elements)

    def test_same_size_pairs_agree_with_the_reference(self):
        tables = _search_tables(6)
        for a, b in itertools.product(tables, repeat=2):
            if len(a.elements) == len(b.elements):
                assert find_isomorphism(a, b) == _first_isomorphism(a, b), (a.name, b.name)

    @pytest.mark.parametrize(
        "a, b",
        [
            (make_krasner, make_f2),
            (lambda: make_linear_order(2), lambda: make_linear_order(2, strict=True)),
            (lambda: make_linear_order(3), lambda: make_linear_order(3, strict=True)),
            (make_sign, lambda: make_zmod(3)),
            (lambda: make_zmod(4), lambda: make_powers_quotient(2, 3)),
        ],
    )
    def test_non_isomorphic_pairs(self, a, b):
        assert find_isomorphism(a(), b()) is None
        assert find_isomorphism(b(), a()) is None

    def test_unity_binds_only_when_both_tables_declare_one(self):
        z5 = make_zmod(5)
        # a declared one that is no unity is refused, so a unity that binds
        # is a true one and every isomorphism of the products keeps it
        with pytest.raises(InvalidStructureError, match="one index 2 is no multiplicative identity"):
            FiniteMultistructure(z5.elements, z5.add_table, 0, z5.mul_table, one_idx=2)
        no_one = FiniteMultistructure(z5.elements, z5.add_table, 0, z5.mul_table)
        identity = {e: e for e in z5.elements}
        assert find_isomorphism(no_one, z5) == identity
        assert find_isomorphism(z5, no_one) == identity
        rng = random.Random(5)
        for x in _search_tables(6):
            if x.one_idx is None:
                continue
            y = _relabelled(x, rng, one_idx=None)
            assert find_isomorphism(y, x) == _first_isomorphism(y, x), x.name
            assert find_isomorphism(x, y) == _first_isomorphism(x, y), x.name

    def test_a_unity_without_multiplication_binds_nothing(self):
        klein = make_double_coset(direct_product(cyclic_group(2), cyclic_group(2)), frozenset([0]))
        a = FiniteMultistructure(klein.elements, klein.add_table, 0, one_idx=1)
        b = FiniteMultistructure(klein.elements, klein.add_table, 0, one_idx=2)
        assert find_isomorphism(a, b) == {e: e for e in klein.elements}


def _ideals_by_subsets(x: FiniteMultistructure) -> list:
    """Every ideal, by testing each subset that holds zero, in the order of
    itertools.combinations over the non-zero indices."""
    n = len(x.elements)
    rest = [i for i in range(n) if i != x.zero_idx]
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            cand = frozenset((x.zero_idx,) + extra)
            if all(x.add_table[a, b] <= cand for a in cand for b in cand) and all(
                x.mul_table[c, a] in cand for a in cand for c in range(n)
            ):
                out.append(frozenset(x.elements[i] for i in cand))
    return out


def _prime_ideals_by_subsets(x: FiniteMultistructure) -> list:
    out = []
    for members in _ideals_by_subsets(x):
        idx = {x.idx(lbl) for lbl in members}
        if x.one_idx in idx:
            continue
        if all(a in idx or b in idx for (a, b), k in x.mul_table.items() if k in idx):
            to_k = {e: ("0" if e in members else "1") for e in x.elements}
            out.append({"ideal": members, "to_K": to_k})
    return out


def _f2_xy_by_square() -> FiniteMultistructure:
    """F2[x,y]/(x,y)^2, the 8 elements c + c'x + c''y: its maximal ideal
    {0, x, y, x+y} is the join of (x) and (y), and no principal ideal."""
    coeffs = list(itertools.product((0, 1), repeat=3))
    index = {c: i for i, c in enumerate(coeffs)}
    pairs = list(itertools.product(enumerate(coeffs), repeat=2))

    def add(u, v):
        return frozenset({index[tuple((s + t) % 2 for s, t in zip(u, v))]})

    def mul(u, v):
        return index[(u[0] * v[0], (u[0] * v[1] + u[1] * v[0]) % 2, (u[0] * v[2] + u[2] * v[0]) % 2)]

    return FiniteMultistructure(
        elements=tuple("+".join(t for t, c in zip("1xy", cs) if c) or "0" for cs in coeffs),
        add_table={(i, j): add(u, v) for (i, u), (j, v) in pairs},
        zero_idx=0,
        mul_table={(i, j): mul(u, v) for (i, u), (j, v) in pairs},
        one_idx=index[(1, 0, 0)],
        name="F2[x,y]/(x,y)^2",
    )


def _ideal_tables() -> list:
    """K, S, F2, Q1, Z/1-Z/12, every power quotient of at most 12 elements,
    the quotients of Z/n by its unit subgroups and F2[x,y]/(x,y)^2, whose
    ideals are not all principal."""
    tables = [make_krasner(), make_sign(), make_f2(), make_q1(), _f2_xy_by_square()]
    tables += [x for x in _zmod_quotients() if x.mul_table is not None]
    tables += [make_powers_quotient(p, d) for p in (2, 3, 5, 7) for d in range(2, 12)]
    return tables


class TestIdealsAnswer:
    """ideals and prime_ideals answer as the subset enumeration, in order."""

    @pytest.mark.parametrize("relabel", [False, True], ids=["built", "relabelled"])
    def test_ideals_and_prime_ideals_in_order(self, relabel):
        rng = random.Random(12)
        for x in _ideal_tables():
            if relabel:
                x = _relabelled(x, rng)
            assert ideals(x) == _ideals_by_subsets(x), x.name
            assert prime_ideals(x) == _prime_ideals_by_subsets(x), x.name


def _hyperfield_multiplications_by_brute_force(x: FiniteMultistructure) -> list:
    """Every univalued multiplication with 0 absorbing and a unity that makes
    x a hyperfield, in the order of itertools.product over the nonzero cells."""
    n = len(x.elements)
    z = x.zero_idx
    nonzero = [i for i in range(n) if i != z]
    winners = []
    for values in itertools.product(range(n), repeat=len(nonzero) ** 2):
        mul_table = {(i, j): z for i in range(n) for j in range(n) if z in (i, j)}
        mul_table.update(zip(itertools.product(nonzero, repeat=2), values))
        one = next(
            (e for e in nonzero if all(mul_table[e, i] == i == mul_table[i, e] for i in range(n))),
            None,
        )
        if one is None:
            continue
        cand = FiniteMultistructure(
            x.elements, x.add_table, z, mul_table, one, neg_map=x.neg_map, name=x.name
        )
        if check_multiring(FiniteStructure(cand), level="hyperfield").passed:
            winners.append(mul_table)
    return winners


class TestHyperfieldSearchAnswer:
    """search_hyperfield_multiplications answers as the brute force over all
    n^((n-1)^2) tables, in order."""

    def test_small_tables_agree_with_the_brute_force(self):
        for x in _search_tables(3):
            assert search_hyperfield_multiplications(x) == (
                _hyperfield_multiplications_by_brute_force(x)
            ), x.name

    @pytest.mark.parametrize(
        "make, count",
        [(lambda: mul_quotient(make_zmod(7), ["1", "6"]), 3), (lambda: make_zmod(4), 0)],
        ids=["Z7/{1,6}", "Z4"],
    )
    def test_four_element_tables_agree_with_the_brute_force(self, make, count):
        x = make()
        want = _hyperfield_multiplications_by_brute_force(x)
        assert len(want) == count
        assert search_hyperfield_multiplications(x) == want

    def test_tables_tried_per_unit_group_order(self, monkeypatch):
        """Each group G of order k is tried in k!/|Aut G| distinct tables, so
        the counts pin that small_groups holds every group of order 1 to 7."""
        import hyperalg.axioms

        tried = []

        def count(X, level):
            tried.append(X.table.mul_table)
            return hyperalg.axioms.AxiomReport(structure=X.name)

        monkeypatch.setattr(hyperalg.axioms, "check_multiring", count)
        counts = []
        for k in range(1, 8):
            tried.clear()
            assert search_hyperfield_multiplications(make_linear_order(k + 1)) == tried
            assert len({tuple(sorted(t.items())) for t in tried}) == len(tried)
            counts.append(len(tried))
        assert counts == [1, 2, 3, 16, 30, 480, 840]
