"""Finite multigroups and hyperfields: explicit tables, quotients, ideals.

Everything here is exhaustively checkable.  Elements are hashable labels;
tables are kept by index internally and exposed by label.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .tolerance import is_prime


class InvalidStructureError(ValueError):
    pass


_NO_INVERSE = object()  # the inverse-row entry of an element without one


@dataclass
class FiniteMultistructure:
    """Explicit carrier with a set-valued addition table.

    mul_table is None for bare multigroups; neg is derived or supplied.
    The index tables are the definition; add, mul, neg and inv answer by
    label from label tables built once per table, at construction (equal
    sum cells share one frozenset of labels).  Labels must differ in their
    text forms, because the CLI reads and prints elements by their text.
    """

    elements: tuple
    add_table: dict  # (i, j) -> frozenset of indices
    zero_idx: int
    mul_table: dict | None = None  # (i, j) -> index
    one_idx: int | None = None
    neg_map: tuple | None = None
    commutative_add: bool = True
    name: str = ""
    _index: dict = field(default_factory=dict, repr=False)
    _sums: tuple = field(default=(), repr=False)  # [i][j] -> frozenset of labels
    _products: tuple = field(default=(), repr=False)  # [i][j] -> label
    _negs: tuple = field(default=(), repr=False)  # [i] -> label
    _invs: tuple = field(default=(), repr=False)  # [i] -> label or _NO_INVERSE
    _by_text: dict = field(default_factory=dict, repr=False)  # str(label) -> label

    def __post_init__(self) -> None:
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise InvalidStructureError("duplicate element labels")
        n = len(self.elements)
        texts = self._by_text = {}
        for e in self.elements:
            if texts.setdefault(str(e), e) is not e:
                raise InvalidStructureError(
                    f"element labels {texts[str(e)]!r} and {e!r} print alike as {str(e)!r}"
                )
        valid = frozenset(range(n))
        mul = self.mul_table
        for what, idx in (("zero", self.zero_idx), ("one", self.one_idx)):
            if idx is not None and idx not in valid:
                raise InvalidStructureError(f"{what} index {idx!r} is not in 0..{n - 1}")
        for i in range(n):
            for j in range(n):
                cell = self.add_table.get((i, j))
                if not cell:
                    raise InvalidStructureError(f"add table empty or missing at {(i, j)}")
                if not cell <= valid:
                    raise InvalidStructureError(
                        f"add table cell {(i, j)} holds indices outside 0..{n - 1}: {set(cell)}"
                    )
                if mul is not None and mul.get((i, j)) not in valid:
                    raise InvalidStructureError(
                        f"mul table cell {(i, j)} is missing or not in 0..{n - 1}: "
                        f"{mul.get((i, j))!r}"
                    )
        # every n x n cell is present, so a longer table has a cell outside
        for what, table in (("add", self.add_table), ("mul", mul)):
            if table is not None and len(table) > n * n:
                inside = set(itertools.product(range(n), repeat=2))
                cell = next(ij for ij in table if ij not in inside)
                raise InvalidStructureError(
                    f"{what} table cell {cell!r} is outside the carrier 0..{n - 1}"
                )
        one = self.one_idx
        if mul is not None and one is not None:
            for i in range(n):
                if mul[(one, i)] != i or mul[(i, one)] != i:
                    raise InvalidStructureError(
                        f"one index {one} is no multiplicative identity: the products of "
                        f"{one} and {i} are {mul[(one, i)]} and {mul[(i, one)]}, not {i}"
                    )
        if self.neg_map is None:
            self.neg_map = self._derive_neg()
        elif len(self.neg_map) != n or not set(self.neg_map) <= valid:
            raise InvalidStructureError(
                f"neg_map must give one index in 0..{n - 1} per element, got {self.neg_map!r}"
            )
        self._build_label_tables()

    def _derive_neg(self) -> tuple:
        n = len(self.elements)
        neg = []
        for i in range(n):
            cands = [j for j in range(n) if self.zero_idx in self.add_table[(i, j)]]
            if len(cands) != 1:
                raise InvalidStructureError(
                    f"element {self.elements[i]!r} has {len(cands)} additive inverses"
                )
            neg.append(cands[0])
        return tuple(neg)

    def _build_label_tables(self) -> None:
        """The label-level rows that add, mul, neg and inv read."""
        els, n = self.elements, len(self.elements)
        cells = [[self.add_table[(i, j)] for j in range(n)] for i in range(n)]
        distinct = {cell for row in cells for cell in row}
        labels = {cell: frozenset(els[k] for k in cell) for cell in distinct}
        self._sums = tuple(tuple(labels[cell] for cell in row) for row in cells)
        self._negs = tuple(els[k] for k in self.neg_map)
        if self.mul_table is None:
            return
        rows = [[self.mul_table[(i, j)] for j in range(n)] for i in range(n)]
        self._products = tuple(tuple(els[k] for k in row) for row in rows)
        one = self.one_idx
        self._invs = tuple(
            next((els[j] for j, k in enumerate(row) if k == one and rows[j][i] == one), _NO_INVERSE)
            for i, row in enumerate(rows)
        )

    # label-level operations: one lookup in a label table; on an unknown
    # label the KeyError falls back to idx, which names it
    def idx(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidStructureError(f"unknown element {label!r}") from None

    def add(self, a, b) -> frozenset:
        try:
            return self._sums[self._index[a]][self._index[b]]
        except KeyError:
            return self._sums[self.idx(a)][self.idx(b)]

    def mul(self, a, b):
        if self.mul_table is None:
            raise InvalidStructureError(f"{self.name or 'structure'} has no multiplication")
        try:
            return self._products[self._index[a]][self._index[b]]
        except KeyError:
            return self._products[self.idx(a)][self.idx(b)]

    def neg(self, a):
        try:
            return self._negs[self._index[a]]
        except KeyError:
            return self._negs[self.idx(a)]

    @property
    def zero(self):
        return self.elements[self.zero_idx]

    @property
    def one(self):
        if self.one_idx is None:
            raise InvalidStructureError(f"{self.name or 'structure'} has no unity")
        return self.elements[self.one_idx]

    def inv(self, a):
        """The first j with a*j = j*a = 1."""
        if self.mul_table is None or self.one_idx is None:
            raise InvalidStructureError("no multiplicative structure")
        try:
            b = self._invs[self._index[a]]
        except KeyError:
            b = self._invs[self.idx(a)]
        if b is _NO_INVERSE:
            raise ZeroDivisionError(f"{a!r} has no multiplicative inverse")
        return b

    def to_json(self) -> str:
        import json

        data = {
            "elements": [str(e) for e in self.elements],
            "add": {
                f"{i},{j}": sorted(cell)
                for (i, j), cell in sorted(self.add_table.items())
            },
            "zero": self.zero_idx,
        }
        if self.mul_table is not None:
            data["mul"] = {f"{i},{j}": k for (i, j), k in sorted(self.mul_table.items())}
        if self.one_idx is not None:
            data["one"] = self.one_idx
        if self.name:
            data["name"] = self.name
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FiniteMultistructure":
        """Parse a table written by to_json; the shape is checked first, so a
        malformed table raises InvalidStructureError naming the key."""
        import json

        data = json.loads(text)
        if not isinstance(data, dict):
            raise InvalidStructureError("the table must be a JSON object")
        for key in ("elements", "add", "zero"):
            if key not in data:
                raise InvalidStructureError(f"missing key {key!r}")
        elements = data["elements"]
        if not isinstance(elements, list) or not all(
            isinstance(e, (str, int, float)) for e in elements
        ):
            raise InvalidStructureError("key 'elements' must be a list of labels")
        for key in ("zero", "one"):
            if key in data and not _is_index(data[key]):
                raise InvalidStructureError(f"key {key!r} must be an integer index")
        add_cells = _cells(data, "add", lambda c: isinstance(c, list) and all(map(_is_index, c)))
        add_table = {ij: frozenset(cell) for ij, cell in add_cells}
        mul_table = dict(_cells(data, "mul", _is_index)) if "mul" in data else None
        return cls(
            elements=tuple(elements),
            add_table=add_table,
            zero_idx=data["zero"],
            mul_table=mul_table,
            one_idx=data.get("one"),
            name=data.get("name", ""),
        )

    @classmethod
    def load(cls, path: str) -> "FiniteMultistructure":
        """Read a table file; errors in its content name the file."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except ValueError as exc:  # bad JSON, encoding or shape; OSError names the file
            raise InvalidStructureError(f"{path}: {exc}") from None


def _is_index(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _cells(data: dict, key: str, valid) -> list:
    """The `"i,j": value` entries of a table key as ((i, j), value) pairs."""
    table = data[key]
    if not isinstance(table, dict):
        raise InvalidStructureError(f"key {key!r} must be an object of \"i,j\" cells")
    out = []
    for name, value in table.items():
        try:
            i, j = (int(v) for v in name.split(","))
        except ValueError:
            raise InvalidStructureError(f"key {key!r} has a malformed cell name {name!r}") from None
        if not valid(value):
            raise InvalidStructureError(f"key {key!r} has an invalid cell {name!r}: {value!r}")
        out.append(((i, j), value))
    return out


def _table(n: int, fn) -> dict:
    return {(i, j): frozenset(fn(i, j)) for i in range(n) for j in range(n)}


def _partition(n: int, key) -> tuple[list, dict]:
    """Classes of 0..n-1 under equal `key`, in first-seen order, with each
    index's class number."""
    number: dict = {}
    class_of = {i: number.setdefault(key(i), len(number)) for i in range(n)}
    return list(number), class_of


def _induced(members: list, class_of: dict, op) -> dict:
    """The table that `op` (two indices -> indices) induces on the classes
    `members` (index collections): cell (ci, cj) holds the class of every
    index in op(a, b) for a in class ci and b in class cj."""
    m = range(len(members))
    return {
        (ci, cj): frozenset(
            class_of[k] for a in members[ci] for b in members[cj] for k in op(a, b)
        )
        for ci in m
        for cj in m
    }


def _bracket_labels(x: FiniteMultistructure, members: list) -> tuple:
    """`[a,b]` labels of classes of x's indices."""
    return tuple("[" + ",".join(str(x.elements[i]) for i in sorted(c)) + "]" for c in members)


# ---------------------------------------------------------------------------
# named constructors


def make_krasner() -> FiniteMultistructure:
    """K = {0, 1} with 1+1 = {0, 1} and trivial multiplication."""

    def add(i, j):
        if i == 0:
            return {j}
        if j == 0:
            return {i}
        return {0, 1}

    return FiniteMultistructure(
        elements=("0", "1"),
        add_table=_table(2, add),
        zero_idx=0,
        mul_table={(i, j): (1 if i == 1 and j == 1 else 0) for i in range(2) for j in range(2)},
        one_idx=1,
        name="K",
    )


def make_sign() -> FiniteMultistructure:
    """S = {-1, 0, 1}: idempotent, with (-1) + 1 = {-1, 0, 1}."""
    vals = (0, 1, -1)

    def add(i, j):
        if i == 0:
            return {j}
        if j == 0:
            return {i}
        if i == j:
            return {i}
        return {0, 1, 2}

    mul = {(i, j): vals.index(vals[i] * vals[j]) for i in range(3) for j in range(3)}
    return FiniteMultistructure(
        elements=tuple(map(str, vals)),
        add_table=_table(3, add),
        zero_idx=0,
        mul_table=mul,
        one_idx=1,
        name="S",
    )


def make_M() -> FiniteMultistructure:
    """The published three-element table M: 1+1 = 2, 1+2 = {0,1}, 2+2 = {1,2}.

    It is not a multigroup: 2 is in 2+2 while -2 = 1 is not in 1+1, so it
    fails the reversal axiom (see README).
    """
    cells = {
        (0, 0): {0},
        (0, 1): {1},
        (0, 2): {2},
        (1, 0): {1},
        (2, 0): {2},
        (1, 1): {2},
        (1, 2): {0, 1},
        (2, 1): {0, 1},
        (2, 2): {1, 2},
    }
    return FiniteMultistructure(
        elements=("0", "1", "2"),
        add_table={k: frozenset(v) for k, v in cells.items()},
        zero_idx=0,
        name="M",
    )


def make_linear_order(n: int, strict: bool = False) -> FiniteMultistructure:
    """Multigroup on the chain 0 < 1 < ... < n-1 with max/down-set addition."""
    if n < 1:
        raise InvalidStructureError("chain length must be >= 1")

    def add(i, j):
        if i != j:
            return {max(i, j)}
        if strict:
            return {k for k in range(i)} if i != 0 else {0}
        return {k for k in range(i + 1)}

    return FiniteMultistructure(
        elements=tuple(str(k) for k in range(n)),
        add_table=_table(n, add),
        zero_idx=0,
        neg_map=tuple(range(n)),
        name=f"chain{n}{'-strict' if strict else ''}",
    )


def make_f2() -> FiniteMultistructure:
    """The field F2 presented with singleton sums: Z/2 named F2."""
    f = make_zmod(2)
    f.name = "F2"
    return f


def make_q1() -> FiniteMultistructure:
    q = make_krasner()
    q.name = "Q1"
    return q


def make_zmod(n: int) -> FiniteMultistructure:
    """The ring Z/n viewed as a multiring with singleton sums."""
    if n < 1:
        raise InvalidStructureError("modulus must be >= 1")
    return FiniteMultistructure(
        elements=tuple(str(k) for k in range(n)),
        add_table=_table(n, lambda i, j: {(i + j) % n}),
        zero_idx=0,
        mul_table={(i, j): (i * j) % n for i in range(n) for j in range(n)},
        one_idx=1 % n if n > 1 else 0,
        name=f"Z{n}",
    )


# ---------------------------------------------------------------------------
# groups and double cosets


@dataclass(frozen=True)
class Group:
    """A finite group by its index multiplication table.

    The identity is index 0: every constructor here puts it first, and
    `inverse`, `all_subgroups` and `make_double_coset` rely on it.
    """

    name: str
    elements: tuple
    table: dict  # (i, j) -> k

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[(i, j)]

    def inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.mul(i, j) == 0:
                return j
        raise InvalidStructureError("group element has no inverse")


def cyclic_group(n: int) -> Group:
    return Group(
        f"Z{n}",
        tuple(range(n)),
        {(i, j): (i + j) % n for i in range(n) for j in range(n)},
    )


def direct_product(g: Group, h: Group) -> Group:
    pairs = list(itertools.product(range(g.order), range(h.order)))
    idx = {p: k for k, p in enumerate(pairs)}
    table = {}
    for a, (i1, j1) in enumerate(pairs):
        for b, (i2, j2) in enumerate(pairs):
            table[(a, b)] = idx[(g.mul(i1, i2), h.mul(j1, j2))]
    return Group(f"{g.name}x{h.name}", tuple(pairs), table)


def dihedral_group(n: int) -> Group:
    """D_n of order 2n: elements (rotation, flip)."""
    els = [(r, f) for f in (0, 1) for r in range(n)]
    idx = {e: k for k, e in enumerate(els)}
    table = {}
    for a, (r1, f1) in enumerate(els):
        for b, (r2, f2) in enumerate(els):
            if f1 == 0:
                prod = ((r1 + r2) % n, f2)
            else:
                prod = ((r1 - r2) % n, 1 - f2)
            table[(a, b)] = idx[prod]
    return Group(f"D{n}", tuple(els), table)


def quaternion_group() -> Group:
    """Q8 as signed units {±1, ±i, ±j, ±k}, multiplied as quaternions."""
    from .qsets import QuatElem

    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    units = [
        QuatElem(*(sign * (axis == k) for k in range(4))) for axis in range(4) for sign in (1, -1)
    ]
    idx = {u: k for k, u in enumerate(units)}
    table = {(a, b): idx[x.times(y)] for a, x in enumerate(units) for b, y in enumerate(units)}
    return Group("Q8", names, table)


def symmetric3() -> Group:
    g = dihedral_group(3)
    return Group("S3", g.elements, g.table)


def small_groups(max_order: int = 8) -> list[Group]:
    """All groups of order <= max_order up to isomorphism (max_order <= 8)."""
    if max_order > 8:
        raise InvalidStructureError("small group table only covers order <= 8")
    groups = [cyclic_group(n) for n in range(1, max_order + 1)]
    extras = []
    if max_order >= 4:
        extras.append(direct_product(cyclic_group(2), cyclic_group(2)))
    if max_order >= 6:
        extras.append(symmetric3())
    if max_order >= 8:
        extras.append(direct_product(cyclic_group(2), cyclic_group(4)))
        extras.append(
            direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2)))
        )
        extras.append(dihedral_group(4))
        extras.append(quaternion_group())
    return groups + extras


def all_subgroups(g: Group) -> list[frozenset]:
    """Every subgroup, found by closing each subset seed (order <= 8)."""
    found = {frozenset([0])}
    for seed_size in (1, 2, 3):
        for seed in itertools.combinations(range(g.order), seed_size):
            cur = set(seed) | {0}
            while True:
                nxt = set(cur)
                for a in cur:
                    nxt.add(g.inverse(a))
                    for b in cur:
                        nxt.add(g.mul(a, b))
                if nxt == cur:
                    break
                cur = nxt
            found.add(frozenset(cur))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def make_double_coset(g: Group, subgroup: frozenset) -> FiniteMultistructure:
    """Multigroup of double cosets HgH with (HaH)(HbH) = {HahbH : h in H},
    the group product induced on the double-coset partition."""
    hs = sorted(subgroup)
    if 0 not in subgroup:
        raise InvalidStructureError("subgroup must contain the identity")
    for a in hs:
        if g.inverse(a) not in subgroup:
            raise InvalidStructureError("subgroup not closed under inverses")
        for b in hs:
            if g.mul(a, b) not in subgroup:
                raise InvalidStructureError("subgroup not closed under product")

    def coset(x: int) -> frozenset:
        return frozenset(g.mul(g.mul(h1, x), h2) for h1 in hs for h2 in hs)

    cosets, coset_of = _partition(g.order, coset)
    return FiniteMultistructure(
        elements=tuple("{" + ",".join(str(x) for x in sorted(c)) + "}" for c in cosets),
        add_table=_induced(cosets, coset_of, lambda a, b: (g.mul(a, b),)),
        zero_idx=coset_of[0],
        commutative_add=False,
        name=f"{g.name}//H{len(hs)}",
    )


# ---------------------------------------------------------------------------
# quotients


def mul_quotient(x: FiniteMultistructure, s_labels) -> FiniteMultistructure:
    """Multiplicative factorization X/S: a ~ b iff s*a = t*b for s, t in S."""
    if x.mul_table is None:
        raise InvalidStructureError("multiplicative quotient needs a multiplication")
    s_idx = {x.idx(lbl) for lbl in s_labels}
    if not s_idx:
        raise InvalidStructureError("S must be nonempty")
    for i in s_idx:
        for j in s_idx:
            if x.mul_table[(i, j)] not in s_idx:
                raise InvalidStructureError("S not multiplicatively closed")
    n = len(x.elements)
    if x.zero_idx in s_idx:
        zero = x.elements[x.zero_idx]
        return FiniteMultistructure(
            elements=(f"[{zero}]",),
            add_table={(0, 0): frozenset([0])},
            zero_idx=0,
            mul_table={(0, 0): 0},
            one_idx=0,
            name=f"{x.name}/mS",
        )
    # union-find over the relation  s*a == t*b
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    prod = {}
    for a in range(n):
        prod[a] = {x.mul_table[(s, a)] for s in s_idx}
    for a in range(n):
        for b in range(a + 1, n):
            if prod[a] & prod[b]:
                join(a, b)
    # a root is its class's least index, so first-seen order is root order
    roots, class_of = _partition(n, find)
    members: list[list[int]] = [[] for _ in roots]
    for i in range(n):
        members[class_of[i]].append(i)
    products = _induced(members, class_of, lambda a, b: (x.mul_table[(a, b)],))
    if any(len(cell) != 1 for cell in products.values()):
        raise InvalidStructureError("quotient multiplication not well defined")
    one_idx = class_of[x.one_idx] if x.one_idx is not None else None
    return FiniteMultistructure(
        elements=_bracket_labels(x, members),
        add_table=_induced(members, class_of, lambda a, b: x.add_table[(a, b)]),
        zero_idx=class_of[x.zero_idx],
        mul_table={ij: k for ij, (k,) in products.items()},
        one_idx=one_idx,
        name=f"{x.name}/mS",
    )


def make_powers_quotient(p: int, depth: int) -> FiniteMultistructure:
    """Z factored by the multiplicatively closed set of non-multiples of p,
    truncated to `depth` powers with an absorbing bottom class.

    Classes are 0 and p^0 .. p^(depth-1); dominance is by divisibility, so
    the order is reversed: higher powers sit lower.  For p = 2 the tie branch
    is strict (the complement classes cancel); for odd p it is non-strict.
    """
    if not is_prime(p):
        raise InvalidStructureError(f"{p} is not prime")
    if depth < 2:
        raise InvalidStructureError("depth must be >= 2")
    labels = ("0",) + tuple(f"{p}^{k}" for k in range(depth))
    n = depth + 1
    bottom = depth  # index of p^(depth-1), the absorbing class

    def below(i: int, strict: bool) -> set:
        # indexes deeper than power-index i in the reversed order, plus 0
        out = {0} | set(range(i + 1, n))
        if not strict:
            out.add(i)
        if i == bottom:
            out.add(bottom)  # absorbed deeper powers keep the bottom class
        return out

    # dominance: smaller power index = larger norm wins
    def add(i, j):
        if i == 0:
            return {j}
        if j == 0:
            return {i}
        if i != j:
            return {min(i, j)}
        return below(i, strict=(p == 2))

    return FiniteMultistructure(
        elements=labels,
        add_table=_table(n, add),
        zero_idx=0,
        mul_table={
            (i, j): 0 if i == 0 or j == 0 else min(i + j - 2, depth - 1) + 1
            for i in range(n)
            for j in range(n)
        },
        one_idx=1,
        neg_map=tuple(range(n)),
        name=f"powers:{p}:{depth}",
    )


def quotient_by_normal(x: FiniteMultistructure, y_labels) -> FiniteMultistructure:
    """Quotient by a strong normal submultigroup; the projection is strong."""
    y = {x.idx(lbl) for lbl in y_labels}
    n = len(x.elements)
    if x.zero_idx not in y:
        raise InvalidStructureError("submultigroup must contain zero")
    for i in y:
        if x.neg_map[i] not in y:
            raise InvalidStructureError("submultigroup not closed under negation")
        for j in y:
            if not x.add_table[(i, j)] <= y:
                raise InvalidStructureError(
                    f"not a strong submultigroup: {x.elements[i]}+{x.elements[j]} leaves Y"
                )

    def orbit(a: int) -> frozenset:
        return frozenset(k for i in y for k in x.add_table[(a, i)])

    # normality as two-sided coset agreement: a + Y == Y + a for every a.
    # (The conjugation form (-a)+Y+a inflates in a multigroup: already in the
    # sign carrier (-1)+0+1 covers everything, which would reject Y = {0}
    # while kernels are supposed to be normal.)
    for a in range(n):
        if orbit(a) != {k for i in y for k in x.add_table[(i, a)]}:
            raise InvalidStructureError(f"submultigroup not normal at {x.elements[a]!r}")

    classes, class_of = _partition(n, orbit)
    return FiniteMultistructure(
        elements=_bracket_labels(x, classes),
        add_table=_induced(classes, class_of, lambda a, b: x.add_table[(a, b)]),
        zero_idx=class_of[x.zero_idx],
        name=f"{x.name}/Y",
    )


# ---------------------------------------------------------------------------
# ideals and isomorphisms


_IDEALS_MAX_SIZE = 12  # largest carrier whose ideals are listed
_SEARCH_MAX_SIZE = 8  # largest carrier whose multiplications are searched


def ideals(x: FiniteMultistructure) -> list[frozenset]:
    """All ideals (label sets) of a commutative multiring, in the order of
    itertools.combinations over the non-zero indices: the sets holding zero,
    each sum of two members and each product c*a of a member a.  Found by
    closure, not by trying subsets: the least ideal holding each index, then
    the least holding an ideal found and one of those.  There can still be
    exponentially many ideals, hence the cap."""
    if x.mul_table is None:
        raise InvalidStructureError("ideals need a multiplication")
    n, r = len(x.elements), range(len(x.elements))
    if n > _IDEALS_MAX_SIZE:
        raise InvalidStructureError(f"carrier too large for enumeration ({n} > {_IDEALS_MAX_SIZE})")
    # cell (i, j) at i * n + j
    add = list(map(x.add_table.__getitem__, itertools.product(r, r)))
    mul = list(map(x.mul_table.__getitem__, itertools.product(r, r)))

    def close(ideal: set, todo: list) -> frozenset:
        # every cell among members of `ideal` outside `todo` is inside it
        while todo and len(ideal) < n:
            a = todo.pop()
            row, col = add[a * n : a * n + n], add[a::n]  # a+b and b+a by b
            new = set(mul[a::n]).union(*map(row.__getitem__, ideal), *map(col.__getitem__, ideal))
            todo += new - ideal
            ideal |= new
        return frozenset(ideal)

    zero = close({x.zero_idx}, [x.zero_idx])
    principal = [zero if a in zero else close({a, *zero}, [a]) for a in r]
    found = list(dict.fromkeys(principal))
    for ideal in found:
        for p in principal:
            bigger = ideal | p
            if bigger not in found and (bigger := close(set(bigger), list(p - ideal))) not in found:
                found.append(bigger)
    # every ideal holds zero, so sorted indices order them as the non-zero ones do
    found.sort(key=lambda s: (len(s), sorted(s)))
    return [frozenset(map(x.elements.__getitem__, s)) for s in found]


def prime_ideals(x: FiniteMultistructure) -> list[dict]:
    """Prime ideals with their characteristic-function maps onto K.

    Each entry holds the ideal's labels and the map `to_K` sending members to
    "0" and everything else to "1".
    """
    out = []
    for members in ideals(x):
        rest = [i for i, e in enumerate(x.elements) if e not in members]
        products = (x._products[a][b] for a in rest for b in rest)
        # proper (one is no member) and prime (no product of two non-members is one)
        if (x.one_idx is None or x.one_idx in rest) and members.isdisjoint(products):
            to_k = {e: ("0" if e in members else "1") for e in x.elements}
            out.append({"ideal": members, "to_K": to_k})
    return out


def _shape(x: FiniteMultistructure, units: bool) -> list:
    """Per index c, what every isomorphism keeps: being zero (and one, when
    `units`), |c+c|, whether 0 is in c+c and whether c*c is c, 0 or 1."""
    z, one, zero, mul = x.zero_idx, x.one_idx if units else -1, x.zero, x.mul_table
    if mul is None:
        return [(c == z, len(row[c]), zero in row[c]) for c, row in enumerate(x._sums)]
    return [
        (c == z, c == one, len(row[c]), zero in row[c], m == c, m == z, m == one)
        for c, row in enumerate(x._sums)
        for m in (mul[c, c],)
    ]


def find_isomorphism(a: FiniteMultistructure, b: FiniteMultistructure) -> dict | None:
    """The first isomorphism a -> b in permutation order (a label map), or
    None.  Zero maps to zero, and one to one when both multiply and declare
    a unity.  Depth first over a's indices in ascending order, each trying
    b's unused indices of equal `_shape` invariants in ascending order; a
    choice among several is dropped as soon as a cell among mapped indices
    disagrees, and every complete map is verified in full.  The cells are
    read from the label rows each table builds once."""
    n, ea, eb = len(a.elements), a.elements, b.elements
    if n != len(eb) or (a.mul_table is None) != (b.mul_table is None):
        return None
    units = a.mul_table is not None and a.one_idx is not None and b.one_idx is not None
    key_a, key_b = _shape(a, units), _shape(b, units)
    images: dict = {}
    for j, key in enumerate(key_b):
        images.setdefault(key, []).append(j)
    perm, iso, seen = [-1] * n, {}, {}  # a's index -> b's; a's label -> b's; b's used labels

    def verified() -> bool:  # a's cells, mapped, are b's cells at the mapped pairs
        cells = list(itertools.chain.from_iterable(a._sums))
        image = {s: frozenset(map(iso.__getitem__, s)) for s in set(cells)}
        sums = [row[v] for row in map(b._sums.__getitem__, perm) for v in perm]
        if list(map(image.__getitem__, cells)) != sums:
            return False
        if a.mul_table is None:
            return True
        products = map(iso.__getitem__, itertools.chain.from_iterable(a._products))
        return list(products) == [
            row[v] for row in map(b._products.__getitem__, perm) for v in perm
        ]

    def agree(i: int, k: int, j: int, pk: int) -> bool:
        # a's cell (i, k) and b's (j, pk): mapped members onto used ones, the rest None
        s, t = a._sums[i][k], b._sums[j][pk]
        if len(s) != len(t) or set(map(iso.get, s)) != set(map(seen.get, t)):
            return False
        return a.mul_table is None or iso.get(a._products[i][k]) == seen.get(b._products[j][pk])

    def extend(i: int) -> bool:
        if i == n:
            return verified()
        options = [j for j in images.get(key_a[i], ()) if eb[j] not in seen]
        for j in options:
            perm[i], iso[ea[i]], seen[eb[j]] = j, eb[j], eb[j]
            if (
                len(options) == 1  # no choice: left to the full verification
                or agree(i, i, j, j)
                and all(agree(i, k, j, perm[k]) and agree(k, i, perm[k], j) for k in range(i))
            ) and extend(i + 1):
                return True
            del iso[ea[i]], seen[eb[j]]
        return False

    return dict(iso) if extend(0) else None


def search_hyperfield_multiplications(x: FiniteMultistructure) -> list[dict]:
    """The univalued multiplications that make x a hyperfield (empty list
    when none exist), in the lexicographic order of their nonzero cells.

    In a hyperfield 0 absorbs and the nonzero elements form a group, so the
    candidates are the tables of the groups of order n-1 (`small_groups`),
    carried onto the nonzero indices by every bijection; each distinct
    table is checked once."""
    from .axioms import check_multiring
    from .structures import FiniteStructure

    n = len(x.elements)
    if n > _SEARCH_MAX_SIZE:
        raise InvalidStructureError(
            f"hyperfield search over {n} elements would relabel every group of order "
            f"{n - 1}; it takes at most {_SEARCH_MAX_SIZE} elements"
        )
    z = x.zero_idx
    nonzero = [i for i in range(n) if i != z]
    cells = list(itertools.product(nonzero, repeat=2))
    unity_of = {}  # nonzero cells -> unity
    for g in small_groups(n - 1):
        if g.order == n - 1:
            for perm in itertools.permutations(nonzero):
                relabelled = {(perm[a], perm[b]): perm[c] for (a, b), c in g.table.items()}
                unity_of.setdefault(tuple(relabelled[c] for c in cells), perm[0])
    winners = []
    for values, one in sorted(unity_of.items()):
        mul_table = {(i, j): z for i in range(n) for j in range(n) if z in (i, j)}
        mul_table.update(zip(cells, values))
        cand = FiniteMultistructure(
            elements=x.elements,
            add_table=x.add_table,
            zero_idx=z,
            mul_table=mul_table,
            one_idx=one,
            neg_map=x.neg_map,
            name=f"{x.name}+mul",
        )
        if check_multiring(FiniteStructure(cand), level="hyperfield").passed:
            winners.append(mul_table)
    return winners
