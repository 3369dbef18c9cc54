"""The four seeded workloads of the hyperalg benchmark.

Each workload builds one *round* of units from its seed; the timed run repeats
that round until the time is up, so every run of a seed does the same work.
A unit returns `(ops, errors)`: the operations it completed and one message
per wrong verdict, fold, exit code or output.  See README.md in this
directory for why each workload exists and what each layer metric predicts.
"""
from __future__ import annotations

import functools
import io
import itertools
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# ---------------------------------------------------------------------------
# sweep_sampled: verify every continuous carrier


# (registry name, check_multiring level or None for the full multigroup check,
#  whether check_double_distributivity runs); padic carriers are not multirings
SWEEP_CARRIERS = [
    ("TC", "hyperfield", True),
    ("TR", "hyperfield", True),
    ("Phi", "hyperfield", True),
    ("tri", "hyperfield", True),
    ("ultra", "hyperfield", True),
    ("trop", "hyperfield", True),
    ("amoeba", "hyperfield", True),
    ("mono", "hyperfield", True),
    ("quat", None, True),
    ("padic:2:8", "hyperfield", False),
    ("padic:3:8", "hyperfield", False),
    ("padic:5:8", "hyperfield", False),
]
# documented defects of the source (README): the only red rows of the sweep
SWEEP_RED = {f"padic:{p}:8": ["associativity", "negation-unique"] for p in (2, 3, 5)}
# At 2000 tuples the p-adic negation-unique witness was found for every one of
# 150 seeds per prime; at 1000 it was missed for about 1% of the seeds at p=5.
SWEEP_BUDGET = 2000
DD_BUDGET = 1000
HOM_BUDGET = 400
W_BUDGET = 3000

# criterion 5: (label, domain, codomain, map)
HOM_CASES = [
    ("sign R->S", "R", "S", "sign"),
    ("S->K", "S", "K", "collapse"),
    ("phase C->Phi", "C", "Phi", "phase_map"),
    ("phase TC->Phi", "TC", "Phi", "phase_map"),
    ("abs C->tri", "C", "tri", "abs_map"),
    ("abs TC->tri", "TC", "tri", "abs_map"),
    ("abs TC->ultra", "TC", "ultra", "abs_map"),
    ("logabs TC->trop", "TC", "trop", "log_abs"),
    ("logabs C->amoeba", "C", "amoeba", "log_abs"),
]


def _hom_fn(homs, kind: str):
    # resolved when the unit runs, so that a traced run sees the wrapped map
    if kind == "sign":
        return lambda v: {1: "1", -1: "-1", 0: "0"}[homs.sign_map(v)]
    if kind == "collapse":
        return lambda lbl: "0" if lbl == "0" else "1"
    return getattr(homs, kind)


def _check_carrier(X, level, seed: str):
    from hyperalg import axioms

    rng = random.Random(seed)
    if level is None:
        rep = axioms.check_multigroup(X, "full", SWEEP_BUDGET, rng)
    else:
        rep = axioms.check_multiring(X, level, SWEEP_BUDGET, rng)
    errors = []
    red = sorted({c.axiom for c in rep.failures()})
    expected = SWEEP_RED.get(X.name, [])
    if red != expected:
        errors.append(f"{X.name}: red axioms {red}, expected {expected}")
    for c in rep.failures():
        if c.witness is None or axioms.replay(X, c):
            errors.append(f"{X.name}: {c.axiom} witness {c.witness_text} does not replay false")
    return rep.tuples_checked, errors


def _check_dd(X, seed: str):
    from hyperalg import axioms

    try:
        rep = axioms.check_double_distributivity(X, DD_BUDGET, random.Random(seed))
    except axioms.DoubleDistributivityViolation as exc:
        return 1, [f"{X.name}: {exc}"]
    return rep.tuples_checked, []


def _check_map(label: str, kind: str, X, Y, seed: str):
    from hyperalg import axioms, homs

    rep = axioms.check_hom(_hom_fn(homs, kind), X, Y, budget=HOM_BUDGET,
                           rng=random.Random(seed), name=label)
    errors = [] if rep.is_homomorphism else [f"{label} failed at {rep.witness_text}"]
    return rep.pairs_checked, errors


def _check_w(seed: str):
    from hyperalg import homs

    rep = homs.check_w_hom(budget=W_BUDGET, rng=random.Random(seed))
    errors = [] if rep.additive and rep.multiplicative else [f"w-map failed at {rep.witness_text}"]
    return rep.pairs_checked, errors


def _check_not_hom(X, Y, seed: str):
    """Modulus into max-plus is no homomorphism: it must fail at a cancelling pair."""
    from hyperalg import axioms, homs

    rep = axioms.check_hom(homs.abs_map, X, Y, budget=HOM_BUDGET,
                           rng=random.Random(seed), name="modulus->maxplus")
    if rep.is_homomorphism:
        return rep.pairs_checked, ["modulus into max-plus unexpectedly passed"]
    a, b = rep.witness
    if not (a.eq(-b) or abs(a.modulus - b.modulus) < 1e-9):
        return rep.pairs_checked, [f"modulus->maxplus witness {rep.witness_text} is not a cancelling pair"]
    return rep.pairs_checked, []


def sweep_round(seed: int) -> list:
    """One unit per verdict: each carrier's axiom check, its double
    distributivity check, and each check of the criterion-5 suite.  With the
    checks apart, the median unit falls inside the dense cluster of 30-65 ms
    checks instead of on a gap between a few long ones."""
    from hyperalg import structures

    get = functools.lru_cache(maxsize=None)(structures.get_structure)
    units = []
    for name, level, dd in SWEEP_CARRIERS:
        X = get(name)
        units.append((name, functools.partial(_check_carrier, X, level, f"{seed}:{name}")))
        if dd:
            units.append((f"{name}:dd", functools.partial(_check_dd, X, f"{seed}:{name}:dd")))
    for label, src, dst, kind in HOM_CASES:
        units.append((label, functools.partial(_check_map, label, kind, get(src), get(dst),
                                               f"{seed}:{label}")))
    units.append(("w", functools.partial(_check_w, f"{seed}:w")))
    units.append(("maxplus", functools.partial(_check_not_hom, get("TC"), get("maxplus"),
                                               f"{seed}:maxplus")))
    return units


# ---------------------------------------------------------------------------
# fold_oracle: every permutation fold against the closed form (criterion 4)

# cases per summand count, per family.  The mix is the same for every seed (a
# 6-summand case folds 720 permutations, a 3-summand one 6), and it is skewed
# so that the median unit falls among the 4-summand complex / 5-summand
# triangle cases and the p90 unit inside the 6-summand complex cases, never on
# the edge between two size classes.
CT_SIZES = {3: 10, 4: 10, 5: 20, 6: 16}
TRI_SIZES = {3: 10, 4: 10, 5: 20, 6: 8}


def _ct_case(shape: random.Random, rng: random.Random, n: int) -> list:
    """Criterion 4's summands.  `shape` picks which summands tie at the top
    modulus, pair up antipodally or are free; `rng` picks the values."""
    from hyperalg.csets import ComplexElem

    two_pi = 2 * math.pi
    base = math.exp(rng.uniform(-1, 1))
    vals = []
    for _ in range(n):
        mode = shape.random()
        if mode < 0.45:
            vals.append(ComplexElem(base, rng.uniform(0, two_pi)))  # ties at the max
        elif mode < 0.6 and vals:
            vals.append(-vals[-1])  # antipodal pair
        else:
            vals.append(ComplexElem(math.exp(rng.uniform(-1, 1)), rng.uniform(0, two_pi)))
    return vals


def _tri_case(shape: random.Random, rng: random.Random, n: int) -> list:
    vals = [abs(rng.gauss(0, 2)) for _ in range(n)]
    if shape.random() < 0.3:
        vals[shape.randrange(n)] = max(vals) * 3  # dominant entry
    return vals


def _fold_ct(vals: list):
    from hyperalg import csets, ctrop

    closed = ctrop.ct_sum_n(vals)
    ops = 0
    errors = []
    for perm in itertools.permutations(vals):
        acc = csets.CPoint(perm[0])
        for v in perm[1:]:
            acc = ctrop.ct_add_sets(acc, csets.CPoint(v))
        ops += 1
        if not csets.set_eq(acc, closed):
            errors.append(f"ct fold {perm} = {acc}, closed form {closed}")
    return ops, errors


def _fold_tri(vals: list):
    from hyperalg import realhf, rsets

    closed = realhf.tri_sum_n(vals)
    ops = 0
    errors = []
    for perm in itertools.permutations(vals):
        acc = rsets.rpoint(perm[0])
        for v in perm[1:]:
            acc = realhf.tri_add_sets(acc, rsets.rpoint(v))
        ops += 1
        if not rsets.rset_eq(acc, closed):
            errors.append(f"tri fold {perm} = {acc}, closed form {closed}")
    return ops, errors


def fold_round(seed: int) -> list:
    # the branch pattern of each case is the same for every seed, so that the
    # seed moves the values and not the amount of work
    shape = random.Random("fold-shape")
    rng = random.Random(f"{seed}:fold")
    units = []
    for n in CT_SIZES:
        for _ in range(CT_SIZES[n]):
            units.append((f"ct{n}", functools.partial(_fold_ct, _ct_case(shape, rng, n))))
        for _ in range(TRI_SIZES[n]):
            units.append((f"tri{n}", functools.partial(_fold_tri, _tri_case(shape, rng, n))))
    return units


# ---------------------------------------------------------------------------
# finite_exhaustive: exhaustive checks of every finite table

# documented defect of the source table M (README): reversal fails in the
# full check, hence reversibility in the minimal one
FINITE_RED = {"M": (["reversal"], ["reversibility"])}
ZMOD_ORDERS = (3, 5, 7, 8, 9, 10, 11, 12)
POWERS = [(p, depth) for p in (2, 3, 5, 7) for depth in (2, 4, 6, 8)]


def _unit_subgroups(n: int) -> list:
    units = [i for i in range(1, n) if math.gcd(i, n) == 1]
    out = []
    for r in range(1, len(units) + 1):
        for sub in itertools.combinations(units, r):
            if all(a * b % n in sub for a in sub for b in sub):
                out.append(sub)
    return out


def _finite_tables() -> list:
    """(label, table, multiring level or None) for every table of the workload."""
    from hyperalg import finite, structures

    tables = []
    for name in ("K", "S", "F2", "Q1", "M"):
        t = structures.get_structure(name).table
        tables.append((name, t, "hyperfield" if t.mul_table is not None else None))
    for n in range(1, 7):
        for strict in (False, True):
            tables.append((f"chain{n}{'s' if strict else ''}", finite.make_linear_order(n, strict), None))
    for g in finite.small_groups(8):
        for h in finite.all_subgroups(g):
            tables.append((f"{g.name}//{len(h)}", finite.make_double_coset(g, h), None))
    for n in ZMOD_ORDERS:
        z = finite.make_zmod(n)
        level = "hyperfield" if all(n % d for d in range(2, n)) else "multiring"
        for sub in _unit_subgroups(n):
            q = finite.mul_quotient(z, [str(s) for s in sub])
            tables.append((f"Z{n}/{'.'.join(map(str, sub))}", q, level))
    for p, depth in POWERS:
        tables.append((f"powers:{p}:{depth}", finite.make_powers_quotient(p, depth), "multiring"))
    return tables


def _relabel(t, rng: random.Random):
    """An isomorphic copy of `t` with its elements stored in a random order."""
    from hyperalg.finite import FiniteMultistructure

    n = len(t.elements)
    perm = list(range(n))
    rng.shuffle(perm)  # old index i -> new index perm[i]
    elements = [None] * n
    for i, e in enumerate(t.elements):
        elements[perm[i]] = e
    add = {(perm[i], perm[j]): frozenset(perm[k] for k in cell) for (i, j), cell in t.add_table.items()}
    mul = None
    if t.mul_table is not None:
        mul = {(perm[i], perm[j]): perm[k] for (i, j), k in t.mul_table.items()}
    neg = [None] * n
    for i, k in enumerate(t.neg_map):
        neg[perm[i]] = perm[k]
    return FiniteMultistructure(
        elements=tuple(elements),
        add_table=add,
        zero_idx=perm[t.zero_idx],
        mul_table=mul,
        one_idx=None if t.one_idx is None else perm[t.one_idx],
        neg_map=tuple(neg),
        commutative_add=t.commutative_add,
        name=t.name,
    )


def _is_isomorphism(iso, a, b) -> bool:
    if iso is None or sorted(iso.values(), key=str) != sorted(b.elements, key=str):
        return False
    for x in a.elements:
        for y in a.elements:
            if frozenset(iso[z] for z in a.add(x, y)) != b.add(iso[x], iso[y]):
                return False
            if a.mul_table is not None and iso[a.mul(x, y)] != b.mul(iso[x], iso[y]):
                return False
    return True


def _check_table(label: str, X, original, level, n_prime: int | None):
    from hyperalg import axioms, finite

    errors = []
    full = axioms.check_multigroup(X, "full")
    minimal = axioms.check_multigroup(X, "minimal")
    ops = full.tuples_checked + minimal.tuples_checked
    red = (
        sorted({c.axiom for c in full.failures()}),
        sorted({c.axiom for c in minimal.failures()}),
    )
    if red != FINITE_RED.get(label, ([], [])):
        errors.append(f"{label}: red axioms {red}")
    for c in full.failures() + minimal.failures():
        if c.witness is None or axioms.replay(X, c):
            errors.append(f"{label}: {c.axiom} witness {c.witness_text} does not replay false")
    if level is not None:
        rep = axioms.check_multiring(X, level)
        ops += rep.tuples_checked
        if not rep.passed:
            errors.append(f"{label}: {level} check failed {[c.axiom for c in rep.failures()]}")
        got = len(finite.prime_ideals(X.table))
        if got != n_prime:
            errors.append(f"{label}: {got} prime ideals, {n_prime} before relabelling")
    iso = finite.find_isomorphism(X.table, original)
    if not _is_isomorphism(iso, X.table, original):
        errors.append(f"{label}: no isomorphism back to the original table")
    return ops, errors


def finite_round(seed: int) -> list:
    from hyperalg import finite, structures

    rng = random.Random(f"{seed}:finite")
    units = []
    for label, t, level in _finite_tables():
        n_prime = len(finite.prime_ideals(t)) if level is not None else None
        X = structures.FiniteStructure(_relabel(t, rng))
        units.append((label, functools.partial(_check_table, label, X, t, level, n_prime)))
    return units


# ---------------------------------------------------------------------------
# cli_cold: one fresh interpreter per invocation

# (argv, exit code, exact stdout); the first three outputs are README goldens
CLI_MIX = [
    (["add", "TC", "1∠0", "1∠1.5707963268"], 0, "arc r=1 from=0 sweep=1.5707963268\n"),
    (["add", "tri", "2", "1"], 0, "interval [1,3]\n"),
    (["sum", "TC", "--", "1∠0", "i", "-i", "1"], 0, "disk r=1\n"),
    (["verify", "S"], 0,
     "axiom=associativity verdict=pass\naxiom=neutral verdict=pass\n"
     "axiom=negation-exists verdict=pass\naxiom=negation-unique verdict=pass\n"
     "axiom=reversal verdict=pass\naxiom=neg-zero verdict=pass\n"
     "axiom=neg-involution verdict=pass\nchecked 75 tuples\n"),
    (["verify", "TC", "--level", "dd", "--budget", "1000", "--seed", "5"], 1,
     "axiom=half-double-distributivity verdict=pass\n"
     "axiom=double-distributivity verdict=fail witness=(2.2438188552∠1.2068792254, "
     "2.2438188552∠3.3519105094, 2.2438188552∠5.2795982799, 2.2438188552∠2.2973168655)\n"
     "checked 1000 tuples\n"),
    (["char", "powers:2:8"], 0, "characteristic=2\nc-characteristic=2\n"),
    (["hom", "sign"], 0,
     "axiom=zero-preserved verdict=pass\naxiom=one-preserved verdict=pass\n"
     "axiom=additive-containment verdict=pass\naxiom=multiplicative verdict=pass\n"
     "axiom=strong verdict=fail\nkernel={0}\n"
     "mul-kernel={2.1681260192,1.0344027056,0.5542930163,1.4263332495,1,1.7366392773,"
     "0.820792868,0.9333540546,0.4638159943,0.284033655,0.3094909394,1.2547709456,"
     "1.4025886144,1.2700865303,4.4316568374,1.4026303778}\n"),
    (["deq", "lm", "1", "2"], 0,
     "h,a,b,result,reference,error\r\n1.0,1,2,2.313261687518223,2.0,0.31326168751822303\r\n"
     "0.1,1,2,2.0000045398899218,2.0,4.5398899217730104e-06\r\n0.01,1,2,2.0,2.0,0.0\r\n"
     "0.001,1,2,2.0,2.0,0.0\r\n"),  # csv rows end in CRLF
    (["add", "TC", "1∠x", "1"], 2, ""),  # malformed literal: usage error, no traceback
]
CLI_TIMEOUT_S = 60


def _check_cli(argv, want_code: int, want_out: str, code: int, out: str, err: str) -> list:
    errors = []
    if code != want_code:
        errors.append(f"{argv}: exit {code}, expected {want_code}")
    if out != want_out:
        errors.append(f"{argv}: stdout {out!r}, expected {want_out!r}")
    if "Traceback" in err:
        errors.append(f"{argv}: traceback on stderr")
    if want_code == 2 and not err.startswith("error: "):
        errors.append(f"{argv}: stderr {err!r} lacks the error line")
    return errors


def child_env() -> dict:
    """Environment of a child interpreter that imports the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("HYPERALG_SEED", None)
    return env


def _cli_child(argv, want_code: int, want_out: str, env: dict):
    proc = subprocess.run(
        [sys.executable, "-m", "hyperalg.cli", *argv],
        env=env, capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    out = proc.stdout.decode("utf-8")
    err = proc.stderr.decode("utf-8")
    return 1, _check_cli(argv, want_code, want_out, proc.returncode, out, err)


def _cli_inprocess(argv, want_code: int, want_out: str):
    from hyperalg import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return 1, _check_cli(argv, want_code, want_out, code, out.getvalue(), err.getvalue())


def _cli_order(seed: int) -> list:
    mix = list(CLI_MIX)
    random.Random(f"{seed}:cli").shuffle(mix)
    return mix


def cli_round(seed: int) -> list:
    env = child_env()
    return [
        (argv[0], functools.partial(_cli_child, argv, code, out, env))
        for argv, code, out in _cli_order(seed)
    ]


def cli_trace_round(seed: int) -> list:
    """The same mix run through `cli.main` in this process, so that the tracer
    sees the calls (start-up and import are measured by `import.*` instead)."""
    return [
        (argv[0], functools.partial(_cli_inprocess, argv, code, out))
        for argv, code, out in _cli_order(seed)
    ]


# ---------------------------------------------------------------------------
# registry


BRANCH_USES = tuple(
    f"{m}.{fn}"
    for m, fn in (
        ("ctrop", "ct_add"), ("ctrop", "rt_add"), ("ctrop", "phase_add"),
        ("ctrop", "quat_add"), ("realhf", "trop_add"), ("exotic", "mono_add"),
        ("exotic", "padic_add"),
    )
)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # seed -> the round's units, as (label, callable) pairs
    uses: tuple  # modules or "module.function" keys the traced round must call
    bypasses: tuple  # modules the traced round must not call
    op: str
    unit: str
    trace_build: object = None  # the traced round, where it differs from `build`
    children: bool = False  # each unit starts an interpreter
    tail_pct: float = 95.0  # percentile of the unit runs reported as the tail


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_sampled",
            sweep_round,
            uses=("ctrop", "realhf", "exotic", "csets", "rsets", "qsets", "structures",
                  "axioms", "homs", "finite",
                  "csets.normalize_parts", "rsets.rset", "qsets.qnormalize",
                  "exotic.mnormalize", "exotic.pnormalize",
                  "axioms.stratified_tuples", "axioms.check_multiring",
                  "axioms.check_multigroup", "axioms.check_double_distributivity",
                  "axioms.check_hom", "axioms.replay", "homs.check_w_hom") + BRANCH_USES,
            bypasses=("deq", "cli"),
            op="one axiom tuple (tuples_checked) or homomorphism pair (pairs_checked)",
            unit="one verdict: a carrier's axiom check, its double-distributivity "
                 "check, or one check of the criterion-5 homomorphism suite",
        ),
        Workload(
            "fold_oracle",
            fold_round,
            uses=("ctrop", "csets", "realhf", "rsets",
                  "ctrop.ct_add_sets", "ctrop.ct_sum_n", "csets.normalize_parts",
                  "csets.set_eq", "realhf.tri_add_sets", "realhf.tri_sum_n",
                  "rsets.rset", "rsets.rset_eq"),
            bypasses=("axioms", "structures", "qsets", "exotic", "homs", "finite", "deq", "cli"),
            op="one permutation folded and compared with the closed form",
            unit="one case: all permutations of 3-6 summands",
        ),
        Workload(
            "finite_exhaustive",
            finite_round,
            uses=("structures", "axioms", "finite",
                  "axioms.check_multigroup", "axioms.check_multiring", "axioms.replay",
                  "finite.prime_ideals", "finite.find_isomorphism"),
            bypasses=("csets", "rsets", "qsets", "ctrop", "realhf", "exotic"),
            op="one axiom tuple (tuples_checked)",
            unit="one table: full and minimal multigroup checks, multiring check, "
                 "prime ideals and isomorphism search",
        ),
        Workload(
            "cli_cold",
            cli_round,
            uses=("cli", "structures", "axioms", "finite", "ctrop", "realhf", "csets",
                  "rsets", "homs", "deq", "cli.main"),
            bypasses=(),
            op="one CLI invocation",
            unit="one CLI invocation in a fresh interpreter",
            trace_build=cli_trace_round,
            children=True,
            tail_pct=90.0,
        ),
    )
}
