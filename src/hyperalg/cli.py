"""Command-line front end.

Exit codes: 0 = success / all axioms hold; 1 = a verified mathematical
counterexample was found; 2 = usage or parse error; 141 = the reader closed
standard output early (128 + SIGPIPE), with nothing printed to stderr.
"""
from __future__ import annotations

import argparse
import io
import os
import random
import sys

from . import _Deferred
from .structures import get_structure

axioms = _Deferred(globals(), "axioms")

USAGE_ERROR = 2
MATH_FAIL = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

# `char` folds 1 + 1 + ... up to --cap summands on carriers that never stabilize
MAX_CAP = 10_000


def _budget(text: str) -> int:
    """A --budget value: an integer >= 1, since a budget of 0 checks nothing."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _cap(text: str) -> int:
    """A --cap value: an integer from 2 to MAX_CAP."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 2 <= n <= MAX_CAP:
        raise argparse.ArgumentTypeError(f"must be an integer from 2 to {MAX_CAP}, got {text!r}")
    return n


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("HYPERALG_SEED", "0"))


def cmd_add(args) -> int:
    x = get_structure(args.structure)
    a = x.parse_elem(args.a)
    b = x.parse_elem(args.b)
    out = x.add(a, b)
    print(x.format_set(out))
    return 0


def cmd_sum(args) -> int:
    x = get_structure(args.structure)
    elems = [x.parse_elem(t) for t in args.elems]
    acc = x.singleton(elems[0])
    for e in elems[1:]:
        acc = x.add_sets(acc, x.singleton(e))
    print(x.format_set(acc))
    return 0


def cmd_verify(args) -> int:
    x = get_structure(args.structure)
    rng = random.Random(_seed(args))
    if args.level == "hyperfield-search":
        from .finite import search_hyperfield_multiplications

        if not x.is_finite:
            raise ValueError("hyperfield-search needs a finite structure")
        winners = search_hyperfield_multiplications(x.table)
        if winners:
            print(f"{len(winners)} univalued multiplications admit a hyperfield")
            return 0
        print("no univalued multiplication admits hyperfield")
        return 0
    if args.level == "multigroup":
        rep = axioms.check_multigroup(x, args.mode, args.budget, rng)
    elif args.level == "dd":
        try:
            rep = axioms.check_double_distributivity(x, args.budget, rng)
        except axioms.DoubleDistributivityViolation as exc:
            # the violated tuple is itself the counterexample
            print(f"error: {exc}", file=sys.stderr)
            return MATH_FAIL
    else:
        rep = axioms.check_multiring(x, args.level, args.budget, rng)
    if args.format == "json":
        print(rep.to_json())
    else:
        for line in rep.to_lines():
            print(line)
        print(f"checked {rep.tuples_checked} tuples")
    return 0 if rep.passed else MATH_FAIL


def cmd_quotient(args) -> int:
    from .finite import FiniteMultistructure, mul_quotient

    x = FiniteMultistructure.load(args.table)
    labels = [t.strip() for t in args.by.split(",")]
    q = mul_quotient(x, labels)
    print(q.to_json())
    return 0


def cmd_char(args) -> int:
    x = get_structure(args.structure)
    ch = axioms.characteristic(x, args.cap)
    cch = axioms.c_characteristic(x, args.cap)
    flag = "" if (ch.value or ch.stabilized) else f" (no stabilization below cap {args.cap})"
    print(f"characteristic={ch.value}{flag}")
    flag2 = "" if (cch.value or cch.stabilized) else f" (no stabilization below cap {args.cap})"
    print(f"c-characteristic={cch.value}{flag2}")
    return 0


# name -> (source, target, the map: a function of homs, description)
HOM_TABLE = {
    "sign": ("R", "S", "sign_label", "sign map x -> x/|x| on the classical reals"),
    "sign-tr": ("TR", "S", "sign_label", "sign map on the real tropical carrier"),
    "S-K": ("S", "K", "collapse_sign", "collapse of signs onto the two-element carrier"),
    "phase": ("C", "Phi", "phase_map", "phase map z -> z/|z| on the classical field"),
    "phase-tc": ("TC", "Phi", "phase_map", "phase map on the complex tropical carrier"),
    "abs": ("C", "tri", "abs_map", "modulus map on the classical field"),
    "abs-tc": ("TC", "tri", "abs_map", "modulus map on the complex tropical carrier"),
    "abs-ultra": ("TC", "ultra", "abs_map", "modulus map into the ultratriangle carrier"),
    "logabs": ("TC", "trop", "log_abs", "log-modulus map"),
    "logabs-amoeba": ("C", "amoeba", "log_abs", "log-modulus on the classical field"),
    "modulus-maxplus": ("TC", "maxplus", "abs_map", "modulus into (R+, max, *): not a homomorphism"),
    "w": (None, None, "w_map", "leading-term map on complex polynomials"),
}


# pairs each homomorphism check samples, in `hom` and in scripts/verify_all.py
HOM_BUDGET = 300


def run_hom(name: str, budget: int, rng: random.Random) -> axioms.HomReport:
    """Check the HOM_TABLE map `name` on `budget` sampled pairs."""
    from . import homs

    if name not in HOM_TABLE:
        raise ValueError(f"unknown homomorphism {name!r}; try {sorted(HOM_TABLE)}")
    if name == "w":
        return homs.check_w_hom(budget, rng)
    src, dst, fn, _ = HOM_TABLE[name]
    return axioms.check_hom(getattr(homs, fn), get_structure(src), get_structure(dst), budget, rng,
                            name=name)


def cmd_hom(args) -> int:
    rep = run_hom(args.name, args.budget, random.Random(_seed(args)))
    if args.format == "json":
        print(rep.to_json())
    else:
        for line in rep.to_lines():
            print(line)
    return 0 if rep.is_homomorphism else MATH_FAIL


def cmd_poly(args) -> int:
    from .homs import hf_poly_eval, parse_hf_poly

    x = get_structure(args.structure)
    p = parse_hf_poly(x, args.poly)
    point = tuple(x.parse_elem(t) for t in args.at.split(";"))
    val = hf_poly_eval(p, point)
    print(x.format_set(val))
    print(f"zero-member={'true' if x.member(x.zero, val) else 'false'}")
    return 0


def cmd_deq(args) -> int:
    from .deq import parse_h_schedule, trace_rows

    rows = trace_rows(args.family, args.a, args.b, parse_h_schedule(args.h))
    if args.format == "json":
        import json

        print(json.dumps(rows, indent=2))
    else:
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["h", "a", "b", "result", "reference", "error"])
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    return 0


def cmd_spectrum(args) -> int:
    from .finite import FiniteMultistructure, prime_ideals

    if args.table.endswith(".json") or os.path.exists(args.table):
        x = FiniteMultistructure.load(args.table)
    else:
        s = get_structure(args.table)
        if not s.is_finite:
            raise ValueError("spectrum needs a finite structure")
        x = s.table
    entries = prime_ideals(x)
    for entry in entries:
        members = ",".join(str(m) for m in x.elements if m in entry["ideal"])
        print(f"prime-ideal={{{members}}}")
    print(f"count={len(entries)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperalg",
        description=(
            "Set-valued arithmetic over tropical hyperfields. Structures: "
            "K, Q1, S, F2, M, TC, TR, Phi, tri, ultra, trop, amoeba, quat, "
            "mono, mono-int, mono-rational, maxplus, C, R, padic:p:L, "
            "powers:p:depth, zmod:n, finite:FILE. Elements: "
            "complex as m∠theta (ASCII m@theta) or x+yi; quaternions as "
            "x,y,z,t; monomials as 3t^2; tropical numbers as -inf or reals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("add", help="binary multivalued sum")
    p.add_argument("structure")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_add)

    p = sub.add_parser("sum", help="n-ary multivalued sum")
    p.add_argument("structure")
    p.add_argument("elems", nargs="+")
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("verify", help="run axiom checks")
    p.add_argument("structure")
    p.add_argument(
        "--level",
        default="multigroup",
        choices=["multigroup", "multiring", "hyperring", "hyperfield", "dd", "hyperfield-search"],
    )
    p.add_argument("--mode", default="full", choices=["full", "minimal"])
    p.add_argument("--budget", type=_budget, default=2000)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("quotient", help="multiplicative quotient of a finite table")
    p.add_argument("table", help="JSON table file")
    p.add_argument("--by", required=True, help="comma-separated labels of S")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("char", help="characteristic and C-characteristic")
    p.add_argument("structure")
    p.add_argument("--cap", type=_cap, default=64)
    p.set_defaults(fn=cmd_char)

    p = sub.add_parser("hom", help="verify a named homomorphism")
    p.add_argument("name", help=f"one of {sorted(HOM_TABLE)}")
    p.add_argument("--budget", type=_budget, default=HOM_BUDGET)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("poly", help="evaluate a polynomial over a structure")
    p.add_argument("structure")
    p.add_argument("poly", help="e.g. '2X^2 + 1'")
    p.add_argument("--at", required=True, help="semicolon-separated point coordinates")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("deq", help="dequantization trace (CSV)")
    p.add_argument("family", choices=["lm", "tri", "complex"])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--h", default="1,0.1,0.01,0.001")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(fn=cmd_deq)

    p = sub.add_parser("spectrum", help="prime ideals of a finite multiring")
    p.add_argument("table", help="structure name or JSON table file")
    p.set_defaults(fn=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # pragma: no cover - child process only: test_cli.py TestClosedPipe
        # stdout is gone: point it at devnull, so that the flush at interpreter
        # exit raises nothing either (the recipe of the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
