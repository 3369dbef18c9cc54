#!/usr/bin/env python3
"""Check every claim the library implements and print one table.

Rows: each registry structure through its axiom suite (finite carriers
exhaustively, continuous ones on stratified samples), each homomorphism of
`hyperalg hom`, the dequantization of C into TC, and the archimedean and
non-archimedean seminorms.  Each failing check of an axiom or hom row is
replayed on its witness.  Exit code 1 if any row fails unexpectedly or has a
witness that does not replay false.
"""
import argparse
import random
import sys
import time

from hyperalg.axioms import (
    AxiomReport,
    c_characteristic,
    characteristic,
    check_multigroup,
    check_multiring,
    replay,
)
from hyperalg.cli import HOM_BUDGET, HOM_TABLE, _budget, run_hom
from hyperalg.deq import check_diagram
from hyperalg.exotic import INDETERMINATE, PadicElem, padic_classical_add, padic_mul, padic_zero
from hyperalg.realhf import check_seminorm
from hyperalg.structures import REGISTRY_NAMES, get_structure

# (name, level) for every registry structure; level None means multigroup only
SUITE = [(name, None if name in ("M", "quat") else "hyperfield") for name in REGISTRY_NAMES]

# rows expected red, with the exact checks each fails; such a row that passes
# or fails elsewhere is unexpected
EXPECTED_RED = {
    # documented defects of the source tables/formulas
    "M": {"reversal"},
    **{f"padic:{p}:8": {"associativity", "negation-unique"} for p in (2, 3, 5)},
    # listed as no homomorphism: |a+b| can exceed max(|a|, |b|)
    "hom:modulus-maxplus": {"additive-containment"},
}

SEMINORM_SAMPLE = 12  # random elements per sample, plus 0 and 1


def _padic_add(a: PadicElem, b: PadicElem) -> PadicElem:
    s = padic_classical_add(a, b)
    return padic_zero(a.p) if s is INDETERMINATE else s  # norm 0 lies in every ultra sum


def check_seminorms(rng: random.Random) -> AxiomReport:
    """|.| on C into the triangle sum (archimedean), and the p-adic norm into
    the ultratriangle and, through log, the tropical sum (non-archimedean),
    over all pairs of seeded samples; every check of each run is listed."""
    sample = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(SEMINORM_SAMPLE)]
    runs = [check_seminorm(abs, sample + [0j, 1 + 0j], "archimedean")]
    for p in (2, 3, 5):
        x = get_structure(f"padic:{p}:8")
        sample = [x.zero, x.one] + [x.random_elem(rng) for _ in range(SEMINORM_SAMPLE)]
        runs.append(check_seminorm(PadicElem.norm, sample, "non-archimedean", add=_padic_add, mul=padic_mul))
    rep = AxiomReport(structure="seminorm", tuples_checked=sum(r.tuples_checked for r in runs))
    rep.checks = [c for r in runs for c in r.checks]
    return rep


def unreplayed(name: str, shown: str, rep) -> list:
    """The failed checks of an axiom or hom row whose witness is missing or
    does not replay false; claim rows have no replayable witnesses."""
    failed = [c for c in rep.checks if not c.passed]
    if shown == "claim" or not failed:
        return []
    if name.startswith("hom:"):
        src = HOM_TABLE[name[len("hom:"):]][0]
        x = src and get_structure(src)  # w replays on polynomials, no carrier
    else:
        x = get_structure(name)
    return [c.axiom for c in failed if c.witness is None or replay(x, c)]


def axiom_row(name: str, level):
    def run(budget: int, rng: random.Random):
        x = get_structure(name)
        if level is None:
            return check_multigroup(x, "full", budget, rng)
        return check_multiring(x, level, budget, rng)

    return run


# (row name, level column, run(budget, rng) -> report); the homomorphism and
# claim rows run at the library defaults, --budget sizes the axiom rows
ROWS = (
    [(name, level or "multigroup", axiom_row(name, level)) for name, level in SUITE]
    + [(f"hom:{name}", "hom", lambda _, rng, n=name: run_hom(n, HOM_BUDGET, rng)) for name in HOM_TABLE]
    + [
        ("dequantization", "claim", lambda _, rng: check_diagram(rng=rng)),
        ("seminorm", "claim", lambda _, rng: check_seminorms(rng)),
    ]
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=_budget, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    unexpected = 0
    print(f"{'row':<20} {'level':<12} {'verdict':<8} {'chr':<5} {'cchr':<5} {'time':>7}")
    for name, shown, run in ROWS:
        rng = random.Random(args.seed)
        t0 = time.perf_counter()
        rep = run(args.budget, rng)
        dt = time.perf_counter() - t0
        ch = cch = "-"
        if name in dict(SUITE):
            x = get_structure(name)
            if x.has_one:
                ch = characteristic(x, cap=32).value
                cch = c_characteristic(x, cap=32).value
        failed = {c.axiom for c in rep.failures()}
        verdict = "FAIL" if failed else "pass"
        expected = EXPECTED_RED.get(name, set())
        note = ""
        if failed:
            note = f"  <- {','.join(sorted(failed))}" + (
                "  (expected)" if failed == expected else ""
            )
        elif expected:
            note = f"  <- expected to fail {','.join(sorted(expected))}"
        if shown == "claim":
            note += f"  checks={','.join(dict.fromkeys(c.axiom for c in rep.checks))}"
        bad = unreplayed(name, shown, rep)
        if bad:
            note += f"  <- witness does not replay false: {','.join(bad)}"
        if failed != expected or bad:
            unexpected += 1
        print(f"{name:<20} {shown:<12} {verdict:<8} {ch!s:<5} {cch!s:<5} {dt:6.2f}s{note}")
        if shown == "claim":
            for c in rep.checks:
                if c.detail:
                    print(f"  {c.axiom}: {c.detail}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
