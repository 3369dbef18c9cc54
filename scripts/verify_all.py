#!/usr/bin/env python3
"""Sweep every registry structure through its axiom suite and print a table.

Finite carriers are checked exhaustively, continuous ones on stratified
samples.  Exit code 1 if any unexpected row fails.
"""
import argparse
import random
import sys
import time

from hyperalg.axioms import (
    c_characteristic,
    characteristic,
    check_multigroup,
    check_multiring,
)
from hyperalg.cli import _budget
from hyperalg.structures import get_structure

SUITE = [
    # (name, level); level None means multigroup only
    ("K", "hyperfield"),
    ("Q1", "hyperfield"),
    ("S", "hyperfield"),
    ("F2", "hyperfield"),
    ("M", None),
    ("TC", "hyperfield"),
    ("TR", "hyperfield"),
    ("Phi", "hyperfield"),
    ("tri", "hyperfield"),
    ("ultra", "hyperfield"),
    ("trop", "hyperfield"),
    ("amoeba", "hyperfield"),
    ("quat", None),
    ("mono", "hyperfield"),
    ("padic:2:8", "hyperfield"),
    ("padic:3:8", "hyperfield"),
    ("padic:5:8", "hyperfield"),
]

# rows red by documented defects of the source tables/formulas, with the exact
# axioms each fails; such a row that passes or fails elsewhere is unexpected
EXPECTED_RED = {
    "M": {"reversal"},
    **{f"padic:{p}:8": {"associativity", "negation-unique"} for p in (2, 3, 5)},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=_budget, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    unexpected = 0
    print(f"{'structure':<12} {'level':<12} {'verdict':<8} {'chr':<5} {'cchr':<5} {'time':>7}")
    for name, level in SUITE:
        x = get_structure(name)
        rng = random.Random(args.seed)
        t0 = time.perf_counter()
        if level is None:
            rep = check_multigroup(x, "full", args.budget, rng)
            shown = "multigroup"
        else:
            rep = check_multiring(x, level, args.budget, rng)
            shown = level
        dt = time.perf_counter() - t0
        if x.has_one:
            ch = characteristic(x, cap=32).value
            cch = c_characteristic(x, cap=32).value
        else:
            ch = cch = "-"
        verdict = "pass" if rep.passed else "FAIL"
        failed = {c.axiom for c in rep.failures()}
        expected = EXPECTED_RED.get(name, set())
        note = ""
        if failed:
            note = f"  <- {','.join(sorted(failed))}" + (
                "  (documented defect)" if failed == expected else ""
            )
        elif expected:
            note = f"  <- expected to fail {','.join(sorted(expected))}"
        if failed != expected:
            unexpected += 1
        print(f"{name:<12} {shown:<12} {verdict:<8} {ch!s:<5} {cch!s:<5} {dt:6.2f}s{note}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
