#!/usr/bin/env python3
"""Emit convergence CSVs for the three dequantization families.

Writes lm.csv, tri.csv and complex.csv into --out (default ./traces) for
plotting: each row is (h, a, b, result, reference, error).
"""
import argparse
import csv
import pathlib

from hyperalg.deq import parse_h_schedule, trace_rows

CASES = {
    "lm": [("1", "2"), ("0", "0"), ("-3", "3")],
    "tri": [("2", "1"), ("2", "2"), ("0.5", "4")],
    "complex": [("-1", "i"), ("1∠0", "1∠2.0"), ("2∠0.5", "1∠1.0")],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="traces")
    parser.add_argument("--h", type=parse_h_schedule, default="1,0.3,0.1,0.03,0.01,0.003,0.001")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for family, pairs in CASES.items():
        rows = []
        for a, b in pairs:
            rows.extend(trace_rows(family, a, b, args.h))
        path = out / f"{family}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["h", "a", "b", "result", "reference", "error"]
            )
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
