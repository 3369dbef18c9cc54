"""Two traced runs of one seed must give identical counts: every `.calls`,
every `noop_frac` and every branch count.  The runs use different hash seeds,
so the counts do not depend on set iteration order either.

This test drives the benchmark, so it lives with it and is not collected by
the tier-1 suite (pytest's testpaths is `tests/`).  Run it with

    python3 -m pytest perfbench/test_counts_repeat.py
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_sampled", "fold_oracle", "finite_exhaustive", "cli_cold")


def traced(workload: str, hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--trace", "1"],
        cwd=HERE.parent, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] == "count" or name.endswith(".noop_frac")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat(workload):
    first, second = traced(workload, "1"), traced(workload, "2")
    assert first["correct"] and second["correct"]
    assert sum(counts(first).values()) > 0
    assert counts(first) == counts(second)
