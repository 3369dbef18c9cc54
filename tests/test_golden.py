"""Golden CLI outputs: verdicts, witnesses and JSON text stay byte-identical.

Each case runs `hyperalg verify` or `hyperalg hom` in-process and compares
stdout and the exit code with `tests/golden/cli.json`. Regenerate the file
(only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os

import pytest

from hyperalg.cli import HOM_TABLE, main
from hyperalg.structures import REGISTRY_NAMES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

# the level scripts/verify_all.py runs each registry structure at
SWEEP_LEVEL = {"M": "multigroup", "quat": "multigroup"}

# the non-associative p-adic addition breaks the guaranteed half of double
# distributivity at these seeds; tests/test_cli.py covers that error path
DD_RAISES = {"padic:3:8", "padic:5:8"}


def cases() -> list[list[str]]:
    out = []
    for name in REGISTRY_NAMES:
        common = ["--format", "json", "--seed", "0", "--budget", "300"]
        level = SWEEP_LEVEL.get(name, "hyperfield")
        out.append(["verify", name, "--level", level, *common])
        out.append(["verify", name, "--level", "multigroup", "--mode", "minimal", *common])
        if name not in DD_RAISES:
            out.append(["verify", name, "--level", "dd", *common])
    for hom in HOM_TABLE:
        out.append(["hom", hom, "--format", "json", "--budget", "200", "--seed", "2"])
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(row["argv"]): row for row in json.load(fh)}


@pytest.mark.parametrize("argv", cases(), ids=lambda argv: " ".join(argv[:6]))
def test_golden_output(argv, golden, capsys):
    row = golden[tuple(argv)]
    code = main(list(argv))
    assert (code, capsys.readouterr().out) == (row["exit"], row["stdout"])


def _regenerate() -> None:
    rows = []
    for argv in cases():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        rows.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
