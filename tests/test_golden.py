"""Golden CLI outputs: verdicts, witnesses, JSON text and printed value sets
stay byte-identical.

Each case runs `hyperalg verify`, `hom`, `add`, `sum`, `char`, `poly` or
`spectrum` in-process and compares stdout and the exit code with
`tests/golden/cli.json`.
Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os

import pytest

from hyperalg.cli import HOM_TABLE, main
from hyperalg.structures import REGISTRY_NAMES, get_structure

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

# the level scripts/verify_all.py runs each registry structure at
SWEEP_LEVEL = {"M": "multigroup", "quat": "multigroup"}

# the non-associative p-adic addition breaks the guaranteed half of double
# distributivity at these seeds; tests/test_cli.py covers that error path
DD_RAISES = {"padic:3:8", "padic:5:8"}

# names outside REGISTRY_NAMES whose verify lines are pinned as well
EXTRA_VERIFY_NAMES = ["mono-int", "mono-rational"]


def cases() -> list[list[str]]:
    """verify/hom lines, the SET_CASES, then `char` for every registry name
    with a unity."""
    out = []
    for name in REGISTRY_NAMES + EXTRA_VERIFY_NAMES:
        common = ["--format", "json", "--seed", "0", "--budget", "300"]
        level = SWEEP_LEVEL.get(name, "hyperfield")
        out.append(["verify", name, "--level", level, *common])
        out.append(["verify", name, "--level", "multigroup", "--mode", "minimal", *common])
        if name not in DD_RAISES:
            out.append(["verify", name, "--level", "dd", *common])
    for hom in HOM_TABLE:
        out.append(["hom", hom, "--format", "json", "--budget", "200", "--seed", "2"])
    out += SET_CASES
    out += [["char", name] for name in REGISTRY_NAMES if get_structure(name).has_one]
    out += [["spectrum", name] for name in SPECTRUM_NAMES]
    return out


# `spectrum` prints ideals and prime ideals: a ring, a power quotient and S
SPECTRUM_NAMES = ["zmod:12", "powers:3:4", "S"]


PI = "3.141592653589793"

# value sets printed by add/sum/poly: dominant, tie (arc, interval, down-set,
# cone) and cancellation (disk, ball, circle plus zero) results per carrier
SET_CASES = [
    ["add", "TC", "1∠0", "1∠1"],
    ["add", "TC", "1∠6", "1∠0.5"],
    ["add", "TC", "1∠0", f"1∠{PI}"],
    ["add", "TC", "2∠0", "1∠1"],
    ["add", "TC", "1∠0", "1∠0"],
    ["sum", "TC", "--", "1∠0", "1∠1", "1∠2"],
    ["sum", "TC", "--", "1∠5.5", "1∠0.3", "1∠6"],
    ["sum", "TC", "--", "1∠0", "1∠2", "1∠4"],
    ["sum", "TC", "--", "1∠0", f"1∠{PI}", "2∠1"],
    ["add", "Phi", "1∠0", "1∠1"],
    ["add", "Phi", "1∠0", f"1∠{PI}"],
    ["sum", "Phi", "--", "1∠0", f"1∠{PI}", "1∠1"],
    ["sum", "Phi", "--", "1∠0", "1∠1", "0"],
    ["add", "quat", "1,0,0,0", "0,1,0,0"],
    ["add", "quat", "--", "1,0,0,0", "-1,0,0,0"],
    ["add", "quat", "2,0,0,0", "0,1,0,0"],
    ["sum", "quat", "--", "1,0,0,0", "0,1,0,0", "0,0,1,0"],
    ["sum", "quat", "--", "1,0,0,0", "0,1,0,0", "-0.7071067811865476,0.7071067811865476,0,0"],
    ["sum", "quat", "--", "1,0,0,0", "0,1,0,0", "-1,0,0,0"],
    ["add", "mono", "1t^1", "2t^1"],
    ["add", "mono", "--", "1t^1", "-1t^1"],
    ["add", "mono", "3t^2", "1t^1"],
    ["sum", "mono", "--", "1t^1", "-1t^1", "2t^0"],
    ["sum", "mono", "--", "1t^1", "-1t^1", "1t^1"],
    ["add", "padic:5:8", "1", "2"],
    ["add", "padic:5:8", "1", "4"],
    ["add", "padic:5:8", "5", "1"],
    ["sum", "padic:5:8", "--", "1", "4", "5"],
    ["sum", "padic:5:8", "--", "1", "4", "1"],
    ["add", "TR", "--", "1", "-1"],
    ["add", "TR", "--", "2", "-1"],
    ["add", "TR", "1", "1"],
    ["sum", "TR", "--", "1", "-1", "-0.5"],
    ["sum", "TR", "--", "1", "-1", "2"],
    ["add", "tri", "2", "1"],
    ["add", "tri", "1", "1"],
    ["sum", "tri", "1", "2", "4"],
    ["add", "trop", "1", "1"],
    ["add", "trop", "1", "2"],
    ["sum", "trop", "--", "1", "2", "2", "-3"],
    ["add", "amoeba", "0", "0"],
    ["add", "amoeba", "1", "0"],
    ["sum", "amoeba", "--", "0", "-1", "3"],
    ["poly", "TC", "X^2 + X + 1", "--at", "1∠2"],
    ["poly", "TC", "2X^3 + X", "--at", "1∠0.5"],
    ["poly", "tri", "X^2 + 1", "--at", "1"],
    ["poly", "tri", "X^3 + X + 5", "--at", "1.5"],
]


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
