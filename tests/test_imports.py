"""The import footprint of the CLI and the lazily resolved package API.

A cold CLI start compiles every module it imports, so each subcommand should
import only the modules its carrier uses.  A stray module-level import undoes
that without changing any output; these tests see it.
"""
import json
import os
import subprocess
import sys

import pytest

import hyperalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the names hyperalg/__init__.py exported when it imported them eagerly
EXPORTED = {
    "tolerance": ["DEFAULT_TOL", "NEG_INF", "Tolerance", "InvalidSetError",
                  "RepresentationClosureError"],
    "csets": ["CArc", "CDisk", "CPoint", "CSet", "CUnion", "ComplexElem", "CZERO", "CONE",
              "member", "set_eq", "subset"],
    "rsets": ["RSet", "rinterval", "rmember", "rpoint", "rset", "rset_eq"],
    "qsets": ["QArc", "QBall", "QCone", "QPoint", "QSet", "QuatElem"],
    "realhf": ["amoeba_add", "tri_add", "tri_sum_n", "trop_add", "ultra_add"],
    "ctrop": ["ct_add", "ct_add_sets", "ct_mul_sets", "ct_sum_n", "phase_add", "quat_add",
              "rt_add"],
    "axioms": ["AxiomReport", "CharResult", "HomReport", "c_characteristic",
               "characteristic", "check_double_distributivity", "check_hom",
               "check_multigroup", "check_multiring"],
    "finite": ["FiniteMultistructure"],
    "structures": ["Structure", "get_structure"],
}

# a child that runs one command through cli.main, checks its exit code (the
# first argument) and prints every module it has imported, listed before the
# child imports json to print them
_CHILD = """
import contextlib, io, sys
from hyperalg import cli
code, argv = int(sys.argv[1]), sys.argv[2:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == code
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""

_CORE = ["cli", "structures", "tolerance"]


def _run_child(argv, *flags, code=0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *flags, "-c", _CHILD, str(code), *argv],
                          capture_output=True, text=True, env=env, timeout=60, check=True)


def _loaded_after(*argv, code=0) -> list:
    return json.loads(_run_child(argv, code=code).stdout)


def _modules_after(*argv, code=0) -> list:
    """The hyperalg submodules loaded after running `argv` to exit `code`."""
    loaded = _loaded_after(*argv, code=code)
    return [m[len("hyperalg."):] for m in loaded if m.startswith("hyperalg.")]


@pytest.mark.parametrize(
    "argv,modules",
    [
        ((), _CORE),
        (("add", "TC", "1∠0", "1∠1.5707963268"), _CORE + ["csets", "ctrop"]),
        (("sum", "TC", "--", "1∠0", "i", "-i", "1"), _CORE + ["csets", "ctrop"]),
        (("add", "tri", "2", "1"), _CORE + ["realhf", "rsets"]),
        (("add", "ultra", "1", "2"), _CORE + ["realhf", "rsets"]),
        (("verify", "S"), _CORE + ["axioms", "finite"]),
        (("verify", "TC", "--level", "dd", "--budget", "10"), _CORE + ["axioms", "csets", "ctrop"]),
        (("char", "powers:2:8"), _CORE + ["axioms", "finite"]),
        (("hom", "sign"), _CORE + ["axioms", "finite", "homs", "rsets"]),
        (("add", "padic:2:3", "1", "1"), _CORE + ["exotic"]),
        (("add", "mono", "1t^1", "1t^2"), _CORE + ["exotic"]),
        (("deq", "lm", "1", "2"), _CORE + ["deq", "realhf", "rsets"]),
        (("deq", "tri", "2", "1"), _CORE + ["deq", "realhf", "rsets"]),
    ],
    ids=["import-cli", "add-TC", "sum-TC", "add-tri", "add-ultra", "verify-S", "verify-TC-dd",
         "char-powers", "hom-sign", "add-padic", "add-mono", "deq-lm", "deq-tri"],
)
def test_cli_imports_only_what_the_command_uses(argv, modules):
    assert _modules_after(*argv) == sorted(modules)


def test_real_interval_product_loads_no_complex_modules():
    # tri fails double distributivity, so verify exits 1; its set product is
    # the real interval product of structures, which needs no csets or ctrop
    argv = ("verify", "tri", "--level", "dd", "--budget", "10")
    assert _modules_after(*argv, code=1) == sorted(_CORE + ["axioms", "realhf", "rsets"])


@pytest.mark.parametrize(
    "argv",
    [("add", "TC", "1∠0", "1∠1.5707963268"), ("add", "tri", "2", "1")],
    ids=["add-TC", "add-tri"],
)
def test_cli_add_loads_no_json_or_csv(argv):
    assert {"json", "csv"} & set(_loaded_after(*argv)) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "S"),
        ("add", "quat", "1,0,0,0", "0,1,0,0"),
        ("deq", "complex", "-1", "i"),
    ],
    ids=["verify-S", "add-quat", "deq-complex"],
)
def test_importtime_logs_every_loaded_module(argv):
    """A module imported at its first use is still logged by `-X importtime`,
    so its import cost is visible like that of any other module."""
    proc = _run_child(argv, "-X", "importtime")
    logged = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    loaded = {m for m in json.loads(proc.stdout) if m.partition(".")[0] == "hyperalg"}
    assert loaded - logged == set()


def test_exported_names_resolve_to_their_definitions():
    listed = dir(hyperalg)
    for module, names in EXPORTED.items():
        for name in names:
            assert getattr(hyperalg, name) is getattr(getattr(hyperalg, module), name), name
            assert name in listed, name


def test_package_api_is_exactly_the_exported_names():
    assert sorted(hyperalg.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    assert hyperalg.__version__ == "0.1.0"


@pytest.mark.parametrize("module", ["cli", "deq", "exotic", "homs", *EXPORTED])
def test_submodule_resolves_as_attribute(module):
    assert getattr(hyperalg, module).__name__ == f"hyperalg.{module}"
    assert module in dir(hyperalg)


@pytest.mark.parametrize("name", ["no_such_name", "normalize_parts"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(hyperalg, name)
