"""Every public function and class of the library is used outside the tests,
every module-level import of a library module is used in that module, and
no value-set family imports another family's module.

A name counts as used when a non-test file under src/, scripts/ or
perfbench/ refers to it: as a name, an attribute, an imported name, or a
string constant equal to it (cli.HOM_TABLE names its maps by string).  A
definition's own body does not count, and neither does a re-export from a
package's `__init__.py`.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hyperalg"

ALLOWED_UNREACHED = {
    # library API named in the README; routing it through the CLI would add
    # an option that no caller needs
    "finite.quotient_by_normal",
}


def _refs(node: ast.AST) -> set:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_names() -> set:
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_") or path.name == "__init__.py":
                continue
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                refs = _refs(stmt)
                if isinstance(stmt, _DEFINITIONS):
                    refs.discard(stmt.name)
                used |= refs
    return used


def _unreached() -> set:
    used = _used_names()
    return {
        f"{path.stem}.{stmt.name}"
        for path in LIBRARY.glob("*.py")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, _DEFINITIONS) and not stmt.name.startswith("_") and stmt.name not in used
    }


def test_every_public_definition_is_used_outside_tests():
    unreached = _unreached()
    assert unreached - ALLOWED_UNREACHED == set()
    # an allowlist entry that is gone or now used must be dropped
    assert ALLOWED_UNREACHED <= unreached


_IMPORTS = (ast.Import, ast.ImportFrom)


def _unused_imports(path: pathlib.Path) -> set:
    body = ast.parse(path.read_text(encoding="utf-8")).body
    bound = {
        alias.asname or alias.name.split(".", 1)[0]
        for stmt in body
        if isinstance(stmt, _IMPORTS) and getattr(stmt, "module", None) != "__future__"
        for alias in stmt.names
    }
    named = set()
    for stmt in body:
        if not isinstance(stmt, _IMPORTS):
            named |= {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
    return {f"{path.stem}.{name}" for name in bound - named}


def test_every_module_level_import_is_used():
    unused = set()
    for path in LIBRARY.glob("*.py"):
        if path.name != "__init__.py":
            unused |= _unused_imports(path)
    assert unused == set()


# the value-set families; what they share lives in tolerance
FAMILIES = ("csets", "rsets", "qsets", "exotic")


def _library_imports(path: pathlib.Path) -> set:
    """The hyperalg modules a module imports at module level, by full name;
    `from . import x` reads as `hyperalg.`, the package itself."""
    out = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.ImportFrom):
            out.add(f"hyperalg.{stmt.module or ''}" if stmt.level else stmt.module)
        elif isinstance(stmt, ast.Import):
            out |= {alias.name for alias in stmt.names}
    return {name for name in out if name.startswith("hyperalg")}


def test_value_set_families_import_only_tolerance():
    imports = {name: _library_imports(LIBRARY / f"{name}.py") for name in FAMILIES}
    assert imports == {name: {"hyperalg.tolerance"} for name in FAMILIES}
