#!/usr/bin/env python3
"""Run the test suite in-process and list the library lines it never runs.

    python scripts/line_reach.py [pytest arguments]

Run it from the repository root, where pytest finds its configuration; every
argument goes to pytest unchanged.  The tests run under `sys.settrace`,
which records each line of `src/hyperalg` that executes in this process (a
line that only a CLI child process runs counts as unreached).  A line is
executable when the compiler emits code for it, except for the lines of an
`if __name__ == "__main__":` block and of a statement whose first line is
marked `# pragma: no cover`.  Each such pragma must give its reason after the
marker; the script lists a bare one and exits 1.  For each module with an
unreached line it prints those lines, with `raise` lines listed apart, then
a total.  The exit code is pytest's, or 1 for a bare pragma.
"""
import ast
import os
import re
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hyperalg"

PRAGMA = re.compile(r"#\s*pragma:\s*no cover\b(.*)")


def _code_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_main_guard(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        and any(isinstance(c, ast.Constant) and c.value == "__main__" for c in node.test.comparators)
    )


def bare_pragmas(source: str) -> list:
    """The line numbers of `# pragma: no cover` markers that give no reason."""
    return [
        n
        for n, text in enumerate(source.splitlines(), 1)
        if (m := PRAGMA.search(text)) and not re.search(r"\w", m.group(1))
    ]


def executable_lines(source: str, filename: str = "<source>") -> tuple:
    """(executable lines, raise lines) of a module's source: the lines the
    compiler emits code for, without `__main__` blocks and pragma'd
    statements; the raise lines are the executable lines of `raise`
    statements."""
    text = source.splitlines()
    lines = _code_lines(compile(source, filename, "exec"))
    raises = set()
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        span = set(range(node.lineno, node.end_lineno + 1))
        if _is_main_guard(node) or PRAGMA.search(text[node.lineno - 1]):
            lines -= span
        elif isinstance(node, ast.Raise):
            raises |= span
    return lines, raises & lines


def _ranges(lines) -> str:
    runs = []
    for n in sorted(lines):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def _trace(args: list) -> tuple:
    """Run pytest on args under a line tracer; (exit code, hits by path)."""
    import pytest

    hits = {}
    tracers = {}

    def local_for(filename):
        path = os.path.realpath(filename)
        if Path(path).parent != LIBRARY:
            return None
        add = hits.setdefault(path, set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = tracers[filename]
        except KeyError:
            local = tracers[filename] = local_for(filename)
        if local is None:
            return None
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list) -> int:
    status, hits = _trace(argv)
    total = reached = bare = 0
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rel = path.relative_to(ROOT)
        for n in bare_pragmas(source):
            print(f"{rel}:{n}: `# pragma: no cover` gives no reason")
            bare += 1
        lines, raises = executable_lines(source, str(path))
        missed = lines - hits.get(str(path), set())
        total += len(lines)
        reached += len(lines) - len(missed)
        if missed:
            print(f"{rel}: {len(lines) - len(missed)} of {len(lines)} lines reached")
            if missed - raises:
                print(f"  unreached: {_ranges(missed - raises)}")
            if missed & raises:
                print(f"  raise:     {_ranges(missed & raises)}")
    print(f"total: {reached} of {total} executable lines reached")
    return 1 if bare and not status else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
