"""List the statements of ``src/tricensus`` that the test suite never runs.

Run from anywhere with ``python tests/unexecuted.py [pytest arguments]``.  It
runs the suite (by default the whole ``tests`` directory) in this process
under a ``sys.settrace`` hook that records only lines in ``src/tricensus``,
then prints each statement none of those lines reached, one per line, as
``path:line text`` with the path relative to the repository root.  It skips
docstrings and ``def``, ``class``, ``import`` and ``global`` lines, which run
at import or not at all.  A compound statement counts as run when its header
(say ``if ...:`` or ``except ...:``) runs; a simple statement, when any of
its lines runs.

It exits 0 whatever it finds, and with pytest's exit code when the suite
itself fails.  It is a tool for reading, not a check: hypothesis draws vary
from run to run, and code run in other processes (``--jobs`` workers, the
tests that start the CLI in a subprocess) is not traced.  The file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tricensus"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str):
    """Yield (first line, lines) for each statement of ``source`` that should
    run: the lines are its header for a compound statement, else all of it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SKIPPED) or _is_docstring(node):
            continue
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = ran.get(str(path), set())
        for first, span in sorted(statements(source)):
            if lines.isdisjoint(span):
                print(f"{path.relative_to(ROOT)}:{first} {text[first - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
