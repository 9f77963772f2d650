"""Statement coverage of the package by the test suite, with the standard
library only.  Run from the repository root:

    python tests/linecov.py [PYTEST ARGS ...]

It runs ``pytest.main`` with the given arguments in this process under
`sys.settrace`, recording the lines that run in files under
``src/textbalance/`` and no others.  Then it prints each statement that
never ran as ``path:line: text``, and last a summary line.  A statement is
each AST statement but definitions, imports, docstrings and annotations
without a value, none of which runs code of its own line by line.  It ran
when a line of its own did: for an ``if``, ``for``, ``try`` or other
compound statement, its header lines, not its body's.  Child interpreters
are not traced, so code that only a test's child process runs is listed.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "textbalance"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _counted(node: ast.stmt) -> bool:
    if isinstance(node, _SKIPPED):
        return False
    if isinstance(node, ast.AnnAssign):
        return node.value is not None
    # A string on its own, a docstring above all, compiles to no code.
    return not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))


def statements(source: str) -> list[tuple[int, set[int]]]:
    """Each counted statement of ``source`` as its first line and its own
    lines: all of a simple statement's, and a compound statement's up to
    its first nested statement."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or not _counted(node):
            continue
        nested = [child.lineno for child in ast.walk(node)
                  if child is not node and isinstance(child, ast.stmt)]
        end = min(nested) - 1 if nested else node.end_lineno
        found.append((node.lineno, set(range(node.lineno, max(end, node.lineno) + 1))))
    return sorted(found)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    # Lines run, by real path; and by each code object's file name, the
    # same set or None for a file outside the package.
    executed = {path.resolve(): set() for path in sorted(PACKAGE.glob("*.py"))}
    by_name: dict[str, set[int] | None] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = executed.get(Path(name).resolve())
        return trace_lines if by_name[name] is not None else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    never, total = 0, 0
    for path, ran in executed.items():
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, own in statements(source):
            total += 1
            if not own & ran:
                never += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"linecov: {never} of {total} statements never run "
          "(in process; child interpreters are not traced)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
