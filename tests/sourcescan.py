"""What the guards that read `src/textbalance` share.

`ScopedVisitor` records each use it finds with the dotted name of its
enclosing class and function scopes and its line; a guard subclasses it
with the ``visit_`` methods that find its uses.  `package_uses` runs a
visitor over every module of the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import textbalance


class ScopedVisitor(ast.NodeVisitor):
    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[tuple[str, str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _record(self, use: str, node) -> None:
        self.found.append((".".join(self.scope), use, node.lineno))


def package_uses(visitor: type[ScopedVisitor]) -> list[tuple[str, str, int]]:
    """(enclosing function, use, line) for every module of the package."""
    found = []
    for path in sorted(Path(textbalance.__file__).parent.glob("*.py")):
        uses = visitor(path.stem)
        uses.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += uses.found
    return found
