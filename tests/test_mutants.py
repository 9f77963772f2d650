"""The mutant catalogue in `tests/mutants.py` stays applicable: each
mutant's ``old`` snippet, and the ``old`` of each of its ``also`` edits,
occurs exactly once in its file, and each of its ``kills`` ids names a
test class or function that exists, read from the test file's AST.
Running the mutants is `python tests/mutants.py`."""

from __future__ import annotations

import ast
import re

import pytest

from mutants import CATALOGUE, ROOT


def _defines(body: list[ast.stmt], name: str) -> list[ast.stmt] | None:
    """The body of the class or function ``name`` defined in ``body``."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name:
            return node.body
    return None


def test_names_are_unique():
    names = [m.name for m in CATALOGUE]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_old_occurs_once_in_its_source_file(mutant):
    assert mutant.path.startswith("src/")
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    for old, new in ((mutant.old, mutant.new), *mutant.also):
        assert old != new
        assert text.count(old) == 1


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_kills_name_existing_tests(mutant):
    assert mutant.kills and mutant.origin
    for node_id in mutant.kills:
        path, *names = re.sub(r"\[.*\]$", "", node_id).split("::")
        assert names, node_id
        body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            body = _defines(body, name)
            assert body is not None, node_id
