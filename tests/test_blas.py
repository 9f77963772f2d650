"""No BLAS call in `src/textbalance` outside the kNN filter.

A BLAS matrix or dot product picks its kernel, and so the order in which
it adds its products, per CPU and per library build, so its last bits can
differ between machines.  Only the kNN filter may use one: its slack holds
for any summation order and the exact recheck alone ranks the points, so
no value BLAS computes reaches an output.  A fit, a scorer or a digest
must sum in a fixed order instead.  This guard reads the source, so it
catches a new call even where no fixture's bits happen to move.

The use is listed in `ALLOWED` by its enclosing function; the change that
removes it removes its entry, and an entry that no longer matches fails
the test as well.
"""

from __future__ import annotations

import ast
from collections import Counter

from sourcescan import ScopedVisitor, package_uses

BLAS = frozenset("dot matmul inner vdot tensordot einsum linalg".split())
MODULE_NAMES = {"np": "numpy", "numpy": "numpy"}

# (enclosing function, use) -> number of uses.
ALLOWED = Counter({("resample.NeighborIndex._solve", "@"): 1})


class _Uses(ScopedVisitor):
    """Each ``@`` and ``@=``, each BLAS ``np.``/``numpy.`` attribute, each
    ``.dot`` method, and each BLAS name imported from ``numpy``, keyed by
    the dotted name of its enclosing class and function scopes."""

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._record("@", node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._record("@=", node)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in MODULE_NAMES:
            if node.attr in BLAS:
                self._record(f"numpy.{node.attr}", node)
        elif node.attr == "dot":
            self._record(".dot", node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        linalg = (node.module or "").startswith("numpy.linalg")
        if node.module == "numpy" or linalg:
            for alias in node.names:
                if linalg or alias.name in BLAS:
                    self._record(f"{node.module}.{alias.name}", node)


def test_visitor_finds_every_form():
    source = (
        "import numpy as np\nfrom numpy import einsum\nfrom numpy.linalg import norm\n"
        "class A:\n    def f(self, x):\n        x @= x\n        return np.linalg.norm(x @ x)\n"
        "def g(x, y):\n    return numpy.inner(x, y) + x.dot(y) + np.tensordot(x, y)\n"
    )
    visitor = _Uses("m")
    visitor.visit(ast.parse(source))
    assert visitor.found == [
        ("m", "numpy.einsum", 2),
        ("m", "numpy.linalg.norm", 3),
        ("m.A.f", "@=", 6),
        ("m.A.f", "numpy.linalg", 7),
        ("m.A.f", "@", 7),
        ("m.g", "numpy.inner", 9),
        ("m.g", ".dot", 9),
        ("m.g", "numpy.tensordot", 9),
    ]


def test_only_the_knn_filter_calls_blas():
    uses = package_uses(_Uses)
    counts = Counter((function, use) for function, use, _ in uses)
    assert counts == ALLOWED, f"(function, use, line) in src: {uses}"
