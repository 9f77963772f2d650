"""No transcendental function in `src/textbalance` beyond a short allow-list.

glibc picks FMA or AVX2 variants of `log`, `exp`, `sin`, ... per CPU, and
numpy picks a SIMD kernel for each ufunc per CPU, so such a call can round
a last bit differently on another machine and move an output byte.  `sqrt`
is exactly rounded on every target, so it is allowed.  This guard reads
the source, so it catches a new call even where no fixture happens to hit
a value that rounds differently.

Each remaining use is listed in `ALLOWED` by its enclosing function; the
change that removes a use removes its entry, and an entry that no longer
matches fails the test as well.
"""

from __future__ import annotations

import ast
from collections import Counter

from sourcescan import ScopedVisitor, package_uses

TRANSCENDENTAL = frozenset(
    "exp expm1 exp2 log log1p log2 log10 logaddexp pow power "
    "sin cos tan sinh cosh tanh erf gamma".split()
)
MODULE_NAMES = {"math": "math", "np": "numpy", "numpy": "numpy"}

# (enclosing function, use) -> number of uses.
ALLOWED = Counter(
    {
        ("classify._sigmoid", "numpy.exp"): 1,  # ROADMAP direction 1
        ("classify._fit_nb", "math.log"): 2,  # ROADMAP direction 6
        ("vectorize.TfIdfModel.idf", "math.log"): 1,  # ROADMAP direction 6
    }
)


class _Uses(ScopedVisitor):
    """Each transcendental ``math.``/``np.``/``numpy.`` attribute and each
    one imported by name from ``math`` or ``numpy``, keyed by the dotted
    name of its enclosing class and function scopes."""

    def visit_Attribute(self, node):
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in MODULE_NAMES
            and node.attr in TRANSCENDENTAL
        ):
            self._record(f"{MODULE_NAMES[node.value.id]}.{node.attr}", node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module in ("math", "numpy"):
            for alias in node.names:
                if alias.name in TRANSCENDENTAL:
                    self._record(f"{node.module}.{alias.name}", node)


def test_visitor_finds_every_form():
    source = (
        "import math\nimport numpy as np\nfrom math import sin\n"
        "class A:\n    def f(self, x):\n        return np.power(x, 2) + math.sqrt(x)\n"
        "def g(x):\n    y = numpy.tanh\n    return math.log1p(x)\n"
    )
    visitor = _Uses("m")
    visitor.visit(ast.parse(source))
    assert visitor.found == [
        ("m", "math.sin", 3),
        ("m.A.f", "numpy.power", 6),
        ("m.g", "numpy.tanh", 8),
        ("m.g", "math.log1p", 9),
    ]


def test_only_the_allowed_transcendental_calls_remain():
    uses = package_uses(_Uses)
    counts = Counter((function, use) for function, use, _ in uses)
    assert counts == ALLOWED, f"(function, use, line) in src: {uses}"
