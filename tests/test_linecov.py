"""The statement-coverage runner in `tests/linecov.py`: which statements
it counts, and a run on one test file in a child interpreter."""

from __future__ import annotations

import os
import re
import subprocess
import sys

from linecov import ROOT, statements

SOURCE = '''"""Module docstring."""
import os
from sys import argv
LIMIT: int
count: int = 0


class Box:
    """Class docstring."""
    size: int
    kind = "box"

    def grow(self, by):
        """Method docstring."""
        if (by >
                0):
            self.size += by
        try:
            return self.size
        except TypeError:
            pass
'''


def test_counts_statements_by_their_own_lines():
    assert statements(SOURCE) == [
        (5, {5}),  # an annotation with a value
        (11, {11}),
        (15, {15, 16}),  # a compound statement: its header lines only
        (17, {17}),
        (18, {18}),
        (19, {19}),
        (21, {21}),
    ]


def test_run_on_one_test_file_ends_in_its_summary_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "linecov.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_rng.py"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    *listed, summary = proc.stdout.splitlines()
    found = re.fullmatch(
        r"linecov: (\d+) of (\d+) statements never run "
        r"\(in process; child interpreters are not traced\)",
        summary,
    )
    assert found, summary
    never, total = map(int, found.groups())
    unrun = [line for line in listed if re.match(r"src/textbalance/\w+\.py:\d+: ", line)]
    assert 0 < len(unrun) == never < total
    # `rng` is the one module its tests run through, every statement of it.
    assert not any(line.startswith("src/textbalance/rng.py:") for line in unrun)
    assert any(line.startswith("src/textbalance/cli.py:") for line in unrun)
