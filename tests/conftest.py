"""Shared helpers for building random sparse test data and for running
the CLI in a child interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import textbalance
from oracles import SparseVector, csr_of, from_pairs, rows_of
from textbalance.vectorize import CsrView, FeatureMatrix

_CHILD_MAIN = """
import json, sys
from textbalance.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit != 0: {argv}")
"""


def rand_sparse(
    rng: np.random.Generator, dim: int, density: float = 0.4, nonneg: bool = False
) -> SparseVector:
    """Random sparse vector with ~density fraction of nonzero coordinates."""
    pairs = []
    for i in range(dim):
        if rng.random() < density:
            value = float(rng.normal())
            if nonneg:
                value = abs(value)
            if value != 0.0:
                pairs.append((i, value))
    return from_pairs(dim, pairs)


def matrix_of(rows, labels, dim: int) -> FeatureMatrix:
    """The matrix of the given sparse rows, in order, and their labels."""
    return FeatureMatrix(csr_of(rows, dim), tuple(labels))


def rand_matrix(
    rng: np.random.Generator,
    n0: int,
    n1: int,
    dim: int,
    density: float = 0.4,
    nonneg: bool = False,
) -> FeatureMatrix:
    """Random matrix with n0 label-0 rows followed by n1 label-1 rows."""
    rows = [rand_sparse(rng, dim, density, nonneg) for _ in range(n0 + n1)]
    labels = [0] * n0 + [1] * n1
    return matrix_of(rows, labels, dim)


def to_dense(x: SparseVector | CsrView | FeatureMatrix) -> np.ndarray:
    """Dense copy of a sparse vector or a one-row view (1-d), or of a
    feature matrix (2-d)."""
    if isinstance(x, FeatureMatrix):
        dense = np.zeros(x.csr.shape)
        dense[x.csr.row_ids, x.csr.indices] = x.csr.data
        return dense
    if isinstance(x, CsrView):
        (x,) = rows_of(x)
    dense = np.zeros(x.dim)
    for i, v in x.entries:
        dense[i] = v
    return dense


def dense_to_matrix(X, y) -> FeatureMatrix:
    """Exact conversion of a dense array + labels into a FeatureMatrix."""
    X = np.asarray(X, dtype=np.float64)
    rows = [
        from_pairs(X.shape[1], [(j, X[i, j]) for j in range(X.shape[1])])
        for i in range(X.shape[0])
    ]
    return matrix_of(rows, [int(v) for v in y], X.shape[1])


def oracle_matrix(rng: np.random.Generator, nonneg: bool = False) -> FeatureMatrix:
    """Small random matrix with repeated values, all-zero columns, both classes
    and, unless ``nonneg``, negative values."""
    n = int(rng.integers(2, 40))
    dim = int(rng.integers(1, 9))
    if rng.random() < 0.5:
        levels = np.array([-2.0, -0.5, 0.25, 0.5, 1.0, 3.0])  # many repeated values
        X = rng.choice(levels, size=(n, dim))
    else:
        X = rng.normal(size=(n, dim))
    X *= rng.random((n, dim)) < rng.uniform(0.1, 1.0)
    X[:, rng.random(dim) < 0.2] = 0.0  # all-zero columns
    if nonneg:
        X = np.abs(X)
    y = rng.integers(0, 2, size=n)
    y[: 2] = (0, 1)
    return dense_to_matrix(X + 0.0, y)  # + 0.0 turns -0.0 into 0.0


def child_environ(env: dict) -> dict[str, str]:
    """The environment for a child interpreter that imports the package
    under test: this process's, with ``env`` laid over it, where a
    ``None`` value unsets a variable."""
    child_env = dict(os.environ, PYTHONPATH=str(Path(textbalance.__file__).parents[1]))
    for name, value in env.items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return child_env


def cli_outputs_in_child(calls, env: dict, workdir: Path) -> dict[str, bytes]:
    """Run each argv in ``calls`` through ``cli.main`` in one new
    interpreter, in the new directory ``workdir``, and return the bytes of
    every file written there by name, plus the child's ``"stdout"``.

    ``env`` is laid over this process's environment (`child_environ`).
    Settings that a process reads only at start-up, such as
    ``GLIBC_TUNABLES`` or ``NPY_DISABLE_CPU_FEATURES``, take effect this
    way, so a test can compare outputs with and without a CPU dispatch
    cap.  Every call must exit 0."""
    child_env = child_environ(env)
    workdir.mkdir()
    argvs = json.dumps([[str(a) for a in argv] for argv in calls])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_MAIN, argvs],
        cwd=workdir,
        env=child_env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    outputs = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    outputs["stdout"] = proc.stdout
    return outputs
