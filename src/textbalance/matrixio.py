"""Plain-text sparse matrix files for standalone oversampling runs.

Layout: a header line ``nrows ncols nnz`` followed by one ``row col value``
triple per line, sorted by (row, col), 0-based, values finite and in
shortest round-trip decimal form.  Any order loads, but a (row, col) pair
may appear only once.  Row labels live in a sidecar file (default
``<matrix>.labels``) holding a single column, one label per row.  Reading
builds a `FeatureMatrix`'s CSR arrays directly; writing streams them by row.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .vectorize import CsrView, FeatureMatrix


class MatrixFormatError(ValueError):
    """Raised for malformed sparse-matrix or label files."""


def default_labels_path(matrix_path) -> Path:
    path = Path(matrix_path)
    return path.with_name(path.name + ".labels")


def write_matrix(matrix: FeatureMatrix, path, labels_path=None) -> None:
    path = Path(path)
    labels_path = default_labels_path(path) if labels_path is None else Path(labels_path)
    with path.open("w", encoding="utf-8") as out:
        out.write(f"{len(matrix)} {matrix.dim} {matrix.csr.data.size}\n")
        for r, entries in enumerate(matrix.csr.entries()):
            out.writelines(f"{r} {i} {v!r}\n" for i, v in entries)
    labels_path.write_text("".join(f"{lb}\n" for lb in matrix.labels), encoding="utf-8")


def read_matrix(path, labels_path=None) -> FeatureMatrix:
    path = Path(path)
    labels_path = default_labels_path(path) if labels_path is None else Path(labels_path)

    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].strip():
        raise MatrixFormatError(f"{path}: missing header line")
    header = lines[0].split()
    if len(header) != 3:
        raise MatrixFormatError(f"{path}: header must be 'nrows ncols nnz'")
    try:
        n_rows, n_cols, nnz = (int(x) for x in header)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-integer header field") from exc
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise MatrixFormatError(f"{path}: negative header field")
    if max(n_rows, n_cols) >= 2**63:
        raise MatrixFormatError(f"{path}: header field does not fit a 64-bit index")

    # Values by (row, col).  The CSR arrays are built only once the file has
    # backed the header up, so memory follows the file's contents, not the
    # row count it claims.
    entries: dict[tuple[int, int], float] = {}
    for line_num, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"{path}:{line_num}: expected 'row col value'")
        try:
            r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}:{line_num}: unparsable triple") from exc
        if not math.isfinite(v):
            raise MatrixFormatError(f"{path}:{line_num}: non-finite value {parts[2]!r}")
        if not 0 <= r < n_rows or not 0 <= c < n_cols:
            raise MatrixFormatError(f"{path}:{line_num}: index out of bounds")
        if (r, c) in entries:
            raise MatrixFormatError(f"{path}:{line_num}: duplicate entry ({r}, {c})")
        entries[r, c] = v
    if len(entries) != nnz:
        raise MatrixFormatError(f"{path}: header claims {nnz} entries, found {len(entries)}")

    labels = _read_labels(labels_path, n_rows)
    kept = sorted(key for key, v in entries.items() if v != 0.0)
    rows, cols = np.array(kept, dtype=np.int64).reshape(-1, 2).T
    data = np.array([entries[key] for key in kept], dtype=np.float64)
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    return FeatureMatrix.from_csr(CsrView(indptr, cols, data, n_cols), labels)


def _read_labels(labels_path: Path, n_rows: int) -> tuple[int, ...]:
    if not labels_path.exists():
        raise MatrixFormatError(f"label sidecar file not found: {labels_path}")
    labels = []
    for line_num, line in enumerate(labels_path.read_text(encoding="utf-8").splitlines(), 1):
        text = line.strip()
        if not text:
            continue
        if text not in ("0", "1"):
            raise MatrixFormatError(f"{labels_path}:{line_num}: label must be 0 or 1")
        labels.append(int(text))
    if len(labels) != n_rows:
        raise MatrixFormatError(
            f"{labels_path}: {len(labels)} labels for {n_rows} matrix rows"
        )
    return tuple(labels)
