"""Plain-text sparse matrix files for standalone oversampling runs.

Layout: a header line ``nrows ncols nnz`` followed by one ``row col value``
triple per line, sorted by (row, col), 0-based, values finite and in
shortest round-trip decimal form.  Any order loads, but a (row, col) pair
may appear only once.  Row labels live in a sidecar file (default
``<matrix>.labels``) holding a single column, one label per row.  Both
files are UTF-8, and reading skips a leading byte-order mark.  Reading
builds a `FeatureMatrix`'s CSR arrays directly.

Writing works on the CSR arrays in chunks of `_CHUNK_ENTRIES` stored
entries.  In each chunk every distinct value is formatted once, told
apart by bit pattern so ``-0.0`` keeps its sign, and so is every
distinct row and column id; the entries' lines are then gathered from
those texts and written as one string.  The bytes are those of one
``f"{r} {c} {v!r}\n"`` per entry, and memory follows the chunk, not the
matrix's row count or dim.

Reading has a fast path and a checker.  The fast path parses chunks of
about 64 KiB of lines and keeps no container per line: it checks each
line's field count with a split it drops at once, takes the chunk's fields
from one ``str.split``, and parses every third of them with the same
``int()`` and ``float()`` as the checker.  Every line break is whitespace to
``str.split``, so those fields are the lines' triples in order.  It then
checks finiteness and bounds per chunk and order and repeats once over all
entries, with numpy.  It gives up on any fault, and the checker then reads
the file line by line and raises a `MatrixFormatError` naming the first
faulty line, so the fast path changes neither a matrix nor a message.
Only a few flat lists per chunk outlive a line, so a read triggers no
cyclic garbage collection however many lines it parses.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from .vectorize import CsrView, FeatureMatrix

_CHUNK_ENTRIES = 1 << 13  # stored entries `_entry_texts` formats and joins per chunk
_CHUNK_CHARS = 1 << 16  # text parsed per chunk by the fast path


class MatrixFormatError(ValueError):
    """Raised for malformed sparse-matrix or label files."""


def default_labels_path(matrix_path) -> Path:
    path = Path(matrix_path)
    return path.with_name(path.name + ".labels")


def _format_distinct(values: np.ndarray, form: Callable) -> np.ndarray:
    """``form(v)`` for each item ``v`` of ``values``, as an object array,
    with ``form`` called once per distinct bit pattern.  Bit patterns, not
    ``==``, tell values apart: ``-0.0 == 0.0``, but their reprs differ."""
    distinct, inverse = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
    texts = np.array(list(map(form, distinct.view(values.dtype).tolist())), dtype=object)
    return texts[inverse]


def _entry_texts(columns: list[tuple[np.ndarray, Callable]]) -> Iterator[str]:
    """The text of every stored entry, joined `_CHUNK_ENTRIES` at a time.
    Each (array, form) column gives one item per entry, and an entry's text
    is its columns' ``form(item)`` in order.  Every table is sized by the
    chunk, never by a matrix's row count or dim."""
    n, chunk = columns[0][0].size, _CHUNK_ENTRIES
    for lo in range(0, n, chunk):
        table = np.stack(
            [_format_distinct(items[lo : lo + chunk], form) for items, form in columns], axis=1
        )
        yield "".join(table.ravel().tolist())


def write_matrix(matrix: FeatureMatrix, path, labels_path=None) -> None:
    path = Path(path)
    labels_path = default_labels_path(path) if labels_path is None else Path(labels_path)
    csr = matrix.csr
    # Each newline is written ahead of the line it precedes (the last one
    # after the loop), so a value's text is its bare `repr`.
    columns = [(csr.row_ids, "\n{} ".format), (csr.indices, "{} ".format), (csr.data, repr)]
    with path.open("w", encoding="utf-8") as out:
        out.write(f"{len(matrix)} {matrix.dim} {csr.data.size}")
        out.writelines(_entry_texts(columns))
        out.write("\n")
    labels_path.write_text("".join(f"{lb}\n" for lb in matrix.labels), encoding="utf-8")


def read_matrix(path, labels_path=None) -> FeatureMatrix:
    path = Path(path)
    labels_path = default_labels_path(path) if labels_path is None else Path(labels_path)
    text = path.read_text(encoding="utf-8-sig")
    parsed = _parse_fast(path, text)
    if parsed is None:
        parsed = _parse_checked(path, text.splitlines())
    n_rows, n_cols, rows, cols, data = parsed
    labels = _read_labels(labels_path, n_rows)
    # Only now has the label file backed up the header's row count.
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    return FeatureMatrix(CsrView(indptr, cols, data, n_cols), labels)


def _header(path: Path, line: str) -> tuple[int, int, int]:
    if not line.strip():
        raise MatrixFormatError(f"{path}: missing header line")
    header = line.split()
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
    return n_rows, n_cols, nnz


def _line_chunks(text: str):
    """``text`` in pieces of about `_CHUNK_CHARS` characters, each cut just
    after a newline, so no line is split."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _parse_fast(path: Path, text: str):
    """The stored entries as sorted (rows, cols, data) arrays, parsed a
    chunk of lines at a time with the same ``int()`` and ``float()`` as
    `_parse_checked` and checked with array operations; None wherever that
    checker could fail, so it runs and words the error."""
    chunks = _line_chunks(text)
    first = next(chunks, "")
    lines = first.splitlines()
    n_rows, n_cols, nnz = _header(path, lines[0] if lines else "")
    # (lines, fields) per chunk; the header's three fields are dropped.
    pieces = itertools.chain(
        [(lines[1:], first.split()[3:])], ((c.splitlines(), c.split()) for c in chunks)
    )
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for lines, fields in pieces:
        if not set(map(len, map(str.split, lines))) <= {0, 3}:  # blank lines split to []
            return None
        try:
            r = np.array(list(map(int, fields[0::3])), dtype=np.int64)
            c = np.array(list(map(int, fields[1::3])), dtype=np.int64)
            v = np.array(list(map(float, fields[2::3])), dtype=np.float64)
        except (ValueError, OverflowError):  # unparsable, or beyond int64
            return None
        if not (
            np.isfinite(v).all()
            and ((0 <= r) & (r < n_rows) & (0 <= c) & (c < n_cols)).all()
        ):
            return None
        parts.append((r, c, v))
    rows, cols, data = (np.concatenate(x) for x in zip(*parts))
    if rows.size != nnz:
        return None
    if not _increasing(rows, cols):
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        if not _increasing(rows, cols):  # sorted now: a (row, col) pair repeats
            return None
    kept = data != 0.0
    return n_rows, n_cols, rows[kept], cols[kept], data[kept]


def _increasing(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the (row, col) pairs strictly increase: sorted, none repeated."""
    step = np.diff(rows)
    return bool(((step > 0) | ((step == 0) & (np.diff(cols) > 0))).all())


def _parse_checked(path: Path, lines: list[str]):
    """Line by line: the first fault raises a `MatrixFormatError` naming
    its line.  Returns what `_parse_fast` returns for the same file."""
    n_rows, n_cols, nnz = _header(path, lines[0] if lines else "")
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

    kept = sorted(key for key, v in entries.items() if v != 0.0)
    rows, cols = np.array(kept, dtype=np.int64).reshape(-1, 2).T
    data = np.array([entries[key] for key in kept], dtype=np.float64)
    return n_rows, n_cols, rows, cols, data


def _read_labels(labels_path: Path, n_rows: int) -> tuple[int, ...]:
    if not labels_path.exists():
        raise MatrixFormatError(f"label sidecar file not found: {labels_path}")
    labels = []
    for line_num, line in enumerate(labels_path.read_text(encoding="utf-8-sig").splitlines(), 1):
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
