"""TF-IDF vectorization over token sequences.

Term weight = (term count / total in-vocabulary tokens of the document)
* ln(training docs / docs containing the term).  Fitting reads training
documents only; transform drops out-of-vocabulary tokens and never stores
zero products, so a term present in every training document (idf = 0)
contributes nothing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .preprocess import TokenSequence


@dataclass(frozen=True)
class SparseVector:
    """Sorted (index, value) pairs; zeros are never stored."""

    dim: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        last = -1
        for index, value in self.entries:
            if not 0 <= index < self.dim:
                raise ValueError(f"index {index} outside [0, {self.dim})")
            if index <= last:
                raise ValueError("entry indices must be strictly increasing")
            if value == 0.0:
                raise ValueError(f"zero value stored at index {index}")
            last = index

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> "SparseVector":
        """Build from unordered (index, value) pairs, dropping zeros."""
        kept = sorted((i, float(v)) for i, v in pairs if v != 0.0)
        return cls(dim=dim, entries=tuple(kept))

    def get(self, index: int) -> float:
        for i, v in self.entries:
            if i == index:
                return v
            if i > index:
                break
        return 0.0

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def dot(self, weights, start=0):
        """``start`` plus each ``value * weights[index]``, added left to right.

        The built-in ``sum()`` adds floats with compensation from Python 3.12
        on, so its last bits depend on the Python version.  Like ``sum()``,
        an empty vector gives ``start`` unchanged (the int 0 by default).
        """
        total = start
        for i, v in self.entries:
            total += v * weights[i]
        return total

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        for i, v in self.entries:
            dense[i] = v
        return dense


class CsrView:
    """Compressed sparse rows: row r holds ``indices[indptr[r]:indptr[r+1]]``
    (strictly increasing) with values ``data[...]``; ``row_ids`` gives each
    entry's row.

    ``X @ w`` and ``X.T @ r`` are ``np.bincount`` sums over the stored
    entries in row-major order, so their summation order is fixed and no
    BLAS call is involved.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, dim: int):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (len(indptr) - 1, dim)
        self.row_ids = np.repeat(np.arange(self.shape[0]), np.diff(indptr))

    @classmethod
    def from_rows(cls, rows, dim: int) -> "CsrView":
        """Stack sparse vectors of one dim into a view, in order."""
        lengths = [row.nnz for row in rows]
        indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        nnz = int(indptr[-1])
        entries = [entry for row in rows for entry in row.entries]
        indices = np.fromiter((i for i, _ in entries), dtype=np.int64, count=nnz)
        data = np.fromiter((v for _, v in entries), dtype=np.float64, count=nnz)
        return cls(indptr, indices, data, dim)

    def __matmul__(self, weights: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.row_ids, self.data * weights[self.indices], minlength=self.shape[0]
        )

    @property
    def T(self) -> "_CsrTranspose":
        return _CsrTranspose(self)


class _CsrTranspose:
    """``X.T`` of a `CsrView`; supports ``X.T @ r`` only."""

    def __init__(self, csr: CsrView):
        self._csr = csr

    def __matmul__(self, residuals: np.ndarray) -> np.ndarray:
        csr = self._csr
        return np.bincount(
            csr.indices, csr.data * residuals[csr.row_ids], minlength=csr.shape[1]
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """Sparse rows aligned with binary labels; all rows share one dim."""

    rows: tuple[SparseVector, ...]
    labels: tuple[int, ...]
    dim: int

    def __post_init__(self):
        if len(self.rows) != len(self.labels):
            raise ValueError(
                f"{len(self.rows)} rows but {len(self.labels)} labels"
            )
        for row in self.rows:
            if row.dim != self.dim:
                raise ValueError(f"row dim {row.dim} != matrix dim {self.dim}")

    def __len__(self) -> int:
        return len(self.rows)

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return counts

    @cached_property
    def csr(self) -> CsrView:
        """The rows as one CSR view, built on first access and cached."""
        return CsrView.from_rows(self.rows, self.dim)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((len(self.rows), self.dim))
        for r, row in enumerate(self.rows):
            for i, v in row.entries:
                dense[r, i] = v
        return dense

    def labels_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.int64)

    def digest(self) -> str:
        """SHA-256 over dim, labels, and every (index, repr(value)) entry."""
        h = hashlib.sha256()
        h.update(f"{self.dim};{','.join(map(str, self.labels))}\n".encode())
        for row in self.rows:
            h.update(";".join(f"{i}:{v!r}" for i, v in row.entries).encode())
            h.update(b"\n")
        return h.hexdigest()


@dataclass(frozen=True)
class TfIdfModel:
    """Vocabulary (first-appearance order) plus training doc frequencies."""

    terms: tuple[str, ...]
    doc_freq: tuple[int, ...]
    n_docs: int

    def __post_init__(self):
        if len(self.terms) != len(self.doc_freq):
            raise ValueError("terms and doc_freq lengths differ")
        for term, df in zip(self.terms, self.doc_freq):
            if not 1 <= df <= self.n_docs:
                raise ValueError(f"doc_freq[{term!r}] = {df} outside [1, {self.n_docs}]")

    @cached_property
    def vocabulary(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}

    @property
    def dim(self) -> int:
        return len(self.terms)


def fit(train_docs: list[TokenSequence]) -> TfIdfModel:
    """Build vocabulary and document frequencies from training docs only."""
    if not train_docs:
        raise ValueError("cannot fit TF-IDF on an empty training set")
    doc_freq: dict[str, int] = {}  # insertion order is first appearance
    for doc in train_docs:
        for term in dict.fromkeys(doc.tokens):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    return TfIdfModel(
        terms=tuple(doc_freq), doc_freq=tuple(doc_freq.values()), n_docs=len(train_docs)
    )


def transform(model: TfIdfModel, doc: TokenSequence) -> SparseVector:
    """TF-IDF vector of one document under a fitted model.

    Out-of-vocabulary tokens are ignored entirely: they do not contribute
    entries and are excluded from the term-frequency denominator.
    """
    vocab = model.vocabulary
    counts: dict[int, int] = {}
    total = 0
    for token in doc.tokens:
        idx = vocab.get(token)
        if idx is None:
            continue
        counts[idx] = counts.get(idx, 0) + 1
        total += 1
    if total == 0:
        return SparseVector(dim=model.dim, entries=())
    entries = []
    for idx in sorted(counts):
        tf = counts[idx] / total
        idf = math.log(model.n_docs / model.doc_freq[idx])
        value = tf * idf
        if value != 0.0:
            entries.append((idx, value))
    return SparseVector(dim=model.dim, entries=tuple(entries))


def transform_corpus(
    model: TfIdfModel, docs: list[TokenSequence], labels: list[int]
) -> FeatureMatrix:
    if len(docs) != len(labels):
        raise ValueError(f"{len(docs)} docs but {len(labels)} labels")
    rows = tuple(transform(model, doc) for doc in docs)
    return FeatureMatrix(rows=rows, labels=tuple(labels), dim=model.dim)
