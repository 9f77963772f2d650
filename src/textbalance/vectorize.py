"""TF-IDF vectorization over documents given as iterables of token
strings, such as the lists `preprocess.preprocess_corpus` returns.

Term weight = (term count / total in-vocabulary tokens of the document)
* ln(training docs / docs containing the term).  Fitting reads training
documents only; transform drops out-of-vocabulary tokens and never stores
zero products, so a term present in every training document (idf = 0)
contributes nothing.

`transform_corpus` builds a whole matrix in one pass straight into CSR
arrays, and `transform` is its one-document case.  The tests check it,
entry for entry and bit for bit, against the dict-counting transform of
one document in `tests/oracles.py`.  `CsrView` is the one sparse type: a
row is a one-row view, and a `FeatureMatrix` stores one view of all its
rows.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np


def column_order(indices: np.ndarray, dim: int) -> np.ndarray:
    """The permutation that sorts the column ids ``indices`` (each below
    ``dim``) stably.  With at most 2^16 columns it sorts a ``uint16``
    copy: numpy's stable sort of 16-bit keys is a radix sort, and gives
    the same permutation."""
    return np.argsort(indices.astype(np.uint16) if dim <= 1 << 16 else indices, kind="stable")


class CsrView:
    """Compressed sparse rows: row r holds ``indices[indptr[r]:indptr[r+1]]``
    (strictly increasing) with values ``data[...]``; ``row_lengths`` gives
    each row's entry count and ``row_ids`` each entry's row.

    The one matrix-vector product is `rmatvec`, ``X.rmatvec(r)`` = Xᵀr:
    an ``np.bincount`` sum over the stored entries in row-major order, so
    its summation order is fixed and no BLAS call is involved.  Xw is
    ``X.transpose().rmatvec(w)``, the same sums as adding each row's
    products in entry order.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, dim: int):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (len(indptr) - 1, dim)
        self.row_lengths = np.diff(indptr)

    @cached_property
    def row_ids(self) -> np.ndarray:
        """Each entry's row; built on first use, which a fit's transpose
        never makes."""
        return np.repeat(np.arange(self.shape[0]), self.row_lengths)

    @property
    def nnz(self) -> int:
        return self.data.size

    def row(self, r: int) -> "CsrView":
        """Row r as a one-row view that slices this view's arrays, no copy."""
        if not 0 <= r < self.shape[0]:
            raise IndexError(f"row {r} outside [0, {self.shape[0]})")
        lo, hi = int(self.indptr[r]), int(self.indptr[r + 1])
        indptr = np.array([0, hi - lo], dtype=np.int64)
        return CsrView(indptr, self.indices[lo:hi], self.data[lo:hi], self.shape[1])

    def select(self, keep: np.ndarray) -> "CsrView":
        """The rows where the boolean array ``keep`` is true, in order."""
        kept = keep[self.row_ids]
        indptr = np.concatenate(([0], np.cumsum(self.row_lengths[keep])))
        return CsrView(indptr, self.indices[kept], self.data[kept], self.shape[1])

    def stack(self, below: "CsrView") -> "CsrView":
        """This view's rows followed by ``below``'s, which must share its dim."""
        if below.shape[1] != self.shape[1]:
            raise ValueError(f"stacked dim {below.shape[1]} != dim {self.shape[1]}")
        indptr = np.concatenate((self.indptr, below.indptr[1:] + self.indptr[-1]))
        indices = np.concatenate((self.indices, below.indices))
        data = np.concatenate((self.data, below.data))
        return CsrView(indptr, indices, data, self.shape[1])

    def transpose(self) -> "CsrView":
        """Xᵀ as a view: row c holds column c's entries, their rows
        ascending.  One stable sort of ``indices`` (`column_order`) keeps
        row-major order within each column."""
        by_column = column_order(self.indices, self.shape[1])
        counts = np.bincount(self.indices, minlength=self.shape[1])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return CsrView(indptr, self.row_ids[by_column], self.data[by_column], self.shape[0])

    def rmatvec(self, residuals: np.ndarray) -> np.ndarray:
        """Xᵀr.  Entry k's product is ``r[row] * data[k]``, with ``r``
        spread over the entries by ``np.repeat`` (the same values a gather
        by ``row_ids`` reads, without the gather).  Each column sum starts
        from 0.0 and adds its products in row-major order.  The result is
        float64, also with no stored entries, where ``np.bincount`` ignores
        its weights and counts in int64.

        Xw is ``Xt.rmatvec(w)`` with ``Xt = X.transpose()``: for one row
        of X, Xt's entries come in ascending column order, which is X's
        entry order, so each row sum adds that row's products in entry
        order from 0.0.  One nnz-sized temporary, not two: two at once can
        make malloc trim and re-fault the heap on every call."""
        products = np.repeat(residuals, self.row_lengths)
        products *= self.data
        sums = np.bincount(self.indices, products, minlength=self.shape[1])
        return sums.astype(np.float64, copy=False)


class FeatureMatrix:
    """Sparse rows aligned with binary labels, stored as one CSR view;
    ``rows`` gives them as one-row views of it."""

    def __init__(self, csr: CsrView, labels: tuple[int, ...]):
        if csr.shape[0] != len(labels):
            raise ValueError(f"{csr.shape[0]} rows but {len(labels)} labels")
        self.csr = csr
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.csr.shape[1]

    @cached_property
    def rows(self) -> tuple[CsrView, ...]:
        """The rows as one-row views of the CSR arrays, built once."""
        return tuple(map(self.csr.row, range(len(self))))

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.csr, other.csr
        return (
            self.labels == other.labels
            and a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )

    def labels_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.int64)

    def digest(self) -> str:
        """SHA-256 over the line ``f"{rows} {dim} {nnz}\n"``, then
        ``indptr``, ``indices`` and the labels as little-endian int64 and
        ``data`` as little-endian float64.  Each array is cast first, so the
        hash depends on neither its dtype nor the host's byte order."""
        csr = self.csr
        h = hashlib.sha256(f"{len(self)} {self.dim} {csr.nnz}\n".encode())
        for array, dtype in (
            (csr.indptr, "<i8"),
            (csr.indices, "<i8"),
            (self.labels, "<i8"),
            (csr.data, "<f8"),
        ):
            h.update(np.ascontiguousarray(array, dtype=dtype))
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

    @cached_property
    def idf(self) -> np.ndarray:
        """ln(n_docs / doc_freq) per term, one `math.log` call each."""
        return np.array([math.log(self.n_docs / df) for df in self.doc_freq], dtype=np.float64)

    @property
    def dim(self) -> int:
        return len(self.terms)


def fit(train_docs: list[Iterable[str]]) -> TfIdfModel:
    """Build vocabulary and document frequencies from training docs only."""
    if not train_docs:
        raise ValueError("cannot fit TF-IDF on an empty training set")
    doc_freq: dict[str, int] = {}  # insertion order is first appearance
    for doc in train_docs:
        for term in dict.fromkeys(doc):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    return TfIdfModel(
        terms=tuple(doc_freq), doc_freq=tuple(doc_freq.values()), n_docs=len(train_docs)
    )


def transform(model: TfIdfModel, doc: Iterable[str]) -> CsrView:
    """TF-IDF row of one document under a fitted model: the one-row view
    `transform_corpus` builds for that document alone."""
    return transform_corpus(model, [doc], [0]).csr


def transform_corpus(
    model: TfIdfModel, docs: Iterable[Iterable[str]], labels: list[int]
) -> FeatureMatrix:
    """TF-IDF matrix of many documents, built straight into CSR arrays.

    Each document's tokens become vocabulary ids as it arrives, so the
    token strings of a generator's documents are never held all at once.
    One ``np.unique`` over ``doc * dim + term`` keys then counts every
    (doc, term) pair.  A weight is (count / in-vocabulary total) * idf,
    each operation one IEEE rounding, as a per-document loop over a
    count dict computes it; zero products are dropped.
    """
    lookup = model.vocabulary.get
    ids: list[int] = []  # -1 marks an out-of-vocabulary token
    ends: list[int] = []
    for doc in docs:
        ids.extend(map(lookup, doc, repeat(-1)))
        ends.append(len(ids))
    n_docs = len(ends)
    terms = np.array(ids, dtype=np.int64)
    doc_of = np.repeat(np.arange(n_docs), np.diff(np.array(ends, dtype=np.int64), prepend=0))
    known = terms >= 0
    terms, doc_of = terms[known], doc_of[known]
    totals = np.bincount(doc_of, minlength=n_docs)
    keys, counts = np.unique(doc_of * model.dim + terms, return_counts=True)
    rows, terms = np.divmod(keys, model.dim)
    values = counts / totals[rows] * model.idf[terms]
    stored = values != 0.0
    rows, terms, values = rows[stored], terms[stored], values[stored]
    indptr = np.searchsorted(rows, np.arange(n_docs + 1))
    return FeatureMatrix(CsrView(indptr, terms, values, model.dim), tuple(labels))
