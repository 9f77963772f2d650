"""TF-IDF fitting/transforming and the sparse containers."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import dense_to_matrix, matrix_of, oracle_matrix, rand_sparse, to_dense
from corpora import two_vocab_corpus
from oracles import SparseVector, csr_of, rows_of
from textbalance.preprocess import preprocess_corpus
from textbalance.stopwords import default_stopwords
from textbalance.vectorize import (
    CsrView,
    FeatureMatrix,
    TfIdfModel,
    fit,
    transform,
    transform_corpus,
)


def seq(*tokens: str) -> list[str]:
    return list(tokens)


def dense_tfidf(docs: list[tuple[str, ...]]) -> tuple[list[str], np.ndarray]:
    """Brute-force oracle: vocabulary in first-appearance order, weight =
    (count / in-vocab total) * ln(n_docs / doc_freq), computed densely."""
    vocab: list[str] = []
    for tokens in docs:
        for tok in tokens:
            if tok not in vocab:
                vocab.append(tok)
    col = {t: j for j, t in enumerate(vocab)}
    df = np.zeros(len(vocab))
    for tokens in docs:
        for tok in set(tokens):
            df[col[tok]] += 1
    out = np.zeros((len(docs), len(vocab)))
    for i, tokens in enumerate(docs):
        if not tokens:
            continue
        for tok in tokens:
            out[i, col[tok]] += 1
        out[i] = out[i] / len(tokens) * np.log(len(docs) / df)
    return vocab, out


class TestSparseVector:
    def test_valid_construction(self):
        v = SparseVector(dim=5, entries=((1, 2.0), (4, -1.0)))
        assert v.nnz == 2
        assert oracles.get(v, 1) == 2.0
        assert oracles.get(v, 0) == 0.0
        assert list(to_dense(v)) == [0.0, 2.0, 0.0, 0.0, -1.0]

    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError):
            SparseVector(dim=5, entries=((3, 1.0), (1, 1.0)))
        with pytest.raises(ValueError):
            SparseVector(dim=5, entries=((2, 1.0), (2, 1.0)))

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseVector(dim=3, entries=((0, 0.0),))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SparseVector(dim=3, entries=((3, 1.0),))

    def test_from_pairs_sorts_and_drops_zeros(self):
        v = oracles.from_pairs(4, [(2, 0.0), (3, 1.5), (0, -2.0)])
        assert v.entries == ((0, -2.0), (3, 1.5))

    def test_dot_adds_left_to_right_without_compensation(self):
        ones = SparseVector(dim=3, entries=((0, 1.0), (1, 1.0), (2, 1.0)))
        # 1e16 + 1.0 rounds back to 1e16, so plain left-to-right addition
        # gives 0.0; a compensated sum would give 1.0.
        assert oracles.dot(ones, (1e16, 1.0, -1e16)) == 0.0
        assert oracles.dot(ones, (1.0, 2.0, 4.0), start=0.5) == 7.5
        empty = SparseVector(dim=3, entries=())
        assert oracles.dot(empty, (1.0, 2.0, 3.0)) == 0 and type(oracles.dot(empty, (1.0,))) is int


class TestFeatureMatrix:
    def test_row_label_alignment(self):
        csr = csr_of([SparseVector(dim=2, entries=((0, 1.0),))], 2)
        with pytest.raises(ValueError, match="1 rows but 2 labels"):
            FeatureMatrix(csr, (0, 1))

    def test_dim_consistency(self):
        row = SparseVector(dim=3, entries=())
        with pytest.raises(ValueError):
            matrix_of((row,), (0,), 2)

    def test_digest_changes_with_labels_and_values(self):
        row = SparseVector(dim=2, entries=((0, 1.0),))
        a = matrix_of((row,), (0,), 2)
        b = matrix_of((row,), (1,), 2)
        c = matrix_of((SparseVector(dim=2, entries=((0, 1.5),)),), (0,), 2)
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()
        assert a.digest() == matrix_of((row,), (0,), 2).digest()

    def test_stores_only_the_csr_view(self):
        rows = (SparseVector(dim=3, entries=((0, 1.0), (2, -2.0))), SparseVector(dim=3, entries=()))
        matrix = matrix_of(rows, (0, 1), 3)
        assert rows_of(matrix.csr) == rows
        assert "rows" not in vars(matrix)
        assert matrix.dim == 3
        assert matrix.csr.indptr.tolist() == [0, 2, 2]
        assert [rows_of(row) for row in matrix.rows] == [(row,) for row in rows]
        assert "rows" in vars(matrix)
        assert np.shares_memory(matrix.rows[0].data, matrix.csr.data)
        assert np.shares_memory(matrix.rows[0].indices, matrix.csr.indices)

    def test_equality_compares_labels_shape_and_arrays_without_rows(self):
        full, empty = SparseVector(3, ((0, 1.0), (2, -2.0))), SparseVector(3, ())
        a = matrix_of((full, empty), (0, 1), 3)
        assert a == matrix_of((full, empty), (0, 1), 3)
        assert "rows" not in vars(a)
        assert a != matrix_of((full, empty), (1, 1), 3)  # labels
        assert a != matrix_of((empty, full), (0, 1), 3)  # indptr only
        assert a != matrix_of((SparseVector(3, ((1, 1.0), (2, -2.0))), empty), (0, 1), 3)
        assert a != matrix_of((SparseVector(3, ((0, 1.0), (2, -2.5))), empty), (0, 1), 3)
        assert a != matrix_of((SparseVector(4, full.entries), SparseVector(4, ())), (0, 1), 4)
        assert a != matrix_of((full, empty, empty), (0, 1, 1), 3)
        assert a.__eq__(a.csr) is NotImplemented


class TestCsrView:
    def test_select_and_stack_keep_row_order(self):
        rng = np.random.default_rng(3)
        rows = tuple(rand_sparse(rng, 5) for _ in range(6))
        csr = csr_of(rows, 5)
        keep = np.array([True, False, True, True, False, False])
        kept = tuple(row for row, k in zip(rows, keep) if k)
        assert rows_of(csr.select(keep)) == kept
        assert rows_of(csr.select(np.zeros(6, dtype=bool))) == ()
        assert rows_of(csr.stack(csr.select(keep))) == rows + kept

    def test_csr_of_checks_every_row_dim(self):
        rows = [SparseVector(dim=2, entries=()), SparseVector(dim=3, entries=())]
        with pytest.raises(ValueError, match="row dim 3 != matrix dim 2"):
            csr_of(rows, 2)

    def test_stack_checks_the_dim(self):
        two, three = csr_of([SparseVector(2, ((1, 1.0),))], 2), csr_of([SparseVector(3, ())], 3)
        with pytest.raises(ValueError, match="stacked dim 3 != dim 2"):
            two.stack(three)
        with pytest.raises(ValueError, match="stacked dim 2 != dim 3"):
            three.stack(two)

    def test_row_is_a_one_row_view_of_the_parent_arrays(self):
        rng = np.random.default_rng(5)
        rows = tuple(rand_sparse(rng, 6) for _ in range(5)) + (SparseVector(6, ()),)
        csr = csr_of(rows, 6)
        assert csr.nnz == sum(row.nnz for row in rows)
        for r, want in enumerate(rows):
            row = csr.row(r)
            assert row.shape == (1, 6) and row.nnz == want.nnz
            assert rows_of(row) == (want,)
            if want.nnz:
                assert np.shares_memory(row.indices, csr.indices)
                assert np.shares_memory(row.data, csr.data)
        for r in (-1, len(rows)):
            with pytest.raises(IndexError):
                csr.row(r)


def _transpose_cases() -> list[np.ndarray]:
    """Dense arrays: 0 rows, dim 0 and 1, empty rows and columns, columns
    of many more than 16 rows, and random fills."""
    rng = np.random.default_rng(90)
    tall = rng.normal(size=(300, 7)) * (rng.random((300, 7)) < 0.8)
    tall[:, 3] = 0.0  # an empty column
    tall[::11] = 0.0  # empty rows
    cases = [
        np.zeros((0, 4)),
        np.zeros((3, 0)),
        np.zeros((0, 0)),
        np.array([[1.5], [0.0], [-2.0]]),
        np.zeros((5, 3)),
        tall,
        np.ones((40, 1)),
    ]
    for _ in range(20):
        n, dim = int(rng.integers(0, 60)), int(rng.integers(0, 12))
        cases.append(rng.normal(size=(n, dim)) * (rng.random((n, dim)) < rng.uniform(0.05, 1.0)))
    return cases


class TestCsrTranspose:
    """`CsrView.transpose` lists each column's rows in ascending order,
    ``X.transpose().rmatvec(w)`` is Xw and ``X.rmatvec(r)`` is Xᵀr, bit
    for bit against the oracles' row and column sums, and every product is
    float64."""

    @pytest.mark.parametrize("dense", _transpose_cases())
    def test_shape_and_ascending_rows_per_column(self, dense):
        Xt = dense_to_matrix(dense, np.zeros(len(dense))).csr.transpose()
        assert Xt.shape == (dense.shape[1], dense.shape[0])
        for column in range(dense.shape[1]):
            lo, hi = Xt.indptr[column], Xt.indptr[column + 1]
            rows = np.flatnonzero(dense[:, column])
            assert Xt.indices[lo:hi].tolist() == rows.tolist()
            assert Xt.data[lo:hi].tolist() == dense[rows, column].tolist()
        assert np.array_equal(Xt.row_lengths, (dense != 0).sum(axis=0))

    @pytest.mark.parametrize("dense", _transpose_cases())
    def test_transpose_twice_gives_the_original_arrays(self, dense):
        X = dense_to_matrix(dense, np.zeros(len(dense))).csr
        back = X.transpose().transpose()
        assert back.shape == X.shape
        assert np.array_equal(back.indptr, X.indptr)
        assert np.array_equal(back.indices, X.indices)
        assert np.array_equal(back.data.view(np.int64), X.data.view(np.int64))

    def test_transposed_product_equals_matvec_bits(self):
        rng = np.random.default_rng(91)
        specials = np.array(
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, np.inf, -np.inf, np.nan]
        )

        def draw(size):
            v = rng.normal(size=size) * 10.0 ** rng.integers(-5, 6, size=size)
            special = rng.random(size) < 0.5
            v[special] = rng.choice(specials, size=int(special.sum()))
            return v

        for trial in range(201):
            matrix = oracle_matrix(rng)
            if trial % 4 == 3:  # columns of more than 16 rows
                n = int(rng.integers(17, 120))
                dense = rng.normal(size=(n, 3)) * (rng.random((n, 3)) < 0.9)
                matrix = dense_to_matrix(dense + 0.0, np.arange(n) % 2)
            if trial == 200:  # no stored entry: np.bincount alone would count in int64
                matrix = dense_to_matrix(np.zeros((4, 3)), np.arange(4) % 2)
            Xt = matrix.csr.transpose()
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(5):
                    w, r = draw(matrix.dim), draw(len(matrix))
                    for got, want in (
                        (Xt.rmatvec(w), oracles.matvec(matrix, w)),
                        (matrix.csr.rmatvec(r), oracles.rmatvec(matrix, r)),
                    ):
                        assert got.dtype == np.float64, trial
                        nan = np.isnan(want)
                        assert np.array_equal(np.isnan(got), nan), trial
                        assert np.array_equal(
                            got[~nan].view(np.int64), want[~nan].view(np.int64)
                        ), trial

    @pytest.mark.parametrize("dim", [1 << 16, (1 << 16) + 1], ids=["uint16-keys", "int64-keys"])
    def test_permutation_equals_stable_int64_argsort(self, dim):
        # Up to 2^16 columns the sort runs on uint16 keys; past that a
        # uint16 copy would wrap column 2^16 to 0.  Each row draws from a
        # small pool of columns, so most columns repeat across rows.
        rng = np.random.default_rng(92)
        pool = np.unique(np.concatenate(
            ([0, 1, 255, 256, 32767, 32768, dim // 2, dim - 2, dim - 1], rng.integers(0, dim, 20))
        ))
        rows = [np.sort(rng.choice(pool, size=int(k), replace=False)) for k in rng.integers(0, 12, 400)]
        indices = np.concatenate(rows).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
        data = np.arange(1.0, len(indices) + 1.0)  # each entry's position, plus 1
        X = CsrView(indptr, indices, data, dim)
        by_column = np.argsort(indices, kind="stable")
        Xt = X.transpose()
        assert np.array_equal(Xt.data, data[by_column])
        assert np.array_equal(Xt.indices, X.row_ids[by_column])
        assert np.array_equal(Xt.row_lengths, np.bincount(indices, minlength=dim))


class TestFit:
    def test_vocabulary_first_appearance_order(self):
        model = fit([seq("beta", "alpha", "beta"), seq("gamma", "alpha")])
        assert model.terms == ("beta", "alpha", "gamma")
        assert model.doc_freq == (1, 2, 1)
        assert model.n_docs == 2

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit([])

    def test_empty_documents_add_no_terms(self):
        model = fit([seq(), seq("solo")])
        assert model.terms == ("solo",)
        assert model.doc_freq == (1,)

    def test_model_validates_doc_freq_range(self):
        with pytest.raises(ValueError):
            TfIdfModel(terms=("a",), doc_freq=(3,), n_docs=2)
        with pytest.raises(ValueError):
            TfIdfModel(terms=("a",), doc_freq=(0,), n_docs=2)


class TestTransform:
    def test_hand_computed_weights(self):
        # Two docs; "alpha" appears only in the first (idf = ln 2), "beta"
        # in both (idf = 0, so it is never stored).
        model = fit([seq("alpha", "alpha", "beta"), seq("beta")])
        (vec,) = rows_of(transform(model, seq("alpha", "alpha", "beta")))
        assert len(vec.entries) == 1
        index, value = vec.entries[0]
        assert model.terms[index] == "alpha"
        assert value == pytest.approx((2 / 3) * math.log(2), abs=1e-12)

    def test_oov_excluded_from_denominator(self):
        model = fit([seq("alpha"), seq("beta")])
        (vec,) = rows_of(transform(model, seq("alpha", "zzz", "zzz")))
        # In-vocab total is 1, so tf(alpha) = 1/1, weight = ln 2.
        assert oracles.get(vec, model.vocabulary["alpha"]) == pytest.approx(math.log(2), abs=1e-12)

    def test_all_oov_gives_zero_vector(self):
        model = fit([seq("alpha"), seq("beta")])
        vec = transform(model, seq("zzz", "qqq"))
        assert vec.nnz == 0
        assert vec.shape == (1, model.dim)

    def test_empty_document_gives_zero_vector(self):
        model = fit([seq("alpha"), seq("beta")])
        assert transform(model, seq()).nnz == 0

    def test_matches_dense_oracle_on_random_corpora(self):
        # 100 random corpora, <= 10 docs of <= 50 tokens over a small
        # alphabet; every entry within 1e-9 of the dense evaluation.
        rng = np.random.default_rng(42)
        alphabet = [f"w{i}" for i in range(12)]
        for _ in range(100):
            n_docs = int(rng.integers(1, 11))
            docs = [
                tuple(rng.choice(alphabet, size=int(rng.integers(0, 51))))
                for _ in range(n_docs)
            ]
            if not any(docs):
                docs[0] = ("w0",)
            model = fit([seq(*d) for d in docs])
            vocab, dense = dense_tfidf(list(docs))
            assert list(model.terms) == vocab
            for i, d in enumerate(docs):
                got = to_dense(transform(model, seq(*d)))
                np.testing.assert_allclose(got, dense[i], atol=1e-9)

    def test_transform_corpus_shape_and_labels(self):
        model = fit([seq("alpha"), seq("beta")])
        matrix = transform_corpus(model, [seq("alpha"), seq("beta")], [0, 1])
        assert len(matrix) == 2
        assert matrix.labels == (0, 1)
        assert matrix.dim == model.dim

    def test_transform_corpus_builds_no_rows(self):
        model = fit([seq("alpha", "gamma"), seq("beta")])
        matrix = transform_corpus(model, [seq("alpha"), seq("beta", "gamma")], [0, 1])
        assert "rows" not in vars(matrix)

    def test_transform_corpus_length_mismatch(self):
        model = fit([seq("alpha")])
        with pytest.raises(ValueError, match="^1 rows but 2 labels$"):
            transform_corpus(model, [seq("alpha")], [0, 1])

    def test_transform_corpus_more_docs_than_labels(self):
        # The one length check is FeatureMatrix's; transform_corpus has none.
        model = fit([seq("alpha"), seq("beta")])
        with pytest.raises(ValueError, match="^2 rows but 1 labels$"):
            transform_corpus(model, [seq("alpha"), seq("beta")], [0])


def _bits(row: SparseVector | CsrView) -> list[tuple[int, str]]:
    """(index, value.hex()) of each entry of a sparse vector or a one-row view."""
    if isinstance(row, CsrView):
        (row,) = rows_of(row)
    return [(i, v.hex()) for i, v in row.entries]


class TestTransformCorpusOracle:
    """`transform_corpus` builds CSR arrays directly; every row must equal
    the dict-counting `oracles.transform` of its document, entry for entry
    and bit for bit, and so must the one-document `transform`."""

    @staticmethod
    def check(model: TfIdfModel, docs: list[list[str]]):
        matrix = transform_corpus(model, docs, [0] * len(docs))
        assert len(matrix) == len(docs) and matrix.dim == model.dim
        for row, doc in zip(matrix.rows, docs):
            assert _bits(row) == _bits(oracles.transform(model, doc)), doc
            assert _bits(row) == _bits(transform(model, doc)), doc
        # The derived rows are valid vectors and give back the same view.
        again = matrix_of(rows_of(matrix.csr), matrix.labels, matrix.dim)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(again.csr, name), getattr(matrix.csr, name))

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_fixture_corpora(self, seed):
        train_corpus, test_corpus = two_vocab_corpus(seed)
        stops = default_stopwords()
        train_docs = preprocess_corpus(train_corpus, stops)
        model = fit(train_docs)
        self.check(model, train_docs + preprocess_corpus(test_corpus, stops))

    def test_empty_and_out_of_vocabulary_documents(self):
        model = fit([seq("alpha", "beta"), seq("beta", "gamma")])
        docs = [seq(), seq("zzz"), seq("alpha", "zzz", "gamma", "gamma"), seq(), seq("qqq", "zzz")]
        self.check(model, docs)
        assert [row.nnz for row in transform_corpus(model, docs, [0] * 5).rows] == [0, 0, 2, 0, 0]

    def test_term_with_idf_zero_is_never_stored(self):
        model = fit([seq("common", "alpha"), seq("common", "beta")])
        docs = [seq("common"), seq("common", "common", "alpha"), seq("beta", "common")]
        self.check(model, docs)
        matrix = transform_corpus(model, docs, [0, 1, 0])
        assert model.vocabulary["common"] not in matrix.csr.indices.tolist()
        assert matrix.csr.indptr.tolist() == [0, 0, 1, 2]

    def test_no_documents_and_empty_vocabulary(self):
        self.check(fit([seq("alpha")]), [])
        self.check(fit([seq(), seq()]), [seq("alpha"), seq()])

    def test_fit_and_transform_read_lists_and_tuples(self):
        docs = [["offer", "cash", "offer"], ("cash", "now"), [], ("zzz",)]
        model = fit(docs)
        assert model == fit([list(doc) for doc in docs]) == fit([tuple(doc) for doc in docs])
        matrix = transform_corpus(model, docs, [1, 0, 0, 0])
        for row, doc in zip(matrix.rows, docs):
            assert _bits(transform(model, list(doc))) == _bits(row)
            assert _bits(transform(model, tuple(doc))) == _bits(row)

    def test_accepts_a_generator_of_token_lists(self):
        model = fit([seq("alpha", "beta"), seq("beta")])
        lists = [["alpha", "alpha", "beta"], [], ["beta"]]
        from_lists = transform_corpus(model, (tokens for tokens in lists), [0, 1, 0])
        from_seqs = transform_corpus(model, [seq(*tokens) for tokens in lists], [0, 1, 0])
        assert from_lists == from_seqs

    def test_random_corpora(self):
        rng = np.random.default_rng(9)
        alphabet = [f"w{i}" for i in range(30)]
        for _ in range(50):
            train_docs = [
                seq(*rng.choice(alphabet[:20], size=int(rng.integers(0, 40))))
                for _ in range(int(rng.integers(1, 12)))
            ]
            docs = [
                seq(*rng.choice(alphabet, size=int(rng.integers(0, 60))))
                for _ in range(int(rng.integers(0, 12)))
            ]
            self.check(fit(train_docs), docs)
