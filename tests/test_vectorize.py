"""TF-IDF fitting/transforming and the sparse containers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from textbalance.preprocess import TokenSequence
from textbalance.vectorize import (
    FeatureMatrix,
    SparseVector,
    TfIdfModel,
    fit,
    transform,
    transform_corpus,
)


def seq(*tokens: str) -> TokenSequence:
    return TokenSequence(tokens=tuple(tokens), source_id="")


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
        assert v.get(1) == 2.0
        assert v.get(0) == 0.0
        assert list(v.to_dense()) == [0.0, 2.0, 0.0, 0.0, -1.0]

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
        v = SparseVector.from_pairs(4, [(2, 0.0), (3, 1.5), (0, -2.0)])
        assert v.entries == ((0, -2.0), (3, 1.5))

    def test_dot_adds_left_to_right_without_compensation(self):
        ones = SparseVector(dim=3, entries=((0, 1.0), (1, 1.0), (2, 1.0)))
        # 1e16 + 1.0 rounds back to 1e16, so plain left-to-right addition
        # gives 0.0; a compensated sum would give 1.0.
        assert ones.dot((1e16, 1.0, -1e16)) == 0.0
        assert ones.dot((1.0, 2.0, 4.0), start=0.5) == 7.5
        empty = SparseVector(dim=3, entries=())
        assert empty.dot((1.0, 2.0, 3.0)) == 0 and type(empty.dot((1.0,))) is int


class TestFeatureMatrix:
    def test_row_label_alignment(self):
        row = SparseVector(dim=2, entries=((0, 1.0),))
        with pytest.raises(ValueError):
            FeatureMatrix(rows=(row,), labels=(0, 1), dim=2)

    def test_dim_consistency(self):
        row = SparseVector(dim=3, entries=())
        with pytest.raises(ValueError):
            FeatureMatrix(rows=(row,), labels=(0,), dim=2)

    def test_digest_changes_with_labels_and_values(self):
        row = SparseVector(dim=2, entries=((0, 1.0),))
        a = FeatureMatrix(rows=(row,), labels=(0,), dim=2)
        b = FeatureMatrix(rows=(row,), labels=(1,), dim=2)
        c = FeatureMatrix(rows=(SparseVector(dim=2, entries=((0, 1.5),)),), labels=(0,), dim=2)
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()
        assert a.digest() == FeatureMatrix(rows=(row,), labels=(0,), dim=2).digest()


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
        vec = transform(model, seq("alpha", "alpha", "beta"))
        assert len(vec.entries) == 1
        index, value = vec.entries[0]
        assert model.terms[index] == "alpha"
        assert value == pytest.approx((2 / 3) * math.log(2), abs=1e-12)

    def test_oov_excluded_from_denominator(self):
        model = fit([seq("alpha"), seq("beta")])
        vec = transform(model, seq("alpha", "zzz", "zzz"))
        # In-vocab total is 1, so tf(alpha) = 1/1, weight = ln 2.
        assert vec.get(model.vocabulary["alpha"]) == pytest.approx(math.log(2), abs=1e-12)

    def test_all_oov_gives_zero_vector(self):
        model = fit([seq("alpha"), seq("beta")])
        vec = transform(model, seq("zzz", "qqq"))
        assert vec.nnz == 0
        assert vec.dim == model.dim

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
                got = transform(model, seq(*d)).to_dense()
                np.testing.assert_allclose(got, dense[i], atol=1e-9)

    def test_transform_corpus_shape_and_labels(self):
        model = fit([seq("alpha"), seq("beta")])
        matrix = transform_corpus(model, [seq("alpha"), seq("beta")], [0, 1])
        assert len(matrix) == 2
        assert matrix.labels == (0, 1)
        assert matrix.dim == model.dim

    def test_transform_corpus_length_mismatch(self):
        model = fit([seq("alpha")])
        with pytest.raises(ValueError):
            transform_corpus(model, [seq("alpha")], [0, 1])
