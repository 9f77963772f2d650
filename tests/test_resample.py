"""Exact kNN search and SMOTE oversampling."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import rand_matrix, rand_sparse
from textbalance.fixtures import two_vocab_corpus
from textbalance.preprocess import preprocess_corpus
from textbalance.resample import (
    NeighborIndex,
    SmoteConfig,
    balance_training_set,
    euclidean_distance,
    interpolate,
    knn,
    smote,
    smote_trace,
)
from textbalance.stopwords import default_stopwords
from textbalance.vectorize import FeatureMatrix, SparseVector, fit, transform_corpus


def brute_force_knn(points: list[SparseVector], query: int, k: int) -> list[int]:
    """Exhaustive oracle: all pairwise distances via dense numpy, sorted by
    (distance, index), self excluded."""
    dense = np.vstack([p.to_dense() for p in points])
    dist = np.sqrt(((dense - dense[query]) ** 2).sum(axis=1))
    order = sorted((float(dist[i]), i) for i in range(len(points)) if i != query)
    return [i for _, i in order[: min(k, len(points) - 1)]]


def exhaustive_knn(points: list[SparseVector], query: int, k: int) -> list[int]:
    """Reference scan: the exact merge distance to every point, ranked by
    (distance, index), self excluded."""
    ranked = sorted(
        (euclidean_distance(points[query], points[i]), i)
        for i in range(len(points))
        if i != query
    )
    return [i for _, i in ranked[: min(k, len(points) - 1)]]


class TestEuclideanDistance:
    def test_hand_case(self):
        a = SparseVector.from_pairs(3, [(0, 3.0)])
        b = SparseVector.from_pairs(3, [(1, 4.0)])
        assert euclidean_distance(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_zero_for_identical(self):
        a = SparseVector.from_pairs(4, [(1, 1.5), (3, -2.0)])
        assert euclidean_distance(a, a) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dim = int(rng.integers(1, 30))
            a = rand_sparse(rng, dim, density=float(rng.uniform(0, 1)))
            b = rand_sparse(rng, dim, density=float(rng.uniform(0, 1)))
            expected = float(np.linalg.norm(a.to_dense() - b.to_dense()))
            assert euclidean_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance(
                SparseVector.from_pairs(2, []), SparseVector.from_pairs(3, [])
            )


class TestInterpolate:
    def test_union_of_supports(self):
        base = SparseVector.from_pairs(3, [(0, 1.0)])
        other = SparseVector.from_pairs(3, [(1, 2.0)])
        mid = interpolate(base, other, 0.5)
        assert mid.entries == ((0, 0.5), (1, 1.0))

    def test_endpoints(self):
        rng = np.random.default_rng(1)
        base = rand_sparse(rng, 10)
        other = rand_sparse(rng, 10)
        assert interpolate(base, other, 0.0).entries == base.entries
        np.testing.assert_allclose(
            interpolate(base, other, 1.0).to_dense(), other.to_dense(), atol=1e-15
        )

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 25))
            base = rand_sparse(rng, dim)
            other = rand_sparse(rng, dim)
            gap = float(rng.random())
            expected = base.to_dense() + gap * (other.to_dense() - base.to_dense())
            np.testing.assert_allclose(
                interpolate(base, other, gap).to_dense(), expected, atol=1e-15
            )


class TestKnn:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            dim = int(rng.integers(1, 20))
            points = [rand_sparse(rng, dim) for _ in range(n)]
            query = int(rng.integers(0, n))
            k = int(rng.integers(1, n + 3))  # may exceed n-1; clamps
            assert knn(points, query, k) == brute_force_knn(points, query, k)

    def test_distance_ties_resolve_to_smaller_index(self):
        # Three identical candidates: order must be by index.
        same = SparseVector.from_pairs(2, [(0, 1.0)])
        query = SparseVector.from_pairs(2, [(1, 1.0)])
        points = [query, same, same, same]
        assert knn(points, 0, 3) == [1, 2, 3]

    def test_k_clamped_to_n_minus_one(self):
        points = [rand_sparse(np.random.default_rng(i), 4) for i in range(3)]
        assert len(knn(points, 0, 99)) == 2

    def test_validation(self):
        points = [SparseVector.from_pairs(2, [(0, 1.0)])]
        with pytest.raises(ValueError):
            knn(points, 0, 1)  # fewer than 2 points
        two = points + [SparseVector.from_pairs(2, [(1, 1.0)])]
        with pytest.raises(ValueError):
            knn(two, 5, 1)
        with pytest.raises(ValueError):
            knn(two, 0, 0)


class TestKnnAdversarial:
    """Inputs where the Gram-form filter is least accurate or ties decide."""

    @staticmethod
    def assert_every_query_matches_scan(points, ks=(1, 2, 3, 5)):
        index = NeighborIndex(points)
        for query in range(len(points)):
            for k in set(ks) | {len(points) - 1, len(points) + 2}:
                expected = exhaustive_knn(points, query, k)
                assert knn(index, query, k) == expected, (query, k)
                assert knn(points, query, k) == expected, (query, k)

    def test_exact_duplicates_tie_break_by_index(self):
        rng = np.random.default_rng(30)
        a = rand_sparse(rng, 40, density=0.6)
        b = rand_sparse(rng, 40, density=0.6)
        others = [rand_sparse(rng, 40) for _ in range(4)]
        points = [a] * 7 + [b] * 4 + others + [a] * 3 + [b] * 2
        self.assert_every_query_matches_scan(points)

    def test_all_zero_rows(self):
        rng = np.random.default_rng(31)
        zero = SparseVector(dim=12, entries=())
        points = [zero] * 5 + [rand_sparse(rng, 12) for _ in range(5)] + [zero] * 2
        self.assert_every_query_matches_scan(points)
        self.assert_every_query_matches_scan([zero] * 6)

    def test_near_duplicates_at_extreme_norms(self):
        # Around |x| ~ 1e6 the Gram form cancels ~12 digits away; around
        # 1e-6 the slack is tiny.  Both scales share one index.
        rng = np.random.default_rng(32)
        dim = 60
        points = []
        for scale in (1e6, 1e-6):
            base = rand_sparse(rng, dim, density=0.7)
            for _ in range(14):
                pairs = []
                for i, v in base.entries:
                    if rng.random() < 0.3:
                        v *= 1.0 + float(rng.integers(-4, 5)) * 2.0**-50
                    pairs.append((i, scale * v))
                points.append(SparseVector.from_pairs(dim, pairs))
            points.append(SparseVector.from_pairs(dim, [(i, scale * v) for i, v in base.entries]))
        points.append(SparseVector(dim=dim, entries=()))
        order = rng.permutation(len(points))
        self.assert_every_query_matches_scan([points[i] for i in order])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norms_are_never_filtered(self):
        rng = np.random.default_rng(34)
        points = [rand_sparse(rng, 8) for _ in range(6)]
        for scale in (1e155, 1e200, 1e155):
            points.append(SparseVector.from_pairs(8, [(i, scale * v) for i, v in rand_sparse(rng, 8).entries]))
        points.insert(2, points[-1])
        self.assert_every_query_matches_scan(points)

    def test_two_points(self):
        rng = np.random.default_rng(33)
        zero = SparseVector(dim=5, entries=())
        pairs = [
            [rand_sparse(rng, 5), rand_sparse(rng, 5)],
            [zero, zero],
            [zero, rand_sparse(rng, 5)],
        ]
        for points in pairs:
            self.assert_every_query_matches_scan(points, ks=(1, 2, 7))


class TestSmote:
    def test_count_and_round_robin_usage(self):
        rng = np.random.default_rng(4)
        minority = [rand_sparse(rng, 8) for _ in range(33)]
        trace = smote_trace(minority, 201, SmoteConfig(k=5, seed=0))
        assert len(trace) == 168
        usage = [0] * 33
        for sample in trace:
            usage[sample.base_index] += 1
        # 168 = 5*33 + 3: the first three bases serve one extra sample.
        assert usage == [6, 6, 6] + [5] * 30

    def test_synthetic_on_segment_between_parents(self):
        rng = np.random.default_rng(5)
        minority = [rand_sparse(rng, 12) for _ in range(9)]
        trace = smote_trace(minority, 30, SmoteConfig(k=3, seed=8))
        for sample in trace:
            base = minority[sample.base_index].to_dense()
            neighbor = minority[sample.neighbor_index].to_dense()
            expected = base + sample.gap * (neighbor - base)
            np.testing.assert_allclose(sample.vector.to_dense(), expected, atol=1e-12)
            lo = np.minimum(base, neighbor) - 1e-12
            hi = np.maximum(base, neighbor) + 1e-12
            got = sample.vector.to_dense()
            assert np.all(got >= lo) and np.all(got <= hi)

    def test_neighbor_comes_from_k_nearest(self):
        rng = np.random.default_rng(6)
        minority = [rand_sparse(rng, 10) for _ in range(12)]
        k = 4
        trace = smote_trace(minority, 40, SmoteConfig(k=k, seed=1))
        for sample in trace:
            assert sample.neighbor_index in knn(minority, sample.base_index, k)
            assert sample.neighbor_index != sample.base_index

    def test_gap_sequence_independent_of_k(self):
        rng = np.random.default_rng(7)
        minority = [rand_sparse(rng, 6) for _ in range(10)]
        gaps_k1 = [s.gap for s in smote_trace(minority, 25, SmoteConfig(k=1, seed=3))]
        gaps_k5 = [s.gap for s in smote_trace(minority, 25, SmoteConfig(k=5, seed=3))]
        assert gaps_k1 == gaps_k5

    def test_same_seed_reproduces_different_seed_differs(self):
        rng = np.random.default_rng(8)
        minority = [rand_sparse(rng, 6) for _ in range(8)]
        a = smote(minority, 20, SmoteConfig(k=3, seed=5))
        b = smote(minority, 20, SmoteConfig(k=3, seed=5))
        c = smote(minority, 20, SmoteConfig(k=3, seed=6))
        assert a == b
        assert a != c

    def test_k_clamps_to_minority_size(self):
        rng = np.random.default_rng(9)
        minority = [rand_sparse(rng, 5) for _ in range(3)]
        trace = smote_trace(minority, 9, SmoteConfig(k=50, seed=0))
        for sample in trace:
            assert sample.neighbor_index in knn(minority, sample.base_index, 2)

    def test_no_new_samples_when_already_equal(self):
        rng = np.random.default_rng(10)
        minority = [rand_sparse(rng, 4) for _ in range(5)]
        assert smote(minority, 5, SmoteConfig()) == []

    def test_validation(self):
        rng = np.random.default_rng(11)
        minority = [rand_sparse(rng, 4) for _ in range(5)]
        with pytest.raises(ValueError):
            smote([], 5, SmoteConfig())
        with pytest.raises(ValueError):
            smote(minority, 4, SmoteConfig())
        with pytest.raises(ValueError):
            SmoteConfig(k=0)
        with pytest.raises(ValueError):
            SmoteConfig(target="undersample")


class TestBalanceTrainingSet:
    def test_equalizes_and_appends_after_originals(self):
        rng = np.random.default_rng(12)
        matrix = rand_matrix(rng, n0=20, n1=6, dim=10)
        balanced, report = balance_training_set(matrix, SmoteConfig(k=3, seed=2))
        assert balanced.class_counts() == {0: 20, 1: 20}
        assert balanced.rows[: len(matrix)] == matrix.rows
        assert balanced.labels[: len(matrix)] == matrix.labels
        assert set(balanced.labels[len(matrix) :]) == {1}
        assert report.minority_before == 6
        assert report.majority == 20
        assert report.synthetic_created == 14
        assert report.minority_label == 1
        assert sum(report.per_sample_usage.values()) == 14
        # Usage keys are row indices of the original minority samples.
        assert set(report.per_sample_usage) == {
            i for i, lb in enumerate(matrix.labels) if lb == 1
        }

    def test_minority_can_be_label_zero(self):
        rng = np.random.default_rng(13)
        rows = [rand_sparse(rng, 6) for _ in range(10)]
        matrix = FeatureMatrix(rows=tuple(rows), labels=(0, 0) + (1,) * 8, dim=6)
        balanced, report = balance_training_set(matrix, SmoteConfig(k=1, seed=0))
        assert report.minority_label == 0
        assert balanced.class_counts() == {0: 8, 1: 8}

    def test_balanced_input_is_a_no_op(self):
        rng = np.random.default_rng(14)
        matrix = rand_matrix(rng, n0=4, n1=4, dim=5)
        balanced, report = balance_training_set(matrix, SmoteConfig())
        assert balanced is matrix
        assert report.synthetic_created == 0
        assert report.minority_label is None

    def test_single_minority_sample_duplicates_with_warning(self):
        rng = np.random.default_rng(15)
        rows = [rand_sparse(rng, 6) for _ in range(4)]
        lone = rand_sparse(rng, 6)
        matrix = FeatureMatrix(
            rows=tuple(rows) + (lone,), labels=(0, 0, 0, 0, 1), dim=6
        )
        balanced, report = balance_training_set(matrix, SmoteConfig(seed=9))
        assert balanced.class_counts() == {0: 4, 1: 4}
        assert all(row == lone for row in balanced.rows[5:])
        assert any("duplicate" in w for w in report.warnings)

    def test_single_class_matrix_rejected(self):
        rng = np.random.default_rng(16)
        rows = tuple(rand_sparse(rng, 4) for _ in range(3))
        matrix = FeatureMatrix(rows=rows, labels=(1, 1, 1), dim=4)
        with pytest.raises(ValueError):
            balance_training_set(matrix, SmoteConfig())

    def test_report_to_dict_is_json_shaped(self):
        rng = np.random.default_rng(17)
        matrix = rand_matrix(rng, n0=6, n1=3, dim=5)
        _, report = balance_training_set(matrix, SmoteConfig(k=2, seed=1))
        data = report.to_dict()
        assert data["minority_before"] == 3
        assert data["synthetic_created"] == 3
        assert all(isinstance(k, str) for k in data["per_sample_usage"])


class TestPinnedOutputs:
    """Digests of SMOTE outputs on the fixture corpora, recorded from the
    exhaustive-scan kNN.  A faster neighbour search must reproduce them."""

    PINNED = {
        7: (
            "ea4bbd531ffb9f6fed089db74293132b038cb1437cfeadd60236fa7741b87b47",
            "ba4f71eee8e66678f3c467b5331f95a5d90c8f710d8a12d1e07728890582b347",
        ),
        11: (
            "08eec4c1a949e178264f9fe7753a14168eb1ef0647b1d6bb32849f57f66e4d38",
            "b3ed1845f684738d8fed342741c50d328197e8575cce348828cc78499eb25879",
        ),
        13: (
            "7573bbbf24a02318d6103e6eb86a833e0583c01c4531e8b55b45fb5f3a39b6c4",
            "73d49fa9d28f5bf2849bc18370fa72505d8902adee865b77425f0e09001e0ed5",
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_balanced_matrix_and_trace_digests(self, seed):
        train_corpus, _ = two_vocab_corpus(seed=seed)
        tokens = preprocess_corpus(train_corpus, default_stopwords())
        matrix = transform_corpus(fit(tokens), tokens, train_corpus.labels)
        config = SmoteConfig(k=5, seed=seed)
        balanced, report = balance_training_set(matrix, config)
        minority = [row for row, lb in zip(matrix.rows, matrix.labels) if lb == 1]
        trace = smote_trace(minority, report.majority, config)
        provenance = "".join(
            f"{s.base_index},{s.neighbor_index},{s.gap!r}\n" for s in trace
        )
        assert len(trace) == 168
        assert balanced.digest() == self.PINNED[seed][0]
        assert hashlib.sha256(provenance.encode()).hexdigest() == self.PINNED[seed][1]
