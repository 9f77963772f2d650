"""Exact kNN search and SMOTE oversampling."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import oracles
from conftest import matrix_of, rand_matrix, rand_sparse, to_dense
from oracles import (
    SparseVector,
    SyntheticSample,
    csr_of,
    euclidean_distance,
    exhaustive_knn,
    from_pairs,
    rows_of,
)
from textbalance import resample
from textbalance.bundle import canonical_json
from textbalance.fixtures import two_vocab_corpus
from textbalance.preprocess import preprocess_corpus
from textbalance.resample import (
    NeighborIndex,
    ResampleReport,
    SmoteConfig,
    _synthesize,
    balance_training_set,
    interpolate,
    knn,
)
from textbalance.stopwords import default_stopwords
from textbalance.vectorize import CsrView, FeatureMatrix, fit, transform_corpus


def _points(rows: list[SparseVector]) -> CsrView:
    return csr_of(rows, rows[0].dim if rows else 0)


def interpolated(base: SparseVector, other: SparseVector, gap: float) -> SparseVector:
    """`interpolate` on the one-row views of two sparse vectors."""
    (row,) = rows_of(interpolate(_points([base]), _points([other]), gap))
    return row


def index_of(points: list[SparseVector]) -> NeighborIndex:
    return NeighborIndex(_points(points))


def batch_trace(minority: list[SparseVector], majority_count: int, config: SmoteConfig) -> list:
    """`_synthesize` on the minority rows, one `SyntheticSample` per row."""
    bases, neighbors, gaps, rows = _synthesize(_points(minority), majority_count, config)
    samples = zip(rows_of(rows), bases.tolist(), neighbors.tolist(), gaps.tolist())
    return [SyntheticSample(*sample) for sample in samples]


def brute_force_knn(points: list[SparseVector], query: int, k: int) -> list[int]:
    """Exhaustive oracle: all pairwise distances via dense numpy, sorted by
    (distance, index), self excluded."""
    dense = np.vstack([to_dense(p) for p in points])
    dist = np.sqrt(((dense - dense[query]) ** 2).sum(axis=1))
    order = sorted((float(dist[i]), i) for i in range(len(points)) if i != query)
    return [i for _, i in order[: min(k, len(points) - 1)]]


class TestEuclideanDistance:
    """The oracles' merge distance, which ranks `exhaustive_knn`'s scan."""

    def test_hand_case(self):
        a = from_pairs(3, [(0, 3.0)])
        b = from_pairs(3, [(1, 4.0)])
        assert euclidean_distance(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_zero_for_identical(self):
        a = from_pairs(4, [(1, 1.5), (3, -2.0)])
        assert euclidean_distance(a, a) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dim = int(rng.integers(1, 30))
            a = rand_sparse(rng, dim, density=float(rng.uniform(0, 1)))
            b = rand_sparse(rng, dim, density=float(rng.uniform(0, 1)))
            expected = float(np.linalg.norm(to_dense(a) - to_dense(b)))
            assert euclidean_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance(from_pairs(2, []), from_pairs(3, []))


class TestInterpolate:
    def test_union_of_supports(self):
        base = from_pairs(3, [(0, 1.0)])
        other = from_pairs(3, [(1, 2.0)])
        mid = interpolated(base, other, 0.5)
        assert mid.entries == ((0, 0.5), (1, 1.0))

    def test_endpoints(self):
        rng = np.random.default_rng(1)
        base = rand_sparse(rng, 10)
        other = rand_sparse(rng, 10)
        assert interpolated(base, other, 0.0).entries == base.entries
        np.testing.assert_allclose(
            to_dense(interpolated(base, other, 1.0)), to_dense(other), atol=1e-15
        )

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 25))
            base = rand_sparse(rng, dim)
            other = rand_sparse(rng, dim)
            gap = float(rng.random())
            expected = to_dense(base) + gap * (to_dense(other) - to_dense(base))
            np.testing.assert_allclose(
                to_dense(interpolated(base, other, gap)), expected, atol=1e-15
            )

    def test_matches_the_dict_oracle_bit_for_bit(self):
        rng = np.random.default_rng(20)
        tiny = 5e-324  # base + gap * (0 - base) rounds to 0.0 here when gap > 1/2
        dims = rng.integers(1, 25, 100).tolist()
        pairs = [(rand_sparse(rng, dim), rand_sparse(rng, dim)) for dim in dims]
        pairs.append((from_pairs(3, [(0, tiny), (1, tiny)]), from_pairs(3, [(2, 2 * tiny)])))
        for base, other in pairs:
            for gap in (0.0, float(rng.random()), 0.75, 1.0):
                got = interpolated(base, other, gap)
                want = oracles.interpolate(base, other, gap)
                assert [(i, v.hex()) for i, v in got.entries] == [
                    (i, v.hex()) for i, v in want.entries
                ]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="stacked dim 3 != dim 2"):
            interpolate(_points([from_pairs(2, [])]), _points([from_pairs(3, [])]), 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_result_raises(self):
        big, small = _points([from_pairs(2, [(0, 1e308)])]), _points([from_pairs(2, [(0, -1e308)])])
        with pytest.raises(ValueError, match="not finite"):
            interpolate(big, small, 0.5)  # -1e308 - 1e308 overflows
        for gap in (math.inf, math.nan):
            with pytest.raises(ValueError, match="not finite"):
                interpolate(big, big, gap)
        assert rows_of(interpolate(big, big, 0.5)) == rows_of(big)

    def test_takes_one_row_views_only(self):
        rng = np.random.default_rng(3)
        one = _points([rand_sparse(rng, 4)])
        two = _points([rand_sparse(rng, 4), rand_sparse(rng, 4)])
        for base, other in ((two, one), (one, two), (one, _points([]))):
            with pytest.raises(ValueError, match="one-row views expected"):
                interpolate(base, other, 0.5)
        assert interpolate(one, one, 0.5).shape == (1, 4)


class TestKnn:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            dim = int(rng.integers(1, 20))
            points = [rand_sparse(rng, dim) for _ in range(n)]
            query = int(rng.integers(0, n))
            k = int(rng.integers(1, n + 3))  # may exceed n-1; clamps
            assert knn(index_of(points), query, k) == brute_force_knn(points, query, k)

    def test_distance_ties_resolve_to_smaller_index(self):
        # Three identical candidates: order must be by index.
        same = from_pairs(2, [(0, 1.0)])
        query = from_pairs(2, [(1, 1.0)])
        points = [query, same, same, same]
        assert knn(index_of(points), 0, 3) == [1, 2, 3]

    def test_k_clamped_to_n_minus_one(self):
        points = [rand_sparse(np.random.default_rng(i), 4) for i in range(3)]
        assert len(knn(index_of(points), 0, 99)) == 2

    def test_validation(self):
        points = [from_pairs(2, [(0, 1.0)])]
        with pytest.raises(ValueError, match="at least 2 points"):
            index_of(points)
        two = index_of(points + [from_pairs(2, [(1, 1.0)])])
        with pytest.raises(ValueError):
            knn(two, 5, 1)
        with pytest.raises(ValueError):
            knn(two, 0, 0)


class TestKnnAdversarial:
    """Inputs where the Gram-form filter is least accurate or ties decide."""

    @staticmethod
    def assert_every_query_matches_scan(points, ks=(1, 2, 3, 5)):
        index = index_of(points)
        for query in range(len(points)):
            for k in set(ks) | {len(points) - 1, len(points) + 2}:
                expected = exhaustive_knn(points, query, k)
                assert knn(index, query, k) == expected, (query, k)
                # With a budget of one element, a fresh index solves this
                # query alone, in a block of one, one pair per recheck chunk.
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(resample, "_BLOCK_ENTRIES", 1)
                    assert knn(index_of(points), query, k) == expected, (query, k)

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
                points.append(from_pairs(dim, pairs))
            points.append(from_pairs(dim, [(i, scale * v) for i, v in base.entries]))
        points.append(SparseVector(dim=dim, entries=()))
        order = rng.permutation(len(points))
        self.assert_every_query_matches_scan([points[i] for i in order])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norms_are_never_filtered(self):
        rng = np.random.default_rng(34)
        points = [rand_sparse(rng, 8) for _ in range(6)]
        for scale in (1e155, 1e200, 1e155):
            points.append(from_pairs(8, [(i, scale * v) for i, v in rand_sparse(rng, 8).entries]))
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
        trace = batch_trace(minority, 201, SmoteConfig(k=5, seed=0))
        assert len(trace) == 168
        usage = [0] * 33
        for sample in trace:
            usage[sample.base_index] += 1
        # 168 = 5*33 + 3: the first three bases serve one extra sample.
        assert usage == [6, 6, 6] + [5] * 30

    def test_synthetic_on_segment_between_parents(self):
        rng = np.random.default_rng(5)
        minority = [rand_sparse(rng, 12) for _ in range(9)]
        trace = batch_trace(minority, 30, SmoteConfig(k=3, seed=8))
        for sample in trace:
            base = to_dense(minority[sample.base_index])
            neighbor = to_dense(minority[sample.neighbor_index])
            expected = base + sample.gap * (neighbor - base)
            np.testing.assert_allclose(to_dense(sample.vector), expected, atol=1e-12)
            lo = np.minimum(base, neighbor) - 1e-12
            hi = np.maximum(base, neighbor) + 1e-12
            got = to_dense(sample.vector)
            assert np.all(got >= lo) and np.all(got <= hi)

    def test_neighbor_comes_from_k_nearest(self):
        rng = np.random.default_rng(6)
        minority = [rand_sparse(rng, 10) for _ in range(12)]
        k = 4
        trace = batch_trace(minority, 40, SmoteConfig(k=k, seed=1))
        for sample in trace:
            assert sample.neighbor_index in exhaustive_knn(minority, sample.base_index, k)
            assert sample.neighbor_index != sample.base_index

    def test_gap_sequence_independent_of_k(self):
        rng = np.random.default_rng(7)
        minority = [rand_sparse(rng, 6) for _ in range(10)]
        gaps_k1 = [s.gap for s in batch_trace(minority, 25, SmoteConfig(k=1, seed=3))]
        gaps_k5 = [s.gap for s in batch_trace(minority, 25, SmoteConfig(k=5, seed=3))]
        assert gaps_k1 == gaps_k5

    def test_matches_the_per_sample_oracle(self):
        rng = np.random.default_rng(19)
        for trial in range(60):
            dim, t = int(rng.integers(1, 20)), int(rng.integers(1, 12))
            minority = [rand_sparse(rng, dim, density=float(rng.uniform(0, 1))) for _ in range(t)]
            majority = t + int(rng.integers(0, 30))
            config = SmoteConfig(k=int(rng.integers(1, 8)), seed=trial)
            expected = oracles.smote_trace(minority, majority, config)
            assert batch_trace(minority, majority, config) == expected, trial

    def test_same_seed_reproduces_different_seed_differs(self):
        rng = np.random.default_rng(8)
        minority = [rand_sparse(rng, 6) for _ in range(8)]
        a = batch_trace(minority, 20, SmoteConfig(k=3, seed=5))
        b = batch_trace(minority, 20, SmoteConfig(k=3, seed=5))
        c = batch_trace(minority, 20, SmoteConfig(k=3, seed=6))
        assert a == b
        assert a != c

    def test_k_clamps_to_minority_size(self):
        rng = np.random.default_rng(9)
        minority = [rand_sparse(rng, 5) for _ in range(3)]
        trace = batch_trace(minority, 9, SmoteConfig(k=50, seed=0))
        for sample in trace:
            assert sample.neighbor_index in exhaustive_knn(minority, sample.base_index, 2)

    def test_no_new_samples_when_already_equal(self):
        rng = np.random.default_rng(10)
        minority = [rand_sparse(rng, 4) for _ in range(5)]
        assert batch_trace(minority, 5, SmoteConfig()) == []

    def test_validation(self):
        rng = np.random.default_rng(11)
        minority = [rand_sparse(rng, 4) for _ in range(5)]
        with pytest.raises(ValueError):
            batch_trace([], 5, SmoteConfig())
        with pytest.raises(ValueError):
            batch_trace(minority, 4, SmoteConfig())
        with pytest.raises(ValueError):
            SmoteConfig(k=0)
        assert SmoteConfig().to_dict()["target"] == "equalize"


class TestBalanceTrainingSet:
    def test_equalizes_and_appends_after_originals(self):
        rng = np.random.default_rng(12)
        matrix = rand_matrix(rng, n0=20, n1=6, dim=10)
        balanced, report = balance_training_set(matrix, SmoteConfig(k=3, seed=2))
        assert balanced.class_counts() == {0: 20, 1: 20}
        assert rows_of(balanced.csr)[: len(matrix)] == rows_of(matrix.csr)
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
        matrix = matrix_of(rows, (0, 0) + (1,) * 8, 6)
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
        matrix = matrix_of(rows + [lone], (0, 0, 0, 0, 1), 6)
        balanced, report = balance_training_set(matrix, SmoteConfig(seed=9))
        assert balanced.class_counts() == {0: 4, 1: 4}
        assert all(row == lone for row in rows_of(balanced.csr)[5:])
        assert any("duplicate" in w for w in report.warnings)

    def test_single_class_matrix_rejected(self):
        rng = np.random.default_rng(16)
        rows = tuple(rand_sparse(rng, 4) for _ in range(3))
        matrix = matrix_of(rows, (1, 1, 1), 4)
        with pytest.raises(ValueError):
            balance_training_set(matrix, SmoteConfig())

    def test_stacks_the_synthetic_block_below_the_view(self):
        rng = np.random.default_rng(18)
        matrix = rand_matrix(rng, n0=9, n1=4, dim=6)
        config = SmoteConfig(k=2, seed=3)
        balanced, _ = balance_training_set(matrix, config)
        assert "rows" not in vars(matrix)
        assert "rows" not in vars(balanced)
        original, stacked = matrix.csr, balanced.csr
        assert np.array_equal(stacked.indptr[: len(matrix) + 1], original.indptr)
        assert np.array_equal(stacked.indices[: original.indices.size], original.indices)
        assert np.array_equal(stacked.data[: original.data.size], original.data)
        minority = [row for row, label in zip(rows_of(matrix.csr), matrix.labels) if label == 1]
        synthetic = [s.vector for s in oracles.smote_trace(minority, 9, config)]
        assert rows_of(balanced.csr)[len(matrix) :] == tuple(synthetic)

    def test_report_to_dict_is_json_shaped(self):
        rng = np.random.default_rng(17)
        matrix = rand_matrix(rng, n0=6, n1=3, dim=5)
        _, report = balance_training_set(matrix, SmoteConfig(k=2, seed=1))
        data = report.to_dict()
        assert data["minority_before"] == 3
        assert data["synthetic_created"] == 3
        assert all(isinstance(k, str) for k in data["per_sample_usage"])

    def test_report_usage_keys_sort_as_text(self):
        """Canonical JSON sorts str keys as text, so "10" precedes "2"; int
        keys would sort as numbers and change the report's bytes."""
        report = ResampleReport(
            minority_before=2, majority=4, synthetic_created=2, per_sample_usage={2: 1, 10: 1}
        )
        text = canonical_json(report.to_dict())
        assert text.index('"10"') < text.index('"2"')


def reference_balance(matrix: FeatureMatrix, config: SmoteConfig) -> FeatureMatrix:
    """SMOTE one sample at a time: `oracles.smote_trace` over the minority
    rows, its vectors appended below the matrix."""
    counts = matrix.class_counts()
    minority_label = min(counts, key=lambda label: (counts[label], label))
    minority = [row for row, lb in zip(rows_of(matrix.csr), matrix.labels) if lb == minority_label]
    synthetic = [s.vector for s in oracles.smote_trace(minority, max(counts.values()), config)]
    labels = matrix.labels + (minority_label,) * len(synthetic)
    return matrix_of(rows_of(matrix.csr) + tuple(synthetic), labels, matrix.dim)


class TestArraySmoteOracle:
    """The array path of `balance_training_set` against `reference_balance`."""

    @staticmethod
    def assert_matches_reference(matrix, config):
        balanced, _ = balance_training_set(matrix, config)
        assert balanced.digest() == reference_balance(matrix, config).digest()

    def test_empty_rows_duplicates_and_ties(self):
        rng = np.random.default_rng(60)
        zero = SparseVector(dim=15, entries=())
        a, b = rand_sparse(rng, 15, density=0.5), rand_sparse(rng, 15, density=0.5)
        minority = [zero, a, a, rand_sparse(rng, 15), zero, b, a, b, zero, rand_sparse(rng, 15)]
        majority = [rand_sparse(rng, 15) for _ in range(27)]
        matrix = matrix_of(majority + minority, (0,) * 27 + (1,) * 10, 15)
        for k in (1, 2, 5):
            self.assert_matches_reference(matrix, SmoteConfig(k=k, seed=k))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_tiny_minorities_and_k_beyond_them(self, t):
        rng = np.random.default_rng(61 + t)
        matrix = rand_matrix(rng, n0=9, n1=t, dim=7)
        for k in (1, t, t + 4):
            self.assert_matches_reference(matrix, SmoteConfig(k=k, seed=3))

    def test_many_blocks_and_chunks(self, monkeypatch):
        rng = np.random.default_rng(64)
        matrix = rand_matrix(rng, n0=150, n1=70, dim=40, density=0.3)
        config = SmoteConfig(k=4, seed=11)
        self.assert_matches_reference(matrix, config)
        # A small budget splits the queries, the recheck and the
        # interpolation into many pieces; the result must not move.
        monkeypatch.setattr(resample, "_BLOCK_ENTRIES", 64)
        blocks = []
        real_solve = NeighborIndex._solve

        def counted(index, start, stop, k):
            blocks.append(stop - start)
            return real_solve(index, start, stop, k)

        monkeypatch.setattr(NeighborIndex, "_solve", counted)
        self.assert_matches_reference(matrix, config)
        assert sum(blocks) == 70 and len(blocks) > 10

    def test_interpolation_that_cancels_to_zero(self):
        # base + gap * (0 - base) rounds to 0 for a subnormal base when
        # gap > 1/2, and gap * other rounds to 0 when gap < 1/2.
        rng = np.random.default_rng(65)
        tiny = 5e-324
        rows = [
            from_pairs(6, [(i, tiny * float(rng.integers(1, 3))) for i in range(6) if rng.random() < 0.5])
            for _ in range(12)
        ]
        matrix = matrix_of(rows, (0,) * 8 + (1,) * 4, 6)
        balanced, _ = balance_training_set(matrix, SmoteConfig(k=3, seed=2))
        expected = reference_balance(matrix, SmoteConfig(k=3, seed=2))
        assert balanced.digest() == expected.digest()
        minority = rows_of(matrix.csr)[8:]
        trace = batch_trace(list(minority), 8, SmoteConfig(k=3, seed=2))
        union = [
            {i for i, _ in minority[s.base_index].entries} | {i for i, _ in minority[s.neighbor_index].entries}
            for s in trace
        ]
        assert any(s.vector.nnz < len(u) for s, u in zip(trace, union))

    def test_knn_is_called_once_per_distinct_base(self, monkeypatch):
        calls = []
        real_knn = resample.knn

        def counted(index, query, k):
            calls.append((query, k))
            return real_knn(index, query, k)

        monkeypatch.setattr(resample, "knn", counted)
        rng = np.random.default_rng(66)
        few = rand_matrix(rng, n0=20, n1=6, dim=9)  # 14 synthetic rows over 6 bases
        balance_training_set(few, SmoteConfig(k=3, seed=1))
        assert calls == [(i, 3) for i in range(6)]
        calls.clear()
        many = rand_matrix(rng, n0=12, n1=9, dim=9)  # 3 synthetic rows over 3 bases
        balance_training_set(many, SmoteConfig(k=20, seed=1))
        assert calls == [(0, 8), (1, 8), (2, 8)]


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
        minority = [row for row, lb in zip(rows_of(matrix.csr), matrix.labels) if lb == 1]
        trace = batch_trace(minority, report.majority, config)
        assert trace == oracles.smote_trace(minority, report.majority, config)
        provenance = "".join(
            f"{s.base_index},{s.neighbor_index},{s.gap!r}\n" for s in trace
        )
        assert len(trace) == 168
        assert balanced.digest() == self.PINNED[seed][0]
        assert hashlib.sha256(provenance.encode()).hexdigest() == self.PINNED[seed][1]
