"""Exact kNN search and SMOTE oversampling."""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import matrix_of, rand_matrix, rand_sparse, to_dense
from corpora import two_vocab_corpus
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
    """`interpolate` of the one pair (0, 1) of the rows base and other."""
    pair = _points([base, other]), np.array([0]), np.array([1]), np.array([gap])
    (row,) = rows_of(interpolate(*pair))
    return row


def knn_lists(index: NeighborIndex, k: int) -> list[list[int]]:
    """`knn` of every point of the index, as lists."""
    return knn(index, len(index), k).tolist()


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
        for _ in range(20):
            dim, n, pairs = (int(rng.integers(1, top)) for top in (25, 8, 30))
            points = [rand_sparse(rng, dim) for _ in range(n)]
            bases, others = rng.integers(0, n, pairs), rng.integers(0, n, pairs)
            gaps = rng.random(pairs)
            dense = np.vstack([to_dense(p) for p in points])
            expected = dense[bases] + gaps[:, None] * (dense[others] - dense[bases])
            got = interpolate(_points(points), bases, others, gaps)
            assert got.shape == (pairs, dim)
            got_dense = np.zeros(got.shape)
            got_dense[got.row_ids, got.indices] = got.data
            np.testing.assert_allclose(got_dense, expected, atol=1e-15)

    def test_matches_the_dict_oracle_bit_for_bit(self):
        rng = np.random.default_rng(20)
        tiny = 5e-324  # base + gap * (0 - base) rounds to 0.0 here when gap > 1/2
        dims = rng.integers(1, 25, 20).tolist()
        sets = [[rand_sparse(rng, dim) for _ in range(6)] for dim in dims]
        sets.append([from_pairs(3, [(0, tiny), (1, tiny)]), from_pairs(3, [(2, 2 * tiny)])])
        for points in sets:
            n = len(points)
            bases = np.repeat(np.arange(n), 4 * n)
            others = np.tile(np.repeat(np.arange(n), 4), n)
            gaps = np.tile([0.0, float(rng.random()), 0.75, 1.0], n * n)
            got = rows_of(interpolate(_points(points), bases, others, gaps))
            for row, base, other, gap in zip(got, bases, others, gaps.tolist()):
                want = oracles.interpolate(points[base], points[other], gap)
                assert [(i, v.hex()) for i, v in row.entries] == [
                    (i, v.hex()) for i, v in want.entries
                ]

    def test_no_pairs_give_no_rows(self):
        points = _points([from_pairs(4, [(1, 2.0)]), from_pairs(4, [(3, 1.0)])])
        empty = np.zeros(0, dtype=np.int64)
        got = interpolate(points, empty, empty, np.zeros(0))
        assert got.shape == (0, 4) and got.nnz == 0

    def test_lengths_must_agree(self):
        points = _points([from_pairs(2, [(0, 1.0)]), from_pairs(2, [(1, 1.0)])])
        pair = np.array([0]), np.array([1]), np.array([0.5])
        for bad in range(3):
            args = [np.concatenate((a, a)) if i == bad else a for i, a in enumerate(pair)]
            with pytest.raises(ValueError, match="bases, .* others and .* gaps"):
                interpolate(points, *args)

    def test_rows_must_be_in_range(self):
        points = _points([from_pairs(2, [(0, 1.0)]), from_pairs(2, [(1, 1.0)])])
        gap = np.array([0.5])
        for row in (-1, 2):
            with pytest.raises(ValueError, match=r"bases names a row outside \[0, 2\)"):
                interpolate(points, np.array([row]), np.array([0]), gap)
            with pytest.raises(ValueError, match=r"others names a row outside \[0, 2\)"):
                interpolate(points, np.array([1]), np.array([row]), gap)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_result_raises(self):
        big, small = from_pairs(2, [(0, 1e308)]), from_pairs(2, [(0, -1e308)])
        with pytest.raises(ValueError, match="not finite"):
            interpolated(big, small, 0.5)  # -1e308 - 1e308 overflows
        for gap in (math.inf, math.nan):
            with pytest.raises(ValueError, match="not finite"):
                interpolated(big, big, gap)
        assert interpolated(big, big, 0.5) == big


class TestKnn:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            dim = int(rng.integers(1, 20))
            points = [rand_sparse(rng, dim) for _ in range(n)]
            k = int(rng.integers(1, n + 3))  # may exceed n-1; clamps
            expected = [brute_force_knn(points, query, k) for query in range(n)]
            assert knn_lists(index_of(points), k) == expected

    def test_distance_ties_resolve_to_smaller_index(self):
        # Three identical candidates: order must be by index.
        same = from_pairs(2, [(0, 1.0)])
        query = from_pairs(2, [(1, 1.0)])
        points = [query, same, same, same]
        assert knn_lists(index_of(points), 3)[0] == [1, 2, 3]

    def test_k_clamped_to_n_minus_one(self):
        points = [rand_sparse(np.random.default_rng(i), 4) for i in range(3)]
        got = knn(index_of(points), 3, 99)
        assert got.shape == (3, 2) and got.dtype == np.int64

    def test_stops_at_count(self):
        rng = np.random.default_rng(4)
        points = [rand_sparse(rng, 8) for _ in range(9)]
        index = index_of(points)
        every = knn(index, 9, 3)
        for count in range(10):
            got = knn(index, count, 3)
            assert got.shape == (count, 3) and got.dtype == np.int64
            assert np.array_equal(got, every[:count])

    def test_blocks_join_in_query_order(self, monkeypatch):
        # A budget of one element solves each query in a block of its own.
        rng = np.random.default_rng(5)
        points = [rand_sparse(rng, 10, density=0.5) for _ in range(12)]
        monkeypatch.setattr(resample, "_BLOCK_ENTRIES", 1)
        blocks = []
        real_solve = NeighborIndex._solve

        def counted(index, start, stop, k):
            blocks.append((start, stop))
            return real_solve(index, start, stop, k)

        monkeypatch.setattr(NeighborIndex, "_solve", counted)
        expected = [exhaustive_knn(points, query, 4) for query in range(12)]
        assert knn_lists(index_of(points), 4) == expected
        assert blocks == [(q, q + 1) for q in range(12)]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            index_of([from_pairs(2, [(0, 1.0)])])

    def test_count_outside_zero_to_n_raises(self):
        two = index_of([from_pairs(2, [(0, 1.0)]), from_pairs(2, [(1, 1.0)])])
        for count in (-1, 3):
            with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
                knn(two, count, 1)

    def test_k_below_one_raises(self):
        two = index_of([from_pairs(2, [(0, 1.0)]), from_pairs(2, [(1, 1.0)])])
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                knn(two, 2, k)


class NoisyProducts(np.ndarray):
    """A dense heavy matrix whose products ``a @ b`` come back off by
    ``rel`` times sum |a_i b_i|, with a random sign per entry."""

    def __array_finalize__(self, obj):
        self.rel = getattr(obj, "rel", 0.0)
        self.rng = getattr(obj, "rng", None)

    def __matmul__(self, other):
        a, b = np.asarray(self), np.asarray(other)
        signs = self.rng.choice((-1.0, 1.0), size=(a.shape[0], b.shape[1]))
        return a @ b + signs * (self.rel * (np.abs(a) @ np.abs(b)))


class TestKnnAdversarial:
    """Inputs where the Gram-form filter is least accurate or ties decide."""

    @staticmethod
    def assert_every_query_matches_scan(points, ks=(1, 2, 3, 5)):
        ks = set(ks) | {len(points) - 1, len(points) + 2}
        expected = {k: [exhaustive_knn(points, q, k) for q in range(len(points))] for k in ks}
        # The default index; then, with a budget of one element (each query
        # solved alone, in a block of one, one pair per recheck chunk), an
        # index with every column light and one with two heavy columns.
        settings = ((resample._HEAVY_COLUMNS, resample._BLOCK_ENTRIES), (0, 1), (2, 1))
        for heavy, budget in settings:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(resample, "_HEAVY_COLUMNS", heavy)
                patch.setattr(resample, "_BLOCK_ENTRIES", budget)
                index = index_of(points)
                for k, want in expected.items():
                    assert knn_lists(index, k) == want, (heavy, budget, k)

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

    def test_terms_are_added_in_column_order(self):
        # Added from column 0, each 2^-54 term rounds away against the 1.0
        # before it, so point 1 ties point 2 at distance 1 and comes first
        # by index; added in reverse, the eight terms make 2^-51 first and
        # point 1 ends at sqrt(1 + 2^-51) > 1.
        zero = SparseVector(dim=9, entries=())
        spread = from_pairs(9, [(0, 1.0)] + [(j, 2.0**-27) for j in range(1, 9)])
        points = [zero, spread, from_pairs(9, [(0, 1.0)])]
        assert knn(index_of(points), 1, 1).tolist() == [[1]]
        self.assert_every_query_matches_scan(points, ks=(1, 2))

    def test_near_duplicates_on_heavy_columns(self):
        # Every point stores columns 0-69, so the default index holds 0-63
        # dense; the points move from their base in the last bits of those
        # columns only, and 64-69 and one rare column each carry little mass.
        rng = np.random.default_rng(35)
        dim = 100
        points = []
        for scale in (1e4, 1e-4):
            base = [(i, scale * float(rng.normal()) * (1.0 if i < 64 else 1e-6)) for i in range(70)]
            for _ in range(12):
                pairs = [
                    (i, v * (1.0 + float(rng.integers(-4, 5)) * 2.0**-50) if i < 64 else v)
                    for i, v in base
                ]
                pairs.append((int(rng.integers(70, dim)), scale * 1e-7 * float(rng.normal())))
                points.append(from_pairs(dim, pairs))
        points = [points[i] for i in rng.permutation(len(points))]
        index = index_of(points)
        assert index._dense.shape == (len(points), resample._HEAVY_COLUMNS)
        assert index._light.nnz > 0
        self.assert_every_query_matches_scan(points)

    def test_pairs_split_across_heavy_and_light_columns(self):
        # Every point stores columns 0-63, held dense by default, and about
        # half of columns 64-99, held sparse, with like mass in each part;
        # the near-duplicates move in the last bits of both parts.
        rng = np.random.default_rng(36)
        dim = 100
        points = []
        for _ in range(3):
            base = [(i, float(rng.normal()) / 8.0) for i in range(64)]
            base += [(i, float(rng.normal()) / 4.0) for i in range(64, dim) if rng.random() < 0.5]
            for _ in range(8):
                pairs = [(i, v * (1.0 + float(rng.integers(-4, 5)) * 2.0**-51)) for i, v in base]
                if rng.random() < 0.5:  # one light entry moves to another column
                    i, v = pairs.pop(int(rng.integers(64, len(pairs))))
                    pairs.append((int(rng.choice([c for c in range(64, dim) if c not in dict(pairs)])), v))
                points.append(from_pairs(dim, pairs))
        points = [points[i] for i in rng.permutation(len(points))]
        index = index_of(points)
        assert index._dense.shape[1] == 64 and index._light.nnz > 0
        self.assert_every_query_matches_scan(points)

    def test_all_columns_heavy(self):
        # Fewer used columns than `_HEAVY_COLUMNS`: the dense matrix holds
        # every entry, and each light part is `np.bincount` over nothing.
        rng = np.random.default_rng(37)
        a = rand_sparse(rng, 30, density=0.6)
        points = [rand_sparse(rng, 30, density=0.5) for _ in range(9)] + [a, a]
        index = index_of(points)
        used = len({i for p in points for i, _ in p.entries})
        assert used < resample._HEAVY_COLUMNS
        assert index._dense.shape == (len(points), used) and index._light.nnz == 0
        self.assert_every_query_matches_scan(points)

    @staticmethod
    def noisy_index(points, seed: int, times: float = 1.0) -> NeighborIndex:
        """An index whose heavy products are off by ``times`` g(L) times
        sum |a_i b_i|, L the longest row.  At ``times`` 1 that is the most
        the class docstring's proof lets a heavy part, summed in any order,
        be off, and here it comes on top of the product's own rounding,
        which the slack's (2L + 5) u N spare covers."""
        index = index_of(points)
        longest = max(p.nnz for p in points)
        dense = index._dense.view(NoisyProducts)
        dense.rel = times * longest * 2.0**-53 / (1.0 - longest * 2.0**-53)
        dense.rng = np.random.default_rng(seed)
        index._dense = dense
        return index

    @staticmethod
    def noise_cases():
        """Seeded clouds of near-duplicates whose mass is on the heavy
        columns, at scales from 1e-6 to 1e6, and the heavy column count."""
        rng = np.random.default_rng(39)
        for case in range(6):
            dim, scale = 24, 10.0 ** float(rng.integers(-6, 7))
            base = rand_sparse(rng, dim, density=0.8)
            points = [
                from_pairs(dim, [(i, scale * v * (1.0 + float(rng.integers(-8, 9)) * 2.0**-52))
                                 for i, v in base.entries])
                for _ in range(14)
            ] + [rand_sparse(rng, dim, density=0.3) for _ in range(3)]
            yield case, points, (64, 8, 2)[case % 3]

    def test_heavy_products_off_by_their_bound_change_no_list(self, monkeypatch):
        for case, points, heavy in self.noise_cases():
            monkeypatch.setattr(resample, "_HEAVY_COLUMNS", heavy)
            index = self.noisy_index(points, seed=case)
            for k in (1, 2, 5):
                expected = [exhaustive_knn(points, query, k) for query in range(len(points))]
                assert knn_lists(index, k) == expected, (case, k)

    def test_sixteen_times_that_noise_moves_some_list(self, monkeypatch):
        # So the cases above come within a small factor of what the slack absorbs.
        wrong = 0
        for case, points, heavy in self.noise_cases():
            monkeypatch.setattr(resample, "_HEAVY_COLUMNS", heavy)
            index = self.noisy_index(points, seed=case, times=16.0)
            wrong += sum(
                got != exhaustive_knn(points, query, k)
                for k in (1, 2, 5)
                for query, got in enumerate(knn_lists(index, k))
            )
        assert wrong > 0

    def test_heavy_columns_are_the_most_used(self, monkeypatch):
        # Points per column: 5 in column 6, 3 in columns 1 and 8, 2 in
        # column 0 and 1 in column 3.  Ties go to the lower column.
        monkeypatch.setattr(resample, "_HEAVY_COLUMNS", 3)
        columns = [(6, 1, 0), (6, 8), (6, 1, 8, 3), (6, 0), (6, 1, 8)]
        rng = np.random.default_rng(38)
        points = [from_pairs(10, [(c, float(rng.normal())) for c in row]) for row in columns]
        index = index_of(points)
        dense = np.vstack([to_dense(p) for p in points])
        assert np.array_equal(index._dense, dense[:, [6, 1, 8]])
        assert index._light.nnz == 3  # columns 0 and 3

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
        assert Counter(balanced.labels) == {0: 20, 1: 20}
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
        assert Counter(balanced.labels) == {0: 8, 1: 8}

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
        assert Counter(balanced.labels) == {0: 4, 1: 4}
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
    counts = Counter(matrix.labels)
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
        # One call asks for bases 0..count-1, each once.
        calls = []
        real_knn = resample.knn

        def counted(index, count, k):
            calls.append((count, k))
            return real_knn(index, count, k)

        monkeypatch.setattr(resample, "knn", counted)
        rng = np.random.default_rng(66)
        few = rand_matrix(rng, n0=20, n1=6, dim=9)  # 14 synthetic rows over 6 bases
        balance_training_set(few, SmoteConfig(k=3, seed=1))
        assert calls == [(6, 3)]
        calls.clear()
        many = rand_matrix(rng, n0=12, n1=9, dim=9)  # 3 synthetic rows over 3 bases
        balance_training_set(many, SmoteConfig(k=20, seed=1))  # knn clamps k to 8
        assert calls == [(3, 20)]

    def test_knn_and_interpolate_run_once_through_the_module_globals(self, monkeypatch):
        calls = []
        for name in ("knn", "interpolate"):
            real = getattr(resample, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(resample, name, counted)
        matrix = rand_matrix(np.random.default_rng(67), n0=30, n1=20, dim=12)
        balanced, report = balance_training_set(matrix, SmoteConfig(k=5, seed=2))
        assert calls == ["knn", "interpolate"]
        assert report.synthetic_created == 10 and len(balanced) == 60


class TestPinnedOutputs:
    """Digests of SMOTE outputs on the fixture corpora, recorded from the
    exhaustive-scan kNN.  A faster neighbour search must reproduce them.
    The balanced matrix's digest is `oracles.text_digest`."""

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
        assert oracles.text_digest(balanced) == self.PINNED[seed][0]
        assert hashlib.sha256(provenance.encode()).hexdigest() == self.PINNED[seed][1]
