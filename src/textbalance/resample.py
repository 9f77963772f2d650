"""Exact k-nearest-neighbor search and SMOTE synthetic oversampling.

Synthetic minority samples are linear interpolations between a minority
point and one of its k nearest minority-class neighbors (Euclidean, over
sparse vectors).  Base points are visited in deterministic round-robin
order over the minority set; the neighbor pick and the interpolation gap
come from two independent seeded streams, so changing k never perturbs
the gap sequence.  Oversampling is a training-set operation only.

SMOTE runs on CSR arrays: the neighbor search and the interpolation each
take whole blocks of rows, and `knn` and `interpolate` are their
one-query and one-pair cases.  Both walk their row pairs over the union
of each pair's supports in one chunked loop, `_union_chunks`.  Each sum
and product is the IEEE operation a per-pair loop performs, in the same
order: a distance adds the squared differences in column order with
`np.bincount`, and an interpolated entry is b + gap * (o - b).  The
tests check the neighbors and the synthetic rows, bit for bit, against
such loops in `tests/oracles.py`.  `balance_training_set` builds no
one-row view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import STREAM_GAP, STREAM_NEIGHBOR, derive_stream
from .vectorize import CsrView, FeatureMatrix

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_SAFE_NORM_SUM = 2.0**1000
# Elements in one block's temporary arrays (a block of one query may exceed it).
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SmoteConfig:
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def to_dict(self) -> dict:
        # Balancing always equalizes the classes; the tag stays in bundles and reports.
        return {"k": self.k, "seed": self.seed, "target": "equalize"}


@dataclass
class ResampleReport:
    minority_before: int
    majority: int
    synthetic_created: int
    per_sample_usage: dict[int, int]
    minority_label: int | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        # String keys: canonical JSON sorts int keys as numbers (2 before 10)
        # but str keys as text ("10" before "2"), the order reports keep.
        usage = {str(k): v for k, v in self.per_sample_usage.items()}
        return {**vars(self), "per_sample_usage": usage}


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of the ranges [starts[s], starts[s] + lengths[s]), in order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _compact(csr: CsrView) -> tuple[np.ndarray, CsrView]:
    """The columns ``csr`` uses, ascending, and ``csr`` with its columns
    renumbered to positions in that list; their order is kept."""
    used, columns = np.unique(csr.indices, return_inverse=True)
    return used, CsrView(csr.indptr, columns, csr.data, used.size)


def _union(csr: CsrView, a_rows: np.ndarray, b_rows: np.ndarray):
    """Rows a_rows[p] and b_rows[p] of a compacted ``csr`` over the union of
    their supports, for every pair p: (pair, column, a value, b value)
    sorted by (pair, column), with 0.0 where a row stores nothing.

    Entries are sorted on pair * width + column.  `_union_chunks` passes
    at most `_BLOCK_ENTRIES` (2^16) pairs and a compacted width is at most
    the entry count, so the key fits int64 below 2^47 entries."""
    indptr, width = csr.indptr, max(1, csr.shape[1])
    a_len, b_len = indptr[a_rows + 1] - indptr[a_rows], indptr[b_rows + 1] - indptr[b_rows]
    a_pos, b_pos = _segments(indptr[a_rows], a_len), _segments(indptr[b_rows], b_len)
    pairs = np.arange(a_rows.size) * width
    key = np.concatenate((np.repeat(pairs, a_len), np.repeat(pairs, b_len)))
    key += csr.indices[np.concatenate((a_pos, b_pos))]
    a = np.concatenate((csr.data[a_pos], np.zeros(b_pos.size)))
    b = np.concatenate((np.zeros(a_pos.size), csr.data[b_pos]))
    order = np.argsort(key, kind="stable")  # on a shared column, a's entry stays first
    key, a, b = key[order], a[order], b[order]
    shared = key[1:] == key[:-1]
    b[:-1][shared] = b[1:][shared]
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = ~shared
    pair, col = np.divmod(key[keep], width)
    return pair, col, a[keep], b[keep]


def _union_chunks(csr: CsrView, a_rows: np.ndarray, b_rows: np.ndarray):
    """`_union` of a compacted ``csr`` over the pairs (a_rows[p], b_rows[p]),
    in chunks of at most `_BLOCK_ENTRIES` union entries (at least one pair):
    yields (chunk, pair, col, a, b), where ``chunk`` slices the pairs and
    ``pair`` counts from the chunk's first."""
    step = max(1, _BLOCK_ENTRIES // (2 * int(csr.row_lengths.max(initial=0)) + 1))
    for lo in range(0, a_rows.size, step):
        chunk = slice(lo, lo + step)
        yield (chunk, *_union(csr, a_rows[chunk], b_rows[chunk]))


class NeighborIndex:
    """Exact k-nearest-neighbor search over one fixed set of sparse points,
    the rows of a `CsrView`.

    The points' columns are renumbered, in order, to the ones they use, so
    no buffer grows with the dimension.  Queries are answered a block of
    consecutive points at a time: the first time a point is asked for with
    a given k, it is solved with as many points after it as fill the
    block's budget, and the neighbor lists are kept per k.

    The filter computes, for every query a of a block and every point b,
    the Gram form G = (|a|^2 + |b|^2) - 2 a.b of the squared distance,
    from squared row norms taken once and dot products summed with one
    `np.bincount` over the block's nonzero products (columns joined through
    the points' `CsrView.transpose`, added in column order); the points
    are never densified.  Each G carries a slack e >= |G - M|, where M is
    the computed squared distance: each squared difference (a_i - b_i)^2
    over the union of both supports (a missing entry reads 0.0), added in
    column order from 0.0, one rounding per operation.  The distance is
    sqrt(M).  The exact recheck then ranks by (distance, index), as an
    exhaustive scan does, every point whose lower bound G - e is at most
    the query's k-th smallest upper bound G + e.  At least k points have M
    at most that upper bound, so every point the scan would return is
    rechecked, and the result is the scan's, ties included.  The recheck
    computes M itself, each pair's terms added by `np.bincount` in column
    order from 0.0.  The tests check the neighbors against an exhaustive
    scan in `tests/oracles.py` whose distance is a merge loop over both
    rows' sorted entries, forming the same M.

    The slack.  Let u = 2^-53, g(n) = n u / (1 - n u), L the most entries
    stored in one row, N = |a|^2 + |b|^2 exactly and N' its computed value.
    The bound holds for each (query, point) pair on its own, so it does not
    depend on how the pairs are grouped into blocks.  In the standard model
    of float64 rounding:

    * M sums at most 2L terms in order, each the square of a rounded
      difference (three roundings), so |M - S| <= g(2L+2) S, where
      S = |a - b|^2 <= 2N.
    * Each squared norm and each dot product sums at most L rounded
      products, in a fixed order (any order obeys this bound), so it is
      within g(L) of its exact value, or of sum |a_i b_i| <= N/2 for a dot
      product.  With the roundings of the sum and the difference,
      |G - S| <= g(2L+4) N.
    * So |G - M| <= g(2L+4) N + 2 g(2L+2) N <= 3 g(2L+4) N.

    Two margins ride on top.  Distances are compared after a correctly
    rounded square root, so two points tie at one distance while their M
    differ by a factor of up to ((1 + u) / (1 - u))^2 <= 1 + 5u; the upper
    bound must clear M by 5u M <= 10u N(1 + g(2L+2)).  Forming G - e and
    G + e rounds once each, by at most u |G| + u e.  To first order in u
    all of this is (6L + 24) u N, and
    e = g(8L+32) N' + (4L + 4) 2^-1074
    exceeds it by (2L + 8) u N, which covers every second-order term
    (including N' >= N (1 - g(L+1))) while L u < 2^-20.  The absolute term
    covers the at most 6L products that can underflow, each off by at most
    2^-1075; additions never lose anything to underflow.

    A pair whose N' is above 2^1000, or not a number, might overflow: its
    lower bound is -inf and its upper bound +inf, so it is never filtered
    out, and if it is among the k smallest upper bounds every point is
    rechecked.

    Memory.  A block holds as many queries as keep its products plus its
    n-wide filter rows within `_BLOCK_ENTRIES` elements (at least one
    query), and the recheck takes its pairs from `_union_chunks`, at most
    `_BLOCK_ENTRIES` union entries at a time, so every temporary array is bounded by
    that budget or by one query's share, whatever the point count or k.
    """

    def __init__(self, points: CsrView):
        n = points.shape[0]
        if n < 2:
            raise ValueError("knn requires at least 2 points")
        self._csr = csr = _compact(points)[1]
        data, columns = csr.data, csr.indices
        with np.errstate(over="ignore"):  # overflowing rows are caught per query
            self._sq_norms = np.bincount(csr.row_ids, data * data, minlength=n)
        longest = int(csr.row_lengths.max(initial=0))
        m = 8 * longest + 32
        self._rel_slack = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
        self._abs_slack = (4 * longest + 4) * _SMALLEST_SUBNORMAL

        self._by_column = by_column = csr.transpose()

        # A query's filter work: its nonzero products and its n-wide rows.
        work = np.bincount(csr.row_ids, by_column.row_lengths[columns], minlength=n) + n
        self._work = np.concatenate(([0], np.cumsum(work)))
        self._found: dict[int, dict[int, np.ndarray]] = {}  # k -> query -> neighbors

    def __len__(self) -> int:
        return self._csr.shape[0]

    def query(self, query_index: int, k: int) -> list[int]:
        """Indices of the k nearest points to point query_index; see `knn`."""
        n = len(self)
        if not 0 <= query_index < n:
            raise ValueError(f"query_index {query_index} outside [0, {n})")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, n - 1)
        found = self._found.setdefault(k, {})
        if query_index not in found:
            start, work = query_index, self._work
            within = int(np.searchsorted(work, work[start] + _BLOCK_ENTRIES, side="right")) - 1
            stop = max(start + 1, within)
            found.update(zip(range(start, stop), self._solve(start, stop, k)))
        return found[query_index].tolist()

    def _solve(self, start: int, stop: int, k: int) -> np.ndarray:
        """The k nearest points of queries start..stop-1, one row each."""
        csr, by_column, n = self._csr, self._by_column, len(self)
        lo, hi = csr.indptr[start], csr.indptr[stop]
        columns = csr.indices[lo:hi]
        counts = by_column.row_lengths[columns]  # each query entry meets its column's points
        pos = _segments(by_column.indptr[columns], counts)
        queries = np.arange(start, stop)
        own = (queries - start, queries)
        with np.errstate(over="ignore", invalid="ignore"):  # unsafe pairs, below
            dots = np.bincount(
                np.repeat((csr.row_ids[lo:hi] - start) * n, counts) + by_column.indices[pos],
                np.repeat(csr.data[lo:hi], counts) * by_column.data[pos],
                minlength=(stop - start) * n,
            ).reshape(-1, n)
            norm_sum = self._sq_norms[queries, None] + self._sq_norms
            gram = norm_sum - 2.0 * dots
            slack = self._rel_slack * norm_sum + self._abs_slack
            lower = gram - slack
            upper = gram + slack
        unsafe = ~(norm_sum <= _SAFE_NORM_SUM)
        lower[unsafe] = -np.inf
        upper[unsafe] = np.inf
        upper[own] = np.inf
        bound = np.partition(upper, k - 1, axis=1)[:, k - 1]
        candidate = lower <= bound[:, None]
        candidate[own] = False

        which, points = np.nonzero(candidate)  # grouped by query, at least k each
        squared = np.empty(which.size)  # M, as the class docstring defines it
        for chunk, pair, _, a, b in _union_chunks(csr, which + start, points):
            with np.errstate(over="ignore"):
                d = a - b
                squared[chunk] = np.bincount(pair, d * d, minlength=squared[chunk].size)
        ranked = points[np.lexsort((points, np.sqrt(squared), which))]
        firsts = np.searchsorted(which, queries - start)
        return ranked[firsts[:, None] + np.arange(k)]


def knn(index: NeighborIndex, query_index: int, k: int) -> list[int]:
    """Indices of the k nearest points to point query_index of the index's
    set (self excluded), sorted by (distance, index): distance ties resolve
    to the smaller index."""
    return index.query(query_index, k)


def _interpolate_rows(
    points: CsrView, bases: np.ndarray, others: np.ndarray, gaps: np.ndarray
) -> CsrView:
    """Row s is base + gaps[s] * (other - base) for rows bases[s] and
    others[s] of ``points``, over their union support (a missing entry
    reads 0.0) with zeros dropped, one rounding per operation.  A value
    that is not finite (the difference of two entries can overflow)
    raises ValueError: no reader accepts it."""
    used, compact = _compact(points)
    counts, indices, data = [np.zeros(0, dtype=np.int64)], [used[:0]], [points.data[:0]]
    for chunk, pair, col, base, other in _union_chunks(compact, bases, others):
        with np.errstate(over="ignore", invalid="ignore"):
            values = base + gaps[chunk][pair] * (other - base)
        if not np.isfinite(values).all():
            raise ValueError("a synthetic value is not finite: interpolation overflows")
        kept = values != 0.0
        counts.append(np.bincount(pair[kept], minlength=bases[chunk].size))
        indices.append(used[col[kept]])
        data.append(values[kept])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return CsrView(indptr, np.concatenate(indices), np.concatenate(data), points.shape[1])


def interpolate(base: CsrView, other: CsrView, gap: float) -> CsrView:
    """base + gap * (other - base) for two one-row views, over the union of
    supports, zeros dropped: `_interpolate_rows` on the one pair."""
    if base.shape[0] != 1 or other.shape[0] != 1:
        raise ValueError(f"one-row views expected, got {base.shape[0]} and {other.shape[0]} rows")
    gaps = np.array([float(gap)])
    return _interpolate_rows(base.stack(other), np.array([0]), np.array([1]), gaps)


def _synthesize(
    minority: CsrView, majority_count: int, config: SmoteConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CsrView]:
    """The (base, neighbor, gap) of each of the majority_count - len(minority)
    synthetic rows, and those rows."""
    t = minority.shape[0]
    if t < 1:
        raise ValueError("minority set is empty")
    if majority_count < t:
        raise ValueError(
            f"majority_count {majority_count} smaller than minority count {t}"
        )
    n_new = majority_count - t
    bases = np.arange(n_new) % t
    if t == 1:
        # No neighbor exists: base + 0.0 * (base - base) is the finite row itself.
        neighbors, gaps = bases, np.zeros(n_new)
    else:
        k = min(config.k, t - 1)
        index = NeighborIndex(minority)
        nearest = [knn(index, i, k) for i in range(min(n_new, t))]
        pick = derive_stream(config.seed, STREAM_NEIGHBOR).next_below
        draw_gap = derive_stream(config.seed, STREAM_GAP).next_float
        neighbors = np.array([nearest[i][pick(k)] for i in bases.tolist()], dtype=np.int64)
        gaps = np.array([draw_gap() for _ in range(n_new)], dtype=np.float64)
    return bases, neighbors, gaps, _interpolate_rows(minority, bases, neighbors, gaps)


def balance_training_set(
    matrix: FeatureMatrix, config: SmoteConfig
) -> tuple[FeatureMatrix, ResampleReport]:
    """Equalize class counts by appending synthetic minority rows.

    Original rows are preserved unchanged and precede all synthetic rows.
    Must only ever be applied to training data.
    """
    counts = matrix.class_counts()
    if len(counts) < 2:
        raise ValueError("cannot balance a single-class matrix")
    (label_a, count_a), (label_b, count_b) = sorted(counts.items())
    if count_a == count_b:
        report = ResampleReport(
            minority_before=count_a,
            majority=count_b,
            synthetic_created=0,
            per_sample_usage={},
            minority_label=None,
        )
        return matrix, report

    minority_label = label_a if count_a < count_b else label_b
    majority_count = max(count_a, count_b)
    is_minority = matrix.labels_array() == minority_label
    minority_rows = np.flatnonzero(is_minority)
    bases, _, _, synthetic = _synthesize(matrix.csr.select(is_minority), majority_count, config)
    usage = np.bincount(bases, minlength=minority_rows.size)

    report = ResampleReport(
        minority_before=minority_rows.size,
        majority=majority_count,
        synthetic_created=bases.size,
        per_sample_usage=dict(zip(minority_rows.tolist(), usage.tolist())),
        minority_label=minority_label,
    )
    if minority_rows.size == 1:
        report.warnings.append(
            "single minority sample: synthetic rows are exact duplicates"
        )

    labels = matrix.labels + (minority_label,) * bases.size
    return FeatureMatrix(matrix.csr.stack(synthetic), labels), report
