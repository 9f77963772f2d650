"""Exact k-nearest-neighbor search and SMOTE synthetic oversampling.

Synthetic minority samples are linear interpolations between a minority
point and one of its k nearest minority-class neighbors (Euclidean, over
sparse vectors).  Base points are visited in deterministic round-robin
order over the minority set; the neighbor pick and the interpolation gap
come from two independent seeded streams, so changing k never perturbs
the gap sequence.  Oversampling is a training-set operation only.

SMOTE runs on CSR arrays in two stateless batch calls: `knn` finds the
neighbors of every base point at once, and `interpolate` builds every
synthetic row at once.  Both walk their row pairs over the union of each
pair's supports in one chunked loop, `_union_chunks`.  Each sum
and product is the IEEE operation a per-pair loop performs, in the same
order: a distance adds the squared differences in column order with
`np.bincount`, and an interpolated entry is b + gap * (o - b).  The
tests check the neighbors and the synthetic rows, bit for bit, against
such loops in `tests/oracles.py`.  `balance_training_set` builds no
one-row view.

The neighbor search's filter is the one place in the package that calls
BLAS: its dot products over the most-used columns are one dense matrix
product, summed in whatever order the library picks.  The filter's proven
slack holds for any order, and the exact recheck alone ranks the points,
so no value the library computes reaches a neighbor list or an output.
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
# Columns the kNN filter holds dense: the most-used ones carry nearly all
# of the filter's products on TF-IDF rows.
_HEAVY_COLUMNS = 64


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
    no buffer grows with the dimension.  `knn` solves its queries in order,
    a block of consecutive points at a time, each block as many as fill the
    budget; the index keeps no results.

    The filter computes, for every query a of a block and every point b, the
    Gram form G = (|a|^2 + |b|^2) - 2 a.b of the squared distance, from
    squared row norms taken once.  Each dot product is a heavy part plus a
    light part.  The heavy columns are the `_HEAVY_COLUMNS` (64) columns
    most points use (all of them, if fewer), ties to the lower column.  On
    TF-IDF rows they hold nearly all of the products.  The points' entries
    in them are kept as one dense n x 64 matrix (512 bytes a point), so the
    heavy parts of a block of queries are one matrix product of their dense
    rows with that matrix's transpose.  The light part sums the products in
    the other columns with one `np.bincount` over the block's nonzero light
    products (columns joined through the light entries' `CsrView.transpose`,
    added in column order).  Each G carries a slack e >= |G - M|, where M is
    the computed squared distance: each squared difference (a_i - b_i)^2
    over the union of both supports (a missing entry reads 0.0), added in
    column order from 0.0, one rounding per operation.  The distance is
    sqrt(M).  The exact recheck then ranks by (distance, index), as an
    exhaustive scan does, every point whose lower bound G - e is at most the
    query's k-th smallest upper bound G + e.  At least k points have M at
    most that upper bound, so every point the scan would return is
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
    * Each squared norm sums at most L rounded products in a fixed order,
      so it is within g(L) of its exact value.
    * A dot product's heavy and light parts have at most L nonzero
      products between them, and a product with a zero factor adds an
      exact 0.0.  Summed in any order, with or without fused multiply-adds
      (the matrix product may use either), a part of p such products is
      within g(p) of its exact value, or of sum |a_i b_i| over its
      columns; adding the two parts rounds once more.  So a dot product
      is within g(L+1) of sum |a_i b_i| <= N/2.  With the roundings of the
      norm sum and the difference, |G - S| <= g(2L+5) N.
    * So |G - M| <= g(2L+5) N + 2 g(2L+2) N <= 3 g(2L+5) N.

    Two margins ride on top.  Distances are compared after a correctly
    rounded square root, so two points tie at one distance while their M
    differ by a factor of up to ((1 + u) / (1 - u))^2 <= 1 + 5u; the upper
    bound must clear M by 5u M <= 10u N(1 + g(2L+2)).  Forming G - e and
    G + e rounds once each, by at most u |G| + u e.  To first order in u
    all of this is (6L + 27) u N, and
    e = g(8L+32) N' + (4L + 4) 2^-1074
    exceeds it by (2L + 5) u N, which covers every second-order term
    (including N' >= N (1 - g(L+1))) while L u < 2^-20.  The absolute term
    covers the at most 6L products (or fused multiply-adds of a nonzero
    product) that can underflow, each off by at most 2^-1075; additions
    never lose anything to underflow.  This assumes IEEE arithmetic with
    subnormals kept, which numpy and its BLAS use.

    A pair whose N' is above 2^1000, or not a number, might overflow: its
    lower bound is -inf and its upper bound +inf, so it is never filtered
    out, and if it is among the k smallest upper bounds every point is
    rechecked.

    Memory.  The index holds the dense heavy matrix, n x 64 float64, and
    the light entries with their transpose.  A block holds as many queries
    as keep its light products, its dense rows and its n-wide filter rows
    within `_BLOCK_ENTRIES` elements (at least one query), and the recheck
    takes its pairs from `_union_chunks`, at most `_BLOCK_ENTRIES` union
    entries at a time, so every temporary array is bounded by that budget
    or by one query's share, whatever the point count or k.
    """

    def __init__(self, points: CsrView):
        n = points.shape[0]
        if n < 2:
            raise ValueError("knn requires at least 2 points")
        self._csr = csr = _compact(points)[1]
        data, columns = csr.data, csr.indices
        with np.errstate(over="ignore"):  # overflowing rows are caught per query
            sq_norms = np.bincount(csr.row_ids, data * data, minlength=n)
        # float64 also with no stored entries, where `np.bincount` counts in int64
        self._sq_norms = sq_norms.astype(np.float64, copy=False)
        longest = int(csr.row_lengths.max(initial=0))
        m = 8 * longest + 32
        self._rel_slack = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
        self._abs_slack = (4 * longest + 4) * _SMALLEST_SUBNORMAL

        # The `_HEAVY_COLUMNS` columns most points use (ties to the lower one)
        # as one dense matrix, and the other entries as a CSR view and its
        # transpose.
        uses = np.bincount(columns, minlength=csr.shape[1])
        heavy = np.argsort(-uses, kind="stable")[:_HEAVY_COLUMNS]
        slot = np.full(csr.shape[1], -1)
        slot[heavy] = np.arange(heavy.size)
        is_heavy = slot[columns] >= 0
        self._dense = np.zeros((n, heavy.size), order="F")  # so its transpose is C-ordered
        self._dense[csr.row_ids[is_heavy], slot[columns[is_heavy]]] = data[is_heavy]
        light = ~is_heavy
        indptr = np.concatenate(([0], np.cumsum(light)))[csr.indptr]
        self._light = CsrView(indptr, columns[light], data[light], csr.shape[1])
        self._light_by_column = by_column = self._light.transpose()

        # A query's filter work: its light products, its dense row and its n-wide rows.
        products = by_column.row_lengths[self._light.indices]
        work = np.bincount(self._light.row_ids, products, minlength=n) + (heavy.size + n)
        self._work = np.concatenate(([0], np.cumsum(work)))

    def __len__(self) -> int:
        return self._csr.shape[0]

    def _solve(self, start: int, stop: int, k: int) -> np.ndarray:
        """The k nearest points of queries start..stop-1, one row each."""
        light, by_column, n = self._light, self._light_by_column, len(self)
        lo, hi = light.indptr[start], light.indptr[stop]
        columns = light.indices[lo:hi]
        counts = by_column.row_lengths[columns]  # each query entry meets its column's points
        pos = _segments(by_column.indptr[columns], counts)
        queries = np.arange(start, stop)
        own = (queries - start, queries)
        with np.errstate(over="ignore", invalid="ignore"):  # unsafe pairs, below
            dots = self._dense[start:stop] @ self._dense.T
            # In place: with no light entries `np.bincount` counts in int64.
            dots += np.bincount(
                np.repeat((light.row_ids[lo:hi] - start) * n, counts) + by_column.indices[pos],
                np.repeat(light.data[lo:hi], counts) * by_column.data[pos],
                minlength=(stop - start) * n,
            ).reshape(-1, n)
            norm_sum = self._sq_norms[queries, None] + self._sq_norms
            unsafe = ~(norm_sum <= _SAFE_NORM_SUM)
            # G, e and G + e overwrite the arrays they come from, rounded as
            # N' - 2 a.b and rel N' + abs are: a new n-wide array costs more
            # in page faults than in arithmetic.
            gram = dots
            gram *= -2.0
            gram += norm_sum
            slack = norm_sum
            slack *= self._rel_slack
            slack += self._abs_slack
            lower = gram - slack
            upper = gram
            upper += slack
        lower[unsafe] = -np.inf
        upper[unsafe] = np.inf
        upper[own] = np.inf
        upper.partition(k - 1, axis=1)
        bound = upper[:, k - 1]
        candidate = lower <= bound[:, None]
        candidate[own] = False

        which, points = np.nonzero(candidate)  # grouped by query, at least k each
        squared = np.empty(which.size)  # M, as the class docstring defines it
        for chunk, pair, _, a, b in _union_chunks(self._csr, which + start, points):
            with np.errstate(over="ignore"):
                d = a - b
                squared[chunk] = np.bincount(pair, d * d, minlength=squared[chunk].size)
        ranked = points[np.lexsort((points, np.sqrt(squared), which))]
        firsts = np.searchsorted(which, queries - start)
        return ranked[firsts[:, None] + np.arange(k)]


def knn(index: NeighborIndex, count: int, k: int) -> np.ndarray:
    """The k nearest points of each of points 0..count-1 of the index's set
    (self excluded): row q holds point q's, sorted by (distance, index), so
    distance ties resolve to the smaller index.  k above n - 1 gives n - 1
    columns.  The queries are solved in order, as many consecutive ones a
    block as fill the `_BLOCK_ENTRIES` budget (at least one)."""
    n = len(index)
    if not 0 <= count <= n:
        raise ValueError(f"count {count} outside [0, {n}]")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n - 1)
    work, start = index._work, 0
    blocks = [np.zeros((0, k), dtype=np.int64)]
    while start < count:
        within = int(np.searchsorted(work, work[start] + _BLOCK_ENTRIES, side="right")) - 1
        stop = min(count, max(start + 1, within))
        blocks.append(index._solve(start, stop, k))
        start = stop
    return np.concatenate(blocks)


def interpolate(
    points: CsrView, bases: np.ndarray, others: np.ndarray, gaps: np.ndarray
) -> CsrView:
    """Row s is base + gaps[s] * (other - base) for rows bases[s] and
    others[s] of ``points``, over their union support (a missing entry
    reads 0.0) with zeros dropped, one rounding per operation.  A value
    that is not finite (the difference of two entries can overflow)
    raises ValueError: no reader accepts it."""
    rows = points.shape[0]
    if not len(bases) == len(others) == len(gaps):
        raise ValueError(f"{len(bases)} bases, {len(others)} others and {len(gaps)} gaps")
    for name, picked in (("bases", bases), ("others", others)):
        if np.any((picked < 0) | (picked >= rows)):
            raise ValueError(f"{name} names a row outside [0, {rows})")
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
        nearest = knn(NeighborIndex(minority), min(n_new, t), config.k)  # k clamps to t - 1
        pick = derive_stream(config.seed, STREAM_NEIGHBOR).next_below
        draw_gap = derive_stream(config.seed, STREAM_GAP).next_float
        picks = np.array([pick(nearest.shape[1]) for _ in range(n_new)], dtype=np.int64)
        neighbors = nearest[bases, picks]
        gaps = np.array([draw_gap() for _ in range(n_new)], dtype=np.float64)
    return bases, neighbors, gaps, interpolate(minority, bases, neighbors, gaps)


def balance_training_set(
    matrix: FeatureMatrix, config: SmoteConfig
) -> tuple[FeatureMatrix, ResampleReport]:
    """Equalize class counts by appending synthetic minority rows.

    Original rows are preserved unchanged and precede all synthetic rows.
    Must only ever be applied to training data.
    """
    y = matrix.labels_array()
    present, counts = np.unique(y, return_counts=True)
    if present.size < 2:
        raise ValueError("cannot balance a single-class matrix")
    (label_a, label_b), (count_a, count_b) = present.tolist(), counts.tolist()
    if count_a == count_b:
        return matrix, ResampleReport(
            minority_before=count_a, majority=count_b, synthetic_created=0, per_sample_usage={}
        )

    minority_label = label_a if count_a < count_b else label_b
    majority_count = max(count_a, count_b)
    is_minority = y == minority_label
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
