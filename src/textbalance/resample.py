"""Exact k-nearest-neighbor search and SMOTE synthetic oversampling.

Synthetic minority samples are linear interpolations between a minority
point and one of its k nearest minority-class neighbors (Euclidean, over
sparse vectors).  Base points are visited in deterministic round-robin
order over the minority set; the neighbor pick and the interpolation gap
come from two independent seeded streams, so changing k never perturbs
the gap sequence.  Oversampling is a training-set operation only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .rng import STREAM_GAP, STREAM_NEIGHBOR, derive_stream
from .vectorize import CsrView, FeatureMatrix, SparseVector

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_SAFE_NORM_SUM = 2.0**1000


@dataclass(frozen=True)
class SmoteConfig:
    k: int = 5
    seed: int = 0
    target: str = "equalize"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.target != "equalize":
            raise ValueError(f"unsupported target {self.target!r}")

    def to_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "target": self.target}


@dataclass(frozen=True)
class SyntheticSample:
    """A synthetic vector plus the (base, neighbor, gap) that produced it."""

    vector: SparseVector
    base_index: int
    neighbor_index: int
    gap: float


@dataclass
class ResampleReport:
    minority_before: int
    majority: int
    synthetic_created: int
    per_sample_usage: dict[int, int]
    minority_label: int | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "minority_before": self.minority_before,
            "majority": self.majority,
            "synthetic_created": self.synthetic_created,
            "per_sample_usage": {str(k): v for k, v in sorted(self.per_sample_usage.items())},
            "minority_label": self.minority_label,
            "warnings": list(self.warnings),
        }


def euclidean_distance(a: SparseVector, b: SparseVector) -> float:
    """Euclidean distance computed over the union of supports."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    acc = 0.0
    ai, bi = 0, 0
    ae, be = a.entries, b.entries
    while ai < len(ae) and bi < len(be):
        ia, va = ae[ai]
        ib, vb = be[bi]
        if ia == ib:
            d = va - vb
            acc += d * d
            ai += 1
            bi += 1
        elif ia < ib:
            acc += va * va
            ai += 1
        else:
            acc += vb * vb
            bi += 1
    for i in range(ai, len(ae)):
        acc += ae[i][1] * ae[i][1]
    for i in range(bi, len(be)):
        acc += be[i][1] * be[i][1]
    return math.sqrt(acc)


def interpolate(base: SparseVector, other: SparseVector, gap: float) -> SparseVector:
    """base + gap * (other - base), evaluated over the union of supports."""
    if base.dim != other.dim:
        raise ValueError(f"dimension mismatch: {base.dim} vs {other.dim}")
    base_map = dict(base.entries)
    other_map = dict(other.entries)
    values = {}
    for i in base_map.keys() | other_map.keys():
        b = base_map.get(i, 0.0)
        values[i] = b + gap * (other_map.get(i, 0.0) - b)
    return SparseVector.from_pairs(base.dim, values.items())


class NeighborIndex:
    """Exact k-nearest-neighbor search over one fixed list of sparse points.

    A query a is answered in two steps.  The filter computes, for every
    point b, the Gram form G = (|a|^2 + |b|^2) - 2 a.b of the squared
    distance, from squared row norms taken once and one fixed-order
    `CsrView` matvec for all the dot products; the points are never
    densified.  Each G carries a slack e >= |G - M|, where M is the sum
    that `euclidean_distance` takes the square root of.  The exact recheck
    then ranks by (`euclidean_distance`, index), as an exhaustive scan
    does, every point whose lower bound G - e is at most the k-th smallest
    upper bound G + e.  At least k points have M at most that upper bound,
    so every point the scan would return is rechecked, and the result is
    the scan's, ties included.

    The slack.  Let u = 2^-53, g(n) = n u / (1 - n u), L the most entries
    stored in one row, N = |a|^2 + |b|^2 exactly and N' its computed value.
    In the standard model of float64 rounding:

    * M sums at most 2L terms in order, each the square of a rounded
      difference (three roundings), so |M - S| <= g(2L+2) S, where
      S = |a - b|^2 <= 2N.
    * Each squared norm and each dot product sums at most L rounded
      products in row order (`np.bincount`), so it is within g(L) of its
      exact value, or of sum |a_i b_i| <= N/2 for a dot product.  With the
      roundings of the sum and the difference, |G - S| <= g(2L+4) N.
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
    """

    def __init__(self, points: Sequence[SparseVector]):
        if len(points) < 2:
            raise ValueError("knn requires at least 2 points")
        dim = points[0].dim
        for point in points:
            if point.dim != dim:
                raise ValueError(f"dimension mismatch: {dim} vs {point.dim}")
        self.points = points
        self._csr = CsrView.from_rows(points, dim)
        data = self._csr.data
        with np.errstate(over="ignore"):  # overflowing rows are caught per query
            self._sq_norms = np.bincount(self._csr.row_ids, data * data, minlength=len(points))
        longest = int(np.diff(self._csr.indptr).max())
        n = 8 * longest + 32
        self._rel_slack = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        self._abs_slack = (4 * longest + 4) * _SMALLEST_SUBNORMAL

    def __len__(self) -> int:
        return len(self.points)

    def query(self, query_index: int, k: int) -> list[int]:
        """Indices of the k nearest points to points[query_index]; see `knn`."""
        n = len(self.points)
        if not 0 <= query_index < n:
            raise ValueError(f"query_index {query_index} outside [0, {n})")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, n - 1)
        csr = self._csr
        lo, hi = csr.indptr[query_index], csr.indptr[query_index + 1]
        dense_query = np.zeros(csr.shape[1])
        dense_query[csr.indices[lo:hi]] = csr.data[lo:hi]

        with np.errstate(over="ignore", invalid="ignore"):  # unsafe pairs, below
            norm_sum = self._sq_norms[query_index] + self._sq_norms
            gram = norm_sum - 2.0 * (csr @ dense_query)
            slack = self._rel_slack * norm_sum + self._abs_slack
            lower = gram - slack
            upper = gram + slack
        unsafe = ~(norm_sum <= _SAFE_NORM_SUM)
        lower[unsafe] = -np.inf
        upper[unsafe] = np.inf
        upper[query_index] = np.inf
        bound = np.partition(upper, k - 1)[k - 1]

        candidates = np.flatnonzero(lower <= bound)
        query = self.points[query_index]
        ranked = sorted(
            (euclidean_distance(query, self.points[i]), i)
            for i in candidates.tolist()
            if i != query_index
        )
        return [i for _, i in ranked[:k]]


def knn(points: Sequence[SparseVector] | NeighborIndex, query_index: int, k: int) -> list[int]:
    """Indices of the k nearest points to points[query_index] (self excluded).

    Sorted by (distance, index); distance ties resolve to the smaller index.
    Pass a `NeighborIndex` to reuse its set-up across queries on one set.
    """
    index = points if isinstance(points, NeighborIndex) else NeighborIndex(points)
    return index.query(query_index, k)


def smote_trace(
    minority: list[SparseVector], majority_count: int, config: SmoteConfig
) -> list[SyntheticSample]:
    """Generate majority_count - len(minority) synthetic samples with provenance."""
    t = len(minority)
    if t < 1:
        raise ValueError("minority set is empty")
    if majority_count < t:
        raise ValueError(
            f"majority_count {majority_count} smaller than minority count {t}"
        )
    n_new = majority_count - t
    if n_new == 0:
        return []

    if t == 1:
        # No neighbor exists: interpolation collapses to duplication.
        lone = minority[0]
        return [SyntheticSample(lone, 0, 0, 0.0) for _ in range(n_new)]

    k_eff = min(config.k, t - 1)
    neighbor_rng = derive_stream(config.seed, STREAM_NEIGHBOR)
    gap_rng = derive_stream(config.seed, STREAM_GAP)
    index = NeighborIndex(minority)
    neighbors: dict[int, list[int]] = {}
    samples: list[SyntheticSample] = []
    for j in range(n_new):
        i = j % t
        if i not in neighbors:
            neighbors[i] = knn(index, i, k_eff)
        nn_list = neighbors[i]
        nn = nn_list[neighbor_rng.next_below(len(nn_list))]
        gap = gap_rng.next_float()
        samples.append(SyntheticSample(interpolate(minority[i], minority[nn], gap), i, nn, gap))
    return samples


def smote(
    minority: list[SparseVector], majority_count: int, config: SmoteConfig
) -> list[SparseVector]:
    """Synthetic minority vectors only; see smote_trace for provenance."""
    return [s.vector for s in smote_trace(minority, majority_count, config)]


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
    minority_rows = [i for i, lb in enumerate(matrix.labels) if lb == minority_label]
    minority = [matrix.rows[i] for i in minority_rows]

    trace = smote_trace(minority, majority_count, config)
    usage = {row: 0 for row in minority_rows}
    for sample in trace:
        usage[minority_rows[sample.base_index]] += 1

    report = ResampleReport(
        minority_before=len(minority),
        majority=majority_count,
        synthetic_created=len(trace),
        per_sample_usage=usage,
        minority_label=minority_label,
    )
    if len(minority) == 1:
        report.warnings.append(
            "single minority sample: synthetic rows are exact duplicates"
        )

    rows = matrix.rows + tuple(s.vector for s in trace)
    labels = matrix.labels + tuple(minority_label for _ in trace)
    return FeatureMatrix(rows=rows, labels=labels, dim=matrix.dim), report
