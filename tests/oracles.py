"""Per-row reference implementations that the batch code is tested against.

The package runs TF-IDF, scoring, kNN distance, interpolation and SMOTE on
CSR arrays, one block of rows at a time.  Each function here is the
single-vector form of one of those algorithms, written over a
`SparseVector`'s sorted (index, value) pairs with plain Python loops and
dicts.  None of them calls the batch code, so a test comparing the two
checks one implementation against an independent one.  Every float
operation happens in the order the batch code documents, so the
comparisons are bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from textbalance.classify import LinearModel, MultinomialNBModel, TrainedClassifier
from textbalance.resample import SmoteConfig
from textbalance.rng import STREAM_GAP, STREAM_NEIGHBOR, derive_stream
from textbalance.vectorize import SparseVector, TfIdfModel


def from_pairs(dim: int, pairs) -> SparseVector:
    """Build from unordered (index, value) pairs, dropping zeros."""
    kept = sorted((i, float(v)) for i, v in pairs if v != 0.0)
    return SparseVector(dim=dim, entries=tuple(kept))


def get(vector: SparseVector, index: int) -> float:
    for i, v in vector.entries:
        if i == index:
            return v
        if i > index:
            break
    return 0.0


def dot(vector: SparseVector, weights, start=0):
    """``start`` plus each ``value * weights[index]``, added left to right.

    The built-in ``sum()`` adds floats with compensation from Python 3.12
    on, so its last bits depend on the Python version.  Like ``sum()``,
    an empty vector gives ``start`` unchanged (the int 0 by default).
    """
    total = start
    for i, v in vector.entries:
        total += v * weights[i]
    return total


def transform(model: TfIdfModel, doc: Iterable[str]) -> SparseVector:
    """TF-IDF vector of one document under a fitted model.

    Out-of-vocabulary tokens are ignored entirely: they do not contribute
    entries and are excluded from the term-frequency denominator.
    """
    vocab = model.vocabulary
    counts: dict[int, int] = {}
    total = 0
    for token in doc:
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


def _nb_scores(model: MultinomialNBModel, vector: SparseVector) -> list[float]:
    return [
        dot(vector, log_prob, start=prior)
        for prior, log_prob in zip(model.class_log_prior, model.feature_log_prob)
    ]


def predict_scored(model: TrainedClassifier, vector: SparseVector) -> tuple[int, float | None]:
    """Predicted binary label and decision score, from one pass over the
    vector: the log-posterior difference (class 1 minus class 0) for NB
    with both classes, ``w . x + b`` for linear models, else None.  Equal
    NB class scores give label 0; a linear score of exactly 0.0 gives
    label 1."""
    if vector.dim != model.dim:
        raise ValueError(f"dimension mismatch: vector {vector.dim}, model {model.dim}")
    if isinstance(model, MultinomialNBModel):
        scores = _nb_scores(model, vector)
        best = 0
        for c in range(1, len(scores)):
            if scores[c] > scores[best]:
                best = c
        score = scores[1] - scores[0] if model.class_labels == (0, 1) else None
        return model.class_labels[best], score
    if isinstance(model, LinearModel):
        score = dot(vector, model.weights) + model.bias
        return (1 if score >= 0.0 else 0), score
    node = model.nodes[0]
    while not node.is_leaf:
        value = get(vector, node.feature)
        node = model.nodes[node.left if value <= node.threshold else node.right]
    return node.label, None


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
    return from_pairs(base.dim, values.items())


def exhaustive_knn(points: list[SparseVector], query: int, k: int) -> list[int]:
    """Reference scan: the exact merge distance to every point, ranked by
    (distance, index), self excluded."""
    ranked = sorted(
        (euclidean_distance(points[query], points[i]), i)
        for i in range(len(points))
        if i != query
    )
    return [i for _, i in ranked[: min(k, len(points) - 1)]]


@dataclass(frozen=True)
class SyntheticSample:
    """A synthetic vector plus the (base, neighbor, gap) that produced it."""

    vector: SparseVector
    base_index: int
    neighbor_index: int
    gap: float


def smote_trace(
    minority: list[SparseVector], majority_count: int, config: SmoteConfig
) -> list[SyntheticSample]:
    """Generate majority_count - len(minority) synthetic samples with
    provenance, one at a time."""
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
    neighbors: dict[int, list[int]] = {}
    samples: list[SyntheticSample] = []
    for j in range(n_new):
        i = j % t
        if i not in neighbors:
            neighbors[i] = exhaustive_knn(minority, i, k_eff)
        nn_list = neighbors[i]
        nn = nn_list[neighbor_rng.next_below(len(nn_list))]
        gap = gap_rng.next_float()
        samples.append(SyntheticSample(interpolate(minority[i], minority[nn], gap), i, nn, gap))
    return samples
