"""Four supervised classifiers over TF-IDF feature matrices.

All four are trained from scratch on the matrix's CSR view, without
dense copies: multinomial naive Bayes with Laplace smoothing (fractional
feature mass is allowed), full-batch gradient-descent logistic
regression, a primal linear SVM with the Pegasos step schedule, and a
greedy Gini CART tree.  Matrix-vector products are ``np.bincount`` sums
in a fixed order.  Training is deterministic: same matrix and config,
same model.

`predict_scored` labels and scores one vector; `predict_batch` does a
whole matrix from its CSR view at once, bit for bit the same labels and
scores.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .vectorize import CsrView, FeatureMatrix, SparseVector

ALGORITHMS = ("nb", "logistic", "svm", "tree")

ALGORITHM_TITLES = {
    "nb": "Multinomial NB",
    "logistic": "Logistic Regression",
    "svm": "Linear SVM",
    "tree": "Decision Tree",
}


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str
    seed: int = 0
    lr_learning_rate: float = 0.1
    lr_epochs: int = 300
    l2: float = 1e-4
    svm_C: float = 1.0
    svm_epochs: int = 300
    nb_alpha: float = 1.0
    tree_max_depth: int = 10
    tree_min_samples_split: int = 2
    tree_max_features: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r} (expected one of {ALGORITHMS})"
            )
        for name in ("lr_learning_rate", "l2", "svm_C", "nb_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        positives = {
            "lr_learning_rate": self.lr_learning_rate,
            "lr_epochs": self.lr_epochs,
            "svm_C": self.svm_C,
            "svm_epochs": self.svm_epochs,
            "nb_alpha": self.nb_alpha,
            "tree_max_depth": self.tree_max_depth,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")
        if self.tree_min_samples_split < 2:
            raise ValueError(
                f"tree_min_samples_split must be >= 2, got {self.tree_min_samples_split}"
            )
        if self.tree_max_features is not None and self.tree_max_features < 1:
            raise ValueError("tree_max_features must be >= 1 when set")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MultinomialNBModel:
    dim: int
    class_labels: tuple[int, ...]
    class_log_prior: tuple[float, ...]
    feature_log_prob: tuple[tuple[float, ...], ...]

    @cached_property
    def _log_prob_table(self) -> np.ndarray:
        return np.array(self.feature_log_prob, dtype=np.float64)


@dataclass(frozen=True)
class LinearModel:
    """Weights and bias of a logistic or linear SVM fit; ``algorithm`` says which."""

    algorithm: str
    dim: int
    weights: tuple[float, ...]
    bias: float

    @cached_property
    def _weight_array(self) -> np.ndarray:
        return np.array(self.weights, dtype=np.float64)


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (label set)."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class DecisionTreeModel:
    dim: int
    nodes: tuple[TreeNode, ...]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """Per node: feature, threshold, left, right, and label (-1 inside)."""
        nodes = self.nodes
        return (
            np.array([n.feature for n in nodes], dtype=np.int64),
            np.array([n.threshold for n in nodes], dtype=np.float64),
            np.array([n.left for n in nodes], dtype=np.int64),
            np.array([n.right for n in nodes], dtype=np.int64),
            np.array([-1 if n.label is None else n.label for n in nodes], dtype=np.int64),
        )


TrainedClassifier = MultinomialNBModel | LinearModel | DecisionTreeModel


def _require_non_empty(matrix: FeatureMatrix) -> None:
    if len(matrix) == 0:
        raise ValueError("cannot train on an empty matrix")
    if matrix.dim == 0:
        raise ValueError("cannot train on a dimension-0 matrix")


def _require_both_classes(matrix: FeatureMatrix, algorithm: str) -> None:
    if len(set(matrix.labels)) < 2:
        raise ValueError(f"{algorithm} requires both classes in the training data")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_grad(
    weights: np.ndarray, bias: float, X, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean L2-regularized log loss and its analytic gradient.

    loss = mean(log(1 + e^z) - y*z) + l2/2 * ||w||^2, z = Xw + b.
    The bias is not regularized.  X is a dense array or a `CsrView`.
    """
    z = X @ weights + bias
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(weights @ weights)
    p = _sigmoid(z)
    grad_w = X.T @ (p - y) / len(y) + l2 * weights
    grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


def _fit_logistic(matrix: FeatureMatrix, config: TrainConfig) -> LinearModel:
    X = matrix.csr
    y = matrix.labels_array().astype(np.float64)
    w = np.zeros(matrix.dim)
    b = 0.0
    for _ in range(config.lr_epochs):
        _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, config.l2)
        w -= config.lr_learning_rate * grad_w
        b -= config.lr_learning_rate * grad_b
    return LinearModel("logistic", matrix.dim, tuple(float(v) for v in w), float(b))


def svm_objective(weights: np.ndarray, margins: np.ndarray, lam: float) -> float:
    """Primal objective: lam/2 * ||w||^2 + mean hinge loss of the margins."""
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * float(weights @ weights) + float(np.mean(hinge))


def _fit_svm(
    matrix: FeatureMatrix, config: TrainConfig
) -> tuple[LinearModel, list[float]]:
    """Full-batch Pegasos on an augmented (regularized) bias feature.

    Step t uses eta = 1/(lam*t) with lam = 1/(C*n), followed by the
    Pegasos projection onto the ball of radius 1/sqrt(lam).  The last
    entry of w is the bias, the weight of an implicit all-ones column.
    """
    n = len(matrix)
    X = matrix.csr
    y_pm = 2.0 * matrix.labels_array().astype(np.float64) - 1.0
    lam = 1.0 / (config.svm_C * n)
    w = np.zeros(matrix.dim + 1)
    radius = 1.0 / math.sqrt(lam)
    objectives: list[float] = []
    for t in range(1, config.svm_epochs + 1):
        margins = y_pm * (X @ w[:-1] + w[-1])
        objectives.append(svm_objective(w, margins, lam))
        pull = np.where(margins < 1.0, y_pm, 0.0)  # y of each margin violator
        grad = lam * w - np.append(X.T @ pull, pull.sum()) / n
        w -= (1.0 / (lam * t)) * grad
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
    model = LinearModel("svm", matrix.dim, tuple(float(v) for v in w[:-1]), float(w[-1]))
    return model, objectives


def svm_training_objectives(matrix: FeatureMatrix, config: TrainConfig) -> list[float]:
    """Per-epoch primal objective values (diagnostic; same run as train)."""
    _require_non_empty(matrix)
    _require_both_classes(matrix, "svm")
    _, objectives = _fit_svm(matrix, config)
    return objectives


def _fit_nb(matrix: FeatureMatrix, config: TrainConfig) -> MultinomialNBModel:
    labels = sorted(set(matrix.labels))
    X = matrix.csr
    if X.data.min(initial=0.0) < 0.0:
        raise ValueError(
            "nb requires non-negative feature values (multinomial counts)"
        )
    y = matrix.labels_array()
    entry_labels = y[X.row_ids]
    alpha = config.nb_alpha
    priors = []
    log_probs = []
    for label in labels:
        count = int((y == label).sum())
        priors.append(math.log(count / len(matrix)))
        mine = entry_labels == label
        mass = np.bincount(X.indices[mine], X.data[mine], minlength=matrix.dim)
        denom = float(mass.sum()) + alpha * matrix.dim
        log_probs.append(tuple(float(math.log((m + alpha) / denom)) for m in mass))
    return MultinomialNBModel(
        dim=matrix.dim,
        class_labels=tuple(labels),
        class_log_prior=tuple(priors),
        feature_log_prob=tuple(log_probs),
    )


def _gini_from_counts(n0, n1):
    """Gini impurity of class counts; scalars or arrays, never both zero."""
    total = n0 + n1
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - p0 * p0 - p1 * p1


_VARIANCE_BLOCK = 256  # columns densified at a time by _candidate_features


def _candidate_features(X: CsrView, max_features: int | None) -> np.ndarray:
    n, d = X.shape
    if max_features is None or max_features >= d:
        return np.arange(d)
    # Deterministic cap: keep the highest-variance columns, ties by index.
    # np.var runs on dense blocks of one fixed width (the last block
    # overlaps its neighbour): numpy sums a one-column block in a different
    # order, and these variances must equal those of the full dense matrix.
    width = min(_VARIANCE_BLOCK, d)
    variances = np.empty(d)
    for start in range(0, d, width):
        start = min(start, d - width)
        inside = (X.indices >= start) & (X.indices < start + width)
        block = np.zeros((n, width))
        block[X.row_ids[inside], X.indices[inside] - start] = X.data[inside]
        variances[start : start + width] = block.var(axis=0)
    order = np.lexsort((np.arange(d), -variances))
    return np.sort(order[:max_features])


def _best_split(
    columns: np.ndarray, values: np.ndarray, entry_y: np.ndarray, y: np.ndarray, dim: int
):
    """Best (feature, threshold) split of a node, from its stored entries.

    ``columns``/``values``/``entry_y`` hold the node's non-zero entries
    (column, value, label of the entry's row); ``y`` holds the labels of all
    the node's rows.  Thresholds are midpoints of sorted unique column
    values, zeros included.  Zero-gain splits are allowed so impure nodes
    of distinguishable points always split (ties: smaller feature, then
    smaller threshold).  Returns None when no column has two values.
    """
    n = len(y)
    parent_n1 = int(y.sum())
    parent_gini = _gini_from_counts(n - parent_n1, parent_n1)
    # One aggregated zero entry per column with both zeros and non-zeros.
    col_nnz = np.bincount(columns, minlength=dim)
    col_ones = np.bincount(columns[entry_y == 1], minlength=dim)
    zero_cols = np.flatnonzero((col_nnz > 0) & (col_nnz < n))
    columns = np.concatenate((columns, zero_cols))
    values = np.concatenate((values, np.zeros(len(zero_cols))))
    counts = np.concatenate((np.ones(len(entry_y), dtype=np.int64), n - col_nnz[zero_cols]))
    ones = np.concatenate((entry_y, parent_n1 - col_ones[zero_cols]))
    order = np.lexsort((values, columns))
    columns, values = columns[order], values[order]
    # Split between consecutive distinct values of one column only.
    boundaries = np.flatnonzero((columns[1:] == columns[:-1]) & (values[1:] > values[:-1]))
    if len(boundaries) == 0:
        return None
    # Every column here covers all n rows and all parent_n1 ones, so the
    # counts left of a boundary are global prefix sums minus whole columns.
    group = np.cumsum(np.concatenate(([True], columns[1:] != columns[:-1]))) - 1
    left_n = (np.cumsum(counts[order]) - group * n)[boundaries]
    left_n1 = (np.cumsum(ones[order]) - group * parent_n1)[boundaries]
    right_n = n - left_n
    right_n1 = parent_n1 - left_n1
    weighted = (
        left_n * _gini_from_counts(left_n - left_n1, left_n1)
        + right_n * _gini_from_counts(right_n - right_n1, right_n1)
    ) / n
    gains = parent_gini - weighted
    best = int(np.argmax(gains))  # first maximum: smallest feature, then threshold
    b = boundaries[best]
    threshold = (float(values[b]) + float(values[b + 1])) / 2.0
    return int(columns[b]), threshold


def _majority_label(y: np.ndarray) -> int:
    n1 = int(y.sum())
    n0 = len(y) - n1
    if n1 > n0:
        return 1
    return 0  # ties resolve to the non-spam label


def _fit_tree(matrix: FeatureMatrix, config: TrainConfig) -> DecisionTreeModel:
    X = matrix.csr
    y = matrix.labels_array()
    features = _candidate_features(X, config.tree_max_features)
    nodes: list[TreeNode] = []
    # Nodes are numbered in pre-order: a node, its left subtree, then its
    # right subtree.  Each pending subtree holds its rows, their stored
    # entries in candidate columns (as positions into ``X``), its depth,
    # and the parent field that must point at it.
    pending = [(np.arange(len(matrix)), np.flatnonzero(np.isin(X.indices, features)), 0, -1, "")]
    while pending:
        rows, entries, depth, parent, side = pending.pop()
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent] = replace(nodes[parent], **{side: node_id})
        sub_y = y[rows]
        found = None
        if (
            sub_y.min() != sub_y.max()
            and depth < config.tree_max_depth
            and len(rows) >= config.tree_min_samples_split
        ):
            columns = X.indices[entries]
            found = _best_split(columns, X.data[entries], y[X.row_ids[entries]], sub_y, matrix.dim)
        if found is None:  # pure, too deep, too small, or all candidate columns constant
            nodes.append(TreeNode(label=_majority_label(sub_y)))
            continue
        feature, threshold = found
        nodes.append(TreeNode(feature=feature, threshold=threshold))
        on_feature = entries[columns == feature]
        goes_left = np.full(len(matrix), 0.0 <= threshold)  # rows without an entry hold 0.0
        goes_left[X.row_ids[on_feature]] = X.data[on_feature] <= threshold
        row_left = goes_left[rows]
        entry_left = goes_left[X.row_ids[entries]]
        pending.append((rows[~row_left], entries[~entry_left], depth + 1, node_id, "right"))
        pending.append((rows[row_left], entries[entry_left], depth + 1, node_id, "left"))
    return DecisionTreeModel(dim=matrix.dim, nodes=tuple(nodes))


def train(matrix: FeatureMatrix, config: TrainConfig) -> TrainedClassifier:
    """Fit the configured algorithm; deterministic given (matrix, config)."""
    _require_non_empty(matrix)
    if config.algorithm == "nb":
        return _fit_nb(matrix, config)
    _require_both_classes(matrix, config.algorithm)
    if config.algorithm == "logistic":
        return _fit_logistic(matrix, config)
    if config.algorithm == "svm":
        model, _ = _fit_svm(matrix, config)
        return model
    return _fit_tree(matrix, config)


def _nb_scores(model: MultinomialNBModel, vector: SparseVector) -> list[float]:
    return [
        vector.dot(log_prob, start=prior)
        for prior, log_prob in zip(model.class_log_prior, model.feature_log_prob)
    ]


def predict_scored(model: TrainedClassifier, vector: SparseVector) -> tuple[int, float | None]:
    """Predicted binary label and decision score, from one pass over the
    vector: the log-posterior difference (class 1 minus class 0) for NB
    with both classes, ``w . x + b`` for linear models, else None.  Ties
    everywhere resolve to label 0."""
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
        score = vector.dot(model.weights) + model.bias
        return (1 if score >= 0.0 else 0), score
    node = model.nodes[0]
    while not node.is_leaf:
        value = vector.get(node.feature)
        node = model.nodes[node.left if value <= node.threshold else node.right]
    return node.label, None


def predict(model: TrainedClassifier, vector: SparseVector) -> int:
    """Predicted binary label; ties everywhere resolve to label 0."""
    return predict_scored(model, vector)[0]


class Predictions(list):
    """Predicted labels, one per row, carrying each row's
    `predict_scored` score as ``scores`` (None for trees and single-class NB)."""

    def __init__(self, labels: list[int], scores: list):
        super().__init__(labels)
        self.scores = scores


def _batch_nb(model: MultinomialNBModel, X: CsrView) -> Predictions:
    n = X.shape[0]
    # `SparseVector.dot` starts each class score from its prior, so the
    # prior is a leading pseudo-entry of its row: bincount adds in order.
    rows = np.concatenate((np.arange(n), X.row_ids))
    scores = [
        np.bincount(
            rows, np.concatenate((np.full(n, prior), X.data * log_prob[X.indices])), minlength=n
        )
        for prior, log_prob in zip(model.class_log_prior, model._log_prob_table)
    ]
    best = np.zeros(n, dtype=np.int64)
    for c in range(1, len(scores)):
        best[scores[c] > np.choose(best, scores)] = c
    labels = np.array(model.class_labels)[best].tolist()
    if model.class_labels == (0, 1):
        return Predictions(labels, (scores[1] - scores[0]).tolist())
    return Predictions(labels, [None] * n)


def _batch_tree(model: DecisionTreeModel, X: CsrView) -> Predictions:
    """Descend all rows one level at a time; a row's value of a feature is
    found by binary search over the sorted ``row * dim + col`` keys."""
    feature, threshold, left, right, label = model._arrays
    sentinel = np.iinfo(np.int64).max  # past every key; its value reads 0.0
    keys = np.append(X.row_ids * model.dim + X.indices, sentinel)
    data = np.append(X.data, 0.0)
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.flatnonzero(label[node] < 0)
    while len(active):
        at = node[active]
        want = active * model.dim + feature[at]
        pos = np.searchsorted(keys, want)
        value = np.where(keys[pos] == want, data[pos], 0.0)
        node[active] = np.where(value <= threshold[at], left[at], right[at])
        active = active[label[node[active]] < 0]
    return Predictions(label[node].tolist(), [None] * X.shape[0])


def predict_batch(model: TrainedClassifier, matrix: FeatureMatrix) -> Predictions:
    """Labels and decision scores of every row, from the matrix's CSR view;
    bit for bit those of `predict_scored` on each row."""
    if matrix.dim != model.dim:
        raise ValueError(f"dimension mismatch: matrix {matrix.dim}, model {model.dim}")
    X = matrix.csr
    if isinstance(model, MultinomialNBModel):
        return _batch_nb(model, X)
    if isinstance(model, LinearModel):
        # bincount adds each row's products in order from 0.0, as `dot` does.
        scores = X @ model._weight_array + model.bias
        return Predictions((scores >= 0.0).astype(np.int64).tolist(), scores.tolist())
    return _batch_tree(model, X)
