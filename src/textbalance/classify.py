"""Four supervised classifiers over TF-IDF feature matrices.

All four are trained from scratch on the matrix's CSR view, without
dense copies: multinomial naive Bayes with Laplace smoothing (fractional
feature mass is allowed), L2-regularized logistic regression, the
L2-loss (squared hinge) linear SVM, and a greedy Gini CART tree.  The two
linear fits share one loop: accelerated gradient descent (FISTA, Beck &
Teboulle 2009) with gradient restart (O'Donoghue & Candès 2015), at a
fixed step 1/L per coordinate, so no objective is ever evaluated.  It
stops once the gradient's norm in the steps' metric is at most 1e-3 of
the first epoch's (LIBLINEAR's relative-gradient stop: Lin, Weng &
Keerthi 2008), or after `_MAX_EPOCHS` (300).  L is one value for the
bias, 2c plus its ridge, and one for every weight, 2c·λ̂ plus theirs,
where c bounds the loss's second derivative and λ̂ is a Collatz–Wielandt
bound on λ_max(XᵀX)/n from 8 power steps (`CsrView.gram_bound`).
Training is deterministic: same matrix and config, same model, bit for
bit.  Every matrix-vector product and every sum has one fixed summation
order:

- every matrix-vector product is one `CsrView.rmatvec` call:
  ``X.rmatvec(r)`` (Xᵀr) adds each column's products in row-major order
  from 0.0, and Xw is ``Xt.rmatvec(w)`` with ``Xt = X.transpose()``,
  which adds each row's products in entry order from 0.0;
- a sum over a vector (the bias gradient, the restart test's dot
  product, the stop test's norm) is one ``np.add.reduce``, not a BLAS
  dot, whose kernel, and so whose summation order, is picked per CPU.

A view keeps its Xt and its bound on λ_max(XᵀX) once built, so only
the first linear fit on a matrix transposes it and makes two `rmatvec`
calls per power step of λ̂; every fit makes two per epoch.  NB's class
masses are Xᵀ1_c, one `rmatvec` per class over the class's 0/1 row
indicator, and linear scoring is one transpose and one `rmatvec`.

The tree sorts the stored entries by (column, value) once per fit into
three arrays (column, value, row).  A node is its [e0, e1) slice of them
and two counts, its rows and its label-1 rows, as SPRINT keeps class
counts beside its attribute lists (Shafer, Agrawal & Mehta 1996).  A split
partitions the node's slices stably in place through one scratch buffer
per dtype, so each child's entries stay sorted and no node sorts again,
and it hands each child the counts it was scored by.  A column's rows
without an entry, its zero group, are counted, not stored; so are rows
without any entry, which no slice holds.  Split counts are integers, so
they do not depend on the order of equal values.  Two kinds of cut are
scored: the cut before a stored value group, where it is a boundary point
of its column (the groups on either side together hold both classes:
Fayyad & Irani 1992) or the cut above the zero group, and the cut below
each zero group.  Moving k rows of one class across a cut, from a side
with b rows to one with a, makes the weighted impurity
2·a1·(1 − a1/(a + k)) + 2·b1·(1 − b1/(b − k)), a1 and b1 the other
class's counts; that is strictly concave in k unless the node
is pure, and a pure node never splits.  So the gain is strictly convex
along a run of groups pure in one class, no cut inside the run is a first
maximum, and the split chosen, the first maximum in (feature, threshold)
order, is the one a scan of every cut finds.  That holds in exact
arithmetic; the tests check it on the floats against the every-cut scan
in `tests/oracles.py`.  The fit appends each node to five pre-order
columns, which are the model: a split's left child is the next node, and
its right child is linked when that subtree starts.  `_batch_tree`
descends the columns as arrays, and a bundle maps them to node records.

`predict_batch` labels and scores a whole matrix from its CSR view at
once, and `predict` is its one-row case.  The tests check its labels and
scores, bit for bit, against the per-vector scorer in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .vectorize import CsrView, FeatureMatrix, column_order

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
    l2: float = 1e-4
    svm_C: float = 1.0
    nb_alpha: float = 1.0
    tree_max_depth: int = 10

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r} (expected one of {ALGORITHMS})"
            )
        if type(self.tree_max_depth) is not int:
            raise ValueError(f"tree_max_depth must be an integer, got {self.tree_max_depth!r}")
        for name in ("l2", "svm_C", "nb_alpha"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                raise ValueError(
                    f"{name} must be finite, got an int of {value.bit_length()} bits"
                ) from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")
        positives = {
            "svm_C": self.svm_C,
            "nb_alpha": self.nb_alpha,
            "tree_max_depth": self.tree_max_depth,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")

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
class DecisionTreeModel:
    """A tree's nodes as five pre-order columns.  A split holds its feature,
    threshold and children, and label -1; a leaf holds its label, feature,
    left and right -1, and threshold 0.0."""

    dim: int
    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    label: tuple[int, ...]


TrainedClassifier = MultinomialNBModel | LinearModel | DecisionTreeModel


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1 + e^-z) for z >= 0 and e^z/(1 + e^z) below, from one exp that
    never overflows; NaN stays NaN."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


_TOL = 1e-3  # a linear fit stops once its scaled gradient norm falls to _TOL of the first
_MAX_EPOCHS = 300  # or after this many epochs; no measured fit has reached it


def _step_sizes(X: CsrView, curvature: float, ridge_w: float, ridge_b: float) -> np.ndarray:
    """1/L per coordinate of w̃ = (w, b), the bias last, where L bounds the
    Hessian c·X̃ᵀX̃/n + diag(ridge) (c = ``curvature`` bounds loss'') block
    by block.  A PSD matrix [[A, b], [bᵀ, d]] is at most 2·blockdiag(A, d),
    and the bias column's Gram entry d is 1, so L_w = 2c·λ̂ + ridge_w for
    every weight, with λ̂ = `CsrView.gram_bound`/n ≥ λ_max(XᵀX)/n, and
    L_b = 2c + ridge_b for the bias.  With L_w = 0 (no stored entries and
    no ridge) the weights' gradient is exactly 0: their step is 0, not 1/0."""
    L_w = 2.0 * curvature * (X.gram_bound / X.shape[0]) + ridge_w
    if not L_w < math.inf:
        raise ValueError(f"the weights' step bound L = {L_w} must be finite")
    weight_step = 1.0 / L_w if L_w > 0.0 else 0.0
    return np.append(np.full(X.shape[1], weight_step), 1.0 / (2.0 * curvature + ridge_b))


def _accelerated_descent(
    matrix: FeatureMatrix, slope, curvature: float, ridge_w: float, ridge_b: float
) -> np.ndarray:
    """Minimize mean(loss(x̃ᵀw̃)) + ½·ridge_w·‖w‖² + ½·ridge_b·b² over
    w̃ = (w, b), where x̃ is a row with a trailing 1 for the bias,
    ``slope`` maps the scores z = x̃ᵀw̃ to the rows' dloss/dz, and
    ``curvature`` bounds loss''.  FISTA from zero in the diagonal metric
    S of `_step_sizes`, momentum taken from the previous iterate, and a
    restart whenever the gradient and the step point the same way.  It
    stops after the first epoch whose gradient g_k has
    ‖g_k‖²_S = Σ s_j·g_j² ≤ _TOL²·‖g_0‖²_S (LIBLINEAR's relative-gradient
    stop in the fit's own metric), so at once when ‖g_0‖_S = 0, and
    after `_MAX_EPOCHS` epochs at most.  Returns w̃, the bias last."""
    X = matrix.csr
    Xt = X.transpose()  # Xt.rmatvec(w) is Xw
    step_sizes = _step_sizes(X, curvature, ridge_w, ridge_b)
    ridge = np.append(np.full(matrix.dim, ridge_w), ridge_b)
    n = len(matrix)
    w = np.zeros(matrix.dim + 1)
    point, t = w, 1.0
    # A diverging fit overflows to inf or NaN weights, which `train` rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(_MAX_EPOCHS):
            c = slope(Xt.rmatvec(point[:-1]) + point[-1])
            grad = np.append(X.rmatvec(c), np.add.reduce(c)) / n + ridge * point
            scaled = grad * step_sizes
            moved = point - scaled
            step = moved - w
            w = moved
            norm = np.add.reduce(grad * scaled)
            if epoch == 0:
                stop = _TOL * _TOL * norm
            if norm <= stop:
                break
            if np.add.reduce(grad * step) > 0.0:
                t = 1.0
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            point = w + ((t - 1.0) / t_next) * step
            t = t_next
    return w


def _fit_logistic(matrix: FeatureMatrix, config: TrainConfig) -> LinearModel:
    """Mean log loss plus l2/2 * ||w||^2; the bias is not regularized.
    The log loss's second derivative is at most 1/4."""
    y = matrix.labels_array().astype(np.float64)
    w = _accelerated_descent(matrix, lambda z: _sigmoid(z) - y, 0.25, config.l2, 0.0)
    return LinearModel("logistic", matrix.dim, tuple(w[:-1].tolist()), float(w[-1]))


def _fit_svm(matrix: FeatureMatrix, config: TrainConfig) -> LinearModel:
    """The L2-loss linear SVM: lam/2 * ||w̃||^2 + mean(max(0, 1 - y x̃ᵀw̃)^2)
    with y in {-1, 1} and lam = 1/(C*n); the bias is regularized.  The
    squared hinge's slope is 2(z - y) on rows with margin y·z < 1 (as
    y² = 1), and its second derivative is at most 2."""
    n = len(matrix)
    y_pm = 2.0 * matrix.labels_array().astype(np.float64) - 1.0
    lam = 1.0 / (config.svm_C * n)
    if not 0.0 < lam < math.inf:
        raise ValueError(
            f"svm_C {config.svm_C} with {n} rows gives lam = 1/(C*n) = {lam}, "
            "which must be finite and positive"
        )

    def slope(z):
        return np.where(y_pm * z < 1.0, 2.0 * (z - y_pm), 0.0)

    w = _accelerated_descent(matrix, slope, 2.0, lam, lam)
    return LinearModel("svm", matrix.dim, tuple(w[:-1].tolist()), float(w[-1]))


def _fit_nb(matrix: FeatureMatrix, config: TrainConfig) -> MultinomialNBModel:
    labels = sorted(set(matrix.labels))
    X = matrix.csr
    if not 0.0 <= X.data.min(initial=0.0) <= X.data.max(initial=0.0) < math.inf:
        raise ValueError("nb requires finite, non-negative feature values (multinomial counts)")
    y = matrix.labels_array()
    alpha = config.nb_alpha
    priors = []
    log_probs = []
    for label in labels:
        count = int((y == label).sum())
        priors.append(math.log(count / len(matrix)))
        # Xᵀ1_c: another class's entry x adds 0.0·x, +0.0 or -0.0, to a
        # sum that starts from 0.0, which changes no bit of it.
        mass = X.rmatvec((y == label).astype(np.float64))
        denom = float(mass.sum()) + alpha * matrix.dim
        if not (math.isfinite(denom) and ((mass + alpha) / denom).all()):
            raise ValueError(
                f"nb_alpha {alpha!r}: a smoothed probability is zero "
                f"or the denominator {denom!r} is not finite"
            )
        log_probs.append(tuple(map(math.log, ((mass + alpha) / denom).tolist())))
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


def _best_split(col: np.ndarray, val: np.ndarray, lab: np.ndarray, n: int, n1: int):
    """Best (feature, threshold) split of a node, from its stored entries.

    ``col``/``val``/``lab`` hold the node's stored entries (column, value,
    label of the entry's row), sorted by (column, value); the node has
    ``n`` rows, ``n1`` of them labelled 1.  A column's rows without an
    entry form its zero group (stored values are never zero), which sorts
    between its negative and its positive values.  Thresholds are midpoints
    of consecutive distinct values of a column, the zero group's included.
    Zero-gain splits are allowed so impure nodes of distinguishable points
    always split (ties: smaller feature, then smaller threshold).  Only the
    two kinds of cut of the module docstring are scored.
    Returns (feature, threshold, left_n, left_n1), the last two the rows
    and label-1 rows at or below the threshold, or None when no column
    has two values.
    """
    m = len(col)
    # Entry i starts a column (a value group) where col_head (group_head)
    # holds; both also hold at m, past the last entry.
    col_head = np.ones(m + 1, dtype=bool)
    np.not_equal(col[1:], col[:-1], out=col_head[1:m])
    group_head = col_head.copy()
    group_head[1:m] |= val[1:] > val[:-1]
    col_edges = np.flatnonzero(col_head)
    edges = np.flatnonzero(group_head)
    col_groups = np.flatnonzero(col_head[edges])  # each column's first group, then G
    ones_to = np.empty(m + 1, dtype=np.int64)
    ones_to[0] = 0
    np.cumsum(lab, out=ones_to[1:])
    ones_before = ones_to[edges]  # label-1 entries before each group
    # Large temporaries are dropped early: fewer alive at once keep malloc
    # from trimming the heap and faulting it back in at every node.
    del ones_to
    zeros_before = edges - ones_before
    # The cut before group j is scored where cut[j] holds.  Boundary points:
    # in its column, where groups j - 1 and j together hold both classes.
    cut = np.zeros(len(edges) - 1, dtype=bool)
    cut[1:] = (ones_before[2:] > ones_before[:-2]) & (zeros_before[2:] > zeros_before[:-2])
    del zeros_before
    cut[1:] &= ~col_head[edges[1:-1]]
    # Each partly-zero column's zero group: its rows, its label-1 rows, and
    # the entry (and group) after its negative values.
    starts = col_edges[:-1]
    zeros = n - np.diff(col_edges)
    zero_ones = n1 - np.diff(ones_before[col_groups])
    z = np.flatnonzero(zeros)
    negatives = np.add.reduceat(val < 0.0, starts)[z]
    nonneg = starts[z] + negatives
    anchor = np.searchsorted(edges, nonneg)
    # The cut above a zero group: before its column's first positive group.
    above = anchor[nonneg < col_edges[z + 1]]
    cut[above] = True
    with_neg = negatives > 0
    j = np.flatnonzero(cut)  # the group after each cut
    at = edges[j]
    c = np.searchsorted(col_edges, at, side="right") - 1
    past_zero = val[at] > 0.0  # the column's zero group is left of the cut
    # Candidates: the cuts before stored groups, then the cut below each
    # zero group.
    left_n = np.concatenate((at - starts[c] + zeros[c] * past_zero, negatives[with_neg]))
    if len(left_n) == 0:
        return None
    left_n1 = np.concatenate((
        ones_before[j] - ones_before[col_groups[c]] + zero_ones[c] * past_zero,
        ones_before[anchor[with_neg]] - ones_before[col_groups[z[with_neg]]],
    ))
    right_n = n - left_n
    right_n1 = n1 - left_n1
    weighted = (
        left_n * _gini_from_counts(left_n - left_n1, left_n1)
        + right_n * _gini_from_counts(right_n - right_n1, right_n1)
    ) / n
    gains = _gini_from_counts(n - n1, n1) - weighted
    # The first maximum in (column, value) order: the cut before group j
    # ranks 2j, and the cut below a zero group before group a ranks 2a - 1.
    rank = np.concatenate((2 * j, 2 * anchor[with_neg] - 1))
    tied = np.flatnonzero(gains == gains.max())
    best = int(tied[np.argmin(rank[tied])])
    counts = int(left_n[best]), int(left_n1[best])
    if best < len(at):
        i = at[best]
        lower = 0.0 if j[best] in above else float(val[i - 1])
        return int(col[i]), _threshold(lower, float(val[i])), *counts
    i = nonneg[with_neg][best - len(at)]
    return int(col[i - 1]), _threshold(float(val[i - 1]), 0.0), *counts


def _threshold(lower: float, upper: float) -> float:
    """The midpoint of two consecutive values of a column, or ``lower``
    where the midpoint rounds or overflows outside ``[lower, upper)``: the
    cut sends ``lower`` left and ``upper`` right, as the counts it was
    scored by say."""
    midpoint = (lower + upper) / 2.0
    return midpoint if lower <= midpoint < upper else lower


def _partition(left: np.ndarray, segments, scratch: dict) -> int:
    """Reorder each array of ``segments`` in place, stably, so that the
    items where ``left`` holds come first; returns their count.
    ``scratch`` maps each dtype to a buffer at least as long."""
    k = int(np.count_nonzero(left))
    right = ~left
    for segment in segments:
        buffer = scratch[segment.dtype][: len(segment)]
        buffer[:k] = segment[left]
        buffer[k:] = segment[right]
        segment[:] = buffer
    return k


def _fit_tree(matrix: FeatureMatrix, config: TrainConfig) -> DecisionTreeModel:
    X = matrix.csr
    y = matrix.labels_array()
    # The stored entries in (column, value) order: by value, then stably
    # by column.  Equal (column, value) entries may come in any order: a
    # split reads only each value group's counts.
    by_value = np.argsort(X.data)
    order = by_value[column_order(X.indices[by_value], matrix.dim)]
    col, val, row = X.indices[order], X.data[order], X.row_ids[order]
    entries = (col, val, row)
    scratch = {dtype: np.empty(len(order), dtype) for dtype in {a.dtype for a in entries}}
    goes_left = np.empty(len(matrix), dtype=bool)
    columns = feature, threshold, left, right, label = [], [], [], [], []
    # Nodes are numbered in pre-order: a node, its left subtree, then its
    # right subtree, so a split's left child is the next node.  Each pending
    # subtree holds its row and label-1 counts, its [e0, e1) slice of the
    # entry arrays, its depth, and the split whose right child it is (-1
    # for a root or a left child).
    pending = [(len(matrix), int(y.sum()), 0, len(order), 0, -1)]
    while pending:
        n, n1, e0, e1, depth, parent = pending.pop()
        node_id = len(label)
        if parent >= 0:
            right[parent] = node_id
        found = None
        if 0 < n1 < n and depth < config.tree_max_depth:
            found = _best_split(col[e0:e1], val[e0:e1], y[row[e0:e1]], n, n1)
        leaf = found is None  # pure, too deep, or every column constant
        # A leaf's ties resolve to the non-spam label.
        if leaf:
            node = (-1, 0.0, -1, -1, 1 if n1 > n - n1 else 0)
        else:
            node = (*found[:2], node_id + 1, -1, -1)
        for column, value in zip(columns, node):
            column.append(value)
        if leaf:
            continue
        on, cut, left_n, left_n1 = found
        # Rows without an entry in column ``on`` hold 0.0.  Rows without
        # any entry are in no slice: only the counts carry them.
        node_rows = row[e0:e1]
        goes_left[node_rows] = 0.0 <= cut
        f0, f1 = e0 + np.searchsorted(col[e0:e1], (on, on + 1))
        goes_left[row[f0:f1]] = val[f0:f1] <= cut
        e = e0 + _partition(goes_left[node_rows], [a[e0:e1] for a in entries], scratch)
        pending.append((n - left_n, n1 - left_n1, e, e1, depth + 1, node_id))
        pending.append((left_n, left_n1, e0, e, depth + 1, -1))
    return DecisionTreeModel(matrix.dim, *map(tuple, columns))


def train(matrix: FeatureMatrix, config: TrainConfig) -> TrainedClassifier:
    """Fit the configured algorithm and return its model; deterministic
    given (matrix, config).  Every algorithm but NB needs both classes, and
    a linear fit whose weights or bias are not finite is rejected."""
    if len(matrix) == 0:
        raise ValueError("cannot train on an empty matrix")
    if matrix.dim == 0:
        raise ValueError("cannot train on a dimension-0 matrix")
    if config.algorithm != "nb" and len(set(matrix.labels)) < 2:
        raise ValueError(f"{config.algorithm} requires both classes in the training data")
    fit = {"nb": _fit_nb, "logistic": _fit_logistic, "svm": _fit_svm, "tree": _fit_tree}
    model = fit[config.algorithm](matrix, config)
    if isinstance(model, LinearModel) and not (
        np.isfinite(model._weight_array).all() and math.isfinite(model.bias)
    ):
        raise ValueError(f"{config.algorithm} fit diverged: a weight or the bias is not finite")
    return model


class Predictions(list):
    """Predicted labels, one per row, carrying each row's decision score as
    ``scores``: the log-posterior difference (class 1 minus class 0) for
    NB with both classes, ``w . x + b`` for linear models, else None."""

    def __init__(self, labels: list[int], scores: list):
        super().__init__(labels)
        self.scores = scores


def _batch_nb(model: MultinomialNBModel, X: CsrView) -> Predictions:
    n = X.shape[0]
    if len(model.class_labels) == 1:  # else the labels are (0, 1)
        return Predictions([model.class_labels[0]] * n, [None] * n)
    # A class score starts from its prior and adds the row's products left
    # to right, so the prior is a leading pseudo-entry of its row:
    # bincount adds in order.
    rows = np.concatenate((np.arange(n), X.row_ids))
    s0, s1 = [
        np.bincount(
            rows, np.concatenate((np.full(n, prior), X.data * log_prob[X.indices])), minlength=n
        )
        for prior, log_prob in zip(model.class_log_prior, model._log_prob_table)
    ]
    return Predictions((s1 > s0).astype(np.int64).tolist(), (s1 - s0).tolist())


def _batch_tree(model: DecisionTreeModel, X: CsrView) -> Predictions:
    """Descend all rows one level at a time; a row's value of a feature is
    found by binary search over the sorted ``row * dim + col`` keys."""
    feature, threshold, left, right, label = map(
        np.array, (model.feature, model.threshold, model.left, model.right, model.label)
    )
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
    """Labels and decision scores of every row, from the matrix's CSR view.

    Equal NB class scores give the first class label; a linear score of
    exactly 0.0 gives label 1.  Each score adds its row's products in
    entry order, so it is bit for bit the score of the per-vector scorer
    in `tests/oracles.py`."""
    if matrix.dim != model.dim:
        raise ValueError(f"dimension mismatch: matrix {matrix.dim}, model {model.dim}")
    X = matrix.csr
    if isinstance(model, MultinomialNBModel):
        return _batch_nb(model, X)
    if isinstance(model, LinearModel):
        # Each row's products added in entry order from 0.0 (`CsrView.rmatvec`).
        scores = X.transpose().rmatvec(model._weight_array) + model.bias
        return Predictions((scores >= 0.0).astype(np.int64).tolist(), scores.tolist())
    return _batch_tree(model, X)


def predict(model: TrainedClassifier, row: CsrView) -> int:
    """Predicted binary label of a one-row view: `predict_batch` on it."""
    return predict_batch(model, FeatureMatrix(row, (0,)))[0]
