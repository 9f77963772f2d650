"""The four from-scratch classifiers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import dense_to_matrix, rand_matrix
from textbalance.classify import (
    ALGORITHMS,
    DecisionTreeModel,
    LinearSvmModel,
    LogisticModel,
    MultinomialNBModel,
    TrainConfig,
    TreeNode,
    logistic_loss_and_grad,
    predict,
    predict_batch,
    predict_scored,
    svm_training_objectives,
    train,
)
from textbalance.vectorize import FeatureMatrix, SparseVector


def separable_matrix() -> FeatureMatrix:
    """Class 0 lives near (1, 0), class 1 near (0, 1); trivially separable.

    Clipped at zero so the same fixture is valid multinomial-NB input."""
    rng = np.random.default_rng(20)
    X = np.vstack(
        [
            np.column_stack([1 + rng.normal(0, 0.05, 20), rng.normal(0, 0.05, 20)]),
            np.column_stack([rng.normal(0, 0.05, 20), 1 + rng.normal(0, 0.05, 20)]),
        ]
    )
    y = [0] * 20 + [1] * 20
    return dense_to_matrix(np.clip(X, 0.0, None), y)


def xor_matrix() -> FeatureMatrix:
    X = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    return dense_to_matrix(X, [0, 0, 1, 1])


class TestTrainConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            TrainConfig(algorithm="forest")

    def test_positive_hyperparameters(self):
        with pytest.raises(ValueError):
            TrainConfig(algorithm="logistic", lr_learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="svm", svm_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="nb", nb_alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="logistic", l2=-0.01)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="tree", tree_min_samples_split=1)

    def test_to_dict_round_trips_values(self):
        config = TrainConfig(algorithm="svm", svm_C=2.5, seed=4)
        data = config.to_dict()
        assert data["algorithm"] == "svm"
        assert data["svm_C"] == 2.5
        assert data["seed"] == 4


class TestNaiveBayes:
    def test_hand_computed_probabilities(self):
        # One doc per class, fractional feature mass, alpha = 1:
        #   class 0 mass [0.46, 0]  -> denom 0.46 + 2 = 2.46
        #   class 1 mass [0, 0.8]   -> denom 0.8  + 2 = 2.8
        matrix = dense_to_matrix([[0.46, 0.0], [0.0, 0.8]], [0, 1])
        model = train(matrix, TrainConfig(algorithm="nb"))
        assert isinstance(model, MultinomialNBModel)
        assert model.class_labels == (0, 1)
        np.testing.assert_allclose(model.class_log_prior, [math.log(0.5)] * 2, atol=1e-15)
        np.testing.assert_allclose(
            model.feature_log_prob[0],
            [math.log(1.46 / 2.46), math.log(1.0 / 2.46)],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            model.feature_log_prob[1],
            [math.log(1.0 / 2.8), math.log(1.8 / 2.8)],
            atol=1e-12,
        )

    def test_prior_reflects_class_frequency(self):
        matrix = dense_to_matrix([[1.0], [1.0], [2.0]], [0, 0, 1])
        model = train(matrix, TrainConfig(algorithm="nb"))
        np.testing.assert_allclose(
            model.class_log_prior, [math.log(2 / 3), math.log(1 / 3)], atol=1e-15
        )

    def test_predicts_matching_class(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="nb"))
        assert predict_batch(model, matrix) == list(matrix.labels)

    def test_score_tie_predicts_smaller_label(self):
        # Identical rows in both classes: posteriors are exactly equal.
        matrix = dense_to_matrix([[1.0], [1.0]], [0, 1])
        model = train(matrix, TrainConfig(algorithm="nb"))
        assert predict(model, matrix.rows[0]) == 0

    def test_single_class_training_allowed(self):
        matrix = dense_to_matrix([[1.0], [2.0]], [1, 1])
        model = train(matrix, TrainConfig(algorithm="nb"))
        assert predict(model, matrix.rows[0]) == 1
        assert model.decision_score(matrix.rows[0]) is None

    def test_negative_feature_values_rejected(self):
        matrix = dense_to_matrix([[1.0], [-0.5]], [0, 1])
        with pytest.raises(ValueError, match="non-negative"):
            train(matrix, TrainConfig(algorithm="nb"))


class TestLogistic:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            dim = int(rng.integers(1, 11))
            X = rng.normal(size=(n, dim))
            y = rng.integers(0, 2, size=n).astype(np.float64)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            w = rng.normal(size=dim)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.1))
            loss, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, l2)
            h = 1e-6
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                plus, _, _ = logistic_loss_and_grad(w + e, b, X, y, l2)
                minus, _, _ = logistic_loss_and_grad(w - e, b, X, y, l2)
                fd = (plus - minus) / (2 * h)
                assert abs(grad_w[j] - fd) <= 1e-4 * max(1.0, abs(fd))
            plus, _, _ = logistic_loss_and_grad(w, b + h, X, y, l2)
            minus, _, _ = logistic_loss_and_grad(w, b - h, X, y, l2)
            fd_b = (plus - minus) / (2 * h)
            assert abs(grad_b - fd_b) <= 1e-4 * max(1.0, abs(fd_b))

    def test_bias_is_not_regularized(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        w = np.zeros(1)
        _, _, grad_b_small = logistic_loss_and_grad(w, 5.0, X, y, l2=0.0)
        _, _, grad_b_large = logistic_loss_and_grad(w, 5.0, X, y, l2=10.0)
        assert grad_b_small == grad_b_large

    def test_training_reduces_loss(self):
        matrix = separable_matrix()
        X = matrix.to_dense()
        y = matrix.labels_array().astype(np.float64)
        config = TrainConfig(algorithm="logistic")
        model = train(matrix, config)
        initial, _, _ = logistic_loss_and_grad(np.zeros(matrix.dim), 0.0, X, y, config.l2)
        final, _, _ = logistic_loss_and_grad(
            np.asarray(model.weights), model.bias, X, y, config.l2
        )
        assert final < initial

    def test_learns_separable_data(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="logistic"))
        assert isinstance(model, LogisticModel)
        correct = sum(
            predict(model, row) == label for row, label in zip(matrix.rows, matrix.labels)
        )
        assert correct / len(matrix) >= 0.95

    def test_prediction_follows_score_sign(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="logistic"))
        for row in matrix.rows:
            assert predict(model, row) == (1 if model.decision_score(row) >= 0 else 0)


class TestSvm:
    def test_objective_decreases(self):
        matrix = separable_matrix()
        objectives = svm_training_objectives(matrix, TrainConfig(algorithm="svm"))
        assert len(objectives) == 300
        # Pegasos objectives are noisy epoch to epoch; compare averaged windows.
        assert np.mean(objectives[-10:]) <= np.mean(objectives[:10])
        assert objectives[-1] < objectives[0]

    def test_weight_stays_inside_pegasos_ball(self):
        matrix = separable_matrix()
        config = TrainConfig(algorithm="svm", svm_C=10.0)
        model = train(matrix, config)
        lam = 1.0 / (config.svm_C * len(matrix))
        norm = math.sqrt(sum(w * w for w in model.weights) + model.bias**2)
        assert norm <= 1.0 / math.sqrt(lam) + 1e-9

    def test_learns_separable_data(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="svm"))
        assert isinstance(model, LinearSvmModel)
        correct = sum(
            predict(model, row) == label for row, label in zip(matrix.rows, matrix.labels)
        )
        assert correct / len(matrix) >= 0.95

    def test_prediction_follows_score_sign(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="svm"))
        for row in matrix.rows:
            assert predict(model, row) == (1 if model.decision_score(row) >= 0 else 0)


class TestDecisionTree:
    def test_fits_xor_exactly(self):
        matrix = xor_matrix()
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert isinstance(model, DecisionTreeModel)
        assert predict_batch(model, matrix) == [0, 0, 1, 1]

    def test_thresholds_are_midpoints(self):
        matrix = dense_to_matrix([[0.0], [1.0]], [0, 1])
        model = train(matrix, TrainConfig(algorithm="tree"))
        root = model.nodes[0]
        assert not root.is_leaf
        assert root.threshold == 0.5

    def test_max_depth_limits_tree(self):
        matrix = xor_matrix()
        model = train(matrix, TrainConfig(algorithm="tree", tree_max_depth=1))
        # Depth 1 allows a single split: at most three nodes.
        assert len(model.nodes) <= 3

    def test_min_samples_split_forces_leaf(self):
        matrix = xor_matrix()
        model = train(matrix, TrainConfig(algorithm="tree", tree_min_samples_split=5))
        assert len(model.nodes) == 1
        assert model.nodes[0].is_leaf

    def test_leaf_tie_prefers_label_zero(self):
        matrix = dense_to_matrix([[1.0], [1.0]], [0, 1])  # indistinguishable points
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert model.nodes[0].is_leaf
        assert model.nodes[0].label == 0

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(22)
        matrix = rand_matrix(rng, n0=15, n1=15, dim=6)
        a = train(matrix, TrainConfig(algorithm="tree"))
        b = train(matrix, TrainConfig(algorithm="tree"))
        assert a == b

    def test_max_features_caps_candidates(self):
        # Column 1 separates the classes; column 0 is label-free noise with
        # the larger variance, so the cap must keep column 0 alone.
        X = [[0.0, 0.1], [4.0, 0.1], [0.0, 0.2], [4.0, 0.2], [2.0, 0.1], [2.0, 0.2]]
        matrix = dense_to_matrix(X, [0, 0, 1, 1, 0, 1])
        assert np.argmax(matrix.to_dense().var(axis=0)) == 0
        uncapped = train(matrix, TrainConfig(algorithm="tree"))
        assert {node.feature for node in uncapped.nodes if not node.is_leaf} == {1}
        model = train(matrix, TrainConfig(algorithm="tree", tree_max_features=1))
        assert {node.feature for node in model.nodes if not node.is_leaf} == {0}

    def test_max_features_variance_ties_keep_lower_index(self):
        # Columns 0 and 2 have equal variance (mirror images); column 1 is
        # constant.  Both separate the classes, so whichever is kept is used.
        X = [[0.0, 1.0, 3.0], [3.0, 1.0, 0.0], [0.0, 1.0, 3.0], [3.0, 1.0, 0.0]]
        matrix = dense_to_matrix(X, [0, 1, 0, 1])
        variances = matrix.to_dense().var(axis=0)
        assert variances[0] == variances[2] > variances[1]
        model = train(matrix, TrainConfig(algorithm="tree", tree_max_features=1))
        assert {node.feature for node in model.nodes if not node.is_leaf} == {0}

    def test_generalizes_on_separable_data(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert predict_batch(model, matrix) == list(matrix.labels)

    def test_memorizes_distinct_points(self):
        """With depth to spare, the tree fits any conflict-free training set exactly.

        Continuous random features make duplicate rows (the only obstruction)
        a measure-zero event.
        """
        rng = np.random.default_rng(61)
        config = TrainConfig(algorithm="tree", tree_max_depth=100)
        for _ in range(25):
            n0 = int(rng.integers(2, 16))
            n1 = int(rng.integers(2, 16))
            matrix = rand_matrix(rng, n0=n0, n1=n1, dim=int(rng.integers(2, 6)), density=1.0)
            model = train(matrix, config)
            assert predict_batch(model, matrix) == list(matrix.labels)


class TestTrainValidation:
    def test_empty_matrix_rejected(self):
        empty = FeatureMatrix(rows=(), labels=(), dim=3)
        for algo in ALGORITHMS:
            with pytest.raises(ValueError):
                train(empty, TrainConfig(algorithm=algo))

    def test_zero_dim_rejected(self):
        matrix = FeatureMatrix(rows=(SparseVector(dim=0, entries=()),), labels=(0,), dim=0)
        with pytest.raises(ValueError):
            train(matrix, TrainConfig(algorithm="nb"))

    def test_single_class_rejected_except_nb(self):
        matrix = dense_to_matrix([[1.0], [2.0]], [1, 1])
        for algo in ("logistic", "svm", "tree"):
            with pytest.raises(ValueError, match="both classes"):
                train(matrix, TrainConfig(algorithm=algo))

    def test_predict_dimension_mismatch(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="logistic"))
        with pytest.raises(ValueError):
            predict(model, SparseVector.from_pairs(99, [(0, 1.0)]))

    def test_predict_batch_matches_per_row_predict(self):
        matrix = separable_matrix()
        for algo in ALGORITHMS:
            model = train(matrix, TrainConfig(algorithm=algo))
            assert predict_batch(model, matrix) == [
                predict(model, row) for row in matrix.rows
            ]

    def test_predict_scored_pairs_label_with_decision_score(self):
        tie = dense_to_matrix([[1.0], [1.0]], [0, 1])  # NB scores tie exactly
        single = dense_to_matrix([[1.0], [2.0]], [1, 1])  # NB with one class
        cases = [(separable_matrix(), algo) for algo in ALGORITHMS]
        cases += [(tie, "nb"), (single, "nb")]
        for matrix, algo in cases:
            model = train(matrix, TrainConfig(algorithm=algo))
            for row in matrix.rows:
                assert predict_scored(model, row) == (
                    predict(model, row),
                    model.decision_score(row),
                ), algo
        nb_tie = train(tie, TrainConfig(algorithm="nb"))
        assert predict_scored(nb_tie, tie.rows[0]) == (0, 0.0)


# -- dense reference implementations ---------------------------------------
#
# The fits run on the matrix's CSR view.  These are the straightforward
# dense-array versions of the same four fits; the oracle tests below check
# that both give the same models.


def dense_nb(matrix: FeatureMatrix, alpha: float):
    X = matrix.to_dense()
    y = matrix.labels_array()
    priors, tables = [], []
    for label in sorted(set(matrix.labels)):
        mask = y == label
        priors.append(math.log(int(mask.sum()) / len(matrix)))
        mass = X[mask].sum(axis=0)
        denom = float(mass.sum()) + alpha * matrix.dim
        tables.append(tuple(float(math.log((m + alpha) / denom)) for m in mass))
    return tuple(priors), tuple(tables)


def dense_logistic(matrix: FeatureMatrix, config: TrainConfig):
    X = matrix.to_dense()
    y = matrix.labels_array().astype(np.float64)
    w = np.zeros(matrix.dim)
    b = 0.0
    for _ in range(config.lr_epochs):
        _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, config.l2)
        w -= config.lr_learning_rate * grad_w
        b -= config.lr_learning_rate * grad_b
    return w, b


def dense_svm(matrix: FeatureMatrix, config: TrainConfig):
    """Pegasos on an explicit all-ones bias column; (w with bias last, objectives)."""
    n = len(matrix)
    X_aug = np.hstack([matrix.to_dense(), np.ones((n, 1))])
    y_pm = 2.0 * matrix.labels_array().astype(np.float64) - 1.0
    lam = 1.0 / (config.svm_C * n)
    w = np.zeros(matrix.dim + 1)
    radius = 1.0 / math.sqrt(lam)
    objectives = []
    for t in range(1, config.svm_epochs + 1):
        margins = y_pm * (X_aug @ w)
        objectives.append(
            0.5 * lam * float(w @ w) + float(np.mean(np.maximum(0.0, 1.0 - margins)))
        )
        violators = margins < 1.0
        grad = lam * w - (X_aug[violators] * y_pm[violators, None]).sum(axis=0) / n
        w -= (1.0 / (lam * t)) * grad
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
    return w, objectives


def _dense_gini(n0: float, n1: float) -> float:
    total = n0 + n1
    if total == 0:
        return 0.0
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - p0 * p0 - p1 * p1


def _dense_best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Scan every boundary of every candidate column; the smallest
    (-gain, feature, threshold) wins."""
    n = len(y)
    parent_n1 = int(y.sum())
    parent_gini = _dense_gini(n - parent_n1, parent_n1)
    best = None
    for f in features:
        column = X[:, f]
        order = np.argsort(column, kind="stable")
        sorted_vals = column[order]
        ones_prefix = np.cumsum(y[order])
        for b in np.nonzero(sorted_vals[1:] > sorted_vals[:-1])[0]:
            left_n = b + 1
            left_n1 = int(ones_prefix[b])
            right_n = n - left_n
            right_n1 = parent_n1 - left_n1
            weighted = (
                left_n * _dense_gini(left_n - left_n1, left_n1)
                + right_n * _dense_gini(right_n - right_n1, right_n1)
            ) / n
            gain = parent_gini - weighted
            threshold = (float(sorted_vals[b]) + float(sorted_vals[b + 1])) / 2.0
            key = (-gain, int(f), threshold)
            if best is None or key < best[0]:
                best = (key, int(f), threshold)
    return None if best is None else best[1:]


def _dense_majority(y: np.ndarray) -> int:
    return 1 if int(y.sum()) > len(y) - int(y.sum()) else 0


def dense_tree(matrix: FeatureMatrix, config: TrainConfig) -> tuple[TreeNode, ...]:
    X = matrix.to_dense()
    y = matrix.labels_array()
    d = matrix.dim
    features = np.arange(d)
    if config.tree_max_features is not None and config.tree_max_features < d:
        order = np.lexsort((np.arange(d), -X.var(axis=0)))
        features = np.sort(order[: config.tree_max_features])
    nodes: list[TreeNode] = []

    def build(indices: np.ndarray, depth: int) -> int:
        node_id = len(nodes)
        nodes.append(TreeNode())
        sub_y = y[indices]
        found = None
        if (
            sub_y.min() != sub_y.max()
            and depth < config.tree_max_depth
            and len(indices) >= config.tree_min_samples_split
        ):
            found = _dense_best_split(X[indices], sub_y, features)
        if found is None:
            nodes[node_id] = TreeNode(label=_dense_majority(sub_y))
            return node_id
        feature, threshold = found
        mask = X[indices, feature] <= threshold
        left_id = build(indices[mask], depth + 1)
        right_id = build(indices[~mask], depth + 1)
        nodes[node_id] = TreeNode(
            feature=feature, threshold=threshold, left=left_id, right=right_id
        )
        return node_id

    build(np.arange(len(matrix)), 0)
    return tuple(nodes)


def oracle_matrix(rng: np.random.Generator, nonneg: bool = False) -> FeatureMatrix:
    """Small random matrix with repeated values, all-zero columns, both classes
    and, unless ``nonneg``, negative values."""
    n = int(rng.integers(2, 40))
    dim = int(rng.integers(1, 9))
    if rng.random() < 0.5:
        levels = np.array([-2.0, -0.5, 0.25, 0.5, 1.0, 3.0])  # many repeated values
        X = rng.choice(levels, size=(n, dim))
    else:
        X = rng.normal(size=(n, dim))
    X *= rng.random((n, dim)) < rng.uniform(0.1, 1.0)
    X[:, rng.random(dim) < 0.2] = 0.0  # all-zero columns
    if nonneg:
        X = np.abs(X)
    y = rng.integers(0, 2, size=n)
    y[: 2] = (0, 1)
    return dense_to_matrix(X + 0.0, y)  # + 0.0 turns -0.0 into 0.0


class TestDenseOracles:
    def test_tree_matches_dense_reference(self):
        rng = np.random.default_rng(70)
        combos = [
            (depth, split, cap)
            for depth in (1, 3, 10)
            for split in (2, 3, 6)
            for cap in (None, 1, 3)
        ]
        for trial in range(270):
            depth, split, cap = combos[trial % len(combos)]
            matrix = oracle_matrix(rng)
            config = TrainConfig(
                algorithm="tree",
                tree_max_depth=depth,
                tree_min_samples_split=split,
                tree_max_features=cap,
            )
            assert train(matrix, config).nodes == dense_tree(matrix, config), trial

    def test_tree_matches_dense_reference_on_wider_matrices(self):
        # Wider than one variance block of the max-features cap.
        rng = np.random.default_rng(71)
        for cap in (None, 1, 3, 40):
            matrix = rand_matrix(rng, n0=30, n1=25, dim=300, density=0.05)
            config = TrainConfig(algorithm="tree", tree_max_features=cap)
            assert train(matrix, config).nodes == dense_tree(matrix, config)

    def test_tree_cap_ranks_near_tied_variances_like_dense_reference(self):
        # Columns that permute one set of values have equal variance in exact
        # arithmetic; the float ranking then hinges on summation order.
        rng = np.random.default_rng(76)
        for _ in range(30):
            n = int(rng.integers(20, 200))
            base = rng.normal(size=n) * (rng.random(n) < 0.3)
            X = np.column_stack([rng.permutation(base) for _ in range(12)]) + 0.0
            matrix = dense_to_matrix(X, rng.integers(0, 2, size=n))
            config = TrainConfig(algorithm="tree", tree_max_depth=2, tree_max_features=3)
            assert train(matrix, config).nodes == dense_tree(matrix, config)

    def test_logistic_loss_and_grad_on_csr_view_matches_dense(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            matrix = oracle_matrix(rng)
            y = matrix.labels_array().astype(np.float64)
            w = rng.normal(size=matrix.dim)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.1))
            dense = logistic_loss_and_grad(w, b, matrix.to_dense(), y, l2)
            sparse = logistic_loss_and_grad(w, b, matrix.csr, y, l2)
            assert abs(sparse[0] - dense[0]) <= 1e-12
            np.testing.assert_allclose(sparse[1], dense[1], rtol=0, atol=1e-12)
            assert abs(sparse[2] - dense[2]) <= 1e-12

    def test_logistic_fit_matches_dense_reference(self):
        rng = np.random.default_rng(73)
        config = TrainConfig(algorithm="logistic", lr_epochs=100)
        for _ in range(20):
            matrix = oracle_matrix(rng)
            model = train(matrix, config)
            w, b = dense_logistic(matrix, config)
            np.testing.assert_allclose(model.weights, w, rtol=0, atol=1e-12)
            assert abs(model.bias - b) <= 1e-12

    def test_svm_weights_and_objectives_match_dense_reference(self):
        rng = np.random.default_rng(74)
        for trial in range(40):
            matrix = oracle_matrix(rng)
            config = TrainConfig(algorithm="svm", svm_C=(0.5, 1.0, 10.0)[trial % 3], svm_epochs=60)
            model = train(matrix, config)
            w, objectives = dense_svm(matrix, config)
            np.testing.assert_allclose(model.weights, w[:-1], rtol=0, atol=1e-12)
            assert abs(model.bias - w[-1]) <= 1e-12
            np.testing.assert_allclose(
                svm_training_objectives(matrix, config), objectives, rtol=0, atol=1e-12
            )

    def test_nb_tables_equal_dense_reference(self):
        rng = np.random.default_rng(75)
        for trial in range(100):
            matrix = oracle_matrix(rng, nonneg=True)
            alpha = (1.0, 0.1, 2.5)[trial % 3]
            model = train(matrix, TrainConfig(algorithm="nb", nb_alpha=alpha))
            priors, tables = dense_nb(matrix, alpha)
            assert model.class_log_prior == priors
            assert model.feature_log_prob == tables
