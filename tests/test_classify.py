"""The four from-scratch classifiers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import dense_to_matrix, rand_matrix, to_dense
from textbalance.classify import (
    ALGORITHMS,
    DecisionTreeModel,
    LinearModel,
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

    @pytest.mark.parametrize("field", ["lr_learning_rate", "l2", "svm_C", "nb_alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_hyperparameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(algorithm="nb", **{field: value})

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
        assert predict_scored(model, matrix.rows[0])[1] is None

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
        X = to_dense(matrix)
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
        assert isinstance(model, LinearModel) and model.algorithm == "logistic"
        correct = sum(
            predict(model, row) == label for row, label in zip(matrix.rows, matrix.labels)
        )
        assert correct / len(matrix) >= 0.95

    def test_prediction_follows_score_sign(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="logistic"))
        for row in matrix.rows:
            assert predict(model, row) == (1 if predict_scored(model, row)[1] >= 0 else 0)


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
        assert isinstance(model, LinearModel) and model.algorithm == "svm"
        correct = sum(
            predict(model, row) == label for row, label in zip(matrix.rows, matrix.labels)
        )
        assert correct / len(matrix) >= 0.95

    def test_prediction_follows_score_sign(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="svm"))
        for row in matrix.rows:
            assert predict(model, row) == (1 if predict_scored(model, row)[1] >= 0 else 0)


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
        assert np.argmax(to_dense(matrix).var(axis=0)) == 0
        uncapped = train(matrix, TrainConfig(algorithm="tree"))
        assert {node.feature for node in uncapped.nodes if not node.is_leaf} == {1}
        model = train(matrix, TrainConfig(algorithm="tree", tree_max_features=1))
        assert {node.feature for node in model.nodes if not node.is_leaf} == {0}

    def test_max_features_variance_ties_keep_lower_index(self):
        # Columns 0 and 2 have equal variance (mirror images); column 1 is
        # constant.  Both separate the classes, so whichever is kept is used.
        X = [[0.0, 1.0, 3.0], [3.0, 1.0, 0.0], [0.0, 1.0, 3.0], [3.0, 1.0, 0.0]]
        matrix = dense_to_matrix(X, [0, 1, 0, 1])
        variances = to_dense(matrix).var(axis=0)
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

    def test_deep_chain_builds_without_recursion_limit(self):
        # Alternating labels along one axis: every split peels off one point,
        # so the tree is as deep as the chain is long.
        n = 1200
        matrix = dense_to_matrix([[float(i)] for i in range(n)], [i % 2 for i in range(n)])
        model = train(matrix, TrainConfig(algorithm="tree", tree_max_depth=100_000))
        assert len(model.nodes) == 2 * n - 1
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
                    predict_scored(model, row)[1],
                ), algo
        nb_tie = train(tie, TrainConfig(algorithm="nb"))
        assert predict_scored(nb_tie, tie.rows[0]) == (0, 0.0)

    def test_scores_add_in_entry_order(self):
        ones = SparseVector(dim=3, entries=((0, 1.0), (1, 1.0), (2, 1.0)))
        weights = (1e16, 1.0, -1e16)
        for algo in ("logistic", "svm"):
            model = LinearModel(algorithm=algo, dim=3, weights=weights, bias=0.25)
            assert predict_scored(model, ones)[1] == 0.25
        nb = MultinomialNBModel(
            dim=3,
            class_labels=(0, 1),
            class_log_prior=(-1.0, 0.0),
            feature_log_prob=((0.0, 0.0, 0.0), weights),
        )
        assert predict_scored(nb, ones)[1] == 1.0  # (0 + 0.0) - (-1 + 0.0)


def _scored(model, matrix: FeatureMatrix) -> list:
    predictions = predict_batch(model, matrix)
    assert len(predictions.scores) == len(predictions) == len(matrix)
    return [
        (label, None if score is None else score.hex())
        for label, score in zip(predictions, predictions.scores)
    ]


def _reference(model, matrix: FeatureMatrix) -> list:
    out = []
    for row in matrix.rows:
        label, score = predict_scored(model, row)
        out.append((label, None if score is None else score.hex()))
    return out


class TestPredictBatchOracle:
    """`predict_batch` scores a whole CSR view at once; its labels and
    scores must be those of `predict_scored`, bit for bit."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_matches_per_row_reference(self, algo):
        rng = np.random.default_rng(31)
        train_m = rand_matrix(rng, 30, 12, dim=15, density=0.3, nonneg=True)
        test_m = rand_matrix(rng, 40, 40, dim=15, density=0.2, nonneg=True)
        model = train(train_m, TrainConfig(algorithm=algo, tree_max_depth=6))
        for matrix in (train_m, test_m):
            got = _scored(model, matrix)
            assert got == _reference(model, matrix)
            assert all(type(label) is int for label, _ in got)

    def test_labels_are_plain_ints_and_scores_plain_floats(self):
        matrix = separable_matrix()
        for algo in ("nb", "logistic", "svm"):
            predictions = predict_batch(train(matrix, TrainConfig(algorithm=algo)), matrix)
            assert {type(v) for v in predictions} == {int}
            assert {type(v) for v in predictions.scores} == {float}

    def test_single_class_nb_has_no_score(self):
        single = dense_to_matrix([[1.0, 0.0], [2.0, 1.0], [0.0, 0.0]], [1, 1, 1])
        model = train(single, TrainConfig(algorithm="nb"))
        predictions = predict_batch(model, single)
        assert predictions == [1, 1, 1]
        assert predictions.scores == [None, None, None]
        assert _scored(model, single) == _reference(model, single)

    def test_exact_nb_ties_give_label_zero(self):
        tie = dense_to_matrix([[1.0], [1.0], [0.0]], [0, 1, 0])
        model = MultinomialNBModel(
            dim=1, class_labels=(0, 1), class_log_prior=(-0.5, -0.5),
            feature_log_prob=((-1.0,), (-1.0,)),
        )
        predictions = predict_batch(model, tie)
        assert predictions == [0, 0, 0]
        assert predictions.scores == [0.0, 0.0, 0.0]
        assert _scored(model, tie) == _reference(model, tie)

    def test_nb_prior_is_added_first(self):
        # (prior + a) + b differs from prior + (a + b) in the last bit here.
        model = MultinomialNBModel(
            dim=2, class_labels=(0, 1), class_log_prior=(-0.1, -2.3),
            feature_log_prob=((-0.7, -1.3), (-1e-17, -0.3)),
        )
        matrix = FeatureMatrix(
            rows=(SparseVector(2, ((0, 0.1), (1, 0.2))), SparseVector(2, ((0, 3.0),))),
            labels=(0, 1),
            dim=2,
        )
        assert _scored(model, matrix) == _reference(model, matrix)

    def test_empty_row_scores_the_bias(self):
        for algo in ("logistic", "svm"):
            model = LinearModel(algo, dim=3, weights=(0.5, -2.0, 1.0), bias=-0.125)
            matrix = FeatureMatrix(
                rows=(SparseVector(3, ()), SparseVector(3, ((1, 0.25),)), SparseVector(3, ())),
                labels=(0, 0, 0),
                dim=3,
            )
            predictions = predict_batch(model, matrix)
            assert predictions == [0, 0, 0]
            assert predictions.scores[0] == predictions.scores[2] == -0.125
            assert _scored(model, matrix) == _reference(model, matrix)
        zero_bias = LinearModel("svm", dim=1, weights=(1.0,), bias=0.0)
        empty = FeatureMatrix(rows=(SparseVector(1, ()),), labels=(0,), dim=1)
        assert predict_batch(zero_bias, empty) == [1]  # score 0.0 >= 0.0

    def test_tree_rows_without_the_split_feature(self):
        # Root splits on feature 2 at 0.5 (absent reads 0.0, goes left);
        # the left child splits on feature 0 at -1.0 (absent goes right).
        nodes = (
            TreeNode(feature=2, threshold=0.5, left=1, right=4),
            TreeNode(feature=0, threshold=-1.0, left=2, right=3),
            TreeNode(label=1),
            TreeNode(label=0),
            TreeNode(label=1),
        )
        model = DecisionTreeModel(dim=3, nodes=nodes)
        rows = (
            SparseVector(3, ()),
            SparseVector(3, ((0, -2.0),)),
            SparseVector(3, ((1, 9.0),)),
            SparseVector(3, ((2, 0.5),)),
            SparseVector(3, ((2, 0.75),)),
            SparseVector(3, ((0, -2.0), (2, 3.0))),
        )
        matrix = FeatureMatrix(rows=rows, labels=(0,) * 6, dim=3)
        predictions = predict_batch(model, matrix)
        assert predictions == [0, 1, 0, 0, 1, 1]
        assert predictions.scores == [None] * 6
        assert _scored(model, matrix) == _reference(model, matrix)

    def test_leaf_only_tree_and_empty_matrix(self):
        leaf = DecisionTreeModel(dim=2, nodes=(TreeNode(label=1),))
        matrix = FeatureMatrix(rows=(SparseVector(2, ((0, 1.0),)),), labels=(0,), dim=2)
        assert predict_batch(leaf, matrix) == [1]
        empty = FeatureMatrix(rows=(), labels=(), dim=2)
        for model in (leaf, LinearModel("svm", 2, (1.0, 1.0), 0.0)):
            predictions = predict_batch(model, empty)
            assert predictions == [] and predictions.scores == []

    def test_dimension_mismatch(self):
        model = LinearModel("svm", 2, (1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_batch(model, FeatureMatrix(rows=(), labels=(), dim=3))


# -- dense reference implementations ---------------------------------------
#
# The fits run on the matrix's CSR view.  These are the straightforward
# dense-array versions of the same four fits; the oracle tests below check
# that both give the same models.


def dense_nb(matrix: FeatureMatrix, alpha: float):
    X = to_dense(matrix)
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
    X = to_dense(matrix)
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
    X_aug = np.hstack([to_dense(matrix), np.ones((n, 1))])
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
    X = to_dense(matrix)
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
            dense = logistic_loss_and_grad(w, b, to_dense(matrix), y, l2)
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
