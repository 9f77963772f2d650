"""The four from-scratch classifiers."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest

import oracles
from conftest import (
    child_environ,
    dense_to_matrix,
    matrix_of,
    oracle_matrix,
    rand_matrix,
    to_dense,
)
from corpora import two_vocab_corpus
from oracles import SparseVector, csr_of, from_pairs, predict_scored, rows_of
from textbalance import classify, cli
from textbalance.classify import (
    ALGORITHMS,
    DecisionTreeModel,
    LinearModel,
    MultinomialNBModel,
    TrainConfig,
    predict,
    predict_batch,
    train,
)
from textbalance.preprocess import preprocess_corpus
from textbalance.resample import SmoteConfig, balance_training_set
from textbalance.rng import SplitMix64
from textbalance.stopwords import default_stopwords
from textbalance.vectorize import CsrView, FeatureMatrix, fit, transform_corpus


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
            TrainConfig(algorithm="logistic", epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="svm", epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="nb", nb_alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="logistic", l2=-0.01)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="tree", tree_min_samples_split=1)

    @pytest.mark.parametrize("field", ["l2", "svm_C", "nb_alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_hyperparameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(algorithm="nb", **{field: value})

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [("nb_alpha", True, "a real number"), ("l2", False, "a real number"),
         ("svm_C", True, "a real number"), ("l2", "0.1", "a real number"),
         ("svm_C", None, "a real number"), ("nb_alpha", "1", "a real number"),
         ("l2", 1j, "a real number"), ("svm_C", [1.0], "a real number"),
         ("nb_alpha", 10**400, "finite"), ("svm_C", -10**400, "finite"),
         ("l2", 2**1024, "finite")],
        ids=["nb_alpha-True", "l2-False", "svm_C-True", "l2-str", "svm_C-None", "nb_alpha-str",
             "l2-complex", "svm_C-list", "nb_alpha-10**400", "svm_C--10**400", "l2-2**1024"],
    )
    def test_reals_must_be_int_or_float(self, field, value, message):
        # Unchecked, nb_alpha=True would train with alpha 1 and write `true`
        # into a bundle's provenance, and l2="0.1" would raise TypeError.
        # An int beyond the float range raised OverflowError from isfinite.
        with pytest.raises(ValueError, match=f"{field} must be {message}"):
            TrainConfig(algorithm="nb", **{field: value})

    def test_reals_take_ints_and_float_subclasses(self):
        config = TrainConfig(algorithm="nb", l2=0, svm_C=2, nb_alpha=np.float64(0.5))
        assert (config.l2, config.svm_C, config.nb_alpha) == (0, 2, 0.5)

    @pytest.mark.parametrize("field", ["epochs", "tree_max_depth", "tree_min_samples_split"])
    @pytest.mark.parametrize(
        "value", [2.5, 1.5, 3.0, True, False, "3", None, np.int64(3)],
        ids=["2.5", "1.5", "3.0", "True", "False", "str", "None", "int64"],
    )
    def test_counts_must_be_integers(self, field, value):
        # Unchecked, 2.5 epochs would fail in the fit's range(), True would
        # train one epoch, and depth 1.5 would grow a depth-2 tree.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(algorithm="tree", **{field: value})

    # A value off each hyperparameter's default; a new field needs one here.
    MOVED = {
        "epochs": 5,
        "l2": 0.1,
        "svm_C": 0.01,
        "nb_alpha": 0.1,
        "tree_max_depth": 1,
        "tree_min_samples_split": 20,
    }

    @pytest.mark.parametrize(
        "field", [f for f in fields(TrainConfig) if f.name != "algorithm"], ids=lambda f: f.name
    )
    def test_every_hyperparameter_moves_some_model(self, field):
        # A field that no fit reads fails here.
        matrix = rand_matrix(np.random.default_rng(23), n0=20, n1=15, dim=10, nonneg=True)
        moved = {field.name: self.MOVED[field.name]}
        assert moved[field.name] != field.default
        assert any(
            train(matrix, TrainConfig(algo)) != train(matrix, TrainConfig(algo, **moved))
            for algo in ALGORITHMS
        )

    def test_to_dict_round_trips_values(self):
        config = TrainConfig(algorithm="svm", svm_C=2.5, epochs=4)
        data = config.to_dict()
        assert data["algorithm"] == "svm"
        assert data["svm_C"] == 2.5
        assert data["epochs"] == 4


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
        assert predict_scored(model, rows_of(matrix.csr)[0])[1] is None

    def test_negative_feature_values_rejected(self):
        matrix = dense_to_matrix([[1.0], [-0.5]], [0, 1])
        with pytest.raises(ValueError, match="non-negative"):
            train(matrix, TrainConfig(algorithm="nb"))

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_feature_values_rejected(self, value):
        # Rejected before any class mass is formed: 0.0 * inf would be NaN.
        matrix = dense_to_matrix([[1.0, 0.0], [0.0, value]], [0, 1])
        with pytest.raises(ValueError, match="finite, non-negative"):
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
            matrix = dense_to_matrix(X, y)
            loss, grad_w, grad_b = oracles.logistic_loss_and_grad(matrix, w, b, l2)
            h = 1e-6
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                plus, _, _ = oracles.logistic_loss_and_grad(matrix, w + e, b, l2)
                minus, _, _ = oracles.logistic_loss_and_grad(matrix, w - e, b, l2)
                fd = (plus - minus) / (2 * h)
                assert abs(grad_w[j] - fd) <= 1e-4 * max(1.0, abs(fd))
            plus, _, _ = oracles.logistic_loss_and_grad(matrix, w, b + h, l2)
            minus, _, _ = oracles.logistic_loss_and_grad(matrix, w, b - h, l2)
            fd_b = (plus - minus) / (2 * h)
            assert abs(grad_b - fd_b) <= 1e-4 * max(1.0, abs(fd_b))

    def test_bias_is_not_regularized(self):
        matrix = dense_to_matrix([[1.0], [-1.0]], [1, 0])
        w = np.zeros(1)
        _, _, grad_b_small = oracles.logistic_loss_and_grad(matrix, w, 5.0, l2=0.0)
        _, _, grad_b_large = oracles.logistic_loss_and_grad(matrix, w, 5.0, l2=10.0)
        assert grad_b_small == grad_b_large

    def test_training_reduces_loss(self):
        matrix = separable_matrix()
        config = TrainConfig(algorithm="logistic")
        model = train(matrix, config)
        initial, _, _ = oracles.logistic_loss_and_grad(
            matrix, np.zeros(matrix.dim), 0.0, config.l2
        )
        final, _, _ = oracles.logistic_loss_and_grad(
            matrix, np.asarray(model.weights), model.bias, config.l2
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
        for row, vector in zip(matrix.rows, rows_of(matrix.csr)):
            assert predict(model, row) == (1 if predict_scored(model, vector)[1] >= 0 else 0)


class TestSvm:
    def test_objective_decreases(self):
        # Nesterov's method is not monotone, so only the end is compared
        # with the start: at w = 0 every margin is 0, and the objective is 1.
        matrix = separable_matrix()
        config = TrainConfig(algorithm="svm")
        model = train(matrix, config)
        lam = 1.0 / (config.svm_C * len(matrix))
        start = oracles.svm_objective(matrix, np.zeros(matrix.dim), 0.0, lam)
        final = oracles.svm_objective(matrix, np.asarray(model.weights), model.bias, lam)
        assert start == 1.0
        assert final < 0.5 * start

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
        for row, vector in zip(matrix.rows, rows_of(matrix.csr)):
            assert predict(model, row) == (1 if predict_scored(model, vector)[1] >= 0 else 0)


class TestConvergence:
    """At the default settings each linear fit ends within 1% of the
    objective that the same fit reaches in a fixed 2,000 epochs (no stop
    test: `_TOL` = 0), so neither a looser stop nor a lower cap can weaken
    the bound: on both arms of the golden seed-7 corpus's training matrix,
    on a wide Zipf TF-IDF matrix of 3,200 rows, and on Zipf count rows
    without IDF weighting.  On the TF-IDF rows the weights' curvature is
    far below the bias column's, and one step for all coordinates, set by
    the bias, ends the SVM more than 2% above its 2,000-epoch objective
    after 200 epochs.  The count rows converge slowly: a fixed 60 epochs
    ends the logistic fit more than 4% and the SVM more than 14% above it."""

    REFERENCE_EPOCHS = 2000

    @staticmethod
    def _arm(smote: bool) -> FeatureMatrix:
        train_corpus, _ = two_vocab_corpus(7)
        tokens = preprocess_corpus(train_corpus, default_stopwords())
        matrix = transform_corpus(fit(tokens), tokens, train_corpus.labels)
        return balance_training_set(matrix, SmoteConfig(seed=7))[0] if smote else matrix

    @staticmethod
    def _zipf_matrix(n: int, seed: int) -> FeatureMatrix:
        """TF-IDF rows of n posts of 15 to 54 words: 20% from their class's
        200 words, 2% from the other class's, the rest from 60,000
        background words by Zipf rank (exponent 1.35); 12% spam."""
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) < 0.12).astype(np.int64)
        sizes = rng.integers(15, 55, size=n)
        spam = np.repeat(labels, sizes) == 1
        source = rng.random(len(spam))
        background = np.cumsum(1.0 / np.arange(1, 60001) ** 1.35)
        ranks = np.searchsorted(background, rng.random(len(spam)) * background[-1], side="right")
        class_ranks = np.cumsum(1.0 / np.arange(1, 201))
        picks = np.searchsorted(class_ranks, rng.random(len(spam)) * class_ranks[-1], side="right")
        own, classed = source < 0.2, source < 0.22
        prefix = np.where(classed, np.where(own == spam, "s", "h"), "b").tolist()
        words = [f"{p}{r}" for p, r in zip(prefix, np.where(classed, picks, ranks).tolist())]
        ends = np.cumsum(sizes).tolist()
        docs = [words[start:end] for start, end in zip([0] + ends[:-1], ends)]
        return transform_corpus(fit(docs), docs, labels.tolist())

    @staticmethod
    def _count_matrix(n: int, dim: int, seed: int) -> FeatureMatrix:
        """n unit-norm rows of word counts over dim columns, with no IDF
        weighting, drawn with SplitMix64: 40 words a row by Zipf rank
        (exponent 1.1), and a label drawn before each row, 1 with
        probability 15%."""
        rng = SplitMix64(seed)
        cdf = np.cumsum(1.0 / np.arange(1, dim + 1) ** 1.1)
        labels, indices, data, indptr = [], [], [], [0]
        for _ in range(n):
            labels.append(int(rng.next_below(100) < 15))
            draws = np.array([rng.next_float() for _ in range(40)]) * cdf[-1]
            words = np.searchsorted(cdf, draws, side="right")
            columns, counts = np.unique(words, return_counts=True)
            indices.append(columns)
            data.append(counts / np.sqrt(np.add.reduce(counts * counts)))
            indptr.append(indptr[-1] + len(columns))
        csr = CsrView(np.array(indptr), np.concatenate(indices), np.concatenate(data), dim)
        return FeatureMatrix(csr, tuple(labels))

    @staticmethod
    def _objective(matrix: FeatureMatrix, config: TrainConfig, model: LinearModel) -> float:
        w = np.asarray(model.weights)
        if config.algorithm == "logistic":
            return oracles.logistic_loss_and_grad(matrix, w, model.bias, config.l2)[0]
        return oracles.svm_objective(matrix, w, model.bias, 1.0 / (config.svm_C * len(matrix)))

    def _gap(self, matrix: FeatureMatrix, algo: str) -> float:
        """Default objective over the fixed 2,000-epoch one, minus 1."""
        config = TrainConfig(algorithm=algo)
        longer = replace(config, epochs=self.REFERENCE_EPOCHS)
        final = self._objective(matrix, config, train(matrix, config))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_TOL", 0.0)
            reference = train(matrix, longer)
        return final / self._objective(matrix, longer, reference) - 1.0

    @pytest.mark.parametrize("smote", [False, True], ids=["raw", "smote"])
    @pytest.mark.parametrize("algo", ["logistic", "svm"])
    def test_default_epochs_reach_2000_epoch_objective(self, algo, smote):
        assert self._gap(self._arm(smote), algo) <= 0.01

    def test_svm_on_wide_zipf_rows_reaches_2000_epoch_objective(self):
        matrix = self._zipf_matrix(3200, 5)
        assert len(matrix) >= 3000 and matrix.dim > 3000
        assert self._gap(matrix, "svm") <= 0.01

    @pytest.mark.parametrize("algo", ["logistic", "svm"])
    def test_count_rows_without_idf_reach_2000_epoch_objective(self, algo):
        matrix = self._count_matrix(3200, 3000, 41)
        assert 0.12 <= np.mean(matrix.labels) <= 0.18
        assert self._gap(matrix, algo) <= 0.01


class TestDecisionTree:
    def test_fits_xor_exactly(self):
        matrix = xor_matrix()
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert isinstance(model, DecisionTreeModel)
        assert predict_batch(model, matrix) == [0, 0, 1, 1]

    def test_thresholds_are_midpoints(self):
        matrix = dense_to_matrix([[0.0], [1.0]], [0, 1])
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert model.label[0] == -1
        assert model.threshold[0] == 0.5

    def test_values_at_the_threshold_go_left(self):
        # The midpoint of 1.0 and the next float rounds to 1.0 itself, so
        # the rows holding 1.0 are on the threshold, in the fit and in
        # predict.  The left child splits them again on column 1, which
        # needs their entries there, not only their counts.
        above = math.nextafter(1.0, 2.0)
        X = [[1.0, 0.0], [1.0, 1.0], [above, 0.0], [above, 0.0], [above, 0.0]]
        matrix = dense_to_matrix(X, [0, 1, 1, 1, 1])
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert (model.feature[0], model.threshold[0]) == (0, 1.0)
        assert predict_batch(model, matrix) == [0, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "lower, upper",
        [(math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)),
         (1.5e308, 1.7e308), (-1.7e308, -1.5e308), (-5e-324, 0.0)],
        ids=["rounds-up", "overflows", "overflows-down", "negative-zero"],
    )
    def test_a_midpoint_at_the_upper_value_cuts_at_the_lower(self, lower, upper):
        # The midpoint rounds up to ``upper`` (or overflows to inf, or is
        # -0.0 below a zero group), which would send both rows left, or
        # overflows to -inf, which would send both right; the cut must send
        # each row to the side its split was scored with.
        matrix = dense_to_matrix([[lower], [upper]], [0, 1])
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert model.threshold[0] == lower
        assert predict_batch(model, matrix) == [0, 1]

    def test_max_depth_limits_tree(self):
        matrix = xor_matrix()
        model = train(matrix, TrainConfig(algorithm="tree", tree_max_depth=1))
        # Depth 1 allows a single split: at most three nodes.
        assert len(model.label) <= 3

    def test_min_samples_split_forces_leaf(self):
        matrix = xor_matrix()
        model = train(matrix, TrainConfig(algorithm="tree", tree_min_samples_split=5))
        assert len(model.label) == 1
        assert model.label[0] >= 0

    def test_leaf_tie_prefers_label_zero(self):
        matrix = dense_to_matrix([[1.0], [1.0]], [0, 1])  # indistinguishable points
        model = train(matrix, TrainConfig(algorithm="tree"))
        assert model.label == (0,)

    def test_matrix_without_stored_entries_is_one_leaf(self):
        # Every column is constant (all zero), so the root cannot split.
        matrix = matrix_of([SparseVector(dim=3, entries=())] * 3, (1, 1, 0), 3)
        leaf = DecisionTreeModel(3, (-1,), (0.0,), (-1,), (-1,), (1,))
        assert train(matrix, TrainConfig(algorithm="tree")) == leaf

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(22)
        matrix = rand_matrix(rng, n0=15, n1=15, dim=6)
        a = train(matrix, TrainConfig(algorithm="tree"))
        b = train(matrix, TrainConfig(algorithm="tree"))
        assert a == b

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
        assert len(model.label) == 2 * n - 1
        assert predict_batch(model, matrix) == list(matrix.labels)


class TestTrainValidation:
    def test_empty_matrix_rejected(self):
        empty = matrix_of((), (), 3)
        for algo in ALGORITHMS:
            with pytest.raises(ValueError):
                train(empty, TrainConfig(algorithm=algo))

    def test_zero_dim_rejected(self):
        matrix = matrix_of((SparseVector(dim=0, entries=()),), (0,), 0)
        with pytest.raises(ValueError):
            train(matrix, TrainConfig(algorithm="nb"))

    def test_single_class_rejected_except_nb(self):
        matrix = dense_to_matrix([[1.0], [2.0]], [1, 1])
        for algo in ("logistic", "svm", "tree"):
            with pytest.raises(ValueError, match="both classes"):
                train(matrix, TrainConfig(algorithm=algo))

    def test_svm_lam_must_be_finite_and_positive(self):
        # C * n overflows to inf (lam 0.0), or C is so small that lam is inf.
        matrix = separable_matrix()
        for svm_c, lam in ((1e308, "0.0"), (1e-320, "inf")):
            with pytest.raises(ValueError, match=rf"lam = 1/\(C\*n\) = {lam}"):
                train(matrix, TrainConfig(algorithm="svm", svm_C=svm_c))

    def test_diverging_fit_is_rejected_without_warnings(self):
        # pytest turns warnings into errors, so no RuntimeWarning escapes.
        # The step is 1/L, so a huge l2, or a C that makes lam tiny, still
        # gives a finite fit.
        two = dense_to_matrix([[10.0], [20.0]], [0, 1])
        for matrix, config in (
            (separable_matrix(), TrainConfig(algorithm="logistic", l2=1e308)),
            (two, TrainConfig(algorithm="svm", svm_C=5e307)),  # lam = 1e-308
        ):
            model = train(matrix, config)
            assert np.isfinite(model.weights).all() and math.isfinite(model.bias)
        # Values near 1e200 are finite, but their squares, and so L, are not.
        huge = dense_to_matrix([[1e200, 0.0], [0.0, -3e200], [2e200, 1e200]], [0, 1, 1])
        for algo in ("logistic", "svm"):
            with pytest.raises(ValueError, match="step bound L = inf must be finite"):
                train(huge, TrainConfig(algorithm=algo))

    @pytest.mark.parametrize("algo", ["logistic", "svm"])
    def test_matrix_without_stored_entries_trains_the_bias_alone(self, algo):
        # The weights' curvature bound is 0 here, and with l2 = 0 so is their
        # step bound: their gradient is exactly 0, so they stay at 0 while
        # the bias fits the 2:1 label ratio, ln 2 for the log loss and
        # (2/3)/(2 + lam) = 2/7 for the squared hinge (lam = 1/3).  Without
        # the stop (_TOL = 0) the fit reaches that optimum; with it, it stops
        # once the bias's gradient is _TOL of its first, -1/6 or -2/3, which
        # over the loss's curvature at the optimum, 2/9 or 7/3, leaves the
        # bias about _TOL of the optimum away.
        matrix = matrix_of([SparseVector(dim=3, entries=())] * 3, (1, 1, 0), 3)
        config = TrainConfig(algorithm=algo, l2=0.0)
        optimum = math.log(2.0) if algo == "logistic" else 2.0 / 7.0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_TOL", 0.0)
            exact = train(matrix, config)
        assert exact.weights == (0.0, 0.0, 0.0)
        assert exact.bias == pytest.approx(optimum)
        model = train(matrix, config)
        assert model.weights == (0.0, 0.0, 0.0)
        assert model.bias == pytest.approx(optimum, rel=2 * classify._TOL)

    def test_predict_dimension_mismatch(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="logistic"))
        with pytest.raises(ValueError):
            predict(model, csr_of([from_pairs(99, [(0, 1.0)])], 99))

    def test_predict_takes_exactly_one_row(self):
        matrix = separable_matrix()
        model = train(matrix, TrainConfig(algorithm="logistic"))
        for picked in (matrix.csr.select(np.arange(len(matrix)) < 2), matrix.csr, csr_of([], 2)):
            with pytest.raises(ValueError, match=f"{picked.shape[0]} rows but 1 labels"):
                predict(model, picked)

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
            for row, vector in zip(matrix.rows, rows_of(matrix.csr)):
                assert predict_scored(model, vector) == (
                    predict(model, row),
                    predict_scored(model, vector)[1],
                ), algo
        nb_tie = train(tie, TrainConfig(algorithm="nb"))
        assert predict_scored(nb_tie, rows_of(tie.csr)[0]) == (0, 0.0)

    def test_scores_add_in_entry_order(self):
        ones = SparseVector(dim=3, entries=((0, 1.0), (1, 1.0), (2, 1.0)))
        weights = (1e16, 1.0, -1e16)
        for algo in ("logistic", "svm"):
            model = LinearModel(algorithm=algo, dim=3, weights=weights, bias=0.25)
            assert predict_scored(model, ones)[1] == 0.25
            assert predict_batch(model, matrix_of((ones,), (0,), 3)).scores == [0.25]
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
    for row in rows_of(matrix.csr):
        label, score = predict_scored(model, row)
        out.append((label, None if score is None else score.hex()))
    return out


class TestPredictBatchOracle:
    """`predict_batch` scores a whole CSR view at once; its labels and
    scores must be those of the per-vector `oracles.predict_scored`, bit
    for bit."""

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
        matrix = matrix_of(
            (SparseVector(2, ((0, 0.1), (1, 0.2))), SparseVector(2, ((0, 3.0),))), (0, 1), 2
        )
        assert _scored(model, matrix) == _reference(model, matrix)

    def test_empty_row_scores_the_bias(self):
        for algo in ("logistic", "svm"):
            model = LinearModel(algo, dim=3, weights=(0.5, -2.0, 1.0), bias=-0.125)
            matrix = matrix_of(
                (SparseVector(3, ()), SparseVector(3, ((1, 0.25),)), SparseVector(3, ())),
                (0, 0, 0),
                3,
            )
            predictions = predict_batch(model, matrix)
            assert predictions == [0, 0, 0]
            assert predictions.scores[0] == predictions.scores[2] == -0.125
            assert _scored(model, matrix) == _reference(model, matrix)
        zero_bias = LinearModel("svm", dim=1, weights=(1.0,), bias=0.0)
        empty = matrix_of((SparseVector(1, ()),), (0,), 1)
        assert predict_batch(zero_bias, empty) == [1]  # score 0.0 >= 0.0

    def test_tree_rows_without_the_split_feature(self):
        # Root splits on feature 2 at 0.5 (absent reads 0.0, goes left);
        # the left child splits on feature 0 at -1.0 (absent goes right).
        model = DecisionTreeModel(
            dim=3,
            feature=(2, 0, -1, -1, -1),
            threshold=(0.5, -1.0, 0.0, 0.0, 0.0),
            left=(1, 2, -1, -1, -1),
            right=(4, 3, -1, -1, -1),
            label=(-1, -1, 1, 0, 1),
        )
        rows = (
            SparseVector(3, ()),
            SparseVector(3, ((0, -2.0),)),
            SparseVector(3, ((1, 9.0),)),
            SparseVector(3, ((2, 0.5),)),
            SparseVector(3, ((2, 0.75),)),
            SparseVector(3, ((0, -2.0), (2, 3.0))),
        )
        matrix = matrix_of(rows, (0,) * 6, 3)
        predictions = predict_batch(model, matrix)
        assert predictions == [0, 1, 0, 0, 1, 1]
        assert predictions.scores == [None] * 6
        assert _scored(model, matrix) == _reference(model, matrix)

    def test_leaf_only_tree_and_empty_matrix(self):
        leaf = DecisionTreeModel(2, (-1,), (0.0,), (-1,), (-1,), (1,))
        matrix = matrix_of((SparseVector(2, ((0, 1.0),)),), (0,), 2)
        assert predict_batch(leaf, matrix) == [1]
        empty = matrix_of((), (), 2)
        for model in (leaf, LinearModel("svm", 2, (1.0, 1.0), 0.0)):
            predictions = predict_batch(model, empty)
            assert predictions == [] and predictions.scores == []

    def test_dimension_mismatch(self):
        model = LinearModel("svm", 2, (1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_batch(model, matrix_of((), (), 3))


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


def dense_weight_curvature(X: np.ndarray, products: int = 8) -> float:
    """max_j (Au)_j / u_j / n over u_j > 0 for the dense A = |X|^T |X|, with
    u the all-ones vector after ``products - 1`` power steps."""
    A = np.abs(X).T @ np.abs(X)
    u = np.ones(X.shape[1])
    for _ in range(products - 1):
        au = A @ u
        if not 0.0 < au.max() < math.inf:
            return float(au.max())
        u = au / au.max()
    au = A @ u
    return float(np.max(au[u > 0] / u[u > 0])) / X.shape[0]


def dense_step_sizes(X: np.ndarray, curvature: float, ridge: np.ndarray) -> np.ndarray:
    """1/L per coordinate of w with the bias last: L = 2c * lambda-hat + ridge
    on the weights (a step of 0 where that is 0) and 2c + ridge on the bias."""
    L = np.append(np.full(X.shape[1], 2 * curvature * dense_weight_curvature(X)), 2 * curvature)
    L += ridge
    return np.divide(1.0, L, out=np.zeros_like(L), where=L > 0)


def dense_fista(X_aug: np.ndarray, epochs: int, gradient, step_sizes: np.ndarray) -> np.ndarray:
    """FISTA from zero with per-coordinate steps and gradient restart, on an
    explicit all-ones bias column, stopping after the first step whose
    gradient g has g @ (s * g) at most STOP_TOL² times the first step's; w
    with the bias last."""
    w = np.zeros(X_aug.shape[1])
    point, t = w, 1.0
    for epoch in range(epochs):
        grad = gradient(point)
        new = point - grad * step_sizes
        norm = grad @ (grad * step_sizes)
        first = norm if epoch == 0 else first
        if norm <= oracles.STOP_TOL**2 * first:
            return new
        if grad @ (new - w) > 0.0:
            t = 1.0
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        point = new + (t - 1.0) / t_next * (new - w)
        w, t = new, t_next
    return w


def dense_logistic(matrix: FeatureMatrix, config: TrainConfig):
    n = len(matrix)
    X = to_dense(matrix)
    X_aug = np.hstack([X, np.ones((n, 1))])
    y = matrix.labels_array().astype(np.float64)
    ridge = np.append(np.full(matrix.dim, config.l2), 0.0)  # the bias is not regularized

    def gradient(w):
        return X_aug.T @ (oracles.masked_sigmoid(X_aug @ w) - y) / n + ridge * w

    w = dense_fista(X_aug, config.epochs, gradient, dense_step_sizes(X, 0.25, ridge))
    return w[:-1], w[-1]


def dense_svm(matrix: FeatureMatrix, config: TrainConfig):
    """The squared hinge with a regularized bias; w with the bias last."""
    n = len(matrix)
    X = to_dense(matrix)
    X_aug = np.hstack([X, np.ones((n, 1))])
    y_pm = 2.0 * matrix.labels_array().astype(np.float64) - 1.0
    lam = 1.0 / (config.svm_C * n)
    ridge = np.full(matrix.dim + 1, lam)

    def gradient(w):
        hinge = np.maximum(0.0, 1.0 - y_pm * (X_aug @ w))
        return -2.0 * X_aug.T @ (y_pm * hinge) / n + lam * w

    return dense_fista(X_aug, config.epochs, gradient, dense_step_sizes(X, 2.0, ridge))


def _dense_gini(n0: float, n1: float) -> float:
    total = n0 + n1
    if total == 0:
        return 0.0
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - p0 * p0 - p1 * p1


def _dense_best_split(X: np.ndarray, y: np.ndarray):
    """Scan every boundary of every column; the smallest
    (-gain, feature, threshold) wins."""
    n = len(y)
    parent_n1 = int(y.sum())
    parent_gini = _dense_gini(n - parent_n1, parent_n1)
    best = None
    for f in range(X.shape[1]):
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
            lower, upper = float(sorted_vals[b]), float(sorted_vals[b + 1])
            threshold = (lower + upper) / 2.0
            if not lower <= threshold < upper:  # rounded onto upper, or overflowed
                threshold = lower
            key = (-gain, int(f), threshold)
            if best is None or key < best[0]:
                best = (key, int(f), threshold)
    return None if best is None else best[1:]


def _dense_majority(y: np.ndarray) -> int:
    return 1 if int(y.sum()) > len(y) - int(y.sum()) else 0


def dense_tree(matrix: FeatureMatrix, config: TrainConfig) -> DecisionTreeModel:
    X = to_dense(matrix)
    y = matrix.labels_array()
    columns = feature, threshold, left, right, label = [], [], [], [], []

    def build(indices: np.ndarray, depth: int) -> int:
        node_id = len(label)
        for column, fill in zip(columns, (-1, 0.0, -1, -1, -1)):
            column.append(fill)
        sub_y = y[indices]
        found = None
        if (
            sub_y.min() != sub_y.max()
            and depth < config.tree_max_depth
            and len(indices) >= config.tree_min_samples_split
        ):
            found = _dense_best_split(X[indices], sub_y)
        if found is None:
            label[node_id] = _dense_majority(sub_y)
            return node_id
        feature[node_id], threshold[node_id] = found
        mask = X[indices, found[0]] <= found[1]
        left[node_id] = build(indices[mask], depth + 1)
        right[node_id] = build(indices[~mask], depth + 1)
        return node_id

    build(np.arange(len(matrix)), 0)
    return DecisionTreeModel(matrix.dim, *map(tuple, columns))


class TestDenseOracles:
    def test_tree_matches_dense_reference(self):
        rng = np.random.default_rng(70)
        combos = [(depth, split) for depth in (1, 2, 3, 10) for split in (2, 3, 4, 6, 9)]
        for trial in range(270):
            depth, split = combos[trial % len(combos)]
            matrix = oracle_matrix(rng)
            config = TrainConfig(
                algorithm="tree", tree_max_depth=depth, tree_min_samples_split=split
            )
            assert train(matrix, config) == dense_tree(matrix, config), trial

    def test_tree_matches_dense_reference_on_wider_matrices(self):
        # Mostly-zero columns, most of them partly zero at every node.
        rng = np.random.default_rng(71)
        for depth, split in ((10, 2), (1, 2), (3, 5), (100, 12)):
            matrix = rand_matrix(rng, n0=30, n1=25, dim=300, density=0.05)
            config = TrainConfig(
                algorithm="tree", tree_max_depth=depth, tree_min_samples_split=split
            )
            assert train(matrix, config) == dense_tree(matrix, config)

    def test_logistic_fit_matches_dense_reference(self):
        rng = np.random.default_rng(73)
        config = TrainConfig(algorithm="logistic", epochs=100)
        for _ in range(20):
            matrix = oracle_matrix(rng)
            model = train(matrix, config)
            w, b = dense_logistic(matrix, config)
            np.testing.assert_allclose(model.weights, w, rtol=0, atol=1e-12)
            assert abs(model.bias - b) <= 1e-12

    def test_svm_weights_match_dense_reference(self):
        rng = np.random.default_rng(74)
        for trial in range(40):
            matrix = oracle_matrix(rng)
            config = TrainConfig(algorithm="svm", svm_C=(0.5, 1.0, 10.0)[trial % 3], epochs=60)
            model = train(matrix, config)
            w = dense_svm(matrix, config)
            np.testing.assert_allclose(model.weights, w[:-1], rtol=0, atol=1e-12)
            assert abs(model.bias - w[-1]) <= 1e-12

    def test_nb_tables_equal_dense_reference(self):
        rng = np.random.default_rng(75)
        for trial in range(100):
            matrix = oracle_matrix(rng, nonneg=True)
            alpha = (1.0, 0.1, 2.5)[trial % 3]
            model = train(matrix, TrainConfig(algorithm="nb", nb_alpha=alpha))
            priors, tables = dense_nb(matrix, alpha)
            assert model.class_log_prior == priors
            assert model.feature_log_prob == tables


def _bits(values) -> np.ndarray:
    """The IEEE bit patterns of float values: equal bits, not just ``==``."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def fit_matrices(rng: np.random.Generator, count: int):
    """`oracle_matrix` draws (negative and repeated values, all-zero columns,
    2 to 39 rows), with every fifth one wider and sparser."""
    for trial in range(count):
        if trial % 5 == 4:
            n0, n1 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            yield rand_matrix(rng, n0=n0, n1=n1, dim=int(rng.integers(20, 300)), density=0.05)
        else:
            yield oracle_matrix(rng)


class TestExactFitReferences:
    """Each fit equals, bit for bit, its plain loop form in `tests/oracles.py`."""

    def test_logistic_fit_equals_reference(self):
        rng = np.random.default_rng(81)
        for trial, matrix in enumerate(fit_matrices(rng, 80)):
            l2 = (1e-4, 0.0, 0.05)[trial % 3]
            config = TrainConfig(algorithm="logistic", epochs=30, l2=l2)
            model = train(matrix, config)
            w, b, _ = oracles.logistic_fit(matrix, config)
            assert np.array_equal(_bits(model.weights), _bits(w)), trial
            assert _bits(model.bias) == _bits(b), trial

    def test_svm_fit_equals_reference(self):
        rng = np.random.default_rng(82)
        for trial, matrix in enumerate(fit_matrices(rng, 80)):
            c = (0.5, 1.0, 10.0, 1e160)[trial % 4]
            config = TrainConfig(algorithm="svm", svm_C=c, epochs=30)
            model = train(matrix, config)
            w, b, _ = oracles.svm_fit(matrix, config)
            assert np.array_equal(_bits(model.weights), _bits(w)), trial
            assert _bits(model.bias) == _bits(b), trial

    def test_svm_fit_on_wide_matrices_equals_reference(self):
        # Wide weight vectors, where a BLAS dot product may add in another
        # order than np.add.reduce: the restart test must not use one.
        rng = np.random.default_rng(86)
        for trial in range(4):
            matrix = rand_matrix(rng, n0=40, n1=25, dim=1500, density=0.02)
            config = TrainConfig(algorithm="svm", svm_C=(0.05, 0.5)[trial % 2], epochs=40)
            model = train(matrix, config)
            w, b, _ = oracles.svm_fit(matrix, config)
            assert np.array_equal(_bits(model.weights), _bits(w)), trial
            assert _bits(model.bias) == _bits(b), trial

    def test_weight_curvature_equals_reference(self):
        # The bound reads |X|u from the transpose's arrays and |X|^T(|X|u)
        # from X's: the sums of the plain bincount loops, bit for bit.
        rng = np.random.default_rng(87)
        for trial, matrix in enumerate(fit_matrices(rng, 60)):
            got = matrix.csr.gram_bound / len(matrix)
            assert _bits(got) == _bits(oracles.weight_curvature(matrix)), trial

    def test_weight_curvature_edges(self):
        # No stored entries: every product is 0.  Values near 1e200: the
        # first product overflows.
        empty = matrix_of([SparseVector(dim=3, entries=())] * 2, (0, 1), 3)
        huge = dense_to_matrix([[1e200, 0.0], [0.0, -3e200]], [0, 1])
        for matrix, bound in ((empty, 0.0), (huge, math.inf)):
            assert matrix.csr.gram_bound == bound
            assert oracles.weight_curvature(matrix) == bound

    def test_tree_fit_equals_reference(self):
        rng = np.random.default_rng(83)
        combos = [(depth, split) for depth in (1, 2, 3, 10) for split in (2, 3, 5)]
        matrices = [*fit_matrices(rng, 96), *[rows_without_entries_matrix()] * len(combos)]
        for trial, matrix in enumerate(matrices):
            depth, split = combos[trial % len(combos)]
            config = TrainConfig(
                algorithm="tree", tree_max_depth=depth, tree_min_samples_split=split
            )
            assert train(matrix, config) == oracles.tree_fit(matrix, config), trial

    def test_tree_split_ties_on_negative_and_repeated_values(self):
        # Columns of a few repeated levels on both sides of zero, in every
        # pattern of zeros: the zero entry must land between the negatives
        # and the positives of its column.
        rng = np.random.default_rng(84)
        levels = np.array([-3.0, -1.0, -0.5, 0.5, 1.0, 3.0])
        for trial in range(40):
            n, dim = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            X = rng.choice(levels, size=(n, dim)) * (rng.random((n, dim)) < rng.uniform(0.2, 1.0))
            X[:, rng.random(dim) < 0.3] = rng.choice(levels[:3])  # all-negative columns
            y = rng.integers(0, 2, size=n)
            y[:2] = (0, 1)
            matrix = dense_to_matrix(X + 0.0, y)
            config = TrainConfig(algorithm="tree")
            model = train(matrix, config)
            assert model == oracles.tree_fit(matrix, config) == dense_tree(matrix, config), trial

    def test_tree_fit_past_2_16_columns_equals_reference(self):
        # Columns c and c + 2^16 would share a uint16 sort key: the fit
        # must sort them as the wide ids they are.
        rng = np.random.default_rng(88)
        dim = (1 << 16) + 8
        pool = np.array([1, 2, 5, (1 << 16) + 1, (1 << 16) + 2, (1 << 16) + 5])
        for trial in range(10):
            n = int(rng.integers(6, 30))
            rows = [
                from_pairs(dim, [(int(c), float(rng.choice([-1.0, 0.5, 1.0, 2.0])))
                                 for c in rng.choice(pool, size=int(rng.integers(0, 5)),
                                                     replace=False)])
                for _ in range(n)
            ]
            y = rng.integers(0, 2, size=n)
            y[:2] = (0, 1)
            matrix = matrix_of(rows, y, dim)
            config = TrainConfig(algorithm="tree")
            assert train(matrix, config) == oracles.tree_fit(matrix, config), trial

    @pytest.mark.parametrize("depth", [1, 3, 10])
    def test_tree_fit_equals_reference_on_adversarial_columns(self, depth):
        # The fit scores only boundary points and the cuts next to each
        # zero group; the reference scans every cut.
        rng = np.random.default_rng(85)
        config = TrainConfig(algorithm="tree", tree_max_depth=depth)
        for trial in range(60):
            matrix = adversarial_tree_matrix(rng)
            assert train(matrix, config) == oracles.tree_fit(matrix, config), trial

    @pytest.mark.parametrize(
        "lower, upper",
        [(math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)),
         (-1.7e308, -1.5e308)],
        ids=["rounds-up", "overflows-down"],
    )
    def test_both_references_cut_at_the_lower_value(self, lower, upper):
        matrix = dense_to_matrix([[lower], [upper]], [0, 1])
        config = TrainConfig(algorithm="tree")
        model = train(matrix, config)
        assert model.threshold[0] == lower
        assert model == oracles.tree_fit(matrix, config) == dense_tree(matrix, config)

    @pytest.mark.parametrize("depth", [1, 3, 10])
    def test_tree_fit_equals_references_on_adjacent_and_huge_values(self, depth):
        # Adjacent floats, whose midpoint rounds onto the upper one, and
        # values near the largest float, whose sums overflow to +-inf.
        rng = np.random.default_rng(86)
        one_up = math.nextafter(1.0, 2.0)
        top = sys.float_info.max
        magnitudes = [1.0, one_up, math.nextafter(one_up, 2.0), 5e-324, 1e-323,
                      1.5e308, 1.7e308, math.nextafter(top, 0.0), top]
        levels = np.array(magnitudes + [-m for m in magnitudes])
        config = TrainConfig(algorithm="tree", tree_max_depth=depth)
        for trial in range(40):
            n, dim = int(rng.integers(2, 30)), int(rng.integers(1, 5))
            X = rng.choice(levels, size=(n, dim)) * (rng.random((n, dim)) < rng.uniform(0.3, 1.0))
            y = rng.integers(0, 2, size=n)
            y[:2] = (0, 1)
            matrix = dense_to_matrix(X + 0.0, y)
            model = train(matrix, config)
            assert model == oracles.tree_fit(matrix, config) == dense_tree(matrix, config), trial


def rows_without_entries_matrix() -> FeatureMatrix:
    """Four rows without any entry, two of each label, which no node's
    entry slice holds: the root sends them left with three ham rows, that
    child splits again, and they end in a leaf of their own, tied, so
    labelled 0.  Only the counts each split hands on carry them."""
    X = [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 1.0]]
    return dense_to_matrix(X + [[0.0, 0.0]] * 4, [1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1])


def adversarial_tree_matrix(rng: np.random.Generator) -> FeatureMatrix:
    """Columns where pruning cuts to boundary points could go wrong:

    - ties: a few repeated levels, so equal values hold both classes;
    - runs: the value follows the label along a noisy ranking, in bands
      with a zero band inside, so runs of groups of one class lie on both
      sides of the zero group;
    - one sign: only negative or only positive levels, with zeros, and
      negative levels in every row.
    """
    n = int(rng.integers(6, 40))
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    levels = np.array([0.25, 0.5, 1.0, 2.0])
    columns = []
    for _ in range(int(rng.integers(2, 8))):
        kind = int(rng.integers(0, 5))
        if kind == 0:  # ties
            column = rng.choice(np.concatenate((-levels, levels)), size=n)
            column *= rng.random(n) < rng.uniform(0.3, 1.0)
        elif kind == 1:  # runs
            rank = np.argsort(np.argsort(y + rng.uniform(-0.7, 0.7, size=n), kind="stable"))
            band = rank // int(rng.integers(1, 4))
            column = (band - int(rng.integers(0, band.max() + 1))).astype(np.float64)
        else:  # one sign
            column = rng.choice(levels, size=n) * (1.0 if kind == 2 else -1.0)
            if kind != 4:
                column *= rng.random(n) < rng.uniform(0.3, 0.9)
        columns.append(column)
    return dense_to_matrix(np.column_stack(columns) + 0.0, y)


def curvature_matrices(rng: np.random.Generator, count: int):
    """`fit_matrices` draws, then one-row and one-column matrices, and
    non-negative ones (as TF-IDF is)."""
    yield from fit_matrices(rng, count)
    for trial in range(count):
        shape = ((1, int(rng.integers(1, 12))), (int(rng.integers(1, 40)), 1))[trial % 2]
        X = rng.normal(size=shape) * (rng.random(shape) < 0.7)
        yield dense_to_matrix(X + 0.0, [0] * shape[0])
        yield oracle_matrix(rng, nonneg=True)


class TestStepSizes:
    """The step sizes against dense eigenvalues (``np.linalg.eigvalsh``):
    the weights' curvature bound is a bound, and a tight one on TF-IDF
    rows, and diag(L) bounds each fit's Hessian."""

    @staticmethod
    def _largest_eigenvalue(X: np.ndarray) -> float:
        """lambda_max(X^T X) / n, from the smaller of X^T X and X X^T."""
        gram = X.T @ X if X.shape[1] <= X.shape[0] else X @ X.T
        return float(np.linalg.eigvalsh(gram)[-1]) / len(X)

    def test_weight_curvature_bounds_the_largest_eigenvalue(self):
        rng = np.random.default_rng(88)
        for trial, matrix in enumerate(curvature_matrices(rng, 60)):
            bound = matrix.csr.gram_bound / len(matrix)
            assert bound >= self._largest_eigenvalue(to_dense(matrix)) * (1 - 1e-12), trial

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TestConvergence._arm(False),
            lambda: TestConvergence._arm(True),
            lambda: TestConvergence._zipf_matrix(400, 3),
        ],
        ids=["raw", "smote", "zipf"],
    )
    def test_weight_curvature_is_within_one_percent_on_tfidf_rows(self, build):
        matrix = build()
        bound = matrix.csr.gram_bound / len(matrix)
        assert bound <= 1.01 * self._largest_eigenvalue(to_dense(matrix))

    def test_steps_bound_the_hessian(self):
        # With S = diag(1/L), the largest eigenvalue of S^1/2 H S^1/2 is at
        # most 1, for H = c X~^T X~ / n + diag(ridge): logistic (c = 1/4,
        # bias not regularized) and SVM (c = 2, lam on weights and bias).
        rng = np.random.default_rng(89)
        for trial, matrix in enumerate(curvature_matrices(rng, 40)):
            n = len(matrix)
            X_aug = np.hstack([to_dense(matrix), np.ones((n, 1))])
            l2, lam = (1e-4, 0.0, 0.05)[trial % 3], 1.0 / n
            for curvature, ridge_w, ridge_b in ((0.25, l2, 0.0), (2.0, lam, lam)):
                ridge = np.append(np.full(matrix.dim, ridge_w), ridge_b)
                hessian = curvature * (X_aug.T @ X_aug) / n + np.diag(ridge)
                root = np.sqrt(classify._step_sizes(matrix.csr, curvature, ridge_w, ridge_b))
                scaled = root[:, None] * hessian * root[None, :]
                assert np.linalg.eigvalsh(scaled)[-1] <= 1.0 + 1e-12, trial


# Fits a saved matrix's logistic and SVM models, each on a new view of it,
# and prints their weights and bias as float.hex strings.
_FRESH_FITS = """
import json, sys
import numpy as np
from textbalance.classify import TrainConfig, train
from textbalance.vectorize import CsrView, FeatureMatrix
saved = np.load(sys.argv[1])
hexes = []
for algorithm in ("logistic", "svm"):
    csr = CsrView(saved["indptr"], saved["indices"], saved["data"], 25)
    model = train(FeatureMatrix(csr, tuple(saved["labels"].tolist())), TrainConfig(algorithm))
    hexes.append([*map(float.hex, model.weights), model.bias.hex()])
print(json.dumps(hexes))
"""


class TestSparseProducts:
    """`CsrView.rmatvec` is the one matrix-vector product, for fitting and
    for scoring.  The first linear fit on a view transposes X and makes two
    calls per power step of its step-size bound, on |X|'s and |Xt|'s
    arrays; the view keeps both.  Every fit makes two calls per epoch, Xw
    as ``Xt.rmatvec(w)`` and Xᵀr as ``X.rmatvec(r)``.  NB's class masses
    are one call per class, linear scoring one transpose and one call, and
    the `scatter` projection one transpose and two calls."""

    @staticmethod
    def count_products(monkeypatch):
        """Count the transposes built, not read from a view's cache, and
        the `rmatvec` calls."""
        calls = {"transpose": 0, "rmatvec": 0}
        transposes = []
        build, rmatvec = CsrView.__dict__["_transposed"].func, CsrView.rmatvec

        def counted_build(self):
            calls["transpose"] += 1
            transposes.append(build(self))
            return transposes[-1]

        def counted_rmatvec(self, residuals):
            calls["rmatvec"] += 1
            return rmatvec(self, residuals)

        counted = cached_property(counted_build)
        counted.__set_name__(CsrView, "_transposed")
        monkeypatch.setattr(CsrView, "_transposed", counted)
        monkeypatch.setattr(CsrView, "rmatvec", counted_rmatvec)
        return calls, transposes

    @pytest.mark.parametrize("algorithm", ["logistic", "svm"])
    def test_one_transpose_per_linear_fit(self, monkeypatch, algorithm):
        matrix = rand_matrix(np.random.default_rng(85), n0=12, n1=9, dim=15)
        first = TrainConfig(algorithm=algorithm)
        second = TrainConfig(algorithm="svm" if algorithm == "logistic" else "logistic")
        # Each fit stops before its cap, at the reference's epoch.
        epochs = [
            {"logistic": oracles.logistic_fit, "svm": oracles.svm_fit}[c.algorithm](matrix, c)[2]
            for c in (first, second)
        ]
        assert max(epochs) < first.epochs
        calls, transposes = self.count_products(monkeypatch)
        train(matrix, first)
        # Two per power step of the step-size bound, then two per epoch.
        assert calls == {"transpose": 1, "rmatvec": 2 * epochs[0] + 16}
        # The fit reads no entry's row of the transpose, so it never builds them.
        assert "row_ids" not in vars(transposes[0])
        # A second fit on the same view reuses its transpose and its bound.
        train(matrix, second)
        assert calls == {"transpose": 1, "rmatvec": 2 * sum(epochs) + 16}

    @pytest.mark.parametrize("algorithm", ["logistic", "svm"])
    def test_linear_scoring_is_one_transpose_and_one_rmatvec(self, monkeypatch, algorithm):
        rng = np.random.default_rng(86)
        matrix = rand_matrix(rng, n0=12, n1=9, dim=15)
        model = train(matrix, TrainConfig(algorithm=algorithm, epochs=3))
        calls, _ = self.count_products(monkeypatch)
        predict_batch(model, rand_matrix(rng, n0=5, n1=4, dim=15))
        assert calls == {"transpose": 1, "rmatvec": 1}

    @pytest.mark.parametrize("n0, n1", [(12, 9), (0, 9), (12, 0)], ids=["both", "ones", "zeros"])
    def test_nb_fit_is_one_rmatvec_per_class(self, monkeypatch, n0, n1):
        matrix = rand_matrix(np.random.default_rng(87), n0=n0, n1=n1, dim=15, nonneg=True)
        assert "row_ids" not in vars(matrix.csr)
        calls, _ = self.count_products(monkeypatch)
        train(matrix, TrainConfig(algorithm="nb"))
        assert calls == {"transpose": 0, "rmatvec": (n0 > 0) + (n1 > 0)}
        # The class masses read no entry's row.
        assert "row_ids" not in vars(matrix.csr)

    def test_scatter_projection_is_one_transpose_and_two_rmatvecs(self, monkeypatch):
        matrix = rand_matrix(np.random.default_rng(88), n0=12, n1=9, dim=15)
        calls, _ = self.count_products(monkeypatch)
        cli._project_rows(matrix, 5)
        assert calls == {"transpose": 1, "rmatvec": 2}

    def test_csr_view_has_no_matmul(self):
        assert not hasattr(CsrView, "__matmul__")

    def test_no_transpose_or_bound_leaks_between_matrices(self, tmp_path):
        # Two matrices of one shape, each fitted by both linear fits in turn
        # in this process, equal each fit on a view of its own in a fresh
        # interpreter, bit for bit.
        rng = np.random.default_rng(90)
        fitted = []
        for index in range(2):
            matrix = rand_matrix(rng, n0=14, n1=9, dim=25)
            X = matrix.csr
            np.savez(
                tmp_path / f"m{index}.npz", indptr=X.indptr, indices=X.indices, data=X.data,
                labels=matrix.labels_array(),
            )
            for algorithm in ("logistic", "svm"):
                model = train(matrix, TrainConfig(algorithm=algorithm))
                fitted.append([*map(float.hex, model.weights), model.bias.hex()])
        fresh = []
        for index in range(2):
            child = subprocess.run(
                [sys.executable, "-c", _FRESH_FITS, str(tmp_path / f"m{index}.npz")],
                env=child_environ({}), capture_output=True, text=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr
            fresh += json.loads(child.stdout)
        assert fitted == fresh


class TestSigmoid:
    """The one-exp sigmoid equals the masked two-exp form bit for bit."""

    def test_edge_values(self):
        tiny = np.nextafter(0.0, 1.0)
        edges = np.array(
            [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 2.2250738585072014e-308,
             709.78, -709.78, 745.2, -745.2, 1e308, -1e308, 36.7, -36.7]
        )
        assert np.array_equal(_bits(classify._sigmoid(edges)), _bits(oracles.masked_sigmoid(edges)))

    @pytest.mark.parametrize("scale", [10.0, 800.0])
    def test_random_values(self, scale):
        z = np.random.default_rng(int(scale)).normal(size=100_000) * scale
        assert np.array_equal(_bits(classify._sigmoid(z)), _bits(oracles.masked_sigmoid(z)))

    def test_nan_stays_nan(self):
        out = classify._sigmoid(np.array([np.nan, 1.0, -np.nan, -1.0]))
        assert np.isnan(out[[0, 2]]).all() and not np.isnan(out[[1, 3]]).any()
