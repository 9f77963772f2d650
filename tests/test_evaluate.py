"""Confusion matrices, metric edge cases, and the comparison harness."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dense_to_matrix
from textbalance import evaluate as evaluate_mod
from textbalance.classify import TrainConfig, train
from textbalance.evaluate import (
    ComparisonReport,
    ConfusionMatrix,
    MetricsReport,
    compare,
    confusion,
    evaluate_model,
    metrics,
)
from textbalance.resample import SmoteConfig


def recount_oracle(predicted, actual):
    """Per-sample recount of all four cells, independent of confusion()."""
    cells = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for p, a in zip(predicted, actual):
        key = {(1, 1): "tp", (1, 0): "fp", (0, 1): "fn", (0, 0): "tn"}[(p, a)]
        cells[key] += 1
    return cells


class TestConfusion:
    def test_hand_case(self):
        pred = [1, 1, 0, 0, 1]
        act = [1, 0, 1, 0, 1]
        m = confusion(pred, act)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)
        assert m.total == 5

    def test_matches_recount_on_random_vectors(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            pred = [int(v) for v in rng.integers(0, 2, n)]
            act = [int(v) for v in rng.integers(0, 2, n)]
            m = confusion(pred, act)
            assert m.to_dict() == recount_oracle(pred, act)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion([1], [1, 0])
        with pytest.raises(ValueError):
            confusion([], [])
        with pytest.raises(ValueError):
            confusion([2], [0])
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


class TestMetrics:
    def test_mixed_hand_case(self):
        report = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
        assert report.accuracy == pytest.approx(0.7)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.6)
        assert report.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert report.undefined_metrics() == []

    def test_perfect_prediction(self):
        report = metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            1.0,
            1.0,
            1.0,
            1.0,
        )

    def test_precision_one_recall_point_seven(self):
        # 14 of 20 spam caught, no false alarms: F1 = 14/17 ~ 0.8235.
        report = metrics(ConfusionMatrix(tp=14, fp=0, fn=6, tn=20))
        assert report.precision == 1.0
        assert report.recall == pytest.approx(0.7)
        assert report.f1 == pytest.approx(0.8235294117647058, abs=1e-12)
        assert abs(report.f1 - 0.82) < 0.005

    def test_all_negative_predictions_over_95_5(self):
        # 95 ham + 5 spam, everything predicted ham: high accuracy, zero
        # recall, undefined precision.
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=95))
        assert report.accuracy == 0.95
        assert report.recall == 0.0
        assert report.precision is None
        assert report.f1 is None
        assert report.undefined_metrics() == ["precision", "f1"]
        assert report.rendered("precision") == 0.0
        assert report.rendered("accuracy") == 0.95

    def test_no_actual_positives_undefines_recall(self):
        report = metrics(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8))
        assert report.recall is None
        assert report.precision == 0.0
        assert report.f1 is None

    def test_zero_precision_and_recall_undefines_f1(self):
        report = metrics(ConfusionMatrix(tp=0, fp=3, fn=3, tn=4))
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 is None

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=0))

    def test_metrics_match_formulas_on_random_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 20, 4))
            if tp + fp + fn + tn == 0:
                continue
            report = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            assert report.accuracy == pytest.approx((tp + tn) / (tp + fp + fn + tn))
            if tp + fp > 0:
                assert report.precision == pytest.approx(tp / (tp + fp))
            else:
                assert report.precision is None
            if tp + fn > 0:
                assert report.recall == pytest.approx(tp / (tp + fn))
            else:
                assert report.recall is None

    def test_to_dict_keeps_none_and_lists_undefined(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=95))
        data = report.to_dict()
        assert data["precision"] is None
        assert data["undefined"] == ["precision", "f1"]
        assert data["confusion"] == {"tp": 0, "fp": 0, "fn": 5, "tn": 95}


def two_cluster_matrices():
    """Imbalanced train (12 vs 4) and balanced test from the same clusters."""
    rng = np.random.default_rng(32)

    def cluster(center, n):
        return np.clip(center + rng.normal(0, 0.08, size=(n, 2)), 0.0, None)

    X_train = np.vstack([cluster(np.array([1.0, 0.0]), 12), cluster(np.array([0.0, 1.0]), 4)])
    X_test = np.vstack([cluster(np.array([1.0, 0.0]), 6), cluster(np.array([0.0, 1.0]), 6)])
    train_m = dense_to_matrix(X_train, [0] * 12 + [1] * 4)
    test_m = dense_to_matrix(X_test, [0] * 6 + [1] * 6)
    return train_m, test_m


class TestEvaluateModel:
    def test_per_row_scoring(self):
        train_m, test_m = two_cluster_matrices()
        model = train(train_m, TrainConfig(algorithm="nb"))
        report = evaluate_model(model, test_m)
        assert report.matrix.total == len(test_m)
        assert 0.0 <= report.accuracy <= 1.0


def _configs(*algorithms):
    return [TrainConfig(algorithm=algo) for algo in algorithms]


class TestCompare:
    def test_structure_and_metadata(self):
        train_m, test_m = two_cluster_matrices()
        report = compare(train_m, test_m, _configs("nb", "svm"), SmoteConfig(k=3, seed=1))
        assert set(report.cells) == {"nb", "svm"}
        for arms in report.cells.values():
            assert set(arms) == set(ComparisonReport.ARMS)
            for cell in arms.values():
                assert isinstance(cell, MetricsReport)
        assert report.resample.minority_before == 4
        assert report.resample.majority == 12
        assert report.metadata["train_rows"] == 16
        assert report.metadata["test_rows"] == 12
        assert report.metadata["smote_config"]["k"] == 3
        assert "nb" in report.metadata["train_configs"]

    def test_without_arm_ignores_oversampling(self):
        # The without-SMOTE arm must equal training directly on the input.
        train_m, test_m = two_cluster_matrices()
        report = compare(train_m, test_m, _configs("nb"), SmoteConfig(seed=5))
        direct = evaluate_model(train(train_m, TrainConfig(algorithm="nb")), test_m)
        assert report.cells["nb"]["without_smote"] == direct

    def test_balanced_train_makes_arms_identical(self):
        # Oversampling a balanced set is a no-op, so both arms see the same model.
        train_m, test_m = two_cluster_matrices()
        balanced = dense_to_matrix(
            [[1.0, 0.1], [0.9, 0.0], [0.1, 1.0], [0.0, 0.9]], [0, 0, 1, 1]
        )
        report = compare(balanced, test_m, _configs("nb", "tree"), SmoteConfig(seed=2))
        assert report.resample.synthetic_created == 0
        for arms in report.cells.values():
            assert arms["with_smote"] == arms["without_smote"]

    def test_test_matrix_never_mutated(self):
        train_m, test_m = two_cluster_matrices()
        before = test_m.digest()
        compare(train_m, test_m, _configs("nb", "logistic", "svm", "tree"), SmoteConfig(seed=9))
        assert test_m.digest() == before

    def test_dim_mismatch_rejected(self):
        train_m, _ = two_cluster_matrices()
        bad_test = dense_to_matrix([[1.0, 0.0, 0.0]], [0])
        with pytest.raises(ValueError):
            compare(train_m, bad_test, _configs("nb"), SmoteConfig())

    def test_repeated_algorithm_rejected_before_any_fit(self, monkeypatch):
        # One cell per algorithm: a second nb config would overwrite the first.
        train_m, test_m = two_cluster_matrices()

        def never(*args):
            raise AssertionError("balanced or fitted before the configs were checked")

        monkeypatch.setattr(evaluate_mod, "balance_training_set", never)
        monkeypatch.setattr(evaluate_mod, "train", never)
        configs = [TrainConfig("nb"), TrainConfig("svm"), TrainConfig("nb", nb_alpha=5.0)]
        with pytest.raises(ValueError, match="algorithm 'nb' appears in more than one config"):
            compare(train_m, test_m, configs, SmoteConfig())

    def test_text_table_shape(self):
        train_m, test_m = two_cluster_matrices()
        report = compare(train_m, test_m, _configs("nb"), SmoteConfig(seed=2))
        table = report.to_text_table()
        lines = table.strip("\n").split("\n")
        assert lines[0].startswith("Metric")
        assert "With SMOTE" in lines[1] and "Without SMOTE" in lines[1]
        assert lines[2].startswith("Accuracy")
        assert lines[5].startswith("F1 Score")

    def test_text_table_footnote_only_when_undefined(self):
        defined = metrics(ConfusionMatrix(tp=3, fp=1, fn=1, tn=5))
        undefined = metrics(ConfusionMatrix(tp=0, fp=0, fn=4, tn=6))
        with_note = ComparisonReport(
            cells={"nb": {"with_smote": defined, "without_smote": undefined}}
        )
        without_note = ComparisonReport(
            cells={"nb": {"with_smote": defined, "without_smote": defined}}
        )
        assert "0.000*" in with_note.to_text_table()
        assert "rendered as 0.0" in with_note.to_text_table()
        assert "*" not in without_note.to_text_table()

    def test_csv_rows(self):
        train_m, test_m = two_cluster_matrices()
        report = compare(train_m, test_m, _configs("nb", "tree"), SmoteConfig(seed=3))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "algorithm,arm,accuracy,precision,recall,f1"
        assert len(lines) == 1 + 2 * 2
