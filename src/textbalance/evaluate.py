"""Confusion matrices, spam-positive metrics, and SMOTE comparison reports.

The positive class is fixed to label 1 (spam).  Precision, recall, and F1
may be undefined when their denominators are zero; reports keep an explicit
undefined flag and render such cells as 0.0 in table output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .classify import ALGORITHM_TITLES, TrainConfig, predict_batch, train
from .resample import ResampleReport, SmoteConfig, balance_training_set
from .vectorize import FeatureMatrix

POSITIVE_CLASS = 1


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy/precision/recall/F1; None marks an undefined ratio."""

    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    confusion: ConfusionMatrix
    positive_class: int = POSITIVE_CLASS

    def undefined_metrics(self) -> list[str]:
        names = []
        for name in ("precision", "recall", "f1"):
            if getattr(self, name) is None:
                names.append(name)
        return names

    def rendered(self, name: str) -> float:
        """Table-output value: undefined metrics render as 0.0."""
        value = getattr(self, name)
        return 0.0 if value is None else value

    def to_dict(self) -> dict:
        return {**asdict(self), "undefined": self.undefined_metrics()}


def confusion(predicted: list[int], actual: list[int]) -> ConfusionMatrix:
    """Count TP/FP/FN/TN with label 1 as the positive class."""
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions vs {len(actual)} labels"
        )
    if not predicted:
        raise ValueError("cannot build a confusion matrix from empty inputs")
    tp = fp = fn = tn = 0
    for p, a in zip(predicted, actual):
        if p not in (0, 1) or a not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got pred={p!r} actual={a!r}")
        if p == 1 and a == 1:
            tp += 1
        elif p == 1 and a == 0:
            fp += 1
        elif p == 0 and a == 1:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics(matrix: ConfusionMatrix) -> MetricsReport:
    if matrix.total == 0:
        raise ValueError("cannot compute metrics for an empty confusion matrix")
    accuracy = (matrix.tp + matrix.tn) / matrix.total
    precision = matrix.tp / (matrix.tp + matrix.fp) if matrix.tp + matrix.fp > 0 else None
    recall = matrix.tp / (matrix.tp + matrix.fn) if matrix.tp + matrix.fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricsReport(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1, confusion=matrix
    )


def evaluate_model(model, test: FeatureMatrix) -> MetricsReport:
    """Predict over a test matrix and score against its labels."""
    return metrics(confusion(predict_batch(model, test), list(test.labels)))


@dataclass
class ComparisonReport:
    """Per-algorithm with/without-SMOTE metric pairs over one test set."""

    cells: dict[str, dict[str, MetricsReport]]
    metadata: dict = field(default_factory=dict)
    resample: ResampleReport | None = None

    ARMS = ("with_smote", "without_smote")

    def to_dict(self) -> dict:
        return {
            "algorithms": {
                algo: {arm: report.to_dict() for arm, report in arms.items()}
                for algo, arms in self.cells.items()
            },
            "metadata": self.metadata,
            "resample": self.resample.to_dict() if self.resample else None,
        }

    def to_text_table(self) -> str:
        algos = list(self.cells)
        header_top = ["Metric"]
        header_sub = [""]
        for algo in algos:
            title = ALGORITHM_TITLES.get(algo, algo)
            header_top.extend([title, ""])
            header_sub.extend(["With SMOTE", "Without SMOTE"])
        rows = [header_top, header_sub]
        any_undefined = False
        for metric_name, label in (
            ("accuracy", "Accuracy"),
            ("precision", "Precision"),
            ("recall", "Recall"),
            ("f1", "F1 Score"),
        ):
            row = [label]
            for algo in algos:
                for arm in self.ARMS:
                    report = self.cells[algo][arm]
                    value = getattr(report, metric_name)
                    if value is None:
                        any_undefined = True
                        row.append("0.000*")
                    else:
                        row.append(f"{value:.3f}")
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = [
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        if any_undefined:
            lines.append("* undefined metric (zero denominator), rendered as 0.0")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["algorithm,arm,accuracy,precision,recall,f1"]
        for algo, arms in self.cells.items():
            for arm in self.ARMS:
                report = arms[arm]
                cells = [algo, arm] + [
                    repr(report.rendered(m)) for m in ("accuracy", "precision", "recall", "f1")
                ]
                lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def compare(
    train_matrix: FeatureMatrix,
    test_matrix: FeatureMatrix,
    configs: list[TrainConfig],
    smote_config: SmoteConfig,
) -> ComparisonReport:
    """Train each config's algorithm with and without SMOTE-balanced
    training data and evaluate both arms on the untouched test matrix.
    Each algorithm may appear at most once: the report has one cell per
    algorithm."""
    if train_matrix.dim != test_matrix.dim:
        raise ValueError(
            f"train dim {train_matrix.dim} != test dim {test_matrix.dim}"
        )
    algorithms = [config.algorithm for config in configs]
    for i, algorithm in enumerate(algorithms):
        if algorithm in algorithms[:i]:
            raise ValueError(f"algorithm {algorithm!r} appears in more than one config")
    balanced, resample_report = balance_training_set(train_matrix, smote_config)

    cells: dict[str, dict[str, MetricsReport]] = {}
    configs_used: dict[str, dict] = {}
    for config in configs:
        with_model = train(balanced, config)
        without_model = train(train_matrix, config)
        cells[config.algorithm] = {
            "with_smote": evaluate_model(with_model, test_matrix),
            "without_smote": evaluate_model(without_model, test_matrix),
        }
        configs_used[config.algorithm] = config.to_dict()

    metadata = {
        "smote_config": smote_config.to_dict(),
        "train_configs": configs_used,
        "train_digest": train_matrix.digest(),
        "test_digest": test_matrix.digest(),
        "train_rows": len(train_matrix),
        "test_rows": len(test_matrix),
    }
    return ComparisonReport(cells=cells, metadata=metadata, resample=resample_report)
