"""Self-describing model files: TF-IDF model + classifier + provenance.

Bundles are single JSON documents with sorted keys and shortest
round-trip number encoding, so loading a bundle and re-serializing it is
byte-identical and bundles diff cleanly.  An unexpected format_version is
rejected, never migrated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .classify import (
    ALGORITHMS,
    DecisionTreeModel,
    LinearSvmModel,
    LogisticModel,
    MultinomialNBModel,
    TrainedClassifier,
    TreeNode,
)
from .vectorize import TfIdfModel

FORMAT_VERSION = 1


class BundleError(ValueError):
    """Raised for unreadable, corrupt, or wrong-version bundle files."""


@dataclass(frozen=True)
class PreprocessConfig:
    min_token_len: int
    stopwords_name: str
    stopwords_sha256: str

    def to_dict(self) -> dict:
        return {
            "min_token_len": self.min_token_len,
            "stopwords_name": self.stopwords_name,
            "stopwords_sha256": self.stopwords_sha256,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PreprocessConfig":
        return cls(
            min_token_len=data["min_token_len"],
            stopwords_name=data["stopwords_name"],
            stopwords_sha256=data["stopwords_sha256"],
        )


@dataclass
class ModelBundle:
    tfidf: TfIdfModel
    classifier: TrainedClassifier
    preprocess_config: PreprocessConfig
    provenance: dict
    format_version: int = FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "tfidf": tfidf_to_dict(self.tfidf),
            "classifier": classifier_to_dict(self.classifier),
            "preprocess_config": self.preprocess_config.to_dict(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelBundle":
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise BundleError(
                f"unsupported bundle format_version {version!r} (expected {FORMAT_VERSION})"
            )
        try:
            bundle = cls(
                tfidf=tfidf_from_dict(data["tfidf"]),
                classifier=classifier_from_dict(data["classifier"]),
                preprocess_config=PreprocessConfig.from_dict(data["preprocess_config"]),
                provenance=data["provenance"],
                format_version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, BundleError):
                raise
            raise BundleError(f"malformed bundle: {exc}") from exc
        _require(
            bundle.classifier.dim == bundle.tfidf.dim,
            f"classifier dim {bundle.classifier.dim} != TF-IDF dim {bundle.tfidf.dim}",
        )
        return bundle


def canonical_json(obj) -> str:
    """Sorted keys, two-space indent, shortest-repr numbers, one trailing \\n."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def tfidf_to_dict(model: TfIdfModel) -> dict:
    return {
        "terms": list(model.terms),
        "doc_freq": list(model.doc_freq),
        "n_docs": model.n_docs,
    }


def tfidf_from_dict(data: dict) -> TfIdfModel:
    return TfIdfModel(
        terms=tuple(data["terms"]),
        doc_freq=tuple(int(v) for v in data["doc_freq"]),
        n_docs=int(data["n_docs"]),
    )


def classifier_to_dict(model: TrainedClassifier) -> dict:
    if isinstance(model, MultinomialNBModel):
        return {
            "algorithm": "nb",
            "dim": model.dim,
            "class_labels": list(model.class_labels),
            "class_log_prior": list(model.class_log_prior),
            "feature_log_prob": [list(row) for row in model.feature_log_prob],
        }
    if isinstance(model, LogisticModel):
        return {
            "algorithm": "logistic",
            "dim": model.dim,
            "weights": list(model.weights),
            "bias": model.bias,
        }
    if isinstance(model, LinearSvmModel):
        return {
            "algorithm": "svm",
            "dim": model.dim,
            "weights": list(model.weights),
            "bias": model.bias,
        }
    if isinstance(model, DecisionTreeModel):
        nodes = []
        for node in model.nodes:
            if node.is_leaf:
                nodes.append({"label": node.label})
            else:
                nodes.append(
                    {
                        "feature": node.feature,
                        "threshold": node.threshold,
                        "left": node.left,
                        "right": node.right,
                    }
                )
        return {"algorithm": "tree", "dim": model.dim, "nodes": nodes}
    raise BundleError(f"unknown classifier type {type(model).__name__}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleError(message)


def _finite_floats(values, what: str) -> tuple[float, ...]:
    floats = tuple(float(v) for v in values)
    _require(all(math.isfinite(v) for v in floats), f"{what} holds a non-finite number")
    return floats


def _tree_node(raw: dict, dim: int) -> TreeNode:
    if "label" in raw:
        label = int(raw["label"])
        _require(label in (0, 1), f"tree leaf label {label} is not 0 or 1")
        return TreeNode(label=label)
    feature = int(raw["feature"])
    _require(0 <= feature < dim, f"tree feature {feature} outside [0, {dim})")
    return TreeNode(
        feature=feature,
        threshold=_finite_floats([raw["threshold"]], "tree threshold")[0],
        left=int(raw["left"]),
        right=int(raw["right"]),
    )


def _require_tree_shape(nodes: tuple[TreeNode, ...]) -> None:
    """Children in range, and every node reached exactly once from node 0,
    so prediction always ends at a leaf."""
    _require(len(nodes) > 0, "tree has no nodes")
    reached = [False] * len(nodes)
    pending = [0]
    while pending:
        i = pending.pop()
        _require(0 <= i < len(nodes), f"tree child {i} outside [0, {len(nodes)})")
        _require(not reached[i], f"tree node {i} is reached more than once")
        reached[i] = True
        if not nodes[i].is_leaf:
            pending += [nodes[i].left, nodes[i].right]
    if not all(reached):
        raise BundleError(f"tree node {reached.index(False)} is unreachable")


def classifier_from_dict(data: dict) -> TrainedClassifier:
    """Rebuild a classifier, checking that its tables fit its dim, that every
    float is finite and that a tree is a tree."""
    algorithm = data.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise BundleError(f"unknown classifier algorithm {algorithm!r}")
    dim = int(data["dim"])
    _require(dim >= 0, f"negative classifier dim {dim}")
    if algorithm == "nb":
        labels = tuple(int(v) for v in data["class_labels"])
        _require(labels in ((0,), (1,), (0, 1)), f"nb class_labels {list(labels)} invalid")
        priors = _finite_floats(data["class_log_prior"], "nb class_log_prior")
        tables = tuple(
            _finite_floats(row, "nb feature_log_prob") for row in data["feature_log_prob"]
        )
        _require(
            len(priors) == len(tables) == len(labels) and all(len(t) == dim for t in tables),
            f"nb tables must be {len(labels)} x {dim}",
        )
        return MultinomialNBModel(
            dim=dim, class_labels=labels, class_log_prior=priors, feature_log_prob=tables
        )
    if algorithm in ("logistic", "svm"):
        weights = _finite_floats(data["weights"], f"{algorithm} weights")
        _require(len(weights) == dim, f"{algorithm} dim {dim} but {len(weights)} weights")
        model = LogisticModel if algorithm == "logistic" else LinearSvmModel
        return model(
            dim=dim, weights=weights, bias=_finite_floats([data["bias"]], "bias")[0]
        )
    nodes = tuple(_tree_node(raw, dim) for raw in data["nodes"])
    _require_tree_shape(nodes)
    return DecisionTreeModel(dim=dim, nodes=nodes)


def save_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_text(canonical_json(bundle.to_dict()), encoding="utf-8")


def load_bundle(path) -> ModelBundle:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path}: not valid JSON ({exc.msg})") from exc
    if not isinstance(data, dict):
        raise BundleError(f"{path}: bundle must be a JSON object")
    return ModelBundle.from_dict(data)
