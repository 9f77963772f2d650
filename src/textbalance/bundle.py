"""Self-describing model files: TF-IDF model + classifier + provenance.

Bundles are single JSON documents with sorted keys and shortest
round-trip number encoding, so loading a bundle and re-serializing it is
byte-identical and bundles diff cleanly.  An unexpected format_version is
rejected, never migrated.

Each record's keys are its dataclass's field names, read by `_fields`,
which shares the model's tuples rather than copying them (JSON writes a
tuple as a list).  The NB record adds its ``algorithm`` tag, and a tree
writes its tag, dim and one record per entry of its node columns: a
leaf's label, or a split's feature, threshold and children.
`write_json` writes every JSON file the package produces: bundles, split
manifests, and metric, resample and comparison reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .classify import (
    ALGORITHMS,
    DecisionTreeModel,
    LinearModel,
    MultinomialNBModel,
    TrainedClassifier,
)
from .preprocess import filter_tokens, tokenize
from .stopwords import StopWordList
from .vectorize import TfIdfModel

FORMAT_VERSION = 1


class BundleError(ValueError):
    """Raised for unreadable, corrupt, or wrong-version bundle files."""


@dataclass(frozen=True)
class PreprocessConfig:
    min_token_len: int
    stopwords_name: str
    stopwords_sha256: str

    @classmethod
    def from_dict(cls, data: dict) -> "PreprocessConfig":
        config = cls(**{f.name: data[f.name] for f in fields(cls)})
        _require(
            type(config.min_token_len) is int and config.min_token_len >= 1,
            f"min_token_len {config.min_token_len!r} is not an integer >= 1",
        )
        _require(
            isinstance(config.stopwords_name, str) and isinstance(config.stopwords_sha256, str),
            "stop-list name and sha256 must be strings",
        )
        return config


@dataclass
class ModelBundle:
    tfidf: TfIdfModel
    classifier: TrainedClassifier
    preprocess_config: PreprocessConfig
    provenance: dict

    def to_dict(self) -> dict:
        return {
            **_fields(self),
            "format_version": FORMAT_VERSION,
            "tfidf": tfidf_to_dict(self.tfidf),
            "classifier": classifier_to_dict(self.classifier),
            "preprocess_config": _fields(self.preprocess_config),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelBundle":
        version = data.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise BundleError(
                f"unsupported bundle format_version {version!r} (expected {FORMAT_VERSION})"
            )
        try:
            bundle = cls(
                tfidf=tfidf_from_dict(data["tfidf"]),
                classifier=classifier_from_dict(data["classifier"]),
                preprocess_config=PreprocessConfig.from_dict(data["preprocess_config"]),
                provenance=data["provenance"],
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

    def check_vocabulary(self, stops: StopWordList) -> None:
        """Require every term to be a token that `preprocess.filter_tokens`
        keeps, under min_token_len and ``stops`` (the bundle's own list), and
        its own `tokenize` output.  Filtering then changes no vector, so
        serving may skip it."""
        min_len = self.preprocess_config.min_token_len
        kept = set(filter_tokens(self.tfidf.terms, stops, min_len))
        for term in self.tfidf.terms:
            _require(term in kept, f"term {term!r} is shorter than {min_len} or a stop word")
            _require(tokenize(term) == [term], f"term {term!r} is not a single token")


def canonical_json(obj) -> str:
    """Sorted keys, two-space indent, shortest-repr numbers, one trailing \\n."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as UTF-8 `canonical_json`."""
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def _fields(record) -> dict:
    """A dataclass's fields by name; the values are shared, not copied
    (`dataclasses.asdict` would deep-copy every table entry)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def tfidf_to_dict(model: TfIdfModel) -> dict:
    return _fields(model)


def tfidf_from_dict(data: dict) -> TfIdfModel:
    terms = tuple(_table(data["terms"], "TF-IDF terms"))
    doc_freq = tuple(_table(data["doc_freq"], "TF-IDF doc_freq"))
    n_docs = data["n_docs"]
    _require(all(isinstance(t, str) for t in terms), "TF-IDF terms must be strings")
    _require(len(set(terms)) == len(terms), "TF-IDF terms must be unique")
    _require(
        all(type(v) is int for v in (*doc_freq, n_docs)), "doc_freq and n_docs must be integers"
    )
    # idf divides n_docs by a doc_freq in [1, n_docs]; a 64-bit count keeps that a float.
    _require(0 <= n_docs < 2**63, "n_docs does not fit a 64-bit count")
    return TfIdfModel(terms=terms, doc_freq=doc_freq, n_docs=n_docs)


def classifier_to_dict(model: TrainedClassifier) -> dict:
    if isinstance(model, MultinomialNBModel):
        return {"algorithm": "nb", **_fields(model)}
    if isinstance(model, LinearModel):
        return _fields(model)
    if isinstance(model, DecisionTreeModel):
        nodes = [
            {"label": label}
            if label >= 0
            else {"feature": feature, "threshold": threshold, "left": left, "right": right}
            for feature, threshold, left, right, label in zip(
                model.feature, model.threshold, model.left, model.right, model.label
            )
        ]
        return {"algorithm": "tree", "dim": model.dim, "nodes": nodes}
    raise BundleError(f"unknown classifier type {type(model).__name__}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleError(message)


def _integer(value, what: str) -> int:
    _require(type(value) is int, f"{what} {value!r} is not an integer")
    return value


def _table(values, what: str):
    """``values`` if it is a JSON array (a tuple in an in-memory record)."""
    _require(isinstance(values, (list, tuple)), f"{what} must be an array")
    return values


def _finite_floats(values, what: str) -> tuple[float, ...]:
    """Each item as a float; JSON numbers only, never strings or booleans."""
    numbers = _table(values, what)
    _require(all(type(v) in (int, float) for v in numbers), f"{what} holds a non-number")
    try:
        floats = tuple(float(v) for v in numbers)
    except OverflowError:  # a JSON integer beyond the float range
        raise BundleError(f"{what} holds a non-finite number") from None
    _require(all(math.isfinite(v) for v in floats), f"{what} holds a non-finite number")
    return floats


def _tree_node(raw: dict, dim: int) -> tuple:
    """A node record as (feature, threshold, left, right, label), with
    `DecisionTreeModel`'s fill values."""
    if "label" in raw:
        label = _integer(raw["label"], "tree leaf label")
        _require(label in (0, 1), f"tree leaf label {label} is not 0 or 1")
        return -1, 0.0, -1, -1, label
    feature = _integer(raw["feature"], "tree feature")
    _require(0 <= feature < dim, f"tree feature {feature} outside [0, {dim})")
    return (
        feature,
        _finite_floats([raw["threshold"]], "tree threshold")[0],
        _integer(raw["left"], "tree child"),
        _integer(raw["right"], "tree child"),
        -1,
    )


def _require_tree_shape(tree: DecisionTreeModel) -> None:
    """Children in range, and every node reached exactly once from node 0,
    so prediction always ends at a leaf."""
    n = len(tree.label)
    reached = [False] * n
    pending = [0]
    while pending:
        i = pending.pop()
        _require(0 <= i < n, f"tree child {i} outside [0, {n})")
        _require(not reached[i], f"tree node {i} is reached more than once")
        reached[i] = True
        if tree.label[i] < 0:
            pending += [tree.left[i], tree.right[i]]
    if not all(reached):
        raise BundleError(f"tree node {reached.index(False)} is unreachable")


def classifier_from_dict(data: dict) -> TrainedClassifier:
    """Rebuild a classifier, checking that its tables fit its dim, that every
    float is finite and that a tree is a tree."""
    _require(isinstance(data, dict), "classifier must be a JSON object")
    algorithm = data.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise BundleError(f"unknown classifier algorithm {algorithm!r}")
    dim = _integer(data["dim"], "classifier dim")
    _require(dim >= 0, f"negative classifier dim {dim}")
    if algorithm == "nb":
        labels = tuple(
            _integer(v, "nb class label") for v in _table(data["class_labels"], "nb class_labels")
        )
        _require(labels in ((0,), (1,), (0, 1)), f"nb class_labels {list(labels)} invalid")
        priors = _finite_floats(data["class_log_prior"], "nb class_log_prior")
        tables = tuple(
            _finite_floats(row, "nb feature_log_prob")
            for row in _table(data["feature_log_prob"], "nb feature_log_prob")
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
        return LinearModel(algorithm, dim, weights, _finite_floats([data["bias"]], "bias")[0])
    nodes = [_tree_node(raw, dim) for raw in _table(data["nodes"], "tree nodes")]
    _require(len(nodes) > 0, "tree has no nodes")
    tree = DecisionTreeModel(dim, *zip(*nodes))
    _require_tree_shape(tree)
    return tree


def save_bundle(bundle: ModelBundle, path) -> None:
    write_json(bundle.to_dict(), path)


def load_bundle(path) -> ModelBundle:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path}: not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise BundleError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise BundleError(f"{path}: bundle must be a JSON object")
    return ModelBundle.from_dict(data)
