"""Imbalanced text classification toolkit: TF-IDF features, SMOTE
oversampling, and four small from-scratch classifiers with a
with/without-oversampling comparison harness.  Each public name and each
submodule is imported on first access (PEP 562), not with the package."""

import importlib

__version__ = "0.1.0"

# Each home module and the public names it gives the package.
_EXPORTS = {
    "bundle": ("ModelBundle", "PreprocessConfig", "load_bundle", "save_bundle"),
    "classify": ("ALGORITHMS", "TrainConfig", "predict", "predict_batch", "train"),
    "evaluate": ("ComparisonReport", "ConfusionMatrix", "MetricsReport", "compare", "evaluate_model"),
    "ingest": ("Corpus", "DatasetSplit", "LabeledDocument", "load_corpus", "split"),
    "preprocess": ("filter_tokens", "preprocess_corpus", "strip_html", "tokenize"),
    "resample": ("ResampleReport", "SmoteConfig", "balance_training_set"),
    "rng": ("SplitMix64", "derive_stream"),
    "stopwords": ("StopWordList", "default_stopwords", "load_stopwords"),
    "vectorize": ("FeatureMatrix", "TfIdfModel", "fit", "transform", "transform_corpus"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    if name in _HOME:
        value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
