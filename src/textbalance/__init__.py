"""Imbalanced text classification toolkit: TF-IDF features, SMOTE
oversampling, and four small from-scratch classifiers with a
with/without-oversampling comparison harness."""

from .bundle import ModelBundle, PreprocessConfig, load_bundle, save_bundle
from .classify import ALGORITHMS, TrainConfig, predict, predict_batch, train
from .evaluate import ComparisonReport, ConfusionMatrix, MetricsReport, compare, evaluate_model
from .ingest import Corpus, DatasetSplit, LabeledDocument, load_corpus, split
from .preprocess import filter_tokens, preprocess_corpus, strip_html, tokenize
from .resample import ResampleReport, SmoteConfig, balance_training_set
from .rng import SplitMix64, derive_stream
from .stopwords import StopWordList, default_stopwords, load_stopwords
from .vectorize import FeatureMatrix, TfIdfModel, fit, transform, transform_corpus

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ComparisonReport",
    "ConfusionMatrix",
    "Corpus",
    "DatasetSplit",
    "FeatureMatrix",
    "LabeledDocument",
    "MetricsReport",
    "ModelBundle",
    "PreprocessConfig",
    "ResampleReport",
    "SmoteConfig",
    "SplitMix64",
    "StopWordList",
    "TfIdfModel",
    "TrainConfig",
    "__version__",
    "balance_training_set",
    "compare",
    "default_stopwords",
    "derive_stream",
    "evaluate_model",
    "filter_tokens",
    "fit",
    "load_bundle",
    "load_corpus",
    "load_stopwords",
    "predict",
    "predict_batch",
    "preprocess_corpus",
    "save_bundle",
    "split",
    "strip_html",
    "tokenize",
    "train",
    "transform",
    "transform_corpus",
]
