"""Span tracing around the package's public functions, from outside it.

A `Tracer` wraps each traced function on every `textbalance` module
attribute that binds it (``evaluate`` imports ``train`` by name, and
``smote_trace`` calls ``knn`` through its module global, so wrapping one
binding is not enough).  Each call records a span (name, start, end,
parent) in memory; observers read sizes from arguments and results after
the span closes.  Self time is a span's duration minus the time its child
spans cover: calls are single-threaded and nested, so children never
overlap and their durations add up to their coverage.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = (
    "ingest",
    "preprocess",
    "stopwords",
    "vectorize",
    "resample",
    "classify",
    "evaluate",
    "bundle",
    "matrixio",
    "cli",
)
ALGORITHMS = ("nb", "logistic", "svm", "tree")
ARMS = ("smote", "raw")


class Tracer:
    """In-memory spans plus the counters observers fill in."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.deferred: list = []  # (callback, payload), run after the traced call
        self.balanced: list = []  # matrices returned by balance_training_set
        self.vocabularies: dict[int, frozenset] = {}  # id(TfIdfModel) -> its terms
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        spans = self.spans
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def finish(self) -> None:
        for callback, payload in self.deferred:
            callback(self, payload)
        self.deferred.clear()

    # -- derived numbers -------------------------------------------------

    def inclusive(self) -> dict[str, float]:
        """Total duration per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[name.split(".", 1)[0]] += own
        return totals

    def dump(self, path) -> None:
        """Spans as JSON Lines: name, start, end (seconds), parent index."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps(record) + "\n")


# -- observers: read sizes after a call; keep each O(1) or defer it ------


def _file_size(path) -> int:
    return Path(path).stat().st_size


def _obs_load_corpus(t, args, kwargs, result):
    t.counts["ingest.docs"] += len(result)
    t.counts["ingest.bytes"] += _file_size(args[0])


def _obs_strip_html(t, args, kwargs, result):
    t.counts["preprocess.docs"] += 1


def _obs_tokenize(t, args, kwargs, result):
    t.counts["preprocess.tokens_in"] += len(result)


def _obs_filter(t, args, kwargs, result):
    t.counts["preprocess.tokens_kept"] += len(result)


def _obs_fit(t, args, kwargs, result):
    t.values["vectorize.dim"] = result.dim


def _in_vocab(t, payload):
    model, tokens = payload
    vocab = t.vocabularies.get(id(model))
    if vocab is None:
        vocab = t.vocabularies[id(model)] = frozenset(model.terms)
    t.counts["vectorize.tokens_seen"] += len(tokens)
    t.counts["vectorize.tokens_in_vocab"] += sum(1 for tok in tokens if tok in vocab)


def _obs_transform(t, args, kwargs, result):
    model, doc = args[0], args[1]
    t.counts["vectorize.transform_calls"] += 1
    t.counts["vectorize.nnz"] += result.nnz
    t.values["vectorize.dim"] = model.dim
    t.deferred.append((_in_vocab, (model, doc.tokens)))


def _obs_balance(t, args, kwargs, result):
    balanced, report = result
    t.counts["resample.minority_rows"] += report.minority_before
    t.counts["resample.synthetic_rows"] += report.synthetic_created
    if report.synthetic_created:
        t.balanced.append(balanced)


def _obs_knn(t, args, kwargs, result):
    t.counts["resample.knn_calls"] += 1
    t.counts["resample.distance_evals"] += len(args[0]) - 1


def _obs_predict(t, args, kwargs, result):
    t.counts["classify.predict_calls"] += 1


def _obs_load_bundle(t, args, kwargs, result):
    t.counts["bundle.bytes"] += _file_size(args[0])


def _matrix_nnz(t, matrix):
    t.counts["matrixio.nnz"] += sum(row.nnz for row in matrix.rows)


def _obs_read_matrix(t, args, kwargs, result):
    t.deferred.append((_matrix_nnz, result))


# (module, function, span name, observer).  Container functions with no
# metric of their own are traced too, so their loop overhead is charged to
# their own layer instead of to the caller's self time.
TARGETS = (
    ("ingest", "load_corpus", "ingest.load", _obs_load_corpus),
    ("ingest", "split", "ingest.split", None),
    ("preprocess", "preprocess_corpus", "preprocess.corpus", None),
    ("preprocess", "strip_html", "preprocess.strip_html", _obs_strip_html),
    ("preprocess", "tokenize", "preprocess.tokenize", _obs_tokenize),
    ("preprocess", "filter_tokens", "preprocess.filter", _obs_filter),
    ("stopwords", "default_stopwords", "stopwords.load", None),
    ("stopwords", "load_stopwords", "stopwords.load", None),
    ("vectorize", "fit", "vectorize.fit", _obs_fit),
    ("vectorize", "transform", "vectorize.transform", _obs_transform),
    ("vectorize", "transform_corpus", "vectorize.transform_corpus", None),
    ("resample", "balance_training_set", "resample.balance", _obs_balance),
    ("resample", "knn", "resample.knn", _obs_knn),
    ("resample", "interpolate", "resample.interpolate", None),
    ("classify", "train", "classify.train", None),  # named per algorithm and arm below
    ("classify", "predict", "classify.predict", _obs_predict),
    ("classify", "predict_batch", "classify.predict_batch", None),
    ("evaluate", "compare", "evaluate.compare", None),
    ("evaluate", "evaluate_model", "evaluate.score", None),
    ("bundle", "load_bundle", "bundle.load", _obs_load_bundle),
    ("bundle", "save_bundle", "bundle.save", None),
    ("matrixio", "read_matrix", "matrixio.read", _obs_read_matrix),
    ("matrixio", "write_matrix", "matrixio.write", None),
)


def _make_wrapper(tracer: Tracer, fn, name: str, observe):
    if name == "classify.train":

        @functools.wraps(fn)
        def train_wrapper(matrix, config, *args, **kwargs):
            arm = "smote" if any(m is matrix for m in tracer.balanced) else "raw"
            result = tracer.call(
                f"classify.train.{config.algorithm}.{arm}", fn, (matrix, config) + args, kwargs
            )
            tracer.values[f"classify.train_rows.{arm}"] = len(matrix)
            tracer.counts["classify.dense_bytes"] += len(matrix) * matrix.dim * 8
            return result

        return train_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target on every textbalance module that binds it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "textbalance" or n.startswith("textbalance.")]
    patched = []
    try:
        for module_name, func_name, span_name, observe in TARGETS:
            original = getattr(sys.modules[f"textbalance.{module_name}"], func_name)
            wrapper = _make_wrapper(tracer, original, span_name, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def run_traced(tracer: Tracer, main, argv) -> int:
    """Call ``main(argv)`` as the root span ``cli.main`` with targets wrapped.

    Call ``tracer.finish()`` afterwards, outside any timed region.
    """
    with installed(tracer):
        return tracer.call("cli.main", main, (argv,), {})


# Per-layer metric -> span name whose total duration it reports.
SPAN_TIMES = {
    "ingest.load_s": "ingest.load",
    "ingest.split_s": "ingest.split",
    "preprocess.strip_html_s": "preprocess.strip_html",
    "preprocess.tokenize_s": "preprocess.tokenize",
    "preprocess.filter_s": "preprocess.filter",
    "stopwords.load_s": "stopwords.load",
    "vectorize.fit_s": "vectorize.fit",
    "vectorize.transform_s": "vectorize.transform",
    "resample.balance_s": "resample.balance",
    "resample.knn_s": "resample.knn",
    "resample.interpolate_s": "resample.interpolate",
    **{
        f"classify.train_s.{algo}.{arm}": f"classify.train.{algo}.{arm}"
        for algo in ALGORITHMS
        for arm in ARMS
    },
    "classify.predict_s": "classify.predict",
    "evaluate.compare_s": "evaluate.compare",
    "evaluate.score_s": "evaluate.score",
    "bundle.load_s": "bundle.load",
    "matrixio.read_s": "matrixio.read",
    "matrixio.write_s": "matrixio.write",
}
COUNTS = (
    "ingest.docs",
    "ingest.bytes",
    "preprocess.docs",
    "preprocess.tokens_in",
    "preprocess.tokens_kept",
    "vectorize.transform_calls",
    "vectorize.nnz",
    "resample.knn_calls",
    "resample.distance_evals",  # computed: sum of len(points) - 1 over knn calls
    "resample.minority_rows",
    "resample.synthetic_rows",
    "classify.dense_bytes",  # computed: rows * dim * 8 summed over fits
    "classify.predict_calls",
    "bundle.bytes",
    "matrixio.nnz",
)
VALUES = ("vectorize.dim", "classify.train_rows.smote", "classify.train_rows.raw")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced run; layers not exercised read 0."""
    incl = tracer.inclusive()
    out: dict[str, float] = {metric: incl.get(span, 0.0) for metric, span in SPAN_TIMES.items()}
    out.update((name, tracer.counts[name]) for name in COUNTS)
    out.update((name, tracer.values.get(name, 0)) for name in VALUES)
    seen = tracer.counts["vectorize.tokens_seen"]
    out["vectorize.in_vocab_ratio"] = tracer.counts["vectorize.tokens_in_vocab"] / seen if seen else 0.0
    out.update((f"{layer}.self_s", own) for layer, own in tracer.layer_self().items())
    return out
