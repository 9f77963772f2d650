"""The package API the benchmark under ``bench/`` calls.

The benchmark wraps the functions `bench/spans.py` lists in ``TARGETS`` and
runs two call chains through the public modules: `bench/gen.py` builds a
matrix file, and `bench/workloads.py` labels posts one at a time to check
`predict`'s output.  A rename or a type change in those names would first
show up as a failed benchmark run; these tests catch it in the suite.
One test runs the tracer itself over `oversample`, so an observer that
reads a stale attribute, or a wrapper that times nothing, fails here.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import textbalance
from conftest import rand_matrix
from corpora import two_vocab_corpus, write_corpus
from textbalance import (
    bundle,
    classify,
    cli,
    ingest,
    matrixio,
    preprocess,
    resample,
    stopwords,
    vectorize,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    targets = _load_spans().TARGETS
    assert targets
    for module_name, func_name, _, _ in targets:
        module = importlib.import_module(f"textbalance.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_bench_imports_load_every_traced_module():
    """`bench/run.py` imports `harness` and `workloads` and then traces in
    its own process, where `spans.installed` looks each target's module up
    in ``sys.modules``.  So those imports must load every target module;
    this is why `cli` imports `evaluate` at module level."""
    code = (
        "import sys, harness, workloads, spans\n"
        "print(*sorted({m for m, *_ in spans.TARGETS if f'textbalance.{m}' not in sys.modules}))"
    )
    src = Path(textbalance.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)])),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.fixture(scope="module")
def corpora():
    return two_vocab_corpus(seed=4, n_train_nonspam=40, n_train_spam=10)


def test_matrix_chain(corpora, tmp_path):
    """preprocess_corpus -> fit -> transform_corpus -> write_matrix, as
    `bench/gen.py` writes the oversample input."""
    train, _ = corpora
    docs = ingest.Corpus.from_documents(iter(train.documents))
    tokens = preprocess.preprocess_corpus(docs, stopwords.default_stopwords())
    model = vectorize.fit(tokens)
    matrix = vectorize.transform_corpus(model, tokens, docs.labels)
    path = tmp_path / "matrix.txt"
    matrixio.write_matrix(matrix, path)
    assert len(matrix) == len(docs)
    assert matrixio.read_matrix(path) == matrix


def test_per_post_chain_agrees_with_predict(corpora, tmp_path, capsys):
    """filter_tokens(tokenize(strip_html(text))) -> transform -> predict per
    post, as `bench/workloads.py` checks `predict --input`, against
    `predict_batch` and the command's own output."""
    train, test = corpora
    data = tmp_path / "train.csv"
    write_corpus(train, data)
    assert cli.main(["train", "--algo", "logistic", "--data", str(data),
                     "--out", str(tmp_path / "bundle.json")]) == 0
    model = bundle.load_bundle(tmp_path / "bundle.json")
    stops = stopwords.default_stopwords()
    min_len = model.preprocess_config.min_token_len
    texts = ["<p>Cheap &amp; <b>cash</b></p>", "", *(doc.text for doc in test.documents)]

    tokens = [
        preprocess.filter_tokens(preprocess.tokenize(preprocess.strip_html(t)), stops, min_len)
        for t in texts
    ]
    labels = [
        classify.predict(model.classifier, vectorize.transform(model.tfidf, doc))
        for doc in tokens
    ]
    matrix = vectorize.transform_corpus(model.tfidf, tokens, [0] * len(texts))
    assert classify.predict_batch(model.classifier, matrix) == labels

    posts = tmp_path / "posts.txt"
    posts.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["predict", "--bundle", str(tmp_path / "bundle.json"),
                     "--input", str(posts)]) == 0
    printed = [int(line.split("\t", 1)[0]) for line in capsys.readouterr().out.splitlines()]
    assert printed == labels


def test_per_row_results_have_the_types_the_benchmark_reads(corpora, tmp_path):
    """What the span observers and the reference loop read from the
    per-row names: ``transform(...).nnz`` fed to ``predict``,
    ``len(NeighborIndex)`` (``knn``'s first argument), and
    ``read_matrix(...).rows[i].nnz``; and the batch ``knn`` and
    ``interpolate`` the resample spans time."""
    train, _ = corpora
    tokens = preprocess.preprocess_corpus(train, stopwords.default_stopwords())
    model = vectorize.fit(tokens)
    matrix = vectorize.transform_corpus(model, tokens, train.labels)

    vector = vectorize.transform(model, tokens[0])
    assert vector.nnz == matrix.rows[0].nnz > 0
    classifier = classify.train(matrix, classify.TrainConfig(algorithm="logistic"))
    assert classify.predict(classifier, vector) in (0, 1)

    index = resample.NeighborIndex(matrix.csr)
    assert len(index) == len(matrix)
    neighbors = resample.knn(index, len(index), 3)
    assert neighbors.shape == (len(matrix), 3) and neighbors.dtype == np.int64

    bases = np.arange(len(matrix))
    rows = resample.interpolate(matrix.csr, bases, neighbors[:, 0], np.full(bases.size, 0.5))
    assert rows.shape == matrix.csr.shape
    assert (rows.row_lengths >= matrix.csr.row_lengths[neighbors[:, 0]]).all()

    path = tmp_path / "matrix.txt"
    matrixio.write_matrix(matrix, path)
    read = matrixio.read_matrix(path)
    assert sum(r.nnz for r in read.rows) == read.csr.data.size == matrix.csr.data.size


def test_tracer_times_every_resample_stage_of_oversample(tmp_path):
    """`bench/spans.py` run over `oversample` as `--trace 1` runs it: the
    balance asks ``knn`` and ``interpolate`` once each, and the observers
    read the input's stored entries."""
    spans = _load_spans()
    # 30 + 20 rows: 10 synthetic rows, fewer than the 20 minority rows.
    matrix = rand_matrix(np.random.default_rng(8), n0=30, n1=20, dim=40, density=0.2)
    matrixio.write_matrix(matrix, tmp_path / "m.txt")
    argv = ["oversample", "--matrix", str(tmp_path / "m.txt"), "--out", str(tmp_path / "o.txt")]
    tracer = spans.Tracer()
    assert spans.run_traced(tracer, cli.main, argv) == 0
    tracer.finish()
    values = spans.layer_metrics(tracer)
    assert values["resample.knn_s"] > 0 and values["resample.interpolate_s"] > 0
    assert values["resample.knn_calls"] == 1
    assert values["resample.synthetic_rows"] == 10
    assert values["matrixio.nnz"] == matrix.csr.nnz
    assert not hasattr(resample.knn, "__wrapped__")  # the tracer unwrapped it again
