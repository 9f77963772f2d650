"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (each criterion is one
test) or with ``-s`` to see the printed checklist lines.  Tolerances are
stated inline next to each check.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

from conftest import dense_to_matrix, rand_matrix, rand_sparse, to_dense
from corpora import two_vocab_corpus, write_corpus
from oracles import csr_of, rows_of
from textbalance.classify import TrainConfig, predict_batch, train
from textbalance.cli import main as cli_main
from textbalance.evaluate import ConfusionMatrix, compare, confusion, metrics
from textbalance.ingest import Corpus
from textbalance.preprocess import preprocess_corpus
from textbalance.resample import NeighborIndex, SmoteConfig, _synthesize, balance_training_set, knn
from textbalance.stopwords import default_stopwords
from textbalance.vectorize import fit, transform, transform_corpus


def _criterion(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[criterion {number:02d}] FAIL: {description}")
        raise
    print(f"[criterion {number:02d}] PASS: {description}")


def test_criterion_01_balance_arithmetic():
    def body():
        rng = np.random.default_rng(101)
        matrix = rand_matrix(rng, n0=201, n1=33, dim=20, nonneg=True)
        started = time.perf_counter()
        balanced, report = balance_training_set(matrix, SmoteConfig(k=5, seed=0))
        elapsed = time.perf_counter() - started
        assert Counter(balanced.labels) == {0: 201, 1: 201}
        assert report.synthetic_created == 168
        assert report.minority_before == 33
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    _criterion(1, "201/33 training set balances to exactly 201/201 (168 synthetic)", body)


def test_criterion_02_smote_geometry():
    def body():
        rng = np.random.default_rng(102)
        started = time.perf_counter()
        checked = 0
        for trial in range(1000):
            dim = int(rng.integers(1, 51))
            t = int(rng.integers(1, 41))
            minority = [rand_sparse(rng, dim, density=0.5) for _ in range(t)]
            extra = int(rng.integers(1, 13))
            config = SmoteConfig(k=int(rng.integers(1, 8)), seed=trial)
            points = csr_of(minority, dim)
            bases, neighbors, _, rows = _synthesize(points, t + extra, config)
            assert rows.shape[0] == extra
            for b, n, vector in zip(bases.tolist(), neighbors.tolist(), rows_of(rows)):
                base = to_dense(minority[b])
                neighbor = to_dense(minority[n])
                got = to_dense(vector)
                # Betweenness within 1e-12, coordinatewise.
                assert np.all(got >= np.minimum(base, neighbor) - 1e-12)
                assert np.all(got <= np.maximum(base, neighbor) + 1e-12)
                # Support is a subset of the union of parent supports.
                parents = {i for i, _ in minority[b].entries}
                parents |= {i for i, _ in minority[n].entries}
                assert {i for i, _ in vector.entries} <= parents
                checked += 1
        elapsed = time.perf_counter() - started
        assert checked >= 1000
        assert elapsed < 30.0, f"took {elapsed:.2f}s"

    _criterion(2, "synthetic samples lie between their recorded parents (1000 sets)", body)


def test_criterion_03_knn_oracle():
    def body():
        rng = np.random.default_rng(103)
        started = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 201))
            dim = int(rng.integers(1, 26))
            points = [rand_sparse(rng, dim, density=0.4) for _ in range(n)]
            dense = np.vstack([to_dense(p) for p in points])
            index = NeighborIndex(csr_of(points, dim))
            orders = []
            for query in range(n):
                dist = np.sqrt(((dense - dense[query]) ** 2).sum(axis=1))
                order = np.lexsort((np.arange(n), dist)).tolist()  # by (distance, index)
                order.remove(query)
                orders.append(order)
            for _ in range(3):
                k = int(rng.integers(1, n + 2))
                expected = [order[: min(k, n - 1)] for order in orders]
                assert knn(index, n, k).tolist() == expected
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"

    _criterion(3, "knn matches an exhaustive scan with (distance, index) ties (200 sets)", body)


def test_criterion_04_tfidf_oracle():
    def body():
        rng = np.random.default_rng(104)
        alphabet = [f"w{i}" for i in range(15)]
        started = time.perf_counter()
        for _ in range(100):
            n_docs = int(rng.integers(1, 11))
            docs = [
                tuple(rng.choice(alphabet, size=int(rng.integers(0, 51))))
                for _ in range(n_docs)
            ]
            if not any(docs):
                docs[0] = ("w0",)
            model = fit(docs)
            # Dense brute-force evaluation of the same weighting.
            col = {t: j for j, t in enumerate(model.terms)}
            df = np.zeros(len(model.terms))
            for d in docs:
                for tok in set(d):
                    df[col[tok]] += 1
            for d in docs:
                expected = np.zeros(len(model.terms))
                for tok in d:
                    expected[col[tok]] += 1
                if d:
                    expected = expected / len(d) * np.log(n_docs / df)
                got = to_dense(transform(model, d))
                np.testing.assert_allclose(got, expected, atol=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

    _criterion(4, "transform matches dense brute-force weighting within 1e-9 (100 corpora)", body)


def test_criterion_05_metrics_identities():
    def body():
        rng = np.random.default_rng(105)
        started = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            pred = [int(v) for v in rng.integers(0, 2, n)]
            act = [int(v) for v in rng.integers(0, 2, n)]
            tp = sum(1 for p, a in zip(pred, act) if p == 1 and a == 1)
            fp = sum(1 for p, a in zip(pred, act) if p == 1 and a == 0)
            fn = sum(1 for p, a in zip(pred, act) if p == 0 and a == 1)
            tn = sum(1 for p, a in zip(pred, act) if p == 0 and a == 0)
            report = metrics(confusion(pred, act))
            assert report.confusion.to_dict() == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
            assert report.accuracy == (tp + tn) / n
            if tp + fp > 0:
                assert report.precision == tp / (tp + fp)
            else:
                assert report.precision is None
            if tp + fn > 0:
                assert report.recall == tp / (tp + fn)
            else:
                assert report.recall is None
        # Precision 1.0 with recall 0.7 lands on the reported 0.82.
        report = metrics(ConfusionMatrix(tp=14, fp=0, fn=6, tn=20))
        assert report.precision == 1.0
        assert abs(report.recall - 0.7) < 1e-12
        assert abs(report.f1 - 0.82) < 0.005
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    _criterion(5, "metrics match a per-sample recount; P=1.0/R=0.7 gives F1~0.82", body)


def test_criterion_06_degenerate_metric_rendering():
    def body():
        pred = [0] * 100
        act = [0] * 95 + [1] * 5
        report = metrics(confusion(pred, act))
        assert report.accuracy == 0.95  # exact
        assert report.recall == 0.0  # exact
        assert report.precision is None
        assert report.rendered("precision") == 0.0
        assert "precision" in report.undefined_metrics()

    _criterion(6, "all-negative predictions over 95/5 report accuracy 0.95, recall 0", body)


def test_criterion_07_logistic_gradient_check():
    def loss(X, y, w, b, l2):
        """Mean log loss at z = Xw + b plus l2/2 * ||w||^2 (bias unregularized)."""
        z = X @ w + b
        return float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)

    def body():
        rng = np.random.default_rng(107)
        started = time.perf_counter()
        for _ in range(20):
            n = int(rng.integers(2, 31))
            dim = int(rng.integers(1, 11))
            X = rng.normal(size=(n, dim))
            y = rng.integers(0, 2, size=n).astype(np.float64)
            y[:2] = (0.0, 1.0)  # both classes
            l2 = float(rng.uniform(0, 0.2))
            # The first step from w = 0 is a plain gradient step of size 1/L
            # per coordinate, so the gradient at 0 is -diag(L) (w1, b1).  For
            # the bias L = 2/4; for every weight L = 2/4 * lam + l2, where lam
            # is max_j (Au)_j / u_j / n for A = |X|^T |X| and u the all-ones
            # vector after 7 power steps.
            matrix = dense_to_matrix(X, y)
            first = train(matrix, TrainConfig("logistic", epochs=1, l2=l2))
            A = np.abs(X).T @ np.abs(X)
            u = np.ones(dim)
            for _ in range(7):
                au = A @ u
                u = au / au.max()
            lam = float(np.max((A @ u) / u)) / n
            L = np.append(np.full(dim, 0.5 * lam + l2), 0.5)
            analytic = -L * np.append(first.weights, first.bias)
            w, b = np.zeros(dim), 0.0
            h = 1e-6
            fd = np.zeros(dim + 1)
            for j in range(dim + 1):
                e = np.zeros(dim + 1)
                e[j] = h
                plus = loss(X, y, w + e[:dim], b + e[dim], l2)
                minus = loss(X, y, w - e[:dim], b - e[dim], l2)
                fd[j] = (plus - minus) / (2 * h)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-4, f"relative error {rel:.2e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    _criterion(7, "logistic fit's first step matches finite differences (rel <= 1e-4)", body)


def test_criterion_08_classifier_sanity():
    def body():
        rng = np.random.default_rng(108)
        X = np.vstack(
            [
                np.column_stack([1 + rng.normal(0, 0.05, 30), rng.normal(0, 0.05, 30)]),
                np.column_stack([rng.normal(0, 0.05, 30), 1 + rng.normal(0, 0.05, 30)]),
            ]
        )
        separable = dense_to_matrix(np.clip(X, 0, None), [0] * 30 + [1] * 30)
        for algo in ("logistic", "svm"):
            model = train(separable, TrainConfig(algorithm=algo))
            accuracy = np.mean(
                np.array(predict_batch(model, separable)) == np.array(separable.labels)
            )
            assert accuracy >= 0.95, f"{algo} train accuracy {accuracy:.3f}"
        xor = dense_to_matrix(
            [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [0, 0, 1, 1]
        )
        tree = train(xor, TrainConfig(algorithm="tree"))
        assert predict_batch(tree, xor) == [0, 0, 1, 1]

    _criterion(8, "LR/SVM fit separable data (>=0.95); tree fits XOR exactly", body)


def test_criterion_09_directional_smote_benefit():
    def body():
        started = time.perf_counter()
        stops = default_stopwords()
        wins = 0
        for seed in (7, 11, 13):
            train_corpus, test_corpus = two_vocab_corpus(seed=seed)
            assert Counter(train_corpus.labels) == {0: 201, 1: 33}
            assert len(test_corpus) == 40
            train_tokens = preprocess_corpus(train_corpus, stops)
            test_tokens = preprocess_corpus(test_corpus, stops)
            tfidf = fit(train_tokens)
            train_m = transform_corpus(tfidf, train_tokens, train_corpus.labels)
            test_m = transform_corpus(tfidf, test_tokens, test_corpus.labels)
            configs = [TrainConfig(algorithm=algo) for algo in ("nb", "svm")]
            report = compare(train_m, test_m, configs, SmoteConfig(k=5, seed=seed))
            seed_ok = True
            for algo in ("nb", "svm"):
                with_f1 = report.cells[algo]["with_smote"].rendered("f1")
                without_f1 = report.cells[algo]["without_smote"].rendered("f1")
                if with_f1 < without_f1:
                    seed_ok = False
            wins += seed_ok
        elapsed = time.perf_counter() - started
        assert wins == 3, f"SMOTE helped in only {wins}/3 seeds"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"

    _criterion(9, "F1 with SMOTE >= without for NB and SVM on seeds 7/11/13", body)


def test_criterion_10_cli_determinism(tmp_path):
    def body():
        train_c, test_c = two_vocab_corpus(
            seed=5, n_train_nonspam=60, n_train_spam=12, n_test_per_class=8
        )
        data = tmp_path / "data.csv"
        write_corpus(
            Corpus.from_documents(list(train_c.documents) + list(test_c.documents)),
            data,
            "csv",
        )
        bundles = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            code = cli_main(
                ["train", "--data", str(data), "--algo", "svm", "--smote", "on",
                 "--seed", "7", "--out", str(out)]
            )
            assert code == 0
            bundles.append(out.read_bytes())
        assert bundles[0] == bundles[1]
        reports = []
        for prefix in ("r1", "r2"):
            code = cli_main(
                ["report", "--data", str(data), "--algos", "nb,logistic,svm,tree",
                 "--seed", "7", "--out", str(tmp_path / prefix)]
            )
            assert code == 0
            reports.append(
                (
                    (tmp_path / f"{prefix}.json").read_bytes(),
                    (tmp_path / f"{prefix}.txt").read_bytes(),
                )
            )
        assert reports[0] == reports[1]
        payload = json.loads(reports[0][0])
        assert set(payload["algorithms"]) == {"nb", "logistic", "svm", "tree"}

    _criterion(10, "repeated train/report runs emit byte-identical bundles and reports", body)
