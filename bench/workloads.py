"""The three benchmark workloads: inputs, the measured command, output checks.

Each workload writes its seeded inputs into a work directory, names the
`textbalance` command that is measured there, and checks that command's
outputs.  Why each one exists:

- report-zipf: the paper's with/without-SMOTE experiment (eight fits on
  dense copies, TF-IDF fit and transform_corpus); SMOTE sees only a small
  minority set here.
- predict-html: the serving side over markup-heavy posts (strip_html,
  tokenize, per-document transform, predict); no fit and no SMOTE.
- oversample-wide: exact-kNN SMOTE over a large minority set plus sparse
  matrix file I/O; no text or classifier layers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from textbalance import bundle, classify, preprocess, stopwords, vectorize

import gen

ALGORITHMS = ("nb", "logistic", "svm", "tree")
ARMS = ("with_smote", "without_smote")


class CheckFailed(Exception):
    """An output of the measured command is wrong."""


@dataclass
class Prepared:
    """Inputs of one workload run, written into ``work``."""

    argv: list[str]  # arguments after `python -m textbalance.cli`
    items: int  # documents (or matrix rows) one command processes
    setup_code: str  # what a fresh interpreter runs to measure setup_s
    stdout_name: str | None = None  # file that receives the command's stdout
    state: dict = field(default_factory=dict)


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


IMPORT_CLI = "import textbalance.cli\n"


class ReportZipf:
    name = "report-zipf"
    profile = gen.Profile(n_docs=800, spam_rate=0.12, markup=0.15, zipf_s=1.35)
    train_fraction = 0.8

    def prepare(self, work: Path, seed: int, run_cli) -> Prepared:
        gen.write_csv(gen.corpus(seed, self.profile), work / "posts.csv")
        argv = ["report", "--data", "posts.csv", "--out", "comparison", "--seed", str(seed)]
        return Prepared(argv=argv, items=self.profile.n_docs, setup_code=IMPORT_CLI)

    def reference(self, prepared: Prepared, work: Path) -> dict:
        return {}

    def check(self, prepared: Prepared, work: Path) -> str:
        path = work / "comparison.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        cells = report["algorithms"]
        _require(sorted(cells) == sorted(ALGORITHMS), f"algorithms {sorted(cells)}")
        n = self.profile.n_docs
        test_rows = n - math.floor(self.train_fraction * n + 0.5)
        _require(report["metadata"]["test_rows"] == test_rows, "test_rows mismatch")
        for algo, arms in cells.items():
            _require(sorted(arms) == sorted(ARMS), f"{algo}: arms {sorted(arms)}")
            for arm, metrics in arms.items():
                total = sum(metrics["confusion"].values())
                _require(total == test_rows, f"{algo}/{arm}: confusion total {total} != {test_rows}")
        rs = report["resample"]
        _require(
            rs["minority_before"] + rs["synthetic_created"] == rs["majority"],
            f"resample block does not balance: {rs['minority_before']} + "
            f"{rs['synthetic_created']} != {rs['majority']}",
        )
        return _sha256(path)

    def quality(self, prepared: Prepared, work: Path) -> dict:
        """Mean held-out F1 per arm; an undefined F1 counts as 0.0."""
        cells = json.loads((work / "comparison.json").read_text(encoding="utf-8"))["algorithms"]
        out = {}
        for arm, key in (("with_smote", "f1_smote_mean"), ("without_smote", "f1_raw_mean")):
            out[key] = statistics.fmean(cells[a][arm]["f1"] or 0.0 for a in ALGORITHMS)
        return out


class PredictHtml:
    name = "predict-html"
    train_profile = gen.Profile(n_docs=800, spam_rate=0.12, markup=1.0, zipf_s=1.35)
    posts_profile = gen.Profile(n_docs=8000, spam_rate=0.12, markup=1.0, zipf_s=1.35)

    def prepare(self, work: Path, seed: int, run_cli) -> Prepared:
        gen.write_csv(
            gen.corpus(seed, self.train_profile, stream=gen.STREAM_BUNDLE_TRAIN), work / "train.csv"
        )
        gen.write_lines(gen.corpus(seed, self.posts_profile), work / "posts.txt")
        # The bundle is an input: trained before any timing starts.
        run_cli(["train", "--algo", "logistic", "--data", "train.csv", "--out", "bundle.json"])
        argv = ["predict", "--bundle", "bundle.json", "--input", "posts.txt"]
        setup = (
            IMPORT_CLI
            + "from textbalance import bundle, stopwords\n"
            + "bundle.load_bundle('bundle.json')\nstopwords.default_stopwords()\n"
        )
        return Prepared(
            argv=argv, items=self.posts_profile.n_docs, setup_code=setup, stdout_name="predict.out"
        )

    def reference(self, prepared: Prepared, work: Path) -> dict:
        """Labels and per-document latency through the public API, in process."""
        model = bundle.load_bundle(work / "bundle.json")
        stops = stopwords.default_stopwords()
        min_len = model.preprocess_config.min_token_len
        texts = (work / "posts.txt").read_text(encoding="utf-8").splitlines()
        labels = []
        latencies = []
        for text in texts:
            start = time.perf_counter()
            tokens = preprocess.filter_tokens(
                preprocess.tokenize(preprocess.strip_html(text)), stops, min_len
            )
            label = classify.predict(model.classifier, vectorize.transform(model.tfidf, tokens))
            latencies.append(time.perf_counter() - start)
            labels.append(label)
        prepared.state["labels"] = labels
        return {"latencies_s": latencies}

    def check(self, prepared: Prepared, work: Path) -> str:
        path = work / prepared.stdout_name
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = prepared.state["labels"]
        _require(len(lines) == len(expected), f"{len(lines)} output lines for {len(expected)} posts")
        for number, (line, want) in enumerate(zip(lines, expected), 1):
            label = line.split("\t", 1)[0]
            _require(label in ("0", "1"), f"line {number}: label {label!r}")
            _require(int(label) == want, f"line {number}: label {label}, in-process predict says {want}")
        return _sha256(path)

    def quality(self, prepared: Prepared, work: Path) -> dict:
        return {}


class OversampleWide:
    name = "oversample-wide"
    profile = gen.Profile(n_docs=2000, spam_rate=0.3, markup=0.0, zipf_s=1.45)

    def prepare(self, work: Path, seed: int, run_cli) -> Prepared:
        gen.write_matrix(seed, self.profile, work / "matrix.txt")
        argv = ["oversample", "--matrix", "matrix.txt", "--out", "balanced.txt", "--seed", str(seed)]
        return Prepared(argv=argv, items=self.profile.n_docs, setup_code=IMPORT_CLI)

    def reference(self, prepared: Prepared, work: Path) -> dict:
        return {}

    def check(self, prepared: Prepared, work: Path) -> str:
        src_lines = (work / "matrix.txt").read_text(encoding="utf-8").splitlines()
        src_labels = (work / "matrix.txt.labels").read_text(encoding="utf-8").split()
        out_path = work / "balanced.txt"
        labels_path = work / "balanced.txt.labels"
        out_lines = out_path.read_text(encoding="utf-8").splitlines()
        out_labels = labels_path.read_text(encoding="utf-8").split()
        ones = out_labels.count("1")
        _require(ones * 2 == len(out_labels), f"classes unequal after balancing: {ones} of {len(out_labels)}")
        n_rows, _, _ = (int(x) for x in out_lines[0].split())
        _require(n_rows == len(out_labels), "header row count disagrees with labels")
        _require(out_labels[: len(src_labels)] == src_labels, "original labels changed or reordered")
        # Rows are written in order, so the original rows' triples come first.
        _require(out_lines[1 : len(src_lines)] == src_lines[1:], "original rows changed or not first")
        return _sha256(out_path, labels_path)

    def quality(self, prepared: Prepared, work: Path) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ReportZipf(), PredictHtml(), OversampleWide())}
