"""Golden outputs: SHA-256 digests of every artifact the CLI writes.

For a given seed the outputs are the contract.  One module-scoped run
drives ``cli.main`` in process over the two-vocabulary fixture corpora
(seeds 7, 11 and 13) and a small hand-written markup corpus, and hashes
each command's files and stdout per group.  A change that moves one of
these digests changes an output byte; if that is intended, say so and
re-pin the group it moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from textbalance import matrixio, preprocess, stopwords, vectorize
from textbalance.classify import ALGORITHMS
from textbalance.cli import main
from textbalance.fixtures import two_vocab_corpus
from textbalance.ingest import Corpus, LabeledDocument, write_corpus

SEEDS = (7, 11, 13)
TIMESTAMP = "2021-06-01T00:00:00+00:00"

# (label, text): markup with well-formed entities, script/style bodies,
# posts with no in-vocabulary token, and (for predict) empty lines.
MARKUP_POSTS = (
    (1, "<p>Cheap <b>pills</b> &amp; casino cash &#8212; click now!</p>"),
    (0, ""),
    (0, "<div class='post'>Trying to install ubuntu on my laptop, terminal error &lt;code 5&gt;</div>"),
    (1, "<script>var offer = 'winner';</script>Earn money fast, lottery winner &#x2014; deal"),
    (0, "<style>p { color: red }</style>Thanks for the python tutorial&nbsp;video"),
    (0, "zzz qqq xyzzy"),
    (0, "<br/><hr><!-- a comment --> &copy; &#169;"),
    (1, "CLICK <a href='http://spam.example'>here</a> for a discount, cheap deal, cash!!!"),
    (0, ""),
    (0, "Kernel driver issue: the bootloader can&#39;t find the partition &quot;sda1&quot;"),
    (1, "<SCRIPT>alert(1)</SCRIPT><i>Casino</i> lottery &amp; pills offer offer offer"),
    (0, "the and of to a in is"),
    (0, "Firefox browser shortcut question &mdash; keyboard help please"),
)

GOLDEN = {
    "seed7-train": "b77f5332b10890d7b50d28016791d0a0635eaabd6f1bb44b7fb4229362b621fb",
    "seed7-predict": "3d88d77164af00d1ea875570f7ad901655194aefb53ab9b8ff37fc9715d4c178",
    "seed7-evaluate": "940300ee7b2ba82c1b65318212d2cbd1c685850cd6944bbd841431783168ad73",
    "seed7-report": "9cafc6ab2a7a93c07a632231155bbdf025835c8c9bda42c6d49ac654b14372e6",
    "seed7-scatter": "ec0592e50a084f74ee40f061bf80aa740f640170dc024fd4014139dd9334b22a",
    "seed7-oversample": "eed630c8fa349f4013d9b25f37cd725515040c55769154a55b5954cd1f1751dd",
    "seed11-train": "e70643b75a4c9238aaddd07e75b300917d75b9e69bf43c72a8896c69c5af0fc4",
    "seed11-predict": "feff3bd9654d3d9ef88723a3b97445a2ced46e81fdc18f1b6862baa6a6ed4edf",
    "seed11-evaluate": "9a7e80d9860bff9b046d23895e79cc738007be283ef7a64a52dab152c7241eb6",
    "seed11-report": "e15442c0e25887bfcb66c91ec0b59a3c28edf09ad878d3179a5dbcb1a18cb642",
    "seed11-scatter": "2bfef8c10ca244e62b3e1e29a9ca173fda86b2944b2105bc51d51d8242d27da5",
    "seed11-oversample": "3d801af2f6b69860b1bd87aa94c8560a50fe37506a4dddbc2b3cfeae342dcd18",
    "seed13-train": "1a383ba1ac2ca016740a1a55a2088cea6afe4580ab66e179aa0058fe7a6d1fa9",
    "seed13-predict": "5f9082407a79fd6d9d88aed0703b73121ac61cf2ceb132c63ca67c6cd535a9b3",
    "seed13-evaluate": "1bb994eb70aff88a8d8cd4423209607a60b33fd5bf4699c61c270c20b7860158",
    "seed13-report": "2a29bdb42b2a5c847676b71086e9b0ef91b34afd0a5053f1590f014b1780dcc5",
    "seed13-scatter": "caa16d4e1f5bc4cafd15e4a5fe206dc4adc8fbe180739776fbb8bd1a8e7f0c9d",
    "seed13-oversample": "a9371c9539c5d6b00bdf4271abece7a5a25d4f02da496ec238c5892b64bc10c3",
}


def _run(argv) -> bytes:
    """Run the CLI in process; return its stdout, requiring exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def _digest(artifacts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in artifacts.items():
        h.update(f"{name}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def _write_inputs(seed: int) -> None:
    train, test = two_vocab_corpus(seed)
    write_corpus(Corpus.from_documents(list(train.documents) + list(test.documents)), "data.csv")
    Path("posts.txt").write_text(
        "\n".join(text for _, text in MARKUP_POSTS) + "\n"
        + "\n".join(doc.text for doc in test.documents) + "\n",
        encoding="utf-8",
    )
    markup = [
        LabeledDocument(f"m{i}", text, label)
        for i, (label, text) in enumerate(MARKUP_POSTS)
        if text
    ]
    write_corpus(Corpus.from_documents(markup), "markup.csv")
    tokens = preprocess.preprocess_corpus(train, stopwords.default_stopwords())
    matrix = vectorize.transform_corpus(vectorize.fit(tokens), tokens, train.labels)
    matrixio.write_matrix(matrix, "matrix.txt")


def _seed_groups(seed: int) -> dict[str, dict[str, bytes]]:
    _write_inputs(seed)
    groups: dict[str, dict[str, bytes]] = {
        name: {} for name in ("train", "predict", "evaluate", "report", "scatter", "oversample")
    }
    for algo in ALGORITHMS:
        for smote in ("on", "off"):
            tag = f"{algo}-{smote}"
            bundle, manifest = f"{tag}.json", f"{tag}.split.json"
            groups["train"][f"{tag}.stdout"] = _run(
                ["train", "--data", "data.csv", "--algo", algo, "--smote", smote,
                 "--seed", seed, "--out", bundle, "--split-manifest", manifest,
                 "--timestamp", TIMESTAMP]
            )
            groups["train"][bundle] = Path(bundle).read_bytes()
            groups["train"][manifest] = Path(manifest).read_bytes()
            groups["predict"][tag] = _run(["predict", "--bundle", bundle, "--input", "posts.txt"])
            for data in ("data.csv", "markup.csv"):
                metrics = f"{tag}.{data}.metrics.json"
                groups["evaluate"][f"{tag}.{data}.stdout"] = _run(
                    ["evaluate", "--bundle", bundle, "--data", data, "--out", metrics]
                )
                groups["evaluate"][metrics] = Path(metrics).read_bytes()
    report = groups["report"]
    report["stdout"] = _run(
        ["report", "--data", "data.csv", "--seed", seed, "--out", "comparison", "--csv",
         "--split-manifest", "report.split.json"]
    )
    for suffix in (".json", ".txt", ".csv"):
        report[suffix] = Path("comparison" + suffix).read_bytes()
    report["split"] = Path("report.split.json").read_bytes()
    for smote in ("on", "off"):
        csv_path, svg_path = f"scatter-{smote}.csv", f"scatter-{smote}.svg"
        groups["scatter"][smote] = _run(
            ["scatter", "--data", "data.csv", "--smote", smote, "--seed", seed,
             "--out", csv_path, "--svg", svg_path]
        )
        groups["scatter"][csv_path] = Path(csv_path).read_bytes()
        groups["scatter"][svg_path] = Path(svg_path).read_bytes()
    over = groups["oversample"]
    over["stdout"] = _run(
        ["oversample", "--matrix", "matrix.txt", "--seed", seed, "--out", "balanced.txt",
         "--report", "balanced.json"]
    )
    for name in ("balanced.txt", "balanced.txt.labels", "balanced.json"):
        over[name] = Path(name).read_bytes()
    return groups


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Group name -> digest, from one run in a scratch directory.  Paths
    are relative, because `report` records its dataset path."""
    found = {}
    home = os.getcwd()
    for seed in SEEDS:
        work = tmp_path_factory.mktemp(f"golden{seed}")
        os.chdir(work)
        try:
            for group, artifacts in _seed_groups(seed).items():
                found[f"seed{seed}-{group}"] = _digest(artifacts)
        finally:
            os.chdir(home)
    return found


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_golden_digest(digests, group):
    assert digests[group] == GOLDEN[group], group
