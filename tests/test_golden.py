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

from corpora import two_vocab_corpus, write_corpus
from textbalance import matrixio, preprocess, stopwords, vectorize
from textbalance.classify import ALGORITHMS
from textbalance.cli import main
from textbalance.ingest import Corpus, LabeledDocument

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
    "seed7-train": "83e90f044391095d5b7baa5160fb54dcc84be08630cd363e2b971eb4e2a42e54",
    "seed7-predict": "746054805b4af87da4caef7743b963f06a822a052f2aa499d97ad56e3ca30f5d",
    "seed7-evaluate": "ab84b0b604261de3ce95e565a44d4c4b7dd492216c82aa2e1a257c72a714535f",
    "seed7-report": "b53245530fc805e3ec271059ddc6f75b9463a2f249badd23db0f3c4d17f0e6d2",
    "seed7-scatter": "ec0592e50a084f74ee40f061bf80aa740f640170dc024fd4014139dd9334b22a",
    "seed7-oversample": "eed630c8fa349f4013d9b25f37cd725515040c55769154a55b5954cd1f1751dd",
    "seed11-train": "23adb8b0d0912a398b5d5e4659cc3a8c493fb7cb8c7538dfad4ba562bdb23786",
    "seed11-predict": "f8e96adf62fb6bd3c44da94cc0b62bdbb59ce52732bd42e48886771bb7db65a2",
    "seed11-evaluate": "9a7e80d9860bff9b046d23895e79cc738007be283ef7a64a52dab152c7241eb6",
    "seed11-report": "25ca2bd2133e0c1f06459176d0b4d3f990ccd4c86031d0def4a1293848e42a94",
    "seed11-scatter": "2bfef8c10ca244e62b3e1e29a9ca173fda86b2944b2105bc51d51d8242d27da5",
    "seed11-oversample": "3d801af2f6b69860b1bd87aa94c8560a50fe37506a4dddbc2b3cfeae342dcd18",
    "seed13-train": "cff88f19afb60dc7d678d9455622882b35d6b6d76a65035577fa38ef6f68b597",
    "seed13-predict": "e554d5c78680ba79b7320abae6102f48d071a188dabc49f3b4fdfd2282a3b47b",
    "seed13-evaluate": "1bb994eb70aff88a8d8cd4423209607a60b33fd5bf4699c61c270c20b7860158",
    "seed13-report": "26d92f0fe6c674516baa1d4317f645ab1549608326222ba24d063bdf67473a16",
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
