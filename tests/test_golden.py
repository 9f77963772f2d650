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
    "seed7-train": "3a671eaf92d5c9b95d424385d1e3cd5691b72585b4365a3995c3ef31605aa2a9",
    "seed7-predict": "944ef4e11fdf4391fae317383b32a3f26a2502f26c841821524751410edaa64a",
    "seed7-evaluate": "ab84b0b604261de3ce95e565a44d4c4b7dd492216c82aa2e1a257c72a714535f",
    "seed7-report": "044b43b28910d3b54671f58843e188d9812c69fe09c9c9c59ad5c192ca18d9db",
    "seed7-scatter": "ec0592e50a084f74ee40f061bf80aa740f640170dc024fd4014139dd9334b22a",
    "seed7-oversample": "eed630c8fa349f4013d9b25f37cd725515040c55769154a55b5954cd1f1751dd",
    "seed11-train": "5912146cd34ed1a63d18577135506532a9936fe5282dba1c42cff2bcc79c9a1e",
    "seed11-predict": "34d28649da3b039b20b8167a72d71c5364b5ae41224f378e6dcaa06f70cc421f",
    "seed11-evaluate": "9a7e80d9860bff9b046d23895e79cc738007be283ef7a64a52dab152c7241eb6",
    "seed11-report": "405e653dcdf9f554318f125a0e5f64eb1e1d3ad4fa6c25a4e11507c043e24dd8",
    "seed11-scatter": "2bfef8c10ca244e62b3e1e29a9ca173fda86b2944b2105bc51d51d8242d27da5",
    "seed11-oversample": "3d801af2f6b69860b1bd87aa94c8560a50fe37506a4dddbc2b3cfeae342dcd18",
    "seed13-train": "d33d985d3a6496e4a48915fdc56d020601af09d33f30837386792d87bb0eeea6",
    "seed13-predict": "fc3cc10896d84b036131bb51aa96388c8132f575527c98f65309a678937452d9",
    "seed13-evaluate": "1bb994eb70aff88a8d8cd4423209607a60b33fd5bf4699c61c270c20b7860158",
    "seed13-report": "98ec28f293b6567fae294506e636532166015464998e6e2d6433a3db8cf45a89",
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
