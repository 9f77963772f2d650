"""Synthetic two-vocabulary corpora for the test suite, and a corpus writer.

Generates a forum-like binary corpus: non-spam posts draw from a shared
pool plus topic words, spam posts from the shared pool plus a small
promotional vocabulary diluted with topic noise.  Class imbalance and the
weak per-document spam signal reproduce the regime where a classifier
trained on raw counts leans majority and synthetic oversampling helps.
`write_corpus` writes a corpus in the CSV or JSONL schema that
`textbalance.ingest.load_corpus` reads.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from textbalance.ingest import Corpus, LabeledDocument
from textbalance.rng import SplitMix64, derive_stream

# The stream tag of `two_vocab_corpus`; the golden digests depend on it.
STREAM_FIXTURE = 0x46495854

SHARED_WORDS = (
    "tutorial", "video", "audio", "please", "thanks", "question", "problem",
    "answer", "help", "using", "version", "screen", "system", "error",
    "working", "trying", "command", "step", "guide", "forum", "post",
    "reply", "topic", "issue", "course", "lesson", "practice", "example",
    "session", "update",
)

TOPIC_WORDS = (
    "install", "linux", "ubuntu", "terminal", "python", "spreadsheet",
    "editor", "compiler", "script", "package", "download", "keyboard",
    "shortcut", "browser", "firefox", "libre", "office", "debian",
    "kernel", "driver", "partition", "bootloader", "filesystem", "network",
)

PROMO_WORDS = (
    "cheap", "offer", "winner", "cash", "pills", "casino", "lottery",
    "discount", "earn", "money", "click", "deal",
)

DEFAULT_TRAIN_NONSPAM = 201
DEFAULT_TRAIN_SPAM = 33
DEFAULT_TEST_PER_CLASS = 20

_MIN_DOC_LEN = 8
_LEN_SPREAD = 13  # doc length uniform in [8, 20]
_HAM_SHARED_RATE = 0.65
_SPAM_SHARED_RATE = 0.55
_SPAM_TOPIC_RATE = 0.25  # topic-word noise inside spam posts


def _pick(rng: SplitMix64, pool: tuple[str, ...]) -> str:
    return pool[rng.next_below(len(pool))]


def _nonspam_text(rng: SplitMix64) -> str:
    length = _MIN_DOC_LEN + rng.next_below(_LEN_SPREAD)
    words = []
    for _ in range(length):
        if rng.next_float() < _HAM_SHARED_RATE:
            words.append(_pick(rng, SHARED_WORDS))
        else:
            words.append(_pick(rng, TOPIC_WORDS))
    return " ".join(words)


def _spam_text(rng: SplitMix64) -> str:
    length = _MIN_DOC_LEN + rng.next_below(_LEN_SPREAD)
    words = []
    for _ in range(length):
        r = rng.next_float()
        if r < _SPAM_SHARED_RATE:
            words.append(_pick(rng, SHARED_WORDS))
        elif r < _SPAM_SHARED_RATE + _SPAM_TOPIC_RATE:
            words.append(_pick(rng, TOPIC_WORDS))
        else:
            words.append(_pick(rng, PROMO_WORDS))
    return " ".join(words)


def two_vocab_corpus(
    seed: int,
    n_train_nonspam: int = DEFAULT_TRAIN_NONSPAM,
    n_train_spam: int = DEFAULT_TRAIN_SPAM,
    n_test_per_class: int = DEFAULT_TEST_PER_CLASS,
) -> tuple[Corpus, Corpus]:
    """Deterministic (train, test) corpora; test is balanced per class."""
    rng = derive_stream(seed, STREAM_FIXTURE)
    train_docs = []
    for i in range(n_train_nonspam):
        train_docs.append(LabeledDocument(f"train-ham-{i}", _nonspam_text(rng), 0))
    for i in range(n_train_spam):
        train_docs.append(LabeledDocument(f"train-spam-{i}", _spam_text(rng), 1))
    test_docs = []
    for i in range(n_test_per_class):
        test_docs.append(LabeledDocument(f"test-ham-{i}", _nonspam_text(rng), 0))
    for i in range(n_test_per_class):
        test_docs.append(LabeledDocument(f"test-spam-{i}", _spam_text(rng), 1))
    return Corpus.from_documents(train_docs), Corpus.from_documents(test_docs)


def write_corpus(corpus: Corpus, path, format: str = "csv") -> None:
    """Write a corpus in the loader's CSV schema, or in its JSONL schema for
    any other ``format``."""
    path = Path(path)
    if format == "csv":
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "text", "label"])
            for doc in corpus.documents:
                writer.writerow([doc.id, doc.text, doc.label])
    else:
        with path.open("w", encoding="utf-8") as handle:
            for doc in corpus.documents:
                record = {"id": doc.id, "text": doc.text, "label": doc.label}
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
