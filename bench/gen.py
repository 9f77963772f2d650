"""Seeded synthetic forum corpora for the benchmark workloads.

Words are drawn by Zipf rank from an open-ended synthetic vocabulary, so
the number of distinct terms (and with it the TF-IDF dimension) grows with
the corpus size, as it does in real forum text.  Spam posts mix in a
promotional vocabulary, non-spam posts a topic vocabulary; both classes
share the Zipf background.  Class imbalance and markup density are per
profile.  Everything draws from SplitMix64, so one seed gives the same
files on every machine.
"""

from __future__ import annotations

import bisect
import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

from textbalance import ingest, matrixio, preprocess, stopwords, vectorize
from textbalance.rng import SplitMix64, mix64

# Independent streams per purpose, so changing one draw sequence never
# perturbs another.
STREAM_CORPUS = 0x42454E43484350
STREAM_BUNDLE_TRAIN = 0x42454E43484254

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)
# Background ranks stay below this, so promo and topic words (offset by
# multiples of it) never collide with background words.
_WORD_SPACE = len(_SYLLABLES) ** 3

_MIN_WORDS = 15
_WORD_SPREAD = 40  # words per post uniform in [_MIN_WORDS, _MIN_WORDS + _WORD_SPREAD)
_VOCAB_CAP = 60000  # background Zipf ranks
_CLASS_VOCAB = 200  # promo (spam) and topic (non-spam) words each
_SIGNAL_RATE = 0.2  # share of a post's words from its own class vocabulary
_CROSS_RATE = 0.02  # share from the other class's vocabulary (label noise)

_SCRIPT_WORDS = ("var", "function", "return", "document", "window", "tracker")
_STYLE_RULES = (".post{color:#333}", "div.sig{font-size:9px}", "a:hover{text-decoration:none}")
_ENTITIES = ("&amp;", "&#169;", "&nbsp;", "&lt;", "&gt;", "&quot;", "&#x2014;")
_INLINE_TAGS = ("b", "i", "em", "strong", "span", "code", "u")


def word(rank: int) -> str:
    """Deterministic pronounceable word for a rank; at least two syllables."""
    syllables = []
    while True:
        rank, digit = divmod(rank, len(_SYLLABLES))
        syllables.append(_SYLLABLES[digit])
        if rank == 0 and len(syllables) >= 2:
            break
    return "".join(reversed(syllables))


@dataclass(frozen=True)
class Profile:
    """Shape of one generated corpus."""

    n_docs: int
    spam_rate: float  # exact share of label-1 documents
    markup: float  # 0 = plain text; 1 = every post carries forum markup
    zipf_s: float  # background Zipf exponent: larger means fewer distinct words


class _Zipf:
    def __init__(self, size: int, s: float):
        self._cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(size)))

    def draw(self, rng: SplitMix64) -> int:
        return bisect.bisect_right(self._cum, rng.next_float() * self._cum[-1])


class _Writer:
    """Builds one post, with markup at the profile's density."""

    def __init__(self, rng: SplitMix64, markup: float):
        self.rng = rng
        self.markup = markup
        self.parts: list[str] = []

    def chance(self, p: float) -> bool:
        return self.rng.next_float() < p

    def pick(self, pool):
        return pool[self.rng.next_below(len(pool))]

    def add_word(self, w: str) -> None:
        m = self.markup
        if self.chance(0.08 * m):
            tag = self.pick(_INLINE_TAGS)
            # Unclosed inline tags are common in forum posts.
            close = f"</{tag}>" if self.chance(0.7) else ""
            self.parts.append(f"<{tag}>{w}{close}")
        elif self.chance(0.03 * m):
            self.parts.append(f'<a href="http://example.org/t/{w}?id={self.rng.next_below(9999)}">{w}</a>')
        else:
            self.parts.append(w)
        if self.chance(0.04 * m):
            self.parts.append(self.pick(_ENTITIES))
        if self.chance(0.02 * m):
            self.parts.append("<br>")

    def text(self) -> str:
        body = " ".join(self.parts)
        m = self.markup
        if self.chance(0.35 * m):
            code = " ".join(self.pick(_SCRIPT_WORDS) for _ in range(4 + self.rng.next_below(12)))
            body = f'<script type="text/javascript">{code};</script>' + body
        if self.chance(0.25 * m):
            body = f"<style>{self.pick(_STYLE_RULES)}</style>" + body
        if self.chance(0.6 * m):
            body = f'<div class="post"><p>{body}</p></div>'
        if self.chance(0.1 * m):
            body += " <!-- signature -->"
        if self.chance(0.08 * m):
            body += ' <img src="smiley.gif"'  # tag never closed: runs to end of input
        return body


def corpus(seed: int, profile: Profile, stream: int = STREAM_CORPUS) -> list[tuple[str, str, int]]:
    """(id, text, label) records; exactly round(n * spam_rate) are spam."""
    rng = SplitMix64(mix64(seed ^ stream))
    background = _Zipf(_VOCAB_CAP, profile.zipf_s)
    class_words = _Zipf(_CLASS_VOCAB, 1.0)
    n_spam = int(profile.n_docs * profile.spam_rate + 0.5)
    labels = [1] * n_spam + [0] * (profile.n_docs - n_spam)
    rng.shuffle(labels)
    records = []
    for index, label in enumerate(labels):
        own = (2 if label else 1) * _WORD_SPACE
        other = (1 if label else 2) * _WORD_SPACE
        writer = _Writer(rng, profile.markup)
        for _ in range(_MIN_WORDS + rng.next_below(_WORD_SPREAD)):
            r = rng.next_float()
            if r < _SIGNAL_RATE:
                rank = own + class_words.draw(rng)
            elif r < _SIGNAL_RATE + _CROSS_RATE:
                rank = other + class_words.draw(rng)
            else:
                rank = background.draw(rng)
            writer.add_word(word(rank))
        records.append((f"post-{index}", writer.text(), label))
    return records


def write_csv(records, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(["id", "text", "label"])
        out.writerows(records)


def write_lines(records, path) -> None:
    """One post text per line, as `textbalance predict --input` reads them."""
    Path(path).write_text("".join(text + "\n" for _, text, _ in records), encoding="utf-8")


def write_matrix(seed: int, profile: Profile, path) -> int:
    """TF-IDF matrix of a generated corpus, written through the package API.

    Returns the matrix's row count.
    """
    docs = ingest.Corpus.from_documents(
        ingest.LabeledDocument(doc_id, text, label)
        for doc_id, text, label in corpus(seed, profile)
    )
    tokens = preprocess.preprocess_corpus(docs, stopwords.default_stopwords())
    model = vectorize.fit(tokens)
    matrix = vectorize.transform_corpus(model, tokens, docs.labels)
    matrixio.write_matrix(matrix, path)
    return len(matrix)
