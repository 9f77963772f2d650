"""Stop-word lists: a pinned built-in English list plus file overrides.

The built-in list is the classic 318-word English stop list long used by
IR systems (it descends from the Glasgow/SMART tradition).  It ships as a
data file so its content hash can be recorded in model bundles; a bundle
trained against one list refuses to predict with a different one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

BUILTIN_NAME = "english-classic-318"
BUILTIN_SHA256 = "4e22be0ad71ae1c41dd7a8f944e851ead671d114edf4faad1ee8c698d2ba5084"


@dataclass(frozen=True)
class StopWordList:
    """Immutable lowercase word set with a version identifier."""

    words: frozenset[str]
    name: str

    def sha256(self) -> str:
        """Content hash over the sorted word list, one word per line."""
        blob = "\n".join(sorted(self.words)) + "\n"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _parse_lines(lines, name: str) -> StopWordList:
    words = set()
    for line in lines:
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return StopWordList(words=frozenset(words), name=name)


def default_stopwords() -> StopWordList:
    """The built-in English list, checked against its pinned hash on
    every call."""
    text = resources.files("textbalance").joinpath("stopwords_english.txt").read_text("utf-8")
    stops = _parse_lines(text.splitlines(), BUILTIN_NAME)
    if stops.sha256() != BUILTIN_SHA256:
        raise RuntimeError("packaged stop-word list does not match its pinned hash")
    return stops


def load_stopwords(path, name: str | None = None) -> StopWordList:
    """Load an override list: one word per line, '#' starts a comment.
    The file is UTF-8; a leading byte-order mark is skipped."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig") as handle:
        return _parse_lines(handle, name if name is not None else path.name)
