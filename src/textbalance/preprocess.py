"""Raw text to clean token lists.

The cleaning pipeline is the same for training, evaluation, and
prediction-time inputs: strip HTML markup, lowercase and tokenize on
non-alphanumeric runs, then drop short tokens and stop words.  A
document's tokens are a plain ``list[str]`` from here to `vectorize`.

`strip_html` is one ``re.sub`` of the compiled `_MARKUP` on every post.
That pattern reads only ASCII letters, so a post that is not ASCII first
has each non-ASCII letter just after '<' or an element name turned into
"z"; such a letter always lies in a span the pattern deletes (see
`strip_html`).

`tokenize` makes no regex call.  It encodes the lowercased text to ASCII
bytes, where the codec error handler ``"textbalance.tokens"`` writes each
non-ASCII character as its UTF-8 bytes if it is alphanumeric and as a
space if not; one ``bytes.translate`` through `_TOKEN_BYTES` then turns
every other ASCII byte into a space, and ``str.split`` cuts the tokens.
"""

from __future__ import annotations

import codecs
import re
from collections.abc import Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .ingest import Corpus
    from .stopwords import StopWordList

DEFAULT_MIN_TOKEN_LEN = 3

_NAMED_ENTITIES = {
    "nbsp": " ",  # decoded to a plain space, not U+00A0
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
}

# tokenize's byte table: ASCII letters and digits to lowercase, every other
# ASCII byte to a space, and bytes >= 0x80 (the handler's UTF-8) unchanged.
_TOKEN_BYTES = bytes(
    b if b >= 0x80 else ord(chr(b).lower()) if chr(b).isalnum() else 0x20 for b in range(256)
)


def _non_ascii_tokens(error: UnicodeEncodeError) -> tuple[bytes, int]:
    """The ASCII codec's handler for `tokenize`: a run of non-ASCII
    characters becomes the UTF-8 bytes of its alphanumeric characters, each
    other character (a lone surrogate among them) a space."""
    run = error.object[error.start : error.end]
    return "".join(c if c.isalnum() else " " for c in run).encode(), error.end


codecs.register_error("textbalance.tokens", _non_ascii_tokens)


def _element(name: str) -> str:
    """A script or style element.  An opening tag whose body rstrips to a
    trailing "/" is the tag alone; any other runs through the first closing
    ``</name`` (whole name, ASCII letters in any case) and on to the next
    '>', or to the end of input.  ``\\s`` matches exactly what
    ``str.rstrip`` strips."""
    closing = rf"/(?ai:{name})(?![A-Za-z])"
    # Text up to the first closing tag, one run of non-'<' at a time.
    body = rf"[^<]*(?:<(?!{closing})[^<]*)*(?:<{closing}[^>]*>?)?"
    return rf"<(?ai:{name})(?![A-Za-z])(?:[^>]*/\s*(?:>|\Z)|[^>]*>?{body})"


# strip_html's markup: script and style elements, any other tag, then the
# named entities and the numeric references of at most 7 decimal or 6 hex
# digits.
_MARKUP = re.compile(
    "|".join(
        (
            _element("script"),
            _element("style"),
            r"<[A-Za-z/!][^>]*>?",
            rf"&(?:(?P<named>{'|'.join(_NAMED_ENTITIES)})"
            r"|#(?P<dec>[0-9]{1,7})|#[xX](?P<hex>[0-9A-Fa-f]{1,6}));",
        )
    )
)

# The places where _MARKUP reads a letter, when the character there is not
# ASCII: just after '<', and just after an element name.
_LETTER_SITES = re.compile(r"<(?ai:/?(?:script|style))?[^\x00-\x7f]")


def _replacement(m: re.Match) -> str:
    kind = m.lastgroup
    if kind is None:  # a tag or element
        return ""
    if kind == "named":
        return _NAMED_ENTITIES[m[kind]]
    code = int(m[kind], 16 if kind == "hex" else 10)
    return chr(code) if code <= 0x10FFFF else m[0]


def _mask_letter(m: re.Match) -> str:
    """A letter site with its last character turned into "z" if that
    character is a letter; no element name contains "z"."""
    site = m[0]
    return site[:-1] + "z" if site[-1].isalpha() else site


def strip_html(raw: str) -> str:
    """Remove tags and script/style bodies from (possibly malformed) markup.

    Survives unclosed tags and skips everything inside <script> and
    <style> elements.  A tag consumes input up to the next '>' (or end of
    input); a lone '<' not followed by a letter (any ``str.isalpha``
    character), '/', or '!' is literal text.  An element name is
    ``script`` or ``style`` in ASCII letters of any case, ended by a
    character that is not a letter.  The five common named entities and
    numeric character references (ASCII decimal digits after ``&#``, ASCII
    hex digits after ``&#x``) are decoded; decoded characters are emitted
    directly and never rescanned as markup.  Each newline, carriage return
    and tab, decoded ones included, becomes a space.

    One ``re.sub`` of `_MARKUP` does the work.  The pattern knows only
    ASCII letters, so a post that is not ASCII runs through a view of it
    instead: `_LETTER_SITES` finds each non-ASCII character just after
    '<' or an element name, and `_mask_letter` turns it into "z" if it is
    a letter.  The sub never copies a masked character into the output,
    because each one lies inside a span that the pattern deletes: the tag
    whose '<' or element name it follows, or a script or style body.  The
    view equals the post everywhere else.  This argument holds only while
    the pattern reads a letter nowhere else and matches no name that
    contains "z".
    """
    view = raw if raw.isascii() else _LETTER_SITES.sub(_mask_letter, raw)
    stripped = _MARKUP.sub(_replacement, view)
    return stripped.replace("\n", " ").replace("\r", " ").replace("\t", " ")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric characters.

    The tokens are the maximal runs of characters for which
    ``str.isalnum()`` is true in ``text.lower()``, the same as the regex
    ``[^\\W_]+`` finds there, whatever the input:

    * ``lower()`` runs on the whole text first, so a final sigma and
      ``"İ"`` keep their context;
    * every non-alphanumeric character becomes a space, and no
      alphanumeric character is whitespace, so ``split()`` cuts exactly at
      the non-alphanumeric positions;
    * the UTF-8 of a non-ASCII character uses only bytes >= 0x80, which
      `_TOKEN_BYTES` leaves as they are.
    """
    encoded = text.lower().encode("ascii", "textbalance.tokens")
    return encoded.translate(_TOKEN_BYTES).decode().split()


def filter_tokens(
    tokens: Iterable[str],
    stops: StopWordList,
    min_len: int = DEFAULT_MIN_TOKEN_LEN,
) -> list[str]:
    """Drop tokens shorter than ``min_len`` and stop-list members."""
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    return [t for t in tokens if len(t) >= min_len and t not in stops.words]


def preprocess_corpus(
    corpus: Corpus,
    stops: StopWordList,
    min_len: int = DEFAULT_MIN_TOKEN_LEN,
) -> list[list[str]]:
    """Strip, tokenize and filter each document, in corpus order; a
    document may yield no tokens."""
    return [
        filter_tokens(tokenize(strip_html(doc.text)), stops, min_len) for doc in corpus.documents
    ]
