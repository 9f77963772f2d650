"""Raw text to clean token lists.

The cleaning pipeline is the same for training, evaluation, and
prediction-time inputs: strip HTML markup, lowercase and tokenize on
non-alphanumeric runs, then drop short tokens and stop words.  A
document's tokens are a plain ``list[str]`` from here to `vectorize`.

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

# Longest recognizable entity body: "#" + up to 7 digits, or a name.
_MAX_ENTITY_BODY = 8

_MARKUP = re.compile("[<&]")
# Numeric references take ASCII digits only, as in the WHATWG tokenizer.
_DECIMAL_DIGITS = re.compile("[0-9]+")
_HEX_DIGITS = re.compile("[0-9A-Fa-f]+")

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
    """A script or style element as the scanner skips it.  An opening tag
    whose body rstrips to a trailing "/" is the tag alone; any other runs
    through the first closing ``</name`` (whole name, any case) and on to
    the next '>', or to the end of input.  On ASCII, ``\\s`` matches exactly
    what ``str.rstrip`` strips."""
    closing = rf"/(?i:{name})(?![A-Za-z])"
    # Text up to the first closing tag, one run of non-'<' at a time.
    body = rf"[^<]*(?:<(?!{closing})[^<]*)*(?:<{closing}[^>]*>?)?"
    return rf"<(?i:{name})(?![A-Za-z])(?:[^>]*/\s*(?:>|\Z)|[^>]*>?{body})"


# strip_html's markup on ASCII input: script and style elements, any other
# tag, then the entities _decode_entity accepts within _MAX_ENTITY_BODY.
_ASCII_MARKUP = re.compile(
    "|".join(
        (
            _element("script"),
            _element("style"),
            r"<[A-Za-z/!][^>]*>?",
            r"&(?:(?P<named>nbsp|amp|lt|gt|quot)"
            r"|#(?P<dec>[0-9]{1,7})|#[xX](?P<hex>[0-9A-Fa-f]{1,6}));",
        )
    )
)


def _ascii_replacement(m: re.Match) -> str:
    kind = m.lastgroup
    if kind is None:  # a tag or element
        return ""
    if kind == "named":
        return _NAMED_ENTITIES[m[kind]]
    code = int(m[kind], 16 if kind == "hex" else 10)
    return chr(code) if code <= 0x10FFFF else m[0]


def _decode_entity(raw: str, pos: int) -> tuple[str, int] | None:
    """Decode an entity starting at raw[pos] == '&'.

    Returns (decoded_text, chars_consumed) or None when the span is not a
    recognizable entity and the '&' should pass through literally.
    """
    end = raw.find(";", pos + 1, pos + 2 + _MAX_ENTITY_BODY)
    if end == -1:
        return None
    body = raw[pos + 1 : end]
    if body in _NAMED_ENTITIES:
        return _NAMED_ENTITIES[body], end - pos + 1
    if body[:2] in ("#x", "#X"):
        digits, base = _HEX_DIGITS.fullmatch(body, 2), 16
    elif body[:1] == "#":
        digits, base = _DECIMAL_DIGITS.fullmatch(body, 1), 10
    else:
        return None
    if digits is None:
        return None
    code = int(digits[0], base)
    if code <= 0x10FFFF:
        return chr(code), end - pos + 1
    return None


def _alpha_run(raw: str, start: int) -> str:
    end = start
    while end < len(raw) and raw[end].isalpha():
        end += 1
    return raw[start:end]


def _skip_body(raw: str, i: int, name: str) -> int:
    """Index just past the ``</name ...>`` that closes a script/style body."""
    while (j := raw.find("</", i)) != -1:
        if _alpha_run(raw, j + 2).lower() == name:
            gt = raw.find(">", j + 2)
            return len(raw) if gt == -1 else gt + 1
        i = j + 1
    return len(raw)


def _strip_scanned(raw: str) -> str:
    """`strip_html` for any input: the reference scanner, and the path
    every post that is not pure ASCII takes."""
    out: list[str] = []
    i = 0
    while (m := _MARKUP.search(raw, i)) is not None:
        j = m.start()
        out.append(raw[i:j])
        i = j + 1
        if raw[j] == "&":
            decoded = _decode_entity(raw, j)
            if decoded is None:
                out.append("&")
            else:
                out.append(decoded[0])
                i = j + decoded[1]
            continue
        nxt = raw[i : i + 1]
        if not (nxt.isalpha() or nxt in ("/", "!")):
            out.append("<")
            continue
        gt = raw.find(">", i)
        tag_body = raw[i:] if gt == -1 else raw[i:gt]
        i = len(raw) if gt == -1 else gt + 1
        name = _alpha_run(tag_body, 0).lower()
        if name in ("script", "style") and not tag_body.rstrip().endswith("/"):
            i = _skip_body(raw, i, name)
    out.append(raw[i:])
    return "".join(out).replace("\n", " ").replace("\r", " ").replace("\t", " ")


def strip_html(raw: str) -> str:
    """Remove tags and script/style bodies from (possibly malformed) markup.

    Survives unclosed tags and skips everything inside <script> and
    <style> elements.  A tag consumes input up to the next '>' (or end of
    input); a lone '<' not followed by a letter, '/', or '!' is literal
    text.  The five common named entities and numeric character references
    (ASCII decimal digits after ``&#``, ASCII hex digits after ``&#x``) are
    decoded; decoded characters are emitted directly and never rescanned as
    markup.  Each newline, carriage return and tab, decoded ones included,
    becomes a space.

    Two paths give identical output.  An ASCII post goes through one
    compiled pattern and ``re.sub``; any other post goes through the
    hand-written scanner `_strip_scanned`, which copies the text between
    markup characters in one slice.  The pattern holds only on ASCII:
    off ASCII, ``(?i:script)`` also matches "ſcript" (long s), the scanner
    opens a tag at any ``str.isalpha`` character, and ``"İ".lower()``
    changes length.
    """
    if not raw.isascii():
        return _strip_scanned(raw)
    stripped = _ASCII_MARKUP.sub(_ascii_replacement, raw)
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
