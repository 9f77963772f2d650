"""HTML stripping, tokenization, and token filtering."""

from __future__ import annotations

import random

import oracles
import pytest

from textbalance.ingest import Corpus, LabeledDocument
from textbalance.preprocess import filter_tokens, preprocess_corpus, strip_html, tokenize
from textbalance.rng import SplitMix64
from textbalance.stopwords import StopWordList, default_stopwords, load_stopwords


class TestStripHtml:
    def test_removes_simple_tags(self):
        assert strip_html("<p>Hello <b>world</b></p>") == "Hello world"

    def test_tags_are_removed_not_replaced(self):
        assert strip_html("one<br/>two") == "onetwo"

    def test_attributes_with_special_chars(self):
        raw = '<a href="http://x.test?a=1&b=2">link</a>'
        assert strip_html(raw) == "link"

    def test_script_content_dropped(self):
        assert strip_html("keep <script>var x = 1;</script>text") == "keep text"

    def test_style_content_dropped(self):
        assert strip_html("a <style>p { color: red }</style>b") == "a b"

    def test_comment_markup_dropped(self):
        assert strip_html("<!-- comment -->after") == "after"

    def test_named_entities(self):
        raw = "Tom &amp; Jerry &lt;3 &gt; &quot;hi&quot;"
        assert strip_html(raw) == 'Tom & Jerry <3 > "hi"'

    def test_numeric_entities_decimal_and_hex(self):
        assert strip_html("A&#66;&#x43;&#X44;") == "ABCD"

    def test_nbsp_becomes_plain_space(self):
        assert strip_html("non&nbsp;breaking") == "non breaking"

    def test_decoded_entities_are_not_rescanned(self):
        # Double-encoded input decodes one layer only.
        assert strip_html("&amp;lt;") == "&lt;"

    def test_unknown_entity_left_alone(self):
        assert strip_html("&unknown; stays") == "&unknown; stays"

    def test_lone_angle_brackets_are_literal(self):
        assert strip_html("1 < 2 but 3 > 2") == "1 < 2 but 3 > 2"
        assert strip_html("<3 hearts") == "<3 hearts"

    def test_unterminated_tag_consumes_rest(self):
        assert strip_html("unterminated <b") == "unterminated "

    def test_whitespace_normalized(self):
        assert strip_html("line1\nline2\tend") == "line1 line2 end"

    def test_idempotent_when_output_has_no_tags(self):
        for raw in ("<p>Hello <b>world</b></p>", "plain text", "a &amp; b"):
            once = strip_html(raw)
            assert strip_html(once) == once

    def test_empty_input(self):
        assert strip_html("") == ""


class TestTokenize:
    def test_lowercases_and_splits_on_nonalnum(self):
        assert tokenize("Web2.0 Don't STOP-now 3.14") == [
            "web2",
            "0",
            "don",
            "t",
            "stop",
            "now",
            "3",
            "14",
        ]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ... ???") == []

    def test_unicode_letters_survive(self):
        assert tokenize("Café fällt") == ["café", "fällt"]


class TestScannerEdgeCases:
    """Tag, script-body and entity rules at their boundaries, for both
    `strip_html` and the scanner `oracles.strip_html` it must agree with."""

    CASES = [
        ("a<script/>b", "ab"),  # self-closing: no body to skip
        ("<script  / >visible", "visible"),
        ("a<script>x</scriptx>y</script>z", "az"),  # whole name must match
        ("a<script>x</script", "a"),  # unterminated closing tag
        ("a<STYLE>p{}</Style >b", "ab"),
        ("a<script>x</SCRİPT>y", "a"),  # "İ".lower() is two characters
        ("a<script>1<2</script>b", "ab"),
        ("<é>b", "b"),  # any isalpha character opens a tag
        # A name is ASCII letters ended by a non-letter, ASCII or not.
        ("<ſcript>x</script>y", "xy"),  # "ſ" (long s) is not "s"
        ("a<script>x</ſcript>y</script>z", "az"),
        ("a<script>x</scripté>y</script>z", "az"),
        ("a<scripté>x</script>y", "axy"),
        ("a<style>b</STYLEé>c</style>d", "ad"),
        ("<²>b", "<²>b"),  # "²" is not alphabetic
        ("<!x>y", "y"),
        ("</>z", "z"),
        ("a<b", "a"),
        ("<", "<"),
        ("x &amp", "x &amp"),  # no ';'
        ("&#x110000;", "&#x110000;"),  # beyond the last code point
        ("&#x10FFFF;", "\U0010ffff"),
        # Numeric references take ASCII digits only; anything else,
        # even what int() would parse, passes through literally.
        ("&#1_0;z", "&#1_0;z"),
        ("&#x0x41;", "&#x0x41;"),
        ("&# 65;", "&# 65;"),
        ("&#+65;", "&#+65;"),
        ("&#\u0663;", "&#\u0663;"),  # ARABIC-INDIC DIGIT THREE
        ("&#65;&#x41;&#X4a;", "AAJ"),
        ("&#9;a&#10;b", " a b"),  # decoded tab and newline become spaces
        ("&#13;\r\n", "   "),
        ("a&amp;&lt;b", "a&<b"),
        # Traps for the pattern; each expected value is the scanner's.
        ("<script/\x1c>x", "x"),  # rstrip() strips \x1c-\x1f, \x0b and \x0c
        ("<script /\x0b>x", "x"),
        ("a<script>x</script1>b", "ab"),  # a digit ends the name
        ("a<script", "a"),
        ("a<script>x", "a"),
        ("a<b\n", "a"),  # a tag that runs to the end takes the final newline
        ("&AMP;", "&AMP;"),  # named entities are case-sensitive
        ("&#1114111;", "\U0010ffff"),
        ("&#1114112;", "&#1114112;"),
        ("&#12345678;", "&#12345678;"),  # longer than the entity window
        ("&#0000065;&#00000065;", "A&#00000065;"),  # at most 7 decimal digits
        ("&#x000041;&#x0000041;", "A&#x0000041;"),  # at most 6 hex digits
        ("&#x3c;script>x", "<script>x"),  # decoded text is not rescanned
        ("&&amp;", "&&"),
    ]

    @pytest.mark.parametrize("raw, expected", CASES)
    def test_strip_html(self, raw, expected):
        assert strip_html(raw) == expected

    @pytest.mark.parametrize("raw, expected", CASES)
    def test_scanner(self, raw, expected):
        assert oracles.strip_html(raw) == expected

    def test_tokenize_follows_isalnum(self):
        assert tokenize("Ǆemo_x²½ İstanbul ß") == ["ǆemo", "x²½", "i", "stanbul", "ß"]


# Markup fragments for the differential strings below: tags, script and
# style forms, named and numeric entities (malformed ones too), control
# characters, and letters whose case mapping changes their length or form.
MARKUP_PIECES = (
    "<p>", "</p>", "<b>", "</b>", "<br/>", "<hr>", "<a href='x?a=1&b=2'>", "</a>",
    "<div class=\"c\">", "</div>", "<!-- c -->", "<!x>", "</>", "<", ">", "<<", "a<b",
    "<é>", "<²>", "<1>", "< p>", "<p", "</p", "<script>", "</script>", "<SCRIPT>",
    "</SCRIPT>", "<script/>", "<script  / >", "</scriptx>", "</script", "</script1>",
    "<script", "<style", "<style>", "</style>", "<STYLE>", "</Style >", "<style/>",
    "</SCRİPT>", "&amp;", "&lt;", "&gt;", "&quot;", "&nbsp;", "&amp", "&AMP;", "&copy;",
    "&mdash;", "&;", "&#;", "&#x;", "&#65;", "&#x41;", "&#X4a;", "&#x3c;", "&#169;",
    "&#x2014;", "&#1_0;", "&# 65;", "&#+65;", "&#-65;", "&#x0x41;", "&#\u0663;",
    "&#x110000;", "&#x10FFFF;", "&#0;", "&#9;", "&#10;", "&#13;", "&#1234567;",
    "&#12345678;", "&#1114112;", "&#00000065;", "&#x0000041;", "&&", "&", "#", ";",
    "\r", "\n", "\t", "\r\n", " ", "  ", ".", ",", "!", "?", "_", "-", "'", "\"", "/",
    "²", "½", "İ", "ı", "ſ", "\u212a", "ß", "ẞ", "Ǆ", "ǅ", "ǆ", "Σ", "ΑΣ", "ς", "ﬁ", "Ⅻ", "①",
    "٣", "١٢", "x²", "Ab", "ab", "AB", "free", "Money", "OFFER", "click", "now", "the",
    "a", "an", "of", "linux", "Ubuntu", "x1", "2024", "naïve", "Straße", "Istanbul",
    "\u0307", "\u00a0", "\u3000", "\ufeff",
)


def _differential_strings(seed: int, count: int, codes=range(0x20, 0x3000)):
    """Seeded strings of up to 40 draws; a draw is one of `MARKUP_PIECES`,
    or (one time in 12.5) the character of a random code from ``codes``."""
    rng = random.Random(seed)
    for _ in range(count):
        parts = []
        for _ in range(rng.randrange(40)):
            if rng.random() < 0.08:
                parts.append(chr(rng.choice(codes)))
            else:
                parts.append(rng.choice(MARKUP_PIECES))
        yield "".join(parts)


# One template per place where strip_html reads a letter (after '<', and
# after an element name in an opening or closing tag), plus the whitespace
# before a self-closing '>'.
SITE_TEMPLATES = (
    "<{}b>c",
    "a<script{}>x</script>y",
    "a<SCRIPT>x</script{}>y</script>z",
    "a<style{}>x</style>y",
    "a<style>x</STYLE{}>y</style>z",
    "a<script/{}>x",
)


class TestStripHtmlMatchesScanner:
    """`strip_html`, one pattern over a masked view of a post that is not
    ASCII, gives the output of the scanner `oracles.strip_html`."""

    @staticmethod
    def assert_same_output(texts):
        for text in texts:
            assert strip_html(text) == oracles.strip_html(text), ascii(text)

    def test_differential_strings(self):
        texts = list(_differential_strings(11, 4000, codes=range(0x110000)))
        assert {text.isascii() for text in texts} == {True, False}
        self.assert_same_output(texts)

    def test_every_basic_plane_character_at_each_site(self):
        self.assert_same_output(t.format(chr(c)) for t in SITE_TEMPLATES for c in range(0x10000))

    def test_astral_sample_at_each_site(self):
        rng = SplitMix64(31)
        codes = [0x10000 + rng.next_below(0x100000) for _ in range(5000)]
        codes += [0x10000, 0x1D400, 0x20000, 0x10FFFF]  # first, a math letter, a CJK ideograph, last
        self.assert_same_output(t.format(chr(c)) for t in SITE_TEMPLATES for c in codes)


class TestTokensAreFixedPoints:
    """``tokenize(t) == [t]`` for every token ``tokenize`` emits, so the
    vocabulary check that bundles pass when loaded rejects no bundle that
    training can produce."""

    def test_differential_markup_strings(self):
        for text in _differential_strings(5, 4000):
            for token in tokenize(text) + tokenize(strip_html(text)):
                assert tokenize(token) == [token], (text, token)

    def test_every_basic_plane_character(self):
        for code in range(0x10000):
            for token in tokenize(chr(code)):
                assert tokenize(token) == [token], hex(code)


# Characters whose case mapping depends on context or changes length, lone
# surrogates, alphanumerics outside the letters, and the whitespace that
# str.split knows beyond ASCII space, tab and newline.
CASING_PIECES = (
    "Σ", "σ", "ς", "İ", "ı", "K", "\u212a", "ǅ", "ﬃ", "\u0307", "\u0345",
    "\ud800", "\udbff", "\udc00", "\udfff", "_", "²", "½", "٣",
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
    "a", "B", "i", "s", "1", " ", "-", "\x7f", "é",
)


class TestTokenizeMatchesRegex:
    """`tokenize` gives the tokens of the regex `oracles.tokenize` on any
    text: every character in context, seeded mixes of the characters most
    likely to break the byte-table path, and stripped markup."""

    @staticmethod
    def assert_same_tokens(texts):
        for text in texts:
            assert tokenize(text) == oracles.tokenize(text), ascii(text)

    def test_every_basic_plane_character_in_context(self):
        self.assert_same_tokens("a" + chr(c) + "B" + chr(c) for c in range(0x10000))

    def test_astral_sample_in_context(self):
        rng = SplitMix64(29)
        codes = [0x10000 + rng.next_below(0x100000) for _ in range(20000)]
        codes += [0x10000, 0x1D7CE, 0x1F600, 0x10FFFF]  # first, a math digit, an emoji, last
        self.assert_same_tokens("a" + chr(c) + "B" + chr(c) for c in codes)

    def test_no_alphanumeric_character_is_whitespace(self):
        # So str.split can only cut where tokenize put a space.
        assert not any(chr(c).isalnum() and chr(c).isspace() for c in range(0x110000))

    def test_seeded_casing_strings(self):
        rng = SplitMix64(2029)
        texts = [
            "".join(CASING_PIECES[rng.next_below(len(CASING_PIECES))] for _ in range(n))
            for n in (rng.next_below(16) for _ in range(20000))
        ]
        self.assert_same_tokens(texts)

    def test_stripped_markup_strings(self):
        texts = list(_differential_strings(17, 4000))
        self.assert_same_tokens(texts)
        self.assert_same_tokens(strip_html(text) for text in texts)


class TestFilterTokens:
    def test_drops_stop_words_and_short_tokens(self):
        stops = StopWordList(words=frozenset({"the", "visit"}), name="tiny")
        out = filter_tokens(["the", "ab", "visit", "offer", "xyz"], stops, min_len=3)
        assert out == ["offer", "xyz"]

    def test_min_len_boundary(self):
        stops = StopWordList(words=frozenset(), name="none")
        assert filter_tokens(["ab", "abc"], stops, min_len=3) == ["abc"]
        assert filter_tokens(["ab", "abc"], stops, min_len=2) == ["ab", "abc"]

    def test_default_list_drops_common_function_words(self):
        stops = default_stopwords()
        out = filter_tokens(["is", "to", "installation", "this", "guide"], stops, min_len=3)
        assert out == ["installation", "guide"]
        assert filter_tokens(["they", "are", "spam"], stops, min_len=3) == ["spam"]


class TestPipeline:
    def test_document_end_to_end(self):
        doc = LabeledDocument(
            id="d1",
            text="<p>Free <b>Money</b> &amp; prizes!!! Visit http://spam.example now</p>",
            label=1,
        )
        (out,) = preprocess_corpus(Corpus.from_documents([doc]), default_stopwords())
        # "now" is a stop word; "&" and "!!!" are punctuation; tags vanish.
        assert out == ["free", "money", "prizes", "visit", "http", "spam", "example"]

    def test_corpus_order_preserved(self):
        corpus = Corpus.from_documents(
            [
                LabeledDocument(id="a", text="alpha beta gamma", label=0),
                LabeledDocument(id="b", text="delta epsilon", label=1),
            ]
        )
        stops = StopWordList(words=frozenset(), name="none")
        out = preprocess_corpus(corpus, stops)
        assert out == [["alpha", "beta", "gamma"], ["delta", "epsilon"]]

    def test_identical_pipeline_for_any_input_stage(self):
        # preprocess_corpus must equal the composed three steps.
        doc = LabeledDocument(id="x", text="<i>Deals</i> &gt; none? Act fast!!", label=1)
        stops = default_stopwords()
        composed = filter_tokens(tokenize(strip_html(doc.text)), stops, min_len=3)
        assert preprocess_corpus(Corpus.from_documents([doc]), stops) == [composed]


class TestStopWords:
    def test_builtin_list_pinned(self):
        stops = default_stopwords()
        assert len(stops.words) == 318
        assert stops.name == "english-classic-318"
        # Spot checks on well-known members / non-members.
        for word in ("the", "and", "now", "very"):
            assert word in stops.words
        for word in ("free", "money", "offer"):
            assert word not in stops.words

    def test_load_custom_list(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment line\nThe\nAND\n\nvisit\n")
        loaded = load_stopwords(path)
        assert loaded.words == frozenset({"the", "and", "visit"})

    def test_sha256_depends_only_on_membership(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("zebra\napple\n")
        b.write_text("apple\nzebra\n")  # different order, same set
        assert load_stopwords(a).sha256() == load_stopwords(b).sha256()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text("cheap\ncash\n", encoding="utf-8")
        marked.write_text("\ufeffcheap\ncash\n", encoding="utf-8")
        assert load_stopwords(marked).words == load_stopwords(plain).words == {"cheap", "cash"}
        assert load_stopwords(marked).sha256() == load_stopwords(plain).sha256()
