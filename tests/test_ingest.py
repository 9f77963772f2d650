"""Corpus loading, validation, and the seeded stratified split."""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest

from corpora import write_corpus
from textbalance.ingest import (
    Corpus,
    DatasetError,
    LabeledDocument,
    load_corpus,
    split,
)


def make_corpus(n0: int, n1: int) -> Corpus:
    docs = [LabeledDocument(id=f"h{i}", text=f"ham text {i}", label=0) for i in range(n0)]
    docs += [LabeledDocument(id=f"s{i}", text=f"spam text {i}", label=1) for i in range(n1)]
    return Corpus.from_documents(docs)


class TestLabeledDocument:
    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            LabeledDocument(id="a", text="x", label=2)

    def test_accepts_binary_labels(self):
        assert LabeledDocument(id="a", text="x", label=0).label == 0
        assert LabeledDocument(id="a", text="x", label=1).label == 1

    @pytest.mark.parametrize("field", ["text", "id"])
    def test_rejects_lone_surrogate(self, field):
        # UTF-8 cannot encode a lone surrogate, so Corpus.digest could not hash it.
        fields = {"id": "a", "text": "x", "label": 0, field: "bad \ud800 value"}
        message = f"^'{field}' does not encode as UTF-8 \\(surrogates not allowed\\)$"
        with pytest.raises(DatasetError, match=message):
            LabeledDocument(**fields)

    @pytest.mark.parametrize("field", ["text", "id"])
    def test_rejects_non_string(self, field):
        fields = {"id": "a", "text": "x", "label": 0, field: 5}
        with pytest.raises(DatasetError, match=f"^'{field}' must be a string$"):
            LabeledDocument(**fields)


class TestCorpus:
    def test_class_counts(self):
        corpus = make_corpus(3, 2)
        assert Counter(corpus.labels) == {0: 3, 1: 2}
        assert len(corpus) == 5
        # Direct construction is the same corpus, counts included.
        direct = Corpus(documents=corpus.documents)
        assert direct == corpus and Counter(direct.labels) == {0: 3, 1: 2}

    def test_duplicate_ids_rejected(self):
        docs = [
            LabeledDocument(id="dup", text="a", label=0),
            LabeledDocument(id="dup", text="b", label=1),
        ]
        with pytest.raises(DatasetError, match="dup"):
            Corpus.from_documents(docs)
        with pytest.raises(DatasetError, match="dup"):
            Corpus(documents=tuple(docs))

    def test_digest_is_content_sensitive(self):
        a = make_corpus(2, 2)
        b = make_corpus(2, 2)
        assert a.digest() == b.digest()
        flipped = Corpus.from_documents(
            [LabeledDocument(d.id, d.text, 1 - d.label) for d in a.documents]
        )
        assert flipped.digest() != a.digest()


class TestLoadCorpus:
    def test_csv_round_trip(self, tmp_path):
        corpus = make_corpus(3, 2)
        path = tmp_path / "data.csv"
        write_corpus(corpus, path, "csv")
        loaded = load_corpus(path, "csv")
        assert loaded.ids == corpus.ids
        assert loaded.labels == corpus.labels
        assert [d.text for d in loaded.documents] == [d.text for d in corpus.documents]

    def test_csv_preserves_commas_and_quotes(self, tmp_path):
        corpus = Corpus.from_documents(
            [LabeledDocument(id="q", text='he said, "buy now"\nplease', label=1),
             LabeledDocument(id="p", text="plain", label=0)]
        )
        path = tmp_path / "tricky.csv"
        write_corpus(corpus, path, "csv")
        loaded = load_corpus(path, "csv")
        assert loaded.documents[0].text == 'he said, "buy now"\nplease'

    def test_jsonl_round_trip(self, tmp_path):
        corpus = make_corpus(2, 2)
        path = tmp_path / "data.jsonl"
        write_corpus(corpus, path, "jsonl")
        loaded = load_corpus(path, "jsonl")
        assert loaded.ids == corpus.ids
        assert loaded.labels == corpus.labels

    def test_missing_id_gets_row_number(self, tmp_path):
        path = tmp_path / "noid.jsonl"
        path.write_text(
            json.dumps({"text": "alpha", "label": 0})
            + "\n"
            + json.dumps({"text": "beta", "label": 1})
            + "\n"
        )
        loaded = load_corpus(path, "jsonl")
        assert loaded.ids == ["row-0", "row-1"]

    def test_bad_label_reports_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"text": "ok", "label": 0})
            + "\n"
            + json.dumps({"text": "bad", "label": 3})
            + "\n"
        )
        with pytest.raises(DatasetError, match="record 2"):
            load_corpus(path, "jsonl")

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps({"label": 0}) + "\n")
        with pytest.raises(DatasetError, match="text"):
            load_corpus(path, "jsonl")

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"text": "", "label": 0}) + "\n")
        with pytest.raises(DatasetError, match="^record 1: empty text$"):
            load_corpus(path, "jsonl")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"text": "ok", "label": 0}\nnot json\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_corpus(path, "jsonl")

    def test_deeply_nested_json_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"text": "ok", "label": 0}\n' + "[" * 200_000 + "\n")
        with pytest.raises(DatasetError, match="line 2: JSON nested too deeply"):
            load_corpus(path, "jsonl")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,text,label\n")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_corpus(path, "csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DatasetError, match="format"):
            load_corpus(tmp_path / "x.csv", "xml")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,text,label\na1,alpha,0\nb2,beta,1\n")
        assert load_corpus(path, "csv").ids == ["a1", "b2"]
        path.write_bytes(b"\xef\xbb\xbftext,label\nalpha,0\n")
        assert load_corpus(path, "csv").ids == ["row-0"]
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"id": "a1", "text": "alpha", "label": 1}\n')
        loaded = load_corpus(path, "jsonl")
        assert (loaded.ids, loaded.labels) == (["a1"], [1])

    @pytest.mark.parametrize("field", ["text", "id"])
    def test_lone_surrogate_rejected(self, tmp_path, field):
        # The escape \ud800 spells a lone surrogate, which UTF-8 cannot encode.
        record = {"id": "a1", "text": "alpha", "label": 0, field: "bad \ud800 value"}
        path = tmp_path / "surrogate.jsonl"
        path.write_text(json.dumps({"text": "ok", "label": 1}) + "\n" + json.dumps(record) + "\n")
        assert "\\ud800" in path.read_text()
        message = f"^record 2: '{field}' does not encode as UTF-8 \\(surrogates not allowed\\)$"
        with pytest.raises(DatasetError, match=message):
            load_corpus(path, "jsonl")

    def test_csv_header_must_name_text_and_label(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("id,body\n1,hello\n")
        with pytest.raises(DatasetError, match="header"):
            load_corpus(path, "csv")

    @pytest.mark.parametrize(
        "fmt, text, message",
        [
            ("csv", "text,label,text\nspam,1,ham\n", "CSV header: field 'text'"),
            ("csv", "id,text,label,id\na,x,0,b\n", "CSV header: field 'id'"),
            ("csv", "label,text,label\n1,x,0\n", "CSV header: field 'label'"),
            ("jsonl", '{"text": "ok", "label": 0}\n\n{"text": "a", "label": 1, "text": "b"}\n',
             "record at line 3: field 'text'"),
            ("jsonl", '{"id": "a", "text": "x", "label": 0, "id": "b"}\n',
             "record at line 1: field 'id'"),
            ("jsonl", '{"label": 1, "text": "x", "label": 0}\n', "record at line 1: field 'label'"),
        ],
    )
    def test_field_named_twice_rejected(self, tmp_path, fmt, text, message):
        path = tmp_path / f"twice.{fmt}"
        path.write_text(text)
        with pytest.raises(DatasetError, match=f"^{message} named more than once$"):
            load_corpus(path, fmt)

    def test_other_repeated_names_are_read(self, tmp_path):
        # A repeated column that is no field, and the keys of a nested JSON
        # object, are read as before: the fields are the record's own.
        rows = tmp_path / "notes.csv"
        rows.write_text("id,note,text,label,note\na,x,alpha,1,y\n")
        lines = tmp_path / "nested.jsonl"
        lines.write_text('{"id": "a", "text": "alpha", "label": 1, "meta": {"text": 1, "text": 2}}')
        expected = (LabeledDocument(id="a", text="alpha", label=1),)
        assert load_corpus(rows, "csv").documents == expected
        assert load_corpus(lines, "jsonl").documents == expected


class TestStratifiedSplit:
    def test_imbalanced_class_proportions(self):
        # 273 majority / 40 minority at 0.8 keeps the imbalance on both
        # sides: train 218+32, test 55+8.
        corpus = make_corpus(273, 40)
        result = split(corpus, 0.8, seed=1)
        assert Counter(result.train.labels) == {0: 218, 1: 32}
        assert Counter(result.test.labels) == {0: 55, 1: 8}
        assert len(result.train) + len(result.test) == 313

    def test_global_size_matches_rounded_fraction(self):
        for n0, n1, fraction in [(10, 10, 0.5), (7, 3, 0.6), (50, 5, 0.9), (9, 4, 0.75)]:
            corpus = make_corpus(n0, n1)
            result = split(corpus, fraction, seed=3)
            expected = math.floor(fraction * (n0 + n1) + 0.5)
            assert len(result.train) == expected, (n0, n1, fraction)

    def test_symmetric_stratification(self):
        result = split(make_corpus(5, 5), 0.8, seed=4)
        assert Counter(result.train.labels) == {0: 4, 1: 4}
        assert Counter(result.test.labels) == {0: 1, 1: 1}

    def test_half_rounds_up(self):
        # 5 docs per class at 0.5: per-class 2.5 rounds to 3, then one class
        # gives a document back so the global count stays round(0.5*10) = 5.
        result = split(make_corpus(5, 5), 0.5, seed=0)
        assert len(result.train) == 5
        assert set(Counter(result.train.labels).values()) == {2, 3}

    def test_every_class_in_both_partitions(self):
        for seed in range(10):
            result = split(make_corpus(17, 2), 0.8, seed=seed)
            assert set(result.train.labels) == {0, 1}
            assert set(result.test.labels) == {0, 1}

    def test_partitions_are_disjoint_and_cover(self):
        corpus = make_corpus(12, 6)
        result = split(corpus, 0.7, seed=5)
        train_ids = set(result.train.ids)
        test_ids = set(result.test.ids)
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(corpus.ids)

    def test_same_seed_reproduces_membership(self):
        corpus = make_corpus(30, 10)
        a = split(corpus, 0.8, seed=11)
        b = split(corpus, 0.8, seed=11)
        assert a.train.ids == b.train.ids
        assert a.test.ids == b.test.ids

    def test_different_seed_changes_membership(self):
        corpus = make_corpus(30, 10)
        a = split(corpus, 0.8, seed=11)
        b = split(corpus, 0.8, seed=12)
        assert a.train.ids != b.train.ids

    def test_singleton_class_rejected(self):
        with pytest.raises(DatasetError, match="too small"):
            split(make_corpus(5, 1), 0.8, seed=0)

    def test_fraction_bounds(self):
        corpus = make_corpus(5, 5)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DatasetError):
                split(corpus, bad, seed=0)

    def test_extreme_fraction_on_tiny_corpus_rejected(self):
        # round(0.9 * 4) = 4 would leave the test side empty.
        with pytest.raises(DatasetError, match="too small"):
            split(make_corpus(2, 2), 0.9, seed=0)

    def test_manifest_lists_both_sides(self):
        result = split(make_corpus(8, 4), 0.75, seed=2)
        manifest = result.to_manifest()
        assert manifest["seed"] == 2
        assert manifest["train_fraction"] == 0.75
        assert len(manifest["train_ids"]) == len(result.train)
        assert len(manifest["test_ids"]) == len(result.test)
