"""Dataset loading, validation, and deterministic stratified splitting."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .rng import STREAM_SPLIT, derive_stream

VALID_LABELS = (0, 1)


class DatasetError(ValueError):
    """Raised for malformed dataset files or invalid split requests."""


@dataclass(frozen=True)
class LabeledDocument:
    """One raw text sample with a binary label (0 = non-spam, 1 = spam)."""

    id: str
    text: str
    label: int

    def __post_init__(self):
        if self.label not in VALID_LABELS:
            raise DatasetError(f"label must be 0 or 1, got {self.label!r}")
        for field in ("text", "id"):
            value = getattr(self, field)
            if not isinstance(value, str):
                raise DatasetError(f"'{field}' must be a string")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate, e.g. from a JSON \ud800 escape
                raise DatasetError(f"'{field}' does not encode as UTF-8 ({exc.reason})") from exc


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of labeled documents with unique ids."""

    documents: tuple[LabeledDocument, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise DatasetError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)

    @classmethod
    def from_documents(cls, documents) -> "Corpus":
        return cls(documents=tuple(documents))

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def labels(self) -> list[int]:
        return [doc.label for doc in self.documents]

    @property
    def ids(self) -> list[str]:
        return [doc.id for doc in self.documents]

    def digest(self) -> str:
        """SHA-256 over the canonical (id, text, label) stream."""
        h = hashlib.sha256()
        for doc in self.documents:
            h.update(
                json.dumps([doc.id, doc.text, doc.label], ensure_ascii=False).encode("utf-8")
            )
            h.update(b"\n")
        return h.hexdigest()


@dataclass(frozen=True)
class DatasetSplit:
    """A stratified train/test partition, fully determined by its seed."""

    train: Corpus
    test: Corpus
    seed: int
    train_fraction: float

    def to_manifest(self) -> dict:
        return {
            "seed": self.seed,
            "train_fraction": self.train_fraction,
            "train_ids": list(self.train.ids),
            "test_ids": list(self.test.ids),
        }


def _parse_label(raw, where: str) -> int:
    if isinstance(raw, bool):
        raise DatasetError(f"{where}: label must be 0 or 1, got {raw!r}")
    if isinstance(raw, int):
        value = raw
    elif isinstance(raw, str) and raw.strip() in ("0", "1"):
        value = int(raw.strip())
    else:
        raise DatasetError(f"{where}: label must be 0 or 1, got {raw!r}")
    if value not in VALID_LABELS:
        raise DatasetError(f"{where}: label must be 0 or 1, got {value}")
    return value


def _make_document(record: dict, index: int, where: str) -> LabeledDocument:
    if "text" not in record or record["text"] is None:
        raise DatasetError(f"{where}: missing 'text' field")
    if "label" not in record or record["label"] is None:
        raise DatasetError(f"{where}: missing 'label' field")
    text = record["text"]
    if text == "":
        raise DatasetError(f"{where}: empty text")
    label = _parse_label(record["label"], where)
    explicit = record.get("id")
    if explicit is not None and not isinstance(explicit, str):
        explicit = str(explicit)
    if explicit == "":
        raise DatasetError(f"{where}: empty 'id' value")
    doc_id = explicit if explicit is not None else f"row-{index}"
    try:
        return LabeledDocument(id=doc_id, text=text, label=label)
    except DatasetError as exc:
        raise DatasetError(f"{where}: {exc}") from exc


def _require_unique_fields(names: list[str], where: str) -> None:
    """Refuse a CSV header or a JSON object's keys that name a record
    field twice: which of the values to read would be a guess."""
    for field in ("id", "text", "label"):
        if names.count(field) > 1:
            raise DatasetError(f"{where}: field '{field}' named more than once")


def _iter_csv_records(path: Path):
    with path.open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None:
                return
            missing = {"text", "label"} - set(reader.fieldnames)
            if missing:
                raise DatasetError(
                    f"CSV header must contain 'text' and 'label' (missing: {sorted(missing)})"
                )
            _require_unique_fields(reader.fieldnames, "CSV header")
            for row in reader:
                if None in row:
                    raise DatasetError(f"line {reader.line_num}: more fields than header columns")
                yield {k: v for k, v in row.items() if k in ("id", "text", "label")}
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DatasetError(f"line {reader.reader.line_num}: malformed CSV ({exc})") from exc


def _iter_jsonl_records(path: Path):
    with path.open("r", encoding="utf-8-sig") as handle:
        for line_num, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            objects = []  # each object's (key, value) pairs, the top-level one last
            try:
                obj = json.loads(line, object_pairs_hook=lambda p: objects.append(p) or dict(p))
            except json.JSONDecodeError as exc:
                raise DatasetError(f"record at line {line_num}: invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise DatasetError(f"record at line {line_num}: JSON nested too deeply") from exc
            if not isinstance(obj, dict):
                raise DatasetError(f"record at line {line_num}: expected a JSON object")
            _require_unique_fields([key for key, _ in objects[-1]], f"record at line {line_num}")
            yield obj


def load_corpus(path, format: str = "csv") -> Corpus:
    """Load a labeled corpus from a CSV (RFC-4180) or JSONL file.

    Each record needs a non-empty ``text`` and a ``label``; an explicit
    ``id`` is used when present, otherwise ids are assigned as ``row-<index>``.
    Both formats are UTF-8; a leading byte-order mark is skipped.
    """
    path = Path(path)
    if format == "csv":
        records = _iter_csv_records(path)
    elif format == "jsonl":
        records = _iter_jsonl_records(path)
    else:
        raise DatasetError(f"unknown dataset format {format!r} (expected 'csv' or 'jsonl')")

    documents = []
    for index, record in enumerate(records):
        where = f"record {index + 1}"
        documents.append(_make_document(record, index, where))
    if not documents:
        raise DatasetError(f"{path}: empty dataset (no records)")
    return Corpus.from_documents(documents)


def _round_half_up(x: float) -> int:
    # Portable "round": ties away from zero, unlike banker's rounding.
    return int(math.floor(x + 0.5))


def split(corpus: Corpus, train_fraction: float, seed: int) -> DatasetSplit:
    """Seeded stratified split; per-class train counts follow
    round(train_fraction * class_total), adjusted by at most 1 so the global
    train size equals round(train_fraction * corpus_size).  Every present
    class lands in both partitions."""
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_total = len(corpus)
    if n_total < 2:
        raise DatasetError("corpus must contain at least 2 documents")

    by_class: dict[int, list[int]] = {}
    for idx, doc in enumerate(corpus.documents):
        by_class.setdefault(doc.label, []).append(idx)
    labels = sorted(by_class)
    too_small = DatasetError(
        "corpus too small to place at least one sample of each class in both partitions"
    )
    for label in labels:
        if len(by_class[label]) < 2:
            raise too_small

    global_target = _round_half_up(train_fraction * n_total)
    if not len(labels) <= global_target <= n_total - len(labels):
        raise too_small

    exact = {label: train_fraction * len(by_class[label]) for label in labels}
    rounded = {label: _round_half_up(exact[label]) for label in labels}
    # Clamp so each class keeps >= 1 document on both sides; a clamp moves
    # the count by at most 1 away from its rounded value.
    take = {
        label: min(max(rounded[label], 1), len(by_class[label]) - 1) for label in labels
    }

    delta = global_target - sum(take.values())
    step = 1 if delta > 0 else -1
    while delta != 0:
        candidates = [
            label
            for label in labels
            if abs(take[label] + step - rounded[label]) <= 1
            and 1 <= take[label] + step <= len(by_class[label]) - 1
        ]
        if not candidates:
            raise too_small
        # Most under-/over-allocated class first; ties go to the smaller label.
        candidates.sort(key=lambda lb: (-step * (exact[lb] - take[lb]), lb))
        take[candidates[0]] += step
        delta -= step

    rng = derive_stream(seed, STREAM_SPLIT)
    train_indices: list[int] = []
    test_indices: list[int] = []
    for label in labels:
        pool = list(by_class[label])
        rng.shuffle(pool)
        train_indices.extend(pool[: take[label]])
        test_indices.extend(pool[take[label] :])

    train_docs = [corpus.documents[i] for i in sorted(train_indices)]
    test_docs = [corpus.documents[i] for i in sorted(test_indices)]
    return DatasetSplit(
        train=Corpus.from_documents(train_docs),
        test=Corpus.from_documents(test_docs),
        seed=seed,
        train_fraction=train_fraction,
    )
