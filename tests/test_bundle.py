"""Model bundle JSON and the sparse matrix text format."""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import matrix_of, rand_matrix
from textbalance.bundle import (
    BundleError,
    ModelBundle,
    PreprocessConfig,
    canonical_json,
    classifier_from_dict,
    classifier_to_dict,
    load_bundle,
    save_bundle,
    tfidf_from_dict,
    tfidf_to_dict,
)
from textbalance import cli, matrixio
from textbalance.classify import ALGORITHMS, TrainConfig, predict_batch, train
from textbalance.matrixio import (
    MatrixFormatError,
    default_labels_path,
    read_matrix,
    write_matrix,
)
from textbalance.rng import SplitMix64
from textbalance.stopwords import default_stopwords
from textbalance.vectorize import FeatureMatrix, fit


def readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fitted_tfidf():
    docs = [["offer", "free", "money"], ["meeting", "notes", "free"], ["money", "now"]]
    return fit(docs)


def make_bundle(algorithm: str) -> tuple[ModelBundle, FeatureMatrix]:
    rng = np.random.default_rng(40)
    matrix = rand_matrix(rng, n0=8, n1=8, dim=5, nonneg=True)
    model = train(matrix, TrainConfig(algorithm=algorithm))
    stops = default_stopwords()
    bundle = ModelBundle(
        tfidf=_fixed_dim_tfidf(),
        classifier=model,
        preprocess_config=PreprocessConfig(
            min_token_len=3,
            stopwords_name=stops.name,
            stopwords_sha256=stops.sha256(),
        ),
        provenance={"seed": 0, "timestamp": None},
    )
    return bundle, matrix


def _fixed_dim_tfidf():
    # Five terms so tfidf.dim matches the 5-column training matrices here.
    docs = [["alpha", "beta", "gamma"], ["delta", "epsilon"]]
    return fit(docs)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_floats_round_trip_exactly(self):
        for value in (0.1, 1 / 3, 1e-17, 2.0**-53, math.pi):
            text = canonical_json({"v": value})
            assert json.loads(text)["v"] == value

    def test_non_ascii_preserved(self):
        assert "café" in canonical_json({"text": "café"})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"v": float("nan")})

    def test_identical_input_identical_bytes(self):
        payload = {"z": [1.5, None], "a": {"nested": True}}
        assert canonical_json(payload) == canonical_json(payload)


class TestTfIdfSerialization:
    def test_round_trip(self):
        model = fitted_tfidf()
        restored = tfidf_from_dict(tfidf_to_dict(model))
        assert restored == model

    def test_rejects_inconsistent_payload(self):
        data = tfidf_to_dict(fitted_tfidf())
        data["doc_freq"] = data["doc_freq"][:-1]
        with pytest.raises((BundleError, ValueError)):
            tfidf_from_dict(data)


class TestClassifierSerialization:
    def test_round_trip_all_algorithms(self):
        rng = np.random.default_rng(41)
        matrix = rand_matrix(rng, n0=10, n1=10, dim=5, nonneg=True)
        for algo in ALGORITHMS:
            model = train(matrix, TrainConfig(algorithm=algo))
            restored = classifier_from_dict(classifier_to_dict(model))
            assert restored == model, algo
            assert predict_batch(restored, matrix) == predict_batch(model, matrix)

    def test_unknown_kind_rejected(self):
        with pytest.raises(BundleError):
            classifier_from_dict({"kind": "perceptron"})

    def test_tree_node_reached_twice_rejected(self):
        # Node 2 is a child of nodes 0 and 1: every node is reachable and
        # there is no cycle, so only the "reached more than once" check fails.
        nodes = [
            {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
            {"feature": 1, "threshold": 0.5, "left": 2, "right": 3},
            {"label": 0},
            {"label": 1},
        ]
        data = {"algorithm": "tree", "dim": 2, "nodes": nodes}
        with pytest.raises(BundleError, match="tree node 2 is reached more than once"):
            classifier_from_dict(data)

    def test_tree_node_unreachable_rejected(self):
        # Node 3 is a leaf that no node points to.  The walk from node 0
        # ends without meeting it, so only the unreachable-node check fails.
        nodes = [
            {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
            {"label": 0},
            {"label": 1},
            {"label": 1},
        ]
        data = {"algorithm": "tree", "dim": 2, "nodes": nodes}
        with pytest.raises(BundleError, match="^tree node 3 is unreachable$"):
            classifier_from_dict(data)


class TestModelBundle:
    def test_save_load_round_trip(self, tmp_path):
        for algo in ALGORITHMS:
            bundle, matrix = make_bundle(algo)
            path = tmp_path / f"{algo}.json"
            save_bundle(bundle, path)
            loaded = load_bundle(path)
            assert loaded.classifier == bundle.classifier
            assert loaded.tfidf == bundle.tfidf
            assert loaded.preprocess_config == bundle.preprocess_config
            assert loaded.provenance == bundle.provenance
            assert predict_batch(loaded.classifier, matrix) == predict_batch(
                bundle.classifier, matrix
            )

    def test_load_then_save_is_byte_identical(self, tmp_path):
        bundle, _ = make_bundle("logistic")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_bundle(bundle, first)
        save_bundle(load_bundle(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_format_version_pinned(self, tmp_path):
        bundle, _ = make_bundle("nb")
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        # Only the JSON integer 1: true == 1 and 1.0 == 1 in Python.
        for version in (2, True, 1.0, "1", None):
            data["format_version"] = version
            path.write_text(json.dumps(data))
            with pytest.raises(BundleError, match="format_version"):
                load_bundle(path)

    def test_deeply_nested_json_reported(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "\n")
        with pytest.raises(BundleError, match="nested too deeply"):
            load_bundle(path)

    def test_corrupt_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises((BundleError, ValueError)):
            load_bundle(path)


class TestRecordFields:
    """Each record's keys are its dataclass's fields (a bundle's also
    ``format_version``), and `to_dict` shares the model's tuples:
    `dataclasses.asdict` would copy every table entry."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_to_dict_shares_tables_and_keys_are_fields(self, algo):
        bundle, _ = make_bundle(algo)
        data = bundle.to_dict()
        assert set(data) == {f.name for f in fields(ModelBundle)} | {"format_version"}
        assert set(data["tfidf"]) == {f.name for f in fields(bundle.tfidf)}
        assert set(data["preprocess_config"]) == {f.name for f in fields(PreprocessConfig)}
        assert data["tfidf"]["terms"] is bundle.tfidf.terms
        assert data["tfidf"]["doc_freq"] is bundle.tfidf.doc_freq
        model, record = bundle.classifier, data["classifier"]
        if algo == "tree":
            assert set(record) == {"algorithm", "dim", "nodes"}
            return
        extra = {"algorithm"} if algo == "nb" else set()
        assert set(record) == {f.name for f in fields(model)} | extra
        tables = ("class_log_prior", "feature_log_prob") if algo == "nb" else ("weights",)
        for name in tables:
            assert record[name] is getattr(model, name), name

    def test_readme_bundle_block_names_the_fields(self):
        """The README's "Model bundle" block lists one top-level key per
        unindented line; they must be `ModelBundle`'s fields and
        ``format_version``."""
        block = re.search(r"\*\*Model bundle\*\*.*?```\n(.*?)```", readme(), re.S).group(1)
        keys = {line.split()[0] for line in block.splitlines() if line[:1].strip()}
        assert keys == {f.name for f in fields(ModelBundle)} | {"format_version"}


class TestReadmeFlagTables:
    """The README's flag lists name what the parser builds."""

    def test_shared_flags_rows_match_the_parser(self):
        table = re.search(r"\| command +\| shared flags +\|\n\|[-| ]+\|\n((?:\|.*\n)+)", readme())
        rows = {}
        for line in table.group(1).splitlines():
            command, flags = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            rows[command] = flags.split()
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        parsed = {
            name: [
                flag
                for action in command._actions
                for flag in action.option_strings
                if flag in cli._SHARED_FLAGS
            ]
            for name, command in commands.items()
        }
        assert rows == parsed

    def test_hyperparameter_list_matches_train_config(self):
        pattern = r"hyperparameter flags of `train` and\s+`report` \((.*?)\)"
        listed = re.search(pattern, readme(), re.S)
        flags = re.findall(r"`(--[a-z0-9-]+)`", listed.group(1))
        hyper = [f.name for f in fields(TrainConfig) if f.name != "algorithm"]
        assert sorted(flags) == sorted("--" + name.lower().replace("_", "-") for name in hyper)


class TestMatrixIo:
    def test_round_trip_exact_values(self, tmp_path):
        rng = np.random.default_rng(42)
        matrix = rand_matrix(rng, n0=6, n1=4, dim=8)
        path = tmp_path / "train.mtx"
        write_matrix(matrix, path)
        restored = read_matrix(path)
        assert restored == matrix  # bit-exact float round trip via repr

    def test_labels_sidecar_default_path(self, tmp_path):
        rng = np.random.default_rng(43)
        matrix = rand_matrix(rng, n0=2, n1=2, dim=3)
        path = tmp_path / "m.mtx"
        write_matrix(matrix, path)
        assert default_labels_path(path).exists()
        assert default_labels_path(path).read_text().count("\n") == 4

    def test_explicit_labels_path(self, tmp_path):
        rng = np.random.default_rng(44)
        matrix = rand_matrix(rng, n0=2, n1=1, dim=3)
        mpath = tmp_path / "m.mtx"
        lpath = tmp_path / "custom.labels"
        write_matrix(matrix, mpath, lpath)
        assert read_matrix(mpath, lpath) == matrix

    def test_byte_order_marks_are_skipped(self, tmp_path):
        matrix = rand_matrix(np.random.default_rng(45), n0=3, n1=2, dim=4)
        path = tmp_path / "m.mtx"
        write_matrix(matrix, path)
        for marked in (path, default_labels_path(path)):  # the matrix, then both files
            marked.write_text("\ufeff" + marked.read_text(encoding="utf-8"), encoding="utf-8")
            assert read_matrix(path) == matrix

    def test_header_shape_enforced(self, tmp_path):
        path = tmp_path / "bad.mtx"
        labels = tmp_path / "bad.mtx.labels"
        path.write_text("2 2\n")  # missing nnz
        labels.write_text("0\n1\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_nnz_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        labels = tmp_path / "bad.mtx.labels"
        path.write_text("1 2 2\n0 0 1.0\n")
        labels.write_text("0\n")
        with pytest.raises(MatrixFormatError, match="header claims 2 entries, found 1$"):
            read_matrix(path)

    def test_out_of_range_index_detected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        labels = tmp_path / "bad.mtx.labels"
        path.write_text("1 2 1\n0 5 1.0\n")
        labels.write_text("0\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_label_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        labels = tmp_path / "bad.mtx.labels"
        path.write_text("2 2 1\n0 0 1.0\n")
        labels.write_text("0\n")
        with pytest.raises(MatrixFormatError, match="label"):
            read_matrix(path)

    def test_read_builds_csr_arrays_not_rows(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("3 4 4\n2 3 0.5\n0 1 2.0\n0 0 1.0\n2 2 0.0\n")
        (tmp_path / "m.mtx.labels").write_text("0\n1\n1\n")
        matrix = read_matrix(path)
        assert "rows" not in vars(matrix)
        assert matrix.csr.indptr.tolist() == [0, 2, 2, 3]
        assert matrix.csr.indices.tolist() == [0, 1, 3]
        assert matrix.csr.data.tolist() == [1.0, 2.0, 0.5]

    @pytest.mark.parametrize(
        "body", [f"{2**63} 2 0\n", f"2 {2**63} 0\n", f"2 {10**30} 1\n1 {10**24} 1.0\n"]
    )
    def test_header_beyond_int64_rejected(self, tmp_path, body):
        path = tmp_path / "huge.mtx"
        path.write_text(body)
        (tmp_path / "huge.mtx.labels").write_text("0\n1\n")
        with pytest.raises(MatrixFormatError, match="64-bit"):
            read_matrix(path)

    def test_zero_row_matrix(self, tmp_path):
        matrix = matrix_of((), (), 4)
        path = tmp_path / "empty.mtx"
        write_matrix(matrix, path)
        assert read_matrix(path) == matrix


def _outcome(path):
    """A matrix's arrays, dim and labels, or the error message."""
    try:
        matrix = read_matrix(path)
    except MatrixFormatError as exc:
        return str(exc)
    csr = matrix.csr
    values = [repr(v) for v in csr.data.tolist()]
    return csr.indptr.tolist(), csr.indices.tolist(), values, matrix.dim, matrix.labels


def _reference_outcome(path):
    """`_outcome` by way of the line-by-line reference reader."""
    try:
        n_rows, n_cols, rows, cols, data = oracles.read_matrix_entries(path)
    except MatrixFormatError as exc:
        return str(exc)
    labels = tuple(int(x) for x in default_labels_path(path).read_text().split())
    indptr = [bisect.bisect_left(rows, r) for r in range(n_rows + 1)]
    return indptr, cols, [repr(v) for v in data], n_cols, labels


def _pick(rng: SplitMix64, items: list):
    return items[rng.next_below(len(items))]


# What the seeded bodies are drawn from: mostly plain fields, and now and
# then one that `int()` or `float()` refuses, reads in another form, or
# that does not fit an int64.
_ODD_INDEXES = ["+1", "-1", "01", "1_0", "\u0661", str(2**63), str(-(2**64)), "x", "1.0"]
_VALUES = ["1.0", "-2.5", "0.0", "-0.0", "5e-324", "1e-07", "0.1"]
_ODD_VALUES = ["1_0.5", "+7e-3", "\u0661.\u0665", "nan", "inf", "-inf", "1e400", "x", "0x1p3"]
_FIELD_GAPS = [" ", " ", "\t", "  ", "\x1f", "\xa0"]
_LINE_BREAKS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]
# The faults a seeded body can hold, as their messages name them.
MATRIX_FAULTS = (
    "expected 'row col value'", "unparsable triple", "non-finite value", "index out of bounds",
    "duplicate entry", "header claims", "negative header field", "does not fit a 64-bit index",
)


def _random_body(rng: SplitMix64, n_rows: int) -> str:
    """A matrix file of up to seven entries over ``n_rows`` rows, valid or
    not: indexes one past the bounds, repeated pairs, odd fields, wrong
    field counts, blank lines and an entry count off by one."""

    def chance(n: int) -> bool:
        return rng.next_below(n) == 0

    def index(bound: int) -> str:
        if chance(40):
            return _pick(rng, _ODD_INDEXES)
        return str(bound if bound == 0 or chance(20) else rng.next_below(bound))

    n_cols = rng.next_below(6)
    lines = []
    for _ in range(rng.next_below(8)):
        value = _pick(rng, _ODD_VALUES) if chance(30) else _pick(rng, _VALUES)
        fields = [index(n_rows), index(n_cols), value]
        if chance(40):
            fields = fields[: rng.next_below(3)] if chance(2) else [*fields, "1"]
        lines.append(_pick(rng, _FIELD_GAPS).join(fields))
        if chance(10):
            lines.append(_pick(rng, ["", " ", "\t"]))
    nnz = sum(1 for line in lines if line.strip()) + (_pick(rng, [-1, 1]) if chance(12) else 0)
    header = [n_rows, n_cols, max(nnz, 0)]
    if chance(40):
        header[rng.next_below(3)] = _pick(rng, [-1, 2**63])
    body = [" ".join(map(str, header)), *lines]
    text = "".join(line + _pick(rng, _LINE_BREAKS) for line in body)
    return text if chance(2) else text[:-1]


# Accepted by the chunked fast path as well as by the line-by-line reference.
VALID_BODIES = {
    "signs_underscores_nonascii_digits": "4 20 4\n+2 1_0 1.5\n0 \u0663 -2.5\n\u0661 0 1_000.5\n3 +19 +7e-3\n",
    "subnormals_and_dropped_zeros": (
        "3 3 5\n0 0 5e-324\n0 1 0.0\n1 1 -0.0\n2 2 2.2250738585072014e-308\n2 0 -4.9e-324\n"
    ),
    "unsorted_with_blank_lines": "3 3 4\n\n2 1 0.5\n   \n0 2 2.0\n\t\n1 0 1.0\n0 0 3.0\n",
    "vt_fs_crlf_no_final_newline": "3 3 3\x0b0 0 1.0\x1c1 1 2.0\r\n2 2 3.0",
    "tabs_and_unit_separator": "2 2 2\n0\t0  1.0 \n 1 1\x1f2.0\n",
    "leading_byte_order_mark": "\ufeff2 2 2\n0 0 1.0\n1 1 2.0\n",
}
# Rejected: the line reader words the error and names the line.
INVALID_BODIES = {
    "vt_splits_a_line": "2 2 1\n0\x0b1 1.0\n",
    "unparsable": "2 2 1\n0 x 1.0\n",
    "non_finite": "2 2 2\n0 0 1.0\n1 1 nan\n",
    "out_of_bounds": "2 2 1\n2 0 1.0\n",
    "beyond_int64": "2 2 1\n0 99999999999999999999 1.0\n",
    "duplicate": "2 2 3\n0 0 1.0\n1 1 2.0\n0 0 3.0\n",
    "nnz_mismatch": "2 2 3\n0 0 1.0\n",
    "two_fields": "2 2 1\n0 0\n",
    "missing_header": "\n0 0 1.0\n",
    "empty_file": "",
    "duplicate_non_finite": "2 2 2\n0 0 1.0\n0 0 nan\n",
}


class TestReaderFastPath:
    """`read_matrix` parses in chunks and checks with arrays, and words a
    fault with a line reader only once the array parser has given up; it
    must agree with the line-by-line reference reader on every input,
    matrix for matrix and message for message."""

    @staticmethod
    def write(tmp_path, body, n_rows):
        path = tmp_path / "m.mtx"
        path.write_text(body, encoding="utf-8", newline="")
        (tmp_path / "m.mtx.labels").write_text("".join(f"{i % 2}\n" for i in range(n_rows)))
        return path

    @staticmethod
    def assert_same_as_reference(path):
        outcome = _outcome(path)
        assert outcome == _reference_outcome(path)
        return outcome

    @pytest.mark.parametrize("name", sorted(VALID_BODIES))
    def test_valid_inputs_take_the_fast_path(self, tmp_path, name):
        body = VALID_BODIES[name]
        text = body.removeprefix("\ufeff")  # what `read_matrix` decodes
        path = self.write(tmp_path, body, int(text.split()[0]))
        assert matrixio._parse_fast(path, text) is not None
        assert not isinstance(self.assert_same_as_reference(path), str)

    @pytest.mark.parametrize("name", sorted(INVALID_BODIES))
    def test_invalid_inputs_get_the_checker_message(self, tmp_path, name):
        body = INVALID_BODIES[name]
        path = self.write(tmp_path, body, 2)
        assert isinstance(self.assert_same_as_reference(path), str)

    def test_seeded_bodies_match_the_reference(self, tmp_path, monkeypatch):
        rng = SplitMix64(38)
        faults: set[str] = set()
        valid = 0
        for _ in range(2400):
            # Small chunks put chunk boundaries between and inside lines.
            monkeypatch.setattr(matrixio, "_CHUNK_CHARS", _pick(rng, [1, 5, 16, 1 << 16]))
            n_rows = rng.next_below(4)
            path = self.write(tmp_path, _random_body(rng, n_rows), n_rows)
            outcome = self.assert_same_as_reference(path)
            if isinstance(outcome, str):
                faults.update(fault for fault in MATRIX_FAULTS if fault in outcome)
            else:
                valid += 1
        assert valid > 400
        assert faults == set(MATRIX_FAULTS)

    def test_explicit_zeros_and_order(self, tmp_path):
        body = VALID_BODIES["subnormals_and_dropped_zeros"]
        indptr, indices, values, _, _ = self.assert_same_as_reference(
            self.write(tmp_path, body, 3)
        )
        assert (indptr, indices, values) == ([0, 1, 1, 3], [0, 0, 2], ["5e-324", "-5e-324", "2.2250738585072014e-308"])

    @pytest.mark.parametrize(
        "fault, message",
        [("7 7 oops", "unparsable triple"), ("0 0 9.0", "duplicate entry (0, 0)")],
        ids=["bad_line", "duplicate"],
    )
    def test_fault_in_a_later_chunk_names_its_line(self, tmp_path, fault, message):
        n_rows = 3000
        lines = [f"{r} {c} {r + c + 0.5!r}" for r in range(n_rows) for c in range(3)]
        at = len(lines) - 5
        lines.insert(at, fault)
        body = f"{n_rows} 8 {len(lines)}\n" + "\n".join(lines) + "\n"
        first_chunk_lines = body[: matrixio._CHUNK_CHARS].count("\n")
        fault_line = at + 2  # 1-based, after the header
        assert fault_line > first_chunk_lines + 1
        path = self.write(tmp_path, body, n_rows)
        assert self.assert_same_as_reference(path) == f"{path}:{fault_line}: {message}"
        lines.remove(fault)
        path = self.write(tmp_path, f"{n_rows} 8 {len(lines)}\n" + "\n".join(lines), n_rows)
        assert len(self.assert_same_as_reference(path)[1]) == len(lines)
