"""End-to-end command-line behavior: exit codes, files, determinism."""

from __future__ import annotations

import io
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
import textbalance
from conftest import cli_outputs_in_child, rand_matrix
from corpora import two_vocab_corpus, write_corpus
from textbalance import bundle as bundle_mod
from textbalance import classify, evaluate, preprocess, stopwords, vectorize
from textbalance.classify import ALGORITHMS, TrainConfig
from textbalance.cli import _COMMANDS, CHUNK_POSTS, _train_config, build_parser, main
from textbalance.ingest import Corpus, LabeledDocument
from textbalance.matrixio import read_matrix, write_matrix
from textbalance.resample import SmoteConfig
from textbalance.rng import STREAM_PROJECTION, SplitMix64, derive_stream


@pytest.fixture()
def dataset(tmp_path):
    """A small imbalanced CSV dataset (48 ham / 14 spam)."""
    train, test = two_vocab_corpus(
        seed=3, n_train_nonspam=40, n_train_spam=10, n_test_per_class=6
    )
    corpus = Corpus.from_documents(list(train.documents) + list(test.documents))
    path = tmp_path / "data.csv"
    write_corpus(corpus, path, "csv")
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestUsageErrors:
    def test_no_command_exits_1(self, capsys):
        assert run([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_bad_split_fraction_exits_1(self, dataset):
        assert run(["train", "--data", dataset, "--algo", "nb", "--split", "1.5"]) == 1

    @pytest.mark.parametrize(
        "command, required",
        [
            ("train", ["--algo", "nb", "--smote", "off", "--data", "missing.csv"]),
            ("report", ["--data", "missing.csv"]),
            ("scatter", ["--data", "missing.csv"]),
            ("oversample", ["--matrix", "missing.mtx", "--out", "o.mtx"]),
        ],
    )
    @pytest.mark.parametrize("k", ["0", "-3", "two"])
    def test_bad_smote_k_exits_1_before_reading_input(self, command, required, k, capsys):
        # The input does not exist, so a check made after parsing would exit 2.
        assert run([command, *required, "--smote-k", k]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --smote-k:" in err

    @pytest.mark.parametrize(
        "command, required",
        [
            ("train", ["--data", "missing.csv", "--algo", "nb"]),
            ("report", ["--data", "missing.csv"]),
            ("scatter", ["--data", "missing.csv"]),
        ],
    )
    @pytest.mark.parametrize("length", ["0", "-2", "three"])
    def test_bad_min_token_len_exits_1_before_reading_input(
        self, command, required, length, capsys
    ):
        assert run([command, *required, "--min-token-len", length]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --min-token-len:" in err

    @pytest.mark.parametrize(
        "command, stage",
        [(["train", "--algo", "nb"], "train"), (["report", "--algos", "nb"], "compare")],
    )
    @pytest.mark.parametrize(
        "flag, value, message",
        [("--epochs", "0", "epochs must be positive"),
         ("--epochs", "-1", "epochs must be positive"),
         ("--tree-max-depth", "-2", "tree_max_depth must be positive"),
         ("--svm-c", "nan", "svm_C must be finite")],
    )
    def test_bad_hyperparameter_exits_2_before_reading_input(
        self, command, stage, flag, value, message, capsys
    ):
        # The dataset does not exist, so reading it first would fail in ingest.
        assert run([*command, "--data", "missing.csv", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{stage}]") and message in err

    @pytest.mark.parametrize(
        "command", [["train", "--algo", "nb"], ["report"]], ids=["train", "report"]
    )
    @pytest.mark.parametrize("flag", ["--lr-epochs", "--svm-epochs", "--tree-max-features"])
    def test_former_hyperparameter_flags_exit_1(self, command, flag, capsys):
        assert run([*command, "--data", "missing.csv", flag, "3"]) == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    # Each command's required flags, naming inputs that do not exist: a
    # check made after parsing would exit 2.
    MISSING = {
        "train": ["--algo", "nb", "--data", "missing.csv"],
        "predict": ["--bundle", "missing.json"],
        "evaluate": ["--bundle", "missing.json", "--data", "missing.csv"],
        "oversample": ["--matrix", "missing.mtx", "--out", "o.mtx"],
        "report": ["--data", "missing.csv"],
        "scatter": ["--data", "missing.csv"],
    }
    PATH_FLAGS = [
        ("train", "--stopwords"), ("train", "--data"), ("train", "--split-manifest"),
        ("train", "--out"), ("train", "--timestamp"),
        ("predict", "--stopwords"), ("predict", "--bundle"), ("predict", "--input"),
        ("evaluate", "--stopwords"), ("evaluate", "--bundle"), ("evaluate", "--data"),
        ("evaluate", "--out"),
        ("oversample", "--matrix"), ("oversample", "--labels"), ("oversample", "--out"),
        ("oversample", "--out-labels"), ("oversample", "--report"),
        ("report", "--stopwords"), ("report", "--data"), ("report", "--split-manifest"),
        ("report", "--out"),
        ("scatter", "--stopwords"), ("scatter", "--data"), ("scatter", "--out"),
        ("scatter", "--svg"),
    ]

    @pytest.mark.parametrize("command, flag", PATH_FLAGS)
    def test_empty_path_exits_1_before_reading_input(self, command, flag, capsys):
        # Before, an empty value read stdin or the built-in stop list,
        # wrote nothing, or failed only when writing to the directory ".".
        assert run([command, *self.MISSING[command], flag, ""]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}: must not be empty" in err

    def test_every_path_flag_is_checked(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        flags = {
            (name, option)
            for name, command in commands.items()
            for action in command._actions
            for option in action.option_strings
            if action.metavar in ("PATH", "PREFIX") or option == "--timestamp"
        }
        assert flags == set(self.PATH_FLAGS)

    def test_bad_algo_exits_1(self, dataset):
        assert run(["train", "--data", dataset, "--algo", "forest"]) == 1

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "usage: textbalance" in capsys.readouterr().out


class TestRuntimeErrors:
    def test_missing_dataset_exits_2_with_stage(self, tmp_path, capsys):
        code = run(["train", "--data", tmp_path / "nope.csv", "--algo", "nb"])
        assert code == 2
        assert "[ingest]" in capsys.readouterr().err

    def test_oversized_csv_field_exits_2_with_stage(self, tmp_path, capsys):
        # The csv module refuses fields over 128 KiB by default.
        path = tmp_path / "huge.csv"
        path.write_text("id,text,label\na,short,0\nb," + "x" * (200 * 1024) + ",1\n")
        code = run(["report", "--data", path, "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [ingest]")
        assert "line 3: malformed CSV (field larger than field limit" in err

    def test_field_named_twice_exits_2_in_ingest(self, tmp_path, capsys):
        path = tmp_path / "posts.csv"
        path.write_text("text,label,text\n" + "".join(f"spam {i},{i % 2},ham\n" for i in range(20)))
        out = tmp_path / "bundle.json"
        assert run(["train", "--data", path, "--algo", "nb", "--out", out]) == 2
        message = "CSV header: field 'text' named more than once"
        assert capsys.readouterr().err == f"error [ingest] {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["train", "--algo", "nb", "--split-manifest", "manifest.json"],
            ["report", "--algos", "nb"],
            ["scatter"],
        ],
        ids=["train", "report", "scatter"],
    )
    @pytest.mark.parametrize("field", ["text", "id"])
    def test_lone_surrogate_exits_2_in_ingest_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command, field
    ):
        # The JSON escape \ud800 spells a lone surrogate, which UTF-8 cannot
        # encode; every command stops at ingest, before any work.
        records = [{"text": f"post {i} cheap offer", "label": i % 2} for i in range(60)]
        records[3][field] = "bad \ud800 value"
        path = tmp_path / "posts.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        monkeypatch.chdir(tmp_path)
        code = run([*command, "--data", path, "--format", "jsonl", "--out", "result"])
        assert code == 2
        message = f"record 4: '{field}' does not encode as UTF-8 (surrogates not allowed)"
        assert capsys.readouterr().err == f"error [ingest] {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "command, outputs, flags",
        [
            (["train", "--algo", "nb"], ["--out", "x", "--split-manifest", "./x"],
             ("--out", "--split-manifest")),
            (["report", "--algos", "nb"], ["--out", "p", "--split-manifest", "p.json"],
             ("--out", "--split-manifest")),
            (["oversample"], ["--out", "x", "--out-labels", "x"], ("--out", "--out-labels")),
            (["oversample"], ["--out", "x", "--report", "x.labels"], ("--out-labels", "--report")),
            (["scatter"], ["--out", "x", "--svg", "x"], ("--out", "--svg")),
        ],
        ids=["train", "report", "oversample", "oversample-default-labels", "scatter"],
    )
    def test_two_outputs_naming_one_file_exit_2_and_write_nothing(
        self, dataset, tmp_path, capsys, monkeypatch, command, outputs, flags
    ):
        monkeypatch.chdir(tmp_path)
        inputs = ["--data", dataset]
        if command == ["oversample"]:
            write_matrix(rand_matrix(np.random.default_rng(9), n0=6, n1=3, dim=5), "in.mtx")
            inputs = ["--matrix", "in.mtx"]
        before = sorted(tmp_path.iterdir())
        assert run([*command, *inputs, *outputs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]") and all(flag in err for flag in flags), err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["train", "--algo", "nb", "--data", "data.csv", "--out", "data.csv"],
             ("--data", "--out")),
            (["evaluate", "--bundle", "b.json", "--data", "data.csv", "--out", "./b.json"],
             ("--bundle", "--out")),
            (["oversample", "--matrix", "m.txt", "--out", "m.txt"], ("--matrix", "--out")),
            (["oversample", "--matrix", "m.txt", "--out", "o.txt", "--report", "m.txt.labels"],
             ("--labels", "--report")),
            (["report", "--algos", "nb", "--data", "data.csv", "--split-manifest", "data.csv"],
             ("--data", "--split-manifest")),
            (["scatter", "--data", "data.csv", "--stopwords", "stop.txt", "--svg", "stop.txt"],
             ("--stopwords", "--svg")),
        ],
        ids=["train", "evaluate", "oversample", "oversample-default-labels", "report", "scatter"],
    )
    def test_an_output_naming_an_input_exits_2_and_writes_nothing(
        self, dataset, tmp_path, capsys, monkeypatch, argv, flags
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b.json").write_text("{}")
        (tmp_path / "stop.txt").write_text("the\n")
        write_matrix(rand_matrix(np.random.default_rng(9), n0=6, n1=3, dim=5), "m.txt")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]") and all(flag in err for flag in flags), err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_missing_bundle_exits_2(self, tmp_path, capsys):
        code = run(["predict", "--bundle", tmp_path / "nope.json", "hello"])
        assert code == 2
        assert "[bundle]" in capsys.readouterr().err


class TestTrain:
    def test_writes_bundle_and_prints_metrics(self, dataset, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run(
            ["train", "--data", dataset, "--algo", "nb", "--smote", "on", "--out", out]
        )
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        assert "held-out" in stdout
        payload = json.loads(out.read_text())
        assert payload["format_version"] == 1
        assert payload["provenance"]["timestamp"] is None
        assert payload["provenance"]["smote_config"]["k"] == 5

    def test_repeated_runs_are_byte_identical(self, dataset, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert (
                run(
                    [
                        "train",
                        "--data",
                        dataset,
                        "--algo",
                        "svm",
                        "--smote",
                        "on",
                        "--seed",
                        7,
                        "--out",
                        out,
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_source_date_epoch_sets_timestamp(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "stamped.json"
        assert run(["train", "--data", dataset, "--algo", "nb", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["timestamp"] == "2023-11-14T22:13:20+00:00"

    @pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999999999", "-99999999999999"])
    def test_bad_source_date_epoch_exits_2_before_any_read(
        self, dataset, tmp_path, capsys, monkeypatch, epoch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "model.json"
        # The dataset does not exist, so reaching ingest would say [ingest].
        assert run(["train", "--data", tmp_path / "nope.csv", "--algo", "nb", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]") and f"SOURCE_DATE_EPOCH {epoch!r}" in err
        assert not out.exists()
        # --timestamp wins, so the variable is never read.
        argv = ["train", "--data", dataset, "--algo", "nb", "--out", out, "--timestamp", "t0"]
        assert run(argv) == 0
        assert json.loads(out.read_text())["provenance"]["timestamp"] == "t0"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algo", "svm", "--svm-c", "1e308"], "lam = 1/(C*n) = 0.0"),
            (["--algo", "svm", "--svm-c", "1e-320"], "lam = 1/(C*n) = inf"),
            (["--algo", "logistic", "--l2", "inf"], "l2 must be finite"),
            (["--algo", "svm", "--svm-c", "nan"], "svm_C must be finite"),
            (["--algo", "nb", "--nb-alpha", "5e-324"], "nb_alpha 5e-324: a smoothed probability"),
            (["--algo", "nb", "--nb-alpha", "1e308"], "nb_alpha 1e+308: a smoothed probability"),
        ],
    )
    def test_unusable_fit_exits_2_at_train(self, dataset, tmp_path, capsys, flags, message):
        out = tmp_path / "model.json"
        assert run(["train", "--data", dataset, *flags, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [train]") and message in err
        assert not out.exists()

    def test_svm_at_huge_c_keeps_a_finite_nonzero_model(self, dataset, tmp_path):
        # lam = 1/(C*n) is about 1e-162: L stays about 2 * ||X~||_F^2 / n,
        # and the fit moves from 0 to a finite model.
        out = tmp_path / "model.json"
        argv = ["train", "--data", dataset, "--algo", "svm", "--svm-c", "1e160", "--out", out]
        assert run(argv) == 0
        classifier = json.loads(out.read_text())["classifier"]
        w = np.array(classifier["weights"] + [classifier["bias"]])
        assert np.isfinite(w).all() and np.count_nonzero(w[:-1]) > 0

    @pytest.mark.parametrize("algo", ["logistic", "svm"])
    def test_values_whose_squares_overflow_exit_2_at_train(
        self, dataset, tmp_path, capsys, monkeypatch, algo
    ):
        # Entries near 1e200 are finite, but their squares, and so the weights' L, are not.
        transform_corpus = vectorize.transform_corpus

        def scaled(*args):
            matrix = transform_corpus(*args)
            X = matrix.csr
            scaled_csr = vectorize.CsrView(X.indptr, X.indices, X.data * 1e200, X.shape[1])
            return vectorize.FeatureMatrix(scaled_csr, matrix.labels)

        monkeypatch.setattr(vectorize, "transform_corpus", scaled)
        out = tmp_path / "model.json"
        assert run(["train", "--data", dataset, "--algo", algo, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [train]") and "step bound L = inf" in err
        assert not out.exists()

    def test_split_manifest_written(self, dataset, tmp_path):
        out = tmp_path / "model.json"
        manifest_path = tmp_path / "split.json"
        code = run(
            [
                "train",
                "--data",
                dataset,
                "--algo",
                "nb",
                "--out",
                out,
                "--split-manifest",
                manifest_path,
            ]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        train_ids = set(manifest["train_ids"])
        test_ids = set(manifest["test_ids"])
        assert train_ids and test_ids
        assert not train_ids & test_ids


class TestPredictAndEvaluate:
    @pytest.fixture()
    def bundle(self, dataset, tmp_path):
        path = tmp_path / "model.json"
        assert run(["train", "--data", dataset, "--algo", "nb", "--smote", "on",
                    "--out", path]) == 0
        return path

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_bundles_with_the_former_train_config_keys_predict_the_same(
        self, dataset, tmp_path, algo, capsys
    ):
        # Bundles written when TrainConfig had lr_epochs, svm_epochs and
        # tree_max_features: load_bundle does not read the provenance.
        path, former = tmp_path / "model.json", tmp_path / "former.json"
        assert run(["train", "--data", dataset, "--algo", algo, "--out", path]) == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        config = data["provenance"]["train_config"]
        epochs = config.pop("epochs")
        config.update(lr_epochs=epochs, svm_epochs=epochs, tree_max_features=None)
        bundle_mod.write_json(data, former)
        inputs = tmp_path / "texts.txt"
        inputs.write_text("free money offer click now\nthe kernel driver\n\ncasino\n")
        outputs = []
        for bundle in (path, former):
            capsys.readouterr()
            assert run(["predict", "--bundle", bundle, "--input", inputs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 4

    def test_predict_single_text(self, bundle, capsys):
        capsys.readouterr()
        code = run(["predict", "--bundle", bundle, "free money offer click now"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.split("\t")[0] in ("0", "1")

    def test_empty_text_predicts_zero(self, bundle, capsys):
        # Empty input is the all-zero vector; the balanced-prior model
        # ties and the tie resolves to label 0.
        capsys.readouterr()
        assert run(["predict", "--bundle", bundle, ""]) == 0
        assert capsys.readouterr().out.strip().split("\t")[0] == "0"

    def test_predict_from_file(self, bundle, tmp_path, capsys):
        capsys.readouterr()
        inputs = tmp_path / "texts.txt"
        inputs.write_text("first message\nsecond message\n")
        assert run(["predict", "--bundle", bundle, "--input", inputs]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2

    @pytest.mark.parametrize("text_first", [True, False])
    def test_text_with_input_is_a_usage_error(self, bundle, tmp_path, capsys, text_first):
        inputs = tmp_path / "texts.txt"
        inputs.write_text("first message\nsecond message\n")
        sources = [["cheap casino"], ["--input", inputs]]
        if not text_first:
            sources.reverse()
        capsys.readouterr()
        assert run(["predict", "--bundle", bundle, *sources[0], *sources[1]]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "not allowed with argument" in out.err

    @pytest.mark.parametrize("source", ["input", "stdin"])
    def test_one_output_line_per_newline_terminated_line(
        self, bundle, tmp_path, capsys, monkeypatch, source
    ):
        # str.splitlines() would also split at each of these.
        separators = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
        texts = [f"free{sep}money offer" for sep in separators] + ["click now"]
        capsys.readouterr()
        expected = []
        for text in texts:
            assert run(["predict", "--bundle", bundle, text]) == 0
            expected.append(capsys.readouterr().out)
        content = "".join(text + "\n" for text in texts[:-1]) + texts[-1] + "\r\n"
        if source == "input":
            inputs = tmp_path / "texts.txt"
            inputs.write_text(content, encoding="utf-8", newline="")
            argv = ["predict", "--bundle", bundle, "--input", inputs]
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content.encode())))
            argv = ["predict", "--bundle", bundle]
        assert run(argv) == 0
        assert capsys.readouterr().out == "".join(expected)

    @pytest.mark.parametrize("source", ["input", "stdin"])
    def test_invalid_utf8_exits_2_at_read(self, bundle, tmp_path, capsys, monkeypatch, source):
        content = b"cheap casino\n\xff offer\n"
        if source == "input":
            inputs = tmp_path / "texts.txt"
            inputs.write_bytes(content)
            argv = ["predict", "--bundle", bundle, "--input", inputs]
        else:
            # As under a C.UTF-8 locale: reading stdin as text would let 0xff through.
            stdin = io.BytesIO(content)
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin, "utf-8", "surrogateescape"))
            argv = ["predict", "--bundle", bundle]
        capsys.readouterr()
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error [read]") and "can't decode byte 0xff" in out.err

    def test_evaluate_prints_and_writes_metrics(self, bundle, dataset, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--bundle", bundle, "--data", dataset, "--out", out])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert set(payload) >= {"accuracy", "precision", "recall", "f1", "confusion"}

    def test_predict_requires_matching_stop_list(self, dataset, tmp_path, capsys):
        custom = tmp_path / "stops.txt"
        custom.write_text("the\nand\nnow\n")
        path = tmp_path / "custom.json"
        assert (
            run(
                ["train", "--data", dataset, "--algo", "nb", "--out", path,
                 "--stopwords", custom]
            )
            == 0
        )
        # Without the matching file the builtin hash does not match.
        assert run(["predict", "--bundle", path, "some text"]) == 2
        assert "stop" in capsys.readouterr().err
        assert run(["predict", "--bundle", path, "--stopwords", custom, "some text"]) == 0

    def test_stop_list_mismatch_names_the_bundles_list(self, dataset, tmp_path, capsys):
        custom = tmp_path / "stops.txt"
        custom.write_text("the\nand\nnow\n")
        other = tmp_path / "other.txt"
        other.write_text("the\n")
        path = tmp_path / "custom.json"
        assert run(["train", "--data", dataset, "--algo", "nb", "--out", path,
                    "--stopwords", custom]) == 0
        capsys.readouterr()
        for extra in ([], ["--stopwords", other]):
            assert run(["predict", "--bundle", path, *extra, "some text"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error [stopwords]")
            assert "'stops.txt'" in err and "--stopwords" in err


def _reference_predict(bundle_path, texts) -> str:
    """`predict` stdout the per-post way: filter, transform, score."""
    model = bundle_mod.load_bundle(bundle_path)
    stops = stopwords.default_stopwords()
    lines = []
    for text in texts:
        tokens = preprocess.filter_tokens(
            preprocess.tokenize(preprocess.strip_html(text)),
            stops,
            model.preprocess_config.min_token_len,
        )
        label, score = oracles.predict_scored(model.classifier, oracles.transform(model.tfidf, tokens))
        lines.append(f"{label}\n" if score is None else f"{label}\t{score!r}\n")
    return "".join(lines)


class TestPredictChunks:
    """`predict` scores CHUNK_POSTS lines at a time; its stdout must equal
    the per-line reference at and across the chunk boundary."""

    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("chunks")
        train, test = two_vocab_corpus(seed=5, n_train_nonspam=60, n_train_spam=15)
        data = work / "data.csv"
        write_corpus(train, data)
        paths = {}
        for algo in ("nb", "logistic", "tree"):
            paths[algo] = work / f"{algo}.json"
            assert run(["train", "--data", data, "--algo", algo, "--out", paths[algo]]) == 0
        markup = ["", "<p>Cheap &amp; <b>cash</b></p>", "the of and", "<script>x</script>zzz"]
        texts = markup + [doc.text for doc in test.documents]
        return paths, texts, work

    @pytest.mark.parametrize("algo", ["nb", "logistic", "tree"])
    @pytest.mark.parametrize("n_lines", [0, 1, CHUNK_POSTS, CHUNK_POSTS + 1])
    def test_stdout_equals_per_line_reference(self, bundles, capsys, algo, n_lines):
        paths, texts, work = bundles
        lines = [texts[i % len(texts)] for i in range(n_lines)]
        inputs = work / f"posts{n_lines}.txt"
        inputs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "--bundle", paths[algo], "--input", inputs]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == n_lines
        assert out == _reference_predict(paths[algo], lines)

    @pytest.mark.parametrize("algo", ["nb", "tree"])
    def test_evaluate_equals_whole_matrix_reference(self, bundles, capsys, algo):
        paths, _, work = bundles
        corpus, _ = two_vocab_corpus(seed=8, n_train_nonspam=CHUNK_POSTS, n_train_spam=60)
        data = work / "big.csv"
        write_corpus(corpus, data)
        out = work / f"{algo}.metrics.json"
        assert run(["evaluate", "--bundle", paths[algo], "--data", data, "--out", out]) == 0
        model = bundle_mod.load_bundle(paths[algo])
        tokens = preprocess.preprocess_corpus(corpus, stopwords.default_stopwords())
        matrix = vectorize.transform_corpus(model.tfidf, tokens, corpus.labels)
        report = evaluate.evaluate_model(model.classifier, matrix)
        assert out.read_text() == bundle_mod.canonical_json(report.to_dict())


def _parse(command, *flags):
    required = {
        "train": ["--data", "d.csv", "--algo", "nb"],
        "report": ["--data", "d.csv"],
        "oversample": ["--matrix", "m.mtx", "--out", "o.mtx"],
        "scatter": ["--data", "d.csv"],
    }[command]
    return build_parser().parse_args([command, *required, *flags])


class TestHyperparameterFlags:
    """Every hyperparameter flag and default comes from TrainConfig and
    SmoteConfig, so the CLI and the library cannot drift apart."""

    @pytest.mark.parametrize("command", ["train", "report"])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_no_flags_give_the_default_config(self, command, algo):
        args = _parse(command, "--seed", "9")
        assert _train_config(args, algo) == TrainConfig(algorithm=algo)

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_each_flag_sets_its_own_field(self, command):
        cases = [
            (["--svm-c", "2.5"], {"svm_C": 2.5}),
            (["--epochs", "7"], {"epochs": 7}),
            (["--l2", "0.25"], {"l2": 0.25}),
            (["--nb-alpha", "0.5"], {"nb_alpha": 0.5}),
            (["--tree-max-depth", "4"], {"tree_max_depth": 4}),
            (["--tree-min-samples-split", "5"], {"tree_min_samples_split": 5}),
        ]
        for flags, changed in cases:
            config = _train_config(_parse(command, *flags), "svm")
            assert config == TrainConfig(algorithm="svm", **changed), flags

    @pytest.mark.parametrize("command", ["train", "report", "oversample", "scatter"])
    def test_smote_k_default_is_smote_configs(self, command):
        assert _parse(command).smote_k == SmoteConfig().k
        assert _parse(command, "--smote-k", "2").smote_k == 2


_HYPER_FLAGS = {
    "--epochs", "--l2", "--svm-c", "--nb-alpha", "--tree-max-depth", "--tree-min-samples-split",
}
_CORPUS_FLAGS = {"--seed", "--stopwords", "--min-token-len", "--format", "--smote-k", "--data"}


class TestCommandFlags:
    """Each command takes exactly the flags it reads."""

    OPTIONS = {
        "train": _CORPUS_FLAGS | _HYPER_FLAGS | {
            "--algo", "--smote", "--split", "--out", "--split-manifest", "--timestamp",
        },
        "predict": {"--stopwords", "--bundle", "--input"},
        "evaluate": {"--stopwords", "--format", "--bundle", "--data", "--out"},
        "oversample": {
            "--seed", "--smote-k", "--matrix", "--labels", "--out", "--out-labels", "--report",
        },
        "report": _CORPUS_FLAGS | _HYPER_FLAGS | {
            "--split", "--algos", "--out", "--csv", "--split-manifest",
        },
        "scatter": _CORPUS_FLAGS | {"--smote", "--out", "--svg"},
    }
    REQUIRED = {
        "predict": ["--bundle", "b.json", "text"],
        "evaluate": ["--bundle", "b.json", "--data", "d.csv"],
        "oversample": ["--matrix", "m.mtx", "--out", "o.mtx"],
    }

    def test_option_strings_per_command(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        assert set(commands) == set(self.OPTIONS)
        for name, command in commands.items():
            options = {s for action in command._actions for s in action.option_strings}
            assert options - {"-h", "--help"} == self.OPTIONS[name], name

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("predict", "--seed", "1"),
            ("predict", "--min-token-len", "2"),
            ("predict", "--format", "jsonl"),
            ("evaluate", "--seed", "1"),
            ("evaluate", "--min-token-len", "2"),
            ("oversample", "--stopwords", "s.txt"),
            ("oversample", "--min-token-len", "2"),
            ("oversample", "--format", "csv"),
        ],
    )
    def test_flag_a_command_does_not_read_is_a_usage_error(self, command, flag, value, capsys):
        assert run([command, *self.REQUIRED[command], flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--data", "posts.csv", "--out", "comparison", "--seed", "3"],
            ["predict", "--bundle", "bundle.json", "--input", "posts.txt"],
            ["train", "--algo", "logistic", "--data", "train.csv", "--out", "bundle.json"],
            ["oversample", "--matrix", "matrix.txt", "--out", "balanced.txt", "--seed", "3"],
        ],
    )
    def test_benchmark_argv_shapes_parse(self, argv):
        assert build_parser().parse_args(argv).command == argv[0]


def _truncate_weights(c):
    c["weights"] = c["weights"][:3]


def _grow_dim(c):
    c["dim"] += 1
    c["weights"].append(0.0)


def _nan_bias(c):
    c["bias"] = float("nan")


def _short_nb_row(c):
    c["feature_log_prob"][1].pop()


def _one_nb_row(c):
    c["feature_log_prob"].pop()


def _infinite_prior(c):
    c["class_log_prior"][0] = float("inf")


def _huge_integer_weight(c):
    c["weights"][0] = 10**400  # a JSON integer that float() cannot convert


def _first_split(c):
    return next(i for i, node in enumerate(c["nodes"]) if "left" in node)


def _self_loop(c):
    root = _first_split(c)
    c["nodes"][root]["left"] = c["nodes"][root]["right"] = root


def _child_out_of_range(c):
    c["nodes"][_first_split(c)]["right"] = len(c["nodes"])


def _shared_child(c):
    node = c["nodes"][_first_split(c)]
    node["right"] = node["left"]


def _unreachable_leaf(c):
    c["nodes"].append({"label": 1})


def _feature_out_of_range(c):
    c["nodes"][_first_split(c)]["feature"] = c["dim"]


def _set_integer(field, value):
    """A classifier edit that sets ``field`` to ``value``: the dim, the first
    nb class label, or that key of the first tree node that has it."""

    def edit(c):
        if field == "dim":
            c["dim"] = value
        elif field == "class_labels":
            c["class_labels"][0] = value
        else:
            next(node for node in c["nodes"] if field in node)[field] = value

    return edit


def _set_float(field, value):
    """A classifier edit that sets ``field`` to ``value``: every weight, the
    whole weights table, the bias, the first NB prior, the first NB table
    row, or the first tree threshold."""

    def edit(c):
        if field == "weights":
            c["weights"] = [value] * len(c["weights"])
        elif field == "weights_table":
            c["weights"] = value * len(c["weights"])
        elif field == "feature_log_prob":
            c["feature_log_prob"][0] = value * len(c["feature_log_prob"][0])
        elif field == "class_log_prior":
            c["class_log_prior"][0] = value
        elif field == "threshold":
            c["nodes"][_first_split(c)]["threshold"] = value
        else:
            c[field] = value

    return edit


def _string_terms(data):
    # One distinct single-letter token per term, joined into one string:
    # `tuple` of it would split it back into the same terms.
    data["tfidf"]["terms"] = "".join(chr(0x4E00 + i) for i in range(len(data["tfidf"]["terms"])))
    data["preprocess_config"]["min_token_len"] = 1


def _set(section, key, change):
    """A bundle edit that replaces ``data[section][key]`` by ``change(old)``."""

    def edit(data):
        data[section][key] = change(data[section][key])

    return edit


def _first_term(term):
    return _set("tfidf", "terms", lambda terms: [term] + terms[1:])


class TestCorruptBundles:
    """Bundles are checked as structures when loaded: exit 2, never a
    traceback or a hang."""

    @staticmethod
    def corrupt_bundle(dataset, tmp_path, algo, edit):
        path = tmp_path / f"{algo}.json"
        assert run(["train", "--data", dataset, "--algo", algo, "--out", path]) == 0
        data = json.loads(path.read_text())
        edit(data["classifier"])
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize(
        "algo, edit",
        [
            ("logistic", _truncate_weights),
            ("svm", _grow_dim),
            ("logistic", _nan_bias),
            ("nb", _short_nb_row),
            ("nb", _one_nb_row),
            ("nb", _infinite_prior),
            ("logistic", _huge_integer_weight),
        ],
    )
    def test_corrupt_linear_and_nb_bundles_exit_2(self, dataset, tmp_path, capsys, algo, edit):
        path = self.corrupt_bundle(dataset, tmp_path, algo, edit)
        capsys.readouterr()
        assert run(["predict", "--bundle", path, "free money offer click now"]) == 2
        assert "error [bundle]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e400, 2.9, "1", True], ids=["1e400", "2.9", "str", "true"])
    @pytest.mark.parametrize(
        "algo, field",
        [("nb", "dim"), ("nb", "class_labels"), ("tree", "feature"), ("tree", "left"),
         ("tree", "right"), ("tree", "label")],
    )
    def test_integer_fields_must_be_json_integers(
        self, dataset, tmp_path, capsys, algo, field, value
    ):
        path = self.corrupt_bundle(dataset, tmp_path, algo, _set_integer(field, value))
        capsys.readouterr()
        assert run(["predict", "--bundle", path, "free money offer click now"]) == 2
        assert capsys.readouterr().err.startswith("error [bundle]")

    @pytest.mark.parametrize(
        "algo, edit",
        [
            ("logistic", _set_float("weights", "0.5")),
            ("logistic", _set_float("bias", "0.5")),
            ("svm", _set_float("weights", True)),
            ("svm", _set_float("bias", False)),
            ("logistic", _set_float("weights_table", "0")),
            ("nb", _set_float("class_log_prior", "-0.5")),
            ("nb", _set_float("feature_log_prob", "1")),
            ("tree", _set_float("threshold", "0.5")),
            ("tree", _set_float("threshold", True)),
        ],
        ids=[
            "weight-str", "bias-str", "weight-true", "bias-false", "weights-string-table",
            "nb-prior-str", "nb-row-string-table", "tree-threshold-str", "tree-threshold-true",
        ],
    )
    def test_float_fields_must_be_json_numbers(self, dataset, tmp_path, capsys, algo, edit):
        path = self.corrupt_bundle(dataset, tmp_path, algo, edit)
        capsys.readouterr()
        assert run(["predict", "--bundle", path, "free money offer click now"]) == 2
        assert capsys.readouterr().err.startswith("error [bundle]")

    @pytest.mark.parametrize(
        "edit",
        [_self_loop, _child_out_of_range, _shared_child, _unreachable_leaf, _feature_out_of_range],
    )
    def test_corrupt_tree_bundles_exit_2_without_hanging(self, dataset, tmp_path, edit):
        path = self.corrupt_bundle(dataset, tmp_path, "tree", edit)
        env = dict(os.environ, PYTHONPATH=str(Path(textbalance.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "textbalance.cli", "predict", "--bundle", str(path),
             "free money offer click now"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error [bundle]" in proc.stderr

    @pytest.mark.parametrize(
        "edit",
        [
            _set("preprocess_config", "min_token_len", lambda v: "3"),
            _set("preprocess_config", "min_token_len", lambda v: 0),
            _set("preprocess_config", "min_token_len", lambda v: True),
            _set("preprocess_config", "min_token_len", lambda v: 2.5),
            _set("preprocess_config", "stopwords_name", lambda v: 5),
            _set("preprocess_config", "stopwords_sha256", lambda v: None),
            _set("tfidf", "terms", lambda terms: [terms[0]] + terms[:-1]),
            _first_term(7),
            _set("tfidf", "doc_freq", lambda df: [df[0] + 0.5] + df[1:]),
            _set("tfidf", "n_docs", lambda n: n + 0.5),
            _set("tfidf", "n_docs", float),
            _set("tfidf", "n_docs", lambda n: 10**400),
            # Terms the bundle's own preprocessing could not have kept.
            _first_term("ab"),
            _first_term("the"),
            _first_term("Ab c"),
            _string_terms,
        ],
        ids=[
            "min_len_string", "min_len_zero", "min_len_bool", "min_len_float",
            "stop_name_int", "stop_sha_null", "duplicate_term", "integer_term",
            "fractional_doc_freq", "fractional_n_docs", "float_n_docs", "huge_n_docs",
            "short_term", "stop_word_term", "multi_token_term", "string_terms",
        ],
    )
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_bad_vocabulary_or_preprocess_config_exits_2(
        self, dataset, tmp_path, capsys, edit, command
    ):
        path = tmp_path / "model.json"
        assert run(["train", "--data", dataset, "--algo", "logistic", "--out", path]) == 0
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        if command == "predict":
            argv = ["predict", "--bundle", path, "free money offer click now"]
        else:
            argv = ["evaluate", "--bundle", path, "--data", dataset]
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error [bundle]"), out.err
        assert out.out == ""


class TestOversample:
    def test_balances_matrix_file(self, tmp_path, capsys):
        rng = np.random.default_rng(50)
        matrix = rand_matrix(rng, n0=12, n1=5, dim=6, nonneg=True)
        src = tmp_path / "train.mtx"
        dst = tmp_path / "balanced.mtx"
        report_path = tmp_path / "report.json"
        write_matrix(matrix, src)
        code = run(
            ["oversample", "--matrix", src, "--out", dst, "--report", report_path,
             "--seed", 4]
        )
        assert code == 0
        balanced = read_matrix(dst)
        assert Counter(balanced.labels) == {0: 12, 1: 12}
        assert oracles.rows_of(balanced.csr)[:17] == oracles.rows_of(matrix.csr)
        report = json.loads(report_path.read_text())
        assert report["synthetic_created"] == 7
        assert "12/12" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, value):
        src = tmp_path / "bad.mtx"
        src.write_text(f"5 2 3\n0 0 1.0\n1 1 {value}\n3 0 0.5\n")
        (tmp_path / "bad.mtx.labels").write_text("0\n0\n0\n1\n1\n")
        dst = tmp_path / "out.mtx"
        assert run(["oversample", "--matrix", src, "--out", dst]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [read]")
        assert f"bad.mtx:3: non-finite value '{value}'" in err
        assert not dst.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_interpolation_exits_2(self, tmp_path, capsys):
        # The two minority rows are 1e308 and -1e308 in column 0: their
        # difference overflows, and no reader accepts an infinite value.
        src = tmp_path / "huge.mtx"
        src.write_text("6 2 3\n0 0 1e308\n1 0 -1e308\n2 1 1.0\n")
        (tmp_path / "huge.mtx.labels").write_text("1\n1\n0\n0\n0\n0\n")
        dst = tmp_path / "out.mtx"
        assert run(["oversample", "--matrix", src, "--out", dst]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [resample]") and "not finite" in err
        assert not dst.exists()

    @pytest.mark.parametrize("value", ["1.0", "0.0"])
    def test_duplicate_entry_names_its_line(self, tmp_path, capsys, value):
        src = tmp_path / "dup.mtx"
        src.write_text(f"2 2 3\n0 0 {value}\n1 1 2.0\n0 0 {value}\n")
        (tmp_path / "dup.mtx.labels").write_text("0\n1\n")
        dst = tmp_path / "out.mtx"
        assert run(["oversample", "--matrix", src, "--out", dst]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [read]")
        assert "dup.mtx:4: duplicate entry (0, 0)" in err
        assert not dst.exists()

    def test_unsorted_entries_load(self, tmp_path):
        src = tmp_path / "unsorted.mtx"
        src.write_text("3 2 3\n2 1 0.5\n0 1 2.0\n0 0 1.0\n")
        (tmp_path / "unsorted.mtx.labels").write_text("0\n0\n1\n")
        matrix = read_matrix(src)
        rows = oracles.rows_of(matrix.csr)
        assert [row.entries for row in rows] == [((0, 1.0), (1, 2.0)), (), ((1, 0.5),)]

    def test_header_beyond_int64_exits_2(self, tmp_path, capsys):
        src = tmp_path / "wide.mtx"
        src.write_text(f"5 {10**30} 3\n0 0 1.0\n1 {10**24} 2.0\n3 0 0.5\n")
        (tmp_path / "wide.mtx.labels").write_text("0\n0\n0\n1\n1\n")
        assert run(["oversample", "--matrix", src, "--out", tmp_path / "out.mtx"]) == 2
        assert capsys.readouterr().err.startswith("error [read]")

    @pytest.mark.parametrize("width", [10**12, 2**62], ids=["1e12", "2^62"])
    def test_huge_column_count_balances_and_keeps_its_width(self, tmp_path, capsys, width):
        src = tmp_path / "wide.mtx"
        src.write_text(f"5 {width} 4\n0 0 1.0\n1 3 2.0\n3 0 0.5\n4 {width - 1} 1.5\n")
        (tmp_path / "wide.mtx.labels").write_text("0\n0\n0\n1\n1\n")
        dst = tmp_path / "out.mtx"
        assert run(["oversample", "--matrix", src, "--out", dst]) == 0
        assert "2/3 -> 3/3" in capsys.readouterr().out
        lines = dst.read_text().splitlines()
        assert lines[0].split()[:2] == ["6", str(width)]
        balanced = read_matrix(dst)
        assert balanced.dim == width
        assert set(balanced.csr.indices[balanced.csr.indptr[5] :].tolist()) <= {0, width - 1}

    def test_huge_row_count_is_rejected_before_allocating(self, tmp_path, capsys):
        src = tmp_path / "huge.mtx"
        src.write_text("1000000000000 1 0\n")
        (tmp_path / "huge.mtx.labels").write_text("0\n")
        start = time.perf_counter()
        code = run(["oversample", "--matrix", src, "--out", tmp_path / "out.mtx"])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr().err.startswith("error [read]")
        assert elapsed < 1.0


class TestRowViews:
    def test_no_command_builds_a_row_view(self, dataset, tmp_path, monkeypatch):
        """Every command stays on whole CSR arrays; none slices out one row."""
        matrix, bundle = tmp_path / "train.mtx", tmp_path / "model.json"
        write_matrix(rand_matrix(np.random.default_rng(51), n0=12, n1=5, dim=6), matrix)

        def refuse(csr, r):
            raise AssertionError(f"row {r} of a view was built")

        monkeypatch.setattr(vectorize.CsrView, "row", refuse)
        with pytest.raises(AssertionError, match="row 0 of a view"):
            read_matrix(matrix).rows
        commands = [
            ["train", "--data", dataset, "--algo", "nb", "--smote", "on", "--out", bundle],
            ["report", "--data", dataset, "--out", tmp_path / "cmp"],
            ["predict", "--bundle", bundle, "free money offer click now"],
            ["evaluate", "--bundle", bundle, "--data", dataset],
            ["oversample", "--matrix", matrix, "--out", tmp_path / "out.mtx"],
            ["scatter", "--data", dataset, "--smote", "on", "--out", tmp_path / "points.csv"],
        ]
        for argv in commands:
            assert run(argv) == 0, argv[0]


class TestReport:
    @pytest.mark.parametrize(
        "flag, field, value",
        [("--svm-c", "svm_C", "nan"), ("--l2", "l2", "nan"), ("--nb-alpha", "nb_alpha", "inf")],
    )
    def test_non_finite_hyperparameter_exits_2_before_any_fit(
        self, dataset, tmp_path, capsys, monkeypatch, flag, field, value
    ):
        def no_fit(*args):
            raise AssertionError("a fit started")

        monkeypatch.setattr(evaluate, "train", no_fit)
        prefix = tmp_path / "cmp"
        assert run(["report", "--data", dataset, "--out", prefix, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [compare]")
        assert f"{field} must be finite" in err
        assert not Path(f"{prefix}.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algos", "svm", "--svm-c", "1e308"], "lam = 1/(C*n) = 0.0"),
        ],
    )
    def test_unusable_fit_exits_2_at_compare(self, dataset, tmp_path, capsys, flags, message):
        prefix = tmp_path / "cmp"
        assert run(["report", "--data", dataset, *flags, "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [compare]") and message in err
        assert not Path(f"{prefix}.json").exists()

    def test_writes_json_text_csv(self, dataset, tmp_path, capsys):
        prefix = tmp_path / "cmp"
        code = run(
            ["report", "--data", dataset, "--algos", "nb,svm", "--seed", 7,
             "--out", prefix, "--csv"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert set(payload["algorithms"]) == {"nb", "svm"}
        for arms in payload["algorithms"].values():
            assert set(arms) == {"with_smote", "without_smote"}
        text = (tmp_path / "cmp.txt").read_text()
        assert "With SMOTE" in text and "Multinomial NB" in text
        csv_lines = (tmp_path / "cmp.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 4
        assert "Accuracy" in capsys.readouterr().out

    def test_repeated_runs_are_byte_identical(self, dataset, tmp_path):
        for prefix in ("one", "two"):
            assert (
                run(
                    ["report", "--data", dataset, "--algos", "nb", "--seed", 11,
                     "--out", tmp_path / prefix]
                )
                == 0
            )
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "two.txt").read_bytes()

    def test_unknown_algorithm_exits_2(self, dataset, tmp_path, capsys):
        code = run(["report", "--data", dataset, "--algos", "nb,quantum",
                    "--out", tmp_path / "x"])
        assert code == 2
        assert "quantum" in capsys.readouterr().err

    @pytest.mark.parametrize("algos", [",", " , ", ""])
    def test_empty_algorithm_list_exits_2_before_any_work(
        self, dataset, tmp_path, capsys, monkeypatch, algos
    ):
        def no_balance(*args):
            raise AssertionError("SMOTE ran")

        monkeypatch.setattr(evaluate, "balance_training_set", no_balance)
        prefix = tmp_path / "cmp"
        assert run(["report", "--data", dataset, "--algos", algos, "--out", prefix]) == 2
        assert capsys.readouterr().err.startswith("error [config]")
        assert not Path(f"{prefix}.json").exists()

    def test_repeated_algorithm_is_fitted_once_per_arm(self, dataset, tmp_path, monkeypatch):
        fits = []

        def counting_train(matrix, config):
            fits.append(config.algorithm)
            return classify.train(matrix, config)

        monkeypatch.setattr(evaluate, "train", counting_train)
        for prefix, algos in (("once", "nb"), ("twice", "nb, nb,nb")):
            fits.clear()
            assert run(["report", "--data", dataset, "--algos", algos, "--seed", 4,
                        "--out", tmp_path / prefix]) == 0
            assert fits == ["nb", "nb"]
        for suffix in (".json", ".txt"):
            once = (tmp_path / f"once{suffix}").read_bytes()
            assert (tmp_path / f"twice{suffix}").read_bytes() == once

    def test_smote_warnings_reach_stderr_as_in_train(self, tmp_path, capsys):
        # Two spam posts split one to each side, so SMOTE sees one minority row.
        docs = [
            LabeledDocument(id=f"h{i}", text=f"tutorial lesson {word}", label=0)
            for i, word in enumerate("python scilab latex numpy octave julia rust golang".split())
        ]
        docs += [LabeledDocument(id=f"s{i}", text="cheap pills offer", label=1) for i in range(2)]
        data = tmp_path / "tiny.csv"
        write_corpus(Corpus.from_documents(docs), data, "csv")
        warning = "warning: single minority sample: synthetic rows are exact duplicates\n"
        assert run(["train", "--data", data, "--algo", "nb", "--smote", "on",
                    "--out", tmp_path / "m.json"]) == 0
        assert capsys.readouterr().err == warning
        assert run(["report", "--data", data, "--algos", "nb", "--out", tmp_path / "cmp"]) == 0
        assert capsys.readouterr().err == warning
        recorded = json.loads((tmp_path / "cmp.json").read_text())["resample"]["warnings"]
        assert recorded == [warning[len("warning: ") : -1]]


class TestScatter:
    def test_projects_every_input_row(self, dataset, tmp_path):
        out = tmp_path / "points.csv"
        assert run(["scatter", "--data", dataset, "--out", out, "--seed", 2]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert "seed=2" in lines[0]
        assert lines[1] == "x,y,class,synthetic"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 62  # whole file, no split
        assert all(len(r) == 4 for r in rows)
        assert {r[2] for r in rows} == {"0", "1"}
        assert {r[3] for r in rows} == {"false"}

    def test_smote_rows_marked_synthetic(self, dataset, tmp_path):
        out = tmp_path / "points.csv"
        svg = tmp_path / "points.svg"
        code = run(
            ["scatter", "--data", dataset, "--smote", "on", "--out", out,
             "--svg", svg, "--seed", 2]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2 * 46  # balanced to the majority count
        synthetic = [r for r in rows if r[3] == "true"]
        assert len(synthetic) == 46 - 16
        assert {r[2] for r in synthetic} == {"1"}  # minority label only
        assert svg.read_text().startswith("<svg")

    def test_imbalanced_training_file_counts(self, tmp_path):
        # A 201/33 training file projects to 234 rows as-is and to 402
        # rows (168 synthetic) once balanced.
        train_c, _ = two_vocab_corpus(seed=7)
        data = tmp_path / "train.csv"
        write_corpus(train_c, data, "csv")
        off = tmp_path / "off.csv"
        on = tmp_path / "on.csv"
        assert run(["scatter", "--data", data, "--out", off]) == 0
        assert run(["scatter", "--data", data, "--smote", "on", "--out", on]) == 0
        off_rows = off.read_text().strip().split("\n")[2:]
        on_rows = [line.split(",") for line in on.read_text().strip().split("\n")[2:]]
        assert len(off_rows) == 234
        assert len(on_rows) == 402
        assert sum(1 for r in on_rows if r[3] == "true") == 168

    def test_smote_warnings_reach_stderr(self, tmp_path, capsys):
        docs = [
            LabeledDocument(id=f"h{i}", text=f"tutorial lesson {word}", label=0)
            for i, word in enumerate(("python", "scilab", "latex"))
        ]
        docs.append(LabeledDocument(id="s0", text="cheap pills offer", label=1))
        data = tmp_path / "tiny.csv"
        write_corpus(Corpus.from_documents(docs), data, "csv")
        out = tmp_path / "points.csv"
        assert run(["scatter", "--data", data, "--smote", "on", "--out", out]) == 0
        assert "warning: single minority sample" in capsys.readouterr().err
        assert len(out.read_text().strip().split("\n")[2:]) == 6

    def test_projection_matches_per_row_reference(self, tmp_path):
        # Row 1 keeps no token, so it is empty and projects to 0.0, not
        # the int 0 that `dot`'s default start would give.
        texts = ["cheap pills offer", "the of and", "python tutorial lesson", "cheap offer"]
        docs = [LabeledDocument(id=f"d{i}", text=t, label=i % 2) for i, t in enumerate(texts)]
        corpus = Corpus.from_documents(docs)
        data = tmp_path / "tiny.csv"
        write_corpus(corpus, data, "csv")
        out = tmp_path / "points.csv"
        assert run(["scatter", "--data", data, "--out", out, "--seed", 6]) == 0
        tokens = preprocess.preprocess_corpus(corpus, stopwords.default_stopwords())
        matrix = vectorize.transform_corpus(vectorize.fit(tokens), tokens, corpus.labels)
        rng = derive_stream(6, STREAM_PROJECTION)
        signs = [-1.0 if rng.next_u64() >> 63 else 1.0 for _ in range(2 * matrix.dim)]
        gx, gy = signs[0::2], signs[1::2]
        expected = [
            f"{oracles.dot(row, gx, start=0.0)!r},{oracles.dot(row, gy, start=0.0)!r},{label},false"
            for row, label in zip(oracles.rows_of(matrix.csr), matrix.labels)
        ]
        assert out.read_text().split("\n")[2:-1] == expected
        assert expected[1] == "0.0,0.0,1,false"

    def test_deterministic_output(self, dataset, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["scatter", "--data", dataset, "--out", out, "--seed", 9]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matrix_without_entries_writes_float_zeros(self, tmp_path):
        # Every post is stop words only, so the matrix has no stored entry.
        texts = ["the of and", "a to in", "is it of", "and the a"]
        docs = [LabeledDocument(id=f"d{i}", text=t, label=i % 2) for i, t in enumerate(texts)]
        data = tmp_path / "stop.csv"
        write_corpus(Corpus.from_documents(docs), data, "csv")
        out = tmp_path / "points.csv"
        assert run(["scatter", "--data", data, "--out", out, "--svg", tmp_path / "p.svg"]) == 0
        assert out.read_text().split("\n")[2:-1] == [f"0.0,0.0,{i % 2},false" for i in range(4)]

    def test_bytes_do_not_depend_on_glibc_math_kernels(self, tmp_path):
        # glibc picks FMA or AVX2 variants of log, sin, cos and exp per
        # CPU; the tunable masks them in the one child whose loader reads it.
        try:
            libc = os.confstr("CS_GNU_LIBC_VERSION")
        except (AttributeError, ValueError, OSError):
            libc = None
        if not libc or platform.machine() != "x86_64":
            pytest.skip(f"needs x86-64 glibc; libc {libc!r}, machine {platform.machine()!r}")
        rng = SplitMix64(21)
        docs = [
            LabeledDocument(
                id=f"p{i}",
                text=" ".join(f"w{rng.next_below(6000):04d}x" for _ in range(20)),
                label=int(i % 5 == 4),
            )
            for i in range(300)
        ]
        data = tmp_path / "posts.csv"
        write_corpus(Corpus.from_documents(docs), data, "csv")
        calls = [
            ["scatter", "--data", data, "--seed", seed,
             "--out", f"s{seed}.csv", "--svg", f"s{seed}.svg"]
            for seed in range(1, 9)
        ]
        plain = cli_outputs_in_child(calls, {"GLIBC_TUNABLES": None}, tmp_path / "plain")
        capped = cli_outputs_in_child(
            calls, {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2"}, tmp_path / "capped"
        )
        assert len(plain) == 17 and capped.keys() == plain.keys()
        assert [name for name in plain if capped[name] != plain[name]] == []


# Runs each argv, ended by ";", through `cli.main`, then prints the loaded
# module names as its last line.  It imports nothing itself but `sys`, so
# every other name it prints was loaded by the package or by the commands.
_MODULES_CHILD = """
import sys
from textbalance.cli import main
argv = sys.argv[1:]
while argv:
    end = argv.index(";")
    if main(argv[:end]) != 0:
        sys.exit(f"exit != 0: {argv[:end]}")
    del argv[: end + 1]
print("\\n" + " ".join(sys.modules))
"""


def _modules_loaded_by(calls, workdir: Path) -> set[str]:
    """The modules one new interpreter holds after running ``calls``."""
    args = [str(a) for argv in calls for a in (*argv, ";")]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, *args],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(Path(textbalance.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(rand_matrix(np.random.default_rng(3), n0=30, n1=10, dim=20), path)
    return path


def test_cli_imports_exactly_the_package_modules(dataset, matrix_file, tmp_path):
    """The six commands, run in one child interpreter, load every module of
    the package between them and nothing else of it, so no module that only
    the tests use can sit in the package."""
    calls = [
        ["train", "--data", dataset, "--algo", "nb", "--out", "model.json"],
        ["predict", "--bundle", "model.json", "free money"],
        ["evaluate", "--bundle", "model.json", "--data", dataset],
        ["oversample", "--matrix", matrix_file, "--out", "o.txt", "--report", "o.json"],
        ["report", "--data", dataset, "--algos", "nb"],
        ["scatter", "--data", dataset],
    ]
    assert {argv[0] for argv in calls} == set(_COMMANDS)
    package = Path(textbalance.__file__).parent
    stems = {path.stem for path in package.glob("*.py")}
    expected = {"textbalance" if stem == "__init__" else f"textbalance.{stem}" for stem in stems}
    loaded = _modules_loaded_by(calls, tmp_path)
    assert {name for name in loaded if name.split(".")[0] == "textbalance"} == expected


class TestStartupModules:
    """Each command loads only what it runs: SMOTE alone needs neither the
    text layers nor the bundle format, and serving reads no dataset."""

    def test_oversample_skips_the_text_and_bundle_layers(self, matrix_file, tmp_path):
        loaded = _modules_loaded_by([["oversample", "--matrix", matrix_file, "--out", "o.txt"]],
                                    tmp_path)
        assert "textbalance.resample" in loaded
        skipped = {"textbalance.bundle", "textbalance.ingest", "textbalance.stopwords",
                   "json", "csv", "hashlib"}
        assert loaded & skipped == set()

    def test_predict_skips_ingest(self, dataset, tmp_path):
        bundle_path = tmp_path / "model.json"
        assert run(["train", "--data", dataset, "--algo", "nb", "--out", bundle_path]) == 0
        loaded = _modules_loaded_by([["predict", "--bundle", bundle_path, "free money"]], tmp_path)
        assert "textbalance.bundle" in loaded
        assert loaded & {"textbalance.ingest", "csv"} == set()
