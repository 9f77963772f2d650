"""End-to-end command-line behavior: exit codes, files, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import textbalance
from conftest import rand_matrix
from textbalance.cli import main
from textbalance.fixtures import two_vocab_corpus
from textbalance.ingest import Corpus, write_corpus
from textbalance.matrixio import read_matrix, write_matrix


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
        ],
    )
    def test_corrupt_linear_and_nb_bundles_exit_2(self, dataset, tmp_path, capsys, algo, edit):
        path = self.corrupt_bundle(dataset, tmp_path, algo, edit)
        capsys.readouterr()
        assert run(["predict", "--bundle", path, "free money offer click now"]) == 2
        assert "error [bundle]" in capsys.readouterr().err

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
        assert balanced.class_counts() == {0: 12, 1: 12}
        assert balanced.rows[:17] == matrix.rows
        report = json.loads(report_path.read_text())
        assert report["synthetic_created"] == 7
        assert "12/12" in capsys.readouterr().out


class TestReport:
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

    def test_deterministic_output(self, dataset, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["scatter", "--data", dataset, "--out", out, "--seed", 9]) == 0
        assert a.read_bytes() == b.read_bytes()
