"""Tests of the benchmark itself: generator, metric names, checks, failures.

Run from the root of a checkout: python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import harness
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = gen.Profile(n_docs=60, spam_rate=0.25, markup=1.0, zipf_s=1.35)


def _files(tmp_path: Path, seed: int) -> dict[str, bytes]:
    out = tmp_path / f"seed{seed}"
    out.mkdir()
    records = gen.corpus(seed, SMALL)
    gen.write_csv(records, out / "posts.csv")
    gen.write_lines(records, out / "posts.txt")
    gen.write_matrix(seed, SMALL, out / "matrix.txt")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_generator_same_seed_same_files_other_seed_other_files(tmp_path):
    first = _files(tmp_path, 5)
    assert set(first) == {"posts.csv", "posts.txt", "matrix.txt", "matrix.txt.labels"}
    again = tmp_path / "again"
    again.mkdir()
    assert _files(again, 5) == first
    other = _files(tmp_path, 6)
    assert all(other[name] != first[name] for name in ("posts.csv", "posts.txt", "matrix.txt"))


def test_generator_profile_shape():
    records = gen.corpus(3, SMALL)
    assert len(records) == 60
    assert sum(label for _, _, label in records) == 15
    assert all("\n" not in text and "\r" not in text for _, text, _ in records)
    assert any("<script" in text for _, text, _ in records)
    assert any("&" in text for _, text, _ in records)


def test_vocabulary_grows_with_corpus_size():
    def distinct(n):
        profile = gen.Profile(n_docs=n, spam_rate=0.1, markup=0.0, zipf_s=1.35)
        return len({w for _, text, _ in gen.corpus(1, profile) for w in text.split()})

    assert distinct(400) > 1.5 * distinct(100)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == harness.END_TO_END_UNITS
    assert per_layer == harness.per_layer_units()
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_predict_check_rejects_a_wrong_label(tmp_path):
    prepared = workloads.Prepared(argv=[], items=2, setup_code="", stdout_name="predict.out")
    prepared.state["labels"] = [0, 1]
    (tmp_path / "predict.out").write_text("0\t-1.5\n1\t2.0\n", encoding="utf-8")
    workloads.PredictHtml().check(prepared, tmp_path)
    (tmp_path / "predict.out").write_text("0\t-1.5\n0\t2.0\n", encoding="utf-8")
    with pytest.raises(workloads.CheckFailed):
        workloads.PredictHtml().check(prepared, tmp_path)


class _CorruptMatrix(workloads.OversampleWide):
    profile = SMALL

    def prepare(self, work, seed, run_cli):
        prepared = super().prepare(work, seed, run_cli)
        (work / "matrix.txt").write_text("3 3 1\nnot a triple\n", encoding="utf-8")
        return prepared


def _checkout(tmp_path: Path) -> Path:
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_corrupt_matrix_counts_as_failed_and_harness_survives(tmp_path):
    run = harness.Run(_checkout(tmp_path), _CorruptMatrix(), 1, 0, time.monotonic() + 120)
    result = run.measure()
    assert run.tally.attempted == harness.SETUP_REPEATS + harness.MIN_REPEATS
    assert len(run.tally.failures) == harness.MIN_REPEATS
    assert all("exit 2" in f for f in run.tally.failures)
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    scaled = result["detail"]["samples"]["setup_s"]
    unscaled = result["detail"]["unscaled_samples"]["setup_s"]
    assert len(scaled) == len(unscaled) == harness.SETUP_REPEATS
    assert all(s != u for s, u in zip(scaled, unscaled))


def test_child_times_are_scaled_by_the_speed_probe(tmp_path):
    child = harness.run_child([sys.executable, "-c", "import time; time.sleep(0.3)"], tmp_path, {}, None, 30)
    assert child.code == 0
    assert child.scale > 0


def test_traced_report_wraps_every_binding_and_accounts_for_wall(tmp_path):
    class SmallReport(workloads.ReportZipf):
        profile = gen.Profile(n_docs=80, spam_rate=0.2, markup=0.15, zipf_s=1.35)

    from textbalance import classify, evaluate

    run = harness.Run(_checkout(tmp_path), SmallReport(), 2, 0, time.monotonic() + 120)
    result = run.trace()
    assert run.tally.failures == []
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == set(harness.per_layer_units())
    for algo in spans.ALGORITHMS:
        for arm in spans.ARMS:
            assert values[f"classify.train_s.{algo}.{arm}"] > 0, (algo, arm)
    assert values["resample.knn_calls"] > 0 and values["evaluate.score_s"] > 0
    assert values["classify.train_rows.smote"] > values["classify.train_rows.raw"]
    assert 0.9 < values["trace.accounted_ratio"] <= 1.0
    # Wrappers are removed again once the traced call returns.
    assert evaluate.train is classify.train


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "report-zipf", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
