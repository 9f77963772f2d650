"""Seeded mutation fuzz over every file the CLI reads.

Bundles, CSV and JSONL datasets, matrix and label files, and stop lists are
corrupted by a SplitMix64-driven mutator: bit flips, truncation, duplicated
or deleted lines, numbers swapped for out-of-type values, and deep nesting.
Fast commands then read them in process.  Every case must end in exit 0, 1
or 2, exit 2 must print an ``error [stage]`` message, and no exception may
escape `cli.main`.  Bundles also get two sweeps: every numeric key, each
swap value, at a seeded leaf under that key; and every object- or
array-valued key, its whole value replaced by each of ``STRUCTURES``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import signal

import numpy as np
import pytest

from conftest import rand_matrix
from corpora import two_vocab_corpus, write_corpus
from textbalance.cli import main
from textbalance.ingest import Corpus
from textbalance.matrixio import write_matrix
from textbalance.rng import SplitMix64

DEEP = "[" * 100_000
SWAPS = ("1e400", "-1", "2.5", "true", '"1"', "null")
STRUCTURES = ([], {}, "x", 3, None, True)
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
CASES = 40
CASE_SECONDS = 5.0
TEXT = "free money offer click now"


class CaseTimeout(Exception):
    """A case ran past CASE_SECONDS."""


def _swap_number(data: bytes, rng: SplitMix64, value: str) -> bytes:
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data
    match = numbers[rng.next_below(len(numbers))]
    return data[: match.start()] + value.encode() + data[match.end() :]


def mutate(data: bytes, rng: SplitMix64) -> bytes:
    """``data`` after one seeded mutation."""
    if not data:
        return data
    kind = rng.next_below(6)
    if kind == 0:
        at = rng.next_below(len(data))
        return data[:at] + bytes([data[at] ^ (1 << rng.next_below(8))]) + data[at + 1 :]
    if kind == 1:
        return data[: rng.next_below(len(data))]
    if kind in (2, 3):
        lines = data.splitlines(keepends=True)
        at = rng.next_below(len(lines))
        lines[at : at + 1] = [lines[at]] * (2 if kind == 2 else 0)
        return b"".join(lines)
    if kind == 4:
        return _swap_number(data, rng, SWAPS[rng.next_below(len(SWAPS))])
    return _swap_number(data, rng, DEEP)


def _numeric_leaves(value, key, found: dict) -> dict:
    """Map each dict key to the (container, slot) of every number under it."""
    slots = value.items() if isinstance(value, dict) else enumerate(value)
    for slot, item in slots:
        under = slot if isinstance(value, dict) else key
        if isinstance(item, (dict, list)):
            _numeric_leaves(item, under, found)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            found.setdefault(under, []).append((value, slot))
    return found


def key_sweep(data: bytes, rng: SplitMix64):
    """Per numeric key and swap value, the document with one seeded leaf
    under that key replaced by the value."""
    marker = "\x00swap\x00"
    for key in sorted(_numeric_leaves(json.loads(data), None, {})):
        for value in (*SWAPS, DEEP + "]" * len(DEEP)):
            doc = json.loads(data)
            leaves = _numeric_leaves(doc, None, {})[key]
            container, slot = leaves[rng.next_below(len(leaves))]
            container[slot] = marker
            yield f"{key}={value[:8]}", json.dumps(doc).replace(json.dumps(marker), value).encode()


def _container_keys(value, path: tuple = ()):
    """The path of every object- or array-valued key under ``value``."""
    slots = value.items() if isinstance(value, dict) else enumerate(value)
    for slot, item in slots:
        if isinstance(item, (dict, list)):
            if isinstance(value, dict):
                yield (*path, slot)
            yield from _container_keys(item, (*path, slot))


def structure_sweep(data: bytes):
    """Per object- or array-valued key and structure, the document with
    that key's value replaced by the structure."""
    for path in _container_keys(json.loads(data)):
        for value in STRUCTURES:
            doc = json.loads(data)
            parent = doc
            for slot in path[:-1]:
                parent = parent[slot]
            parent[path[-1]] = value
            yield f"{'.'.join(map(str, path))}={json.dumps(value)}", json.dumps(doc).encode()


def _expire(signum, frame):
    raise CaseTimeout


def run_case(argv) -> tuple[int, str]:
    """``cli.main(argv)`` in process with a time guard; (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def check_case(name: str, argv) -> str | None:
    """What went wrong in one case, or None."""
    try:
        code, err = run_case(argv)
    except BaseException as exc:  # noqa: BLE001 - any escape is the finding
        return f"{name}: {type(exc).__name__}: {str(exc)[:120]}"
    if code not in (0, 1, 2):
        return f"{name}: exit {code!r}"
    if code == 2 and not err.startswith("error ["):
        return f"{name}: exit 2 with stderr {err[:120]!r}"
    return None


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs of every kind, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    train, test = two_vocab_corpus(seed=3, n_train_nonspam=30, n_train_spam=8, n_test_per_class=4)
    corpus = Corpus.from_documents(list(train.documents) + list(test.documents))
    paths = {"csv": root / "data.csv", "jsonl": root / "data.jsonl"}
    write_corpus(corpus, paths["csv"], "csv")
    write_corpus(corpus, paths["jsonl"], "jsonl")
    for algo in ("nb", "tree"):
        paths[algo] = root / f"{algo}.json"
        assert main(["train", "--data", str(paths["csv"]), "--algo", algo,
                     "--out", str(paths[algo])]) == 0
    paths["matrix"] = root / "m.mtx"
    write_matrix(rand_matrix(np.random.default_rng(9), n0=9, n1=4, dim=5, nonneg=True),
                 paths["matrix"])
    paths["labels"] = root / "m.mtx.labels"
    paths["stops"] = root / "stops.txt"
    paths["stops"].write_text("# fuzz stop list\nthe\nand\nof\n\nto # inline\n", encoding="utf-8")
    return paths


def commands(kind: str, path, inputs, out):
    """The fast commands that read a mutated file of ``kind`` at ``path``."""
    if kind in ("nb", "tree"):
        return [["predict", "--bundle", path, TEXT]]
    if kind in ("csv", "jsonl"):
        return [
            ["train", "--data", path, "--format", kind, "--algo", "nb", "--out", out / "m.json"],
            ["evaluate", "--bundle", inputs["nb"], "--data", path, "--format", kind],
        ]
    if kind == "matrix":
        return [["oversample", "--matrix", path, "--labels", inputs["labels"], "--out", out / "o"]]
    if kind == "labels":
        return [["oversample", "--matrix", inputs["matrix"], "--labels", path, "--out", out / "o"]]
    return [["train", "--data", inputs["csv"], "--algo", "nb", "--stopwords", path,
             "--out", out / "m.json"]]


def _cases(kind: str, data: bytes, seed: int):
    rng = SplitMix64(seed)
    for case in range(CASES):
        mutated = data
        for _ in range(1 + rng.next_below(2)):
            mutated = mutate(mutated, rng)
        yield f"{kind}#{case}", mutated
    if kind in ("nb", "tree"):
        for name, mutated in key_sweep(data, rng):
            yield f"{kind}:{name}", mutated


def _problems(kind: str, cases, inputs, tmp_path) -> list[str]:
    """What went wrong, case by case, when the commands read each case's file."""
    path = tmp_path / inputs[kind].name
    problems = []
    for name, mutated in cases:
        path.write_bytes(mutated)
        for argv in commands(kind, path, inputs, tmp_path):
            problem = check_case(name, argv)
            if problem:
                problems.append(problem)
    return problems


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
@pytest.mark.parametrize(
    "kind, seed",
    [("nb", 1), ("tree", 2), ("csv", 3), ("jsonl", 4), ("matrix", 5), ("labels", 6), ("stops", 7)],
)
def test_mutated_inputs_exit_cleanly(inputs, tmp_path, kind, seed):
    cases = _cases(kind, inputs[kind].read_bytes(), seed)
    problems = _problems(kind, cases, inputs, tmp_path)
    assert not problems, "\n".join(problems[:10])


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
@pytest.mark.parametrize("kind", ["nb", "tree"])
def test_bundle_structures_exit_cleanly(inputs, tmp_path, kind):
    cases = ((f"{kind}:{name}", doc) for name, doc in structure_sweep(inputs[kind].read_bytes()))
    problems = _problems(kind, cases, inputs, tmp_path)
    assert not problems, "\n".join(problems[:10])

