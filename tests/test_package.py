"""The package namespace: ``import textbalance`` loads no submodule, and
each public name and each submodule resolves on first access (PEP 562)
to the same object as before the names became lazy."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import textbalance

# The public API, as `__init__` listed it by hand before its names were
# resolved on first access.
PUBLIC = """
    ALGORITHMS ComparisonReport ConfusionMatrix Corpus DatasetSplit FeatureMatrix
    LabeledDocument MetricsReport ModelBundle PreprocessConfig ResampleReport SmoteConfig
    SplitMix64 StopWordList TfIdfModel TrainConfig __version__ balance_training_set compare
    default_stopwords derive_stream evaluate_model filter_tokens fit load_bundle load_corpus
    load_stopwords predict predict_batch preprocess_corpus save_bundle split strip_html
    tokenize train transform transform_corpus
""".split()


def _child(code: str, *options: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter, given ``options``, that imports
    the package under test; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, *options, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(textbalance.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importtime_lists_the_submodules_cli_loads():
    # `-X importtime` logs only imports that go through the import system's
    # own path, so a submodule that `__getattr__` loads must take it too.
    log = _child("import textbalance.cli", "-X", "importtime").stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in log.splitlines()}
    for module in ("classify", "evaluate", "matrixio", "preprocess"):
        assert f"textbalance.{module}" in listed, log


def test_all_is_the_public_api():
    assert textbalance.__all__ == PUBLIC
    assert len(PUBLIC) == 37


def test_import_loads_no_submodule():
    code = "import sys, textbalance\nprint(*(m for m in sys.modules if m.startswith('textbalance')))"
    assert _child(code).stdout.split() == ["textbalance"]


@pytest.mark.parametrize(
    "module, names", textbalance._EXPORTS.items(), ids=list(textbalance._EXPORTS)
)
def test_each_name_is_its_home_modules_object(module, names):
    home = importlib.import_module(f"textbalance.{module}")
    for name in names:
        value = getattr(textbalance, name)
        assert value is getattr(home, name)
        assert vars(textbalance)[name] is value  # resolved once, then a plain global
        assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from textbalance import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_dir_lists_the_public_api():
    assert set(PUBLIC) <= set(dir(textbalance))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        textbalance.no_such_name
    assert not hasattr(textbalance, "no_such_name")


def test_submodule_resolves_after_a_bare_import():
    code = (
        "import sys, textbalance\n"
        "print(textbalance.bundle.__name__, textbalance.ModelBundle.__module__)\n"
        "print('textbalance.ingest' in sys.modules)"
    )
    assert _child(code).stdout.split() == ["textbalance.bundle", "textbalance.bundle", "False"]
