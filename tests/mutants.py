"""A catalogue of source mutants, each with the tests that must kill it.

A `Mutant` replaces one exact snippet ``old`` of one file under ``src/``
by ``new``, and then makes each of its ``also`` edits to the same file in
the same way, so that one mutant can move code.  Run from the repository
root:

    python tests/mutants.py [NAME ...]

For each named mutant (all of them by default), the runner copies
``src/`` to a temporary directory, applies the mutant there, and runs
only its ``kills`` tests with the copy first on the import path (the
pytest ``pythonpath`` option and ``PYTHONPATH`` for child interpreters).
A mutant is killed when some test fails, survives when all pass, and is
an error when pytest cannot run them or they run past the timeout.  The exit
status is 1 unless every mutant is killed; the last line is a summary.

`tests/test_mutants.py` keeps the catalogue from rotting: each ``old``
occurs exactly once in its file, and each ``kills`` id names a test
function that exists.  A change that rewrites mutated code updates the
mutant, or says why it goes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root, under src/
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids relative to the repository root
    origin: str
    also: tuple[tuple[str, str], ...] = ()  # more (old, new) edits, for a move within the file


CATALOGUE = (
    Mutant(
        name="linear-zero-score-gives-label-0",
        path="src/textbalance/classify.py",
        old="(scores >= 0.0).astype(np.int64)",
        new="(scores > 0.0).astype(np.int64)",
        kills=("tests/test_classify.py::TestPredictBatchOracle::test_empty_row_scores_the_bias",),
        origin="linear scoring through rmatvec",
    ),
    Mutant(
        name="scatter-axes-swapped",
        path="src/textbalance/cli.py",
        old="Xt.rmatvec(gx).tolist(), Xt.rmatvec(gy).tolist()",
        new="Xt.rmatvec(gy).tolist(), Xt.rmatvec(gx).tolist()",
        kills=(
            "tests/test_golden.py::test_golden_digest[seed7-scatter]",
            "tests/test_golden.py::test_golden_digest[seed11-scatter]",
            "tests/test_golden.py::test_golden_digest[seed13-scatter]",
        ),
        origin="scatter projection through rmatvec",
    ),
    Mutant(
        name="nb-mass-of-the-other-class",
        path="src/textbalance/classify.py",
        old="X.rmatvec((y == label).astype(np.float64))",
        new="X.rmatvec((y != label).astype(np.float64))",
        kills=("tests/test_classify.py::TestDenseOracles::test_nb_tables_equal_dense_reference",),
        origin="NB class masses through rmatvec",
    ),
    Mutant(
        name="rmatvec-adds-instead-of-multiplies",
        path="src/textbalance/vectorize.py",
        old="products *= self.data",
        new="products += self.data",
        kills=("tests/test_vectorize.py::TestCsrTranspose::test_transposed_product_equals_matvec_bits",),
        origin="CsrView.rmatvec, the one product",
    ),
    Mutant(
        name="bundle-floats-accept-strings-and-booleans",
        path="src/textbalance/bundle.py",
        old='    _require(all(type(v) in (int, float) for v in numbers), f"{what} holds a non-number")\n',
        new="",
        kills=("tests/test_cli.py::TestCorruptBundles::test_float_fields_must_be_json_numbers",),
        origin="bundle float fields take JSON numbers only",
    ),
    Mutant(
        name="bundle-format-version-any-equal-value",
        path="src/textbalance/bundle.py",
        old="type(version) is not int or version != FORMAT_VERSION",
        new="version != FORMAT_VERSION",
        kills=("tests/test_bundle.py::TestModelBundle::test_format_version_pinned",),
        origin="bundle format_version is the JSON integer 1",
    ),
    Mutant(
        name="sigmoid-without-the-nonnegative-branch",
        path="src/textbalance/classify.py",
        old="return np.where(z >= 0, 1.0, e) / (1.0 + e)",
        new="return e / (1.0 + e)",
        kills=("tests/test_classify.py::TestSigmoid::test_edge_values",),
        origin="ROADMAP direction 8: the sigmoid's z >= 0 branch",
    ),
    Mutant(
        name="step-bound-without-factor-2",
        path="src/textbalance/classify.py",
        old="L_w = 2.0 * curvature * _weight_curvature(X, Xt) + ridge_w",
        new="L_w = curvature * _weight_curvature(X, Xt) + ridge_w",
        kills=("tests/test_classify.py::TestStepSizes::test_steps_bound_the_hessian",),
        origin="block-diagonal step sizes of the linear fits",
    ),
    Mutant(
        name="descent-without-momentum",
        path="src/textbalance/classify.py",
        old="point = w + ((t - 1.0) / t_next) * step",
        new="point = w",
        kills=("tests/test_classify.py::TestConvergence",),
        origin="accelerated gradient descent (FISTA) of the linear fits",
    ),
    Mutant(
        name="nb-prior-added-last",
        path="src/textbalance/classify.py",
        old=(
            "    rows = np.concatenate((np.arange(n), X.row_ids))\n"
            "    s0, s1 = [\n"
            "        np.bincount(\n"
            "            rows, np.concatenate((np.full(n, prior), X.data * log_prob[X.indices])),"
        ),
        new=(
            "    rows = np.concatenate((X.row_ids, np.arange(n)))\n"
            "    s0, s1 = [\n"
            "        np.bincount(\n"
            "            rows, np.concatenate((X.data * log_prob[X.indices], np.full(n, prior))),"
        ),
        kills=("tests/test_classify.py::TestPredictBatchOracle::test_nb_prior_is_added_first",),
        origin="ROADMAP direction 8: NB prior taken last",
    ),
    Mutant(
        name="nb-ties-go-to-the-later-label",
        path="src/textbalance/classify.py",
        old="(s1 > s0).astype(np.int64)",
        new="(s1 >= s0).astype(np.int64)",
        kills=("tests/test_classify.py::TestPredictBatchOracle::test_exact_nb_ties_give_label_zero",),
        origin="ROADMAP direction 8: NB ties going to label 1",
    ),
    Mutant(
        name="tokens-keep-underscores",
        path="src/textbalance/preprocess.py",
        old="b if b >= 0x80 else ord(chr(b).lower())",
        new="b if b >= 0x80 or b == 95 else ord(chr(b).lower())",
        kills=("tests/test_preprocess.py::TestScannerEdgeCases::test_tokenize_follows_isalnum",),
        origin="tokens are the runs of str.isalnum() characters",
    ),
    Mutant(
        name="tokens-keep-non-ascii-separators",
        path="src/textbalance/preprocess.py",
        old='return "".join(c if c.isalnum() else " " for c in run).encode(), error.end',
        new="return run.encode(), error.end",
        kills=(
            "tests/test_preprocess.py::TestTokenizeMatchesRegex::test_stripped_markup_strings",
        ),
        origin="the codec handler turns each non-alphanumeric character into a space",
    ),
    Mutant(
        name="tokens-fold-case-in-the-table-only",
        path="src/textbalance/preprocess.py",
        old='encoded = text.lower().encode("ascii", "textbalance.tokens")',
        new='encoded = text.encode("ascii", "textbalance.tokens")',
        kills=("tests/test_preprocess.py::TestScannerEdgeCases::test_tokenize_follows_isalnum",),
        origin="tokenize lowercases the whole text, not only its ASCII bytes",
    ),
    Mutant(
        name="ascii-element-name-is-a-prefix",
        path="src/textbalance/preprocess.py",
        old='return rf"<(?ai:{name})(?![A-Za-z])(?:',
        new='return rf"<(?ai:{name})(?:',
        kills=("tests/test_preprocess.py::TestStripHtmlMatchesScanner",),
        origin="strip_html's pattern agrees with the scanner",
    ),
    Mutant(
        name="strip-html-masks-letters-as-s",
        path="src/textbalance/preprocess.py",
        old='return site[:-1] + "z" if site[-1].isalpha() else site',
        new='return site[:-1] + "s" if site[-1].isalpha() else site',
        kills=(
            "tests/test_preprocess.py::TestScannerEdgeCases::test_strip_html"
            r"[<\u017fcript>x</script>y-xy]",
        ),
        origin="the mask letter is in no element name",
    ),
    Mutant(
        name="closing-name-folds-case-beyond-ascii",
        path="src/textbalance/preprocess.py",
        old='closing = rf"/(?ai:{name})(?![A-Za-z])"',
        new='closing = rf"/(?i:{name})(?![A-Za-z])"',
        kills=(
            "tests/test_preprocess.py::TestScannerEdgeCases::test_strip_html"
            r"[a<script>x</\u017fcript>y</script>z-az]",
        ),
        origin="element names match ASCII letters only",
    ),
    Mutant(
        name="letter-sites-after-lt-only",
        path="src/textbalance/preprocess.py",
        old=r'_LETTER_SITES = re.compile(r"<(?ai:/?(?:script|style))?[^\x00-\x7f]")',
        new=r'_LETTER_SITES = re.compile(r"<[^\x00-\x7f]")',
        kills=(
            "tests/test_preprocess.py::TestScannerEdgeCases::test_strip_html"
            r"[a<script>x</script\xe9>y</script>z-az]",
        ),
        origin="the mask covers the letter after an element name",
    ),
    Mutant(
        name="strip-html-without-the-mask",
        path="src/textbalance/preprocess.py",
        old="view = raw if raw.isascii() else _LETTER_SITES.sub(_mask_letter, raw)",
        new="view = raw",
        kills=(
            "tests/test_preprocess.py::TestScannerEdgeCases::test_strip_html"
            r"[<\xe9>b-b]",
        ),
        origin="any isalpha character after '<' opens a tag",
    ),
    Mutant(
        name="tfidf-counts-out-of-vocabulary-tokens",
        path="src/textbalance/vectorize.py",
        old=(
            "    terms, doc_of = terms[known], doc_of[known]\n"
            "    totals = np.bincount(doc_of, minlength=n_docs)\n"
        ),
        new=(
            "    totals = np.bincount(doc_of, minlength=n_docs)\n"
            "    terms, doc_of = terms[known], doc_of[known]\n"
        ),
        kills=("tests/test_vectorize.py::TestTransform::test_oov_excluded_from_denominator",),
        origin="TF-IDF's tf is over in-vocabulary tokens",
    ),
    Mutant(
        name="knn-filter-without-relative-slack",
        path="src/textbalance/resample.py",
        old="self._rel_slack = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)",
        new="self._rel_slack = 0.0",
        kills=("tests/test_resample.py::TestKnnAdversarial",),
        origin="the kNN filter's proven rounding bound",
    ),
    Mutant(
        name="knn-filter-drops-the-light-products",
        path="src/textbalance/resample.py",
        old="dots += np.bincount(",
        new="dots += 0.0 * np.bincount(",
        kills=("tests/test_resample.py::TestKnnAdversarial",),
        origin="ROADMAP direction 5: a dot product is its dense part plus its light part",
    ),
    Mutant(
        name="knn-heavy-columns-the-least-used",
        path="src/textbalance/resample.py",
        old='heavy = np.argsort(-uses, kind="stable")[:_HEAVY_COLUMNS]',
        new='heavy = np.argsort(uses, kind="stable")[:_HEAVY_COLUMNS]',
        kills=("tests/test_resample.py::TestKnnAdversarial::test_heavy_columns_are_the_most_used",),
        origin="ROADMAP direction 5: the dense columns are the most-used ones",
    ),
    Mutant(
        name="knn-joins-its-blocks-out-of-order",
        path="src/textbalance/resample.py",
        old="blocks.append(index._solve(start, stop, k))",
        new="blocks.insert(1, index._solve(start, stop, k))",
        kills=("tests/test_resample.py::TestKnn::test_blocks_join_in_query_order",),
        origin="the batch knn's row q holds the neighbors of point q",
    ),
    Mutant(
        name="matrix-reader-keeps-each-lines-fields",
        path="src/textbalance/matrixio.py",
        old="if not set(map(len, map(str.split, lines))) <= {0, 3}:",
        new="if not set(map(len, list(map(str.split, lines)))) <= {0, 3}:",
        kills=("tests/test_matrixio.py::TestReaderGarbage::test_read_triggers_no_collection",),
        origin="the fast matrix reader keeps no container per line alive",
    ),
    Mutant(
        name="knn-recheck-ranks-by-the-gram-value",
        path="src/textbalance/resample.py",
        old="ranked = points[np.lexsort((points, np.sqrt(squared), which))]",
        new="ranked = points[np.lexsort((points, lower[which, points], which))]",
        kills=("tests/test_resample.py::TestKnnAdversarial",),
        origin="ROADMAP direction 8: the recheck ranks by M, not by the filter's G - e",
    ),
    Mutant(
        name="knn-recheck-summed-in-reverse",
        path="src/textbalance/resample.py",
        old="squared[chunk] = np.bincount(pair, d * d, minlength=squared[chunk].size)",
        new=(
            "squared[chunk] = np.bincount(pair[::-1], (d * d)[::-1], "
            "minlength=squared[chunk].size)"
        ),
        kills=("tests/test_resample.py::TestKnnAdversarial",),
        origin="ROADMAP direction 8: the recheck adds each pair's terms in column order",
    ),
    Mutant(
        name="interpolation-from-the-neighbor",
        path="src/textbalance/resample.py",
        old="values = base + gaps[chunk][pair] * (other - base)",
        new="values = other + gaps[chunk][pair] * (base - other)",
        kills=("tests/test_resample.py::TestInterpolate::test_endpoints",),
        origin="SMOTE's synthetic row is base + gap * (other - base)",
    ),
    Mutant(
        name="tree-fit-splits-at-the-threshold",
        path="src/textbalance/classify.py",
        old="goes_left[row[f0:f1]] = val[f0:f1] <= cut",
        new="goes_left[row[f0:f1]] = val[f0:f1] < cut",
        kills=("tests/test_classify.py::TestDecisionTree::test_values_at_the_threshold_go_left",),
        origin="the tree sends values at the threshold left",
    ),
    Mutant(
        name="tree-predict-splits-at-the-threshold",
        path="src/textbalance/classify.py",
        old="np.where(value <= threshold[at], left[at], right[at])",
        new="np.where(value < threshold[at], left[at], right[at])",
        kills=("tests/test_classify.py::TestDecisionTree::test_values_at_the_threshold_go_left",),
        origin="the tree sends values at the threshold left",
    ),
    Mutant(
        name="tree-min-samples-split-exclusive",
        path="src/textbalance/classify.py",
        old="n >= config.tree_min_samples_split",
        new="n > config.tree_min_samples_split",
        kills=("tests/test_classify.py::TestDenseOracles::test_tree_matches_dense_reference",),
        origin="tree_min_samples_split is the smallest node that splits",
    ),
    Mutant(
        name="tree-fit-links-both-children-left",
        path="src/textbalance/classify.py",
        old="pending.append((n - left_n, n1 - left_n1, e, e1, depth + 1, node_id, right))",
        new="pending.append((n - left_n, n1 - left_n1, e, e1, depth + 1, node_id, left))",
        kills=("tests/test_classify.py::TestDenseOracles::test_tree_matches_dense_reference",),
        origin="the fit writes each child's index into its own column",
    ),
    Mutant(
        name="tree-right-child-takes-left-ones",
        path="src/textbalance/classify.py",
        old="(n - left_n, n1 - left_n1, e, e1,",
        new="(n - left_n, left_n1, e, e1,",
        kills=("tests/test_classify.py::TestDenseOracles::test_tree_matches_dense_reference",),
        origin="each child of a split carries its own row and label-1 counts",
    ),
    Mutant(
        name="tree-leaf-ties-go-to-spam",
        path="src/textbalance/classify.py",
        old="1 if n1 > n - n1 else 0",
        new="1 if n1 >= n - n1 else 0",
        kills=(
            "tests/test_classify.py::TestDecisionTree::test_leaf_tie_prefers_label_zero",
            "tests/test_classify.py::TestExactFitReferences::test_tree_fit_equals_reference",
        ),
        origin="a tied leaf takes the non-spam label",
    ),
    Mutant(
        name="tree-threshold-at-a-rounded-up-midpoint",
        path="src/textbalance/classify.py",
        old="return midpoint if lower <= midpoint < upper else lower",
        new="return midpoint",
        kills=(
            "tests/test_classify.py::TestDecisionTree"
            "::test_a_midpoint_at_the_upper_value_cuts_at_the_lower",
        ),
        origin="a split's threshold sends rows where its counts say",
    ),
    Mutant(
        name="tree-threshold-at-an-overflowed-down-midpoint",
        path="src/textbalance/classify.py",
        old="return midpoint if lower <= midpoint < upper else lower",
        new="return midpoint if midpoint < upper else lower",
        kills=(
            "tests/test_classify.py::TestDecisionTree"
            "::test_a_midpoint_at_the_upper_value_cuts_at_the_lower",
        ),
        origin="a split's threshold sends rows where its counts say",
    ),
    Mutant(
        name="tree-boundary-from-adjacent-entries",
        path="src/textbalance/classify.py",
        old="cut = (ones_before[2:] > ones_before[:-2]) & (zeros_before[2:] > zeros_before[:-2])",
        new="cut = lab[edges[1:-1] - 1] != lab[edges[1:-1]]",
        kills=(
            "tests/test_classify.py::TestExactFitReferences"
            "::test_tree_fit_equals_reference_on_adversarial_columns",
        ),
        origin="ROADMAP direction 10: a boundary point is judged by its two value groups",
    ),
    Mutant(
        name="nb-alpha-ignored",
        path="src/textbalance/classify.py",
        old="    alpha = config.nb_alpha\n",
        new="    alpha = 1.0\n",
        kills=(
            "tests/test_classify.py::TestTrainConfig::test_every_hyperparameter_moves_some_model",
        ),
        origin="every TrainConfig field is read by some fit",
    ),
    Mutant(
        name="matrix-reader-accepts-duplicates",
        path="src/textbalance/matrixio.py",
        old=(
            "        if not _increasing(rows, cols):  # sorted now: a (row, col) pair repeats\n"
            "            return None\n"
        ),
        new="",
        kills=(
            "tests/test_bundle.py::TestReaderFastPath::test_invalid_inputs_get_the_checker_message",
        ),
        origin="the fast matrix reader rejects a repeated (row, col) pair",
    ),
    Mutant(
        name="matrix-digest-without-indptr",
        path="src/textbalance/vectorize.py",
        old='            (csr.indptr, "<i8"),\n',
        new="",
        kills=("tests/test_matrixio.py::TestDigestOracle::test_row_boundaries_change_the_digest",),
        origin="FeatureMatrix.digest hashes the row boundaries",
    ),
    Mutant(
        name="matrix-digest-without-labels",
        path="src/textbalance/vectorize.py",
        old='            (self.labels, "<i8"),\n',
        new="",
        kills=(
            "tests/test_vectorize.py::TestFeatureMatrix::test_digest_changes_with_labels_and_values",
        ),
        origin="FeatureMatrix.digest hashes the labels",
    ),
    Mutant(
        name="svm-slope-without-factor-2",
        path="src/textbalance/classify.py",
        old="2.0 * (z - y_pm)",
        new="(z - y_pm)",
        kills=("tests/test_classify.py::TestExactFitReferences::test_svm_fit_equals_reference",),
        origin="the squared hinge's slope is 2(z - y)",
    ),
    Mutant(
        name="svm-margin-against-zero",
        path="src/textbalance/classify.py",
        old="y_pm * z < 1.0",
        new="y_pm * z < 0.0",
        kills=("tests/test_classify.py::TestExactFitReferences::test_svm_fit_equals_reference",),
        origin="the squared hinge is active below margin 1",
    ),
    Mutant(
        name="tree-bundle-accepts-shared-nodes",
        path="src/textbalance/bundle.py",
        old='        _require(not reached[i], f"tree node {i} is reached more than once")\n',
        new="",
        kills=(
            "tests/test_bundle.py::TestClassifierSerialization::test_tree_node_reached_twice_rejected",
        ),
        origin="a bundle's tree reaches every node exactly once",
    ),
    Mutant(
        name="tree-bundle-accepts-unreachable-nodes",
        path="src/textbalance/bundle.py",
        old=(
            "    if not all(reached):\n"
            '        raise BundleError(f"tree node {reached.index(False)} is unreachable")\n'
        ),
        new="",
        kills=(
            "tests/test_bundle.py::TestClassifierSerialization::test_tree_node_unreachable_rejected",
        ),
        origin="ROADMAP direction 8: a bundle's tree has no node the walk misses",
    ),
    Mutant(
        name="tree-bundle-walks-label-0-leaves",
        path="src/textbalance/bundle.py",
        old="if tree.label[i] < 0:",
        new="if tree.label[i] < 1:",
        kills=(
            "tests/test_bundle.py::TestClassifierSerialization::test_round_trip_all_algorithms",
        ),
        origin="a bundle's tree walk stops at every leaf, whatever its label",
    ),
    Mutant(
        name="balance-picks-the-larger-class",
        path="src/textbalance/resample.py",
        old="minority_label = label_a if count_a < count_b else label_b",
        new="minority_label = label_a if count_a > count_b else label_b",
        kills=(
            "tests/test_resample.py::TestBalanceTrainingSet"
            "::test_equalizes_and_appends_after_originals",
            "tests/test_resample.py::TestBalanceTrainingSet::test_minority_can_be_label_zero",
        ),
        origin="balance_training_set oversamples the smaller class",
    ),
    Mutant(
        name="tfidf-doc-freq-per-token",
        path="src/textbalance/vectorize.py",
        old="for term in dict.fromkeys(doc):",
        new="for term in doc:",
        kills=("tests/test_vectorize.py::TestFit::test_vocabulary_first_appearance_order",),
        origin="a term's document frequency counts each document once",
    ),
    Mutant(
        name="cli-loads-bundle-at-import",
        path="src/textbalance/cli.py",
        old="from . import classify, evaluate, matrixio, preprocess, resample, vectorize",
        new="from . import bundle, classify, evaluate, matrixio, preprocess, resample, vectorize",
        kills=(
            "tests/test_cli.py::TestStartupModules"
            "::test_oversample_skips_the_text_and_bundle_layers",
        ),
        origin="oversample loads no bundle, ingest or stopwords",
    ),
    Mutant(
        name="cli-defers-evaluate",
        path="src/textbalance/cli.py",
        old="from . import classify, evaluate, matrixio, preprocess, resample, vectorize",
        new="from . import classify, matrixio, preprocess, resample, vectorize",
        also=(
            ("    lines = []\n", "    from . import evaluate\n\n    lines = []\n"),
            ("def cmd_train(args) -> int:\n    from . import bundle\n",
             "def cmd_train(args) -> int:\n    from . import bundle, evaluate\n"),
            ("    from . import bundle, ingest\n", "    from . import bundle, evaluate, ingest\n"),
            ("def cmd_report(args) -> int:\n    from . import bundle\n",
             "def cmd_report(args) -> int:\n    from . import bundle, evaluate\n"),
        ),
        kills=("tests/test_bench_contract.py::test_bench_imports_load_every_traced_module",),
        origin="cli loads evaluate at import, for the benchmark's tracer",
    ),
    Mutant(
        name="vectorize-hashlib-at-import",
        path="src/textbalance/vectorize.py",
        old="import math\nfrom collections.abc import Iterable\n",
        new="import hashlib\nimport math\nfrom collections.abc import Iterable\n",
        kills=(
            "tests/test_cli.py::TestStartupModules"
            "::test_oversample_skips_the_text_and_bundle_layers",
        ),
        origin="oversample loads no hashlib",
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Rewrite ``mutant.path`` under ``root``; each ``old`` must occur once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    for old, new in ((mutant.old, mutant.new), *mutant.also):
        if text.count(old) != 1:
            raise ValueError(f"{mutant.name}: {old!r} occurs {text.count(old)}x in {mutant.path}")
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")


def run(mutant: Mutant, timeout: float = 300.0) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant; ``timeout`` is
    in seconds."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        work = Path(work)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, work)
        src = str(work / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "-o", f"pythonpath={src}", *mutant.kills]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return f"error: timed out after {timeout:g} s"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return f"error: pytest exit {proc.returncode}: {last}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] if args.names else list(CATALOGUE)
    start = time.monotonic()
    outcomes = []
    for mutant in chosen:
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:<9} {mutant.name}", flush=True)
    killed = outcomes.count("killed")
    survived = outcomes.count("survived")
    errors = len(outcomes) - killed - survived
    print(
        f"mutants: {killed} killed, {survived} survived, {errors} errors of {len(outcomes)} "
        f"in {time.monotonic() - start:.1f} s"
    )
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
