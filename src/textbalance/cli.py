"""Command-line front end: train, predict, evaluate, oversample, report, scatter.

Exit codes: 0 success, 1 usage error, 2 runtime/data error (reported with
the pipeline stage that failed).  Every command honoring --seed is
end-to-end deterministic; provenance timestamps default to null (or
$SOURCE_DATE_EPOCH when set) so repeated runs emit byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# `bundle`, `ingest` and `stopwords` are imported where used, so `oversample` skips them and the
# json, csv and hashlib they load.  `evaluate` stays: bench/spans.py wraps only loaded modules.
from . import classify, evaluate, matrixio, preprocess, resample, vectorize
from .rng import STREAM_PROJECTION, derive_stream

if TYPE_CHECKING:
    from . import bundle, ingest, stopwords

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

# Posts that `predict` and `evaluate` transform and score at once.  Fixed,
# because it bounds the memory a chunk holds: on the predict-html benchmark
# 4096-post chunks raised peak RSS from 46.7 MB to 66.5 MB.
CHUNK_POSTS = 1024

_HYPER_FIELDS = tuple(
    field for field in dataclasses.fields(classify.TrainConfig) if field.name != "algorithm"
)


class CliRuntimeError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except CliRuntimeError:
        raise
    except (ValueError, OSError) as exc:
        raise CliRuntimeError(name, exc) from exc


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonempty(text: str) -> str:
    """An empty path would name the working directory, or fall back to stdin
    or a default without a word, and so would an empty --timestamp."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


_PATH = dict(type=_nonempty, metavar="PATH")
# Every flag that two or more commands take, stated once; each command
# names the ones it reads in `build_parser`.
_SHARED_FLAGS = {
    "--seed": dict(type=_seed, default=0, help="RNG seed (u64, default 0)"),
    "--stopwords": dict(**_PATH, help="stop-word override file"),
    "--min-token-len": dict(type=_positive_int, default=preprocess.DEFAULT_MIN_TOKEN_LEN,
                            metavar="N", help="minimum surviving token length (default 3)"),
    "--format": dict(choices=("csv", "jsonl"), default="csv", help="dataset file format"),
    "--smote-k": dict(type=_positive_int, default=resample.SmoteConfig.k,
                      help="SMOTE neighbor count (>= 1)"),
    "--data": dict(required=True, **_PATH),
    "--split": dict(type=_fraction, default=0.8, metavar="FRACTION"),
    "--split-manifest": dict(_PATH),
    "--smote": dict(choices=("on", "off"), default="off"),
    "--bundle": dict(required=True, **_PATH),
}
# What train, report and scatter read to featurize a corpus and balance it.
_CORPUS_FLAGS = ("--seed", "--stopwords", "--min-token-len", "--format", "--smote-k", "--data")


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per `TrainConfig` hyperparameter: svm_C gives --svm-c, with
    the field's default and the default's type."""
    group = parser.add_argument_group("hyperparameters")
    for field in _HYPER_FIELDS:
        group.add_argument(
            "--" + field.name.lower().replace("_", "-"),
            dest=field.name,
            type=type(field.default),
            default=field.default,
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="textbalance", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p_train = command("train", "train one classifier",
                      *_CORPUS_FLAGS, "--smote", "--split", "--split-manifest")
    _add_hyper_flags(p_train)
    p_train.add_argument("--algo", required=True, choices=classify.ALGORITHMS)
    p_train.add_argument("--out", default="model.json", **_PATH)
    p_train.add_argument("--timestamp", type=_nonempty, help="provenance timestamp (default: null)")

    p_predict = command("predict", "label new texts", "--stopwords", "--bundle")
    source = p_predict.add_mutually_exclusive_group()
    source.add_argument("text", nargs="?", help="single text (else --input or stdin)")
    source.add_argument("--input", **_PATH, help="file with one text per line")

    p_eval = command("evaluate", "score a bundle on labeled data",
                     "--stopwords", "--format", "--bundle", "--data")
    p_eval.add_argument("--out", **_PATH, help="write metrics JSON here")

    p_over = command("oversample", "SMOTE-balance a sparse matrix file", "--seed", "--smote-k")
    p_over.add_argument("--matrix", required=True, **_PATH)
    p_over.add_argument("--labels", **_PATH, help="label sidecar (default <matrix>.labels)")
    p_over.add_argument("--out", required=True, **_PATH)
    p_over.add_argument("--out-labels", **_PATH)
    p_over.add_argument("--report", **_PATH, help="write resample report JSON")

    p_report = command("report", "with/without-SMOTE comparison table",
                       *_CORPUS_FLAGS, "--split", "--split-manifest")
    _add_hyper_flags(p_report)
    p_report.add_argument(
        "--algos", default=",".join(classify.ALGORITHMS), help="comma-separated algorithm list"
    )
    p_report.add_argument("--out", default="comparison", type=_nonempty, metavar="PREFIX")
    p_report.add_argument("--csv", action="store_true", help="also write PREFIX.csv")

    p_scatter = command("scatter", "2-d projection of a training matrix",
                        *_CORPUS_FLAGS, "--smote")
    p_scatter.add_argument("--out", default="scatter.csv", **_PATH)
    p_scatter.add_argument("--svg", **_PATH, help="also write a minimal SVG")

    return parser


def _resolve_stopwords(args) -> stopwords.StopWordList:
    from . import stopwords
    if args.stopwords:
        return stopwords.load_stopwords(args.stopwords)
    return stopwords.default_stopwords()


def _train_config(args, algorithm: str) -> classify.TrainConfig:
    hyper = {field.name: getattr(args, field.name) for field in _HYPER_FIELDS}
    return classify.TrainConfig(algorithm=algorithm, **hyper)


def _timestamp(args) -> str | None:
    """--timestamp, else $SOURCE_DATE_EPOCH as an ISO date, else None."""
    if args.timestamp:
        return args.timestamp
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise CliRuntimeError(
            "config", ValueError(f"SOURCE_DATE_EPOCH {epoch!r} is not a usable Unix time: {exc}")
        ) from exc


def _metrics_text(report: evaluate.MetricsReport) -> str:
    lines = []
    for name in evaluate.METRIC_TITLES:
        value = getattr(report, name)
        if value is None:
            lines.append(f"{name:<10} 0.000  (undefined: zero denominator)")
        else:
            lines.append(f"{name:<10} {value:.3f}")
    m = report.confusion
    lines.append(f"confusion  tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn}")
    return "\n".join(lines)


def _features(args, *corpora: ingest.Corpus):
    """The train/report/scatter front half: preprocess every corpus, fit
    TF-IDF on the first, and transform them all, one matrix each."""
    with _stage("preprocess"):
        stops = _resolve_stopwords(args)
        tokens = [preprocess.preprocess_corpus(c, stops, args.min_token_len) for c in corpora]
    with _stage("vectorize"):
        tfidf = vectorize.fit(tokens[0])
        matrices = [
            vectorize.transform_corpus(tfidf, t, c.labels) for t, c in zip(tokens, corpora)
        ]
    return stops, tfidf, matrices


def _prepare_features(args):
    """Load and split the dataset, then featurize its train and test sides."""
    from . import ingest
    with _stage("ingest"):
        corpus = ingest.load_corpus(args.data, args.format)
        dataset_split = ingest.split(corpus, args.split, args.seed)
    stops, tfidf, (train_matrix, test_matrix) = _features(
        args, dataset_split.train, dataset_split.test
    )
    return corpus, dataset_split, stops, tfidf, train_matrix, test_matrix


def _print_warnings(report: resample.ResampleReport) -> None:
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _balance(args, matrix):
    """SMOTE-balance ``matrix`` with --smote-k and --seed, printing each
    warning; returns the config, the balanced matrix and the report."""
    with _stage("resample"):
        config = resample.SmoteConfig(k=args.smote_k, seed=args.seed)
        balanced, report = resample.balance_training_set(matrix, config)
        _print_warnings(report)
    return config, balanced, report


def _distinct_outputs(inputs, outputs) -> None:
    """Refuse a (flag, path) output that resolves to the same file as one
    of the command's (flag, path) inputs or an earlier output, before any
    file is read: the write would replace it.  A None path is skipped."""
    seen: dict[str, str] = {}
    with _stage("config"):
        for flag, path in inputs:
            if path is not None:
                seen.setdefault(os.path.realpath(path), flag)
        for flag, path in outputs:
            if path is None:
                continue
            resolved = os.path.realpath(path)
            if resolved in seen:
                raise ValueError(f"{seen[resolved]} and {flag} both name {str(path)!r}")
            seen[resolved] = flag


def _write_manifest(args, dataset_split: ingest.DatasetSplit) -> None:
    from . import bundle
    if args.split_manifest:
        with _stage("write"):
            bundle.write_json(dataset_split.to_manifest(), args.split_manifest)


def cmd_train(args) -> int:
    from . import bundle
    _distinct_outputs(
        inputs=[("--data", args.data), ("--stopwords", args.stopwords)],
        outputs=[("--out", args.out), ("--split-manifest", args.split_manifest)],
    )
    with _stage("train"):  # a bad hyperparameter fails before any file is read
        config = _train_config(args, args.algo)
    timestamp = _timestamp(args)  # so does a bad $SOURCE_DATE_EPOCH
    corpus, dataset_split, stops, tfidf, train_matrix, test_matrix = _prepare_features(args)
    smote_config = None
    matrix = train_matrix
    if args.smote == "on":
        smote_config, matrix, _ = _balance(args, train_matrix)
    with _stage("train"):
        model = classify.train(matrix, config)
    with _stage("evaluate"):
        held_out = evaluate.evaluate_model(model, test_matrix)
    with _stage("write"):
        model_bundle = bundle.ModelBundle(
            tfidf=tfidf,
            classifier=model,
            preprocess_config=bundle.PreprocessConfig(
                min_token_len=args.min_token_len,
                stopwords_name=stops.name,
                stopwords_sha256=stops.sha256(),
            ),
            provenance={
                "seed": args.seed,
                "train_fraction": args.split,
                "train_config": config.to_dict(),
                "smote_config": smote_config.to_dict() if smote_config else None,
                "dataset_digest": corpus.digest(),
                "timestamp": timestamp,
            },
        )
        bundle.save_bundle(model_bundle, args.out)
    _write_manifest(args, dataset_split)
    print(f"held-out metrics ({len(test_matrix)} test docs):")
    print(_metrics_text(held_out))
    print(f"wrote bundle to {args.out}")
    return EXIT_OK


def _load_bundle(args) -> bundle.ModelBundle:
    """Load the bundle, require its stop list, and check its vocabulary
    against that list, so serving can skip `preprocess.filter_tokens`."""
    from . import bundle
    with _stage("bundle"):
        model_bundle = bundle.load_bundle(args.bundle)
    cfg = model_bundle.preprocess_config
    with _stage("stopwords"):
        stops = _resolve_stopwords(args)
        if stops.sha256() != cfg.stopwords_sha256:
            raise ValueError(
                f"bundle was trained with stop list {cfg.stopwords_name!r}, not "
                f"{stops.name!r}; pass the same file via --stopwords"
            )
    with _stage("bundle"):
        model_bundle.check_vocabulary(stops)
    return model_bundle


def _predict_chunks(model_bundle: bundle.ModelBundle, texts: list[str]):
    """Strip and tokenize each text, then transform and score the texts
    CHUNK_POSTS at a time; yields each chunk's `classify.Predictions`.
    Scoring reads no label, so each chunk's matrix carries zeros.

    Unfiltered tokens give the filtered vectors: a checked vocabulary holds
    no short or stop-listed term, and out-of-vocabulary tokens count nowhere.
    """
    for start in range(0, len(texts), CHUNK_POSTS):
        chunk = texts[start : start + CHUNK_POSTS]
        tokens = (preprocess.tokenize(preprocess.strip_html(text)) for text in chunk)
        matrix = vectorize.transform_corpus(model_bundle.tfidf, tokens, [0] * len(chunk))
        yield classify.predict_batch(model_bundle.classifier, matrix)


def _lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by "\n", "\r\n" or "\r" (or the end
    of the text).  `str.splitlines` would also split at form feeds, U+2028
    and other separators, and so misalign the output with the input."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _texts_for_predict(args):
    if args.text is not None:
        return [args.text]
    with _stage("read"):  # strict UTF-8 from either source, whatever the locale
        if args.input:
            return _lines(Path(args.input).read_text(encoding="utf-8"))
        return _lines(sys.stdin.buffer.read().decode("utf-8"))


def cmd_predict(args) -> int:
    model_bundle = _load_bundle(args)
    texts = _texts_for_predict(args)
    with _stage("predict"):
        for predictions in _predict_chunks(model_bundle, texts):
            sys.stdout.write(
                "".join(
                    f"{label}\n" if score is None else f"{label}\t{score!r}\n"
                    for label, score in zip(predictions, predictions.scores)
                )
            )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import bundle, ingest
    _distinct_outputs(
        inputs=[("--bundle", args.bundle), ("--data", args.data), ("--stopwords", args.stopwords)],
        outputs=[("--out", args.out)],
    )
    model_bundle = _load_bundle(args)
    with _stage("ingest"):
        corpus = ingest.load_corpus(args.data, args.format)
    with _stage("evaluate"):
        texts = [doc.text for doc in corpus.documents]
        predicted = [
            label for predictions in _predict_chunks(model_bundle, texts) for label in predictions
        ]
        report = evaluate.metrics(evaluate.confusion(predicted, corpus.labels))
    print(_metrics_text(report))
    if args.out:
        with _stage("write"):
            bundle.write_json(report.to_dict(), args.out)
        print(f"wrote metrics to {args.out}")
    return EXIT_OK


def cmd_oversample(args) -> int:
    _distinct_outputs(
        inputs=[
            ("--matrix", args.matrix),
            ("--labels", args.labels or matrixio.default_labels_path(args.matrix)),
        ],
        outputs=[
            ("--out", args.out),
            ("--out-labels", args.out_labels or matrixio.default_labels_path(args.out)),
            ("--report", args.report),
        ],
    )
    with _stage("read"):
        matrix = matrixio.read_matrix(args.matrix, args.labels)
    _, balanced, report = _balance(args, matrix)
    with _stage("write"):
        matrixio.write_matrix(balanced, args.out, args.out_labels)
        if args.report:
            from . import bundle
            bundle.write_json(report.to_dict(), args.report)
    print(
        f"balanced {report.minority_before}/{report.majority} -> "
        f"{report.majority}/{report.majority} ({report.synthetic_created} synthetic rows)"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    from . import bundle
    suffixes = ("json", "txt", "csv") if args.csv else ("json", "txt")
    paths = [Path(f"{args.out}.{suffix}") for suffix in suffixes]
    _distinct_outputs(
        inputs=[("--data", args.data), ("--stopwords", args.stopwords)],
        outputs=[*(("--out", path) for path in paths), ("--split-manifest", args.split_manifest)],
    )
    # In order, each once: a repeat would refit to print the same column.
    algorithms = list(dict.fromkeys(a.strip() for a in args.algos.split(",") if a.strip()))
    if not algorithms:
        raise CliRuntimeError("config", ValueError(f"--algos names no algorithm: {args.algos!r}"))
    unknown = [a for a in algorithms if a not in classify.ALGORITHMS]
    if unknown:
        raise CliRuntimeError("config", ValueError(f"unknown algorithms: {unknown}"))
    with _stage("compare"):  # a bad hyperparameter fails before any file is read
        configs = [_train_config(args, algo) for algo in algorithms]
    _, dataset_split, _, _, train_matrix, test_matrix = _prepare_features(args)
    with _stage("compare"):
        smote_config = resample.SmoteConfig(k=args.smote_k, seed=args.seed)
        report = evaluate.compare(train_matrix, test_matrix, configs, smote_config)
        _print_warnings(report.resample)
        report.metadata["seed"] = args.seed
        report.metadata["train_fraction"] = args.split
        report.metadata["dataset"] = str(args.data)
    with _stage("write"):
        bundle.write_json(report.to_dict(), paths[0])
        table = report.to_text_table()
        paths[1].write_text(table, encoding="utf-8")
        if args.csv:
            paths[2].write_text(report.to_csv(), encoding="utf-8")
    _write_manifest(args, dataset_split)
    print(table, end="")
    print("wrote " + ", ".join(map(str, paths)))
    return EXIT_OK


def _project_rows(matrix, seed: int) -> list[tuple[float, float]]:
    """Each row times two seeded random-sign vectors (Achlioptas 2003),
    drawn interleaved: draw j's top bit makes entry j +1.0 (0) or -1.0 (1)."""
    rng = derive_stream(seed, STREAM_PROJECTION)
    signs = [1.0 - 2.0 * (rng.next_u64() >> 63) for _ in range(2 * matrix.dim)]
    gx, gy = np.array(signs).reshape(-1, 2).T
    Xt = matrix.csr.transpose()
    return list(zip(Xt.rmatvec(gx).tolist(), Xt.rmatvec(gy).tolist()))


def _scatter_svg(points, labels, n_original: int) -> str:
    width, height, margin = 640, 480, 20
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        "<!-- seeded random-sign 2-d projection of the training matrix -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for (x, y), label, idx in zip(points, labels, range(len(points))):
        synthetic = idx >= n_original
        color = "#4477aa" if label == 0 else "#2ca02c"
        fill = "none" if synthetic else color
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
            f'fill="{fill}" stroke="{color}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_scatter(args) -> int:
    from . import ingest
    _distinct_outputs(
        inputs=[("--data", args.data), ("--stopwords", args.stopwords)],
        outputs=[("--out", args.out), ("--svg", args.svg)],
    )
    # The whole input file is treated as the training matrix under
    # inspection; no train/test split happens here.
    with _stage("ingest"):
        corpus = ingest.load_corpus(args.data, args.format)
    _, _, (matrix,) = _features(args, corpus)
    n_original = len(matrix)
    if args.smote == "on":
        _, matrix, _ = _balance(args, matrix)
    with _stage("project"):
        points = _project_rows(matrix, args.seed)
    with _stage("write"):
        lines = [
            f"# seeded random-sign 2-d projection (seed={args.seed}, smote={args.smote})",
            "x,y,class,synthetic",
        ]
        for idx, ((x, y), label) in enumerate(zip(points, matrix.labels)):
            synthetic = "true" if idx >= n_original else "false"
            lines.append(f"{x!r},{y!r},{label},{synthetic}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        if args.svg:
            Path(args.svg).write_text(
                _scatter_svg(points, matrix.labels, n_original), encoding="utf-8"
            )
    print(f"wrote {len(points)} projected rows to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "oversample": cmd_oversample,
    "report": cmd_report,
    "scatter": cmd_scatter,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except CliRuntimeError as exc:
        print(f"error {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
