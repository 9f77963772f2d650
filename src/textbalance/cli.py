"""Command-line front end: train, predict, evaluate, oversample, report, scatter.

Exit codes: 0 success, 1 usage error, 2 runtime/data error (reported with
the pipeline stage that failed).  Every command honoring --seed is
end-to-end deterministic; provenance timestamps default to null (or
$SOURCE_DATE_EPOCH when set) so repeated runs emit byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from . import bundle as bundle_mod
from . import classify, evaluate, ingest, matrixio, preprocess, resample, stopwords, vectorize
from .rng import STREAM_PROJECTION, derive_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

_ALGO_CHOICES = classify.ALGORITHMS


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


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=_seed, default=0, help="RNG seed (u64, default 0)")
    parent.add_argument("--stopwords", metavar="PATH", help="stop-word override file")
    parent.add_argument(
        "--min-token-len",
        type=int,
        default=preprocess.DEFAULT_MIN_TOKEN_LEN,
        metavar="N",
        help="minimum surviving token length (default 3)",
    )
    parent.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="dataset file format"
    )
    return parent


def _hyper_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("hyperparameters")
    group.add_argument("--lr-learning-rate", type=float, default=0.1)
    group.add_argument("--lr-epochs", type=int, default=300)
    group.add_argument("--l2", type=float, default=1e-4)
    group.add_argument("--svm-c", type=float, default=1.0)
    group.add_argument("--svm-epochs", type=int, default=300)
    group.add_argument("--nb-alpha", type=float, default=1.0)
    group.add_argument("--tree-max-depth", type=int, default=10)
    group.add_argument("--tree-min-samples-split", type=int, default=2)
    group.add_argument("--tree-max-features", type=int, default=None)
    group.add_argument("--smote-k", type=int, default=5, help="SMOTE neighbor count")
    return parent


def build_parser() -> _Parser:
    parser = _Parser(prog="textbalance", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _common_parent()
    hyper = _hyper_parent()

    p_train = sub.add_parser("train", parents=[common, hyper], help="train one classifier")
    p_train.add_argument("--data", required=True, metavar="PATH")
    p_train.add_argument("--algo", required=True, choices=_ALGO_CHOICES)
    p_train.add_argument("--smote", choices=("on", "off"), default="off")
    p_train.add_argument("--split", type=_fraction, default=0.8, metavar="FRACTION")
    p_train.add_argument("--out", default="model.json", metavar="PATH")
    p_train.add_argument("--split-manifest", metavar="PATH")
    p_train.add_argument("--timestamp", help="provenance timestamp (default: null)")

    p_predict = sub.add_parser("predict", parents=[common], help="label new texts")
    p_predict.add_argument("--bundle", required=True, metavar="PATH")
    p_predict.add_argument("text", nargs="?", help="single text (else --input or stdin)")
    p_predict.add_argument("--input", metavar="PATH", help="file with one text per line")

    p_eval = sub.add_parser("evaluate", parents=[common], help="score a bundle on labeled data")
    p_eval.add_argument("--bundle", required=True, metavar="PATH")
    p_eval.add_argument("--data", required=True, metavar="PATH")
    p_eval.add_argument("--out", metavar="PATH", help="write metrics JSON here")

    p_over = sub.add_parser(
        "oversample", parents=[common], help="SMOTE-balance a sparse matrix file"
    )
    p_over.add_argument("--matrix", required=True, metavar="PATH")
    p_over.add_argument("--labels", metavar="PATH", help="label sidecar (default <matrix>.labels)")
    p_over.add_argument("--out", required=True, metavar="PATH")
    p_over.add_argument("--out-labels", metavar="PATH")
    p_over.add_argument("--report", metavar="PATH", help="write resample report JSON")
    p_over.add_argument("--smote-k", type=int, default=5)

    p_report = sub.add_parser(
        "report", parents=[common, hyper], help="with/without-SMOTE comparison table"
    )
    p_report.add_argument("--data", required=True, metavar="PATH")
    p_report.add_argument("--split", type=_fraction, default=0.8, metavar="FRACTION")
    p_report.add_argument(
        "--algos", default=",".join(_ALGO_CHOICES), help="comma-separated algorithm list"
    )
    p_report.add_argument("--out", default="comparison", metavar="PREFIX")
    p_report.add_argument("--csv", action="store_true", help="also write PREFIX.csv")
    p_report.add_argument("--split-manifest", metavar="PATH")

    p_scatter = sub.add_parser(
        "scatter", parents=[common], help="2-d projection of a training matrix"
    )
    p_scatter.add_argument("--data", required=True, metavar="PATH")
    p_scatter.add_argument("--smote", choices=("on", "off"), default="off")
    p_scatter.add_argument("--out", default="scatter.csv", metavar="PATH")
    p_scatter.add_argument("--svg", metavar="PATH", help="also write a minimal SVG")
    p_scatter.add_argument("--smote-k", type=int, default=5)

    return parser


def _resolve_stopwords(args) -> stopwords.StopWordList:
    if args.stopwords:
        return stopwords.load_stopwords(args.stopwords)
    return stopwords.default_stopwords()


def _train_config(args, algorithm: str) -> classify.TrainConfig:
    return classify.TrainConfig(
        algorithm=algorithm,
        seed=args.seed,
        lr_learning_rate=args.lr_learning_rate,
        lr_epochs=args.lr_epochs,
        l2=args.l2,
        svm_C=args.svm_c,
        svm_epochs=args.svm_epochs,
        nb_alpha=args.nb_alpha,
        tree_max_depth=args.tree_max_depth,
        tree_min_samples_split=args.tree_min_samples_split,
        tree_max_features=args.tree_max_features,
    )


def _timestamp(args) -> str | None:
    explicit = getattr(args, "timestamp", None)
    if explicit:
        return explicit
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    return None


def _metrics_text(report: evaluate.MetricsReport) -> str:
    lines = []
    for name in ("accuracy", "precision", "recall", "f1"):
        value = getattr(report, name)
        if value is None:
            lines.append(f"{name:<10} 0.000  (undefined: zero denominator)")
        else:
            lines.append(f"{name:<10} {value:.3f}")
    m = report.matrix
    lines.append(f"confusion  tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn}")
    return "\n".join(lines)


def _prepare_features(args, fraction: float):
    """Shared train/report/scatter front half: load, split, fit, transform."""
    with _stage("ingest"):
        corpus = ingest.load_corpus(args.data, args.format)
        dataset_split = ingest.split(corpus, fraction, args.seed)
    with _stage("preprocess"):
        stops = _resolve_stopwords(args)
        train_tokens = preprocess.preprocess_corpus(dataset_split.train, stops, args.min_token_len)
        test_tokens = preprocess.preprocess_corpus(dataset_split.test, stops, args.min_token_len)
    with _stage("vectorize"):
        tfidf = vectorize.fit(train_tokens)
        train_matrix = vectorize.transform_corpus(tfidf, train_tokens, dataset_split.train.labels)
        test_matrix = vectorize.transform_corpus(tfidf, test_tokens, dataset_split.test.labels)
    return corpus, dataset_split, stops, tfidf, train_matrix, test_matrix


def _write_manifest(args, dataset_split: ingest.DatasetSplit) -> None:
    if getattr(args, "split_manifest", None):
        with _stage("write"):
            Path(args.split_manifest).write_text(
                bundle_mod.canonical_json(dataset_split.to_manifest()), encoding="utf-8"
            )


def cmd_train(args) -> int:
    corpus, dataset_split, stops, tfidf, train_matrix, test_matrix = _prepare_features(
        args, args.split
    )
    smote_config = None
    matrix = train_matrix
    if args.smote == "on":
        with _stage("resample"):
            smote_config = resample.SmoteConfig(k=args.smote_k, seed=args.seed)
            matrix, resample_report = resample.balance_training_set(train_matrix, smote_config)
            for warning in resample_report.warnings:
                print(f"warning: {warning}", file=sys.stderr)
    with _stage("train"):
        config = _train_config(args, args.algo)
        model = classify.train(matrix, config)
    with _stage("evaluate"):
        held_out = evaluate.evaluate_model(model, test_matrix)
    with _stage("write"):
        model_bundle = bundle_mod.ModelBundle(
            tfidf=tfidf,
            classifier=model,
            preprocess_config=bundle_mod.PreprocessConfig(
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
                "timestamp": _timestamp(args),
            },
        )
        bundle_mod.save_bundle(model_bundle, args.out)
    _write_manifest(args, dataset_split)
    print(f"held-out metrics ({len(test_matrix)} test docs):")
    print(_metrics_text(held_out))
    print(f"wrote bundle to {args.out}")
    return EXIT_OK


def _load_bundle_and_stops(args):
    with _stage("bundle"):
        model_bundle = bundle_mod.load_bundle(args.bundle)
    cfg = model_bundle.preprocess_config
    with _stage("stopwords"):
        if args.stopwords:
            stops = stopwords.load_stopwords(args.stopwords)
        else:
            stops = stopwords.default_stopwords()
            if cfg.stopwords_sha256 != stops.sha256():
                raise ValueError(
                    f"bundle was trained with stop list {cfg.stopwords_name!r}; "
                    "pass the same file via --stopwords"
                )
        if stops.sha256() != cfg.stopwords_sha256:
            raise ValueError(
                f"stop list hash mismatch: bundle has {cfg.stopwords_sha256}, "
                f"--stopwords file has {stops.sha256()}"
            )
    return model_bundle, stops


def _texts_for_predict(args):
    if args.text is not None:
        return [args.text]
    if args.input:
        with _stage("read"):
            return Path(args.input).read_text(encoding="utf-8").splitlines()
    return sys.stdin.read().splitlines()


def cmd_predict(args) -> int:
    model_bundle, stops = _load_bundle_and_stops(args)
    texts = _texts_for_predict(args)
    min_len = model_bundle.preprocess_config.min_token_len
    with _stage("predict"):
        for text in texts:
            tokens = preprocess.filter_tokens(
                preprocess.tokenize(preprocess.strip_html(text)), stops, min_len
            )
            vector = vectorize.transform(model_bundle.tfidf, tokens)
            label, score = classify.predict_scored(model_bundle.classifier, vector)
            if score is None:
                print(label)
            else:
                print(f"{label}\t{score!r}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model_bundle, stops = _load_bundle_and_stops(args)
    min_len = model_bundle.preprocess_config.min_token_len
    with _stage("ingest"):
        corpus = ingest.load_corpus(args.data, args.format)
    with _stage("preprocess"):
        tokens = preprocess.preprocess_corpus(corpus, stops, min_len)
    with _stage("vectorize"):
        matrix = vectorize.transform_corpus(model_bundle.tfidf, tokens, corpus.labels)
    with _stage("evaluate"):
        report = evaluate.evaluate_model(model_bundle.classifier, matrix)
    print(_metrics_text(report))
    if args.out:
        with _stage("write"):
            Path(args.out).write_text(
                bundle_mod.canonical_json(report.to_dict()), encoding="utf-8"
            )
        print(f"wrote metrics to {args.out}")
    return EXIT_OK


def cmd_oversample(args) -> int:
    with _stage("read"):
        matrix = matrixio.read_matrix(args.matrix, args.labels)
    with _stage("resample"):
        config = resample.SmoteConfig(k=args.smote_k, seed=args.seed)
        balanced, report = resample.balance_training_set(matrix, config)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    with _stage("write"):
        matrixio.write_matrix(balanced, args.out, args.out_labels)
        if args.report:
            Path(args.report).write_text(
                bundle_mod.canonical_json(report.to_dict()), encoding="utf-8"
            )
    print(
        f"balanced {report.minority_before}/{report.majority} -> "
        f"{report.majority}/{report.majority} ({report.synthetic_created} synthetic rows)"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    algorithms = [a.strip() for a in args.algos.split(",") if a.strip()]
    unknown = [a for a in algorithms if a not in _ALGO_CHOICES]
    if unknown:
        raise CliRuntimeError("config", ValueError(f"unknown algorithms: {unknown}"))
    _, dataset_split, _, _, train_matrix, test_matrix = _prepare_features(args, args.split)
    with _stage("compare"):
        smote_config = resample.SmoteConfig(k=args.smote_k, seed=args.seed)
        configs = {algo: _train_config(args, algo) for algo in algorithms}
        report = evaluate.compare(train_matrix, test_matrix, algorithms, smote_config, configs)
        report.metadata["seed"] = args.seed
        report.metadata["train_fraction"] = args.split
        report.metadata["dataset"] = str(args.data)
    written = []
    with _stage("write"):
        json_path = Path(f"{args.out}.json")
        text_path = Path(f"{args.out}.txt")
        json_path.write_text(bundle_mod.canonical_json(report.to_dict()), encoding="utf-8")
        table = report.to_text_table()
        text_path.write_text(table, encoding="utf-8")
        written = [json_path, text_path]
        if args.csv:
            csv_path = Path(f"{args.out}.csv")
            csv_path.write_text(report.to_csv(), encoding="utf-8")
            written.append(csv_path)
    _write_manifest(args, dataset_split)
    print(table, end="")
    print("wrote " + ", ".join(str(p) for p in written))
    return EXIT_OK


def _project_rows(matrix, seed: int) -> list[tuple[float, float]]:
    rng = derive_stream(seed, STREAM_PROJECTION)
    gx = []
    gy = []
    for _ in range(matrix.dim):
        gx.append(rng.next_gaussian())
        gy.append(rng.next_gaussian())
    points = []
    for row in matrix.rows:
        x = sum(v * gx[i] for i, v in row.entries)
        y = sum(v * gy[i] for i, v in row.entries)
        points.append((x, y))
    return points


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
        "<!-- seeded gaussian random 2-d projection of the training matrix -->",
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
    # The whole input file is treated as the training matrix under
    # inspection; no train/test split happens here.
    with _stage("ingest"):
        corpus = ingest.load_corpus(args.data, args.format)
    with _stage("preprocess"):
        stops = _resolve_stopwords(args)
        tokens = preprocess.preprocess_corpus(corpus, stops, args.min_token_len)
    with _stage("vectorize"):
        tfidf = vectorize.fit(tokens)
        train_matrix = vectorize.transform_corpus(tfidf, tokens, corpus.labels)
    n_original = len(train_matrix)
    matrix = train_matrix
    if args.smote == "on":
        with _stage("resample"):
            config = resample.SmoteConfig(k=args.smote_k, seed=args.seed)
            matrix, _ = resample.balance_training_set(train_matrix, config)
    with _stage("project"):
        points = _project_rows(matrix, args.seed)
    with _stage("write"):
        lines = [
            f"# seeded gaussian random 2-d projection (seed={args.seed}, smote={args.smote})",
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
