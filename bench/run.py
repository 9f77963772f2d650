"""textbalance benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload report-zipf --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics (untraced, the
command as a child process); with ``--trace 1`` it measures the per-layer
metrics (in process, with spans).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (samples, digests, failures,
environment) goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import spans

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"  # pinned for every run; at most nproc on any machine
DEADLINE_S = 170.0  # the whole run, set-up included, ends before 180 s


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(args, result: dict, env: dict, tally) -> list[str]:
    lines = [
        f"textbalance benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={_fmt(args.seconds)} trace={args.trace}",
        "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
        f"{'metric':<32} {'median':>12} {'unit':<6} {'samples':>7} {'q1':>12} {'q3':>12}",
    ]
    for name, m in result["metrics"].items():
        lines.append(
            f"{name:<32} {_fmt(m['value']):>12} {m['unit']:<6} {m['samples']:>7} "
            f"{_fmt(m.get('q1', '')):>12} {_fmt(m.get('q3', '')):>12}"
        )
    extra = result["extra"]
    if "predict_p50_ms" in extra:
        for p in ("p50", "p99"):
            lines.append(
                f"predict_{p}_ms {_fmt(extra[f'predict_{p}_ms'])} ms "
                f"(in-process, {extra['predict_samples']} documents, "
                f"{extra[f'predict_{p}_beyond']} beyond)"
            )
    if "unscaled" in extra:
        u = extra["unscaled"]
        lines.append(
            f"unscaled medians: setup_s {_fmt(u['setup_s'])} s, wall_s {_fmt(u['wall_s'])} s, "
            f"cpu_s {_fmt(u['cpu_s'])} s; median speed scale {_fmt(u['scale'])} "
            f"(probe nominal over probe measured; the metrics above are scaled by it per child)"
        )
    for key in ("f1_smote_mean", "f1_raw_mean"):
        if key in extra:
            lines.append(f"{key} {_fmt(extra[key])} (mean held-out F1 of 4 algorithms; undefined = 0.0)")
    if args.trace:
        metrics = result["metrics"]
        accounted = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
        lines.append(
            f"layer self times (cli.self_s included) sum to {_fmt(accounted)} s against an "
            f"in-process traced wall of {_fmt(metrics['trace.wall_s']['value'])} s (medians; "
            f"per repeat the spans account for {_fmt(metrics['trace.accounted_ratio']['value'])} of it)"
        )
        lines.append(
            f"tracing overhead {_fmt(metrics['trace.overhead_s']['value'])} s: traced minus untraced "
            f"in-process wall ({_fmt(metrics['trace.untraced_wall_s']['value'])} s untraced)"
        )
        lines.append("computed, not measured: resample.distance_evals, classify.dense_bytes")
    failed = len(tally.failures)
    lines.append(f"fail_rate {_fmt(failed / tally.attempted if tally.attempted else 1.0)} ({failed} of {tally.attempted} operations)")
    lines.extend(f"failure: {f}" for f in tally.failures)
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "textbalance" / "__init__.py").is_file():
        print(f"error: no textbalance package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("SOURCE_DATE_EPOCH", None)
    sys.path.insert(0, str(src))
    # Imported only now: numpy must see the pinned thread counts, and the
    # package must come from this checkout.
    import textbalance

    import harness
    from workloads import WORKLOADS

    if not Path(textbalance.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: textbalance imported from {textbalance.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    cpu = harness.pin_to_one_cpu()
    run = harness.Run(root, WORKLOADS[args.workload], args.seed, args.seconds, started + DEADLINE_S)
    try:
        result = run.trace() if args.trace else run.measure()
    finally:
        run.cleanup()
    env = harness.environment({var: os.environ[var] for var in BLAS_THREAD_VARS}, cpu)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": run.tally.attempted,
        "failures": run.tally.failures,
        **result,
    }
    out = run.results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in report_lines(args, result, env, run.tally):
        print(line)
    failed = len(run.tally.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.tally.attempted,
                "failed": failed,
                "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
