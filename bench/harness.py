"""Run one workload: an untraced end-to-end measurement or a traced run.

End to end (``Run.measure``): every measured command runs as a child
process; wall time is taken around spawn and reap, CPU time and peak RSS
from that child's own ``os.wait4`` rusage (``RUSAGE_CHILDREN`` would be a
maximum over all children so far).  The command repeats until the run's
seconds are used up; each metric is the median over the repeats.

Times are scaled to a nominal CPU speed.  On a shared host a core's speed
swings by up to 2x over seconds to minutes, with the load of other tenants,
and a median over one run cannot remove a swing that lasts the whole run.
So while each child runs, a thread of this process on the same CPU (the
run is pinned to one) times a short fixed pure-Python loop, the speed probe,
every ``PROBE_PERIOD_S``.  A child's times are multiplied by
``PROBE_NOMINAL_S`` over the median probe time seen during it; the unscaled
times are kept in the results file and printed.

Traced (``Run.trace``): the same command runs in this process through
``textbalance.cli.main``, alternately without and with span tracing.  The
per-layer metrics are medians over the traced repeats; the tracing
overhead is the traced minus the untraced in-process wall time.
"""

from __future__ import annotations

import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy
from textbalance import cli

import spans
from workloads import CheckFailed, Prepared

SETUP_REPEATS = 7  # at least this many fresh interpreters per run for setup_s; the median is reported
MIN_REPEATS = 2  # so byte-identical output across repeats is always checked
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ".bench_work"
CHILD_HASH_SEED = "0"  # fixed set and dict layouts, for steadier timings
PROBE_PERIOD_S = 0.05  # about 1% of the CPU goes to the probe
PROBE_LOOPS = 10000
PROBE_NOMINAL_S = 0.0006  # the probe's time at full speed on a 2-vCPU Xeon VM with Python 3.11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "docs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = ("cli.startup_s", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.accounted_ratio")


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    names = list(spans.layer_metrics(spans.Tracer())) + list(TRACE_METRICS)
    units = {}
    for name in names:
        if name in spans.SPAN_TIMES or name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("bytes"):
            units[name] = "B"
        else:
            units[name] = "count"
    return units


@dataclass
class ChildRun:
    code: int | None  # None: killed at the timeout
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    scale: float  # PROBE_NOMINAL_S over the median probe time while the child ran
    stderr: str = ""
    stdout: str = ""  # filled in only where a caller reads it


class Tally:
    """Operations attempted and failed; a failure is a non-zero exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def probe_once() -> float:
    """Seconds one pass of the fixed probe loop takes on this CPU now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += (i * 7) % 13
    return time.perf_counter() - start


class SpeedProbe:
    """Times the probe loop once on entry and then every PROBE_PERIOD_S, until exit."""

    def __enter__(self):
        self.samples = [probe_once()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(probe_once())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def pin_to_one_cpu() -> int:
    """Pin this process (and so its threads and children) to one allowed CPU.

    The speed probe then samples the core the measured child runs on.
    Call before any thread starts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(argv, cwd: Path, env: dict, stdout_path: Path | None, timeout: float) -> ChildRun:
    """Run one child to completion and read its own rusage from wait4."""
    stderr_path = cwd / ".stderr"
    timed_out = threading.Event()
    with open(stdout_path or os.devnull, "wb") as out, open(stderr_path, "wb") as err, SpeedProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)

        def expire():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=None if timed_out.is_set() else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        scale=probe.scale(),
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SOURCE_DATE_EPOCH")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = CHILD_HASH_SEED
    return env


def environment(blas_threads: dict, pinned_cpu: int) -> dict:
    """What the numbers depend on besides the code: machine and versions."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "probe": {"period_s": PROBE_PERIOD_S, "loops": PROBE_LOOPS, "nominal_s": PROBE_NOMINAL_S},
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": blas_threads,
        "PYTHONHASHSEED": CHILD_HASH_SEED,
    }


def summarize(values: list[float], unit: str) -> dict:
    """Median with quartiles and the sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit, "samples": len(values), "q1": q1, "q3": q3}


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    value = ordered[max(1, -(-len(ordered) * q // 100)) - 1]
    return value, sum(1 for v in ordered if v > value)


@contextmanager
def _chdir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class Run:
    """One benchmark invocation: a workload, a seed, a time budget."""

    def __init__(self, root: Path, workload, seed: int, seconds: float, deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline  # time.monotonic() by which the run must be done
        self.env = child_env(root)
        self.tally = Tally()
        self.work = root / WORK_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.results_dir = root / WORK_DIR / "results"

    def _timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))

    def child(self, argv, stdout_path=None) -> ChildRun:
        return run_child(argv, self.work, self.env, stdout_path, self._timeout())

    def run_cli(self, argv, stdout_path=None) -> ChildRun:
        return self.child([sys.executable, "-m", "textbalance.cli", *argv], stdout_path)

    def _prepare_cli(self, argv) -> None:
        run = self.run_cli(argv)
        if run.code != 0:
            raise RuntimeError(f"input preparation `{' '.join(argv)}` failed: {run.stderr}")

    def prepare(self) -> Prepared:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        return self.workload.prepare(self.work, self.seed, self._prepare_cli)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_interpreter(self, code: str, what: str) -> ChildRun:
        out = self.work / ".setup.out"
        run = self.child([sys.executable, "-c", code], out)
        self.tally.record(run.code == 0, f"{what}: exit {run.code}: {run.stderr}")
        run.stdout = out.read_text(encoding="utf-8")
        return run

    def warm_up(self, code: str) -> None:
        """One untimed interpreter: compiles bytecode, fills the page cache."""
        self.child([sys.executable, "-c", code])

    def check(self, prepared: Prepared, digests: list[str], what: str) -> bool:
        """Check one repeat's outputs, including byte identity with the first repeat."""
        try:
            digest = self.workload.check(prepared, self.work)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return self.tally.record(False, f"{what}: output check failed: {exc!r}")
        if digests and digest != digests[0]:
            return self.tally.record(False, f"{what}: output differs from the first repeat")
        digests.append(digest)
        return self.tally.record(True, what)

    def _more(self, done: int, started: float, per_repeat: float) -> bool:
        """Whether another repeat fits in the run's seconds (and before the deadline)."""
        if done < MIN_REPEATS:
            return True
        now = time.monotonic()
        return now - started + per_repeat <= self.seconds and now + per_repeat < self.deadline

    # -- end to end ---------------------------------------------------------

    def measure(self) -> dict:
        prepared = self.prepare()
        self.warm_up(prepared.setup_code)
        started = time.monotonic()
        reference = self.workload.reference(prepared, self.work)
        stdout_path = self.work / prepared.stdout_name if prepared.stdout_name else None
        setup: list[ChildRun] = []
        runs: list[ChildRun] = []
        digests: list[str] = []
        # Set-up interpreters alternate with the measured repeats, so both
        # sample the same stretch of machine time.
        while self._more(len(runs), started, statistics.median([r.wall_s for r in runs] or [0.0])):
            setup.append(self.fresh_interpreter(prepared.setup_code, f"setup {len(setup)}"))
            run = self.run_cli(prepared.argv, stdout_path)
            what = f"repeat {len(runs)}"
            runs.append(run)
            if run.code == 0:
                self.check(prepared, digests, what)
            else:
                self.tally.record(False, f"{what}: exit {run.code}: {run.stderr}")
        while len(setup) < SETUP_REPEATS:
            setup.append(self.fresh_interpreter(prepared.setup_code, f"setup {len(setup)}"))
        # Timings come from the repeats that exited 0; if none did, from all.
        timed = [r for r in runs if r.code == 0] or runs
        walls = [r.wall_s * r.scale for r in timed]
        samples = {
            "setup_s": [r.wall_s * r.scale for r in setup],
            "wall_s": walls,
            "cpu_s": [r.cpu_s * r.scale for r in timed],
            "docs_per_s": [prepared.items / w for w in walls],
            "peak_rss_mb": [r.peak_rss_mb for r in timed],
        }
        unscaled = {
            "setup_s": [r.wall_s for r in setup],
            "wall_s": [r.wall_s for r in timed],
            "cpu_s": [r.cpu_s for r in timed],
            "scale": [r.scale for r in timed],
        }
        metrics = {name: summarize(samples[name], unit) for name, unit in END_TO_END_UNITS.items()}
        extra = self.workload.quality(prepared, self.work) if digests else {}
        extra["unscaled"] = {name: statistics.median(values) for name, values in unscaled.items()}
        if "latencies_s" in reference:
            latencies = [s * 1000.0 for s in reference["latencies_s"]]
            extra["predict_p50_ms"], extra["predict_p50_beyond"] = percentile(latencies, 50)
            extra["predict_p99_ms"], extra["predict_p99_beyond"] = percentile(latencies, 99)
            extra["predict_samples"] = len(latencies)
        return {
            "metrics": metrics,
            "extra": extra,
            "detail": {
                "items": prepared.items,
                "argv": prepared.argv,
                "samples": samples,
                "unscaled_samples": unscaled,
                "digests": digests,
            },
        }

    # -- traced ---------------------------------------------------------------

    def _in_process(self, argv, stdout_path, tracer=None) -> tuple[int | None, float]:
        sink = open(stdout_path, "w", encoding="utf-8") if stdout_path else io.StringIO()
        with sink, _chdir(self.work), redirect_stdout(sink):
            start = time.perf_counter()
            try:
                code = spans.run_traced(tracer, cli.main, argv) if tracer else cli.main(argv)
            except Exception as exc:  # the harness keeps running; the failure is counted
                print(f"in-process run raised {exc!r}", file=sys.stderr)
                code = None
            wall = time.perf_counter() - start
        return code, wall

    def trace(self) -> dict:
        prepared = self.prepare()
        timing = "import time\nt = time.perf_counter()\nimport textbalance.cli\nprint(time.perf_counter() - t)\n"
        self.warm_up(timing)
        startup = []
        for i in range(SETUP_REPEATS):
            run = self.fresh_interpreter(timing, f"startup {i}")
            if run.code == 0:
                startup.append(float(run.stdout))
        started = time.monotonic()
        self.workload.reference(prepared, self.work)
        stdout_path = self.work / prepared.stdout_name if prepared.stdout_name else None
        walls: dict[str, list[float]] = {"untraced": [], "traced": []}
        layers: list[dict] = []
        digests: list[str] = []
        pairs = 0
        last = None
        while self._more(pairs, started, 2 * statistics.median(walls["traced"] or [0.0])):
            pairs += 1
            for kind in walls:
                tracer = spans.Tracer() if kind == "traced" else None
                code, wall = self._in_process(prepared.argv, stdout_path, tracer)
                what = f"{kind} repeat {pairs}"
                if code != 0:
                    self.tally.record(False, f"{what}: exit {code}")
                elif self.check(prepared, digests, what):
                    walls[kind].append(wall)
                    if tracer is not None:
                        tracer.finish()
                        found = spans.layer_metrics(tracer)
                        found["trace.accounted_ratio"] = sum(tracer.self_times()) / wall
                        layers.append(found)
                        last = tracer
        if last is not None:
            last.dump(self.results_dir / f"{self.workload.name}-seed{self.seed}.spans.jsonl")
        values = {}
        for name, unit in per_layer_units().items():
            found = [d[name] for d in layers if name in d]
            values[name] = {"value": statistics.median(found) if found else 0.0, "unit": unit, "samples": len(found)}
        untraced = statistics.median(walls["untraced"]) if walls["untraced"] else 0.0
        traced = statistics.median(walls["traced"]) if walls["traced"] else 0.0
        values["cli.startup_s"].update(value=statistics.median(startup) if startup else 0.0, samples=len(startup))
        values["trace.wall_s"].update(value=traced, samples=len(walls["traced"]))
        values["trace.untraced_wall_s"].update(value=untraced, samples=len(walls["untraced"]))
        values["trace.overhead_s"].update(value=traced - untraced, samples=min(map(len, walls.values())))
        return {"metrics": values, "extra": {}, "detail": {"walls": walls, "digests": digests}}
