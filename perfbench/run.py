"""End-to-end benchmark of the reproduction: build-out plus journaled serving.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-threads --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced round (after an untraced one, whose
phases give the tracing overhead).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check prints ``"correct": false``
and exits 1; a checkout without the package exits 2 with no result.
See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("serve-threads", "serve-processes")
#: Start-up samples per run: this process's own, and fresh interpreters
#: that import what it imported before its first round.
STARTUPS = 3
STARTUP = ("import time; t = time.perf_counter(); import repro; "
           "from repro.core import _cmerge; _cmerge.load(); "
           "from perfbench import inputs, stages; "
           "print(time.perf_counter() - t)")
#: End-to-end metrics: name -> unit.  The drain's throughput and tick
#: latencies, the recovery and the report time are printed and reported
#: per layer, but not here: their run-to-run spread on the reference
#: host exceeds the largest bound a metric may carry (see README.md).
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "learn_s": "s", "screen_s": "s",
    "refresh_s": "s", "journal_kb_per_event": "KB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this much time "
                             "has passed (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and any waited-for
    child (the fabric's worker processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report_failures(rounds) -> bool:
    """Print every failed check (on standard error too, where a caller
    that keeps only the tail of the error stream still sees them)."""
    failures = [failure for round_ in rounds for failure in round_.failures]
    for failure in failures[:50]:
        print(f"CHECK FAILED: {failure}")
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return not failures


def serving(rounds) -> dict:
    """Drain throughput, tick percentiles (pooled over the rounds),
    recovery and report time: measured every run, but too noisy on a
    shared host to gate (see README.md)."""
    import numpy as np

    ticks = np.asarray([s for r in rounds for s in r.tick_seconds])
    p50, p90, p95 = (float(np.percentile(ticks, q)) for q in (50, 90, 95))
    print(f"verdict ticks: {ticks.size}, {int((ticks > p90).sum())} beyond "
          f"the 90th percentile, {int((ticks > p95).sum())} beyond the 95th")
    return {
        "drain.events_per_s": statistics.median(
            r.verdicts / r.seconds["drain"][0] for r in rounds),
        "drain.verdict_p50_ms": p50 * 1e3,
        "drain.verdict_p90_ms": p90 * 1e3,
        "drain.verdict_p95_ms": p95 * 1e3,
        "recovery.median_s": statistics.median(
            s for r in rounds for s in r.seconds["recovery"]),
        "report.median_s": statistics.median(
            s for r in rounds for s in r.seconds["report"]),
    }


def startup_samples(own_s: float) -> list[float]:
    """Seconds from interpreter start until the first round can begin:
    this process's own start-up, and that of fresh interpreters."""
    samples = [own_s]
    for _ in range(STARTUPS - 1):
        done = subprocess.run([sys.executable, "-c", STARTUP], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"start-up probe exited with code "
                               f"{done.returncode}: {done.stderr[-2000:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def end_to_end(rounds, startups):
    """The end-to-end metrics of a run: each time is the median of its
    samples over the run's rounds, which draw different inputs from the
    seed; ``setup_s`` adds the median start-up to the median round
    set-up."""
    def phase(name):
        return statistics.median(s for r in rounds for s in r.seconds[name])

    values = {
        "setup_s": statistics.median(startups) + phase("setup"),
        "peak_rss_mb": peak_rss_mb(),
        "learn_s": phase("learn"),
        "screen_s": phase("screen"),
        "refresh_s": phase("refresh"),
        "journal_kb_per_event": statistics.median(
            r.journal_bytes / 1e3 / r.verdicts for r in rounds),
    }
    for name, value in serving(rounds).items():
        print(f"{name}: {value:.4f}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def print_round(index: int, round_) -> None:
    phases = "  ".join(
        f"{name} {'/'.join(f'{s:.3f}' for s in seconds)}s"
        for name, seconds in round_.seconds.items())
    print(f"round {index}: {phases}  verdicts {round_.verdicts}  "
          f"journal {round_.journal_bytes} B")


def measure(args, run_dir: Path) -> int:
    t_import = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t_import
    from repro.core import _cmerge

    from perfbench import inputs, stages

    kernel = _cmerge.load() is not None  # compiled once per process
    once_s = time.perf_counter() - _T0
    print(f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  "
          f"C merge kernel {'loaded' if kernel else 'unavailable'}")
    if args.trace:
        return traced(args, run_dir, import_s)

    startups = startup_samples(once_s)
    print("start-up " + "/".join(f"{s:.3f}" for s in startups) + "s")
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        seeds = inputs.Seeds.derive(args.seed, len(rounds))
        begin = time.perf_counter()
        env = stages.setup(args.workload, seeds,
                           run_dir / f"round-{len(rounds)}")
        rounds.append(stages.run_round(env, seeds,
                                       time.perf_counter() - begin))
        print_round(len(rounds), rounds[-1])
        shutil.rmtree(env.root.parent)
    correct = report_failures(rounds)
    return emit(correct, sum(r.attempted for r in rounds),
                sum(r.failed for r in rounds), end_to_end(rounds, startups))


def traced(args, run_dir: Path, import_s: float):
    """An untraced round, then a traced one on the same inputs (the
    first round's); per-layer metrics."""
    from perfbench import inputs, layers, stages, trace

    seeds = inputs.Seeds.derive(args.seed, 0)
    start = time.perf_counter()
    env = stages.setup(args.workload, seeds, run_dir / "untraced")
    plain = stages.run_round(env, seeds, time.perf_counter() - start)
    print_round(1, plain)
    shutil.rmtree(env.root.parent)

    recorder = trace.Recorder()
    tracer = trace.Tracer(recorder)
    trace_dir = run_dir / "trace"
    trace_dir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        with recorder.phase("setup"):
            env = stages.setup(args.workload, seeds, run_dir / "traced",
                               trace_dir=trace_dir)
        round_ = stages.run_round(env, seeds, time.perf_counter() - start,
                                  recorder)
    finally:
        tracer.remove()
    print_round(2, round_)
    spans = trace.merge_workers(recorder.spans, trace_dir)
    metrics, breakdown, failures = layers.per_layer(spans, round_.verdicts,
                                                    import_s)
    # Serving figures of the untraced round: tracing would inflate them.
    metrics.update(serving([plain]))
    round_.failures += failures
    timed = [p for p in stages.PHASES if p not in ("setup", "submit")]
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(sum(round_.seconds[p]) for p in timed)
        / sum(sum(plain.seconds[p]) for p in timed) - 1.0)
    metrics["trace.spans"] = len(spans)
    for phase, row in breakdown.items():
        parts = "  ".join(f"{layer} {seconds:.3f}"
                          for layer, seconds in sorted(
                              row.items(), key=lambda item: -item[1]))
        print(f"{phase:>9}: {parts}")
    events = trace.event_ids(spans)
    out = ROOT / ".bench_run" / f"trace-{args.workload}-{args.seed}.json"
    out.write_text(json.dumps([
        {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
         "event": event, "attrs": s[4]} for s, event in zip(spans, events)]))
    print(f"spans written to {out.relative_to(ROOT)}")
    correct = report_failures([plain, round_])
    return emit(correct, plain.attempted + round_.attempted,
                plain.failed + round_.failed,
                {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                 for name, unit in layers.METRICS})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    # A fresh directory per run, whatever ran before with this seed.
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=ROOT / ".bench_run"))
    (run_dir / "tmp").mkdir()
    # Everything the run writes stays in the checkout: the C kernel's
    # compile directory included.  Workers inherit this environment.
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    os.environ.pop("REPRO_WORKERS", None)
    paths = [str(ROOT / "src"), str(ROOT)]
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        paths + ([existing] if existing else []))
    sys.path[:0] = paths
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
