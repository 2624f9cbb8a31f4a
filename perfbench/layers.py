"""Per-layer metrics of the traced round, computed from its spans.

Only spans inside a timed phase count; a phase that runs more than once
a round reports the sum of its runs.  Counts (calls, rows, windows,
records, frames, bytes) depend on the seed alone and repeat exactly;
``*.s`` figures are self times unless noted, so the layers of a phase
add up to it.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.trace import LAYERS

#: (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("kernel.pairwise.calls", "count"), ("kernel.pairwise.s", "s"),
    ("kernel.landmark.s", "s"),
    ("kernel.one_vs_many.calls", "count"),
    ("kernel.one_vs_many.rows", "count"), ("kernel.one_vs_many.s", "s"),
    ("learn.exact.calls", "count"), ("learn.exact.s", "s"),
    ("learn.full.calls", "count"), ("learn.delta.calls", "count"),
    ("learn.cached.calls", "count"), ("learn.incremental.s", "s"),
    ("runner.execute.calls", "count"), ("runner.execute.s", "s"),
    ("sanitize.results", "count"), ("sanitize.s", "s"),
    ("sanitize.quarantined", "count"),
    ("score.windows", "count"), ("score.self_s", "s"),
    ("plan.calls", "count"), ("plan.s", "s"), ("plan.skipped", "count"),
    ("queue.push.calls", "count"), ("queue.push.s", "s"),
    ("queue.pop.s", "s"), ("queue.coalesced", "count"),
    ("pool.sweeps", "count"), ("pool.cells", "count"),
    ("pool.cells_retried", "count"), ("pool.self_s", "s"),
    ("journal.appends", "count"), ("journal.bytes", "B"),
    ("journal.append.s", "s"), ("journal.records_per_event", "count"),
    ("journal.snapshot_bytes", "B"), ("journal.replay.records", "count"),
    ("journal.replay.s", "s"),
    ("service.tick.self_s", "s"), ("service.recover.s", "s"),
    ("fabric.tick.self_s", "s"), ("rpc.frames_per_verdict", "count"),
    ("rpc.bytes_per_verdict", "B"), ("rpc.s", "s"),
    ("shard.start_s", "s"),
    ("analytics.read.records", "count"), ("analytics.read.s", "s"),
    ("analytics.reduce.s", "s"),
    ("import.s", "s"),
    *[(f"phase.{phase}.{part}", "s")
      for phase in ("setup", "learn", "screen", "refresh", "submit",
                    "drain", "recovery", "report")
      for part in ("s", "unattributed_s")],
    ("trace.overhead_pct", "%"), ("trace.spans", "count"),
    ("drain.events_per_s", "1/s"), ("drain.verdict_p50_ms", "ms"),
    ("drain.verdict_p90_ms", "ms"), ("drain.verdict_p95_ms", "ms"),
    ("recovery.median_s", "s"), ("report.median_s", "s"),
]

#: Counts that must repeat exactly across runs with the same seed.
DETERMINISTIC = [
    "kernel.pairwise.calls", "kernel.one_vs_many.calls",
    "kernel.one_vs_many.rows", "learn.exact.calls", "learn.full.calls",
    "learn.delta.calls", "learn.cached.calls", "runner.execute.calls",
    "sanitize.results", "sanitize.quarantined", "score.windows",
    "plan.calls", "plan.skipped", "queue.push.calls", "queue.coalesced",
    "pool.sweeps", "pool.cells", "journal.appends",
    "journal.records_per_event", "journal.snapshot_bytes",
    "journal.replay.records", "rpc.frames_per_verdict",
    "rpc.bytes_per_verdict", "analytics.read.records",
]


def self_times(spans):
    """Self time of every span, and the index of its phase span (-1
    outside every phase).  Parents always precede their children."""
    children: dict[int, list[int]] = defaultdict(list)
    phases = []
    for index, (name, _start, _end, parent, _attrs) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
        if name.startswith("phase."):
            phases.append(index)
        else:
            phases.append(phases[parent] if parent >= 0 else -1)
    selfs = []
    for index, (_name, start, end, _parent, _attrs) in enumerate(spans):
        covered, cursor = 0.0, start
        for child in sorted(children.get(index, ()),
                            key=lambda i: spans[i][1]):
            lo, hi = max(spans[child][1], cursor), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        selfs.append(end - start - covered)
    return selfs, phases


def per_layer(spans, verdicts: int, import_s: float):
    """``(metrics, breakdown, failures)`` of one traced round.

    ``breakdown`` maps phase name to ``{layer: self seconds}`` plus its
    ``unattributed`` remainder; ``failures`` lists phases whose layer
    self times exceed the phase (overlapping spans would do that).
    """
    selfs, phases = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    landmark = [False] * len(spans)
    breakdown: dict[str, dict[str, float]] = {}
    starts: dict[str, list[float]] = {"spawn": [], "service.recover": []}
    tick_of = [-1] * len(spans)
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        if parent >= 0:
            landmark[index] = (landmark[parent]
                               or spans[parent][0] == "kernel.landmark")
            tick_of[index] = tick_of[parent]
        if name == "fabric.tick":
            tick_of[index] = index
        phase = phases[index]
        if phase < 0:
            continue
        if phase == index:
            breakdown.setdefault(name[len("phase."):], {})
            continue
        attrs = attrs or {}
        own, whole = selfs[index], end - start
        phase_name = spans[phase][0][len("phase."):]
        layer = LAYERS[name]
        row = breakdown[phase_name]
        row[layer] = row.get(layer, 0.0) + own
        if name == "kernel.pairwise":
            m["kernel.pairwise.calls"] += 1
            m["kernel.pairwise.s"] += own
        elif name == "kernel.landmark":
            m["kernel.landmark.s"] += whole
        elif name == "kernel.one_vs_many" and not landmark[index]:
            m["kernel.one_vs_many.calls"] += 1
            m["kernel.one_vs_many.rows"] += attrs.get("rows", 0)
            m["kernel.one_vs_many.s"] += own
        elif name == "learn.incremental":
            path = attrs.get("path", "exact")
            m[f"learn.{path}.calls"] += 1
            if path == "exact":
                m["learn.exact.s"] += whole
            m["learn.incremental.s"] += own
        elif name == "learn":
            m["learn.incremental.s"] += own
        elif name == "runner":
            m["runner.execute.calls"] += 1
            m["runner.execute.s"] += own
        elif name == "sanitize":
            m["sanitize.results"] += 1
            m["sanitize.s"] += own
            m["sanitize.quarantined"] += attrs.get("quarantined", 0)
        elif name in ("score", "validate"):
            m["score.windows"] += attrs.get("windows", 0)
            m["score.self_s"] += own
        elif name == "plan":
            m["plan.calls"] += 1
            m["plan.s"] += own
            m["plan.skipped"] += bool(attrs.get("skipped"))
        elif name == "queue.push":
            m["queue.push.calls"] += 1
            m["queue.push.s"] += own
            m["queue.coalesced"] += bool(attrs.get("coalesced"))
        elif name == "queue.pop":
            m["queue.pop.s"] += own
        elif name in ("pool.validate", "pool.sweep"):
            m["pool.self_s"] += own
            if name == "pool.sweep":
                m["pool.sweeps"] += 1
                m["pool.cells"] += attrs.get("cells", 0)
                m["pool.cells_retried"] += attrs.get("retried", 0)
        elif name == "journal.append":
            m["journal.appends"] += 1
            m["journal.bytes"] += attrs.get("bytes", 0)
            m["journal.append.s"] += own
            if phase_name == "drain":
                m["journal.records_per_event"] += 1
            if attrs.get("kind") == "criteria-snapshot":
                m["journal.snapshot_bytes"] += attrs.get("bytes", 0)
        elif name == "journal.replay":
            m["journal.replay.records"] += attrs.get("records", 0)
            m["journal.replay.s"] += own
        elif name == "service.tick":
            m["service.tick.self_s"] += own
            if tick_of[index] >= 0:
                m["rpc.s"] -= whole
        elif name == "service.recover":
            m["service.recover.s"] += whole
            starts[name].append(whole)
        elif name == "fabric.tick":
            m["fabric.tick.self_s"] += own
            m["rpc.s"] += whole
        elif name == "rpc":
            if phase_name == "drain":
                m["rpc.frames_per_verdict"] += 2
                m["rpc.bytes_per_verdict"] += attrs.get("bytes", 0)
        elif name == "spawn":
            starts[name].append(whole)
        elif name == "analytics.read":
            m["analytics.read.records"] += attrs.get("records", 0)
            m["analytics.read.s"] += own
        elif name == "analytics.reduce":
            m["analytics.reduce.s"] += own
    for key in ("journal.records_per_event", "rpc.frames_per_verdict",
                "rpc.bytes_per_verdict"):
        m[key] /= max(verdicts, 1)
    # Starting one shard: a worker spawn (import, build, journal
    # recovery) on processes, a service construction on threads.
    shard_starts = starts["spawn"] or starts["service.recover"]
    m["shard.start_s"] = sum(shard_starts) / max(len(shard_starts), 1)
    m["import.s"] = import_s
    for index, phase in enumerate(phases):
        if phase == index:
            name = spans[index][0][len("phase."):]
            m[f"phase.{name}.s"] += spans[index][2] - spans[index][1]
    failures = []
    for name, row in breakdown.items():
        duration = m[f"phase.{name}.s"]
        row["unattributed"] = duration - sum(row.values())
        m[f"phase.{name}.unattributed_s"] = row["unattributed"]
        if row["unattributed"] < -0.01 * duration:
            failures.append(f"layer self times exceed phase {name} by "
                            f"{-row['unattributed']:.3f} s")
    return dict(m), breakdown, failures
