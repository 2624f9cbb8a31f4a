"""Spans for the traced run, recorded from the benchmark's own files.

The program has no tracing of its own, so the traced run wraps the
public entry points of each layer (module functions and methods) in
place: every call opens a span with its name, start, end and parent,
kept in memory until the run ends.  Parent links follow the calling
thread's open spans; a span opened on a pool thread with nothing open
on that thread hangs under the main thread's innermost open span, the
sweep that submitted it (the pool is pinned to one worker, so sweeps
and their cells never overlap).  Spans recorded inside a worker process
are linked afterwards to the parent-process RPC span whose interval
contains them, which is sound because ``time.perf_counter`` reads the
system-wide monotonic clock on Linux.

Self times and the per-layer figures are computed from the spans by
:mod:`perfbench.layers`.
"""

from __future__ import annotations

import atexit
import bisect
import json
import os
import threading
import time
from pathlib import Path

#: Span name -> layer, for the per-phase breakdown.
LAYERS = {
    "kernel.pairwise": "kernel", "kernel.landmark": "kernel",
    "kernel.one_vs_many": "kernel",
    "learn": "criteria", "learn.incremental": "criteria",
    "runner": "runner", "sanitize": "sanitize",
    "score": "score", "validate": "score",
    "plan": "selector",
    "queue.push": "queue", "queue.pop": "queue",
    "pool.validate": "pool", "pool.sweep": "pool",
    "journal.append": "journal", "journal.replay": "journal",
    "service.tick": "service", "service.submit": "service",
    "service.recover": "service",
    "fabric.tick": "fabric", "fabric.submit": "fabric",
    "fabric.build": "fabric", "fabric.quiescent": "fabric",
    "fabric.shutdown": "fabric",
    "rpc": "rpc", "spawn": "rpc",
    "analytics.read": "analytics", "analytics.reduce": "analytics",
    "builder": "builder",
}


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self):
        #: [name, start, end, parent index, attrs] per span.
        self.spans: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if tid != self._main and main else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, None])
        stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stacks[threading.get_ident()].pop()

    def phase(self, name: str):
        return _Phase(self, name)


class _Phase:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = f"phase.{name}"

    def __enter__(self):
        self.index = self.recorder.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.recorder.end(self.index)


# ----------------------------------------------------------------------
# Wrapping the layers' entry points
# ----------------------------------------------------------------------

def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _frame_bytes(message) -> int:
    """Encoded size of one RPC frame, without the worker's pid (whose
    width depends on the OS, not on the program)."""
    if isinstance(message, dict) and "pid" in message:
        message = {k: v for k, v in message.items() if k != "pid"}
    return 4 + len(json.dumps(message, separators=(",", ":")))


def _journal_attrs(store, args, _result, before):
    try:
        after = store.path.stat().st_size
    except OSError:
        after = before
    kind = getattr(args[0], "value", args[0])
    return {"bytes": after - before, "kind": kind}


def _targets():
    """(owner, attribute, span name, attrs(self_or_none, args, result))."""
    from repro.analytics import reader, report
    from repro.benchsuite.runner import SuiteRunner
    from repro.core import fastdist, incremental, validator
    from repro.core.system import Anubis
    from repro.quality.sanitize import Sanitizer
    from repro.service import controlplane, pool, procfabric, queue, store
    from repro.service.supervisor import ShardSupervisor

    from perfbench import fabric

    def event_attr(service, _args, result):
        if result is None or service.store is None:
            return None
        return {"event": f"{service.store.directory.name}/{result.event_id}"}

    def rpc_attr(handle, args, result):
        return {"pid": handle.proc.pid if handle.proc else None,
                "bytes": _frame_bytes(args[0]) + _frame_bytes(result)}

    return [
        (fastdist, "pairwise_similarities", "kernel.pairwise", None),
        (fastdist, "one_vs_many_distances", "kernel.one_vs_many",
         lambda _s, args, _r: {"rows": int(args[0].n)}),
        (incremental, "landmark_similarities", "kernel.landmark", None),
        (validator, "learn_criteria_incremental", "learn.incremental",
         lambda _s, _a, result: {"path": result[1].path}),
        (validator.Validator, "learn_criteria_from_results", "learn", None),
        (validator.Validator, "check_results", "score",
         lambda _s, args, _r: {"windows": _size(args[1])
                               * len(args[0].metrics)}),
        (validator.Validator, "validate", "validate", None),
        (SuiteRunner, "run", "runner", None),
        (Sanitizer, "sanitize_result", "sanitize",
         lambda _s, _a, result: {"quarantined": len(result.quarantined)}),
        (Anubis, "plan", "plan",
         lambda _s, _a, result: {"skipped": not result.validates}),
        (queue.EventQueue, "push", "queue.push",
         lambda _s, _a, result: {"coalesced": not result[1]}),
        (queue.EventQueue, "pop", "queue.pop", None),
        (pool.ValidationPool, "validate", "pool.validate", None),
        (pool.ValidationPool, "run_benchmarks", "pool.sweep",
         lambda _s, _a, result: {
             "cells": len(result.runs),
             "retried": sum(run.attempts > 1 for run in result.runs)}),
        (store.JournalStore, "append", "journal.append", _journal_attrs),
        (store.JournalStore, "replay", "journal.replay",
         lambda _s, _a, result: {"records": len(result)}),
        (controlplane.ValidationService, "__init__", "service.recover", None),
        (controlplane.ValidationService, "tick", "service.tick", event_attr),
        (controlplane.ValidationService, "submit", "service.submit", None),
        (ShardSupervisor, "__init__", "fabric.build", None),
        (ShardSupervisor, "tick", "fabric.tick", None),
        (ShardSupervisor, "submit", "fabric.submit", None),
        (ShardSupervisor, "quiescent", "fabric.quiescent", None),
        (procfabric.ProcessFabric, "__init__", "fabric.build", None),
        (procfabric.ProcessFabric, "tick", "fabric.tick", None),
        (procfabric.ProcessFabric, "submit", "fabric.submit", None),
        (procfabric.ProcessFabric, "quiescent", "fabric.quiescent", None),
        (procfabric.ProcessFabric, "shutdown", "fabric.shutdown", None),
        (procfabric._WorkerHandle, "request", "rpc", rpc_attr),
        (procfabric._WorkerHandle, "spawn", "spawn",
         lambda handle, _a, _r: {"pid": handle.proc.pid}),
        (reader.JournalReader, "poll", "analytics.read",
         lambda _s, _a, result: {"records": len(result.records)}),
        (report, "build_report", "analytics.reduce", None),
        (report, "render_markdown", "analytics.reduce", None),
        (fabric, "build_shard", "builder", None),
    ]


def _wrap(recorder: Recorder, original, name: str, attrs, is_method: bool):
    journal = name == "journal.append"

    def wrapper(*args, **kwargs):
        before = 0
        if journal:
            try:
                before = args[0].path.stat().st_size
            except OSError:
                pass
        index = recorder.begin(name)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            extra = None
            if attrs is not None:
                owner, rest = (args[0], args[1:]) if is_method else (None, args)
                try:
                    extra = (attrs(owner, rest, result, before) if journal
                             else attrs(owner, rest, result))
                except Exception:
                    # The call raised, so its result has no attributes;
                    # its own exception is the one to propagate.
                    extra = None
            recorder.end(index, extra)

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    return wrapper


class Tracer:
    """Installs span wrappers on every layer; ``remove`` restores them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []
        for owner, attr, name, attrs in _targets():
            original = owner.__dict__[attr]
            is_method = isinstance(owner, type)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    _wrap(recorder, original, name, attrs, is_method))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def trace_worker(trace_dir: str) -> None:
    """Trace this (worker) process until it exits, then write its spans.

    Idempotent per process: a shard builder may run more than once in
    one worker.
    """
    global _WORKER
    if _WORKER is not None:
        return
    recorder = Recorder()
    _WORKER = Tracer(recorder)
    path = Path(trace_dir) / f"worker-{os.getpid()}.json"

    def dump():
        path.write_text(json.dumps({"pid": os.getpid(),
                                    "spans": recorder.spans}))

    atexit.register(dump)


_WORKER: Tracer | None = None


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------

def merge_workers(spans: list[list], trace_dir: Path) -> list[list]:
    """Append every worker's spans, re-parented under the parent-process
    RPC or spawn span (same pid) whose interval contains them."""
    merged = list(spans)
    calls: dict[int, list[tuple[float, float, int]]] = {}
    for index, (name, start, end, _parent, attrs) in enumerate(spans):
        if name in ("rpc", "spawn") and attrs and end is not None:
            calls.setdefault(attrs["pid"], []).append((start, end, index))
    for path in sorted(Path(trace_dir).glob("worker-*.json")):
        payload = json.loads(path.read_text())
        mine = sorted(calls.get(payload["pid"], []))
        starts = [start for start, _end, _index in mine]
        offset = len(merged)
        for name, start, end, parent, attrs in payload["spans"]:
            if end is None:  # open when the worker was told to drain
                end = start
            if parent >= 0:
                parent += offset
            else:
                # A worker's calls never overlap: the only candidate is
                # the last one that started before this span.
                slot = bisect.bisect_right(starts, start) - 1
                parent = (mine[slot][2] if slot >= 0
                          and end <= mine[slot][1] else -1)
            merged.append([name, start, end, parent, attrs])
    return merged


def event_ids(spans: list[list]) -> list[str | None]:
    """The event id of each span: its own, or its nearest ancestor's
    (parents precede their children)."""
    out: list[str | None] = []
    for _name, _start, _end, parent, attrs in spans:
        own = attrs.get("event") if attrs else None
        out.append(own or (out[parent] if parent >= 0 else None))
    return out
