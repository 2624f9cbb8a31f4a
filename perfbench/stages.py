"""One round of a workload: set-up, the build-out, then serving.

A round runs the same operations every time:

* **set-up** -- the 344-node build-out fleet and its Validator, the
  64-node serving fleet, its criteria fixture (learned from a small
  slice and saved to a file), the event backlog, and the shard fabric
  (two shards; on ``serve-processes`` two spawned workers);
* **learn** -- the full suite on every build-out node, then every
  (sku, benchmark, metric) namespace learned by the incremental engine
  at its default config;
* **screen** -- every build-out node validated against those criteria;
* **refresh** -- one node in ten measured again and the criteria
  re-learned (the delta path above ``exact_below``), three times over
  disjoint tenths;
* **submit** -- the backlog handed to the fabric (untimed end to end);
* **drain** -- supervisor ticks from the first to quiescence;
* **recovery** -- a new fabric over the drained journals, until it is
  quiescent and reports its state;
* **report** -- every shard journal read with ``JournalReader``, then
  ``build_report`` and ``render_markdown``.

Checks run between and after the phases, outside every timed region.
"""

from __future__ import annotations

import copy
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.analytics import JournalReader
from repro.analytics import report as report_mod
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import full_suite
from repro.core import distance
from repro.core.incremental import IncrementalConfig
from repro.core.persistence import save_criteria
from repro.core.validator import Validator
from repro.service import (ProcessFabric, ShardSupervisor, SupervisorConfig,
                           ValidationService)
from repro.service.store import RecordKind

from perfbench import checks, fabric, inputs

PHASES = ("setup", "learn", "screen", "refresh", "submit", "drain",
          "recovery", "report")


class RecordingRunner(SuiteRunner):
    """A runner that keeps the results of chosen nodes, for the scalar
    cross-check of the screening verdicts."""

    def __init__(self, *, seed: int):
        super().__init__(seed=seed)
        self.keep: set[str] = set()
        self.kept: dict[tuple[str, str], object] = {}

    def run(self, spec, node):
        result = super().run(spec, node)
        if node.node_id in self.keep:
            self.kept[(node.node_id, spec.name)] = result
        return result


# ----------------------------------------------------------------------
# The two transports
# ----------------------------------------------------------------------

class ThreadMode:
    """``ShardSupervisor``: shards are objects in this process."""

    name = "threads"

    def __init__(self, args: dict):
        self.args = args

    def open(self, root: Path):
        nodes = fabric.serve_fleet(int(self.args["fleet_seed"])).nodes
        return ShardSupervisor(
            lambda: fabric.build_shard(self.args)[0], nodes,
            journal_root=root,
            config=SupervisorConfig(
                shard_count=inputs.SHARDS,
                service=fabric.service_config(full_suite())))

    @staticmethod
    def submit(fab, event):
        return [(index, entry.event_id, bool(getattr(entry, "shed", False)))
                for index, entry in fab.submit(event).items()]

    @staticmethod
    def tick(fab):
        return [(result.failed, len(result.quarantined))
                for result in fab.tick()]

    @staticmethod
    def completed(fab) -> int:
        return sum(shard.service.metrics.events_processed
                   for shard in fab.shards)

    @staticmethod
    def close(fab) -> list[str]:
        fab.seal()
        return []

    @staticmethod
    def states(fab, _root: Path) -> dict:
        return {shard.index: lifecycle_states(shard.service)
                for shard in fab.shards}


class ProcessMode:
    """``ProcessFabric``: one spawned worker process per shard."""

    name = "processes"

    def __init__(self, args: dict):
        self.args = args

    def open(self, root: Path):
        return ProcessFabric(builder="perfbench.fabric:build_shard",
                             builder_args=self.args, journal_root=root,
                             config=SupervisorConfig(
                                 shard_count=inputs.SHARDS))

    @staticmethod
    def submit(fab, event):
        return [(index, reply.get("event_id"), bool(reply.get("shed")))
                for index, reply in fab.submit(event).items()]

    @staticmethod
    def tick(fab):
        return [(result["failed"], len(result["quarantined"]))
                for result in fab.tick()]

    @staticmethod
    def completed(fab) -> int:
        return sum(entry["events_processed"]
                   for entry in fab.summary()["shards"].values())

    @staticmethod
    def close(fab) -> list[str]:
        sealed = fab.shutdown()
        return [f"worker {index} did not drain cleanly"
                for index, clean in sorted(sealed.items()) if not clean]

    def states(self, _fab, root: Path) -> dict:
        """Workers do not report node states, so each drained shard
        journal is copied and replayed here by the code a worker
        recovers with: the shard builder, then a ``ValidationService``
        over the copy."""
        args = {**self.args, "trace_dir": None}
        copies = root.parent / "replayed"
        states = {}
        for path in sorted(root.glob("shard-*")):
            shutil.copytree(path, copies / path.name)
            anubis, nodes, config = fabric.build_shard(args)
            service = ValidationService(anubis, nodes,
                                        journal_dir=copies / path.name,
                                        config=config)
            states[int(path.name.split("-")[1])] = lifecycle_states(service)
        shutil.rmtree(copies)
        return states


MODES = {"serve-threads": ThreadMode, "serve-processes": ProcessMode}


def lifecycle_states(service) -> dict[str, str]:
    return {node_id: state.value
            for node_id, state in service.lifecycle.states().items()}


def read_journals(root: Path) -> dict[int, list]:
    return {int(path.name.split("-")[1]): JournalReader(path).read_all()
            for path in sorted(Path(root).glob("shard-*"))}


def drained_states(journals) -> dict:
    """Node states per shard as the drained fabric left them, folded
    from the records before each journal's first ``fabric-drain``."""
    before = {}
    for shard, records in journals.items():
        drain = next((index for index, record in enumerate(records)
                      if record.kind == RecordKind.FABRIC_DRAIN),
                     len(records))
        before[shard] = checks.node_states(records[:drain])
    return before


def journal_bytes(root: Path) -> int:
    return sum(path.stat().st_size
               for path in Path(root).glob("shard-*/journal.jsonl"))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

@dataclass
class Setup:
    """Everything one round's timed phases need."""

    mode: object
    fleet: object
    validator: Validator
    events: list
    serve_nodes: list
    root: Path
    fab: object


def setup(workload: str, seeds: inputs.Seeds, workdir: Path,
          trace_dir: Path | None = None) -> Setup:
    """Build one round's inputs and fabric under ``workdir``."""
    workdir.mkdir(parents=True)
    suite = full_suite()
    fleet = inputs.mixed_fleet(inputs.BUILDOUT_SKUS, seeds.buildout_fleet)
    validator = Validator(suite,
                          runner=RecordingRunner(seed=seeds.buildout_runner),
                          incremental=IncrementalConfig())
    serve_nodes = fabric.serve_fleet(seeds.serve_fleet).nodes
    fixture = Validator(suite, runner=SuiteRunner(seed=seeds.serve_runner))
    fixture.learn_criteria(inputs.criteria_slice(serve_nodes))
    criteria_path = workdir / "criteria.json"
    save_criteria(fixture, criteria_path)
    events = inputs.make_events(
        serve_nodes, inputs.status_dataset(seeds.incident_trace),
        seeds.events)
    mode_class = MODES[workload]
    # Only worker processes trace themselves; in-process shards are
    # covered by the caller's tracer.
    mode = mode_class(fabric.builder_args(
        seeds, criteria_path,
        trace_dir if mode_class is ProcessMode else None))
    root = workdir / "journals"
    return Setup(mode=mode, fleet=fleet, validator=validator, events=events,
                 serve_nodes=serve_nodes, root=root, fab=mode.open(root))


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------

@dataclass
class Round:
    """What one round measured and found: ``seconds`` holds each
    phase's durations (the short phases run more than once)."""

    seconds: dict[str, list[float]] = field(default_factory=dict)
    tick_seconds: list[float] = field(default_factory=list)
    verdicts: int = 0
    journal_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


#: Refreshes (over disjoint tenths) per round: the phase lasts about a
#: second, where this host's timing noise is largest, so each round
#: measures it three times.
REFRESHES = 3


@contextmanager
def _phase(round_: Round, name: str, recorder):
    start = time.perf_counter()
    if recorder is None:
        yield
    else:
        with recorder.phase(name):
            yield
    round_.seconds.setdefault(name, []).append(time.perf_counter() - start)


def run_round(env: Setup, seeds: inputs.Seeds, setup_seconds: float,
              recorder=None) -> Round:
    """The timed phases of one round on ``env``, then its checks."""
    out = Round(seconds={"setup": [setup_seconds]})
    validator, nodes = env.validator, env.fleet.nodes
    runner = validator.runner
    suite = validator.suite
    truth = checks.ground_truth(suite, nodes)

    with _phase(out, "learn", recorder):
        results = {}
        for spec in suite:
            results[spec.name] = runner.run_on_nodes(spec, nodes)
            validator.learn_criteria_from_results(spec, results[spec.name])

    runner.keep = inputs.crosscheck_nodes(nodes, seeds.crosscheck)
    with _phase(out, "screen", recorder):
        screen = validator.validate(nodes)
    runner.keep = set()
    out.failures += checks.check_detection(truth, screen.defective_nodes)
    out.failures += checks.check_sku(
        ((v.node_id, v.sku) for v in screen.violations), truth)
    out.failures += checks.check_similarity(
        crosscheck_windows(validator, runner.kept, screen, seeds.crosscheck),
        validator.alpha)

    for tenth in inputs.remeasured(nodes, seeds.remeasure, REFRESHES):
        with _phase(out, "refresh", recorder):
            for spec in suite:
                results[spec.name] = dict(results[spec.name])
                for node in tenth:
                    results[spec.name][node.node_id] = runner.run(spec, node)
                validator.learn_criteria_from_results(spec,
                                                      results[spec.name])
        out.failures += refresh_failures(validator, results, tenth, truth,
                                         env.fleet.sku_counts())

    mode, fab = env.mode, env.fab
    with _phase(out, "submit", recorder):
        parts = [part for event in env.events
                 for part in mode.submit(fab, event)]
    with _phase(out, "drain", recorder):
        quarantined = failed_ticks = 0
        while not fab.quiescent():
            start = time.perf_counter()
            verdicts = mode.tick(fab)
            elapsed = time.perf_counter() - start
            for failed, count in verdicts:
                failed_ticks += failed
                quarantined += count
                out.verdicts += not failed
            if any(not failed for failed, _count in verdicts):
                out.tick_seconds.append(elapsed)
    out.journal_bytes = journal_bytes(env.root)
    before = {"completed": mode.completed(fab)}
    out.failures += mode.close(fab)
    if mode.name == "threads":
        before["states"] = mode.states(fab, env.root)

    with _phase(out, "recovery", recorder):
        recovered = mode.open(env.root)
        quiescent = recovered.quiescent()
        after = {"completed": mode.completed(recovered)}
    out.failures += mode.close(recovered)
    after["states"] = mode.states(recovered, env.root)

    with _phase(out, "report", recorder):
        readers = [JournalReader(path)
                   for path in sorted(env.root.glob("shard-*"))]
        records = [record for reader in readers
                   for record in reader.read_all()]
        health = {"corrupt_lines": sum(r.corrupt_lines for r in readers),
                  "unknown_kinds": {kind: count for reader in readers
                                    for kind, count
                                    in reader.unknown_kinds.items()}}
        fleet_report = report_mod.build_report(
            records, fleet_size=len(env.serve_nodes), journal_health=health)
        report_mod.render_markdown(fleet_report)
    out.failures += checks.check_report(fleet_report, out.verdicts,
                                        quarantined)

    # -- the serving checks (untimed) ------------------------------------
    journals = read_journals(env.root)
    if mode.name == "processes":
        before["states"] = drained_states(journals)
    out.failures += checks.check_recovery(before, after, quiescent)
    serve_truth = checks.ground_truth(suite, env.serve_nodes)
    execution_failures = sum(v.reason.startswith("execution-failure")
                             for v in screen.violations)
    shed = sum(part[2] for part in parts)
    dead = sum(record.kind == RecordKind.EVENT_DEAD_LETTERED
               for records in journals.values() for record in records)
    out.attempted = (int(runner.stats.snapshot()["execute"]["count"])
                     + len(parts))
    out.failed = execution_failures + shed + dead + failed_ticks
    out.failures += checks.check_accounting(
        {(shard, event_id) for shard, event_id, _shed in parts}, journals)
    out.failures += checks.check_verdicts(journals, serve_truth)
    if mode.name == "processes":
        out.failures += checks.check_sealed(journals)
    return out


def crosscheck_windows(validator, screened, screen, seed: int):
    """The Validator's and the scalar reference's similarity for a
    seeded sample of screened windows.

    The Validator's similarity is read through its own public
    ``check_results`` with alpha raised to 1, which files a violation
    (carrying the similarity) for every scored window.
    """
    probe = copy.copy(validator)
    probe.alpha = 1.0
    flagged = {(v.node_id, v.benchmark, v.metric) for v in screen.violations}
    rows = []
    for (node_id, benchmark), result in sorted(screened.items()):
        spec = validator.spec(benchmark)
        for violation in probe.check_results(spec, [result]):
            if violation.reason != "below-threshold":
                continue
            key = (node_id, benchmark, violation.metric)
            reference = validator.criteria[(result.sku, benchmark,
                                            violation.metric)]
            rows.append({
                "key": "/".join(key),
                "validator": violation.similarity,
                "sample": result.sample(violation.metric),
                "criteria": reference.criteria,
                "higher_is_better": reference.higher_is_better,
                "flagged": key in flagged,
            })
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(rows), size=min(inputs.CROSSCHECK_WINDOWS,
                                            len(rows)), replace=False)
    sample = [rows[int(i)] for i in sorted(chosen)]
    for row in sample:
        row["scalar"] = distance.one_sided_similarity(
            row.pop("sample"), row.pop("criteria"),
            higher_is_better=row.pop("higher_is_better"))
    return sample


def refresh_failures(validator, results, again, truth, sku_counts):
    paths = {key: state.path
             for key, state in validator.criteria_states.items()}
    flagged = set()
    for spec in validator.suite:
        mine = [results[spec.name][node.node_id] for node in again]
        flagged |= {v.node_id for v in validator.check_results(spec, mine)}
    return checks.check_refresh(
        paths, sku_counts, validator.incremental.exact_below, truth,
        [node.node_id for node in again], flagged)
