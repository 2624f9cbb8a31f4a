"""Correctness checks against ground truth computed apart from the code
under test.

Each check is a pure function over plain outputs and returns the list
of failures it found (empty when the output is correct), so the
self-tests in ``test_perfbench.py`` can feed it corrupted outputs.
Ground truth comes from the simulator's injected defects
(:func:`repro.simulation.coverage.detection_map`) and from the scalar
Eq. (2)-(4) reference in :mod:`repro.core.distance`, never from the
Validator or the service.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.hardware.components import DEFECT_CATALOG, DefectMode
from repro.service.store import RecordKind
from repro.simulation.coverage import detection_map

#: Largest share of nodes without an injected defect that screening may
#: flag.  Criteria at alpha = 0.95 put about 5% of a healthy
#: namespace's windows below the threshold, and a node is flagged when
#: any of its ~50 windows is; 10% leaves room for that tail.
FALSE_POSITIVE_BOUND = 0.10
#: Tolerance of the scalar cross-check (similarity and alpha band).
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Truth:
    """Ground truth of one node."""

    sku: str
    injected: bool
    detectable_by: frozenset


def ground_truth(suite, nodes) -> dict[str, Truth]:
    """Node id -> truth: which suite benchmarks detect the injected
    defects at the severity this node actually received."""
    category = DEFECT_CATALOG[0].category
    truth = {}
    for node in nodes:
        detectors: frozenset = frozenset()
        if node.health:
            mode = DefectMode(name=node.node_id, components=dict(node.health),
                              category=category, rate=0.0)
            detectors = frozenset(
                detection_map(suite, catalog=(mode,))[node.node_id])
        truth[node.node_id] = Truth(sku=node.sku,
                                    injected=bool(node.defects),
                                    detectable_by=detectors)
    return truth


def check_detection(truth: dict[str, Truth], flagged) -> list[str]:
    """Every detectable defect is flagged; false positives stay bounded."""
    flagged = set(flagged)
    failures = [f"detectable defect on {node_id} not flagged"
                for node_id, node in sorted(truth.items())
                if node.detectable_by and node_id not in flagged]
    clean = [node_id for node_id, node in truth.items() if not node.injected]
    false_positives = sum(node_id in flagged for node_id in clean)
    if clean and false_positives > FALSE_POSITIVE_BOUND * len(clean):
        failures.append(f"{false_positives} of {len(clean)} nodes without "
                        f"an injected defect flagged")
    return failures


def check_sku(violations, truth: dict[str, Truth]) -> list[str]:
    """Every violation is filed under its node's own SKU.

    ``violations`` holds ``(node_id, sku)`` pairs.
    """
    return [f"violation on {node_id} filed under {sku}, node is "
            f"{truth[node_id].sku}"
            for node_id, sku in violations if truth[node_id].sku != sku]


def check_similarity(windows, alpha: float) -> list[str]:
    """The Validator agrees with the scalar reference on every window.

    ``windows`` holds dicts with ``key``, ``validator`` (the Validator's
    similarity), ``scalar`` (the reference's) and ``flagged`` (whether
    screening reported a violation for that window).  The verdict must
    match wherever the similarity is farther than the tolerance from
    alpha.
    """
    failures = []
    for window in windows:
        key, ours, ref = window["key"], window["validator"], window["scalar"]
        if abs(ours - ref) > TOLERANCE:
            failures.append(f"{key}: similarity {ours!r} vs scalar {ref!r}")
        if abs(ref - alpha) > TOLERANCE and window["flagged"] != (ref <= alpha):
            failures.append(f"{key}: verdict {window['flagged']} but scalar "
                            f"similarity {ref!r} against alpha {alpha}")
    return failures


def check_refresh(paths: dict, sku_counts: dict, exact_below: int,
                  truth: dict[str, Truth], remeasured, flagged) -> list[str]:
    """The refresh took the delta path on every namespace above
    ``exact_below`` and still flags every detectable defect among the
    nodes measured again.

    ``paths`` maps ``(sku, benchmark, metric)`` to the engine path of
    the refresh; ``flagged`` holds the re-measured nodes the refreshed
    criteria flag.
    """
    failures = []
    above = {sku for sku, count in sku_counts.items() if count > exact_below}
    if not above or len(above) == len(sku_counts):
        failures.append(f"SKU sizes {sku_counts} do not straddle "
                        f"exact_below={exact_below}")
    for key, path in sorted(paths.items()):
        if key[0] in above and path != "delta":
            failures.append(f"{'/'.join(key)} refreshed on the {path} path")
    flagged = set(flagged)
    failures += [f"refreshed criteria miss the defect on {node_id}"
                 for node_id in remeasured
                 if truth[node_id].detectable_by and node_id not in flagged]
    return failures


def check_accounting(accepted, journals) -> list[str]:
    """Every accepted event part completes exactly once.

    ``accepted`` is the set of ``(shard, event_id)`` the fabric handed
    back on submit; ``journals`` maps shard index to its records.
    """
    completed: Counter = Counter()
    failures = []
    for shard, records in journals.items():
        for record in records:
            if record.kind == RecordKind.EVENT_COMPLETED:
                completed[(shard, int(record.payload["event_id"]))] += 1
            elif record.kind in (RecordKind.EVENT_DEAD_LETTERED,
                                 RecordKind.LOAD_SHED):
                failures.append(f"shard {shard}: {record.kind} for event "
                                f"{record.payload.get('event_id')}")
    for part in sorted(set(accepted) | set(completed)):
        if completed[part] != 1 or part not in accepted:
            failures.append(f"event part {part}: accepted="
                            f"{part in accepted}, completed "
                            f"{completed[part]} times")
    return failures


def completed_events(journals):
    """``(shard, payload)`` of every ``event-completed`` record."""
    return [(shard, record.payload)
            for shard, records in sorted(journals.items())
            for record in records
            if record.kind == RecordKind.EVENT_COMPLETED]


def check_verdicts(journals, truth: dict[str, Truth]) -> list[str]:
    """In every completed validation, each validated node whose defect a
    benchmark that ran can detect is in the event's ``defective`` list,
    and every violation carries its node's SKU."""
    failures = []
    for shard, payload in completed_events(journals):
        ran = set(payload.get("benchmarks_run", []))
        defective = set(payload.get("defective", []))
        for node_id in payload.get("validated_nodes", []):
            if truth[node_id].detectable_by & ran and node_id not in defective:
                failures.append(f"shard {shard} event {payload['event_id']}: "
                                f"detectable defect on {node_id} passed")
        failures += check_sku(((v[0], v[4]) for v in payload["violations"]),
                              truth)
    return failures


def node_states(records) -> dict[str, str]:
    """Final lifecycle state per node, folded from transition records."""
    states = {}
    for record in records:
        if record.kind == RecordKind.TRANSITION:
            states[record.payload["node_id"]] = record.payload["new"]
    return states


def check_recovery(before: dict, after: dict, quiescent: bool) -> list[str]:
    """The recovered fabric is quiescent and reports what the drained one
    did: completed-event count and node states."""
    failures = [] if quiescent else ["recovered fabric is not quiescent"]
    for field in ("completed", "states"):
        if before[field] != after[field]:
            failures.append(f"{field} differ across the restart")
    return failures


def check_report(report: dict, verdicts: int, quarantined: int) -> list[str]:
    """The fleet report agrees with what the ticks returned."""
    journal = report["journal"]
    failures = []
    completed = journal["by_kind"].get(RecordKind.EVENT_COMPLETED.value, 0)
    if completed != verdicts:
        failures.append(f"report counts {completed} completed events, "
                        f"ticks returned {verdicts}")
    if report["service"]["nodes_quarantined"] != quarantined:
        failures.append(f"report counts "
                        f"{report['service']['nodes_quarantined']} "
                        f"quarantines, ticks returned {quarantined}")
    if journal.get("corrupt_lines", 0):
        failures.append(f"{journal['corrupt_lines']} corrupt journal lines")
    if journal.get("unknown_kinds"):
        failures.append(f"unknown record kinds {journal['unknown_kinds']}")
    return failures


def check_sealed(journals) -> list[str]:
    """Every worker journal ends with a ``fabric-drain`` record."""
    return [f"shard {shard} journal does not end sealed"
            for shard, records in sorted(journals.items())
            if not records or records[-1].kind != RecordKind.FABRIC_DRAIN]
