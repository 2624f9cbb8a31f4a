"""Seeded inputs: every workload input is derived from ``--seed`` here.

The program under test receives only what these functions generate --
fleets, the event backlog and the sample of windows the scalar
cross-check re-scores -- never the seed itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.selector import NodeStatus
from repro.core.system import EventKind, ValidationEvent
from repro.hardware.fleet import Fleet, build_fleet
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples

#: Nodes per hardware class.  In the build-out the A100 namespace sits
#: above ``IncrementalConfig.exact_below`` (256), so it learns on the
#: sketch path and refreshes on the delta path, while H100 and MI250X
#: stay on the exact Algorithm 2 path.
BUILDOUT_SKUS = {"A100": 264, "H100": 48, "MI250X": 32}
SERVE_SKUS = {"A100": 38, "H100": 16, "MI250X": 10}
#: Share of the build-out fleet measured again before the refresh.
REMEASURE_FRACTION = 0.1
#: Build-out nodes whose screening results the scalar cross-check
#: keeps, and the number of their windows it re-scores.
CROSSCHECK_NODES = 32
CROSSCHECK_WINDOWS = 256

SERVE_EVENTS = 40
SHARDS = 2
#: Nodes per SKU the fabric's criteria fixture is learned from.
SLICE_PER_SKU = 6

#: Event kinds, cycled: job allocations go through the Selector, the
#: other three kinds run the full suite.
EVENT_KINDS = (EventKind.JOB_ALLOCATION, EventKind.JOB_ALLOCATION,
               EventKind.INCIDENT_REPORTED, EventKind.NODE_ADDED,
               EventKind.SOFTWARE_UPGRADED)


@dataclass(frozen=True)
class Seeds:
    """Independent sub-seeds of one ``--seed``."""

    buildout_fleet: int
    buildout_runner: int
    remeasure: int
    crosscheck: int
    serve_fleet: int
    serve_runner: int
    events: int
    incident_trace: int

    @classmethod
    def derive(cls, seed: int, round_index: int) -> "Seeds":
        """The sub-seeds of one round of a run.  Any integer is a seed:
        a negative one is taken modulo 2**64, as ``SeedSequence`` takes
        only non-negative entropy."""
        state = np.random.SeedSequence([int(seed) % 2**64, int(round_index)])
        return cls(*(int(value) for value in state.generate_state(8)))


def mixed_fleet(counts: dict[str, int], seed: int) -> Fleet:
    """A fleet with exactly ``counts`` nodes of each hardware class.

    A build-out buys known quantities of each SKU, so the counts are
    fixed; the seed draws each node's position, silicon spread and
    defects.  Each class comes from ``build_fleet`` with a one-SKU mix
    (so it gets that class's spread and defect envelope); the nodes are
    then interleaved and numbered in fleet order.
    """
    size = sum(counts.values())
    seeds = np.random.SeedSequence(seed).generate_state(len(counts) + 1)
    nodes = []
    for (sku, count), sku_seed in zip(sorted(counts.items()), seeds):
        nodes += build_fleet(count, seed=int(sku_seed),
                             sku_mix={sku: 1.0}).nodes
    order = np.random.default_rng(int(seeds[-1])).permutation(size)
    width = max(len(str(size - 1)), 4)
    fleet = [nodes[int(i)] for i in order]
    for index, node in enumerate(fleet):
        node.node_id = f"node-{index:0{width}d}"
    return Fleet(nodes=fleet)


def status_dataset(trace_seed: int):
    """Survival covariates the Selector and the event statuses share."""
    return extract_status_samples(generate_incident_trace(50, 800.0,
                                                          seed=trace_seed))


def make_events(nodes, dataset, seed: int,
                count: int = SERVE_EVENTS) -> list[ValidationEvent]:
    """The event backlog: each event touches 2, 3 or 4 random nodes
    (sizes and kinds cycle, so every seed has the same mix)."""
    rng = np.random.default_rng(seed)
    events = []
    for sequence in range(count):
        size = 2 + sequence % 3
        indices = rng.choice(len(nodes), size=size, replace=False)
        chosen = tuple(nodes[int(i)] for i in indices)
        statuses = tuple(
            NodeStatus(node_id=node.node_id,
                       covariates=dataset.covariates[int(i) % len(dataset)])
            for i, node in zip(indices, chosen))
        events.append(ValidationEvent(
            kind=EVENT_KINDS[sequence % len(EVENT_KINDS)], nodes=chosen,
            statuses=statuses, duration_hours=24.0))
    return events


def criteria_slice(nodes) -> list:
    """The first ``SLICE_PER_SKU`` nodes of every SKU, in fleet order."""
    taken: dict[str, int] = {}
    picked = []
    for node in nodes:
        if taken.get(node.sku, 0) < SLICE_PER_SKU:
            taken[node.sku] = taken.get(node.sku, 0) + 1
            picked.append(node)
    return picked


def remeasured(nodes, seed: int, count: int) -> list[list]:
    """``count`` disjoint sets of one node in ten, chosen by seed, each
    in fleet order."""
    order = np.random.default_rng(seed).permutation(len(nodes))
    size = max(1, int(round(REMEASURE_FRACTION * len(nodes))))
    return [[nodes[i] for i in sorted(order[k * size:(k + 1) * size])]
            for k in range(count)]


def crosscheck_nodes(nodes, seed: int) -> set[str]:
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(nodes), size=min(CROSSCHECK_NODES, len(nodes)),
                        replace=False)
    return {nodes[int(i)].node_id for i in picked}
