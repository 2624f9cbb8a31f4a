"""The shard builder both fabrics share.

``ProcessFabric`` resolves ``perfbench.fabric:build_shard`` inside each
worker process; the thread fabric calls the same function for each
shard's ``Anubis`` and takes its fleet and service configuration from
the same helpers.  One function means the two transports run
byte-for-byte the same shard.
"""

from __future__ import annotations

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import full_suite
from repro.core.persistence import load_criteria
from repro.core.selector import Selector
from repro.core.system import Anubis
from repro.core.validator import Validator
from repro.quality import Sanitizer
from repro.service import PoolConfig, ServiceConfig
from repro.simulation import analytic_coverage_table, suite_durations
from repro.survival.exponential import ExponentialModel

from perfbench.inputs import SERVE_SKUS, mixed_fleet, status_dataset



def builder_args(seeds, criteria_path, trace_dir=None) -> dict:
    """The JSON arguments of :func:`build_shard` for one run."""
    return {"fleet_seed": seeds.serve_fleet,
            "runner_seed": seeds.serve_runner,
            "trace_seed": seeds.incident_trace,
            "criteria_path": str(criteria_path),
            "trace_dir": None if trace_dir is None else str(trace_dir)}


def serve_fleet(fleet_seed: int):
    return mixed_fleet(SERVE_SKUS, fleet_seed)


def service_config(suite) -> ServiceConfig:
    """The stock pool pinned to one worker, whatever ``REPRO_WORKERS``
    says: with two shards on a two-CPU host a wider pool only adds
    contention (see README.md).  The stock sanitizer for the suite."""
    return ServiceConfig(pool=PoolConfig(max_workers=1),
                         sanitizer=Sanitizer.for_suite(
                             suite, skus=sorted(SERVE_SKUS)))


def build_shard(args: dict):
    """``(anubis, nodes, service_config)`` for one shard."""
    if args.get("trace_dir"):
        from perfbench.trace import trace_worker
        trace_worker(args["trace_dir"])
    suite = full_suite()
    validator = Validator(suite,
                          runner=SuiteRunner(seed=int(args["runner_seed"])))
    load_criteria(validator, args["criteria_path"])
    dataset = status_dataset(int(args["trace_seed"]))
    selector = Selector(ExponentialModel().fit(dataset),
                        analytic_coverage_table(suite), suite_durations(suite),
                        p0=0.05)
    fleet = serve_fleet(int(args["fleet_seed"]))
    return Anubis(validator, selector), fleet.nodes, service_config(suite)
