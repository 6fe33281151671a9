"""Sharded multi-process serving fleet (docs/FLEET.md).

Breaks the single-process gateway's GIL throughput cap by running N
worker processes — each a bare ``CostInferenceService`` loaded from a
registry checkpoint — behind a consistent-hash tenant router that admits
and answers every request in the parent (per-shard breakers and pacers,
deadline budgets), with staged registry-driven promotes, crash
containment, and merged fleet telemetry.
"""

from repro.fleet.fleet import ServingFleet, WorkerCrashError
from repro.fleet.router import ConsistentHashRouter
from repro.fleet.telemetry import merge_snapshots

__all__ = [
    "ConsistentHashRouter",
    "ServingFleet",
    "WorkerCrashError",
    "merge_snapshots",
]
