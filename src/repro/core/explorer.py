"""The steering plan explorer (Section 3).

For each query the explorer asks the *native* optimizer for a set of diverse
candidate plans: once per toggled optimizer flag (Bao-style) and once per
cardinality-scaling factor for queries with at least three inputs
(Lero-style).  The default (unsteered) plan is always included.  Structural
duplicates are removed, and at evaluation time only the top-k candidates by
the native optimizer's rough cost estimate are retained (Section 7.1 keeps
the top 5).

LOAM is agnostic to the exploration strategy: any callable producing
(provenance, knobs) pairs can be plugged in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.warehouse.flags import CARDINALITY_SCALES, OPTIMIZER_FLAGS, OptimizerFlags
from repro.warehouse.optimizer import NativeOptimizer
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import Query

__all__ = ["PlanExplorer", "ExplorationResult"]


@dataclass
class ExplorationResult:
    """Candidate plans plus generation overhead (reported in Section 7.2.1)."""

    plans: list[PhysicalPlan]
    generation_seconds: float
    #: Native-optimizer plannings behind ``plans`` (before deduplication).
    optimize_calls: int = 0

    @property
    def default_plan(self) -> PhysicalPlan:
        for plan in self.plans:
            if plan.is_default:
                return plan
        raise LookupError("exploration result lost the default plan")


class PlanExplorer:
    """Generates diverse candidate plans by steering the native optimizer.

    ``flag_pairs=True`` enables the diversified exploration the paper's
    Section 7.3 points to as the lever for larger fleet-wide gains: in
    addition to single-flag toggles, every pair of flags is tried.  The
    candidate pool grows from ~9 to ~24 plans before deduplication, at
    proportionally higher plan-generation cost.
    """

    def __init__(
        self,
        optimizer: NativeOptimizer,
        *,
        flags: tuple[str, ...] = OPTIMIZER_FLAGS,
        cardinality_scales: tuple[float, ...] = CARDINALITY_SCALES,
        min_tables_for_scaling: int = 3,
        flag_pairs: bool = False,
    ) -> None:
        unknown = set(flags) - set(OPTIMIZER_FLAGS)
        if unknown:
            raise ValueError(f"unknown optimizer flags: {sorted(unknown)}")
        self.optimizer = optimizer
        self.flags = flags
        self.cardinality_scales = cardinality_scales
        self.min_tables_for_scaling = min_tables_for_scaling
        self.flag_pairs = flag_pairs
        # The knob settings are the same for every query (only the scaled
        # ones depend on its size): built once, not once per explore().
        default = OptimizerFlags()
        self._flag_knobs = [("default", default, 1.0)]
        self._flag_knobs += [(f"flag:{flag}", default.toggled(flag), 1.0) for flag in flags]
        if flag_pairs:
            for i, first in enumerate(flags):
                for second in flags[i + 1 :]:
                    self._flag_knobs.append(
                        (f"flags:{first}+{second}", default.toggled(first).toggled(second), 1.0)
                    )
        self._scale_knobs = [(f"cardscale:{scale}", default, scale) for scale in cardinality_scales]

    def _knobs(self, query: Query) -> list[tuple[str, OptimizerFlags, float]]:
        """The ``(provenance, flags, cardinality scale)`` settings tried for
        ``query``, the unsteered default first."""
        if query.n_tables >= self.min_tables_for_scaling:
            return self._flag_knobs + self._scale_knobs
        return self._flag_knobs

    def explore(self, query: Query, *, top_k: int | None = None) -> ExplorationResult:
        """Produce deduplicated candidates; optionally prune to ``top_k``
        (the default plan is never pruned).  All candidates come from one
        planning context, so what no knob changes is computed once."""
        started = time.perf_counter()
        planner = self.optimizer.planner(query)
        candidates = [
            planner.optimize(flags=flags, cardinality_scale=scale, provenance=provenance)
            for provenance, flags, scale in self._knobs(query)
        ]
        plans = self._deduplicate(candidates)
        if top_k is not None and len(plans) > top_k:
            plans = self._prune(plans, top_k, planner.estimated_cost)
        return ExplorationResult(
            plans=plans,
            generation_seconds=time.perf_counter() - started,
            optimize_calls=len(candidates),
        )

    def candidates(self, query: Query, *, top_k: int | None = None) -> list[PhysicalPlan]:
        return self.explore(query, top_k=top_k).plans

    @staticmethod
    def _deduplicate(plans: list[PhysicalPlan]) -> list[PhysicalPlan]:
        seen: set = set()
        unique = []
        for plan in plans:
            signature = plan.structural_signature()
            if signature in seen:
                continue
            seen.add(signature)
            unique.append(plan)
        return unique

    @staticmethod
    def _prune(plans: list[PhysicalPlan], top_k: int, estimated_cost) -> list[PhysicalPlan]:
        """Keep the default plan plus the (top_k - 1) candidates with the
        lowest native rough cost estimates."""
        default = [p for p in plans if p.is_default]
        steered = [p for p in plans if not p.is_default]
        steered.sort(key=estimated_cost)
        return default + steered[: max(0, top_k - len(default))]
