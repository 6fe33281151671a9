"""Plan decomposition into shuffle-bounded stages.

MaxCompute decomposes a physical plan into a tree of stages at operators
requiring data reshuffling (Section 2.1).  Each stage is an intra-machine
pipeline of operators; edges are data dependencies.  The stage is the atomic
unit of resource allocation, so all plan nodes within one stage share one
execution-environment sample — exactly the granularity LOAM's environment
features are logged at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.warehouse.costmodel import COST, CostConstants, intrinsic_node_cost, stage_parallelism
from repro.warehouse.operators import ExchangeNode, PlanNode
from repro.warehouse.plan import PhysicalPlan

__all__ = ["Stage", "StageGraph", "decompose_into_stages"]


@dataclass
class Stage:
    """A pipeline of operators executed by one set of parallel instances."""

    stage_id: int
    nodes: list[PlanNode] = field(default_factory=list)
    upstream: list[int] = field(default_factory=list)  # stages this one consumes

    def input_rows(self, *, field_name: str = "true_rows") -> float:
        """Rows entering the stage: the max over its leaf operators' outputs
        (scans read raw rows; exchanges deliver their producer's output)."""
        rows = 1.0
        for node in self.nodes:
            raw = getattr(node, f"raw_{field_name}", None)
            rows = max(rows, raw if raw is not None else getattr(node, field_name))
        return rows

    def intrinsic_cost(self, *, field_name: str = "true_rows", constants: CostConstants = COST) -> float:
        return sum(
            intrinsic_node_cost(node, field=field_name, constants=constants)
            for node in self.nodes
        )

    def parallelism(self, *, field_name: str = "true_rows", constants: CostConstants = COST) -> int:
        return stage_parallelism(self.input_rows(field_name=field_name), constants)


@dataclass
class StageGraph:
    """All stages of one plan, topologically ordered (upstream first)."""

    stages: list[Stage]

    def topological_order(self) -> list[Stage]:
        return self.stages  # construction order is already upstream-first


def decompose_into_stages(plan: PhysicalPlan) -> StageGraph:
    """Split the plan at Exchange boundaries.

    An Exchange belongs to its *producer* stage (the shuffle write); the
    consumer stage starts above it.  Every node's ``stage_id`` annotation is
    set as a side effect.
    """
    stages: list[Stage] = []

    def new_stage() -> Stage:
        stage = Stage(stage_id=len(stages))
        stages.append(stage)
        return stage

    def assign(node: PlanNode, stage: Stage) -> None:
        # Children first so stage ids are upstream-first (children of an
        # Exchange land in their own earlier stage).
        for child in node.children:
            if isinstance(node, ExchangeNode):
                # The exchange and everything below it is the producer side.
                assign(child, stage)
            elif isinstance(child, ExchangeNode):
                child_stage = new_stage()
                assign(child, child_stage)
                stage.upstream.append(child_stage.stage_id)
            else:
                assign(child, stage)
        node.stage_id = stage.stage_id
        stage.nodes.append(node)

    root_stage = new_stage()
    assign(plan.root, root_stage)

    # Reorder so upstream stages come first (root stage was created first).
    order: list[int] = []
    seen: set[int] = set()

    def visit(stage_id: int) -> None:
        if stage_id in seen:
            return
        seen.add(stage_id)
        for up in stages[stage_id].upstream:
            visit(up)
        order.append(stage_id)

    visit(0)
    for stage in stages:
        visit(stage.stage_id)

    remap = {old: new for new, old in enumerate(order)}
    reordered = [stages[old] for old in order]
    for stage in reordered:
        stage.stage_id = remap[stage.stage_id]
        stage.upstream = [remap[u] for u in stage.upstream]
        for node in stage.nodes:
            node.stage_id = stage.stage_id
    return StageGraph(stages=reordered)
