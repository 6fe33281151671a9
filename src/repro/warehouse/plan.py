"""Physical plans: the optimizer's output and the unit LOAM reasons about."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.warehouse.operators import PlanNode
from repro.warehouse.query import Query

__all__ = ["PhysicalPlan"]


@dataclass
class PhysicalPlan:
    """An operator tree bound to the query it answers.

    ``provenance`` records how the plan was produced: ``"default"`` for the
    native optimizer's unsteered output, ``"flag:<name>"`` for a toggled
    optimizer flag, and ``"cardscale:<factor>"`` for Lero-style cardinality
    scaling.  The LOAM domain classifier learns to tell default plans from
    steered candidates by their feature distribution, so provenance is also
    the domain label during adaptive training.
    """

    root: PlanNode
    query: Query
    provenance: str = "default"
    knob_signature: tuple = field(default_factory=tuple)

    def iter_nodes(self) -> Iterator[PlanNode]:
        return self.root.iter_nodes()

    @property
    def n_nodes(self) -> int:
        return self.root.n_nodes()

    @property
    def is_default(self) -> bool:
        return self.provenance == "default"

    def structural_signature(self) -> tuple:
        return self.root.structural_signature()

    def parent_child_patterns(self) -> Counter:
        """Counts of ``<parent, child>`` operator-type pairs.

        This is the structure encoding used by the project Ranker
        (Appendix D.2): pattern counts are more informative than bare
        operator counts because they expose shapes like nested joins.
        """
        patterns: Counter = Counter()
        for node in self.iter_nodes():
            for child in node.children:
                patterns[(node.op_type, child.op_type)] += 1
        return patterns

    def clone(self) -> "PhysicalPlan":
        return PhysicalPlan(
            root=self.root.clone(),
            query=self.query,
            provenance=self.provenance,
            knob_signature=self.knob_signature,
        )

    def pretty(self) -> str:
        """Multi-line indented rendering, for debugging and examples."""
        lines: list[str] = []

        def walk(node: PlanNode, depth: int) -> None:
            detail = ""
            sig = node.attribute_signature()
            if sig:
                detail = f" {sig}"
            lines.append(f"{'  ' * depth}{node.op_type}{detail} [est={node.est_rows:.0f}]")
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PhysicalPlan(query={self.query.query_id!r}, provenance={self.provenance!r}, "
            f"n_nodes={self.n_nodes})"
        )
