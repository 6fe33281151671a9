"""Physical plan operators.

A physical plan is a tree of :class:`PlanNode` objects.  The operator set
mirrors the cost-impacting operator classes the paper encodes (Section 4):
table scans, joins (hash/merge/broadcast), aggregations (hash/sort), filters
and Calc, plus the plumbing operators (Project, Sort, Exchange, Spool,
Limit) that shape stage decomposition.

Nodes carry mutable annotations filled in by later phases:

* ``est_rows`` — the native optimizer's cardinality estimate;
* ``true_rows`` — ground-truth cardinality (computed by the executor);
* ``stage_id`` — assigned by stage decomposition;
* ``env`` — the stage-level execution-environment sample, logged after
  execution (this is what LOAM's encoder consumes for training plans).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.warehouse.query import Predicate

__all__ = [
    "OPERATOR_TYPES",
    "JOIN_OPERATORS",
    "AGGREGATE_OPERATORS",
    "FILTERING_OPERATORS",
    "PlanNode",
    "TableScanNode",
    "FilterNode",
    "CalcNode",
    "ProjectNode",
    "JoinNode",
    "AggregateNode",
    "SortNode",
    "ExchangeNode",
    "SpoolNode",
    "LimitNode",
]

#: Every operator type the simulator can emit, in canonical encoding order.
OPERATOR_TYPES = (
    "TableScan",
    "Filter",
    "Calc",
    "Project",
    "HashJoin",
    "MergeJoin",
    "BroadcastHashJoin",
    "HashAggregate",
    "SortAggregate",
    "Sort",
    "Exchange",
    "Spool",
    "Limit",
)

JOIN_OPERATORS = ("HashJoin", "MergeJoin", "BroadcastHashJoin")
AGGREGATE_OPERATORS = ("HashAggregate", "SortAggregate")
FILTERING_OPERATORS = ("Filter", "Calc")

_node_counter = itertools.count()


@dataclass
class PlanNode:
    """Base class for all physical operators."""

    children: list["PlanNode"] = field(default_factory=list)
    est_rows: float = 0.0
    true_rows: float = 0.0
    stage_id: int = -1
    env: Optional[tuple[float, float, float, float]] = None
    n_base_tables: int = 0  # filled by cardinality annotation
    node_id: int = field(default_factory=lambda: next(_node_counter))

    @property
    def op_type(self) -> str:
        raise NotImplementedError

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def attribute_signature(self) -> tuple:
        """Operator-specific attributes for structural fingerprinting."""
        return ()

    def structural_signature(self) -> tuple:
        """A hashable fingerprint of the subtree (ignores annotations)."""
        return (
            self.op_type,
            self.attribute_signature(),
            tuple(child.structural_signature() for child in self.children),
        )

    def clone(self) -> "PlanNode":
        """Deep copy of the subtree, dropping execution annotations."""
        copy = self.__class__(**self._ctor_kwargs())
        copy.children = [child.clone() for child in self.children]
        copy.est_rows = self.est_rows
        return copy

    def _ctor_kwargs(self) -> dict:
        return {}

    def __repr__(self) -> str:
        return f"{self.op_type}(rows~{self.est_rows:.0f}, children={len(self.children)})"


@dataclass
class TableScanNode(PlanNode):
    table: str = ""
    n_partitions: int = 1
    n_columns: int = 1
    predicates: tuple[Predicate, ...] = ()  # pushed-down filters

    @property
    def op_type(self) -> str:
        return "TableScan"

    def attribute_signature(self) -> tuple:
        return (
            self.table,
            self.n_partitions,
            self.n_columns,
            tuple((p.qualified_column, p.op, round(p.value, 6)) for p in self.predicates),
        )

    def _ctor_kwargs(self) -> dict:
        return {
            "table": self.table,
            "n_partitions": self.n_partitions,
            "n_columns": self.n_columns,
            "predicates": self.predicates,
        }


@dataclass
class FilterNode(PlanNode):
    predicates: tuple[Predicate, ...] = ()

    @property
    def op_type(self) -> str:
        return "Filter"

    def attribute_signature(self) -> tuple:
        return tuple((p.qualified_column, p.op, round(p.value, 6)) for p in self.predicates)

    def _ctor_kwargs(self) -> dict:
        return {"predicates": self.predicates}


@dataclass
class CalcNode(PlanNode):
    """Combined filtering + projection, as in MaxCompute's Calc operator."""

    predicates: tuple[Predicate, ...] = ()
    projected_columns: tuple[str, ...] = ()

    @property
    def op_type(self) -> str:
        return "Calc"

    def attribute_signature(self) -> tuple:
        return (
            tuple((p.qualified_column, p.op, round(p.value, 6)) for p in self.predicates),
            self.projected_columns,
        )

    def _ctor_kwargs(self) -> dict:
        return {"predicates": self.predicates, "projected_columns": self.projected_columns}


@dataclass
class ProjectNode(PlanNode):
    columns: tuple[str, ...] = ()

    @property
    def op_type(self) -> str:
        return "Project"

    def attribute_signature(self) -> tuple:
        return self.columns

    def _ctor_kwargs(self) -> dict:
        return {"columns": self.columns}


@dataclass
class JoinNode(PlanNode):
    """A physical join.  ``algorithm`` selects the operator flavour."""

    algorithm: str = "hash"  # hash | merge | broadcast
    form: str = "inner"
    left_key: str = ""  # qualified column name on the left (build) side
    right_key: str = ""

    @property
    def op_type(self) -> str:
        return {
            "hash": "HashJoin",
            "merge": "MergeJoin",
            "broadcast": "BroadcastHashJoin",
        }[self.algorithm]

    def attribute_signature(self) -> tuple:
        return (self.algorithm, self.form, self.left_key, self.right_key)

    def _ctor_kwargs(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "form": self.form,
            "left_key": self.left_key,
            "right_key": self.right_key,
        }


@dataclass
class AggregateNode(PlanNode):
    kind: str = "hash"  # hash | sort
    func: str = "count"
    agg_column: str = ""
    group_by: tuple[str, ...] = ()
    partial: bool = False  # True for a pre-shuffle partial aggregation

    @property
    def op_type(self) -> str:
        return "HashAggregate" if self.kind == "hash" else "SortAggregate"

    def attribute_signature(self) -> tuple:
        return (self.kind, self.func, self.agg_column, self.group_by, self.partial)

    def _ctor_kwargs(self) -> dict:
        return {
            "kind": self.kind,
            "func": self.func,
            "agg_column": self.agg_column,
            "group_by": self.group_by,
            "partial": self.partial,
        }


@dataclass
class SortNode(PlanNode):
    keys: tuple[str, ...] = ()

    @property
    def op_type(self) -> str:
        return "Sort"

    def attribute_signature(self) -> tuple:
        return self.keys

    def _ctor_kwargs(self) -> dict:
        return {"keys": self.keys}


@dataclass
class ExchangeNode(PlanNode):
    """A data reshuffle: the stage boundary operator."""

    mode: str = "shuffle"  # shuffle | broadcast | gather
    keys: tuple[str, ...] = ()

    @property
    def op_type(self) -> str:
        return "Exchange"

    def attribute_signature(self) -> tuple:
        return (self.mode, self.keys)

    def _ctor_kwargs(self) -> dict:
        return {"mode": self.mode, "keys": self.keys}


@dataclass
class SpoolNode(PlanNode):
    """Materializes a shared subexpression for reuse."""

    shared_id: str = ""

    @property
    def op_type(self) -> str:
        return "Spool"

    def attribute_signature(self) -> tuple:
        return (self.shared_id,)

    def _ctor_kwargs(self) -> dict:
        return {"shared_id": self.shared_id}


@dataclass
class LimitNode(PlanNode):
    limit: int = 1000

    @property
    def op_type(self) -> str:
        return "Limit"

    def attribute_signature(self) -> tuple:
        return (self.limit,)

    def _ctor_kwargs(self) -> dict:
        return {"limit": self.limit}
