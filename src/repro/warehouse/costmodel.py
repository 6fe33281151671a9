"""Cardinality propagation and intrinsic operator CPU costs.

Two cardinality models share one propagation engine:

* the **true** model reads ground-truth distributions from the catalog and
  is used by the executor to compute actual work;
* the **estimated** model reads a :class:`~repro.warehouse.statistics.StatisticsView`
  and is what the native optimizer plans with.  When column statistics are
  missing it falls back to textbook default selectivities and a
  max-row-count join heuristic — the unreliable estimates challenge C2 is
  about.

Intrinsic cost is CPU work in abstract cost units, before any environment
effect.  Constants are chosen so the classic trade-offs are live: broadcast
joins win only for small build sides, merge joins win on pre-sorted inputs,
partial aggregation pays off only for low group counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.warehouse.catalog import Catalog
from repro.warehouse.operators import (
    AggregateNode,
    CalcNode,
    ExchangeNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SortNode,
    SpoolNode,
    TableScanNode,
)
from repro.warehouse.query import Predicate, Query
from repro.warehouse.statistics import DEFAULT_SELECTIVITY, StatisticsView

__all__ = [
    "CostConstants",
    "COST",
    "PlanEstimates",
    "CardinalityModel",
    "TrueCardinalityModel",
    "EstimatedCardinalityModel",
    "annotate_true_cardinalities",
    "intrinsic_node_cost",
    "intrinsic_plan_cost",
    "stage_parallelism",
]


@dataclass(frozen=True)
class CostConstants:
    """Per-row cost coefficients of each operator family."""

    scan_base: float = 0.20
    scan_per_column: float = 0.06
    filter_per_predicate: float = 0.12
    calc: float = 0.22
    project: float = 0.05
    hash_build: float = 1.20
    hash_probe: float = 0.90
    join_output: float = 0.30
    merge_input: float = 0.55
    sort_factor: float = 0.04
    hash_spill_threshold: float = 5_000_000.0
    hash_spill_penalty: float = 2.2
    exchange: float = 0.50
    broadcast_per_instance: float = 1.20
    hash_agg_input: float = 0.80
    hash_agg_group: float = 0.20
    sort_agg_input: float = 0.30
    spool_write: float = 0.15
    limit: float = 0.01
    rows_per_instance: float = 2_000_000.0
    max_instances: int = 256


COST = CostConstants()


def stage_parallelism(rows: float, constants: CostConstants = COST) -> int:
    """Degree of parallelism the scheduler grants a stage of ``rows`` input."""
    return int(min(constants.max_instances, max(1, math.ceil(rows / constants.rows_per_instance))))


class PlanEstimates:
    """Estimation state of one plan, so a plan can be estimated as it grows.

    ``nodes`` maps the ``node_id`` of every node already estimated to its
    ``(rows, NDV map)``; :meth:`CardinalityModel.estimate` skips those
    subtrees.  ``spools`` holds the result of each shared spool by
    ``shared_id``.  One instance belongs to one plan and one model: never
    share it between plans (spool ids) or between differently scaled models.
    """

    __slots__ = ("nodes", "spools")

    def __init__(self) -> None:
        self.nodes: dict[int, tuple[float, dict[str, float]]] = {}
        self.spools: dict[str, tuple[float, dict[str, float]]] = {}


class CardinalityModel:
    """Shared bottom-up cardinality propagation over a plan tree.

    Subclasses provide the selectivity of a predicate, table base rows, and
    column NDVs; the engine handles the operator algebra and NDV bookkeeping.
    """

    #: Multiplier on the estimated output of joins over >= 3 base tables
    #: (:class:`EstimatedCardinalityModel`'s steering knob; 1.0 = none).
    cardinality_scale = 1.0

    def selectivity(self, predicate: Predicate) -> float:
        raise NotImplementedError

    def base_rows(self, table: str) -> float:
        raise NotImplementedError

    def column_ndv(self, qualified_column: str) -> float:
        raise NotImplementedError

    def annotate(self, root: PlanNode, query: Query, *, field: str = "true_rows") -> float:
        """Fill ``field`` on every node bottom-up; returns the root's rows.

        As a side effect every node also gets ``n_base_tables`` — the number
        of base tables in its subtree — which the Lero-style cardinality
        scaling consults (it applies to subqueries with >= 3 inputs only).
        """
        return self.estimate(root, query, field, PlanEstimates())

    def estimate(self, node: PlanNode, query: Query, field: str, known: PlanEstimates) -> float:
        """:meth:`annotate` for a plan under construction: subtrees already
        in ``known`` keep their annotations and are not visited, every other
        node is estimated once and recorded.  The numbers are those a
        from-scratch :meth:`annotate` of the finished tree would write."""
        hit = known.nodes.get(node.node_id)
        if hit is not None:
            return hit[0]
        child_rows = [self.estimate(child, query, field, known) for child in node.children]
        if isinstance(node, TableScanNode):
            node.n_base_tables = 1
        else:
            node.n_base_tables = sum(c.n_base_tables for c in node.children)
        rows, ndvs = self._apply(node, query, child_rows, known, field)
        rows = max(rows, 1.0)
        setattr(node, field, rows)
        known.nodes[node.node_id] = (rows, ndvs)
        return rows

    # -- engine -----------------------------------------------------------

    def _apply(
        self,
        node: PlanNode,
        query: Query,
        child_rows: list[float],
        known: PlanEstimates,
        field: str,
    ) -> tuple[float, dict[str, float]]:
        """Rows (before the >= 1 clamp) and NDV map of one node whose
        children are already in ``known``."""
        if isinstance(node, TableScanNode):
            raw = self.base_rows(node.table) * query.partition_fraction(node.table)
            setattr(node, f"raw_{field}", max(raw, 1.0))
            rows = raw
            for pred in node.predicates:
                rows *= self.selectivity(pred)
            ndvs = {}
            return rows, ndvs

        if isinstance(node, (FilterNode, CalcNode)):
            rows = child_rows[0]
            for pred in node.predicates:
                rows *= self.selectivity(pred)
            return rows, dict(known.nodes[node.children[0].node_id][1])

        if isinstance(node, JoinNode):
            left_rows, right_rows = child_rows[0], child_rows[1]
            left_ndvs = known.nodes[node.children[0].node_id][1]
            right_ndvs = known.nodes[node.children[1].node_id][1]
            lkey_ndv = min(left_ndvs.get(node.left_key, self.column_ndv(node.left_key)), left_rows)
            rkey_ndv = min(
                right_ndvs.get(node.right_key, self.column_ndv(node.right_key)), right_rows
            )
            denom = max(lkey_ndv, rkey_ndv, 1.0)
            rows = left_rows * right_rows / denom
            if node.form == "left":
                rows = max(rows, left_rows)
            elif node.form == "right":
                rows = max(rows, right_rows)
            elif node.form == "full":
                rows = max(rows, left_rows + right_rows)
            ndvs = {**left_ndvs, **right_ndvs}
            ndvs = {col: min(ndv, rows) for col, ndv in ndvs.items()}
            ndvs[node.left_key] = min(lkey_ndv, rkey_ndv, rows)
            ndvs[node.right_key] = ndvs[node.left_key]
            # Lero-style steering scales estimates only for subqueries with
            # at least three inputs (Section 3), so the distortion does not
            # compound through every join of a deep plan.
            if node.n_base_tables >= 3:
                rows *= self.cardinality_scale
            return rows, ndvs

        if isinstance(node, AggregateNode):
            rows_in = child_rows[0]
            child_ndvs = known.nodes[node.children[0].node_id][1]
            if not node.group_by:
                return 1.0, {}
            groups = 1.0
            for col in node.group_by:
                groups *= min(child_ndvs.get(col, self.column_ndv(col)), rows_in)
            groups = min(groups, rows_in)
            if node.partial:
                # A pre-shuffle partial aggregation cannot reduce below the
                # per-instance group count; approximate with groups * dop.
                dop = stage_parallelism(rows_in)
                groups = min(rows_in, groups * max(1, dop // 2 + 1))
            ndvs = {col: min(child_ndvs.get(col, groups), groups) for col in node.group_by}
            return groups, ndvs

        if isinstance(node, LimitNode):
            rows = min(child_rows[0], float(node.limit))
            return rows, dict(known.nodes[node.children[0].node_id][1])

        if isinstance(node, SpoolNode):
            cached = known.spools.get(node.shared_id)
            if cached is not None:
                return cached
            result = child_rows[0], dict(known.nodes[node.children[0].node_id][1])
            known.spools[node.shared_id] = result
            return result

        if isinstance(node, (ProjectNode, SortNode, ExchangeNode)):
            return child_rows[0], dict(known.nodes[node.children[0].node_id][1])

        raise TypeError(f"unhandled plan node type {type(node).__name__}")


class TrueCardinalityModel(CardinalityModel):
    """Ground-truth cardinalities from the catalog (used by the executor)."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def selectivity(self, predicate: Predicate) -> float:
        column = self.catalog.column(predicate.qualified_column)
        if predicate.op == "=":
            rank = max(1, min(column.ndv, int(round(predicate.value * column.ndv)) or 1))
            return column.selectivity_eq(rank)
        if predicate.op == "!=":
            rank = max(1, min(column.ndv, int(round(predicate.value * column.ndv)) or 1))
            return 1.0 - column.selectivity_eq(rank)
        if predicate.op == "<":
            return column.selectivity_range(predicate.value)
        if predicate.op == ">":
            return 1.0 - column.selectivity_range(predicate.value)
        if predicate.op == "between":
            return column.selectivity_range(
                min(1.0, predicate.value + 0.1)
            ) - column.selectivity_range(max(0.0, predicate.value - 0.1))
        if predicate.op == "like":
            # LIKE selectivity depends on string contents we do not model;
            # treat as a mid-selectivity scan predicate.
            return 0.5 * column.selectivity_range(max(predicate.value, 1e-3))
        raise ValueError(f"unknown predicate operator {predicate.op!r}")

    def base_rows(self, table: str) -> float:
        return float(self.catalog.table(table).n_rows)

    def column_ndv(self, qualified_column: str) -> float:
        return float(self.catalog.column(qualified_column).ndv)


class EstimatedCardinalityModel(CardinalityModel):
    """The native optimizer's view: statistics-dependent, possibly defaulted.

    ``cardinality_scale`` implements the Lero-style steering knob: estimated
    cardinalities of join outputs are multiplied by the scale, biasing the
    optimizer toward bushier/flatter structures (Section 3, plan explorer).
    """

    def __init__(self, stats: StatisticsView, *, cardinality_scale: float = 1.0) -> None:
        if cardinality_scale <= 0:
            raise ValueError("cardinality_scale must be positive")
        self.stats = stats
        self.cardinality_scale = cardinality_scale
        #: Selectivity per predicate seen by this model (a statistics view is
        #: frozen at construction, so an estimate never goes stale).
        self._selectivities: dict[Predicate, float] = {}

    def rescaled(self, cardinality_scale: float) -> "EstimatedCardinalityModel":
        """A model over the same statistics with another scale.  Selectivity
        does not depend on the scale, so the two share what they computed."""
        sibling = type(self)(self.stats, cardinality_scale=cardinality_scale)
        sibling._selectivities = self._selectivities
        return sibling

    def selectivity(self, predicate: Predicate) -> float:
        selectivity = self._selectivities.get(predicate)
        if selectivity is None:
            column = self.stats.catalog.column(predicate.qualified_column)
            selectivity = self.stats.estimate_selectivity(column, predicate.op, predicate.value)
            self._selectivities[predicate] = selectivity
        return selectivity

    def base_rows(self, table: str) -> float:
        return float(self.stats.estimated_rows(table))

    def column_ndv(self, qualified_column: str) -> float:
        table, _, column = qualified_column.partition(".")
        col_stats = self.stats.column_stats(table, column)
        if col_stats is not None:
            return float(col_stats.ndv)
        # Missing statistics: assume the join key is close to unique on the
        # smaller side — the classic max-rows heuristic.  The engine takes
        # min(ndv, rows), so "infinite" NDV degrades to rows.
        return math.inf


def annotate_true_cardinalities(root: PlanNode, query: Query, catalog: Catalog) -> float:
    """Convenience wrapper: fill ``true_rows`` on every node."""
    return TrueCardinalityModel(catalog).annotate(root, query, field="true_rows")


def intrinsic_node_cost(
    node: PlanNode, *, field: str = "true_rows", constants: CostConstants = COST
) -> float:
    """CPU work of one operator given its (and its children's) cardinalities."""
    rows_out = getattr(node, field)
    child_rows = [getattr(child, field) for child in node.children]

    if isinstance(node, TableScanNode):
        # Scans read every row of the accessed partitions; predicates are
        # evaluated on read, so cost tracks the pre-filter row count.
        scanned = getattr(node, f"raw_{field}", rows_out)
        width = constants.scan_base + constants.scan_per_column * node.n_columns
        width += constants.filter_per_predicate * len(node.predicates)
        return scanned * width

    if isinstance(node, FilterNode):
        return child_rows[0] * constants.filter_per_predicate * max(1, len(node.predicates))

    if isinstance(node, CalcNode):
        return child_rows[0] * constants.calc

    if isinstance(node, ProjectNode):
        return child_rows[0] * constants.project

    if isinstance(node, JoinNode):
        build, probe = child_rows[0], child_rows[1]
        out = rows_out
        if node.algorithm == "hash":
            cost = (
                constants.hash_build * build
                + constants.hash_probe * probe
                + constants.join_output * out
            )
            if build > constants.hash_spill_threshold:
                # Build side exceeds memory: hash table spills to disk.
                cost *= constants.hash_spill_penalty
            return cost
        if node.algorithm == "merge":
            return constants.merge_input * (build + probe) + constants.join_output * out
        if node.algorithm == "broadcast":
            instances = stage_parallelism(probe, constants)
            return (
                constants.broadcast_per_instance * build * instances
                + constants.hash_probe * probe
                + constants.join_output * out
            )
        raise ValueError(f"unknown join algorithm {node.algorithm!r}")

    if isinstance(node, AggregateNode):
        rows_in = child_rows[0]
        # Reading from a materialized spool is cheaper: narrow columnar data.
        input_discount = 0.7 if node.children and isinstance(node.children[0], SpoolNode) else 1.0
        if node.kind == "hash":
            return (
                constants.hash_agg_input * rows_in * input_discount
                + constants.hash_agg_group * rows_out
            )
        return constants.sort_agg_input * rows_in * input_discount

    if isinstance(node, SortNode):
        rows = child_rows[0]
        return constants.sort_factor * rows * math.log2(rows + 2.0)

    if isinstance(node, ExchangeNode):
        if node.mode == "broadcast":
            instances = stage_parallelism(child_rows[0], constants)
            return constants.exchange * child_rows[0] * instances
        return constants.exchange * child_rows[0]

    if isinstance(node, SpoolNode):
        return constants.spool_write * child_rows[0]

    if isinstance(node, LimitNode):
        return constants.limit * rows_out

    raise TypeError(f"unhandled plan node type {type(node).__name__}")


def intrinsic_plan_cost(
    root: PlanNode, *, field: str = "true_rows", constants: CostConstants = COST
) -> float:
    """Total CPU work of a plan, with spool sharing counted once."""
    total = 0.0
    seen_spools: set[str] = set()

    def walk(node: PlanNode) -> None:
        nonlocal total
        if isinstance(node, SpoolNode):
            if node.shared_id in seen_spools:
                return  # shared subtree already charged
            seen_spools.add(node.shared_id)
        total += intrinsic_node_cost(node, field=field, constants=constants)
        for child in node.children:
            walk(child)

    walk(root)
    return total
