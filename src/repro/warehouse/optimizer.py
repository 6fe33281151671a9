"""The native cost-based query optimizer of the simulated warehouse.

The optimizer mirrors the behaviour Section 2.1 of the paper attributes to
MaxCompute's native optimizer:

* it is cost-based, exploring join orders and physical operator choices with
  an estimated-cardinality model;
* when column statistics are missing it falls back to coarse metadata-driven
  estimates (historical row counts, default selectivities), **disables join
  reordering**, and leaves statistics-hungry rules (partial aggregation,
  join-filter pushdown, shuffle removal) off — which is precisely where the
  improvement space for a steering learned optimizer comes from;
* its decisions can be steered by :class:`~repro.warehouse.flags.OptimizerFlags`
  and by Lero-style cardinality scaling, the two knob families LOAM's plan
  explorer uses.

Planning is per query: :meth:`NativeOptimizer.planner` returns the planning
context of one query, which plans it under any number of knob settings and
computes what no knob changes — predicates per table, selectivities, scan
shapes, derived filters, join orders — once.  Estimates are carried up the
tree as it is built, so every node is estimated once per model.
"""

from __future__ import annotations

import math

from repro.warehouse.catalog import Catalog
from repro.warehouse.costmodel import (
    COST,
    CostConstants,
    EstimatedCardinalityModel,
    PlanEstimates,
    intrinsic_plan_cost,
)
from repro.warehouse.flags import OptimizerFlags
from repro.warehouse.operators import (
    AggregateNode,
    ExchangeNode,
    JoinNode,
    PlanNode,
    SortNode,
    SpoolNode,
    TableScanNode,
)
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import JoinSpec, Predicate, Query
from repro.warehouse.statistics import StatisticsView

__all__ = ["NativeOptimizer"]


class _SubPlan:
    """A partially built plan: the operator subtree, its estimated output
    rows, and its partitioning property (the equivalence class of columns
    the data is hash-partitioned on, or ``None`` when arbitrarily
    distributed)."""

    __slots__ = ("node", "tables", "rows", "partition_keys", "sorted_on")

    def __init__(
        self,
        node: PlanNode,
        tables: frozenset[str],
        rows: float,
        partition_keys: frozenset[str] | None = None,
        sorted_on: str | None = None,
    ) -> None:
        self.node = node
        self.tables = tables
        #: Estimated rows of ``node``, carried so that the operator above
        #: estimates only itself.
        self.rows = rows
        self.partition_keys = partition_keys
        self.sorted_on = sorted_on


class NativeOptimizer:
    """Cost-based optimizer over the simulated catalog."""

    def __init__(
        self,
        catalog: Catalog,
        stats: StatisticsView,
        *,
        constants: CostConstants = COST,
        broadcast_threshold: float = 50_000.0,
    ) -> None:
        self.catalog = catalog
        self.stats = stats
        self.constants = constants
        self.broadcast_threshold = broadcast_threshold

    def planner(self, query: Query) -> "_QueryPlanner":
        """The planning context of ``query``: plan it under several knob
        settings through one of these and the knob-independent work is done
        once (what :class:`~repro.core.explorer.PlanExplorer` does)."""
        return _QueryPlanner(self, query)

    def optimize(
        self,
        query: Query,
        *,
        flags: OptimizerFlags | None = None,
        cardinality_scale: float = 1.0,
        provenance: str = "default",
    ) -> PhysicalPlan:
        """Produce a physical plan for ``query`` under the given knobs."""
        return self.planner(query).optimize(
            flags=flags, cardinality_scale=cardinality_scale, provenance=provenance
        )

    def estimated_cost(self, plan: PhysicalPlan) -> float:
        """The optimizer's own rough cost of a plan (used for top-k pruning).

        Side effect, relied on downstream: ``plan`` is re-annotated in place
        with the *unscaled* model, so a ``cardscale:*`` plan that went
        through pruning carries unscaled ``est_rows`` afterwards.
        """
        return self.planner(plan.query).estimated_cost(plan)


class _QueryPlanner:
    """Plans one query under any number of knob settings.

    Holds what no knob changes (predicates per table, selectivities, scan
    shapes, table statistics flags) and what only some knobs change (derived
    semi-join filters per ``join_filter_pushdown``, the join order per
    derived-filter variant and cardinality scale).  Plans share these inputs
    and numbers, never :class:`PlanNode` objects: the executor and
    :meth:`estimated_cost` write annotations per plan.
    """

    def __init__(self, optimizer: NativeOptimizer, query: Query) -> None:
        self.optimizer = optimizer
        self.query = query
        #: Physical-operator decisions (broadcast, spill avoidance) always use
        #: unscaled estimates: cardinality scaling steers plan *structure*,
        #: not safety-critical implementation choices.
        self.raw_model = EstimatedCardinalityModel(optimizer.stats)
        self._models = {1.0: self.raw_model}
        self._predicates = {table: query.predicates_on(table) for table in query.tables}
        self._stats_ok: dict[str, bool] = {}
        self._scan_shapes: dict[bool, dict[str, dict]] = {}
        self._orders: dict[tuple[bool, float], tuple[str, ...]] = {}

    def optimize(
        self,
        *,
        flags: OptimizerFlags | None = None,
        cardinality_scale: float = 1.0,
        provenance: str = "default",
    ) -> PhysicalPlan:
        """Produce a physical plan for the query under the given knobs."""
        flags = flags or OptimizerFlags()
        query = self.query
        model = self._model(cardinality_scale)
        forced = flags.join_filter_pushdown

        known = PlanEstimates()  # raw_model's estimates of this plan
        scans = {
            table: self._estimated(scan, frozenset([table]), known)
            for table, scan in self._new_scans(forced).items()
        }
        order = self._join_order(forced, cardinality_scale)
        current = scans[order[0]]
        for table in order[1:]:
            spec = self._connecting_join(current.tables, table)
            current = self._build_join(current, scans[table], spec, flags, known)

        root = current.node
        if model is not self.raw_model:
            # The scaled pass starts over and overwrites every annotation
            # the raw one left: raw numbers are never reused under a scale.
            known = PlanEstimates()
            current.rows = model.estimate(root, query, "est_rows", known)
        if query.aggregate is not None:
            root = self._build_aggregation(current, model, flags)
        model.estimate(root, query, "est_rows", known)
        return PhysicalPlan(
            root=root,
            query=query,
            provenance=provenance,
            knob_signature=(flags.signature(), cardinality_scale),
        )

    def estimated_cost(self, plan: PhysicalPlan) -> float:
        """See :meth:`NativeOptimizer.estimated_cost`."""
        self.raw_model.annotate(plan.root, plan.query, field="est_rows")
        return intrinsic_plan_cost(
            plan.root, field="est_rows", constants=self.optimizer.constants
        )

    def _model(self, cardinality_scale: float) -> EstimatedCardinalityModel:
        model = self._models.get(cardinality_scale)
        if model is None:
            model = self._models[cardinality_scale] = self.raw_model.rescaled(cardinality_scale)
        return model

    def _estimated(
        self,
        node: PlanNode,
        tables: frozenset[str],
        known: PlanEstimates,
        partition_keys: frozenset[str] | None = None,
        sorted_on: str | None = None,
    ) -> _SubPlan:
        """``node`` as a sub-plan; estimates (unscaled) the nodes not yet in
        ``known`` — those added above already estimated inputs."""
        rows = self.raw_model.estimate(node, self.query, "est_rows", known)
        return _SubPlan(node, tables, rows, partition_keys, sorted_on)

    def _has_stats(self, table: str) -> bool:
        ok = self._stats_ok.get(table)
        if ok is None:
            ok = self._stats_ok[table] = self.optimizer.stats.has_column_stats(table)
        return ok

    # -- scans and derived filters -----------------------------------------

    def _new_scans(self, forced: bool) -> dict[str, TableScanNode]:
        """A fresh scan node per table, in syntactic order, with the semi-join
        filters derived under ``forced`` pushed down.  Fresh because every
        tree — a plan or an ordering trial — is annotated in place."""
        shapes = self._scan_shapes.get(forced)
        if shapes is None:
            query = self.query
            derived = self._derived_semijoin_filters(forced=forced)
            shapes = self._scan_shapes[forced] = {}
            for table in query.tables:
                table_meta = self.optimizer.catalog.table(table)
                shapes[table] = {
                    "table": table,
                    "n_partitions": max(
                        1, int(round(table_meta.n_partitions * query.partition_fraction(table)))
                    ),
                    "n_columns": self._columns_accessed(table),
                    "predicates": self._predicates[table] + derived.get(table, ()),
                }
        return {table: TableScanNode(**shape) for table, shape in shapes.items()}

    def _columns_accessed(self, table: str) -> int:
        query = self.query
        columns: set[str] = set()
        for pred in self._predicates[table]:
            columns.add(pred.column)
        for join in query.joins:
            if join.touches(table):
                columns.add(join.column_for(table))
        agg = query.aggregate
        if agg is not None:
            if agg.table == table:
                columns.add(agg.agg_column)
            for qualified in agg.group_by:
                t, _, c = qualified.partition(".")
                if t == table:
                    columns.add(c)
        return max(1, len(columns))

    def _derived_semijoin_filters(self, *, forced: bool) -> dict[str, tuple[Predicate, ...]]:
        """Join-filter pushdown: a heavily predicated side of a join emits a
        runtime filter on the other side's join column (Appendix D.2 calls
        this 'producing predicates from the smaller table to filter the
        larger one').

        Applied natively only when the source table has maintained column
        statistics *and* the estimated selectivity is confidently low; the
        steering flag forces it regardless (this rule is exactly the kind
        that Section 2.1 says gets disabled without reliable statistics).
        """
        derived: dict[str, tuple[Predicate, ...]] = {}
        for join in self.query.joins:
            for src, dst in ((join.left_table, join.right_table), (join.right_table, join.left_table)):
                preds = self._predicates[src]
                if not preds:
                    continue
                if not forced and not self._has_stats(src):
                    continue
                selectivity = 1.0
                for pred in preds:
                    selectivity *= self.raw_model.selectivity(pred)
                threshold = 0.5 if forced else 0.2
                if selectivity >= threshold:
                    continue
                # A runtime semi-join filter only removes rows that would not
                # have joined, so its leverage is bounded in this model: it
                # keeps at least half the key domain, and only the strongest
                # filter per destination table applies (DESIGN.md notes).
                fraction = max(0.5, min(1.0, 3.0 * selectivity))
                candidate = Predicate(
                    table=dst, column=join.column_for(dst), op="<", value=fraction
                )
                existing = derived.get(dst)
                if existing is None or candidate.value < existing[0].value:
                    derived[dst] = (candidate,)
        return derived

    # -- join ordering ------------------------------------------------------

    def _reordering_enabled(self) -> bool:
        """Join reordering needs trustworthy statistics (Section 2.1: the
        rule is disabled when statistics are missing).  Cardinality scaling
        perturbs the order only where estimates exist to scale."""
        return all(self._has_stats(t) for t in self.query.tables)

    def _join_order(self, forced: bool, cardinality_scale: float) -> tuple[str, ...]:
        order = self._orders.get((forced, cardinality_scale))
        if order is None:
            order = self._orders[forced, cardinality_scale] = self._choose_join_order(
                forced, cardinality_scale
            )
        return order

    def _choose_join_order(self, forced: bool, cardinality_scale: float) -> tuple[str, ...]:
        syntactic = self.query.tables
        if len(syntactic) == 1 or not self._reordering_enabled():
            return syntactic  # nothing to order, or reordering disabled

        order = self._greedy_order(forced, self._model(cardinality_scale))
        if cardinality_scale != 1.0 and order != syntactic:
            # Sanity check a steered order against the *unscaled* cost model:
            # if the optimizer's own estimates say it is much worse than the
            # syntactic order, the steering produced a drastically bad plan
            # and we fall back (the explorer's knobs are meant to be safe).
            steered_cost = self._order_estimated_cost(forced, order)
            syntactic_cost = self._order_estimated_cost(forced, syntactic)
            if steered_cost > 3.0 * syntactic_cost:
                return syntactic
        return order

    def _greedy_order(self, forced: bool, model: EstimatedCardinalityModel) -> tuple[str, ...]:
        """Left-deep greedy: start from the smallest scan, repeatedly add
        the connected table whose join output the model estimates smallest.
        Trial trees are estimated with the (possibly scaled) model, so
        cardinality scaling genuinely perturbs the chosen order; each trial
        is the tree so far plus one join, and only that join is estimated."""
        query = self.query
        tables = query.tables
        known = PlanEstimates()
        scans = self._new_scans(forced)
        scan_rows = {
            table: model.estimate(scan, query, "est_rows", known) for table, scan in scans.items()
        }
        first = min(tables, key=scan_rows.__getitem__)  # ties: syntactic order
        order, joined, tree = [first], frozenset([first]), scans[first]

        while len(order) < len(tables):
            connected = [
                t
                for t in tables
                if t not in joined and query.joins_between(joined, frozenset([t]))
            ]
            if not connected:
                # Disconnected remainder can only happen with a broken join
                # graph, which Query validation rejects; guard anyway.
                connected = [t for t in tables if t not in joined]
            best_table, best_tree, best_rows = None, None, math.inf
            for t in connected:
                trial = self._trial_join(tree, joined, scans[t], t)
                out_rows = model.estimate(trial, query, "est_rows", known)
                if out_rows < best_rows:
                    best_table, best_tree, best_rows = t, trial, out_rows
            assert best_table is not None
            order.append(best_table)
            joined, tree = joined | {best_table}, best_tree
        return tuple(order)

    def _order_estimated_cost(self, forced: bool, order: tuple[str, ...]) -> float:
        """Rough unscaled estimated cost of a left-deep hash-join tree in
        ``order``."""
        scans = self._new_scans(forced)
        tree: PlanNode = scans[order[0]]
        joined = frozenset([order[0]])
        for table in order[1:]:
            tree = self._trial_join(tree, joined, scans[table], table)
            joined = joined | {table}
        self.raw_model.annotate(tree, self.query, field="est_rows")
        return intrinsic_plan_cost(tree, field="est_rows", constants=self.optimizer.constants)

    def _trial_join(
        self, tree: PlanNode, joined: frozenset[str], scan: TableScanNode, table: str
    ) -> JoinNode:
        """``tree`` (over ``joined``) hash-joined with ``table``'s scan: the
        ordering pass's stand-in for the physical join built later."""
        spec = self._connecting_join(joined, table)
        return JoinNode(
            children=[tree, scan],
            algorithm="hash",
            form=spec.form,
            left_key=f"{spec.left_table}.{spec.left_column}",
            right_key=f"{spec.right_table}.{spec.right_column}",
        )

    def _connecting_join(self, joined: frozenset[str], table: str) -> JoinSpec:
        specs = self.query.joins_between(joined, frozenset([table]))
        if not specs:
            raise ValueError(f"no join connects {table!r} to {sorted(joined)}")
        return specs[0]

    # -- physical join construction -----------------------------------------

    def _build_join(
        self,
        left: _SubPlan,
        right: _SubPlan,
        spec: JoinSpec,
        flags: OptimizerFlags,
        known: PlanEstimates,
    ) -> _SubPlan:
        # Orient so that `build` is the (estimated) smaller input.
        if right.rows <= left.rows:
            build, probe = right, left
        else:
            build, probe = left, right

        build_table_side = "left" if spec.left_table in build.tables else "right"
        build_key = (
            f"{spec.left_table}.{spec.left_column}"
            if build_table_side == "left"
            else f"{spec.right_table}.{spec.right_column}"
        )
        probe_key = (
            f"{spec.right_table}.{spec.right_column}"
            if build_table_side == "left"
            else f"{spec.left_table}.{spec.left_column}"
        )
        key_class = frozenset([build_key, probe_key])

        # Statistics-hungry join rules need trustworthy estimates for the
        # tables owning the join keys (not every table in the subtree).
        stats_ok = self._column_table_has_stats(build_key) and self._column_table_has_stats(
            probe_key
        )
        algorithm = self._choose_join_algorithm(build.rows, probe.rows, flags)

        # Shuffle reuse is safe to apply natively only when estimates are
        # trustworthy; the flag forces it.
        allow_reuse = flags.shuffle_removal or stats_ok
        if algorithm == "broadcast":
            build_node: PlanNode = ExchangeNode(children=[build.node], mode="broadcast")
            probe_node = probe.node
            out_partition = probe.partition_keys
            out_sorted = probe.sorted_on
        elif algorithm == "merge":
            build_node = self._partition_and_sort(build, build_key, key_class, allow_reuse)
            probe_node = self._partition_and_sort(probe, probe_key, key_class, allow_reuse)
            out_partition = key_class
            out_sorted = build_key
        else:  # hash
            build_node = self._partition(build, build_key, key_class, allow_reuse)
            probe_node = self._partition(probe, probe_key, key_class, allow_reuse)
            out_partition = key_class
            out_sorted = None

        join = JoinNode(
            children=[build_node, probe_node],
            algorithm=algorithm,
            form=spec.form,
            left_key=build_key,
            right_key=probe_key,
        )
        return self._estimated(
            join, build.tables | probe.tables, known, out_partition, out_sorted
        )

    def _choose_join_algorithm(
        self, build_rows: float, probe_rows: float, flags: OptimizerFlags
    ) -> str:
        if (
            not flags.disable_broadcast_join
            and build_rows < self.optimizer.broadcast_threshold
        ):
            return "broadcast"
        if flags.prefer_merge_join:
            return "merge"
        # The hash-vs-merge choice needs only row counts, which exist (if
        # stale) even without column statistics.
        if self._merge_beats_hash(build_rows, probe_rows):
            return "merge"
        return "hash"

    def _merge_beats_hash(self, build_rows: float, probe_rows: float) -> bool:
        c = self.optimizer.constants
        hash_cost = c.hash_build * build_rows + c.hash_probe * probe_rows
        if build_rows > c.hash_spill_threshold:
            hash_cost *= c.hash_spill_penalty
        sort_cost = sum(
            c.sort_factor * rows * math.log2(rows + 2.0) for rows in (build_rows, probe_rows)
        )
        merge_cost = c.merge_input * (build_rows + probe_rows) + sort_cost
        return merge_cost < hash_cost

    def _partition(
        self, side: _SubPlan, key: str, key_class: frozenset[str], allow_reuse: bool
    ) -> PlanNode:
        if allow_reuse and side.partition_keys and side.partition_keys & key_class:
            return side.node  # already co-partitioned on an equivalent key
        return ExchangeNode(children=[side.node], mode="shuffle", keys=(key,))

    def _partition_and_sort(
        self, side: _SubPlan, key: str, key_class: frozenset[str], allow_reuse: bool
    ) -> PlanNode:
        node = self._partition(side, key, key_class, allow_reuse)
        if side.sorted_on == key and node is side.node:
            return node  # partitioning and order both reusable
        return SortNode(children=[node], keys=(key,))

    # -- aggregation ---------------------------------------------------------

    def _build_aggregation(
        self,
        input_plan: _SubPlan,
        model: EstimatedCardinalityModel,
        flags: OptimizerFlags,
    ) -> PlanNode:
        """The aggregation operators over ``input_plan``, whose ``rows`` are
        ``model``'s estimate; the caller estimates the nodes added here."""
        query = self.query
        agg = query.aggregate
        assert agg is not None
        node: PlanNode = input_plan.node

        # Estimated input/group sizes steer the native (statistics-backed)
        # application of partial aggregation and spooling.  These rules need
        # statistics for the aggregated and grouping tables only.
        input_rows = input_plan.rows
        est_groups = self._estimated_group_count(agg, input_rows, model)
        # Partial aggregation needs NDVs of the grouping columns; spooling
        # needs only the input row-count estimate.
        agg_stats_ok = all(
            self._column_table_has_stats(qualified) for qualified in agg.group_by
        )

        use_spool = flags.enable_spool or input_rows > 2.0e6
        if use_spool:
            node = SpoolNode(children=[node], shared_id=f"{query.query_id}:preagg")

        kind = "sort" if (flags.prefer_merge_join and input_plan.sorted_on) else "hash"

        if not agg.group_by:
            gathered = ExchangeNode(children=[node], mode="gather")
            return AggregateNode(
                children=[gathered],
                kind=kind,
                func=agg.func,
                agg_column=f"{agg.table}.{agg.agg_column}",
                group_by=(),
            )

        use_partial = flags.partial_aggregation or (
            agg_stats_ok and est_groups < 0.05 * input_rows
        )
        if use_partial:
            node = AggregateNode(
                children=[node],
                kind=kind,
                func=agg.func,
                agg_column=f"{agg.table}.{agg.agg_column}",
                group_by=agg.group_by,
                partial=True,
            )

        needs_shuffle = True
        if (
            (flags.shuffle_removal or agg_stats_ok)
            and input_plan.partition_keys
            and set(agg.group_by) & input_plan.partition_keys
        ):
            needs_shuffle = False
        if needs_shuffle:
            node = ExchangeNode(children=[node], mode="shuffle", keys=agg.group_by)

        return AggregateNode(
            children=[node],
            kind=kind,
            func=agg.func,
            agg_column=f"{agg.table}.{agg.agg_column}",
            group_by=agg.group_by,
        )

    def _column_table_has_stats(self, qualified_column: str) -> bool:
        table, _, _ = qualified_column.partition(".")
        return self._has_stats(table)

    @staticmethod
    def _estimated_group_count(agg, input_rows: float, model: EstimatedCardinalityModel) -> float:
        groups = 1.0
        for qualified in agg.group_by:
            groups *= min(model.column_ndv(qualified), input_rows)
        return min(groups, input_rows)
