"""Tests for repro.warehouse.optimizer (the native cost-based optimizer)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.explorer import PlanExplorer
from repro.warehouse import optimizer as optimizer_module
from repro.warehouse.catalog import Catalog, Column, Table
from repro.warehouse.costmodel import EstimatedCardinalityModel, intrinsic_plan_cost
from repro.warehouse.flags import OptimizerFlags
from repro.warehouse.operators import (
    AggregateNode,
    ExchangeNode,
    JoinNode,
    SortNode,
    SpoolNode,
    TableScanNode,
)
from repro.warehouse.optimizer import NativeOptimizer
from repro.warehouse.query import AggregateSpec, JoinSpec, Predicate, Query
from repro.warehouse.statistics import StatisticsView
from repro.warehouse.workload import generate_project
from tests.plan_checks import (
    ALL_KNOBS,
    GOLDEN_PROFILES,
    assert_annotated_as_from_scratch,
    assert_same_plan,
    history_digest,
    plans_digest,
)


def make_catalog(n_tables=4, rows=200_000):
    tables = []
    for i in range(n_tables):
        name = f"t{i}"
        tables.append(
            Table(
                name,
                n_rows=rows * (i + 1),
                n_partitions=8,
                columns=[
                    Column("pk", name, ndv=rows * (i + 1), skew=0.0),
                    Column("k", name, ndv=5000, skew=0.3),
                    Column("x", name, ndv=200, skew=0.8),
                ],
            )
        )
    return Catalog("p", tables)


def chain_query(n=3, predicates=(), aggregate=None):
    tables = tuple(f"t{i}" for i in range(n))
    joins = tuple(JoinSpec(f"t{i}", "k", f"t{i+1}", "k") for i in range(n - 1))
    return Query(
        query_id="q",
        project="p",
        template_id="tpl",
        tables=tables,
        joins=joins,
        predicates=predicates,
        aggregate=aggregate,
    )


def optimizer_with(availability, catalog=None):
    catalog = catalog or make_catalog()
    stats = StatisticsView(
        catalog, availability=availability, staleness=0.0, rng=np.random.default_rng(0)
    )
    return NativeOptimizer(catalog, stats), catalog


class TestPlanShape:
    def test_single_table_scan(self):
        opt, _ = optimizer_with(1.0)
        query = Query(query_id="q", project="p", template_id="t", tables=("t0",))
        plan = opt.optimize(query)
        assert plan.root.op_type == "TableScan"
        assert plan.is_default

    def test_join_count_matches_query(self):
        opt, _ = optimizer_with(1.0)
        plan = opt.optimize(chain_query(4))
        joins = [n for n in plan.iter_nodes() if isinstance(n, JoinNode)]
        assert len(joins) == 3

    def test_every_table_scanned_once(self):
        opt, _ = optimizer_with(0.0)
        plan = opt.optimize(chain_query(4))
        scans = [n for n in plan.iter_nodes() if isinstance(n, TableScanNode)]
        assert sorted(s.table for s in scans) == ["t0", "t1", "t2", "t3"]

    def test_predicates_pushed_into_scans(self):
        opt, _ = optimizer_with(1.0)
        predicates = (Predicate("t0", "x", "=", 0.5),)
        plan = opt.optimize(chain_query(2, predicates=predicates))
        scan_t0 = next(
            n for n in plan.iter_nodes() if isinstance(n, TableScanNode) and n.table == "t0"
        )
        assert any(p.column == "x" for p in scan_t0.predicates)

    def test_aggregation_on_top(self):
        opt, _ = optimizer_with(1.0)
        agg = AggregateSpec("sum", "t0", "x", group_by=("t0.k",))
        plan = opt.optimize(chain_query(2, aggregate=agg))
        assert isinstance(plan.root, AggregateNode)

    def test_est_rows_annotated(self):
        opt, _ = optimizer_with(0.5)
        plan = opt.optimize(chain_query(3))
        assert all(n.est_rows >= 1.0 for n in plan.iter_nodes())


class TestStatisticsDependence:
    def test_no_stats_keeps_syntactic_order(self):
        opt, _ = optimizer_with(0.0)
        plan = opt.optimize(chain_query(4))
        # Left-deep syntactic: deepest scan pair must be (t0, t1).
        deepest_join = None
        for node in plan.iter_postorder():
            if isinstance(node, JoinNode):
                deepest_join = node
                break
        tables = {
            n.table for n in deepest_join.iter_nodes() if isinstance(n, TableScanNode)
        }
        assert tables == {"t0", "t1"}

    def test_stats_enable_reordering_possible(self):
        # With full statistics the optimizer is free to reorder; the chosen
        # plan must never be *estimated* worse than the syntactic one.
        opt, _ = optimizer_with(1.0)
        plan_stats = opt.optimize(chain_query(4))
        opt_blind, _ = optimizer_with(0.0)
        plan_blind = opt_blind.optimize(chain_query(4))
        assert opt.estimated_cost(plan_stats) <= opt.estimated_cost(plan_blind) * 1.01


class TestFlags:
    def test_prefer_merge_join_forces_merge(self):
        opt, _ = optimizer_with(0.0)
        plan = opt.optimize(
            chain_query(3), flags=OptimizerFlags(prefer_merge_join=True, disable_broadcast_join=True)
        )
        joins = [n for n in plan.iter_nodes() if isinstance(n, JoinNode)]
        assert all(j.algorithm == "merge" for j in joins)
        assert any(isinstance(n, SortNode) for n in plan.iter_nodes())

    def test_disable_broadcast(self):
        catalog = make_catalog(rows=1000)  # small tables: broadcast attractive
        opt, _ = optimizer_with(1.0, catalog)
        default = opt.optimize(chain_query(3))
        has_broadcast = any(
            isinstance(n, JoinNode) and n.algorithm == "broadcast" for n in default.iter_nodes()
        )
        assert has_broadcast
        steered = opt.optimize(chain_query(3), flags=OptimizerFlags(disable_broadcast_join=True))
        assert not any(
            isinstance(n, JoinNode) and n.algorithm == "broadcast" for n in steered.iter_nodes()
        )

    def test_enable_spool_inserts_spool(self):
        opt, _ = optimizer_with(0.0)
        agg = AggregateSpec("sum", "t0", "x", group_by=("t0.k",))
        plan = opt.optimize(chain_query(2, aggregate=agg), flags=OptimizerFlags(enable_spool=True))
        assert any(isinstance(n, SpoolNode) for n in plan.iter_nodes())

    def test_partial_aggregation_flag(self):
        opt, _ = optimizer_with(0.0)
        agg = AggregateSpec("sum", "t0", "x", group_by=("t0.k",))
        plan = opt.optimize(
            chain_query(2, aggregate=agg), flags=OptimizerFlags(partial_aggregation=True)
        )
        partials = [
            n for n in plan.iter_nodes() if isinstance(n, AggregateNode) and n.partial
        ]
        assert len(partials) == 1

    def test_join_filter_pushdown_adds_derived_predicate(self):
        opt, _ = optimizer_with(0.0)
        predicates = (Predicate("t0", "x", "=", 0.5),)
        steered = opt.optimize(
            chain_query(2, predicates=predicates),
            flags=OptimizerFlags(join_filter_pushdown=True),
        )
        scan_t1 = next(
            n for n in steered.iter_nodes() if isinstance(n, TableScanNode) and n.table == "t1"
        )
        assert any(p.column == "k" for p in scan_t1.predicates)

    def test_derived_filter_bounded(self):
        opt, _ = optimizer_with(0.0)
        predicates = (Predicate("t0", "x", "=", 0.01),)
        steered = opt.optimize(
            chain_query(2, predicates=predicates),
            flags=OptimizerFlags(join_filter_pushdown=True),
        )
        scan_t1 = next(
            n for n in steered.iter_nodes() if isinstance(n, TableScanNode) and n.table == "t1"
        )
        derived = [p for p in scan_t1.predicates if p.column == "k"]
        assert derived and derived[0].value >= 0.5

    def test_shuffle_removal_drops_exchange(self):
        opt, _ = optimizer_with(0.0)
        agg = AggregateSpec("sum", "t0", "x", group_by=("t0.k",))
        query = chain_query(2, aggregate=agg)
        base = opt.optimize(query, flags=OptimizerFlags(disable_broadcast_join=True))
        steered = opt.optimize(
            query,
            flags=OptimizerFlags(disable_broadcast_join=True, shuffle_removal=True),
        )
        n_ex_base = sum(1 for n in base.iter_nodes() if isinstance(n, ExchangeNode))
        n_ex_steered = sum(1 for n in steered.iter_nodes() if isinstance(n, ExchangeNode))
        assert n_ex_steered < n_ex_base

    def test_flag_plans_carry_provenance(self):
        opt, _ = optimizer_with(0.0)
        plan = opt.optimize(
            chain_query(2),
            flags=OptimizerFlags(prefer_merge_join=True),
            provenance="flag:prefer_merge_join",
        )
        assert plan.provenance == "flag:prefer_merge_join"
        assert not plan.is_default

    def test_toggled_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            OptimizerFlags().toggled("nope")


class TestCardinalityScaling:
    def test_without_stats_scaling_cannot_reorder(self):
        opt, _ = optimizer_with(0.0)
        default = opt.optimize(chain_query(4))
        scaled = opt.optimize(chain_query(4), cardinality_scale=0.1)
        assert default.structural_signature() == scaled.structural_signature()

    def test_estimated_cost_positive(self):
        opt, _ = optimizer_with(0.5)
        plan = opt.optimize(chain_query(3))
        assert opt.estimated_cost(plan) > 0

    def test_estimated_cost_reannotates_in_place_with_the_unscaled_model(self):
        """Pinned, not endorsed: a later PR should decide it on purpose
        (ROADMAP open items).  ``estimated_cost`` leaves the *unscaled*
        estimates on the plan it costs."""
        opt, _ = optimizer_with(1.0)
        query = chain_query(4)
        plan = opt.optimize(query, cardinality_scale=10.0, provenance="cardscale:10.0")
        scaled = [n.est_rows for n in plan.iter_nodes()]
        unscaled_tree = plan.root.clone()
        EstimatedCardinalityModel(opt.stats).annotate(unscaled_tree, query, field="est_rows")
        unscaled = [n.est_rows for n in unscaled_tree.iter_nodes()]
        assert scaled != unscaled  # joins over >= 3 tables carry the scale

        cost = opt.estimated_cost(plan)
        assert [n.est_rows for n in plan.iter_nodes()] == unscaled
        assert cost == intrinsic_plan_cost(unscaled_tree, field="est_rows")

    def test_pruned_cardscale_plan_carries_unscaled_estimates(self):
        """The consequence of the above for the explorer: the same
        ``cardscale:*`` plan has scaled ``est_rows`` in an unpruned candidate
        set and unscaled ones after ``_prune`` ranked it."""
        workload = generate_project(GOLDEN_PROFILES[2])
        explorer = PlanExplorer(workload.optimizer)
        seen = 0
        for _ in range(60):
            query = workload.sample_query(0)
            unpruned = {p.provenance: p for p in explorer.explore(query).plans}
            pruned = explorer.explore(query, top_k=2).plans
            if len(unpruned) <= 2:
                continue
            for plan in pruned:
                if not plan.provenance.startswith("cardscale:"):
                    continue
                twin = unpruned[plan.provenance]
                assert plan.structural_signature() == twin.structural_signature()
                unscaled_tree = plan.root.clone()
                EstimatedCardinalityModel(workload.stats).annotate(
                    unscaled_tree, query, field="est_rows"
                )
                after_prune = [n.est_rows for n in plan.iter_nodes()]
                assert after_prune == [n.est_rows for n in unscaled_tree.iter_nodes()]
                assert after_prune != [n.est_rows for n in twin.iter_nodes()]
                seen += 1
        assert seen > 0


class TestTieBreaking:
    def test_greedy_order_breaks_exact_ties_in_syntactic_order(self):
        """Twin tables give exactly equal trial estimates; the order must not
        depend on set iteration order (i.e. on the process's hash seed)."""

        def table(name, rows, ndv):
            return Table(
                name, n_rows=rows, n_partitions=4, columns=[Column("k", name, ndv=ndv, skew=0.0)]
            )

        catalog = Catalog(
            "p",
            [table("hub", 1_000, 1_000)]
            + [table(name, 50_000, 5_000) for name in ("zeta", "alpha", "mid")],
        )
        opt, _ = optimizer_with(1.0, catalog)
        query = Query(
            query_id="q",
            project="p",
            template_id="tpl",
            tables=("zeta", "alpha", "hub", "mid"),
            joins=tuple(JoinSpec("hub", "k", t, "k") for t in ("zeta", "alpha", "mid")),
        )
        plan = opt.optimize(query)
        joined = [
            {n.table for n in node.iter_nodes() if isinstance(n, TableScanNode)}
            for node in plan.iter_postorder()
            if isinstance(node, JoinNode)
        ]
        # Smallest scan first, then the three-way tie in FROM-clause order.
        assert joined == [
            {"hub", "zeta"},
            {"hub", "zeta", "alpha"},
            {"hub", "zeta", "alpha", "mid"},
        ]


def _reorderable(optimizer, query) -> bool:
    return query.n_tables > 1 and all(optimizer.stats.has_column_stats(t) for t in query.tables)


def _ordering_budget(optimizer, query, scale) -> int:
    """Node estimations the join-ordering pass may spend: every scan once,
    one trial join per (step, candidate table), and — for a steered order —
    the two full trees of the sanity check."""
    if not _reorderable(optimizer, query):
        return 0
    n = query.n_tables
    budget = n + n * (n - 1) // 2
    if scale != 1.0:
        budget += 2 * (2 * n - 1)
    return budget


@pytest.fixture()
def estimation_counter(monkeypatch):
    """Counts node estimations made by the optimizer's cardinality models."""

    class CountingModel(EstimatedCardinalityModel):
        estimations = 0

        def _apply(self, *args):
            CountingModel.estimations += 1
            return super()._apply(*args)

    monkeypatch.setattr(optimizer_module, "EstimatedCardinalityModel", CountingModel)
    return CountingModel


class TestEstimationWork:
    """Perf gates with no clock in them: they count work, so they fail the
    day someone re-introduces ``annotate(subtree.clone())`` in a loop."""

    @pytest.mark.parametrize("profile", GOLDEN_PROFILES, ids=lambda p: p.name)
    def test_optimize_estimates_each_node_once_per_model(self, profile, estimation_counter):
        workload = generate_project(profile)
        optimizer = workload.optimizer
        for _ in range(25):
            query = workload.sample_query(0)
            for flags, scale in ALL_KNOBS:
                estimation_counter.estimations = 0
                plan = optimizer.optimize(query, flags=flags, cardinality_scale=scale)
                allowed = plan.n_nodes * (1 if scale == 1.0 else 2) + _ordering_budget(
                    optimizer, query, scale
                )
                assert estimation_counter.estimations <= allowed, (query.query_id, flags, scale)

    @pytest.mark.parametrize("flag_pairs", [False, True])
    def test_explore_evaluates_each_selectivity_once(self, flag_pairs, monkeypatch):
        workload = generate_project(GOLDEN_PROFILES[2])
        evaluated: Counter = Counter()
        estimate_selectivity = workload.stats.estimate_selectivity

        def counting(column, op, value):
            evaluated[(column.qualified_name, op, value)] += 1
            return estimate_selectivity(column, op, value)

        monkeypatch.setattr(workload.stats, "estimate_selectivity", counting)
        explorer = PlanExplorer(workload.optimizer, flag_pairs=flag_pairs)
        n_predicated = 0
        for _ in range(40):
            evaluated.clear()
            query = workload.sample_query(0)
            explorer.explore(query, top_k=5)
            assert all(count == 1 for count in evaluated.values()), evaluated
            n_predicated += bool(evaluated)
        assert n_predicated > 0


class TestSameNumbersComputedOnce:
    """Carried estimates and the shared planning context change no float."""

    @pytest.mark.parametrize("profile", GOLDEN_PROFILES, ids=lambda p: p.name)
    def test_every_knob_annotates_as_from_scratch(self, profile):
        workload = generate_project(profile)
        for _ in range(30):
            query = workload.sample_query(0)
            for flags, scale in ALL_KNOBS:
                plan = workload.optimizer.optimize(query, flags=flags, cardinality_scale=scale)
                assert_annotated_as_from_scratch(plan, workload.stats)

    @pytest.mark.parametrize("profile", GOLDEN_PROFILES, ids=lambda p: p.name)
    def test_shared_context_plans_equal_one_shot_plans(self, profile):
        """A plan from ``explore()``'s shared context is the plan a fresh
        ``optimize()`` builds for the same knobs."""
        workload = generate_project(profile)
        explorer = PlanExplorer(workload.optimizer, flag_pairs=True)
        knobs = {(flags.signature(), scale): (flags, scale) for flags, scale in ALL_KNOBS}
        for _ in range(30):
            query = workload.sample_query(0)
            for plan in explorer.explore(query).plans:
                flags, scale = knobs[plan.knob_signature]
                assert_same_plan(
                    plan,
                    workload.optimizer.optimize(
                        query, flags=flags, cardinality_scale=scale, provenance=plan.provenance
                    ),
                )

    def test_explored_plans_share_no_nodes(self):
        """The executor writes ``true_rows`` / ``env`` / ``stage_id`` per plan
        and ``estimated_cost`` re-annotates in place."""
        for profile in GOLDEN_PROFILES:
            workload = generate_project(profile)
            explorer = PlanExplorer(workload.optimizer, flag_pairs=True)
            for _ in range(30):
                plans = explorer.explore(workload.sample_query(0)).plans
                nodes = [node for plan in plans for node in plan.iter_nodes()]
                assert len({id(node) for node in nodes}) == len(nodes)
                assert len({node.node_id for node in nodes}) == len(nodes)


#: Recorded on the parent commit (10ec001) before any source change, with
#: ``tests/plan_checks.py``'s digests and PYTHONHASHSEED=0.  The seed matters
#: for the parent only: it broke exact ties in the greedy join order by *set
#: iteration order*, so its digests varied between processes; with ties broken
#: in syntactic order (the one-line fix, applied to a copy of the parent) it
#: produces exactly these under every hash seed.
GOLDEN = {
    "explore": "a4ac2a6b2a3e6f044485f6207cd2f97eef2b863cb80a4464ef5901f2531d6689",
    "explore_top5": "a6c993c76c01a7b5c98a40636f44f9cc3fa98452458954a2ab09971d309331e1",
    "explore_flag_pairs": "ddd0abf7b9d889ad30ef5307dc341fb0da37a879623c51e24c5dabec94feaf94",
    "history": "077b9208ee5525c3e2166f55ddf4b58cb1b02811a1207067f7c799dbe197aaa4",
}
GOLDEN_QUERIES_PER_PROFILE = 70


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "name, explorer_kwargs, top_k",
        [
            ("explore", {}, None),
            ("explore_top5", {}, 5),
            ("explore_flag_pairs", {"flag_pairs": True}, None),
        ],
    )
    def test_explore_digest(self, name, explorer_kwargs, top_k):
        plan_lists = []
        for profile in GOLDEN_PROFILES:
            workload = generate_project(profile)
            explorer = PlanExplorer(workload.optimizer, **explorer_kwargs)
            for _ in range(GOLDEN_QUERIES_PER_PROFILE):
                plan_lists.append(explorer.explore(workload.sample_query(0), top_k=top_k).plans)
        assert len(plan_lists) >= 200
        assert plans_digest(plan_lists) == GOLDEN[name]

    def test_history_digest(self):
        """``simulate_history``: default plans, their estimates, the true
        cardinalities (the executor's model shares the engine) and costs."""
        records = []
        for profile in GOLDEN_PROFILES:
            workload = generate_project(profile)
            workload.simulate_history(2, max_queries_per_day=30)
            records.extend(workload.repository.records)
        assert history_digest(records) == GOLDEN["history"]
