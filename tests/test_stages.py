"""Tests for repro.warehouse.stages (plan decomposition)."""

from __future__ import annotations

import pytest

from repro.warehouse.operators import (
    AggregateNode,
    ExchangeNode,
    JoinNode,
    TableScanNode,
)
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import Query
from repro.warehouse.stages import decompose_into_stages


def wrap(root):
    query = Query(query_id="q", project="p", template_id="t", tables=("a",))
    plan = PhysicalPlan(root=root, query=query)
    for node in plan.iter_nodes():
        node.true_rows = 100.0
    return plan


class TestDecomposition:
    def test_single_pipeline_is_one_stage(self):
        scan = TableScanNode(table="a")
        graph = decompose_into_stages(wrap(scan))
        assert len(graph.stages) == 1
        assert scan.stage_id == 0

    def test_exchange_splits_stages(self):
        scan = TableScanNode(table="a")
        exchange = ExchangeNode(children=[scan], mode="shuffle", keys=("a.k",))
        agg = AggregateNode(children=[exchange], kind="hash", func="sum", agg_column="a.x")
        graph = decompose_into_stages(wrap(agg))
        assert len(graph.stages) == 2
        # Exchange belongs to the producer stage, with its scan.
        assert exchange.stage_id == scan.stage_id
        assert agg.stage_id != scan.stage_id

    def test_topological_order_upstream_first(self):
        scan_a = TableScanNode(table="a")
        scan_b = TableScanNode(table="b")
        ex_a = ExchangeNode(children=[scan_a], mode="shuffle", keys=("a.k",))
        ex_b = ExchangeNode(children=[scan_b], mode="shuffle", keys=("b.k",))
        join = JoinNode(children=[ex_a, ex_b], algorithm="hash", left_key="a.k", right_key="b.k")
        graph = decompose_into_stages(wrap(join))
        assert len(graph.stages) == 3
        order = graph.topological_order()
        seen: set[int] = set()
        for stage in order:
            assert all(up in seen for up in stage.upstream)
            seen.add(stage.stage_id)
        # Join consumes both producer stages.
        join_stage = graph.stages[join.stage_id]
        assert len(join_stage.upstream) == 2

    def test_stage_ids_are_dense(self):
        scan = TableScanNode(table="a")
        exchange = ExchangeNode(children=[scan], mode="shuffle")
        agg = AggregateNode(children=[exchange], kind="hash", func="sum", agg_column="a.x")
        graph = decompose_into_stages(wrap(agg))
        assert sorted(s.stage_id for s in graph.stages) == list(range(len(graph.stages)))
        for stage in graph.stages:
            for node in stage.nodes:
                assert node.stage_id == stage.stage_id

    def test_all_nodes_assigned(self):
        scan_a = TableScanNode(table="a")
        scan_b = TableScanNode(table="b")
        ex_b = ExchangeNode(children=[scan_b], mode="broadcast")
        join = JoinNode(children=[ex_b, scan_a], algorithm="broadcast", left_key="b.k", right_key="a.k")
        plan = wrap(join)
        graph = decompose_into_stages(plan)
        assigned = {id(n) for s in graph.stages for n in s.nodes}
        assert assigned == {id(n) for n in plan.iter_nodes()}

    def test_stage_cost_and_parallelism(self):
        scan = TableScanNode(table="a")
        plan = wrap(scan)
        scan.true_rows = 1000.0
        scan.raw_true_rows = 1000.0
        graph = decompose_into_stages(plan)
        stage = graph.stages[0]
        assert stage.intrinsic_cost() > 0
        assert stage.parallelism() == 1
        assert stage.input_rows() == pytest.approx(1000.0)
