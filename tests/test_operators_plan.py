"""Tests for repro.warehouse.operators and repro.warehouse.plan."""

from __future__ import annotations

import pytest

from repro.warehouse.operators import (
    AggregateNode,
    ExchangeNode,
    FilterNode,
    JoinNode,
    OPERATOR_TYPES,
    SortNode,
    TableScanNode,
)
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import Predicate, Query


def small_tree():
    scan_a = TableScanNode(table="a", n_partitions=2, n_columns=3)
    scan_b = TableScanNode(table="b", n_partitions=1, n_columns=1)
    exchange = ExchangeNode(children=[scan_b], mode="shuffle", keys=("b.k",))
    return JoinNode(
        children=[scan_a, exchange],
        algorithm="hash",
        form="inner",
        left_key="a.k",
        right_key="b.k",
    )


def plan_for(root):
    query = Query(query_id="q", project="p", template_id="t", tables=("a",))
    return PhysicalPlan(root=root, query=query)


class TestPlanNode:
    def test_operator_types_cover_all_nodes(self):
        assert "TableScan" in OPERATOR_TYPES
        assert len(set(OPERATOR_TYPES)) == len(OPERATOR_TYPES)

    def test_traversal_orders(self):
        root = small_tree()
        pre = [n.op_type for n in root.iter_nodes()]
        assert pre == ["HashJoin", "TableScan", "Exchange", "TableScan"]

    def test_counts_and_depth(self):
        root = small_tree()
        assert root.n_nodes() == 4

    def test_join_op_type_by_algorithm(self):
        assert JoinNode(algorithm="hash").op_type == "HashJoin"
        assert JoinNode(algorithm="merge").op_type == "MergeJoin"
        assert JoinNode(algorithm="broadcast").op_type == "BroadcastHashJoin"

    def test_aggregate_kind(self):
        assert AggregateNode(kind="hash").op_type == "HashAggregate"
        assert AggregateNode(kind="sort").op_type == "SortAggregate"

    def test_clone_is_deep_and_fresh(self):
        root = small_tree()
        root.true_rows = 42.0
        root.env = (0.1, 0.2, 0.3, 0.4)
        copy = root.clone()
        assert copy is not root
        assert copy.structural_signature() == root.structural_signature()
        assert copy.env is None  # annotations dropped
        copy.children[0].table = "zzz"
        assert root.children[0].table == "a"

    def test_structural_signature_distinguishes_attributes(self):
        a = TableScanNode(table="a")
        b = TableScanNode(table="b")
        assert a.structural_signature() != b.structural_signature()

    def test_signature_distinguishes_predicates(self):
        a = FilterNode(predicates=(Predicate("a", "x", "=", 0.2),))
        b = FilterNode(predicates=(Predicate("a", "x", "=", 0.8),))
        assert a.structural_signature() != b.structural_signature()


class TestPhysicalPlan:
    def test_parent_child_patterns(self):
        plan = plan_for(small_tree())
        patterns = plan.parent_child_patterns()
        assert patterns[("HashJoin", "TableScan")] == 1
        assert patterns[("HashJoin", "Exchange")] == 1
        assert patterns[("Exchange", "TableScan")] == 1

    def test_is_default_follows_provenance(self):
        plan = plan_for(small_tree())
        assert plan.is_default
        steered = PhysicalPlan(root=small_tree(), query=plan.query, provenance="flag:x")
        assert not steered.is_default

    def test_clone_preserves_provenance(self):
        plan = PhysicalPlan(root=small_tree(), query=plan_for(small_tree()).query, provenance="flag:x")
        assert plan.clone().provenance == "flag:x"

    def test_pretty_contains_each_operator(self):
        text = plan_for(small_tree()).pretty()
        for op in ("HashJoin", "TableScan", "Exchange"):
            assert op in text

    def test_sort_node_signature_includes_keys(self):
        a = SortNode(keys=("a.k",))
        b = SortNode(keys=("b.k",))
        assert a.structural_signature() != b.structural_signature()
