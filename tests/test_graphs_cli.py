"""Tests for the networkx graph views and the CLI."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.cli import main as cli_main
from repro.warehouse.graphs import (
    critical_stage_path,
    join_graph,
    plan_to_networkx,
    stage_graph_to_networkx,
)
from repro.warehouse.stages import decompose_into_stages
from repro.workload import list_scenarios


@pytest.fixture()
def executed_plan(small_project, rng):
    query = small_project.sample_query(0)
    plan = small_project.optimizer.optimize(query)
    small_project.executor.execute(plan, rng=rng)
    return plan


class TestPlanGraph:
    def test_node_and_edge_counts(self, executed_plan):
        graph = plan_to_networkx(executed_plan)
        assert graph.number_of_nodes() == executed_plan.n_nodes
        assert graph.number_of_edges() == executed_plan.n_nodes - 1  # a tree

    def test_is_arborescence(self, executed_plan):
        graph = plan_to_networkx(executed_plan)
        assert nx.is_arborescence(graph)

    def test_node_attributes(self, executed_plan):
        graph = plan_to_networkx(executed_plan)
        for _, data in graph.nodes(data=True):
            assert "op_type" in data
            assert data["true_rows"] >= 1.0


class TestStageGraph:
    def test_dag_structure(self, executed_plan):
        stages = decompose_into_stages(executed_plan)
        graph = stage_graph_to_networkx(stages)
        assert nx.is_directed_acyclic_graph(graph)
        assert graph.number_of_nodes() == stages.n_stages

    def test_costs_positive(self, executed_plan):
        stages = decompose_into_stages(executed_plan)
        graph = stage_graph_to_networkx(stages)
        assert all(d["intrinsic_cost"] > 0 for _, d in graph.nodes(data=True))

    def test_critical_path_ends_at_root_stage(self, executed_plan):
        stages = decompose_into_stages(executed_plan)
        path, cost = critical_stage_path(stages)
        assert cost > 0
        assert path[-1] == executed_plan.root.stage_id
        # Path must follow dependency edges.
        graph = stage_graph_to_networkx(stages)
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)


class TestJoinGraph:
    def test_structure_matches_query(self, small_project):
        query = small_project.sample_query(0)
        graph = join_graph(query)
        assert set(graph.nodes) == set(query.tables)
        assert graph.number_of_edges() <= len(query.joins)
        if query.n_tables > 1:
            assert nx.is_connected(graph)


class TestCli:
    def test_explain_command(self, capsys):
        code = cli_main(["--seed", "3", "explain", "SELECT * FROM t0 JOIN t1 ON t0.key0 = t1.pk"])
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out
        assert "candidate plans" in out

    def test_fleet_select_command(self, capsys):
        code = cli_main(["--seed", "3", "fleet-select", "--projects", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "projects pass the Filter" in out

    def test_scenarios_list_names_every_registered_builder(self, capsys):
        assert cli_main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name, _description in list_scenarios():
            assert name in out

    def test_scenarios_replays_one_scenario(self, capsys):
        code = cli_main(["--seed", "3", "scenarios", "--scenario", "steady", "--epochs", "2"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "steady via gateway" in out
        assert any(line.startswith("steady ") and "|" in line for line in out.splitlines())

    def test_scenarios_needs_list_or_scenario(self):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["scenarios"])
        assert exit_info.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["bogus"])
