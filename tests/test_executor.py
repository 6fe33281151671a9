"""Tests for repro.warehouse.executor and flighting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.warehouse.cluster import Cluster, EnvironmentSample
from repro.warehouse.executor import Executor, environment_cost_factor
from repro.warehouse.flighting import FlightingEnvironment


class TestEnvironmentCostFactor:
    def test_monotone_in_busyness(self):
        idle = EnvironmentSample(cpu_idle=0.9, io_wait=0.01, load5=1.0, mem_usage=0.2)
        busy = EnvironmentSample(cpu_idle=0.1, io_wait=0.3, load5=40.0, mem_usage=0.9)
        assert environment_cost_factor(busy) > environment_cost_factor(idle)

    def test_at_least_one(self):
        free = EnvironmentSample(cpu_idle=1.0, io_wait=0.0, load5=0.0, mem_usage=0.0)
        assert environment_cost_factor(free) == pytest.approx(1.0)

    def test_roughly_linear_in_cpu_idle(self):
        """Figure 5's shape: cost responds near-linearly to CPU_IDLE."""
        factors = [
            environment_cost_factor(EnvironmentSample(idle, 0.05, 5.0, 0.5))
            for idle in np.linspace(0.1, 0.9, 9)
        ]
        diffs = np.diff(factors)
        assert np.allclose(diffs, diffs[0], atol=1e-9)


class TestExecutor:
    def test_execution_record_fields(self, small_project, rng):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        record = small_project.executor.execute(plan, rng=rng, day=3)
        assert record.cpu_cost > 0
        assert record.latency > 0
        assert record.day == 3
        assert len(record.stages) >= 1
        assert record.is_default

    def test_env_annotated_on_every_node(self, small_project, rng):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        record = small_project.executor.execute(plan, rng=rng)
        for node in record.plan.iter_nodes():
            assert node.env is not None
            assert all(0.0 <= f <= 1.0 for f in node.env)

    def test_nodes_in_same_stage_share_env(self, small_project, rng):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        record = small_project.executor.execute(plan, rng=rng)
        by_stage: dict[int, set] = {}
        for node in record.plan.iter_nodes():
            by_stage.setdefault(node.stage_id, set()).add(node.env)
        for envs in by_stage.values():
            assert len(envs) == 1

    def test_cost_equals_stage_sum(self, small_project, rng):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        record = small_project.executor.execute(plan, rng=rng)
        assert record.cpu_cost == pytest.approx(sum(s.cpu_cost for s in record.stages))

    def test_cost_under_environment_deterministic(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        env = EnvironmentSample(0.5, 0.05, 5.0, 0.5)
        a = small_project.executor.cost_under_environment(plan, env)
        b = small_project.executor.cost_under_environment(plan, env)
        assert a == b > 0

    def test_cost_under_busier_environment_higher(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        idle = EnvironmentSample(0.9, 0.01, 1.0, 0.2)
        busy = EnvironmentSample(0.1, 0.2, 30.0, 0.9)
        assert small_project.executor.cost_under_environment(
            plan, busy
        ) > small_project.executor.cost_under_environment(plan, idle)

    def test_intrinsic_cost_is_lower_bound_scale(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        intrinsic = small_project.executor.intrinsic_cost(plan)
        env_cost = small_project.executor.cost_under_environment(
            plan, EnvironmentSample(1.0, 0.0, 0.0, 0.0)
        )
        assert env_cost == pytest.approx(intrinsic)

    def test_recurring_execution_cost_varies(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        rng = np.random.default_rng(0)
        costs = [
            small_project.executor.execute(plan.clone(), rng=rng).cpu_cost for _ in range(8)
        ]
        assert len(set(costs)) > 1


class TestFlighting:
    def test_replay_returns_records(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        flighting = small_project.flighting(seed_key="t")
        records = flighting.replay(plan, n_runs=3)
        assert len(records) == 3
        assert all(r.cpu_cost > 0 for r in records)

    def test_measure_cost_averages(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        flighting = small_project.flighting(seed_key="t2")
        cost = flighting.measure_cost(plan, n_runs=4)
        assert cost > 0

    def test_sample_costs_shape(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        flighting = small_project.flighting(seed_key="t3")
        samples = flighting.sample_costs(plan, 5)
        assert samples.shape == (5,)
        assert np.all(samples > 0)

    def test_isolated_from_production_cluster(self, small_project):
        before = small_project.cluster.cluster_environment()
        flighting = small_project.flighting(seed_key="t4")
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        flighting.replay(plan, n_runs=2)
        assert small_project.cluster.cluster_environment() == before

    def test_invalid_runs_rejected(self, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        flighting = small_project.flighting(seed_key="t5")
        with pytest.raises(ValueError):
            flighting.replay(plan, n_runs=0)
