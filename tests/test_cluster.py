"""Tests for repro.warehouse.cluster (challenge C1 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.warehouse.cluster import LOAD5_MAX, Cluster, EnvironmentSample


class TestEnvironmentSample:
    def test_normalized_in_unit_cube(self):
        env = EnvironmentSample(cpu_idle=0.7, io_wait=0.1, load5=12.0, mem_usage=0.5)
        features = env.normalized()
        assert all(0.0 <= f <= 1.0 for f in features)

    def test_load5_log_normalized(self):
        low = EnvironmentSample(0.5, 0.05, 1.0, 0.5).normalized()[2]
        high = EnvironmentSample(0.5, 0.05, LOAD5_MAX, 0.5).normalized()[2]
        assert low < high == pytest.approx(1.0)

class TestCluster:
    def test_reproducible_given_seed(self):
        a = Cluster(20, rng=np.random.default_rng(3))
        b = Cluster(20, rng=np.random.default_rng(3))
        a.advance(5)
        b.advance(5)
        assert a.cluster_environment() == b.cluster_environment()

    def test_load_evolves(self):
        cluster = Cluster(50, rng=np.random.default_rng(0))
        before = cluster.cluster_environment()
        cluster.advance(30)
        after = cluster.cluster_environment()
        assert before != after

    def test_metrics_stay_in_bounds(self):
        cluster = Cluster(30, rng=np.random.default_rng(1))
        for _ in range(50):
            cluster.advance(1)
            cluster.allocate(10)
            env = cluster.cluster_environment()
            assert 0.0 <= env.cpu_idle <= 1.0
            assert 0.0 <= env.io_wait <= 1.0
            assert 0.0 <= env.load5 <= LOAD5_MAX
            assert 0.0 <= env.mem_usage <= 1.0

    def test_allocation_prefers_idle_machines(self):
        cluster = Cluster(200, rng=np.random.default_rng(2))
        cluster.advance(10)
        allocated_idle, cluster_idle = [], []
        for _ in range(30):
            cluster.advance(2)
            chosen = cluster.allocate(10)
            allocated_idle.append(cluster.stage_environment(chosen).cpu_idle)
            cluster_idle.append(cluster.cluster_environment().cpu_idle)
        # Scheduled machines are idler on average than the cluster mean
        # (Section 7.2.5's explanation for LOAM beating LOAM-CE/CB).
        assert np.mean(allocated_idle) > np.mean(cluster_idle)

    def test_allocation_adds_load(self):
        cluster = Cluster(10, rng=np.random.default_rng(4))
        chosen = cluster.allocate(10)
        env_after = cluster.stage_environment(chosen)
        fresh = Cluster(10, rng=np.random.default_rng(4))
        env_before = fresh.stage_environment(np.arange(10))
        assert env_after.cpu_idle < env_before.cpu_idle

    def test_allocate_caps_at_machine_count(self):
        cluster = Cluster(5, rng=np.random.default_rng(5))
        chosen = cluster.allocate(100)
        assert len(chosen) == 5
        assert len(set(chosen.tolist())) == 5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Cluster(0)
        cluster = Cluster(3)
        with pytest.raises(ValueError):
            cluster.allocate(0)
        with pytest.raises(ValueError):
            cluster.stage_environment(np.array([], dtype=int))

    def test_recurring_cost_variance_band(self):
        """The headline C1 number: recurring executions fluctuate but stay
        within the paper's observed band (RSD up to ~50%)."""
        from repro.warehouse.executor import environment_cost_factor

        cluster = Cluster(60, rng=np.random.default_rng(6))
        factors = []
        for _ in range(200):
            cluster.advance(3)
            chosen = cluster.allocate(8)
            factors.append(environment_cost_factor(cluster.stage_environment(chosen)))
        rsd = np.std(factors) / np.mean(factors)
        assert 0.01 < rsd < 0.5
