"""Tests for environment strategies at cost-inference time (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inference import (
    ClusterCurrentEnvironment,
    ClusterExpectedEnvironment,
    HistoricalMeanEnvironment,
)
from repro.warehouse.cluster import Cluster


class TestHistoricalMean:
    def test_defaults_match_paper_means(self):
        strategy = HistoricalMeanEnvironment()
        cpu_idle, io_wait, load5, mem = strategy.features()
        # Paper: empirical means near 0.5 normalized, IO_WAIT near 0.05.
        assert cpu_idle == pytest.approx(0.5)
        assert io_wait == pytest.approx(0.05)

    def test_fit_from_records(self, project_with_history):
        records = project_with_history.repository.records[:50]
        strategy = HistoricalMeanEnvironment(records)
        features = strategy.features()
        assert all(0.0 <= f <= 1.0 for f in features)

    def test_fit_matches_manual_mean(self, project_with_history):
        records = project_with_history.repository.records[:30]
        strategy = HistoricalMeanEnvironment(records)
        rows = np.array(
            [s.environment.normalized() for r in records for s in r.stages]
        )
        assert np.allclose(strategy.features(), rows.mean(axis=0))

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            HistoricalMeanEnvironment().fit([])

class TestClusterStrategies:
    def test_expected_environment_in_bounds(self):
        cluster = Cluster(30, rng=np.random.default_rng(0))
        strategy = ClusterExpectedEnvironment(cluster, n_samples=10, ticks_between=5)
        features = strategy.features()
        assert all(0.0 <= f <= 1.0 for f in features)

    def test_expected_environment_cached(self):
        cluster = Cluster(30, rng=np.random.default_rng(1))
        strategy = ClusterExpectedEnvironment(cluster, n_samples=5, ticks_between=2)
        assert strategy.features() == strategy.features()

    def test_collection_is_eager(self):
        """Construction samples the window immediately — the cluster-clock
        advancement happens at a caller-chosen point, not as a hidden side
        effect of the first features() read."""
        cluster = Cluster(30, rng=np.random.default_rng(3))
        before = cluster.cluster_environment().normalized()
        ClusterExpectedEnvironment(cluster, n_samples=5, ticks_between=2)
        after = cluster.cluster_environment().normalized()
        assert before != after  # clock advanced during __init__

    def test_deferred_collection_raises_until_collect(self):
        cluster = Cluster(30, rng=np.random.default_rng(4))
        before = cluster.cluster_environment().normalized()
        strategy = ClusterExpectedEnvironment(
            cluster, n_samples=5, ticks_between=2, eager=False
        )
        assert cluster.cluster_environment().normalized() == before
        with pytest.raises(RuntimeError, match="eager=False"):
            strategy.features()
        strategy.collect()
        assert all(0.0 <= f <= 1.0 for f in strategy.features())

    def test_current_environment_tracks_cluster(self):
        cluster = Cluster(30, rng=np.random.default_rng(2))
        strategy = ClusterCurrentEnvironment(cluster)
        before = strategy.features()
        cluster.advance(50)
        after = strategy.features()
        assert before != after

    def test_historical_mean_idler_than_cluster_mean(self, project_with_history):
        """Why LOAM beats LOAM-CE: queries run on machines the scheduler
        picked for idleness, so the historical machine-level mean shows
        more idle CPU than the cluster-wide average."""
        records = project_with_history.repository.records
        historical = HistoricalMeanEnvironment(records)
        cluster_mean = project_with_history.cluster.cluster_environment().normalized()
        assert historical.features()[0] > cluster_mean[0] - 0.05


class TestNoLoad:
    def test_strategy_names_unique(self):
        names = {
            HistoricalMeanEnvironment.name,
            ClusterExpectedEnvironment.name,
            ClusterCurrentEnvironment.name,
        }
        assert len(names) == 3
