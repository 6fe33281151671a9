"""Environment-feature strategies for plan cost inference (Section 5).

At query optimization time, the execution environment of an online query is
unobservable: the query has not started yet.  Section 5 proves (Theorem 1)
that no model can beat M_b, the model minimizing *expected* cost over the
environment distribution, and proposes approximating the expectation with a
single *representative* environment instance e_r.

The strategies here mirror the paper's comparison (Section 7.2.5):

* :class:`HistoricalMeanEnvironment` — **LOAM's choice**: each environment
  feature is set to its empirical mean over the project's historical
  stage-level observations (≈ 0.5 normalized; IO_WAIT ≈ 0.05);
* :class:`ClusterExpectedEnvironment` — **LOAM-CE**: fits the feature
  distribution from cluster-wide samples over the past 24 h and uses its
  expected values;
* :class:`ClusterCurrentEnvironment` — **LOAM-CB**: uses the cluster-wide
  environment at the moment of optimization.

LOAM-NL, with no environment features at all, is a model trained without
them (``PredictorConfig(use_environment=False)``), not a strategy.
"""

from __future__ import annotations

import numpy as np

from repro.warehouse.cluster import Cluster
from repro.warehouse.executor import ExecutionRecord

__all__ = [
    "EnvironmentStrategy",
    "HistoricalMeanEnvironment",
    "ClusterExpectedEnvironment",
    "ClusterCurrentEnvironment",
]

Features = tuple[float, float, float, float]


class EnvironmentStrategy:
    """Supplies the environment feature block for online cost inference."""

    name = "base"

    def features(self) -> Features:
        raise NotImplementedError

class HistoricalMeanEnvironment(EnvironmentStrategy):
    """The representative average-case instance e_r: per-feature empirical
    means of the *machine-level* environments historical queries actually
    experienced (not cluster-wide averages — scheduled machines are idler
    than the cluster mean, Section 7.2.5)."""

    name = "loam"

    def __init__(self, records: list[ExecutionRecord] | None = None) -> None:
        self._features: Features = (0.5, 0.05, 0.5, 0.5)
        if records:
            self.fit(records)

    def fit(self, records: list[ExecutionRecord]) -> "HistoricalMeanEnvironment":
        rows = [
            stage.environment.normalized()
            for record in records
            for stage in record.stages
        ]
        if not rows:
            raise ValueError("no stage environments found in records")
        mean = np.mean(np.array(rows), axis=0)
        self._features = (float(mean[0]), float(mean[1]), float(mean[2]), float(mean[3]))
        return self

    def features(self) -> Features:
        return self._features


class ClusterExpectedEnvironment(EnvironmentStrategy):
    """LOAM-CE: expected values of a distribution fitted to cluster-wide
    samples collected over a trailing window (the paper uses 24 h).

    **Side effect**: collecting the window *advances the shared cluster
    clock* by ``n_samples * ticks_between`` ticks (the simulator has no
    retrospective sampling, so a trailing window is emulated by stepping
    time forward).  Collection therefore happens eagerly in ``__init__`` —
    at a well-defined point chosen by the caller — rather than lazily on
    the first ``features()`` read, where the clock jump used to be a hidden
    side effect whose timing depended on when some downstream consumer
    first asked for features.  Pass ``eager=False`` to defer; ``features()``
    then raises until :meth:`collect` is called explicitly.
    """

    name = "loam-ce"

    def __init__(
        self,
        cluster: Cluster,
        *,
        n_samples: int = 72,
        ticks_between: int = 60,
        eager: bool = True,
    ) -> None:
        self.cluster = cluster
        self.n_samples = n_samples
        self.ticks_between = ticks_between
        self._features: Features | None = None
        if eager:
            self.collect()

    def collect(self) -> "ClusterExpectedEnvironment":
        """Sample the trailing window (advances the cluster clock)."""
        rows = []
        for _ in range(self.n_samples):
            self.cluster.advance(self.ticks_between)
            rows.append(self.cluster.cluster_environment().normalized())
        mean = np.mean(np.array(rows), axis=0)
        self._features = (float(mean[0]), float(mean[1]), float(mean[2]), float(mean[3]))
        return self

    def features(self) -> Features:
        if self._features is None:
            raise RuntimeError(
                "ClusterExpectedEnvironment constructed with eager=False: "
                "call collect() before features() (collection advances the "
                "shared cluster clock)"
            )
        return self._features


class ClusterCurrentEnvironment(EnvironmentStrategy):
    """LOAM-CB: the cluster-wide environment right now.  Fresh per query."""

    name = "loam-cb"

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def features(self) -> Features:
        return self.cluster.cluster_environment().normalized()

