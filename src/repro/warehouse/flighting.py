"""The flighting environment: replaying plans without disrupting users.

MaxCompute's flighting environment can replay user query plans for
measurement without compromising privacy or normal service (Section 3).
LOAM uses it to obtain ground-truth costs for held-out test queries before
deciding whether a trained predictor is fit for production.

Our simulated flighting environment owns a dedicated cluster so replays do
not perturb the production cluster's load, and supports both free-running
replays (fresh sampled environments) and pinned-environment evaluation for
controlled studies.
"""

from __future__ import annotations

import numpy as np

from repro.utils import spawn_rng
from repro.warehouse.catalog import Catalog
from repro.warehouse.cluster import Cluster
from repro.warehouse.executor import ExecutionRecord, Executor
from repro.warehouse.plan import PhysicalPlan

__all__ = ["FlightingEnvironment"]


class FlightingEnvironment:
    """Replays plans on an isolated cluster."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        n_machines: int = 120,
        rng: np.random.Generator | None = None,
        noise_sigma: float = 0.12,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self._rng = spawn_rng(rng, "flighting", catalog.project)
        self.cluster = Cluster(n_machines, rng=spawn_rng(rng, "flighting-cluster"))
        self.executor = Executor(catalog, self.cluster)
        self.noise_sigma = noise_sigma

    def replay(self, plan: PhysicalPlan, *, n_runs: int = 3) -> list[ExecutionRecord]:
        """Execute ``plan`` ``n_runs`` times under evolving load."""
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        records = []
        for _ in range(n_runs):
            # Warm-up ticks decorrelate consecutive replays.
            self.cluster.advance(5)
            records.append(
                self.executor.execute(
                    plan.clone() if plan.root.env is not None else plan,
                    rng=self._rng,
                    noise_sigma=self.noise_sigma,
                )
            )
        return records

    def measure_cost(self, plan: PhysicalPlan, *, n_runs: int = 3) -> float:
        """Average end-to-end CPU cost across replays — the paper's
        measurement protocol (each candidate executed multiple times)."""
        records = self.replay(plan, n_runs=n_runs)
        return float(np.mean([r.cpu_cost for r in records]))

    def sample_costs(self, plan: PhysicalPlan, n_samples: int) -> np.ndarray:
        """Cost samples for distribution fitting (Appendix E.1)."""
        records = self.replay(plan, n_runs=n_samples)
        return np.array([r.cpu_cost for r in records])
