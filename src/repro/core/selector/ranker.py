"""The learned project Ranker (Section 6, Appendix D.2).

Ranker estimates the improvement space D(M_d) of a query from observable
properties of its *default* plan alone, using features that carry **no
project-specific identifiers** so one Ranker transfers across projects:

1. plan structure — total operator count plus counts of every
   ``<parent, child>`` operator-type pattern (a nested-join pattern like
   ``<HashJoin, MergeJoin>`` reveals reordering opportunities that bare
   operator counts cannot);
2. input sizes — the top-3 largest table sizes touched by the plan (size
   skew signals semi-join/broadcast opportunities);
3. the default plan's execution cost (an unusually expensive plan over a
   joins-heavy shape suggests a poor join order).

All features are min-max normalized; a lightweight GBDT regresses D(M_d).
Projects are ranked by the mean estimated D(M_d) over a sampled workload,
and LOAM deploys on the top-N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.gbdt import GradientBoostedTrees
from repro.warehouse.catalog import Catalog
from repro.warehouse.operators import OPERATOR_TYPES
from repro.warehouse.plan import PhysicalPlan

__all__ = ["RankerPlanVectorizer", "ProjectRanker"]


class RankerPlanVectorizer:
    """Project-agnostic default-plan features (Appendix D.2)."""

    def __init__(self) -> None:
        pairs = [(p, c) for p in OPERATOR_TYPES for c in OPERATOR_TYPES]
        self._pair_index = {pair: i for i, pair in enumerate(pairs)}
        #: 1 (total ops) + |pairs| (structure) + 3 (table sizes) + 1 (cost)
        self.dim = 1 + len(pairs) + 3 + 1

    def vectorize(self, plan: PhysicalPlan, catalog: Catalog, cost: float) -> np.ndarray:
        out = np.zeros(self.dim)
        out[0] = plan.n_nodes
        for pair, count in plan.parent_child_patterns().items():
            out[1 + self._pair_index[pair]] = count
        sizes = sorted(
            (catalog.table(t).n_rows for t in plan.query.tables), reverse=True
        )[:3]
        base = 1 + len(self._pair_index)
        for i, size in enumerate(sizes):
            out[base + i] = np.log1p(size)
        out[base + 3] = np.log1p(max(cost, 0.0))
        return out


@dataclass
class _Normalizer:
    low: np.ndarray
    high: np.ndarray

    @staticmethod
    def fit(x: np.ndarray) -> "_Normalizer":
        low = x.min(axis=0)
        high = x.max(axis=0)
        return _Normalizer(low=low, high=np.where(high > low, high, low + 1.0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)


class ProjectRanker:
    """Cross-project GBDT estimating per-query improvement space D(M_d)."""

    def __init__(
        self,
        *,
        n_estimators: int = 120,
        max_depth: int = 4,
        learning_rate: float = 0.08,
        seed: int = 0,
    ) -> None:
        self.vectorizer = RankerPlanVectorizer()
        self.model = GradientBoostedTrees(
            n_estimators=n_estimators,
            max_depth=max_depth,
            learning_rate=learning_rate,
            subsample=0.8,
            seed=seed,
        )
        self._normalizer: _Normalizer | None = None

    # -- training -----------------------------------------------------------------

    def fit(
        self,
        plans: list[PhysicalPlan],
        catalogs: list[Catalog],
        costs: list[float],
        improvement_spaces: list[float],
    ) -> "ProjectRanker":
        """Train on (default plan, D(M_d)) pairs pooled from many projects."""
        if not (len(plans) == len(catalogs) == len(costs) == len(improvement_spaces)):
            raise ValueError("training inputs must be parallel lists")
        if not plans:
            raise ValueError("cannot train Ranker without examples")
        x = np.array(
            [
                self.vectorizer.vectorize(plan, catalog, cost)
                for plan, catalog, cost in zip(plans, catalogs, costs)
            ]
        )
        self._normalizer = _Normalizer.fit(x)
        self.model.fit(self._normalizer.apply(x), np.asarray(improvement_spaces))
        return self

    # -- inference -----------------------------------------------------------------

    def estimate_many(
        self,
        plans: list[PhysicalPlan],
        catalogs: list[Catalog],
        costs: list[float],
    ) -> np.ndarray:
        if self._normalizer is None:
            raise RuntimeError("Ranker.estimate before fit")
        x = np.array(
            [
                self.vectorizer.vectorize(plan, catalog, cost)
                for plan, catalog, cost in zip(plans, catalogs, costs)
            ]
        )
        return self.model.predict(self._normalizer.apply(x))

    def score_project(
        self,
        plans: list[PhysicalPlan],
        catalog: Catalog,
        costs: list[float],
    ) -> float:
        """Mean estimated D(M_d) over a project's sampled workload."""
        estimates = self.estimate_many(plans, [catalog] * len(plans), costs)
        return float(np.mean(estimates))

    def rank_projects(self, project_scores: dict[str, float]) -> list[str]:
        """Project names ordered by descending estimated benefit."""
        return sorted(project_scores, key=project_scores.__getitem__, reverse=True)
