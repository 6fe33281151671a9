"""Baseline learned cost models (Section 7.1).

Three representative cost-model families from prior work, adapted to
MaxCompute the way the paper adapts them: statistics-dependent features are
removed and LOAM's feature set is injected through each model's native
encoding style.

* :class:`TransformerCostPredictor` — QueryFormer-style attention over the
  node sequence (Zhao et al., 2022);
* :class:`GCNCostPredictor` — zero-shot-style graph convolution over the
  plan graph (Hilprecht & Binnig, 2022);
* :class:`XGBoostCostPredictor` — gradient-boosted trees over pooled plan
  features (Ammerlaan et al., 2021).

None of them uses adaptive (adversarial) training: they are trained on
historical default plans only and therefore suffer the default→candidate
distribution shift, which is the effect Figure 6 and Figure 11 isolate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.encoding import EncodedPlan, PlanEncoder
from repro.nn.autodiff import Tensor, no_grad
from repro.nn.gbdt import GradientBoostedTrees
from repro.nn.gcn import GCNEncoder, normalized_adjacency
from repro.nn.layers import Linear, Module
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, ExponentialDecay
from repro.nn.transformer import TransformerEncoder
from repro.nn.tree_conv import TreeBatch
from repro.warehouse.plan import PhysicalPlan

__all__ = [
    "BaselineCostModel",
    "TransformerCostPredictor",
    "GCNCostPredictor",
    "XGBoostCostPredictor",
]


class BaselineCostModel:
    """Shared training scaffolding: standardized log-cost regression."""

    name = "baseline"

    def __init__(self, encoder: PlanEncoder | None = None, *, seed: int = 0) -> None:
        self.encoder = encoder or PlanEncoder()
        self._rng = np.random.default_rng(seed)
        self._log_mean = 0.0
        self._log_std = 1.0
        self.train_seconds = 0.0

    # subclass hooks ---------------------------------------------------------

    def _forward(self, encoded: list[EncodedPlan]) -> Tensor:
        raise NotImplementedError

    def _parameters(self) -> list[Tensor]:
        raise NotImplementedError

    def size_bytes(self) -> int:
        raise NotImplementedError

    # shared ------------------------------------------------------------------

    def fit(
        self,
        plans: list[PhysicalPlan],
        costs: list[float] | np.ndarray,
        *,
        epochs: int = 20,
        batch_size: int = 64,
        learning_rate: float = 0.001,
    ) -> None:
        costs = np.asarray(costs, dtype=np.float64)
        logs = np.log1p(costs)
        self._log_mean = float(logs.mean())
        self._log_std = float(max(logs.std(), 1e-6))
        targets = (logs - self._log_mean) / self._log_std
        encoded = self.encoder.encode_plans(plans)

        started = time.perf_counter()
        optimizer = Adam(self._parameters(), lr=learning_rate)
        scheduler = ExponentialDecay(optimizer, gamma=0.99)
        n = len(encoded)
        for _ in range(epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                if len(idx) < 2:
                    continue
                out = self._forward([encoded[i] for i in idx])
                loss = mse_loss(out, targets[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            scheduler.step()
        self.train_seconds = time.perf_counter() - started

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        encoded = self.encoder.encode_plans(plans, env_override=env_features)
        with no_grad():
            z = self._forward(encoded)
        return np.maximum(np.expm1(z.data * self._log_std + self._log_mean), 0.0)

    def select_best(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> tuple[PhysicalPlan, np.ndarray]:
        predictions = self.predict(plans, env_features=env_features)
        return plans[int(np.argmin(predictions))], predictions


class TransformerCostPredictor(BaselineCostModel):
    name = "transformer"

    def __init__(self, encoder: PlanEncoder | None = None, *, seed: int = 0) -> None:
        super().__init__(encoder, seed=seed)
        rng = np.random.default_rng(seed)
        self.model = TransformerEncoder(
            self.encoder.dim, model_dim=64, embedding_dim=32, n_layers=2, n_heads=4, rng=rng
        )
        self.head = Linear(32, 1, rng=rng)

    def _forward(self, encoded: list[EncodedPlan]) -> Tensor:
        batch = TreeBatch.from_trees([(e.features, e.left, e.right) for e in encoded])
        features = batch.features[:, 1:, :]  # drop sentinel row for sequences
        mask = batch.mask[:, 1:, 0]
        return self.head(self.model(features, mask)).reshape(-1)

    def _parameters(self) -> list[Tensor]:
        return list(self.model.parameters()) + list(self.head.parameters())

    def size_bytes(self) -> int:
        return self.model.size_bytes() + self.head.size_bytes()


class GCNCostPredictor(BaselineCostModel):
    name = "gcn"

    def __init__(self, encoder: PlanEncoder | None = None, *, seed: int = 0) -> None:
        super().__init__(encoder, seed=seed)
        rng = np.random.default_rng(seed)
        self.model = GCNEncoder(self.encoder.dim, hidden_dims=(128, 64), embedding_dim=32, rng=rng)
        self.head = Linear(32, 1, rng=rng)

    def _forward(self, encoded: list[EncodedPlan]) -> Tensor:
        batch = TreeBatch.from_trees([(e.features, e.left, e.right) for e in encoded])
        adjacency = normalized_adjacency(batch.left, batch.right, batch.mask)
        return self.head(self.model(batch.features, adjacency, batch.mask)).reshape(-1)

    def _parameters(self) -> list[Tensor]:
        return list(self.model.parameters()) + list(self.head.parameters())

    def size_bytes(self) -> int:
        return self.model.size_bytes() + self.head.size_bytes()


class XGBoostCostPredictor(BaselineCostModel):
    """GBDT over pooled plan features: [mean-pool | max-pool | n_nodes]."""

    name = "xgboost"

    def __init__(self, encoder: PlanEncoder | None = None, *, seed: int = 0) -> None:
        super().__init__(encoder, seed=seed)
        self.model = GradientBoostedTrees(
            n_estimators=100, max_depth=6, learning_rate=0.1, subsample=0.9, seed=seed
        )

    @staticmethod
    def _pool(encoded: list[EncodedPlan]) -> np.ndarray:
        rows = []
        for e in encoded:
            rows.append(
                np.concatenate(
                    [e.features.mean(axis=0), e.features.max(axis=0), [float(e.n_nodes)]]
                )
            )
        return np.array(rows)

    def fit(
        self,
        plans: list[PhysicalPlan],
        costs: list[float] | np.ndarray,
        **_: object,
    ) -> None:
        costs = np.asarray(costs, dtype=np.float64)
        logs = np.log1p(costs)
        self._log_mean = float(logs.mean())
        self._log_std = float(max(logs.std(), 1e-6))
        targets = (logs - self._log_mean) / self._log_std
        features = self._pool(self.encoder.encode_plans(plans))
        started = time.perf_counter()
        self.model.fit(features, targets)
        self.train_seconds = time.perf_counter() - started

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        features = self._pool(self.encoder.encode_plans(plans, env_override=env_features))
        z = self.model.predict(features)
        return np.maximum(np.expm1(z * self._log_std + self._log_mean), 0.0)

    def size_bytes(self) -> int:
        return self.model.size_bytes()
