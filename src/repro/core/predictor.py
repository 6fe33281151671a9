"""The adaptive cost predictor (Section 4, Figure 3).

Architecture::

                        +----------> CostPred ----> cost  (L_c: MSE)
    plan --> PlanEmb ---+
             (TCN)      +--> GRL --> DomClf  ----> default/candidate  (L_d: CE)

* **PlanEmb** — a Tree Convolutional Network mapping the vectorized plan to
  an n-dimensional embedding e_P;
* **CostPred** — a fully connected head predicting (standardized log) CPU
  cost;
* **DomClf** — two fully connected layers classifying whether the embedding
  came from a historical *default* plan or a knob-tuned *candidate* plan,
  reached through a gradient reversal layer so that PlanEmb is pushed toward
  domain-invariant representations (adversarial/DANN training).

Training minimizes ``L = w_c * L_c(defaults) + w_d * L_d(defaults ∪
candidates)`` (Eq. 1).  Candidate plans are never executed: only their
*features* are needed, so preparing them costs plan generation time alone
(challenge C3).  ``w_c``/``w_d`` are balanced automatically from the running
scales of the two losses, as the paper prescribes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.encoding import EncodedPlan, PlanEncoder
from repro.nn.autodiff import Tensor, concat, no_grad, relu
from repro.nn.grl import GradientReversal
from repro.nn.layers import Linear, Module, ReLU, Sequential
from repro.nn.losses import cross_entropy_loss, mse_loss
from repro.nn.optim import Adam, ExponentialDecay
from repro.nn.tree_conv import TreeBatch, TreeConvEncoder
from repro.warehouse.plan import PhysicalPlan

__all__ = ["PredictorConfig", "TrainingReport", "AdaptiveCostPredictor"]


@dataclass(frozen=True)
class PredictorConfig:
    """Hyperparameters.  Defaults follow Bao/Lero-style settings with the
    paper's optimization setup (lr 0.01, exponential decay 0.99/epoch)."""

    hidden_dims: tuple[int, ...] = (64, 64)
    embedding_dim: int = 32
    domain_hidden_dim: int = 32
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.01
    lr_decay: float = 0.99
    adversarial: bool = True
    #: Scales the gradient-reversal coefficient.  Full-strength DANN erases
    #: the very node features that distinguish candidate structures (their
    #: presence is what separates the domains), collapsing cost predictions;
    #: a small reversal aligns the embedding distributions while leaving the
    #: cost head discriminative.
    grl_strength: float = 0.1
    #: False reproduces the LOAM-NL ablation: environment features are zeroed
    #: during both training and inference (Section 7.2.5).
    use_environment: bool = True
    #: "node_sum" — cost is the sum of per-node softplus contributions
    #: (CPU cost is additive over operators, so candidate plans differing in
    #: one structural edit get sharply distinguishable predictions);
    #: "pooled" — a single FC head on the pooled embedding (Bao-style).
    cost_head: str = "node_sum"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cost_head not in ("node_sum", "pooled"):
            raise ValueError(f"unknown cost_head {self.cost_head!r}")


@dataclass
class TrainingReport:
    """What happened during fit(): per-epoch losses and wall-clock time."""

    cost_losses: list[float] = field(default_factory=list)
    domain_losses: list[float] = field(default_factory=list)
    train_seconds: float = 0.0
    n_default_plans: int = 0
    n_candidate_plans: int = 0
    #: Optimizer steps taken across all epochs.
    n_batches: int = 0
    #: n_batches / train_seconds (Figure 9's training-throughput row).
    steps_per_second: float = 0.0
    #: Whether the bucketed prebuilt-buffer path was used (False = reference).
    fast_path: bool = True


def _softplus(x: Tensor) -> Tensor:
    """Numerically stable softplus built from primitive ops."""
    neg_abs = -(relu(x) + relu(-x))
    return relu(x) + ((neg_abs.exp() + 1.0).log())


class _PredictiveModule(Module):
    """PlanEmb + CostPred + (GRL -> DomClf)."""

    def __init__(self, in_dim: int, config: PredictorConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.plan_emb = TreeConvEncoder(
            in_dim,
            hidden_dims=config.hidden_dims,
            embedding_dim=config.embedding_dim,
            rng=rng,
        )
        self.cost_pred = Linear(config.embedding_dim, 1, rng=rng)
        self.node_head = Linear(config.hidden_dims[-1], 1, rng=rng)
        self.log_scale = Tensor.param(np.zeros(1))
        self.grl = GradientReversal()
        self.dom_clf = Sequential(
            Linear(config.embedding_dim, config.domain_hidden_dim, rng=rng),
            ReLU(),
            Linear(config.domain_hidden_dim, 2, rng=rng),
        )
        self._log_mean = 0.0
        self._log_std = 1.0

    def set_label_transform(self, log_mean: float, log_std: float, typical_nodes: float) -> None:
        self._log_mean = log_mean
        self._log_std = log_std
        # Start the node-sum head near the label scale so early training is
        # not dominated by a constant offset.
        expected_sum = max(1.0, 0.7 * typical_nodes)
        self.log_scale.data = np.array([log_mean - np.log1p(expected_sum)])

    def embed_with_nodes(self, batch: TreeBatch) -> tuple[Tensor, Tensor]:
        nodes = self.plan_emb.node_representations(batch)
        embedding = self.plan_emb.pool(nodes, batch)
        return nodes, embedding

    def embed(self, batch: TreeBatch) -> Tensor:
        return self.plan_emb(batch)

    def predict_cost(self, nodes: Tensor, embedding: Tensor, batch: TreeBatch) -> Tensor:
        """Standardized log-cost prediction (z-space)."""
        if self.config.cost_head == "pooled":
            return self.cost_pred(embedding).reshape(-1)
        contributions = _softplus(self.node_head(nodes)) * Tensor(batch.mask)
        total = contributions.sum(axis=(1, 2))  # (B,)
        cost = total * self.log_scale.exp()
        log_cost = (cost + 1.0).log()
        return (log_cost - self._log_mean) * (1.0 / self._log_std)

    def classify_domain(self, embedding: Tensor) -> Tensor:
        return self.dom_clf(self.grl(embedding))


class AdaptiveCostPredictor:
    """LOAM's cost model: trains on historical default plans, generalizes to
    candidate plans through adversarial domain adaptation."""

    def __init__(
        self,
        encoder: PlanEncoder | None = None,
        config: PredictorConfig | None = None,
    ) -> None:
        self.encoder = encoder or PlanEncoder()
        self.config = config or PredictorConfig()
        rng = np.random.default_rng(self.config.seed)
        self.module = _PredictiveModule(self.encoder.dim, self.config, rng)
        self._rng = rng
        self._log_mean = 0.0
        self._log_std = 1.0
        self.report: TrainingReport | None = None
        #: Bumped on every fit(); the serving layer re-snapshots weights and
        #: drops cached predictions when it observes a new version.
        self.weights_version = 0
        self._serving = None

    @property
    def serving(self):
        """The lazily constructed online fast path (encode cache + bucketed
        batching + inference-only forward).  ``predict``/``select_best``
        route through it; see :mod:`repro.serving.service`."""
        if self._serving is None:
            from repro.serving.service import CostInferenceService

            self._serving = CostInferenceService(self)
        return self._serving

    # -- label transform ---------------------------------------------------------

    def _to_target(self, costs: np.ndarray) -> np.ndarray:
        return (np.log1p(costs) - self._log_mean) / self._log_std

    def _from_target(self, z: np.ndarray) -> np.ndarray:
        return np.expm1(z * self._log_std + self._log_mean)

    # -- training -------------------------------------------------------------------

    def fit(
        self,
        default_plans: list[PhysicalPlan],
        costs: list[float] | np.ndarray,
        candidate_plans: list[PhysicalPlan] | None = None,
        *,
        fast_path: bool = True,
    ) -> TrainingReport:
        """Train on executed default plans; align domains against unexecuted
        candidate plans (which need no cost labels).

        Mini-batches are global-permutation chunks, exactly as the training
        dynamics were tuned (size-homogeneous batches measurably degrade the
        learned model: plan size correlates with cost, so bucketing batch
        *composition* starves each step of label diversity).  With
        ``fast_path=True`` (default) the encoded plans are size-bucketed into
        padded float32 buffers prebuilt once before the first epoch; a batch
        is assembled from a few vectorized bucket-slice copies trimmed to the
        batch's largest tree, the conv stack runs through the fused tree-conv
        op, and the cost-forward embeddings are reused for the domain loss.
        ``fast_path=False`` is the reference: per-batch Python list assembly
        through ``TreeBatch.from_trees``, the unfused op-by-op autodiff chain,
        and a full re-forward of defaults for the domain batch.  The two paths
        consume the RNG identically and compute the same math, so their loss
        trajectories agree to float32 round-off (gated in the tests and in
        ``benchmarks/bench_training_throughput.py``).
        """
        if len(default_plans) != len(costs):
            raise ValueError("plans and costs must have equal length")
        if len(default_plans) == 0:
            raise ValueError("cannot train on an empty plan set")
        adversarial = self.config.adversarial and bool(candidate_plans)
        candidate_plans = candidate_plans or []

        costs = np.asarray(costs, dtype=np.float64)
        logs = np.log1p(costs)
        self._log_mean = float(logs.mean())
        self._log_std = float(max(logs.std(), 1e-6))
        targets = self._to_target(costs)
        typical_nodes = float(np.mean([p.n_nodes for p in default_plans]))
        self.module.set_label_transform(self._log_mean, self._log_std, typical_nodes)

        # Encode once.  Default plans carry their logged stage environments.
        # Candidates are unexecuted, so they have no environment; encoding
        # them all with one constant would hand DomClf a trivial tell (it
        # would separate domains on the environment block alone, and the GRL
        # would then erase the environment features instead of aligning plan
        # structure).  We therefore sample each candidate's environment block
        # from the empirical distribution of training environments.
        if self.config.use_environment:
            encoded_defaults = self.encoder.encode_plans(default_plans)
            env_pool = [
                node.env
                for plan in default_plans
                for node in plan.iter_nodes()
                if node.env is not None
            ]
            overrides = [
                env_pool[int(self._rng.integers(0, len(env_pool)))] if env_pool else None
                for _ in candidate_plans
            ]
            encoded_candidates = self.encoder.encode_plans(
                candidate_plans, env_overrides=overrides
            )
        else:
            zero = (0.0, 0.0, 0.0, 0.0)
            encoded_defaults = self.encoder.encode_plans(default_plans, env_override=zero)
            encoded_candidates = self.encoder.encode_plans(candidate_plans, env_override=zero)

        report = TrainingReport(
            n_default_plans=len(default_plans),
            n_candidate_plans=len(candidate_plans),
            fast_path=fast_path,
        )
        started = time.perf_counter()

        optimizer = Adam(list(self.module.parameters()), lr=self.config.learning_rate)
        scheduler = ExponentialDecay(optimizer, gamma=self.config.lr_decay)
        batch = self.config.batch_size
        n = len(encoded_defaults)
        total_steps = max(1, self.config.epochs * max(1, n // batch))
        step = 0
        cost_ema, dom_ema = 1.0, 1.0

        default_buffers = cand_buffers = None
        if fast_path:
            default_buffers = _PaddedPlanBuffers(encoded_defaults)
            if adversarial:
                cand_buffers = _PaddedPlanBuffers(encoded_candidates)

        self.module.train()
        for epoch in range(self.config.epochs):
            order = self._rng.permutation(n)
            epoch_cost, epoch_dom, n_batches = 0.0, 0.0, 0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                if len(idx) < 2:
                    continue
                step += 1
                self.module.grl.set_progress(step / total_steps)
                self.module.grl.lam *= self.config.grl_strength
                if adversarial:
                    k = min(len(encoded_candidates), len(idx))
                    cand_idx = self._rng.choice(
                        len(encoded_candidates), size=k, replace=False
                    )

                if fast_path:
                    tree_batch = default_buffers.batch(idx)
                    nodes = self.module.plan_emb.node_representations_fused(tree_batch)
                    embedding = self.module.plan_emb.pool(nodes, tree_batch)
                else:
                    defaults = [encoded_defaults[i] for i in idx]
                    tree_batch = _to_tree_batch(defaults)
                    nodes, embedding = self.module.embed_with_nodes(tree_batch)
                cost_out = self.module.predict_cost(nodes, embedding, tree_batch)
                loss_c = mse_loss(cost_out, targets[idx])

                if adversarial:
                    if fast_path:
                        # Reuse the cost-forward embeddings for the domain
                        # half: computing f(x) once or twice yields identical
                        # values and, by linearity of accumulation, identical
                        # parameter gradients.
                        cand_batch = cand_buffers.batch(cand_idx)
                        cand_emb = self.module.plan_emb.embed_fused(cand_batch)
                        dom_embedding = concat([embedding, cand_emb], axis=0)
                    else:
                        cands = [encoded_candidates[i] for i in cand_idx]
                        dom_batch = _to_tree_batch(defaults + cands)
                        dom_embedding = self.module.embed(dom_batch)
                    logits = self.module.classify_domain(dom_embedding)
                    labels = np.concatenate([np.zeros(len(idx)), np.ones(k)]).astype(int)
                    loss_d = cross_entropy_loss(logits, labels)
                    # Automatic loss balancing from running scales (Eq. 1).
                    cost_ema = 0.95 * cost_ema + 0.05 * loss_c.item()
                    dom_ema = 0.95 * dom_ema + 0.05 * loss_d.item()
                    # Balance toward the cost objective: the domain loss is a
                    # regularizer and must not overwhelm regression accuracy.
                    w_d = min(1.0, max(0.05, cost_ema / max(dom_ema, 1e-8)))
                    total = loss_c + loss_d * w_d
                    epoch_dom += loss_d.item()
                else:
                    total = loss_c

                optimizer.zero_grad()
                total.backward()
                optimizer.step()
                epoch_cost += loss_c.item()
                n_batches += 1
            scheduler.step()
            report.cost_losses.append(epoch_cost / max(1, n_batches))
            report.domain_losses.append(epoch_dom / max(1, n_batches))
            report.n_batches += n_batches

        report.train_seconds = time.perf_counter() - started
        report.steps_per_second = report.n_batches / max(report.train_seconds, 1e-9)
        self.report = report
        self.module.eval()
        self.weights_version += 1
        return report

    # -- inference -----------------------------------------------------------------------

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        """Predicted CPU cost of each plan, with the environment block set to
        ``env_features`` (or each node's logged environment when ``None``).

        Served through :attr:`serving` — cached encodings, size-bucketed
        micro-batches, and a no-autodiff forward.  :meth:`predict_baseline`
        retains the unoptimized path (the serving layer's numerical oracle)."""
        if not plans:
            return np.zeros(0)
        return self.serving.predict(plans, env_features=env_features)

    def predict_baseline(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        """The naive inference path: full re-encode of every plan, one padded
        batch, forward pass through the autodiff engine.  Kept as the
        serving equivalence tests' numerical oracle and as Figure 9c's
        reference inference row."""
        if not plans:
            return np.zeros(0)
        if not self.config.use_environment:
            env_features = (0.0, 0.0, 0.0, 0.0)
        encoded = [
            self.encoder.encode_plan_reference(p, env_override=env_features) for p in plans
        ]
        return self.predict_encoded(encoded)

    def predict_encoded(self, encoded: list[EncodedPlan]) -> np.ndarray:
        self.module.eval()
        with no_grad():
            batch = _to_tree_batch(encoded)
            nodes, embedding = self.module.embed_with_nodes(batch)
            z = self.module.predict_cost(nodes, embedding, batch)
        return np.maximum(self._from_target(z.data), 0.0)

    def embeddings(self, plans: list[PhysicalPlan], **kwargs) -> np.ndarray:
        """Plan embeddings e_P (used by tests and domain-shift diagnostics)."""
        encoded = self.encoder.encode_plans(plans, **kwargs)
        with no_grad():
            return self.module.embed(_to_tree_batch(encoded)).data

    def select_best(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> tuple[PhysicalPlan, np.ndarray]:
        """The steering decision: pick the candidate with least predicted cost."""
        predictions = self.predict(plans, env_features=env_features)
        return plans[int(np.argmin(predictions))], predictions

    # -- introspection -----------------------------------------------------------------------

    def size_bytes(self) -> int:
        return self.module.size_bytes()

    @property
    def train_seconds(self) -> float:
        return self.report.train_seconds if self.report else 0.0


def _to_tree_batch(encoded: list[EncodedPlan]) -> TreeBatch:
    return TreeBatch.from_trees([(e.features, e.left, e.right) for e in encoded])


class _PaddedPlanBuffers:
    """Size-bucketed padded float32 training buffers, prebuilt once per fit().

    ``TreeBatch.from_trees`` — the per-tree Python assembly loop with child
    validation — runs once per size bucket here instead of once per
    mini-batch per epoch.  Buckets only organize *storage* (a 5-node plan is
    never stored padded to a 40-node straggler); mini-batch composition stays
    a global permutation, and :meth:`batch` assembles a mixed-size batch with
    one vectorized slice copy per bucket present, trimmed to the batch's
    largest tree — the same padding ``from_trees`` would produce."""

    def __init__(
        self,
        encoded: list[EncodedPlan],
        *,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        self._dtype = dtype
        self._n_nodes = np.array([e.n_nodes for e in encoded], dtype=np.int64)
        self._bucket = np.zeros(len(encoded), dtype=np.int64)
        self._row = np.zeros(len(encoded), dtype=np.int64)
        self._batches: list[TreeBatch] = []
        for bucket_id, (size, members) in enumerate(
            TreeBatch.bucket_indices([e.n_nodes for e in encoded])
        ):
            for pos, g in enumerate(members):
                self._bucket[g] = bucket_id
                self._row[g] = pos
            self._batches.append(
                TreeBatch.from_trees(
                    [(encoded[g].features, encoded[g].left, encoded[g].right) for g in members],
                    dtype=dtype,
                    pad_to=size,
                )
            )

    def batch(self, indices: np.ndarray) -> TreeBatch:
        """A mini-batch TreeBatch gathered by *global* plan indices."""
        indices = np.asarray(indices)
        width = int(self._n_nodes[indices].max()) + 1
        n_rows = len(indices)
        dim = self._batches[0].feature_dim
        features = np.zeros((n_rows, width, dim), dtype=self._dtype)
        left = np.zeros((n_rows, width), dtype=np.int64)
        right = np.zeros((n_rows, width), dtype=np.int64)
        mask = np.zeros((n_rows, width, 1), dtype=self._dtype)
        batch_buckets = self._bucket[indices]
        for bucket_id in np.unique(batch_buckets):
            sel = np.nonzero(batch_buckets == bucket_id)[0]
            rows = self._row[indices[sel]]
            src = self._batches[bucket_id]
            w = min(width, src.features.shape[1])
            features[sel, :w] = src.features[rows, :w]
            left[sel, :w] = src.left[rows, :w]
            right[sel, :w] = src.right[rows, :w]
            mask[sel, :w] = src.mask[rows, :w]
        return TreeBatch(features=features, left=left, right=right, mask=mask)
