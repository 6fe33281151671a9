"""Tests for layers, optimizers, tree conv, transformer, GCN, and GBDT."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.autodiff import Tensor
from repro.nn.gbdt import GradientBoostedTrees
from repro.nn.gcn import GCNEncoder, normalized_adjacency
from repro.nn.grl import GradientReversal, dann_lambda
from repro.nn.layers import LayerNorm, Linear, Module, ReLU, Sequential
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, ExponentialDecay
from repro.nn.transformer import TransformerEncoder
from repro.nn.tree_conv import TreeBatch, TreeConvEncoder


@pytest.fixture()
def nn_rng():
    return np.random.default_rng(0)


def chain_tree(n, dim, rng):
    features = rng.normal(size=(n, dim))
    left = np.zeros(n, dtype=np.int64)
    right = np.zeros(n, dtype=np.int64)
    for i in range(n - 1):
        left[i] = i + 2  # 1-based child rows
    return features, left, right


class TestLayers:
    def test_linear_shapes(self, nn_rng):
        layer = Linear(4, 3, rng=nn_rng)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_sequential_composes(self, nn_rng):
        model = Sequential(Linear(4, 8, rng=nn_rng), ReLU(), Linear(8, 2, rng=nn_rng))
        out = model(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert len(list(model.parameters())) == 4

    def test_layernorm_normalizes(self):
        norm = LayerNorm(6)
        out = norm(Tensor(np.random.default_rng(1).normal(5.0, 3.0, size=(4, 6))))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_module_size_bytes(self, nn_rng):
        layer = Linear(10, 10, rng=nn_rng)
        assert layer.size_bytes() == (100 + 10) * 8


class TestOptim:
    def test_adam_descends_quadratic(self):
        rng = np.random.default_rng(2)
        w = Tensor.param(rng.normal(size=(5,)))
        target = np.arange(5.0)
        opt = Adam([w], lr=0.05)
        for _ in range(300):
            loss = ((w - Tensor(target)) ** 2.0).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.allclose(w.data, target, atol=0.05)

    def test_exponential_decay(self):
        w = Tensor.param(np.array([1.0]))
        opt = Adam([w], lr=0.01)
        sched = ExponentialDecay(opt, gamma=0.9)
        sched.step()
        sched.step()
        assert opt.lr == pytest.approx(0.01 * 0.81)

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)


class TestGRLModule:
    def test_dann_lambda_schedule(self):
        assert dann_lambda(0.0) == pytest.approx(0.0)
        assert dann_lambda(1.0) == pytest.approx(1.0, abs=1e-4)
        assert dann_lambda(0.5) > dann_lambda(0.1)

    def test_set_progress(self):
        layer = GradientReversal()
        layer.set_progress(0.5)
        assert 0.0 < layer.lam < 1.0


class TestTreeConv:
    def test_batch_from_trees_padding(self, nn_rng):
        trees = [chain_tree(3, 4, nn_rng), chain_tree(5, 4, nn_rng)]
        batch = TreeBatch.from_trees(trees)
        assert batch.features.shape == (2, 6, 4)  # max 5 nodes + sentinel
        assert batch.mask[0, 4, 0] == 0.0  # padding row of the short tree
        assert batch.mask[1, 5, 0] == 1.0

    def test_sentinel_row_zero(self, nn_rng):
        batch = TreeBatch.from_trees([chain_tree(3, 4, nn_rng)])
        assert np.allclose(batch.features[:, 0, :], 0.0)

    def test_encoder_output_shape(self, nn_rng):
        batch = TreeBatch.from_trees([chain_tree(4, 6, nn_rng), chain_tree(2, 6, nn_rng)])
        encoder = TreeConvEncoder(6, (16, 8), 5, rng=nn_rng)
        out = encoder(batch)
        assert out.shape == (2, 5)

    def test_deeper_context_changes_embedding(self, nn_rng):
        """Swapping a grandchild's features must change the root embedding
        after 2 conv layers (receptive field covers depth 2)."""
        f, l, r = chain_tree(3, 4, nn_rng)
        encoder = TreeConvEncoder(4, (8, 8), 4, rng=nn_rng)
        base = encoder(TreeBatch.from_trees([(f, l, r)])).data
        f2 = f.copy()
        f2[2] += 10.0  # the deepest node
        changed = encoder(TreeBatch.from_trees([(f2, l, r)])).data
        assert not np.allclose(base, changed)

    def test_trains_to_fit_toy_target(self, nn_rng):
        trees = [chain_tree(int(n), 4, nn_rng) for n in nn_rng.integers(2, 6, size=20)]
        targets = np.array([t[0].sum() for t in trees])
        targets = (targets - targets.mean()) / targets.std()
        encoder = TreeConvEncoder(4, (16,), 8, rng=nn_rng)
        head = Linear(8, 1, rng=nn_rng)
        params = list(encoder.parameters()) + list(head.parameters())
        opt = Adam(params, lr=0.01)
        batch = TreeBatch.from_trees(trees)
        first = None
        for _ in range(150):
            out = head(encoder(batch)).reshape(-1)
            loss = mse_loss(out, targets)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.3

    def test_inconsistent_dims_rejected(self, nn_rng):
        with pytest.raises(ValueError):
            TreeBatch.from_trees([chain_tree(2, 3, nn_rng), chain_tree(2, 4, nn_rng)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            TreeBatch.from_trees([])


class TestTransformer:
    def test_output_shape_and_mask(self, nn_rng):
        model = TransformerEncoder(5, model_dim=16, embedding_dim=4, n_layers=1, n_heads=2, rng=nn_rng)
        features = nn_rng.normal(size=(3, 6, 5))
        mask = np.ones((3, 6))
        mask[1, 4:] = 0.0
        out = model(features, mask)
        assert out.shape == (3, 4)

    def test_padding_does_not_affect_output(self, nn_rng):
        model = TransformerEncoder(5, model_dim=16, embedding_dim=4, n_layers=1, n_heads=2, rng=nn_rng)
        features = nn_rng.normal(size=(1, 4, 5))
        mask = np.ones((1, 4))
        mask[0, 2:] = 0.0
        out1 = model(features, mask).data
        features2 = features.copy()
        features2[0, 3] += 100.0  # padded position
        out2 = model(features2, mask).data
        assert np.allclose(out1, out2, atol=1e-8)

    def test_indivisible_heads_rejected(self, nn_rng):
        with pytest.raises(ValueError):
            TransformerEncoder(5, model_dim=10, n_heads=3, rng=nn_rng)


class TestGCN:
    def test_adjacency_symmetric_normalized(self, nn_rng):
        batch = TreeBatch.from_trees([chain_tree(3, 4, nn_rng)])
        adj = normalized_adjacency(batch.left, batch.right, batch.mask)
        assert adj.shape == (1, 4, 4)
        assert np.allclose(adj[0], adj[0].T)
        assert np.allclose(adj[0, 0], 0.0)  # sentinel isolated

    def test_encoder_shape(self, nn_rng):
        batch = TreeBatch.from_trees([chain_tree(4, 6, nn_rng)])
        adj = normalized_adjacency(batch.left, batch.right, batch.mask)
        model = GCNEncoder(6, (8,), 3, rng=nn_rng)
        out = model(batch.features, adj, batch.mask)
        assert out.shape == (1, 3)


class TestGBDT:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(400, 5))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1]
        model = GradientBoostedTrees(n_estimators=80, max_depth=4).fit(x, y)
        pred = model.predict(x)
        assert np.corrcoef(pred, y)[0, 1] > 0.97

    def test_generalizes_to_held_out(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(600, 4))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1]
        model = GradientBoostedTrees(n_estimators=100, max_depth=4, subsample=0.8).fit(
            x[:400], y[:400]
        )
        test_err = np.mean((model.predict(x[400:]) - y[400:]) ** 2)
        assert test_err < np.var(y[400:]) * 0.3

    def test_constant_target(self):
        x = np.random.default_rng(5).normal(size=(50, 3))
        y = np.full(50, 7.0)
        model = GradientBoostedTrees(n_estimators=10).fit(x, y)
        assert np.allclose(model.predict(x), 7.0, atol=1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 3))
        y = x[:, 0]
        a = GradientBoostedTrees(n_estimators=20, seed=1, subsample=0.7).fit(x, y).predict(x)
        b = GradientBoostedTrees(n_estimators=20, seed=1, subsample=0.7).fit(x, y).predict(x)
        assert np.allclose(a, b)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.ones((2, 2)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.ones((5, 2)), np.ones(4))

    def test_size_bytes_positive_after_fit(self):
        x = np.random.default_rng(7).normal(size=(50, 2))
        model = GradientBoostedTrees(n_estimators=5).fit(x, x[:, 0])
        assert model.size_bytes() > 0
