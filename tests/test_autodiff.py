"""Tests for the autodiff engine, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.autodiff import Tensor, concat, gather_nodes, grl, no_grad, relu
from repro.nn.losses import cross_entropy_loss, log_softmax, mse_loss, softmax


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        x[i] += eps
        up = f()
        x[i] -= 2 * eps
        down = f()
        x[i] += eps
        grad[i] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def assert_grad_matches(param, loss_fn, atol=1e-6):
    loss = loss_fn()
    loss.backward()
    num = numerical_grad(lambda: loss_fn().item(), param.data)
    assert np.allclose(param.grad, num, atol=atol), (
        f"max err {np.abs(param.grad - num).max()}"
    )


class TestBasicOps:
    def test_add_mul_scalar(self):
        a = Tensor.param(np.array([1.0, 2.0]))
        out = (a * 3.0 + 1.0).sum()
        out.backward()
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_broadcast_add_reduces_grad(self):
        bias = Tensor.param(np.zeros(3))
        x = Tensor(np.ones((4, 3)))
        out = (x + bias).sum()
        out.backward()
        assert np.allclose(bias.grad, [4.0, 4.0, 4.0])

    def test_matmul_gradcheck(self):
        rng = np.random.default_rng(0)
        w = Tensor.param(rng.normal(size=(3, 2)))
        x = Tensor(rng.normal(size=(5, 3)))
        assert_grad_matches(w, lambda: (x @ w).sum())

    def test_batched_matmul_gradcheck(self):
        rng = np.random.default_rng(1)
        w = Tensor.param(rng.normal(size=(2, 4, 3)))
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert_grad_matches(w, lambda: ((w @ x) * Tensor(np.ones((2, 4, 4)))).sum())

    def test_pow_and_div(self):
        a = Tensor.param(np.array([2.0, 4.0]))
        assert_grad_matches(a, lambda: (a**-1.0 + a / 4.0 + a**2.0).sum())

    def test_exp_log(self):
        a = Tensor.param(np.array([0.5, 1.5]))
        assert_grad_matches(a, lambda: (a.exp() + (a + 1.0).log()).sum())

    def test_mean_and_max(self):
        rng = np.random.default_rng(2)
        a = Tensor.param(rng.normal(size=(4, 5)))
        assert_grad_matches(a, lambda: a.max(axis=1).mean())

    def test_reshape_transpose(self):
        rng = np.random.default_rng(3)
        a = Tensor.param(rng.normal(size=(2, 6)))
        assert_grad_matches(
            a, lambda: (a.reshape(2, 3, 2).transpose(0, 2, 1) * 2.0).sum()
        )

    def test_getitem(self):
        a = Tensor.param(np.arange(6.0).reshape(2, 3))
        out = a[0].sum()
        out.backward()
        assert np.allclose(a.grad, [[1, 1, 1], [0, 0, 0]])


class TestNonlinearities:
    @pytest.mark.parametrize("fn", [relu])
    def test_gradcheck(self, fn):
        rng = np.random.default_rng(4)
        a = Tensor.param(rng.normal(size=(3, 3)) + 0.1)
        assert_grad_matches(a, lambda: fn(a).sum(), atol=1e-5)


class TestStructuralOps:
    def test_concat_gradcheck(self):
        rng = np.random.default_rng(5)
        a = Tensor.param(rng.normal(size=(2, 3)))
        b = Tensor.param(rng.normal(size=(2, 2)))
        assert_grad_matches(a, lambda: (concat([a, b], axis=1) ** 2.0).sum())

    def test_gather_nodes_forward(self):
        x = Tensor(np.arange(12.0).reshape(1, 4, 3))
        idx = np.array([[2, 0, 1, 3]])
        out = gather_nodes(x, idx)
        assert np.allclose(out.data[0, 0], [6, 7, 8])
        assert np.allclose(out.data[0, 1], [0, 1, 2])

    def test_gather_nodes_gradcheck(self):
        rng = np.random.default_rng(7)
        x = Tensor.param(rng.normal(size=(2, 4, 3)))
        idx = np.array([[0, 0, 1, 2], [3, 3, 3, 0]])
        assert_grad_matches(x, lambda: (gather_nodes(x, idx) ** 2.0).sum())

    def test_grl_reverses_and_scales(self):
        a = Tensor.param(np.array([1.0, -2.0]))
        out = (grl(a, 0.7) * np.array([2.0, 3.0])).sum()
        out.backward()
        assert np.allclose(a.grad, [-1.4, -2.1])

    def test_grl_forward_identity(self):
        a = Tensor.param(np.array([1.0, -2.0]))
        assert np.allclose(grl(a, 5.0).data, a.data)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 3.0]))
        assert mse_loss(pred, np.array([1.0, 1.0])).item() == pytest.approx(2.0)

    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(8).normal(size=(4, 3)))
        assert np.allclose(softmax(logits).data.sum(axis=1), 1.0)

    def test_log_softmax_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0]]))
        out = log_softmax(logits).data
        assert np.isfinite(out).all()

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(9)
        logits = Tensor.param(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=5)
        assert_grad_matches(logits, lambda: cross_entropy_loss(logits * 1.0, labels))

    def test_cross_entropy_prefers_correct_class(self):
        good = Tensor(np.array([[5.0, -5.0]]))
        bad = Tensor(np.array([[-5.0, 5.0]]))
        labels = np.array([0])
        assert cross_entropy_loss(good, labels).item() < cross_entropy_loss(bad, labels).item()


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        a = Tensor.param(np.array([1.0]))
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_backward_on_constant_rejected(self):
        a = Tensor(np.array([1.0]))
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_grad_accumulates_across_uses(self):
        a = Tensor.param(np.array([2.0]))
        out = a * 3.0 + a * 4.0
        out.sum().backward()
        assert np.allclose(a.grad, [7.0])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    def test_linear_chain_gradient_property(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        a = Tensor.param(rng.normal(size=(rows, cols)))
        loss = (relu(a * 2.0) + a**2.0).sum()
        loss.backward()
        expected = 2.0 * (a.data > 0) + 2.0 * a.data
        assert np.allclose(a.grad, expected)


def _random_tree_batch(rng, batch=3, n_nodes=7, dim=5):
    """Padded tree arrays with valid tree-shaped child indices: apart from
    the shared sentinel 0, no child index repeats within a tree."""
    features = rng.normal(size=(batch, n_nodes + 1, dim))
    features[:, 0] = 0.0
    left = np.zeros((batch, n_nodes + 1), dtype=np.int64)
    right = np.zeros((batch, n_nodes + 1), dtype=np.int64)
    for b in range(batch):
        unassigned = list(range(2, n_nodes + 1))
        rng.shuffle(unassigned)
        frontier = [1]
        while unassigned:
            parent = frontier.pop(0)
            left[b, parent] = unassigned.pop()
            frontier.append(left[b, parent])
            if unassigned and rng.random() < 0.6:
                right[b, parent] = unassigned.pop()
                frontier.append(right[b, parent])
    mask = np.ones((batch, n_nodes + 1, 1))
    mask[:, 0] = 0.0
    return features, left, right, mask


class TestFusedTreeConv:
    """The fused gather→matmul→ReLU→mask op must match the unfused chain
    bit-for-bit in the forward and to float64 round-off in the backward."""

    def _unfused(self, x, left, right, mask, weight, bias):
        l = gather_nodes(x, left)
        r = gather_nodes(x, right)
        pre = concat([x, l, r], axis=-1) @ weight + bias
        return relu(pre) * Tensor(mask)

    def test_forward_matches_unfused(self):
        from repro.nn.autodiff import fused_tree_conv

        rng = np.random.default_rng(0)
        features, left, right, mask = _random_tree_batch(rng)
        weight = Tensor.param(rng.normal(size=(15, 4)))
        bias = Tensor.param(rng.normal(size=4))
        x = Tensor.param(features.copy())
        expected = self._unfused(x, left, right, mask, weight, bias)
        actual = fused_tree_conv(x, left, right, mask, weight, bias)
        assert np.array_equal(expected.data, actual.data)

    def test_backward_matches_unfused(self):
        from repro.nn.autodiff import fused_tree_conv

        rng = np.random.default_rng(1)
        features, left, right, mask = _random_tree_batch(rng, batch=4, n_nodes=9)
        weight = Tensor.param(rng.normal(size=(15, 6)))
        bias = Tensor.param(rng.normal(size=6))
        upstream = rng.normal(size=(4, 10, 6))

        x1 = Tensor.param(features.copy())
        (self._unfused(x1, left, right, mask, weight, bias) * Tensor(upstream)).sum().backward()
        gx, gw, gb = x1.grad.copy(), weight.grad.copy(), bias.grad.copy()

        weight.zero_grad()
        bias.zero_grad()
        x2 = Tensor.param(features.copy())
        (fused_tree_conv(x2, left, right, mask, weight, bias) * Tensor(upstream)).sum().backward()
        assert np.allclose(gx, x2.grad, atol=1e-12)
        assert np.allclose(gw, weight.grad, atol=1e-12)
        assert np.allclose(gb, bias.grad, atol=1e-12)

    def test_numerical_gradcheck(self):
        from repro.nn.autodiff import fused_tree_conv

        rng = np.random.default_rng(2)
        features, left, right, mask = _random_tree_batch(rng, batch=2, n_nodes=5, dim=3)
        # Shift pre-activations away from the ReLU kink so the numerical
        # two-sided difference stays on one linear piece.
        weight = Tensor.param(0.1 * rng.normal(size=(9, 3)))
        bias = Tensor.param(0.5 + 0.1 * rng.normal(size=3))
        x = Tensor.param(features.copy())
        seed_grad = rng.normal(size=(2, 6, 3))

        def loss_fn():
            out = fused_tree_conv(x, left, right, mask, weight, bias)
            return (out * Tensor(seed_grad)).sum()

        for param in (x, weight, bias):
            assert_grad_matches(param, loss_fn, atol=1e-5)
            x.zero_grad()
            weight.zero_grad()
            bias.zero_grad()

    def test_accepts_plain_ndarray_input(self):
        from repro.nn.autodiff import fused_tree_conv

        rng = np.random.default_rng(3)
        features, left, right, mask = _random_tree_batch(rng)
        weight = Tensor.param(rng.normal(size=(15, 4)))
        bias = Tensor.param(rng.normal(size=4))
        out = fused_tree_conv(
            features.astype(np.float32), left, right, mask, weight, bias
        )
        out.sum().backward()
        assert weight.grad is not None and bias.grad is not None
        ref = fused_tree_conv(Tensor(features), left, right, mask, weight, bias)
        assert np.allclose(out.data, ref.data, atol=1e-6)
