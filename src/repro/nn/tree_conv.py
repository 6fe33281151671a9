"""Tree Convolutional Networks over binary plan trees.

This is the PlanEmb architecture of LOAM (Section 4), in the style of Bao
and Neo: a learnable filter slides over each (node, left-child, right-child)
triple, aggregating information upward; stacking layers widens each node's
receptive field to deeper subtrees.  Dynamic max-pooling over nodes followed
by a fully connected layer yields the plan embedding e_P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.autodiff import Tensor, concat, fused_tree_conv, gather_nodes, relu
from repro.nn.layers import Linear, Module

__all__ = ["TreeBatch", "TreeConvEncoder"]


@dataclass
class TreeBatch:
    """A padded batch of binary trees.

    ``features`` has shape (B, N+1, D): row 0 of every tree is a zero
    sentinel standing in for absent children; real nodes occupy rows
    1..n_nodes.  ``left``/``right`` are (B, N+1) int arrays of child row
    indices (0 = no child).  ``mask`` is (B, N+1, 1) with 1.0 on real rows.
    """

    features: np.ndarray
    left: np.ndarray
    right: np.ndarray
    mask: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[2]

    @staticmethod
    def from_trees(
        trees: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        *,
        dtype: np.dtype | type = np.float64,
        pad_to: int | None = None,
    ) -> "TreeBatch":
        """Assemble a batch from per-tree (features, left, right) triples.

        Per-tree ``features`` is (n_nodes, D) *without* the sentinel row;
        ``left``/``right`` are (n_nodes,) int arrays indexing 1-based node
        rows (0 = absent child).  Child indices are validated: an index
        outside ``[0, n_nodes]`` would silently gather a garbage row (or
        crash deep inside ``gather_nodes``), so it raises ``ValueError``
        here instead.

        ``dtype`` selects the feature/mask buffer precision (the serving
        layer uses float32 to halve memory traffic); ``pad_to`` pads every
        tree to a fixed node count ≥ the largest tree, which lets size
        buckets share reusable buffers.
        """
        if not trees:
            raise ValueError("cannot build an empty TreeBatch")
        dim = trees[0][0].shape[1]
        max_nodes = max(f.shape[0] for f, _, _ in trees)
        if pad_to is not None:
            if pad_to < max_nodes:
                raise ValueError(f"pad_to={pad_to} below largest tree ({max_nodes} nodes)")
            max_nodes = pad_to
        batch = len(trees)
        features = np.zeros((batch, max_nodes + 1, dim), dtype=dtype)
        left = np.zeros((batch, max_nodes + 1), dtype=np.int64)
        right = np.zeros((batch, max_nodes + 1), dtype=np.int64)
        mask = np.zeros((batch, max_nodes + 1, 1), dtype=dtype)
        for b, (f, l, r) in enumerate(trees):
            n = f.shape[0]
            if f.shape[1] != dim:
                raise ValueError("inconsistent feature dims across trees")
            for name, idx in (("left", l), ("right", r)):
                if len(idx) and (idx.min() < 0 or idx.max() > n):
                    raise ValueError(
                        f"tree {b}: {name} child indices must lie in [0, {n}] "
                        f"(got range [{idx.min()}, {idx.max()}])"
                    )
            features[b, 1 : n + 1] = f
            left[b, 1 : n + 1] = l
            right[b, 1 : n + 1] = r
            mask[b, 1 : n + 1, 0] = 1.0
        return TreeBatch(features=features, left=left, right=right, mask=mask)

    @staticmethod
    def bucket_indices(
        n_nodes: list[int], *, max_batch: int | None = None
    ) -> list[tuple[int, list[int]]]:
        """Group tree indices into size buckets for micro-batching.

        Trees are bucketed by node count rounded up to the next power of two
        (minimum 8), so a batch containing one 40-node plan no longer pads
        every 5-node plan to 41 rows.  Returns ``(padded_size, indices)``
        pairs; ``max_batch`` additionally splits oversized buckets.  Within a
        padded batch each tree's rows are processed independently (padding
        rows are zero and masked), so bucketing never changes predictions —
        only the padding wasted on them.
        """
        buckets: dict[int, list[int]] = {}
        for i, n in enumerate(n_nodes):
            size = 8
            while size < n:
                size *= 2
            buckets.setdefault(size, []).append(i)
        out: list[tuple[int, list[int]]] = []
        for size in sorted(buckets):
            indices = buckets[size]
            if max_batch is None:
                out.append((size, indices))
            else:
                for start in range(0, len(indices), max_batch):
                    out.append((size, indices[start : start + max_batch]))
        return out


class TreeConvEncoder(Module):
    """Stacked tree convolutions + dynamic pooling + FC embedding head.

    ``pooling`` selects the dynamic-pooling flavour:

    * ``"max"`` — Bao/Neo-style max pooling;
    * ``"meanmax"`` (default) — concatenated masked mean and max pooling.
      CPU cost is additive over operators, so a mean component (which scales
      with per-node contributions) ranks small structural edits between
      candidate plans far better than max alone.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dims: tuple[int, ...] = (128, 64),
        embedding_dim: int = 32,
        *,
        pooling: str = "meanmax",
        rng: np.random.Generator,
    ) -> None:
        if pooling not in ("max", "meanmax"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.conv_layers: list[Linear] = []
        prev = in_dim
        for hidden in hidden_dims:
            self.conv_layers.append(Linear(3 * prev, hidden, rng=rng))
            prev = hidden
        pooled_dim = prev if pooling == "max" else 2 * prev + 1
        self.fc = Linear(pooled_dim, embedding_dim, rng=rng)
        self.in_dim = in_dim
        self.embedding_dim = embedding_dim
        self.pooling = pooling

    def node_representations(self, batch: TreeBatch) -> Tensor:
        """Per-node representations after all conv layers: (B, N+1, h),
        with sentinel/padding rows held at zero."""
        x = Tensor(batch.features)
        mask = Tensor(batch.mask)
        for layer in self.conv_layers:
            left = gather_nodes(x, batch.left)
            right = gather_nodes(x, batch.right)
            triple = concat([x, left, right], axis=-1)
            x = relu(layer(triple))
            # Keep sentinel and padding rows at zero so child gathers of
            # absent children contribute nothing in deeper layers.
            x = x * mask
        return x

    def node_representations_fused(self, batch: TreeBatch) -> Tensor:
        """Same computation as :meth:`node_representations` through the fused
        gather→matmul→ReLU op: one graph node per conv layer instead of seven,
        and the first layer consumes ``batch.features`` as a raw array (no
        float64 ``Tensor`` copy of the input buffer).  Used by the training
        fast path; the unfused chain remains the reference."""
        x: Tensor | np.ndarray = batch.features
        for layer in self.conv_layers:
            x = fused_tree_conv(
                x, batch.left, batch.right, batch.mask, layer.weight, layer.bias
            )
        return x

    def embed_fused(self, batch: TreeBatch) -> Tensor:
        """Fused-op twin of :meth:`forward`."""
        return self.pool(self.node_representations_fused(batch), batch)

    def pool(self, nodes: Tensor, batch: TreeBatch) -> Tensor:
        """Dynamic pooling of node representations into the plan embedding."""
        max_pool = nodes.max(axis=1)
        if self.pooling == "max":
            return relu(self.fc(max_pool))
        counts = np.maximum(batch.mask.sum(axis=1), 1.0)  # (B, 1)
        mean_pool = nodes.sum(axis=1) * Tensor(1.0 / counts)
        size_feature = Tensor(np.log1p(counts) / np.log(64.0))
        pooled = concat([max_pool, mean_pool, size_feature], axis=-1)
        return relu(self.fc(pooled))

    def forward(self, batch: TreeBatch) -> Tensor:
        return self.pool(self.node_representations(batch), batch)
