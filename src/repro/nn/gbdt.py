"""Gradient-boosted regression trees with the XGBoost objective.

The offline environment has no xgboost library, so this implements the same
model family from scratch: second-order (Newton) boosting with L2 leaf
regularization, histogram-based split finding on quantile bins, and
row subsampling.  Used by the XGBoost cost-model baseline (Ammerlaan et al.,
2021) and by LOAM's project Ranker (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GradientBoostedTrees"]


@dataclass
class _Tree:
    """Flat array representation of one regression tree."""

    feature: np.ndarray  # (n_nodes,) int; -1 for leaves
    threshold_bin: np.ndarray  # (n_nodes,) int; go left when bin <= threshold
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # leaf weights

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        node = np.zeros(binned.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            nodes = node[idx]
            go_left = binned[idx, self.feature[nodes]] <= self.threshold_bin[nodes]
            node[idx] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = self.feature[node] >= 0
        return self.value[node]


@dataclass
class GradientBoostedTrees:
    """Squared-error gradient boosting, XGBoost-style."""

    n_estimators: int = 100
    max_depth: int = 6
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    min_split_gain: float = 0.0
    n_bins: int = 32
    subsample: float = 1.0
    seed: int = 0
    _trees: list[_Tree] = field(default_factory=list, repr=False)
    _bin_edges: np.ndarray | None = field(default=None, repr=False)
    _base_score: float = 0.0

    # -- binning ---------------------------------------------------------------

    def _fit_bins(self, x: np.ndarray) -> None:
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        self._bin_edges = np.quantile(x, quantiles, axis=0).T  # (F, n_bins-1)

    def _bin(self, x: np.ndarray) -> np.ndarray:
        assert self._bin_edges is not None
        binned = np.empty(x.shape, dtype=np.int16)
        for f in range(x.shape[1]):
            binned[:, f] = np.searchsorted(self._bin_edges[f], x[:, f], side="left")
        return binned

    # -- training ---------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D feature matrix, got shape {x.shape}")
        if len(x) != len(y):
            raise ValueError("feature/label length mismatch")
        rng = np.random.default_rng(self.seed)
        self._fit_bins(x)
        binned = self._bin(x)
        self._base_score = float(np.mean(y))
        prediction = np.full(len(y), self._base_score)
        self._trees = []
        for _ in range(self.n_estimators):
            grad = prediction - y  # squared loss
            hess = np.ones_like(grad)
            if self.subsample < 1.0:
                rows = rng.random(len(y)) < self.subsample
                if not rows.any():
                    rows[rng.integers(0, len(y))] = True
            else:
                rows = np.ones(len(y), dtype=bool)
            tree = self._grow_tree(binned[rows], grad[rows], hess[rows])
            self._trees.append(tree)
            prediction += self.learning_rate * tree.predict_binned(binned)
        return self

    def _grow_tree(self, binned: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> _Tree:
        n_features = binned.shape[1]
        feature: list[int] = []
        threshold: list[int] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def leaf_weight(g: float, h: float) -> float:
            return -g / (h + self.reg_lambda)

        def score(g: float, h: float) -> float:
            return g * g / (h + self.reg_lambda)

        def build(sample_idx: np.ndarray, depth: int) -> int:
            node_id = len(feature)
            feature.append(-1)
            threshold.append(0)
            left.append(-1)
            right.append(-1)
            g_total = float(grad[sample_idx].sum())
            h_total = float(hess[sample_idx].sum())
            value.append(leaf_weight(g_total, h_total))
            if depth >= self.max_depth or h_total < 2.0 * self.min_child_weight:
                return node_id

            # Histogram accumulation over (feature, bin) via one bincount.
            sub = binned[sample_idx]
            offsets = np.arange(n_features, dtype=np.int64) * self.n_bins
            flat = (sub.astype(np.int64) + offsets).ravel()
            g_rep = np.repeat(grad[sample_idx], n_features)
            h_rep = np.repeat(hess[sample_idx], n_features)
            # `flat` interleaves features per row; repeat per-row g across
            # the feature axis in the same order as `ravel` (row-major).
            g_hist = np.bincount(flat, weights=g_rep, minlength=n_features * self.n_bins)
            h_hist = np.bincount(flat, weights=h_rep, minlength=n_features * self.n_bins)
            g_hist = g_hist.reshape(n_features, self.n_bins)
            h_hist = h_hist.reshape(n_features, self.n_bins)

            g_left = np.cumsum(g_hist, axis=1)[:, :-1]
            h_left = np.cumsum(h_hist, axis=1)[:, :-1]
            g_right = g_total - g_left
            h_right = h_total - h_left
            valid = (h_left >= self.min_child_weight) & (h_right >= self.min_child_weight)
            gain = (
                g_left**2 / (h_left + self.reg_lambda)
                + g_right**2 / (h_right + self.reg_lambda)
                - score(g_total, h_total)
            )
            gain = np.where(valid, gain, -np.inf)
            best_flat = int(np.argmax(gain))
            best_gain = float(gain.ravel()[best_flat])
            if not np.isfinite(best_gain) or best_gain <= self.min_split_gain:
                return node_id
            best_feature, best_bin = divmod(best_flat, self.n_bins - 1)

            goes_left = sub[:, best_feature] <= best_bin
            left_idx = sample_idx[goes_left]
            right_idx = sample_idx[~goes_left]
            if len(left_idx) == 0 or len(right_idx) == 0:
                return node_id
            feature[node_id] = best_feature
            threshold[node_id] = best_bin
            left[node_id] = build(left_idx, depth + 1)
            right[node_id] = build(right_idx, depth + 1)
            return node_id

        build(np.arange(len(grad)), 0)
        return _Tree(
            feature=np.array(feature, dtype=np.int64),
            threshold_bin=np.array(threshold, dtype=np.int64),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            value=np.array(value, dtype=np.float64),
        )

    # -- inference -----------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._bin_edges is None:
            raise RuntimeError("predict() before fit()")
        x = np.asarray(x, dtype=np.float64)
        binned = self._bin(x)
        out = np.full(x.shape[0], self._base_score)
        for tree in self._trees:
            out += self.learning_rate * tree.predict_binned(binned)
        return out

    def size_bytes(self) -> int:
        total = 0 if self._bin_edges is None else self._bin_edges.nbytes
        for tree in self._trees:
            total += (
                tree.feature.nbytes
                + tree.threshold_bin.nbytes
                + tree.left.nbytes
                + tree.right.nbytes
                + tree.value.nbytes
            )
        return total
