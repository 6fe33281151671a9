"""Caches for the online inference fast path.

* :class:`ProjectionTable` — node key → row id, and per id that node's
  structural feature row already multiplied through the self / left /
  right blocks of the first conv layer.  The first layer is linear before
  its ReLU and a node's features are a function of its key, so layer 1 of
  any plan is a sum of looked-up rows; no feature matrix is built on the
  serving path.  Scoped to one packed weight set.
* :class:`EncodingCache` — plan id (:func:`~repro.serving.fingerprint.
  plan_id`) → the plan as integers (table ids of its nodes and of their
  children, plus child positions).  A hit replaces the per-node walk with
  a dict lookup.
* :class:`PredictionCache` — (plan id, env) → predicted cost.  A hit
  skips the forward pass entirely.  Only populated for explicit
  environment overrides: predictions under per-node *logged* environments
  depend on mutable node annotations the key cannot see.

The last two are bounded, insertion-ordered LRU maps with eviction
counters, so cache pressure is observable from :meth:`~repro.serving.
service.CostInferenceService.cache_counters`.  The table is bounded by
:data:`TABLE_CAPACITY`; the service clears it together with everything
that holds its ids.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

import numpy as np

from repro.serving.fingerprint import plan_nodes

__all__ = ["LRUCache", "EncodingCache", "PredictionCache", "ProjectionTable"]

#: Distinct node keys a :class:`ProjectionTable` may hold between requests.
TABLE_CAPACITY = 4096
#: Plans an :class:`EncodingCache` holds.
ENCODING_CACHE_SIZE = 1024
#: ``(plan id, env)`` predictions a :class:`PredictionCache` holds.
PREDICTION_CACHE_SIZE = 4096

V = TypeVar("V")


class LRUCache(Generic[V]):
    """A small insertion-ordered LRU map with hit/miss/eviction counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._store: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def get(self, key: Hashable) -> V | None:
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: V) -> None:
        store = self._store
        if key in store:
            store.move_to_end(key)
        store[key] = value
        if len(store) > self.capacity:
            store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._store.clear()

    def reset_counters(self) -> None:
        self.hits = self.misses = self.evictions = 0


class EncodingCache(LRUCache[np.ndarray]):
    """plan id → :meth:`ProjectionTable.plan_ints` (integers only)."""

    def __init__(self) -> None:
        super().__init__(ENCODING_CACHE_SIZE)


class PredictionCache(LRUCache[float]):
    """(plan id, env features) → predicted cost."""

    def __init__(self) -> None:
        super().__init__(PREDICTION_CACHE_SIZE)


class ProjectionTable:
    """Layer 1 as a lookup.  ``rows[k, i]`` is node ``i``'s structural
    feature row times weight block ``k`` (self, left, right) of the first
    conv layer, in the serving dtype; row 0 is zero and stands for absent
    children, the sentinel and padding.

    ``packed`` is the weight set the rows were projected through: the
    service compares it by identity and replaces the table when a swap or
    refit changes it."""

    def __init__(self, encoder, packed, dtype) -> None:
        w3 = packed.conv[0][0]  # (3, d_in, d1)
        self.encoder = encoder
        self.packed = packed
        #: ``(d_in, 3 * d1)``: one product per node yields all three blocks.
        self.weights = np.ascontiguousarray(w3.transpose(1, 0, 2)).reshape(w3.shape[1], -1)
        #: The environment block's rows of ``weights``, ``(4, 3 * d1)``.
        self.env_weights = self.weights[encoder.env_slice]
        self.ids: dict[tuple, int] = {}
        self.rows = np.zeros((3, TABLE_CAPACITY + 1, w3.shape[2]), dtype)
        self._row = np.zeros(w3.shape[1], dtype)

    def __len__(self) -> int:
        return len(self.ids)

    def over_capacity(self) -> bool:
        return len(self.ids) > TABLE_CAPACITY

    def _add(self, key: tuple, node) -> int:
        row_id = len(self.ids) + 1
        if row_id == self.rows.shape[1]:
            # Past capacity: the service clears the table once the request
            # in flight has gathered its rows, so this is short-lived.
            self.rows = np.concatenate((self.rows, np.zeros_like(self.rows)), axis=1)
        # One node per product, always the same shape: BLAS accumulation
        # order varies with GEMM shape, and a row must not depend on which
        # other nodes happened to be new in the same plan (the bitwise
        # checkpoint / rollback / warm == cold guarantees rest on that).
        self._row[:] = self.encoder.structural_row(node)
        self.rows[:, row_id] = np.matmul(self._row, self.weights).reshape(3, -1)
        self.ids[key] = row_id
        return row_id

    def plan_ints(self, plan, fingerprint: tuple) -> np.ndarray:
        """The plan as a ``(5, n_nodes)`` integer array, one column per
        pre-order node: its table id, its left and right child's table ids,
        and the children's 1-based positions (``EncodedPlan.left`` /
        ``right``); 0 means absent.  Nodes seen for the first time are
        projected into the table."""
        get = self.ids.get
        ids = [get(key, 0) for key in fingerprint]
        if 0 in ids:
            nodes = plan_nodes(plan)
            for i, key in enumerate(fingerprint):
                if not ids[i]:
                    ids[i] = get(key) or self._add(key, nodes[i])
        # Pre-order keys end with the node's child count, which fixes the
        # tree shape: walking backwards, every child's subtree size is known
        # by the time its parent needs it.
        n = len(ids)
        left, right, end = [0] * n, [0] * n, [0] * n
        left_id, right_id = [0] * n, [0] * n
        for i in range(n - 1, -1, -1):
            child = i + 1
            for k in range(fingerprint[i][2]):
                if k == 0:
                    left[i], left_id[i] = child + 1, ids[child]
                elif k == 1:
                    right[i], right_id[i] = child + 1, ids[child]
                child = end[child]
            end[i] = child
        return np.array((ids, left_id, right_id, left, right), dtype=np.intp)

    def layer1(self, ints: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """The zero-environment layer-1 pre-activation of an assembled
        bucket (``ints`` is ``(5, batch, rows)``, ``mask`` its ``(n, 1)``
        real-row indicator): three row gathers and the bias, padding and
        sentinel rows held at zero."""
        rows = self.rows
        h1 = rows[0].take(ints[0].reshape(-1), axis=0)
        h1 += rows[1].take(ints[1].reshape(-1), axis=0)
        h1 += rows[2].take(ints[2].reshape(-1), axis=0)
        h1 += self.packed.conv[0][2]
        h1 *= mask
        return h1
