"""Batched, cached online plan-cost inference (the serving fast path).

``AdaptiveCostPredictor.predict`` is correct but built for training-time
ergonomics: it re-encodes every node in Python, pads every plan in the
request to the largest plan's size, and runs the forward pass through the
autodiff ``Tensor`` machinery even though no gradient is ever needed.
Online steering calls it in the query optimizer's latency budget, often on
plans it scored moments earlier.  Every request is scored under one
environment: the request's ``env_features``, or each node's logged one.

:class:`CostInferenceService` keeps outputs identical (within float32
round-off when ``dtype=float32``) while removing all of those costs:

1. **layer 1 as a lookup** — the first conv layer is linear before its
   ReLU and the statistics-free encoding of a node is a function of its
   fingerprint key, so ``row @ W1`` is computed once per distinct node and
   weight set (:class:`~repro.serving.cache.ProjectionTable`).  A plan is
   cached as integers (table ids and child positions, keyed by its
   :func:`~repro.serving.fingerprint.plan_id`), a bucket's
   layer-1 pre-activation is three row gathers, and the environment block
   enters through its own 4-row weight slice.  No feature matrix exists on
   the serving path;
2. **size-bucketed micro-batching** — plans are grouped by node count
   (``TreeBatch.bucket_indices``) so one 40-node plan does not pad every
   5-node plan in the batch to 41 rows; assembled buckets are cached by
   plan-id tuple, and forward intermediates come from per-tag arenas
   reused across requests;
3. **packed inference forward** — a raw-numpy mirror of
   ``TreeConvEncoder``/``_PredictiveModule`` over one weight pack per
   ``weights_version``: each conv layer's flat ``(3·d_in, d_out)`` matrix
   meets an interleaved self/left/right gather, so the per-layer
   ``(batch, nodes, 3·dim)`` concatenation disappears and every GEMM is
   2-D.

A second-tier prediction cache short-circuits exact repeats (same plan
id, same environment override) without a forward pass, and
:meth:`CostInferenceService.swap_predictor` accepts a post-swap warming
list (the lifecycle feeds it the feedback log's hottest plans) so a model
promote never serves a cold burst.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict

import numpy as np

from repro.core.encoding import _NEUTRAL_ENV
from repro.nn.tree_conv import TreeBatch
from repro.serving.cache import EncodingCache, PredictionCache, ProjectionTable
from repro.serving.fingerprint import plan_fingerprint, plan_id, plan_nodes
from repro.obs.trace import traced_section
from repro.warehouse.plan import PhysicalPlan

__all__ = ["CostInferenceService"]

#: What a model trained without environment features is served under.
_ZERO_ENV = (0.0, 0.0, 0.0, 0.0)

#: Requests of at most this many plans (one query's candidate set) skip
#: size bucketing.
SMALL_REQUEST_PLANS = 8

#: Largest bucket a wide request is split into.
MAX_BATCH_PLANS = 256


class _WeightPack:
    """What the forward pass and :class:`ProjectionTable` read of one
    weight set, in the serving dtype.  Conv layers are ``(w3, wflat,
    bias)``: ``wflat`` is the trained ``(3*d_in, d_out)`` matrix and ``w3``
    its ``(3, d_in, d_out)`` (self, left, right) block view.  Immutable
    once built; a new ``weights_version`` gets a new pack."""

    def __init__(self, module, dtype: np.dtype, version: int) -> None:
        def own(array: np.ndarray) -> np.ndarray:
            # A copy: training updates parameters in place, and a pack must
            # not change under the caches built from it.
            return np.array(array, dtype=dtype, order="C")

        self.version = version
        emb = module.plan_emb
        self.conv = []
        for layer in emb.conv_layers:
            # With the interleaved gather laying out [self_i, left_i,
            # right_i] per node row, one plain GEMM against the flat matrix
            # computes all three contributions *and* their sum.
            wflat = own(layer.weight.data)
            w3 = wflat.reshape(3, wflat.shape[0] // 3, wflat.shape[1])
            self.conv.append((w3, wflat, own(layer.bias.data)))
        self.fc_w, self.fc_b = own(emb.fc.weight.data), own(emb.fc.bias.data)
        self.pooling = emb.pooling
        self.cost_head = module.config.cost_head
        self.cost_w = own(module.cost_pred.weight.data)
        self.cost_b = own(module.cost_pred.bias.data)
        self.node_w = own(module.node_head.weight.data)
        self.node_b = own(module.node_head.bias.data)
        self.scale = float(np.exp(module.log_scale.data[0]))
        self.log_mean = module._log_mean
        self.log_std = module._log_std


class _BufferPool:
    """One growable arena per tag, handing out leading-row views.

    A steady-state serving workload cycles through a few dozen bucket
    shapes; an arena sized for the largest one seen serves them all without
    an allocate-and-fault cycle per request.  ``tag`` separates buffers that
    must coexist in one forward.  Single-threaded use only (a buffer is
    recycled as soon as the next request asks for its tag).
    """

    def __init__(self, dtype) -> None:
        self._dtype = dtype
        self._arenas: dict[str, np.ndarray] = {}

    def empty(self, shape: tuple[int, int], tag: str) -> np.ndarray:
        """An uninitialised ``(rows, width)`` buffer — for arrays that are
        fully overwritten (GEMM ``out=``, gathers) before being read."""
        rows, width = shape
        arena = self._arenas.get(tag)
        if arena is None or arena.shape[0] < rows or arena.shape[1] != width:
            grown = rows if arena is None else max(rows, 2 * arena.shape[0])
            arena = self._arenas[tag] = np.empty((grown, width), self._dtype)
        return arena[:rows]


class _BucketEntry:
    """One cached padded-batch assembly (see ``CostInferenceService.
    _bucket_cache``): the mask, combined gather index and real-child
    indicators of a bucket, plus its zero-environment layer-1
    pre-activation ``h1_base`` gathered from the projection table.  Bound
    to the table's weight set, so the bucket cache is cleared with it."""

    __slots__ = ("mask", "gather_idx", "child_ind", "h1_base")

    def __init__(self, mask, gather_idx, child_ind, h1_base) -> None:
        self.mask = mask
        self.gather_idx = gather_idx
        # (nodes, 3) columns [mask, has_left, has_right]: one matvec with
        # the environment's per-block weight contribution reconstitutes the
        # env part of layer 1 for every row.
        self.child_ind = child_ind
        self.h1_base = h1_base  # bias included, padding rows masked to zero


def _combined_gather_index(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Flat row indices for one interleaved self/left/right gather.

    Child row r of tree b lives at row ``b*rows + r`` of the 2-D node view
    (the sentinel row 0 of each tree holds zeros, so absent children
    contribute nothing).  Entries are interleaved per node — ``[self_i,
    left_i, right_i]`` — so the gathered ``(3n, d_in)`` block reshapes to
    ``(n, 3*d_in)`` rows of concatenated self/left/right features, and one
    plain GEMM against the flat ``(3*d_in, d_out)`` weight view computes
    the three contributions and their sum in a single call.  The index
    survives reuse across requests because it depends only on tree
    structure, not features."""
    batch, rows = left.shape
    n = batch * rows
    idx = np.empty((n, 3), dtype=np.int64)
    idx[:, 0] = np.arange(n, dtype=np.int64)
    offsets = np.arange(batch, dtype=np.int64)[:, None] * rows
    idx[:, 1] = (left + offsets).reshape(-1)
    idx[:, 2] = (right + offsets).reshape(-1)
    return idx.reshape(-1)


def _packed_forward(
    x2: np.ndarray,
    gather_idx: np.ndarray,
    mask: np.ndarray,
    pack: _WeightPack,
    pool: _BufferPool,
) -> np.ndarray:
    """Raw-numpy inference forward from conv layer 1 on: no ``Tensor``
    wrappers, no autodiff bookkeeping, no per-layer concatenation — each
    conv layer is one interleaved self/left/right gather plus one plain
    ``(nodes, 3*d_in) @ (3*d_in, d_out)`` GEMM (the flat weight matrix makes
    the GEMM compute the three contributions and their sum at once), into
    arena buffers, with in-place bias/ReLU/mask.  At cold-path bucket sizes
    the arrays are tiny and Python-level numpy-call count is the real cost,
    so the layer body is exactly five calls.

    ``x2`` holds the ``(batch * rows, d)`` layer-0 activation the service
    assembled from the projection table (see
    ``CostInferenceService._forward_bucket``) and ``gather_idx`` its
    :func:`_combined_gather_index`, so the widest gather and GEMM of the
    network never run per request."""
    batch, rows = mask.shape[:2]
    n = batch * rows
    mask2 = mask.reshape(n, 1)

    conv = pack.conv
    for li in range(1, len(conv)):
        _w3, wflat, bias = conv[li]
        d_in, d_out = x2.shape[1], wflat.shape[1]
        gathered = pool.empty((3 * n, d_in), f"conv{li}:g")
        x2.take(gather_idx, axis=0, out=gathered)
        h = pool.empty((n, d_out), f"conv{li}:h")
        np.matmul(gathered.reshape(n, 3 * d_in), wflat, out=h)
        h += bias
        np.maximum(h, 0.0, out=h)
        h *= mask2  # hold sentinel and padding rows at zero
        x2 = h

    if pack.cost_head == "pooled":
        x = x2.reshape(batch, rows, -1)
        max_pool = x.max(axis=1)
        if pack.pooling == "max":
            pooled = max_pool
        else:
            counts = np.maximum(mask.sum(axis=1), 1.0)
            mean_pool = x.sum(axis=1) / counts
            size_feature = np.log1p(counts) / math.log(64.0)
            pooled = np.concatenate((max_pool, mean_pool, size_feature), axis=-1)
        embedding = pooled @ pack.fc_w + pack.fc_b
        np.maximum(embedding, 0.0, out=embedding)
        z = (embedding @ pack.cost_w + pack.cost_b).reshape(-1)
        predicted = np.expm1(z.astype(np.float64) * pack.log_std + pack.log_mean)
        return np.maximum(predicted, 0.0)

    # node_sum head: per-node softplus contributions, masked and summed.
    # The z round-trip below is analytically the identity
    # (``expm1(log1p(cost)) == cost``) but is kept on purpose: rounding z
    # through the serving dtype snaps predictions onto a grid coarse enough
    # to absorb the last-ulp differences different bucket compositions
    # introduce (padding changes pairwise-summation order), which is what
    # keeps e.g. warmed cache entries bitwise equal to fresh predictions.
    contributions = pool.empty((batch * rows, 1), "node:z")
    np.matmul(x2, pack.node_w, out=contributions)
    contributions += pack.node_b
    np.logaddexp(0.0, contributions, out=contributions)
    # Masked per-tree sum as one batched dot: padding rows carry
    # softplus(bias) but their mask entry is zero.
    total = np.matmul(
        mask.reshape(batch, 1, rows), contributions.reshape(batch, rows, 1)
    ).reshape(batch)
    cost = total * pack.scale
    z = (np.log1p(cost) - pack.log_mean) / pack.log_std
    predicted = np.expm1(z.astype(np.float64) * pack.log_std + pack.log_mean)
    return np.maximum(predicted, 0.0)


class CostInferenceService:
    """Online plan-cost scoring with caching, bucketing, and a no-autodiff
    packed forward pass.  Semantics match ``AdaptiveCostPredictor.predict``.

    ``predictor`` is duck-typed: it must expose ``encoder``, ``module``,
    ``config`` and (optionally) a ``weights_version`` counter bumped on
    refit, which replaces the weight pack and drops the prediction cache.

    Caveat: plans are cached by *structural* fingerprint, through the id
    interned for it and memoized on the plan.  When
    ``env_features=None`` the per-node logged environments are read fresh
    from the plan on every request (so mutation of ``node.env`` is safe),
    but mutating any other encoder-visible attribute of a previously scored
    plan requires :meth:`clear_caches`.
    """

    def __init__(
        self,
        predictor,
        *,
        dtype=np.float32,
        enable_prediction_cache: bool = True,
    ) -> None:
        self.predictor = predictor
        self.encoder = predictor.encoder
        self.dtype = np.dtype(dtype)
        #: Representative environment restored by :meth:`from_checkpoint`
        #: (``None`` when constructed directly or the checkpoint had none).
        self.environment_features: tuple[float, float, float, float] | None = None
        self.encoding_cache = EncodingCache()
        self.prediction_cache = PredictionCache()
        self.enable_prediction_cache = enable_prediction_cache
        self._buffers = _BufferPool(self.dtype)
        # Layer 1 of every node seen under the live weight set; replaced
        # (with everything below that holds its ids or rows) when the pack
        # changes or it outgrows ``serving.cache.TABLE_CAPACITY``.
        self._table: ProjectionTable | None = None
        # Assembled padded batches keyed by the bucket's plan-id tuple:
        # a known candidate set re-scored under a new environment differs
        # from its last forward only in the environment's layer-1
        # contribution.
        self._bucket_cache: "OrderedDict[tuple, _BucketEntry]" = OrderedDict()
        self._bucket_cache_cap = 128
        self._pack: _WeightPack | None = None
        # Added to the predictor's own counter, so that the served version
        # moves forward at every swap without writing into the caller's
        # predictor object.
        self._version_offset = 0
        self.reset_stats()

    @classmethod
    def from_checkpoint(cls, path) -> "CostInferenceService":
        """Build a service straight from a registry checkpoint (the fleet
        workers' boot path).  The checkpoint's stored representative
        environment, if any, is exposed as ``service.environment_features``."""
        from repro.core.serialization import load_predictor

        predictor, env = load_predictor(path)
        service = cls(predictor)
        service.environment_features = env
        return service

    # -- public API -----------------------------------------------------------

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        """Predicted CPU cost per plan; same contract as the predictor's
        ``predict`` (``env_features=None`` uses each node's logged stage
        environment)."""
        out = np.zeros(len(plans))
        if not plans:
            return out
        if not getattr(self.predictor.config, "use_environment", True):
            env_features = _ZERO_ENV
        env_key = tuple(float(v) for v in env_features) if env_features is not None else None

        pack = self._current_pack()
        ids = [plan_id(p) for p in plans]
        use_pred_cache = self.enable_prediction_cache and env_key is not None

        pending: list[int] = []
        if use_pred_cache:
            get = self.prediction_cache.get
            for i, pid in enumerate(ids):
                cached = get((pid, env_key))
                if cached is None:
                    pending.append(i)
                else:
                    out[i] = cached
        else:
            pending = list(range(len(plans)))

        if pending:
            pending_ids = [ids[i] for i in pending]
            pending_plans = [plans[i] for i in pending]
            # Bucketing needs only node counts, no encodings — and when
            # every bucket hits the assembly cache the encode step is
            # skipped entirely.
            n_nodes = [len(plan_nodes(p)) for p in pending_plans]
            # Bucketing pays off when a large batch mixes sizes; for a small
            # request (one query's candidate set) the fixed per-forward cost
            # of extra buckets outweighs the padding it saves.  The small
            # case is also the latency-critical one, so it skips the bucket
            # regrouping (and its per-member list rebuilds) entirely.
            if len(pending) <= SMALL_REQUEST_PLANS:
                key = (tuple(pending_ids), max(n_nodes))
                encoded: list[np.ndarray] | None = None
                if key not in self._bucket_cache:
                    encode_started = time.perf_counter()
                    with traced_section("serving.encode", n_plans=len(pending)):
                        encoded = self._encode_pending(pending_plans, pending_ids)
                    self._encode_seconds += time.perf_counter() - encode_started
                with traced_section("serving.forward", n_plans=len(pending)):
                    batch_out = self._forward_bucket(
                        key, encoded, pending_plans, env_key, pack
                    )
                out[pending] = batch_out
                if use_pred_cache:
                    put = self.prediction_cache.put
                    for pid, value in zip(pending_ids, batch_out):
                        put((pid, env_key), float(value))
            else:
                buckets = TreeBatch.bucket_indices(n_nodes, max_batch=MAX_BATCH_PLANS)
                keys = [
                    (tuple(pending_ids[m] for m in members), padded)
                    for padded, members in buckets
                ]
                encoded = None
                if any(k not in self._bucket_cache for k in keys):
                    encode_started = time.perf_counter()
                    with traced_section("serving.encode", n_plans=len(pending)):
                        encoded = self._encode_pending(pending_plans, pending_ids)
                    self._encode_seconds += time.perf_counter() - encode_started
                with traced_section(
                    "serving.forward", n_plans=len(pending), n_buckets=len(buckets)
                ):
                    for (padded, members), key in zip(buckets, keys):
                        batch_out = self._forward_bucket(
                            key,
                            None if encoded is None else [encoded[m] for m in members],
                            [pending_plans[m] for m in members],
                            env_key,
                            pack,
                        )
                        for m, value in zip(members, batch_out):
                            i = pending[m]
                            out[i] = value
                            if use_pred_cache:
                                self.prediction_cache.put(
                                    (ids[i], env_key), float(value)
                                )
            self._bound_table()

        self._request_count += 1
        self._plans_scored += len(plans)
        return out

    def cache_counters(self) -> dict[str, float]:
        """The service's counters: both cache tiers, request tallies and the
        cold-path timing attribution (seconds encoding — plan-cache probes
        plus projection-table lookups and fills — and in bucket assembly
        plus forward), flat, in the shape the gateway publishes as
        ``serving_*`` telemetry gauges."""
        return {
            "encoding_cache_hits": self.encoding_cache.hits,
            "encoding_cache_misses": self.encoding_cache.misses,
            "encoding_cache_evictions": self.encoding_cache.evictions,
            "encoding_cache_size": len(self.encoding_cache),
            "encoding_cache_capacity": self.encoding_cache.capacity,
            "prediction_cache_hits": self.prediction_cache.hits,
            "prediction_cache_misses": self.prediction_cache.misses,
            "prediction_cache_evictions": self.prediction_cache.evictions,
            "prediction_cache_size": len(self.prediction_cache),
            "prediction_cache_capacity": self.prediction_cache.capacity,
            "encode_seconds": self._encode_seconds,
            "forward_seconds": self._forward_seconds,
            "warmed_plans": self._warmed_plans,
            "requests": self._request_count,
            "plans_scored": self._plans_scored,
            "batches": self._batch_count,
        }

    def reset_stats(self) -> None:
        """Zero every tally and timer :meth:`cache_counters` reports (cache
        sizes and capacities are state, not tallies)."""
        self._batch_count = 0
        self._request_count = 0
        self._plans_scored = 0
        self._encode_seconds = 0.0
        self._forward_seconds = 0.0
        self._warmed_plans = 0
        self.encoding_cache.reset_counters()
        self.prediction_cache.reset_counters()

    def clear_caches(self) -> None:
        """Drop every per-plan cache tier.  The projection table stays: its
        rows are keyed by everything the encoder reads from a node."""
        self.encoding_cache.clear()
        self.prediction_cache.clear()
        self._bucket_cache.clear()

    def warm_caches(self, entries) -> int:
        """Pre-populate both cache tiers from ``(plan, env_features)`` pairs
        (``env_features`` may be ``None`` for per-node logged environments,
        which warms the encoding tier only).  Used by the lifecycle's
        post-swap warming pass; returns the number of plans warmed."""
        groups: "OrderedDict[tuple | None, list]" = OrderedDict()
        for plan, env in entries:
            key = tuple(float(v) for v in env) if env is not None else None
            groups.setdefault(key, []).append(plan)
        warmed = 0
        for env_key, group in groups.items():
            self.predict(group, env_features=env_key)
            warmed += len(group)
        self._warmed_plans += warmed
        return warmed

    def swap_predictor(self, predictor, *, warm=None) -> None:
        """Hot-swap the served model (the lifecycle canary's promote path).

        The new predictor must encode plans into the same feature space
        (same encoder dimensionality); the served :attr:`weights_version`
        moves past the incumbent's so version-keyed invalidation stays
        monotonic even if the replacement was loaded from a checkpoint with
        an older counter.  The predictor object itself is not changed.
        Both cache tiers are dropped: the prediction cache holds the
        incumbent's outputs, and the encoding cache may have been built by
        an encoder with different hashing configuration.

        ``warm`` optionally carries ``(plan, env_features)`` pairs to score
        immediately after the swap (see :meth:`warm_caches`), so the first
        post-promote requests for hot plans are served from cache instead
        of hitting a fully cold path.
        """
        new_encoder = getattr(predictor, "encoder", None)
        if new_encoder is None or new_encoder.dim != self.encoder.dim:
            raise ValueError(
                "swap_predictor requires an encoder-compatible predictor "
                f"(got dim {getattr(new_encoder, 'dim', None)}, "
                f"serving dim {self.encoder.dim})"
            )
        incumbent_version = self.weights_version
        self.predictor = predictor
        self._version_offset = max(
            0, incumbent_version + 1 - getattr(predictor, "weights_version", 0)
        )
        self.encoder = new_encoder
        self._pack = None
        self.clear_caches()
        if warm:
            self.warm_caches(warm)

    @property
    def weights_version(self) -> int:
        """The served version: the predictor's ``weights_version`` (bumped
        on refit), raised past the incumbent's at every swap."""
        return self._version_offset + getattr(self.predictor, "weights_version", 0)

    # -- internals -----------------------------------------------------------

    def _current_pack(self) -> _WeightPack:
        """The live weight pack, rebuilt when ``weights_version`` moves (the
        prediction cache goes with the old one), and its projection table."""
        version = self.weights_version
        pack = self._pack
        if pack is None or pack.version != version:
            pack = self._pack = _WeightPack(self.predictor.module, self.dtype, version)
            self.prediction_cache.clear()
        if self._table is not None and self._table.packed is not pack:
            self._reset_projection()
        if self._table is None:
            self._table = ProjectionTable(self.encoder, pack, self.dtype)
        return pack

    def _reset_projection(self) -> None:
        """Drop the projection table together with every cache holding its
        row ids (plan cache) or sums of its rows (bucket cache), so neither
        can outlive it."""
        self._table = None
        self.encoding_cache.clear()
        self._bucket_cache.clear()

    def _bound_table(self) -> None:
        """Enforce the table's capacity once a request's gathers are done —
        never while ids it resolved are still in flight."""
        if self._table.over_capacity():
            self._reset_projection()

    def _encode_pending(
        self, plans: list[PhysicalPlan], ids: list[int]
    ) -> list[np.ndarray]:
        """Integer encodings (``ProjectionTable.plan_ints``) for the
        prediction-cache misses of one request, through the plan cache.
        Only a miss reads the fingerprint: the table needs its node keys."""
        plan_cache, table = self.encoding_cache, self._table
        encoded = []
        for plan, pid in zip(plans, ids):
            ints = plan_cache.get(pid)
            if ints is None:
                ints = table.plan_ints(plan, plan_fingerprint(plan))
                plan_cache.put(pid, ints)
            encoded.append(ints)
        return encoded

    def _bucket_entry(
        self, key: tuple, encoded: list[np.ndarray] | None, batch: int
    ) -> _BucketEntry:
        """The cached padded-batch assembly for ``key = (plan-id tuple,
        padded node count)``; assembled from ``encoded`` on a miss.  The
        assembly depends only on the bucket's plan structures and the live
        weights, so a known candidate set re-scored under a new environment
        reuses it and adds only that environment's layer-1 contribution."""
        entry = self._bucket_cache.get(key)
        if entry is None:
            rows = key[1] + 1
            n = batch * rows
            ints = np.zeros((5, batch, rows), np.intp)
            for b, plan_ints in enumerate(encoded):
                ints[:, b, 1 : plan_ints.shape[1] + 1] = plan_ints
            # Real rows are those with a table id; children are present
            # where their ids are.  The self column carries the mask so
            # adding the environment needs no separate mask multiply.
            child_ind = np.empty((n, 3), self.dtype)
            np.not_equal(ints[:3].reshape(3, n).T, 0, out=child_ind)
            mask = np.ascontiguousarray(child_ind[:, :1])
            entry = _BucketEntry(
                mask.reshape(batch, rows, 1),
                _combined_gather_index(ints[3], ints[4]),
                child_ind,
                self._table.layer1(ints, mask),
            )
            if len(self._bucket_cache) >= self._bucket_cache_cap:
                self._bucket_cache.popitem(last=False)
            self._bucket_cache[key] = entry
        return entry

    def _forward_bucket(
        self,
        key: tuple,
        encoded: list[np.ndarray] | None,
        plans: list[PhysicalPlan],
        env_features: tuple[float, float, float, float] | None,
        pack: _WeightPack,
    ) -> np.ndarray:
        forward_started = time.perf_counter()
        entry = self._bucket_entry(key, encoded, len(plans))
        # The first conv layer is linear before its ReLU, so its output is
        # the bucket's structure-only pre-activation plus the environment
        # block's own weight-slice contribution.
        h = self._buffers.empty(entry.h1_base.shape, "conv0:h")
        if env_features is None:
            # Per-node logged environments, read fresh on every request so
            # mutation of ``node.env`` between requests is safe: project
            # every node's block through the three weight slices at once,
            # then add each row's own, left child's and right child's part.
            batch, rows = entry.mask.shape[:2]
            envs = np.zeros((batch, rows, 4), self.dtype)
            for b, plan in enumerate(plans):
                nodes = plan_nodes(plan)
                envs[b, 1 : len(nodes) + 1] = [
                    node.env if node.env is not None else _NEUTRAL_ENV for node in nodes
                ]
            parts = np.matmul(envs.reshape(batch * rows, 4), self._table.env_weights)
            parts = parts.reshape(batch * rows, 3, -1)
            children = entry.gather_idx.reshape(-1, 3)
            np.add(entry.h1_base, parts[:, 0], out=h)
            h += parts[children[:, 1], 1]
            h += parts[children[:, 2], 2]
        else:
            # Request-level environment: one (3, d_out) contribution applied
            # through the child indicators.  ``h1_base`` is pre-masked and
            # ``child_ind`` carries the mask in its self column, so padding
            # rows come out exactly zero.
            contrib = np.matmul(
                np.asarray(env_features, dtype=self.dtype), self._table.env_weights
            )
            np.matmul(entry.child_ind, contrib.reshape(3, -1), out=h)
            h += entry.h1_base
        np.maximum(h, 0.0, out=h)
        self._batch_count += 1
        out = _packed_forward(
            h, entry.gather_idx, entry.mask, pack, self._buffers
        )
        self._forward_seconds += time.perf_counter() - forward_started
        return out
