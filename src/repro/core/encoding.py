"""Statistics-free plan vectorization (Section 4, Figure 4).

Each plan-tree node becomes one fixed-width feature vector:

====================  ====  =====================================================
Block                 Dims  Contents
====================  ====  =====================================================
operator one-hot        13  one slot per operator type
table-scan block      H+2   table-identifier hash encoding; log-min-max
                            normalized numbers of partitions and columns
join block            H+4   join-form one-hot; hash encoding of both join
                            column identifiers (union)
aggregation block     2H+5  aggregate-function one-hot; hash encodings of the
                            aggregate column and the group-by columns
filter block          H+9   multi-hot of predicate functions; hash encoding of
                            all predicated column identifiers; numeric summary
                            of the predicate parameters (mean/min rank
                            fraction, predicate count) — the constants at the
                            leaves of MaxCompute's predicate expression trees
environment block        4  CPU_IDLE, IO_WAIT, LOAD5 (log-normalized),
                            MEM_USAGE averaged at stage granularity
====================  ====  =====================================================

where ``H`` is the multi-segment hash width (default 5 segments × 8 = 40).
No attribute histograms, NDVs, or cardinality estimates appear anywhere:
the model must infer data-distribution detail from operator attributes and
the repetition structure of historical queries (challenge C2).

Predicates pushed into table scans are encoded in the scan node's filter
block, so pushdown plans remain distinguishable from plans with explicit
Filter operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hashenc import MultiSegmentHashEncoder
from repro.utils import log_minmax_normalize
from repro.warehouse.operators import (
    AggregateNode,
    CalcNode,
    FilterNode,
    JoinNode,
    OPERATOR_TYPES,
    PlanNode,
    TableScanNode,
)
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import AGG_FUNCS, JOIN_FORMS, PREDICATE_OPS

__all__ = ["PlanEncoder", "EncodedPlan"]

#: Feature-normalization bounds for scan attributes.
_MAX_PARTITIONS = 4096.0
_MAX_COLUMNS = 64.0

#: Default environment features when a node was never executed (they are
#: overwritten by the inference-time environment strategy).
_NEUTRAL_ENV = (0.5, 0.05, 0.5, 0.5)


@dataclass
class EncodedPlan:
    """Array form of one plan tree, ready for :class:`~repro.nn.tree_conv.TreeBatch`."""

    features: np.ndarray  # (n_nodes, dim), no sentinel row
    left: np.ndarray  # (n_nodes,) 1-based child rows, 0 = absent
    right: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]


class PlanEncoder:
    """Vectorizes physical plans for the cost predictor."""

    def __init__(self, *, hash_segments: int = 5, hash_segment_dim: int = 8) -> None:
        self.hasher = MultiSegmentHashEncoder(hash_segments, hash_segment_dim)
        h = self.hasher.dim
        self._op_offset = 0
        self._scan_offset = len(OPERATOR_TYPES)
        self._join_offset = self._scan_offset + h + 2
        self._agg_offset = self._join_offset + len(JOIN_FORMS) + h
        self._filter_offset = self._agg_offset + len(AGG_FUNCS) + 2 * h
        self._env_offset = self._filter_offset + len(PREDICATE_OPS) + h + 3
        self.dim = self._env_offset + 4
        # Index lookup tables: tuple.index() is a linear scan per node, which
        # dominates the encoding loop on the serving path.
        self._op_index = {op: i for i, op in enumerate(OPERATOR_TYPES)}
        self._join_form_index = {f: i for i, f in enumerate(JOIN_FORMS)}
        self._agg_func_index = {f: i for i, f in enumerate(AGG_FUNCS)}
        self._pred_op_index = {op: i for i, op in enumerate(PREDICATE_OPS)}
        # Memoized log-min-max normalizations of small-integer scan attributes.
        self._partition_norm: dict[int, float] = {}
        self._column_norm: dict[int, float] = {}

    # -- public API -----------------------------------------------------------

    @property
    def env_slice(self) -> slice:
        """Feature positions holding the environment block."""
        return slice(self._env_offset, self._env_offset + 4)

    def encode_plan(
        self,
        plan: PhysicalPlan,
        *,
        env_override: tuple[float, float, float, float] | None = None,
    ) -> EncodedPlan:
        """Encode the plan tree into padded-batch-ready arrays.

        ``env_override`` replaces every node's environment block (used at
        inference time when the true environment is unobservable); without
        it, each node's logged stage environment is used.

        This is the vectorized fast path: one preallocated ``(n, dim)``
        feature array filled in place with memoized hash encodings and
        dict-based category lookups, then a single broadcast write of the
        environment block.  :meth:`encode_plan_reference` retains the naive
        per-node construction; equivalence tests assert bitwise-equal output.
        """
        # ``plan_nodes`` (serving fingerprint path) memoizes the pre-order
        # walk on the plan instance; reuse it when present.
        nodes = plan.__dict__.get("_serving_nodes")
        if nodes is None:
            nodes = list(plan.iter_nodes())  # pre-order; index i -> row i+1
        n = len(nodes)
        row_of = {id(node): i + 1 for i, node in enumerate(nodes)}
        features = np.zeros((n, self.dim))
        left = np.zeros(n, dtype=np.int64)
        right = np.zeros(n, dtype=np.int64)

        op_index = self._op_index
        op_rows = np.empty(n, dtype=np.int64)
        for i, node in enumerate(nodes):
            op_rows[i] = op_index[node.op_type]
            children = node.children
            if children:
                left[i] = row_of[id(children[0])]
                if len(children) > 1:
                    right[i] = row_of[id(children[1])]
            self._fill_attributes(features[i], node)
        # One-hot operator block and environment block as batched writes.
        features[np.arange(n), self._op_offset + op_rows] = 1.0
        if env_override is not None:
            features[:, self._env_offset : self._env_offset + 4] = env_override
        else:
            env_rows = [
                node.env if node.env is not None else _NEUTRAL_ENV for node in nodes
            ]
            features[:, self._env_offset : self._env_offset + 4] = env_rows
        return EncodedPlan(features=features, left=left, right=right)

    def encode_plans(
        self,
        plans: list[PhysicalPlan],
        *,
        env_override: tuple[float, float, float, float] | None = None,
        env_overrides: "list[tuple[float, float, float, float] | None] | None" = None,
    ) -> list[EncodedPlan]:
        """Encode a batch of plans.

        ``env_override`` applies one environment block to every plan;
        ``env_overrides`` supplies one per plan (``None`` entries fall back to
        each node's logged environment) — the batched form the training loop
        uses to encode candidate plans under sampled environments without a
        per-plan ``encode_plan`` call site.  The two are mutually exclusive.
        """
        if env_overrides is not None:
            if env_override is not None:
                raise ValueError("pass either env_override or env_overrides, not both")
            if len(env_overrides) != len(plans):
                raise ValueError(
                    f"env_overrides length {len(env_overrides)} != plans length {len(plans)}"
                )
            return [
                self.encode_plan(p, env_override=env)
                for p, env in zip(plans, env_overrides)
            ]
        return [self.encode_plan(p, env_override=env_override) for p in plans]

    def encode_plan_reference(
        self,
        plan: PhysicalPlan,
        *,
        env_override: tuple[float, float, float, float] | None = None,
    ) -> EncodedPlan:
        """The original per-node encoding loop, kept as the equivalence oracle
        for the vectorized path (and for the serving benchmarks' naive
        baseline)."""
        nodes = list(plan.iter_nodes())
        row_of = {id(node): i + 1 for i, node in enumerate(nodes)}
        features = np.zeros((len(nodes), self.dim))
        left = np.zeros(len(nodes), dtype=np.int64)
        right = np.zeros(len(nodes), dtype=np.int64)
        for i, node in enumerate(nodes):
            features[i] = self._encode_node(node, env_override)
            if node.children:
                left[i] = row_of[id(node.children[0])]
            if len(node.children) > 1:
                right[i] = row_of[id(node.children[1])]
        return EncodedPlan(features=features, left=left, right=right)

    # -- node encoding -----------------------------------------------------------

    def structural_row(self, node: PlanNode) -> np.ndarray:
        """One node's feature row with the environment block left at zero:
        exactly what :meth:`encode_plan` writes for the node ahead of the
        environment.  The serving layer projects this row through the first
        conv layer once per distinct node (see ``serving.cache.
        ProjectionTable``), so training and serving share one definition of
        a feature."""
        row = np.zeros(self.dim)
        row[self._op_offset + self._op_index[node.op_type]] = 1.0
        self._fill_attributes(row, node)
        return row

    def _fill_attributes(self, row: np.ndarray, node: PlanNode) -> None:
        """Write the operator-specific blocks of one node into ``row`` (a view
        into the preallocated feature matrix).  Operator one-hot and the
        environment block are written in batch by :meth:`encode_plan`."""
        if isinstance(node, TableScanNode):
            h = self.hasher.dim
            row[self._scan_offset : self._scan_offset + h] = self.hasher.encode(node.table)
            norm = self._partition_norm.get(node.n_partitions)
            if norm is None:
                norm = log_minmax_normalize(node.n_partitions, 1.0, _MAX_PARTITIONS)
                self._partition_norm[node.n_partitions] = norm
            row[self._scan_offset + h] = norm
            norm = self._column_norm.get(node.n_columns)
            if norm is None:
                norm = log_minmax_normalize(node.n_columns, 1.0, _MAX_COLUMNS)
                self._column_norm[node.n_columns] = norm
            row[self._scan_offset + h + 1] = norm
            if node.predicates:
                self._encode_predicates(row, node.predicates)

        elif isinstance(node, JoinNode):
            row[self._join_offset + self._join_form_index[node.form]] = 1.0
            start = self._join_offset + len(JOIN_FORMS)
            row[start : start + self.hasher.dim] = self.hasher.encode_many(
                [node.left_key, node.right_key]
            )

        elif isinstance(node, AggregateNode):
            row[self._agg_offset + self._agg_func_index[node.func]] = 1.0
            start = self._agg_offset + len(AGG_FUNCS)
            h = self.hasher.dim
            row[start : start + h] = self.hasher.encode(node.agg_column)
            if node.group_by:
                row[start + h : start + 2 * h] = self.hasher.encode_many(node.group_by)

        elif isinstance(node, (FilterNode, CalcNode)):
            self._encode_predicates(row, node.predicates)

    def _encode_node(
        self,
        node: PlanNode,
        env_override: tuple[float, float, float, float] | None,
    ) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self._op_offset + OPERATOR_TYPES.index(node.op_type)] = 1.0

        if isinstance(node, TableScanNode):
            h = self.hasher.dim
            out[self._scan_offset : self._scan_offset + h] = self.hasher.encode(node.table)
            out[self._scan_offset + h] = log_minmax_normalize(
                node.n_partitions, 1.0, _MAX_PARTITIONS
            )
            out[self._scan_offset + h + 1] = log_minmax_normalize(
                node.n_columns, 1.0, _MAX_COLUMNS
            )
            if node.predicates:
                self._encode_predicates(out, node.predicates)

        elif isinstance(node, JoinNode):
            out[self._join_offset + JOIN_FORMS.index(node.form)] = 1.0
            start = self._join_offset + len(JOIN_FORMS)
            out[start : start + self.hasher.dim] = self.hasher.encode_many(
                [node.left_key, node.right_key]
            )

        elif isinstance(node, AggregateNode):
            out[self._agg_offset + AGG_FUNCS.index(node.func)] = 1.0
            start = self._agg_offset + len(AGG_FUNCS)
            h = self.hasher.dim
            out[start : start + h] = self.hasher.encode(node.agg_column)
            if node.group_by:
                out[start + h : start + 2 * h] = self.hasher.encode_many(node.group_by)

        elif isinstance(node, (FilterNode, CalcNode)):
            self._encode_predicates(out, node.predicates)

        env = env_override
        if env is None:
            env = node.env if node.env is not None else _NEUTRAL_ENV
        out[self._env_offset : self._env_offset + 4] = env
        return out

    def _encode_predicates(self, out: np.ndarray, predicates) -> None:
        if not predicates:
            return
        for predicate in predicates:
            out[self._filter_offset + self._pred_op_index[predicate.op]] = 1.0
        start = self._filter_offset + len(PREDICATE_OPS)
        np.maximum(
            out[start : start + self.hasher.dim],
            self.hasher.encode_many(p.qualified_column for p in predicates),
            out=out[start : start + self.hasher.dim],
        )
        # Predicate parameters: the constants at the leaves of MaxCompute's
        # predicate expression trees.  Their rank-fraction form is already
        # normalized to [0, 1]; the count is capped at 8 before normalizing.
        values = [p.value for p in predicates]
        stats_start = start + self.hasher.dim
        out[stats_start] = float(np.mean(values))
        out[stats_start + 1] = float(np.min(values))
        out[stats_start + 2] = min(len(values), 8) / 8.0
