"""Plan fingerprinting for the serving-layer plan cache and projection table.

The cache key must capture *exactly* what the encoder reads from a plan —
no more (spurious misses) and no less (wrong hits).  ``PlanNode.
structural_signature`` is close but rounds predicate values to 6 decimal
places, which the encoder does not, so two plans differing only at the
7th decimal of a predicate constant would collide.  This module derives
its own key from the encoder-visible attributes at full precision.

Environment features are deliberately *excluded*: the serving layer adds
the environment block's layer-1 contribution per request (either the request
override or the per-node logged values read fresh at request time), so one
cached encoding serves every environment.  Each node's key is also the key
of its row in :class:`~repro.serving.cache.ProjectionTable`, and its last
element — the child count — is what the plan's tree shape is rebuilt from.

Keys are plain nested tuples hashed by the interpreter's built-in tuple
hash.  A digest (e.g. FNV over ``repr``) would be stable across processes
but costs a Python-level loop over kilobytes per plan; dict lookups on
structured tuples are both faster and collision-proof, and the cache is
per-process anyway.

Hashing a fingerprint is still about a microsecond per plan (a plan has a
dozen node keys, and CPython does not cache tuple hashes), so the serving
caches key on :func:`plan_id` instead: a small int interned once per
fingerprint per process and memoized on the plan beside the fingerprint.
Ids are minted from one process-wide counter and never reused, so equal
ids always mean equal fingerprints; the converse fails only across a
clear of the intern table, which costs cache misses and nothing else.  An
id means nothing in another process (a forked fleet shard mints its own),
so ``PhysicalPlan`` pickling drops it.
"""

from __future__ import annotations

import itertools

from repro.warehouse.operators import (
    AggregateNode,
    CalcNode,
    FilterNode,
    JoinNode,
    PlanNode,
    TableScanNode,
)
from repro.warehouse.plan import PhysicalPlan

__all__ = ["plan_fingerprint", "plan_id", "plan_nodes"]

#: Distinct fingerprints the intern table holds before it is cleared.
INTERN_CAPACITY = 8192

#: fingerprint -> id, process-wide.  Cleared when full; ids keep counting.
_interned: dict[tuple, int] = {}
#: The next unused id: ``count.__next__`` and ``dict.setdefault`` are each
#: one atomic step under the GIL, so concurrent minting needs no lock.
_mint = itertools.count(1).__next__


def _node_key(node: PlanNode) -> tuple:
    if isinstance(node, TableScanNode):
        attrs: tuple = (
            node.table,
            node.n_partitions,
            node.n_columns,
            tuple((p.qualified_column, p.op, p.value) for p in node.predicates),
        )
    elif isinstance(node, JoinNode):
        attrs = (node.form, node.left_key, node.right_key)
    elif isinstance(node, AggregateNode):
        attrs = (node.func, node.agg_column, node.group_by)
    elif isinstance(node, (FilterNode, CalcNode)):
        attrs = tuple((p.qualified_column, p.op, p.value) for p in node.predicates)
    else:
        attrs = ()
    return (node.op_type, attrs, len(node.children))


def plan_fingerprint(plan: PhysicalPlan) -> tuple:
    """A hashable key equal iff two plans encode to the same base features.

    Pre-order node keys with per-node child counts uniquely determine the
    tree shape, so no explicit nesting is needed — a flat tuple keeps both
    construction and hashing cheap.

    The key is memoized on the plan instance (``_serving_fingerprint``):
    online steering scores the same plan objects repeatedly (once per
    environment strategy), and the tree walk is a fifth of the cold serving
    cost.  Safe because the memo ignores exactly the attributes the key
    ignores — execution annotations (``env``, ``stage_id``, ``true_rows``)
    may mutate freely, structural attributes never change after plan
    generation, and ``PhysicalPlan.clone()`` builds a fresh instance without
    the memo.
    """
    cached = plan.__dict__.get("_serving_fingerprint")
    if cached is not None:
        return cached
    fingerprint = tuple(_node_key(node) for node in plan_nodes(plan))
    plan.__dict__["_serving_fingerprint"] = fingerprint
    return fingerprint


def plan_id(plan: PhysicalPlan) -> int:
    """The plan's fingerprint as an int, minted once per process and
    memoized on the plan (``_serving_id``) — what every serving cache keys
    on.  Two threads minting for one new fingerprint both get the id that
    ``setdefault`` kept; the loser's id is simply never used."""
    cached = plan.__dict__.get("_serving_id")
    if cached is not None:
        return cached
    fingerprint = plan_fingerprint(plan)
    minted = _interned.get(fingerprint)
    if minted is None:
        if len(_interned) >= INTERN_CAPACITY:
            _interned.clear()
        minted = _interned.setdefault(fingerprint, _mint())
    plan.__dict__["_serving_id"] = minted
    return minted


def plan_nodes(plan: PhysicalPlan) -> tuple:
    """The plan's pre-order node tuple, memoized on the plan instance.

    The recursive ``iter_nodes`` walk is pure per-call overhead once the
    per-node layer-1 rows are themselves looked up by key.  Same safety
    argument as the fingerprint memo above: tree *structure* never changes after plan
    generation, and ``clone()`` drops the memo with the instance dict.
    """
    cached = plan.__dict__.get("_serving_nodes")
    if cached is not None:
        return cached
    nodes = tuple(plan.iter_nodes())
    plan.__dict__["_serving_nodes"] = nodes
    return nodes
