"""Tunable optimizer flags: the Bao-style steering knobs.

MaxCompute exposes 75 flags across six categories; the paper restricts LOAM's
plan explorer to six expert-selected flags spanning join, shuffling, spool,
and filter-related optimizations, plus Lero-style cardinality scaling for
subqueries with at least three inputs (Section 3).  We model the same
six-flag surface:

===========================  ==========  ====================================
Flag                         Category    Effect
===========================  ==========  ====================================
``prefer_merge_join``        join        force sort-merge joins (wins when a
                                         hash build side would spill)
``disable_broadcast_join``   join        never broadcast (avoids broadcast
                                         disasters caused by underestimated
                                         build sides)
``shuffle_removal``          shuffling   reuse an input's partitioning when
                                         it already satisfies a downstream
                                         co-partitioning requirement
``partial_aggregation``      data flow   pre-aggregate below the shuffle
``enable_spool``             spool       materialize the join result before
                                         a final aggregation
``join_filter_pushdown``     filter      derive a semi-join filter from a
                                         predicated side of a join onto the
                                         other side's scan
===========================  ==========  ====================================

Without accurate statistics the native optimizer leaves the rule-like flags
off and keeps the syntactic join order — exactly the conservatism Section
2.1 describes — which is what creates improvement space for steering.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["OptimizerFlags", "OPTIMIZER_FLAGS", "CARDINALITY_SCALES"]


@dataclass(frozen=True)
class OptimizerFlags:
    prefer_merge_join: bool = False
    disable_broadcast_join: bool = False
    shuffle_removal: bool = False
    partial_aggregation: bool = False
    enable_spool: bool = False
    join_filter_pushdown: bool = False

    def toggled(self, name: str) -> "OptimizerFlags":
        """Return a copy with flag ``name`` flipped."""
        if name not in OPTIMIZER_FLAGS:
            raise ValueError(f"unknown optimizer flag {name!r}")
        return replace(self, **{name: not getattr(self, name)})

    def signature(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))


OPTIMIZER_FLAGS: tuple[str, ...] = tuple(f.name for f in fields(OptimizerFlags))

#: Lero-style cardinality scaling factors applied to subqueries with >= 3
#: inputs (Section 3); each produces one extra candidate plan.
CARDINALITY_SCALES: tuple[float, ...] = (0.1, 10.0)
