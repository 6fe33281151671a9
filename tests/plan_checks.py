"""Reference checks shared by the optimizer tests: plan digests and the
"same tree, annotated from scratch" comparison."""

from __future__ import annotations

import hashlib
from itertools import combinations

from repro.warehouse.costmodel import EstimatedCardinalityModel
from repro.warehouse.flags import CARDINALITY_SCALES, OPTIMIZER_FLAGS, OptimizerFlags
from repro.warehouse.workload import ProjectProfile

#: Three projects spanning the statistics regimes: mostly blind (syntactic
#: join order), mixed, and fully covered (greedy reordering + cardinality
#: scaling live).  Seeds picked for a spread of 1-5 table queries.
GOLDEN_PROFILES = tuple(
    ProjectProfile(
        name=f"golden{i}",
        seed=seed,
        n_tables=14,
        avg_columns_per_table=9.0,
        n_templates=14,
        stats_availability=availability,
        max_join_tables=5,
        row_scale=6e5,
        agg_probability=0.7,
    )
    for i, (seed, availability) in enumerate(((11, 0.15), (10, 0.6), (6, 1.0)))
)

#: Every knob setting the explorer can ask for: default, each flag, every
#: flag pair, every cardinality scale.
ALL_KNOBS: tuple[tuple[OptimizerFlags, float], ...] = (
    (OptimizerFlags(), 1.0),
    *((OptimizerFlags().toggled(flag), 1.0) for flag in OPTIMIZER_FLAGS),
    *(
        (OptimizerFlags().toggled(first).toggled(second), 1.0)
        for first, second in combinations(OPTIMIZER_FLAGS, 2)
    ),
    *((OptimizerFlags(), scale) for scale in CARDINALITY_SCALES),
)


def node_annotations(node) -> tuple:
    return (node.est_rows, node.n_base_tables, getattr(node, "raw_est_rows", None))


def update_plan_digest(digest, plan) -> None:
    """Provenance, knobs and per node operator, attributes and annotations
    (floats by ``repr``: exact)."""
    digest.update(repr((plan.provenance, plan.knob_signature)).encode())
    for node in plan.iter_nodes():
        digest.update(
            repr(
                (
                    node.op_type,
                    node.attribute_signature(),
                    len(node.children),
                    *node_annotations(node),
                )
            ).encode()
        )


def plans_digest(plan_lists) -> str:
    digest = hashlib.sha256()
    for plans in plan_lists:
        digest.update(b"[")
        for plan in plans:
            update_plan_digest(digest, plan)
    return digest.hexdigest()


def history_digest(records) -> str:
    """Costs and per node structure, estimate and true cardinality of every
    logged execution."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr((record.cpu_cost, record.latency)).encode())
        for node in record.plan.iter_nodes():
            digest.update(
                repr(
                    (node.op_type, node.attribute_signature(), node.est_rows, node.true_rows)
                ).encode()
            )
    return digest.hexdigest()


def assert_annotated_as_from_scratch(plan, stats) -> None:
    """The plan's annotations are exactly those a from-scratch ``annotate``
    of a clone of its tree writes, under the scale the plan was built with."""
    reference = plan.root.clone()
    scale = plan.knob_signature[1]
    EstimatedCardinalityModel(stats, cardinality_scale=scale).annotate(
        reference, plan.query, field="est_rows"
    )
    assert plan.root.structural_signature() == reference.structural_signature()
    for node, expected in zip(plan.iter_nodes(), reference.iter_nodes(), strict=True):
        assert node_annotations(node) == node_annotations(expected), (
            plan.provenance,
            plan.knob_signature,
            node.op_type,
        )


def assert_same_plan(plan, other) -> None:
    assert plan.structural_signature() == other.structural_signature()
    assert (plan.provenance, plan.knob_signature) == (other.provenance, other.knob_signature)
    for node, expected in zip(plan.iter_nodes(), other.iter_nodes(), strict=True):
        assert node_annotations(node) == node_annotations(expected)
