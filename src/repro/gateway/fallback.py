"""The deterministic answer the gateway gives when the learned path can't.

Bao's production rule, transplanted: a learned optimizer component must
always be able to hand the decision back to the native optimizer.  A
fallback answer is the native optimizer's rough-cost estimate of each
candidate in the request: the warehouse's statistics-free
``intrinsic_plan_cost`` over the ``est_rows`` annotations that the planner
(``estimated_cost``) ranks plans with.  It is *not* what the unsteered
optimizer would have said.  The candidates are mostly steered plans, and
the one these estimates rank cheapest (ROADMAP item 1's no-model row) is
the default plan in only 29–32 % of candidate sets.  Whether a fallback
should answer that cheapest estimate or the default plan is item 3(c)'s
decision.

The scores are computed in pure Python with no model weights, no caches,
and no shared mutable state, so they are safe to compute synchronously
from any number of request threads while the learned path is timing out,
erroring, or circuit-broken.

When the caller supplies an environment override, the estimate is scaled
by the executor's linear load-slowdown form (``ENV_SENSITIVITY``) so
fallback costs remain monotone in cluster load and comparable across
environments — candidate *ranking* is unchanged (the factor is shared by
every plan in a request), but absolute values stay in the same regime the
learned model reports.
"""

from __future__ import annotations

import numpy as np

from repro.warehouse.costmodel import COST, intrinsic_plan_cost
from repro.warehouse.executor import ENV_SENSITIVITY
from repro.warehouse.plan import PhysicalPlan

__all__ = ["NativeCostFallback", "environment_factor_from_features"]


def environment_factor_from_features(
    env_features: tuple[float, float, float, float],
) -> float:
    """The executor's load-slowdown factor from already-normalized features
    ``(cpu_idle, io_wait, load5_norm, mem_usage)`` (cf.
    :func:`repro.warehouse.executor.environment_cost_factor`, which takes a
    raw :class:`EnvironmentSample` instead)."""
    cpu_idle, io_wait, load5_norm, mem_usage = (float(v) for v in env_features)
    a_busy, a_io, a_load, a_mem = ENV_SENSITIVITY
    return (
        1.0
        + a_busy * (1.0 - cpu_idle)
        + a_io * io_wait
        + a_load * load5_norm
        + a_mem * mem_usage
    )


class NativeCostFallback:
    """Statistics-free baseline cost scoring with the learned path's call
    contract (``predict(plans, env_features=...)`` → float64 array), under
    the warehouse's ``COST`` constants.

    Plans must carry ``est_rows`` annotations, which every plan produced by
    :class:`~repro.warehouse.optimizer.NativeOptimizer` (and every clone of
    one) does.  Scoring is deterministic and side-effect free.
    """

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        costs = np.array(
            [intrinsic_plan_cost(p.root, field="est_rows", constants=COST) for p in plans],
            dtype=np.float64,
        )
        if env_features is not None:
            costs *= environment_factor_from_features(env_features)
        return costs
