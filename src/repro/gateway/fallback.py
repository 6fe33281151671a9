"""The deterministic answer the gateway gives when the learned path can't.

Bao's production rule, transplanted: a learned optimizer component must
always be able to hand the decision back to the native optimizer.  Here
the native answer is the warehouse's statistics-free cost model — the same
``intrinsic_plan_cost`` over the optimizer's ``est_rows`` annotations that
``NativeOptimizer.estimated_cost`` ranks plans with — so a fallback
response is exactly what the unsteered optimizer would have said, computed
in pure Python with no model weights, no caches, and no shared mutable
state.  That makes it safe to call synchronously from any number of
request threads while the learned path is timing out, erroring, or
circuit-broken.

When the caller supplies an environment override, the estimate is scaled
by the executor's linear load-slowdown form (``ENV_SENSITIVITY``) so
fallback costs remain monotone in cluster load and comparable across
environments — candidate *ranking* is unchanged (the factor is shared by
every plan in a request), but absolute values stay in the same regime the
learned model reports.
"""

from __future__ import annotations

import numpy as np

from repro.warehouse.costmodel import COST, CostConstants, intrinsic_plan_cost
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
    contract (``predict(plans, env_features=...)`` → float64 array).

    Plans must carry ``est_rows`` annotations, which every plan produced by
    :class:`~repro.warehouse.optimizer.NativeOptimizer` (and every clone of
    one) does.  Scoring is deterministic and side-effect free.
    """

    def __init__(
        self,
        *,
        constants: CostConstants = COST,
        use_environment: bool = True,
    ) -> None:
        self.constants = constants
        self.use_environment = use_environment

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        costs = np.array(
            [
                intrinsic_plan_cost(p.root, field="est_rows", constants=self.constants)
                for p in plans
            ],
            dtype=np.float64,
        )
        if env_features is not None and self.use_environment:
            costs *= environment_factor_from_features(env_features)
        return costs
