"""Optimizer gateway: the concurrent, guarded serving front end.

The single entry point production traffic takes to the learned cost model
(docs/GATEWAY.md): bounded admission, micro-batch coalescing, per-request
deadline budgets, a per-model-version circuit breaker, a deterministic
native-cost fallback, and built-in telemetry.
"""

from repro.gateway.breaker import BreakerConfig, CircuitBreaker
from repro.gateway.fallback import NativeCostFallback, environment_factor_from_features
from repro.gateway.gateway import (
    GatewayClosedError,
    GatewayConfig,
    GatewayResult,
    OptimizerGateway,
)
from repro.gateway.telemetry import Counter, Gauge, Histogram, Telemetry

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "Counter",
    "Gauge",
    "GatewayClosedError",
    "GatewayConfig",
    "GatewayResult",
    "Histogram",
    "NativeCostFallback",
    "OptimizerGateway",
    "Telemetry",
    "environment_factor_from_features",
]
