"""Observability for the serving stack: tracing and the flight recorder.

Two pieces, designed to be wired into the gateway / fleet / lifecycle
layers without coupling them to each other:

* :mod:`repro.obs.trace` — ``TraceContext`` / ``Span`` / ``Tracer`` with
  deterministic-under-seed ids, head sampling, cross-process propagation
  over the fleet RPC framing, and a ``SpanCollector`` that stitches
  complete span trees per trace id.
* :mod:`repro.obs.recorder` — ``FlightRecorder``, a per-process ring
  buffer of recent spans/events that snapshots itself to JSONL on breaker
  trips, worker crashes, and shed storms.
"""

from repro.obs.recorder import FlightRecorder
from repro.obs.trace import (
    NULL_SPAN,
    ObsConfig,
    Span,
    SpanCollector,
    SpanTree,
    TraceContext,
    Tracer,
    activate_span,
    current_span,
    traced_section,
)

__all__ = [
    "FlightRecorder",
    "NULL_SPAN",
    "ObsConfig",
    "Span",
    "SpanCollector",
    "SpanTree",
    "TraceContext",
    "Tracer",
    "activate_span",
    "current_span",
    "traced_section",
]
