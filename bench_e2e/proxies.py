"""Duck-typed proxies the benchmark injects into the gateway.

``OptimizerGateway(service=<proxy>, pacer=<proxy>)`` accepts anything with
the right methods (the pattern ``_SlowService`` in ``benchmarks/`` already
uses), so the serving and pacing layers are timed from outside: no span
lives in ``src/``.  Every proxy forwards what it does not time through
``__getattr__`` — the gateway must see ``cache_counters``,
``swap_predictor`` and ``predictor`` exactly as on the real object, or a
traced run would do less work than an untraced one.
"""

from __future__ import annotations

import time


class _Forwarding:
    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class DelayService(_Forwarding):
    """Fixed per-batch delay: the pipe's capacity is known by construction
    (one request per batch at ``1 / delay`` per second)."""

    def __init__(self, inner, delay_seconds: float) -> None:
        super().__init__(inner)
        self._delay = delay_seconds

    def predict(self, plans, *, env_features=None):
        time.sleep(self._delay)
        return self._inner.predict(plans, env_features=env_features)


class TimedService(_Forwarding):
    """Records every learned batch of a traced round: its interval and the
    plan objects it carried, from which ``SpanRecorder.attribute_batches``
    later makes one ``serving.predict`` span per request in the batch."""

    def __init__(self, inner, tracer) -> None:
        super().__init__(inner)
        self._tracer = tracer

    def predict(self, plans, *, env_features=None):
        started = time.perf_counter()
        if not self._tracer.active(started):
            return self._inner.predict(plans, env_features=env_features)
        try:
            return self._inner.predict(plans, env_features=env_features)
        finally:
            self._tracer.add_batch(plans, env_features, started, time.perf_counter())


class TimedPacer(_Forwarding):
    """Times ``try_admit`` (a span under the calling request) and
    ``on_delivered`` (worker thread, counted only) of a real pacer."""

    def __init__(self, inner, tracer) -> None:
        super().__init__(inner)
        self._tracer = tracer
        self.try_admit_calls = 0
        self.try_admit_seconds = 0.0
        self.on_delivered_calls = 0
        self.on_delivered_seconds = 0.0

    def try_admit(self) -> bool:
        request_id = self._tracer.current_request()
        if request_id is None:
            return self._inner.try_admit()
        started = time.perf_counter()
        admitted = self._inner.try_admit()
        ended = time.perf_counter()
        self._tracer.add(
            4 * request_id + 3, 4 * request_id + 1, request_id, "pacing.try_admit", started, ended
        )
        self.try_admit_calls += 1
        self.try_admit_seconds += ended - started
        return admitted

    def on_delivered(self, n: int = 1, *, elapsed_seconds: float) -> None:
        started = time.perf_counter()
        if not self._tracer.active(started):
            return self._inner.on_delivered(n, elapsed_seconds=elapsed_seconds)
        self._inner.on_delivered(n, elapsed_seconds=elapsed_seconds)
        self.on_delivered_seconds += time.perf_counter() - started
        self.on_delivered_calls += 1
