"""Tests for the optimizer gateway (repro.gateway).

Covers the PR's serving-front-end guarantees:

(a) fallback answers are bitwise-equal to the statistics-free baseline;
(b) a deadline-exceeded request answers from the fallback without ever
    blocking on the learned path;
(c) the circuit breaker trips on repeated failures, recovers through
    half-open probes, and resets at every model swap;
(d) load shedding under a full queue still answers every request;
(e) concurrent callers through the gateway match a serial reference on a
    real trained predictor within rtol 1e-5;

plus unit coverage of the telemetry core, the breaker state machine, the
native-cost fallback, and the lifecycle wiring (breaker trip -> drift
retrain signal, promotion -> breaker reset).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.gateway import (
    CircuitBreaker,
    NativeCostFallback,
    OptimizerGateway,
    Telemetry,
    environment_factor_from_features,
)
from repro.gateway.breaker import (
    COOLDOWN_SECONDS,
    FAILURE_RATE_THRESHOLD,
    HALF_OPEN_PROBES,
    MIN_CALLS,
    WINDOW,
)
from repro.gateway.gateway import MAX_QUEUE_DEPTH, _Latch
from repro.gateway.telemetry import HISTOGRAM_WINDOW
from repro.pacing import PACER_STATE_CODES, AdmissionPacer, PacerConfig
from repro.pacing.pacer import STARTUP_FULL_ROUNDS
from repro.serving import CostInferenceService

TINY = PredictorConfig(epochs=2, hidden_dims=(16, 16), embedding_dim=8, adversarial=False)

ENV = (0.5, 0.05, 0.5, 0.5)


@pytest.fixture(scope="module")
def trained(project_with_history):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    return predictor, plans


@pytest.fixture()
def native_plans(small_project):
    queries = [small_project.sample_query(i) for i in range(6)]
    return [small_project.optimizer.optimize(q) for q in queries]


# -- stubs ----------------------------------------------------------------------


class _MarkerPlan:
    """A fake plan whose learned cost is carried on the object, so a caller
    can verify its slice of a coalesced batch regardless of batch shape."""

    __slots__ = ("marker",)

    def __init__(self, marker: float) -> None:
        self.marker = marker


class _StubPredictor:
    def __init__(self, version: int = 1) -> None:
        self.weights_version = version


class _StubService:
    """Duck-typed CostInferenceService: per-plan deterministic answers,
    optional latency, call log; raises on its next ``faults`` calls."""

    def __init__(self, *, delay: float = 0.0) -> None:
        self.predictor = _StubPredictor()
        self.delay = delay
        self.faults = 0
        self.calls: list[tuple[int, tuple | None]] = []
        self._lock = threading.Lock()

    def predict(self, plans, *, env_features=None):
        with self._lock:
            self.calls.append((len(plans), env_features))
        if self.faults > 0:
            self.faults -= 1
            raise RuntimeError("injected learned-path fault")
        if self.delay:
            time.sleep(self.delay)
        return np.array([p.marker for p in plans], dtype=np.float64)

    def swap_predictor(self, predictor, *, warm=None) -> None:
        self.predictor = predictor

    @property
    def weights_version(self) -> int:
        return self.predictor.weights_version


class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _marker_plans(*markers: float) -> list[_MarkerPlan]:
    return [_MarkerPlan(m) for m in markers]


class _StubFallback:
    def predict(self, plans, *, env_features=None):
        return np.array([-p.marker for p in plans], dtype=np.float64)


class _StuckService:
    """A learned path that blocks until ``release`` is set."""

    predictor = _StubPredictor()

    def __init__(self) -> None:
        self.release = threading.Event()

    def predict(self, plans, *, env_features=None):
        self.release.wait(20.0)
        return np.zeros(len(plans))


class _GatedService:
    """A learned path whose next ``n`` batches (after ``arm(n)``) each block
    on their own gate; ``entered[i]`` says batch ``i`` is inside."""

    def __init__(self) -> None:
        self.predictor = _StubPredictor()
        self._lock = threading.Lock()
        self.arm(0)

    def arm(self, n: int) -> None:
        self.gates = [threading.Event() for _ in range(n)]
        self.entered = [threading.Event() for _ in range(n)]
        self._next = 0

    def open(self) -> None:
        for gate in self.gates:
            gate.set()

    def predict(self, plans, *, env_features=None):
        with self._lock:
            i = self._next
            self._next += 1
        if i < len(self.gates):
            self.entered[i].set()
            self.gates[i].wait(20.0)
        return np.array([p.marker for p in plans], dtype=np.float64)


def _settle(condition, timeout: float = 5.0) -> bool:
    """Poll until the worker's post-answer bookkeeping made ``condition()``
    true (a caller is woken before its batch is accounted)."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


# -- telemetry ------------------------------------------------------------------


class TestTelemetry:
    def test_counter_monotone(self):
        t = Telemetry()
        c = t.counter("reqs")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        t = Telemetry()
        assert t.counter("a") is t.counter("a")

    def test_kind_collision_raises(self):
        t = Telemetry()
        t.counter("x")
        with pytest.raises(TypeError):
            t.gauge("x")

    def test_histogram_quantiles_nearest_rank(self):
        h = Telemetry().histogram("lat")
        for v in range(100):  # 0..99
            h.observe(v)
        snap = h.snapshot()
        assert snap["p50"] == 49
        assert snap["p95"] == 94
        assert snap["p99"] == 98
        assert snap["min"] == 0
        assert snap["max"] == 99

    def test_histogram_window_bounds_quantiles_not_totals(self):
        h = Telemetry().histogram("lat")
        n = HISTOGRAM_WINDOW + 100
        for v in range(n):
            h.observe(v)
        snap = h.snapshot(include_samples=True)
        assert snap["count"] == n
        assert snap["sum"] == pytest.approx(sum(range(n)))
        # quantiles describe the last HISTOGRAM_WINDOW observations only.
        assert snap["samples"][0] == 100
        assert snap["p50"] == 100 + int(0.5 * (HISTOGRAM_WINDOW - 1))

    def test_histogram_snapshot_fields(self):
        h = Telemetry().histogram("lat")
        snap = h.snapshot()
        assert snap == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "nonfinite": 0,
        }
        h.observe(2.0)
        h.observe(4.0)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert snap["mean"] == pytest.approx(3.0)
        assert snap["min"] == 2.0 and snap["max"] == 4.0

    def test_json_round_trip(self):
        t = Telemetry()
        t.counter("reqs").inc(3)
        t.gauge("depth").set(2)
        t.histogram("lat").observe(0.5)
        doc = json.loads(json.dumps(t.snapshot()))
        assert doc["counters"]["reqs"] == 3
        assert doc["gauges"]["depth"] == 2
        assert doc["histograms"]["lat"]["count"] == 1

    def test_thread_safety_counts_every_increment(self):
        t = Telemetry()
        c = t.counter("n")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert c.value == 8000


# -- circuit breaker ------------------------------------------------------------


def _breaker(clock) -> CircuitBreaker:
    return CircuitBreaker(clock=clock)


class TestCircuitBreaker:
    def test_no_trip_below_min_calls(self):
        b = _breaker(_FakeClock())
        for _ in range(MIN_CALLS - 1):
            b.record_failure()
        assert b.state == "closed"
        assert b.allow()

    def test_trips_at_failure_rate(self):
        b = _breaker(_FakeClock())
        for _ in range(MIN_CALLS // 2):
            b.record_success()
        for _ in range(MIN_CALLS // 2):
            b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.trip_count == 1

    def test_successes_keep_it_closed(self):
        b = _breaker(_FakeClock())
        for _ in range(50):
            b.record_success()
        b.record_failure()
        assert b.state == "closed"

    def test_on_trip_callback(self):
        fired = []
        b = _breaker(_FakeClock())
        b.on_trip = fired.append
        for _ in range(MIN_CALLS):
            b.record_failure()
        assert fired == [b]

    def test_half_open_after_cooldown_then_closes(self):
        clock = _FakeClock()
        b = _breaker(clock)
        for _ in range(MIN_CALLS):
            b.record_failure()
        assert not b.allow()
        clock.advance(COOLDOWN_SECONDS)
        assert b.state == "half-open"
        # every probe slot granted, the next denied while probes are in flight.
        for _ in range(HALF_OPEN_PROBES):
            assert b.allow()
        assert not b.allow()
        for _ in range(HALF_OPEN_PROBES):
            b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_half_open_failure_reopens(self):
        clock = _FakeClock()
        b = _breaker(clock)
        for _ in range(MIN_CALLS):
            b.record_failure()
        clock.advance(COOLDOWN_SECONDS)
        assert b.allow()
        b.record_failure(kind="slow")
        assert b.state == "open"
        assert b.trip_count == 2
        # cooldown restarted: still open until it elapses again.
        clock.advance(COOLDOWN_SECONDS / 2)
        assert not b.allow()

    def test_release_probe_returns_slot(self):
        clock = _FakeClock()
        b = _breaker(clock)
        for _ in range(MIN_CALLS):
            b.record_failure()
        clock.advance(COOLDOWN_SECONDS)
        for _ in range(HALF_OPEN_PROBES):
            assert b.allow()
        assert not b.allow()  # every probe slot is out
        b.release_probe()  # a granted request was shed before the model
        assert b.allow()

    def test_reset_closes_unconditionally(self):
        b = _breaker(_FakeClock())
        for _ in range(MIN_CALLS):
            b.record_failure()
        b.reset()
        assert b.state == "closed"
        assert b.allow()

    def test_stats_shape(self):
        b = _breaker(_FakeClock())
        b.record_success()
        stats = b.stats()
        assert stats["state"] == "closed"
        assert stats["success_count"] == 1
        assert stats["window_filled"] == 1

    @settings(max_examples=200, deadline=None)
    @given(outcomes=st.lists(st.booleans(), max_size=3 * WINDOW))
    def test_trip_points_match_windowed_sum_definition(self, outcomes):
        """The running bad-count trips exactly where ``sum(window) /
        len(window) >= threshold`` over the last ``WINDOW`` outcomes does."""
        breaker = _breaker(_FakeClock())
        reference: deque[bool] = deque(maxlen=WINDOW)
        trips, want = [], []
        for i, bad in enumerate(outcomes):
            if bad:
                breaker.record_failure()
            else:
                breaker.record_success()
            if breaker.trip_count > len(trips):
                trips.append(i)
                breaker.reset()  # closed again with an empty window
            reference.append(bad)
            if (
                len(reference) >= MIN_CALLS
                and sum(reference) / len(reference) >= FAILURE_RATE_THRESHOLD
            ):
                want.append(i)
                reference.clear()
        assert trips == want
        assert breaker.stats()["window_filled"] == len(reference)


# -- fallback -------------------------------------------------------------------


class TestNativeCostFallback:
    def test_deterministic_and_positive(self, native_plans):
        fb = NativeCostFallback()
        a = fb.predict(native_plans)
        b = fb.predict(native_plans)
        assert (a == b).all()
        assert (a > 0).all()
        assert a.dtype == np.float64

    def test_neutral_environment_factor_is_one(self, native_plans):
        fb = NativeCostFallback()
        assert environment_factor_from_features((1.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)
        base = fb.predict(native_plans)
        neutral = fb.predict(native_plans, env_features=(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(neutral, base)

    def test_busier_environment_scales_up_uniformly(self, native_plans):
        fb = NativeCostFallback()
        base = fb.predict(native_plans)
        busy = fb.predict(native_plans, env_features=(0.1, 0.3, 0.9, 0.9))
        factor = environment_factor_from_features((0.1, 0.3, 0.9, 0.9))
        assert factor > 1.0
        np.testing.assert_allclose(busy, base * factor)
        # shared factor: candidate ranking is unchanged.
        assert np.argsort(busy).tolist() == np.argsort(base).tolist()



# -- gateway guardrail paths (stub service) -------------------------------------


class TestGatewayFallbackPaths:
    def test_no_model_answers_baseline_bitwise(self, native_plans):
        with OptimizerGateway(None) as gw:
            for env in (None, ENV):
                result = gw.predict(native_plans, env_features=env)
                assert result.source == "fallback"
                assert result.reason == "no-model"
                assert result.model_version is None
                expected = NativeCostFallback().predict(native_plans, env_features=env)
                assert (result.costs == expected).all()
        assert gw.telemetry.counter("fallback_no_model_total").value == 2

    def test_learned_path_flags_source_and_version(self):
        service = _StubService()
        with OptimizerGateway(service) as gw:
            result = gw.predict(_marker_plans(3.0, 1.0, 2.0))
            assert result.source != "fallback"
            assert (result.source, result.reason) == ("learned", "ok")
            assert result.model_version == 1
            assert (result.costs == [3.0, 1.0, 2.0]).all()
            assert np.argmin(result.costs) == 1
            assert len(result.costs) == 3 and list(result.costs) == [3.0, 1.0, 2.0]
            assert result.costs[1] == 1.0

    def test_empty_request_answers_immediately(self):
        with OptimizerGateway(_StubService()) as gw:
            result = gw.predict([])
            assert len(result.costs) == 0
            assert result.reason == "ok"

    def test_model_error_answers_baseline_bitwise(self, native_plans):
        service = _StubService()
        with OptimizerGateway(service) as gw:
            service.faults = 1
            result = gw.predict(native_plans, env_features=ENV)
            assert result.source == "fallback"
            assert result.reason == "model-error"
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (result.costs == expected).all()
            assert np.isfinite(result.costs).all()
            # fault budget spent: the learned path recovers.
            assert gw.predict(_marker_plans(1.0)).source == "learned"

    def test_deadline_miss_returns_fallback_without_blocking(self, native_plans):
        service = _StubService(delay=0.5)
        with OptimizerGateway(service) as gw:
            started = time.monotonic()
            result = gw.predict(native_plans, env_features=ENV, deadline_ms=30)
            elapsed = time.monotonic() - started
            assert result.source == "fallback"
            assert result.reason == "deadline"
            assert elapsed < 0.4  # answered well before the 0.5 s learned path
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (result.costs == expected).all()
            assert gw.telemetry.counter("deadline_miss_total").value == 1
            # the abandoned batch eventually lands as a slow call.
            deadline = time.monotonic() + 2.0
            while gw.breaker.slow_count == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gw.breaker.slow_count == 1

    def test_shed_when_queue_full(self, native_plans):
        service = _GatedService()
        service.arm(1)
        with OptimizerGateway(service) as gw:
            results = {}

            def call(key):
                results[key] = gw.predict(_marker_plans(float(key)))

            # 1: picked up by the worker (held at the stub's gate); the next
            # MAX_QUEUE_DEPTH callers park on the queue -> the next one sheds.
            first = threading.Thread(target=call, args=(1,))
            first.start()
            assert service.entered[0].wait(5.0)
            queued = [
                threading.Thread(target=call, args=(key,))
                for key in range(2, MAX_QUEUE_DEPTH + 2)
            ]
            for th in queued:
                th.start()
            assert _settle(lambda: len(gw._queue) == MAX_QUEUE_DEPTH)
            shed = gw.predict(native_plans, env_features=ENV)
            assert shed.source == "fallback"
            assert shed.reason == "shed"
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (shed.costs == expected).all()
            service.open()
            for th in [first, *queued]:
                th.join(timeout=10.0)
            assert not any(th.is_alive() for th in [first, *queued])
            # the queued callers still got learned answers.
            for key in range(1, MAX_QUEUE_DEPTH + 2):
                assert results[key].source == "learned" and results[key].costs[0] == key
            assert gw.telemetry.counter("fallback_shed_total").value == 1
            # ... and the shed split attributes it to the queue.
            assert gw.telemetry.counter("sheds_total").value == 1
            assert gw.telemetry.counter("shed_queue_full_total").value == 1

    def test_shed_split_counters_by_reason(self, native_plans):
        """``sheds_total`` splits per reason: a deadline miss and a
        post-close refusal land in different counters (health-based
        fallbacks like no-model never count as sheds)."""
        service = _StubService(delay=0.3)
        with OptimizerGateway(service) as gw:
            r = gw.predict(native_plans, env_features=ENV, deadline_ms=30)
            assert r.reason == "deadline"
            gw.close()
            r = gw.predict(native_plans, env_features=ENV)
            assert r.reason == "closed"
            counters = gw.stats()["counters"]
            assert counters["sheds_total"] == 2
            assert counters["shed_deadline_total"] == 1
            assert counters["shed_closed_total"] == 1
            assert "shed_queue_full_total" not in counters
        with OptimizerGateway(None) as gw:
            assert gw.predict(native_plans, env_features=ENV).reason == "no-model"
            assert "sheds_total" not in gw.stats()["counters"]

    def test_coalesces_compatible_requests(self):
        service = _GatedService()
        service.arm(1)
        with OptimizerGateway(service) as gw:
            results = [None] * 8

            def call(i):
                results[i] = gw.predict(_marker_plans(float(i), float(i) + 0.5))

            threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
            # Hold the first batch so the other seven queue up behind it.
            threads[0].start()
            assert service.entered[0].wait(5.0)
            for th in threads[1:]:
                th.start()
            assert _settle(lambda: len(gw._queue) == 7)
            service.open()
            for th in threads:
                th.join(timeout=10.0)
            assert not any(th.is_alive() for th in threads)
            # every caller got exactly its own slice of the merged batches.
            for i, result in enumerate(results):
                assert result.source == "learned"
                assert (result.costs == [float(i), float(i) + 0.5]).all()
            # The held batch, then the seven queued requests as one.
            assert gw.telemetry.counter("batches_total").value == 2
            assert gw.telemetry.histogram("batch_plans").snapshot()["max"] == 14

    def test_mixed_environments_never_merge(self):
        service = _StubService(delay=0.05)
        with OptimizerGateway(service) as gw:
            envs = [ENV, (0.9, 0.0, 0.1, 0.2), None]
            results = [None] * 3

            def call(i):
                results[i] = gw.predict(_marker_plans(float(i)), env_features=envs[i])

            threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert all(r.source == "learned" for r in results)
            seen = {env for _, env in service.calls}
            assert len(service.calls) == 3  # one batch per distinct env key
            assert seen == {ENV, (0.9, 0.0, 0.1, 0.2), None}


class TestGatewayBreaker:
    def _gateway(self, service, clock):
        return OptimizerGateway(service, breaker=_breaker(clock))

    def test_repeated_errors_trip_then_circuit_open(self, native_plans):
        clock = _FakeClock()
        service = _StubService()
        with self._gateway(service, clock) as gw:
            service.faults = 100
            for _ in range(MIN_CALLS):
                assert gw.predict(native_plans).reason == "model-error"
            assert gw.breaker.state == "open"
            assert gw.telemetry.counter("breaker_trips_total").value == 1
            calls_before = len(service.calls)
            result = gw.predict(native_plans, env_features=ENV)
            assert result.reason == "circuit-open"
            assert len(service.calls) == calls_before  # never queued
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (result.costs == expected).all()

    def test_on_trip_hook_receives_gateway(self, native_plans):
        tripped = []
        service = _StubService()
        gw = OptimizerGateway(service, breaker=_breaker(_FakeClock()))
        gw.on_trip = tripped.append
        with gw:
            service.faults = 100
            for _ in range(MIN_CALLS):
                gw.predict(native_plans)
        assert tripped == [gw]

    def test_half_open_probes_recover(self, native_plans):
        clock = _FakeClock()
        service = _StubService()
        with self._gateway(service, clock) as gw:
            service.faults = 100
            for _ in range(MIN_CALLS):
                gw.predict(native_plans)
            assert gw.breaker.state == "open"
            service.faults = 0  # model healthy again
            clock.advance(COOLDOWN_SECONDS)
            assert gw.breaker.state == "half-open"
            for marker in range(HALF_OPEN_PROBES):  # probe successes close it
                result = gw.predict(_marker_plans(float(marker)))
                assert result.source == "learned"
            assert gw.breaker.state == "closed"

    def test_half_open_failure_reopens(self, native_plans):
        clock = _FakeClock()
        service = _StubService()
        with self._gateway(service, clock) as gw:
            service.faults = 100
            for _ in range(MIN_CALLS):
                gw.predict(native_plans)
            clock.advance(COOLDOWN_SECONDS)
            assert gw.predict(native_plans).reason == "model-error"  # probe fails
            assert gw.breaker.state == "open"
            assert gw.breaker.trip_count == 2

    def test_swap_predictor_resets_breaker_and_version(self, native_plans):
        clock = _FakeClock()
        service = _StubService()
        with self._gateway(service, clock) as gw:
            service.faults = 100
            for _ in range(MIN_CALLS):
                gw.predict(native_plans)
            assert gw.breaker.state == "open"
            swaps_before = gw.telemetry.counter("swaps_total").value
            service.faults = 0
            gw.swap_predictor(_StubPredictor(version=7))
            assert gw.breaker.state == "closed"
            assert service.predictor.weights_version == 7
            assert gw.telemetry.counter("swaps_total").value == swaps_before + 1
            result = gw.predict(_marker_plans(5.0))
            assert result.source == "learned"
            assert result.model_version == 7
            assert gw.telemetry.gauge("model_weights_version").value == 7

    def test_stats_and_snapshot_surface_breaker_state(self, native_plans):
        clock = _FakeClock()
        service = _StubService()
        with self._gateway(service, clock) as gw:
            service.faults = 100
            for _ in range(MIN_CALLS):
                gw.predict(native_plans)
            stats = gw.stats()
            assert stats["breaker"]["state"] == "open"
            assert stats["gauges"]["breaker_state"] == 2.0
            assert stats["has_model"] is True
            assert gw.telemetry.snapshot()["gauges"]["breaker_state"] == 2.0


# -- learned path on a real trained predictor -----------------------------------


class TestGatewayLearnedReal:
    def test_matches_direct_service(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        direct = service.predict(plans[:16], env_features=ENV)
        with OptimizerGateway(service) as gw:
            result = gw.predict(plans[:16], env_features=ENV)
            assert result.source == "learned"
            np.testing.assert_allclose(result.costs, direct, rtol=1e-5)

    def test_logged_env_requests_match_direct_service(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        direct = service.predict(plans[:8])
        with OptimizerGateway(service) as gw:
            np.testing.assert_allclose(
                gw.predict(plans[:8]).costs, direct, rtol=1e-5
            )

    def test_concurrent_callers_match_serial_reference(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        chunks = [plans[i : i + 4] for i in range(0, 32, 4)]
        serial = [np.array(service.predict(c, env_features=ENV)) for c in chunks]
        results = [None] * len(chunks)
        with OptimizerGateway(service) as gw:

            def call(i):
                results[i] = gw.predict(chunks[i], env_features=ENV)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(len(chunks))
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert gw.telemetry.counter("fallback_total").value == 0
            for got, want in zip(results, serial):
                assert got.source == "learned"
                np.testing.assert_allclose(got.costs, want, rtol=1e-5)

    def test_cache_counters_surfaced_as_gauges(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        with OptimizerGateway(service) as gw:
            gw.predict(plans[:6], env_features=ENV)
            gw.predict(plans[:6], env_features=ENV)
            gauges = gw.stats()["gauges"]
            for tier in ("encoding_cache", "prediction_cache"):
                for counter in ("hits", "misses", "evictions", "size", "capacity"):
                    assert f"serving_{tier}_{counter}" in gauges
            assert gauges["serving_prediction_cache_hits"] >= 1
            assert gauges["serving_encoding_cache_misses"] >= 6
            # Cold-path attribution split rides the same export: the first
            # request was a full cold encode + forward, so both timers ran.
            for gauge in (
                "serving_encode_seconds",
                "serving_forward_seconds",
                "serving_warmed_plans",
            ):
                assert gauge in gauges
            assert gauges["serving_encode_seconds"] > 0.0
            assert gauges["serving_forward_seconds"] > 0.0

    def test_close_is_idempotent_and_answers_late_callers(self, trained):
        predictor, plans = trained
        gw = OptimizerGateway(CostInferenceService(predictor))
        gw.close()
        gw.close()


# -- shutdown drain -------------------------------------------------------------


class TestGatewayClose:
    def test_predict_after_close_answers_fallback_immediately(self, native_plans):
        gw = OptimizerGateway(_StubService())
        gw.close()
        started = time.monotonic()
        result = gw.predict(native_plans, env_features=ENV)
        assert time.monotonic() - started < 1.0
        assert result.source == "fallback" and result.reason == "closed"
        expected = NativeCostFallback().predict(native_plans, env_features=ENV)
        assert (result.costs == expected).all()
        counters = gw.stats()["counters"]
        assert counters["fallback_closed_total"] == 1

    def test_close_drains_admitted_requests(self):
        """Requests admitted before close() are still answered (learned when
        the worker can finish them) — no caller is left stranded."""
        service = _StubService(delay=0.05)
        gw = OptimizerGateway(service, fallback=_StubFallback())
        results: list = []
        lock = threading.Lock()

        def caller(marker: float) -> None:
            r = gw.predict(_marker_plans(marker))
            with lock:
                results.append(r)

        threads = [threading.Thread(target=caller, args=(float(i),)) for i in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.01)  # let the first batch start, the rest queue up
        gw.close()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads), "caller stranded across close()"
        assert len(results) == 6
        for r in results:
            assert np.isfinite(np.asarray(r.costs)).all()

    def test_close_fails_over_stuck_inflight_requests(self):
        """A learned path stuck past the close timeout must not strand the
        caller whose request it is holding: close() fails it over and the
        caller answers from the fallback with reason ``closed``."""
        stuck = _StuckService()
        gw = OptimizerGateway(stuck, fallback=_StubFallback())
        done: list = []

        def caller() -> None:
            done.append(gw.predict(_marker_plans(1.0)))

        t = threading.Thread(target=caller)
        t.start()
        time.sleep(0.05)  # worker is now blocked inside the learned path
        gw.close(timeout=0.2)
        t.join(timeout=10.0)
        stuck.release.set()  # unstick the daemon worker before the test exits
        assert not t.is_alive(), "caller stranded on a stuck learned path"
        assert done and done[0].source == "fallback" and done[0].reason == "closed"

    def test_close_racing_deadline_expiry_answers_closed(self):
        """close() fails a stuck in-flight request over *before* the
        caller's deadline fires: the caller wakes on the failover event,
        answers ``closed`` (never ``deadline``), never blocks, and the
        pacer slot comes back exactly once."""
        stuck = _StuckService()
        pacer = AdmissionPacer(PacerConfig())
        gw = OptimizerGateway(stuck, pacer=pacer, fallback=_StubFallback())
        done: list = []

        def caller() -> None:
            done.append(gw.predict(_marker_plans(1.0), deadline_ms=2000))

        t = threading.Thread(target=caller)
        t.start()
        time.sleep(0.05)  # worker blocked inside the learned path
        started = time.monotonic()
        gw.close(timeout=0.1)  # failover completes well inside the budget
        t.join(timeout=10.0)
        stuck.release.set()
        assert not t.is_alive(), "caller stranded across close()"
        assert done and done[0].source == "fallback" and done[0].reason == "closed"
        # Woke on the failover, not by waiting out the 2 s deadline.
        assert time.monotonic() - started < 1.5
        assert gw.pacer.inflight == 0
        assert gw.stats()["counters"]["shed_closed_total"] == 1

    def test_deadline_expiry_racing_close_answers_deadline(self):
        """The mirror race: the deadline fires first, the caller answers
        ``deadline`` immediately, and the close() that follows releases the
        stranded request's pacer slot instead of leaking it."""
        stuck = _StuckService()
        pacer = AdmissionPacer(PacerConfig())
        gw = OptimizerGateway(stuck, pacer=pacer, fallback=_StubFallback())
        result = gw.predict(_marker_plans(1.0), deadline_ms=30)
        assert result.source == "fallback" and result.reason == "deadline"
        assert gw.pacer.inflight == 1  # the stuck batch still holds it
        gw.close(timeout=0.1)
        stuck.release.set()
        assert gw.pacer.inflight == 0
        counters = gw.stats()["counters"]
        assert counters["shed_deadline_total"] == 1


# -- queue-wait / service-time latency split ------------------------------------


class TestLatencySplit:
    def test_queue_wait_and_service_time_histograms(self):
        service = _StubService(delay=0.02)
        with OptimizerGateway(service) as gw:
            for marker in (1.0, 2.0, 3.0):
                assert gw.predict(_marker_plans(marker)).source == "learned"
            snapshot = gw.stats()["histograms"]
            assert snapshot["queue_wait_seconds"]["count"] == 3
            assert snapshot["service_time_seconds"]["count"] == 3
            # The split attributes the end-to-end latency: the stub sleeps
            # 20 ms inside the learned path, so service time dominates and
            # both halves are bounded by the request latency.
            assert snapshot["service_time_seconds"]["p50"] >= 0.02
            total = snapshot["request_latency_seconds"]
            assert snapshot["queue_wait_seconds"]["p50"] <= total["max"]
            histograms = gw.telemetry.snapshot()["histograms"]
            assert "queue_wait_seconds" in histograms
            assert "service_time_seconds" in histograms


# -- the bound request path: gauges on read, bound instruments, lock latch -------


class TestRequestPath:
    def test_hot_requests_skip_the_registry_and_reads_see_live_values(
        self, trained, monkeypatch
    ):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        counter_reads: list = []
        cache_counters = service.cache_counters
        service.cache_counters = lambda: counter_reads.append(1) or cache_counters()
        # Fewer delivery samples than STARTUP needs to call the pipe full
        # (later batches return their slots unmeasured): the pacer stays in
        # STARTUP, so the gauges and stats() read one operating point and
        # the dwell histogram (one lookup per state change) stays out of
        # the count.
        pacer = AdmissionPacer(PacerConfig())
        samples: list[float] = []
        on_delivered = pacer.on_delivered

        def few_samples(n=1, *, elapsed_seconds):
            if len(samples) < STARTUP_FULL_ROUNDS:
                samples.append(elapsed_seconds)
                on_delivered(n, elapsed_seconds=elapsed_seconds)
            else:
                pacer.release(n)

        pacer.on_delivered = few_samples
        with OptimizerGateway(service, pacer=pacer) as gw:
            for _ in range(3):
                gw.predict(plans[:6], env_features=ENV)
            assert _settle(lambda: gw.pacer.inflight == 0)
            lookups: list = []
            get_or_create = Telemetry._get_or_create

            def counting(self, cls, name, **kwargs):
                lookups.append(name)
                return get_or_create(self, cls, name, **kwargs)

            with monkeypatch.context() as patched:
                patched.setattr(Telemetry, "_get_or_create", counting)
                del counter_reads[:]
                for _ in range(200):
                    assert gw.predict(plans[:6], env_features=ENV).source == "learned"
                assert _settle(lambda: gw.pacer.inflight == 0)
                assert lookups == []
                assert counter_reads == []

            want = {f"serving_{k}": float(v) for k, v in cache_counters().items()}
            assert want["serving_prediction_cache_hits"] >= 200 * 6
            pacer = gw.pacer.stats()
            want.update(
                breaker_state=0.0,
                model_weights_version=float(predictor.weights_version),
                pacer_state=PACER_STATE_CODES[pacer["state"]],
                pacer_inflight=0.0,
                pacer_inflight_cap=float(pacer["inflight_cap"]),
                pacer_btl_rate=pacer["btl_rate"],
                pacer_min_latency_seconds=pacer["min_latency_seconds"],
            )
            assert want["pacer_btl_rate"] > 0.0
            for gauges in (gw.stats()["gauges"], gw.telemetry.snapshot()["gauges"]):
                for name, value in want.items():
                    assert gauges[name] == value, name
            assert gw.stats()["counters"]["requests_total"] == 203

    def test_latch_is_one_shot_and_set_is_idempotent(self):
        latch = _Latch()
        assert latch.wait(0.01) is False
        threading.Timer(0.02, latch.set).start()
        assert latch.wait() is True
        latch.set()
        latch.set()

    def test_deadline_against_stuck_service_returns_slot_and_probe_once(self):
        clock = _FakeClock()
        breaker = _breaker(clock)
        for _ in range(MIN_CALLS):
            breaker.record_failure()
        clock.advance(COOLDOWN_SECONDS)  # cooldown over: half-open
        for _ in range(HALF_OPEN_PROBES - 1):
            assert breaker.allow()  # other probes in flight: the next is the last
        pacer = AdmissionPacer(PacerConfig())
        returned: list[int] = []
        release, on_delivered = pacer.release, pacer.on_delivered
        pacer.release = lambda n=1: returned.append(n) or release(n)
        pacer.on_delivered = lambda n=1, **kw: returned.append(n) or on_delivered(n, **kw)
        service = _StuckService()
        gw = OptimizerGateway(
            service, breaker=breaker, pacer=pacer, fallback=_StubFallback()
        )
        try:
            started = time.monotonic()
            result = gw.predict(_marker_plans(3.0), deadline_ms=30)
            assert time.monotonic() - started < 1.0
            assert result.reason == "deadline"
            assert (result.costs == [-3.0]).all()
            # The stuck batch still holds the slot and the last probe.
            assert pacer.inflight == 1 and returned == []
            assert breaker.state == "half-open" and not breaker.allow()
            service.release.set()
            assert _settle(lambda: pacer.inflight == 0)
            # The abandoned probe resolved as one slow call: re-opened.
            assert breaker.trip_count == 2
            assert breaker.stats()["slow_count"] == 1
        finally:
            service.release.set()
            gw.close()
        assert returned == [1]
        assert breaker.trip_count == 2

    def test_close_fails_over_queued_and_inflight_requests(self):
        service = _StuckService()
        gw = OptimizerGateway(service, fallback=_StubFallback())
        results: dict[float, object] = {}

        def caller(marker: float, env) -> None:
            results[marker] = gw.predict(_marker_plans(marker), env_features=env)

        # Different environments never coalesce: the second request stays
        # queued behind the first, which is stuck in the learned path.
        threads = [
            threading.Thread(target=caller, args=(1.0, ENV)),
            threading.Thread(target=caller, args=(2.0, (0.1, 0.1, 0.1, 0.1))),
        ]
        try:
            for t in threads:
                t.start()
                time.sleep(0.05)
            assert gw.stats()["queue_depth"] == 1
            gw.close(timeout=0.1)
            for t in threads:
                t.join(timeout=10.0)
        finally:
            service.release.set()
        assert not any(t.is_alive() for t in threads), "caller stranded across close()"
        for marker in (1.0, 2.0):
            assert results[marker].reason == "closed"
            assert (results[marker].costs == [-marker]).all()

    def test_conservation_under_concurrent_mixed_deadlines(self):
        service = _StubService(delay=0.002)
        pacer = AdmissionPacer(PacerConfig())
        deadlines = (None, 1.0, 4.0, 50.0)
        results: list = []
        lock = threading.Lock()
        gw = OptimizerGateway(service, pacer=pacer, fallback=_StubFallback())

        def caller(k: int) -> None:
            mine = [
                gw.predict(_marker_plans(float(k), float(i)), deadline_ms=deadlines[(k + i) % 4])
                for i in range(60)
            ]
            with lock:
                results.extend(mine)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in threads)
            assert _settle(lambda: gw.pacer.inflight == 0)
            counters = gw.stats()["counters"]
            learned = sum(r.source == "learned" for r in results)
            assert len(results) == 240 and 0 < learned < 240
            assert counters["requests_total"] == 240
            assert counters["learned_total"] == learned
            assert counters.get("fallback_total", 0) == 240 - learned
            pacer = gw.pacer.stats()
            assert pacer["inflight"] == 0
            assert pacer["admitted_total"] + pacer["denied_total"] <= 240
        finally:
            gw.close()
        assert gw.pacer.inflight == 0

    def test_a_learned_answer_names_the_model_that_scored_it(self):
        """A promote that lands between the batch and the caller's wake-up
        must not label the old model's costs with the new version."""
        swapped = threading.Event()
        promoters: list[threading.Thread] = []

        class Service(_StubService):
            def predict(self, plans, *, env_features=None):
                # The promote queues on the service lock behind this batch.
                promoter = threading.Thread(
                    target=gw.swap_predictor, args=(_StubPredictor(2),)
                )
                promoters.append(promoter)
                promoter.start()
                return np.full(len(plans), float(self.predictor.weights_version))

            def swap_predictor(self, predictor, *, warm=None) -> None:
                super().swap_predictor(predictor, warm=warm)
                swapped.set()

            @property
            def weights_version(self) -> int:
                # Read outside the batch's lock, the version is the promote's.
                swapped.wait(0.3)
                return self.predictor.weights_version

        gw = OptimizerGateway(Service())
        try:
            result = gw.predict(_marker_plans(1.0, 2.0))
            for promoter in promoters:
                promoter.join(timeout=10.0)
            assert result.source == "learned"
            assert (result.costs == 1.0).all()
            assert result.model_version == 1
            assert swapped.is_set() and gw.stats()["gauges"]["model_weights_version"] == 2
        finally:
            gw.close()

    def test_the_idle_worker_parks_and_every_producer_or_close_wakes_it(self):
        gw = OptimizerGateway(_StubService())
        for marker in range(5):
            # Each request finds the worker parked (the queue ran dry).
            assert _settle(lambda: gw._parked)
            assert gw.predict(_marker_plans(float(marker))).costs[0] == marker
        assert _settle(lambda: gw._parked)
        gw.close(timeout=5.0)
        assert not gw._worker.is_alive() and not gw._parked


# -- lifecycle wiring -----------------------------------------------------------


class TestLifecycleGateway:
    def test_gateway_before_bootstrap_serves_fallback(self, trained, native_plans):
        from repro.lifecycle import ModelLifecycle

        predictor, plans = trained
        lifecycle = ModelLifecycle()
        gw = lifecycle.serve_through_gateway()
        try:
            assert not gw.has_model
            result = gw.predict(native_plans)
            assert result.reason == "no-model"
            lifecycle.bootstrap(predictor, environment_features=ENV)
            assert gw.has_model
            learned = gw.predict(plans[:4], env_features=ENV)
            assert learned.source == "learned"
            direct = lifecycle.service.predict(plans[:4], env_features=ENV)
            np.testing.assert_allclose(learned.costs, direct, rtol=1e-5)
        finally:
            gw.close()

    def test_breaker_trip_flags_drift_retrain(self, trained, native_plans, monkeypatch):
        from repro.lifecycle import ModelLifecycle

        predictor, _ = trained
        lifecycle = ModelLifecycle()
        breaker = _breaker(_FakeClock())
        gw = lifecycle.serve_through_gateway(breaker=breaker)
        try:
            lifecycle.bootstrap(predictor, environment_features=ENV)

            def broken(plans, *, env_features=None):
                raise RuntimeError("injected learned-path fault")

            monkeypatch.setattr(lifecycle.service, "predict", broken)
            for _ in range(MIN_CALLS):
                assert gw.predict(native_plans).source == "fallback"
            assert gw.breaker.state == "open"
            # the feedback log is empty (below min_samples), yet the trip
            # alone must force the retrain signal.
            report = lifecycle.check_drift()
            assert report.retrain
            assert any("circuit-breaker-trip:v1" in r for r in report.reasons)
            # the flag is consumed: a later assessment is healthy again.
            assert not lifecycle.check_drift().retrain
        finally:
            gw.close()

    def test_promotion_hot_swap_resets_gateway_breaker(self, trained):
        from repro.lifecycle import CanaryConfig, ModelLifecycle

        predictor, plans = trained
        lifecycle = ModelLifecycle(canary=CanaryConfig(min_holdout=4))
        breaker = _breaker(_FakeClock())
        gw = lifecycle.serve_through_gateway(breaker=breaker)
        try:
            lifecycle.bootstrap(predictor, environment_features=ENV)
            predicted = gw.predict(plans[:20], env_features=ENV)
            for plan, cost in zip(plans[:20], predicted.costs):
                lifecycle.observe(
                    plan, float(cost), predicted_cost=float(cost), env_features=ENV
                )
            for _ in range(MIN_CALLS):
                gw.breaker.record_failure()
            assert gw.breaker.state == "open"
            # an identical-weights candidate (the registered checkpoint
            # reloaded) ties the incumbent, which the regression gate
            # admits -> hot swap -> breaker reset.
            candidate, _ = lifecycle.registry.load(1)
            report, entry = lifecycle.submit_candidate(
                candidate, environment_features=ENV
            )
            assert report.decision == "promote"
            assert entry is not None
            assert gw.breaker.state == "closed"
            assert gw.predict(plans[:4], env_features=ENV).source == "learned"
        finally:
            gw.close()

    def test_promote_waits_for_the_batch_in_flight(self, trained, monkeypatch):
        """A promote from another thread swaps the model under the gateway's
        service lock: it does not enter ``swap_predictor`` while a batch is
        still inside ``service.predict``.  A lifecycle keeps one gateway."""
        from repro.lifecycle import CanaryConfig, ModelLifecycle

        predictor, plans = trained
        lifecycle = ModelLifecycle(canary=CanaryConfig(min_holdout=4))
        gw = lifecycle.serve_through_gateway()
        gate = threading.Event()
        try:
            with pytest.raises(RuntimeError):
                lifecycle.serve_through_gateway()
            lifecycle.bootstrap(predictor, environment_features=ENV)
            predicted = gw.predict(plans[:20], env_features=ENV)
            for plan, cost in zip(plans[:20], predicted.costs):
                lifecycle.observe(
                    plan, float(cost), predicted_cost=float(cost), env_features=ENV
                )
            service = lifecycle.service
            predict, swap = service.predict, service.swap_predictor
            inside = threading.Event()
            in_flight: list[bool] = []  # non-empty while the gated batch computes
            swapped_mid_batch: list[bool] = []

            def gated_predict(batch, *, env_features=None):
                if inside.is_set():
                    return predict(batch, env_features=env_features)
                in_flight.append(True)
                inside.set()
                try:
                    gate.wait(10.0)
                    return predict(batch, env_features=env_features)
                finally:
                    in_flight.pop()

            def watched_swap(new, *, warm=None):
                swapped_mid_batch.append(bool(in_flight))
                swap(new, warm=warm)

            monkeypatch.setattr(service, "predict", gated_predict)
            monkeypatch.setattr(service, "swap_predictor", watched_swap)
            caller = threading.Thread(
                target=gw.predict, args=(plans[:4],), kwargs={"env_features": ENV}
            )
            caller.start()
            assert inside.wait(5.0)
            # An identical-weights candidate ties the incumbent: promoted.
            candidate, _ = lifecycle.registry.load(1)
            promoter = threading.Thread(
                target=lifecycle.submit_candidate,
                args=(candidate,),
                kwargs={"environment_features": ENV},
            )
            promoter.start()
            promoter.join(timeout=0.3)
            assert swapped_mid_batch == []  # waiting on the service lock
            gate.set()
            caller.join(timeout=10.0)
            promoter.join(timeout=10.0)
            assert not caller.is_alive() and not promoter.is_alive()
            assert swapped_mid_batch == [False]
            assert lifecycle.current_version.version == 2
        finally:
            gate.set()
            gw.close()
