"""Tests for BBR-style admission pacing (repro.pacing) and its wiring.

Covers:

(a) the windowed-extremum estimators (max/min wedge, time expiry,
    staleness tracking);
(b) the pacer state machine on an injected clock — STARTUP capacity
    discovery, DRAIN, the PROBE_BW gain cycle, PROBE_RTT entry/exit on
    stale latency, and reset-to-STARTUP;
(c) gateway integration — ``pacer-limit`` sheds with split counters,
    slot accounting across delivered/abandoned requests, hot-swap
    re-entering STARTUP, and half-open breaker probes while the pacer
    drains;
(d) fleet integration — per-shard pacers, staged promote resetting every
    shard to STARTUP and reconverging, crash survivors keeping their
    learned estimates (fork platforms only).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.core.serialization import save_predictor
from repro.evaluation.pool import fork_available
from repro.fleet import ServingFleet
from repro.gateway import (
    CircuitBreaker,
    GatewayConfig,
    NativeCostFallback,
    OptimizerGateway,
    Telemetry,
)
from repro.gateway.breaker import COOLDOWN_SECONDS, HALF_OPEN_PROBES, MIN_CALLS
from repro.gateway.gateway import MAX_QUEUE_DEPTH
from repro.pacing import (
    DRAIN,
    PACER_STATE_CODES,
    PROBE_BW,
    PROBE_RTT,
    STARTUP,
    AdmissionPacer,
    PacerConfig,
    WindowedMax,
    WindowedMin,
)

TINY = PredictorConfig(hidden_dims=(16, 12), embedding_dim=8, epochs=2, batch_size=16)
ENV = (0.5, 0.05, 0.5, 0.5)

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork")


@pytest.fixture()
def native_plans(small_project):
    queries = [small_project.sample_query(i) for i in range(6)]
    return [small_project.optimizer.optimize(q) for q in queries]


class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class _MarkerPlan:
    __slots__ = ("marker",)

    def __init__(self, marker: float) -> None:
        self.marker = marker


class _StubPredictor:
    def __init__(self, version: int = 1) -> None:
        self.weights_version = version


class _StubService:
    def __init__(self, *, delay: float = 0.0) -> None:
        self.predictor = _StubPredictor()
        self.delay = delay
        self.faults = 0

    def predict(self, plans, *, env_features=None):
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


class _NeverTrips:
    """Breaker stub that admits every request and never opens."""

    on_trip = None
    state = "closed"

    def allow(self) -> bool:
        return True

    def release_probe(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def record_success(self) -> None:
        pass

    def record_failure(self, *, kind: str = "error") -> None:
        pass

    def stats(self) -> dict:
        return {"state": self.state}


class _StubFallback:
    """Fallback that understands marker plans (the native one needs real
    plan trees)."""

    def predict(self, plans, *, env_features=None):
        return np.array([-p.marker for p in plans], dtype=np.float64)


def _marker_plans(*markers: float) -> list[_MarkerPlan]:
    return [_MarkerPlan(m) for m in markers]


# -- estimators -----------------------------------------------------------------


class TestWindowedExtremum:
    def test_max_tracks_largest_in_window(self):
        f = WindowedMax(10.0)
        assert f.get(0.0) is None and not f._wedge
        assert f.update(3.0, 0.0) == 3.0
        assert f.update(7.0, 1.0) == 7.0
        assert f.update(5.0, 2.0) == 7.0
        assert f.get(2.0) == 7.0

    def test_min_tracks_smallest_in_window(self):
        f = WindowedMin(10.0)
        f.update(0.5, 0.0)
        f.update(0.1, 1.0)
        f.update(0.3, 2.0)
        assert f.get(2.0) == 0.1

    def test_samples_expire_by_time(self):
        f = WindowedMax(5.0)
        f.update(9.0, 0.0)
        f.update(2.0, 4.0)
        assert f.get(4.0) == 9.0
        # t=6: the 9.0 sample (t=0) is past the 5 s window; 2.0 survives.
        assert f.get(6.0) == 2.0
        assert f.get(20.0) is None and not f._wedge

    def test_seconds_since_improved_and_touch(self):
        f = WindowedMin(100.0)
        assert f.seconds_since_improved(0.0) is None
        f.update(0.5, 0.0)
        f.update(0.9, 3.0)  # worse: no improvement
        assert f.seconds_since_improved(4.0) == pytest.approx(4.0)
        f.update(0.2, 5.0)  # better: staleness clock restarts
        assert f.seconds_since_improved(6.0) == pytest.approx(1.0)
        f.touch(8.0)
        assert f.seconds_since_improved(9.0) == pytest.approx(1.0)

    def test_equal_sample_counts_as_improvement(self):
        # A sample equal to the extremum re-validates it (steady traffic
        # keeps the estimate fresh, exactly BBR's behaviour).
        f = WindowedMin(100.0)
        f.update(0.5, 0.0)
        f.update(0.5, 7.0)
        assert f.seconds_since_improved(8.0) == pytest.approx(1.0)

    def test_reset_clears_everything(self):
        f = WindowedMax(10.0)
        f.update(1.0, 0.0)
        f.reset()
        assert not f._wedge and f.get(0.0) is None
        assert f.seconds_since_improved(0.0) is None

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedMax(0.0)


# -- the pacer state machine (fake clock) ---------------------------------------


def _pacer(clock, **overrides) -> AdmissionPacer:
    defaults = dict(probe_rtt_duration_seconds=0.25, initial_cap=4)
    defaults.update(overrides)
    return AdmissionPacer(PacerConfig(**defaults), clock=clock)


class TestPacerStateMachine:
    def test_starts_in_startup_with_initial_cap(self):
        p = _pacer(_FakeClock())
        assert p.state == STARTUP
        assert p.stats()["inflight_cap"] == 4
        assert p.stats()["bdp"] is None

    def test_admission_denied_at_cap_and_released(self):
        p = _pacer(_FakeClock())
        for _ in range(4):
            assert p.try_admit()
        assert not p.try_admit()
        assert p.denied_total == 1
        p.release()
        assert p.try_admit()
        assert p.inflight == 4

    def test_inflight_never_negative(self):
        p = _pacer(_FakeClock())
        p.release(5)
        assert p.inflight == 0
        p.on_delivered(3, elapsed_seconds=0.1)
        assert p.inflight == 0

    def test_delivery_feeds_both_estimators(self):
        p = _pacer(_FakeClock())
        p.on_delivered(2, elapsed_seconds=0.1)
        stats = p.stats()
        assert stats["btl_rate"] == pytest.approx(20.0)  # 2 requests / 0.1 s
        assert stats["min_latency_seconds"] == pytest.approx(0.1)
        assert stats["bdp"] == pytest.approx(2.0)

    def test_startup_exits_to_drain_when_rate_plateaus(self):
        clock = _FakeClock()
        p = _pacer(clock)
        for _ in range(4):
            assert p.try_admit()
        # Two deliveries at a constant rate: first sets the high-water mark,
        # second is stale round 1.
        p.on_delivered(1, elapsed_seconds=0.1)
        p.on_delivered(1, elapsed_seconds=0.1)
        assert p.state == STARTUP
        for _ in range(2):
            assert p.try_admit()
        # Stale rounds 2 and 3: the pipe is declared full -> DRAIN, and
        # inflight (2) still exceeds the BDP cap (1), so DRAIN holds.
        p.on_delivered(1, elapsed_seconds=0.1)
        p.on_delivered(1, elapsed_seconds=0.1)
        assert p.state == DRAIN
        assert p.inflight == 2
        assert p.stats()["inflight_cap"] == 1  # ceil(bdp) = ceil(10/s * 0.1s)
        assert not p.try_admit()

    def test_drain_exits_to_probe_bw_once_inflight_sinks_to_bdp(self):
        clock = _FakeClock()
        p = self._parked_in_drain(clock)
        p.release(1)
        assert p.state == PROBE_BW
        assert p.state_entries[DRAIN] == 1

    def _parked_in_drain(self, clock) -> AdmissionPacer:
        p = _pacer(clock)
        for _ in range(4):
            p.try_admit()
        p.on_delivered(1, elapsed_seconds=0.1)
        p.on_delivered(1, elapsed_seconds=0.1)
        p.try_admit()
        p.try_admit()
        p.on_delivered(1, elapsed_seconds=0.1)
        p.on_delivered(1, elapsed_seconds=0.1)
        assert p.state == DRAIN and p.inflight == 2
        return p

    def test_probe_bw_cycles_gains_on_the_phase_clock(self):
        clock = _FakeClock()
        p = self._parked_in_drain(clock)
        p.release(2)
        assert p.state == PROBE_BW
        # A phase lasts one queue-free latency (0.1 s).
        # bdp = 1; phase 0 probes up: ceil(1.25 * 2.0 * 1) = 3.
        assert p.stats()["inflight_cap"] == 3
        clock.advance(0.1)  # phase 1 drains: ceil(0.75 * 2.0 * 1) = 2
        assert p.stats()["inflight_cap"] == 2
        clock.advance(0.1)  # phase 2 cruises: ceil(1.0 * 2.0 * 1) = 2
        assert p.stats()["inflight_cap"] == 2
        assert p.stats()["probe_bw_phase"] == 2

    def test_probe_rtt_on_stale_latency_then_back_to_probe_bw(self):
        clock = _FakeClock()
        p = self._parked_in_drain(clock)
        p.release(2)
        assert p.state == PROBE_BW
        clock.advance(5.0)  # latency estimate now 5 s stale
        assert p.state == PROBE_RTT
        assert p.stats()["inflight_cap"] == 1  # the PROBE_RTT_CAP floor
        clock.advance(0.25)
        assert p.state == PROBE_BW  # estimates still in window
        # The pass re-validated the estimate: no immediate re-entry.
        clock.advance(1.0)
        assert p.state == PROBE_BW

    def test_probe_rtt_with_expired_estimates_restarts_startup(self):
        clock = _FakeClock()
        p = self._parked_in_drain(clock)
        p.release(2)
        clock.advance(5.0)
        assert p.state == PROBE_RTT
        clock.advance(0.25)
        assert p.state == PROBE_BW
        # Let both estimator windows (10 s) run dry, then the next
        # PROBE_RTT pass finds no BDP and falls back to STARTUP.
        clock.advance(5.0)
        assert p.state == PROBE_RTT
        clock.advance(0.25)
        assert p.state == STARTUP
        assert p.stats()["bdp"] is None
        assert p.state_entries[STARTUP] == 2

    def test_reset_reenters_startup_and_clears_estimates(self):
        clock = _FakeClock()
        p = self._parked_in_drain(clock)
        p.release(2)
        assert p.state == PROBE_BW
        inflight = p.inflight
        p.reset()
        assert p.state == STARTUP
        assert p.resets_total == 1
        stats = p.stats()
        assert stats["btl_rate"] is None and stats["min_latency_seconds"] is None
        # Admitted requests are still out there: inflight survives reset.
        assert p.inflight == inflight

    def test_rate_paced_admission_spaces_admits_on_the_btl_rate(self):
        clock = _FakeClock()
        p = _pacer(clock, pace_admissions=True, initial_cap=8)
        # No rate estimate yet: pacing is inert, only the cap governs.
        assert p.try_admit() and p.try_admit()
        p.on_delivered(2, elapsed_seconds=0.2)  # rate 10/s
        # STARTUP paces at STARTUP_GAIN * rate = 28.85/s -> ~34.7 ms apart.
        assert p.try_admit()
        assert not p.try_admit()  # same instant: next token not due
        assert p.denied_total == 1
        clock.advance(0.04)
        assert p.try_admit()
        # reset() drops the pacing token along with the estimates.
        p.reset()
        assert p.try_admit() and p.try_admit()

    def test_reset_while_already_in_startup_counts_a_fresh_visit(self):
        p = _pacer(_FakeClock())
        p.reset()
        assert p.state == STARTUP
        assert p.resets_total == 1
        assert p.state_entries[STARTUP] == 2

    def test_gauges_and_dwell_histograms(self):
        clock = _FakeClock()
        telemetry = Telemetry()
        p = AdmissionPacer(PacerConfig(initial_cap=4), clock=clock, telemetry=telemetry)
        for _ in range(4):
            p.try_admit()
        for _ in range(4):
            clock.advance(0.1)
            p.on_delivered(1, elapsed_seconds=0.1)
        p.sync_gauges()
        gauges = telemetry.snapshot()["gauges"]
        assert gauges["pacer_state"] in set(PACER_STATE_CODES.values())
        assert gauges["pacer_inflight"] == 0
        assert gauges["pacer_inflight_cap"] >= 1
        assert gauges["pacer_btl_rate"] == pytest.approx(10.0)
        assert gauges["pacer_min_latency_seconds"] == pytest.approx(0.1)
        # STARTUP was exited along the way: its dwell histogram recorded.
        hists = telemetry.snapshot()["histograms"]
        assert hists["pacer_dwell_startup_seconds"]["count"] == 1

    def test_stats_shape(self):
        p = _pacer(_FakeClock())
        stats = p.stats()
        assert stats["state"] == STARTUP
        assert stats["inflight"] == 0
        assert stats["btl_rate"] is None and stats["bdp"] is None
        assert stats["state_entries"][STARTUP] == 1
        assert set(stats) >= {
            "inflight_cap", "min_latency_seconds", "admitted_total",
            "denied_total", "delivered_total", "resets_total",
        }

    def test_record_shed_rejects_unknown_reason(self):
        with pytest.raises(ValueError):
            Telemetry().record_shed("phase-of-the-moon")


# -- gateway integration --------------------------------------------------------


class TestGatewayPacing:
    def test_pacer_limit_sheds_and_splits_counters(self, native_plans):
        service = _StubService(delay=0.25)
        pacer = AdmissionPacer(PacerConfig(initial_cap=2))
        with OptimizerGateway(service, pacer=pacer) as gw:
            results = {}

            def call(key):
                results[key] = gw.predict(_marker_plans(float(key)))

            # a: in the learned batch (sleeping in the stub), b: queued —
            # both hold pacer slots, so the third caller is over the cap.
            a = threading.Thread(target=call, args=(1,))
            a.start()
            time.sleep(0.08)
            b = threading.Thread(target=call, args=(2,))
            b.start()
            time.sleep(0.08)
            shed = gw.predict(native_plans, env_features=ENV)
            assert shed.source == "fallback"
            assert shed.reason == "pacer-limit"
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (shed.costs == expected).all()
            a.join()
            b.join()
            # The admitted callers still got learned answers, and their
            # slots came back with delivery samples attached.
            assert results[1].source == "learned"
            assert results[2].source == "learned"
            assert gw.pacer.inflight == 0
            pacer = gw.stats()["pacer"]
            assert pacer["delivered_total"] == 2
            assert pacer["btl_rate"] is not None
            counters = gw.stats()["counters"]
            assert counters["fallback_pacer_limit_total"] == 1
            assert counters["shed_pacer_limit_total"] == 1
            assert counters["sheds_total"] == 1

    def test_swap_resets_pacer_to_startup(self):
        service = _StubService(delay=0.005)
        with OptimizerGateway(service, pacer=AdmissionPacer(PacerConfig())) as gw:
            # A steady pipe plateaus the rate: live deliveries alone walk
            # the pacer out of STARTUP with both estimates measured.
            for _ in range(16):
                r = gw.predict(_marker_plans(1.0))
                assert r.source == "learned"
            before = gw.pacer.stats()
            assert before["state"] != STARTUP
            assert before["btl_rate"] is not None
            assert before["min_latency_seconds"] >= 0.005
            gw.swap_predictor(_StubPredictor(version=2))
            stats = gw.pacer.stats()
            assert stats["state"] == STARTUP
            assert stats["resets_total"] == 1
            assert stats["btl_rate"] is None
            # ... and the pipe is re-learned from post-swap traffic.
            r = gw.predict(_marker_plans(2.0))
            assert r.source == "learned"
            assert gw.pacer.stats()["btl_rate"] is not None

    def test_pacer_beats_the_deep_queue_under_open_loop_overload(self):
        """3x a known 5 ms pipe, open loop, budget 2.5x the service time.
        The deep queue turns the overload into deadline sheds of work it
        queued; the pacer refuses the excess at admission (``pacer-limit``)
        and so answers more requests from the learned path."""
        delay, n_threads, seconds = 0.005, 12, 0.5
        rate, deadline_ms = 3.0 / delay, 2.5 * delay * 1e3
        paced_config = PacerConfig(
            cwnd_gain=1.5,
            initial_cap=2,
            probe_rtt_duration_seconds=0.1,
            pace_admissions=True,
            pacing_margin=0.99,
        )

        def overload(pacer):
            # One request per learned batch, so the pipe's capacity is 1/delay;
            # a breaker that never trips, so only admission differs.
            n = int(rate * seconds)
            cursor = iter(range(n))
            results = [None] * n
            with OptimizerGateway(
                _StubService(delay=delay),
                config=GatewayConfig(max_coalesce_plans=1),
                breaker=_NeverTrips(),
                pacer=AdmissionPacer(pacer) if pacer is not None else None,
                fallback=_StubFallback(),
            ) as gw:
                start = time.perf_counter() + 0.02

                def caller():
                    for i in cursor:
                        wait = start + i / rate - time.perf_counter()
                        if wait > 0:
                            time.sleep(wait)
                        results[i] = gw.predict(_marker_plans(1.0), deadline_ms=deadline_ms)

                threads = [threading.Thread(target=caller) for _ in range(n_threads)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=10.0)
                assert not any(th.is_alive() for th in threads)
                counters = gw.stats()["counters"]
            assert all(r is not None and np.isfinite(r.costs).all() for r in results)
            return sum(r.source == "learned" for r in results), counters

        deep_learned, deep = overload(None)
        paced_learned, paced = overload(paced_config)
        assert paced_learned > deep_learned
        assert paced["shed_pacer_limit_total"] > paced["sheds_total"] / 2
        assert deep["shed_deadline_total"] > deep["sheds_total"] / 2

    def test_abandoned_inflight_request_still_measures_the_pipe(self):
        service = _StubService(delay=0.3)
        pacer = AdmissionPacer(PacerConfig())
        with OptimizerGateway(service, pacer=pacer, fallback=_StubFallback()) as gw:
            r = gw.predict(_marker_plans(1.0), deadline_ms=30)
            assert r.reason == "deadline"
            # The worker is still computing the abandoned batch; when it
            # lands, the slot returns *with* a delivery sample — the pipe
            # really did serve it.
            deadline = time.monotonic() + 3.0
            while gw.pacer.inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gw.pacer.inflight == 0
            assert gw.pacer.stats()["delivered_total"] == 1
            assert gw.stats()["counters"]["shed_deadline_total"] == 1

    def test_abandoned_before_pickup_releases_without_sample(self):
        service = _StubService(delay=0.3)
        pacer = AdmissionPacer(PacerConfig())
        with OptimizerGateway(service, pacer=pacer, fallback=_StubFallback()) as gw:
            blocker = threading.Thread(
                target=lambda: gw.predict(_marker_plans(1.0))
            )
            blocker.start()
            time.sleep(0.05)  # worker now busy with the blocker's batch
            r = gw.predict(_marker_plans(2.0), deadline_ms=30)
            assert r.reason == "deadline"
            blocker.join()
            deadline = time.monotonic() + 3.0
            while gw.pacer.inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            # The queued-then-abandoned request was skipped before compute:
            # its slot came back but produced no delivery sample.
            assert gw.pacer.inflight == 0
            stats = gw.pacer.stats()
            assert stats["admitted_total"] == 2
            assert stats["delivered_total"] == 1

    def test_half_open_probe_refused_by_draining_pacer_keeps_its_slot(self):
        """A half-open breaker probe that the pacer refuses (DRAIN, over
        cap) must hand its probe slot back — the breaker can still probe to
        recovery once the pacer drains."""
        clock = _FakeClock()
        breaker = CircuitBreaker(clock=clock)
        pacer = AdmissionPacer(PacerConfig(initial_cap=8))
        service = _StubService()
        gw = OptimizerGateway(
            service, breaker=breaker, pacer=pacer, fallback=_StubFallback()
        )
        try:
            service.faults = MIN_CALLS
            for _ in range(MIN_CALLS):
                assert gw.predict(_marker_plans(1.0)).reason == "model-error"
            assert breaker.state == "open"
            clock.advance(COOLDOWN_SECONDS + 1.0)
            # Park the pacer in DRAIN with inflight above its BDP cap.
            for _ in range(8):
                assert pacer.try_admit()
            for _ in range(4):
                pacer.on_delivered(1, elapsed_seconds=0.1)
            assert pacer.state == DRAIN
            assert pacer.inflight == 4
            probe = gw.predict(_marker_plans(2.0))
            assert probe.reason == "pacer-limit"
            assert breaker.state == "half-open"
            # Slot returned: with the pacer drained, every configured probe
            # still runs and they close the breaker.
            pacer.release(4)
            assert pacer.state == PROBE_BW
            for marker in range(HALF_OPEN_PROBES):
                assert gw.predict(_marker_plans(3.0 + marker)).source == "learned"
            assert breaker.state == "closed"
            # Half-open recovery is not a path change: no pacer reset.
            assert pacer.resets_total == 0
        finally:
            gw.close()


# -- fleet integration (fork platforms) -----------------------------------------


@pytest.fixture(scope="module")
def fleet_checkpoint(project_with_history, tmp_path_factory):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    root = tmp_path_factory.mktemp("pacing-ckpt")
    path = save_predictor(predictor, root / "v1.npz", environment_features=ENV)
    return path, predictor, plans


def _one_tenant_per_shard(fleet) -> dict[str, str]:
    by_shard: dict[str, str] = {}
    i = 0
    while len(by_shard) < len(fleet.live_workers()):
        tenant = f"tenant-{i}"
        by_shard.setdefault(fleet.router.route(tenant), tenant)
        i += 1
    return by_shard


@needs_fork
class TestFleetPacing:
    def test_promote_reenters_startup_on_every_shard_and_reconverges(
        self, fleet_checkpoint
    ):
        path, predictor, plans = fleet_checkpoint
        import copy

        candidate = copy.deepcopy(predictor)
        candidate.weights_version = 7
        with ServingFleet(path, n_workers=2, pacer_config=PacerConfig()) as fleet:
            by_shard = _one_tenant_per_shard(fleet)
            for tenant in by_shard.values():
                for _ in range(3):
                    r = fleet.predict(tenant, plans[:6], env_features=ENV)
                    assert r.source == "learned"
            before = fleet.stats()["pacers"]
            assert set(before) == {"shard-0", "shard-1"}
            for shard_stats in before.values():
                assert shard_stats["delivered_total"] == 3
                assert shard_stats["btl_rate"] is not None
                assert shard_stats["resets_total"] == 0

            path2 = path.parent / "v7.npz"
            save_predictor(candidate, path2, environment_features=ENV)
            fleet.promote(path2)
            # Every shard's pacer re-entered STARTUP with cleared estimates.
            after = fleet.stats()["pacers"]
            for shard_stats in after.values():
                assert shard_stats["state"] == STARTUP
                assert shard_stats["resets_total"] == 1
                assert shard_stats["btl_rate"] is None

            # ... and reconverges from post-promote traffic.
            for tenant in by_shard.values():
                for _ in range(3):
                    r = fleet.predict(tenant, plans[:6], env_features=ENV)
                    assert r.source == "learned"
                    assert r.model_version == 7
            final = fleet.stats()["pacers"]
            for shard_stats in final.values():
                assert shard_stats["btl_rate"] is not None
                assert shard_stats["delivered_total"] == 6

    def test_pacer_limit_shed_and_crash_preserves_survivor_estimates(
        self, fleet_checkpoint
    ):
        path, _predictor, plans = fleet_checkpoint
        with ServingFleet(path, n_workers=2, pacer_config=PacerConfig()) as fleet:
            by_shard = _one_tenant_per_shard(fleet)
            for tenant in by_shard.values():
                fleet.predict(tenant, plans[:4], env_features=ENV)

            # Fill one shard's pacer to its cap: the next request routed to
            # it sheds with reason pacer-limit, counted in the split.
            shard = fleet.router.route("victim")
            pacer = fleet._workers[shard].guard.pacer
            taken = 0
            while pacer.try_admit():
                taken += 1
            r = fleet.predict("victim", plans[:4], env_features=ENV)
            assert r.source == "fallback" and r.reason == "pacer-limit"
            counters = fleet.telemetry.snapshot()["counters"]
            assert counters["fallback_pacer_limit_total"] == 1
            assert counters["shed_pacer_limit_total"] == 1
            pacer.release(taken)

            # Crash the *other* shard: its tenants remap to the survivor,
            # whose pacer keeps the estimates it already learned.
            other = next(s for s in fleet.live_workers() if s != shard)
            fleet.crash_worker(other)
            crashed_tenant = next(
                f"c{i}" for i in range(1000)
                if fleet.router.route(f"c{i}") == other
            )
            r = fleet.predict(crashed_tenant, plans[:4], env_features=ENV)
            assert r.reason == "worker-crash"
            r = fleet.predict(crashed_tenant, plans[:4], env_features=ENV)
            assert r.source == "learned"
            survivors = fleet.stats()["pacers"]
            assert set(survivors) == {shard}
            assert survivors[shard]["resets_total"] == 0
            assert survivors[shard]["btl_rate"] is not None

    def test_merged_fleet_stats_carry_exact_quantile_samples(
        self, fleet_checkpoint
    ):
        path, _predictor, plans = fleet_checkpoint
        with ServingFleet(path, n_workers=2) as fleet:
            by_shard = _one_tenant_per_shard(fleet)
            for tenant in by_shard.values():
                for _ in range(2):
                    fleet.predict(tenant, plans[:4], env_features=ENV)
            merged = fleet.stats()["merged"]
            hist = merged["histograms"]["request_latency_seconds"]
            # Workers ship raw reservoirs, so the merge is exact: samples
            # present, and the merged p99 is a real sample, not a bound.
            assert "samples" in hist
            assert len(hist["samples"]) == hist["count"] == 4
            assert hist["p99"] in hist["samples"]


# -- retry-after hints ----------------------------------------------------------


class TestNextAdmitEta:
    def test_open_admission_is_zero(self):
        p = _pacer(_FakeClock())
        assert p.next_admit_eta() == 0.0

    def test_full_unmeasured_pacer_has_no_hint(self):
        p = _pacer(_FakeClock())
        for _ in range(4):
            assert p.try_admit()
        assert p.next_admit_eta() is None

    def test_inflight_excess_paced_out_at_btl_rate(self):
        clock = _FakeClock()
        p = _pacer(clock)
        for _ in range(4):
            p.try_admit()
        p.on_delivered(1, elapsed_seconds=0.1)  # rate 10/s, inflight 3 < cap
        assert p.next_admit_eta() == 0.0
        assert p.try_admit()  # back at the cap (STARTUP cap is 4 here)
        # One slot must come back before an admit can succeed: 1 / rate.
        assert p.next_admit_eta() == pytest.approx(0.1)

    def test_pacing_token_wait_counts_and_expires(self):
        clock = _FakeClock()
        p = _pacer(clock, pace_admissions=True, initial_cap=8)
        p.try_admit()
        p.try_admit()
        p.on_delivered(2, elapsed_seconds=0.2)  # rate 10/s
        assert p.try_admit()  # schedules the next pacing token
        eta = p.next_admit_eta()
        assert eta is not None and 0.0 < eta <= 1.0 / 10.0
        assert not p.try_admit()  # token not due: denied
        clock.advance(eta)
        assert p.next_admit_eta() == 0.0
        assert p.try_admit()

    def test_stats_carry_the_eta(self):
        p = _pacer(_FakeClock())
        assert p.stats()["next_admit_eta_seconds"] == 0.0


class TestRetryAfterSurfacing:
    def test_gateway_pacer_limit_shed_carries_retry_after(self):
        service = _StubService()
        pacer = AdmissionPacer(PacerConfig(initial_cap=2))
        with OptimizerGateway(service, pacer=pacer, fallback=_StubFallback()) as gw:
            ok = gw.predict(_marker_plans(1.0, 2.0))
            assert ok.source == "learned" and ok.retry_after is None
            taken = 0
            while gw.pacer.try_admit():
                taken += 1
            shed = gw.predict(_marker_plans(3.0), env_features=ENV)
            assert shed.source == "fallback" and shed.reason == "pacer-limit"
            # The warm-up delivery measured the path, so the hint is real.
            assert shed.retry_after is not None and shed.retry_after > 0.0
            stats = gw.stats()
            assert stats["histograms"]["retry_after_seconds"]["count"] == 1
            assert stats["pacer"]["next_admit_eta_seconds"] > 0.0
            gw.pacer.release(taken)

    def test_gateway_queue_shed_has_no_retry_after(self):
        inside, gate = threading.Event(), threading.Event()

        class _HeldService(_StubService):
            def predict(self, plans, *, env_features=None):
                inside.set()
                gate.wait(10.0)
                return super().predict(plans, env_features=env_features)

        with OptimizerGateway(_HeldService(), fallback=_StubFallback()) as gw:
            try:
                # One request held in the learned batch, MAX_QUEUE_DEPTH queued
                # behind it: the next one sheds.
                t = threading.Thread(target=gw.predict, args=(_marker_plans(1.0),))
                t.start()
                assert inside.wait(5.0)
                threads = [
                    threading.Thread(target=gw.predict, args=(_marker_plans(2.0),))
                    for _ in range(MAX_QUEUE_DEPTH)
                ]
                for th in threads:
                    th.start()
                deadline = time.monotonic() + 5.0
                while len(gw._queue) < MAX_QUEUE_DEPTH and time.monotonic() < deadline:
                    time.sleep(0.005)
                shed = gw.predict(_marker_plans(3.0), env_features=ENV)
                assert shed.source == "fallback" and shed.reason == "shed"
                assert shed.retry_after is None
            finally:
                gate.set()
            for th in [t, *threads]:
                th.join(timeout=10.0)
            assert not any(th.is_alive() for th in [t, *threads])

    @needs_fork
    def test_fleet_pacer_limit_shed_carries_retry_after(self, fleet_checkpoint):
        path, _predictor, plans = fleet_checkpoint
        with ServingFleet(path, n_workers=2, pacer_config=PacerConfig()) as fleet:
            by_shard = _one_tenant_per_shard(fleet)
            for tenant in by_shard.values():
                fleet.predict(tenant, plans[:4], env_features=ENV)
            shard = fleet.router.route("victim")
            pacer = fleet._workers[shard].guard.pacer
            taken = 0
            while pacer.try_admit():
                taken += 1
            r = fleet.predict("victim", plans[:4], env_features=ENV)
            assert r.source == "fallback" and r.reason == "pacer-limit"
            assert r.retry_after is not None and r.retry_after > 0.0
            stats = fleet.stats()
            assert stats["pacers"][shard]["next_admit_eta_seconds"] > 0.0
            snapshot = fleet.telemetry.snapshot()
            assert snapshot["histograms"]["retry_after_seconds"]["count"] == 1
            pacer.release(taken)


# -- the slot ledger as a state machine ------------------------------------------


class PacerSlotLedger(RuleBasedStateMachine):
    """Admit, deliver, release, reset and move time in any order: the pacer's
    inflight count is always the slots its callers hold, its window never
    closes completely, and a reset always lands in a fresh STARTUP."""

    @initialize(pace=st.booleans(), initial_cap=st.integers(1, 6))
    def build(self, pace, initial_cap):
        self.clock = _FakeClock()
        self.pacer = _pacer(self.clock, pace_admissions=pace, initial_cap=initial_cap)
        self.held = 0
        self.just_reset = False

    @rule()
    def admit(self):
        self.held += self.pacer.try_admit()
        self.just_reset = False

    @precondition(lambda self: self.held > 0)
    @rule(n=st.integers(1, 4), elapsed=st.floats(1e-4, 0.5))
    def deliver(self, n, elapsed):
        n = min(n, self.held)
        self.pacer.on_delivered(n, elapsed_seconds=elapsed)
        self.held -= n
        self.just_reset = False

    @precondition(lambda self: self.held > 0)
    @rule(n=st.integers(1, 4))
    def release(self, n):
        n = min(n, self.held)
        self.pacer.release(n)
        self.held -= n

    @rule()
    def reset(self):
        self.pacer.reset()
        self.just_reset = True

    @rule(dt=st.floats(0.0, 6.0))
    def advance(self, dt):
        self.clock.advance(dt)

    @invariant()
    def ledger_balances(self):
        pacer = self.pacer
        assert pacer.inflight == self.held
        assert pacer.stats()["inflight_cap"] >= 1
        assert pacer.state in PACER_STATE_CODES
        eta = pacer.next_admit_eta()
        assert eta is None or eta >= 0.0
        if self.just_reset:
            # Nothing but a release or time has happened since: still the
            # fresh STARTUP the reset entered, with nothing measured.
            assert pacer.state == STARTUP
            stats = pacer.stats()
            assert stats["btl_rate"] is None and stats["min_latency_seconds"] is None


PacerSlotLedger.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestPacerSlotLedger = PacerSlotLedger.TestCase
