"""Tests for the observability stack (repro.obs).

Covers:

(a) tracing primitives — deterministic-under-seed trace/span ids, head
    sampling (root decision propagated to children and across wire
    contexts), traced_section nesting via the active-span contextvar,
    buffer drains and lazy record materialization, JSONL export rate
    bounding, collector span trees and completeness;
(b) gateway integration — sampled requests carry a resolvable trace id,
    request/batch/serving spans stitch into one tree, tracing-off costs
    nothing and yields no ids, breaker trips auto-dump the flight
    recorder with the trip event in the snapshot;
(c) the flight recorder — ring bounding, incident-kind auto-dumps with
    cooldown, shed-storm escalation, self-describing JSONL dump format;
(d) SLO monitoring — window math on an injectable fake clock, nearest-
    rank p99, multi-window burn-rate alerting semantics, telemetry gauge
    export and Prometheus text round trip;
(e) cross-process fleet tracing — every sampled fleet request resolves to
    a complete span tree spanning the parent and a worker process, and a
    worker crash leaves a flight-recorder dump (fork platforms only);
(f) seeded replay tracing — two logical replays of the same scenario
    mint identical trace-id sets.
"""

from __future__ import annotations

import json
import os
import threading
import time
import types

import numpy as np
import pytest

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.core.serialization import save_predictor
from repro.evaluation.pool import fork_available
from repro.gateway import OptimizerGateway, Telemetry
from repro.gateway import gateway as gateway_module
from repro.gateway.telemetry import escape_help_text, escape_label_value
from repro.obs import trace as trace_module
from repro.obs import (
    FlightRecorder,
    ObsConfig,
    SLOConfig,
    SLOMonitor,
    SpanCollector,
    Tracer,
)
from repro.obs.trace import (
    NULL_SPAN,
    SpanTree,
    TraceContext,
    activate_span,
    current_span,
    traced_section,
)

TINY = PredictorConfig(hidden_dims=(16, 12), embedding_dim=8, epochs=2, batch_size=16)
ENV = (0.5, 0.05, 0.5, 0.5)

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork")


class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- tracing primitives ---------------------------------------------------------


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext("t" * 32, "s" * 16, "p" * 16, True)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert TraceContext.from_wire(None) is None

    def test_wire_is_plain_tuple(self):
        wire = TraceContext("t" * 32, "s" * 16).to_wire()
        assert wire == ("t" * 32, "s" * 16, None, True)
        assert type(wire) is tuple


class TestTracer:
    def test_ids_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            tracer = Tracer(1.0, seed=42)
            spans = [tracer.start_trace(f"op-{i}") for i in range(20)]
            runs.append([(s.trace_id, s.span_id) for s in spans])
        assert runs[0] == runs[1]
        # Ids are unique within a run and well-formed.
        assert len({tid for tid, _ in runs[0]}) == 20
        assert all(len(tid) == 32 and len(sid) == 16 for tid, sid in runs[0])

    def test_different_seeds_differ(self):
        a = Tracer(1.0, seed=1).start_trace("x")
        b = Tracer(1.0, seed=2).start_trace("x")
        assert a.trace_id != b.trace_id

    def test_sampling_decisions_deterministic_and_approximate_rate(self):
        decided = []
        for _ in range(2):
            tracer = Tracer(1 / 16, seed=7)
            decided.append(
                [tracer.start_trace("r").sampled for _ in range(2048)]
            )
        assert decided[0] == decided[1]
        rate = sum(decided[0]) / len(decided[0])
        assert 0.02 < rate < 0.12  # ~1/16 with slack

    def test_rate_zero_and_one(self):
        off = Tracer(0.0, seed=0)
        assert all(off.start_trace("r") is NULL_SPAN for _ in range(50))
        assert not off.enabled
        on = Tracer(1.0, seed=0)
        assert all(on.start_trace("r").sampled for _ in range(50))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(1.5)

    def test_tiny_rate_keeps_at_least_one_sampled_slot(self):
        tracer = Tracer(1e-9, seed=3)
        assert any(tracer._decisions)

    def test_sampled_parent_context_always_yields_real_span(self):
        # Cross-process propagation: the local tracer's rate is 0, but the
        # upstream decision wins in both directions.
        local = Tracer(0.0, seed=5)
        sampled_parent = TraceContext("t" * 32, "s" * 16, None, True)
        span = local.start_trace("child", parent=sampled_parent)
        assert span.sampled and span.trace_id == "t" * 32
        assert span.context.parent_id == "s" * 16
        unsampled_parent = TraceContext("t" * 32, "s" * 16, None, False)
        assert local.start_trace("child", parent=unsampled_parent) is NULL_SPAN

    def test_drain_all_and_by_trace(self):
        tracer = Tracer(1.0, seed=0)
        a = tracer.start_trace("a")
        b = tracer.start_trace("b")
        a.finish()
        b.finish()
        only_a = tracer.drain(a.trace_id)
        assert [r["name"] for r in only_a] == ["a"]
        rest = tracer.drain()
        assert [r["name"] for r in rest] == ["b"]
        assert tracer.drain() == []

    def test_buffer_bounded_and_drops_counted(self):
        tracer = Tracer(1.0, seed=0, max_buffered_spans=4)
        for i in range(10):
            tracer.start_trace(f"s{i}").finish()
        stats = tracer.stats()
        assert stats["spans_buffered"] == 4
        assert stats["spans_dropped"] == 6
        # Oldest fell off; the drain holds the newest four.
        assert [r["name"] for r in tracer.drain()] == ["s6", "s7", "s8", "s9"]

    def test_record_shape(self):
        tracer = Tracer(1.0, seed=0, process_label="proc-x")
        span = tracer.start_trace("op", attrs={"k": 1})
        span.set_attr("k2", "v")
        span.add_event("milestone", detail=3)
        span.finish()
        (record,) = tracer.drain()
        assert record["name"] == "op"
        assert record["process"] == "proc-x"
        assert record["pid"] == os.getpid()
        assert record["attrs"] == {"k": 1, "k2": "v"}
        assert record["events"][0]["name"] == "milestone"
        assert record["duration_ms"] >= 0.0
        assert record["parent_id"] is None

    def test_span_finish_idempotent_and_context_manager(self):
        tracer = Tracer(1.0, seed=0)
        with tracer.start_trace("cm") as span:
            pass
        span.finish()  # second finish is a no-op
        assert len(tracer.drain()) == 1
        with pytest.raises(RuntimeError):
            with tracer.start_trace("boom"):
                raise RuntimeError("x")
        (record,) = tracer.drain()
        assert "error" in record["attrs"]

    def test_export_jsonl_rate_bounded(self, tmp_path):
        clock = _FakeClock()
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(
            1.0, seed=0, export_path=str(path), max_export_per_sec=5.0, clock=clock
        )
        for i in range(20):
            tracer.start_trace(f"s{i}").finish()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        # Burst capacity only: the bucket starts full at 5 tokens.
        assert len(lines) == 5
        assert tracer.stats()["spans_exported"] == 5
        clock.advance(1.0)  # refill 5 tokens
        for i in range(20, 30):
            tracer.start_trace(f"s{i}").finish()
        lines = path.read_text().splitlines()
        assert len(lines) == 10


class TestTracedSection:
    def test_no_active_span_is_noop(self):
        assert current_span() is None
        with traced_section("orphan") as span:
            assert span is NULL_SPAN

    def test_nests_under_activated_span(self):
        tracer = Tracer(1.0, seed=0)
        root = tracer.start_trace("root")
        with activate_span(root):
            assert current_span() is root
            with traced_section("child", depth=1) as child:
                assert child.sampled
                assert current_span() is child
                with traced_section("grandchild") as grand:
                    assert grand.context.parent_id == child.span_id
        assert current_span() is None
        root.finish()
        records = {r["name"]: r for r in tracer.drain()}
        assert records["child"]["parent_id"] == root.span_id
        assert records["child"]["attrs"] == {"depth": 1}
        assert records["grandchild"]["parent_id"] == records["child"]["span_id"]

    def test_unsampled_active_span_is_noop(self):
        with activate_span(NULL_SPAN):
            with traced_section("quiet") as span:
                assert span is NULL_SPAN


class TestSpanCollectorAndTree:
    def _records(self, tracer):
        collector = SpanCollector()
        root = tracer.start_trace("root")
        with activate_span(root):
            with traced_section("mid"):
                with traced_section("leaf"):
                    pass
        root.finish()
        collector.add_many(tracer.drain())
        return collector, root

    def test_tree_completeness(self):
        collector, root = self._records(Tracer(1.0, seed=0))
        tree = collector.tree(root.trace_id)
        assert len(tree) == 3
        assert tree.is_complete()
        assert tree.missing_parents() == []
        assert tree.names() == ["leaf", "mid", "root"]
        rendered = tree.render()
        assert "root" in rendered and "  mid" in rendered

    def test_missing_parent_detected(self):
        tree = SpanTree(
            "t1",
            [
                {"span_id": "a", "parent_id": None, "name": "r", "start": 0.0,
                 "process": "m", "pid": 1},
                {"span_id": "b", "parent_id": "ghost", "name": "c", "start": 1.0,
                 "process": "m", "pid": 1},
            ],
        )
        assert not tree.is_complete()
        assert tree.missing_parents() == ["ghost"]

    def test_empty_and_multi_root_trees_incomplete(self):
        assert not SpanTree("t", []).is_complete()
        two_roots = SpanTree(
            "t",
            [
                {"span_id": "a", "parent_id": None, "name": "r1", "start": 0.0,
                 "process": "m", "pid": 1},
                {"span_id": "b", "parent_id": None, "name": "r2", "start": 1.0,
                 "process": "m", "pid": 1},
            ],
        )
        assert not two_roots.is_complete()

    def test_lru_eviction_bounded(self):
        collector = SpanCollector(max_traces=2)
        tracer = Tracer(1.0, seed=0, collector=collector)
        spans = [tracer.start_trace(f"s{i}") for i in range(3)]
        for span in spans:
            span.finish()
        stats = collector.stats()
        assert stats["traces"] == 2
        assert stats["evicted_traces"] == 1
        assert collector.tree(spans[0].trace_id).spans == []


# -- gateway integration --------------------------------------------------------


class _StubPredictor:
    weights_version = 1


class _StubService:
    def __init__(self) -> None:
        self.predictor = _StubPredictor()
        self.faults = 0

    def predict(self, plans, *, env_features=None):
        if self.faults > 0:
            self.faults -= 1
            raise RuntimeError("injected learned-path fault")
        return np.zeros(len(plans))


class _StubFallback:
    def predict(self, plans, env_features=None):
        return np.ones(len(plans))


class TestGatewayTracing:
    def test_sampled_request_gets_complete_tree(self):
        collector = SpanCollector()
        tracer = Tracer(1.0, seed=0, collector=collector)
        with OptimizerGateway(
            _StubService(), fallback=_StubFallback(), tracer=tracer
        ) as gw:
            result = gw.predict(["p1", "p2"], env_features=ENV)
        assert result.source == "learned"
        assert result.trace_id is not None
        tree = collector.tree(result.trace_id)
        assert tree.is_complete()
        names = tree.names()
        assert "gateway.request" in names
        assert "gateway.batch" in names
        (request_record,) = [s for s in tree.spans if s["name"] == "gateway.request"]
        assert request_record["attrs"]["n_plans"] == 2
        assert request_record["attrs"]["source"] == "learned"
        assert "batch_span_id" in request_record["attrs"]

    def test_tracing_off_yields_no_ids(self):
        with OptimizerGateway(_StubService(), fallback=_StubFallback()) as gw:
            result = gw.predict(["p1"], env_features=ENV)
        assert result.trace_id is None

    def test_unsampled_request_has_no_id_but_answers(self):
        with OptimizerGateway(
            _StubService(), fallback=_StubFallback(), tracer=Tracer(0.0, seed=0)
        ) as gw:
            result = gw.predict(["p1"], env_features=ENV)
        assert result.source == "learned"
        assert result.trace_id is None

    def test_stats_expose_tracing_counters(self):
        tracer = Tracer(1.0, seed=0)
        with OptimizerGateway(
            _StubService(), fallback=_StubFallback(), tracer=tracer
        ) as gw:
            gw.predict(["p1"], env_features=ENV)
            snapshot = gw.stats()
        assert snapshot["tracing"]["spans_started"] >= 2

    def test_only_sampled_requests_build_spans_or_read_span_clocks(self, monkeypatch):
        """The tracing tax is the sampled requests': at 1/16 the gateway
        builds exactly the spans its seeded decision table samples, and an
        unsampled request reads the span clocks no more than an untraced one."""
        built = []

        class CountingSpan(trace_module.Span):
            __slots__ = ()

            def __init__(self, tracer, name, *args):
                built.append(name)
                super().__init__(tracer, name, *args)

        monkeypatch.setattr(trace_module, "Span", CountingSpan)
        reads = []

        def counting(name):
            real = getattr(time, name)
            return lambda: reads.append(name) or real()

        clocks = types.SimpleNamespace(
            monotonic=time.monotonic,
            perf_counter=counting("perf_counter"),
            time=counting("time"),
        )
        for module in (trace_module, gateway_module):
            monkeypatch.setattr(module, "time", clocks)

        def run(tracer):
            """Per request: (sampled, span-clock reads while it ran)."""
            out = []
            with OptimizerGateway(
                _StubService(), fallback=_StubFallback(), tracer=tracer
            ) as gw:
                for _ in range(256):
                    before = len(reads)
                    result = gw.predict(["p1", "p2"], env_features=ENV)
                    assert result.source == "learned"
                    out.append((result.trace_id is not None, len(reads) - before))
            return out

        untraced = run(None)
        tracer = Tracer(1 / 16, seed=0)
        traced = run(tracer)
        # Walk the table: a sampled request also mints its request and its
        # batch span ids from the same counter.
        expected, n = [], 0
        for _ in range(256):
            sampled = tracer._decisions[n & tracer._decision_mask]
            expected.append(sampled)
            n += 3 if sampled else 1
        assert [sampled for sampled, _ in traced] == expected
        assert sum(expected) >= 1
        assert built == ["gateway.request", "gateway.batch"] * sum(expected)
        assert all(n_reads > 0 for sampled, n_reads in traced if sampled)
        unsampled = [n_reads for sampled, n_reads in traced if not sampled]
        assert sum(unsampled) <= sum(n_reads for _, n_reads in untraced[: len(unsampled)])

    def test_breaker_trip_dumps_flight_recorder(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path), process_label="gw-test")
        with OptimizerGateway(
            _StubService(), fallback=_StubFallback(), recorder=recorder
        ) as gw:
            gw.service.faults = 10**6
            for _ in range(40):
                result = gw.predict(["p1"], env_features=ENV)
                assert result.source == "fallback"
        assert recorder.dumps_total >= 1
        lines = [
            json.loads(line)
            for line in open(recorder.last_dump_path, encoding="utf-8")
        ]
        assert lines[0]["type"] == "header"
        assert lines[0]["reason"] == "breaker-trip"
        assert any(e.get("kind") == "breaker-trip" for e in lines[1:])

    def test_slo_wired_through_gateway(self):
        slo = SLOMonitor(SLOConfig())
        with OptimizerGateway(
            _StubService(), fallback=_StubFallback(), slo=slo
        ) as gw:
            for _ in range(5):
                gw.predict(["p1"], env_features=ENV)
            snapshot = gw.stats()
        assert snapshot["slo"]["total"] == 5
        assert snapshot["slo"]["total_missed"] == 0
        text = gw.to_prometheus()
        assert "repro_slo_hit_rate_60s" in text
        assert "repro_slo_alerting" in text


# -- flight recorder ------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounded(self):
        recorder = FlightRecorder(capacity=3, dump_dir="unused")
        for i in range(10):
            recorder.record("tick", f"e{i}")
        entries = recorder.entries()
        assert len(entries) == 3
        assert [e["name"] for e in entries] == ["e7", "e8", "e9"]
        assert recorder.stats()["events_total"] == 10

    def test_auto_dump_on_incident_kinds_with_cooldown(self, tmp_path):
        clock = _FakeClock()
        recorder = FlightRecorder(
            dump_dir=str(tmp_path), dump_cooldown_seconds=5.0, clock=clock
        )
        recorder.record("request-ok", "quiet")
        assert recorder.dumps_total == 0
        recorder.record("breaker-trip", "trip-1")
        assert recorder.dumps_total == 1
        recorder.record("breaker-trip", "trip-2")  # inside cooldown
        assert recorder.dumps_total == 1
        clock.advance(6.0)
        recorder.record("worker-crash", "crash-1")
        assert recorder.dumps_total == 2
        assert recorder.last_dump_reason == "worker-crash"

    def test_dump_format_self_describing(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path), process_label="worker-3")
        recorder.record("request-ok", "first", latency_ms=1.5)
        recorder.record_span({"trace_id": "t", "span_id": "s", "name": "op"})
        path = recorder.dump(reason="manual")
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        header, first, span = lines
        assert header["type"] == "header"
        assert header["process"] == "worker-3"
        assert header["n_entries"] == 2
        assert first["type"] == "event" and first["attrs"]["latency_ms"] == 1.5
        assert span["type"] == "span" and span["trace_id"] == "t"
        assert "worker-3" in os.path.basename(path)

    def test_shed_storm_escalation(self, tmp_path):
        clock = _FakeClock()
        recorder = FlightRecorder(
            dump_dir=str(tmp_path),
            storm_threshold=5,
            storm_window_seconds=1.0,
            clock=clock,
        )
        for _ in range(4):
            assert not recorder.note_shed("pacer-limit")
        assert recorder.note_shed("pacer-limit")  # fifth inside the window
        assert recorder.dumps_total == 1
        assert recorder.last_dump_reason == "shed-storm"
        # Sheds spread wider than the window never escalate.
        for _ in range(10):
            clock.advance(0.5)
            recorder.note_shed("pacer-limit")
        assert recorder.dumps_total == 1


# -- SLO monitoring -------------------------------------------------------------


class TestSLOMonitor:
    def _monitor(self, **config):
        clock = _FakeClock()
        defaults = dict(
            deadline_hit_objective=0.9,
            p99_target_seconds=0.1,
            windows=((10.0, 2.0), (100.0, 1.0)),
            min_samples=5,
        )
        defaults.update(config)
        return SLOMonitor(SLOConfig(**defaults), clock=clock), clock

    def test_window_math_on_fake_clock(self):
        monitor, clock = self._monitor()
        for i in range(10):
            monitor.record(0.01, deadline_hit=(i != 0))
            clock.advance(1.0)
        clock.advance(0.5)
        # The miss was 10.5s ago: outside the 10s window, inside the 100s one.
        short = monitor.window_stats(10.0)
        long = monitor.window_stats(100.0)
        assert short["n"] == 9 and short["hit_rate"] == 1.0
        assert long["n"] == 10 and long["hit_rate"] == pytest.approx(0.9)
        # error budget is 0.1, error rate 0.1 -> burn rate 1.0
        assert long["burn_rate"] == pytest.approx(1.0)

    def test_p99_nearest_rank(self):
        monitor, _clock = self._monitor()
        for v in range(1, 101):
            monitor.record(v / 1000.0)
        stats = monitor.window_stats(10.0)
        assert stats["p99_seconds"] == pytest.approx(0.099)
        assert stats["p99_burn"] == pytest.approx(0.99)

    def test_alerting_requires_every_window(self):
        monitor, clock = self._monitor()
        # Ancient total burn but a quiet recent window: no alert.
        for _ in range(50):
            monitor.record(0.01, deadline_hit=False)
            clock.advance(1.0)
        clock.advance(15.0)  # short window is now empty
        for _ in range(10):
            monitor.record(0.01, deadline_hit=True)
        assert not monitor.alerting()
        # A fresh sustained burn lights both windows.
        for _ in range(40):
            monitor.record(0.01, deadline_hit=False)
        assert monitor.alerting()
        assert monitor.snapshot()["alerting"]

    def test_min_samples_suppresses_alert(self):
        monitor, _clock = self._monitor(min_samples=50)
        for _ in range(10):
            monitor.record(0.01, deadline_hit=False)
        assert not monitor.alerting()

    def test_snapshot_and_telemetry_export(self):
        monitor, _clock = self._monitor()
        for _ in range(8):
            monitor.record(0.05, deadline_hit=True)
        snap = monitor.snapshot()
        assert snap["total"] == 8 and snap["total_missed"] == 0
        assert [w["window_seconds"] for w in snap["windows"]] == [10.0, 100.0]
        telemetry = Telemetry(namespace="repro")
        monitor.export(telemetry)
        text = telemetry.to_prometheus()
        assert "repro_slo_hit_rate_10s 1" in text
        assert "repro_slo_burn_rate_100s 0" in text
        assert "repro_slo_alerting 0" in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(deadline_hit_objective=1.5)
        with pytest.raises(ValueError):
            SLOConfig(windows=())
        with pytest.raises(ValueError):
            SLOConfig(windows=((0.0, 1.0),))


# -- telemetry hardening --------------------------------------------------------


class TestTelemetryHardening:
    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_escape_help_text(self):
        assert escape_help_text("line1\nline2\\x") == "line1\\nline2\\\\x"

    def test_histogram_ignores_nonfinite(self):
        telemetry = Telemetry(namespace="t")
        hist = telemetry.histogram("lat", "latency")
        hist.observe(1.0)
        hist.observe(float("nan"))
        hist.observe(float("inf"))
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["nonfinite"] == 2
        # The exposition stays parseable: no NaN tokens.
        assert "nan" not in telemetry.to_prometheus().lower()

    def test_merge_sums_nonfinite(self):
        from repro.fleet import merge_snapshots

        telemetry = Telemetry(namespace="t")
        hist = telemetry.histogram("lat", "latency")
        hist.observe(float("nan"))
        snap = telemetry.snapshot(include_samples=True)
        merged = merge_snapshots([snap, snap])
        assert merged["histograms"]["lat"]["nonfinite"] == 2


# -- fleet round trip (fork platforms) ------------------------------------------


@pytest.fixture(scope="module")
def checkpointed(project_with_history, tmp_path_factory):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    root = tmp_path_factory.mktemp("obs-fleet-ckpt")
    path = save_predictor(predictor, root / "v1.npz", environment_features=ENV)
    return path, plans


@needs_fork
class TestFleetTracing:
    def test_cross_process_span_tree_complete(self, checkpointed):
        from repro.fleet import ServingFleet

        path, plans = checkpointed
        obs = ObsConfig(sample_rate=1.0, seed=77)
        with ServingFleet(path, n_workers=2, obs=obs) as fleet:
            results = [
                fleet.predict(f"tenant-{i}", plans[:6], env_features=ENV)
                for i in range(8)
            ]
            assert all(r.source == "learned" for r in results)
            assert all(r.trace_id is not None for r in results)
            for result in results:
                tree = fleet.span_tree(result.trace_id)
                assert tree.is_complete(), tree.as_dict()
                labels = {label for label, _pid in tree.processes()}
                assert "fleet-parent" in labels
                assert any(label.startswith("shard-") for label in labels)
                assert "fleet.request" in tree.names()
                # The sampled root says where the hop's time went: send, wait
                # and decode are disjoint stretches inside the span.
                (root,) = tree.roots()
                attrs = root["attrs"]
                parts = [attrs[f"rpc_{part}_us"] for part in ("send", "wait", "decode")]
                assert all(p > 0.0 for p in parts)
                assert sum(parts) <= 1e3 * root["duration_ms"]
                assert attrs["frame_bytes_out"] > 0 and attrs["frame_bytes_in"] > 0

    def test_worker_crash_leaves_flight_dump(self, checkpointed, tmp_path):
        from repro.fleet import ServingFleet

        path, plans = checkpointed
        obs = ObsConfig(sample_rate=1.0, seed=78, dump_dir=str(tmp_path))
        with ServingFleet(path, n_workers=2, obs=obs) as fleet:
            # Sampled traffic before the incident: its spans are in the dump.
            for i in range(4):
                fleet.predict(f"warm-{i}", plans[:4], env_features=ENV)
            fleet.crash_worker(fleet.live_workers()[0])
            # Some tenant routes to the dead shard; its request observes the
            # death, sheds to the fallback, and records the crash incident.
            for i in range(8):
                fleet.predict(f"tenant-{i}", plans[:4], env_features=ENV)
        dumps = [f for f in os.listdir(tmp_path) if f.endswith(".jsonl")]
        assert dumps, "expected a worker-crash flight dump"
        crash_dumps = [f for f in dumps if "worker-crash" in f]
        assert crash_dumps
        records = [
            json.loads(line)
            for name in crash_dumps
            for line in (tmp_path / name).read_text().splitlines()
        ]
        assert any(
            r["type"] == "span" and r["name"] == "fleet.request" for r in records
        )


# -- replay determinism ---------------------------------------------------------


class TestReplayTracing:
    def test_seeded_logical_replay_mints_identical_trace_ids(self):
        from repro.serving.service import CostInferenceService
        from repro.workload import (
            GatewayTarget,
            ReplayConfig,
            ReplayEngine,
            ScenarioRuntime,
            build_scenario,
        )

        runtime = ScenarioRuntime(seed=7, max_queries_per_day=10)
        incumbent = runtime.train_incumbent(epochs=2)
        scenario = build_scenario("steady")
        digests = []
        for _ in range(2):
            collector = SpanCollector(max_traces=8192)
            tracer = Tracer(1.0, seed=11, collector=collector)
            engine = ReplayEngine(
                runtime, config=ReplayConfig(mode="logical"), tracer=tracer
            )
            with OptimizerGateway(CostInferenceService(incumbent)) as gateway:
                report = engine.run(scenario, GatewayTarget(gateway))
            assert report.n_requests > 0
            digests.append(sorted(collector.trace_ids()))
        assert digests[0] == digests[1]
        assert len(digests[0]) > 0
