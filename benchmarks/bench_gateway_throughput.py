"""Gateway serving throughput: concurrent callers through the front end.

The workload mirrors ``bench_serving_throughput`` (candidate sets re-scored
under four fig10-shaped environments) but drives it the way production steering
traffic arrives: many threads asking at once through the
:class:`~repro.gateway.gateway.OptimizerGateway`, which coalesces compatible
requests into learned micro-batches over the single-threaded inference
service.  Four phases are measured:

* **direct** — the serial single-caller baseline straight into
  ``CostInferenceService`` (the best one thread can do, no gateway);
* **gateway** — the same request stream fanned across worker threads
  through the gateway (1/4/8 callers), with per-request p50/p99 latency;
* **chaos** — the learned path armed to fail every batch
  (``inject_faults``): every request must still answer, from the fallback,
  and the breaker must trip;
* **shed** — a deliberately slowed learned path behind a tiny admission
  queue: overflow requests must answer immediately from the fallback.

Results land in the ``BENCH_gateway.json`` artifact (path override:
``BENCH_GATEWAY_OUT``).  Acceptance gates asserted here: gateway-batched
predictions match the direct service within 1e-5 relative tolerance, zero
fallbacks on the healthy path, a generous p99 latency ceiling, 100 %
answered-with-finite-costs under total learned-path failure, and a nonzero
shed rate under overload with every shed request still answered.

``test_gateway_tracing`` measures the observability tax separately: the
same stream driven tracing-off vs sampled-on (1/16), interleaved
best-of-3 so machine noise hits both modes alike, gated at ≤5 % loss;
its chaos rerun must auto-dump the flight recorder on the breaker trip.
That phase's numbers land in the shared ``BENCH_obs.json`` artifact.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from conftest import print_banner
from repro.core.explorer import PlanExplorer
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.evaluation.projects import evaluation_profiles
from repro.evaluation.reporting import format_table
from repro.gateway import GatewayConfig, OptimizerGateway
from repro.serving import CostInferenceService
from repro.warehouse.workload import generate_project

#: Environments the candidate sets are re-scored under (fig10 shape).
ENVIRONMENTS = (
    (0.5, 0.05, 0.5, 0.5),
    (0.62, 0.03, 0.41, 0.55),
    (0.31, 0.12, 0.77, 0.69),
    (0.0, 0.0, 0.0, 0.0),
)

THREAD_COUNTS = (1, 4, 8)

#: Generous p99 ceiling for a healthy gateway request (smoke-scale CI boxes
#: included); the trend across PRs is what the artifact tracks.
P99_CEILING_MS = 250.0


@pytest.fixture(scope="module")
def gateway_setup(scale):
    profile = evaluation_profiles()[0]
    workload = generate_project(profile, horizon_days=4)
    workload.simulate_history(3, max_queries_per_day=40)
    records = workload.repository.deduplicated(workload.repository.records)
    records = records[: min(len(records), scale.max_training_queries)]
    predictor = AdaptiveCostPredictor(
        config=PredictorConfig(epochs=max(3, scale.predictor_epochs // 3))
    )
    predictor.fit([r.plan for r in records], [r.cpu_cost for r in records])

    explorer = PlanExplorer(workload.optimizer)
    n_queries = max(8, scale.n_test_queries // 4)
    candidate_sets = []
    for record in records[:n_queries]:
        plans = explorer.candidates(record.plan.query, top_k=5)
        if plans:
            candidate_sets.append(plans)
    return predictor, candidate_sets


class _SlowService:
    """Delay proxy over a real inference service (the shed phase needs the
    learned path to be slower than the arrival rate)."""

    def __init__(self, service, delay: float) -> None:
        self._service = service
        self._delay = delay
        self.predictor = service.predictor

    def predict(self, plans, *, env_features=None):
        time.sleep(self._delay)
        return self._service.predict(plans, env_features=env_features)


def _work_items(candidate_sets):
    return [(plans, env) for plans in candidate_sets for env in ENVIRONMENTS]


def _drive(gateway, items, n_threads, *, deadline_ms=None):
    """Fan ``items`` across ``n_threads`` callers; collect every result."""
    cursor = {"i": 0}
    lock = threading.Lock()
    results = [None] * len(items)
    latencies = [0.0] * len(items)

    def caller():
        while True:
            with lock:
                i = cursor["i"]
                if i >= len(items):
                    return
                cursor["i"] = i + 1
            plans, env = items[i]
            t0 = time.perf_counter()
            results[i] = gateway.predict(
                plans, env_features=env, deadline_ms=deadline_ms
            )
            latencies[i] = time.perf_counter() - t0

    started = time.perf_counter()
    threads = [threading.Thread(target=caller) for _ in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    total = time.perf_counter() - started
    ordered = sorted(latencies)
    plans_scored = sum(len(plans) for plans, _ in items)
    return results, {
        "threads": n_threads,
        "requests": len(items),
        "plans_scored": plans_scored,
        "plans_per_sec": plans_scored / total,
        "requests_per_sec": len(items) / total,
        "p50_ms": 1e3 * ordered[int(0.50 * (len(ordered) - 1))],
        "p99_ms": 1e3 * ordered[int(0.99 * (len(ordered) - 1))],
        "total_seconds": total,
    }


def test_gateway_throughput(benchmark, gateway_setup, scale):
    predictor, candidate_sets = gateway_setup
    service = CostInferenceService(predictor)
    items = _work_items(candidate_sets)

    # Correctness gate before timing anything: gateway-batched answers match
    # the direct service (rtol 1e-5, the acceptance criterion).
    direct_reference = [
        np.array(service.predict(plans, env_features=env)) for plans, env in items
    ]
    with OptimizerGateway(service) as gw:
        checked, _ = _drive(gw, items, 4)
        for result, want in zip(checked, direct_reference):
            assert result.source == "learned"
            np.testing.assert_allclose(result.costs, want, rtol=1e-5)

    def run():
        # Direct serial baseline (no gateway, one caller).  Caches are
        # cleared before every measured phase so each one pays for real
        # inference — otherwise the correctness pre-gate leaves the
        # prediction cache hot and the baseline measures dict lookups.
        service.clear_caches()
        started = time.perf_counter()
        for plans, env in items:
            service.predict(plans, env_features=env)
        direct_total = time.perf_counter() - started
        direct = {
            "plans_per_sec": sum(len(p) for p, _ in items) / direct_total,
            "requests_per_sec": len(items) / direct_total,
            "total_seconds": direct_total,
        }

        # Healthy concurrent phase across the thread sweep.
        healthy = []
        for n_threads in THREAD_COUNTS:
            service.clear_caches()
            with OptimizerGateway(service) as gw:
                results, metrics = _drive(gw, items, n_threads)
                metrics["fallbacks"] = gw.telemetry.counter("fallback_total").value
                metrics["batches"] = gw.telemetry.counter("batches_total").value
                assert all(r.source == "learned" for r in results)
                healthy.append(metrics)

        # Chaos phase: every learned batch fails; every request must still
        # answer with finite fallback costs and the breaker must trip.
        with OptimizerGateway(service) as gw:
            gw.inject_faults(10**9)
            results, chaos_metrics = _drive(gw, items, 4)
            assert all(r is not None for r in results)
            assert all(np.isfinite(r.costs).all() for r in results)
            snapshot = gw.stats()
            chaos = {
                **chaos_metrics,
                "fallbacks": snapshot["counters"]["fallback_total"],
                "fallback_rate": snapshot["counters"]["fallback_total"] / len(items),
                "breaker_trips": snapshot["counters"].get("breaker_trips_total", 0),
                "breaker_state": snapshot["breaker"]["state"],
            }

        # Shed phase: slow learned path + tiny queue + deadline pressure.
        slow = _SlowService(service, delay=0.02)
        config = GatewayConfig(max_queue_depth=2, coalesce_window_ms=0.0)
        with OptimizerGateway(slow, config=config) as gw:
            results, shed_metrics = _drive(gw, items, 8, deadline_ms=100.0)
            assert all(r is not None for r in results)
            assert all(np.isfinite(r.costs).all() for r in results)
            counters = gw.stats()["counters"]
            shed = {
                **shed_metrics,
                "shed": counters.get("fallback_shed_total", 0),
                "deadline_misses": counters.get("deadline_miss_total", 0),
                "fallbacks": counters["fallback_total"],
                "shed_rate": counters.get("fallback_shed_total", 0) / len(items),
            }
        return direct, healthy, chaos, shed

    direct, healthy, chaos, shed = benchmark.pedantic(run, rounds=1, iterations=1)

    print_banner("Gateway throughput - concurrent callers vs direct serial")
    rows = [
        ["direct x1", f"{direct['plans_per_sec']:,.0f}", "-", "-", "-", "-"]
    ]
    for metrics in healthy:
        rows.append(
            [
                f"gateway x{metrics['threads']}",
                f"{metrics['plans_per_sec']:,.0f}",
                f"{metrics['p50_ms']:.2f}",
                f"{metrics['p99_ms']:.2f}",
                f"{metrics['batches']:.0f}",
                f"{metrics['fallbacks']:.0f}",
            ]
        )
    print(
        format_table(
            ["path", "plans/sec", "p50 ms", "p99 ms", "batches", "fallbacks"], rows
        )
    )
    print(
        f"chaos: {chaos['fallback_rate']:.0%} fallback, breaker "
        f"{chaos['breaker_state']} after {chaos['breaker_trips']:.0f} trip(s); "
        f"shed: {shed['shed']:.0f}/{shed['requests']} shed, "
        f"{shed['deadline_misses']:.0f} deadline misses"
    )

    artifact = {
        "scale": scale.name,
        "n_candidate_sets": len(candidate_sets),
        "environments": len(ENVIRONMENTS),
        "direct": direct,
        "gateway": healthy,
        "chaos": chaos,
        "shed": shed,
        "gateway_vs_direct": max(m["plans_per_sec"] for m in healthy)
        / direct["plans_per_sec"],
    }
    out_path = os.environ.get("BENCH_GATEWAY_OUT", "BENCH_gateway.json")
    with open(out_path, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {out_path}")

    # Acceptance gates (ISSUE 4).
    for metrics in healthy:
        assert metrics["fallbacks"] == 0, metrics
        assert metrics["p99_ms"] <= P99_CEILING_MS, metrics
    # Queue-and-coalesce overhead stays bounded: the best gateway
    # configuration holds at least half the serial direct path's
    # throughput (per-request thread handoff is the price of deadlines,
    # shedding, and the breaker; at smoke scale requests are tiny, so
    # this is the meaningful floor rather than a speedup claim).
    assert artifact["gateway_vs_direct"] >= 0.5, artifact["gateway_vs_direct"]
    # Total learned-path failure still answers every request.
    assert chaos["fallback_rate"] == 1.0
    assert chaos["breaker_trips"] >= 1
    # Overload sheds rather than queueing unboundedly, and still answers.
    assert shed["shed"] >= 1
    assert shed["fallbacks"] >= shed["shed"]


#: Sampled-on tracing may cost at most this fraction of tracing-off
#: throughput (the ISSUE 10 acceptance gate: ≤5 % loss at 1/16 sampling).
#: At smoke scale the per-pass work is tiny (~25 ms of ~100 µs requests)
#: and repeated A/A runs of the very same configuration differ by ±5-8 %
#: on a loaded machine, so the smoke gate carries a noise allowance the
#: way fig10's accuracy band does; small/paper rounds are long enough to
#: resolve the real 5 % budget.
TRACING_MIN_THROUGHPUT_RATIO = 0.95
TRACING_MIN_THROUGHPUT_RATIO_SMOKE = 0.88
TRACING_SAMPLE_RATE = 1.0 / 16.0
#: Off/on rounds run as PAIRS with alternating order (off-on, on-off, ...)
#: and the gate compares the median of per-pair on/off ratios: slow-machine
#: drift lands on both sides of each pair, and the balanced order cancels
#: warming trends that a fixed order would bias one way.
TRACING_PAIRS = 6
#: Each measured round repeats the item stream until it lasts at least
#: this long — a single smoke pass is far inside scheduling noise.
TRACING_ROUND_SECONDS = 0.5


def test_gateway_tracing(benchmark, gateway_setup, scale):
    """Observability tax + incident forensics on the gateway path.

    Tracing-off and sampled-on rounds run as adjacent pairs with
    alternating order, and the gate compares the MEDIAN of per-pair
    on/off ratios — slow-machine drift lands inside each pair, and the
    balanced order cancels warming trends (see the constants above).
    """
    import tempfile

    from conftest import update_obs_artifact
    from repro.obs import FlightRecorder, SLOConfig, SLOMonitor, Tracer

    predictor, candidate_sets = gateway_setup
    service = CostInferenceService(predictor)
    items = _work_items(candidate_sets)

    plans_scored = sum(len(plans) for plans, _ in items)

    def measure(tracer, reps):
        service.clear_caches()
        with OptimizerGateway(service, tracer=tracer) as gw:
            t0 = time.perf_counter()
            for _ in range(reps):
                results, _ = _drive(gw, items, 4)
            total = time.perf_counter() - t0
            assert all(r.source == "learned" for r in results)
        return reps * plans_scored / total

    def run():
        # Pilot pass sizes the repetition count so each measured round
        # lasts ≥ TRACING_ROUND_SECONDS regardless of scale.
        pilot_rate = measure(None, 1)
        pass_seconds = plans_scored / pilot_rate
        reps = max(1, int(round(TRACING_ROUND_SECONDS / max(pass_seconds, 1e-4))))

        # Warm both modes once, unmeasured: the first rounds after a cold
        # start run visibly slower and would bias whichever mode went first.
        measure(None, reps)
        measure(Tracer(TRACING_SAMPLE_RATE, seed=1000), reps)

        off_rates, on_rates, pair_ratios = [], [], []
        sampled_spans = 0
        for pair_index in range(TRACING_PAIRS):
            tracer = Tracer(TRACING_SAMPLE_RATE, seed=pair_index)
            if pair_index % 2 == 0:
                off = measure(None, reps)
                on = measure(tracer, reps)
            else:
                on = measure(tracer, reps)
                off = measure(None, reps)
            off_rates.append(off)
            on_rates.append(on)
            pair_ratios.append(on / off)
            sampled_spans += tracer.stats()["spans_started"]

        # Chaos rerun with the recorder attached: the breaker trip must
        # auto-dump the ring for post-incident forensics.
        dump_dir = tempfile.mkdtemp(prefix="bench-flight-")
        recorder = FlightRecorder(dump_dir=dump_dir, process_label="bench-gateway")
        slo = SLOMonitor(SLOConfig())
        service.clear_caches()
        with OptimizerGateway(
            service, tracer=Tracer(TRACING_SAMPLE_RATE, seed=0),
            recorder=recorder, slo=slo,
        ) as gw:
            gw.inject_faults(10**9)
            results, _ = _drive(gw, items, 4)
            assert all(np.isfinite(r.costs).all() for r in results)
            trips = gw.stats()["counters"].get("breaker_trips_total", 0)
        return off_rates, on_rates, pair_ratios, sampled_spans, recorder, trips, reps

    off_rates, on_rates, pair_ratios, sampled_spans, recorder, trips, reps = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    ordered = sorted(pair_ratios)
    mid = len(ordered) // 2
    ratio = (
        ordered[mid]
        if len(ordered) % 2
        else (ordered[mid - 1] + ordered[mid]) / 2
    )
    gate = (
        TRACING_MIN_THROUGHPUT_RATIO_SMOKE
        if scale.name == "smoke"
        else TRACING_MIN_THROUGHPUT_RATIO
    )
    print_banner("Gateway tracing overhead - off vs sampled-on (1/16)")
    print(
        f"off:  median {sorted(off_rates)[len(off_rates) // 2]:,.0f} plans/sec "
        f"over {TRACING_PAIRS} pairs ({reps} passes each)\n"
        f"on:   median {sorted(on_rates)[len(on_rates) // 2]:,.0f} plans/sec "
        f"({sampled_spans} spans sampled)\n"
        f"pair ratios {[f'{r:.3f}' for r in pair_ratios]}\n"
        f"median ratio {ratio:.3f} (gate ≥ {gate} at {scale.name} scale)\n"
        f"chaos: {trips:.0f} breaker trip(s), "
        f"{recorder.dumps_total} flight dump(s) at {recorder.last_dump_path}"
    )

    update_obs_artifact(
        "gateway_tracing",
        {
            "scale": scale.name,
            "sample_rate": TRACING_SAMPLE_RATE,
            "pairs": TRACING_PAIRS,
            "passes_per_round": reps,
            "plans_per_sec_off": off_rates,
            "plans_per_sec_on": on_rates,
            "pair_ratios": pair_ratios,
            "throughput_ratio": ratio,
            "gate": gate,
            "spans_sampled": sampled_spans,
            "breaker_trips": float(trips),
            "flight_dumps": recorder.dumps_total,
            "flight_dump_path": recorder.last_dump_path,
        },
    )

    # Acceptance gates (ISSUE 10).
    assert ratio >= gate, (pair_ratios, ratio)
    assert sampled_spans >= 1  # the tax was actually paid, not skipped
    assert trips >= 1
    assert recorder.dumps_total >= 1
    with open(recorder.last_dump_path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert lines[0]["reason"] == "breaker-trip"
    assert any(e.get("kind") == "breaker-trip" for e in lines[1:])
