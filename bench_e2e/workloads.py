"""The four workloads: what is deployed, how it is loaded, what is read.

Every layer is measured from outside: by timing calls into its public
functions, by the proxies of :mod:`proxies`, and by reading the public
counters (``stats()`` / ``cache_counters()``) at the window's boundaries.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from load import Issuer, Tape, closed_loop, open_loop, summarize
from proxies import DelayService, TimedPacer, TimedService
from spans import percentile, quartiles, self_times, spread

from repro.core.serialization import load_predictor
from repro.fleet import ConsistentHashRouter, ServingFleet
from repro.gateway import GatewayConfig, NativeCostFallback, OptimizerGateway, Telemetry
from repro.pacing import AdmissionPacer, PacerConfig
from repro.serving import CostInferenceService, plan_fingerprint

#: Closed-loop callers and fleet workers: the core count of the box the
#: baseline was recorded on, fixed so other boxes run the same workload.
CALLERS = 2
FLEET_WORKERS = 2
#: Open-loop caller threads.  More than the cores on purpose: a blocking
#: ``predict`` needs more callers than requests outstanding or no queue ever
#: forms; they spend > 95 % of their time asleep in the delay proxy or on
#: the schedule, and ``bench.gen_late_p99_ms`` proves the schedule was kept.
OPEN_THREADS = 8
#: The sleep-bound pipe of ``overload_open``: capacity 1 / delay = 50
#: requests/s by construction, offered 3x that, deadline 2.75 service times.
OPEN_DELAY_S = 0.020
OPEN_RATE = 150.0
OPEN_DEADLINE_MS = 55.0
OPEN_WARM_SECONDS = 2.0
CLOSED_WARM_SECONDS = 1.0
PACER = PacerConfig(
    cwnd_gain=1.5,
    initial_cap=2,
    probe_rtt_duration_seconds=0.1,
    pace_admissions=True,
    pacing_margin=0.99,
)
#: Requests checked against the slow reference before anything is timed.
GATE_SAMPLES = 64
GATE_RTOL = 1e-5
#: Plans in the warm list of ``swap_predictor`` / ``promote``.  Kept below the
#: service's default ``parallel_encode_threshold=64``: at or above it a fleet
#: worker tries to fork an encode pool from a daemonic process and dies
#: ("daemonic processes are not allowed to have children") — found by this
#: benchmark, left for a later issue, and no operation here may fail.
WARM_PLANS = 60
#: Stream requests each layer's entry point is timed over in isolation.
ISOLATED_REQUESTS = 2000

#: The workloads, each with the latency limit of a good answer (ms).
LIMIT_MS = {"hot_zipf": 5.0, "cold_scan": 10.0, "fleet_zipf": 10.0, "overload_open": 55.0}


@dataclass
class Deployment:
    """One workload's system under test plus the handles read afterwards."""

    name: str
    stream: inputs.Stream
    call: object
    layer: str
    gateway: OptimizerGateway | None = None
    fleet: ServingFleet | None = None
    timed_pacer: TimedPacer | None = None
    #: Fleet only: constructing ``ServingFleet`` until every worker answered a ping.
    boot_seconds: float = 0.0

    @property
    def open_loop(self) -> bool:
        return self.name == "overload_open"

    def close(self) -> None:
        (self.fleet or self.gateway).close()


def build(name: str, corpus: inputs.Corpus, seed: int, tracer, seconds: float) -> Deployment:
    """Construct workload ``name``'s deployment with default service and
    gateway arguments (unless the workload's definition says otherwise)."""
    if name == "fleet_zipf":
        stream = inputs.zipf_stream(seed, corpus.hot_pool)
        started = time.perf_counter()
        fleet = ServingFleet(corpus.checkpoint, n_workers=FLEET_WORKERS)
        try:
            fleet.ping()
        except BaseException:
            fleet.close()
            raise
        boot_seconds = time.perf_counter() - started

        def call(i):
            return fleet.predict(
                stream.tenants[i], stream.plans(i), env_features=stream.envs[i],
                plans_key=stream.sets[i],
            )

        return Deployment(
            name, stream, call, "fleet.request", fleet=fleet, boot_seconds=boot_seconds
        )

    service = CostInferenceService.from_checkpoint(corpus.checkpoint)
    timed_pacer = None
    deadline_ms = None
    if name == "overload_open":
        stream = inputs.open_stream(
            seed, corpus.hot_pool, rate=OPEN_RATE, horizon=OPEN_WARM_SECONDS + seconds
        )
        deadline_ms = OPEN_DEADLINE_MS
        inner = DelayService(service, OPEN_DELAY_S)
        telemetry = Telemetry()
        pacer = AdmissionPacer(PACER, telemetry=telemetry)
        if tracer is not None:
            inner = TimedService(inner, tracer)
            pacer = timed_pacer = TimedPacer(pacer, tracer)
        # max_coalesce_plans == one set: exactly one request per learned
        # batch, so the pipe serves 1 / OPEN_DELAY_S requests a second.
        config = GatewayConfig(max_coalesce_plans=len(stream.plans(0)))
        gateway = OptimizerGateway(inner, config=config, telemetry=telemetry, pacer=pacer)
    else:
        make = inputs.zipf_stream if name == "hot_zipf" else inputs.scan_stream
        stream = make(seed, corpus.hot_pool if name == "hot_zipf" else corpus.cold_pool)
        inner = service
        if tracer is not None:
            inner = TimedService(service, tracer)
        gateway = OptimizerGateway(inner)

    def call(i):
        return gateway.predict(
            stream.plans(i), env_features=stream.envs[i], deadline_ms=deadline_ms
        )

    return Deployment(
        name, stream, call, "gateway.request", gateway=gateway, timed_pacer=timed_pacer
    )


def gate(dep: Deployment, corpus: inputs.Corpus, seed: int) -> tuple[int, list[str]]:
    """Correctness gate: sampled requests against the slow reference
    ``AdaptiveCostPredictor.predict_baseline`` (rtol 1e-5, same argmin).
    Requests with the same (set, env) are checked once."""
    rng = np.random.default_rng(seed)
    stream = dep.stream
    problems = []
    seen = set()
    for i in rng.integers(0, len(stream), size=GATE_SAMPLES).tolist():
        key = (stream.sets[i], stream.envs[i])
        if key in seen:
            continue
        seen.add(key)
        result = dep.call(i)
        want = corpus.predictor.predict_baseline(stream.plans(i), env_features=stream.envs[i])
        got = np.asarray(result.costs)
        if result.source != "learned":
            problems.append(f"gate request {i}: answered from {result.source}/{result.reason}")
        elif got.shape != want.shape or not np.allclose(got, want, rtol=GATE_RTOL, atol=0.0):
            problems.append(f"gate request {i}: {got!r} != reference {want!r}")
        elif not np.isclose(want[int(np.argmin(got))], want.min(), rtol=GATE_RTOL, atol=0.0):
            problems.append(f"gate request {i}: argmin {np.argmin(got)} != {np.argmin(want)}")
    return len(seen), problems


def warm_up(dep: Deployment, issuer: Issuer) -> int:
    """Fill the caches to their steady state; returns the stream index the
    measured window continues from.  The open loop warms up inside its one
    continuous run instead (the pacer must converge under the real load)."""
    if dep.open_loop:
        return 0
    first = 0
    if dep.name != "cold_scan":
        # Every tenant once, so ~100 % hits does not depend on how many
        # tail tenants a short warm-up happened to draw.
        seen = set()
        discard = Tape()
        for i in range(len(dep.stream)):
            if dep.stream.tenants[i] not in seen:
                seen.add(dep.stream.tenants[i])
                issuer.issue(i, discard)
                if len(seen) == inputs.N_TENANTS:
                    break
        first = i + 1
    samples = closed_loop(
        issuer, callers=CALLERS, stop=time.perf_counter() + CLOSED_WARM_SECONDS, first=first
    )
    return first + len(samples)


def run_window(dep: Deployment, issuer: Issuer, *, seconds: float, rounds: int, first: int):
    """The measured window.  Returns ``(summary, wall_seconds, cpu_seconds)``."""
    tracer = issuer.tracer
    cpu_started = time.process_time()
    if dep.open_loop:
        t0 = time.perf_counter() + 0.05
        window_t0 = t0 + OPEN_WARM_SECONDS
        if tracer is not None:
            tracer.open_window(window_t0, seconds / rounds)
        samples = open_loop(issuer, t0=t0, threads=OPEN_THREADS)
    else:
        window_t0 = time.perf_counter()
        if tracer is not None:
            tracer.open_window(window_t0, seconds / rounds)
        samples = closed_loop(issuer, callers=CALLERS, stop=window_t0 + seconds, first=first)
    wall = time.perf_counter() - window_t0
    cpu = time.process_time() - cpu_started
    if tracer is not None:
        tracer.close_window()
    summary = summarize(
        samples, t0=window_t0, seconds=seconds, rounds=rounds,
        limit_ms=LIMIT_MS[dep.name], by_due=dep.open_loop,
    )
    return summary, wall, cpu


# -- public counters ----------------------------------------------------------


def read_counters(dep: Deployment) -> dict:
    """The deployment's public telemetry in one shape: the gateway's
    ``stats()`` or the fleet's merged per-shard view."""
    if dep.fleet is not None:
        stats = dep.fleet.stats()
        out = dict(stats["merged"])
        out["shard_requests"] = {
            name: shard["counters"].get("requests_total", 0.0)
            for name, shard in stats["shards"].items()
        }
        out["fleet_requests"] = stats["fleet"]["counters"].get("requests_total", 0.0)
        return out
    return dep.gateway.stats()


def _delta(after: dict, before: dict, kind: str, name: str) -> float:
    return after[kind].get(name, 0.0) - before[kind].get(name, 0.0)


def _hist_sum_delta(after: dict, before: dict, name: str) -> float:
    zero = {"sum": 0.0}
    return after["histograms"].get(name, zero)["sum"] - before["histograms"].get(name, zero)["sum"]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _us(seconds: float) -> float:
    return 1e6 * seconds


# -- per-layer metrics ----------------------------------------------------------


def isolated(dep: Deployment, corpus: inputs.Corpus, n_requests: int = ISOLATED_REQUESTS) -> dict:
    """Each layer's public entry point timed alone, single caller, over the
    first ``n_requests`` stream requests."""
    stream = dep.stream
    n = len(stream)
    indices = [i % n for i in range(n_requests)]
    clock = time.perf_counter
    out = {}

    service = CostInferenceService.from_checkpoint(corpus.checkpoint)
    for i in indices:
        service.predict(stream.plans(i), env_features=stream.envs[i])
    direct = []
    for i in indices:
        j = (i + n_requests) % n
        started = clock()
        service.predict(stream.plans(j), env_features=stream.envs[j])
        direct.append(clock() - started)
    out["serving.direct_p50_us"] = _us(percentile(sorted(direct), 50.0))

    n_plans = sum(len(stream.plans(i)) for i in indices)
    started = clock()
    for i in indices:
        for plan in stream.plans(i):
            plan_fingerprint(plan)
    out["serving.fingerprint_us_per_plan"] = _us(clock() - started) / n_plans

    encoder = corpus.predictor.encoder
    started = clock()
    for i in indices:
        encoder.encode_plans(stream.plans(i))
    out["core.encode_us_per_plan"] = _us(clock() - started) / n_plans

    fallback = NativeCostFallback()
    started = clock()
    for i in indices:
        fallback.predict(stream.plans(i), env_features=stream.envs[i])
    out["gateway.fallback_us_per_call"] = _us(clock() - started) / len(indices)

    router = ConsistentHashRouter([f"shard-{k}" for k in range(FLEET_WORKERS)])
    started = clock()
    for i in indices:
        router.route(stream.tenants[i])
    out["fleet.route_ns"] = 1e9 * (clock() - started) / len(indices)

    replacement, _env = load_predictor(corpus.checkpoint)
    started = clock()
    service.swap_predictor(replacement, warm=_warm_list(corpus, stream))
    out["serving.swap_warm_ms"] = 1e3 * (clock() - started)
    return out


def _warm_list(corpus: inputs.Corpus, stream: inputs.Stream) -> list:
    env = stream.envs[0]
    plans = [plan for plans in corpus.hot_pool for plan in plans]
    return [(plan, env) for plan in plans[:WARM_PLANS]]


def layer_metrics(dep, tracer, summary, before, after, *, wall, cpu, seconds, rounds):
    """The per-layer metrics of one traced run (everything except the
    isolated timings and what is only known after teardown).  A metric that
    does not apply to a workload reads 0."""
    m: dict[str, float] = {}
    attempted = summary["attempted"] or 1
    traced_wall = (rounds // 2) * (seconds / rounds)

    # serving: proxy spans in process, the shards' batch histogram in a fleet.
    tracer.attribute_batches()
    spans = tracer.spans
    if dep.fleet is None:
        batches = tracer.batches
        durations = sorted(ended - started for started, ended, _n in batches)
        m["serving.predict_p50_us"] = _us(percentile(durations, 50.0))
        m["serving.predict_p99_us"] = _us(percentile(durations, 99.0))
        m["serving.busy_share"] = _share(sum(durations), traced_wall)
        m["serving.plans_per_call"] = _share(sum(n for _s, _e, n in batches), len(batches))
    else:
        batch = after["histograms"].get("learned_batch_seconds", {})
        m["serving.predict_p50_us"] = _us(batch.get("p50", 0.0))
        m["serving.predict_p99_us"] = _us(batch.get("p99", 0.0))
        m["serving.busy_share"] = _share(
            _hist_sum_delta(after, before, "learned_batch_seconds"), wall * FLEET_WORKERS
        )
        m["serving.plans_per_call"] = _share(
            _hist_sum_delta(after, before, "batch_plans"),
            _delta(after, before, "counters", "batches_total"),
        )
    gauge = lambda name: _delta(after, before, "gauges", f"serving_{name}")  # noqa: E731
    pred_hits, pred_misses = gauge("prediction_cache_hits"), gauge("prediction_cache_misses")
    enc_hits, enc_misses = gauge("encoding_cache_hits"), gauge("encoding_cache_misses")
    learned_seconds = _hist_sum_delta(after, before, "learned_batch_seconds")
    m["serving.pred_hit_share"] = _share(pred_hits, pred_hits + pred_misses)
    m["serving.pred_evictions_per_req"] = gauge("prediction_cache_evictions") / attempted
    m["serving.encode_hit_share"] = _share(enc_hits, enc_hits + enc_misses)
    m["serving.encode_time_share"] = _share(gauge("encode_seconds"), learned_seconds)
    m["serving.forward_time_share"] = _share(gauge("forward_seconds"), learned_seconds)

    # gateway: self time of the request span, the public histograms, sheds.
    selfs = self_times(spans)
    gateway_self = sorted(s for _r, name, s, _root in selfs if name == "gateway.request")
    m["gateway.self_p50_us"] = _us(percentile(gateway_self, 50.0))
    m["gateway.self_p99_us"] = _us(percentile(gateway_self, 99.0))
    hist = after["histograms"]
    m["gateway.queue_wait_p50_us"] = _us(hist.get("queue_wait_seconds", {}).get("p50", 0.0))
    m["gateway.queue_wait_p99_us"] = _us(hist.get("queue_wait_seconds", {}).get("p99", 0.0))
    m["gateway.service_time_p50_us"] = _us(hist.get("service_time_seconds", {}).get("p50", 0.0))
    m["gateway.requests_per_batch"] = _share(
        _delta(after, before, "counters", "learned_total"),
        _delta(after, before, "counters", "batches_total"),
    )
    requests = _delta(after, before, "counters", "requests_total")
    for reason in ("pacer_limit", "deadline", "queue_full"):
        m[f"gateway.shed_{reason}_share"] = _share(
            _delta(after, before, "counters", f"shed_{reason}_total"), requests
        )
    m["gateway.shed_answer_p99_us"] = _us(percentile(summary["fallback_latencies"], 99.0))

    # pacing: proxy timings, the pacer's own beliefs, and what they bought.
    pacer = after.get("pacer")
    if pacer is not None:
        tp = dep.timed_pacer
        m["pacing.try_admit_ns"] = 1e9 * _share(tp.try_admit_seconds, tp.try_admit_calls)
        m["pacing.on_delivered_ns"] = 1e9 * _share(tp.on_delivered_seconds, tp.on_delivered_calls)
        admitted = pacer["admitted_total"] - before["pacer"]["admitted_total"]
        denied = pacer["denied_total"] - before["pacer"]["denied_total"]
        m["pacing.admit_share"] = _share(admitted, admitted + denied)
        m["pacing.goodput_vs_capacity"] = statistics.fmean(summary["goodput_rps"]) * OPEN_DELAY_S
        m["pacing.p99_vs_floor"] = summary["lat_p99_ms"][0] / (1e3 * OPEN_DELAY_S)
        m["pacing.btl_rate_rps"] = pacer["btl_rate"] or 0.0
        m["pacing.min_latency_ms"] = 1e3 * (pacer["min_latency_seconds"] or 0.0)
        m["pacing.inflight_cap"] = pacer["inflight_cap"]
        m["pacing.probe_rtt_entries"] = (
            pacer["state_entries"]["probe-rtt"] - before["pacer"]["state_entries"]["probe-rtt"]
        )
    else:
        for name in ("try_admit_ns", "on_delivered_ns", "admit_share", "goodput_vs_capacity",
                     "p99_vs_floor", "btl_rate_rps", "min_latency_ms", "inflight_cap",
                     "probe_rtt_entries"):
            m[f"pacing.{name}"] = 0.0

    # fleet: what the hop costs on top of the shard's own request latency.
    if dep.fleet is not None:
        parent = sorted(s[5] - s[4] for s in spans if s[3] == "fleet.request")
        worker_p50 = hist.get("request_latency_seconds", {}).get("p50", 0.0)
        m["fleet.rpc_overhead_p50_us"] = _us(percentile(parent, 50.0) - worker_p50)
        m["fleet.worker_p50_us"] = _us(worker_p50)
        shard = [
            after["shard_requests"][name] - before["shard_requests"].get(name, 0.0)
            for name in after["shard_requests"]
        ]
        m["fleet.shard_imbalance"] = _share(max(shard), sum(shard) / len(shard))
        m["fleet.pred_hit_share"] = m["serving.pred_hit_share"]
        m["fleet.boot_s"] = dep.boot_seconds
    else:
        for name in ("rpc_overhead_p50_us", "worker_p50_us", "shard_imbalance",
                     "pred_hit_share", "boot_s"):
            m[f"fleet.{name}"] = 0.0

    # bench: the harness itself.
    traced = [v for k, v in enumerate(summary["goodput_rps"]) if k % 2 == 1]
    untraced = [v for k, v in enumerate(summary["goodput_rps"]) if k % 2 == 0]
    m["bench.gen_late_p99_ms"] = 1e3 * percentile(summary["late"], 99.0) if dep.open_loop else 0.0
    m["bench.trace_overhead_pct"] = 100.0 * (
        1.0 - _share(quartiles(traced)[1], quartiles(untraced)[1])
    )
    m["bench.round_spread_pct"] = 100.0 * spread(untraced)
    m["bench.cpu_us_per_req"] = _us(cpu) / attempted
    m["bench.fallback_share"] = summary["fallback"] / attempted
    m["bench.failed_share"] = summary["failed"] / attempted
    return m


def resident_kib() -> int:
    """Resident set (``VmRSS``) of this process plus every live fleet worker,
    read when the measured window has just closed: memory only grows while
    serving, so this is the peak of the serving phase, without the training
    transient of set-up that ``ru_maxrss`` would report instead."""
    total = 0
    for pid in [os.getpid()] + [child.pid for child in multiprocessing.active_children()]:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                total += int(line.split()[1])
    return total


def promote_ms(dep: Deployment, corpus: inputs.Corpus) -> float:
    """One staged ``promote`` with a warm list, after the measured window."""
    if dep.fleet is None:
        return 0.0
    started = time.perf_counter()
    dep.fleet.promote(corpus.checkpoint, warm=_warm_list(corpus, dep.stream))
    return 1e3 * (time.perf_counter() - started)
