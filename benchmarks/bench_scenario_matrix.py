"""Scenario matrix: regimes × serving configs through the replay engine.

Each of the four ISSUE-9 regimes (steady, diurnal, bursty-skewed, drift)
is replayed against both serving targets:

* **paced gateway** — one ``OptimizerGateway`` over a deliberately slow
  single-file learned path (fixed per-batch delay, one request per batch),
  so its capacity is known by construction and the BBR admission pacer is
  the thing under test;
* **paced fleet** — a two-shard ``ServingFleet`` with per-shard pacers,
  the ROADMAP's "per-shard pacers under skewed tenant overload" follow-on:
  the bursty-skewed scenario routes Zipf-skewed tenants, flips the skew
  mid-run, and each shard's pacer must hold its own pipe.

Traffic rows run in **timed** mode (open-loop arrival schedules at rates
calibrated against the measured queue-free latency) and record per-regime
steering benefit, shed mix, and p99.  The **drift** rows run in *logical*
mode (virtual clock, sequential) with a full ``ModelLifecycle`` attached
and *unpaced* targets — wall-clock admission pacing would make the
decision sequence timing-dependent, and logical mode is exactly the
configuration whose outcome digest must be bit-stable.

Results land in ``BENCH_scenarios.json`` (override: ``BENCH_SCENARIOS_OUT``).
Gates: the drift scenario triggers exactly one retrain+promote on both
targets while flagging before retraining; bursty-skewed against the paced
fleet holds worst-regime p99 ≤ 2× the steady row's p99 (floored at the
measured queue-free latency) while shedding via ``pacer-limit`` rather
than deadline churn, with ``retry_after`` hints attached; and the drift
replay is bit-deterministic — two independent replays from the same seed
produce identical stream and outcome digests.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import print_banner
from repro.evaluation.pool import fork_available
from repro.evaluation.reporting import format_table
from repro.fleet import ServingFleet
from repro.gateway import GatewayConfig, OptimizerGateway
from repro.pacing import AdmissionPacer, PacerConfig
from repro.serving import CostInferenceService
from repro.workload import (
    ReplayConfig,
    ReplayEngine,
    Request,
    ScenarioRuntime,
    build_lifecycle,
    build_scenario,
)

#: Fixed learned-path delay per gateway batch: the pipe's known bottleneck.
SERVICE_DELAY_S = 0.012

#: Caller threads servicing the open-loop schedules.
N_THREADS = 12

#: Admission pacing tuned to a one-request-per-batch pipe: BDP 1, so
#: cwnd_gain 1.5 caps inflight at 2, and admissions are rate-paced a hair
#: under the bottleneck rate (the configuration
#: ``tests/test_pacing.py::TestGatewayPacing`` holds against the deep queue).
PACER = PacerConfig(
    cwnd_gain=1.5,
    initial_cap=2,
    probe_rtt_duration_seconds=0.1,
    pace_admissions=True,
    pacing_margin=0.99,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="fleet requires fork")


@pytest.fixture(scope="module")
def scenario_setup(scale):
    runtime = ScenarioRuntime(seed=7)
    incumbent = runtime.train_incumbent(epochs=10)
    return runtime, incumbent


class _SlowService:
    """Fixed-delay proxy: the gateway pipe's bottleneck is known."""

    def __init__(self, service, delay: float) -> None:
        self._service = service
        self._delay = delay
        self.predictor = service.predictor

    def predict(self, plans, *, env_features=None):
        time.sleep(self._delay)
        return self._service.predict(plans, env_features=env_features)


def _calibration_request(runtime, index: int) -> Request:
    return Request(
        index=index,
        t=0.0,
        tenant="calibration",
        family="scan",
        pool_index=0,
        env=runtime.env_r,
        cost_factor=1.0,
        noise=1.0,
        day=0,
        segment="calibration",
    )


def _queue_free_ms(runtime, target, n: int = 30) -> float:
    """p95 sequential request latency through an idle target (ms)."""
    candidate_set = runtime.pool_for(build_scenario("steady").families[0])[0]
    waits = []
    for i in range(n):
        t0 = time.perf_counter()
        request = _calibration_request(runtime, i)
        result = target.answer(
            request.tenant, candidate_set.plans, env_features=request.env,
            plans_key=candidate_set.key,
        )
        waits.append(time.perf_counter() - t0)
        assert result is not None
    waits.sort()
    return 1e3 * waits[int(0.95 * (len(waits) - 1))]


def _row(report, *, queue_free_ms: float) -> dict:
    segments = report.segments
    out = report.as_dict()
    out["queue_free_ms"] = queue_free_ms
    out["worst_p99_ms"] = max(seg["p99_ms"] for seg in segments.values())
    overall = report.overall()
    out["shed_pacer_limit"] = overall["shed_reasons"].get("pacer-limit", 0)
    out["shed_deadline"] = overall["shed_reasons"].get("deadline", 0)
    out["shed_queue_full"] = overall["shed_reasons"].get("queue-full", 0) + overall[
        "shed_reasons"
    ].get("shed", 0)
    retry_hints = [
        seg["mean_retry_after_seconds"]
        for seg in segments.values()
        if seg["mean_retry_after_seconds"] is not None
    ]
    out["mean_retry_after_seconds"] = (
        sum(retry_hints) / len(retry_hints) if retry_hints else None
    )
    return out


def _timed_scenarios(capacity: float) -> list:
    """The three traffic scenarios, rated against measured capacity."""
    return [
        build_scenario("steady", rate=0.5 * capacity, duration=5.0),
        build_scenario(
            "diurnal", base_rate=0.55 * capacity, amplitude=0.7,
            period=2.0, duration=6.0,
        ),
        build_scenario(
            "bursty-skewed", on_rate=3.0 * capacity, off_rate=0.1 * capacity,
            mean_on=0.5, mean_off=0.7, duration=6.0,
        ),
    ]


def _drift_row(runtime, incumbent, target_factory) -> tuple[dict, object]:
    """One logical drift replay with a fresh lifecycle; returns (row, report)."""
    lifecycle = build_lifecycle(runtime, incumbent)
    target = target_factory(lifecycle)
    try:
        engine = ReplayEngine(
            runtime, lifecycle=lifecycle, config=ReplayConfig(mode="logical")
        )
        report = engine.run(build_scenario("drift"), target)
        return _row(report, queue_free_ms=0.0), report
    finally:
        target.close()


def test_scenario_matrix(benchmark, scenario_setup, scale):
    runtime, incumbent = scenario_setup
    max_set = max(
        len(cs.plans)
        for spec in build_scenario("steady").families
        for cs in runtime.pool_for(spec)
    )

    def run():
        rows = []

        # -- gateway: timed traffic rows through the slow, paced pipe ---------
        slow = _SlowService(CostInferenceService(incumbent), SERVICE_DELAY_S)
        config = GatewayConfig(max_coalesce_plans=max_set)
        with OptimizerGateway(slow, config=config, pacer=AdmissionPacer(PACER)) as gw:
            queue_free = _queue_free_ms(runtime, gw)
            capacity = 1e3 / queue_free
            deadline = max(4.0 * queue_free, 60.0)
            engine = ReplayEngine(
                runtime,
                config=ReplayConfig(
                    mode="timed", threads=N_THREADS, deadline_ms=deadline
                ),
            )
            for scenario in _timed_scenarios(capacity):
                report = engine.run(scenario, gw)
                rows.append(_row(report, queue_free_ms=queue_free))
        gateway_calibration = {
            "queue_free_ms": queue_free,
            "capacity_per_sec": capacity,
            "deadline_ms": deadline,
        }

        # -- gateway: logical drift row (+ determinism double-replay) ---------
        def gateway_factory(lifecycle):
            return lifecycle.serve_through_gateway()

        drift_row, drift_report = _drift_row(runtime, incumbent, gateway_factory)
        rows.append(drift_row)
        replay_row, replay_report = _drift_row(runtime, incumbent, gateway_factory)
        determinism = {
            "stream_digest_equal": (
                drift_report.stream_digest == replay_report.stream_digest
            ),
            "outcome_digest_equal": (
                drift_report.outcome_digest == replay_report.outcome_digest
            ),
            "digest": drift_report.outcome_digest,
        }

        # -- fleet: per-shard pacers under the same regimes -------------------
        fleet_rows = []
        fleet_calibration: dict = {}
        fleet_drift_row = None
        if fork_available():
            lifecycle = build_lifecycle(runtime, incumbent)
            with ServingFleet(n_workers=2, pacer_config=PACER) as fleet:
                lifecycle.attach_fleet(fleet)  # ships the incumbent
                fleet_queue_free = _queue_free_ms(runtime, fleet)
                # Two shards serve in parallel; clamp the offered-rate base
                # so open-loop schedules stay serviceable by the callers.
                fleet_capacity = min(
                    max(2e3 / fleet_queue_free, 40.0), 480.0
                )
                fleet_deadline = max(4.0 * fleet_queue_free, 50.0)
                engine = ReplayEngine(
                    runtime,
                    config=ReplayConfig(
                        mode="timed", threads=N_THREADS, deadline_ms=fleet_deadline
                    ),
                )
                for scenario in _timed_scenarios(fleet_capacity):
                    report = engine.run(scenario, fleet)
                    fleet_rows.append(_row(report, queue_free_ms=fleet_queue_free))
                pacer_states = {
                    shard: stats["state"]
                    for shard, stats in fleet.stats()["pacers"].items()
                }
            fleet_calibration = {
                "queue_free_ms": fleet_queue_free,
                "capacity_per_sec": fleet_capacity,
                "deadline_ms": fleet_deadline,
                "pacer_states": pacer_states,
            }

            # Drift through the lifecycle-attached (unpaced) fleet: the
            # retrain→canary→promote broadcast must reach the shards.
            def fleet_factory(lifecycle):
                fleet = ServingFleet(n_workers=2)
                lifecycle.attach_fleet(fleet)  # ships the incumbent
                return fleet

            fleet_drift_row, _ = _drift_row(runtime, incumbent, fleet_factory)

        return (
            rows,
            fleet_rows,
            fleet_drift_row,
            gateway_calibration,
            fleet_calibration,
            determinism,
        )

    (
        rows,
        fleet_rows,
        fleet_drift_row,
        gateway_calibration,
        fleet_calibration,
        determinism,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    all_rows = rows + fleet_rows + ([fleet_drift_row] if fleet_drift_row else [])

    print_banner("Scenario matrix: regimes × serving configs")
    table = []
    for row in all_rows:
        overall = row["overall"]
        table.append([
            row["scenario"],
            row["target"],
            row["mode"],
            f"{overall['requests']}",
            f"{overall['learned'] / max(overall['requests'], 1):.0%}",
            f"{row['worst_p99_ms']:.1f}",
            f"{row['shed_pacer_limit']}/{row['shed_deadline']}",
            f"{row['retrains']}/{row['promotes']}",
        ])
    print(format_table(
        ["scenario", "target", "mode", "req", "learned",
         "worst p99 ms", "pacer/deadline sheds", "retrain/promote"],
        table,
    ))
    print(
        f"gateway queue-free {gateway_calibration['queue_free_ms']:.1f} ms; "
        f"drift digests equal: {determinism['outcome_digest_equal']}"
    )

    artifact = {
        "scale": scale.name,
        "service_delay_ms": 1e3 * SERVICE_DELAY_S,
        "gateway_calibration": gateway_calibration,
        "fleet_calibration": fleet_calibration,
        "determinism": determinism,
        "rows": all_rows,
    }
    out_path = os.environ.get("BENCH_SCENARIOS_OUT", "BENCH_scenarios.json")
    with open(out_path, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {out_path}")

    by_key = {(row["scenario"], row["target"]): row for row in all_rows}

    # Acceptance gates (ISSUE 9).
    # Drift: exactly one retrain and one promote, flagged before retrained,
    # observable in the replay's event stream.
    drift = by_key[("drift", "gateway")]
    assert drift["retrains"] == 1 and drift["promotes"] == 1, artifact
    assert [e["kind"] for e in drift["events"]] == ["drift-flagged", "promoted"], (
        artifact
    )
    # The traffic rows never touch the lifecycle: no spurious retrains.
    for row in all_rows:
        if row["scenario"] != "drift":
            assert row["retrains"] == 0 and row["promotes"] == 0, row
    # Bit-determinism: same seed, fresh lifecycle and gateway, same digests.
    assert determinism["stream_digest_equal"], artifact
    assert determinism["outcome_digest_equal"], artifact
    # The gateway bursty row sheds at admission (pacer), not deadline churn.
    bursty_gw = by_key[("bursty-skewed", "gateway")]
    assert bursty_gw["shed_pacer_limit"] >= 1, artifact
    assert bursty_gw["shed_pacer_limit"] > bursty_gw["shed_deadline"], artifact
    assert bursty_gw["mean_retry_after_seconds"] is not None, artifact

    if fleet_rows:
        # Per-shard pacers under skewed overload: worst-regime p99 within
        # 2× the steady row's (floored at the measured queue-free latency —
        # sub-millisecond baselines are noise, not a standard).
        steady_fleet = by_key[("steady", "fleet")]
        bursty_fleet = by_key[("bursty-skewed", "fleet")]
        floor = max(
            steady_fleet["worst_p99_ms"], fleet_calibration["queue_free_ms"]
        )
        assert bursty_fleet["worst_p99_ms"] <= 2.0 * floor, artifact
        assert bursty_fleet["shed_pacer_limit"] >= 1, artifact
        assert bursty_fleet["shed_pacer_limit"] > bursty_fleet["shed_deadline"], (
            artifact
        )
        assert bursty_fleet["mean_retry_after_seconds"] is not None, artifact
        # Drift promotes roll through the whole fleet, too.
        assert fleet_drift_row["retrains"] == 1, artifact
        assert fleet_drift_row["promotes"] == 1, artifact
