"""Tests for the scenario engine (repro.workload).

Covers:

(a) statistical properties of the arrival processes — fixed-seed
    determinism, Poisson rate/CV, diurnal period recovery from binned
    counts, heavy-tailed burstiness (CV ≫ 1), Zipf tail exponent;
(b) regime events and stream generation — segment labelling, drift
    compounding, env clipping, skew flips, schema growth, mix switching,
    and bit-identical stream digests for a fixed seed;
(c) the replay engine end-to-end — the drift scenario must trip the
    DriftMonitor, retrain, and canary-promote exactly once, while the
    steady scenario must not retrain at all; logical replays must be
    bit-deterministic across fresh runtimes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.pool import fork_available
from repro.workload import (
    DiurnalArrivals,
    FamilySpec,
    FleetTarget,
    GatewayTarget,
    MarkovModulatedArrivals,
    PoissonArrivals,
    RegimeEvent,
    RegimeState,
    ReplayConfig,
    ReplayEngine,
    Scenario,
    ScenarioRuntime,
    ZipfTenants,
    build_lifecycle,
    build_scenario,
    interarrival_cv,
    list_scenarios,
    scenario_steady,
)

POOLS = {"scan": 5, "join": 5, "report": 5}
needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork")
ENV = (0.5, 0.1, 0.4, 0.5)


# -- arrivals -------------------------------------------------------------------


class TestArrivalProcesses:
    def test_fixed_seed_determinism(self):
        for process in (
            PoissonArrivals(50.0),
            DiurnalArrivals(40.0, amplitude=0.7, period_seconds=4.0),
            MarkovModulatedArrivals(
                100.0, off_rate=5.0, mean_on_seconds=0.5, pareto_shape=1.6
            ),
        ):
            a = process.sample(20.0, np.random.default_rng(5))
            b = process.sample(20.0, np.random.default_rng(5))
            assert np.array_equal(a, b)
            c = process.sample(20.0, np.random.default_rng(6))
            assert not np.array_equal(a, c)

    def test_poisson_rate_and_cv(self):
        times = PoissonArrivals(100.0).sample(50.0, np.random.default_rng(1))
        assert len(times) == pytest.approx(5000, rel=0.05)
        assert np.all(times >= 0.0) and np.all(times < 50.0)
        assert np.all(np.diff(times) > 0.0)
        # Exponential gaps: CV of inter-arrivals ≈ 1.
        assert interarrival_cv(times) == pytest.approx(1.0, abs=0.1)

    def test_diurnal_period_recovery(self):
        period = 8.0
        process = DiurnalArrivals(60.0, amplitude=0.8, period_seconds=period)
        times = process.sample(64.0, np.random.default_rng(2))
        # Bin counts, then find the dominant nonzero frequency: it must be
        # the injected cycle (8 cycles over the 64 s horizon).
        counts, _ = np.histogram(times, bins=256, range=(0.0, 64.0))
        spectrum = np.abs(np.fft.rfft(counts - counts.mean()))
        dominant = int(np.argmax(spectrum[1:])) + 1
        recovered_period = 64.0 / dominant
        assert recovered_period == pytest.approx(period, rel=0.05)

    def test_diurnal_respects_intensity_bounds(self):
        process = DiurnalArrivals(40.0, amplitude=0.5, period_seconds=10.0)
        lam = process.intensity(np.linspace(0.0, 10.0, 101))
        assert np.all(lam >= 40.0 * 0.5 - 1e-9)
        assert np.all(lam <= 40.0 * 1.5 + 1e-9)

    def test_bursty_cv_well_above_poisson(self):
        process = MarkovModulatedArrivals(
            200.0,
            off_rate=2.0,
            mean_on_seconds=0.4,
            mean_off_seconds=0.8,
            pareto_shape=1.6,
        )
        times = process.sample(120.0, np.random.default_rng(3))
        cv = interarrival_cv(times)
        assert cv > 1.8  # heavy-tailed on/off: far burstier than Poisson

    def test_pareto_dwell_mean_matches_request(self):
        process = MarkovModulatedArrivals(
            10.0, mean_on_seconds=2.0, pareto_shape=1.8
        )
        rng = np.random.default_rng(4)
        draws = [process._on_dwell(rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(10.0, amplitude=1.0)
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(10.0, pareto_shape=1.0)


class TestZipfTenants:
    def test_tail_exponent_recovered_from_pmf(self):
        s = 1.3
        tenants = ZipfTenants(64, s=s)
        pmf = tenants.pmf()
        ranks = np.arange(1, 65, dtype=np.float64)
        slope, _ = np.polyfit(np.log(ranks), np.log(pmf), 1)
        assert slope == pytest.approx(-s, abs=0.01)

    def test_sampled_frequencies_follow_the_tail(self):
        s = 1.1
        tenants = ZipfTenants(32, s=s)
        rng = np.random.default_rng(7)
        ranks = tenants.sample_ranks(60_000, rng)
        counts = np.bincount(ranks, minlength=32).astype(np.float64)
        head = np.arange(1, 9, dtype=np.float64)  # fit the well-sampled head
        slope, _ = np.polyfit(np.log(head), np.log(counts[:8] / counts.sum()), 1)
        assert slope == pytest.approx(-s, abs=0.15)

    def test_flip_reverses_the_mapping(self):
        tenants = ZipfTenants(8, s=1.0, prefix="t")
        assert tenants.name(0) == "t-0"
        assert tenants.name(0, flipped=True) == "t-7"
        assert tenants.name(7, flipped=True) == "t-0"


# -- regimes + streams ----------------------------------------------------------


class TestRegimes:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            RegimeEvent(at=1.0, kind="comet-strike")
        with pytest.raises(ValueError):
            RegimeEvent(at=-1.0, kind="stats-drift")
        with pytest.raises(ValueError):
            RegimeEvent(at=1.0, kind="stats-drift", cost_factor=0.0)

    def test_state_folds_events(self):
        state = RegimeState(env=(0.5, 0.5, 0.9, 0.5))
        state.apply(RegimeEvent(at=1.0, kind="stats-drift", cost_factor=2.0))
        state.apply(
            RegimeEvent(
                at=2.0,
                kind="env-shift",
                cost_factor=1.5,
                env_delta=(0.2, -0.6, 0.2, 0.0),
            )
        )
        assert state.cost_factor == pytest.approx(3.0)  # drift compounds
        assert state.env == pytest.approx((0.7, 0.0, 1.0, 0.5))  # clipped
        state.apply(RegimeEvent(at=3.0, kind="skew-flip"))
        assert state.flipped
        state.apply(RegimeEvent(at=4.0, kind="skew-flip"))
        assert not state.flipped
        state.apply(
            RegimeEvent(at=5.0, kind="schema-growth", day_jump=3, mix={"scan": 1.0})
        )
        assert state.day == 3 and state.mix == {"scan": 1.0}


class TestScenarioStreams:
    def test_stream_digest_is_bit_deterministic(self):
        scenario = build_scenario("drift")
        a = scenario.stream(POOLS, env=ENV)
        b = scenario.stream(POOLS, env=ENV)
        assert a.digest() == b.digest()
        assert len(a) == len(b) > 100
        other = build_scenario("drift", seed=99).stream(POOLS, env=ENV)
        assert other.digest() != a.digest()

    def test_segments_and_regime_snapshots(self):
        scenario = build_scenario("drift", duration=10.0, cost_factor=4.0)
        stream = scenario.stream(POOLS, env=ENV)
        labels = [label for label, _, _ in stream.segments()]
        assert labels == ["steady", "drifted"]
        for request in stream.requests:
            if request.segment == "steady":
                assert request.cost_factor == 1.0
            else:
                assert request.cost_factor == 4.0
                assert request.t >= 3.0

    def test_skew_flip_changes_tenants_not_times(self):
        flipped = build_scenario("bursty-skewed", duration=4.0)
        stream = flipped.stream(POOLS, env=ENV)
        pre = {r.tenant for r in stream.requests if r.segment == "steady"}
        post = {r.tenant for r in stream.requests if r.segment != "steady"}
        assert pre and post
        # The hot head of the Zipf distribution swaps ends on the flip.
        n = flipped.tenants.n
        assert f"tenant-0" in pre and f"tenant-{n-1}" in post

    def test_schema_growth_introduces_new_family_and_day(self):
        scenario = build_scenario("schema-growth")
        stream = scenario.stream({**POOLS, "growth": 5}, env=ENV)
        grown = [r for r in stream.requests if r.segment == "grown"]
        assert grown
        assert {r.day for r in stream.requests} == {0, 3}
        assert any(r.family == "growth" for r in grown)
        assert all(r.family != "growth" for r in stream.requests if r.segment == "steady")

    def test_steady_builder_routes_the_legacy_workload(self):
        scenario = scenario_steady()
        assert scenario.events == ()
        assert {f.name for f in scenario.families} == {"scan", "join", "report"}
        stream = scenario.stream(POOLS, env=ENV)
        assert all(r.cost_factor == 1.0 and r.segment == "steady" for r in stream.requests)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(
                name="bad",
                description="",
                duration_seconds=0.0,
                arrivals=PoissonArrivals(10.0),
                tenants=ZipfTenants(4),
            )
        with pytest.raises(ValueError):
            Scenario(
                name="bad-mix",
                description="",
                duration_seconds=1.0,
                arrivals=PoissonArrivals(10.0),
                tenants=ZipfTenants(4),
                events=(
                    RegimeEvent(at=0.5, kind="schema-growth", mix={"nope": 1.0}),
                ),
            )
        with pytest.raises(KeyError):
            build_scenario("no-such-scenario")

    def test_registry_lists_all_builders(self):
        names = [name for name, _ in list_scenarios()]
        assert {"steady", "diurnal", "bursty-skewed", "drift"} <= set(names)


# -- replay end-to-end ----------------------------------------------------------


@pytest.fixture(scope="module")
def runtime():
    return ScenarioRuntime(seed=7)


@pytest.fixture(scope="module")
def incumbent(runtime):
    return runtime.train_incumbent(epochs=10)


class TestReplayEngine:
    def test_runtime_pools_have_steering_headroom(self, runtime):
        pools = runtime.pools(build_scenario("steady").families)
        assert set(pools) == {"scan", "join", "report"}
        sets = [cs for pool in pools.values() for cs in pool]
        assert all(len(cs.plans) >= 2 for cs in sets)
        assert any(cs.best_index != cs.default_index for cs in sets)
        # Every family matched project templates: none fell back to all of them.
        assert not runtime.degraded_families

    def test_logical_replay_is_bit_deterministic(self, runtime, incumbent):
        from repro.gateway import OptimizerGateway
        from repro.serving.service import CostInferenceService

        engine = ReplayEngine(runtime, config=ReplayConfig(mode="logical"))
        scenario = build_scenario("steady")
        reports = []
        for _ in range(2):
            with OptimizerGateway(CostInferenceService(incumbent)) as gateway:
                reports.append(engine.run(scenario, GatewayTarget(gateway)))
        assert reports[0].outcome_digest == reports[1].outcome_digest
        assert reports[0].stream_digest == reports[1].stream_digest
        assert reports[0].n_requests == len(scenario.stream(POOLS, env=runtime.env_r))

    @pytest.mark.parametrize("front_end", ["gateway", pytest.param("fleet", marks=needs_fork)])
    def test_drift_scenario_retrains_and_promotes_exactly_once(
        self, runtime, incumbent, front_end
    ):
        def serve(lifecycle):
            if front_end == "gateway":
                gateway = lifecycle.serve_through_gateway()
                return GatewayTarget(gateway), gateway.close
            from repro.fleet import ServingFleet

            fleet = ServingFleet(n_workers=2)
            lifecycle.attach_fleet(fleet)  # ships the incumbent
            return FleetTarget(fleet), fleet.close

        def replay():
            lifecycle = build_lifecycle(runtime, incumbent)
            target, close = serve(lifecycle)
            try:
                engine = ReplayEngine(
                    runtime, lifecycle=lifecycle, config=ReplayConfig(mode="logical")
                )
                version_before = lifecycle.registry.current.version
                report = engine.run(build_scenario("drift"), target)
                return report, lifecycle.registry.current.version - version_before
            finally:
                close()

        report, versions_added = replay()
        assert report.retrains == 1
        assert report.promotes == 1
        kinds = [e.kind for e in report.events]
        assert kinds == ["drift-flagged", "promoted"]
        flagged, promoted = report.events
        assert "q-error" in flagged.detail
        assert flagged.at >= 3.0  # the drift is injected at t=3
        assert promoted.at > flagged.at
        assert versions_added == 1
        # The promote is visible to the serving path: the front end now
        # reports the candidate's weights version.
        assert report.segments["drifted"]["learned"] > 0
        # The retrain is part of the replay: a fresh lifecycle and gateway
        # from the same seed reproduce the stream and every outcome.
        again, _ = replay()
        assert again.stream_digest == report.stream_digest
        assert again.outcome_digest == report.outcome_digest

    def test_steady_scenario_never_retrains(self, runtime, incumbent):
        lifecycle = build_lifecycle(runtime, incumbent)
        gateway = lifecycle.serve_through_gateway()
        try:
            engine = ReplayEngine(
                runtime, lifecycle=lifecycle, config=ReplayConfig(mode="logical")
            )
            report = engine.run(build_scenario("steady"), GatewayTarget(gateway))
            assert report.retrains == 0 and report.promotes == 0
            assert report.events == []
            assert report.segments["steady"]["learned_rate"] == 1.0
        finally:
            gateway.close()

    def test_report_is_json_serializable(self, runtime, incumbent):
        import json

        from repro.gateway import OptimizerGateway
        from repro.serving.service import CostInferenceService

        engine = ReplayEngine(runtime, config=ReplayConfig(mode="logical"))
        with OptimizerGateway(CostInferenceService(incumbent)) as gateway:
            report = engine.run(build_scenario("steady", duration=1.0), GatewayTarget(gateway))
        payload = json.dumps(report.as_dict())
        assert "outcome_digest" in payload
        assert report.overall()["requests"] == report.n_requests

    def test_replay_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(mode="teleport")

    def test_stream_rejects_unknown_pool_or_missing_env(self, runtime):
        scenario = build_scenario("steady")
        with pytest.raises(ValueError):
            scenario.stream({"scan": 5}, env=ENV)  # join/report missing
        with pytest.raises(ValueError):
            scenario.stream(POOLS)  # no env baseline anywhere
