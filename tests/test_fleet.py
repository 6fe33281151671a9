"""Tests for the sharded serving fleet: router, workers, promotes, chaos.

Fleet tests fork real worker processes and are skipped on platforms
without ``fork``; router and telemetry-merge tests run everywhere.
"""

from __future__ import annotations

import copy
import os
import select
import signal
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.core.serialization import save_predictor
from repro.evaluation.parallel import EvalTask, run_tasks
from repro.evaluation.pool import fork_available
from repro.fleet import ConsistentHashRouter, ServingFleet, merge_snapshots
from repro.fleet import fleet as fleet_module
from repro.fleet.worker import PLAN_CACHE_CAP
from repro.gateway import NativeCostFallback, OptimizerGateway
from repro.gateway.breaker import COOLDOWN_SECONDS, MIN_CALLS
from repro.obs import ObsConfig
from repro.pacing import PACER_STATE_CODES, STARTUP, AdmissionPacer, PacerConfig
from repro.pacing.pacer import STARTUP_FULL_ROUNDS
from repro.serving import fingerprint as fingerprint_module
from repro.serving.fingerprint import plan_fingerprint
from repro.serving.service import CostInferenceService

TINY = PredictorConfig(hidden_dims=(16, 12), embedding_dim=8, epochs=2, batch_size=16)
ENV = (0.5, 0.05, 0.5, 0.5)

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork")


def route_tenants_task(tenants, *, seed):
    """Module-level fork-pool task: route ``tenants`` in a child process."""
    del seed
    router = ConsistentHashRouter([f"shard-{i}" for i in range(4)])
    return router.assignment(tenants)


# -- router ---------------------------------------------------------------------


class TestRouter:
    def test_route_is_deterministic_and_total(self):
        router = ConsistentHashRouter(["a", "b", "c"])
        tenants = [f"tenant-{i}" for i in range(500)]
        first = router.assignment(tenants)
        assert first == router.assignment(tenants)
        assert set(first.values()) <= {"a", "b", "c"}
        # Every shard owns a non-trivial slice of the keyspace.
        assert set(first.values()) == {"a", "b", "c"}

    def test_membership_validation(self):
        router = ConsistentHashRouter(["a"])
        with pytest.raises(ValueError):
            router.add_shard("a")
        with pytest.raises(KeyError):
            router.remove_shard("zz")
        router.remove_shard("a")
        with pytest.raises(RuntimeError):
            router.route("t")

    @needs_fork
    def test_deterministic_across_processes(self):
        """Same assignment in a freshly forked interpreter — the property a
        ``hash()``-based ring (randomized per process) would fail."""
        tenants = [f"tenant-{i}" for i in range(200)]
        parent = route_tenants_task(tenants, seed=0)
        child = run_tasks(
            [EvalTask(key="route", fn=route_tenants_task, args=(tenants,))],
            processes=2,  # forces the fork pool even with a single task
        )["route"]
        assert parent == child

    def test_remove_remaps_only_departed_shards_tenants(self):
        shards = [f"shard-{i}" for i in range(4)]
        tenants = [f"tenant-{i}" for i in range(2000)]
        router = ConsistentHashRouter(shards)
        before = router.assignment(tenants)
        router.remove_shard("shard-2")
        after = router.assignment(tenants)
        moved = [t for t in tenants if before[t] != after[t]]
        # Exactly the departed shard's tenants move, nobody else.
        assert moved == [t for t in tenants if before[t] == "shard-2"]
        # ... and they were ~1/N of the keyspace (generous ε for hash noise).
        assert len(moved) / len(tenants) <= 1 / 4 + 0.10

    def test_join_remaps_at_most_one_nth(self):
        shards = [f"shard-{i}" for i in range(4)]
        tenants = [f"tenant-{i}" for i in range(2000)]
        router = ConsistentHashRouter(shards)
        before = router.assignment(tenants)
        router.add_shard("shard-4")
        after = router.assignment(tenants)
        moved = [t for t in tenants if before[t] != after[t]]
        # Joiners only *take* tenants; nobody moves between survivors.
        assert all(after[t] == "shard-4" for t in moved)
        assert len(moved) / len(tenants) <= 1 / 5 + 0.10

    def test_skew_bounded_under_zipf_traffic(self):
        """Zipf-popular tenants spread across shards: no shard absorbs a
        disproportionate share of request volume."""
        shards = [f"shard-{i}" for i in range(4)]
        router = ConsistentHashRouter(shards)
        n_tenants = 2000
        ranks = np.arange(1, n_tenants + 1, dtype=np.float64)
        weights = ranks ** -1.1
        weights /= weights.sum()
        load = dict.fromkeys(shards, 0.0)
        for i, w in enumerate(weights):
            load[router.route(f"tenant-{i}")] += w
        mean = 1.0 / len(shards)
        assert max(load.values()) <= 2.0 * mean
        # Plain tenant-count balance too (keyspace, unweighted).
        counts = dict.fromkeys(shards, 0)
        for i in range(n_tenants):
            counts[router.route(f"tenant-{i}")] += 1
        assert max(counts.values()) / (n_tenants / len(shards)) <= 1.6


# -- telemetry merge ------------------------------------------------------------


class TestMergeSnapshots:
    def _snap(self, reqs, p99, count):
        """A worker's ``snapshot(include_samples=True)``: ``count``
        observations from 0.001 up to ``p99``."""
        samples = [0.001] * (count - 1) + [p99] if count else []
        return {
            "counters": {"requests_total": reqs},
            "gauges": {
                "queue_depth": 1.0,
                "model_weights_version": float(reqs),
            },
            "histograms": {
                "request_latency_seconds": {
                    "count": count, "sum": 0.1 * count, "min": 0.001 if count else 0.0,
                    "max": p99, "mean": 0.1 if count else 0.0,
                    "p50": p99 / 2, "p95": p99, "p99": p99, "samples": samples,
                }
            },
        }

    def test_counters_sum_and_codes_take_max(self):
        merged = merge_snapshots([self._snap(10, 0.2, 5), self._snap(7, 0.8, 3)])
        assert merged["shards"] == 2
        assert merged["counters"]["requests_total"] == 17
        assert merged["gauges"]["queue_depth"] == 2.0
        # A code, not an amount: the newest version — never a sum.
        assert merged["gauges"]["model_weights_version"] == 10.0
        hist = merged["histograms"]["request_latency_seconds"]
        assert hist["count"] == 8
        assert hist["sum"] == pytest.approx(0.8)
        assert hist["min"] == 0.001
        assert hist["max"] == 0.8

    def test_empty_shard_does_not_poison_min(self):
        merged = merge_snapshots([self._snap(0, 0.0, 0), self._snap(5, 0.4, 5)])
        hist = merged["histograms"]["request_latency_seconds"]
        assert hist["count"] == 5
        assert hist["min"] == 0.001

    def _sampled(self, samples):
        ordered = sorted(samples)
        n = len(ordered)
        return {
            "counters": {},
            "gauges": {},
            "histograms": {
                "lat": {
                    "count": n, "sum": float(sum(ordered)),
                    "min": ordered[0], "max": ordered[-1],
                    "mean": sum(ordered) / n,
                    "p50": ordered[int(0.50 * (n - 1))],
                    "p95": ordered[int(0.95 * (n - 1))],
                    "p99": ordered[int(0.99 * (n - 1))],
                    "samples": ordered,
                }
            },
        }

    def test_exact_quantiles_when_all_shards_ship_samples(self):
        # Shard A holds 0..49, shard B holds 50..99: the max-across-shards
        # bound would report p50 = 74 (B's median); the exact merge reports
        # the true fleet median, 49.
        a, b = list(range(50)), list(range(50, 100))
        merged = merge_snapshots([self._sampled(a), self._sampled(b)])
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 100
        assert hist["p50"] == 49
        assert hist["p95"] == 94
        assert hist["p99"] == 98
        # The merged reservoir rides along, so a merge of merges is exact.
        assert hist["samples"] == sorted(a + b)
        again = merge_snapshots([merged, self._sampled([1000])])
        assert again["histograms"]["lat"]["count"] == 101
        assert again["histograms"]["lat"]["max"] == 1000

    def test_empty_shard_does_not_break_exact_merge(self):
        empty = {
            "counters": {}, "gauges": {},
            "histograms": {"lat": {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }},
        }
        # A histogram no request ever observed, its empty reservoir riding
        # along.
        unobserved = copy.deepcopy(empty)
        unobserved["histograms"]["lat"]["samples"] = []
        for quiet in (empty, unobserved):
            merged = merge_snapshots([quiet, self._sampled([1, 2, 3])])
            hist = merged["histograms"]["lat"]
            assert hist["count"] == 3
            assert hist["p99"] == 2  # nearest rank: index int(0.99 * 2)
            assert hist["max"] == 3
            assert hist["samples"] == [1, 2, 3]
        hist = merge_snapshots([unobserved, unobserved])["histograms"]["lat"]
        assert (hist["count"], hist["p50"], hist["max"]) == (0, 0.0, 0.0)


# -- the fleet itself -----------------------------------------------------------


@pytest.fixture(scope="module")
def checkpointed(project_with_history, tmp_path_factory):
    """A trained tiny predictor written as a registry-style checkpoint,
    plus the plans it was trained on."""
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    root = tmp_path_factory.mktemp("fleet-ckpt")
    path = save_predictor(
        predictor, root / "v1.npz", environment_features=ENV
    )
    return path, predictor, plans


def _long_warm_list(project, n=96):
    """``n`` plans: a warm list of the size that once forked an encode pool."""
    from repro.core.explorer import PlanExplorer

    explorer = PlanExplorer(project.optimizer)
    plans = [r.plan for r in project.repository.records]
    while len(plans) < n:
        plans.extend(explorer.candidates(project.sample_query(4), top_k=5))
    return plans[:n]


def _paced_front_end(kind, path):
    """A paced ``"gateway"`` or one-shard ``"fleet"`` over ``path``'s model
    (none when ``None``): its guard, ``ask(plans)`` sending one request,
    and ``scored()`` counting the requests its scorer received."""
    if kind == "gateway":
        service = CostInferenceService.from_checkpoint(path) if path is not None else None
        front = OptimizerGateway(service, pacer=AdmissionPacer(PacerConfig()))
        return types.SimpleNamespace(
            front=front,
            guard=front.guard,
            ask=lambda plans: front.predict(plans, env_features=ENV),
            scored=lambda: front.telemetry.counter("batches_total").value,
        )
    front = ServingFleet(path, n_workers=1, pacer_config=PacerConfig())
    return types.SimpleNamespace(
        front=front,
        guard=front._workers["shard-0"].guard,
        ask=lambda plans: front.predict("t", plans, env_features=ENV),
        scored=lambda: front.stats()["shards"]["shard-0"]["counters"]["requests_total"],
    )


@needs_fork
class TestServingFleet:
    def test_matches_direct_service(self, checkpointed):
        path, _predictor, plans = checkpointed
        direct = CostInferenceService.from_checkpoint(path)
        assert direct.environment_features == ENV
        want = direct.predict(plans[:8], env_features=ENV)
        with ServingFleet(path, n_workers=2) as fleet:
            for tenant in ("alpha", "beta", "gamma"):
                got = fleet.predict(tenant, plans[:8], env_features=ENV)
                assert got.source == "learned" and got.reason == "ok"
                np.testing.assert_allclose(got.costs, want, rtol=1e-5)

    def test_encode_once_framing_and_sweep(self, checkpointed):
        path, _predictor, plans = checkpointed
        direct = CostInferenceService.from_checkpoint(path)
        env2 = (0.2, 0.1, 0.3, 0.4)
        with ServingFleet(path, n_workers=2) as fleet:
            first = fleet.predict("t0", plans[:6], env_features=ENV, plans_key="s0")
            again = fleet.predict("t0", plans[:6], env_features=ENV, plans_key="s0")
            np.testing.assert_allclose(again.costs, first.costs, rtol=1e-6)
            # A second environment is a second request on the same key.
            second = fleet.predict("t0", plans[:6], env_features=env2, plans_key="s0")
            np.testing.assert_allclose(
                second.costs, direct.predict(plans[:6], env_features=env2),
                rtol=1e-5,
            )
            # Unknown key with plans=None triggers the need-plans resend:
            # route a tenant to the *other* shard and reuse the key there.
            shard0 = fleet.router.route("t0")
            other = next(t for t in ("x1", "x2", "x3", "x4", "x5", "x6")
                         if fleet.router.route(t) != shard0)
            cross = fleet.predict(other, plans[:6], env_features=ENV, plans_key="s0")
            np.testing.assert_allclose(cross.costs, first.costs, rtol=1e-6)

    def test_staged_promote_converges_with_warm_caches(self, checkpointed):
        path, predictor, plans = checkpointed
        import copy

        candidate = copy.deepcopy(predictor)
        candidate.weights_version = 9
        hot = plans[:6]
        with ServingFleet(path, n_workers=2) as fleet:
            # Prime both shards with traffic so their stats exist.
            tenants = ["a", "b", "c", "d", "e", "f"]
            for t in tenants:
                fleet.predict(t, hot, env_features=ENV, plans_key="hot")
            path2 = path.parent / "v2.npz"
            save_predictor(candidate, path2, environment_features=ENV)
            acked = fleet.promote(path2, warm=[(p, ENV) for p in hot])
            assert set(acked) == {"shard-0", "shard-1"}
            assert set(acked.values()) == {9}

            # Zero cold misses on the first post-promote pass for warmed
            # plans: the swap cleared both cache tiers, the warm list
            # refilled them, so the pass below is all prediction-cache hits.
            before = {s: snap["gauges"] for s, snap in fleet.stats()["shards"].items()}
            for t in tenants:
                r = fleet.predict(t, hot, env_features=ENV, plans_key="hot")
                assert r.source == "learned"
                assert r.model_version == 9
            after = {s: snap["gauges"] for s, snap in fleet.stats()["shards"].items()}
            for shard in acked:
                miss_delta = (
                    after[shard]["serving_prediction_cache_misses"]
                    - before[shard]["serving_prediction_cache_misses"]
                )
                hit_delta = (
                    after[shard]["serving_prediction_cache_hits"]
                    - before[shard]["serving_prediction_cache_hits"]
                )
                assert miss_delta == 0
                assert hit_delta > 0

    def test_promote_with_long_warm_list_keeps_workers_alive(
        self, checkpointed, project_with_history
    ):
        # A warm list of >= 64 plans used to fork an encode pool inside the
        # daemonic worker, which killed it; the service has no pool any more.
        path, predictor, _plans = checkpointed
        import copy

        warm_plans = _long_warm_list(project_with_history)
        candidate = copy.deepcopy(predictor)
        candidate.weights_version = 9
        path3 = path.parent / "v3.npz"
        save_predictor(candidate, path3, environment_features=ENV)
        with ServingFleet(path, n_workers=2) as fleet:
            acked = fleet.promote(path3, warm=[(p, ENV) for p in warm_plans])
            assert acked == {"shard-0": 9, "shard-1": 9}
            assert fleet.live_workers() == ["shard-0", "shard-1"]
            seeds = fleet.ping()
            assert set(seeds) == {"shard-0", "shard-1"}
            assert seeds["shard-0"] != seeds["shard-1"]  # derived per worker
            for shard in fleet.stats()["shards"].values():
                assert shard["gauges"]["serving_warmed_plans"] == 96

    def test_worker_crash_sheds_remaps_and_keeps_serving(self, checkpointed):
        path, _predictor, plans = checkpointed
        with ServingFleet(path, n_workers=3) as fleet:
            victim_tenant = "crashy"
            victim = fleet.router.route(victim_tenant)
            survivor_tenant = next(
                f"t{i}" for i in range(50) if fleet.router.route(f"t{i}") != victim
            )
            tenants = [victim_tenant] + [f"t{i}" for i in range(50)]
            owners = fleet.router.assignment(tenants)
            fleet.crash_worker(victim)
            # The crashed shard's next request sheds to the parent fallback...
            shed = fleet.predict(victim_tenant, plans[:4], env_features=ENV)
            assert shed.source == "fallback" and shed.reason == "worker-crash"
            assert np.isfinite(shed.costs).all()
            # ...then its tenants remap to a survivor and serve learned again.
            remapped = fleet.predict(victim_tenant, plans[:4], env_features=ENV)
            assert remapped.source == "learned"
            assert fleet.router.route(victim_tenant) != victim
            # Other shards' tenants never noticed: exactly the dead shard's moved.
            fine = fleet.predict(survivor_tenant, plans[:4], env_features=ENV)
            assert fine.source == "learned"
            now = fleet.router.assignment(tenants)
            assert {t for t in tenants if now[t] != owners[t]} == {
                t for t in tenants if owners[t] == victim
            }
            # The event is visible in fleet telemetry and the merged view.
            stats = fleet.stats()
            assert stats["workers_alive"] == 2
            assert stats["fleet"]["counters"]["worker_failures_total"] == 1
            assert stats["fleet"]["counters"]["fallback_worker_crash_total"] == 1
            assert victim not in stats["shards"]
            assert stats["merged"]["shards"] == 2  # the merge counts survivors

    def test_bad_checkpoint_fails_the_promote_not_the_shards(self, checkpointed, tmp_path):
        path, predictor, plans = checkpointed
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(path.read_bytes()[:200])
        with ServingFleet(path, n_workers=2) as fleet:
            for bad in ("/nonexistent/v9.npz", truncated):
                with pytest.raises(RuntimeError, match=r"shard-0.*(Error|BadZipFile)"):
                    fleet.promote(bad)
                assert fleet.live_workers() == ["shard-0", "shard-1"]
                assert set(fleet.ping()) == {"shard-0", "shard-1"}
                assert set(fleet.router.shards) == {"shard-0", "shard-1"}
                for i in range(12):
                    r = fleet.predict(f"t{i}", plans[:4], env_features=ENV)
                    assert r.source == "learned"
                    assert r.model_version == predictor.weights_version
            counters = fleet.stats()["fleet"]["counters"]
            assert "worker_failures_total" not in counters
            assert "promotes_total" not in counters

    def test_plan_key_memory_mirrors_the_workers_lru(self, checkpointed):
        path, _predictor, plans = checkpointed
        direct = CostInferenceService.from_checkpoint(path)
        n_keys = PLAN_CACHE_CAP + 88
        sets = [plans[k % 60 : k % 60 + 3] for k in range(n_keys)]
        with ServingFleet(path, n_workers=1) as fleet:
            handle = fleet._workers["shard-0"]
            for _cycle in range(2):
                # Second cycle: every key was evicted on both sides by the
                # time it comes round again, so its plans ride the first frame.
                for k in range(n_keys):
                    got = fleet.predict("t", sets[k], env_features=ENV, plans_key=k)
                    assert got.source == "learned"
                    if k % 50 == 0:
                        np.testing.assert_array_equal(
                            got.costs, direct.predict(sets[k], env_features=ENV)
                        )
                assert len(handle.sent_keys) == PLAN_CACHE_CAP
                assert list(handle.sent_keys)[-1] == n_keys - 1
            counters = fleet.telemetry.snapshot()["counters"]
            assert "plans_resent_total" not in counters
            # The backstop still works when the mirror is wrong.
            handle.sent_keys["ghost"] = None
            got = fleet.predict("t", sets[0], env_features=ENV, plans_key="ghost")
            assert got.source == "learned"
            np.testing.assert_array_equal(
                got.costs, direct.predict(sets[0], env_features=ENV)
            )
            assert fleet.telemetry.snapshot()["counters"]["plans_resent_total"] == 1

    def test_a_shard_never_reads_the_parents_plan_ids(self, checkpointed, monkeypatch):
        """Plan ids are minted per process: after the fork, the shard's ids
        for set C and the parent's for set B are the same ints.  Were B's
        ids pickled along, the shard would answer B with C's cached costs."""
        monkeypatch.setattr(fingerprint_module, "_interned", {})
        path, _predictor, plans = checkpointed
        set_c = [p.clone() for p in plans[10:14]]
        set_b = [p.clone() for p in plans[20:24]]
        with ServingFleet(path, n_workers=1) as fleet:
            assert fleet.predict("t", set_c, env_features=ENV).source == "learned"
            parent = CostInferenceService.from_checkpoint(path)
            want = parent.predict(set_b, env_features=ENV)
            got = fleet.predict("t", set_b, env_features=ENV)
        assert got.source == "learned"
        np.testing.assert_array_equal(got.costs, want)

    def test_stalled_worker_times_out_sheds_and_is_killed(self, checkpointed):
        path, _predictor, plans = checkpointed
        with ServingFleet(path, n_workers=2, rpc_timeout=0.3) as fleet:
            tenant = "stalled"
            victim = fleet.router.route(tenant)
            handle = fleet._workers[victim]
            assert fleet.predict(tenant, plans[:4], env_features=ENV).source == "learned"
            os.kill(handle.process.pid, signal.SIGSTOP)
            started = time.monotonic()
            shed = fleet.predict(tenant, plans[:4], env_features=ENV)
            elapsed = time.monotonic() - started
            assert shed.source == "fallback" and shed.reason == "worker-crash"
            assert 0.3 <= elapsed < 1.5
            # The parent gave up on it, so it is gone — not a stopped orphan
            # holding a serving stack that close() could not reap either.
            assert not handle.process.is_alive()
            assert handle.process.exitcode == -signal.SIGKILL
            assert fleet.live_workers() == [s for s in ("shard-0", "shard-1") if s != victim]
            assert fleet.router.route(tenant) != victim
            assert fleet.predict(tenant, plans[:4], env_features=ENV).source == "learned"

    def test_crash_is_seen_on_the_pipe_not_by_waiting_out_a_slice(self, checkpointed):
        path, _predictor, plans = checkpointed
        with ServingFleet(path, n_workers=2) as fleet:
            tenant = "crashy"
            handle = fleet._workers[fleet.router.route(tenant)]
            frames = _CountingSocket.install(fleet)
            fleet.crash_worker(handle.name)
            # Straight after the crash frame: the request is usually written
            # before the worker dies, and the hang-up ends the read at once.
            shed = fleet.predict(tenant, plans[:4], env_features=ENV)
            assert shed.source == "fallback" and shed.reason == "worker-crash"
            assert frames.empty_slices == 0, "an empty 50 ms slice was waited out"
            assert not handle.process.is_alive()

    def test_concurrent_tenants_across_shards(self, checkpointed):
        path, _predictor, plans = checkpointed
        direct = CostInferenceService.from_checkpoint(path)
        want = direct.predict(plans[:5], env_features=ENV)
        errors: list = []
        with ServingFleet(path, n_workers=2) as fleet:
            def drive(tenant):
                try:
                    for _ in range(5):
                        r = fleet.predict(tenant, plans[:5], env_features=ENV,
                                          plans_key="shared")
                        np.testing.assert_allclose(r.costs, want, rtol=1e-5)
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(f"tenant-{i}",))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            merged = fleet.stats()["merged"]
            assert merged["counters"]["requests_total"] >= 40

    def test_tenants_partition_the_prediction_cache_across_shards(self, checkpointed):
        # Each tenant scores its own candidate sets under its own environment,
        # twice over: every (plan, env) key is cached on exactly one shard,
        # so the fleet's cache holds N shards' worth of distinct keys.
        path, _predictor, plans = checkpointed
        tenants = [f"tenant-{i}" for i in range(12)]
        envs = {t: (0.3 + 0.05 * i, 0.05, 0.5, 0.5) for i, t in enumerate(tenants)}
        stream = [
            (t, plans[(5 * i + k) % 60 : (5 * i + k) % 60 + 5])
            for i, t in enumerate(tenants)
            for k in range(3)
        ]
        keys = {(plan_fingerprint(p), envs[t]) for t, ps in stream for p in ps}
        with ServingFleet(path, n_workers=2) as fleet:
            for _ in range(2):
                for t, ps in stream:
                    assert fleet.predict(t, ps, env_features=envs[t]).source == "learned"
            sizes = [
                shard["gauges"]["serving_prediction_cache_size"]
                for shard in fleet.stats()["shards"].values()
            ]
        assert len(sizes) == 2 and min(sizes) > 0
        assert sum(sizes) == len(keys)

    def test_close_is_idempotent_and_refuses_after(self, checkpointed):
        path, _predictor, plans = checkpointed
        fleet = ServingFleet(path, n_workers=2)
        assert fleet.predict("t", plans[:3], env_features=ENV).source == "learned"
        fleet.close()
        fleet.close()
        late = fleet.predict("t", plans[:3], env_features=ENV)
        assert late.source == "fallback" and late.reason == "closed"

    def test_parent_exports_its_shard_pacers_gauges(self, checkpointed):
        path, _predictor, plans = checkpointed
        # Too few samples to leave STARTUP (the first sets the rate to
        # beat), so the gauges and stats() read one operating point.
        with ServingFleet(path, n_workers=1, pacer_config=PacerConfig()) as fleet:
            for i in range(STARTUP_FULL_ROUNDS):
                assert fleet.predict(f"t{i}", plans[:4], env_features=ENV).source == "learned"
            stats = fleet.stats()
            gauges, pacer = stats["fleet"]["gauges"], stats["pacers"]["shard-0"]
            assert gauges["pacer_shard_0_state"] == PACER_STATE_CODES[pacer["state"]]
            assert gauges["pacer_shard_0_inflight"] == pacer["inflight"] == 0
            assert gauges["pacer_shard_0_inflight_cap"] == pacer["inflight_cap"]
            assert gauges["pacer_shard_0_btl_rate"] == pacer["btl_rate"] > 0.0
            assert gauges["pacer_shard_0_min_latency_seconds"] == pacer["min_latency_seconds"]
            assert "pacer_shard_0_state" in fleet.telemetry.snapshot()["gauges"]

    def test_delivery_sample_excludes_the_wait_for_the_shard_lock(self, checkpointed):
        """A paced shard's delivery sample is its exchange, not the queue in
        front of it: a caller held 0.3 s behind the shard's lock must not
        teach the pacer a 0.3 s queue-free latency."""
        path, _predictor, plans = checkpointed
        with ServingFleet(path, n_workers=1, pacer_config=PacerConfig()) as fleet:
            fleet.ping()  # the worker has booted
            handle = fleet._workers["shard-0"]
            results = []
            with handle.lock:
                caller = threading.Thread(
                    target=lambda: results.append(
                        fleet.predict("t", plans[:4], env_features=ENV)
                    )
                )
                caller.start()
                time.sleep(0.3)
            caller.join(timeout=30.0)
            assert not caller.is_alive()
            assert results[0].source == "learned"
            pacer = fleet.stats()["pacers"]["shard-0"]
            assert pacer["delivered_total"] == 1
            assert pacer["min_latency_seconds"] < 0.1

    def test_both_front_ends_answer_refusals_alike(self, checkpointed):
        """A pacer-limit shed and a closed refusal give the same answer and
        the same counter increments through a gateway and through the fleet
        parent; a learned fleet answer is recorded as a gateway's is.  Both
        keep their guard's ledger alike: a refusal after admission hands
        back the half-open probe and the pacer slot, and a new model resets
        the guard."""
        path, predictor, plans = checkpointed

        def refusal(front, predict, pacer=None):
            held = 0
            while pacer is not None and pacer.try_admit():
                held += 1  # fill the pipe: the next request is refused
            before = front.telemetry.snapshot()["counters"]
            result = predict()
            after = front.telemetry.snapshot()["counters"]
            if held:
                pacer.release(held)
            delta = {
                name: value - before.get(name, 0.0)
                for name, value in after.items()
                if value != before.get(name, 0.0)
            }
            delta.pop("plans_total", None)  # the gateway's own admission tally
            return (result.source, result.reason, result.retry_after is None), delta

        def half_open(guard):
            """Trip ``guard``'s breaker and let its cooldown pass."""
            clock = types.SimpleNamespace(t=0.0)
            guard.breaker.clock = lambda: clock.t
            for _ in range(MIN_CALLS):
                guard.breaker.record_failure()
            clock.t = COOLDOWN_SECONDS
            assert guard.breaker.state == "half-open"

        def ledger(guard):
            """Breaker state, half-open probes out, pacer slots out."""
            return guard.breaker.state, guard.breaker._probes_issued, guard.pacer.inflight

        def renewed(guard, swap):
            half_open(guard)
            resets = guard.pacer.resets_total
            swap()
            assert guard.breaker.state == "closed"
            assert (guard.pacer.state, guard.pacer.resets_total) == (STARTUP, resets + 1)

        service = CostInferenceService.from_checkpoint(path)
        gateway = OptimizerGateway(service, pacer=AdmissionPacer(PacerConfig()))
        fleet = ServingFleet(n_workers=1, pacer_config=PacerConfig())
        shard = fleet._workers["shard-0"].guard

        def swap_into_gateway():
            gateway.swap_predictor(predictor)

        def ask_gateway():
            return gateway.predict(plans[:4], env_features=ENV)

        def ask_fleet():
            return fleet.predict("t", plans[:4], env_features=ENV)

        try:
            # Model-less, the shard scores nothing: the probe and slot go back.
            half_open(shard)
            assert ask_fleet().reason == "no-model"
            assert ledger(shard) == ("half-open", 0, 0)
            renewed(gateway.guard, swap_into_gateway)
            renewed(shard, lambda: fleet.promote(path))

            for _ in range(3):  # measured pacers: their sheds carry Retry-After
                assert ask_gateway().source == ask_fleet().source == "learned"
            shed = refusal(gateway, ask_gateway, gateway.pacer)
            assert shed[0] == ("fallback", "pacer-limit", False)
            assert refusal(fleet, ask_fleet, shard.pacer) == shed

            before = fleet.telemetry.snapshot()
            assert ask_fleet().source == "learned"
            after = fleet.telemetry.snapshot()
            assert after["counters"]["learned_total"] == before["counters"]["learned_total"] + 1
            latency = "request_latency_seconds"
            assert after["histograms"][latency]["count"] == before["histograms"][latency]["count"] + 1

            # A full pipe refuses a half-open probe and hands it back.
            paths = ((gateway, gateway.guard, ask_gateway), (fleet, shard, ask_fleet))
            for front, guard, ask in paths:
                half_open(guard)
                assert refusal(front, ask, guard.pacer)[0] == shed[0]
                assert ledger(guard) == ("half-open", 0, 0)
            fleet.crash_worker("shard-0")
            assert ask_fleet().reason == "worker-crash"
            assert ledger(shard) == ("half-open", 0, 0)

            gateway.close()
            fleet.close()
            closed = refusal(gateway, ask_gateway)
            assert closed[0] == ("fallback", "closed", True)
            assert refusal(fleet, ask_fleet) == closed
            # The gateway admitted the request before it found itself closed.
            assert ledger(gateway.guard) == ("half-open", 0, 0)
        finally:
            gateway.close()
            fleet.close()

    @pytest.mark.parametrize("front_end", ["gateway", "fleet"])
    def test_a_model_less_request_is_answered_before_admission(self, checkpointed, front_end):
        """No model behind the path: the answer is ``no-model`` from the
        fallback, and the request takes no pacer slot, no half-open probe
        and no trip to the scorer."""
        _path, _predictor, plans = checkpointed
        end = _paced_front_end(front_end, None)
        try:
            clock = types.SimpleNamespace(t=0.0)
            breaker = end.guard.breaker
            breaker.clock = lambda: clock.t
            for _ in range(MIN_CALLS):
                breaker.record_failure()
            clock.t = COOLDOWN_SECONDS
            assert breaker.state == "half-open"
            before = breaker.stats(), breaker._probes_issued, end.guard.pacer.admitted_total
            result = end.ask(plans[:4])
            assert (result.source, result.reason) == ("fallback", "no-model")
            np.testing.assert_array_equal(
                result.costs, NativeCostFallback().predict(plans[:4], env_features=ENV)
            )
            after = breaker.stats(), breaker._probes_issued, end.guard.pacer.admitted_total
            assert after == before
            assert end.scored() == 0
        finally:
            end.front.close()

    @pytest.mark.parametrize("front_end", ["gateway", "fleet"])
    def test_an_empty_request_is_answered_without_scoring(self, checkpointed, front_end):
        """Zero plans: a learned ``ok`` with zero costs from the served
        model, admitted by nothing and scored by nothing."""
        path, _predictor, _plans = checkpointed
        end = _paced_front_end(front_end, path)
        try:
            admitted = end.guard.pacer.admitted_total
            result = end.ask([])
            assert (result.source, result.reason) == ("learned", "ok")
            assert result.costs.shape == (0,)
            served = CostInferenceService.from_checkpoint(path).weights_version
            assert result.model_version == served
            assert end.guard.pacer.admitted_total == admitted
            assert end.scored() == 0
        finally:
            end.front.close()


class _CountingSocket:
    """Stands in for a shard socket on the parent's side: counts the frames
    written (one ``sendall`` each), the reads that returned bytes, and the
    reads that came back empty at the end of a receive slice."""

    def __init__(self, sock, tally) -> None:
        self._sock = sock
        self._tally = tally

    @classmethod
    def install(cls, fleet) -> types.SimpleNamespace:
        """Wrap every live shard's socket; returns the shared tally."""
        tally = types.SimpleNamespace(sent=[], reads=0, empty_slices=0)
        for handle in fleet._workers.values():
            if handle.alive:
                handle.channel.sock = cls(handle.channel.sock, tally)
        return tally

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendall(self, data) -> None:
        self._tally.sent.append(len(data) - 4)  # the payload, as frame_bytes_out
        self._sock.sendall(data)

    def recv_into(self, buffer) -> int:
        try:
            n = self._sock.recv_into(buffer)
        except BlockingIOError:
            self._tally.empty_slices += 1
            raise
        self._tally.reads += 1
        return n


#: Marker environments the patched ``CostInferenceService.predict`` of the
#: guardrail tests treats specially (inherited by the forked workers).
SLOW_ENV = (0.25, 0.03, 0.25, 0.25)
BROKEN_ENV = (0.75, 0.07, 0.75, 0.75)


@pytest.fixture()
def marked_service(monkeypatch):
    """``CostInferenceService.predict`` sleeps 200 ms under ``SLOW_ENV`` and
    raises under ``BROKEN_ENV``; patched before a fleet forks, so its
    workers run it."""
    predict = CostInferenceService.predict

    def marked(self, plans, *, env_features=None):
        if env_features == SLOW_ENV:
            time.sleep(0.2)
        elif env_features == BROKEN_ENV:
            raise RuntimeError("injected model fault")
        return predict(self, plans, env_features=env_features)

    monkeypatch.setattr(CostInferenceService, "predict", marked)


def _tenant_on(fleet, shard, exclude=False) -> str:
    """A tenant the router pins to ``shard`` (or, with ``exclude``, to
    any other shard)."""
    return next(
        t for t in (f"t{i}" for i in range(1000))
        if (fleet.router.route(t) == shard) != exclude
    )


@needs_fork
class TestWire:
    def test_one_frame_each_way_per_hot_request_and_no_extra_clock_reads(
        self, checkpointed, monkeypatch
    ):
        path, _predictor, plans = checkpointed
        # A tracer that samples nothing: the unsampled path, not the obs-off one.
        with ServingFleet(path, n_workers=2, obs=ObsConfig(sample_rate=0.0)) as fleet:
            for i in range(4):
                fleet.predict(f"t{i}", plans[:6], env_features=ENV, plans_key="hot")
            frames = _CountingSocket.install(fleet)
            calls = {"monotonic": 0, "perf_counter": 0, "poll": 0, "select": 0}

            def counting(module, name):
                real = getattr(module, name)

                def call(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                return call

            monkeypatch.setattr(
                fleet_module,
                "time",
                types.SimpleNamespace(
                    monotonic=counting(time, "monotonic"),
                    perf_counter=counting(time, "perf_counter"),
                ),
            )
            monkeypatch.setattr(select, "poll", counting(select, "poll"))
            monkeypatch.setattr(select, "select", counting(select, "select"))
            for i in range(200):
                r = fleet.predict(f"t{i % 4}", plans[:6], env_features=ENV, plans_key="hot")
                assert r.source == "learned" and r.trace_id is None
            assert len(frames.sent) == 200 and frames.reads == 200
            assert frames.empty_slices == 0
            # No plan tree crossed: every request frame is a few hundred bytes.
            assert max(frames.sent) < 400
            # Start and answer; nothing for the hop's parts.
            assert calls["perf_counter"] == 0
            assert calls["monotonic"] <= 4 * 200
            # A blocking socket: the read waits in the kernel, not in a poller
            # (a Python-level timeout would poll inside every recv).
            assert calls["poll"] == calls["select"] == 0
            for handle in fleet._workers.values():
                assert handle.channel.sock.gettimeout() is None

    def test_every_request_is_one_frame_and_one_service_predict(self, checkpointed):
        path, _predictor, plans = checkpointed
        envs = [ENV, (0.2, 0.1, 0.3, 0.4), (0.9, 0.01, 0.1, 0.7)]

        def served(fleet):
            merged = fleet.stats()["merged"]
            counters = merged["counters"]
            assert "queue_wait_seconds" not in merged["histograms"]  # no queue in a shard
            return (
                counters["requests_total"],
                counters["batches_total"],
                merged["histograms"]["learned_batch_seconds"]["count"],
                counters["learned_total"],
            )

        with ServingFleet(path, n_workers=2) as fleet:
            for i in range(4):
                fleet.predict(f"t{i}", plans[:6], env_features=ENV, plans_key="hot")
            before = served(fleet)
            frames = _CountingSocket.install(fleet)
            for i in range(200):
                r = fleet.predict(f"t{i % 4}", plans[:6], env_features=ENV, plans_key="hot")
                assert r.source == "learned"
            for env in envs:
                assert fleet.predict("t0", plans[:6], env_features=env, plans_key="hot").source == "learned"
            # A budget changes nothing in the shard: the parent keeps it.
            for i in range(200):
                r = fleet.predict(
                    f"t{i % 4}", plans[:6], env_features=ENV, plans_key="hot", deadline_ms=200
                )
                assert r.source == "learned"
            assert len(frames.sent) == frames.reads == 403
            assert served(fleet) == tuple(n + 403 for n in before)

    def test_traced_request_keeps_its_chain_with_the_batch_on_the_pipe_thread(
        self, checkpointed
    ):
        path, _predictor, plans = checkpointed
        obs = ObsConfig(sample_rate=1.0, seed=5)
        with ServingFleet(path, n_workers=2, obs=obs) as fleet:
            for i in range(4):
                result = fleet.predict(f"tenant-{i}", plans[i : i + 6], env_features=ENV)
                assert result.source == "learned"
                # Complete as soon as the reply is in: the shard's span (and
                # the serving spans under it) finished before the frame left.
                tree = fleet.span_tree(result.trace_id)
                assert tree.is_complete(), tree.as_dict()
                by_name = {s["name"]: s for s in tree.spans}
                shard = by_name["fleet.shard"]
                assert shard["parent_id"] == by_name["fleet.request"]["span_id"]
                assert shard["attrs"] == {"n_plans": 6, "outcome": "ok"}
                assert shard["duration_ms"] is not None
                serving = [s for s in tree.spans if s["name"].startswith("serving.")]
                assert {s["name"] for s in serving} >= {"serving.encode", "serving.forward"}
                assert all(s["parent_id"] == shard["span_id"] for s in serving)
                assert {s["name"] for s in tree.spans} - {s["name"] for s in serving} == {
                    "fleet.request", "fleet.shard"
                }

    def test_answers_are_bitwise_a_local_services_answers(self, checkpointed):
        path, _predictor, plans = checkpointed
        envs = [ENV, (0.2, 0.1, 0.3, 0.4), (0.9, 0.01, 0.1, 0.7)]
        local = CostInferenceService.from_checkpoint(path)
        want = [local.predict(plans[:8], env_features=env) for env in envs]
        with ServingFleet(path, n_workers=2) as fleet:
            one = fleet.predict("alpha", plans[:8], env_features=ENV)
            frames = _CountingSocket.install(fleet)
            scored = [
                fleet.predict("alpha", plans[:8], env_features=env, plans_key="s")
                for _ in range(2)
                for env in envs
            ]
            # The plan trees crossed the socket once, with the first frame.
            assert len(frames.sent) == 6
            assert frames.sent[0] > 400 and max(frames.sent[1:]) < 400
            assert "plans_resent_total" not in fleet.telemetry.snapshot()["counters"]
            # The need-plans resend answers the same bits.
            fleet._workers[fleet.router.route("alpha")].sent_keys["ghost"] = None
            resent = fleet.predict("alpha", plans[:8], env_features=ENV, plans_key="ghost")
            assert fleet.telemetry.snapshot()["counters"]["plans_resent_total"] == 1
        for got, ref in zip([one] + scored + [resent], [want[0]] + want + want + [want[0]]):
            assert got.source == "learned"
            assert got.costs.dtype == ref.dtype == np.float64
            assert np.array_equal(got.costs, ref)
            assert got.costs.flags.writeable and ref.flags.writeable

    def test_reply_with_wrong_req_id_marks_the_shard_dead(self, checkpointed, marked_service):
        path, _predictor, plans = checkpointed
        with ServingFleet(path, n_workers=2) as fleet:
            tenant = "desync"
            handle = fleet._workers[fleet.router.route(tenant)]
            channel = handle.channel

            class StaleReply:
                def __getattr__(self, name):
                    return getattr(channel, name)

                def recv(self):
                    (kind, req_id, *rest), size = channel.recv()
                    return (kind, req_id - 1, *rest), size

            handle.channel = StaleReply()
            shed = fleet.predict(tenant, plans[:4], env_features=ENV)
            assert shed.source == "fallback" and shed.reason == "worker-crash"
            assert not handle.alive and not handle.process.is_alive()
            assert handle.name not in fleet.live_workers()
            assert fleet.predict(tenant, plans[:4], env_features=ENV).source == "learned"

            # An owed reply is checked as well: one whose id is not the id
            # owed is a desync, and that shard goes the same way.
            tenant = "owing"
            handle = fleet._workers[fleet.router.route(tenant)]
            late = fleet.predict(tenant, plans[:4], env_features=SLOW_ENV, deadline_ms=20)
            assert late.reason == "deadline" and handle.owed is not None
            handle.owed += 1
            shed = fleet.predict(tenant, plans[:4], env_features=ENV)
            assert shed.source == "fallback" and shed.reason == "worker-crash"
            assert not handle.alive and not handle.process.is_alive()
            assert fleet.live_workers() == []

    def test_megabyte_load_and_sampled_stats_ride_the_same_frame(self, checkpointed):
        path, predictor, plans = checkpointed
        warm = [(copy.deepcopy(p), ENV) for p in plans[:60] * 24]
        with ServingFleet(path, n_workers=1) as fleet:
            for _ in range(5):
                fleet.predict("t", plans[:6], env_features=ENV)
            frames = _CountingSocket.install(fleet)
            acked = fleet.promote(path, warm=warm)
            assert acked == {"shard-0": predictor.weights_version + 1}
            assert max(frames.sent) >= 1 << 20
            shard = fleet.stats()["shards"]["shard-0"]
            assert shard["gauges"]["serving_warmed_plans"] == len(warm)
            latency = shard["histograms"]["request_latency_seconds"]
            assert len(latency["samples"]) == latency["count"] == 5
            assert len(frames.sent) == 2  # the load and the stats request


@needs_fork
class TestParentGuardrails:
    def test_budget_holds_in_the_parent_and_the_owed_reply_is_drained(
        self, checkpointed, marked_service
    ):
        path, _predictor, plans = checkpointed
        local = CostInferenceService.from_checkpoint(path)
        native = NativeCostFallback().predict(plans[:4], env_features=SLOW_ENV)
        with ServingFleet(path, n_workers=2, pacer_config=PacerConfig()) as fleet:
            tenant = "slow"
            shard = fleet.router.route(tenant)
            handle = fleet._workers[shard]
            pacer, breaker = handle.guard.pacer, handle.guard.breaker
            assert fleet.predict(tenant, plans[:4], env_features=ENV).source == "learned"
            started = time.monotonic()
            late = fleet.predict(tenant, plans[:4], env_features=SLOW_ENV, deadline_ms=50)
            assert time.monotonic() - started < 0.060
            assert (late.source, late.reason) == ("fallback", "deadline")
            assert np.array_equal(late.costs, native)
            # The request left, so the shard owes its reply, which keeps
            # the request's pacer slot until someone reads it.
            assert handle.owed is not None and pacer.inflight == 1
            drained = fleet.predict(tenant, plans[:4], env_features=ENV)
            assert drained.source == "learned"
            assert np.array_equal(drained.costs, local.predict(plans[:4], env_features=ENV))
            assert handle.owed is None and pacer.inflight == 0
            assert breaker.stats()["slow_count"] == 1
            counters = fleet.telemetry.snapshot()["counters"]
            assert counters["deadline_miss_total"] == counters["shed_deadline_total"] == 1

            # A budget also bounds the wait for the shard's lock: a request
            # that never got to send owes nothing and hands its slot back.
            slow = threading.Thread(
                target=fleet.predict, args=(tenant, plans[:4]), kwargs={"env_features": SLOW_ENV}
            )
            slow.start()
            assert _settle(lambda: handle.lock.locked())
            started = time.monotonic()
            queued = fleet.predict(tenant, plans[:4], env_features=ENV, deadline_ms=50)
            assert time.monotonic() - started < 0.060
            assert queued.reason == "deadline" and handle.owed is None
            assert pacer.inflight == 1  # the slow request's own slot
            slow.join(timeout=10.0)
            assert pacer.inflight == 0 and breaker.stats()["slow_count"] == 2
            assert fleet.live_workers() == ["shard-0", "shard-1"]

    def test_model_errors_trip_only_their_shards_breaker(
        self, checkpointed, marked_service, tmp_path
    ):
        path, _predictor, plans = checkpointed
        native = NativeCostFallback().predict(plans[:4], env_features=BROKEN_ENV)
        obs = ObsConfig(sample_rate=0.0, dump_dir=str(tmp_path))
        with ServingFleet(path, n_workers=2, obs=obs) as fleet:
            broken = "shard-0"
            tenant, other = _tenant_on(fleet, broken), _tenant_on(fleet, broken, exclude=True)
            for _ in range(MIN_CALLS):
                r = fleet.predict(tenant, plans[:4], env_features=BROKEN_ENV)
                assert (r.source, r.reason) == ("fallback", "model-error")
                assert np.array_equal(r.costs, native)
            assert fleet.predict(tenant, plans[:4], env_features=ENV).reason == "circuit-open"
            assert fleet.predict(other, plans[:4], env_features=ENV).source == "learned"
            stats = fleet.stats()
            assert stats["fleet"]["counters"]["breaker_trips_total"] == 1
            assert stats["fleet"]["counters"]["fallback_model_error_total"] == 8
            assert {name: b["state"] for name, b in stats["breakers"].items()} == {
                "shard-0": "open", "shard-1": "closed"
            }
            assert stats["fleet"]["gauges"]["breaker_shard_0_state"] == 2.0
            assert stats["fleet"]["gauges"]["breaker_shard_1_state"] == 0.0
            trips = [e for e in fleet.recorder.entries() if e.get("kind") == "breaker-trip"]
            assert [(e["name"], e["attrs"]["failure_count"]) for e in trips] == [(broken, 8)]
            assert any("breaker-trip" in f for f in os.listdir(tmp_path))
            # The shard counted the requests it scored; the refused one
            # never reached it.
            assert stats["shards"][broken]["counters"] == {
                "requests_total": 8, "batches_total": 8, "learned_total": 0
            }

            fleet.promote(path)
            assert fleet.stats()["breakers"][broken]["state"] == "closed"
            assert fleet.predict(tenant, plans[:4], env_features=ENV).source == "learned"


    def test_slots_and_owed_replies_balance_under_concurrent_mixed_budgets(
        self, checkpointed, marked_service
    ):
        path, _predictor, plans = checkpointed
        deadlines = (None, 2.0, 50.0, 8.0)
        results: list = []
        lock = threading.Lock()
        with ServingFleet(path, n_workers=2, pacer_config=PacerConfig()) as fleet:
            pacers = {shard: h.guard.pacer for shard, h in fleet._workers.items()}
            returned = {shard: [] for shard in pacers}
            for shard, pacer in pacers.items():
                release, on_delivered = pacer.release, pacer.on_delivered
                pacer.release = (
                    lambda n=1, r=release, out=returned[shard]: out.append(n) or r(n)
                )
                pacer.on_delivered = (
                    lambda n=1, d=on_delivered, out=returned[shard], **kw: out.append(n) or d(n, **kw)
                )

            def caller(k: int) -> None:
                mine = [
                    fleet.predict(
                        f"t{(7 * k + i) % 16}", plans[:4],
                        env_features=SLOW_ENV if (k + i) % 40 == 0 else ENV,
                        deadline_ms=deadlines[(k + i) % 4],
                    )
                    for i in range(40)
                ]
                with lock:
                    results.extend(mine)

            threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            # The stats exchange reads whatever each shard still owes (the
            # breakers may have tripped on the missed budgets by now).
            stats = fleet.stats()
            assert fleet.live_workers() == ["shard-0", "shard-1"]
            learned = sum(r.source == "learned" for r in results)
            assert len(results) == 240 and 0 < learned < 240
            counters = stats["fleet"]["counters"]
            assert counters["requests_total"] == 240
            assert counters["learned_total"] == learned
            assert counters["fallback_total"] == 240 - learned
            assert counters["deadline_miss_total"] == sum(r.reason == "deadline" for r in results)
            for shard, pacer in pacers.items():
                # Every slot the pacer handed out came back exactly once.
                assert fleet._workers[shard].owed is None and pacer.inflight == 0
                assert sum(returned[shard]) == pacer.admitted_total


def _settle(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def _swap_with_warm_list(conn, path, plans):
    """Child-process body: hot swap with a warm list on a bare service."""
    from repro.core.serialization import load_predictor

    service = CostInferenceService.from_checkpoint(path)
    predictor, _env = load_predictor(path)
    service.swap_predictor(predictor, warm=[(p, ENV) for p in plans])
    conn.send(service.cache_counters())


@needs_fork
def test_long_warm_list_in_daemonic_process_encodes_serially(
    checkpointed, project_with_history
):
    import multiprocessing

    path, _predictor, _plans = checkpointed
    plans = _long_warm_list(project_with_history)
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_swap_with_warm_list, args=(child_conn, path, plans), daemon=True
    )
    child.start()
    child_conn.close()
    try:
        assert parent_conn.poll(120), "daemonic child never answered"
        counters = parent_conn.recv()  # EOFError: the child died before sending
    finally:
        child.join(30)
    assert child.exitcode == 0
    assert counters["warmed_plans"] == 96


@needs_fork
class TestLifecycleFleet:
    def test_shard_breaker_trip_flags_drift_retrain(
        self, checkpointed, marked_service, tmp_path
    ):
        from repro.lifecycle.manager import ModelLifecycle

        _path, predictor, plans = checkpointed
        lifecycle = ModelLifecycle(tmp_path / "registry")
        lifecycle.bootstrap(predictor, environment_features=ENV)
        with ServingFleet(n_workers=2) as fleet:
            lifecycle.attach_fleet(fleet)
            for _ in range(MIN_CALLS):
                r = fleet.predict("t", plans[:4], env_features=BROKEN_ENV)
                assert r.reason == "model-error"
            assert fleet.predict("t", plans[:4], env_features=ENV).reason == "circuit-open"
            # The feedback log is empty, yet the trip alone forces a retrain,
            # as a gateway's does.
            report = lifecycle.check_drift()
            assert report.retrain
            assert any("circuit-breaker-trip:v1" in r for r in report.reasons)

    def test_attach_fleet_ships_current_and_broadcasts_promotes(
        self, checkpointed, tmp_path
    ):
        from repro.lifecycle.manager import ModelLifecycle

        path, predictor, plans = checkpointed
        lifecycle = ModelLifecycle(tmp_path / "registry")
        lifecycle.bootstrap(predictor, environment_features=ENV)
        with ServingFleet(None, n_workers=2) as fleet:
            # Model-less fleet answers from fallback until attached.
            cold = fleet.predict("t", plans[:3], env_features=ENV)
            assert cold.reason == "no-model"
            lifecycle.attach_fleet(fleet)
            # attach ships the current checkpoint immediately...
            warm = fleet.predict("t", plans[:3], env_features=ENV)
            assert warm.source == "learned"
            want = lifecycle.service.predict(plans[:3], env_features=ENV)
            np.testing.assert_allclose(warm.costs, want, rtol=1e-5)
            # ...and later promotions broadcast to every shard.
            import copy

            candidate = copy.deepcopy(predictor)
            report, entry = lifecycle.submit_candidate(
                candidate, environment_features=ENV
            )
            versions = {
                snap["gauges"]["model_weights_version"]
                for snap in fleet.stats()["shards"].values()
            }
            assert versions == {float(lifecycle.predictor.weights_version)}
