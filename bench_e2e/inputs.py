"""Inputs of the benchmark: corpus, checkpoint, plan pools, seeded streams.

The request streams are drawn from ``numpy.random.default_rng(seed)`` in
this file, not from ``repro.workload``, so a change to the program cannot
change the traffic it is measured on.  The corpus (project, trained model,
candidate-set pools) is rebuilt in every run but always from
:data:`CORPUS_SEED`: which plans the most popular Zipf tenant scores, and how
large the pooled plans are, move throughput by 20-60 % between projects, and
a run-to-run spread that wide could not resolve a 10 % regression.  ``--seed``
varies what is sent (tenant order, env vectors, set draws, arrival times),
not what is served.  Two SHA-256 digests pin the inputs:
``corpus_sha256`` (operator/table structure of every pooled plan, walked
here rather than through ``repro.serving.fingerprint``) and
``stream_sha256`` (tenant ids, set indices, env vectors, due times).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.explorer import PlanExplorer
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.lifecycle.registry import ModelRegistry
from repro.warehouse.workload import ProjectProfile, generate_project

#: Seed of the generated project every run serves (see the module docstring).
CORPUS_SEED = 11
#: Candidate sets re-scored by the Zipf tenants (tenant t uses set t % 100).
HOT_SETS = 100
#: Candidate sets of the scan workload: ~1.8k distinct plans, more than the
#: default ``encoding_cache_size=1024`` and the 128-entry bucket cache.
COLD_SETS = 512
N_TENANTS = 512
ZIPF_S = 1.1
#: Requests per stream; callers wrap around.  A wrap is harmless: the Zipf
#: streams repeat keys by design, and the scan stream's cycle is 30x longer
#: than the 4096-entry prediction cache it must keep missing.
STREAM_LEN = 1 << 17
#: Fixed model hyperparameters, independent of ``REPRO_SCALE``.
PREDICTOR = PredictorConfig(epochs=5)
HISTORY_DAYS = 3
QUERIES_PER_DAY = 40


def _profile() -> ProjectProfile:
    return ProjectProfile(
        name="bench-e2e",
        seed=CORPUS_SEED,
        n_tables=42,
        avg_columns_per_table=16.0,
        n_templates=26,
        queries_per_day=450.0,
        stats_availability=0.15,
        temp_table_ratio=0.10,
        max_join_tables=5,
        row_scale=8e5,
        skew_level=1.0,
        agg_probability=0.65,
        noise_sigma=0.14,
    )


@dataclass
class Corpus:
    """One generated project's trained model and candidate-set pools."""

    checkpoint: str
    #: The predictor as loaded back from the checkpoint: the reference the
    #: correctness gate scores with (``predict_baseline``).
    predictor: AdaptiveCostPredictor
    hot_pool: list
    cold_pool: list
    corpus_sha256: str


def corpus_digest(pools) -> str:
    """SHA-256 over the operator/table structure of every pooled plan."""
    digest = hashlib.sha256()
    for pool in pools:
        for plans in pool:
            digest.update(b"[")
            for plan in plans:
                for node in plan.iter_nodes():
                    digest.update(
                        f"{node.op_type}:{getattr(node, 'table', '')}:"
                        f"{len(node.children)};".encode()
                    )
                digest.update(b"|")
    return digest.hexdigest()


def build_corpus(registry_dir, *, hot_sets=HOT_SETS, cold_sets=COLD_SETS) -> Corpus:
    """Project -> history -> trained model -> registry checkpoint -> pools."""
    workload = generate_project(_profile(), horizon_days=HISTORY_DAYS + 1)
    workload.simulate_history(HISTORY_DAYS, max_queries_per_day=QUERIES_PER_DAY)
    records = workload.repository.deduplicated(workload.repository.records)
    trained = AdaptiveCostPredictor(config=PREDICTOR)
    trained.fit([r.plan for r in records], [r.cpu_cost for r in records])
    registry = ModelRegistry(registry_dir)
    entry = registry.register(trained, promote=True)
    predictor, _env = registry.load()

    explorer = PlanExplorer(workload.optimizer)
    sets: list = []
    while len(sets) < hot_sets + cold_sets:
        plans = explorer.candidates(workload.sample_query(HISTORY_DAYS), top_k=5)
        if len(plans) >= 2:
            sets.append(plans)
    hot_pool, cold_pool = sets[:hot_sets], sets[hot_sets:]
    return Corpus(
        checkpoint=str(registry.root / entry.path),
        predictor=predictor,
        hot_pool=hot_pool,
        cold_pool=cold_pool,
        corpus_sha256=corpus_digest((hot_pool, cold_pool)),
    )


@dataclass
class Stream:
    """A request stream: request ``i`` is tenant ``tenants[i]`` scoring
    candidate set ``sets[i]`` of ``pool`` under ``envs[i]``, due
    ``due[i]`` seconds after the window opens (all zero: closed loop)."""

    pool: list
    tenants: list
    sets: list
    envs: list
    due: list
    stream_sha256: str

    def __len__(self) -> int:
        return len(self.sets)

    def plans(self, i: int) -> list:
        return self.pool[self.sets[i]]


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _env_vectors(u: np.ndarray) -> np.ndarray:
    """Plausible environment blocks (fig10 ranges) from uniform draws."""
    lo = np.array([0.3, 0.02, 0.3, 0.3])
    span = np.array([0.4, 0.1, 0.4, 0.4])
    return np.round(lo + span * u, 6)


def _stream(pool, tenants, sets, envs, due) -> Stream:
    names = [f"tenant-{t}" for t in range(N_TENANTS)]
    # One tuple object per distinct env: the Zipf streams repeat 512 of them
    # 131k times, and 131k copies would be 20 MB of the RSS being measured.
    shared: dict = {}
    return Stream(
        pool=pool,
        tenants=[names[t] for t in tenants.tolist()],
        sets=sets.tolist(),
        envs=[shared.setdefault(env, env) for env in map(tuple, envs.tolist())],
        due=due.tolist(),
        stream_sha256=_digest(tenants, sets, envs, due),
    )


def zipf_stream(seed: int, pool, *, n=STREAM_LEN, n_tenants=N_TENANTS) -> Stream:
    """Zipf(s=1.1) tenants; tenant t re-scores set ``t % len(pool)`` under
    its own fixed env, so the working set is tenants x plans-per-set keys."""
    rng = np.random.default_rng(seed)
    tenant_envs = _env_vectors(rng.random((n_tenants, 4)))
    weights = np.arange(1, n_tenants + 1, dtype=np.float64) ** -ZIPF_S
    tenants = rng.choice(n_tenants, size=n, p=weights / weights.sum())
    return _stream(pool, tenants, tenants % len(pool), tenant_envs[tenants], np.zeros(n))


def scan_stream(seed: int, pool, *, n=STREAM_LEN, n_tenants=N_TENANTS) -> Stream:
    """Uniform draw over the pool with a fresh env vector every request:
    every request misses the prediction cache."""
    rng = np.random.default_rng(seed)
    tenants = rng.integers(0, n_tenants, size=n)
    sets = rng.integers(0, len(pool), size=n)
    return _stream(pool, tenants, sets, _env_vectors(rng.random((n, 4))), np.zeros(n))


def open_stream(seed: int, pool, *, rate: float, horizon: float) -> Stream:
    """One candidate set scored by ``rate * horizon`` independent users, each
    arriving at a uniformly random time in ``horizon`` seconds: a Poisson
    process conditioned on its count, so every seed offers the same number
    of requests.  Random gaps rather than a metronome: a periodic schedule
    phase-locks with the pacer's token clock and quantises goodput to
    ``rate / k``, which would hide any change smaller than one step.  The
    set index is drawn from the seed; the pipe's capacity is set by the delay
    proxy, not by which set is scored."""
    rng = np.random.default_rng(seed)
    n = int(rate * horizon)
    due = np.sort(rng.uniform(0.0, horizon, size=n))
    sets = np.full(n, int(rng.integers(0, len(pool))))
    tenants = rng.integers(0, N_TENANTS, size=n)
    envs = np.tile(_env_vectors(rng.random((1, 4))), (n, 1))
    return _stream(pool, tenants, sets, envs, due)
