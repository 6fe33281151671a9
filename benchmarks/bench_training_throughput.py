"""Training-loop throughput: the fast fit() path vs the reference path.

Both paths train the same adaptive cost predictor on the same encoded plans
with the same bucketed batch schedule and RNG stream; they differ only in
execution strategy:

* **reference** — per-batch Python list assembly through
  ``TreeBatch.from_trees``, the op-by-op autodiff chain (gather → concat →
  matmul → ReLU → mask, seven graph nodes per conv layer), and a full
  re-forward of the default plans for the domain-classifier batch;
* **fast** — per-bucket padded float32 buffers prebuilt once, mini-batches
  as vectorized row slices, the fused tree-conv op with a hand-derived
  backward (one graph node per layer), and cost-forward embeddings reused
  for the domain loss.

Because the math is identical, the loss trajectories must agree to float32
round-off — asserted here as a max relative error ≤ 1e-5 alongside the
≥ 2× speedup floor.  Results go to the ``BENCH_training.json`` artifact
(override the path with ``BENCH_TRAINING_OUT``).  Training has no
``bench_e2e`` workload, so this bench is its only performance instrument.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from conftest import print_banner
from repro.core.explorer import PlanExplorer
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.evaluation.projects import evaluation_profiles
from repro.evaluation.reporting import format_table
from repro.warehouse.workload import generate_project

#: Alignment candidates sampled for the domain-classifier half of training.
N_CANDIDATES = 64


@pytest.fixture(scope="module")
def training_setup(scale):
    profile = evaluation_profiles()[0]
    workload = generate_project(profile, horizon_days=6)
    workload.simulate_history(5, max_queries_per_day=80)
    records = workload.repository.deduplicated(workload.repository.records)
    records = records[: min(len(records), scale.max_training_queries)]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]

    explorer = PlanExplorer(workload.optimizer)
    candidates = []
    for record in records:
        candidates.extend(
            p for p in explorer.candidates(record.plan.query) if not p.is_default
        )
        if len(candidates) >= N_CANDIDATES:
            break
    return plans, costs, candidates[:N_CANDIDATES]


def _fit(plans, costs, candidates, scale, *, fast_path):
    predictor = AdaptiveCostPredictor(
        config=PredictorConfig(epochs=scale.predictor_epochs)
    )
    started = time.perf_counter()
    report = predictor.fit(plans, costs, candidates, fast_path=fast_path)
    elapsed = time.perf_counter() - started
    return predictor, report, elapsed


def test_training_throughput(benchmark, training_setup, scale):
    plans, costs, candidates = training_setup

    # Warm numpy/BLAS before timing.
    _fit(plans[:64], costs[:64], candidates[:16], scale, fast_path=True)

    def run():
        fast = _fit(plans, costs, candidates, scale, fast_path=True)
        reference = _fit(plans, costs, candidates, scale, fast_path=False)
        return fast, reference

    (fast_pred, fast_rep, fast_s), (ref_pred, ref_rep, ref_s) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Equivalence gates before reporting speed: identical batch schedules and
    # math mean the trajectories may differ only by float32 round-off.
    fast_traj = np.array(fast_rep.cost_losses + fast_rep.domain_losses)
    ref_traj = np.array(ref_rep.cost_losses + ref_rep.domain_losses)
    traj_err = float(
        np.max(np.abs(fast_traj - ref_traj) / np.maximum(np.abs(ref_traj), 1e-12))
    )
    assert traj_err <= 1e-5, traj_err
    assert fast_rep.n_batches == ref_rep.n_batches
    probe = plans[: min(64, len(plans))]
    np.testing.assert_allclose(
        fast_pred.predict_baseline(probe), ref_pred.predict_baseline(probe), rtol=1e-4
    )

    speedup = ref_s / fast_s
    n_epochs = len(fast_rep.cost_losses)

    print_banner("Training throughput - fast fit() path vs reference")
    rows = [
        [
            name,
            f"{seconds:.2f}",
            f"{seconds / n_epochs:.3f}",
            f"{rep.steps_per_second:,.1f}",
            f"{rep.n_batches * rep.n_default_plans / (max(1, rep.n_batches) * seconds):,.0f}",
        ]
        for name, rep, seconds in (("fast", fast_rep, fast_s), ("reference", ref_rep, ref_s))
    ]
    print(format_table(["path", "fit s", "s/epoch", "steps/s", "plans/s"], rows))
    print(f"speedup {speedup:.2f}x, loss-trajectory max rel err {traj_err:.2e}")

    artifact = {
        "scale": scale.name,
        "n_default_plans": len(plans),
        "n_candidate_plans": len(candidates),
        "epochs": n_epochs,
        "n_batches": fast_rep.n_batches,
        "fast": {
            "fit_seconds": fast_s,
            "epoch_seconds": fast_s / n_epochs,
            "steps_per_second": fast_rep.steps_per_second,
            "plans_per_second": len(plans) * n_epochs / fast_s,
        },
        "reference": {
            "fit_seconds": ref_s,
            "epoch_seconds": ref_s / n_epochs,
            "steps_per_second": ref_rep.steps_per_second,
            "plans_per_second": len(plans) * n_epochs / ref_s,
        },
        "speedup": speedup,
        "loss_trajectory_max_rel_err": traj_err,
    }
    out_path = os.environ.get("BENCH_TRAINING_OUT", "BENCH_training.json")
    with open(out_path, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {out_path}")

    # Acceptance floor (ISSUE 2): the prebuilt-buffer + fused-op training
    # path is at least 2x the reference fit at smoke scale.
    assert speedup >= 2.0, speedup
