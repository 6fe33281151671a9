"""Figure 9 (a/b/c) and Section 7.2.1 overheads.

Paper shape: all learned optimizers train in well under an hour; model
footprints are tens of MB at paper scale (XGBoost smallest); per-query
inference takes a fraction of a second; plan generation is <0.1 s; the
total optimization overhead is a sub-percent fraction of query execution
time.

Figure 9c also times LOAM's reference inference path
(``predict_baseline``: re-encode every plan, forward through the autodiff
engine) on the same sample, so the served path's advantage over the naive
one is measured where the paper states its inference overhead.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import PROJECT_NAMES, print_banner
from repro.core.explorer import PlanExplorer
from repro.evaluation.reporting import format_table

METHODS = ("loam", "transformer", "gcn", "xgboost")
REFERENCE = "loam (reference)"
ENV = (0.5, 0.05, 0.5, 0.5)


def _mean_seconds(predict, sample) -> float:
    times = []
    for qc in sample:
        start = time.perf_counter()
        predict(qc.plans, env_features=ENV)
        times.append(time.perf_counter() - start)
    return float(np.mean(times)) if times else 0.0


def test_fig9_overheads(benchmark, eval_projects, measured_candidates, trained_loams, trained_baselines):
    def run():
        train_time = {m: {} for m in METHODS}
        model_size = {m: {} for m in METHODS}
        infer_time = {m: {} for m in (*METHODS, REFERENCE)}
        for project in PROJECT_NAMES:
            loam = trained_loams[project].predictor
            models = {"loam": loam, **trained_baselines[project]}
            sample = measured_candidates[project][: min(20, len(measured_candidates[project]))]
            for method in METHODS:
                model = models[method]
                train_time[method][project] = model.train_seconds
                model_size[method][project] = model.size_bytes() / 1e6
                infer_time[method][project] = _mean_seconds(model.predict, sample)
            infer_time[REFERENCE][project] = _mean_seconds(loam.predict_baseline, sample)
        return train_time, model_size, infer_time

    train_time, model_size, infer_time = benchmark.pedantic(run, rounds=1, iterations=1)

    def table(data, fmt, methods=METHODS):
        return format_table(
            ["method", *PROJECT_NAMES],
            [[m, *(fmt(data[m][p]) for p in PROJECT_NAMES)] for m in methods],
        )

    print_banner("Figure 9a - training time (s)")
    print(table(train_time, lambda v: f"{v:.1f}"))
    print("\nLOAM training throughput (fast fit() path):")
    rows = []
    for project in PROJECT_NAMES:
        report = trained_loams[project].predictor.report
        rows.append(
            [
                project,
                f"{report.n_batches}",
                f"{report.steps_per_second:,.1f}",
                "fast" if report.fast_path else "reference",
            ]
        )
    print(format_table(["project", "batches", "steps/s", "path"], rows))
    print_banner("Figure 9b - model footprint (MB)")
    print(table(model_size, lambda v: f"{v:.2f}"))
    print_banner("Figure 9c - average inference time per query (s)")
    print(table(infer_time, lambda v: f"{v:.4f}", methods=(*METHODS, REFERENCE)))
    print(
        "served vs reference: "
        + ", ".join(
            f"{p} {infer_time[REFERENCE][p] / max(infer_time['loam'][p], 1e-12):.1f}x"
            for p in PROJECT_NAMES
        )
    )

    # Section 7.2.1 extras: plan generation time and overhead fraction.
    project = eval_projects["project1"]
    explorer = PlanExplorer(project.workload.optimizer)
    explored = [explorer.explore(query, top_k=5) for query in project.test_queries]
    gen_times = [result.generation_seconds for result in explored]
    native_latency = float(
        np.mean([r.latency for r in project.train_records[:100]])
    )
    overhead = float(np.mean(gen_times)) + infer_time["loam"]["project1"]
    print_banner("Section 7.2.1 - optimization overhead")
    print(
        f"plan generation: {np.mean(gen_times)*1e3:.2f} ms per query over {len(gen_times)} "
        f"test queries (p50 {np.percentile(gen_times, 50)*1e3:.2f}, "
        f"p99 {np.percentile(gen_times, 99)*1e3:.2f} ms; "
        f"{np.mean([result.optimize_calls for result in explored]):.1f} optimize() calls each)"
    )
    print(f"LOAM inference:  {infer_time['loam']['project1']*1e3:.1f} ms per query")
    print(
        f"total optimization overhead vs simulated query latency: "
        f"{overhead / max(native_latency, 1e-9):.2%} (note: simulator latency units)"
    )

    # Shape assertions.
    for project in PROJECT_NAMES:
        # The paper's XGBoost out-trains Transformer/GCN/LOAM by orders of
        # magnitude, but that reflects libxgboost's C++ core; our
        # from-scratch numpy GBDT is only same-order with the small neural
        # baselines.  Cross-method wall-time orderings between the GEMM-bound
        # neural fits and the histogram GBDT flip with core count and BLAS
        # backend (LOAM out-trains xgboost on multi-core hosts but not in a
        # single-core container), so pin machine-independent invariants
        # instead: the fused fit() fast path must be engaged, and LOAM's
        # serving-layer inference must beat the per-tree Python GBDT walk.
        assert trained_loams[project].predictor.report.fast_path
        assert infer_time["loam"][project] < infer_time["xgboost"][project]
        # The served path (cached encodings, packed no-grad forward) is
        # faster than the naive path it replaced.
        assert infer_time["loam"][project] < infer_time[REFERENCE][project]
        # Everything trains in "well under an hour".
        for method in METHODS:
            assert train_time[method][project] < 3600
            assert model_size[method][project] < 200
            assert infer_time[method][project] < 2.0
    # Plan generation far under the paper's 0.1 s: ~1 ms here, 10x headroom.
    assert np.mean(gen_times) < 0.01
