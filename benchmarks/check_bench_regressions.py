#!/usr/bin/env python
"""Compare fresh BENCH_*.json artifacts against committed baselines.

``run_bench.sh`` snapshots the committed artifacts before the benches
overwrite them in place, reruns everything, then calls this checker:

    python check_bench_regressions.py \
        --baseline-dir /tmp/bench-baselines --fresh-dir benchmarks \
        --out verdict.json

Two kinds of checks:

``correctness``
    Invariants that must hold in the FRESH artifact regardless of machine
    speed (chaos answered every request, the breaker tripped, trace trees
    stitched completely, the drift scenario retrained and promoted exactly
    once and replayed to the same digest).  A violation always fails the
    run.

``perf``
    Fresh throughput vs the committed baseline with a wide tolerance band
    (machine-to-machine variation on shared CI runners dwarfs real
    regressions, so the default band is generous and a miss is a WARNING
    unless ``--strict``).  Latency-like metrics compare the other way.

Artifacts missing on either side are reported as ``skipped`` — a new bench
has no baseline on its first run, and that must not fail the pipeline.

The verdict JSON mirrors everything printed, so CI can archive it next to
the artifacts themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Perf metrics: (artifact, dotted path, direction, relative tolerance).
#: ``higher`` fails when fresh < baseline * (1 - tol); ``lower`` when
#: fresh > baseline * (1 + tol).
PERF_SPECS = [
    ("BENCH_serving.json", "warm.plans_per_sec", "higher", 0.5),
    ("BENCH_serving.json", "cold.plans_per_sec", "higher", 0.5),
    ("BENCH_serving.json", "warm.p99_ms", "lower", 1.0),
    ("BENCH_training.json", "fast.steps_per_second", "higher", 0.5),
    ("BENCH_training.json", "speedup", "higher", 0.4),
    ("BENCH_gateway.json", "direct.plans_per_sec", "higher", 0.5),
    ("BENCH_fleet.json", "fleet.plans_per_sec", "higher", 0.5),
    ("BENCH_fleet.json", "fleet_vs_baseline", "higher", 0.4),
    ("BENCH_pacer.json", "paced.goodput_per_sec", "higher", 0.5),
    ("BENCH_obs.json", "gateway_tracing.throughput_ratio", "higher", 0.1),
]

#: Correctness invariants on the fresh artifact: (artifact, path, op, ref).
#: ``ref`` starting with ``@`` dereferences another path in the same
#: artifact (cross-field invariants like speedup >= its floor).
CORRECTNESS_SPECS = [
    ("BENCH_serving.json", "warm_speedup", ">=", 1.0),
    ("BENCH_training.json", "loss_trajectory_max_rel_err", "<=", 1e-5),
    ("BENCH_training.json", "speedup", ">=", 1.0),
    ("BENCH_gateway.json", "chaos.fallback_rate", "==", 1.0),
    ("BENCH_gateway.json", "chaos.breaker_trips", ">=", 1.0),
    ("BENCH_fleet.json", "fleet_vs_baseline", ">=", "@speedup_floor"),
    ("BENCH_pacer.json", "paced.goodput_per_sec", ">=", "@bufferbloat.goodput_per_sec"),
    ("BENCH_obs.json", "gateway_tracing.throughput_ratio", ">=", "@gateway_tracing.gate"),
    ("BENCH_obs.json", "gateway_tracing.flight_dumps", ">=", 1.0),
    ("BENCH_obs.json", "fleet_tracing.trees_incomplete", "==", 0.0),
    ("BENCH_obs.json", "fleet_tracing.trees_cross_process", ">=", "@fleet_tracing.trees_complete"),
    ("BENCH_scenarios.json", "rows.drift/gateway.retrains", "==", 1.0),
    ("BENCH_scenarios.json", "rows.drift/gateway.promotes", "==", 1.0),
    ("BENCH_scenarios.json", "determinism.outcome_digest_equal", "==", 1.0),
]

_OPS = {
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
}


def lookup(artifact: dict, path: str):
    node = artifact
    for part in path.split("."):
        if isinstance(node, list):
            # BENCH_scenarios.json's rows: "<scenario>/<target>" names one.
            node = next(
                (r for r in node if f"{r.get('scenario')}/{r.get('target')}" == part),
                None,
            )
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return None
    return node


def load(directory: str, name: str):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        return {"__load_error__": str(exc)}


def check_perf(baseline_dir: str, fresh_dir: str):
    checks, skipped = [], []
    for name, path, direction, tol in PERF_SPECS:
        base = load(baseline_dir, name)
        fresh = load(fresh_dir, name)
        if base is None or fresh is None:
            skipped.append(
                {
                    "artifact": name,
                    "metric": path,
                    "reason": "missing baseline" if base is None else "missing fresh",
                }
            )
            continue
        b, f = lookup(base, path), lookup(fresh, path)
        if not isinstance(b, (int, float)) or not isinstance(f, (int, float)):
            skipped.append(
                {"artifact": name, "metric": path, "reason": "metric absent"}
            )
            continue
        if direction == "higher":
            ok = f >= b * (1.0 - tol)
        else:
            ok = f <= b * (1.0 + tol)
        checks.append(
            {
                "kind": "perf",
                "artifact": name,
                "metric": path,
                "direction": direction,
                "tolerance": tol,
                "baseline": b,
                "fresh": f,
                "ok": bool(ok),
            }
        )
    return checks, skipped


def check_correctness(fresh_dir: str):
    checks, skipped = [], []
    for name, path, op, ref in CORRECTNESS_SPECS:
        fresh = load(fresh_dir, name)
        if fresh is None:
            skipped.append(
                {"artifact": name, "metric": path, "reason": "missing fresh"}
            )
            continue
        value = lookup(fresh, path)
        expected = (
            lookup(fresh, str(ref)[1:]) if isinstance(ref, str) and ref.startswith("@") else ref
        )
        if not isinstance(value, (int, float)) or not isinstance(expected, (int, float)):
            skipped.append(
                {"artifact": name, "metric": path, "reason": "metric absent"}
            )
            continue
        checks.append(
            {
                "kind": "correctness",
                "artifact": name,
                "metric": path,
                "op": op,
                "expected": expected,
                "fresh": value,
                "ok": bool(_OPS[op](value, expected)),
            }
        )
    return checks, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--fresh-dir", required=True)
    parser.add_argument("--out", default=None, help="write the verdict JSON here")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="perf misses fail the run instead of warning",
    )
    args = parser.parse_args(argv)

    perf, skipped = check_perf(args.baseline_dir, args.fresh_dir)
    correctness, skipped2 = check_correctness(args.fresh_dir)
    skipped += skipped2

    perf_misses = [c for c in perf if not c["ok"]]
    correctness_fails = [c for c in correctness if not c["ok"]]
    failed = bool(correctness_fails) or (args.strict and bool(perf_misses))
    status = "fail" if failed else ("warn" if perf_misses else "ok")

    for check in correctness + perf:
        tag = "ok" if check["ok"] else ("FAIL" if check["kind"] == "correctness" or args.strict else "WARN")
        if check["kind"] == "perf":
            detail = (
                f"fresh {check['fresh']:.4g} vs baseline {check['baseline']:.4g} "
                f"({check['direction']} within {check['tolerance']:.0%})"
            )
        else:
            detail = f"fresh {check['fresh']:.4g} {check['op']} {check['expected']:.4g}"
        print(f"[{tag:4s}] {check['artifact']}:{check['metric']} — {detail}")
    for entry in skipped:
        print(f"[skip] {entry['artifact']}:{entry['metric']} — {entry['reason']}")
    print(
        f"verdict: {status} ({len(correctness_fails)} correctness failure(s), "
        f"{len(perf_misses)} perf miss(es), {len(skipped)} skipped)"
    )

    verdict = {
        "status": status,
        "strict": args.strict,
        "checks": correctness + perf,
        "skipped": skipped,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(verdict, fh, indent=2)
        print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
