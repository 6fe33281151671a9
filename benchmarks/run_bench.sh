#!/usr/bin/env bash
# Tier-1 gate + the two artifact-writing benches + fig11, sized for CI.
#
# Runs the tier-1 suite at REPRO_SCALE=smoke, then the benches behind the
# committed benchmarks/BENCH_*.json artifacts — training throughput
# (BENCH_training.json) and the scenario matrix (BENCH_scenarios.json) —
# and the fig11 adaptive-training scenario routed through the model
# lifecycle.  Each bench prints its own table under -s and asserts its own
# gates, so the script fails on the first one missed.  Serving, gateway,
# fleet, pacing and tracing performance is measured by bench_e2e/run.py.
#
# Usage:
#   benchmarks/run_bench.sh                    # artifacts -> benchmarks/BENCH_*.json
#   BENCH_TRAINING_OUT=/tmp/t.json benchmarks/run_bench.sh
#   REPRO_SCALE=small benchmarks/run_bench.sh  # bigger workload, same gates

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export REPRO_SCALE="${REPRO_SCALE:-smoke}"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"
export BENCH_TRAINING_OUT="${BENCH_TRAINING_OUT:-${REPO_ROOT}/benchmarks/BENCH_training.json}"
export BENCH_SCENARIOS_OUT="${BENCH_SCENARIOS_OUT:-${REPO_ROOT}/benchmarks/BENCH_scenarios.json}"

echo "== tier-1 tests (REPRO_SCALE=${REPRO_SCALE}) =="
python -m pytest "${REPO_ROOT}/tests" -x -q

echo
echo "== training throughput benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_training_throughput.py -q -s)

echo
echo "== scenario-matrix benchmark (regimes x gateway/fleet serving configs) =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_scenario_matrix.py -q -s)

echo
echo "== fig11 adaptive training through the model lifecycle =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_fig11_adaptive_training.py -q -s)
