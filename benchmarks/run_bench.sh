#!/usr/bin/env bash
# Tier-1 gate + the artifact-writing benches, sized for CI.
#
# Runs the tier-1 suite at REPRO_SCALE=smoke, then the benches behind the
# committed benchmarks/BENCH_*.json artifacts — serving, training, gateway,
# fleet, pacer, scenarios, obs (written by the gateway and fleet benches) —
# and the fig11 adaptive-training scenario routed through the model
# lifecycle.  Each bench prints its own table under -s.  At the end,
# check_bench_regressions.py compares every fresh artifact against the
# committed baselines (snapshotted before the benches overwrite them),
# prints the verdict and writes BENCH_verdict.json.
#
# Usage:
#   benchmarks/run_bench.sh                  # artifacts -> benchmarks/BENCH_*.json
#   BENCH_SERVING_OUT=/tmp/b.json benchmarks/run_bench.sh
#   REPRO_SCALE=small benchmarks/run_bench.sh  # bigger workload, same gates

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export REPRO_SCALE="${REPRO_SCALE:-smoke}"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"
export BENCH_SERVING_OUT="${BENCH_SERVING_OUT:-${REPO_ROOT}/benchmarks/BENCH_serving.json}"
export BENCH_TRAINING_OUT="${BENCH_TRAINING_OUT:-${REPO_ROOT}/benchmarks/BENCH_training.json}"
export BENCH_GATEWAY_OUT="${BENCH_GATEWAY_OUT:-${REPO_ROOT}/benchmarks/BENCH_gateway.json}"
export BENCH_FLEET_OUT="${BENCH_FLEET_OUT:-${REPO_ROOT}/benchmarks/BENCH_fleet.json}"
export BENCH_PACER_OUT="${BENCH_PACER_OUT:-${REPO_ROOT}/benchmarks/BENCH_pacer.json}"
export BENCH_SCENARIOS_OUT="${BENCH_SCENARIOS_OUT:-${REPO_ROOT}/benchmarks/BENCH_scenarios.json}"
export BENCH_OBS_OUT="${BENCH_OBS_OUT:-${REPO_ROOT}/benchmarks/BENCH_obs.json}"

# The benches overwrite the committed BENCH_*.json in place, so snapshot
# them first: check_bench_regressions.py compares fresh vs this snapshot
# at the end of the run.
BENCH_BASELINE_DIR="$(mktemp -d -t bench-baselines-XXXXXX)"
cp "${REPO_ROOT}"/benchmarks/BENCH_*.json "${BENCH_BASELINE_DIR}/" 2>/dev/null || true

echo "== tier-1 tests (REPRO_SCALE=${REPRO_SCALE}) =="
python -m pytest "${REPO_ROOT}/tests" -x -q

echo
echo "== serving throughput benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_serving_throughput.py -q -s)

echo
echo "== training throughput benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_training_throughput.py -q -s)

echo
echo "== gateway front-end benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_gateway_throughput.py -q -s)

echo
echo "== fleet throughput benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_fleet_throughput.py -q -s)

echo
echo "== admission pacing benchmark (BBR pacer vs bufferbloat under overload) =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_pacer_overload.py -q -s)

echo
echo "== scenario-matrix benchmark (regimes x gateway/fleet serving configs) =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_scenario_matrix.py -q -s)

echo
echo "== fig11 adaptive training through the model lifecycle =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_fig11_adaptive_training.py -q -s)

echo
echo "== bench regression check (fresh vs committed baselines) =="
python "${REPO_ROOT}/benchmarks/check_bench_regressions.py" \
  --baseline-dir "${BENCH_BASELINE_DIR}" \
  --fresh-dir "${REPO_ROOT}/benchmarks" \
  --out "${REPO_ROOT}/benchmarks/BENCH_verdict.json"
