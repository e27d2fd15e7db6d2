#!/usr/bin/env bash
# Tier-1 tests + the observability/sharding, parallel-backend,
# adversary, and elastic benchmarks.
#
# Runs the full test suite (differential/property tests included), then
# regenerates BENCH_pushpath.json (the observability overhead and the
# K in {1,2,4,8} bottleneck-shard sweep; its brute-vs-indexed push-path
# sections went with the brute-force scans), BENCH_parallel.json,
# BENCH_adversary.json, BENCH_elastic.json, and
# BENCH_controlplane.json (repo root) so every
# PR leaves a fresh per-feature record.  BENCH_parallel.json is
# the K in {1,2,4,8} x {inproc,parallel} real-core sweep of the
# multiprocessing shard backend; its >=2x-at-K=4 acceptance gate only
# applies on hosts with >= 4 cores.  BENCH_adversary.json records
# cheat-detection latency and blast radius across K in {1,2,4}, clean
# and lossy (docs/adversary.md).  BENCH_elastic.json records
# bottleneck-shard cost under a K=4 flash crowd with the live
# rebalancer off vs on, clean and lossy (docs/elasticity.md).
# BENCH_controlplane.json records the gsn-lease failover outage after
# a permanent sequencer kill (docs/control_plane.md).
# BENCH_protocol.json records the race explorer's schedule and run
# counts; every permuted order must hold the invariants
# (docs/static_analysis.md).
#
# Then it runs the paper's 16 tables and figures (EXPERIMENTS.md), one
# pytest module each under benchmarks/: each rewrites its table under
# benchmarks/results/ and asserts the shape the paper reports, so a
# failed shape assert fails this script (about 2.6 minutes on 2 vCPUs).
#
# Usage:  scripts/bench.sh [--quick]        (--quick: smaller end-to-end run)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

PAPER_BENCHES=(
  table1_settings figure6 figure7 figure8 figure9 figure10 table2
  server_capacity protocol_comparison zone_crowding hybrid
  ablation_culling ablation_delay ablation_interest ablation_omega
  ablation_threshold
)

paper_benches() {
  local name files=()
  for name in "${PAPER_BENCHES[@]}"; do
    files+=("benchmarks/bench_$name.py")
  done
  python -m pytest -q --benchmark-only "${files[@]}"
}

scripts/test.sh
paper_benches
python benchmarks/bench_wallclock.py "$@"
python benchmarks/bench_adversary.py "$@"
python benchmarks/bench_elastic.py "$@"
python benchmarks/bench_controlplane.py "$@"
python benchmarks/bench_protocol.py "$@"
