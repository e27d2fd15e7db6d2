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
# BENCH_controlplane.json records the replicated sequencer's
# throughput parity with the shard-0 singleton and the failover outage
# after a permanent sequencer kill (docs/control_plane.md).
# BENCH_protocol.json records the protocol conformance toolchain:
# flow-graph size and finding count (must be zero) plus the race
# explorer's schedule/run counts (docs/static_analysis.md).
#
# Usage:  scripts/bench.sh [--quick]        (--quick: smaller end-to-end run)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

scripts/test.sh
python benchmarks/bench_wallclock.py "$@"
python benchmarks/bench_adversary.py "$@"
python benchmarks/bench_elastic.py "$@"
python benchmarks/bench_controlplane.py "$@"
python benchmarks/bench_protocol.py "$@"
