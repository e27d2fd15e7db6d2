#!/usr/bin/env bash
# Test driver: lints + doctests + fast tier-1 suite first, then the
# slow fault-injection matrix (docs/fault_model.md).
#
# Usage:
#   scripts/test.sh            everything: lints, doctests, fast suite,
#                              sharded + parallel + adversary +
#                              malformed-input smoke runs, the perf
#                              benchmark's self-tests,
#                              the parallel-backend differential,
#                              slow differentials, fault matrix
#   scripts/test.sh --fast     lints, doctests, fast suite, parallel +
#                              adversary + malformed-input smoke
#                              (pre-commit gate)
#   scripts/test.sh --faults   fault matrix only (-m faults)
#
# The fault matrix replays degraded-network and churn scenarios (loss,
# jitter, duplication, crash/reconnect) across the architectures and
# takes several minutes.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

# Static analysis (docs/static_analysis.md): the AST determinism
# linter — the simulation must be a pure function of its seeds, so
# wall-clock reads, unseeded RNGs, unsorted set/dict iteration, and
# id() ordering are banned from the library — plus the RW-set escape
# checker over every Action subclass (compute/apply must only touch
# declared object ids), the protocol conformance analyzer (every
# spec'd message has a sender and a handler site: a dispatch-table key
# or an isinstance branch), and the schedule-permutation race smoke
# (the default scenarios under every permutation rule, ~1s).
# The JSON mode is exercised too so the CI output format cannot rot.
static_analysis() {
  python scripts/lint.py --check determinism src/repro scripts examples
  python scripts/lint.py --check rwset src/repro/world examples
  python scripts/lint.py --check protocol
  python scripts/lint.py --check races
  python scripts/lint.py --check determinism --json src/repro \
    | python -c 'import json,sys; json.load(sys.stdin)'
  # The size numbers CHANGES.md/ROADMAP quote, as a ratchet: neither
  # the total nor the largest file may grow past what the last PR that
  # shrank them landed (lower the two numbers when a PR shrinks them).
  python scripts/code_size.py --json \
    | python -c 'import json,sys; size = json.load(sys.stdin); assert 0 < size["total"] <= 13567 and size["files"]["core/sharded.py"] <= 1184, size["total"]'
}

# Documentation lint (links resolve; docs/index.md covers docs/*.md)
# and the executable examples embedded in docstrings.
lint_and_doctests() {
  static_analysis
  python scripts/docs_lint.py
  python -m pytest -x -q --doctest-modules \
    src/repro/obs src/repro/metrics/report.py src/repro/net/stats.py \
    src/repro/core/detection.py src/repro/core/elastic.py \
    src/repro/harness/config.py scripts/docs_lint.py
}

# End-to-end smoke of the sharded deployment through the real CLI (the
# cross-shard audit runs inside and fails the exit code on violations).
sharded_smoke() {
  python -m repro run seve --clients 8 --walls 0 --moves 10 --shards 2 \
    --seed 7 >/dev/null
}

# One run through flags that are derived from SimulationSettings' field
# declarations and did not exist while cli.py spelled each flag out
# (docs/settings.md): a uniform spawn over a 600-wide world, unbounded
# links, two shards.
derived_flags_smoke() {
  python -m repro run seve --clients 8 --walls 0 --moves 10 \
    --spawn uniform --world-width 600 --bandwidth-bps none --shards 2 \
    --seed 7 >/dev/null
}

# Same run through the multiprocessing backend (docs/parallel.md): two
# spawned shard workers behind the CLI; exercises worker launch, the
# codec transport, bundle routing, and the merged audit/report path.
# Then K = 4 on three workers — uneven stripes, a lead with two
# siblings.  Each run gets a session of its own, and a process still
# running in it two seconds after the command returned is a worker
# nobody reaped.  (multiprocessing's resource tracker outlives its
# parent by an instant, and stays a zombie under an init that reaps
# nothing: hence the patience, and the run states.)
parallel_smoke() {
  local shape tries
  for shape in "--shards 2" "--shards 4 --workers 3"; do
    setsid python -m repro run seve --clients 8 --walls 0 --moves 10 \
      $shape --backend parallel --seed 7 >/dev/null &
    wait $!
    tries=0
    while pgrep --session $! --runstates D,R,S,T >/dev/null; do
      tries=$((tries + 1))
      if [ "$tries" -ge 20 ]; then
        echo "parallel_smoke: a child process outlived the run ($shape)" >&2
        pkill -KILL --session $! || true
        return 1
      fi
      sleep 0.1
    done
  done
}

# Adversary smoke (docs/adversary.md): three cheating clients on a
# sharded run through the real CLI — detection, quarantine, and the
# honest-survivor consistency gate all inside the exit code.
adversary_smoke() {
  python -m repro run seve --clients 8 --walls 0 --moves 8 --shards 2 \
    --adversary "forge:2,replay:3,lying-ws:4" --rwset-sanitizer \
    --seed 11 >/dev/null
}

# Elastic smoke (docs/elasticity.md): a K=4 run through the real CLI
# with the live rebalancer on an aggressive trigger — load reports,
# split/merge drains, and the cross-shard audit all inside the exit
# code.
elastic_smoke() {
  python -m repro run seve --clients 8 --walls 0 --moves 10 --shards 4 \
    --elastic --elastic-interval-ms 400 --elastic-threshold 1.5 \
    --seed 7 >/dev/null
}

# Crash-at-K smoke (docs/control_plane.md): a K=4 run through the real
# CLI on the multiprocessing backend with the replicated sequencer and
# a mid-run shard crash + restart — failover machinery, checkpoint+WAL
# recovery, the casualty rule, and the honest-survivor audits all
# inside the exit code.
controlplane_smoke() {
  python -m repro run seve --clients 12 --walls 60 --moves 8 --shards 4 \
    --backend parallel --control-plane replicated \
    --crash-plan 's2@1500:3500' --rtt-ms 150 --seed 13 >/dev/null
}

# Malformed-input smoke (ROADMAP aim 3: a typed error, never a hang): a
# non-finite move period used to never return; the run must
# end in exit 2, and a hang fails the script instead of stalling it.
malformed_input_smoke() {
  local status=0
  timeout 20 python -m repro run seve --clients 4 --walls 0 --moves 2 \
    --move-interval-ms inf >/dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ]
}

# The perf benchmark's self-tests (benchmarks/perf/README.md, ~20 s at
# smoke scale): its probes patch the layers' seams by name, so a renamed
# method fails here instead of in the benchmark.
perf_benchmark_selftests() {
  python -m pytest -x -q benchmarks/perf/tests
}

case "${1:-}" in
  --fast)
    lint_and_doctests
    python -m pytest -x -q -m "not slow"
    parallel_smoke
    adversary_smoke
    elastic_smoke
    controlplane_smoke
    malformed_input_smoke
    ;;
  --faults)
    python -m pytest -x -q -m faults
    ;;
  *)
    lint_and_doctests
    python -m pytest -x -q -m "not slow"
    sharded_smoke
    derived_flags_smoke
    parallel_smoke
    adversary_smoke
    elastic_smoke
    controlplane_smoke
    malformed_input_smoke
    perf_benchmark_selftests
    # Full parallel-vs-inproc differential (clean + lossy, K ∈ {1,2,4})
    python -m pytest -x -q tests/test_parallel_backend.py
    python -m pytest -x -q -m "slow and not faults"
    # The wall kernel's full 200k-query oracle sweep (the suite runs the
    # first tenth of the same seeded stream).
    python -m tests.test_walls_differential
    python -m pytest -x -q -m faults
    ;;
esac
