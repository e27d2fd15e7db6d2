"""The four workloads, their sizes, and how a run's seed becomes inputs.

Every workload runs the full SEVE architecture open loop in virtual
time: each client submits one move per 300 ms whether or not replies
came back.  Fields not named here are ``SimulationSettings`` defaults,
which are Table I of the paper.

The cut rule: if the time budget shrinks, cut repetitions first, then
``moves_per_client`` — never client count, spawn, walls or K, because
those choose which layer a workload loads.
"""

from __future__ import annotations

from typing import Dict

ARCHITECTURE = "seve"

_SPRAWL = dict(
    num_clients=1024,
    num_walls=10_000,
    moves_per_client=4,
    world_width=4000.0,
    spawn="uniform",
)

#: ``SimulationSettings`` fields per workload at full scale.
WORKLOADS: Dict[str, dict] = {
    # The paper's saturated crowd: everyone spawns in one 160-unit
    # square, so conflict chains are long, the Information Bound drops
    # moves, and wall geometry plus client-side apply do most of the work.
    "crowd_k1": dict(num_clients=128, num_walls=20_000, moves_per_client=8),
    # Many clients, few neighbours: validation scan, event dispatch, host
    # queue, network send and workload submission dominate.
    "sprawl_k1": dict(_SPRAWL),
    # Same inputs on four shards in one heap: adds span forwarding,
    # sequencing, splice and handoff.
    "sprawl_k4": dict(_SPRAWL, shards=4),
    # Same simulation through the windowed coordinator, the binary codec,
    # pipes and two spawned worker processes.
    "sprawl_k4_par": dict(_SPRAWL, shards=4, backend="parallel", workers=2),
}

#: Sizes for ``--scale smoke`` (self-tests; seconds, not minutes).
_SMOKE_SPRAWL = dict(num_clients=48, num_walls=500, moves_per_client=3, world_width=600.0)
SMOKE = {
    "crowd_k1": dict(num_clients=16, num_walls=2_000, moves_per_client=4),
    "sprawl_k1": _SMOKE_SPRAWL,
    "sprawl_k4": _SMOKE_SPRAWL,
    "sprawl_k4_par": _SMOKE_SPRAWL,
}

#: Simulations per timed run, each on its own sub-seed.  Simulated
#: response times depend strongly on the seed (one unlucky conflict
#: chain moves the tail), so one run pools several worlds; four is what
#: the driver's time budget (about 37 s per run) leaves room for.
SUBSEEDS = 4


def settings_fields(workload: str, scale: str = "full") -> dict:
    """``SimulationSettings`` keyword arguments of ``workload``."""
    fields = dict(WORKLOADS[workload])
    if scale == "smoke":
        fields.update(SMOKE[workload])
    return fields


def twin_fields(fields: dict) -> dict:
    """The in-process windowed twin of a parallel workload: same
    partitions and window schedule, replicas stepped inline.  Its
    results are byte-identical to the parallel run's by contract."""
    return dict(fields, backend="inproc")


def subseed(seed: int, index: int) -> int:
    """The simulation seed of sub-run ``index`` of benchmark seed ``seed``."""
    return seed * 1000 + index


def sim_record(result) -> dict:
    """The deterministic outcome of a run: every field must repeat
    exactly for the same seed, whatever the host or backend."""
    ops = result.moves_submitted
    responses = result.responses_observed
    dropped = round(result.drop_percent * ops / 100.0)
    consistent = bool(
        result.consistency is not None and result.consistency.consistent
    ) and (result.shard_audit is None or bool(result.shard_audit.consistent))
    response = result.response
    rows = result.shard_rows or []
    return {
        "sim_response_ms_p50": response.p50,
        "sim_response_ms_p99": response.p99,
        "sim_response_ms_mean": response.mean,
        "sim_traffic_kb_per_client": result.client_traffic_kb,
        "sim_confirmed_pct": 100.0 * responses / ops if ops else 0.0,
        "ops": ops,
        "responses": responses,
        "dropped": dropped,
        "events": result.events,
        "virtual_ms": result.virtual_ms,
        "consistent": consistent,
        "spans_forwarded": sum(row["spans_forwarded"] for row in rows),
        "spans_spliced": sum(row["spans_spliced"] for row in rows),
        "handoffs": sum(row["handoffs_out"] for row in rows),
    }
