"""Command-line interface: ``python -m repro``.

Three subcommands:

``run``
    One simulation of any architecture under the Table I workload, with
    the main knobs exposed as flags; prints a measurement report.
``experiment``
    Regenerate a paper table/figure (or an ablation) and print it.
``list``
    Enumerate available architectures and experiments.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.adversary import AdversaryPlan, parse_adversary_plan
from repro.errors import ConfigurationError
from repro.harness import experiments
from repro.harness.architectures import ARCHITECTURES
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.metrics.report import (
    Table,
    adversary_rows,
    control_plane_rows,
    elastic_rows,
    fault_rows,
    profile_table,
    shard_table,
)
from repro.net.faults import FaultPlan, parse_crash_plan

#: Experiment name -> driver.
EXPERIMENTS = {
    "table1": experiments.run_table1,
    "figure6": experiments.run_figure6,
    "figure7": experiments.run_figure7,
    "figure8": experiments.run_figure8,
    "table2": experiments.run_table2,
    "figure9": experiments.run_figure9,
    "figure10": experiments.run_figure10,
    "ablation-culling": experiments.run_ablation_culling,
    "ablation-omega": experiments.run_ablation_omega,
    "ablation-threshold": experiments.run_ablation_threshold,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEVE: action-based consistency protocols for virtual "
        "worlds (reproduction of 'Scalability for Virtual Worlds', ICDE'09)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one architecture on the workload")
    run.add_argument("architecture", choices=ARCHITECTURES)
    run.add_argument("--clients", type=int, default=32)
    run.add_argument("--walls", type=int, default=10_000)
    run.add_argument("--moves", type=int, default=50)
    run.add_argument("--move-cost-ms", type=float, default=7.44)
    run.add_argument("--visibility", type=float, default=30.0)
    run.add_argument("--effect-range", type=float, default=10.0)
    run.add_argument("--rtt-ms", type=float, default=238.0)
    run.add_argument("--omega", type=float, default=0.5)
    run.add_argument("--threshold", type=float, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--shards", type=int, default=1,
        help="shard servers partitioning the world into vertical stripes "
        "(docs/sharding.md); requires a push-mode SEVE architecture",
    )
    run.add_argument(
        "--backend", choices=("inproc", "parallel"), default="inproc",
        help="execution backend (docs/parallel.md): 'inproc' runs "
        "everything in this process, 'parallel' runs shard partitions "
        "in spawned worker processes; results are byte-identical",
    )
    run.add_argument(
        "--workers", type=int, default=0,
        help="partition count for the windowed scheduler (0 = auto: "
        "1 for inproc, one per shard for parallel; clamped to --shards)",
    )
    run.add_argument(
        "--control-plane", choices=("single", "replicated"),
        default="single",
        help="spanning-action sequencer deployment (docs/control_plane.md): "
        "'single' pins the role to shard 0 (byte-identical to the "
        "pre-lease sequencer, but a crash of shard 0 is fatal); "
        "'replicated' grants it through a leased quorum that fails "
        "over when the holder's heartbeats stop",
    )
    run.add_argument(
        "--no-consistency-check", action="store_true",
        help="skip the Theorem 1 sweep at quiescence",
    )
    run.add_argument(
        "--rwset-sanitizer", nargs="?", const="raise", default="off",
        choices=("off", "report", "raise"), metavar="MODE",
        help="check every store access during action evaluation against "
        "the declared RS/WS (docs/static_analysis.md); bare flag = "
        "'raise' (abort on first violation), 'report' collects them "
        "into the run report instead",
    )
    elastic = run.add_argument_group("elastic sharding (docs/elasticity.md)")
    elastic.add_argument(
        "--elastic", action="store_true",
        help="enable the live load-aware rebalancer: shard 0 collects "
        "per-shard load deltas and splits hot stripes / merges cold "
        "ones at run time (requires --shards > 1); off is "
        "byte-identical to the static partition",
    )
    elastic.add_argument(
        "--elastic-interval-ms", type=float, default=2000.0,
        help="load-sampling period of the elastic controller (ms)",
    )
    elastic.add_argument(
        "--elastic-threshold", type=float, default=2.0,
        help="max/mean per-shard load ratio that counts a sampling "
        "round as imbalanced (> 1)",
    )
    elastic.add_argument(
        "--elastic-hysteresis", type=int, default=2,
        help="consecutive imbalanced rounds before a rebalance fires",
    )
    elastic.add_argument(
        "--elastic-min-stripe", type=float, default=None,
        help="narrowest stripe a rebalance may produce, in world units "
        "(default: derived from the span-classification slack)",
    )
    faults = run.add_argument_group(
        "fault injection (docs/fault_model.md)"
    )
    faults.add_argument(
        "--loss-rate", type=float, default=0.0,
        help="per-message drop probability in [0, 1)",
    )
    faults.add_argument(
        "--jitter-ms", type=float, default=0.0,
        help="max uniform extra delivery delay (ms)",
    )
    faults.add_argument(
        "--dup-rate", type=float, default=0.0,
        help="per-message duplicate-delivery probability in [0, 1)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plan's dedicated RNG",
    )
    faults.add_argument(
        "--crash-plan", type=str, default=None, metavar="SPEC",
        help="crash windows, e.g. '0@800:2500,3@1200,s1@2000:6000' "
        "(TARGET@crash_ms[:reconnect_ms], comma-separated; TARGET is a "
        "client id, or sN for shard host N — shard windows need "
        "--shards >= 2, and killing shard 0 for good needs "
        "--control-plane replicated)",
    )
    adversary = run.add_argument_group("adversaries (docs/adversary.md)")
    adversary.add_argument(
        "--adversary", type=str, default=None, metavar="PLAN",
        help="per-client cheating models, e.g. 'lying-rs:0,forge:3+5' "
        "(MODEL:CLIENT[+CLIENT...], comma-separated); arms the "
        "server-side detection/quarantine layer (SEVE architectures "
        "only)",
    )
    adversary.add_argument(
        "--adversary-seed", type=int, default=0,
        help="seed of the cheat models' dedicated RNG",
    )
    obs = run.add_argument_group("observability (docs/observability.md)")
    obs.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write a Chrome trace_event JSON file (open in Perfetto "
        "or chrome://tracing)",
    )
    obs.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the metrics-registry JSON export",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="collect and print the per-phase count/sim-ms breakdown",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--moves", type=int, default=40,
        help="moves per client (paper scale: 100)",
    )
    experiment.add_argument(
        "--walls", type=int, default=20_000,
        help="wall count (paper scale: 100000)",
    )

    sub.add_parser("list", help="list architectures and experiments")
    return parser


def _fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The FaultPlan the run flags describe, or None when all defaults."""
    crashes = parse_crash_plan(args.crash_plan) if args.crash_plan else ()
    if not (args.loss_rate or args.jitter_ms or args.dup_rate or crashes):
        return None
    return FaultPlan(
        loss_rate=args.loss_rate,
        jitter_ms=args.jitter_ms,
        duplicate_rate=args.dup_rate,
        seed=args.fault_seed,
        crashes=crashes,
    )


def _adversary_plan(args: argparse.Namespace) -> Optional[AdversaryPlan]:
    """The AdversaryPlan the run flags describe, or None when defaults."""
    if args.adversary is None and not args.adversary_seed:
        return None
    return AdversaryPlan(
        assignments=parse_adversary_plan(args.adversary or ""),
        seed=args.adversary_seed,
    )


def _command_run(args: argparse.Namespace) -> int:
    settings = SimulationSettings(
        num_clients=args.clients,
        num_walls=args.walls,
        moves_per_client=args.moves,
        move_cost_ms=args.move_cost_ms,
        visibility=args.visibility,
        move_effect_range=args.effect_range,
        rtt_ms=args.rtt_ms,
        omega=args.omega,
        threshold=args.threshold,
        seed=args.seed,
        shards=args.shards,
        control_plane=args.control_plane,
        elastic=args.elastic,
        elastic_interval_ms=args.elastic_interval_ms,
        elastic_threshold=args.elastic_threshold,
        elastic_hysteresis=args.elastic_hysteresis,
        elastic_min_stripe=args.elastic_min_stripe,
        backend=args.backend,
        workers=args.workers,
        rwset_sanitizer=args.rwset_sanitizer,
        fault_plan=_fault_plan(args),
        adversary=_adversary_plan(args),
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        profile=args.profile,
    )
    result = run_simulation(
        args.architecture,
        settings,
        check_consistency=not args.no_consistency_check,
    )
    table = Table(f"repro run — {args.architecture}", ("metric", "value"))
    table.add_row("clients", settings.num_clients)
    table.add_row("moves submitted", result.moves_submitted)
    table.add_row("stable responses", result.responses_observed)
    table.add_row("mean response (ms)", result.response.mean)
    table.add_row("p95 response (ms)", result.response.p95)
    table.add_row("traffic per client (KB)", result.client_traffic_kb)
    table.add_row("total traffic (KB)", result.total_traffic_kb)
    table.add_row("moves dropped (%)", result.drop_percent)
    table.add_row("avg visible avatars", result.avg_visible)
    if result.consistency is not None:
        table.add_row("consistency", result.consistency.summary())
    if args.rwset_sanitizer != "off":
        table.add_row(
            "rwset violations",
            len(result.rwset_violations) if result.rwset_violations else 0,
        )
    if result.shard_audit is not None:
        table.add_row("cross-shard audit", result.shard_audit.summary())
    if settings.fault_plan is not None:
        for metric, value in fault_rows(result):
            table.add_row(metric, value)
    if settings.adversary is not None:
        for metric, value in adversary_rows(result):
            table.add_row(metric, value)
    if settings.elastic:
        for metric, value in elastic_rows(result):
            table.add_row(metric, value)
    if settings.control_plane == "replicated":
        for metric, value in control_plane_rows(result):
            table.add_row(metric, value)
    table.add_row("virtual time (s)", result.virtual_ms / 1000.0)
    table.add_row("wall time (s)", result.wall_seconds)
    print(table.render())
    if result.shard_rows is not None:
        print()
        print(shard_table(result).render())
    if result.profile is not None:
        print()
        print(profile_table(result.profile).render())
    if settings.trace_out is not None:
        print(f"trace written to {settings.trace_out}")
    if settings.metrics_out is not None:
        print(f"metrics written to {settings.metrics_out}")
    if result.rwset_violations:
        print()
        print("RW-set sanitizer violations:")
        for violation in result.rwset_violations:
            print(f"  {violation}")
    if result.detection_records:
        # Detected-and-quarantined cheats are the layer *working*, so
        # they are reported but never fail the run; the consistency
        # gates below cover the surviving honest replicas.
        print()
        print("Cheat detections:")
        for record in result.detection_records:
            print(f"  {record.render()}")
    if result.consistency is not None and not result.consistency.consistent:
        return 1
    if result.shard_audit is not None and not result.shard_audit.consistent:
        return 1
    if result.rwset_violations:
        return 1
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    base = SimulationSettings(
        moves_per_client=args.moves, num_walls=args.walls
    )
    driver = EXPERIMENTS[args.name]
    result = driver(base)
    print(result.render())
    return 0


def _command_list(_: argparse.Namespace) -> int:
    print("architectures:")
    for name in ARCHITECTURES:
        print(f"  {name}")
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Flags that parse but describe an impossible run (a
    :class:`~repro.errors.ConfigurationError`) end like an argparse
    error: one ``repro: error:`` line on stderr and exit code 2.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "experiment":
            return _command_experiment(args)
        return _command_list(args)
    except ConfigurationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
