"""Command-line interface: ``python -m repro``.

Three subcommands:

``run``
    One simulation of any architecture under the Table I workload;
    prints a measurement report.  Every scalar field of
    :class:`~repro.harness.config.SimulationSettings` is a flag, derived
    from the field's own declaration (spelling, default, help, choices);
    only the composite fault and adversary plans have hand-written flag
    groups.  docs/settings.md is the generated table.
``experiment``
    Regenerate a paper table/figure (or an ablation) and print it.
``list``
    Enumerate available architectures and experiments.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Dict, List, Optional

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


#: ``run --help`` groups a knob's ``group=`` may name, in print order.
GROUPS = {
    "elastic": "elastic sharding (docs/elasticity.md)",
    "faults": "fault injection (docs/fault_model.md)",
    "adversary": "adversaries (docs/adversary.md)",
    "obs": "observability (docs/observability.md)",
}


def float_or_none(text: str) -> Optional[float]:
    """The argparse ``type`` of an ``Optional[float]`` knob whose
    ``None`` is a value (``--bandwidth-bps none``)."""
    return None if text.lower() == "none" else float(text)


#: Annotation of a scalar ``SimulationSettings`` field -> how argparse
#: reads its flag; the composite fields (``fault_plan``, ``adversary``)
#: are assembled from the hand-written flag groups below.
FLAG_KINDS = {
    "int": dict(type=int),
    "float": dict(type=float),
    "str": dict(type=str),
    "bool": dict(action="store_true"),
    "Optional[float]": dict(type=float_or_none),
    "Optional[str]": dict(type=str),
}


def run_flags() -> Dict[str, dataclasses.Field]:
    """Flag spelling -> the scalar ``SimulationSettings`` field it sets,
    in declaration order."""
    return {
        knob.metadata.get("flag", "--" + knob.name.replace("_", "-")): knob
        for knob in dataclasses.fields(SimulationSettings)
        if knob.type in FLAG_KINDS
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
    groups = {name: run.add_argument_group(title) for name, title in GROUPS.items()}
    for flag, knob in run_flags().items():
        spec = knob.metadata
        kind = dict(FLAG_KINDS[knob.type], **spec.get("argparse", {}))
        if "choices" in spec:
            kind["choices"] = [c for c in spec["choices"] if c is not None]
        groups.get(spec.get("group"), run).add_argument(
            flag, default=spec.get("cli", knob.default), help=spec.get("help"), **kind
        )
    run.add_argument(
        "--no-consistency-check", action="store_true",
        help="skip the Theorem 1 sweep at quiescence",
    )
    faults = groups["faults"]
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
    adversary = groups["adversary"]
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


def settings_from_args(args: argparse.Namespace) -> SimulationSettings:
    """The run a parsed ``run`` command line describes."""
    return SimulationSettings(
        fault_plan=_fault_plan(args),
        adversary=_adversary_plan(args),
        **{
            knob.name: getattr(args, flag[2:].replace("-", "_"))
            for flag, knob in run_flags().items()
        },
    )


def _command_run(args: argparse.Namespace) -> int:
    settings = settings_from_args(args)
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
    if settings.rwset_sanitizer != "off":
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
