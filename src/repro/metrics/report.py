"""Plain-text report tables.

The benchmark harness prints the same rows/series the paper's tables and
figures report; this module renders them as aligned ASCII tables so the
output of ``pytest benchmarks/`` is directly comparable to the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Union

Cell = Union[str, int, float, None]


def _render(cell: Cell) -> str:
    if cell is None:
        return "n/a"
    if isinstance(cell, float):
        if math.isnan(cell):
            return "n/a"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


@dataclass
class Table:
    """A titled table with named columns."""

    title: str
    columns: Sequence[str]
    rows: List[List[Cell]] = field(default_factory=list)
    note: str = ""

    def add_row(self, *cells: Cell) -> None:
        """Append a row (must match the column count)."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """The table as aligned ASCII text."""
        return format_table(self)

    def __str__(self) -> str:
        return self.render()


def format_table(table: Table) -> str:
    """Render ``table`` with a title rule, aligned columns, and an
    optional footnote."""
    rendered_rows = [[_render(cell) for cell in row] for row in table.rows]
    headers = [str(name) for name in table.columns]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered_rows))
        if rendered_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines.append(table.title)
    lines.append(rule)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(rule)
    for row in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    lines.append(rule)
    if table.note:
        lines.append(f"note: {table.note}")
    return "\n".join(lines)


def fault_rows(result) -> List[List[Cell]]:
    """Fault-injection counter rows for a :class:`RunResult`.

    Returned as ``(metric, value)`` pairs ready for ``Table.add_row`` —
    the CLI appends them to its report when a fault plan was active.
    """
    return [
        ["messages dropped", result.messages_dropped],
        ["messages duplicated", result.messages_duplicated],
        ["retransmissions", result.retransmissions],
        ["clients evicted", result.clients_evicted],
    ]


def adversary_rows(result) -> List[List[Cell]]:
    """Cheat-detection counter rows for a :class:`RunResult`.

    Returned as ``(metric, value)`` pairs ready for ``Table.add_row`` —
    the CLI appends them to its report when an adversary plan was
    active.  Per-detector counts come out name-sorted.

    >>> from types import SimpleNamespace
    >>> adversary_rows(SimpleNamespace(
    ...     cheats_detected=2,
    ...     clients_quarantined=(2, 5),
    ...     detector_counts={"forgery": 3, "equivocation": 1},
    ... ))
    [['cheats detected', 2], ['clients quarantined', '2, 5'], ['detect[equivocation]', 1], ['detect[forgery]', 3]]
    >>> adversary_rows(SimpleNamespace(
    ...     cheats_detected=0, clients_quarantined=(), detector_counts={}
    ... ))[1]
    ['clients quarantined', 'none']
    """
    quarantined = ", ".join(
        str(client_id) for client_id in result.clients_quarantined
    )
    rows: List[List[Cell]] = [
        ["cheats detected", result.cheats_detected],
        ["clients quarantined", quarantined or "none"],
    ]
    for name, count in sorted((result.detector_counts or {}).items()):
        rows.append([f"detect[{name}]", count])
    return rows


def elastic_rows(result) -> List[List[Cell]]:
    """Elastic-rebalancer rows for a :class:`RunResult`.

    Returned as ``(metric, value)`` pairs ready for ``Table.add_row`` —
    the CLI appends them to its report when ``--elastic`` was on.  One
    row per committed rebalance shows when it fired, the imbalance that
    triggered it, and the interior cuts it installed.

    >>> from types import SimpleNamespace
    >>> elastic_rows(SimpleNamespace(rebalance_events=(
    ...     {"version": 1, "at_ms": 4001.0, "imbalance": 2.37,
    ...      "boundaries": (1355.02, 1774.0, 2315.36)},
    ... )))
    [['rebalances', 1], ['rebalance[v1]', '@4001ms x2.37 -> 1355.0|1774.0|2315.4']]
    >>> elastic_rows(SimpleNamespace(rebalance_events=()))
    [['rebalances', 0]]
    """
    rows: List[List[Cell]] = [["rebalances", len(result.rebalance_events)]]
    for event in result.rebalance_events:
        cuts = "|".join(str(round(cut, 1)) for cut in event["boundaries"])
        rows.append([
            f"rebalance[v{event['version']}]",
            f"@{event['at_ms']:g}ms x{event['imbalance']:.2f} -> {cuts}",
        ])
    return rows


def failover_rows(result) -> List[List[Cell]]:
    """Sequencer-failover rows for a :class:`RunResult`.

    Returned as ``(metric, value)`` pairs ready for ``Table.add_row`` —
    the CLI appends them when the run has failover events.  One row per
    completed failover shows the new sequencer, when its lease was
    granted, and the campaign latency (suspicion to grant).

    >>> from types import SimpleNamespace
    >>> failover_rows(SimpleNamespace(failover_events=(
    ...     {"term": 1, "holder": 2, "at_ms": 2002.0, "latency_ms": 2.0},
    ... )))
    [['sequencer failovers', 1], ['failover[t1]', 'shard 2 @2002ms (campaign 2ms)']]
    >>> failover_rows(SimpleNamespace(failover_events=()))
    [['sequencer failovers', 0]]
    """
    rows: List[List[Cell]] = [
        ["sequencer failovers", len(result.failover_events)]
    ]
    for event in result.failover_events:
        rows.append([
            f"failover[t{event['term']}]",
            f"shard {event['holder']} @{event['at_ms']:g}ms "
            f"(campaign {event['latency_ms']:g}ms)",
        ])
    return rows


def profile_rows(profile: dict) -> List[List[Cell]]:
    """Per-phase breakdown rows from a :attr:`RunResult.profile` dict.

    Phases follow the ``layer.component[.step]`` naming convention of
    docs/observability.md; rows come out phase-name sorted with the
    count and the attributed simulated milliseconds.

    >>> rows = profile_rows({
    ...     "sim.dispatch": {"count": 12, "sim_ms": 0.0},
    ...     "client.apply": {"count": 3, "sim_ms": 28.02},
    ... })
    >>> rows[0]
    ['client.apply', 3, 28.02]
    >>> len(rows)
    2
    """
    return [
        [phase, entry["count"], entry["sim_ms"]]
        for phase, entry in sorted(profile.items())
    ]


def profile_table(profile: dict, title: str = "Per-phase breakdown") -> Table:
    """The ``--profile`` breakdown as a renderable :class:`Table`.

    >>> table = profile_table({
    ...     "server.push.closure": {"count": 2, "sim_ms": 0.08},
    ... })
    >>> print(table.render())  # doctest: +NORMALIZE_WHITESPACE
    Per-phase breakdown
    ----------------------------------
    phase                count  sim ms
    ----------------------------------
    server.push.closure      2    0.08
    ----------------------------------
    note: sim ms = virtual time attributed to the phase; for wall-clock time per layer run benchmarks/perf/run.py --trace 1
    """
    table = Table(
        title,
        ["phase", "count", "sim ms"],
        note=(
            "sim ms = virtual time attributed to the phase; for wall-clock "
            "time per layer run benchmarks/perf/run.py --trace 1"
        ),
    )
    for row in profile_rows(profile):
        table.add_row(*row)
    return table


def shard_table(result, title: str = "Per-shard breakdown") -> Table:
    """Sharded-run summary (:attr:`RunResult.shard_rows`) as a table.

    One row per shard server: the stripe it owns at quiescence (static
    runs show the equal cuts; ``--elastic`` runs show where the
    rebalancer left them), attached clients, actions serialized and
    committed by its local queue, cross-shard forward/splice and
    handoff counters, push cycles, and the shard host's simulated CPU
    time — the numbers behind the sharded scaling claim (the per-shard
    serialized count drops as K grows).
    """
    table = Table(
        title,
        [
            "shard",
            "stripe",
            "clients",
            "serialized",
            "committed",
            "spans fwd",
            "spans spliced",
            "handoffs out/in",
            "push cycles",
            "cpu ms",
        ],
        note="spans are sequenced once (by the lease-holding sequencer; "
        "shard 0 unless a failover moved it) and spliced into every "
        "involved shard's stream",
    )
    for row in result.shard_rows or ():
        stripe = row.get("stripe")
        table.add_row(
            row["shard"],
            f"[{stripe[0]:g}, {stripe[1]:g})" if stripe else "-",
            row["clients"],
            row["serialized"],
            row["committed"],
            row["spans_forwarded"],
            row["spans_spliced"],
            f"{row['handoffs_out']}/{row['handoffs_in']}",
            row["push_cycles"],
            round(row["cpu_ms"], 2),
        )
    return table
