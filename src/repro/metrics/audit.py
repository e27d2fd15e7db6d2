"""Server-side audit log and cheat detection.

Section II-B of the paper: processing actions at clients raises security
concerns, and "as an added security measure, the servers can also log
MMO statistics to detect any cheating or security threat".  The audit
log records every *committed* action — its queue position, originator,
virtual time, and written values — and offers:

* **Replay**: re-applying the committed history to a fresh copy of the
  initial state must land exactly on the server's authoritative state
  (an end-to-end integrity check of the commit path, and a persistence
  story: the paper's net-VEs checkpoint through a database).
* **Detectors** for the classic MMO exploits (cf. the paper's citation
  of "Dupes, speed hacks and black holes"):
  - speed hacks: an avatar displacing faster than the world's maximum
    speed allows,
  - rate hacks: a client committing actions faster than the declared
    generation rate,
  - damage hacks: health dropping by more than the world's maximum
    damage in one action.

Detection works on committed values only — the server needs no game
logic, preserving the architecture's scalability story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.state.store import ObjectStore, ValuesDict
from repro.types import ClientId, ObjectId, TimeMs


@dataclass(frozen=True)
class AuditRecord:
    """One committed action."""

    pos: int
    client_id: ClientId
    committed_at: TimeMs
    written: Tuple[Tuple[ObjectId, tuple], ...]

    def values(self) -> ValuesDict:
        """The written values as a dict (copy)."""
        return {oid: dict(attrs) for oid, attrs in self.written}


@dataclass(frozen=True)
class CheatAlert:
    """One suspicious committed action."""

    kind: str  # "speed" | "rate" | "damage"
    pos: int
    client_id: ClientId
    detail: str


class AuditLog:
    """Append-only log of committed actions with cheat detectors."""

    def __init__(
        self,
        *,
        max_speed: Optional[float] = None,
        min_action_interval_ms: Optional[float] = None,
        max_damage: Optional[int] = None,
        slack: float = 1.10,
    ) -> None:
        """Detector thresholds; ``None`` disables a detector.

        ``slack`` widens every bound by a tolerance factor so numerical
        noise and legal edge cases (a bounce plus a full-speed step)
        do not alert.
        """
        self.max_speed = max_speed
        self.min_action_interval_ms = min_action_interval_ms
        self.max_damage = max_damage
        self.slack = slack
        self.records: List[AuditRecord] = []
        self.alerts: List[CheatAlert] = []
        self._last_commit_time: Dict[ClientId, TimeMs] = {}
        self._last_position: Dict[ObjectId, Tuple[float, float, TimeMs]] = {}
        self._last_health: Dict[ObjectId, int] = {}

    # ------------------------------------------------------------------
    def record(
        self,
        pos: int,
        client_id: ClientId,
        committed_at: TimeMs,
        values: ValuesDict,
    ) -> None:
        """Append one committed action and run the detectors."""
        written = tuple(
            sorted((oid, tuple(sorted(attrs.items()))) for oid, attrs in values.items())
        )
        record = AuditRecord(pos, client_id, committed_at, written)
        self.records.append(record)
        self._detect_rate(record)
        for oid, attrs in values.items():
            self._detect_speed(record, oid, attrs)
            self._detect_damage(record, oid, attrs)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Detectors
    # ------------------------------------------------------------------
    def _detect_rate(self, record: AuditRecord) -> None:
        if self.min_action_interval_ms is None:
            return
        last = self._last_commit_time.get(record.client_id)
        self._last_commit_time[record.client_id] = record.committed_at
        if last is None:
            return
        interval = record.committed_at - last
        # Commits batch up behind the in-order frontier, so rate hacking
        # is judged on the average over a small window rather than a
        # single gap; a single zero-gap pair is normal.
        if interval * self.slack * 3 < self.min_action_interval_ms:
            recent = [
                r for r in self.records[-6:] if r.client_id == record.client_id
            ]
            if len(recent) >= 3:
                span = record.committed_at - recent[0].committed_at
                allowed = self.min_action_interval_ms * (len(recent) - 1)
                if span * self.slack < allowed * 0.5:
                    self.alerts.append(
                        CheatAlert(
                            "rate",
                            record.pos,
                            record.client_id,
                            f"{len(recent)} actions in {span:.0f}ms "
                            f"(allowed {allowed:.0f}ms)",
                        )
                    )

    def _detect_speed(self, record: AuditRecord, oid: ObjectId, attrs: dict) -> None:
        if self.max_speed is None or "x" not in attrs or "y" not in attrs:
            return
        x, y = float(attrs["x"]), float(attrs["y"])
        previous = self._last_position.get(oid)
        self._last_position[oid] = (x, y, record.committed_at)
        if previous is None:
            return
        px, py, pt = previous
        elapsed_s = max(1e-9, (record.committed_at - pt) / 1000.0)
        displacement = math.hypot(x - px, y - py)
        # Commit times cluster at the in-order frontier, so measure
        # against at least one nominal step of travel.
        allowed = self.max_speed * max(elapsed_s, 0.3) * self.slack
        if displacement > allowed:
            self.alerts.append(
                CheatAlert(
                    "speed",
                    record.pos,
                    record.client_id,
                    f"{oid} moved {displacement:.1f}u in {elapsed_s * 1000:.0f}ms "
                    f"(allowed {allowed:.1f}u)",
                )
            )

    def _detect_damage(self, record: AuditRecord, oid: ObjectId, attrs: dict) -> None:
        if self.max_damage is None or "health" not in attrs:
            return
        health = int(attrs["health"])
        previous = self._last_health.get(oid)
        self._last_health[oid] = health
        if previous is None:
            return
        drop = previous - health
        if drop > self.max_damage * self.slack:
            self.alerts.append(
                CheatAlert(
                    "damage",
                    record.pos,
                    record.client_id,
                    f"{oid} lost {drop} health (max damage {self.max_damage})",
                )
            )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, initial_state: ObjectStore) -> ObjectStore:
        """Re-apply the committed history to a copy of ``initial_state``.

        Returns the reconstructed store; callers compare it against the
        live authoritative state (they must be identical — the log IS
        the world's history, which is also the checkpoint/persistence
        story of Section II).
        """
        store = initial_state.snapshot()
        for record in self.records:
            store.merge(record.values())
        return store
