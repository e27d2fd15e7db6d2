"""Hybrid P2P / client-server distribution — the paper's Section VII
future work.

The paper keeps the client-server architecture for control (timestamps,
validation, commits stay at the trusted server — the company's levers
against cheating and for persistence) but names a hybrid "that strives
a balance between P2P and client-server" as future work.  The dominant
server cost in SEVE is *egress*: nearby clients receive largely
overlapping push batches, and the server pays for every copy.

:class:`HybridRelayServer` keeps every control-plane responsibility at
the server and offloads only the bulk fan-out.  Clients are grouped (in
attach order) into relay groups of ``GROUP_SIZE``; each group's first
live member is its **relay head**.  Each push cycle, the group's
batches are folded into one :class:`~repro.core.messages.GroupBundle`
whose shared entries are deduplicated — an action pushed to all four
group members leaves the server once plus three 4-byte references.  The
head keeps its own batch and forwards the rest over lazily created peer
links, paying one extra hop of latency and its own uplink bandwidth
(the new constraint that bounds sensible group sizes).

Abort notices and reactive replies stay direct; a dead head degrades
its group to direct sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.messages import GroupBundle, OrderedAction
from repro.core.server_incomplete import IncompleteWorldServer
from repro.types import ClientId

#: Clients per relay group: server egress per group tends toward
#: 1/GROUP_SIZE, and the head's uplink pays for the other members.
GROUP_SIZE = 4


@dataclass
class HybridStats:
    """Relay bookkeeping."""

    direct_batches: int = 0
    bundles_sent: int = 0
    #: Entries that rode a bundle as a 4-byte reference instead of a
    #: full copy — the egress the relay scheme saved.
    deduplicated_entries: int = 0


class HybridRelayServer(IncompleteWorldServer):
    """Incomplete World server with peer-relayed, deduplicated fan-out."""

    def __init__(self, *args, bundling: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Relay bundling assumes heads do not fail with a bundle in
        #: flight — the server marks entries sent to every member when
        #: the bundle leaves, so a head crash silently strands the other
        #: members' data.  Under fault plans with crash windows the
        #: engine turns bundling off and the hybrid degrades to direct
        #: per-client delivery (see docs/fault_model.md).
        self.bundling = bundling
        self.hybrid_stats = HybridStats()
        #: Clients ordered for grouping.  Starts as attach order and is
        #: re-sorted spatially at the first distribution: batch overlap
        #: (the thing deduplication monetises) is a function of avatar
        #: proximity, so groups should be neighbourhoods, not join-order
        #: accidents.
        self._attach_order: List[ClientId] = []
        #: ClientId -> slot in ``_attach_order``; rebuilt with the sort
        #: so ``group_of`` is O(group) instead of an O(n) list.index()
        #: per batch per push cycle.
        self._group_slot: Dict[ClientId, int] = {}
        self._spatially_grouped = False

    def attach_client(self, client_id: ClientId, **kwargs) -> None:
        super().attach_client(client_id, **kwargs)
        if client_id not in self._group_slot:
            self._group_slot[client_id] = len(self._attach_order)
            self._attach_order.append(client_id)
            self._spatially_grouped = False

    def _ensure_spatial_groups(self) -> None:
        if self._spatially_grouped:
            return
        self._spatially_grouped = True

        def sort_key(client_id: ClientId):
            position = self._client_position(client_id)
            if position is None:
                return (1, 0.0, 0.0, client_id)
            # Row-major stripes roughly one visibility-band tall keep
            # group members mutually close.
            return (0, position.y // 60.0, position.x, client_id)

        self._attach_order.sort(key=sort_key)
        self._group_slot = {
            client_id: slot for slot, client_id in enumerate(self._attach_order)
        }

    # ------------------------------------------------------------------
    def group_of(self, client_id: ClientId) -> List[ClientId]:
        """The live members of the client's relay group."""
        self._ensure_spatial_groups()
        index = self._group_slot.get(client_id)
        if index is None:
            return []
        start = index - index % GROUP_SIZE
        return [
            candidate
            for candidate in self._attach_order[start : start + GROUP_SIZE]
            if candidate in self.clients and self.network.is_registered(candidate)
        ]

    def relay_head_for(self, client_id: ClientId) -> Optional[ClientId]:
        """The client's relay head, or ``None`` when it heads its own
        group (or is unknown)."""
        group = self.group_of(client_id)
        if not group or group[0] == client_id:
            return None
        return group[0]

    # ------------------------------------------------------------------
    def _distribute_batches(
        self, batches: List[Tuple[ClientId, List[OrderedAction]]]
    ) -> None:
        if not self.bundling:
            super()._distribute_batches(batches)
            return
        by_head: Dict[ClientId, List[Tuple[ClientId, List[OrderedAction]]]] = {}
        for client_id, batch_entries in batches:
            if not batch_entries:
                continue
            group = self.group_of(client_id)
            head = group[0] if group else client_id
            by_head.setdefault(head, []).append((client_id, batch_entries))
        for head, group_batches in by_head.items():
            if len(group_batches) == 1 and group_batches[0][0] == head:
                # Just the head itself: nothing to bundle.
                self.hybrid_stats.direct_batches += 1
                self._send_batch(head, group_batches[0][1])
                continue
            self._send_bundle(head, group_batches)

    def _send_bundle(
        self,
        head: ClientId,
        group_batches: List[Tuple[ClientId, List[OrderedAction]]],
    ) -> None:
        shared: List[OrderedAction] = []
        # entry -> index into shared: a code entry is one object per
        # queue entry, a late value entry one per member.
        shared_index: Dict[OrderedAction, int] = {}
        members = []
        deduplicated_before = self.hybrid_stats.deduplicated_entries
        for client_id, batch_entries in group_batches:
            items: list = []
            for entry in batch_entries:
                if entry.pos < 0:
                    items.append(entry)  # member-specific blind write
                    continue
                index = shared_index.get(entry)
                if index is None:
                    index = len(shared)
                    shared.append(entry)
                    shared_index[entry] = index
                else:
                    self.hybrid_stats.deduplicated_entries += 1
                items.append(index)
            members.append((client_id, tuple(items)))
            self.stats.batches_sent += 1
            self.stats.entries_distributed += len(batch_entries)
        bundle = GroupBundle(
            tuple(shared), tuple(members), last_installed=self._base_pos - 1
        )
        self.send(head, bundle)
        self.hybrid_stats.bundles_sent += 1
        if self.sim.obs is not None:
            self.sim.obs.on_hybrid_bundle(
                self.sim.now,
                len(members),
                self.hybrid_stats.deduplicated_entries - deduplicated_before,
            )
