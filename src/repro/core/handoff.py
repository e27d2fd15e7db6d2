"""Client handoff between shards: the barrier a migrating client crosses.

When a client's committed avatar position leaves its shard's stripe by
more than the hysteresis margin, the shard hands the client to the
stripe's owner (docs/sharding.md, "Client handoff").  The steps:

1. **begin** — the one re-home rule (:meth:`HandoffBarrier.rehome`)
   opens a handoff and sends the client ``HandoffPrepare``; the client
   parks new submissions and answers ``HandoffReady`` on the FIFO
   uplink that carried every submission before it;
2. **ready** — the answer proves the shard holds everything the client
   ever sent;
3. **finalize** — once it is ready and every accepted submission of the
   client has resolved (committed or dropped), the shard detaches the
   client;
4. **transfer** — and ships ``HandoffTransfer`` over the backbone,
   carrying the ids it resolved for the client, unless a rebalance fence
   still drains (the transfer parks until the fence passes, so the
   gaining shard's store is fresh before it adopts);
5. **end** — the handoff is forgotten: its transfer left, its client
   was detached, or its target died (the client is then re-welcomed
   onto the old shard's own stream).

The gaining shard **adopts**: it attaches the client, marks the client's
own entries still queued there as sent, welcomes it with the resolved
ids, and — on an elastic run — re-checks its home at once (a chained
migration).  A reconnecting client's ``ClientHello`` is answered the
same way, minus the marking: an idempotent attach and a welcome.

:class:`HandoffBarrier` is one shard's end of this, a transport-free
unit like :class:`~repro.core.control_plane.GsnLease` and
:class:`~repro.core.elastic.Rebalancer`: its messages come in through
``HandoffBarrier.HANDLERS``, the server's events through its hook
methods, and it reaches the server only through the
:class:`~repro.core.sharded.ShardView` the rebalancer holds
(tests/test_handoff_barrier.py drives it with no engine).  A client's
own handoff messages are keyed by their sender: a ``HandoffReady`` or
``ClientHello`` that names another client is a protocol breach.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.messages import (
    ClientHello, HandoffPrepare, HandoffReady, HandoffTransfer, HandoffWelcome,
)
from repro.types import ClientId


#: Hysteresis, in world units, a committed avatar position must leave
#: its stripe by before a handoff triggers (prevents border oscillation
#: from thrashing migrations).
HANDOFF_MARGIN = 10.0


class HandoffBarrier:
    """One shard's end of the client handoff: the open handoffs, each
    attached client's unresolved and resolved ids, and the transfers
    parked behind a rebalance fence.

    Messages come in through :attr:`HANDLERS` (``handler(src,
    message)``; the host binds them with
    :func:`~repro.core.chassis.bound_handlers` and merges them into its
    dispatch table) and the server's events through the hook methods.
    Everything else goes through ``view``, read afresh at each use:
    ``shard_index``, ``partition``, ``dead``, ``clients``, ``stats``,
    ``now`` and ``sim`` (its observer); the sends ``send(client,
    message)`` and ``send_peer(shard, message)``; ``position(client)``, the committed
    position; the requests ``attach(client, radius=, interests=)``,
    ``adopt(client, radius, interests)`` (attach, and mark the client's
    queued entries sent), ``detach(client)`` and ``breach(src, what)``
    (flagged with a detector armed, an error otherwise); and
    ``rebalancer``, whose ``fenced()`` gates a transfer, whose
    ``handoff_ended(client)`` hears every end and whose ``config`` says
    whether the run is elastic.
    """

    # One per shard server: slots keep a built partition replica inside
    # its memory ratchet (scripts/memory_ratchet.py).
    __slots__ = ("view", "margin", "open", "books", "parked")

    #: Dispatch table, in the form of the servers' ``HANDLERS``.
    HANDLERS = {
        HandoffReady: "on_ready",
        HandoffTransfer: "on_transfer",
        ClientHello: "on_hello",
    }

    def __init__(self, view, margin: float) -> None:
        self.view = view
        #: How far outside its stripe a committed position may lie
        #: before the client is handed off.
        self.margin = margin
        #: Open outbound handoffs: client -> [target shard, ready].
        self.open: Dict[ClientId, list] = {}
        #: Per attached client: (ids of its accepted submissions not yet
        #: resolved, ids resolved while attached, in resolution order).
        self.books: Dict[ClientId, tuple] = {}
        #: Ready, resolved handoffs waiting for a rebalance fence, in the
        #: order they reached it (a dict as an ordered set).
        self.parked: Dict[ClientId, None] = {}

    def quiescent(self) -> bool:
        """No handoff under way."""
        return not self.open

    def speaks_unprompted(self) -> bool:
        """Whether a transfer may leave before a message reaches this
        shard: a ready handoff waits on a commit or a fence."""
        return any(ready for _, ready in self.open.values())

    # -- the server's events -------------------------------------------------
    def _book(self, client: ClientId) -> tuple:
        return self.books.get(client) or self.books.setdefault(client, (set(), []))

    def submitted(self, client_id: ClientId, action_id) -> None:
        """A fresh submission of attached ``client_id`` was accepted."""
        self._book(client_id)[0].add(action_id)

    def resolved(self, client_id: ClientId, action_id) -> None:
        """An action of ``client_id`` left the queue, committed or
        dropped: log it while the client is attached (only an attached
        client has a book), and finalize a handoff it held up."""
        if client_id in self.view.clients:
            unresolved, log = self._book(client_id)
            unresolved.discard(action_id)
            log.append(action_id)
        if client_id in self.open:
            self._finalize(client_id)

    def detached(self, client_id: ClientId) -> None:
        """The client left this shard, whichever way."""
        self.books.pop(client_id, None)
        self._end(client_id)

    # -- begin, ready, finalize, transfer, end --------------------------------
    def rehome(self, client_id: ClientId) -> Optional[int]:
        """The one re-home rule: begin handing ``client_id`` off to the
        stripe its committed position belongs to (with the hysteresis
        margin) when that is a live other shard.  The target, or
        ``None`` when it stays — or is already migrating, in which case
        its adoption re-checks its home."""
        view, shard = self.view, self.view.shard_index
        position = None if client_id in self.open else view.position(client_id)
        if position is None:
            return None
        target = view.partition.home_with_hysteresis(position.x, shard, self.margin)
        if target == shard or target in view.dead:
            return None
        self.open[client_id] = [target, False]
        view.stats.handoffs_out += 1
        self._trace(client_id, target, "prepare")
        view.send(client_id, HandoffPrepare(target))
        return target

    def on_ready(self, src: ClientId, message: HandoffReady) -> None:
        handoff = None if self._forged(src, message) else self.open.get(src)
        if handoff is not None:  # else evicted or ended meanwhile
            handoff[1] = True
            self._finalize(src)

    def _finalize(self, client_id: ClientId) -> None:
        """Complete the handoff once the barrier holds: the client has
        acknowledged (its FIFO uplink is drained into us) and every one
        of its accepted submissions has resolved — including parked and
        span-forwarded ones, which stay unresolved until they commit."""
        view = self.view
        target, ready = self.open[client_id]
        unresolved, resolved = self._book(client_id)
        if not ready or unresolved:
            return
        if target in view.dead:
            # The gaining shard died while the handoff drained: keep the
            # client on our own stream (a same-source welcome does not
            # switch streams client-side).
            self._end(client_id)
            view.send(client_id, HandoffWelcome(view.shard_index, ()))
        elif not view.rebalancer.fenced():
            self.parked[client_id] = None
        else:
            record = view.clients[client_id]
            transfer = HandoffTransfer(
                client_id, record.radius, record.interests, tuple(resolved)
            )
            view.detach(client_id)
            view.stats.handoff_transfers += 1
            self._trace(client_id, target, "transfer")
            view.send_peer(target, transfer)

    def release(self) -> None:
        """A rebalance fence passed: send the parked transfers."""
        parked, self.parked = self.parked, {}
        for client_id in parked:
            self._finalize(client_id)

    def _end(self, client_id: ClientId) -> None:
        """The one place a handoff ends: forget it, and tell the
        rebalancer (an epoch waiting on it must not wedge)."""
        if self.open.pop(client_id, None) is not None:
            self.parked.pop(client_id, None)
            self.view.rebalancer.handoff_ended(client_id)

    # -- the gaining side ------------------------------------------------------
    def on_transfer(self, src, message: HandoffTransfer) -> None:
        """Adopt a migrating client and welcome it onto our stream."""
        view, client_id = self.view, message.client_id
        view.adopt(client_id, message.radius, message.interests)
        view.stats.handoffs_in += 1
        self._trace(client_id, view.shard_index, "adopt")
        view.send(client_id, HandoffWelcome(view.shard_index, message.resolved))
        if view.rebalancer.config is not None:
            # Chained migration: a rebalance may have re-homed the client
            # while its transfer was in flight (the Prepare follows the
            # Welcome on the same FIFO downlink).
            self.rehome(client_id)

    def on_hello(self, src: ClientId, hello: ClientHello) -> None:
        """A reconnecting client asked to attach here (the K > 1 rejoin
        path).  Idempotent: hello retries and handoff races resolve to
        re-welcomes."""
        if self._forged(src, hello):
            return
        view = self.view
        if src not in view.clients:
            view.attach(src, radius=hello.radius, interests=hello.interests)
        view.send(src, HandoffWelcome(view.shard_index, ()))

    def _forged(self, src: ClientId, message) -> bool:
        """The sender rule: a client's handoff message speaks for the
        client that sent it, and one naming another is a breach."""
        forged = message.client_id != src
        if forged:
            self.view.breach(src, f"{type(message).__name__} for {message.client_id}")
        return forged

    def _trace(self, client: ClientId, target: int, stage: str) -> None:
        view = self.view
        if view.sim.obs is not None:
            view.sim.obs.on_shard_handoff(view.now, client, view.shard_index, target, stage)
