"""Outside-in probes: span wrappers around the layers' public seams.

Nothing under ``src/`` is edited.  :class:`Probes` replaces public
functions and methods of the simulator's layers with wrappers that
record a span (see :mod:`spans`) and bump exact counters, and puts the
originals back on :meth:`Probes.uninstall`.  A function imported by name
(``from repro.core.messages import wire_size``) is patched in every
loaded ``repro`` module that holds it, because the caller looks it up
in its own globals.

Callbacks are wrapped where they are handed over, which reaches private
code through public seams: the server's push cycle and validation tick
are ``Simulator.call_every`` callbacks, message handlers go through
``Network.register``, and CPU completions through ``Host.execute``.

Span names are ``<package>.<module>.<what>`` of the layer that *runs*
inside the span; README.md lists them all.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from typing import Callable, List, Tuple

from spans import SpanRecorder

#: Modules whose by-name imports of patched functions must be visible
#: before patching (some are imported lazily inside ``run_simulation``).
_MODULES = (
    "repro.harness.runner",
    "repro.harness.architectures",
    "repro.harness.workload",
    "repro.net.backend",
    "repro.net.worker",
    "repro.core.sharded",
    "repro.core.hybrid",
    "repro.metrics.consistency",
    "repro.metrics.shard_audit",
    "repro.obs",
)

#: ``Simulator.call_every`` callbacks by function name -> span name.
_PERIODIC = {
    "_push_cycle": "core.server.push_cycle",
    "_validation_tick": "core.server.validation_tick",
    "submit": "harness.workload.submit",
}


class Probes:
    """The installed wrappers, their counters, and how to remove them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        #: Exact counts taken at the seams (bytes, hits, entries, ...).
        self.counts: Counter = Counter()
        #: Every ``Host`` that executed work.
        self.hosts: set = set()
        #: Every ``MessageCodec`` that encoded or decoded a frame.
        self.codecs: set = set()
        #: Frames the codecs produced, for the encode/decode replay.
        self.frames: List[bytes] = []
        #: Seconds each partition replica spent in start/window/finish.
        self.replica_busy_s: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []
        self._functions: List[Tuple[Callable, Callable]] = []

    # -- patching ----------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, name: str) -> None:
        self._set(cls, attr, self.rec.wrap(name, vars(cls)[attr]))

    def _function(self, module, attr: str, wrapper_of: Callable) -> None:
        original = vars(module)[attr]
        wrapper = wrapper_of(original)
        self._functions.append((original, wrapper))
        _rebind(original, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        for original, wrapper in self._functions:
            _rebind(wrapper, original)
        self._functions.clear()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- installation ------------------------------------------------------
    def install(self) -> "Probes":
        """Wrap every seam; returns ``self``."""
        for name in _MODULES:
            importlib.import_module(name)
        from repro.core import closure, messages
        from repro.core.action import Action
        from repro.core.client import ProtocolClient
        from repro.core.first_bound import FirstBoundPredicate
        from repro.core.indexes import ClientSpatialIndex
        from repro.core.info_bound import InformationBound
        from repro.harness import architectures
        from repro.metrics import consistency, shard_audit
        from repro.net import backend
        from repro.net.host import Host
        from repro.net.network import Network
        from repro.net.simulator import Simulator
        from repro.world.spatial import UniformGridIndex
        from repro.world.walls import WallField

        rec = self.rec
        wrap = rec.wrap

        self._method(Simulator, "step", "net.simulator")
        self._set(Simulator, "call_every", self._call_every(Simulator.call_every))
        self._set(Host, "execute", self._execute(Host.execute))
        self._set(Network, "register", self._register(Network.register))
        self._method(Action, "apply", "core.action.apply")
        self._method(ProtocolClient, "submit", "core.client.submit")
        self._method(WallField, "first_obstruction", "world.walls.first_obstruction")
        for query in ("query_radius", "query_radius_points", "query_box", "nearest"):
            self._method(UniformGridIndex, query, "world.spatial.query")

        counts = self.counts

        def sent(args, arrival):  # send(network, src, dst, payload, size_bytes)
            counts["net.network.messages"] += 1
            counts["net.network.bytes"] += args[4]

        def candidates_found(args, found):
            counts["core.indexes.candidates_returned"] += len(found)

        def affected(args, hit):
            counts["core.first_bound.affects_hits"] += bool(hit)

        def validated(args, dropped):  # validate(bound, entries, first_new_index)
            counts["core.info_bound.validated"] += len(args[1]) - args[2]
            counts["core.info_bound.dropped"] += len(dropped)

        def encoded(args, frame):
            self.codecs.add(args[0])
            self.frames.append(frame)

        def decoded(args, message):
            self.codecs.add(args[0])

        def closed(args, out):  # -> (chain or None, seed set)
            counts["core.closure.entries_returned"] += len(out[0] or ())

        observed = self._observed
        codec = messages.MessageCodec
        self._set(Network, "send", observed(Network.send, "net.network.send", sent))
        self._set(
            ClientSpatialIndex, "candidates",
            observed(ClientSpatialIndex.candidates, "core.indexes.candidates", candidates_found),
        )
        self._set(
            FirstBoundPredicate, "affects",
            observed(FirstBoundPredicate.affects, "core.first_bound.affects", affected),
        )
        self._set(
            InformationBound, "validate",
            observed(InformationBound.validate, "core.info_bound.validate", validated),
        )
        self._set(codec, "encode", observed(codec.encode, "core.messages.encode", encoded))
        self._set(codec, "decode", observed(codec.decode, "core.messages.decode", decoded))
        self._method(codec, "encode_sequence", "core.messages.encode")
        self._method(codec, "decode_sequence", "core.messages.decode")
        replica = backend.PartitionReplica
        self._method(replica, "__init__", "net.backend.replica_build")
        for attr in ("start", "run_window", "finish"):
            self._set(replica, attr, self._replica(vars(replica)[attr], attr))
        self._method(consistency.ConsistencyChecker, "check_all", "metrics.consistency.check")

        self._function(closure, "transitive_closure", lambda fn: observed(fn, "core.closure", closed))
        self._function(messages, "wire_size", lambda fn: wrap("core.messages.wire_size", fn))
        self._function(backend, "run_partitioned", lambda fn: wrap("net.backend.coordinator", fn))
        self._function(architectures, "build_world", lambda fn: wrap("harness.build_world", fn))
        self._function(architectures, "build_engine", lambda fn: wrap("harness.build_engine", fn))
        self._function(shard_audit, "audit_sharded_run", lambda fn: wrap("metrics.consistency.check", fn))
        return self

    # -- wrappers that need more than a span -------------------------------
    def _observed(self, fn: Callable, name: str, note: Callable) -> Callable:
        """Span ``name`` around ``fn``, then ``note(args, result)`` — the
        counting — outside the span."""
        nid = self.rec.name_id(name)
        begin, end = self.rec.begin, self.rec.end

        def traced(*args, **kwargs):
            start = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(nid, start)
            note(args, result)
            return result

        return traced

    def _call_every(self, call_every: Callable) -> Callable:
        rec = self.rec

        def traced(sim, interval, callback, **kwargs):
            # Periodic processes this table does not name stay inside the
            # dispatching ``net.simulator`` span.
            name = _PERIODIC.get(getattr(callback, "__name__", ""))
            if name is not None:
                callback = rec.wrap(name, callback)
            return call_every(sim, interval, callback, **kwargs)

        return rec.wrap("net.simulator", traced)

    def _execute(self, execute: Callable) -> Callable:
        rec, hosts = self.rec, self.hosts

        def traced(host, cost_ms, on_done):
            hosts.add(host)
            role = "core.server" if host.host_id < 0 else "core.client"
            return execute(host, cost_ms, rec.wrap(role + ".on_done", on_done))

        return rec.wrap("net.host", traced)

    def _register(self, register: Callable) -> Callable:
        rec = self.rec

        def patched(network, host_id, handler):
            if host_id >= 0:
                return register(network, host_id, rec.wrap("core.client.handler", handler))
            from_client = rec.wrap("core.server.handler", handler)
            from_shard = rec.wrap("core.sharded.handler", handler)

            def server_handler(src, payload):
                # Backbone traffic (shard to shard) is the sharded layer's
                # forwarding/sequencing/splice work; the rest is Algorithm 5.
                return (from_shard if src < 0 else from_client)(src, payload)

            return register(network, host_id, server_handler)

        return patched

    def _replica(self, fn: Callable, attr: str) -> Callable:
        nid = self.rec.name_id("net.backend.replica_" + attr.replace("run_", ""))
        rec, busy, counts = self.rec, self.replica_busy_s, self.counts

        def traced(replica, *args):
            start = rec.begin(nid)
            try:
                return fn(replica, *args)
            finally:
                rec.end(nid, start)
                busy[replica.partition] += rec.clock() - start
                counts["net.backend." + attr] += 1

        return traced


def _rebind(old: Callable, new: Callable) -> None:
    """Point every global of a loaded ``repro`` module that is ``old`` at
    ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
