"""Protocol messages exchanged between clients and the server.

Every message is a plain dataclass that carries exactly one
:func:`wire_message` spec next to its fields: its frame tag, its fields
in wire order with the :class:`Kind` of each, and the constant part of
its modelled size.  Everything else is *derived* from the specs when
the module is imported:

* :func:`wire_size` — the simulated size the traffic meter bills
  (Figure 9), so it sees realistic relative magnitudes;
* :class:`MessageCodec` — the compact binary encoding used wherever a
  message really crosses a process boundary (the parallel shard
  backend, :mod:`repro.net.backend`): length-prefixed, tag-dispatched
  frames, self-delimiting, so the same frames can back a checkpoint or
  WAL file;
* the registries the protocol conformance analyzer checks senders and
  handlers against (``PROTOCOL_MESSAGES``, ``ENVELOPED_MESSAGES``, the
  members of ``CONSERVATION_GROUPS``).

Adding a message is therefore one class with one spec (plus a
round-trip sample in ``tests/test_codec.py``); a type without a spec is
a ``TypeError`` from :func:`wire_size` and a :class:`CodecError` from
the codec, never a silent fallback.  Pickle survives only *inside*
frames, for world-specific action classes and exotic attribute values.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import struct
from dataclasses import dataclass
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.action import Action, ActionId, ActionResult, BlindWrite
from repro.errors import ProtocolError
from repro.net.network import _Ack, _Packet
from repro.types import ClientId, TimeMs
from repro.world.geometry import Vec2


class CodecError(ProtocolError):
    """A binary frame could not be encoded or decoded.

    Raised for message types without a wire spec, truncated or corrupt
    frames, unknown message tags, and decode contexts that lack the
    world geometry a payload references.
    """


_FRAME_HEADER = struct.Struct(">BI")  # (tag, body length)
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_ACTION_ID = struct.Struct(">qq")
_VEC2 = struct.Struct(">dd")

#: Action sub-tags (inside frame bodies).
_ACT_MOVE = ord("M")
_ACT_BLIND = ord("B")
_ACT_PICKLED = ord("P")

#: GroupBundle member-item markers: shared-table reference vs inline entry.
_GB_REF = ord("R")
_GB_ENTRY = ord("E")

#: Attribute-value sub-tags.
_VAL_NONE = ord("N")
_VAL_TRUE = ord("T")
_VAL_FALSE = ord("F")
_VAL_INT = ord("I")
_VAL_FLOAT = ord("D")
_VAL_STR = ord("S")
_VAL_TUPLE = ord("U")
_VAL_PICKLED = ord("P")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Token stored in pickle streams wherever a wall field appeared; the
#: decoding codec resolves it to its own bound :class:`WallField` so the
#: (large, immutable, world-derived) wall index never crosses the wire.
_WALLS_TOKEN = "walls"


class _Reader:
    """Cursor over an immutable buffer; every read checks bounds."""

    __slots__ = ("_view", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._view = memoryview(data)
        self.pos = pos

    def remaining(self) -> int:
        return len(self._view) - self.pos

    def read(self, count: int) -> memoryview:
        if count < 0 or self.remaining() < count:
            raise CodecError(
                f"truncated frame: wanted {count} bytes at offset "
                f"{self.pos}, have {self.remaining()}"
            )
        chunk = self._view[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.read(fmt.size))

    def byte(self) -> int:
        return self.read(1)[0]


# ----------------------------------------------------------------------
# Field kinds: the reusable vocabulary the message specs are written in.
# ----------------------------------------------------------------------
class Kind(NamedTuple):
    """How one kind of field is written, read back, and sized.

    ``size`` is what a value adds to the modelled size *beyond* the
    message's constant header bytes; fixed-width kinds leave it ``None``
    because their bytes are already part of that constant.
    """

    write: Callable[["MessageCodec", bytearray, Any], None]
    read: Callable[["MessageCodec", _Reader], Any]
    size: Optional[Callable[[Any], int]] = None


def _flat_sum(constant: int, terms: List[Tuple[str, Callable]]) -> Callable:
    """``lambda x: constant + size0(x<access0>) + size1(x<access1>) ...``
    generated as one flat function, the way ``dataclasses`` generates
    ``__init__``: every send is sized, so no loop and no generator."""
    scope = {f"size{i}": size for i, (_, size) in enumerate(terms)}
    body = "".join(f" + size{i}(x{access})" for i, (access, _) in enumerate(terms))
    return eval(f"lambda x: {constant}{body}", scope)


def _number(fmt: struct.Struct) -> Kind:
    """One fixed-width number."""

    def write(codec, out, value):
        out += fmt.pack(value)

    return Kind(write, lambda codec, r: r.unpack(fmt)[0])


def optional(kind: Kind) -> Kind:
    """A presence byte, then the value unless it is ``None``."""

    def write(codec, out, value):
        out.append(0 if value is None else 1)
        if value is not None:
            kind.write(codec, out, value)

    def read(codec, r):
        return kind.read(codec, r) if r.byte() else None

    def size(value):
        return 0 if value is None else kind.size(value)

    return Kind(write, read, size if kind.size else None)


def seq(kind: Kind, each: int = 0) -> Kind:
    """A u32 count, then that many items (read back as a tuple);
    modelled at ``each`` bytes per item plus whatever the items add."""

    def write(codec, out, values):
        out += _U32.pack(len(values))
        for value in values:
            kind.write(codec, out, value)

    def read(codec, r):
        (count,) = r.unpack(_U32)
        return tuple(kind.read(codec, r) for _ in range(count))

    def size(values):
        return each * len(values) + sum(map(kind.size, values))

    return Kind(write, read, size if kind.size else lambda values: each * len(values))


def record(*kinds: Kind, base: int = 0) -> Kind:
    """A fixed-arity tuple, one kind per position; modelled at ``base``
    bytes plus whatever the parts add."""
    sized = [(f"[{i}]", kind.size) for i, kind in enumerate(kinds) if kind.size]

    def write(codec, out, values):
        for kind, value in zip(kinds, values, strict=True):
            kind.write(codec, out, value)

    def read(codec, r):
        return tuple(kind.read(codec, r) for kind in kinds)

    return Kind(write, read, _flat_sum(base, sized) if base or sized else None)


def _w_str(codec, out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _r_str(codec, r: _Reader) -> str:
    (length,) = r.unpack(_U32)
    try:
        return str(r.read(length), "utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt string field: {exc}") from exc


def _w_value(codec, out: bytearray, value) -> None:
    if value is None:
        out.append(_VAL_NONE)
    elif value is True:
        out.append(_VAL_TRUE)
    elif value is False:
        out.append(_VAL_FALSE)
    elif type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
        out.append(_VAL_INT)
        out += _I64.pack(value)
    elif type(value) is float:
        out.append(_VAL_FLOAT)
        out += _F64.pack(value)
    elif type(value) is str:
        out.append(_VAL_STR)
        _w_str(codec, out, value)
    elif type(value) is tuple:
        out.append(_VAL_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _w_value(codec, out, item)
    else:
        out.append(_VAL_PICKLED)
        _w_pickled(out, value)


def _r_value(codec, r: _Reader):
    kind = r.byte()
    if kind == _VAL_NONE:
        return None
    if kind == _VAL_TRUE:
        return True
    if kind == _VAL_FALSE:
        return False
    if kind == _VAL_INT:
        return r.unpack(_I64)[0]
    if kind == _VAL_FLOAT:
        return r.unpack(_F64)[0]
    if kind == _VAL_STR:
        return _r_str(codec, r)
    if kind == _VAL_TUPLE:
        (count,) = r.unpack(_U32)
        return tuple(_r_value(codec, r) for _ in range(count))
    if kind == _VAL_PICKLED:
        return _r_pickled(codec, r)
    raise CodecError(f"unknown value sub-tag {kind}")


def _w_pickled(out: bytearray, obj: object) -> None:
    """A u32-length-prefixed pickle; wall fields become a token."""
    from repro.world.walls import WallField

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = (
        lambda item: _WALLS_TOKEN if isinstance(item, WallField) else None
    )
    try:
        pickler.dump(obj)
    except Exception as exc:
        raise CodecError(f"cannot pickle {type(obj).__name__}: {exc}") from exc
    out += _U32.pack(buffer.tell())
    out += buffer.getvalue()


def _r_pickled(codec, r: _Reader) -> object:
    (length,) = r.unpack(_U32)
    unpickler = pickle.Unpickler(io.BytesIO(r.read(length)))
    unpickler.persistent_load = codec._persistent_load
    try:
        return unpickler.load()
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"corrupt pickled payload: {exc}") from exc


def _w_action(codec, out: bytearray, action: Action) -> None:
    from repro.world.movement import MoveAction

    if type(action) is MoveAction:
        out.append(_ACT_MOVE)
        out += _ACTION_ID.pack(*action.action_id)
        _w_str(codec, out, action.avatar_oid)
        STR_SET.write(codec, out, action.neighbors)
        out += _F64.pack(action.duration_s)
        out += _F64.pack(action.radius)
        VEC2.write(codec, out, action.position)
        OPT_VEC2.write(codec, out, action.velocity)
        out += _F64.pack(action.cost_ms)
    elif type(action) is BlindWrite:
        out.append(_ACT_BLIND)
        out += _ACTION_ID.pack(*action.action_id)
        # a ValuesDict (oid -> attrs dict) in insertion order has the
        # layout of a canonicalised written tuple
        WRITTEN.write(
            codec,
            out,
            [(oid, tuple(attrs.items())) for oid, attrs in action._values.items()],
        )
        OPT_ACTION_ID.write(codec, out, action.origin)
    else:
        # world-specific action classes ship as pickles; counted so a
        # hot one is visible (``codec.action_pickle`` on the parallel
        # backend) and can be given a field encoding here
        name = type(action).__name__
        codec.pickle_fallbacks[name] = codec.pickle_fallbacks.get(name, 0) + 1
        out.append(_ACT_PICKLED)
        _w_pickled(out, action)


def _r_action(codec, r: _Reader) -> Action:
    from repro.world.movement import MoveAction

    kind = r.byte()
    if kind == _ACT_MOVE:
        if codec._walls is None:
            raise CodecError(
                "cannot decode MoveAction: codec has no wall field bound"
            )
        action_id = ACTION_ID.read(codec, r)
        avatar_oid = _r_str(codec, r)
        neighbors = STR_SET.read(codec, r)
        (duration_s,) = r.unpack(_F64)
        (effect_range,) = r.unpack(_F64)
        position = VEC2.read(codec, r)
        velocity = OPT_VEC2.read(codec, r)
        (cost_ms,) = r.unpack(_F64)
        try:
            return MoveAction(
                action_id,
                avatar_oid,
                neighbors=neighbors,
                walls=codec._walls,
                duration_s=duration_s,
                effect_range=effect_range,
                position=position,
                velocity=velocity,
                cost_ms=cost_ms,
            )
        except ProtocolError as exc:
            raise CodecError(f"corrupt move action fields: {exc}") from exc
    if kind == _ACT_BLIND:
        action_id = ACTION_ID.read(codec, r)
        values = {oid: dict(attrs) for oid, attrs in WRITTEN.read(codec, r)}
        return BlindWrite(action_id, values, origin=OPT_ACTION_ID.read(codec, r))
    if kind == _ACT_PICKLED:
        return _r_pickled(codec, r)
    raise CodecError(f"unknown action sub-tag {kind}")


def _w_result(codec, out: bytearray, result: ActionResult) -> None:
    out.append(1 if result.aborted else 0)
    WRITTEN.write(codec, out, result.written)


def _r_result(codec, r: _Reader) -> ActionResult:
    aborted = bool(r.byte())
    return ActionResult(WRITTEN.read(codec, r), aborted)


I64 = _number(_I64)
F64 = _number(_F64)
STR = Kind(_w_str, _r_str)
ACTION_ID = Kind(
    lambda codec, out, action_id: out.extend(_ACTION_ID.pack(*action_id)),
    lambda codec, r: ActionId(*r.unpack(_ACTION_ID)),
)
OPT_ACTION_ID = optional(ACTION_ID)
VEC2 = Kind(
    lambda codec, out, vec: out.extend(_VEC2.pack(vec.x, vec.y)),
    lambda codec, r: Vec2(*r.unpack(_VEC2)),
)
OPT_VEC2 = optional(VEC2)
_STRS = seq(STR)
#: A str set travels sorted (deterministic frames) at 4 modelled bytes a
#: member; ``None`` (no interest filter) is distinct from the empty set.
STR_SET = Kind(
    lambda codec, out, members: _STRS.write(codec, out, sorted(members)),
    lambda codec, r: frozenset(_STRS.read(codec, r)),
    lambda members: 4 * len(members),
)
OPT_STR_SET = optional(STR_SET)
#: Any attribute value: None/bool/int64/float/str/tuple field-encoded,
#: anything else pickled.
VALUE = Kind(_w_value, _r_value)
#: An object's attributes, 12 bytes apiece, and a canonicalised written
#: tuple (see ``ActionResult.of``) of them at 8 bytes per object.
ATTRS = seq(record(STR, VALUE), each=12)
WRITTEN = seq(record(STR, ATTRS, base=8))
RESULT = Kind(_w_result, _r_result, lambda result: WRITTEN.size(result.written))
#: Actions self-report their size (:meth:`Action.wire_size`).
ACTION = Kind(_w_action, _r_action, methodcaller("wire_size"))
#: A whole nested frame, billed as the message it carries.  The write
#: goes through ``codec.encode`` so nested frames are counted as frames.
FRAME = Kind(
    lambda codec, out, message: out.extend(codec.encode(message)),
    lambda codec, r: _read_frame(codec, r),
    lambda message: wire_size(message),
)
OPT_FRAME = optional(FRAME)


# ----------------------------------------------------------------------
# Specs: one per message, compiled on declaration.
# ----------------------------------------------------------------------
class WireSpec(NamedTuple):
    """A message's declaration plus what was compiled from it."""

    cls: type
    tag: int
    fields: Tuple[Tuple[str, Kind], ...]
    header: Optional[int]
    enveloped: bool
    group: Optional[str]
    #: The message body as a kind of its own: write every field, read
    #: them back into ``cls``, size = header + what the fields add.
    body: Kind


#: type -> spec and frame tag -> spec, in declaration order.
WIRE_SPECS: Dict[type, WireSpec] = {}
_SPEC_OF_TAG: Dict[int, WireSpec] = {}
#: type -> compiled sizer, for messages that have a modelled size.
_SIZERS: Dict[type, Callable[[Any], int]] = {}


def wire_message(
    *,
    tag: int,
    fields: List[Tuple[str, Kind]],
    header: Optional[int],
    enveloped: bool = False,
    group: Optional[str] = None,
) -> Callable[[type], type]:
    """Class decorator declaring a dataclass a wire message.

    ``tag`` is the frame tag — part of the on-wire format, never
    renumber.  ``fields`` lists every dataclass field with its kind, in
    wire order.  ``header`` is the constant part of the modelled size
    (ids, positions and other fixed-width fields); ``None`` marks a
    transport frame beneath the protocol, billed by the layer that sends
    it and left out of ``PROTOCOL_MESSAGES``.  ``enveloped`` messages
    only travel inside another message's fields and so have no dispatch
    branch of their own.  ``group`` enrols the message in that
    ``CONSERVATION_GROUPS`` entry: it is counted on both sides of the
    servers' message seam.

    The analyzer (``repro.analysis.protocol``) reads these decorators
    statically, so keep ``enveloped`` and ``group`` literal.
    """

    def declare(cls: type) -> type:
        names = [name for name, _ in fields]
        if sorted(names) != sorted(f.name for f in dataclasses.fields(cls)):
            raise TypeError(f"{cls.__name__}: spec {names} != dataclass fields")
        if tag in _SPEC_OF_TAG or not 0 < tag <= 0xFF:
            raise ValueError(f"{cls.__name__}: tag {tag} taken or out of range")
        accessors = [(attrgetter(name), kind) for name, kind in fields]
        sized = [(f".{name}", kind.size) for name, kind in fields if kind.size]

        def write(codec, out, message):
            for get, kind in accessors:
                kind.write(codec, out, get(message))

        def read(codec, r):
            return cls(**{name: kind.read(codec, r) for name, kind in fields})

        size = None if header is None else _flat_sum(header, sized)
        body = Kind(write, read, size)
        spec = WireSpec(cls, tag, tuple(fields), header, enveloped, group, body)
        WIRE_SPECS[cls] = _SPEC_OF_TAG[tag] = spec
        if body.size:
            _SIZERS[cls] = body.size
        return cls

    return declare


def wire_size(message: object) -> int:
    """Simulated size in bytes of a protocol message.

    Sizes: actions self-report (:meth:`Action.wire_size`); results and
    state updates cost 12 bytes per written attribute plus 8 per object;
    each spec's fixed header covers ids and positions.
    """
    sizer = _SIZERS.get(type(message))
    if sizer is None:
        raise TypeError(f"not a protocol message: {type(message).__name__}")
    return sizer(message)


def _read_frame(codec: "MessageCodec", reader: _Reader) -> object:
    tag, length = reader.unpack(_FRAME_HEADER)
    body = _Reader(reader.read(length))
    spec = _SPEC_OF_TAG.get(tag)
    if spec is None:
        raise CodecError(f"unknown frame tag {tag}")
    message = spec.body.read(codec, body)
    if body.remaining():
        raise CodecError(f"tag {tag}: {body.remaining()} undecoded body bytes")
    return message


# ----------------------------------------------------------------------
# The messages
# ----------------------------------------------------------------------
@wire_message(tag=1, header=16, fields=[("action", ACTION)])
@dataclass(frozen=True)
class SubmitAction:
    """Client -> server: a freshly created action to be serialized."""

    action: Action


@wire_message(
    tag=2, header=8, enveloped=True, fields=[("pos", I64), ("action", ACTION)]
)
@dataclass(frozen=True)
class OrderedAction:
    """One entry of the server's serialized stream.

    ``pos`` is the action's global order number (its position in the
    server queue); clients apply entries in stream order.  Enveloped:
    it rides in batch/bundle/splice entries and is consumed
    structurally, never by an ``isinstance`` dispatch branch of its own.
    """

    pos: int
    action: Action


#: An ordered entry inside another message: the body without a frame.
ENTRY = WIRE_SPECS[OrderedAction].body


@wire_message(
    tag=3, header=16, fields=[("last_installed", I64), ("entries", seq(ENTRY))]
)
@dataclass(frozen=True)
class ActionBatch:
    """Server -> client: an ordered batch of actions.

    In the basic protocol this is "all actions you have not seen yet";
    in the Incomplete World / First Bound models it is a transitive
    closure (with a blind-write prefix carried as an entry with
    ``pos = -1``) or a proactive push.  ``last_installed`` piggybacks the
    server's commit frontier for client-side garbage collection.
    """

    entries: Tuple[OrderedAction, ...]
    last_installed: int = -1


@wire_message(
    tag=4,
    header=32,
    fields=[
        ("pos", I64),
        ("action_id", ACTION_ID),
        ("reporter", I64),
        ("result", RESULT),
    ],
)
@dataclass(frozen=True)
class Completion:
    """Client -> server: stable result *u* of an action (Algorithm 4
    step 5), enabling the server to install ζ_S(i)."""

    pos: int
    action_id: ActionId
    result: ActionResult
    #: Which client produced the completion (relevant in the
    #: fault-tolerant mode where every evaluating client responds).
    reporter: ClientId = -2


@wire_message(tag=5, header=24, fields=[("action_id", ACTION_ID)])
@dataclass(frozen=True)
class AbortNotice:
    """Server -> originating client: the Information Bound Model dropped
    this action; roll back its optimistic effects."""

    action_id: ActionId


@wire_message(tag=43, header=32, fields=[("pos", I64), ("action_id", ACTION_ID)])
@dataclass(frozen=True)
class CommitNotice:
    """Server -> originating client: this action committed while the
    reactive reply to it was parked by the in-order guard, so its echo
    can no longer be delivered (the entry has left the queue).

    The committed values travel in the blind write sent just before
    this notice on the same FIFO channel; the notice itself retires the
    client's optimistic entry and confirms the submission.  Without it
    the originator would wait for an echo that never comes — a liveness
    gap the schedule-permutation explorer flushed out
    (docs/static_analysis.md)."""

    pos: int
    action_id: ActionId


@wire_message(
    tag=6,
    header=24,
    fields=[("values", WRITTEN), ("cause", OPT_ACTION_ID), ("submitted_at", F64)],
)
@dataclass(frozen=True)
class StateUpdate:
    """Server -> client (Central/RING baselines): authoritative values.

    ``cause`` identifies the action whose evaluation produced the
    update, so the originator can measure its response time.
    """

    values: tuple  # canonicalised like ActionResult.written
    cause: Optional[ActionId] = None
    submitted_at: TimeMs = 0.0


@wire_message(tag=9, header=8, fields=[("final_dst", I64), ("payload", FRAME)])
@dataclass(frozen=True)
class PeerForward:
    """Server -> relay peer: a batch to pass on to ``final_dst``.

    The Section VII hybrid architecture: the server sends one copy to a
    relay client, which forwards it over a peer link — server egress is
    spent once, the relay pays the second hop.
    """

    final_dst: ClientId
    payload: "ActionBatch"


def _w_bundle_item(codec, out: bytearray, item) -> None:
    if isinstance(item, int):
        out.append(_GB_REF)
        out += _I64.pack(item)
    else:
        out.append(_GB_ENTRY)
        ENTRY.write(codec, out, item)


def _r_bundle_item(codec, r: _Reader):
    marker = r.byte()
    if marker == _GB_REF:
        return r.unpack(_I64)[0]
    if marker == _GB_ENTRY:
        return ENTRY.read(codec, r)
    raise CodecError(f"unknown bundle item marker {marker}")


#: ``GroupBundle.members``: per recipient 8 bytes plus its items, each a
#: 4-byte reference into the shared table or a full inline entry.
MEMBERS = seq(
    record(
        I64,
        seq(
            Kind(
                _w_bundle_item,
                _r_bundle_item,
                lambda item: 4 if isinstance(item, int) else ENTRY.size(item),
            )
        ),
        base=8,
    )
)


@wire_message(
    tag=10,
    header=16,
    fields=[("last_installed", I64), ("shared", seq(ENTRY)), ("members", MEMBERS)],
)
@dataclass(frozen=True)
class GroupBundle:
    """Server -> relay head: one push cycle's batches for a relay group,
    with shared entries deduplicated (§VII hybrid).

    ``shared`` holds each queued action once; ``members`` maps each
    recipient to a sequence whose items are either an ``int`` (index
    into ``shared``) or an :class:`OrderedAction` carrying a
    member-specific blind write.  The head reconstructs each member's
    :class:`ActionBatch` and forwards it over a peer link (keeping its
    own batch for itself).  On the wire, a shared entry costs its full
    size exactly once and 4 bytes per additional reference — that is
    the egress saving over unicasting overlapping batches.
    """

    shared: Tuple[OrderedAction, ...]
    members: Tuple[Tuple[ClientId, tuple], ...]
    last_installed: int = -1


@wire_message(tag=7, header=8, fields=[("sender", I64)])
@dataclass(frozen=True)
class Heartbeat:
    """Client -> server: liveness beacon (Section III-C).

    Heartbeats are sent unreliably on purpose — a heartbeat that the
    lossy network ate carries exactly the information the server needs
    (nothing arrived)."""

    sender: ClientId = -2


@wire_message(tag=8, header=24, fields=[("submitted_at", F64), ("action", ACTION)])
@dataclass(frozen=True)
class RelayedAction:
    """Server -> client (Broadcast/RING baselines): a raw forwarded
    action for local evaluation."""

    action: Action
    submitted_at: TimeMs = 0.0


# ----------------------------------------------------------------------
# Sharded deployment (repro.core.sharded): cross-shard forwarding,
# splicing, result distribution, and client handoff.
# ----------------------------------------------------------------------
#: Shard ids and resolved action ids: modelled at 4 and 8 bytes apiece.
SHARDS = seq(I64, each=4)
ACTION_IDS = seq(ACTION_ID, each=8)


@wire_message(
    tag=16,
    header=24,
    fields=[("owner", I64), ("involved", SHARDS), ("action", ACTION)],
)
@dataclass(frozen=True)
class SpanForward:
    """Owner shard -> sequencer: a spanning action awaiting a global
    sequence number.  ``involved`` names every shard whose region the
    action's influence disc intersects (owner included)."""

    owner: int
    involved: Tuple[int, ...]
    action: Action


@wire_message(
    tag=17,
    header=32,
    fields=[("gsn", I64), ("owner", I64), ("involved", SHARDS), ("action", ACTION)],
)
@dataclass(frozen=True)
class SpanSplice:
    """Sequencer -> involved shards: splice this spanning action into
    your local stream at your next position.  Splices are broadcast in
    strictly ascending ``gsn`` order over FIFO backbone links, which is
    what makes every shard agree on the relative order of spanning
    actions."""

    gsn: int
    owner: int
    involved: Tuple[int, ...]
    action: Action


@wire_message(
    tag=18,
    header=32,
    fields=[("gsn", I64), ("action_id", ACTION_ID), ("result", RESULT)],
)
@dataclass(frozen=True)
class SpanResult:
    """Owner shard -> involved peers: the committed result of a
    spanning action (the originator's completion, relayed)."""

    gsn: int
    action_id: ActionId
    result: ActionResult


@wire_message(tag=19, header=32, fields=[("gsn", I64), ("action_id", ACTION_ID)])
@dataclass(frozen=True)
class SpanAbort:
    """Owner shard -> involved peers: the spanning action was aborted
    (orphaned or dropped); peers mark their spliced entry invalid."""

    gsn: int
    action_id: ActionId


@wire_message(tag=20, header=16, fields=[("new_shard", I64)])
@dataclass(frozen=True)
class HandoffPrepare:
    """Shard -> client: your region owner is changing; stop submitting
    to me and acknowledge with :class:`HandoffReady`."""

    new_shard: int


@wire_message(tag=21, header=16, fields=[("client_id", I64)])
@dataclass(frozen=True)
class HandoffReady:
    """Client -> old shard: I have stopped submitting.  Sent on the
    same FIFO channel as submissions, so receipt proves the shard has
    everything the client ever sent it."""

    client_id: ClientId


@wire_message(
    tag=22,
    header=32,
    fields=[
        ("client_id", I64),
        ("radius", F64),
        ("interests", OPT_STR_SET),
        ("resolved", ACTION_IDS),
    ],
)
@dataclass(frozen=True)
class HandoffTransfer:
    """Old shard -> new shard (backbone): adopt this client.

    ``resolved`` lists the client's action ids the old shard already
    committed or aborted — relayed to the client so it can retire
    pending entries whose stream echoes will never arrive."""

    client_id: ClientId
    radius: float
    interests: Optional[frozenset] = None
    resolved: Tuple[ActionId, ...] = ()


@wire_message(tag=23, header=16, fields=[("shard", I64), ("resolved", ACTION_IDS)])
@dataclass(frozen=True)
class HandoffWelcome:
    """New shard -> client: you are mine now; switch your stream."""

    shard: int
    resolved: Tuple[ActionId, ...] = ()


# ----------------------------------------------------------------------
# Elastic rebalancing control plane (repro.core.elastic,
# docs/elasticity.md).  All five travel only between shard servers on
# the fault-free FIFO backbone, and all five are conservation-tracked.
# ----------------------------------------------------------------------
@wire_message(
    tag=32,
    header=32,
    group="elastic",
    fields=[
        ("shard", I64),
        ("round", I64),
        ("cpu_ms", F64),
        ("serialized", I64),
        ("clients", I64),
    ],
)
@dataclass(frozen=True)
class LoadReport:
    """Shard -> controller (shard 0): one load sample — the cpu and
    serialized-count deltas accumulated since the previous sample.
    Every shard reports once per elastic interval; the controller
    evaluates a round once all K reports for it have arrived."""

    shard: int
    round: int
    cpu_ms: float
    serialized: int
    clients: int


@wire_message(
    tag=33,
    header=16,
    group="elastic",
    fields=[("version", I64), ("boundaries", seq(F64, each=8))],
)
@dataclass(frozen=True)
class PartitionUpdate:
    """Controller -> every shard: flip your partition copy to
    ``version`` with interior stripe ``boundaries``.  Receipt opens an
    epoch on the shard: a fence at its current queue position, bulk
    handoffs for clients it no longer owns, and union-of-epochs span
    classification until the version commits."""

    version: int
    boundaries: Tuple[float, ...]


@wire_message(
    tag=34, header=16, group="elastic", fields=[("shard", I64), ("version", I64)]
)
@dataclass(frozen=True)
class DrainDone:
    """Shard -> controller: my fence for ``version`` passed, my region
    syncs went out, and every bulk-handoff transfer has been sent."""

    shard: int
    version: int


@wire_message(tag=35, header=8, group="elastic", fields=[("version", I64)])
@dataclass(frozen=True)
class PartitionCommit:
    """Controller -> every shard: all K shards drained ``version``;
    retire the superseded boundaries from span classification."""

    version: int


@wire_message(
    tag=36,
    header=32,
    group="elastic",
    fields=[
        ("version", I64),
        ("lo", F64),
        ("hi", F64),
        ("entries", seq(record(STR, I64, I64, ATTRS, base=16))),
    ],
)
@dataclass(frozen=True)
class RegionSync:
    """Losing shard -> gaining shard: committed values of every
    written object inside the transferred x-interval [lo, hi).

    Each entry is ``(oid, stamp_gsn, stamp_local, attrs)`` with attrs
    canonicalised like ``ActionResult.written``.  The stamp is the gsn
    of the last spanning action that wrote the object (-1 if none)
    plus a flag for a later local write; the receiver applies an entry
    only if the stamp is strictly newer than its own, so a sync racing
    a span it already committed never regresses the store."""

    version: int
    lo: float
    hi: float
    entries: Tuple[tuple, ...] = ()


# ----------------------------------------------------------------------
# Control-plane messages (docs/control_plane.md).  Backbone-only, like
# the elastic messages above.
# ----------------------------------------------------------------------
@wire_message(tag=37, header=12, fields=[("term", I64), ("holder", I64)])
@dataclass(frozen=True)
class LeaseHeartbeat:
    """Leaseholder -> every shard: I still hold the gsn lease for
    ``term``.  Silence past the lease timeout triggers an election."""

    term: int
    holder: int


@wire_message(tag=38, header=12, fields=[("term", I64), ("candidate", I64)])
@dataclass(frozen=True)
class LeaseRequest:
    """Candidate -> every shard: vote for me as holder of ``term``."""

    term: int
    candidate: int


@wire_message(
    tag=39, header=16, fields=[("term", I64), ("voter", I64), ("max_gsn", I64)]
)
@dataclass(frozen=True)
class LeaseVote:
    """Voter -> candidate: one vote for ``term``, carrying the highest
    gsn this voter has observed so the winner's floor clears it."""

    term: int
    voter: int
    max_gsn: int


@wire_message(
    tag=40, header=16, fields=[("term", I64), ("holder", I64), ("gsn_floor", I64)]
)
@dataclass(frozen=True)
class LeaseGrant:
    """New holder -> every shard: the round for ``term`` completed;
    ``holder`` sequences from ``gsn_floor`` up.  Receivers re-forward
    any spanning actions the dead holder never spliced."""

    term: int
    holder: int
    gsn_floor: int


@wire_message(tag=41, header=8, fields=[("shard", I64)])
@dataclass(frozen=True)
class ShardHello:
    """Restarted shard -> every shard: I am back (recovered from
    checkpoint+WAL).  Receivers clear me from their dead set; the
    leaseholder re-sends the current lease and partition version."""

    shard: int


@wire_message(
    tag=42,
    header=16,
    fields=[("client_id", I64), ("radius", F64), ("interests", OPT_STR_SET)],
)
@dataclass(frozen=True)
class ClientHello:
    """Reconnecting client -> its shard: re-attach me (the protocol
    rejoin path for K > 1, where the classic oracle re-attach would
    target shard 0 regardless of where the avatar lives).  Answered
    with a :class:`HandoffWelcome`; the client retries until one
    arrives, so a hello racing a handoff or a second crash is safe."""

    client_id: ClientId
    radius: float
    interests: Optional[frozenset] = None


# The net-layer ARQ frames travel through worker bundles too.
wire_message(
    tag=24, header=None, fields=[("seq", I64), ("base", I64), ("payload", OPT_FRAME)]
)(_Packet)
wire_message(tag=25, header=None, fields=[("upto", I64)])(_Ack)


# ----------------------------------------------------------------------
# Protocol registries (repro.analysis.protocol, docs/static_analysis.md),
# all derived from the specs above.
# ----------------------------------------------------------------------
#: The closed set of message types the protocol is made of: every spec
#: with a modelled size, in declaration order.
PROTOCOL_MESSAGES = tuple(
    spec.cls for spec in WIRE_SPECS.values() if spec.header is not None
)

#: Messages that only travel *inside* another message's fields; the
#: flow-graph analyzer exempts these from the every-message-has-a-handler
#: rule.
ENVELOPED_MESSAGES = tuple(
    spec.cls for spec in WIRE_SPECS.values() if spec.enveloped
)

#: Conservation groups, filled in from the specs: group name -> its
#: message classes.  A message whose spec names a group feeds a
#: quiescence check, so it is counted where it crosses a server's
#: message seam — ``elastic_sent`` when ``ShardServer._send_peer`` puts
#: it on the backbone, ``elastic_received`` when the dispatcher hands it
#: to its handler — and the run is quiescent only once the sums match
#: (``ShardedSeveEngine._quiescent``): none is still in flight.
CONSERVATION_GROUPS: Dict[str, Tuple[type, ...]] = {}
for _spec in WIRE_SPECS.values():
    if _spec.group is not None:
        CONSERVATION_GROUPS[_spec.group] = CONSERVATION_GROUPS.get(
            _spec.group, ()
        ) + (_spec.cls,)


# ----------------------------------------------------------------------
# Binary codec
# ----------------------------------------------------------------------
class MessageCodec:
    """Binary encoder/decoder for every message with a wire spec.

    A codec is bound to a decode context: the world's
    :class:`~repro.world.walls.WallField`, which move actions reference
    but never ship (it is seed-derived, identical on every host).  The
    encoder is context-free; decoding a move action (or any pickled
    payload that mentions walls) without a bound wall field raises
    :class:`CodecError`.

    Frames are ``tag:u8 | body_length:u32 | body`` and self-delimiting:
    concatenated frames form a valid stream for
    :meth:`encode_sequence` / :meth:`decode_sequence`.
    """

    def __init__(self, walls=None) -> None:
        self._walls = walls
        #: per-class count of actions that shipped as pickles (no field
        #: encoding of their own); exported as the ``codec.action_pickle``
        #: metric on the parallel backend.
        self.pickle_fallbacks: Dict[str, int] = {}

    def encode(self, message: object) -> bytes:
        """Encode one message as a single self-delimiting frame."""
        spec = WIRE_SPECS.get(type(message))
        if spec is None:
            raise CodecError(f"no wire spec for {type(message).__name__}")
        body = bytearray()
        spec.body.write(self, body, message)
        if len(body) > 0xFFFFFFFF:
            raise CodecError(f"frame body too large: {len(body)} bytes")
        return _FRAME_HEADER.pack(spec.tag, len(body)) + bytes(body)

    def decode(self, data: bytes) -> object:
        """Decode exactly one frame; trailing bytes are an error."""
        reader = _Reader(data)
        message = _read_frame(self, reader)
        if reader.remaining():
            raise CodecError(
                f"{reader.remaining()} trailing bytes after frame"
            )
        return message

    def encode_sequence(self, messages) -> bytes:
        """Concatenate the frames of ``messages`` into one buffer."""
        return b"".join(self.encode(message) for message in messages)

    def decode_sequence(self, data: bytes) -> list:
        """Decode a buffer of concatenated frames into a list."""
        reader = _Reader(data)
        messages = []
        while reader.remaining():
            messages.append(_read_frame(self, reader))
        return messages

    def _persistent_load(self, pid: object) -> object:
        if pid == _WALLS_TOKEN:
            if self._walls is None:
                raise CodecError(
                    "cannot decode wall-field reference: codec has no "
                    "wall field bound"
                )
            return self._walls
        raise CodecError(f"unknown persistent id {pid!r}")
