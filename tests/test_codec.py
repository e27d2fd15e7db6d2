"""Round-trip, golden-frame and error-path tests for the message specs.

The codec backs the parallel backend's cross-partition transport (every
cross-shard message in a partitioned run is encoded and decoded through
it), and ``wire_size`` is what the paper's traffic figures are billed
by.  Both are compiled from the per-message specs in
``repro.core.messages``, so the contract here is strict:
decode(encode(m)) == m for every protocol message type, every frame and
modelled size equals the golden fixture taken before the specs existed,
and malformed frames end in a ``CodecError``, never in garbage or a
stray exception.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.action import Action, ActionId, ActionResult, BlindWrite
from repro.core.messages import (
    PROTOCOL_MESSAGES,
    WIRE_SPECS,
    AbortNotice,
    ActionBatch,
    Certify,
    ClientHello,
    CommitNotice,
    Completion,
    CodecError,
    Decision,
    DrainDone,
    Effect,
    GroupBundle,
    HandoffPrepare,
    HandoffReady,
    HandoffTransfer,
    HandoffWelcome,
    Heartbeat,
    LeaseGrant,
    LeaseHeartbeat,
    LeaseRequest,
    LeaseVote,
    LoadReport,
    LockGrant,
    MessageCodec,
    OrderedAction,
    PartitionCommit,
    PartitionUpdate,
    PeerForward,
    RegionSync,
    RelayedAction,
    ShardHello,
    SpanAbort,
    SpanForward,
    SpanResult,
    SpanSplice,
    StateUpdate,
    SubmitAction,
    wire_size,
)
from repro.net.network import _Ack, _Packet
from repro.world.geometry import Vec2
from repro.world.movement import MoveAction
from repro.world.walls import Wall, WallField

WALLS = WallField(
    (Wall(0, Vec2(55, 40), Vec2(55, 60)),), width=100.0, height=100.0
)


def codec() -> MessageCodec:
    return MessageCodec(walls=WALLS)


def snap(obj):
    """A structural fingerprint usable for round-trip comparison.

    MoveAction (and friends) deliberately use identity equality, so
    decoded copies can never compare ``==`` to the originals; instead we
    compare recursively by type + fields.  The wall field is collapsed
    to a marker: it never crosses the wire and decode rebinds the
    decoder's own copy.
    """
    if isinstance(obj, WallField):
        return "<walls>"
    if isinstance(obj, (bool, int, float, str, bytes, type(None))):
        return obj
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(snap(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return frozenset(snap(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, snap(v)) for k, v in obj.items()))
    fields = {}
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    fields.update(getattr(obj, "__dict__", {}))
    return (
        type(obj).__name__,
        tuple(sorted((k, snap(v)) for k, v in fields.items())),
    )


def move_action(seq: int = 0) -> MoveAction:
    return MoveAction(
        ActionId(3, seq),
        "avatar:3",
        neighbors=frozenset({"avatar:1", "avatar:2"}),
        walls=WALLS,
        duration_s=0.3,
        effect_range=10.0,
        position=Vec2(12.5, 40.25),
        velocity=Vec2(1.0, -2.0),
        cost_ms=7.44,
    )


def blind_write(seq: int = 9) -> BlindWrite:
    return BlindWrite(
        ActionId(-1, seq),
        {"avatar:5": {"x": 1.5, "label": "spawn", "alive": True, "n": None}},
        origin=ActionId(5, 0),
    )


RESULT = ActionResult.of({"avatar:3": {"x": 60.0, "y": 50.0, "bumps": 1}})

#: Boundary-value instances of every protocol message type (plus the
#: net-layer ARQ frames that ride through worker bundles): wherever a
#: message has a collection or an optional field there is an empty, a
#: ``None`` and a populated case.  The list is append-only — its frames
#: and modelled sizes are pinned by tests/data/golden_frames.json.
MESSAGES = [
    SubmitAction(move_action()),
    SubmitAction(blind_write()),
    OrderedAction(7, move_action(1)),
    ActionBatch(
        (OrderedAction(-1, blind_write()), OrderedAction(4, move_action(2))),
        last_installed=3,
    ),
    Completion(4, ActionId(3, 2), RESULT, reporter=3),
    Completion(5, ActionId(3, 3), ActionResult.of({}, aborted=True)),
    AbortNotice(ActionId(2, 11)),
    StateUpdate(RESULT.written, cause=ActionId(3, 2), submitted_at=125.5),
    StateUpdate((), cause=None),
    Heartbeat(sender=6),
    RelayedAction(move_action(3), submitted_at=300.0),
    PeerForward(9, ActionBatch((OrderedAction(1, move_action(4)),))),
    GroupBundle(
        shared=(OrderedAction(2, move_action(5)),),
        members=((1, (0,)), (2, (0, OrderedAction(-1, blind_write(1))))),
        last_installed=2,
    ),
    SpanForward(0, (0, 1), move_action(6)),
    SpanSplice(12, 1, (0, 1), move_action(7)),
    SpanResult(12, ActionId(3, 7), RESULT),
    SpanAbort(13, ActionId(3, 8)),
    HandoffPrepare(2),
    HandoffReady(4),
    HandoffTransfer(
        4, 41.5, interests=frozenset({"avatar:1", "zone:a"}),
        resolved=(ActionId(4, 0), ActionId(4, 1)),
    ),
    HandoffTransfer(4, 41.5, interests=None),
    HandoffWelcome(1, resolved=(ActionId(4, 2),)),
    CommitNotice(0, ActionId(3, 0)),
    CommitNotice(2**60, ActionId(-1, 2**31)),
    LoadReport(shard=0, round=0, cpu_ms=0.0, serialized=0, clients=0),
    LoadReport(
        shard=3, round=2**40, cpu_ms=1.0e9 + 0.5, serialized=-1, clients=64
    ),
    PartitionUpdate(version=1, boundaries=()),
    PartitionUpdate(version=2**62, boundaries=(0.0, 300.25, 1200.0)),
    DrainDone(shard=1, version=4),
    PartitionCommit(version=0),
    RegionSync(version=3, lo=0.0, hi=600.0, entries=()),
    RegionSync(
        version=4,
        lo=-1.5,
        hi=1.0e12,
        entries=(
            ("avatar:1", -1, 0, (("x", 1.5), ("alive", True), ("n", None))),
            ("avatar:2", 2**48, 1, (("label", "spawn"),)),
        ),
    ),
    LeaseHeartbeat(term=0, holder=-1),
    LeaseRequest(term=1, candidate=2),
    LeaseVote(term=1, voter=0, max_gsn=-1),
    LeaseGrant(term=2**31, holder=1, gsn_floor=0),
    ShardHello(shard=2),
    ClientHello(client_id=5, radius=20.0, interests=frozenset({"avatar:5"})),
    ClientHello(client_id=3, radius=0.0, interests=None),
    _Packet(3, 1, SubmitAction(move_action(8))),
    _Packet(0, 0, None),
    _Ack(17),
    # -- empty collections, None optionals, remaining value kinds --------
    SubmitAction(BlindWrite(ActionId(-1, 1), {})),
    SubmitAction(
        BlindWrite(
            ActionId(-1, 2),
            {
                "avatar:6": {"off": False, "path": (1, (2.5, "x"), ()), "big": 2**70},
                "avatar:7": {},
            },
        )
    ),
    OrderedAction(
        0,
        MoveAction(
            ActionId(0, 0),
            "avatar:0",
            neighbors=frozenset(),
            walls=WALLS,
            duration_s=0.0,
            effect_range=0.0,
            position=Vec2(0.0, 0.0),
            velocity=None,
            cost_ms=0.0,
        ),
    ),
    ActionBatch(()),
    Completion(0, ActionId(0, 0), ActionResult.of({"avatar:0": {}})),
    StateUpdate((("avatar:0", ()),), cause=ActionId(0, 1), submitted_at=-0.0),
    Heartbeat(),
    RelayedAction(blind_write(2)),
    PeerForward(-2, ActionBatch((), last_installed=8)),
    GroupBundle(shared=(), members=()),
    GroupBundle(
        shared=(OrderedAction(3, move_action(9)), OrderedAction(4, blind_write(3))),
        members=((4, ()), (5, (1, 0)), (6, (OrderedAction(-1, blind_write(4)),))),
        last_installed=-1,
    ),
    SpanForward(2, (), blind_write(5)),
    SpanSplice(0, 0, (), blind_write(6)),
    SpanResult(0, ActionId(0, 0), ActionResult.of({}, aborted=True)),
    HandoffTransfer(0, 0.0, interests=frozenset(), resolved=()),
    HandoffWelcome(0),
    RegionSync(version=0, lo=0.0, hi=0.0, entries=(("avatar:9", -1, 0, ()),)),
    ClientHello(client_id=0, radius=1.5, interests=frozenset()),
    _Packet(-1, 4, None),
    _Packet(
        7, 2, PeerForward(1, ActionBatch((OrderedAction(-1, blind_write(7)),)))
    ),
    # -- the concurrency-control baselines' messages ---------------------
    LockGrant(ActionId(-1, 2**31)),
    Effect(ActionId(3, 4), RESULT.written, submitted_at=250.25),
    Certify(
        ActionId(5, 0),
        read_versions=(("avatar:3", 0), ("avatar:5", 2**40)),
        written=(),
        submitted_at=-0.0,
    ),
    Decision(ActionId(5, 1), True, RESULT.written, (("avatar:3", 7),)),
]


@pytest.mark.parametrize(
    "message", MESSAGES, ids=lambda m: type(m).__name__
)
def test_round_trip(message):
    frame = codec().encode(message)
    decoded = codec().decode(frame)
    assert type(decoded) is type(message)
    assert snap(decoded) == snap(message)


def test_round_trip_preserves_wire_size_inputs():
    # The decoded message must be measurable exactly like the original:
    # the traffic meter on the receiving partition bills by wire_size.
    for message in MESSAGES:
        if isinstance(message, (_Packet, _Ack)):
            continue
        decoded = codec().decode(codec().encode(message))
        assert wire_size(decoded) == wire_size(message)


def test_sequence_round_trip():
    frames = codec().encode_sequence(MESSAGES)
    decoded = codec().decode_sequence(frames)
    assert [snap(m) for m in decoded] == [snap(m) for m in MESSAGES]


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_frames.json").read_text()
)["frames"]


def test_golden_frames_pin_the_wire_format_and_the_traffic_model():
    # The fixture was dumped from the last hand-written codec and size
    # ladder (see its "generated_from"): any difference here is a wire
    # format change or a change to the paper's traffic numbers.
    assert [g["type"] for g in GOLDEN] == [type(m).__name__ for m in MESSAGES]
    for message, golden in zip(MESSAGES, GOLDEN):
        assert codec().encode(message).hex() == golden["frame"], golden["type"]
        decoded = codec().decode(bytes.fromhex(golden["frame"]))
        assert snap(decoded) == snap(message), golden["type"]
        if golden["wire_size"] is None:  # ARQ frames: billed by the network
            with pytest.raises(TypeError):
                wire_size(message)
        else:
            assert wire_size(message) == golden["wire_size"], golden["type"]


def test_every_registered_message_type_has_a_round_trip_sample():
    # Exhaustiveness ratchet: declaring a message without adding a
    # boundary-value sample above fails here.  Together with the
    # declaration checks below this is the whole cost of a new message:
    # one class whose fields name their kinds, one sample.
    sampled = {type(m) for m in MESSAGES}
    missing = [c.__name__ for c in WIRE_SPECS if c not in sampled]
    assert missing == []
    assert set(PROTOCOL_MESSAGES) == {
        cls for cls, spec in WIRE_SPECS.items() if spec.header is not None
    }


def test_a_dataclass_without_a_spec_is_rejected_not_pickled():
    @dataclasses.dataclass(frozen=True)
    class Unspecd:
        value: int

    with pytest.raises(TypeError, match="Unspecd"):
        wire_size(Unspecd(1))
    with pytest.raises(CodecError, match="Unspecd"):
        codec().encode(Unspecd(1))
    # ... and so is a plain payload, and the retired pickle frame tag.
    with pytest.raises(CodecError, match="dict"):
        codec().encode({"custom": (1, 2.5, "x")})
    with pytest.raises(CodecError, match="unknown frame tag 127"):
        codec().decode(b"\x7f\x00\x00\x00\x01N")


def test_a_field_without_a_kind_or_a_bad_tag_fails_at_declaration():
    from repro.core.messages import I64, wire, wire_message

    @dataclasses.dataclass(frozen=True)
    class Kindless:
        a: int = wire(I64)
        b: int = 0

    @dataclasses.dataclass(frozen=True)
    class Kinded:
        a: int = wire(I64)

    before = dict(WIRE_SPECS)
    with pytest.raises(TypeError, match="Kindless"):
        wire_message(tag=200, header=8)(Kindless)
    with pytest.raises(TypeError, match="Kinded"):
        wire_message(tag=200, header=None, kinds=(I64, I64))(Kinded)
    for tag in (WIRE_SPECS[Heartbeat].tag, 0, 256):
        with pytest.raises(ValueError, match="Kinded"):
            wire_message(tag=tag, header=8)(Kinded)
    assert WIRE_SPECS == before


class _Teleport(Action):
    """A world-specific action the codec has no field encoding for."""

    def __init__(self, action_id, oid, x):
        super().__init__(action_id, reads=frozenset({oid}), writes=frozenset({oid}))
        self.oid = oid
        self.x = x

    def compute(self, store):
        return {self.oid: {"x": self.x}}


def test_world_specific_actions_and_exotic_values_still_ride_pickle():
    # Pickle survives *inside* frames only: an action class other than
    # MoveAction/BlindWrite ('P' action sub-tag, counted per class) and
    # an attribute value outside None/bool/int64/float/str/tuple.
    c = codec()
    for message in MESSAGES:
        c.encode(message)
    assert c.pickle_fallbacks == {}
    decoded = codec().decode(
        c.encode(SubmitAction(_Teleport(ActionId(1, 0), "avatar:1", 4.5)))
    )
    assert type(decoded.action) is _Teleport
    assert snap(decoded.action) == snap(_Teleport(ActionId(1, 0), "avatar:1", 4.5))
    assert c.pickle_fallbacks == {"_Teleport": 1}
    exotic = StateUpdate((("avatar:1", (("tags", frozenset({"a", "b"})),)),))
    assert codec().decode(c.encode(exotic)) == exotic
    assert c.pickle_fallbacks == {"_Teleport": 1}


def test_move_frame_is_much_smaller_than_pickle():
    import pickle

    frame = codec().encode(SubmitAction(move_action()))
    assert len(frame) < len(pickle.dumps(SubmitAction(move_action()))) / 4


def test_corrupt_frames_end_in_a_codec_error_and_nothing_else():
    # Every truncation and every single-bit flip of every golden frame
    # either still decodes or raises CodecError -- never a stray
    # UnicodeDecodeError (corrupt str field), ProtocolError (sign-flipped
    # cost/radius reaching the Action constructor) or struct.error.
    c = codec()
    outcomes = {"decoded": 0, "rejected": 0}
    for golden in GOLDEN:
        frame = bytes.fromhex(golden["frame"])
        mutants = [frame[:cut] for cut in range(len(frame))]
        for index in range(len(frame)):
            for bit in range(8):
                mutant = bytearray(frame)
                mutant[index] ^= 1 << bit
                mutants.append(bytes(mutant))
        for mutant in mutants:
            try:
                c.decode(mutant)
                outcomes["decoded"] += 1
            except CodecError:
                outcomes["rejected"] += 1
    assert outcomes["decoded"] and outcomes["rejected"]


def test_truncated_frame_raises():
    frame = codec().encode(OrderedAction(7, move_action()))
    for cut in (1, 4, len(frame) // 2, len(frame) - 1):
        with pytest.raises(CodecError):
            codec().decode(frame[:cut])


def test_trailing_bytes_raise():
    frame = codec().encode(Heartbeat(1))
    with pytest.raises(CodecError):
        codec().decode(frame + b"\x00")


def test_unknown_tag_raises():
    frame = bytearray(codec().encode(Heartbeat(1)))
    frame[0] = 99  # unassigned tag
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_corrupt_body_length_raises():
    frame = bytearray(codec().encode(Heartbeat(1)))
    frame[1:5] = (0xFF, 0xFF, 0xFF, 0xFF)  # body length >> actual
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_bit_flipped_action_sub_tag_raises():
    # Adversarial/corrupt peers must not be able to smuggle garbage
    # through the inner action frame: an unassigned sub-tag byte (the
    # 'M'/'B'/'P' discriminator right after the 5-byte outer header)
    # fails loudly instead of dispatching to the wrong decoder.
    frame = bytearray(codec().encode(SubmitAction(move_action())))
    assert chr(frame[5]) == "M"
    frame[5] ^= 0xFF
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_oversized_inner_length_raises():
    # A length prefix pointing past the end of the body (here the
    # avatar oid's u32, the first variable-length field of a move
    # frame) must raise, not over-read into adjacent frames.
    frame = bytearray(codec().encode(SubmitAction(move_action())))
    frame[22:26] = (0xFF, 0xFF, 0xFF, 0xFF)
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_truncated_frame_inside_sequence_raises():
    # decode_sequence walks concatenated frames; a body cut short mid-
    # stream (transport-level truncation) surfaces as a CodecError
    # rather than a silent partial batch.
    frames = codec().encode_sequence(
        [Heartbeat(1), SubmitAction(move_action())]
    )
    for cut in (len(frames) - 1, len(frames) - 8):
        with pytest.raises(CodecError):
            codec().decode_sequence(frames[:cut])


def test_move_decode_without_walls_raises():
    frame = codec().encode(SubmitAction(move_action()))
    with pytest.raises(CodecError):
        MessageCodec(walls=None).decode(frame)


def test_walls_never_cross_the_wire():
    # The wall field is seed-derived and identical everywhere, so moves
    # reference it by token: the frame must stay small no matter how
    # large the field is, and decoding rebinds the decoder's own copy.
    frame = codec().encode(SubmitAction(move_action()))
    assert len(frame) < 256
    decoded = MessageCodec(walls=WALLS).decode(frame)
    assert decoded.action.walls is WALLS
