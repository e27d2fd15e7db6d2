"""Checkpointing — the paper's persistence layer.

Section II: "Persistent net-VEs typically store the world state in a
database … most net-VEs use commercial databases only to commit and
read at periodic checkpoints."  This module provides that layer for the
simulation: a canonical JSON serialization of an
:class:`~repro.state.store.ObjectStore` plus a
:class:`ShardRecoveryLog` that snapshots the authoritative state every
*N* commits and logs the commits in between (hooking the server's
``on_commit``), so a crashed server restarts from checkpoint + WAL
replay.

The format is deliberately boring: a sorted JSON object mapping object
ids to attribute dicts, with tuples and dict values encoded as tagged
lists (and lists recursed) so the round trip is exact even for nested
dict/tuple/list values.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.errors import ProtocolError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore

#: Format marker embedded in every checkpoint.
FORMAT = "repro-checkpoint-v1"

_TUPLE_TAG = "__tuple__"
_DICT_TAG = "__dict__"


def _encode_value(value):
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_value(v) for v in value]}
    if isinstance(value, dict):
        # Tagged as a key/value pair list: JSON objects only carry
        # string keys, and untagged dicts would be indistinguishable
        # from the tuple encoding above.
        return {
            _DICT_TAG: [
                # Checkpoints are per-replica recovery artifacts, never
                # compared byte-wise across replicas; preserving the
                # dict's own order keeps the round trip faithful.
                [_encode_value(k), _encode_value(v)]
                for k, v in value.items()  # lint: allow(dict-iter-serialization)
            ]
        }
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    return value


def _decode_value(value):
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode_value(v) for v in value[_TUPLE_TAG])
        if set(value) == {_DICT_TAG}:
            return {
                _decode_value(k): _decode_value(v)
                for k, v in value[_DICT_TAG]
            }
        raise ProtocolError(f"unexpected mapping in checkpoint: {value!r}")
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def dump_store(store: ObjectStore) -> str:
    """Serialize ``store`` to canonical JSON text."""
    payload = {
        "format": FORMAT,
        "objects": {
            oid: {
                name: _encode_value(value)
                for name, value in sorted(store.get(oid).items())
            }
            for oid in sorted(store.ids())
        },
    }
    return json.dumps(payload, sort_keys=True, indent=None, separators=(",", ":"))


def load_store(text: str) -> ObjectStore:
    """Rebuild an :class:`ObjectStore` from :func:`dump_store` output;
    malformed text is a :class:`ProtocolError`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"corrupt checkpoint: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"corrupt checkpoint: a {type(payload).__name__}")
    if payload.get("format") != FORMAT:
        raise ProtocolError(
            f"not a {FORMAT} checkpoint: format={payload.get('format')!r}"
        )
    store = ObjectStore()
    try:
        for oid, attrs in payload["objects"].items():
            store.put(
                WorldObject(
                    oid, {name: _decode_value(value) for name, value in attrs.items()}
                )
            )
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"corrupt checkpoint: {error!r}") from error
    return store


class ShardRecoveryLog:
    """Checkpoint + write-ahead log (WAL) for one serializer.

    The log holds the latest checkpoint (a :func:`dump_store` string),
    the commits made since it, and two high-water marks, so a crashed
    shard host restarts into exactly its committed state
    (docs/control_plane.md):

    * every ``interval_commits`` commits it checkpoints the store and
      truncates the WAL;
    * the WAL holds one ``[(oid, attrs), ...]`` record per commit
      since the checkpoint, in commit order: the values it wrote,
      appended from the server's ``on_commit`` hook (splice and
      blind-write entries included, so cross-shard writes recover too);
    * ``max_gsn`` / ``max_pos`` are the highest sequencer gsn and
      stream position ever issued, so a restarted incarnation never
      reuses one.

    Recovery = load the checkpoint (or start from an empty store) and
    merge the WAL in order.  Known gap, by design: values merged via
    elastic ``RegionSync`` bypass the commit hook, so a restart during
    an open elastic epoch recovers only commit-path writes (the
    restarted shard re-learns current boundaries via its hello; see
    docs/control_plane.md).
    """

    def __init__(
        self,
        store: ObjectStore,
        *,
        interval_commits: int = 100,
    ) -> None:
        if interval_commits <= 0:
            raise ProtocolError("interval_commits must be positive")
        self.store = store
        self.interval_commits = interval_commits
        #: The latest checkpoint, ``None`` before the first.
        self.checkpoint: Optional[str] = None
        self.wal: List[list] = []
        self.max_gsn = -1
        self.max_pos = -1

    def on_commit(self, pos: int, client_id, values) -> None:
        """Commit hook: append the WAL record; on the interval,
        checkpoint the store instead and drop the records it covers."""
        if len(self.wal) + 1 == self.interval_commits:
            self.checkpoint = dump_store(self.store)
            self.wal = []
            return
        self.wal.append(
            # WAL records are per-replica recovery artifacts (same
            # contract as the checkpoint encoder above), and the copy
            # guards against later in-place mutation.
            [
                (oid, dict(attrs))
                for oid, attrs in values.items()  # lint: allow(dict-iter-serialization)
            ]
        )

    def note_gsn(self, gsn: int) -> None:
        """Record a sequencer gsn assignment (high-water only)."""
        if gsn > self.max_gsn:
            self.max_gsn = gsn

    def note_stream(self, pos: int) -> None:
        """Record a stream-position admission (high-water only).

        A restarted server must never re-issue a position a client may
        already hold in its applied set, so the replacement seeds its
        stream counter past everything the dead incarnation admitted.
        """
        if pos > self.max_pos:
            self.max_pos = pos

    def recover(self) -> ObjectStore:
        """The committed store at crash time: the checkpoint (or an
        empty store) plus the WAL's records in order."""
        store = ObjectStore() if self.checkpoint is None else load_store(self.checkpoint)
        for written in self.wal:
            store.merge({oid: dict(attrs) for oid, attrs in written})
        return store

    @property
    def next_gsn(self) -> int:
        """First gsn a restarted sequencer may assign."""
        return self.max_gsn + 1

    @property
    def next_pos(self) -> int:
        """First stream position a restarted server may admit."""
        return self.max_pos + 1
