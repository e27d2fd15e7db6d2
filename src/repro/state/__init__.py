"""World-state database substrate.

The state of a virtual world is a database of objects
(:class:`~repro.state.objects.WorldObject`) held in an
:class:`~repro.state.store.ObjectStore`.  Clients maintain a stable
replica, possibly partial, and over it an optimistic
:class:`~repro.state.store.OverlayStore`; the Incomplete World server
maintains the authoritative store.  A
:class:`~repro.state.versioned.VersionedStore` additionally records a
per-object version counter and a bounded multiversion history, which the
consistency checker and the timestamp-protocol discussion in the paper
rely on.
"""

from repro.state.checkpoint import ShardRecoveryLog, dump_store, load_store
from repro.state.locks import LockTable
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore
from repro.state.versioned import VersionedStore

__all__ = [
    "LockTable",
    "ObjectStore",
    "ShardRecoveryLog",
    "VersionedStore",
    "WorldObject",
    "dump_store",
    "load_store",
]
