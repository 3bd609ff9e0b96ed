"""Metadata record types stored in MNode tables (Table 1 of the paper).

Both tables key by ``(parent_id, name)``:

* **dentry** records form the namespace replica — directory entries only,
  replicated (lazily) on every MNode.  A replica entry can be *valid*,
  *invalid* (it must be refetched from its owner before use — the
  invalidation-based locking of §4.3), or absent (fetched on demand).
* **inode** records hold per-file/directory attributes, sharded across
  MNodes by hybrid indexing.

A server-side dentry record is intentionally small (the paper's §3 notes
under 100 bytes vs 800 bytes for a VFS-cached directory); we model that
footprint for the memory-accounting experiments.

Rows cross nodes and enter logs as the tables store them, with tuple
keys, in one of two shapes: a record list ``[(table, key, row | None)]``
(a WAL payload, a handoff delta, a shipment) or a table image
``{table: (keys, rows)}`` (a base, a snapshot).  The live serving mode
puts both on the wire through :mod:`repro.runtime.wire`, which encodes
these two classes.  One copy rule: a node that stores a received row
mutated in place (a :class:`DentryRecord`, a meta dict) keeps a
:func:`~repro.storage.table.row_copy` of it; an :class:`InodeRecord`
is shared as is.
"""

from dataclasses import dataclass
from itertools import count

from repro.vfs import InodeAttrs

#: Modeled memory footprint of a server-side namespace-replica entry.
SERVER_DENTRY_BYTES = 96

#: Dentry replica states.
VALID = "valid"
INVALID = "invalid"


@dataclass(slots=True)
class DentryRecord:
    """Namespace-replica entry for one directory.

    Mutable (invalidation marks a replica INVALID in place), so the log
    and every node that stores a received one keep a :meth:`copy`."""

    ino: int
    mode: int = 0o755
    uid: int = 0
    gid: int = 0
    state: str = VALID

    def copy(self):
        return DentryRecord(self.ino, self.mode, self.uid, self.gid, self.state)


@dataclass(frozen=True, slots=True)
class InodeRecord:
    """Sharded attribute record for a file or directory.

    Immutable: a write stores a new row (``dataclasses.replace``), so
    the WAL, a checkpoint image, a snapshot reply and a standby's table
    can all hold the stored object itself, never a copy of it."""

    ino: int
    is_dir: bool = False
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    size: int = 0
    mtime: float = 0.0
    nlink: int = 1

    def dentry(self):
        """The dentry a directory's owner keeps beside this inode."""
        return DentryRecord(self.ino, self.mode, self.uid, self.gid)


def inode_to_wire(record):
    """The attribute dict a client-facing reply carries (``{"attrs":
    ...}``: ``getattr`` returns it).  Server-to-server messages carry
    the row itself."""
    return {
        "ino": record.ino,
        "is_dir": record.is_dir,
        "mode": record.mode,
        "uid": record.uid,
        "gid": record.gid,
        "size": record.size,
        "mtime": record.mtime,
        "nlink": record.nlink,
    }


def attrs_from_wire(data):
    """A client's view of a wire inode: the :class:`InodeAttrs` it caches."""
    return InodeAttrs(
        ino=data["ino"], is_dir=data["is_dir"], mode=data["mode"],
        uid=data["uid"], gid=data["gid"], size=data["size"],
        mtime=data["mtime"],
    )


class InodeAllocator:
    """Cluster-wide unique inode numbers.

    Real FalconFS allocates ids from per-MNode ranges handed out by the
    coordinator; a shared counter is behaviourally identical because
    placement never depends on the id value.  The multi-process serving
    mode, where no object is shared, gives each MNode a strided counter
    (``start=2+index, step=num_mnodes``) — disjoint id spaces with no
    coordination.
    """

    def __init__(self, start=2, step=1):
        self._next = count(start, step)

    def allocate(self):
        return next(self._next)
