"""Hybrid metadata indexing (§4.2).

The index answers one question: *which MNode owns the inode for this
(parent, name)?*  The common case is pure filename hashing.  Two kinds of
exception-table entries redirect corner cases:

* **path-walk redirection** — hot filenames (e.g. ``Makefile``) hash by
  ``(parent_id, name)`` instead, spreading their many instances across
  MNodes.  A client cannot compute this placement (it does not know parent
  ids), so it sends the request to a *random* MNode, which resolves the
  parent locally and forwards one hop (§4.2.1).
* **overriding redirection** — a filename is pinned to a designated MNode
  to correct hash variance; clients send straight to it.

The table is versioned: an MNode adopts a new table in the install step
of the redirection that made it (or from the coordinator on restart) and
clients refresh lazily off responses, so MNodes must validate every
request against their own copy and forward misdirected ones.
"""

import zlib

#: Routing decisions returned by :meth:`HybridIndex.route`.
ROUTE_HASH = "hash"
ROUTE_PATHWALK = "pathwalk"
ROUTE_OVERRIDE = "override"


def stable_hash(value):
    """A process-stable hash of a string or tuple of strings/ints.

    Python's builtin ``hash`` is randomized per process; placement must be
    deterministic across runs, so we CRC the repr of the key.  Nothing is
    memoized: the process holds no state per name it has hashed.
    """
    if isinstance(value, tuple):
        data = "\x00".join(str(part) for part in value)
    else:
        data = str(value)
    return zlib.crc32(data.encode())


class ExceptionTable:
    """Versioned set of redirection entries, copied on every node.

    Immutable by convention: mutation helpers return the entry sets in
    place but bump ``version``; distribution happens by handing whole
    copies around (the tables are tiny — Table 3 shows 0-2 entries in
    practice, §A.1 bounds them at O(n log n)).
    """

    def __init__(self, version=0, pathwalk=None, override=None):
        self.version = version
        #: Filenames placed by (parent_id, name) hashing.
        self.pathwalk = set(pathwalk or ())
        #: Filename -> MNode index pinnings.
        self.override = dict(override or {})

    def adopt(self, newer):
        """Take over a strictly newer table's entries *in place* — every
        holder's :class:`HybridIndex` is bound to this object and must
        see the refresh.  Returns whether anything changed."""
        if newer.version <= self.version:
            return False
        self.version = newer.version
        self.pathwalk = newer.pathwalk
        self.override = newer.override
        return True

    def __len__(self):
        return len(self.pathwalk) + len(self.override)

    def __repr__(self):
        return "<ExceptionTable v{} pathwalk={} override={}>".format(
            self.version, sorted(self.pathwalk), self.override
        )

    def add_pathwalk(self, name):
        self.pathwalk.add(name)
        self.override.pop(name, None)
        self.version += 1

    def add_override(self, name, node_index):
        self.override[name] = node_index
        self.pathwalk.discard(name)
        self.version += 1

    def remove(self, name):
        removed = name in self.pathwalk or name in self.override
        self.pathwalk.discard(name)
        self.override.pop(name, None)
        if removed:
            self.version += 1
        return removed


def exception_table_to_wire(table):
    """Serialize an exception table for RPC distribution."""
    return {
        "version": table.version,
        "pathwalk": sorted(table.pathwalk),
        "override": dict(table.override),
    }


def exception_table_from_wire(data):
    return ExceptionTable(
        version=data["version"],
        pathwalk=data["pathwalk"],
        override=data["override"],
    )


class HybridIndex:
    """Placement logic shared by clients, MNodes and the coordinator.

    ``num_nodes`` is the number of directory *slots* hashed over.  In
    the static layout there is one slot per MNode and the slot index is
    the node index; under the elastic namespace the cluster slot map
    (:class:`repro.core.shared.SlotMap`) resolves slot -> current host,
    so everything this index returns is a slot.
    """

    def __init__(self, num_nodes, table=None):
        if num_nodes < 1:
            raise ValueError("need at least one MNode")
        self.num_nodes = num_nodes
        self.table = table if table is not None else ExceptionTable()

    def hash_name(self, name):
        """Common-case placement: hash of the filename alone."""
        return stable_hash(name) % self.num_nodes

    def hash_parent_name(self, parent_id, name):
        """Path-walk-redirected placement: hash of (parent_id, name)."""
        return stable_hash((parent_id, name)) % self.num_nodes

    def route(self, name):
        """Classify ``name``: (ROUTE_*, target-node-or-None).

        ``ROUTE_HASH`` and ``ROUTE_OVERRIDE`` give a definite target;
        ``ROUTE_PATHWALK`` requires parent resolution (target None at the
        client, computable server-side via :meth:`hash_parent_name`).
        """
        if name in self.table.override:
            return ROUTE_OVERRIDE, self.table.override[name]
        if name in self.table.pathwalk:
            return ROUTE_PATHWALK, None
        return ROUTE_HASH, self.hash_name(name)

    def locate(self, parent_id, name):
        """Definitive owner MNode for ``(parent_id, name)`` — server side,
        where the parent id is known."""
        kind, target = self.route(name)
        if kind == ROUTE_PATHWALK:
            return self.hash_parent_name(parent_id, name)
        return target

    def client_target(self, name, rng=None):
        """Where a client should send a request about ``name``.

        Returns ``(node_index, is_definitive)``.  For path-walk entries the
        client picks a random MNode (which forwards), so the result is not
        definitive and the operation costs an extra hop.
        """
        kind, target = self.route(name)
        if kind == ROUTE_PATHWALK:
            if rng is None:
                return 0, False
            return rng.randrange(self.num_nodes), False
        return target, True
