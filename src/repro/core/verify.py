"""Cluster consistency checking.

:func:`check_cluster_invariants` audits a quiesced FalconFS cluster
against the invariants the protocol is supposed to maintain:

* **placement** — every inode record lives on the MNode hybrid indexing
  maps its ``(parent_id, name)`` key to (unless mid-migration);
* **ownership** — every directory inode has a VALID dentry record in its
  owner's namespace replica, and owner dentries mirror the inode's
  identity and mode;
* **replica coherence** — every VALID replica dentry (on any MNode or
  the coordinator) agrees with the owner's inode record; stale entries
  must be marked INVALID, never silently wrong;
* **reachability** — every inode's parent id refers to an existing
  directory (no orphans), and every directory reaches the root by its
  parent ids (no detached cycle);
* **statistics** — the per-MNode filename counters and secondary indexes
  used by the load balancer match the actual tables.

Two entry points share one audit: :func:`check_cluster_invariants`
raises :class:`InvariantViolation` on the first violated invariant (the
historical fail-fast contract tests rely on), while
:func:`cluster_violations` collects *every* violation as a
machine-readable dict — the form the simulation checker
(``repro.check``) records into seed files and shrinks against.

:func:`runtime_violations` audits the *runtime* state instead of the
tables: after the event queue has drained, no live node may still hold
or queue locks, stage 2PC participant state, or have unacknowledged WAL
commit waiters — leftovers mean some code path leaked synchronization
state under faults — and each MNode's in-memory slot states must be
exactly what a restart would rebuild from the slot map and its durable
handoff markers.
"""

from itertools import groupby, islice

from repro.core.records import VALID
from repro.vfs.attrs import ROOT_INO


class InvariantViolation(AssertionError):
    """Raised when a cluster invariant does not hold."""


def _violation(invariant, message, *args, **extra):
    record = {"invariant": invariant, "message": message.format(*args)}
    for key, value in extra.items():
        record[key] = value
    return record


def check_cluster_invariants(cluster):
    """Audit ``cluster``; raises :class:`InvariantViolation` on the first
    violated invariant, returns summary counts otherwise."""
    counts = {}
    for violation in _audit(cluster, counts):
        raise InvariantViolation(violation["message"])
    return counts


def cluster_violations(cluster):
    """Audit ``cluster``; returns every violation as a dict with at
    least ``invariant`` and ``message`` keys (empty list when clean)."""
    return list(_audit(cluster, {}))


def _audit(cluster, counts):
    """Generator over violation dicts; fills ``counts`` as it goes.

    Reads every table in place and keeps no per-row structure beyond one
    sorted list of references (inode numbers, then one MNode's names):
    the namespace is checked where it lies, never copied first.  A key
    held by several MNodes is read once, where the first holder lists
    it, from the holder met last."""
    index = cluster.coordinator.index
    node_of = cluster.shared.slot_map.node_of
    locate = index.locate
    mnodes = cluster.mnodes
    tables = [mnode.inodes for mnode in mnodes]

    # The same key on two MNodes.  ``held`` maps only such keys to their
    # (first, last) holders; the intersections run over the key views.
    held = {}
    for holder_index, table in enumerate(tables):
        shared = set()
        for earlier in tables[:holder_index]:
            shared |= table.keys() & earlier.keys()
        for key in sorted(shared):
            holders = [j for j in range(holder_index) if key in tables[j]]
            yield _violation(
                "placement",
                "duplicate inode record for {} on {} and {}",
                key, holders[-1], holder_index, key=list(key),
            )
            held[key] = (holders[0], holder_index)

    def rows():
        """``(key, record, holder index)`` once per key, in table order."""
        for holder_index, table in enumerate(tables):
            for key, record in table.scan():
                if held and key in held:
                    first, last = held[key]
                    if first != holder_index:
                        continue
                    yield key, tables[last].get(key), last
                else:
                    yield key, record, holder_index

    # Directories, each number to its parent's, and inode numbers met
    # more than once (found by sorting references to every number).
    parent_of = {ROOT_INO: ROOT_INO}
    inos = []
    for (pid, _), record, _ in rows():
        inos.append(record.ino)
        if record.is_dir:
            parent_of[record.ino] = pid
    counts["inodes"] = len(inos)
    inos.sort()
    repeated = {ino for ino, after in zip(inos, islice(inos, 1, None))
                if ino == after}
    del inos

    migrating = set().union(*(mnode.migrating for mnode in mnodes))
    dirs = []
    met = set()
    # Reachability (every parent id names an existing directory) is
    # checked in the same pass, and reported after placement.
    orphans = []
    for key, record, holder_index in rows():
        pid, name = key
        ino = record.ino
        if ino in repeated:
            if ino in met:
                yield _violation("identity", "inode number {} appears twice",
                                 ino, key=list(key))
            met.add(ino)
        if record.is_dir:
            dirs.append((key, ino))
        expected = node_of(locate(pid, name))
        if expected != holder_index and name not in migrating:
            yield _violation(
                "placement",
                "inode {} placed on MNode {} but indexing says {}",
                key, holder_index, expected, key=list(key),
            )
        if pid not in parent_of:
            orphans.append(_violation(
                "reachability",
                "orphaned inode {}: parent ino {} does not exist",
                key, pid, key=list(key),
            ))
    yield from orphans
    # Every directory reaches the root: a walk up stops at a directory
    # already walked or at a missing parent (an orphan, reported above).
    loops = {ROOT_INO: False}
    for key, ino in dirs:
        trail = set()
        while ino in parent_of and ino not in loops and ino not in trail:
            trail.add(ino)
            ino = parent_of[ino]
        loop = loops.get(ino, ino in trail)
        loops.update(dict.fromkeys(trail, loop))
        if loop:
            yield _violation(
                "reachability",
                "directory {} does not reach the root: its parent chain "
                "loops", key, key=list(key))

    # Ownership and replica coherence.
    replicas_checked = 0
    for holder in list(mnodes) + [cluster.coordinator]:
        for key, dentry in holder.dentries.scan():
            if dentry.state != VALID:
                continue
            replicas_checked += 1
            authoritative = None
            for table in tables:
                authoritative = table.get(key, authoritative)
            if authoritative is None or not authoritative.is_dir:
                yield _violation(
                    "coherence",
                    "{} holds VALID dentry {} with no directory inode",
                    holder.name, key, key=list(key),
                )
                continue
            if dentry.ino != authoritative.ino:
                yield _violation(
                    "coherence", "{} dentry {} ino {} != inode {}",
                    holder.name, key, dentry.ino, authoritative.ino,
                    key=list(key),
                )
            if dentry.mode != authoritative.mode:
                yield _violation(
                    "coherence",
                    "{} dentry {} mode {:o} != inode mode {:o}",
                    holder.name, key, dentry.mode, authoritative.mode,
                    key=list(key),
                )

    # Every directory inode is backed by a VALID dentry at its owner.
    for key, _ in dirs:
        owner = mnodes[node_of(locate(*key))]
        dentry = owner.dentries.get(key)
        if dentry is None or dentry.state != VALID:
            if key[1] not in migrating:
                yield _violation(
                    "ownership",
                    "directory {} missing VALID dentry at owner {}",
                    key, owner.name, key=list(key),
                )

    # Statistics used by the load balancer.
    for mnode in mnodes:
        if not _counts_match(mnode.inodes, mnode.filename_counts):
            yield _violation(
                "statistics", "{} filename counters diverge from its table",
                mnode.name, node=mnode.name,
            )

    counts["directories"] = len(parent_of) - 1
    counts["valid_replica_dentries"] = replicas_checked


def _counts_match(table, filename_counts):
    """True when ``filename_counts`` holds exactly the number of rows of
    ``table`` under each name: the names are sorted as references and
    each run compared in place (``.get``, since the counter is a
    defaultdict)."""
    names = sorted(name for _, name in table.keys())
    runs = 0
    for name, run in groupby(names):
        runs += 1
        if filename_counts.get(name) != sum(1 for _ in run):
            return False
    return runs == len(filename_counts)


def runtime_violations(cluster):
    """Audit runtime synchronization state on a quiesced cluster.

    After the event queue drains, every lock must have been released,
    every staged 2PC participant entry and voted rename row resolved,
    and every WAL commit waiter acknowledged (on nodes whose WAL did
    not power-fail).
    Residue means a code path leaked state — typically an error or
    fault-handling branch that skipped a release.  Returns violation
    dicts like :func:`cluster_violations`.
    """
    violations = []
    holders = list(cluster.mnodes) + [cluster.coordinator]
    for holder in holders:
        if getattr(holder, "halted", False):
            continue
        lock_keys = sorted(
            repr(key) for key in getattr(holder.locks, "_locks", {})
        )
        if lock_keys:
            violations.append(_violation(
                "lock-leak", "{} still holds/queues locks on {} keys: {}",
                holder.name, len(lock_keys), lock_keys[:8],
                node=holder.name, keys=lock_keys,
            ))
        # A rename's staging is its voted rows; ``_staged`` caches them.
        staged = set(getattr(holder, "_staged", ()))
        meta = getattr(holder, "meta", None)
        if meta is not None:
            staged.update(key[2] for key, row in meta.scan_prefix(("rename",))
                          if "voted" in row)
        if staged:
            violations.append(_violation(
                "staged-leak",
                "{} holds unresolved 2PC staging for txids {}",
                holder.name, sorted(staged), node=holder.name,
                txids=sorted(staged),
            ))
        wal = getattr(holder, "wal", None)
        if wal is not None and not wal.failed and wal._pending:
            violations.append(_violation(
                "wal-waiters", "{} has {} unacknowledged WAL commit waiters",
                holder.name, len(wal._pending), node=holder.name,
            ))
    active = getattr(cluster.coordinator, "migrations", None)
    if active:
        violations.append(_violation(
            "migration-leak",
            "slot handoffs still registered after drain: {}",
            sorted(active), slots=sorted(active),
        ))
    for mnode in cluster.mnodes:
        if getattr(mnode, "halted", False):
            continue
        if mnode.migrating:
            violations.append(_violation(
                "migrating-leak",
                "{} still blocks names {} after drain",
                mnode.name, sorted(mnode.migrating), node=mnode.name,
                names=sorted(mnode.migrating),
            ))
        pending = sorted(slot for slot, state in mnode.slots.items()
                         if state["state"] == "pending")
        if pending:
            violations.append(_violation(
                "pending-slot-leak",
                "{} still holds undischarged pending slots {}",
                mnode.name, pending, node=mnode.name, slots=pending,
            ))
        rebuilt = mnode.rebuilt_slots()
        diverged = sorted(slot for slot in set(mnode.slots) | set(rebuilt)
                          if mnode.slots.get(slot) != rebuilt.get(slot))
        if diverged:
            violations.append(_violation(
                "slot-state",
                "{} slot states {} differ from what a restart rebuilds",
                mnode.name, diverged, node=mnode.name, slots=diverged,
            ))
        writers = {
            slot: n for slot, n
            in getattr(mnode, "_slot_writers", {}).items() if n
        }
        if writers:
            violations.append(_violation(
                "slot-writer-leak",
                "{} has leaked slot writer counts {}",
                mnode.name, writers, node=mnode.name,
            ))
    return violations
