"""The invariant audit's verdicts, pinned as data.

:func:`repro.core.verify.cluster_violations` reads every MNode's tables
where they are and holds no per-row copy of the namespace
(``test_host_memory.py`` budgets that).  Each corruption the audit
detects is planted into one small cluster, and the full violation list
(invariant, message and order) and the summary counts must equal the
lists recorded when the audit still rebuilt the namespace as dicts
before checking it.
"""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.records import INVALID, DentryRecord, InodeRecord
from repro.core.verify import (InvariantViolation, _audit,
                               check_cluster_invariants, cluster_violations)


def _cluster():
    """Four MNodes, three directories, ten files, and ``path -> ino``
    (read before any corruption is planted)."""
    cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
    fs = cluster.fs()
    paths = ["/a", "/a/b", "/c"]
    for path in paths:
        fs.mkdir(path)
    files = (["/a/f{}".format(i) for i in range(6)]
             + ["/c/g{}".format(i) for i in range(4)])
    for path in files:
        fs.create(path)
    return cluster, {path: fs.getattr(path)["ino"]
                     for path in paths + files}


def _owner(cluster, key):
    index = cluster.coordinator.index
    return cluster.shared.slot_map.node_of(index.locate(*key))


def _plant(mnode, key, record):
    mnode.inodes.put(key, record)
    mnode._track_name(key, +1)


def _same_key_twice(cluster, ino):
    key = (ino["/a"], "f0")
    holder = _owner(cluster, key)
    record = cluster.mnodes[holder].inodes.get(key)
    _plant(cluster.mnodes[(holder + 1) % 4], key, record)


def _same_key_everywhere(cluster, ino):
    key = (ino["/c"], "g1")
    holder = _owner(cluster, key)
    record = cluster.mnodes[holder].inodes.get(key)
    for offset in (1, 2, 3):
        _plant(cluster.mnodes[(holder + offset) % 4], key, record)


def _misplaced_row(cluster, ino):
    key = (ino["/a"], "planted")
    _plant(cluster.mnodes[(_owner(cluster, key) + 1) % 4], key,
           InodeRecord(ino=999999))


def _misplaced_while_migrating(cluster, ino):
    """Mid-migration a row may sit off its indexed MNode."""
    key = (ino["/a"], "moving")
    _plant(cluster.mnodes[(_owner(cluster, key) + 1) % 4], key,
           InodeRecord(ino=999997))
    cluster.mnodes[2].migrating.add("moving")


def _duplicate_ino(cluster, ino):
    twin = ino["/a/f1"]
    key = (ino["/c"], "twin")
    _plant(cluster.mnodes[_owner(cluster, key)], key, InodeRecord(ino=twin))


def _orphan(cluster, ino):
    key = (777777, "lost.dat")
    _plant(cluster.mnodes[_owner(cluster, key)], key,
           InodeRecord(ino=999998))


def _dentry_without_directory(cluster, ino):
    a = ino["/a"]
    cluster.mnodes[0].dentries.put((a, "f2"), DentryRecord(ino=12345))
    cluster.coordinator.dentries.put((a, "ghost"), DentryRecord(ino=54321))
    # An INVALID replica is allowed to be wrong.
    cluster.mnodes[1].dentries.put(
        (a, "ghost"), DentryRecord(ino=54321, state=INVALID))


def _dentry_wrong_ino(cluster, ino):
    key = (ino["/a"], "b")
    cluster.mnodes[3].dentries.put(
        key, DentryRecord(ino=ino["/a/b"] + 1000))


def _dentry_wrong_mode(cluster, ino):
    key = (1, "c")
    cluster.mnodes[1].dentries.put(
        key, DentryRecord(ino=ino["/c"], mode=0o700))


def _owner_dentry_missing(cluster, ino):
    key = (ino["/a"], "b")
    cluster.mnodes[_owner(cluster, key)].dentries.delete(key)


def _owner_dentry_missing_while_migrating(cluster, ino):
    key = (1, "c")
    cluster.mnodes[_owner(cluster, key)].dentries.delete(key)
    cluster.mnodes[0].migrating.add("c")


def _skewed_counts(cluster, ino):
    key = (ino["/a"], "f3")
    cluster.mnodes[_owner(cluster, key)].filename_counts["f3"] += 1


def _counts_swapped(cluster, ino):
    """Same total, different names: one name counted twice, one not."""
    key = (ino["/c"], "g2")
    counts = cluster.mnodes[_owner(cluster, key)].filename_counts
    counts["g2"] += 1
    other = next(name for name in sorted(counts) if name != "g2")
    del counts[other]


def _zero_count(cluster, ino):
    cluster.mnodes[3].filename_counts["nothing"] = 0


CORRUPTIONS = {
    "same_key_twice": _same_key_twice,
    "same_key_everywhere": _same_key_everywhere,
    "misplaced_row": _misplaced_row,
    "misplaced_while_migrating": _misplaced_while_migrating,
    "duplicate_ino": _duplicate_ino,
    "orphan": _orphan,
    "dentry_without_directory": _dentry_without_directory,
    "dentry_wrong_ino": _dentry_wrong_ino,
    "dentry_wrong_mode": _dentry_wrong_mode,
    "owner_dentry_missing": _owner_dentry_missing,
    "owner_dentry_missing_while_migrating":
        _owner_dentry_missing_while_migrating,
    "skewed_counts": _skewed_counts,
    "counts_swapped": _counts_swapped,
    "zero_count": _zero_count,
}


def _all_at_once(cluster, ino, plants=tuple(CORRUPTIONS.values())):
    for plant in plants:
        plant(cluster, ino)


CORRUPTIONS["all_at_once"] = _all_at_once


def _detached_cycle(cluster, ino):
    """Two directories, each the other's parent: every parent id names
    a directory, yet neither reaches the root.  Each is placed at its
    owner with its owner dentry, so reachability alone must catch it."""
    x, y = 888881, 888882
    for key, dir_ino in (((y, "x"), x), ((x, "y"), y)):
        owner = cluster.mnodes[_owner(cluster, key)]
        record = InodeRecord(ino=dir_ino, is_dir=True, mode=0o755)
        _plant(owner, key, record)
        owner.dentries.put(key, record.dentry())


# Planted after the recorded set above, so ``all_at_once`` keeps its
# recorded verdict.
CORRUPTIONS["detached_cycle"] = _detached_cycle

#: Recorded from the dict-building audit this one replaced, but for
#: ``detached_cycle``, which that audit did not catch:
#: name -> (violations, counts).
EXPECTED = {
    "all_at_once": (
        [{'invariant': 'placement',
          'message': "duplicate inode record for (4, 'g1') on 0 and 1",
          'key': [4, 'g1']},
         {'invariant': 'placement',
          'message': "duplicate inode record for (4, 'g1') on 1 and 2",
          'key': [4, 'g1']},
         {'invariant': 'placement',
          'message': "duplicate inode record for (2, 'f0') on 2 and 3",
          'key': [2, 'f0']},
         {'invariant': 'placement',
          'message': "duplicate inode record for (4, 'g1') on 2 and 3",
          'key': [4, 'g1']},
         {'invariant': 'placement',
          'message': "inode (4, 'g1') placed on MNode 3 but indexing says 1",
          'key': [4, 'g1']},
         {'invariant': 'placement',
          'message': "inode (2, 'f0') placed on MNode 3 but indexing says 2",
          'key': [2, 'f0']},
         {'invariant': 'placement',
          'message': "inode (2, 'planted') placed on MNode 3 but indexing "
                     'says 2',
          'key': [2, 'planted']},
         {'invariant': 'identity',
          'message': 'inode number 6 appears twice',
          'key': [4, 'twin']},
         {'invariant': 'reachability',
          'message': "orphaned inode (777777, 'lost.dat'): parent ino 777777 "
                     'does not exist',
          'key': [777777, 'lost.dat']},
         {'invariant': 'coherence',
          'message': "mnode-0 holds VALID dentry (2, 'f2') with no directory "
                     'inode',
          'key': [2, 'f2']},
         {'invariant': 'coherence',
          'message': "mnode-1 dentry (1, 'c') mode 700 != inode mode 755",
          'key': [1, 'c']},
         {'invariant': 'coherence',
          'message': "mnode-3 dentry (2, 'b') ino 1003 != inode 3",
          'key': [2, 'b']},
         {'invariant': 'coherence',
          'message': "coordinator holds VALID dentry (2, 'ghost') with no "
                     'directory inode',
          'key': [2, 'ghost']},
         {'invariant': 'ownership',
          'message': "directory (2, 'b') missing VALID dentry at owner "
                     'mnode-1',
          'key': [2, 'b']},
         {'invariant': 'statistics',
          'message': 'mnode-0 filename counters diverge from its table',
          'node': 'mnode-0'},
         {'invariant': 'statistics',
          'message': 'mnode-3 filename counters diverge from its table',
          'node': 'mnode-3'}],
        {'inodes': 17, 'directories': 3, 'valid_replica_dentries': 8}),
    "counts_swapped": (
        [{'invariant': 'statistics',
          'message': 'mnode-3 filename counters diverge from its table',
          'node': 'mnode-3'}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 7}),
    "dentry_without_directory": (
        [{'invariant': 'coherence',
          'message': "mnode-0 holds VALID dentry (2, 'f2') with no directory "
                     'inode',
          'key': [2, 'f2']},
         {'invariant': 'coherence',
          'message': "coordinator holds VALID dentry (2, 'ghost') with no "
                     'directory inode',
          'key': [2, 'ghost']}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 9}),
    "dentry_wrong_ino": (
        [{'invariant': 'coherence',
          'message': "mnode-3 dentry (2, 'b') ino 1003 != inode 3",
          'key': [2, 'b']}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 8}),
    "dentry_wrong_mode": (
        [{'invariant': 'coherence',
          'message': "mnode-1 dentry (1, 'c') mode 700 != inode mode 755",
          'key': [1, 'c']}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 7}),
    "detached_cycle": (
        [{'invariant': 'reachability',
          'message': "directory (888881, 'y') does not reach the root: its "
                     'parent chain loops',
          'key': [888881, 'y']},
         {'invariant': 'reachability',
          'message': "directory (888882, 'x') does not reach the root: its "
                     'parent chain loops',
          'key': [888882, 'x']}],
        {'inodes': 15, 'directories': 5, 'valid_replica_dentries': 9}),
    "duplicate_ino": (
        [{'invariant': 'identity',
          'message': 'inode number 6 appears twice',
          'key': [4, 'twin']}],
        {'inodes': 14, 'directories': 3, 'valid_replica_dentries': 7}),
    "misplaced_row": (
        [{'invariant': 'placement',
          'message': "inode (2, 'planted') placed on MNode 3 but indexing "
                     'says 2',
          'key': [2, 'planted']}],
        {'inodes': 14, 'directories': 3, 'valid_replica_dentries': 7}),
    "misplaced_while_migrating": (
        [],
        {'inodes': 14, 'directories': 3, 'valid_replica_dentries': 7}),
    "orphan": (
        [{'invariant': 'reachability',
          'message': "orphaned inode (777777, 'lost.dat'): parent ino 777777 "
                     'does not exist',
          'key': [777777, 'lost.dat']}],
        {'inodes': 14, 'directories': 3, 'valid_replica_dentries': 7}),
    "owner_dentry_missing": (
        [{'invariant': 'ownership',
          'message': "directory (2, 'b') missing VALID dentry at owner "
                     'mnode-1',
          'key': [2, 'b']}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 6}),
    "owner_dentry_missing_while_migrating": (
        [],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 6}),
    "same_key_everywhere": (
        [{'invariant': 'placement',
          'message': "duplicate inode record for (4, 'g1') on 0 and 1",
          'key': [4, 'g1']},
         {'invariant': 'placement',
          'message': "duplicate inode record for (4, 'g1') on 1 and 2",
          'key': [4, 'g1']},
         {'invariant': 'placement',
          'message': "duplicate inode record for (4, 'g1') on 2 and 3",
          'key': [4, 'g1']},
         {'invariant': 'placement',
          'message': "inode (4, 'g1') placed on MNode 3 but indexing says 1",
          'key': [4, 'g1']}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 7}),
    "same_key_twice": (
        [{'invariant': 'placement',
          'message': "duplicate inode record for (2, 'f0') on 2 and 3",
          'key': [2, 'f0']},
         {'invariant': 'placement',
          'message': "inode (2, 'f0') placed on MNode 3 but indexing says 2",
          'key': [2, 'f0']}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 7}),
    "skewed_counts": (
        [{'invariant': 'statistics',
          'message': 'mnode-0 filename counters diverge from its table',
          'node': 'mnode-0'}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 7}),
    "zero_count": (
        [{'invariant': 'statistics',
          'message': 'mnode-3 filename counters diverge from its table',
          'node': 'mnode-3'}],
        {'inodes': 13, 'directories': 3, 'valid_replica_dentries': 7}),
}


def _verdict(cluster):
    counts = {}
    violations = list(_audit(cluster, counts))
    return violations, counts


def test_a_clean_cluster_has_no_violations():
    cluster, _ = _cluster()
    assert cluster_violations(cluster) == []
    assert check_cluster_invariants(cluster) == {
        "inodes": 13, "directories": 3, "valid_replica_dentries": 7}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_each_corruption_reads_as_recorded(name):
    cluster, ino = _cluster()
    CORRUPTIONS[name](cluster, ino)
    violations, counts = EXPECTED[name]
    assert cluster_violations(cluster) == violations
    assert _verdict(cluster) == (violations, counts)
    if violations:
        with pytest.raises(InvariantViolation) as raised:
            check_cluster_invariants(cluster)
        assert str(raised.value) == violations[0]["message"]
    else:
        assert check_cluster_invariants(cluster) == counts
