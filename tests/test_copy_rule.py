"""The copy rule: rows cross nodes and enter logs as the tables store
them, and only a node that *stores* a received row mutated in place (a
dentry, a meta dict) copies it.  So invalidating a stored dentry can
never reach into another node's table or into a log that already holds
the row; inode rows are immutable and shared as they are.
"""

from itertools import count

from repro.core import FalconCluster, FalconConfig
from repro.core.records import INVALID, VALID
from repro.vfs.attrs import ROOT_INO


def _logged_dentries(mnode, key):
    """Every dentry row ``mnode``'s WAL segments hold for ``key``."""
    return [value for segment in mnode.wal.segments
            for record in segment.records
            for table, logged_key, value in record.payload or ()
            if table == "dentry" and logged_key == key
            and value is not None]


def test_a_handed_off_dentry_is_the_destinations_own():
    """A directory made between a slot's snapshot and its fence reaches
    the destination in the fence's delta — the row the source logged.
    Invalidating the destination's dentry leaves that row VALID."""
    cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1,
                                         num_slots=4))
    coordinator = cluster.coordinator
    name = next(name for name in map("d{}".format, count())
                if coordinator.index.locate(ROOT_INO, name) == 0)
    source = cluster.mnodes[cluster.shared.slot_map.node_of(0)]
    dest_index = 1 - source.my_index
    original = coordinator._slot_call

    def slot_call(node_index, kind, payload, attempts=1):
        reply = yield from original(node_index, kind, payload, attempts)
        if kind == "slot_snapshot":
            client = cluster.add_client(mode="libfs")
            yield from client.mkdir("/" + name)
        return reply

    coordinator._slot_call = slot_call
    record = cluster.run_process(coordinator.migrate_slot(0, dest_index))
    assert record["status"] == "committed" and record["delta_txns"] >= 1
    key = (ROOT_INO, name)
    logged = _logged_dentries(source, key)
    assert logged
    cluster.mnodes[dest_index].dentries.get(key).state = INVALID
    assert [row.state for row in logged] == [VALID] * len(logged)


def test_promotion_leaves_the_old_primarys_logged_dentries_valid():
    """Log shipping sends the WAL's own record list; promote_tables
    then marks every standby dentry INVALID in place."""
    cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=2,
                                         replication=True))
    cluster.fs().mkdir("/d")
    cluster.run_for(20000.0)
    owner = cluster.coordinator.index.locate(ROOT_INO, "d")
    standby = cluster.standbys[owner]
    tables = standby.promote_tables()
    assert tables["dentry"].get((ROOT_INO, "d")).state == INVALID
    logged = _logged_dentries(cluster.mnodes[owner], (ROOT_INO, "d"))
    assert logged
    assert [row.state for row in logged] == [VALID] * len(logged)


def test_each_eager_mkdir_participant_stores_its_own_dentry():
    """The owner sends one DentryRecord to every participant; each
    stores a copy of its own."""
    cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                         eager_replication=True))
    cluster.fs().mkdir("/e")
    rows = [mnode.dentries.get((ROOT_INO, "e")) for mnode in cluster.mnodes]
    assert all(row is not None and row.state == VALID for row in rows)
    assert len({id(row) for row in rows}) == len(rows)
