"""Regression tests for standby/follower snapshot catch-up idempotency.

Shrunken from a checker reproducer: a rejoining standby facing a
primary that had shipped nothing (snapshot LSN equal to the standby's
applied horizon — both zero) *refused* the snapshot under the old
``<=`` staleness guard and never installed the primary's bulk-loaded
tables, diverging forever.  The guard must refuse only snapshots
strictly *below* the applied horizon (those would rewind state); one
exactly at the horizon is the same state and must install.  The same
rule holds for duplicated and overlapping snapshot+delta deliveries.
"""

from repro.core import FalconCluster, FalconConfig
from repro.core.records import InodeRecord
from repro.net.message import Message
from repro.storage.replication import divergence


def _replicated(**overrides):
    kwargs = dict(num_mnodes=1, num_storage=1, replication=True, seed=0)
    kwargs.update(overrides)
    return FalconCluster(FalconConfig(**kwargs))


class TestSnapshotGuard:
    def test_equal_lsn_snapshot_installs(self):
        """The shrunken reproducer: primary holds table state that never
        went through the shipper (bulk load / preload), so its snapshot
        LSN equals the fresh standby's applied LSN (zero).  The install
        must happen — refusing it loses the whole table image."""
        cluster = _replicated()
        mnode = cluster.mnodes[0]
        standby = cluster.standbys[0]
        mnode.inodes.put((1, "seeded"), InodeRecord(ino=99))
        assert mnode.shipper.next_lsn == 1  # nothing ever shipped
        assert standby.applied_lsn == 0

        installed = cluster.run_process(standby.catch_up(mnode.name))
        assert installed > 0
        assert standby.tables["inode"].get((1, "seeded")).ino == 99
        assert divergence(mnode, standby) == []

    def test_duplicate_snapshot_is_idempotent(self):
        """A second delivery of the same snapshot reinstalls identical
        state: applied LSN and tables end up unchanged."""
        cluster = _replicated()
        fs = cluster.fs()
        fs.mkdir("/d")
        for i in range(4):
            fs.create("/d/f{}".format(i))
        cluster.run_for(10000.0)
        mnode = cluster.mnodes[0]
        standby = cluster.standbys[0]
        before = standby.applied_lsn
        assert before > 0

        cluster.run_process(standby.catch_up(mnode.name))
        assert standby.applied_lsn == before
        assert divergence(mnode, standby) == []
        cluster.run_process(standby.catch_up(mnode.name))
        assert standby.applied_lsn == before
        assert divergence(mnode, standby) == []

    def test_stale_snapshot_is_refused(self):
        """A snapshot strictly below the applied horizon must not rewind
        the standby (it would resurrect records the primary already
        pruned past)."""
        cluster = _replicated()
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        cluster.run_for(10000.0)
        mnode = cluster.mnodes[0]
        standby = cluster.standbys[0]
        horizon = standby.applied_lsn
        assert horizon > 0
        # Fast-forward the standby past the primary's snapshot point.
        standby.applied_lsn = horizon + 5
        standby.tables["inode"].put((9, "ahead"), InodeRecord(ino=7))

        installed = cluster.run_process(standby.catch_up(mnode.name))
        assert installed == 0
        assert standby.applied_lsn == horizon + 5
        assert standby.tables["inode"].get((9, "ahead")).ino == 7

    def test_delta_after_snapshot_does_not_double_apply(self):
        """Overlapping delivery: a shipped delta at or below the
        snapshot LSN re-arrives after the install and must be ignored,
        not re-applied (the snapshot already contains it)."""
        cluster = _replicated()
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        cluster.run_for(10000.0)
        mnode = cluster.mnodes[0]
        standby = cluster.standbys[0]
        horizon = standby.applied_lsn
        assert horizon >= 2
        # Replay an old delta that deletes a key the snapshot holds.
        stale = Message(mnode.name, standby.name, "wal_ship", {
            "lsn": 1, "records": [("inode", (1, "d"), None)],
        })
        standby.deliver(stale)
        cluster.run_for(1000.0)
        assert standby.applied_lsn == horizon
        assert divergence(mnode, standby) == []


class TestConsensusFollowerGuard:
    def test_equal_lsn_snapshot_installs(self):
        """Same reproducer, consensus flavor: a group's data follower
        must install a snapshot at exactly its applied horizon."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=1, num_storage=1, replication=True,
            consensus=True, seed=0))
        mnode = cluster.mnodes[0]
        follower = cluster.standbys[0]
        mnode.inodes.put((1, "seeded"), InodeRecord(ino=42))
        assert follower.applied_lsn == 0

        installed = cluster.run_process(follower.catch_up(mnode.name))
        assert installed > 0
        assert follower.tables["inode"].get((1, "seeded")).ino == 42
        assert follower.base_lsn == follower.applied_lsn

    def test_stale_snapshot_is_refused(self):
        cluster = FalconCluster(FalconConfig(
            num_mnodes=1, num_storage=1, replication=True,
            consensus=True, seed=0))
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        cluster.run_for(10000.0)
        mnode = cluster.mnodes[0]
        follower = cluster.standbys[0]
        horizon = follower.applied_lsn
        assert horizon > 0
        follower.applied_lsn = horizon + 3

        installed = cluster.run_process(follower.catch_up(mnode.name))
        assert installed == 0
        assert follower.applied_lsn == horizon + 3
