"""Tests for primary-standby metadata replication (log shipping)."""

from dataclasses import FrozenInstanceError

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.records import INVALID
from repro.storage.replication import divergence


@pytest.fixture
def cluster():
    return FalconCluster(FalconConfig(num_mnodes=3, num_storage=2,
                                      replication=True))


def replication_divergence(cluster):
    """Per-MNode primary/standby differences; all empty once every
    standby has converged (drain in-flight shipments first)."""
    return {mnode.name: divergence(mnode, standby)
            for mnode, standby in zip(cluster.mnodes, cluster.standbys)
            if standby is not None}


def _drain(cluster):
    cluster.run_for(20000.0)


class TestConvergence:
    def test_mixed_workload_converges(self, cluster):
        fs = cluster.fs()
        fs.makedirs("/a/b")
        for i in range(24):
            fs.write("/a/b/f{:02d}".format(i), size=4096)
        for i in range(0, 24, 3):
            fs.unlink("/a/b/f{:02d}".format(i))
        fs.rename("/a/b/f01", "/a/b/renamed")
        fs.chmod("/a/b", 0o700)
        fs.chmod("/a/b/f02", 0o600)
        _drain(cluster)
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )

    def test_namespace_changes_converge(self, cluster):
        fs = cluster.fs()
        for i in range(8):
            fs.mkdir("/d{}".format(i))
        for i in range(0, 8, 2):
            fs.rmdir("/d{}".format(i))
        fs.rename("/d1", "/e1")
        _drain(cluster)
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )

    def test_concurrent_ops_converge(self, cluster):
        fs = cluster.fs()
        fs.mkdir("/shared")
        client = cluster.add_client(mode="libfs")
        env = cluster.env
        procs = [
            env.process(client.create("/shared/f{:03d}".format(i)))
            for i in range(60)
        ]
        env.run(until=env.all_of(procs))
        _drain(cluster)
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )

    def test_bulk_load_mirrored(self, cluster):
        from repro.workloads.trees import uniform_tree

        cluster.bulk_load(uniform_tree(levels=2, dir_fanout=3,
                                       files_per_leaf=4))
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )

    def test_rebalance_migration_converges(self):
        cluster = FalconCluster(FalconConfig(
            num_mnodes=4, num_storage=2, replication=True, epsilon=0.02,
        ))
        fs = cluster.fs()
        for d in range(30):
            fs.mkdir("/d{:02d}".format(d))
            fs.create("/d{:02d}/hot.dat".format(d))
        cluster.rebalance()
        _drain(cluster)
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )


class TestMechanics:
    def test_lsn_ordering_and_lag(self, cluster):
        fs = cluster.fs()
        fs.mkdir("/d")
        for i in range(10):
            fs.create("/d/f{}".format(i))
        _drain(cluster)
        for mnode, standby in zip(cluster.mnodes, cluster.standbys):
            if mnode.shipper.next_lsn > 1:
                assert standby.lag(mnode.shipper) == 0
                assert standby.applied_lsn == mnode.shipper.next_lsn - 1

    def test_shipping_is_asynchronous(self, cluster):
        """Commits do not wait for the standby: op latency with
        replication matches a replication-free cluster."""
        plain = FalconCluster(FalconConfig(num_mnodes=3, num_storage=2))
        t_plain = _timed_create(plain)
        t_replicated = _timed_create(cluster)
        assert t_replicated == pytest.approx(t_plain, rel=0.01)

    def test_out_of_order_application(self):
        """The standby buffers a gap and applies in LSN order."""
        from repro.core import FalconCluster as FC

        cluster = FC(FalconConfig(num_mnodes=1, num_storage=1,
                                  replication=True))
        standby = cluster.standbys[0]
        mnode = cluster.mnodes[0]

        def deliver(lsn, key, value):
            from repro.net.message import Message

            msg = Message(mnode.name, standby.name, "wal_ship",
                          {"lsn": lsn, "records": [("inode", key, value)]})
            standby.deliver(msg)

        from repro.core.records import InodeRecord

        deliver(2, (1, "b"), InodeRecord(ino=11))
        cluster.run_for(100.0)
        assert standby.applied_lsn == 0  # gap: nothing applied yet
        deliver(1, (1, "a"), InodeRecord(ino=10))
        cluster.run_for(100.0)
        assert standby.applied_lsn == 2
        assert standby.tables["inode"].get((1, "a")).ino == 10
        assert standby.tables["inode"].get((1, "b")).ino == 11

    def test_out_of_order_multi_gap(self):
        """Several missing LSNs: the reorder buffer holds everything and
        drains in one go when the gap closes."""
        from repro.core import FalconCluster as FC
        from repro.core.records import InodeRecord
        from repro.net.message import Message

        cluster = FC(FalconConfig(num_mnodes=1, num_storage=1,
                                  replication=True))
        standby = cluster.standbys[0]
        mnode = cluster.mnodes[0]

        def deliver(lsn, key, value):
            standby.deliver(Message(
                mnode.name, standby.name, "wal_ship",
                {"lsn": lsn, "records": [("inode", key, value)]},
            ))

        for lsn in (4, 2, 3):
            deliver(lsn, (1, "k{}".format(lsn)), InodeRecord(ino=lsn))
        cluster.run_for(100.0)
        assert standby.applied_lsn == 0
        assert sorted(standby._pending) == [2, 3, 4]
        deliver(1, (1, "k1"), InodeRecord(ino=1))
        cluster.run_for(100.0)
        assert standby.applied_lsn == 4
        assert standby._pending == {}
        for lsn in (1, 2, 3, 4):
            assert standby.tables["inode"].get((1, "k{}".format(lsn))).ino \
                == lsn

    def test_ack_bounds_retained_history(self, cluster):
        """Applied-LSN acks prune the shipper's history: retention is
        the in-flight window, not the whole run (regression for
        unbounded growth)."""
        fs = cluster.fs()
        fs.mkdir("/d")
        peak = 0
        for i in range(40):
            fs.create("/d/f{:03d}".format(i))
            peak = max(peak, max(len(m.shipper.history)
                                 for m in cluster.mnodes))
        # Ship -> apply -> ack is a few RPC hops; the synchronous facade
        # runs the loop between ops, so the unacked window stays tiny
        # even though 40+ transactions shipped.
        assert peak < 10
        _drain(cluster)
        for mnode in cluster.mnodes:
            if mnode.shipper.next_lsn > 1:
                assert len(mnode.shipper.history) == 0
                assert mnode.shipper.acked_lsn == mnode.shipper.next_lsn - 1

    def test_divergence_tombstone_vs_missing(self):
        """A key deleted on the primary whose tombstone the standby
        applied (now absent) — or that the standby never saw at all —
        compares equal: both sides agree the key does not exist."""
        from repro.core import FalconCluster as FC
        from repro.core.records import InodeRecord
        from repro.storage.replication import divergence

        cluster = FC(FalconConfig(num_mnodes=1, num_storage=1,
                                  replication=True))
        mnode = cluster.mnodes[0]
        standby = cluster.standbys[0]
        # Tombstone applied: standby saw the put and the delete.
        standby.tables["inode"].put((1, "gone"), InodeRecord(ino=9))
        standby.tables["inode"].delete((1, "gone"))
        # Never-seen: primary created and deleted entirely within the
        # lost window; the standby has no trace.  Either way the key is
        # missing on both sides now.
        assert divergence(mnode, standby) == []

    def test_applying_shipments_builds_no_table(self, monkeypatch):
        """A standby applying records to tables it already has builds
        no :class:`Table` (nor its B-link tree) per record, and
        ``divergence`` reads a table the standby lacks as empty."""
        from repro.core.records import DentryRecord, InodeRecord
        from repro.net.message import Message
        from repro.storage.replication import divergence
        from repro.storage.table import Table

        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1,
                                             replication=True))
        standby = cluster.standbys[0]
        mnode = cluster.mnodes[0]
        built = []
        init = Table.__init__

        def counted_init(self, name, *args, **kwargs):
            built.append(name)
            init(self, name, *args, **kwargs)

        monkeypatch.setattr(Table, "__init__", counted_init)
        for lsn in range(1, 6):
            key = (1, "d{}".format(lsn))
            standby.deliver(Message(
                mnode.name, standby.name, "wal_ship",
                {"lsn": lsn, "records": [
                    ("inode", key, InodeRecord(ino=lsn, is_dir=True)),
                    ("dentry", key, DentryRecord(ino=lsn))]}))
        cluster.run_for(100.0)
        assert standby.applied_lsn == 5
        assert len(standby.tables["inode"]) == 5
        del standby.tables["dentry"]
        assert [(name, key) for name, key, _, _ in divergence(
            mnode, standby)] == [("inode", (1, "d{}".format(lsn)))
                                 for lsn in range(1, 6)]
        assert built == []

    def test_standby_rows_never_change_under_it(self, cluster):
        """The standby holds the primary's inode rows themselves, and
        they are immutable: a later write at the primary stores a new
        row and ships it; the row the standby holds never changes."""
        fs = cluster.fs()
        fs.create("/f")
        _drain(cluster)
        owner = cluster.coordinator.index.locate(1, "f")
        primary = cluster.mnodes[owner].inodes.get((1, "f"))
        replica = cluster.standbys[owner].tables["inode"].get((1, "f"))
        assert replica == primary
        with pytest.raises(FrozenInstanceError):
            replica.mode = 0o600
        fs.chmod("/f", 0o600)
        _drain(cluster)
        assert replica.mode == 0o644
        standby_row = cluster.standbys[owner].tables["inode"].get((1, "f"))
        assert standby_row.mode == 0o600

    def test_promote_tables_invalidates_dentries(self, cluster):
        fs = cluster.fs()
        fs.mkdir("/d")
        _drain(cluster)
        owner = cluster.coordinator.index.locate(1, "d")
        standby = cluster.standbys[owner]
        tables = standby.promote_tables()
        record = tables["dentry"].get((1, "d"))
        assert record is not None and record.state == INVALID

    def test_divergence_detects_planted_gap(self, cluster):
        fs = cluster.fs()
        fs.create("/f")
        _drain(cluster)
        owner = cluster.coordinator.index.locate(1, "f")
        cluster.standbys[owner].tables["inode"].delete((1, "f"))
        diffs = replication_divergence(cluster)
        assert diffs[cluster.mnodes[owner].name]


def _timed_create(cluster):
    fs = cluster.fs(mode="libfs")
    fs.mkdir("/t")
    env = cluster.env
    start = env.now
    fs.create("/t/probe")
    return env.now - start
