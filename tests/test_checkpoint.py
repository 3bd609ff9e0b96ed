"""Checkpoints bound the metadata log: a base record at each WAL segment
rotation, the log retired below it, and redo as base plus suffix.

Segments are shrunk (``costs.wal_segment_bytes``) so that a few dozen
creates rotate the log several times; at the default 1 MiB nothing in
these scenarios would ever checkpoint.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.faults import FaultInjector
from repro.net.costs import CostModel
from repro.sim import Environment
from repro.storage import WriteAheadLog
from repro.storage.consensus import log_matching_violations, term_positions
from tests.test_replication import replication_divergence

#: Ten one-row records per segment.
SEGMENT_BYTES = 1600


def _cluster(**overrides):
    kwargs = dict(num_mnodes=1, num_storage=1)
    kwargs.update(overrides)
    return FalconCluster(FalconConfig(**kwargs),
                         costs=CostModel(wal_segment_bytes=SEGMENT_BYTES))


def _restart(cluster, index):
    return cluster.run_process(cluster.restart_mnode(index))


def _create_all(fs, paths, wal):
    """Create ``paths`` one at a time; returns the distinct horizons the
    WAL's base took along the way."""
    horizons = set()
    for path in paths:
        fs.create(path)
        horizons.add(wal.horizon)
    horizons.discard(0)
    return horizons


class TestWal:
    def _log(self, count):
        env, costs = Environment(), CostModel(wal_segment_bytes=SEGMENT_BYTES)
        wal = WriteAheadLog(env, costs)

        def committer():
            for i in range(count):
                yield wal.commit(160, payload=[("inode", (1, i), i)])

        env.run(until=env.process(committer()))
        return wal

    def test_a_plain_log_never_checkpoints(self):
        wal = self._log(40)
        assert len(wal.segments) == 4
        assert wal.base is None and wal.first_lsn == 1
        entries, torn = wal.replay()
        assert [lsn for lsn, _, _ in entries] == list(range(1, 41))
        assert torn == 0

    def test_retire_keeps_every_record_above_the_base(self):
        wal = self._log(40)
        wal.checkpoint(25, {"inode": ([], [])})
        # Segments hold LSNs 1-10, 11-20, 21-30, 31-40: two go.
        assert wal.first_lsn == 21
        entries, _ = wal.replay()
        assert [lsn for lsn, _, _ in entries] == list(range(26, 41))
        assert [key for records in wal.payloads_since(25)
                for _, key, _ in records] == [(1, i) for i in range(25, 40)]

    def test_payloads_since_refuses_a_retired_start(self):
        wal = self._log(40)
        wal.checkpoint(25, {"inode": ([], [])})
        assert len(wal.payloads_since(20)) == 20
        with pytest.raises(ValueError):
            wal.payloads_since(19)

    def test_a_base_covers_only_durable_records(self):
        wal = self._log(5)
        with pytest.raises(ValueError):
            wal.checkpoint(6, {"inode": ([], [])})


class TestRestart:
    @pytest.mark.parametrize("replication", [False, True])
    def test_every_acked_create_survives_redo_from_a_base(self, replication):
        cluster = _cluster(replication=replication)
        fs = cluster.fs()
        fs.mkdir("/d")
        wal = cluster.mnodes[0].wal
        paths = ["/d/f{}".format(i) for i in range(60)]
        assert len(_create_all(fs, paths, wal)) >= 3
        cluster.run_for(5000.0)
        durable, horizon = wal.durable_lsn, wal.horizon
        assert wal.first_lsn > 1
        cluster.crash_mnode(0)
        record = _restart(cluster, 0)
        assert record["role"] == "primary"
        # Redo replays the suffix above the base, nothing below it.
        assert record["replayed_txns"] == durable - horizon
        assert record["replayed_txns"] < len(paths)
        assert all(fs.exists(path) for path in paths)
        # The rebuilt log is base plus suffix, and restartable again.
        node = cluster.mnodes[0]
        assert node.wal.horizon == horizon
        fs.create("/d/after")
        cluster.run_for(5000.0)
        cluster.crash_mnode(0)
        _restart(cluster, 0)
        assert all(fs.exists(path) for path in paths + ["/d/after"])

    def test_a_lagging_standby_holds_the_base_back(self):
        """An async standby that applied nothing since the mkdir pins
        the base: the records it lacks stay in the log, and the
        restarted primary re-ships them."""
        cluster = _cluster(replication=True)
        fs = cluster.fs()
        fs.mkdir("/d")
        cluster.run_for(2000.0)
        node, standby = cluster.mnodes[0], cluster.standbys[0]
        cluster.network.set_down(standby.name)
        paths = ["/d/f{}".format(i) for i in range(60)]
        _create_all(fs, paths, node.wal)
        assert len(node.wal.segments) >= 4
        assert node.wal.first_lsn == 1
        cluster.crash_mnode(0)
        cluster.network.set_up(standby.name)
        _restart(cluster, 0)
        cluster.run_for(20000.0)
        assert replication_divergence(cluster) == {node.name: []}
        pid = standby.tables["inode"].get((1, "d")).ino
        assert all(standby.tables["inode"].get((pid, path[3:])) is not None
                   for path in paths)

    def test_a_commit_held_by_a_hang_survives_a_checkpoint(self):
        """A create whose fsync completes while its node hangs is
        durable but not applied: the checkpoint stops below it, and the
        crash that follows replays it."""
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/d")
        _create_all(fs, ["/d/f{}".format(i) for i in range(35)],
                    cluster.mnodes[0].wal)
        node = cluster.mnodes[0]
        client = cluster.add_client(mode="libfs")
        cluster.env.process(client.create("/d/held"))
        lsn = node.wal.next_lsn
        while node.wal.next_lsn == lsn:
            cluster.run_for(1.0)
        cluster.network.set_down(node.name)  # the hang
        cluster.run_for(500.0)
        assert node.wal.durable_lsn >= lsn and lsn in node._unapplied
        node.checkpoint()
        assert node.wal.horizon == lsn - 1
        assert node.wal.first_lsn > 1
        cluster.crash_mnode(0)
        _restart(cluster, 0)
        pid = cluster.mnodes[0].inodes.get((1, "d")).ino
        assert cluster.mnodes[0].inodes.get((pid, "held")) is not None


class TestConsensus:
    def test_a_follower_below_the_trimmed_base_resyncs(self):
        cluster = _cluster(replication=True, consensus=True,
                           rpc_timeout_us=400.0, seed=0)
        fs = cluster.fs()
        fs.mkdir("/d")
        leader, follower = cluster.mnodes[0], cluster.standbys[0]
        witness = cluster.witnesses[0]
        cluster.network.set_down(follower.name)
        paths = ["/d/f{}".format(i) for i in range(50)]
        assert len(_create_all(fs, paths, leader.wal)) >= 2
        log = leader.shipper
        assert log.base_lsn > follower._last_lsn()
        assert len(log.entries) < len(paths)
        cluster.network.set_up(follower.name)
        fs.create("/d/last")
        cluster.run_for(20000.0)
        assert follower.base_lsn >= log.base_lsn
        assert follower._last_lsn() == log.last_lsn
        assert replication_divergence(cluster) == {leader.name: []}
        assert log_matching_violations([
            ("leader", term_positions(log)),
            (follower.name, term_positions(follower)),
            (witness.name, term_positions(witness))]) == []


class TestSlotHandoff:
    def test_a_handoff_across_rotations_ships_every_row(self):
        """Creates committed between the snapshot and the fence rotate
        the source's log several times; the handoff's ``since`` holds
        every checkpoint below it, so the fence's delta is whole."""
        cluster = _cluster(num_mnodes=2, num_slots=4)
        fs = cluster.fs()
        fs.mkdir("/d")
        pid = fs.getattr("/d")["ino"]
        index = cluster.coordinator.index
        names = [name for name in ("f{}".format(i) for i in range(400))
                 if index.locate(pid, name) == 0]
        early, late = names[:5], names[5:45]
        for name in early:
            fs.create("/d/" + name)
        src = cluster.mnodes[0]
        coordinator = cluster.coordinator
        original = coordinator._slot_call
        seen = {}

        def slot_call(node_index, kind, payload, attempts=1):
            reply = yield from original(node_index, kind, payload, attempts)
            if kind == "slot_snapshot":
                seen["since"] = reply["since"]
                client = cluster.add_client(mode="libfs")
                for name in late:
                    yield from client.create("/d/" + name)
                seen["horizon"] = src.wal.horizon
            return reply

        coordinator._slot_call = slot_call
        record = cluster.run_process(coordinator.migrate_slot(0, 1))
        assert record["status"] == "committed"
        assert 0 < seen["horizon"] <= seen["since"]
        assert record["delta_txns"] >= len(late)
        dest = cluster.mnodes[1]
        assert all(dest.inodes.get((pid, name)) is not None
                   for name in early + late)
        assert all(fs.exists("/d/" + name) for name in early + late)


class TestBulkLoad:
    """A bulk load bypasses the protocol, so no record carries its rows:
    each MNode's log gets one base record holding them instead."""

    @pytest.fixture
    def loaded(self):
        from repro.workloads.trees import uniform_tree

        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1))
        tree = uniform_tree(levels=2, dir_fanout=3, files_per_leaf=4)
        cluster.bulk_load(tree)
        return cluster, tree

    def test_a_bulk_load_writes_a_base_image(self, loaded):
        cluster, tree = loaded
        loaded_rows = 0
        for mnode in cluster.mnodes:
            wal = mnode.wal
            assert [segment.records for segment in wal.segments] == [[]]
            assert wal.appended_txns == 0 and wal.horizon == 0
            for table in (mnode.inodes, mnode.dentries):
                keys, rows = wal.base.payload[table.name]
                assert list(zip(keys, rows)) == list(table.scan())
            loaded_rows += len(wal.base.payload["inode"][0])
        assert loaded_rows == tree.num_dirs + tree.num_files

    def test_redo_right_after_the_load_restores_every_row(self, loaded):
        cluster, tree = loaded
        for index in range(len(cluster.mnodes)):
            inodes = list(cluster.mnodes[index].inodes.scan())
            cluster.crash_mnode(index)
            record = _restart(cluster, index)
            assert record["replayed_txns"] == 0
            assert list(cluster.mnodes[index].inodes.scan()) == inodes
        cluster.verify()
        fs = cluster.fs()
        assert all(fs.exists(path) for path in tree.file_paths())


class TestCorruptWal:
    def test_the_draw_comes_from_the_retained_records(self):
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/d")
        wal = cluster.mnodes[0].wal
        _create_all(fs, ["/d/f{}".format(i) for i in range(40)], wal)
        injector = FaultInjector(cluster)
        for seed in range(20):
            injector.apply({"kind": "corrupt_wal", "index": 0,
                            "rng_seed": seed,
                            "at_us": cluster.env.now + 1.0})
        cluster.run_for(10.0)
        lsns = [e["lsn"] for e in injector.events
                if e["kind"] == "corrupt_wal"]
        assert len(lsns) == 20
        assert all(wal.first_lsn <= lsn <= wal.durable_lsn for lsn in lsns)

    @pytest.mark.parametrize("past", [False, True])
    def test_a_target_no_record_holds_is_a_logged_noop(self, past):
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/d")
        wal = cluster.mnodes[0].wal
        _create_all(fs, ["/d/f{}".format(i) for i in range(40)], wal)
        assert wal.first_lsn > 1
        target = wal.durable_lsn + 5 if past else 1
        injector = FaultInjector(cluster)
        injector.apply({"kind": "corrupt_wal", "index": 0, "lsn": target,
                        "at_us": cluster.env.now + 1.0})
        cluster.run_for(10.0)
        assert [e["kind"] for e in injector.events] == ["corrupt_wal_noop"]
        assert all(record.intact for segment in wal.segments
                   for record in segment.records)


def test_a_stored_inode_row_cannot_be_assigned():
    cluster = _cluster()
    fs = cluster.fs()
    fs.create("/f")
    row = cluster.mnodes[0].inodes.get((1, "f"))
    with pytest.raises(FrozenInstanceError):
        row.size = 4096
    fs.write("/f", size=4096, exclusive=False)
    assert row.size == 0
    assert cluster.mnodes[0].inodes.get((1, "f")).size == 4096
