"""Tests for concurrent request merging (§4.4) and its ablations."""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.merging import WorkerPool
from repro.core.records import DentryRecord
from repro.sim import Environment


def _concurrent_creates(cluster, client, count, directory="/d"):
    env = cluster.env
    procs = [
        env.process(client.create("{}/f{:04d}".format(directory, i)))
        for i in range(count)
    ]
    env.run(until=env.all_of(procs))


class TestWorkerPool:
    def test_batches_accumulate_under_load(self):
        env = Environment()
        executed = []

        def executor(kind, batch):
            executed.append(len(batch))
            yield env.timeout(50.0)

        pool = WorkerPool(env, executor, workers=1, max_batch=32)
        for i in range(10):
            pool.submit("op", i)
        env.run()
        assert sum(executed) == 10
        assert max(executed) > 1  # later submissions merged

    def test_max_batch_respected(self):
        env = Environment()
        executed = []

        def executor(kind, batch):
            executed.append(len(batch))
            yield env.timeout(10.0)

        pool = WorkerPool(env, executor, workers=1, max_batch=4)
        for i in range(12):
            pool.submit("op", i)
        env.run()
        assert all(size <= 4 for size in executed)

    def test_no_merge_batches_of_one(self):
        env = Environment()
        executed = []

        def executor(kind, batch):
            executed.append(len(batch))
            yield env.timeout(1.0)

        pool = WorkerPool(env, executor, workers=2, max_batch=32,
                          merging=False)
        for i in range(8):
            pool.submit("op", i)
        env.run()
        assert executed == [1] * 8

    def test_kinds_not_mixed(self):
        env = Environment()
        executed = []

        def executor(kind, batch):
            executed.append((kind, len(batch)))
            yield env.timeout(10.0)

        pool = WorkerPool(env, executor, workers=1, max_batch=32)
        for i in range(4):
            pool.submit("a", i)
            pool.submit("b", i)
        env.run()
        assert sum(n for k, n in executed if k == "a") == 4
        assert sum(n for k, n in executed if k == "b") == 4

    def test_average_batch_size(self):
        env = Environment()

        def executor(kind, batch):
            yield env.timeout(10.0)

        pool = WorkerPool(env, executor, workers=1, max_batch=32)
        assert pool.average_batch_size == 0.0
        for i in range(6):
            pool.submit("op", i)
        env.run()
        assert pool.average_batch_size > 1.0


class TestMergingOnCluster:
    def test_batches_form_under_concurrency(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=2))
        fs = cluster.fs(mode="libfs")
        fs.mkdir("/d")
        _concurrent_creates(cluster, cluster.clients[0], 64)
        sizes = [
            mnode.pool.average_batch_size for mnode in cluster.mnodes
        ]
        assert max(sizes) > 1.5

    def test_wal_coalescing(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=2))
        fs = cluster.fs(mode="libfs")
        fs.mkdir("/d")
        _concurrent_creates(cluster, cluster.clients[0], 64)
        ratios = [
            mnode.wal.records_per_flush for mnode in cluster.mnodes
            if mnode.wal.flush_count
        ]
        assert max(ratios) > 1.5

    def test_merging_disabled_executes_singly(self):
        cluster = FalconCluster(
            FalconConfig(num_mnodes=2, num_storage=2, merging=False)
        )
        fs = cluster.fs(mode="libfs")
        fs.mkdir("/d")
        _concurrent_creates(cluster, cluster.clients[0], 32)
        for mnode in cluster.mnodes:
            if mnode.pool.batches_executed:
                assert mnode.pool.average_batch_size == 1.0

    def test_merging_faster_than_no_merging(self):
        def run(merging):
            cluster = FalconCluster(FalconConfig(
                num_mnodes=2, num_storage=2, merging=merging,
            ))
            fs = cluster.fs(mode="libfs")
            fs.mkdir("/d")
            start = cluster.env.now
            _concurrent_creates(cluster, cluster.clients[0], 128)
            return cluster.env.now - start

        assert run(True) < run(False)

    def test_batch_semantics_match_serial(self):
        """A batch containing duplicate creates yields exactly one
        success and one EEXIST, like serial execution would."""
        from repro.net.rpc import RpcError, RpcFailure

        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        fs = cluster.fs(mode="libfs")
        fs.mkdir("/d")
        client = cluster.clients[0]
        env = cluster.env
        outcomes = []

        def creator():
            try:
                yield from client.create("/d/same")
                outcomes.append("ok")
            except RpcFailure as failure:
                outcomes.append(RpcError.name(failure.code))

        procs = [env.process(creator()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        assert sorted(outcomes) == ["EEXIST", "EEXIST", "EEXIST", "ok"]


class TestEagerReplicationAblation:
    def test_eager_mkdir_replicates_everywhere(self):
        cluster = FalconCluster(FalconConfig(
            num_mnodes=4, num_storage=2, eager_replication=True,
        ))
        fs = cluster.fs(mode="libfs")
        fs.mkdir("/eager")
        holders = [
            mnode for mnode in cluster.mnodes
            if mnode.dentries.get((1, "eager")) is not None
        ]
        assert len(holders) == 4

    def test_eager_mkdir_still_correct(self):
        cluster = FalconCluster(FalconConfig(
            num_mnodes=4, num_storage=2, eager_replication=True,
        ))
        fs = cluster.fs(mode="libfs")
        fs.makedirs("/a/b")
        fs.create("/a/b/f")
        assert fs.exists("/a/b/f")
        from repro.net.rpc import RpcFailure

        with pytest.raises(RpcFailure):
            fs.mkdir("/a")

    @staticmethod
    def _decide(cluster, target, kind, payload):
        def call():
            reply = yield cluster.coordinator.call(target, kind, payload)
            return reply
        return cluster.run_process(call())

    def test_decision_without_a_staged_half_answers_ok(self):
        """A participant that restarted between its vote and the
        decision holds no staged half; commit and abort still answer."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=4, num_storage=2, eager_replication=True,
        ))
        for kind in ("replica_commit", "replica_abort"):
            reply = self._decide(cluster, "mnode-1", kind,
                                 {"txid": "mkdir-x"})
            assert reply == {"ok": True}
        assert cluster.mnodes[1].dentries.get((1, "x")) is None

    def test_prepare_stages_an_open_write_until_the_decision(self):
        """Every staged 2PC half is a list of entries that each hold an
        open write; the write keeps the key's lock pair until decided."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=4, num_storage=2, eager_replication=True,
        ))
        participant = cluster.mnodes[1]
        record = DentryRecord(ino=99, mode=0o755)
        for txid, decision in (("mkdir-a", "replica_abort"),
                               ("mkdir-c", "replica_commit")):
            self._decide(cluster, participant.name, "replica_prepare",
                         {"txid": txid, "key": (1, txid), "record": record})
            (entry,) = participant._staged[txid]
            assert entry["write"].grants
            assert participant.locks.holders(("d", 1, txid)) == ["X"]
            self._decide(cluster, participant.name, decision,
                         {"txid": txid})
            assert participant._staged == {}
            assert not participant.locks.is_locked(("d", 1, txid))
        assert participant.dentries.get((1, "mkdir-a")) is None
        assert participant.dentries.get((1, "mkdir-c")).ino == 99

    def test_eager_mkdir_slower_than_lazy(self):
        def run(eager):
            cluster = FalconCluster(FalconConfig(
                num_mnodes=4, num_storage=2, eager_replication=eager,
            ))
            fs = cluster.fs(mode="libfs")
            fs.mkdir("/root-dir")
            start = cluster.env.now
            env = cluster.env
            client = cluster.clients[0]
            procs = [
                env.process(client.mkdir("/root-dir/d{:03d}".format(i)))
                for i in range(64)
            ]
            env.run(until=env.all_of(procs))
            return env.now - start

        assert run(False) < run(True)
