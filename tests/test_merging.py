"""Tests for concurrent request merging (§4.4) and its ablations."""

import gc

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.merging import WorkerPool
from repro.core.records import DentryRecord
from repro.net.rpc import RpcError
from repro.sim import Environment
from repro.storage import LockMode
from repro.storage.consensus import LEASE_US
from repro.vfs.attrs import ROOT_INO


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


class TestWorkerFreedAtAppend:
    """A merged write batch holds its worker until its WAL append; the
    wait for durability, the lock release and the answers run in the
    batch's tail.  Each cluster has one MNode with one core, so one
    worker serves every queue."""

    @staticmethod
    def _one_core(*files, **config):
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1,
                                             server_cores=1, **config))
        fs = cluster.fs(mode="libfs")
        fs.mkdir("/d")
        for path in files:
            fs.create(path)
        return cluster, cluster.mnodes[0]

    @staticmethod
    def _watch_appends(owner):
        """One entry per WAL append: when it was made and when its
        flush became durable (None until then)."""
        env, wal, appends = owner.env, owner.wal, []
        real_commit = wal.commit

        def commit(nbytes, records=1, ctx=None, payload=None):
            entry = {"at": env.now, "records": records, "durable": None}
            done = real_commit(nbytes, records, ctx, payload)
            done.callbacks.append(
                lambda _event: entry.update(durable=env.now))
            appends.append(entry)
            return done

        wal.commit = commit
        return appends

    @staticmethod
    def _timed_call(cluster, owner, answered, name, kind, path):
        def call():
            reply = yield cluster.coordinator.call(owner.name, kind,
                                                   {"path": path})
            answered[name] = (cluster.env.now, reply)
        cluster.env.process(call())

    def test_the_worker_takes_a_second_batch_while_the_first_flushes(self):
        cluster, owner = self._one_core()
        appends = self._watch_appends(owner)
        batches = owner.pool.batches_executed
        answered = {}
        self._timed_call(cluster, owner, answered, "a", "create", "/d/a")
        cluster.run_for(20.0)
        self._timed_call(cluster, owner, answered, "b", "create", "/d/b")
        cluster.run_for(1000.0)
        assert owner.pool.batches_executed == batches + 2
        first, second = appends
        assert second["at"] < first["durable"]
        assert answered["a"][1]["ok"] and answered["b"][1]["ok"]

    def test_a_getattr_waits_only_for_the_key_being_flushed(self):
        cluster, owner = self._one_core("/d/other")
        appends = self._watch_appends(owner)
        answered = {}
        self._timed_call(cluster, owner, answered, "create", "create",
                         "/d/a")
        cluster.run_for(20.0)
        self._timed_call(cluster, owner, answered, "other", "getattr",
                         "/d/other")
        cluster.run_for(25.0)
        self._timed_call(cluster, owner, answered, "same", "getattr",
                         "/d/a")
        cluster.run_for(1000.0)
        (flush,) = appends
        assert answered["other"][0] < flush["durable"]
        # Planned, dispatched and locked long before the flush ended:
        # only the create's X lock, released once durable, held it.
        assert answered["same"][0] > flush["durable"]
        assert answered["same"][1]["ok"]

    def test_a_power_fail_mid_flush_answers_none_of_the_batch(self):
        cluster, owner = self._one_core()
        appends = self._watch_appends(owner)
        answered = []
        owner.respond = lambda message, *args: answered.append(message)
        owner.respond_error = lambda message, *args: answered.append(
            message)
        replies = [cluster.coordinator.call(owner.name, "create",
                                            {"path": "/d/f{}".format(i)})
                   for i in range(3)]
        cluster.run_for(40.0)
        (flush,) = appends
        assert flush["records"] == 3 and flush["durable"] is None
        cluster.crash_mnode(0)
        cluster.run_for(5000.0)
        assert answered == []
        assert not any(reply.triggered for reply in replies)
        # Nor did the parked tail apply a row or move the name index.
        d_ino = owner.dentries.get((ROOT_INO, "d")).ino
        assert flush["durable"] is None
        assert all(owner.inodes.get((d_ino, "f{}".format(i))) is None
                   for i in range(3))
        assert "f0" not in owner.filename_counts

    def test_a_crashed_node_keeps_its_grants_when_its_tail_is_collected(
            self):
        """A crash mid-flush parks the batch's tail for good.  When the
        cycle collector closes that tail, the dead incarnation's write
        keeps its grants, as a retired one's does: a release would wake
        the dead node's other processes, here a getattr queued on the
        created key's lock."""
        cluster, owner = self._one_core()
        appends = self._watch_appends(owner)
        answered = {}
        self._timed_call(cluster, owner, answered, "create", "create",
                         "/d/a")
        cluster.run_for(20.0)
        self._timed_call(cluster, owner, answered, "same", "getattr",
                         "/d/a")
        cluster.run_for(25.0)
        (flush,) = appends
        assert flush["durable"] is None
        d_ino = owner.dentries.get((ROOT_INO, "d")).ino
        key = ("i", d_ino, "a")
        assert owner.locks.queue_length(key) == 1
        cluster.crash_mnode(0)
        cluster.run_for(5000.0)
        gc.collect()
        cluster.run_for(5000.0)
        assert owner.locks.holders(key) == [LockMode.EXCLUSIVE]
        assert owner.locks.queue_length(key) == 1
        assert answered == {}

    def test_a_read_of_the_flushing_key_holds_the_worker(self):
        """The limit of the hand-off: a getattr of the flushing key
        that reaches the worker first waits in its lock for the flush,
        on the worker, so a getattr of another key waits behind it."""
        cluster, owner = self._one_core("/d/other")
        appends = self._watch_appends(owner)
        answered = {}
        self._timed_call(cluster, owner, answered, "create", "create",
                         "/d/a")
        cluster.run_for(20.0)
        self._timed_call(cluster, owner, answered, "same", "getattr",
                         "/d/a")
        cluster.run_for(25.0)
        self._timed_call(cluster, owner, answered, "other", "getattr",
                         "/d/other")
        cluster.run_for(1000.0)
        (flush,) = appends
        assert answered["same"][0] > flush["durable"]
        assert answered["other"][0] > flush["durable"]
        assert answered["other"][1]["ok"]

    def test_a_full_backlog_keeps_the_worker_on_its_flush(self):
        """At most one full batch per worker waits on the log without
        one.  With one worker and a batch cap of one, the second create
        finds the backlog full: its worker waits out its flush, and a
        getattr of another key waits behind it."""
        cluster, owner = self._one_core("/d/other", max_batch=1)
        appends = self._watch_appends(owner)
        answered = {}
        self._timed_call(cluster, owner, answered, "a", "create", "/d/a")
        cluster.run_for(20.0)
        self._timed_call(cluster, owner, answered, "b", "create", "/d/b")
        cluster.run_for(20.0)
        self._timed_call(cluster, owner, answered, "other", "getattr",
                         "/d/other")
        cluster.run_for(1000.0)
        first, second = appends
        assert second["at"] < first["durable"]
        assert answered["other"][0] > second["durable"]
        assert all(answered[name][1]["ok"] for name in ("a", "b", "other"))
        assert owner._backlog == 0

    def test_a_read_queued_on_a_write_whose_quorum_fails_is_fenced(self):
        """A getattr planned while the lease held, then queued on the
        lock of a create whose quorum wait fails, answers ENOTLEADER:
        the create's row is applied here, but no majority holds it."""
        cluster, owner = self._one_core(replication=True, consensus=True,
                                        seed=0)
        cluster.start_consensus()
        # Members still hear the leader but their acks are lost: nothing
        # commits the create, and nothing renews the lease.
        cluster.network.partition_directed(
            [cluster.standbys[0].name, cluster.witnesses[0].name],
            [owner.name])
        replies = {}
        for name, kind in (("create", "create"), ("getattr", "getattr")):
            replies[name] = cluster.coordinator.call(owner.name, kind,
                                                     {"path": "/d/a"})
            replies[name].defused = True
            cluster.run_for(20.0)
        cluster.run_for(2 * LEASE_US)
        d_ino = owner.dentries.get((ROOT_INO, "d")).ino
        assert owner.inodes.get((d_ino, "a")) is not None
        for reply in replies.values():
            assert reply.triggered and not reply.ok
            assert reply.value.code == RpcError.ENOTLEADER

    def test_an_exception_in_a_tail_surfaces_from_run(self):
        cluster, owner = self._one_core()

        def broken_barrier():
            raise RuntimeError("tail failed")
            yield  # pragma: no cover

        owner._quorum_barrier = broken_barrier
        reply = cluster.coordinator.call(owner.name, "create",
                                         {"path": "/d/a"})
        reply.defused = True
        with pytest.raises(RuntimeError, match="tail failed"):
            cluster.run_for(1000.0)
        assert not reply.triggered
        # The tail's own release still ran on the way out.
        assert not owner.locks._locks
