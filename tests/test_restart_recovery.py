"""Tests for durable WAL redo recovery, crash-restart and standby rejoin."""

import json

import pytest

from repro.check import run_schedule
from repro.core import FalconCluster, FalconConfig
from repro.faults import FaultInjector
from repro.net.costs import CostModel
from repro.sim import Environment
from repro.storage import WriteAheadLog
from tests.test_replication import replication_divergence


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def wal(env, costs):
    return WriteAheadLog(env, costs)


def _payload(n):
    return [("inode", (1, "f{}".format(n)), None)]


class TestWalDurability:
    def test_lsns_and_fsync_horizon(self, env, wal):
        def committer():
            yield wal.commit(100, payload=_payload(1))
            yield wal.commit(100, payload=_payload(2))

        env.run(until=env.process(committer()))
        assert wal.appended_txns == 2
        assert wal.durable_lsn == 2
        assert wal.appended_txns == wal.durable_lsn
        payloads, torn = wal.replay()
        assert [lsn for lsn, _, _ in payloads] == [1, 2]
        assert torn == 0

    def test_mid_flush_crash_never_acks(self, env, costs, wal):
        """A group-commit fsync in flight when the node crashes must not
        confirm durability: its waiters never fire and the batch becomes
        a torn tail that redo truncates."""
        done = wal.commit(1000, payload=_payload(1))
        # Crash halfway through the fsync.
        env.run(until=costs.wal_fsync_us / 2)
        wal.power_fail()
        env.run(until=env.now + 10 * costs.wal_fsync_us)
        assert not done.triggered
        assert wal.durable_lsn == 0
        assert wal.torn_records == 1
        payloads, torn = wal.replay()
        assert payloads == []
        assert torn == 1

    def test_crash_drops_unwritten_pending(self, env, costs, wal):
        first = wal.commit(1000, payload=_payload(1))
        env.run(until=costs.wal_fsync_us / 2)
        # Joins the *next* flush, which never happens.
        second = wal.commit(1000, payload=_payload(2))
        wal.power_fail()
        env.run(until=env.now + 10 * costs.wal_fsync_us)
        assert not first.triggered and not second.triggered
        assert wal.torn_records == 1
        assert wal.lost_unwritten == 1
        assert wal.appended_txns - wal.durable_lsn == 2

    def test_commit_after_power_fail_is_dead(self, env, costs, wal):
        wal.power_fail()
        done = wal.commit(1000, payload=_payload(1))
        env.run(until=10 * costs.wal_fsync_us)
        assert not done.triggered
        assert wal.appended_txns == 0

    def test_replay_preserves_durable_prefix(self, env, costs, wal):
        def committer():
            for i in range(5):
                yield wal.commit(100, payload=_payload(i))

        env.run(until=env.process(committer()))
        # A sixth commit is torn by the crash.
        wal.commit(100, payload=_payload(5))
        env.run(until=env.now + costs.wal_fsync_us / 2)
        wal.power_fail()
        env.run(until=env.now + 10 * costs.wal_fsync_us)
        payloads, torn = wal.replay()
        assert [lsn for lsn, _, _ in payloads] == [1, 2, 3, 4, 5]
        assert torn == 1
        # Idempotent: a second scan reads the same log.
        assert wal.replay() == (payloads, torn)

    def test_replay_truncates_at_corruption(self, env, wal):
        def committer():
            for i in range(6):
                yield wal.commit(100, payload=_payload(i))

        env.run(until=env.process(committer()))
        for segment in wal.segments:
            for record in segment.records:
                if record.lsn == 3:
                    record.corrupt()
        payloads, torn = wal.replay()
        # Standard WAL recovery stops at the first bad record: the
        # fsynced records behind it are lost too.
        assert [lsn for lsn, _, _ in payloads] == [1, 2]
        assert torn == 4

    def test_bootstrap_records_are_durable(self, env, wal):
        wal.bootstrap([_payload(0), _payload(1)])
        assert wal.appended_txns == 2
        assert wal.durable_lsn == 2
        payloads, torn = wal.replay()
        assert len(payloads) == 2 and torn == 0

    def test_segments_rotate(self, env, costs, wal):
        costs.wal_segment_bytes = 256
        def committer():
            for i in range(8):
                yield wal.commit(100, payload=_payload(i))

        env.run(until=env.process(committer()))
        assert len(wal.segments) > 1
        payloads, _ = wal.replay()
        assert [lsn for lsn, _, _ in payloads] == list(range(1, 9))


def _cluster(**overrides):
    kwargs = {"num_mnodes": 2, "num_storage": 1, "replication": True}
    kwargs.update(overrides)
    return FalconCluster(FalconConfig(**kwargs))


def _restart(cluster, index):
    return cluster.run_process(cluster.restart_mnode(index))


def _inode_map(table):
    return {key: record.ino for key, record in table.scan()}


class TestRestartResume:
    def test_redo_rebuilds_tables(self):
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/a")
        for i in range(10):
            fs.write("/a/f{}".format(i), size=512)
        cluster.run_for(5000.0)
        cluster.crash_mnode(0)
        old = cluster.mnodes[0]
        record = _restart(cluster, 0)
        assert record["role"] == "primary"
        assert record["torn_records"] == 0
        node = cluster.mnodes[0]
        assert node is not old
        assert node.name == old.name
        # Everything was quiescent at the crash, so redo rebuilds the
        # exact tables the dead node held.
        assert _inode_map(node.inodes) == _inode_map(old.inodes)

    def test_resumed_primary_serves_and_converges(self):
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/a")
        for i in range(6):
            fs.write("/a/f{}".format(i), size=64)
        cluster.crash_mnode(0)
        _restart(cluster, 0)
        fs.mkdir("/b")
        fs.write("/b/late", size=64)
        assert fs.read("/b/late") == 64
        cluster.run_for(20000.0)
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )
        # Ack-driven pruning caught up after the drain.
        for mnode in cluster.mnodes:
            assert len(mnode.shipper.history) == 0

    def test_reships_durable_unapplied_window(self):
        """Transactions fsynced but not yet applied by the standby at
        the crash are re-shipped on resume — the window a promotion
        would have lost."""
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/a")
        for i in range(8):
            fs.write("/a/f{}".format(i), size=64)
        # Freeze the standby so shipments stall undelivered, creating a
        # durable-but-unapplied window, then crash the primary.
        standby = cluster.standbys[0]
        cluster.network.set_down(standby.name)
        fs2 = cluster.fs()
        fs2.mkdir("/lagged")
        cluster.run_for(2000.0)
        cluster.crash_mnode(0)
        cluster.network.set_up(standby.name)
        _restart(cluster, 0)
        cluster.run_for(20000.0)
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )

    def test_restart_without_crash_raises(self):
        cluster = _cluster()
        with pytest.raises(RuntimeError):
            _restart(cluster, 0)

    def test_unfsynced_tail_is_lost_but_bounded_by_promotion_loss(self):
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/a")
        client = cluster.add_client(mode="libfs")
        env = cluster.env
        # Launch creates and crash while some are mid-commit.
        for i in range(30):
            env.process(client.create("/a/f{:02d}".format(i),
                                      exclusive=False))
        cluster.run_for(40.0)
        lag = cluster.crash_mnode(0)
        old = cluster.mnodes[0]
        record = _restart(cluster, 0)
        restart_loss = old.wal.appended_txns - record["replayed_txns"]
        unfsynced = old.wal.appended_txns - old.wal.durable_lsn
        promotion_loss = unfsynced + lag
        assert restart_loss == unfsynced
        assert restart_loss <= promotion_loss


class TestRestartRejoin:
    def test_rejoins_as_standby_and_converges(self):
        cluster = _cluster(num_mnodes=2)
        cluster.start_failure_detection()
        fs = cluster.fs()
        fs.mkdir("/a")
        for i in range(8):
            fs.write("/a/f{}".format(i), size=64)
        cluster.crash_mnode(0)
        cluster.run_for(10000.0)  # detector declares, standby promoted
        promoted = [
            r for r in cluster.coordinator.failover_log
            if not r.get("suppressed")
        ]
        assert len(promoted) == 1
        record = _restart(cluster, 0)
        assert record["role"] == "standby"
        assert cluster.standbys[0] is not None
        # The rejoined standby runs under the dead node's machine name.
        assert cluster.standbys[0].name == "mnode-0"
        fs.mkdir("/post")
        fs.write("/post/f", size=32)
        cluster.run_for(20000.0)
        cluster.detector.stop()
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )

    def test_promotion_suppressed_when_redo_wins(self):
        """A failover that reaches the coordinator after the node has
        already redo-recovered is a no-op: no second promotion, no lost
        window."""
        cluster = _cluster()
        fs = cluster.fs()
        fs.mkdir("/a")
        cluster.run_for(5000.0)
        cluster.crash_mnode(0)
        _restart(cluster, 0)
        record = cluster.run_process(cluster.fail_over(0))
        assert record["suppressed"]
        assert record["lost_txns"] == 0
        assert cluster.mnodes[0].name == "mnode-0"
        assert (cluster.coordinator.metrics.counter("failovers_suppressed")
                .get() >= 1)

    def test_detector_forgives_misses_after_restart(self):
        cluster = _cluster()
        detector = cluster.start_failure_detection()
        fs = cluster.fs()
        fs.mkdir("/a")
        cluster.crash_mnode(0)
        # Two misses accumulate (threshold is three), then redo wins.
        cluster.run_for(1400.0)
        assert detector.misses[0] > 0
        _restart(cluster, 0)
        assert detector.misses[0] == 0
        cluster.run_for(10000.0)
        detector.stop()
        assert not detector.log
        assert not cluster.coordinator.failover_log

    def test_double_crash_restart(self):
        """The promoted node's base-backup WAL makes it restartable too:
        crash it after the first failover and redo-recover it."""
        cluster = _cluster()
        cluster.start_failure_detection()
        fs = cluster.fs()
        fs.mkdir("/a")
        for i in range(6):
            fs.write("/a/f{}".format(i), size=64)
        cluster.crash_mnode(0)
        cluster.run_for(10000.0)
        _restart(cluster, 0)  # rejoin as standby
        cluster.run_for(10000.0)
        cluster.detector.stop()
        fs.write("/a/extra", size=64)
        cluster.run_for(5000.0)
        cluster.crash_mnode(0)  # kill the promoted primary
        record = _restart(cluster, 0)
        assert record["role"] == "primary"
        cluster.run_for(20000.0)
        assert all(
            not diffs for diffs in replication_divergence(cluster).values()
        )


class TestInjectorSchedules:
    def test_scheduled_restart_is_deterministic(self):
        def run_once(seed):
            cluster = _cluster(seed=seed)
            cluster.start_failure_detection()
            fs = cluster.fs()
            fs.mkdir("/a")
            injector = FaultInjector(cluster)
            injector.apply({"kind": "crash", "at_us": 3000.0, "index": 0})
            injector.apply({"kind": "restart", "at_us": 3600.0,
                            "index": 0})
            client = cluster.add_client(mode="libfs")
            env = cluster.env
            for i in range(20):
                env.process(client.create("/a/f{:02d}".format(i),
                                          exclusive=False))
            cluster.run_for(30000.0)
            cluster.detector.stop()
            return (
                [(e["kind"], e["target"], e["at"]) for e in injector.events],
                [(r["role"], r["replayed_txns"], r["torn_records"],
                  r["recovery_us"]) for r in cluster.restart_log],
            )

        assert run_once(7) == run_once(7)
        events, restarts = run_once(7)
        assert [kind for kind, _, _ in events] == ["crash", "restart"]
        assert restarts and restarts[0][0] == "primary"

    def test_scheduled_corruption_truncates_replay(self):
        cluster = _cluster(seed=3)
        fs = cluster.fs()
        fs.mkdir("/a")
        for i in range(10):
            fs.write("/a/f{}".format(i), size=64)
        injector = FaultInjector(cluster)
        injector.apply({"kind": "corrupt_wal", "index": 0, "lsn": 2,
                        "at_us": cluster.env.now + 10.0})
        cluster.run_for(100.0)
        assert [(e["kind"], e["lsn"]) for e in injector.events] == [
            ("corrupt_wal", 2)]
        durable = cluster.mnodes[0].wal.durable_lsn
        cluster.crash_mnode(0)
        record = _restart(cluster, 0)
        # Replay stops at the corrupted record: only LSN 1 survives.
        assert record["replayed_txns"] == 1
        assert record["torn_records"] == durable - 1

    def test_corruption_of_empty_log_is_noop(self):
        cluster = _cluster(seed=5)
        injector = FaultInjector(cluster)
        injector.apply({"kind": "corrupt_wal", "at_us": 10.0, "index": 0})
        cluster.run_for(100.0)
        assert any(
            e["kind"] == "corrupt_wal_noop" for e in injector.events
        )


class TestRestartExperiment:
    QUICK = {"threads": 4, "duration_us": 16000.0, "warm_us": 5000.0}

    def test_deterministic_per_seed(self):
        from repro.experiments.restart import measure

        def row(seed):
            return measure(mode="resume", seed=seed, **self.QUICK)

        assert row(1) == row(1)

    def test_recovered_matches_never_crashed_replay(self):
        """The restarted node's tables contain every durable transaction
        — redo loses nothing that was fsynced (CI smoke asserts the same
        via the experiment's built-in checks)."""
        from repro.experiments.restart import run

        rows = run(modes=("resume", "rejoin"), seeds=(0,), **self.QUICK)
        assert len(rows) == 2
        for row in rows:
            assert row["restart_loss"] <= row["promotion_loss"]
            assert row["replayed_txns"] == row["durable_txns"]
            assert row["divergence"] == 0


def test_rename_abort_to_a_rejoined_standby_is_refused():
    """Classic seed 473, shrunk (26 of the 33 red seeds of the PR-20
    census had this signature).  Node 0 crashes, its standby is
    promoted, the machine restarts and rejoins as a standby *under its
    old MNode name* — and the coordinator then aborts a rename towards
    the owner name it captured at prepare time.  The standby used to
    raise "cannot handle rename_abort" and crash the run; it now refuses
    with ENOTLEADER, which ``_abort_rename`` already swallows (the
    outcome is recorded).  Replay the reproducer; it must stay clean."""
    with open("tests/golden/rename_abort_standby_schedule.json") as handle:
        schedule = json.load(handle)
    result = run_schedule(schedule)
    assert result["violations"] == [], result["violations"]


def test_redo_restart_restages_a_voted_rename_until_resolved(monkeypatch):
    """The participant crashes after both votes, as the decision goes
    out (the client is answered at the decision), and the decision's
    re-delivery is lost too.  Its redo replays
    the voted row, so the restarted node retakes the half's locks
    before it serves: a second rename of the same ino queues behind
    them, and the in-doubt resolver — the only path left to the
    decision — applies the first.  The ino ends under one name."""
    from importlib import import_module

    from repro.core.verify import check_cluster_invariants, runtime_violations
    from repro.net.rpc import RpcFailure

    def lost(node, resolve, kind, payload, timeout_us=None):
        return
        yield  # pragma: no cover

    monkeypatch.setattr(import_module("repro.obs.retry"),
                        "redeliver_later", lost)
    cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1,
                                         rpc_timeout_us=400.0))
    fs = cluster.fs()
    pid = fs.mkdir("/d")
    # The participant holds the source; the destination is on another
    # slot, because a rename one MNode owns commits in its vote.
    a, b, c = (next(name for name in (prefix + str(i) for i in range(100))
                    if cluster.coordinator.index.locate(pid, name) == slot)
               for prefix, slot in (("a", 0), ("b", 1), ("c", 0)))
    fs.create("/d/" + a)
    coordinator = cluster.coordinator
    real_call = coordinator.call

    def call(target, kind, *args, **kwargs):
        if kind == "rename_commit" and not cluster.crash_log:
            cluster.crash_mnode(0)
        return real_call(target, kind, *args, **kwargs)

    coordinator.call = call
    client = cluster.add_client()
    outcomes = []

    def rename(src, dst):
        try:
            yield from client.rename(src, dst)
            outcomes.append("ok")
        except RpcFailure as failure:
            outcomes.append(failure.code)

    cluster.run_process(rename("/d/" + a, "/d/" + b))
    cluster.run_process(cluster.restart_mnode(0))
    node = cluster.mnodes[0]
    restaged = sorted(node._staged)
    second = cluster.env.process(rename("/d/" + a, "/d/" + c))
    # The first rename's commit round holds the coordinator's key locks
    # until its hop to the crashed node times out.
    cluster.run_for(cluster.config.rpc_timeout_us + 300.0)
    queued = node.locks.queue_length(("d", pid, a))
    cluster.env.run(until=second)
    cluster.heal()
    assert cluster.quiesce(1_000_000.0)
    assert [fs.exists("/d/" + name) for name in (a, b, c)] == [
        False, True, False]
    # The first rename is answered at its decision; the second finds
    # the ino already moved.
    assert outcomes[0] == "ok" and "ok" not in outcomes[1:], outcomes
    assert len(restaged) == 1 and queued == 1
    assert node.metrics.counter("rename_restaged").total() == 1
    assert node.metrics.counter("rename_redos").total() == 0
    assert runtime_violations(cluster) == []
    check_cluster_invariants(cluster)


def _key_in(node, slot, prefix):
    """An inode key under the root whose name hashes to ``slot``."""
    for i in range(2000):
        key = (1, "{}{}".format(prefix, i))
        if node.index.locate(*key) == slot:
            return key
    raise RuntimeError("no name for slot {}".format(slot))


class TestBoot:
    def test_wal_disk_boots_to_every_durable_row(self):
        """A log with a base, a suffix and a torn tail: the booted node
        holds every durable row and none of the torn one, the handoff
        marker overrides the slot-map seed, and the voted rename is
        restaged with its lock pair and exactly one resolver."""
        from repro.core.mnode import SERVING, MNode
        from repro.core.records import InodeRecord

        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1,
                                             num_slots=6))
        env, costs = cluster.env, cluster.costs
        seed = cluster.mnodes[0]
        served, moved = sorted(cluster.shared.slot_map.slots_of(0))[:2]
        rows = {name: (_key_in(seed, served, name), InodeRecord(ino=ino))
                for ino, name in enumerate(("base", "suffix", "voted",
                                            "torn"), start=100)}
        marker = {"state": "moved", "node": 1, "epoch": 7}
        voted_key, voted_row = rows["voted"]
        vote = {"voted": [{"action": "delete", "key": voted_key,
                           "ino": voted_row.ino}],
                "deadline": 5000.0}
        disk = WriteAheadLog(env, costs)

        def commit(records):
            done = disk.commit(100, payload=records)
            env.run(until=done)

        commit([("inode",) + rows["base"]])
        disk.checkpoint(1, {"inode": ([rows["base"][0]],
                                      [rows["base"][1]])})
        commit([("inode",) + rows["suffix"], ("meta", ("slot", moved),
                                              marker)])
        commit([("inode",) + rows["voted"],
                ("meta", ("rename", served, 9), vote)])
        disk.commit(100, payload=[("inode",) + rows["torn"]])
        env.run(until=env.now + costs.wal_fsync_us / 2)
        disk.power_fail()
        env.run(until=env.now + 10 * costs.wal_fsync_us)
        assert disk.replay()[1] == 1

        node = MNode(env, cluster.network, cluster.shared, 0,
                     name="mnode-0-boot")
        resolvers = []

        def resolver(txid, deadline):
            resolvers.append(txid)
            return (event for event in [env.timeout(0.0)])

        node._resolve_in_doubt = resolver
        node.boot(disk, cluster.coordinator._grant())
        assert {key: row.ino for key, row in node.inodes.scan()} == {
            rows[name][0]: rows[name][1].ino
            for name in ("base", "suffix", "voted")}
        assert node.slots[moved] == marker and node.slots[served] == SERVING
        (entry,) = node._staged[9]
        assert sorted(grant.key for grant in entry["write"].grants) == [
            ("d",) + voted_key, ("i",) + voted_key]
        assert resolvers == [9]
        assert node.metrics.counter("rename_restaged").total() == 1
        # The seeded log is the redo itself: base, then the suffix.
        assert node.wal.base is disk.base
        assert node.wal.replay() == ([
            (lsn, 0, payload) for lsn, _, payload in disk.replay()[0]], 0)

    def test_restart_registers_after_a_partition_heals(self):
        """The coordinator is cut off while the machine restarts: its
        register is black-holed and re-delivered, the node serves
        nothing meanwhile, and it resumes as primary once the partition
        heals."""
        from repro.net.rpc import RpcFailure

        cluster = _cluster(rpc_timeout_us=400.0)
        fs = cluster.fs()
        dino = fs.mkdir("/d")
        path = "/d/" + next(
            name for name in ("f{}".format(i) for i in range(200))
            if cluster.coordinator.index.locate(dino, name) == 0)
        fs.create(path)
        old = cluster.mnodes[0]
        cluster.crash_mnode(0)
        coordinator = cluster.coordinator.name
        cluster.network.partition(
            [coordinator], [node.name for node in cluster.network.nodes()
                            if node.name != coordinator])
        restart = cluster.env.process(cluster.restart_mnode(0))
        cluster.run_for(2000.0)
        # A stat addressed to the booting node retries until it has
        # booted: it must never be answered from its empty tables.
        outcome = {}

        def stat():
            try:
                outcome["ino"] = (yield from fs.client.getattr(path))["ino"]
            except RpcFailure as failure:
                outcome["error"] = failure.code

        cluster.env.process(stat())
        cluster.run_for(28000.0)
        assert not restart.triggered and cluster.restart_log == []
        assert cluster.mnodes[0] is old and outcome == {}
        assert cluster.network.metrics.counter("dropped").get("register") > 1
        cluster.network.heal()
        record = cluster.env.run(until=restart)
        assert record["role"] == "primary"
        assert cluster.mnodes[0] is not old and not cluster.mnodes[0].booting
        cluster.run_for(100000.0)
        assert outcome == {"ino": fs.getattr(path)["ino"]}
