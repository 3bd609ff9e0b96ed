"""Fault injection, failure detection, and MNode failover.

Covers the network fault model (black holes, partitions), the crash ->
promote state surgery (lost window exactly equals the replication lag,
divergence confined to unshipped transactions), the detector-driven
end-to-end recovery path, and a seeded fuzz of crashes landing under
in-flight retried operations.
"""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.faults import FaultInjector
from repro.faults.detector import (
    HEARTBEAT_INTERVAL_US,
    HEARTBEAT_MISS_THRESHOLD,
    HEARTBEAT_TIMEOUT_US,
)
from repro.net import CostModel, Network, Node, RpcError, RpcFailure
from repro.net.transport import LOCAL_LABEL
from repro.obs import NULL_CONTEXT, deadline_call
from repro.sim import Environment
from repro.storage.replication import divergence


class EchoNode(Node):
    def handle(self, message):
        yield from self.execute(1.0)
        self.respond(message, {"echo": message.payload})


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, CostModel())


def _call(env, node, target, kind="echo", payload=None):
    return env.run(until=env.process(
        _caller(node, target, kind, payload)))


def _caller(node, target, kind, payload):
    reply = yield node.call(target, kind, payload)
    return reply


class TestNetworkFaults:
    def test_send_to_down_node_black_holed(self, env, net):
        server = EchoNode(env, net, "server")
        client = EchoNode(env, net, "client")
        net.set_down("server")
        assert net.is_down("server")
        assert not net.reachable("client", "server")
        client.send("server", "echo", "x")
        env.run()
        assert server.metrics.counter("received").get("echo") == 0
        assert net.metrics.counter("dropped").get("echo") == 1
        assert net.message_count("echo") == 0

    def test_down_node_cannot_send(self, env, net):
        server = EchoNode(env, net, "server")
        client = EchoNode(env, net, "client")
        net.set_down("client")
        client.send("server", "echo", "x")
        env.run()
        assert server.metrics.counter("received").get("echo") == 0
        assert net.metrics.counter("dropped").get("echo") == 1

    def test_black_hole_at_arrival(self, env, net):
        """A message in flight when its destination dies is lost — this
        is exactly how a crash loses the unshipped WAL window."""
        server = EchoNode(env, net, "server")
        client = EchoNode(env, net, "client")
        client.send("server", "echo", "x")
        net.set_down("server")  # in flight: sent, not yet delivered
        env.run()
        assert server.metrics.counter("received").get("echo") == 0
        # Counted as sent (it left the client) but then dropped.
        assert net.message_count("echo") == 1
        assert net.metrics.counter("dropped").get("echo") == 1

    def test_set_up_restores_delivery(self, env, net):
        EchoNode(env, net, "server")
        client = EchoNode(env, net, "client")
        net.set_down("server")
        net.set_up("server")
        assert _call(env, client, "server", payload="hi") == {"echo": "hi"}

    def test_set_down_unknown_node_rejected(self, env, net):
        from repro.runtime import EnvError

        with pytest.raises(EnvError):
            net.set_down("ghost")

    def test_partition_blocks_both_directions(self, env, net):
        EchoNode(env, net, "a")
        EchoNode(env, net, "b")
        net.partition(["a"], ["b"])
        assert not net.reachable("a", "b")
        assert not net.reachable("b", "a")
        net.heal(["a"], ["b"])
        assert net.reachable("a", "b")
        assert net.reachable("b", "a")

    def test_heal_all(self, env, net):
        EchoNode(env, net, "a")
        EchoNode(env, net, "b")
        EchoNode(env, net, "c")
        net.partition(["a"], ["b", "c"])
        net.heal()
        for src in ("a", "b", "c"):
            for dst in ("a", "b", "c"):
                assert net.reachable(src, dst)

    def test_timeout_fires_against_black_hole(self, env, net):
        """Without a per-attempt timeout a call to a dead node would
        strand the caller forever; with one, ETIMEDOUT surfaces."""
        EchoNode(env, net, "server")
        client = EchoNode(env, net, "client")
        net.set_down("server")

        def caller():
            try:
                yield from deadline_call(client, NULL_CONTEXT, "server",
                                         "echo", {}, timeout_us=300.0)
            except RpcFailure as failure:
                return (failure.code, env.now)

        code, elapsed = env.run(until=env.process(caller()))
        assert code == RpcError.ETIMEDOUT
        assert elapsed == pytest.approx(300.0)

    def test_response_accounting(self, env, net):
        """Responses are routed through the network and counted —
        remote replies by request kind, co-located ones as local."""
        node = EchoNode(env, net, "only")
        EchoNode(env, net, "remote")
        _call(env, node, "remote")
        _call(env, node, "only")
        assert net.response_count("echo") == 1
        assert net.response_count(LOCAL_LABEL) == 1

    def test_response_to_dead_requester_dropped(self, env, net):
        EchoNode(env, net, "server")
        client = EchoNode(env, net, "client")

        def caller():
            try:
                yield from deadline_call(client, NULL_CONTEXT, "server",
                                         "echo", {}, timeout_us=500.0)
            except RpcFailure as failure:
                return failure.code

        proc = env.process(caller())
        env.run(until=env.now + 0.5)  # request in flight
        net.set_down("client")
        assert env.run(until=proc) == RpcError.ETIMEDOUT
        env.run()
        assert net.metrics.counter("dropped").get("echo") == 1
        assert net.response_count("echo") == 0


def _replicated_cluster(seed=0, num_mnodes=3):
    return FalconCluster(FalconConfig(
        num_mnodes=num_mnodes, num_storage=2, replication=True,
        rpc_timeout_us=400.0, seed=seed,
    ))


def _crash_at_random(cluster, lo_us, hi_us):
    """Crash one MNode at a time in [lo_us, hi_us), both drawn from the
    cluster's seeded ``faults`` stream.  Returns ``(index, time_us)``."""
    injector = FaultInjector(cluster)
    time_us = injector.rng.uniform(lo_us, hi_us)
    handle = injector.apply({"kind": "crash", "at_us": time_us})
    return handle.event["index"], time_us


class TestCrashPromotion:
    def test_lost_window_equals_lag(self):
        """Crash the owner while its WAL shipment is in flight: the
        promotion loses exactly the replication lag at the crash, and
        the lost transaction's key is absent from the promoted node."""
        cluster = _replicated_cluster()
        env = cluster.env
        fs = cluster.fs()
        fs.mkdir("/d")
        cluster.run_for(20000.0)
        dino = fs.getattr("/d")["ino"]
        victim = cluster.coordinator.index.locate(dino, "f0")
        shipper = cluster.mnodes[victim].shipper
        standby = cluster.standbys[victim]
        target_lsn = shipper.next_lsn

        client = cluster.add_client(mode="libfs")
        env.process(client.create("/d/f0"))
        # Step in sub-hop increments until the commit ships, then crash
        # before the shipment can arrive at the standby.
        for _ in range(100000):
            if shipper.next_lsn > target_lsn:
                break
            env.run(until=env.now + 0.25)
        else:
            pytest.fail("create never committed")
        assert standby.applied_lsn < shipper.next_lsn - 1

        lag = cluster.crash_mnode(victim)
        assert lag >= 1
        node, lost_txns = cluster.promote_standby(
            victim, cluster.coordinator._grant())
        assert lost_txns == lag
        # The shipped prefix survived; the unshipped suffix did not.
        assert node.inodes.get((dino, "f0")) is None
        assert cluster.retired_mnodes[0].inodes.get((dino, "f0")) is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_divergence_confined_to_lost_window(self, seed):
        """Property: after a crash at a seeded random time mid-workload,
        every primary/standby difference lies inside the unshipped WAL
        suffix — shipped transactions never diverge."""
        cluster = _replicated_cluster(seed=seed)
        env = cluster.env
        fs = cluster.fs()
        for d in range(3):
            fs.mkdir("/w{}".format(d))
        client = cluster.add_client(mode="libfs")
        victim, crash_at = _crash_at_random(
            cluster, env.now + 100.0, env.now + 2500.0)
        end_at = crash_at + 200.0

        def worker(wid):
            i = 0
            while env.now < end_at:
                try:
                    yield from client.create(
                        "/w{}/f{}-{}".format(wid % 3, wid, i),
                        exclusive=False)
                except RpcFailure:
                    pass
                i += 1

        for w in range(4):
            env.process(worker(w))
        env.run(until=end_at + 100.0)
        cluster.run_for(10000.0)  # drain surviving shipments

        old = cluster.mnodes[victim]
        standby = cluster.standbys[victim]
        lag = standby.lag(old.shipper)
        assert lag == cluster.crash_log[0]["lag_at_crash"]
        lost = set()
        for lsn, records in old.shipper.history:
            if lsn > standby.applied_lsn:
                lost.update((table, key) for table, key, _ in records)
        diffs = divergence(old, standby)
        for table, key, _, _ in diffs:
            assert (table, key) in lost
        if lag == 0:
            assert not diffs

    @pytest.mark.parametrize("seed", range(3))
    def test_failover_restores_invariants(self, seed):
        """Property: promote + repair after a random-time crash leaves a
        cluster that passes every ``verify`` invariant and serves new
        operations for every directory."""
        cluster = _replicated_cluster(seed=seed)
        env = cluster.env
        fs = cluster.fs()
        for d in range(3):
            fs.mkdir("/w{}".format(d))
        client = cluster.add_client(mode="libfs")
        victim, crash_at = _crash_at_random(
            cluster, env.now + 100.0, env.now + 2500.0)
        end_at = crash_at + 200.0

        def worker(wid):
            i = 0
            while env.now < end_at:
                try:
                    yield from client.create(
                        "/w{}/f{}-{}".format(wid % 3, wid, i),
                        exclusive=False)
                except RpcFailure:
                    pass
                i += 1

        for w in range(4):
            env.process(worker(w))
        env.run(until=end_at + 100.0)

        record = cluster.run_process(cluster.fail_over(victim))
        assert record["index"] == victim
        cluster.run_for(20000.0)
        report = cluster.verify()
        assert report["inodes"] > 0
        # The recovered cluster serves every shard, via a fresh client
        # and via re-resolution on the pre-crash one.
        after = cluster.fs(client=cluster.add_client(mode="libfs"))
        for d in range(3):
            after.create("/w{}/post-{}".format(d, seed))
            assert after.getattr("/w{}/post-{}".format(d, seed))["ino"] > 0
        old_fs = cluster.fs(client=client)
        old_fs.create("/w0/post-old-{}".format(seed))

    def test_boot_from_standby_tables_rebuilds_owned_dentries(self):
        """Booting from a standby's tables derives every dentry of a
        slot served here from the inode row beside it (a stale one with
        no row goes) and marks every other dentry INVALID."""
        from repro.core.mnode import MNode
        from repro.core.records import (INVALID, VALID, DentryRecord,
                                        InodeRecord)
        from repro.storage.replication import Standby

        cluster = _replicated_cluster()
        index = cluster.coordinator.index

        def key_on(node, prefix):
            return next((1, "{}{}".format(prefix, i)) for i in range(2000)
                        if index.locate(1, "{}{}".format(prefix, i)) == node)

        owned_dir, stale, foreign = (key_on(0, "dir"), key_on(0, "gone"),
                                     key_on(1, "far"))
        standby = Standby(cluster.env, cluster.network, "probe-standby")
        standby.tables["inode"].put(owned_dir, InodeRecord(
            ino=77, is_dir=True, mode=0o750))
        for key, ino in ((stale, 78), (foreign, 79)):
            standby.tables["dentry"].put(key, DentryRecord(ino=ino,
                                                          mode=0o755))
        node = MNode(cluster.env, cluster.network, cluster.shared, 0,
                     name="mnode-0-probe")
        node.boot(standby, cluster.coordinator._grant())
        assert standby.promoted
        derived = node.dentries.get(owned_dir)
        assert (derived.ino, derived.mode, derived.state) == (77, 0o750,
                                                              VALID)
        assert node.dentries.get(stale) is None
        assert node.dentries.get(foreign).state == INVALID

    def test_register_names_the_owner_a_slot_was_promoted_to(self):
        """A machine whose slot was promoted away is told to rejoin as
        the replica of the new owner."""
        cluster = _replicated_cluster()
        cluster.crash_mnode(1)
        cluster.run_process(cluster.fail_over(1))
        probe = Node(cluster.env, cluster.network, "probe")
        reply = cluster.run_process(deadline_call(
            probe, NULL_CONTEXT, cluster.coordinator.name, "register",
            {"index": 1, "incarnation": "mnode-1"}, timeout_us=400.0))
        assert reply == {"role": "standby", "of": "mnode-1-p1"}
        assert cluster.mnodes[1].name == "mnode-1-p1"


class TestDetectorFailover:
    def test_detector_promotes_and_cluster_serves(self):
        cluster = _replicated_cluster()
        env = cluster.env
        fs = cluster.fs()
        for d in range(3):
            fs.mkdir("/w{}".format(d))
        cluster.run_for(5000.0)
        detector = cluster.start_failure_detection()
        FaultInjector(cluster).apply(
            {"kind": "crash", "at_us": env.now + 1000.0, "index": 1})
        old_name = cluster.shared.mnode_name(1)
        cluster.run_for(15000.0)
        detector.stop()

        assert detector.log and detector.log[0]["index"] == 1
        assert cluster.coordinator.failover_log
        record = cluster.coordinator.failover_log[0]
        assert record["index"] == 1
        assert cluster.shared.mnode_name(1) != old_name
        assert cluster.mnodes[1].name == cluster.shared.mnode_name(1)
        # The same pre-crash facade client transparently re-resolves.
        for d in range(3):
            fs.create("/w{}/after".format(d))
            assert fs.getattr("/w{}/after".format(d))["ino"] > 0
        assert fs.listdir("/w0")
        cluster.run_for(20000.0)
        assert cluster.verify()["inodes"] > 0

    def test_detection_latency_bounded(self):
        cluster = _replicated_cluster()
        env = cluster.env
        fs = cluster.fs()
        fs.mkdir("/w")
        cluster.run_for(5000.0)
        detector = cluster.start_failure_detection()
        crash_at = env.now + 700.0
        FaultInjector(cluster).apply(
            {"kind": "crash", "at_us": crash_at, "index": 0})
        cluster.run_for(15000.0)
        detector.stop()
        bound = (HEARTBEAT_MISS_THRESHOLD
                 * (HEARTBEAT_INTERVAL_US + HEARTBEAT_TIMEOUT_US)
                 + HEARTBEAT_INTERVAL_US + 100.0)
        assert detector.log
        assert detector.log[0]["declared_at"] - crash_at <= bound

    def test_failover_experiment_deterministic(self):
        from repro.experiments import failover

        kwargs = {"threads": 4, "duration_us": 12000.0, "warm_us": 4000.0,
                  "seed": 7}
        assert failover.measure(**kwargs) == failover.measure(**kwargs)


class TestCrashFuzz:
    @pytest.mark.parametrize("seed", range(3))
    def test_crash_mid_operation_under_retries(self, seed):
        """Fuzz: a seeded random crash lands under in-flight retried
        client operations while the detector recovers the cluster; the
        run must end converged, invariant-clean, and serving."""
        cluster = _replicated_cluster(seed=seed)
        env = cluster.env
        fs = cluster.fs()
        for d in range(3):
            fs.mkdir("/w{}".format(d))
        cluster.run_for(5000.0)
        detector = cluster.start_failure_detection()
        _crash_at_random(cluster, env.now + 500.0, env.now + 4000.0)
        client = cluster.add_client(mode="libfs")
        end_at = env.now + 9000.0
        outcomes = []

        def worker(wid):
            i = 0
            while env.now < end_at:
                path = "/w{}/f{}-{}".format(wid % 3, wid, i)
                try:
                    yield from client.create(path, exclusive=False)
                    outcomes.append("ok")
                except RpcFailure:
                    outcomes.append("err")
                i += 1

        workers = [env.process(worker(w)) for w in range(6)]
        env.run(until=env.all_of(workers))
        detector.stop()
        cluster.run_for(20000.0)

        assert cluster.coordinator.failover_log
        assert outcomes.count("ok") > 0
        assert cluster.verify()["inodes"] > 0
        after = cluster.fs(client=cluster.add_client(mode="libfs"))
        for d in range(3):
            after.create("/w{}/fuzz-post".format(d))
