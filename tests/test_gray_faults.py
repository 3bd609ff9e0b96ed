"""Gray failures: slow-not-dead disks, lossy links, skewed clocks.

The binary fault model (crash / hang / partition) misses the failures
production actually serves up: a disk that fsyncs at 40x, a NIC
dropping a third of its packets, a clock milliseconds out, a cache
stampede.  These tests pin down the gray fault machinery itself
(clock views, link degradation, WAL slowdown ramps, the stampede) and
the protocol fixes the gray nemeses flushed out:

* fire-and-forget ``wal_ship`` lost to a lossy link was a silent,
  *permanent* standby gap — the shipper now retransmits the unacked
  suffix every ``SHIP_RETRY_US``;
* a lost ``wal_ack`` stranded retained history forever — the standby
  now re-acks duplicate shipments;
* duplicate/stale shipments leaked into the standby's reorder buffer —
  now dropped at the ``applied_lsn`` horizon;
* shipments arriving after promotion would scribble on the promoted
  primary's live tables (shared by reference) — now ignored;
* the detector's heartbeat loop joined its pings, so a slow link
  silently stretched the detection period — it now ticks at a fixed
  rate on the coordinator's local clock;
* ``retry()`` with a zero attempt budget raised ``TypeError`` (``raise
  None``) instead of a proper ``RpcFailure``.
"""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.records import VALID
from repro.faults import FaultInjector
from repro.faults.detector import (
    HEARTBEAT_INTERVAL_US,
    HEARTBEAT_MISS_THRESHOLD,
    HEARTBEAT_TIMEOUT_US,
)
from repro.net import CostModel, Network, Node, RpcError, RpcFailure
from repro.obs import OpContext, RetryPolicy, retry
from repro.sim import Environment
from repro.storage.replication import divergence
from repro.storage.wal import DiskSlowdown


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, CostModel())


def _drive(env, gen):
    return env.run(until=env.process(gen))


class EchoNode(Node):
    def handle(self, message):
        yield from self.execute(1.0)
        self.respond(message, {"echo": message.payload})


# ----------------------------------------------------------------------
# per-node clock views
# ----------------------------------------------------------------------

class TestClockView:
    def test_unskewed_is_identity(self, env):
        clock = env.clock("n0")
        env.run(until=250.0)
        assert clock.now_us() == env.now_us()
        assert clock.to_env_delay(123.0) == 123.0
        assert not clock.skewed

    def test_offset_shifts_reading(self, env):
        clock = env.clock("n0")
        env.run(until=100.0)
        clock.skew(offset_us=500.0)
        assert clock.now_us() == pytest.approx(600.0)
        env.run(until=150.0)
        assert clock.now_us() == pytest.approx(650.0)

    def test_drift_scales_elapsed_time(self, env):
        clock = env.clock("n0")
        env.run(until=1000.0)
        clock.skew(drift_ppm=100000.0)  # 10% fast
        env.run(until=2000.0)
        # 1000us of env time elapsed since the anchor -> 1100 local.
        assert clock.now_us() == pytest.approx(2100.0)
        # A 110us local delay takes 100us of env time on a 10%-fast
        # clock: the node's timer fires early in real terms.
        assert clock.to_env_delay(110.0) == pytest.approx(100.0)

    def test_reset_restores_identity(self, env):
        clock = env.clock("n0")
        clock.skew(offset_us=-300.0, drift_ppm=-50000.0)
        assert clock.skewed
        clock.reset()
        env.run(until=80.0)
        assert clock.now_us() == env.now_us()
        assert not clock.skewed

    def test_views_are_per_name_and_stable(self, env):
        a = env.clock("a")
        b = env.clock("b")
        assert a is env.clock("a")
        a.skew(offset_us=100.0)
        assert b.now_us() == env.now_us()
        assert [v for v in env.clock_views() if v.skewed] == [a]

    def test_node_gets_its_clock_on_construction(self, env, net):
        node = EchoNode(env, net, "n0")
        assert node.clock is env.clock("n0")


# ----------------------------------------------------------------------
# retry(): zero-budget fix and opt-in jitter
# ----------------------------------------------------------------------

class TestRetrySatellites:
    def test_zero_attempt_budget_raises_eretry(self, env, net):
        """Regression: ``max_attempts=0`` used to ``raise None`` — a
        TypeError masking the misconfiguration."""
        node = EchoNode(env, net, "n0")
        ctx = OpContext(env, "op")

        def attempt(_attempt, _hint):
            yield env.timeout(1.0)
            return "unreachable"

        def caller():
            try:
                yield from retry(node, ctx, attempt,
                                 policy=RetryPolicy(max_attempts=0))
            except RpcFailure as failure:
                return failure
            return None

        failure = _drive(env, caller())
        assert failure is not None
        assert failure.code == RpcError.ERETRY
        assert "max_attempts=0" in failure.detail

    def test_negative_attempt_budget_raises_eretry(self, env, net):
        node = EchoNode(env, net, "n0")
        ctx = OpContext(env, "op")

        def attempt(_attempt, _hint):
            yield env.timeout(1.0)

        def caller():
            try:
                yield from retry(node, ctx, attempt,
                                 policy=RetryPolicy(max_attempts=-3))
            except RpcFailure as failure:
                return failure

        assert _drive(env, caller()).code == RpcError.ERETRY

    def test_jitter_defaults_off(self):
        policy = RetryPolicy(base_us=100.0)
        import random
        rng = random.Random(7)
        # jitter=0: the rng must never be consulted.
        assert policy.backoff_us(0, rng) == policy.backoff_us(0, None)
        assert rng.random() == random.Random(7).random()

    def test_jitter_is_seeded_and_bounded(self):
        import random
        policy = RetryPolicy(base_us=100.0, multiplier=2.0, jitter=0.25)
        a = [policy.backoff_us(i, random.Random(42)) for i in range(4)]
        b = [policy.backoff_us(i, random.Random(42)) for i in range(4)]
        assert a == b  # same seed, same spread
        for attempt, delay in enumerate(a):
            full = 100.0 * 2.0 ** attempt
            assert full * 0.75 <= delay <= full

    def test_jitter_requires_rng(self):
        policy = RetryPolicy(base_us=100.0, jitter=0.5)
        assert policy.backoff_us(0, None) == 100.0

    def test_from_config_picks_up_jitter(self):
        policy = RetryPolicy.from_config(FalconConfig(retry_jitter=0.3))
        assert policy.jitter == 0.3
        assert RetryPolicy.from_config(FalconConfig()).jitter == 0.0


# ----------------------------------------------------------------------
# link degradation: loss, latency, reorder
# ----------------------------------------------------------------------

class TestLinkDegradation:
    def _echo_many(self, env, net, count, size=256):
        client = EchoNode(env, net, "client")
        EchoNode(env, net, "server")
        replies = []

        def one(i):
            try:
                yield client.call("server", "echo", {"i": i}, size)
                replies.append(i)
            except RpcFailure:
                pass

        for i in range(count):
            env.process(one(i))
        env.run(until=env.now + 100000.0)
        return replies

    def test_seeded_loss_is_deterministic(self):
        counts = []
        for _ in range(2):
            env = Environment()
            net = Network(env, CostModel())
            EchoNode(env, net, "client")
            EchoNode(env, net, "server")
            net.degrade_link("server", loss_prob=0.5, rng_seed=99)
            client = net.node("client")
            for i in range(40):
                client.send("server", "echo", {"i": i})
            env.run()
            counts.append(net.metrics.counter("gray_lost").get("echo"))
        assert counts[0] == counts[1]
        assert 0 < counts[0] < 40  # actually lossy, not all-or-nothing

    def test_latency_factor_stretches_hops(self, env, net):
        client = EchoNode(env, net, "client")
        EchoNode(env, net, "server")

        def timed():
            start = env.now
            yield client.call("server", "echo", {})
            return env.now - start

        baseline = _drive(env, timed())
        net.degrade_link("server", latency_factor=5.0)
        degraded = _drive(env, timed())
        assert degraded > baseline * 2
        net.restore_link("server")
        assert not net.is_degraded("server")
        assert _drive(env, timed()) == pytest.approx(baseline)

    def test_fifo_without_degradation(self, env, net):
        """Property: equal-size messages on a healthy link arrive in
        send order (per-link FIFO)."""
        replies = self._echo_many(env, net, 30)
        assert replies == sorted(replies)

    def test_reorder_window_breaks_fifo(self):
        """The reorder nemesis genuinely reorders: some seed exists
        (and replays) where equal-size messages arrive out of order."""
        env = Environment()
        net = Network(env, CostModel())
        server = EchoNode(env, net, "server")
        arrivals = []
        original = server.deliver

        def spy(message):
            if message.kind == "echo":
                arrivals.append(message.payload["i"])
            return original(message)

        server.deliver = spy
        client = EchoNode(env, net, "client")
        net.degrade_link("server", reorder_window_us=400.0, rng_seed=3)
        for i in range(20):
            client.send("server", "echo", {"i": i})
        env.run()
        assert sorted(arrivals) == list(range(20))  # nothing lost
        assert arrivals != sorted(arrivals)  # genuinely reordered

    def test_degraded_cluster_ops_stay_correct(self):
        """Client invariant under the reorder/loss nemesis: operations
        retried through a degraded link still leave a cluster that
        passes every structural invariant, with zero divergence after
        the window heals."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=3, num_storage=2, replication=True,
            rpc_timeout_us=400.0, retry_jitter=0.25,
        ))
        env = cluster.env
        fs = cluster.fs()
        fs.mkdir("/d")
        cluster.run_for(3000.0)
        injector = FaultInjector(cluster)
        injector.apply({"kind": "degrade_link", "at_us": env.now + 500.0,
                        "index": 0, "duration_us": 4000.0,
                        "latency_factor": 4.0, "loss_prob": 0.25,
                        "reorder_window_us": 150.0, "rng_seed": 7})
        client = cluster.add_client(mode="libfs")
        end_at = env.now + 8000.0

        def worker(wid):
            i = 0
            while env.now < end_at:
                try:
                    yield from client.create(
                        "/d/f{}-{}".format(wid, i), exclusive=False)
                except RpcFailure:
                    pass
                i += 1

        procs = [env.process(worker(w)) for w in range(4)]
        env.run(until=env.all_of(procs))
        cluster.heal()
        cluster.run_for(20000.0)
        cluster.verify()  # raises on any violated invariant
        for mnode, standby in zip(cluster.mnodes, cluster.standbys):
            assert not divergence(mnode, standby)


# ----------------------------------------------------------------------
# slow-not-dead disk
# ----------------------------------------------------------------------

class TestSlowDisk:
    def test_ramp_math(self):
        slow = DiskSlowdown(1000.0, 2000.0, fsync_factor=9.0,
                            bandwidth_factor=5.0, ramp_us=400.0)
        assert slow.factors_at(999.0) == (1.0, 1.0)       # before
        assert slow.factors_at(1200.0) == (5.0, 3.0)      # mid-ramp
        assert slow.factors_at(1400.0) == (9.0, 5.0)      # ramp done
        assert slow.factors_at(2999.0) == (9.0, 5.0)      # holding
        assert slow.factors_at(3001.0) == (1.0, 1.0)      # cleared

    def test_window_slows_commits_then_clears(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        env = cluster.env
        fs = cluster.fs()
        fs.mkdir("/d")
        injector = FaultInjector(cluster)
        wal = cluster.mnodes[0].wal

        def timed_create(path):
            start = env.now
            fs.create(path)
            return env.now - start

        baseline = timed_create("/d/before.dat")
        injector.apply({"kind": "slow_disk", "at_us": env.now + 10.0,
                        "index": 0, "duration_us": 5000.0,
                        "fsync_factor": 20.0, "bandwidth_factor": 8.0,
                        "ramp_us": 0.001})
        cluster.run_for(100.0)
        assert wal.slow_disk is not None
        slowed = timed_create("/d/during.dat")
        assert slowed > baseline * 3
        cluster.run_for(6000.0)  # window expires
        assert wal.slow_disk is None
        recovered = timed_create("/d/after.dat")
        assert recovered == pytest.approx(baseline, rel=0.2)

    def test_reads_do_not_starve_behind_a_slow_log(self):
        """With the WAL 8x slow and more write batches waiting on it
        than the node has cores, a getattr answers as fast as on an
        idle node — its hops, dispatch and CPU: a write batch holds its
        worker only until its WAL append."""
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1,
                                             server_cores=2))
        env = cluster.env
        fs = cluster.fs(mode="libfs")
        fs.mkdir("/d")
        fs.create("/d/other")
        owner = cluster.mnodes[0]

        def call(kind, path):
            start = env.now
            reply = yield cluster.coordinator.call(owner.name, kind,
                                                   {"path": path})
            assert reply["ok"]
            return env.now - start

        idle = cluster.run_process(call("getattr", "/d/other"))
        FaultInjector(cluster).apply({
            "kind": "slow_disk", "at_us": env.now + 10.0, "index": 0,
            "duration_us": 20000.0, "fsync_factor": 8.0,
            "ramp_us": 0.001})
        cluster.run_for(100.0)
        for i in range(4):
            # Far enough apart that each create is a batch of its own.
            env.process(call("create", "/d/w{}".format(i)))
            cluster.run_for(30.0)
        wal = owner.wal
        waiting = wal.next_lsn - 1 - wal.durable_lsn
        assert waiting > cluster.config.server_cores
        assert cluster.run_process(call("getattr", "/d/other")) == \
            pytest.approx(idle)
        assert wal.next_lsn - 1 - wal.durable_lsn == waiting

    def test_heal_sweeps_slowdowns(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1))
        injector = FaultInjector(cluster)
        injector.apply({"kind": "slow_disk", "at_us": cluster.env.now + 5.0,
                        "index": 1, "duration_us": 100000.0})
        cluster.run_for(50.0)
        assert cluster.mnodes[1].wal.slow_disk is not None
        cluster.heal()
        assert cluster.mnodes[1].wal.slow_disk is None


# ----------------------------------------------------------------------
# shipper retransmission (the lossy-link protocol fixes)
# ----------------------------------------------------------------------

def _lossy_replicated_cluster():
    cluster = FalconCluster(FalconConfig(
        num_mnodes=1, num_storage=1, replication=True,
        rpc_timeout_us=400.0,
    ))
    fs = cluster.fs()
    fs.mkdir("/d")
    cluster.run_for(3000.0)
    return cluster, fs


def _commit_through_loss(cluster, fs, loss_prob=0.9, rng_seed=11):
    """Commit a burst while the standby's link eats most shipments."""
    standby = cluster.standbys[0]
    cluster.network.degrade_link(standby.name, loss_prob=loss_prob,
                                 rng_seed=rng_seed)
    for i in range(12):
        fs.create("/d/f{:02d}.dat".format(i))
    cluster.run_for(2000.0)  # in-window: shipments being lost
    cluster.network.restore_link(standby.name)


class TestShipperRetransmission:
    def test_retransmission_converges_after_loss(self):
        """The fix: the shipper re-ships its unacked suffix until the
        standby acknowledges, closing the gap once the link heals."""
        cluster, fs = _lossy_replicated_cluster()
        _commit_through_loss(cluster, fs)
        cluster.run_for(60000.0)
        assert not divergence(cluster.mnodes[0], cluster.standbys[0])
        shipper = cluster.mnodes[0].shipper
        assert shipper.resent_records > 0
        assert len(shipper.history) == 0  # acks pruned everything

    def test_retransmission_is_quiescent_when_acked(self):
        """The retransmit timer only exists while something is unacked:
        a healthy cluster still runs to quiescence."""
        cluster, fs = _lossy_replicated_cluster()
        for i in range(4):
            fs.create("/d/q{}.dat".format(i))
        cluster.run_for(5000.0)
        shipper = cluster.mnodes[0].shipper
        assert len(shipper.history) == 0
        assert not shipper._retx_armed
        assert cluster.quiesce(50000.0)

    def test_lost_ack_is_healed_by_duplicate_reack(self):
        """A lost ``wal_ack`` strands retained history; the next
        retransmission is a duplicate at the standby, which re-acks and
        lets the primary prune."""
        cluster, fs = _lossy_replicated_cluster()
        mnode, standby = cluster.mnodes[0], cluster.standbys[0]
        # Lose ~all acks (standby -> primary direction) for a while:
        # degrade the *primary's* link after the ship has left. Easiest
        # deterministic equivalent: deliver a duplicate directly.
        fs.create("/d/a.dat")
        cluster.run_for(3000.0)
        assert standby.applied_lsn >= 1
        before = standby.duplicate_shipments
        # Simulate a retransmission of an already-applied LSN.
        mnode.shipper.ship_payload(
            [("inode", (1, "zz"), None)], lsn=1)
        cluster.run_for(2000.0)
        assert standby.duplicate_shipments == before + 1
        # The duplicate must not have leaked into the reorder buffer.
        assert 1 not in standby._pending
        # And the re-ack pruned the re-retained entry.
        assert len(mnode.shipper.history) == 0

    def test_promoted_standby_ignores_zombie_shipments(self):
        """After promotion the standby's tables ARE the new primary's
        tables; a straggling shipment must not scribble on them."""
        cluster, fs = _lossy_replicated_cluster()
        mnode, standby = cluster.mnodes[0], cluster.standbys[0]
        fs.create("/d/a.dat")
        cluster.run_for(3000.0)
        standby.promote_tables()
        assert standby.promoted
        snapshot = {k: v for k, v in standby.tables["inode"].scan()}
        mnode.shipper.ship_payload([("inode", (9, "zombie"), None)])
        cluster.run_for(2000.0)
        assert standby.ignored_shipments >= 1
        assert {k: v for k, v in standby.tables["inode"].scan()} \
            == snapshot


# ----------------------------------------------------------------------
# clock skew
# ----------------------------------------------------------------------

class TestClockSkew:
    def test_skewed_client_still_completes_ops(self):
        """Deadline math runs on the node's local clock: a client whose
        clock is minutes *ahead* must still finish (its deadline is
        stamped and checked on the same skewed clock)."""
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1))
        env = cluster.env
        fs = cluster.fs()
        fs.mkdir("/d")
        client = cluster.add_client(mode="libfs")
        env.clock(client.name).skew(offset_us=5_000_000.0,
                                    drift_ppm=30000.0)

        def ops():
            yield from client.create("/d/skew.dat")
            reply = yield from client.getattr("/d/skew.dat")
            return reply

        assert _drive(env, ops()) is not None

    def test_injector_skew_heals_after_duration(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1))
        env = cluster.env
        injector = FaultInjector(cluster)
        name = cluster.mnodes[0].name
        injector.apply({"kind": "skew_clock", "at_us": env.now + 10.0,
                        "index": 0, "offset_us": 800.0,
                        "duration_us": 1000.0})
        cluster.run_for(100.0)
        assert env.clock(name).skewed
        cluster.run_for(2000.0)
        assert not env.clock(name).skewed

    def test_cluster_heal_resets_all_clocks(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1))
        cluster.env.clock(cluster.mnodes[0].name).skew(drift_ppm=1000.0)
        cluster.env.clock(cluster.coordinator.name).skew(offset_us=50.0)
        cluster.heal()
        assert not any(v.skewed for v in cluster.env.clock_views())

    def test_skewed_coordinator_never_promotes_a_live_node(self):
        """A fast coordinator clock speeds heartbeats up, but a gray
        cluster (everyone answering) must see zero real promotions."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=3, num_storage=1, replication=True,
            rpc_timeout_us=400.0,
        ))
        env = cluster.env
        fs = cluster.fs()
        fs.mkdir("/d")
        cluster.run_for(3000.0)
        cluster.start_failure_detection()
        env.clock(cluster.coordinator.name).skew(offset_us=10000.0,
                                                 drift_ppm=80000.0)
        client = cluster.add_client(mode="libfs")
        end_at = env.now + 10000.0

        def worker():
            i = 0
            while env.now < end_at:
                try:
                    yield from client.create("/d/s{}.dat".format(i),
                                             exclusive=False)
                except RpcFailure:
                    pass
                i += 1

        env.run(until=env.process(worker()))
        cluster.detector.stop()
        cluster.run_for(5000.0)
        real = [r for r in cluster.coordinator.failover_log
                if r.get("promoted") and not r.get("suppressed")
                and not r.get("deferred")]
        assert real == []


# ----------------------------------------------------------------------
# detector cadence (the joined-pings drift bug)
# ----------------------------------------------------------------------

class TestDetectorCadence:
    def test_detection_latency_floor_under_inflated_rtt(self):
        """Regression: the heartbeat loop used to sleep *after* joining
        its pings, so the effective period was interval + RTT and a
        slow link stretched detection silently.  With fixed-rate ticks,
        detection of a real crash stays at the documented
        ``miss_threshold * interval + timeout`` floor even when every
        ping's RTT is inflated close to its timeout."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=3, num_storage=1, replication=True,
            rpc_timeout_us=400.0,
        ))
        env = cluster.env
        fs = cluster.fs()
        fs.mkdir("/d")
        cluster.run_for(3000.0)
        cluster.start_failure_detection()
        # Inflate every ping RTT ~10x (to ~160us, still under the 200us
        # ping timeout so probes succeed — the pre-fix loop would have
        # stretched its period by that RTT every tick).
        for mnode in cluster.mnodes:
            cluster.network.degrade_link(mnode.name, latency_factor=10.0)
        crash_at = env.now + 2000.0
        FaultInjector(cluster).apply(
            {"kind": "crash", "at_us": crash_at, "index": 1})
        cluster.run_for(20000.0)
        cluster.detector.stop()
        assert cluster.detector.log, "crash was never detected"
        detect_us = cluster.detector.log[0]["declared_at"] - crash_at
        floor = (HEARTBEAT_MISS_THRESHOLD
                 * HEARTBEAT_INTERVAL_US + HEARTBEAT_TIMEOUT_US)
        # One extra interval of slack: the crash lands mid-tick.
        assert detect_us <= floor + HEARTBEAT_INTERVAL_US


# ----------------------------------------------------------------------
# stampede
# ----------------------------------------------------------------------

class TestStampede:
    def _cluster(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1))
        fs = cluster.fs()
        for d in range(3):
            fs.mkdir("/d{}".format(d))
            for i in range(4):
                fs.create("/d{}/f{}.dat".format(d, i))
        client = cluster.add_client(mode="libfs")
        # Warm caches: getattr through every directory.
        def warm():
            for d in range(3):
                for i in range(4):
                    yield from client.getattr("/d{}/f{}.dat".format(d, i))
        cluster.run_process(warm())
        return cluster, client

    def test_stampede_spares_owned_dentries(self):
        """Only *replica* (non-owned) dentries may be invalidated: an
        owner's INVALID record reads as authoritative ENOENT, so
        invalidating it would manufacture data loss."""
        cluster, client = self._cluster()
        injector = FaultInjector(cluster)
        owned_valid = {
            node.name: [key for key, rec in node.dentries.scan()
                        if rec.state == VALID and node._owns_dentry(key)]
            for node in cluster.mnodes
        }
        injector.apply({"kind": "stampede", "at_us": cluster.env.now})
        cluster.run_for(1.0)
        assert injector.events[0]["invalidated"] > 0
        for node in cluster.mnodes:
            for key in owned_valid[node.name]:
                assert node.dentries.get(key).state == VALID
        assert client.dcache.entries() == []

    def test_ops_survive_a_stampede(self):
        """The refetch storm after a stampede must resolve: every path
        remains readable and the cluster passes verification."""
        cluster, client = self._cluster()
        env = cluster.env
        injector = FaultInjector(cluster)
        injector.apply({"kind": "stampede", "at_us": env.now + 50.0})
        cluster.run_for(100.0)

        def reads():
            out = []
            for d in range(3):
                for i in range(4):
                    reply = yield from client.getattr(
                        "/d{}/f{}.dat".format(d, i))
                    out.append(reply)
            return out

        results = _drive(env, reads())
        assert len(results) == 12
        cluster.verify()

    def test_stampede_event_logged_with_count(self):
        cluster, _client = self._cluster()
        injector = FaultInjector(cluster)
        injector.apply({"kind": "stampede",
                        "at_us": cluster.env.now + 10.0})
        cluster.run_for(50.0)
        events = [e for e in injector.events if e["kind"] == "stampede"]
        assert len(events) == 1
        assert events[0]["invalidated"] > 0
