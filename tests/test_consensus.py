"""Tests for the quorum-replicated metadata tier (consensus groups).

Each directory slot runs a three-member group — leader MNode, one
data-holding follower, one vote-only witness — with quorum commit,
leader leases and election-based recovery.  The deterministic scenarios
here pin the safety properties the checker's tightened oracle asserts
statistically: most importantly, a minority-partitioned leader must
never acknowledge a write.
"""

import json
import random

import pytest

from repro.check import run_schedule
from repro.core import FalconCluster, FalconConfig
from repro.core.verify import check_cluster_invariants, runtime_violations
from repro.net import CostModel, Network
from repro.net.node import Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import RETRYABLE
from repro.sim import Environment
from repro.storage.consensus import (ELECTION_TIMEOUT_US, HEARTBEAT_US,
                                     ConsensusFollower, ReplicatedLog)
from tests.test_replication import replication_divergence


def _consensus_cluster(**overrides):
    kwargs = dict(num_mnodes=3, num_storage=2, replication=True,
                  consensus=True, rpc_timeout_us=400.0,
                  op_deadline_us=30000.0, retry_jitter=0.25, seed=0)
    kwargs.update(overrides)
    return FalconCluster(FalconConfig(**kwargs))


def _mkdir(cluster, path):
    client = cluster.add_client(mode="libfs", name="setup-" + path[1:])
    return cluster.run_process(client.mkdir(path))


def _name_owned_by(cluster, parent_ino, slot, prefix):
    """A filename under ``parent_ino`` that hashes to MNode ``slot``."""
    for i in range(500):
        name = "{}{}.dat".format(prefix, i)
        if cluster.coordinator.index.locate(parent_ino, name) == slot:
            return name
    raise RuntimeError("no name found for slot {}".format(slot))


def _attempt(cluster, op):
    """Run a client op generator; capture ack-or-error instead of
    raising."""
    outcome = {}

    def runner():
        try:
            yield from op
        except RpcFailure as failure:
            outcome["error"] = RpcError.name(failure.code)
        else:
            outcome["ok"] = True

    cluster.env.process(runner())
    return outcome


def _all_but(cluster, keep):
    """Every node name in the cluster except ``keep``."""
    names = ([m.name for m in cluster.mnodes]
             + [s.name for s in cluster.standbys if s is not None]
             + [w.name for w in cluster.witnesses]
             + [cluster.coordinator.name]
             + [s.name for s in cluster.storage])
    return [n for n in names if n not in keep]


class TestWiring:
    @pytest.mark.parametrize("replication", [True, False])
    def test_groups_are_built_per_slot(self, replication):
        # Consensus alone still builds the data-holding member: a group
        # of leader + witness only would ack with no quorum behind it.
        cluster = _consensus_cluster(replication=replication)
        assert len(cluster.witnesses) == len(cluster.mnodes)
        for i, mnode in enumerate(cluster.mnodes):
            assert isinstance(mnode.shipper, ReplicatedLog)
            assert isinstance(cluster.standbys[i], ConsensusFollower)
            assert cluster.coordinator.consensus_registry[i] == {
                "term": 1, "leader": mnode.name,
            }

    def test_error_taxonomy(self):
        assert RpcError.name(RpcError.ENOTLEADER) == "ENOTLEADER"
        assert RpcError.name(RpcError.ESTALE_TERM) == "ESTALE_TERM"
        assert RpcError.ENOTLEADER in RETRYABLE
        assert RpcError.ESTALE_TERM in RETRYABLE

    def test_quorum_commit_reaches_members(self):
        cluster = _consensus_cluster()
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        name = _name_owned_by(cluster, ino, 0, "q")
        cluster.run_process(client.create("/d/" + name))
        cluster.run_for(5000.0)
        log = cluster.mnodes[0].shipper
        assert log.commit_lsn >= 1
        assert log.acked_lsn >= 1
        # The witness holds positions for everything committed.
        assert cluster.witnesses[0]._last_lsn() >= log.commit_lsn


class TestFencing:
    def test_stale_term_ack_deposes_the_leader(self):
        """An ack stamped with a higher term proves a successor exists:
        the log fences permanently — no serving, no appending."""
        cluster = _consensus_cluster()
        log = cluster.mnodes[0].shipper
        log.on_ack(log.witness_name,
                   {"term": log.term + 1, "ok": False, "stale": True,
                    "match_lsn": 0, "echo": None,
                    "member": log.witness_name})
        assert log.deposed
        assert not log.leading(cluster.env.now)
        assert log.append([("inode", (1, "x"), None)]) is None

    def test_minority_partitioned_leader_never_acks(self):
        """The acceptance scenario: a client co-partitioned with the old
        leader must never see a write acknowledged — the leader cannot
        reach quorum, its lease lapses, and the majority side elects a
        successor that never held the write."""
        cluster = _consensus_cluster()
        env = cluster.env
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        slot = 0
        warm = _name_owned_by(cluster, ino, slot, "w")
        cluster.run_process(client.create("/d/" + warm))
        cluster.start_failure_detection()
        cluster.start_consensus()

        leader = cluster.mnodes[slot]
        minority = [leader.name, client.name]
        cluster.network.partition(minority, _all_but(cluster, minority))
        # The election installs the successor under a fresh incarnation
        # name; blocking it up front keeps the client in the minority
        # (partitions are name pairs, and the promotion name sequence
        # is deterministic).
        cluster.network.partition(minority, [leader.name + "-p1"])

        victim = "/d/" + _name_owned_by(cluster, ino, slot, "m")
        outcome = _attempt(cluster, client.create(victim))
        cluster.run_for(40000.0)  # past the op deadline and election
        assert "ok" not in outcome, outcome
        # The deposed leader holds the write as an uncommitted suffix:
        # appended locally, never quorum-committed, never acked.
        assert leader.shipper.quorum_failures > 0
        assert leader.shipper.commit_lsn < leader.shipper.last_lsn

        elected = [r for r in cluster.coordinator.failover_log
                   if r.get("elected")]
        assert elected and elected[0]["index"] == slot
        assert cluster.mnodes[slot].name != leader.name

        cluster.heal()
        cluster.run_for(20000.0)
        # The unacked write died with the deposed leader's term.
        probe = _attempt(cluster, client.getattr(victim))
        cluster.run_for(10000.0)
        assert probe.get("error") == "ENOENT", probe
        # ... while the quorum-acked warm-up write survived.
        survivor = _attempt(cluster, client.getattr("/d/" + warm))
        cluster.run_for(10000.0)
        assert survivor.get("ok"), survivor
        assert env.now > 0

    def test_deaf_leader_fences_instead_of_acking(self):
        """Inbound asymmetric partition: members still hear the leader
        (so nobody times out into an election) but their acks are lost.
        The lease lapses and writes fail rather than ack without
        quorum."""
        cluster = _consensus_cluster()
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        slot = 0
        cluster.run_process(
            client.create("/d/" + _name_owned_by(cluster, ino, slot, "w")))
        cluster.start_failure_detection()
        cluster.start_consensus()

        leader = cluster.mnodes[slot]
        members = [cluster.standbys[slot].name,
                   cluster.witnesses[slot].name]
        cluster.network.partition_directed(members, [leader.name])

        victim = "/d/" + _name_owned_by(cluster, ino, slot, "x")
        outcome = _attempt(cluster, client.create(victim))
        cluster.run_for(40000.0)
        assert "ok" not in outcome, outcome
        assert leader.shipper.quorum_failures > 0
        # Appends kept flowing, so the follower never stood for election.
        assert not any(r.get("elected")
                       for r in cluster.coordinator.failover_log)
        assert cluster.mnodes[slot] is leader

        cluster.heal()
        cluster.run_for(20000.0)
        diffs = replication_divergence(cluster)
        assert not diffs[cluster.mnodes[slot].name]


class TestElection:
    def test_split_brain_leader_keeps_quorum_through_witness(self):
        """Leader and witness on one side: 2-of-3, so the leader keeps
        serving — and the isolated follower (witness unreachable) can
        never be elected."""
        cluster = _consensus_cluster()
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        slot = 0
        cluster.run_process(
            client.create("/d/" + _name_owned_by(cluster, ino, slot, "w")))
        cluster.start_failure_detection()
        cluster.start_consensus()

        leader = cluster.mnodes[slot]
        side = [leader.name, cluster.witnesses[slot].name, client.name]
        cluster.network.partition(side, _all_but(cluster, side))

        path = "/d/" + _name_owned_by(cluster, ino, slot, "s")
        outcome = _attempt(cluster, client.create(path))
        cluster.run_for(15000.0)
        assert outcome.get("ok"), outcome
        assert not any(r.get("elected")
                       for r in cluster.coordinator.failover_log)
        assert cluster.standbys[slot].elections_won == 0
        assert cluster.mnodes[slot] is leader

        cluster.heal()
        cluster.run_for(20000.0)
        diffs = replication_divergence(cluster)
        assert not diffs[cluster.mnodes[slot].name]

    def test_leader_crash_elects_follower_and_machine_rejoins(self):
        cluster = _consensus_cluster()
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        slot = 0
        cluster.run_process(
            client.create("/d/" + _name_owned_by(cluster, ino, slot, "w")))
        cluster.start_failure_detection()
        cluster.start_consensus()

        old_name = cluster.mnodes[slot].name
        cluster.crash_mnode(slot)
        cluster.run_for(20000.0)

        elected = [r for r in cluster.coordinator.failover_log
                   if r.get("elected")]
        assert elected and elected[0]["index"] == slot
        assert elected[0]["failed"] == old_name
        assert cluster.coordinator.consensus_registry[slot]["term"] > 1
        # The new leader serves quorum-committed writes.
        outcome = _attempt(
            cluster,
            client.create("/d/" + _name_owned_by(cluster, ino, slot, "n")))
        cluster.run_for(10000.0)
        assert outcome.get("ok"), outcome

        # The crashed machine restarts into the follower role.
        cluster.run_process(cluster.restart_mnode(slot))
        cluster.run_for(5000.0)
        follower = cluster.standbys[slot]
        assert follower is not None and follower.name == old_name

        cluster.heal()
        cluster.run_for(20000.0)
        diffs = replication_divergence(cluster)
        assert not diffs[cluster.mnodes[slot].name]

    def test_boot_from_an_elected_follower_applies_its_whole_log(self):
        """An elected follower's log holds an entry above its commit
        horizon: the booted leader applies it too, and its group is
        re-based at the log end under the claim's term."""
        from repro.core.mnode import MNode
        from repro.core.records import InodeRecord

        cluster = _consensus_cluster()
        follower = cluster.standbys[0]
        keys = [(1, "committed"), (1, "suffix")]
        follower.entries = [
            (lsn, 1, [("inode", key, InodeRecord(ino=90 + lsn))])
            for lsn, key in enumerate(keys, start=1)]
        follower.commit_lsn = 1
        follower.start_elections()
        node = MNode(cluster.env, cluster.network, cluster.shared, 0,
                     name="mnode-0-elected")
        node.boot(follower, cluster.coordinator._grant(term=5))
        assert [node.inodes.get(key).ino for key in keys] == [91, 92]
        assert follower.promoted and not follower._running
        log = node.shipper
        assert (log.base_lsn, log.base_term, log.term) == (2, 1, 5)
        assert node.wal.term == 5
        assert list(log.members) == [follower.witness_name]

    def test_register_resumes_an_unmoved_slot_under_a_bumped_term(self):
        """A leader that crashed and restarted before any election is
        primary again, under a term the coordinator bumped."""
        cluster = _consensus_cluster()
        _mkdir(cluster, "/d")
        cluster.crash_mnode(0)
        record = cluster.run_process(cluster.restart_mnode(0))
        assert record["role"] == "primary"
        assert cluster.coordinator.consensus_registry[0] == {
            "term": 2, "leader": "mnode-0"}
        assert cluster.mnodes[0].shipper.term == 2
        assert cluster.network.message_count("register") == 1


@pytest.mark.parametrize("role", ["standbys", "witnesses"])
def test_group_members_refuse_a_kind_they_can_never_own(role):
    """A follower (through ``Standby``'s hook) and a witness answer a
    message no group member owns — a 2PC abort addressed to the name an
    MNode used to hold — with ENOTLEADER and count it; raising would
    crash the whole run (signature A of the PR-20 red-seed census)."""
    cluster = _consensus_cluster()
    member = getattr(cluster, role)[0]

    def abort():
        try:
            yield cluster.coordinator.call(
                member.name, "rename_abort", {"txid": 1})
        except RpcFailure as failure:
            return failure.code

    assert cluster.run_process(abort()) == RpcError.ENOTLEADER
    assert member.metrics.counter("unowned_messages").by_label() == {
        "rename_abort": 1}


def test_an_unknown_kind_is_refused_by_a_witness_and_raises_at_an_mnode():
    """``Node.handle`` sends a kind with no ``_on_<kind>`` to the role's
    ``_unhandled`` hook: a witness refuses it and counts it, an MNode
    keeps the default and raises."""
    cluster = _consensus_cluster()
    witness, mnode = cluster.witnesses[0], cluster.mnodes[0]

    def bogus(name):
        try:
            yield cluster.coordinator.call(name, "bogus", {})
        except RpcFailure as failure:
            return failure.code

    assert cluster.run_process(bogus(witness.name)) == RpcError.ENOTLEADER
    assert witness.metrics.counter("unowned_messages").by_label() == {
        "bogus": 1}
    with pytest.raises(RuntimeError, match="cannot handle"):
        cluster.run_process(bogus(mnode.name))


def test_a_follower_ignores_legacy_shipping():
    """A ``wal_ship`` reaching a consensus follower is counted and
    dropped: its records never apply and it is never answered."""
    cluster = _consensus_cluster()
    follower = cluster.standbys[0]
    ignored, applied = follower.ignored_shipments, follower.applied_lsn
    reply = cluster.coordinator.call(follower.name, "wal_ship", {
        "lsn": applied + 1, "records": [("inode", (1, "x"), None)]})
    cluster.run_for(1000.0)
    assert follower.ignored_shipments == ignored + 1
    assert follower.applied_lsn == applied
    assert not reply.triggered


class TestLiveness:
    """Under consensus each group's election timer is its only failure
    detector, and ``heal()`` settles the groups only until they have
    converged."""

    def test_detected_at_is_the_election_timer_firing(self):
        cluster = _consensus_cluster()
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        slot = 0
        cluster.run_process(
            client.create("/d/" + _name_owned_by(cluster, ino, slot, "w")))
        assert cluster.start_failure_detection() is None
        cluster.start_consensus()

        cluster.run_for(3 * HEARTBEAT_US)
        crash_at = cluster.env.now
        cluster.crash_mnode(slot)
        cluster.run_for(20000.0)

        (record,) = [r for r in cluster.coordinator.failover_log
                     if r.get("elected")]
        # The follower last heard a heartbeat at most one beat before
        # the crash; its timer fires no sooner than a timeout later.
        assert (crash_at + ELECTION_TIMEOUT_US - HEARTBEAT_US
                <= record["detected_at"] < record["promoted_at"])
        assert cluster.network.message_count("ping") == 0

    def _settled_beats(self, cluster):
        before = cluster.env.now
        cluster.heal()
        return round((cluster.env.now - before) / HEARTBEAT_US)

    def test_converged_groups_settle_within_two_beats(self):
        cluster = _consensus_cluster()
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        cluster.start_consensus()
        cluster.run_process(
            client.create("/d/" + _name_owned_by(cluster, ino, 0, "c")))
        assert self._settled_beats(cluster) <= 2
        assert cluster._groups_converged()

    def test_hung_follower_holds_the_settle_to_its_cap(self):
        cluster = _consensus_cluster()
        ino = _mkdir(cluster, "/d")
        client = cluster.add_client(mode="libfs")
        cluster.start_consensus()
        follower = cluster.standbys[0]
        cluster.network.set_down(follower.name)
        # Leader + witness still commit; the hung follower falls behind.
        cluster.run_process(
            client.create("/d/" + _name_owned_by(cluster, ino, 0, "h")))
        assert self._settled_beats(cluster) == 10
        assert not cluster._groups_converged()
        cluster.network.set_up(follower.name)


class TestVotedRename:
    """A rename participant's vote is a quorum-committed row, so the
    follower elected after the vote inherits it: the election install
    restages the half — lock pairs, slot pin, in-doubt resolver —
    before the new leader receives a message."""

    def test_elected_follower_holds_the_vote_until_the_decision(self):
        cluster = _consensus_cluster()
        env = cluster.env
        ino = _mkdir(cluster, "/d")
        slot = 0
        src, other = (_name_owned_by(cluster, ino, slot, prefix)
                      for prefix in ("a", "c"))
        # On another slot: a rename one MNode owns commits in its vote.
        dst = _name_owned_by(cluster, ino, 1, "b")
        client = cluster.add_client(mode="libfs")
        cluster.run_process(client.create("/d/" + src))
        cluster.start_failure_detection()
        cluster.start_consensus()
        leader = cluster.mnodes[slot]
        coordinator = cluster.coordinator

        # Both votes land; the leader is cut off as the decision leaves.
        real_call = coordinator.call

        def call(target, kind, *args, **kwargs):
            if kind == "rename_commit" and target == leader.name:
                minority = [leader.name]
                cluster.network.partition(
                    minority,
                    _all_but(cluster, minority) + [leader.name + "-p1"])
            return real_call(target, kind, *args, **kwargs)

        coordinator.call = call
        seen = {}
        real_install = coordinator.install_leader

        def probe(node):
            yield env.timeout(300.0)
            seen["queued"] = node.locks.queue_length(("d", ino, src))
            seen["still_staged"] = sorted(node._staged)

        def install(index, grant, claim=None):
            node, lost = real_install(index, grant, claim)
            seen["restaged"] = sorted(node._staged)
            # A second rename of the same ino, before the decision lands.
            seen["second"] = _attempt(cluster, client.rename(
                "/d/" + src, "/d/" + other))
            env.process(probe(node))
            return node, lost

        coordinator.install_leader = install
        first = _attempt(cluster, client.rename("/d/" + src, "/d/" + dst))
        cluster.run_for(40000.0)
        cluster.heal()
        assert cluster.quiesce(1_000_000.0)
        fs = cluster.fs()
        assert [fs.exists("/d/" + name) for name in (src, dst, other)] == [
            False, True, False]
        # Answered at the decision: the commit to the cut-off leader
        # runs behind the answer, and the elected follower's restaged
        # vote resolves to it.
        assert first == {"ok": True}, first
        assert "ok" not in seen["second"], seen["second"]
        assert cluster.mnodes[slot] is not leader
        (txid,) = seen["restaged"]
        assert seen["queued"] == 1 and seen["still_staged"] == [txid]
        assert cluster.mnodes[slot].metrics.counter(
            "rename_restaged").total() == 1
        assert runtime_violations(cluster) == []
        check_cluster_invariants(cluster)


def test_rename_vote_election_reproducer_replays_clean():
    """Election seed 985, shrunk to 32 ops and two partitions at the
    commit before votes became rows (signature C).  The vote was a WAL
    record with no rows, answered before a quorum held it; the elected
    follower had neither the half nor its locks, a later rename moved
    the ino, and the re-delivered decision then inserted it under a
    second name."""
    with open("tests/golden/rename_vote_election_schedule.json") as handle:
        schedule = json.load(handle)
    assert run_schedule(schedule)["violations"] == []


class _Leader(Node):
    """Sends ``append_entries`` by hand and keeps every ack."""

    def __init__(self, env, network):
        super().__init__(env, network, "leader")
        self.acks = []

    def handle(self, message):
        self.acks.append(message.payload)
        yield from ()

    def append(self, term, prev, entries, commit_lsn=0):
        self.send("follower", "append_entries", {
            "term": term, "leader": self.name, "prev": list(prev),
            "base": [0, 0], "entries": entries, "commit_lsn": commit_lsn,
            "echo": self.env.now})
        self.env.run()


class TestConflictTruncation:
    """A follower holding an uncommitted term-1 suffix hears a term-2
    leader: a conflicting suffix is truncated, never a committed one.
    No checker schedule reaches this path (ROADMAP items 4 and 12)."""

    @pytest.fixture
    def pair(self):
        env = Environment()
        network = Network(env, CostModel())
        leader = _Leader(env, network)
        follower = ConsensusFollower(env, network, "follower", 0, "witness",
                                     "coordinator", random.Random(0))
        leader.append(1, (0, 0), [(lsn, 1, []) for lsn in (1, 2, 3)],
                      commit_lsn=1)
        assert [e[:2] for e in follower.entries] == [(1, 1), (2, 1), (3, 1)]
        assert follower.commit_lsn == 1 and leader.acks[-1]["ok"]
        return leader, follower

    def test_conflicting_prev_truncates_and_nacks(self, pair):
        leader, follower = pair
        leader.append(2, (3, 2), [(4, 2, [])])
        assert [e[:2] for e in follower.entries] == [(1, 1), (2, 1)]
        assert follower.truncations == 1
        assert not leader.acks[-1]["ok"]
        assert leader.acks[-1]["match_lsn"] == 2

    def test_conflicting_entry_truncates_then_appends(self, pair):
        leader, follower = pair
        leader.append(2, (1, 1), [(2, 2, []), (3, 2, [])])
        assert [e[:2] for e in follower.entries] == [(1, 1), (2, 2), (3, 2)]
        assert follower.truncations == 1
        assert leader.acks[-1]["ok"] and leader.acks[-1]["match_lsn"] == 3

    def test_truncating_a_committed_entry_raises(self, pair):
        leader, follower = pair
        with pytest.raises(RuntimeError, match="committed entry 1"):
            leader.append(2, (0, 0), [(1, 2, [])])
        assert follower.truncations == 0
