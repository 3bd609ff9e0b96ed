"""Crash every step of a two-node slot handoff.

Two MNodes, four directory slots, no replication.  The coordinator's
``_slot_call`` is wrapped so that right after step *k* of the saga
returns (snapshot, install, fence, activate, purge) one create and one
unlink are acknowledged in the migrating slot — only while some node
serves it, so never between fence and activate — and then the *victim*
(the handoff's source or destination) crashes.  The victim restarts
either before the saga's next step goes out, or only at ``heal()``.

Whatever the step, the victim and the restart timing, the handoff must
keep every acknowledged write, leave the cluster audit-clean, and end
with exactly one node serving the slot: the one the slot map names.
The outcome (committed, or aborted in some phase) is pinned per case,
so the abort path — destination discard, source reclaim and the epoch
burn — runs here on every tier-1 pass.
"""

from itertools import count

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.coordinator import Coordinator
from repro.core.mnode import MNode
from repro.core.verify import runtime_violations
from repro.net.rpc import RpcError, RpcFailure

STEPS = ("slot_snapshot", "slot_install", "slot_fence", "slot_activate",
         "slot_purge")
SLOT, SRC, DST = 0, 0, 1
VICTIMS = {"source": SRC, "destination": DST}

#: (step, victim, restart before the next step?) -> how the saga ends.
#: A step whose next step is addressed to the dead victim fails over its
#: bounded attempts and aborts, unless the victim is back in time; from
#: activate on, the saga is past its point of no return and re-delivers
#: until the victim answers.
OUTCOMES = {
    ("slot_snapshot", "source", True): "committed",
    ("slot_snapshot", "source", False): "aborted:fence",
    ("slot_snapshot", "destination", True): "committed",
    ("slot_snapshot", "destination", False): "aborted:install",
    ("slot_install", "source", True): "committed",
    ("slot_install", "source", False): "aborted:fence",
    ("slot_install", "destination", True): "committed",
    ("slot_install", "destination", False): "committed",
    ("slot_fence", "source", True): "committed",
    ("slot_fence", "source", False): "committed",
    ("slot_fence", "destination", True): "committed",
    ("slot_fence", "destination", False): "committed",
    ("slot_activate", "source", True): "committed",
    ("slot_activate", "source", False): "committed",
    ("slot_activate", "destination", True): "committed",
    ("slot_activate", "destination", False): "committed",
    ("slot_purge", "source", True): "committed",
    ("slot_purge", "source", False): "committed",
    ("slot_purge", "destination", True): "committed",
    ("slot_purge", "destination", False): "committed",
}


def _names_in_slot(cluster, d_ino):
    """Names whose key under directory ``d_ino`` hashes to ``SLOT``."""
    return (name for name in map("f{}".format, count())
            if cluster.coordinator.index.locate(d_ino, name) == SLOT)


def _run_case(step, victim_role, early, monkeypatch):
    cluster = FalconCluster(FalconConfig(
        num_mnodes=2, num_storage=1, num_slots=4, rpc_timeout_us=400.0))
    coordinator = cluster.coordinator
    victim = VICTIMS[victim_role]
    fs = cluster.fs()
    fs.mkdir("/d")
    d_ino = fs.getattr("/d")["ino"]
    in_slot = ("/d/" + name for name in _names_in_slot(cluster, d_ino))
    doomed = [next(in_slot) for _ in STEPS]
    for path in doomed:
        fs.create(path)
    fresh = [next(in_slot) for _ in STEPS]
    client = fs.client
    created, unlinked = [], []
    real = Coordinator._slot_call

    def slot_call(self, node_index, kind, payload, attempts=1):
        if early and victim in cluster._crashed:
            yield from cluster.restart_mnode(victim)
        reply = yield from real(self, node_index, kind, payload, attempts)
        if kind == step and not cluster.crash_log:
            i = STEPS.index(kind)
            # Nobody serves the slot between fence and activate.
            if kind != "slot_fence":
                yield from client.create(fresh[i])
                created.append(fresh[i])
                yield from client.unlink(doomed[i])
                unlinked.append(doomed[i])
            cluster.crash_mnode(victim)
        return reply

    monkeypatch.setattr(Coordinator, "_slot_call", slot_call)
    saga = cluster.env.process(coordinator.migrate_slot(SLOT, DST,
                                                        reason="test"))
    cluster.run_for(60_000.0)
    if early and victim in cluster._crashed:
        cluster.run_process(cluster.restart_mnode(victim))
    cluster.heal()
    assert cluster.quiesce(1_000_000.0)
    assert saga.triggered and coordinator.migrations == {}
    return cluster, saga.value, created, unlinked


def _cases():
    for step in STEPS:
        for victim_role in sorted(VICTIMS):
            for early in (True, False):
                yield pytest.param(
                    step, victim_role, early,
                    id="{}-{}-{}".format(
                        step, victim_role,
                        "restart-before-next-step" if early
                        else "restart-at-heal"))


@pytest.mark.parametrize("step,victim_role,early", _cases())
def test_crash_after_step(step, victim_role, early, monkeypatch):
    cluster, record, created, unlinked = _run_case(step, victim_role,
                                                   early, monkeypatch)
    monkeypatch.undo()
    check = cluster.fs()
    for path in created:
        assert check.exists(path), "acked create {} lost".format(path)
    for path in unlinked:
        assert not check.exists(path), "acked unlink {} undone".format(
            path)
    cluster.verify()
    assert runtime_violations(cluster) == []
    owner = cluster.shared.slot_map.node_of(SLOT)
    serving = [i for i, mnode in enumerate(cluster.mnodes)
               if mnode.serves(SLOT)]
    assert serving == [owner]
    outcome = record["status"]
    if outcome == "aborted":
        outcome += ":" + record["aborted_phase"]
    assert outcome == OUTCOMES[step, victim_role, early]
    assert owner == (DST if outcome == "committed" else SRC)


# ----------------------------------------------------------------------
# slot-state audit: memory equals what a restart rebuilds
# ----------------------------------------------------------------------

def _migrate_back_with_failed_fence(monkeypatch):
    """Hand slot 0 from node 0 to node 1, then try to hand it back with
    a fence that never answers: node 0 installs (pending, keeping the
    first handoff's hint) and the abort discards its copy."""
    cluster = FalconCluster(FalconConfig(
        num_mnodes=2, num_storage=1, num_slots=4, rpc_timeout_us=400.0))
    cluster.fs().mkdir("/d")
    coordinator = cluster.coordinator
    first = cluster.run_process(coordinator.migrate_slot(SLOT, DST))
    assert first["status"] == "committed"
    real = Coordinator._slot_call

    def slot_call(self, node_index, kind, payload, attempts=1):
        if kind == "slot_fence":
            raise RpcFailure(RpcError.ETIMEDOUT, kind)
        reply = yield from real(self, node_index, kind, payload, attempts)
        return reply

    monkeypatch.setattr(Coordinator, "_slot_call", slot_call)
    back = cluster.run_process(coordinator.migrate_slot(SLOT, SRC))
    assert (back["status"], back["aborted_phase"]) == ("aborted", "fence")
    assert cluster.quiesce(1_000_000.0)
    return cluster, first["epoch"]


def test_discard_writes_the_earlier_moved_marker_back(monkeypatch):
    cluster, epoch = _migrate_back_with_failed_fence(monkeypatch)
    moved = {"state": "moved", "node": DST, "epoch": epoch}
    assert cluster.mnodes[SRC].slots[SLOT] == moved
    assert cluster.mnodes[SRC].meta.get(("slot", SLOT)) == moved
    assert runtime_violations(cluster) == []
    cluster.verify()


def test_slot_state_audit_catches_a_skipped_marker_write(monkeypatch):
    real = MNode._on_slot_discard

    def discard_skipping_marker_write(self, message):
        key = ("slot", message.payload["slot"])
        before = self.meta.get(key)
        yield from real(self, message)
        self.meta.put(key, before)      # the disk still says pending

    monkeypatch.setattr(MNode, "_on_slot_discard",
                        discard_skipping_marker_write)
    cluster, _ = _migrate_back_with_failed_fence(monkeypatch)
    violations = runtime_violations(cluster)
    assert [v["invariant"] for v in violations] == ["slot-state"]
    assert violations[0]["node"] == cluster.mnodes[SRC].name
    assert violations[0]["slots"] == [SLOT]


# ----------------------------------------------------------------------
# the fence reads its delta from the WAL
# ----------------------------------------------------------------------

def _ask(cluster, node, kind, payload):
    reply = cluster.coordinator.call(node.name, kind, payload)
    reply.defused = True
    cluster.run_for(5000.0)
    assert reply.triggered
    return reply


def test_fence_is_idempotent_and_refuses_a_foreign_since():
    cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1,
                                         num_slots=4))
    fs = cluster.fs()
    fs.mkdir("/d")
    src = cluster.mnodes[SRC]
    snapshot = _ask(cluster, src, "slot_snapshot", {"slot": SLOT}).value
    assert snapshot["incarnation"] == src.name
    d_ino = fs.getattr("/d")["ino"]
    name = next(_names_in_slot(cluster, d_ino))
    fs.create("/d/" + name)
    fence = {"slot": SLOT, "node": DST, "epoch": 1,
             "since": snapshot["since"], "incarnation": "mnode-0-p1"}
    refused = _ask(cluster, src, "slot_fence", fence)
    assert not refused.ok and refused.value.code == RpcError.EINVAL
    assert src.serves(SLOT)
    fence["incarnation"] = src.name
    first = _ask(cluster, src, "slot_fence", fence).value["delta"]
    assert (d_ino, name) in [key for _, key, _ in first]
    assert _ask(cluster, src, "slot_fence", fence).value["delta"] == first
    assert src.slots[SLOT] == {"state": "moved", "node": DST, "epoch": 1}


# ----------------------------------------------------------------------
# a stampede while the destination holds the slot pending
# ----------------------------------------------------------------------

def test_stampede_while_pending_spares_the_installed_dentries(monkeypatch):
    """The install rebuilds the slot's dentries from the rows it copied,
    so the pending destination derives them from its own inodes, like
    the serving source does: a stampede must spare them.  Invalidated,
    they would read as "gone" once activate makes the destination
    their owner, and the directory would vanish with its subtree."""
    from repro.faults.injector import FaultInjector
    from repro.vfs.attrs import ROOT_INO

    cluster = FalconCluster(FalconConfig(
        num_mnodes=2, num_storage=1, num_slots=4, rpc_timeout_us=400.0))
    fs = cluster.fs()
    directory = "/" + next(_names_in_slot(cluster, ROOT_INO))
    fs.mkdir(directory)
    fs.create(directory + "/file")
    injector = FaultInjector(cluster)
    real = Coordinator._slot_call

    def slot_call(self, node_index, kind, payload, attempts=1):
        reply = yield from real(self, node_index, kind, payload, attempts)
        if kind == "slot_install":
            injector.apply({"kind": "stampede", "at_us": cluster.env.now})
        return reply

    monkeypatch.setattr(Coordinator, "_slot_call", slot_call)
    record = cluster.run_process(cluster.coordinator.migrate_slot(SLOT, DST))
    assert record["status"] == "committed"
    assert [event["kind"] for event in injector.events] == ["stampede"]
    monkeypatch.undo()
    check = cluster.fs()
    assert check.is_dir(directory)
    assert check.exists(directory + "/file")
    cluster.verify()
    assert runtime_violations(cluster) == []
