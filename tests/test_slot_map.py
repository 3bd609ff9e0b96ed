"""Elastic slot map: epoch-fence properties under fuzzing.

Two layers pin the handoff-safety story down:

* **model fuzz** — :class:`~repro.core.shared.SlotMap` against a plain
  dict model under random ``assign``/``patch``/``copy`` interleavings: per-slot versions decide patches, the global epoch is
  the max version, and copies never alias;
* **fence fuzz** — a live cluster under random migrate / lookup /
  crash-restart interleavings: once a slot's handoff commits at epoch
  N+1, the pre-migration owner must bounce every request for that slot
  (``EMOVED`` naming the destination) and never acknowledge — including
  after the old owner crash-restarts (the durable fence marker), so a
  client still holding epoch N can never extract an ack from it.
"""

import random

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.shared import SlotMap
from repro.net.rpc import RpcError, RpcFailure

# ----------------------------------------------------------------------
# model fuzz: SlotMap semantics
# ----------------------------------------------------------------------


def test_patch_accepts_independent_slots_out_of_order():
    """Regression: a client that absorbed a high-epoch hint about one
    slot must still accept an older hint about a different slot it has
    never heard about — per-slot versions, not one global gate."""
    client = SlotMap(range(4))
    assert client.patch(0, 3, 5)      # slot 0 moved at epoch 5
    assert client.patch(1, 2, 3)      # slot 1 moved (earlier) at epoch 3
    assert client.node_of(0) == 3
    assert client.node_of(1) == 2
    assert client.epoch == 5
    # But a stale hint about an already-patched slot stays rejected.
    assert not client.patch(0, 1, 4)
    assert client.node_of(0) == 3


def test_assign_bumps_epoch_and_version():
    m = SlotMap(range(3))
    assert m.assign(2, 0) == 1
    assert m.version_of(2) == 1
    assert m.version_of(0) == 0
    assert m.assign(2, 1) == 2
    assert m.node_of(2) == 1


@pytest.mark.parametrize("seed", range(10))
def test_slot_map_model_fuzz(seed):
    """Authoritative map + a fleet of stale client copies, driven by
    random assigns and hint replays (in random order, duplicated and
    delayed): every client copy must converge to the authoritative
    assignment once it has seen every slot's latest hint."""
    rng = random.Random(seed)
    num_slots, num_nodes = 8, 4
    auth = SlotMap(i % num_nodes for i in range(num_slots))
    clients = [auth.copy() for _ in range(3)]
    hints = []  # every (slot, node, epoch) the authority ever advertised

    for _ in range(60):
        action = rng.random()
        if action < 0.45:
            slot = rng.randrange(num_slots)
            node = rng.randrange(num_nodes)
            epoch = auth.assign(slot, node)
            assert epoch == auth.version_of(slot)
            hints.append((slot, node, epoch))
        elif hints:
            # Replay a random (possibly stale, possibly duplicate) hint
            # at a random client.
            client = rng.choice(clients)
            slot, node, epoch = rng.choice(hints)
            before = client.version_of(slot)
            applied = client.patch(slot, node, epoch)
            assert applied == (epoch > before)
            if applied:
                assert client.node_of(slot) == node

        # Invariants that hold at every step.
        assert auth.epoch == max([0] + auth.versions)
        for client in clients:
            assert client.epoch <= auth.epoch
            for slot in range(num_slots):
                # A client can never believe something the authority
                # never advertised at that version.
                v = client.version_of(slot)
                if v > 0:
                    assert (slot, client.node_of(slot), v) in hints

    # Deliver every slot's latest hint: all copies must converge.
    latest = {}
    for slot, node, epoch in hints:
        if epoch > latest.get(slot, (None, 0))[1]:
            latest[slot] = (node, epoch)
    for client in clients:
        for slot, (node, epoch) in latest.items():
            client.patch(slot, node, epoch)
        assert client.owners == auth.owners


def test_copy_does_not_alias():
    m = SlotMap(range(3))
    c = m.copy()
    m.assign(0, 2)
    assert c.node_of(0) == 0
    assert c.version_of(0) == 0


# ----------------------------------------------------------------------
# fence fuzz: pre-migration owners never ack after the epoch installs
# ----------------------------------------------------------------------


def _key_in_slot(index, pid, slot):
    """An inode key under directory ``pid`` that hashes to ``slot``."""
    for j in range(4096):
        name = "probe{}.dat".format(j)
        if index.locate(pid, name) == slot:
            return (pid, name)
    raise AssertionError("no probe name found for slot {}".format(slot))


def _assert_bounced(mnode, key, expect_node, expect_epoch):
    """The fence property: the pre-migration owner must refuse ``key``
    with EMOVED naming the destination and the installed epoch."""
    with pytest.raises(RpcFailure) as exc:
        mnode._check_hosted(key)
    assert exc.value.code == RpcError.EMOVED
    detail = exc.value.detail
    assert detail["node"] == expect_node
    assert detail["epoch"] >= expect_epoch


@pytest.mark.parametrize("seed", range(6))
def test_pre_migration_owner_never_acks_after_epoch_installs(seed):
    """Fuzz migrate / lookup / crash interleavings on a live cluster.

    After every committed handoff of slot ``s`` (src -> dst at epoch
    ``e``), probing the old owner's hosted-check for a key in ``s``
    must raise EMOVED — the gate every ack passes through — and keep
    doing so across a crash-restart of the old owner, unless a later
    migration handed the slot back (version supersedes)."""
    rng = random.Random(seed)
    # rpc_timeout + op_deadline are the faulted-run contract (a call to
    # a crashed peer must fail, not wedge an op holding a slot writer
    # the fence would wait on forever).
    config = FalconConfig(num_mnodes=3, num_storage=2, replication=True,
                          rpc_timeout_us=400.0, op_deadline_us=30000.0,
                          num_slots=9, seed=seed)
    cluster = FalconCluster(config)
    env = cluster.env
    coordinator = cluster.coordinator
    fs = cluster.fs()
    dir_inos = {}
    for d in range(3):
        dir_inos["/d{}".format(d)] = fs.mkdir("/d{}".format(d))
    cluster.run_for(4000.0)

    client = cluster.add_client(mode="libfs")
    stop = {"flag": False}

    def traffic():
        i = 0
        while not stop["flag"]:
            path = "/d{}/t{}.dat".format(i % 3, i)
            try:
                yield from client.create(path, exclusive=False)
            except RpcFailure:
                pass
            i += 1
            yield env.timeout(120.0)

    env.process(traffic())

    committed = {}  # slot -> (old owner index, dest index, epoch)
    down = set()

    for _ in range(12):
        roll = rng.random()
        if roll < 0.55:
            # Migrate a random slot to a random destination.
            slot = rng.randrange(config.num_slots or 9)
            dest = rng.randrange(3)
            src = cluster.shared.slot_map.node_of(slot)
            if src == dest or src in down or dest in down:
                continue
            record = cluster.run_process(
                coordinator.migrate_slot(slot, dest, reason="fuzz"))
            if record is not None and record["status"] == "committed":
                committed[slot] = (src, dest, record["epoch"])
        elif roll < 0.75 and not down:
            index = rng.randrange(3)
            cluster.crash_mnode(index)
            down.add(index)
            cluster.run_for(rng.uniform(300.0, 900.0))
            cluster.run_process(cluster.restart_mnode(index))
            down.discard(index)
            cluster.run_for(1500.0)
        else:
            cluster.run_for(rng.uniform(500.0, 1500.0))

        # The fence property, after every step.
        slot_map = cluster.shared.slot_map
        index = coordinator.index
        pid = dir_inos["/d0"]
        for slot, (src, dest, epoch) in committed.items():
            if slot_map.node_of(slot) == src or src in down:
                continue  # handed back later / currently crashed
            key = _key_in_slot(index, pid, slot)
            _assert_bounced(cluster.mnodes[src], key,
                            slot_map.node_of(slot),
                            slot_map.version_of(slot))

    stop["flag"] = True
    cluster.run_for(3000.0)
    cluster.verify()
