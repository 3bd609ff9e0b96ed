"""Online slot migration: the nemesis family, the planted-bug gate,
and the handoff/failover interaction.

Four layers:

* **planted bug** — with a broken handoff monkeypatched into
  ``MNode`` (the destination activates a migrated slot before the
  fenced delta is applied) the checker's migrate mix must catch the
  resulting loss
  within 50 seeds, and ddmin must shrink the reproducer to a handful
  of ops; the identical schedule without the plant stays clean, so the
  oracle is detecting the bug and not background noise;
* **golden trace** — a fixed two-handoff schedule reproduces its
  committed digest bit-for-bit (``tests/golden/migration_trace.json``);
* **determinism** — ``check run --nemesis-mix migrate`` emits a
  byte-identical verdict stream at ``--jobs 1`` and ``--jobs 3``;
* **deferred failover** — a node that is mid-handoff (source or
  destination of an active migration) must NOT be failed over: the
  standby's pre-fence image would resurrect or erase the migrating
  slot.  The coordinator defers until the saga resolves.
"""

import json

import pytest

from repro.check.runner import run_schedule
from repro.check.schedule import generate_schedule
from repro.check.shrink import shrink
from repro.core import FalconCluster, FalconConfig
from repro.core.mnode import SERVING, MNode
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import RetryPolicy
from tests.golden_migration_workload import (
    MIGRATION_GOLDEN_PATH,
    run_migration_golden,
)

# ----------------------------------------------------------------------
# the migrate nemesis family, clean
# ----------------------------------------------------------------------

#: Small schedules keep the planted-bug scan and its shrink fast while
#: still interleaving handoffs with crashes and gray faults.
_SHAPE = dict(nemesis_mix="migrate", num_ops=24, num_nemeses=2)


def test_migrate_mix_seeds_run_clean():
    """Smoke: the first few migrate-mix seeds pass the full oracle (no
    excusals exist for migration — every acked op must survive every
    handoff) and the mix actually schedules handoffs."""
    saw_migration = False
    for seed in range(3):
        sched = generate_schedule(seed, nemesis_mix="migrate")
        assert sched["config"]["num_slots"] == 3 * 3
        result = run_schedule(sched)
        assert result["violations"] == [], (seed, result["violations"])
        migrations = result["stats"]["migrations"]
        if migrations.get("committed") or migrations.get("aborted"):
            saw_migration = True
    assert saw_migration


# ----------------------------------------------------------------------
# planted bug: broken handoff is caught and shrinks small
# ----------------------------------------------------------------------

_ORIG_SLOT_INSTALL = MNode._on_slot_install


def _early_activating_install(self, message):
    """PLANTED BUG: start serving as soon as the snapshot lands, without
    waiting for the fenced delta — any write the source acknowledged
    during the capture window is invisible at the destination, and the
    real activate then finds the slot serving and drops the delta."""
    yield from _ORIG_SLOT_INSTALL(self, message)
    self.slots[message.payload["slot"]] = SERVING


def _plant(patcher):
    """Class-level plant (like the lock leak in tests/test_check.py), so
    every cluster the scan and the shrinker's re-runs build inherits it."""
    patcher.setattr(MNode, "_on_slot_install", _early_activating_install)


@pytest.fixture(scope="module")
def caught():
    with pytest.MonkeyPatch.context() as patcher:
        _plant(patcher)
        for seed in range(50):
            sched = generate_schedule(seed, **_SHAPE)
            result = run_schedule(sched)
            if result["violations"]:
                return seed, sched, result
    pytest.fail("broken handoff survived 50 migrate-mix seeds undetected")


def test_broken_handoff_caught_within_fifty_seeds(caught):
    seed, _sched, result = caught
    invariants = {v["invariant"] for v in result["violations"]}
    # The bug drops the fenced delta: acked writes vanish (durability),
    # the handoff bookkeeping never discharges (slot leaks), and/or the
    # serving state in memory is not what the pending marker rebuilds.
    assert invariants & {"durability", "pending-slot-leak", "ownership",
                         "slot-state"}
    # Control: the identical schedule without the plant is clean, so
    # the oracle is catching the bug, not background noise.
    control = generate_schedule(seed, **_SHAPE)
    assert run_schedule(control)["violations"] == []


def test_broken_handoff_shrinks_to_minimal_reproducer(caught, monkeypatch):
    _plant(monkeypatch)
    _seed, sched, _result = caught
    minimal, _runs, min_result = shrink(sched, max_runs=400)
    assert min_result["violations"]
    assert len(minimal["ops"]) <= 10, [op["kind"] for op in minimal["ops"]]
    assert len(minimal["nemeses"]) <= 2, minimal["nemeses"]


# ----------------------------------------------------------------------
# checker trophy: the rename-completer resurrection stays fixed
# ----------------------------------------------------------------------

def test_rename_completer_resurrection_stays_fixed():
    """Seed 19 of the migrate mix caught a latent (pre-elastic) 2PC
    bug: a rename commit applied at a participant whose *ack* was lost
    kept a coordinator completer re-delivering the decision, and after
    a later rename moved the destination key away, the re-delivered
    insert passed the redo's key-is-free guard and resurrected the
    record — the same inode number alive under two names.  The fix is
    receiver-side at-most-once memory (durable per-slot applied
    markers).  Replay the shrunken reproducer; it must stay clean."""
    with open("tests/golden/rename_redelivery_schedule.json") as handle:
        schedule = json.load(handle)
    result = run_schedule(schedule)
    assert result["violations"] == [], result["violations"]


# ----------------------------------------------------------------------
# golden trace: the canonical two-handoff run is pinned
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def migration_digest():
    return run_migration_golden()


def test_migration_digest_matches_committed(migration_digest):
    with open(MIGRATION_GOLDEN_PATH) as handle:
        want = json.load(handle)
    mismatched = {
        key: (migration_digest[key], value)
        for key, value in want.items()
        if migration_digest[key] != value
    }
    assert not mismatched, (
        "migration outcome diverged from the committed golden trace: {}"
        .format(mismatched)
    )


def test_migration_digest_is_bit_identical_across_runs(migration_digest):
    assert run_migration_golden() == migration_digest


# ----------------------------------------------------------------------
# determinism: migrate mix at --jobs 1 vs --jobs 3
# ----------------------------------------------------------------------

_RUN_ARGS = ["run", "--seeds", "4", "--nemesis-mix", "migrate",
             "--ops", "40",
             "--budget-us", "300000", "--quiesce-budget-us", "200000"]


def _verdict_lines(out):
    return [line for line in out.splitlines()
            if not line.endswith("schedules/minute)")]


def test_migrate_mix_verdicts_identical_serial_vs_parallel(tmp_path,
                                                           capsys):
    from repro.check.__main__ import main

    assert main(_RUN_ARGS + ["--out", str(tmp_path / "a")]) == 0
    serial = capsys.readouterr().out
    assert main(_RUN_ARGS + ["--jobs", "3",
                             "--out", str(tmp_path / "b")]) == 0
    parallel = capsys.readouterr().out
    assert _verdict_lines(serial) == _verdict_lines(parallel)
    assert len(_verdict_lines(serial)) == 4


# ----------------------------------------------------------------------
# deferred failover: never promote over an active handoff
# ----------------------------------------------------------------------

def test_failover_deferred_for_migration_participant():
    """Crash the handoff source mid-saga: failover against it must be
    deferred (no promotion, names unchanged) until the saga resolves,
    then ordinary failover works again."""
    config = FalconConfig(num_mnodes=3, num_storage=2, replication=True,
                          rpc_timeout_us=400.0, op_deadline_us=30000.0,
                          num_slots=9, seed=11)
    cluster = FalconCluster(config)
    env = cluster.env
    coordinator = cluster.coordinator
    fs = cluster.fs()
    fs.mkdir("/d0")
    cluster.run_for(2000.0)

    slot, dest = 4, 2
    src = cluster.shared.slot_map.node_of(slot)
    assert src == 1
    names_before = list(cluster.shared.mnode_names)

    # Crash the source, then start the handoff: the snapshot step
    # retries against the dead node, holding the saga open.
    cluster.crash_mnode(src)
    saga = env.process(coordinator.migrate_slot(slot, dest,
                                                reason="test"))
    cluster.run_for(600.0)
    assert coordinator.migrations_involving(src) == [slot]

    record = cluster.run_process(cluster.fail_over(src))
    assert record["deferred"] is True
    assert record["promoted"] is None
    assert record["migrating_slot"] == slot
    deferrals = coordinator.metrics.counter(
        "failovers_deferred_migration")
    assert deferrals.total() == 1
    # The regression: _repair_slot must NOT have run — no survivor
    # invalidation, no ring surgery, the name table is untouched.
    assert cluster.shared.mnode_names == names_before
    assert cluster.shared.slot_map.node_of(slot) == src

    # The saga can only resolve once the source answers again (abort
    # re-delivers the reclaim until acknowledged — a crashed source
    # held mid-handoff must never be left unhosted).  Restart it, let
    # the saga run out, and ordinary failover works again.
    cluster.run_process(cluster.restart_mnode(src))
    env.run(until=saga)
    assert coordinator.migrations == {}
    status = coordinator.migration_log[-1]["status"]
    assert status in ("committed", "aborted")

    cluster.run_for(2000.0)
    cluster.crash_mnode(src)
    cluster.run_for(600.0)
    record = cluster.run_process(cluster.fail_over(src))
    assert record.get("deferred") is None
    assert record["promoted"] is not None

    cluster.heal()
    cluster.run_for(3000.0)
    cluster.verify()


# ----------------------------------------------------------------------
# a listing under a handoff
# ----------------------------------------------------------------------

def _held(node, handler):
    """Hold ``node``'s ``handler`` until the returned event succeeds."""
    release = node.env.event()
    real = getattr(node, handler)

    def held(message):
        yield release
        yield from real(message)

    setattr(node, handler, held)
    return release


def test_a_listing_reads_only_the_slots_each_node_serves():
    """A handed-off slot's rows stay at the source until its purge, and
    the destination may remove some of them before then: a listing in
    that window must not show an unlink the destination acked.  While
    the destination's install is pending (the source already fenced),
    neither end may list the slot, so the share is refused ``ERETRY``
    and the listing retries until the slot is active."""
    config = FalconConfig(num_mnodes=3, num_storage=1, num_slots=9,
                          rpc_timeout_us=400.0, op_deadline_us=30000.0)
    cluster = FalconCluster(config)
    env = cluster.env
    coordinator = cluster.coordinator
    fs = cluster.fs()
    pid = fs.mkdir("/d0")
    names = {coordinator.index.locate(pid, "f{}".format(i)): "f{}".format(i)
             for i in range(64)}
    slot = 4
    moved, kept = names[slot], names[(slot + 1) % 9]
    for name in (moved, kept):
        fs.create("/d0/" + name)
    src = cluster.shared.slot_map.node_of(slot)
    dest = (src + 1) % 3
    source, destination = cluster.mnodes[src], cluster.mnodes[dest]
    activate = _held(destination, "_on_slot_activate")
    purge = _held(source, "_on_slot_purge")
    saga = env.process(coordinator.migrate_slot(slot, dest, reason="test"))
    while destination.slots.get(slot) is None or source.serves(slot):
        env.step()
    one_try = cluster.add_client()
    one_try.retry_policy = RetryPolicy(max_attempts=1)
    with pytest.raises(RpcFailure) as refused:
        cluster.run_process(one_try.readdir("/d0"))
    assert refused.value.code == RpcError.ERETRY
    assert destination.name in refused.value.detail
    listing = env.process(cluster.add_client().readdir("/d0"))
    cluster.run_for(2000.0)
    assert not listing.triggered
    activate.succeed()
    env.run(until=listing)
    assert listing.value == sorted([(moved, False), (kept, False)])
    while not destination.serves(slot):
        env.step()
    fs.unlink("/d0/" + moved)
    assert source.inodes.get((pid, moved)) is not None
    assert fs.readdir("/d0") == [(kept, False)]
    purge.succeed()
    env.run(until=saga)
    assert saga.value["status"] == "committed"
    assert fs.readdir("/d0") == [(kept, False)]
    cluster.verify()


def test_a_discarded_copy_is_not_listed_before_its_delete_commits():
    """An aborted handoff unmarks the slot at the destination before
    the delete of the installed copy commits.  In that window the
    reclaimed source serves the slot again and may unlink a moved
    name: the destination's share must leave the stale copy out, or
    the listing shows a name whose removal was acked."""
    config = FalconConfig(num_mnodes=3, num_storage=1, num_slots=9,
                          rpc_timeout_us=400.0, op_deadline_us=30000.0)
    cluster = FalconCluster(config)
    env = cluster.env
    coordinator = cluster.coordinator
    fs = cluster.fs()
    pid = fs.mkdir("/d0")
    names = {coordinator.index.locate(pid, "f{}".format(i)): "f{}".format(i)
             for i in range(64)}
    slot = 4
    moved, kept = names[slot], names[(slot + 1) % 9]
    for name in (moved, kept):
        fs.create("/d0/" + name)
    src = cluster.shared.slot_map.node_of(slot)
    dest = (src + 1) % 3
    source, destination = cluster.mnodes[src], cluster.mnodes[dest]

    def refuse_fence(message):
        source._respond_error(message, RpcFailure(RpcError.EINVAL, "fence"))
        yield from ()

    source._on_slot_fence = refuse_fence
    release = env.event()
    real_drop = destination._drop_slot_copy

    def held_drop(ctx, slot, installed):
        yield release
        return (yield from real_drop(ctx, slot, installed))

    destination._drop_slot_copy = held_drop
    saga = env.process(coordinator.migrate_slot(slot, dest, reason="test"))
    while destination.slots.get(slot) is None:
        env.step()
    while destination.slots.get(slot) is not None:
        env.step()
    assert source.serves(slot)
    fs.unlink("/d0/" + moved)
    assert destination.inodes.get((pid, moved)) is not None
    assert fs.readdir("/d0") == [(kept, False)]
    release.succeed()
    env.run(until=saga)
    assert saga.value["status"] == "aborted"
    assert destination.inodes.get((pid, moved)) is None
    assert fs.readdir("/d0") == [(kept, False)]
    cluster.verify()
