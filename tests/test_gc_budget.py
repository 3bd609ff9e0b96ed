"""The collector budget: what the hot path may ask of CPython's cyclic
garbage collector — nothing.

The rule (docs/architecture.md, "Simulator performance", *The collector
stays off the hot path*) has two halves, pinned here the way
``test_event_budget.py`` pins heap entries:

* no object a fault-free operation allocates may need the cycle
  collector: with automatic collection off, a run of operations leaves
  **zero** unreachable objects behind, so reference counting alone frees
  the hot path;
* the DES kernel sizes the young generation above the in-flight
  population while it runs (``repro.runtime.api.sized_nursery``) and
  hands the process its collector settings back exactly as it found
  them, whether the run returns or raises.

Only fault-free operations are held to zero.  Error and retry paths
under faults (a retried ``ERETRY``, a deadlined RPC that times out, a
failure parked while a backoff sleeps) may still tie an exception to a
frame on its own traceback; the collector stays enabled to clean up
after exactly those.
"""

import asyncio
import gc
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.check.worker import explore_seed
from repro.experiments.common import build_cluster
from repro.net.rpc import RpcFailure
from repro.obs import CollectorTimer
from repro.runtime import AsyncioEnv
from repro.runtime.api import NURSERY_THRESHOLD, sized_nursery
from repro.sim import Environment
from repro.storage import LockManager, LockMode
from repro.workloads.driver import run_closed_loop
from repro.workloads.trees import private_dirs_tree

OPS = 8
DIRS = 4


@contextmanager
def collector_off():
    """Run the body with automatic collection off; the yielded callable
    counts the objects only the cycle collector can free (printing their
    type histogram when there are any)."""
    was_enabled = gc.isenabled()
    # Until nothing is left: garbage inherited from earlier tests holds
    # suspended generators, and closing those (their finalizer) can keep
    # part of a dead cluster alive for one more pass.
    while gc.collect():
        pass
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def unreachable():
        found = gc.collect()
        if found:
            print("unreachable:", Counter(
                type(o).__name__ for o in gc.garbage).most_common())
        return found

    try:
        yield unreachable
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
        gc.collect()


# ----------------------------------------------------------------------
# (a) fault-free operations leave nothing for the collector
# ----------------------------------------------------------------------


def _new(tree, stem, i):
    return "{}/{}{}".format(tree.dirs[1 + i % DIRS], stem, i)


def _file(tree, i):
    return tree.files[i][0]


#: op -> (setup, measured): ``f(client, tree, i)`` returns the i-th
#: operation's generator.  ``setup`` creates what ``measured`` consumes
#: and runs before the collector is switched off.
OPERATIONS = {
    "getattr": (None, lambda c, t, i: c.getattr(_file(t, i))),
    "open": (None, lambda c, t, i: c.open_file(_file(t, i))),
    "read_file": (None, lambda c, t, i: c.read_file(_file(t, i))),
    "create": (None, lambda c, t, i: c.create(_new(t, "c", i))),
    "write_file": (None,
                   lambda c, t, i: c.write_file(_new(t, "w", i), 4096)),
    "mkdir": (None, lambda c, t, i: c.mkdir(_new(t, "d", i))),
    "readdir": (None, lambda c, t, i: c.readdir(t.dirs[1 + i % DIRS])),
    "rename": (lambda c, t, i: c.create(_new(t, "from", i)),
               lambda c, t, i: c.rename(_new(t, "from", i),
                                        _new(t, "to", i))),
    "unlink": (lambda c, t, i: c.create(_new(t, "u", i)),
               lambda c, t, i: c.unlink(_new(t, "u", i))),
    "rmdir": (lambda c, t, i: c.mkdir(_new(t, "e", i)),
              lambda c, t, i: c.rmdir(_new(t, "e", i))),
    # EISDIR from the owner MNode, then the coordinator: an error reply
    # on a fault-free path.
    "chmod_dir": (None,
                  lambda c, t, i: c.chmod(t.dirs[1 + i % DIRS], 0o700)),
}


@pytest.fixture(scope="module", params=["vfs", "libfs"])
def loaded(request):
    cluster = build_cluster("falconfs", num_mnodes=2, num_storage=2, seed=3)
    client = cluster.add_client(mode=request.param)
    tree = private_dirs_tree(DIRS, files_per_dir=OPS // DIRS)
    cluster.bulk_load(tree)
    return cluster, client, tree


@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_fault_free_op_leaves_nothing_unreachable(loaded, op):
    cluster, client, tree = loaded
    setup, measured = OPERATIONS[op]
    if setup is not None:
        for i in range(OPS):
            cluster.run_process(setup(client, tree, i))
    with collector_off() as unreachable:
        for i in range(OPS):
            cluster.run_process(measured(client, tree, i))
        assert unreachable() == 0


def test_lock_grants_on_asyncio_leave_nothing_unreachable():
    """100 inline and 100 queued grants, each yielded by a process."""
    async def main():
        env = AsyncioEnv()
        locks = LockManager(env)

        def user():
            for _ in range(100):
                held = locks.acquire("k", LockMode.EXCLUSIVE)
                yield held.event                 # inline
                queued = locks.acquire("k", LockMode.EXCLUSIVE)
                locks.release(held)
                yield queued.event               # woken through the loop
                locks.release(queued)

        with collector_off() as unreachable:
            await env.run_process(user())
            return unreachable(), env.unhandled

    assert asyncio.run(main()) == (0, [])


# ----------------------------------------------------------------------
# (b) the process's collector settings are the caller's
# ----------------------------------------------------------------------

THRESHOLDS = (901, 7, 13)


@pytest.fixture
def collector_settings():
    """A non-default threshold triple for the test body; asserts on the
    way out that the body left the collector exactly as configured."""
    saved = gc.get_threshold()
    gc.set_threshold(*THRESHOLDS)
    state = (THRESHOLDS, gc.isenabled(), gc.get_freeze_count())
    try:
        yield
        assert (gc.get_threshold(), gc.isenabled(),
                gc.get_freeze_count()) == state
    finally:
        gc.set_threshold(*saved)


def test_run_sizes_the_nursery_and_restores(collector_settings):
    env = Environment()
    seen = []

    def probe():
        yield env.timeout(1.0)
        seen.append(gc.get_threshold())

    env.process(probe())
    env.run()
    env.process(probe())
    env.run(until=10.0)
    env.run(until=env.process(probe()))
    env.process(probe())
    assert env.run_until_quiescent(budget_us=5.0)
    assert seen == [(NURSERY_THRESHOLD,) + THRESHOLDS[1:]] * 4
    assert gc.get_threshold() == THRESHOLDS


def test_step_leaves_the_collector_alone(collector_settings):
    env = Environment()
    seen = []
    env.timer(1.0, lambda _timer: seen.append(gc.get_threshold()))
    env.step()
    assert seen == [THRESHOLDS]


@pytest.mark.parametrize("run", [
    lambda env, failing: env.run(),
    lambda env, failing: env.run(until=50.0),
    lambda env, failing: env.run(until=failing),
    lambda env, failing: env.run_until_quiescent(budget_us=50.0),
], ids=["drain", "horizon", "event", "quiescent"])
def test_thresholds_restored_when_run_raises(collector_settings, run):
    env = Environment()

    def failing():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        run(env, env.process(failing()))
    assert gc.get_threshold() == THRESHOLDS


def test_nested_run_restores_at_the_outermost_exit(collector_settings):
    outer = Environment()
    seen = []

    def nesting():
        yield outer.timeout(1.0)
        inner = Environment()
        inner.timeout(1.0)
        inner.run()
        seen.append(gc.get_threshold())   # the outer run is still on

    outer.run(until=outer.process(nesting()))
    assert seen == [(NURSERY_THRESHOLD,) + THRESHOLDS[1:]]


def test_nursery_keeps_a_callers_larger_or_disabled_young_generation():
    saved = gc.get_threshold()
    try:
        for mine in ((0, 10, 10), (NURSERY_THRESHOLD * 4, 10, 10)):
            gc.set_threshold(*mine)
            with sized_nursery():
                assert gc.get_threshold() == mine
            assert gc.get_threshold() == mine
    finally:
        gc.set_threshold(*saved)


class _Orphaned:
    """A tree whose only directory has no parent: ``bulk_load`` raises."""
    dirs = ["/missing/child"]
    files = []


def test_public_entry_points_return_the_collector_as_found(
        collector_settings):
    cluster = build_cluster("falconfs", num_mnodes=2, num_storage=2, seed=3)
    client = cluster.add_client(mode="vfs")
    tree = private_dirs_tree(2, files_per_dir=2)
    cluster.bulk_load(tree)
    assert gc.get_threshold() == THRESHOLDS
    cluster.run_process(client.getattr(_file(tree, 0)))
    assert gc.get_threshold() == THRESHOLDS
    cluster.run_for(100.0)
    assert gc.get_threshold() == THRESHOLDS
    with pytest.raises(RpcFailure):
        cluster.run_process(client.getattr("/no/such/file"))
    assert gc.get_threshold() == THRESHOLDS
    with pytest.raises(KeyError):
        cluster.bulk_load(_Orphaned())
    assert gc.get_threshold() == THRESHOLDS
    record = explore_seed((3, {"num_ops": 10, "num_nemeses": 1,
                               "budget_us": 100000.0,
                               "quiesce_budget_us": 100000.0}))
    assert not record["failed"]


# ----------------------------------------------------------------------
# (c) a closed-loop run barely collects at all
# ----------------------------------------------------------------------


def _collections():
    return [generation["collections"] for generation in gc.get_stats()]


def test_closed_loop_run_needs_almost_no_collections():
    """2,000 getattrs from 64 closed-loop threads: at most 3 automatic
    collections, none of them full.  A bound, not an equality, so it
    holds on CPython 3.10-3.12 (one young collection is the restored
    threshold catching up after the run).  Before the nursery: 21."""
    cluster = build_cluster("falconfs", num_mnodes=2, num_storage=2, seed=3)
    client = cluster.add_client(mode="vfs")
    tree = private_dirs_tree(DIRS, files_per_dir=50)
    cluster.bulk_load(tree)
    paths = [_file(tree, i % len(tree.files)) for i in range(2000)]
    thunks = [lambda p=p: client.getattr(p) for p in paths]
    gc.collect()
    before = _collections()
    result = run_closed_loop(cluster, thunks, num_threads=64)
    spent = [b - a for a, b in zip(before, _collections())]
    assert (result.ops, result.errors) == (2000, 0)
    assert sum(spent) <= 3 and spent[2] == 0, spent


def test_collector_timer_sees_a_collection():
    """The ``--profile`` footer's source: one full collection of one
    two-list cycle, timed and counted through ``gc.callbacks``."""
    gc.collect()
    a, b = [], []
    a.append(b)
    b.append(a)
    del a, b
    with CollectorTimer() as timer:
        gc.collect()
    assert timer.collections == [0, 0, 1]
    assert timer.collected >= 2 and timer.seconds > 0.0
    assert "0/0/1 collections" in timer.report()
