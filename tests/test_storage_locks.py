"""Unit tests for the shared/exclusive lock manager."""

import asyncio
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import AsyncioEnv, EnvError
from repro.sim import Environment
from repro.storage import LockManager, LockMode


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def locks(env):
    return LockManager(env)


def test_shared_locks_compatible(locks):
    a = locks.acquire("k", LockMode.SHARED)
    b = locks.acquire("k", LockMode.SHARED)
    assert a.granted and b.granted
    assert locks.holders("k") == ["S", "S"]


def test_exclusive_blocks_shared(locks):
    x = locks.acquire("k", LockMode.EXCLUSIVE)
    s = locks.acquire("k", LockMode.SHARED)
    assert x.granted and not s.granted
    locks.release(x)
    assert s.granted


def test_shared_blocks_exclusive(locks):
    s = locks.acquire("k", LockMode.SHARED)
    x = locks.acquire("k", LockMode.EXCLUSIVE)
    assert s.granted and not x.granted
    locks.release(s)
    assert x.granted


def test_fifo_prevents_writer_starvation(locks):
    s1 = locks.acquire("k", LockMode.SHARED)
    x = locks.acquire("k", LockMode.EXCLUSIVE)
    s2 = locks.acquire("k", LockMode.SHARED)
    # s2 must not jump ahead of the queued exclusive.
    assert s1.granted and not x.granted and not s2.granted
    locks.release(s1)
    assert x.granted and not s2.granted
    locks.release(x)
    assert s2.granted


def test_batch_shared_grant_after_exclusive(locks):
    x = locks.acquire("k", LockMode.EXCLUSIVE)
    shared = [locks.acquire("k", LockMode.SHARED) for _ in range(3)]
    locks.release(x)
    assert all(grant.granted for grant in shared)


def test_bad_mode_rejected(locks):
    with pytest.raises(EnvError):
        locks.acquire("k", "Z")


def test_release_unknown_key_rejected(locks):
    grant = locks.acquire("k", LockMode.SHARED)
    locks.release(grant)
    with pytest.raises(EnvError):
        locks.release(grant)


def test_cancel_queued_grant(locks):
    x = locks.acquire("k", LockMode.EXCLUSIVE)
    queued = locks.acquire("k", LockMode.EXCLUSIVE)
    locks.release(queued)  # give up before granted
    locks.release(x)
    assert not locks.is_locked("k")


def test_cancelled_waiter_on_contended_key_leaves_no_extra_state(locks):
    """Queued grants cancelled against a held key reuse its state and
    add nothing; the holder's release prunes it."""
    held = locks.acquire("k", LockMode.EXCLUSIVE)
    for _ in range(50):
        queued = locks.acquire("k", LockMode.SHARED)
        assert not queued.granted
        locks.release(queued)
    assert set(locks._locks) == {"k"}
    assert locks.queue_length("k") == 0
    locks.release(held)
    assert not locks._locks


def test_cancelled_waiters_on_many_contended_keys_leave_no_extra_state(locks):
    """Waiters that give up on many keys held elsewhere accumulate
    nothing: only the holders' entries remain, and the last release
    prunes those."""
    held = [locks.acquire(("d", i), LockMode.EXCLUSIVE) for i in range(8)]
    for _ in range(10):
        for i in range(8):
            queued = locks.acquire(("d", i), LockMode.EXCLUSIVE)
            assert not queued.granted
            locks.release(queued)
    assert len(locks._locks) == 8
    assert all(locks.queue_length(("d", i)) == 0 for i in range(8))
    for grant in held:
        locks.release(grant)
    assert not locks._locks


def test_independent_keys(locks):
    a = locks.acquire("a", LockMode.EXCLUSIVE)
    b = locks.acquire("b", LockMode.EXCLUSIVE)
    assert a.granted and b.granted


def test_state_cleanup_when_free(locks):
    grant = locks.acquire("k", LockMode.EXCLUSIVE)
    locks.release(grant)
    assert locks.holders("k") == []
    assert locks.queue_length("k") == 0
    assert not locks._locks  # fully garbage-collected


def test_queue_length(locks):
    locks.acquire("k", LockMode.EXCLUSIVE)
    locks.acquire("k", LockMode.SHARED)
    locks.acquire("k", LockMode.SHARED)
    assert locks.queue_length("k") == 2


def test_lock_waiting_in_processes(env, locks):
    """Processes serialize on an exclusive lock in simulated time."""
    timeline = []

    def user(tag, delay, hold):
        yield env.timeout(delay)
        grant = locks.acquire("k", LockMode.EXCLUSIVE)
        yield grant.event
        timeline.append((tag, env.now))
        yield env.timeout(hold)
        locks.release(grant)

    env.process(user("first", 0.0, 10.0))
    env.process(user("second", 1.0, 5.0))
    env.run()
    assert timeline == [("first", 0.0), ("second", 10.0)]


def test_invalidation_waits_for_shared_holders(env, locks):
    """The §4.3 pattern: an X-lock (invalidation) waits for in-flight
    shared holders, serializing the namespace change after them."""
    events = []

    def reader():
        grant = locks.acquire(("d", 1, "b"), LockMode.SHARED)
        yield grant.event
        events.append(("read-start", env.now))
        yield env.timeout(20.0)
        locks.release(grant)
        events.append(("read-end", env.now))

    def invalidator():
        yield env.timeout(5.0)
        grant = locks.acquire(("d", 1, "b"), LockMode.EXCLUSIVE)
        yield grant.event
        events.append(("invalidate", env.now))
        locks.release(grant)

    env.process(reader())
    env.process(invalidator())
    env.run()
    assert events == [
        ("read-start", 0.0), ("read-end", 20.0), ("invalidate", 20.0),
    ]


def test_uncontended_acquire_schedules_nothing(env, locks):
    grant = locks.acquire("k", LockMode.EXCLUSIVE)
    assert grant.granted and grant.event.processed
    assert locks.acquire("j", LockMode.SHARED).event.processed
    assert env.events_scheduled == 0


def test_release_after_inline_grant_wakes_exactly_the_head(env, locks):
    held = locks.acquire("k", LockMode.EXCLUSIVE)
    head = locks.acquire("k", LockMode.EXCLUSIVE)
    tail = locks.acquire("k", LockMode.EXCLUSIVE)
    locks.release(held)
    assert head.granted and head.event.triggered
    assert not head.event.processed          # woken through the heap
    assert not tail.granted and locks.queue_length("k") == 1
    env.run()
    assert head.event.processed and not tail.event.triggered


@pytest.fixture(params=["sim", "asyncio"])
def backend(request):
    """(env, drain) on either backend; ``drain()`` delivers the wake-ups
    queued so far."""
    if request.param == "sim":
        env = Environment()
        yield env, env.run
        return
    loop = asyncio.new_event_loop()
    try:
        yield (AsyncioEnv(loop=loop),
               lambda: loop.run_until_complete(asyncio.sleep(0)))
    finally:
        loop.close()


def test_grant_event_carries_no_value(backend):
    """The acquirer holds the grant; an event whose value is the grant
    that owns it would be a reference cycle per acquisition."""
    env, drain = backend
    locks = LockManager(env)
    inline = locks.acquire("k", LockMode.EXCLUSIVE)
    queued = locks.acquire("k", LockMode.EXCLUSIVE)
    assert inline.event.processed and inline.event.value is None
    locks.release(inline)
    assert queued.granted and queued.event.value is None
    drain()
    assert queued.event.processed and queued.event.value is None


def test_grants_need_no_cycle_collector(backend):
    """1,000 acquire/release pairs, half inline and half queued, with
    the collector off: reference counting frees every one.  (``Grant``
    is slotted without ``__weakref__``, so count what only the
    collector could free instead of weak-referencing a grant.)"""
    env, drain = backend
    locks = LockManager(env)
    while gc.collect():     # earlier tests' garbage, finalizers included
        pass
    gc.disable()
    try:
        for i in range(500):
            held = locks.acquire("k", LockMode.EXCLUSIVE)
            queued = locks.acquire("k", LockMode.EXCLUSIVE)
            locks.release(held)
            locks.release(queued)
            del held, queued
            if i % 100 == 99:
                drain()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not locks._locks


@settings(max_examples=200, deadline=None)
@given(users=st.lists(
    st.tuples(st.integers(0, 3),
              st.lists(st.tuples(
                  st.integers(0, 2),
                  st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])),
                  min_size=1, max_size=3)),
    min_size=1, max_size=8))
def test_resume_order_equals_acquire_order(users):
    """Under contention the inline fast path never jumps a queued
    waiter: holders resume in the order they asked — even a shared
    newcomer that is compatible with waiters woken in the same instant
    (every user asks again the moment it lets go, right behind the
    wake-ups its own release pushed)."""
    env = Environment()
    locks = LockManager(env)
    asked, resumed = [], []

    def user(tag, arrive, rounds):
        yield env.timeout(arrive)
        for round_, (hold, mode) in enumerate(rounds):
            asked.append((tag, round_))
            grant = locks.acquire("k", mode)
            yield grant.event
            resumed.append((tag, round_))
            yield env.timeout(hold)
            locks.release(grant)

    for tag, (arrive, rounds) in enumerate(users):
        env.process(user(tag, arrive, rounds))
    env.run()
    assert resumed == asked
    assert not locks.is_locked("k") and locks.queue_length("k") == 0
