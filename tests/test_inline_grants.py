"""An uncontended grant is not an event.

A lock or a CPU core that is free is held on return and its event is
already processed, so the acquirer skips the ``yield`` altogether::

    grant = locks.acquire(key, mode)
    if grant.event.callbacks is not None:
        yield grant.event

These tests pin what that spelling relies on: uncontended lock grants
share one immutable processed event and build no waiter queue; the
queue appears with the first waiter and stays FIFO; and a grant asked
for while a wake-up from the same instant is still in the heap is held
but *not* processed, so the skipped ``yield`` never lets a newcomer
resume ahead of a waiter that was woken first.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FalconCluster, FalconConfig
from repro.sim import Environment, Resource
from repro.storage import LockManager, LockMode


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def locks(env):
    return LockManager(env)


def test_uncontended_grants_share_one_processed_event(env, locks):
    a = locks.acquire("a", LockMode.EXCLUSIVE)
    b = locks.acquire("b", LockMode.SHARED)
    c = locks.acquire("b", LockMode.SHARED)
    assert a.granted and b.granted and c.granted
    assert a.event is b.event is c.event is env.granted()
    assert a.event.callbacks is None and a.event.value is None
    assert env.events_scheduled == 0


def test_first_waiter_after_inline_grants_builds_the_queue(env, locks):
    readers = [locks.acquire("k", LockMode.SHARED) for _ in range(4)]
    assert all(grant.granted for grant in readers)
    assert locks._locks["k"].waiters is None     # nobody ever queued
    assert locks.queue_length("k") == 0

    writer = locks.acquire("k", LockMode.EXCLUSIVE)
    late_reader = locks.acquire("k", LockMode.SHARED)
    assert not writer.granted and not late_reader.granted
    assert writer.event.callbacks is not None    # must be waited for
    assert locks.queue_length("k") == 2

    for grant in readers[:-1]:
        locks.release(grant)
        assert not writer.granted
    locks.release(readers[-1])
    assert writer.granted and not late_reader.granted   # FIFO
    locks.release(writer)
    assert late_reader.granted
    locks.release(late_reader)
    assert not locks._locks


def test_release_with_nobody_queued_wakes_nobody(env, locks):
    first = locks.acquire("k", LockMode.SHARED)
    second = locks.acquire("k", LockMode.SHARED)
    locks.release(first)
    assert locks.holders("k") == ["S"]
    locks.release(second)
    assert not locks._locks and env.events_scheduled == 0


def test_grant_behind_a_wakeup_in_flight_queues_behind_it(env, locks):
    held = locks.acquire("a", LockMode.EXCLUSIVE)
    waiter = locks.acquire("a", LockMode.EXCLUSIVE)
    locks.release(held)             # wakes the waiter through the heap
    assert waiter.granted and not waiter.event.processed

    # A free key, asked for before the woken waiter has run: held on
    # return, but its event is a fresh one queued behind the wake-up.
    newcomer = locks.acquire("b", LockMode.EXCLUSIVE)
    assert newcomer.granted
    assert newcomer.event is not env.granted()
    assert newcomer.event.triggered and newcomer.event.callbacks is not None

    order = []
    waiter.event.callbacks.append(lambda _: order.append("waiter"))
    newcomer.event.callbacks.append(lambda _: order.append("newcomer"))
    env.run()
    assert order == ["waiter", "newcomer"]
    # The wake-up has run: grants are inline (and shared) again.
    assert locks.acquire("c", LockMode.SHARED).event.callbacks is None


def test_free_core_is_not_an_event():
    cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
    node, env = cluster.mnodes[0], cluster.env
    before = env.events_scheduled
    cluster.run_process(node.execute(2.0))
    # Initialize + the slice itself + run(until=process)'s end wake-up:
    # the free core cost no entry.
    assert env.events_scheduled - before == 3
    assert node.cpu.count == 0


_ROUNDS = st.lists(
    st.tuples(st.integers(0, 2),
              st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])),
    min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(users=st.lists(st.tuples(st.integers(0, 3), _ROUNDS),
                      min_size=1, max_size=8))
def test_skipping_the_yield_keeps_resume_order_acquire_order(users):
    """The property ``tests/test_storage_locks.py`` states for an
    unconditional ``yield grant.event``, under the spelling every call
    site now uses: integer times pile releases, wake-ups and fresh
    requests into the same instants, which is where a skipped ``yield``
    could overtake a waiter still in the heap."""
    env = Environment()
    locks = LockManager(env)
    asked, resumed = [], []

    def user(tag, arrive, rounds):
        yield env.timeout(arrive)
        for round_, (hold, mode) in enumerate(rounds):
            asked.append((tag, round_))
            grant = locks.acquire("k", mode)
            if grant.event.callbacks is not None:
                yield grant.event
            resumed.append((tag, round_))
            yield env.timeout(hold)
            locks.release(grant)

    for tag, (arrive, rounds) in enumerate(users):
        env.process(user(tag, arrive, rounds))
    env.run()
    assert resumed == asked
    assert not locks.is_locked("k") and locks.queue_length("k") == 0


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 3),
    users=st.lists(
        st.tuples(st.integers(0, 3),
                  st.lists(st.integers(0, 2), min_size=1, max_size=3)),
        min_size=1, max_size=8),
)
def test_skipping_the_yield_keeps_resume_order_request_order(capacity, users):
    """The same property for ``Resource.request`` (``Node.execute``)."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    asked, resumed = [], []

    def user(tag, arrive, holds):
        yield env.timeout(arrive)
        for round_, hold in enumerate(holds):
            asked.append((tag, round_))
            req = res.request()
            if req.callbacks is not None:
                yield req
            resumed.append((tag, round_))
            yield env.timeout(hold)
            res.release(req)

    for tag, (arrive, holds) in enumerate(users):
        env.process(user(tag, arrive, holds))
    env.run()
    assert resumed == asked
    assert res.count == 0 and res.queue_length == 0
