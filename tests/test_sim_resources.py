"""Unit tests for simulation resources (Resource, Store) and RNG streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, RandomStreams, Resource, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        res = Resource(env, capacity=2)
        assert res.request().triggered
        assert res.request().triggered
        assert res.count == 2

    def test_queueing_over_capacity(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        assert first.triggered and not second.triggered
        assert res.queue_length == 1
        res.release(first)
        assert second.triggered
        assert res.queue_length == 0

    def test_fifo_granting(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(tag, hold):
            req = res.request()
            yield req
            order.append(tag)
            yield env.timeout(hold)
            res.release(req)

        for tag in ("a", "b", "c"):
            env.process(user(tag, 3.0))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_unheld_rejected(self, env):
        res = Resource(env)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_release_queued_request_cancels(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        queued = res.request()
        res.release(queued)
        assert res.queue_length == 0
        res.release(held)
        assert res.count == 0

    def test_release_skips_triggered_waiter(self, env):
        # A queued Request failed out-of-band (timeout/interrupt) must be
        # skipped when capacity frees up: succeeding it again would raise
        # "event already triggered" and crash the grant loop.
        res = Resource(env, capacity=1)
        held = res.request()
        dead = res.request()
        live = res.request()
        dead.fail(RuntimeError("cancelled"))
        dead.defused = True
        res.release(held)
        assert live.triggered and res.count == 1
        assert res.queue_length == 0
        env.run()

    def test_use_context_manager_releases(self, env):
        res = Resource(env, capacity=1)

        def user():
            with res.use() as req:
                yield req
                yield env.timeout(1.0)
            return res.count

        assert env.run(until=env.process(user())) == 0

    def test_use_releases_on_exception(self, env):
        res = Resource(env, capacity=1)

        def user():
            try:
                with res.use() as req:
                    yield req
                    raise ValueError("inside")
            except ValueError:
                return res.count

        assert env.run(until=env.process(user())) == 0

    def test_parallel_capacity_two(self, env):
        res = Resource(env, capacity=2)
        finish = []

        def user(tag):
            req = res.request()
            yield req
            yield env.timeout(10.0)
            res.release(req)
            finish.append((tag, env.now))

        for tag in range(4):
            env.process(user(tag))
        env.run()
        assert [t for _, t in finish] == [10.0, 10.0, 20.0, 20.0]


class TestInlineGrant:
    """The uncontended fast path costs no heap entry and never lets a
    requester run ahead of one that asked before it."""

    def test_immediate_grant_schedules_nothing(self, env):
        res = Resource(env, capacity=2)
        req = res.request()
        assert req.processed and env.events_scheduled == 0

        def user():
            held = res.request()
            yield held              # continues inline: no round trip
            res.release(held)

        env.run(until=env.process(user()))
        # Initialize + the process-end wake-up of run(until=...).
        assert env.events_scheduled == 2

    def test_release_after_immediate_grant_wakes_exactly_the_head(self, env):
        res = Resource(env, capacity=1)
        holder = res.request()
        head, tail = res.request(), res.request()
        assert holder.processed and not head.triggered
        res.release(holder)
        assert head.triggered and not head.processed   # through the heap
        assert not tail.triggered and res.queue_length == 1
        env.run()
        assert head.processed and not tail.triggered

    def test_request_behind_an_unresumed_wakeup_takes_its_turn(self, env):
        # Capacity frees up for two; the woken waiter has not run yet
        # when a newcomer asks.  Both hold a core, but the newcomer must
        # not resume first.
        res = Resource(env, capacity=2)
        first, second = res.request(), res.request()
        waiter = res.request()
        res.release(first)
        res.release(second)
        newcomer = res.request()
        assert waiter.triggered and not waiter.processed
        assert newcomer.triggered and not newcomer.processed
        env.run()
        assert newcomer.processed

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 3),
        users=st.lists(
            st.tuples(st.integers(0, 3),
                      st.lists(st.integers(0, 2), min_size=1, max_size=3)),
            min_size=1, max_size=8),
    )
    def test_resume_order_equals_request_order(self, capacity, users):
        # Integer times pile requests, releases and wake-ups into the
        # same instants, and every user asks again the moment it lets
        # go — right behind the wake-up its own release pushed, which is
        # where an inline grant could overtake a waiter still in the heap.
        env = Environment()
        res = Resource(env, capacity=capacity)
        asked, resumed = [], []

        def user(tag, arrive, holds):
            yield env.timeout(arrive)
            for round_, hold in enumerate(holds):
                asked.append((tag, round_))
                req = res.request()
                yield req
                resumed.append((tag, round_))
                yield env.timeout(hold)
                res.release(req)

        for tag, (arrive, holds) in enumerate(users):
            env.process(user(tag, arrive, holds))
        env.run()
        assert resumed == asked
        assert res.count == 0 and res.queue_length == 0


class TestStore:
    def test_buffered_get_schedules_nothing(self, env):
        store = Store(env)
        store.put("x")
        assert store.get().processed and env.events_scheduled == 0

    def test_put_then_get(self, env):
        store = Store(env)
        store.put("x")
        event = store.get()
        assert event.triggered and event.value == "x"

    def test_get_before_put_blocks(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (item, env.now)

        def producer():
            yield env.timeout(4.0)
            store.put("late")

        proc = env.process(consumer())
        env.process(producer())
        assert env.run(until=proc) == ("late", 4.0)

    def test_fifo_item_order(self, env):
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        got = [store.get().value for _ in range(3)]
        assert got == [1, 2, 3]

    def test_fifo_getter_order(self, env):
        store = Store(env)
        results = []

        def consumer(tag):
            item = yield store.get()
            results.append((tag, item))

        env.process(consumer("a"))
        env.process(consumer("b"))

        def producer():
            yield env.timeout(1.0)
            store.put(1)
            store.put(2)

        env.process(producer())
        env.run()
        assert results == [("a", 1), ("b", 2)]

    def test_len_and_drain(self, env):
        store = Store(env)
        for item in range(5):
            store.put(item)
        assert len(store) == 5
        assert [store.get().value for _ in range(5)] == [0, 1, 2, 3, 4]
        assert len(store) == 0

    def test_cancelled_getter_skipped(self, env):
        store = Store(env)
        first = store.get()
        second = store.get()
        # Fail the first getter out-of-band (e.g. an interrupt path).
        first.fail(RuntimeError("cancelled"))
        first.defused = True
        store.put("item")
        assert second.triggered and second.value == "item"
        env.run()

    def test_cancelled_getters_compacted_without_put(self, env):
        # An idle store must not pin dead getter events until some future
        # put walks past them: the next get() compacts triggered entries.
        store = Store(env)
        dead = [store.get() for _ in range(4)]
        for event in dead:
            event.fail(RuntimeError("cancelled"))
            event.defused = True
        live = store.get()
        assert len(store._getters) == 1
        assert store._getters[0] is live
        store.put("item")
        assert live.triggered and live.value == "item"
        env.run()


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(seed=7)
        assert streams.stream("a") is streams.stream("a")

    def test_deterministic_across_instances(self):
        first = RandomStreams(seed=7).stream("workload")
        second = RandomStreams(seed=7).stream("workload")
        assert [first.random() for _ in range(5)] == [
            second.random() for _ in range(5)
        ]

    def test_different_names_differ(self):
        streams = RandomStreams(seed=7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x").random()
        b = RandomStreams(seed=2).stream("x").random()
        assert a != b

    def test_stream_isolation(self):
        """Draws on one stream never perturb another."""
        streams = RandomStreams(seed=3)
        reference = RandomStreams(seed=3)
        streams.stream("noise").random()
        streams.stream("noise").random()
        assert (streams.stream("signal").random()
                == reference.stream("signal").random())

    def test_callable_shorthand(self):
        streams = RandomStreams(seed=0)
        assert streams("x") is streams.stream("x")
