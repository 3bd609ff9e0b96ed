"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestEnvironment:
    def test_initial_time_is_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=42.0).now == 42.0

    def test_run_empty_queue_returns(self, env):
        assert env.run() is None

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_reports_next_event_time(self, env):
        env.timeout(7.5)
        assert env.peek() == 7.5

    def test_run_until_time_advances_clock(self, env):
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_past_time_raises(self, env):
        env.run(until=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_run_until_time_stops_at_boundary(self, env):
        fired = []
        env.process(_record_at(env, 5.0, fired))
        env.process(_record_at(env, 15.0, fired))
        env.run(until=10.0)
        assert fired == [5.0]

    def test_run_until_event_returns_value(self, env):
        proc = env.process(_return_after(env, 3.0, "done"))
        assert env.run(until=proc) == "done"
        assert env.now == 3.0

    def test_run_until_unreachable_event_raises(self, env):
        pending = env.event()
        with pytest.raises(SimulationError):
            env.run(until=pending)


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        proc = env.process(_return_after(env, 12.0, None))
        env.run(until=proc)
        assert env.now == 12.0

    def test_timeout_carries_value(self, env):
        def proc():
            value = yield env.timeout(1.0, "payload")
            return value

        assert env.run(until=env.process(proc())) == "payload"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeouts_fire_in_order(self, env):
        order = []
        for delay in (5.0, 1.0, 3.0):
            env.process(_record_at(env, delay, order))
        env.run()
        assert order == [1.0, 3.0, 5.0]

    def test_equal_time_fifo(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        assert order == ["a", "b"]


class TestEvent:
    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(5)
        assert event.triggered and event.ok and event.value == 5

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_unwaited_failure_raises_at_step(self, env):
        env.event().fail(ValueError("lost"))
        with pytest.raises(ValueError):
            env.run()


class TestProcess:
    def test_process_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_return_value(self, env):
        proc = env.process(_return_after(env, 1.0, 99))
        assert env.run(until=proc) == 99

    def test_is_alive_transitions(self, env):
        """A process is alive until its generator returns: then its
        event triggers."""
        proc = env.process(_return_after(env, 5.0, None))
        assert not proc.triggered
        env.run()
        assert proc.triggered

    def test_exception_propagates_to_waiter(self, env):
        def boom():
            yield env.timeout(1.0)
            raise RuntimeError("kaboom")

        def catcher():
            try:
                yield env.process(boom())
            except RuntimeError as exc:
                return str(exc)

        assert env.run(until=env.process(catcher())) == "kaboom"

    def test_unhandled_process_exception_raises(self, env):
        def boom():
            yield env.timeout(1.0)
            raise RuntimeError("unhandled")

        env.process(boom())
        with pytest.raises(RuntimeError):
            env.run()

    def test_failure_reraised_by_run_until(self, env):
        def boom():
            yield env.timeout(1.0)
            raise KeyError("k")

        proc = env.process(boom())
        with pytest.raises(KeyError):
            env.run(until=proc)

    def test_yield_non_event_fails_process(self, env):
        def bad():
            yield 42

        proc = env.process(bad())
        with pytest.raises(SimulationError):
            env.run(until=proc)

    def test_wait_on_already_processed_event(self, env):
        done = env.event()
        done.succeed("early")

        def late():
            yield env.timeout(5.0)
            value = yield done
            return value

        assert env.run(until=env.process(late())) == "early"

    def test_nested_processes(self, env):
        def inner():
            yield env.timeout(2.0)
            return "inner"

        def outer():
            value = yield env.process(inner())
            yield env.timeout(1.0)
            return value + "-outer"

        assert env.run(until=env.process(outer())) == "inner-outer"
        assert env.now == 3.0


class TestConditions:
    def test_all_of_collects_values(self, env):
        def proc():
            values = yield env.all_of(
                [env.timeout(3.0, "a"), env.timeout(1.0, "b")]
            )
            return (values, env.now)

        assert env.run(until=env.process(proc())) == (["a", "b"], 3.0)

    def test_all_of_empty_fires_immediately(self, env):
        def proc():
            values = yield env.all_of([])
            return values

        assert env.run(until=env.process(proc())) == []

    def test_all_of_fails_on_child_failure(self, env):
        def boom():
            yield env.timeout(1.0)
            raise ValueError("child")

        def proc():
            try:
                yield env.all_of(
                    [env.timeout(5.0), env.process(boom())]
                )
            except ValueError:
                return "failed"

        assert env.run(until=env.process(proc())) == "failed"

    def test_any_of_returns_first(self, env):
        def proc():
            value = yield env.any_of(
                [env.timeout(9.0, "slow"), env.timeout(2.0, "fast")]
            )
            return (value, env.now)

        assert env.run(until=env.process(proc())) == ("fast", 2.0)

    def test_any_of_empty_rejected(self, env):
        with pytest.raises(SimulationError):
            env.any_of([])

    def test_all_of_with_processed_children(self, env):
        early = env.event()
        early.succeed(1)

        def proc():
            yield env.timeout(1.0)
            values = yield env.all_of([early, env.timeout(1.0, 2)])
            return values

        assert env.run(until=env.process(proc())) == [1, 2]


def _record_at(env, delay, log):
    yield env.timeout(delay)
    log.append(env.now)


def _return_after(env, delay, value):
    yield env.timeout(delay)
    return value


class TestHeapFreePrimitives:
    """The three primitives behind "only simulated time goes through
    the heap": an already-processed event, a cancellable timer and
    inline reply delivery."""

    def test_done_is_processed_and_schedules_nothing(self, env):
        event = env.done("granted")
        assert event.processed and event.ok and event.value == "granted"
        assert env.events_scheduled == 0

        def user():
            return (yield event)

        assert env.run(until=env.process(user())) == "granted"

    def test_done_queues_behind_a_wakeup_in_flight(self, env):
        woken = env.event().succeed("first")
        late = env.done("second")
        assert not late.processed and late.triggered
        order = []
        woken.callbacks.append(lambda ev: order.append(ev.value))
        late.callbacks.append(lambda ev: order.append(ev.value))
        env.run()
        assert order == ["first", "second"]
        assert env.done().processed     # the wake-up has run: inline again

    def test_timer_runs_its_callback_once_on_one_heap_entry(self, env):
        fired = []
        env.timer(5.0, lambda timer: fired.append(env.now))
        assert env.events_scheduled == 1
        env.run()
        assert fired == [5.0] and env.events_scheduled == 1

    def test_cancelled_timer_never_fires_but_keeps_its_instant(self, env):
        fired = []
        timer = env.timer(5.0, fired.append)
        timer.cancel()
        env.run()
        assert fired == [] and env.now == 5.0
        timer.cancel()                  # after the fact: harmless

    def test_settle_resumes_the_waiter_inline(self, env):
        reply = env.event()
        log = []

        def caller():
            log.append((yield reply))

        env.process(caller())
        env.run()
        scheduled = env.events_scheduled
        reply.settle(True, "payload")
        assert log == ["payload"] and reply.processed
        assert env.events_scheduled == scheduled

    def test_settle_twice_is_a_silent_noop(self, env):
        reply = env.event()
        reply.settle(False, TimeoutError("deadline"))
        reply.settle(True, "straggler")             # late reply
        reply.settle(False, RuntimeError("late"))   # late error
        assert not reply.ok and isinstance(reply.value, TimeoutError)
        env.run()                                   # nothing unhandled

    def test_failure_settled_before_the_wait_is_raised_at_the_yield(self, env):
        reply = env.event()
        reply.settle(False, KeyError("early"))

        def caller():
            try:
                yield reply
            except KeyError as exc:
                return exc.args[0]

        assert env.run(until=env.process(caller())) == "early"

    def test_unawaited_process_finishes_in_place(self, env):
        def child():
            yield env.timeout(1.0)
            return "done"

        proc = env.process(child())
        env.run()
        # Initialize + the timeout: no process-end entry for nobody.
        assert env.events_scheduled == 2
        assert proc.processed and proc.value == "done"

        def late_waiter():
            return (yield proc)

        assert env.run(until=env.process(late_waiter())) == "done"
