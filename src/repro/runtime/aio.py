"""The real-time backend of the environment contract.

:class:`AsyncioEnv` mirrors the discrete-event kernel's process model —
generator processes yielding events, capacity resources, FIFO stores,
``Interrupt`` cancellation — on a real :mod:`asyncio` event loop with
the monotonic wall clock.  The protocol layers (client, MNode,
coordinator, replication, WAL) run here *unchanged*: the same
generators, the same ``yield`` points, the same exception flow.

Semantic mapping
----------------
==============================  =====================================
DES kernel                      AsyncioEnv
==============================  =====================================
heap pop at ``(time, seq)``     ``loop.call_soon`` / ``call_later``
``env.now`` (virtual µs)        monotonic clock µs since construction
``Timeout(delay)``              ``call_later(delay / 1e6, ...)``
``Process`` trampoline          same trampoline, loop-scheduled
``Interrupt`` at a ``yield``    same (thrown by the trampoline)
unhandled failed event          recorded in ``env.unhandled`` + raised
==============================  =====================================

Cost-model delays are **not** charged (``models_costs`` is False): in a
live deployment real work takes real time, and sleeping out simulated
CPU slices would only add artificial latency.  Timer-like delays —
retry backoff, request linger, heartbeats — *are* real sleeps.
``cooperative`` is True: zero-backoff retry loops yield to the loop so
a hot retry cannot starve the process's peers.

``fsync`` is a real durability barrier when the environment is given a
backing directory: the batch's bytes are appended to a log file and
``os.fsync``-ed on the loop's executor.  Without a directory it
degrades to a scheduler yield (durability modeling stays sim-only).
"""

import asyncio
import os
import time
from collections import deque

from repro.runtime.api import ClockView, EnvError, Interrupt

_PENDING = object()

#: Scheduling priorities, mirrored from the DES kernel for call-site
#: compatibility (real-time dispatch is FIFO; the values are accepted
#: and ignored).
URGENT = 0
NORMAL = 1


class AioEvent:
    """An occurrence on the real-time backend.

    API-compatible with :class:`repro.sim.engine.Event`: ``succeed`` /
    ``fail`` trigger it, waiters are resumed through ``callbacks``, and
    ``defused`` marks a consumed failure.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False

    def __repr__(self):
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        return "<{} {} at {:#x}>".format(type(self).__name__, state, id(self))

    @property
    def triggered(self):
        return self._value is not _PENDING

    @property
    def processed(self):
        return self.callbacks is None

    @property
    def ok(self):
        if self._ok is None:
            raise EnvError("event not yet triggered")
        return self._ok

    @property
    def value(self):
        if self._value is _PENDING:
            raise EnvError("event not yet triggered")
        return self._value

    def succeed(self, value=None, priority=NORMAL):
        if self._value is not _PENDING:
            raise EnvError("event already triggered: {!r}".format(self))
        self._ok = True
        self._value = value
        self.env._dispatch_soon(self)
        return self

    def fail(self, exception, priority=NORMAL):
        if not isinstance(exception, BaseException):
            raise EnvError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise EnvError("event already triggered: {!r}".format(self))
        self._ok = False
        self._value = exception
        self.env._dispatch_soon(self)
        return self

    def settle(self, ok, value):
        """Deliver an outcome now: trigger the event and run its waiters
        in this loop turn.  Settling an already-settled event is a
        silent no-op (a reply straggling in past its deadline); see
        :meth:`repro.sim.engine.Event.settle`."""
        if self._value is not _PENDING:
            return
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class AioTimeout(AioEvent):
    """An event that fires ``delay_us`` wall-clock microseconds later."""

    __slots__ = ("delay", "_handle")

    def __init__(self, env, delay_us, value=None):
        if delay_us < 0:
            raise EnvError("negative delay: {!r}".format(delay_us))
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay_us
        if delay_us <= 0:
            self._handle = env._loop.call_soon(env._dispatch, self)
        else:
            self._handle = env._loop.call_later(
                delay_us / 1e6, env._dispatch, self)

    def cancel(self):
        """Disarm an :meth:`AsyncioEnv.timer`: the loop's timer handle
        is cancelled, so a met deadline costs no later wake-up."""
        self._handle.cancel()


class AioProcess(AioEvent):
    """Drives a generator, resuming it whenever a yielded event fires.

    The trampoline is the DES kernel's, verbatim in structure: the
    process is itself an event (yieldable by other processes), succeeds
    with the generator's return value or fails with its exception, and
    :meth:`interrupt` throws :class:`Interrupt` at the current yield.
    """

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, env, generator):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise EnvError(
                "process() requires a generator, got {!r}".format(generator)
            ) from None
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self._generator = generator
        self._target = None
        start = AioEvent(env)
        start._ok = True
        start._value = None
        start.callbacks.append(self._resume)
        env._dispatch_soon(start)

    @property
    def is_alive(self):
        return self._value is _PENDING

    def interrupt(self, cause=None):
        if self._value is not _PENDING:
            raise EnvError("cannot interrupt dead process")
        env = self.env
        if env._active_process is self:
            raise EnvError("process cannot interrupt itself")
        event = AioEvent(env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        env._dispatch_soon(event)
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def _resume(self, event):
        env = self.env
        env._active_process = self
        send = self._send
        throw = self._throw
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event.defused = True
                    target = throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody waits on this process: finish in place.
                    self._ok = True
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:
                env._active_process = None
                self.fail(exc)
                return

            try:
                callbacks = target.callbacks
            except AttributeError:
                exc = EnvError(
                    "process yielded a non-event: {!r}".format(target)
                )
                env._active_process = None
                try:
                    throw(exc)
                except BaseException as err:
                    self.fail(err)
                    return
                raise exc

            if callbacks is None:
                event = target
                continue
            self._target = target
            callbacks.append(self._resume)
            break
        env._active_process = None


class _AioCondition(AioEvent):
    __slots__ = ("_events", "_pending_count")

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        self._pending_count = 0
        for event in self._events:
            if event.callbacks is None:
                self._observe(event)
            else:
                self._pending_count += 1
                event.callbacks.append(self._observe)

    def _observe(self, event):
        raise NotImplementedError


class AioAllOf(_AioCondition):
    """Fires when every child fired; value is the list of values."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, events)
        if not self._events and not self.triggered:
            self.succeed([])
        self._check()

    def _observe(self, event):
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._pending_count -= 1
        self._check()

    def _check(self):
        if (not self.triggered and self._pending_count == 0
                and self._events):
            self.succeed([event._value for event in self._events])


class AioAnyOf(_AioCondition):
    """Fires when the first child fires; value is that event's value."""

    __slots__ = ()

    def __init__(self, env, events):
        if not events:
            raise EnvError("AnyOf requires at least one event")
        super().__init__(env, events)

    def _observe(self, event):
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if event._ok:
            self.succeed(event._value)
        else:
            event.defused = True
            self.fail(event._value)


class AioRequest(AioEvent):
    """Event granted by :class:`AioResource.request`."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource


class AioResource:
    """Capacity-limited resource with FIFO granting (DES semantics)."""

    __slots__ = ("env", "capacity", "_users", "_waiters")

    def __init__(self, env, capacity=1):
        if capacity < 1:
            raise EnvError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users = set()
        self._waiters = deque()

    @property
    def count(self):
        return len(self._users)

    @property
    def queue_length(self):
        return len(self._waiters)

    def request(self):
        if len(self._users) < self.capacity:
            req = self.env.done()   # immediate grant: no loop turn
            self._users.add(req)
            return req
        req = AioRequest(self)
        self._waiters.append(req)
        return req

    def release(self, req):
        if req in self._users:
            self._users.remove(req)
        elif req in self._waiters:
            self._waiters.remove(req)
            return
        else:
            raise EnvError("release of a request not held: {!r}".format(req))
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            if nxt.triggered:
                continue
            self._users.add(nxt)
            nxt.succeed()


class AioStore:
    """Unbounded FIFO buffer with blocking ``get`` (DES semantics)."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env):
        self.env = env
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self):
        if self._items:
            return self.env.done(self._items.popleft())
        event = AioEvent(self.env)
        getters = self._getters
        if getters and getters[0].triggered:
            self._getters = getters = deque(
                g for g in getters if not g.triggered
            )
        getters.append(event)
        return event

    def get_nowait(self):
        return self._items.popleft() if self._items else None

    def drain(self):
        items = list(self._items)
        self._items.clear()
        return items


class AsyncioEnv:
    """Real-time environment over a running asyncio event loop.

    Construct *inside* the loop (``asyncio.run`` / a running coroutine):
    node constructors spawn processes immediately.  ``wal_dir`` enables
    real fsync barriers — each named WAL gets an append-only file under
    it (see :meth:`fsync`).
    """

    models_costs = False
    cooperative = True

    def __init__(self, loop=None, wal_dir=None):
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._t0 = time.monotonic()
        self._active_process = None
        #: Exceptions from failed events nobody waited on (and did not
        #: defuse).  Live services log these; tests assert emptiness.
        self.unhandled = []
        self.wal_dir = wal_dir
        self._wal_files = {}
        self._clocks = {}

    # -- clock -----------------------------------------------------------

    @property
    def now(self):
        """Microseconds of monotonic wall-clock since construction."""
        return (time.monotonic() - self._t0) * 1e6

    def now_us(self):
        return (time.monotonic() - self._t0) * 1e6

    def clock(self, name):
        """Per-node :class:`ClockView`; identity unless deliberately
        skewed (the live runtime never skews — real clocks drift on
        their own)."""
        view = self._clocks.get(name)
        if view is None:
            view = self._clocks[name] = ClockView(self, name)
        return view

    def clock_views(self):
        return list(self._clocks.values())

    # -- dispatch --------------------------------------------------------

    def _dispatch_soon(self, event):
        self._loop.call_soon(self._dispatch, event)

    def _dispatch(self, event):
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            self.unhandled.append(event._value)
            raise event._value

    # -- constructors ----------------------------------------------------

    def event(self):
        return AioEvent(self)

    def timeout(self, delay_us, value=None):
        return AioTimeout(self, delay_us, value)

    def schedule_timeout(self, delay_us):
        return AioTimeout(self, delay_us)

    def sleep(self, delay_us):
        return AioTimeout(self, delay_us)

    def done(self, value=None):
        event = AioEvent(self)
        event._ok = True
        event._value = value
        event.callbacks = None
        return event

    def timer(self, delay_us, callback):
        event = AioTimeout(self, delay_us)
        event.callbacks.append(callback)
        return event

    def process(self, generator):
        return AioProcess(self, generator)

    def spawn(self, generator):
        return AioProcess(self, generator)

    def all_of(self, events):
        return AioAllOf(self, events)

    def any_of(self, events):
        return AioAnyOf(self, events)

    def resource(self, capacity=1):
        return AioResource(self, capacity=capacity)

    def store(self):
        return AioStore(self)

    # -- durability ------------------------------------------------------

    def fsync(self, cost_us, nbytes=0, name="wal"):
        """Real durability barrier for one WAL flush batch.

        With a ``wal_dir``, appends ``nbytes`` to the named log file and
        ``os.fsync``-s it on the loop's executor; the returned event
        fires when the device confirms.  Without one, the barrier is a
        scheduler yield (no artificial modeled latency — see module
        docs).
        """
        if self.wal_dir is None:
            return AioTimeout(self, 0)
        done = AioEvent(self)
        handle = self._wal_file(name)

        def _sync():
            if nbytes > 0:
                os.write(handle, b"\x00" * int(nbytes))
            os.fsync(handle)

        future = self._loop.run_in_executor(None, _sync)

        def _finish(fut):
            exc = fut.exception()
            if exc is not None:
                done.fail(exc)
            else:
                done.succeed()

        future.add_done_callback(_finish)
        return done

    def _wal_file(self, name):
        handle = self._wal_files.get(name)
        if handle is None:
            os.makedirs(self.wal_dir, exist_ok=True)
            path = os.path.join(self.wal_dir, "{}.wal".format(name))
            handle = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            self._wal_files[name] = handle
        return handle

    def close(self):
        for handle in self._wal_files.values():
            os.close(handle)
        self._wal_files.clear()

    # -- async integration ----------------------------------------------

    async def wait(self, event):
        """Await an environment event from native ``async`` code."""
        future = self._loop.create_future()

        def _done(ev):
            if future.cancelled():
                ev.defused = ev._ok is False or ev.defused
                return
            if ev._ok:
                future.set_result(ev._value)
            else:
                ev.defused = True
                future.set_exception(ev._value)

        if event.callbacks is None:
            _done(event)
        else:
            event.callbacks.append(_done)
        return await future

    async def run_process(self, generator):
        """Drive a protocol generator to completion; return its value."""
        return await self.wait(AioProcess(self, generator))
