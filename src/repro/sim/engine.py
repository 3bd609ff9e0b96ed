"""Core discrete-event simulation kernel.

The kernel follows the classic event-heap design: an :class:`Environment`
owns a priority queue of ``(time, priority, sequence, event)`` entries and
advances simulated time by popping the earliest entry and running the
event's callbacks.  User logic is written as generator functions ("process
functions") that ``yield`` events; a :class:`Process` drives the generator,
resuming it each time the yielded event fires.

Design notes
------------
* Events carry either a success value or a failure exception.  A failure
  propagates into every waiting process via ``generator.throw``, so ordinary
  ``try/except`` works across simulated waits.
* A failed event that nobody waits on raises :class:`SimulationError` when
  it is processed: errors never pass silently.
* Time is a ``float`` in arbitrary units; the FalconFS layers use
  microseconds by convention (see :mod:`repro.net.costs`).

Fast-path notes
---------------
Simulator speed bounds every experiment in this repository, so the hot
path is deliberately flat (see ``docs/architecture.md`` § "Simulator
performance" for the contract):

* every event class uses ``__slots__`` — no per-event ``__dict__``;
* the heap sequence is a plain ``int`` incremented inline, and the hot
  constructors (:class:`Timeout`, :class:`Initialize`, ``succeed`` /
  ``fail``) push their heap entry directly instead of going through
  :meth:`Environment._schedule`;
* a :class:`Timeout` starts with the shared immutable
  ``_NO_CALLBACKS`` tuple instead of allocating a callback list; the
  first waiter swaps in a single-element list.  ``Environment.
  schedule_timeout`` is the fastest constructor for the overwhelmingly
  common bare value-less timeout;
* :meth:`Process._resume` binds the generator's ``send``/``throw`` once
  and type-checks yielded targets with EAFP instead of ``isinstance``;
* :meth:`Environment.run` inlines the :meth:`step` body in its loops;
* only simulated time goes through the heap: a heap entry either
  advances the clock or wakes a waiter that actually queued.  An
  immediate grant is an already-processed event
  (:meth:`Environment.done`), a callback on the clock is one bare
  timeout (:meth:`Environment.timer`), a reply resumes its caller
  inside the arrival (:meth:`Event.settle`), and a process nobody
  waits on finishes in place.  Uncontended lock grants share one such
  event (:meth:`Environment.granted`) and call sites skip the ``yield``
  of a processed event altogether (``callbacks is None``), and
  consecutive delays private to one process are one entry at an
  absolute time it adds up itself (:meth:`Environment.sleep_until`);
* the cycle collector stays off the hot path: nothing a fault-free
  operation allocates is a reference cycle, and the three run loops
  below execute inside :func:`repro.runtime.api.sized_nursery`, so the
  in-flight population is not promoted into the old generation and
  re-scanned with the whole namespace.  :meth:`Environment.step` runs
  one event and leaves the collector as it found it.

None of this changes *what* is simulated: every simulated timestamp is
bit-identical to the original kernel's, which the golden-trace test
(``tests/test_perf_golden.py``) and the checker fingerprints
(``tests/test_check_fingerprints.py``) pin down.
"""

from heapq import heappop, heappush

from repro.runtime.api import EnvError, sized_nursery

__all__ = [
    "AllOf", "AnyOf", "Environment", "Event", "Initialize",
    "Process", "SimulationError", "Timeout", "NORMAL", "URGENT",
]

#: Scheduling priorities.  URGENT entries at the same timestamp run before
#: NORMAL ones; this keeps "wake the waiter" ahead of "start the next op".
URGENT = 0
NORMAL = 1

_PENDING = object()

#: Shared immutable "no callbacks yet" marker for freshly created hot-path
#: events (timeouts).  Distinct from ``None``, which means *processed*.
#: The first waiter replaces it with a real single-element list.
_NO_CALLBACKS = ()


class SimulationError(EnvError):
    """Raised for kernel misuse or unhandled process failures.

    Subclasses the backend-agnostic :class:`repro.runtime.api.EnvError`
    so protocol code can catch kernel misuse without importing the
    simulator."""


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* once it has a value (or
    an exception) and a position in the event queue, and is *processed*
    after its callbacks have run.  Processes wait on events by yielding
    them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        #: Set when a waiter has consumed this event's failure, so the
        #: kernel does not re-raise it as unhandled.
        self.defused = False

    def __repr__(self):
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        return "<{} {} at {:#x}>".format(type(self).__name__, state, id(self))

    @property
    def triggered(self):
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once the event's callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self):
        """The event's success value or failure exception."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value=None, priority=NORMAL):
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered: {!r}".format(self))
        self._ok = True
        self._value = value
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now, priority, seq, self))
        if priority:
            env._waking = self
        return self

    def fail(self, exception, priority=NORMAL):
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError("event already triggered: {!r}".format(self))
        self._ok = False
        self._value = exception
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now, priority, seq, self))
        if priority:
            env._waking = self
        return self

    def settle(self, ok, value):
        """Deliver an outcome *now*: trigger the event and run its
        waiters inline, with no heap entry.

        This is how an RPC reply reaches its caller: the hop timer that
        carried the reply already paid for the simulated time, so a
        second, zero-delay heap entry would only buy bookkeeping.
        Settling an event that already has an outcome is a silent no-op
        (a reply that straggles in after its caller gave up at the
        deadline), and a failure settled before anyone waits is raised
        at the first ``yield``, never as an unhandled kernel failure.
        """
        if self._value is not _PENDING:
            return
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


def _add_callback(event, callback):
    """Append ``callback`` to a not-yet-processed event.

    Swaps the shared ``_NO_CALLBACKS`` marker for a real list on first
    use, so bare timeouts that nobody ever waits on allocate nothing.
    """
    callbacks = event.callbacks
    if callbacks is _NO_CALLBACKS:
        event.callbacks = [callback]
    else:
        callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise SimulationError("negative delay: {!r}".format(delay))
        # Flattened Event.__init__ plus direct heap push: one Timeout per
        # CPU slice / wire hop / WAL fsync makes this the hottest
        # constructor in the simulator.
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))

    def cancel(self):
        """Disarm a :meth:`Environment.timer`: its callback never runs.

        The heap entry stays (removing from a heap's middle costs more
        than popping a no-op) and still advances the clock when it
        comes due, like any timeout nobody waits on.
        """
        if self.callbacks is not None:
            self.callbacks = _NO_CALLBACKS


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env, process):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self.defused = False
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now, URGENT, seq, self))


class Process(Event):
    """Drives a generator, resuming it whenever a yielded event fires.

    A process is itself an event: it succeeds with the generator's return
    value, or fails with the exception that escaped the generator.  Other
    processes may therefore ``yield`` a process to wait for its completion.
    """

    __slots__ = ("_send", "_throw")

    def __init__(self, env, generator):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(
                "process() requires a generator, got {!r}".format(generator)
            ) from None
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        Initialize(env, self)

    def _resume(self, event):
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
                if self.callbacks:
                    self.succeed(stop.value, priority=URGENT)
                else:
                    # Nobody waits on this process: finish in place.  A
                    # later ``yield`` of it continues inline.
                    self._ok = True
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:
                self.fail(exc, priority=URGENT)
                return

            # EAFP stand-in for ``isinstance(target, Event)``: every event
            # has a ``callbacks`` attribute (``None`` once processed);
            # anything else yielded is a bug in the process function.
            try:
                callbacks = target.callbacks
            except AttributeError:
                exc = SimulationError(
                    "process yielded a non-event: {!r}".format(target)
                )
                try:
                    throw(exc)
                except BaseException as err:
                    self.fail(err, priority=URGENT)
                    return
                raise exc

            if callbacks is None:
                # Already processed: loop and feed the value straight in.
                event = target
                continue
            if callbacks is _NO_CALLBACKS:
                target.callbacks = [self._resume]
            else:
                callbacks.append(self._resume)
            break


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` combinators."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.callbacks is None:
                self._observe(event)
            else:
                self._pending += 1
                _add_callback(event, self._observe)


class AllOf(Condition):
    """Fires when every child event has fired; value is the list of values."""

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
        self._pending -= 1
        self._check()

    def _check(self):
        if not self.triggered and self._pending == 0 and self._events:
            self.succeed([event._value for event in self._events])


class AnyOf(Condition):
    """Fires when the first child event fires; value is that event's value."""

    __slots__ = ()

    def __init__(self, env, events):
        if not events:
            raise SimulationError("AnyOf requires at least one event")
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


class Environment:
    """The simulation clock and event queue.

    Implements the full environment contract of
    :mod:`repro.runtime.api`: protocol code written against the contract
    runs here with virtual time, and on the subclass
    :class:`~repro.runtime.aio.AsyncioEnv` — this kernel driven by the
    wall clock instead of by :meth:`run` — in real time.
    """

    __slots__ = ("_now", "_queue", "_seq", "_clocks",
                 "_waking", "_granted")

    #: Environment-contract flags (see :mod:`repro.runtime.api`): the
    #: simulator charges every CostModel delay as virtual time and must
    #: never see gratuitous zero-delay events (golden traces pin the
    #: exact event sequence).
    models_costs = True
    cooperative = False

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._queue = []
        #: Plain int tie-breaker; incremented inline on the hot paths.
        self._seq = 0
        #: The latest zero-delay wake-up pushed (``succeed`` / ``fail``
        #: at NORMAL priority).  While it is still in the heap, an
        #: immediate grant queues behind it instead of continuing
        #: inline — see :meth:`done`.
        self._waking = None
        #: The one already-processed, value-less event every uncontended
        #: lock grant shares — see :meth:`granted`.
        self._granted = self.done()
        #: Per-node ClockView registry (lazy; see ``clock``).
        self._clocks = None

    def __repr__(self):
        return "<Environment now={} queued={}>".format(self._now, len(self._queue))

    @property
    def now(self):
        """Current simulated time."""
        return self._now

    @property
    def events_scheduled(self):
        """Total heap entries scheduled so far (the ledger's events
        metric; monotone, cheap, deterministic)."""
        return self._seq

    # -- public event constructors ------------------------------------

    def event(self):
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def schedule_timeout(self, delay):
        """Fast path for the overwhelmingly common bare timeout.

        Identical scheduling to ``timeout(delay)`` — same heap entry,
        same sequence number — minus the value/validation overhead and
        the callback-list allocation.  Callers guarantee ``delay >= 0``
        (every cost in :mod:`repro.net.costs` is non-negative).
        """
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = _NO_CALLBACKS
        event._value = None
        event._ok = True
        event.defused = False
        event.delay = delay
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, NORMAL, seq, event))
        return event

    def sleep_until(self, when_us):
        """The absolute-time twin of :meth:`schedule_timeout`: a bare
        timeout that fires at ``when_us``.

        This is how a process charges several consecutive private
        delays as one heap entry: it adds the slices up itself, left to
        right from :attr:`now` — the additions the chain of relative
        timeouts would have performed, so the wake-up time is
        bit-identical (``now + total`` rounds differently) — and sleeps
        once.  Callers guarantee ``when_us >= now``.
        """
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = _NO_CALLBACKS
        event._value = None
        event._ok = True
        event.defused = False
        event.delay = when_us - self._now
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (when_us, NORMAL, seq, event))
        return event

    def process(self, generator):
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator)

    def done(self, value=None):
        """An already-processed event carrying ``value``.

        What an immediate grant hands back (a free CPU core, an
        uncontended lock, a buffered item): yielding it continues the
        process inline, with no heap entry and no sequence number.

        Resume order stays wake-up order: while an earlier zero-delay
        wake-up is still in the heap (a waiter granted by a release in
        this same instant has not run yet), the grant is an ordinary
        triggered event queued behind it.
        """
        waking = self._waking
        if waking is not None and waking.callbacks is not None:
            return Event(self).succeed(value)
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = None
        event._value = value
        event._ok = True
        event.defused = False
        return event

    def granted(self):
        """:meth:`done` without a value and without the allocation: the
        event of a grant whose holder keeps its own handle (a lock
        :class:`~repro.storage.locks.Grant`), so every such grant can
        share one immutable processed event.  The resume-order rule is
        :meth:`done`'s: behind a wake-up still in the heap, the grant is
        a fresh triggered event queued after it.
        """
        waking = self._waking
        if waking is not None and waking.callbacks is not None:
            return Event(self).succeed()
        return self._granted

    def timer(self, delay, callback):
        """Run ``callback(timer)`` after ``delay``; returns the timer,
        whose ``cancel()`` disarms it.

        One heap entry — the same one ``schedule_timeout(delay)`` would
        push — and no process: message arrivals and RPC deadlines are
        plain callbacks on the clock.  (Flattened like
        ``schedule_timeout``: two timers per RPC.)
        """
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = [callback]
        event._value = None
        event._ok = True
        event.defused = False
        event.delay = delay
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, NORMAL, seq, event))
        return event

    # -- environment-contract surface (repro.runtime.api) ---------------

    def now_us(self):
        """Current time in microseconds (the contract spelling of
        :attr:`now`; simulated time *is* microseconds by convention)."""
        return self._now

    def sleep(self, delay_us):
        """Contract alias for :meth:`schedule_timeout`."""
        return self.schedule_timeout(delay_us)

    def resource(self, capacity=1):
        """A :class:`~repro.sim.resources.Resource` on this clock."""
        from repro.sim.resources import Resource

        return Resource(self, capacity=capacity)

    def store(self):
        """A :class:`~repro.sim.resources.Store` on this clock."""
        from repro.sim.resources import Store

        return Store(self)

    def fsync(self, cost_us, nbytes=0):
        """Durability barrier: in the simulator an fsync is exactly its
        modeled latency (``nbytes`` already priced into ``cost_us`` by
        the WAL).  Identical heap entry to ``schedule_timeout``."""
        return self.schedule_timeout(cost_us)

    def clock(self, name):
        """Per-node :class:`~repro.runtime.api.ClockView` for ``name``.

        Views are identity transforms until the gray-failure injector
        skews them; creating one schedules nothing, so runs that never
        skew stay bit-identical.
        """
        from repro.runtime.api import ClockView

        clocks = self._clocks
        if clocks is None:
            clocks = self._clocks = {}
        view = clocks.get(name)
        if view is None:
            view = clocks[name] = ClockView(self, name)
        return view

    def clock_views(self):
        """All clock views handed out so far (for heal/reset sweeps)."""
        return list(self._clocks.values()) if self._clocks else []

    def all_of(self, events):
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- execution ------------------------------------------------------

    def step(self):
        """Process the next scheduled event.

        Raises :class:`SimulationError` if the queue is empty, and re-raises
        the failure of any event that failed with no one waiting on it.
        """
        if not self._queue:
            raise SimulationError("no scheduled events")
        self._now, _, _, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time) or an :class:`Event` (run until it
        is processed, returning its value or re-raising its failure).

        The loops below inline :meth:`step` — one function call per event
        is the single largest fixed cost in the simulator — and run with
        the young generation sized for the in-flight population; the
        process's collector thresholds are the caller's again on return
        or raise.
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        queue = self._queue
        pop = heappop
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    "until={} is in the past (now={})".format(horizon, self._now)
                )
            with sized_nursery():
                while queue and queue[0][0] <= horizon:
                    self._now, _, _, event = pop(queue)
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
            self._now = horizon
            return None
        with sized_nursery():
            while queue:
                self._now, _, _, event = pop(queue)
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
        return None

    def run_until_quiescent(self, budget_us=None):
        """Drain the event queue; True when it fully drained.

        With ``budget_us`` the drain is bounded: if events remain
        scheduled past ``now + budget_us`` the clock is clamped to that
        horizon and False is returned — the caller decides whether a
        non-quiescent system is a bug (leaked retry loop, stuck waiter)
        or an underfunded budget.
        """
        if budget_us is None:
            self.run()
            return True
        horizon = self._now + float(budget_us)
        queue = self._queue
        pop = heappop
        with sized_nursery():
            while queue:
                if queue[0][0] > horizon:
                    self._now = horizon
                    return False
                self._now, _, _, event = pop(queue)
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
        return True

    def _run_until_event(self, until):
        stop = []
        if until.callbacks is None:
            stop.append(until)
        else:
            _add_callback(until, stop.append)
        queue = self._queue
        pop = heappop
        with sized_nursery():
            while not stop:
                if not queue:
                    raise SimulationError(
                        "simulation ran out of events before {!r} fired"
                        .format(until)
                    )
                self._now, _, _, event = pop(queue)
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
        if until._ok:
            return until._value
        until.defused = True
        raise until._value
