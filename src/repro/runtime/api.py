"""The environment contract: one protocol implementation, two clocks.

Every protocol layer in this repository — client, MNode, coordinator,
replication, WAL, transport — is written as generator "processes" that
``yield`` handles obtained from an *environment*.  The environment owns
the clock, the scheduler and the concurrency primitives; the protocol
code never imports a particular kernel.  Two backends implement the
contract:

* :class:`~repro.runtime.sim_env.SimEnv` — the discrete-event simulator
  (:mod:`repro.sim.engine`).  Time is virtual microseconds, every cost in
  :class:`~repro.net.costs.CostModel` is charged as simulated delay, and
  runs are bit-for-bit deterministic (the golden traces pin this down).
  The DES remains the reference implementation: fault injection, the
  nemesis schedules and ``repro.check`` exist only here.
* :class:`~repro.runtime.aio.AsyncioEnv` — a real asyncio event loop.
  Time is the monotonic wall clock in microseconds, sleeps are real
  sleeps, and the fabric is real length-prefixed JSON-RPC over TCP
  sockets (:mod:`repro.runtime.net`).  Modeled hardware costs are *not*
  charged (``models_costs`` is False): real work takes real time.

The contract (duck-typed; this class is documentation and a guard rail,
not a required base):

======================  =================================================
``now`` / ``now_us()``  current time in microseconds (float)
``event()``             fresh pending event: ``succeed(v)`` / ``fail(e)``
                        triggers it and wakes its waiters on a later
                        scheduler turn; waiters ``yield`` it; ``defused``
                        suppresses unhandled-failure propagation
``event.settle(ok, v)`` **inline reply delivery**: trigger the event and
                        resume its waiters *now*, in the caller's turn.
                        A second outcome is dropped silently (the reply
                        that straggles in past its deadline); a failure
                        nobody waits on yet is raised at the first
                        ``yield``.  RPC reply handles are settled, never
                        ``succeed``-ed: any object with ``settle`` works
``done(v)``             **already-processed event** carrying ``v``: what
                        an immediate grant (free core, uncontended lock,
                        buffered item) hands back — yielding it
                        continues inline, no scheduler turn.  **Lock-grant
                        events carry no value** on either path (inline
                        ``done()``, queued ``succeed()``): the acquirer
                        holds the ``Grant``, and an event pointing back
                        at it would be a reference cycle per acquisition
``timer(us, fn)``       **cancellable timer**: ``fn(timer)`` runs ``us``
                        microseconds from now unless ``timer.cancel()``
                        came first; no process behind it.  Message
                        arrivals and RPC deadlines are timers
``timeout(us, v)``      event firing ``us`` microseconds from now
``sleep(us)`` /
``schedule_timeout``    bare timeout (fast path; no value, no callbacks)
``process(gen)`` /
``spawn(gen)``          drive a generator as a process; the handle is
                        itself an event (yieldable), with ``is_alive``
                        and ``interrupt(cause)``
``all_of(events)``      event firing when every child fired
``any_of(events)``      event firing at the first child
``resource(capacity)``  capacity-limited FIFO resource (CPU cores, ...)
``store()``             unbounded FIFO with blocking ``get``
``fsync(cost_us, n)``   durability barrier: an event that fires when a
                        WAL batch of ``n`` bytes is on stable storage
                        (simulated fsync latency, or a real file fsync)
``clock(name)``         per-node :class:`ClockView` — what ``name``'s
                        local clock reads.  Identity until skewed by the
                        gray-failure injector; all node-local deadline
                        and heartbeat arithmetic goes through it
``models_costs``        True when CostModel delays must be charged
``cooperative``         True when zero-delay loops must still yield to
                        the scheduler (real event loops starve without
                        it; the DES must *not* see extra events)
======================  =================================================

The scheduling rule both backends follow: **a heap entry (or asyncio
loop turn) either advances the clock or wakes a waiter that was actually
queued — never a zero-delay round trip.**  A network hop is one timer
whose callback *is* the arrival; an uncontended grant is ``done``; a
reply reaches its caller through ``settle`` inside the arrival; an RPC
deadline is one timer raced against the reply, cancelled when the reply
wins (on asyncio that cancels the ``call_later`` handle, so a met
deadline never wakes the loop).  What still takes a turn is a real
wake-up: a queued waiter granted by a ``release``, a parked worker
handed an item, a process start.  The simulator keeps resume order equal
to wake-up order — while a wake-up is still in the heap, ``done`` queues
behind it.  ``cooperative`` backends additionally yield on zero-backoff
retries: there the turn buys fairness, not ordering — with grants and
replies inline, a hot retry loop would otherwise never let the loop
read the socket that carries the answer it is waiting for.

:class:`Interrupt` is the cancellation signal both kernels throw into a
process at its current ``yield``, and :class:`EnvError` is the base for
kernel-misuse errors (the simulator's ``SimulationError`` subclasses
it).

The garbage-collection rule, for every layer written against this
contract: **no object a fault-free operation allocates may need the
cycle collector** — an event never points back at the object that holds
it — so reference counting frees the hot path and the collector only
ever has error paths to clean up after.  :func:`sized_nursery` is the
other half: whoever drives many operations at once sizes the young
generation above the in-flight population for the duration and hands
the process its thresholds back.
"""

import gc
from contextlib import contextmanager

#: Young-generation threshold while a simulation runs: net container
#: allocations between young collections.  The closed-loop workloads
#: keep 64-512 operations in flight, tens of thousands of live transient
#: objects; under CPython's default of 700 nearly all of them survive
#: two young collections and die in the old generation, whose full
#: collections re-scan the whole bulk-loaded namespace.  Anything from
#: 20,000 up measures the same.
NURSERY_THRESHOLD = 50_000


@contextmanager
def sized_nursery():
    """Raise the collector's young-generation threshold to
    :data:`NURSERY_THRESHOLD` for the ``with`` body and restore the
    caller's thresholds on the way out, also when the body raises.

    Re-entrant without keeping state: a nested entry finds the young
    generation already sized and changes nothing, so only the outermost
    exit restores.  A caller who switched the young generation off
    (threshold 0) or sized it larger keeps that choice.  The collector
    is never disabled and nothing is frozen — cycles made by error paths
    are still collected, just not every 700 allocations.
    """
    saved = gc.get_threshold()
    if not 0 < saved[0] < NURSERY_THRESHOLD:
        yield
        return
    gc.set_threshold(NURSERY_THRESHOLD, saved[1], saved[2])
    try:
        yield
    finally:
        gc.set_threshold(*saved)


class EnvError(Exception):
    """Kernel misuse or unhandled process failure (backend-agnostic)."""


class Interrupt(Exception):
    """Thrown into a process by ``process.interrupt(cause)``.

    The interrupted process receives this exception at its current
    ``yield`` statement and may handle it to implement timeouts or
    cancellation.  Shared by both backends so ``try/except Interrupt``
    in protocol code is environment-independent.
    """

    def __init__(self, cause=None):
        super().__init__(cause)

    @property
    def cause(self):
        """The object passed to ``interrupt()``."""
        return self.args[0]


class ClockView:
    """What one node's local clock reads — the gray-failure skew surface.

    Every node gets a view via ``env.clock(name)``; node-local time
    arithmetic (op deadlines, RPC watchdog remaining-time, heartbeat
    cadence) reads ``now_us()`` on the view instead of the environment.
    An unskewed view is an exact identity — it returns the environment's
    float unchanged, so runs without the skew nemesis stay bit-identical
    to runs that never heard of clock views.

    ``skew(offset_us, drift_ppm)`` anchors a linear transform at the
    current environment time: the node thereafter reads
    ``t + offset + (t - anchor) * drift_ppm * 1e-6``.  ``to_env_delay``
    converts a duration the node *intends* (its timers tick at the
    drifted rate) into environment microseconds.
    """

    __slots__ = ("env", "name", "offset_us", "drift_ppm", "_anchor_us")

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.offset_us = 0.0
        self.drift_ppm = 0.0
        self._anchor_us = 0.0

    @property
    def skewed(self):
        return self.offset_us != 0.0 or self.drift_ppm != 0.0

    def now_us(self):
        t = self.env.now_us()
        if self.offset_us == 0.0 and self.drift_ppm == 0.0:
            return t
        return t + self.offset_us + (t - self._anchor_us) * (
            self.drift_ppm * 1e-6)

    def to_env_delay(self, local_delay_us):
        """Environment duration of a ``local_delay_us``-long local timer."""
        if self.drift_ppm == 0.0:
            return local_delay_us
        return local_delay_us / (1.0 + self.drift_ppm * 1e-6)

    def skew(self, offset_us=0.0, drift_ppm=0.0):
        """Install a skew anchored at the current environment time."""
        self._anchor_us = self.env.now_us()
        self.offset_us = offset_us
        self.drift_ppm = drift_ppm

    def reset(self):
        self.offset_us = 0.0
        self.drift_ppm = 0.0
        self._anchor_us = 0.0


class Env:
    """Documentation base class for environment backends.

    Backends are duck-typed — protocol code never isinstance-checks —
    but the two defaults declared here mean a backend only overrides
    what differs from the simulator's semantics.
    """

    #: Charge :class:`~repro.net.costs.CostModel` delays as time.
    models_costs = True
    #: Yield to the scheduler even for zero-delay backoffs.
    cooperative = False

    def now_us(self):
        """Current time in microseconds."""
        raise NotImplementedError

    def sleep(self, delay_us):
        """A bare yieldable timeout ``delay_us`` microseconds long."""
        raise NotImplementedError

    def spawn(self, generator):
        """Drive ``generator`` as a concurrent process; returns the
        process handle (yieldable, ``is_alive``, ``interrupt()``)."""
        raise NotImplementedError

    def done(self, value=None):
        """An already-processed event carrying ``value``."""
        raise NotImplementedError

    def timer(self, delay_us, callback):
        """Run ``callback(timer)`` in ``delay_us``; ``cancel()`` disarms."""
        raise NotImplementedError

    def resource(self, capacity=1):
        """A capacity-limited FIFO resource bound to this environment."""
        raise NotImplementedError

    def store(self):
        """An unbounded FIFO buffer bound to this environment."""
        raise NotImplementedError

    def fsync(self, cost_us, nbytes=0):
        """A yieldable durability barrier for one WAL flush batch."""
        raise NotImplementedError

    def clock(self, name):
        """The :class:`ClockView` for node ``name`` (created on demand)."""
        clocks = getattr(self, "_clocks", None)
        if clocks is None:
            clocks = self._clocks = {}
        view = clocks.get(name)
        if view is None:
            view = clocks[name] = ClockView(self, name)
        return view

    def clock_views(self):
        """All clock views handed out so far (for heal/reset sweeps)."""
        clocks = getattr(self, "_clocks", None)
        return list(clocks.values()) if clocks else []
