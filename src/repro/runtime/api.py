"""The environment contract: one protocol, one kernel, two clocks.

Every protocol layer in this repository — client, MNode, coordinator,
replication, WAL, transport — is written as generator "processes" that
``yield`` handles obtained from an *environment*.  The environment owns
the clock, the scheduler and the concurrency primitives; the protocol
code never imports the kernel.  There is **one kernel** —
:mod:`repro.sim.engine` and :mod:`repro.sim.resources`: the event heap
and every primitive in the table below, written once — and **two
drivers** that decide when a heap entry runs:

* :class:`~repro.runtime.sim_env.SimEnv` — the discrete-event simulator.
  The kernel's own run loop pops the heap as fast as it can and stamps
  the clock from each entry.  Time is virtual microseconds, every cost
  in :class:`~repro.net.costs.CostModel` is charged as simulated delay,
  and runs are bit-for-bit deterministic (the golden traces pin this
  down).  Fault injection, the nemesis schedules and ``repro.check``
  exist only here.
* :class:`~repro.runtime.aio.AsyncioEnv` — the same kernel under the
  monotonic wall clock.  An asyncio handle (the *pump*) pops the entries
  that have come due and re-arms itself for the next; sleeps are real
  sleeps, and the fabric is real length-prefixed JSON-RPC over TCP
  sockets (:mod:`repro.runtime.net`).  Modeled hardware costs are *not*
  charged (``models_costs`` is False): real work takes real time.

The contract (this table is its one description; both drivers inherit
the implementation from :class:`repro.sim.engine.Environment`):

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
                        ``granted()``, queued ``succeed()``): the acquirer
                        holds the ``Grant``, and an event pointing back
                        at it would be a reference cycle per acquisition
``granted()``           ``done()`` without a value and without the
                        allocation: **the one processed event every
                        uncontended lock grant shares**.  Same resume-
                        order rule as ``done`` (behind a wake-up still
                        in the heap: a fresh triggered event)
``event.callbacks``     ``None`` once the event is processed.  **"Nothing
                        to wait for" is spelled one way** at every lock
                        and CPU call site — ``if ev.callbacks is not
                        None: yield ev`` — so a free lock or core costs
                        its acquirer neither an event nor a round trip
                        down its generator chain
``timer(us, fn)``       **cancellable timer**: ``fn(timer)`` runs ``us``
                        microseconds from now unless ``timer.cancel()``
                        came first; no process behind it.  Message
                        arrivals and RPC deadlines are timers
``timeout(us, v)``      event firing ``us`` microseconds from now
``sleep(us)`` /
``schedule_timeout``    bare timeout (fast path; no value, no callbacks);
                        live, ``sleep(0)`` is the ``cooperative`` yield
``sleep_until(t)``      its absolute-time twin: a bare timeout firing at
                        ``t``.  **Consecutive private delays of one
                        process are one entry**: the process adds its
                        slices up left to right from ``now`` (the chain's
                        own float additions — ``now + total`` rounds
                        differently) and sleeps once
``process(gen)``        drive a generator as a process; the handle is
                        itself an event (yieldable)
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

The scheduling rule, under either driver: **a heap entry either advances
the clock or wakes a waiter that was actually queued — never a
zero-delay round trip.**  A network hop is one timer whose callback *is*
the arrival; an uncontended grant is ``done`` / ``granted`` and is not
waited for; delays nobody else can observe are one ``sleep_until``; a
reply reaches its caller through ``settle`` inside the arrival; an RPC deadline is one
timer raced against the reply and cancelled when the reply wins.  **A
cancelled timer leaves its heap entry to pop inert when it comes due**
— removing from a heap's middle costs more than popping a no-op — so on
the wall clock a met deadline still wakes the loop once, for nothing.
What still takes a turn is a real wake-up: a queued waiter granted by a
``release``, a parked worker handed an item, a process start.  Resume
order equals wake-up order — while a wake-up is still in the heap,
``done`` queues behind it.

The real-time pump (:mod:`repro.runtime.aio`) adds three rules of its
own.  **The clock is read at push time**: ``_now`` is the monotonic
clock itself, never a cached turn time, or a deadline set after an idle
gap would fire early.  **A turn runs its whole wake-up chain**: the
entries its own callbacks push are drained in the same turn, and the
turn re-reads the clock before it leaves a head that looks early, so a
chain of grants, hand-offs and replies costs one loop turn, not one per
link, and leaves no empty pump queued behind it.  A socket read is the
head of such a turn (``turn``): the requests its frames carry start,
and the callers its replies settle run on, before the loop polls again.
Fairness comes from the one place that needs it: the ``cooperative``
yield of a zero-backoff retry, ``sleep(0)``, is an event asyncio itself
settles on its next iteration, after that iteration's socket reads —
with grants and replies inline, a hot retry loop would otherwise never
let the loop read the socket that carries the answer it is waiting
for.  **A cancelled timer pops inert**, as above.
The pump learns of a push from the one signal the kernel already gives:
every push site bumps ``env._seq`` *before* its ``heappush``, so an
observer of the bump may schedule a pump but must never inspect the
heap.

:class:`EnvError` is the base for kernel-misuse errors (the kernel's
``SimulationError`` subclasses it).

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
    """Kernel misuse or unhandled process failure."""


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
