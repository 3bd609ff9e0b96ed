"""The real-time driver of the discrete-event kernel.

:class:`AsyncioEnv` *is* :class:`repro.sim.engine.Environment` — the same
heap, the same ``Event`` / ``Timeout`` / ``Process`` / ``AllOf`` /
``Resource`` / ``Store`` objects, the same fast paths and GC rules — with
the one thing a live deployment changes swapped out: who advances time.
The simulator pops the heap as fast as it can and stamps the clock from
each entry; here the clock is the monotonic wall clock and an asyncio
handle (the **pump**) pops only what has come due.  The protocol layers
(client, MNode, coordinator, replication, WAL) run *unchanged*.

==============================  =====================================
the simulator                   this driver
==============================  =====================================
``env.now`` is virtual µs       monotonic clock µs since construction
``run()`` pops the whole heap   the pump pops what is due, then re-arms
                                itself with ``call_soon`` / ``call_later``
``sleep(0)`` is a heap entry    an event settled by ``call_soon``
unhandled failed event raises   recorded in ``env.unhandled``, reported
out of ``run()``                to the loop's exception handler
``fsync`` is modeled latency    a real ``os.fsync`` on the executor
==============================  =====================================

The pump keeps three rules (:mod:`repro.runtime.api` has the why): the
clock is **read at push time** — ``_now`` is a property over
``time.monotonic()``, never a cached turn time; **a turn runs its whole
wake-up chain** — what its own callbacks push and what comes due while
it runs (the turn re-reads the clock before it leaves a head that looks
early), with no second pump queued behind it — while the one
``cooperative`` yield, ``sleep(0)``, is an event asyncio settles on its
next loop iteration, so a zero-backoff retry still lets the socket read
that carries its answer through; and a **cancelled timer pops inert**,
exactly as in the simulator — the pump wakes for it when it comes due
and finds nothing to run.  A head due within :data:`POLL_US` is polled
for on the loop's next iteration rather than alarmed, because the
selector sleeps in whole milliseconds.

The kernel's seven inlined heap-push sites do not know a driver exists.
Each bumps ``env._seq`` *before* its ``heappush``, so the ``_seq`` setter
below is the one place every push passes through — from a pump turn, a
socket frame, a coroutine or an executor callback alike.  Because the
bump precedes the push, the setter may only *schedule* a pump; it must
never look at the heap.

Cost-model delays are **not** charged (``models_costs`` is False): real
work takes real time.  Timer-like delays — retry backoff, heartbeats,
lease and election timeouts — *are* real sleeps.  The 4 µs
request-merging linger is a modeled cost, so an MNode on this driver
merges with none: every frame of one socket read is queued before a
worker runs, and a wait would gather nothing.
"""

import asyncio
import os
from heapq import heappop
from time import monotonic

from repro.sim.engine import Environment, Event, Process, _add_callback

#: ``_wake`` while a pump turn runs: pushes need no pump of their own.
_IN_TURN = object()

#: A head due sooner than this is polled for — a pump on the loop's next
#: iteration, which reads the sockets first — not alarmed: the selector
#: sleeps in whole milliseconds, so an alarm for a timer due in a few
#: microseconds would idle the node up to 1 ms.
POLL_US = 50.0


class AsyncioEnv(Environment):
    """Real-time environment over a running asyncio event loop.

    Construct *inside* the loop (``asyncio.run`` / a running coroutine):
    node constructors spawn processes immediately.  ``wal_dir`` enables
    real fsync barriers — each named WAL gets an append-only file under
    it (see :meth:`fsync`).  The inherited ``run`` / ``step`` are the
    simulator's driver and have no caller here: the loop runs the pump.
    """

    __slots__ = ("_loop", "_t0", "_pushed", "_wake", "_alarm", "_alarm_at",
                 "unhandled", "wal_dir", "_wal_files")

    models_costs = False
    cooperative = True

    def __init__(self, loop=None, wal_dir=None):
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        #: The pump's pending ``call_soon`` handle (a push is waiting for
        #: the next loop turn), or ``_IN_TURN`` while a turn runs, and
        #: its ``call_later`` handle, set for the heap time ``_alarm_at``
        #: (the head is in the future).
        self._wake = self._alarm = None
        #: Exceptions from failed events nobody waited on (and did not
        #: defuse).  Live services log these; tests assert emptiness.
        self.unhandled = []
        self.wal_dir = wal_dir
        self._wal_files = {}
        super().__init__()  # ``_now = 0.0`` anchors the clock, see below

    # -- clock -----------------------------------------------------------

    def now_us(self):
        """Microseconds of monotonic wall clock since construction."""
        return (monotonic() - self._t0) * 1e6

    def _anchor(self, now_us):
        self._t0 = monotonic() - now_us / 1e6

    now = property(now_us)
    #: What the kernel's push sites read; assigning it (the kernel's
    #: constructor does, once) re-anchors the clock at that reading.
    _now = property(now_us, _anchor)

    # -- the pump --------------------------------------------------------

    @property
    def _seq(self):
        return self._pushed

    @_seq.setter
    def _seq(self, value):
        # Every heap push announces itself here, *before* the entry is
        # in the heap: schedule a pump, never inspect the queue.  Inside
        # a turn ``_wake`` is the turn itself, and the turn drains what
        # its callbacks push.
        self._pushed = value
        if self._wake is None:
            self._wake = self._loop.call_soon(self._pump)

    def _pump(self):
        """One turn: run every entry that is due — also those pushed by
        the turn's own callbacks — then re-arm for the new head."""
        self._wake = _IN_TURN
        queue = self._queue
        now = self.now_us()
        try:
            while queue:
                if queue[0][0] > now:
                    # The reading ages while the turn runs: re-read it
                    # before leaving a head that may have come due.
                    now = self.now_us()
                    if queue[0][0] > now:
                        break
                event = heappop(queue)[3]
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    self.unhandled.append(event._value)
                    self._loop.call_exception_handler({
                        "message": "unhandled failed event in AsyncioEnv",
                        "exception": event._value,
                    })
        except BaseException:
            # The entries behind a raising callback must not wait for an
            # unrelated push to be pumped.
            self._rearm(self.now_us())
            raise
        self._rearm(now)

    def _rearm(self, now):
        self._wake = None
        queue = self._queue
        if not queue:
            return
        head = queue[0][0]
        if head - now < POLL_US:
            self._wake = self._loop.call_soon(self._pump)
        elif self._alarm is None or head < self._alarm_at:
            # An alarm already set for this head (or an earlier one: it
            # rings, finds nothing due and re-arms) stays; most turns
            # leave the head where it was.
            if self._alarm is not None:
                self._alarm.cancel()
            self._alarm = self._loop.call_later((head - now) / 1e6,
                                                self._ring)
            self._alarm_at = head

    def _ring(self):
        self._alarm = None
        if self._wake is None:
            self._pump()

    def turn(self, callback, *args):
        """Run ``callback(*args)`` at the head of a pump turn and return
        its value: the wake-ups it causes run before this returns, and
        no pump of their own is queued.  A socket read hands its frames
        up this way, so the requests they carry start, and the callers
        their replies resume run on, before the loop polls again."""
        wake = self._wake
        if wake is _IN_TURN:
            return callback(*args)
        if wake is not None:
            wake.cancel()
        self._wake = _IN_TURN
        try:
            return callback(*args)
        finally:
            self._pump()

    def sleep(self, delay_us):
        """A positive delay is a heap timeout, as in the simulator.  A
        zero one is the ``cooperative`` yield: an event asyncio itself
        settles on its next loop iteration, after that iteration's
        socket reads — so a turn that drains its own pushes still lets
        a hot zero-backoff retry loop see the answer it waits for."""
        if delay_us > 0:
            return self.schedule_timeout(delay_us)
        event = Event(self)
        self._loop.call_soon(self.turn, event.settle, True, None)
        return event

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
            return self.schedule_timeout(0)
        done = self.event()
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
            _add_callback(event, _done)
        return await future

    async def run_process(self, generator):
        """Drive a protocol generator to completion; return its value.
        The process starts in the caller's own turn: its first request
        is on the wire before the coroutine awaits the answer."""
        return await self.wait(self.turn(Process, self, generator))
