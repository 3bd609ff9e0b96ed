"""Shared resources for simulated processes.

Two primitives cover everything the FalconFS layers need:

* :class:`Resource` — a capacity-limited resource with a FIFO wait queue,
  used to model CPU cores on a server, disk channels, and connection slots.
* :class:`Store` — an unbounded FIFO buffer of items with blocking ``get``,
  used to model message queues and request queues.

Both hand out plain :class:`~repro.sim.engine.Event` objects so processes
interact with them via ``yield``, exactly like timeouts.  An *immediate*
grant (free capacity, a buffered item) is handed back already processed,
so the ``yield`` continues inline and costs no heap entry; only a waiter
that actually queued is woken through the heap, in FIFO order.  The fast
path cannot jump the queue: capacity is free, or an item is buffered,
only while nobody is waiting — and while a wake-up from this same
instant is still in the heap, an immediate grant queues behind it
(:meth:`~repro.sim.engine.Environment.done`), so processes resume in the
order they were granted.

Cancellation discipline: a queued :class:`Request` or getter event may be
failed out-of-band (an interrupt or timeout path).  Both primitives skip
already-triggered entries when granting — waking a dead waiter would
crash the grant loop with "event already triggered" — and compact them
out of their queues so long runs do not accumulate dead events.
"""

from collections import deque
from contextlib import contextmanager

from repro.sim.engine import _PENDING, Event, SimulationError


class Request(Event):
    """Event granted by :class:`Resource.request` once capacity is free."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        # Flattened Event.__init__ (no super() hop): requests are made
        # once per CPU slice / IO, one of the hottest allocation sites.
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.resource = resource


class Resource:
    """A capacity-limited resource with FIFO granting.

    Example
    -------
    >>> req = cpu.request()
    >>> yield req
    >>> try:
    ...     yield env.timeout(service_time)
    ... finally:
    ...     cpu.release(req)

    or, with the context-manager helper inside a process::

    >>> with cpu.use() as req:
    ...     yield req
    ...     yield env.timeout(service_time)
    """

    __slots__ = ("env", "capacity", "_users", "_waiters")

    def __init__(self, env, capacity=1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users = set()
        self._waiters = deque()

    def __repr__(self):
        return "<Resource users={}/{} queued={}>".format(
            len(self._users), self.capacity, len(self._waiters)
        )

    @property
    def count(self):
        """Number of grants currently held."""
        return len(self._users)

    @property
    def queue_length(self):
        """Number of requests waiting for capacity."""
        return len(self._waiters)

    def request(self):
        """Return an event that fires once a unit of capacity is granted."""
        if len(self._users) < self.capacity:
            # Immediate grant: already processed (``env.done``), unless
            # a waiter woken earlier in this instant has yet to resume.
            req = self.env.done()
            self._users.add(req)
            return req
        req = Request(self)
        self._waiters.append(req)
        return req

    def release(self, req):
        """Return a previously granted unit of capacity."""
        if req in self._users:
            self._users.remove(req)
        elif req in self._waiters:
            # Granting raced with cancellation: just drop from the queue.
            self._waiters.remove(req)
            return
        else:
            raise SimulationError("release of a request not held: {!r}".format(req))
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            if nxt.triggered:
                # Cancelled/failed while queued (parity with Store.put's
                # cancelled-getter skip): granting would double-trigger.
                continue
            self._users.add(nxt)
            nxt.succeed()

    @contextmanager
    def use(self):
        """Context manager pairing ``request()`` with ``release()``.

        The body must still ``yield`` the request before consuming the
        resource; the manager only guarantees the release.
        """
        req = self.request()
        try:
            yield req
        finally:
            self.release(req)


class Store:
    """An unbounded FIFO item buffer with blocking ``get``.

    ``put`` never blocks (message queues in the simulated cluster are
    unbounded; backpressure appears as queueing delay, as in the paper's
    saturation experiments).  ``get`` returns an event that fires with the
    next item as soon as one is available.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env):
        self.env = env
        self._items = deque()
        self._getters = deque()

    def __repr__(self):
        return "<Store items={} getters={}>".format(
            len(self._items), len(self._getters)
        )

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Append ``item``, waking the oldest waiting getter if any."""
        # Skip getters that were cancelled (their event already failed).
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self):
        """Return an event that fires with the next available item."""
        if self._items:
            return self.env.done(self._items.popleft())
        event = Event(self.env)
        getters = self._getters
        if getters and getters[0].triggered:
            # Compact cancelled getters eagerly rather than waiting
            # for a future put to walk past them — an idle store
            # must not pin dead events for the rest of the run.
            self._getters = getters = deque(
                g for g in getters if not g.triggered
            )
        getters.append(event)
        return event
