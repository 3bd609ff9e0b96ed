"""Shared/exclusive lock manager with FIFO fairness.

Used for dentry and inode locks on MNodes and the coordinator (§4.3 of the
paper).  Grant policy: requests queue in arrival order; a shared request is
granted only if no exclusive request is queued ahead of it, which prevents
writer starvation and matches PostgreSQL's lock manager behaviour.

Acquisition returns a simulation event, so lock *waiting* consumes
simulated time naturally; the CPU cost of the acquire/release bookkeeping
itself is charged by the caller (FalconFS coalesces it per batch, §4.4).
An uncontended grant is not an event: it is held on return, and its
``event`` is the one already-processed event every such grant shares
(``env.granted()``), so the acquirer neither allocates nor waits::

    grant = locks.acquire(key, mode, ctx=ctx)
    if grant.event.callbacks is not None:   # not processed: queued
        yield grant.event

Only a grant that actually queued is woken through the scheduler.  A
request is grantable only while nobody is queued, so the inline path
never jumps a waiter, and while a wake-up from this same instant is
still in the heap ``env.granted()`` hands back a triggered event queued
behind it, so holders resume in the order they asked.

The event carries no value: the acquirer already holds the
:class:`Grant`, and an event whose value is the grant that owns it is a
reference cycle per acquisition that only the cycle collector can free
(``tests/test_gc_budget.py`` pins the hot path at zero such objects).

The table is lean for the common case, a key nobody contends: the
waiter queue is built when the first waiter arrives, and a release with
nobody queued returns without looking for someone to wake.
"""

from collections import deque

from repro.obs.tracer import CAT_LOCK
from repro.runtime import EnvError


class LockMode:
    SHARED = "S"
    EXCLUSIVE = "X"


_MODES = (LockMode.SHARED, LockMode.EXCLUSIVE)


class Grant:
    """A held (or queued) lock; pass back to :meth:`LockManager.release`."""

    __slots__ = ("key", "mode", "event", "granted", "span")

    def __init__(self, key, mode, event, granted=False):
        self.key = key
        self.mode = mode
        self.event = event
        self.granted = granted
        #: Open ``lock.wait`` span while the grant is queued (traced only).
        self.span = None

    def __repr__(self):
        state = "held" if self.granted else "waiting"
        return "<Grant {}:{} {}>".format(self.key, self.mode, state)


class _LockState:
    __slots__ = ("holders", "waiters")

    def __init__(self):
        self.holders = []
        #: FIFO ``deque`` of queued grants; ``None`` until somebody
        #: queues (most keys never see a waiter).
        self.waiters = None


class LockManager:
    """Per-key S/X locks."""

    def __init__(self, env):
        self.env = env
        self._locks = {}

    def acquire(self, key, mode, ctx=None):
        """Request a lock; returns a :class:`Grant` whose ``event`` fires
        (with no value) once the lock is held.  With a traced ``ctx``, a
        ``lock.wait`` span covers any time spent queued behind other
        holders."""
        if mode not in _MODES:
            raise EnvError("bad lock mode: {!r}".format(mode))
        state = self._locks.get(key)
        if state is None:
            # Fresh key: trivially grantable, skip the compatibility scan.
            state = self._locks[key] = _LockState()
        elif not self._grantable(state, mode):
            grant = Grant(key, mode, self.env.event())
            if ctx is not None and ctx.traced:
                grant.span = ctx.start_span(
                    "lock.wait", CAT_LOCK,
                    attrs={"key": str(key), "mode": mode},
                )
            if state.waiters is None:
                state.waiters = deque()
            state.waiters.append(grant)
            return grant
        grant = Grant(key, mode, self.env.granted(), True)
        state.holders.append(grant)
        return grant

    def acquire_all(self, requests, grants, ctx=None):
        """Generator: acquire every ``(key, mode)`` of ``requests`` in
        the order given, appending each grant to ``grants`` once held.
        The caller owns the order (sorted keys, or an ancestor chain) —
        every lock set is taken one key at a time, so two sets that
        agree on the order of their common keys cannot deadlock — and
        hands ``grants`` to :meth:`release_all`, also on failure."""
        for key, mode in requests:
            grant = self.acquire(key, mode, ctx=ctx)
            if grant.event.callbacks is not None:
                yield grant.event
            grants.append(grant)

    def try_acquire_all(self, requests, grants):
        """:meth:`acquire_all` without waiting: all of ``requests`` (on
        distinct keys) if each is grantable now, and True; else none."""
        locks = self._locks
        if any(key in locks and not self._grantable(locks[key], mode)
               for key, mode in requests):
            return False
        grants.extend(self.acquire(key, mode) for key, mode in requests)
        return True

    def release_all(self, grants):
        """Release a lock set, in the order it was acquired."""
        for grant in grants:
            self.release(grant)

    def release(self, grant):
        """Release a held grant (or cancel a queued one)."""
        state = self._locks.get(grant.key)
        if state is None:
            raise EnvError("release on unknown key: {}".format(grant.key))
        if grant.granted:
            state.holders.remove(grant)
        else:
            state.waiters.remove(grant)
            if grant.span is not None:
                grant.span.finish(self.env.now, cancelled=True)
                grant.span = None
        if state.waiters:
            self._wake(state)
        elif not state.holders:
            del self._locks[grant.key]

    def _grantable(self, state, mode):
        if state.waiters:
            # FIFO: nobody jumps a queued request, not even a shared one
            # compatible with the holders (writer starvation).
            return False
        holders = state.holders
        if mode == LockMode.EXCLUSIVE:
            return not holders
        # An exclusive holder is always alone, so the first holder's
        # mode is the whole compatibility scan.
        return not holders or holders[0].mode != LockMode.EXCLUSIVE

    def _grant(self, state, grant):
        """Wake a queued waiter (through the scheduler, FIFO)."""
        grant.granted = True
        if grant.span is not None:
            grant.span.finish(self.env.now)
            grant.span = None
        state.holders.append(grant)
        grant.event.succeed()

    def _wake(self, state):
        waiters, holders = state.waiters, state.holders
        while waiters:
            head = waiters[0]
            if holders and (head.mode == LockMode.EXCLUSIVE
                            or holders[0].mode == LockMode.EXCLUSIVE):
                return
            waiters.popleft()
            self._grant(state, head)

    # -- introspection -----------------------------------------------------

    def holders(self, key):
        """Modes currently held on ``key`` (empty list when free)."""
        state = self._locks.get(key)
        if state is None:
            return []
        return [g.mode for g in state.holders]

    def queue_length(self, key):
        state = self._locks.get(key)
        return len(state.waiters) if state and state.waiters else 0

    def is_locked(self, key):
        return bool(self.holders(key))

    def keys(self):
        """Every key somebody holds or queues on."""
        return list(self._locks)
