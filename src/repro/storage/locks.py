"""Shared/exclusive lock manager with FIFO fairness.

Used for dentry and inode locks on MNodes and the coordinator (§4.3 of the
paper).  Grant policy: requests queue in arrival order; a shared request is
granted only if no exclusive request is queued ahead of it, which prevents
writer starvation and matches PostgreSQL's lock manager behaviour.

Acquisition returns a simulation event, so lock *waiting* consumes
simulated time naturally; the CPU cost of the acquire/release bookkeeping
itself is charged by the caller (FalconFS coalesces it per batch, §4.4).
An uncontended acquire hands back an already-processed event
(``env.done``), so yielding it continues inline; only a grant that
actually queued is woken through the scheduler.  A request is grantable
only while nobody is queued, so the inline path never jumps a waiter.

The event carries no value: the acquirer already holds the
:class:`Grant`, and an event whose value is the grant that owns it is a
reference cycle per acquisition that only the cycle collector can free
(``tests/test_gc_budget.py`` pins the hot path at zero such objects).
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

    def __init__(self, key, mode, event):
        self.key = key
        self.mode = mode
        self.event = event
        self.granted = False
        #: Open ``lock.wait`` span while the grant is queued (traced only).
        self.span = None

    def __repr__(self):
        state = "held" if self.granted else "waiting"
        return "<Grant {}:{} {}>".format(self.key, self.mode, state)


class _LockState:
    __slots__ = ("holders", "waiters")

    def __init__(self):
        self.holders = []
        self.waiters = deque()


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
            state.waiters.append(grant)
            return grant
        return self._grant_now(state, key, mode)

    def try_acquire(self, key, mode):
        """Non-blocking acquire: a granted :class:`Grant` or ``None``.

        A miss must not create state: only :meth:`release` prunes empty
        ``_LockState`` entries, so inserting one on the failure path would
        leak an entry per missed poll.
        """
        state = self._locks.get(key)
        fresh = state is None
        if fresh:
            state = _LockState()
        if not self._grantable(state, mode):
            return None
        if fresh:
            self._locks[key] = state
        return self._grant_now(state, key, mode)

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
        self._wake(state)
        if not state.holders and not state.waiters:
            del self._locks[grant.key]

    def _grantable(self, state, mode):
        if mode == LockMode.EXCLUSIVE:
            return not state.holders and not state.waiters
        # Shared: compatible with shared holders, but FIFO — don't jump
        # ahead of a queued exclusive.
        holds_exclusive = any(
            g.mode == LockMode.EXCLUSIVE for g in state.holders
        )
        return not holds_exclusive and not state.waiters

    def _grant_now(self, state, key, mode):
        """Uncontended grant: held on return, its event already
        processed, so the acquirer's ``yield`` costs no scheduler turn."""
        grant = Grant(key, mode, self.env.done())
        grant.granted = True
        state.holders.append(grant)
        return grant

    def _grant(self, state, grant):
        """Wake a queued waiter (through the scheduler, FIFO)."""
        grant.granted = True
        if grant.span is not None:
            grant.span.finish(self.env.now)
            grant.span = None
        state.holders.append(grant)
        grant.event.succeed()

    def _wake(self, state):
        while state.waiters:
            head = state.waiters[0]
            if head.mode == LockMode.EXCLUSIVE:
                if state.holders:
                    return
                state.waiters.popleft()
                self._grant(state, head)
                return
            if any(g.mode == LockMode.EXCLUSIVE for g in state.holders):
                return
            state.waiters.popleft()
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
        return len(state.waiters) if state else 0

    def is_locked(self, key):
        return bool(self.holders(key))
