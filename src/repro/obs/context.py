"""Request-scoped operation context.

One :class:`OpContext` is created per client-visible operation and rides
on every message the operation causes, across every hop, until the last
WAL flush.  It carries three things:

* the trace identity (``op_id`` plus the currently-open span, so spans
  recorded anywhere in the cluster parent correctly — safe because the
  simulation is single-threaded and cooperative: while the client
  generator is suspended inside an rpc span, everything the server does
  on its behalf happens "inside" that span);
* the absolute ``deadline`` (simulated microseconds; ``None`` = no
  deadline), enforced at each hop by :func:`repro.obs.retry.deadline_call`
  and checked server-side before expensive work;
* the :class:`~repro.obs.retry.RetryPolicy` consumed by the shared
  :func:`~repro.obs.retry.retry` helper.

When tracing is disabled the context still exists (deadline/retry state
must flow regardless) but every span call returns a shared no-op scope —
no allocation, no bookkeeping.
"""

from itertools import count

from repro.obs.tracer import CAT_OP, NULL_TRACER

_OP_IDS = count(1)


class _NullScope:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()
    span = None

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SCOPE = _NullScope()


class _SpanScope:
    """Context manager that opens a child span and restores the parent."""

    __slots__ = ("ctx", "span", "_prev")

    def __init__(self, ctx, span):
        self.ctx = ctx
        self.span = span
        self._prev = None

    def __enter__(self):
        self._prev = self.ctx.current
        self.ctx.current = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.ctx.current = self._prev
        if exc_type is not None:
            self.span.finish(self.ctx.env.now, error=repr(exc))
        else:
            self.span.finish(self.ctx.env.now)
        return False


class OpContext:
    """Per-operation identity, deadline and retry budget."""

    __slots__ = ("op_id", "op", "origin", "env", "tracer", "traced",
                 "deadline", "retry_policy", "attempt", "root", "current")

    def __init__(self, env, op, origin=None, tracer=NULL_TRACER,
                 deadline=None, retry_policy=None):
        self.op_id = next(_OP_IDS)
        self.op = op
        self.origin = origin
        self.env = env
        self.tracer = tracer
        #: Cached ``tracer.enabled`` — ``enabled`` is a class attribute on
        #: both tracer types, fixed for the tracer's lifetime, so hot call
        #: sites can gate span/attrs work on one attribute load.  Callers
        #: use it to skip building ``attrs`` dicts entirely when untraced.
        self.traced = tracer.enabled
        #: Absolute simulated time the operation must finish by, or None.
        self.deadline = deadline
        self.retry_policy = retry_policy
        #: Attempts consumed so far by the shared retry helper.
        self.attempt = 0
        self.root = None
        self.current = None

    # -- deadline ------------------------------------------------------------

    def expired(self):
        return self.deadline is not None and self.env.now_us() >= self.deadline

    # -- spans ---------------------------------------------------------------

    def begin(self, node=None, attrs=None, category=CAT_OP):
        """Open the root span for this operation."""
        if not self.traced:
            return None
        self.root = self.tracer.start(
            self.op_id, self.op, category, node or self.origin,
            self.env.now, attrs=attrs,
        )
        self.current = self.root
        return self.root

    def finish(self, error=None):
        """Close the root span (no-op when tracing is disabled)."""
        if self.root is None:
            return None
        span = (self.root.finish(self.env.now) if error is None
                else self.root.finish(self.env.now, error=error))
        self.current = None
        return span

    def start_span(self, name, category, node=None, attrs=None):
        """Open a child span of the currently-open span (or ``None``)."""
        if not self.traced:
            return None
        parent = self.current.span_id if self.current is not None else None
        return self.tracer.start(
            self.op_id, name, category, node or self.origin,
            self.env.now, parent_id=parent, attrs=attrs,
        )

    def record(self, name, category, start, end, node=None, attrs=None):
        """Record an already-elapsed interval under the current span."""
        if not self.traced:
            return None
        parent = self.current.span_id if self.current is not None else None
        return self.tracer.record(
            self.op_id, name, category, node or self.origin, start, end,
            parent_id=parent, attrs=attrs,
        )

    def span(self, name, category, node=None, attrs=None):
        """``with ctx.span(...):`` — child span scoped to the block."""
        if not self.traced:
            return _NULL_SCOPE
        return _SpanScope(self, self.start_span(name, category, node, attrs))

    def __repr__(self):
        return "<OpContext #{} {}>".format(self.op_id, self.op)


class _NullContext:
    """Module-level fallback for call sites with no live operation.

    Behaves like a context with tracing disabled, no deadline and no
    retry policy.  The retry helper's bookkeeping writes (``attempt``)
    land on the shared instance and are harmless.
    """

    op_id = 0
    op = None
    origin = None
    env = None
    tracer = NULL_TRACER
    traced = False
    deadline = None
    retry_policy = None
    attempt = 0
    root = None
    current = None

    def expired(self):
        return False

    def span(self, name, category, node=None, attrs=None):
        return _NULL_SCOPE

    def __repr__(self):
        return "<NullContext>"


NULL_CONTEXT = _NullContext()
