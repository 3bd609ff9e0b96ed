"""Shared retry/backoff policy and deadline-enforced RPC.

Five helpers replace the ad-hoc retry loops and fan-outs that used to
live at every call site (:func:`expire` is their one timer):

* :func:`retry` runs an attempt generator until it succeeds, backing off
  exponentially on retryable :class:`~repro.net.rpc.RpcFailure` codes
  (``ERETRY``, ``EREDIRECT``) according to the context's
  :class:`RetryPolicy`, and giving up with the last failure when the
  attempt budget is exhausted or the next backoff would overshoot the
  deadline.
* :func:`deadline_call` issues one RPC and enforces
  ``OpContext.deadline`` on it as a race between the reply and one
  cancellable ``env.timer``: whichever settles the reply handle first
  wins.  At the deadline the caller sees ``RpcFailure(ETIMEDOUT)``; a
  reply that straggles in afterwards — payload or error — finds the
  handle settled and is dropped.  A reply in time cancels the timer.
* :func:`call_all` is one round of such calls sent at once — every
  server-side fan-out, and a client's listing — under one timer and a
  stated failure rule, :data:`ALL` or :data:`REDELIVER`.
* :func:`redeliver` is the control plane's "this step is decided, make
  it land" loop: a bounded call re-issued under a doubling backoff,
  re-resolving its target each time so delivery follows a promotion or
  a restart, until the receiver acknowledges.
* :func:`redeliver_later` runs that loop in the background for a call
  a :data:`REDELIVER` round handed off.

All of them speak only the :mod:`repro.runtime` contract, so the same
retry loops run under the discrete-event kernel and the asyncio backend.
"""

from itertools import count

from repro.net.rpc import RpcError, RpcFailure
from repro.obs.context import NULL_CONTEXT
from repro.obs.tracer import CAT_RETRY

#: Codes the shared :func:`retry` helper treats as transient by default.
#: ENOTLEADER/ESTALE_TERM are retryable but — unlike EREDIRECT — carry
#: no destination hint: the retry loop clears the hint, so the next
#: attempt re-resolves the slot through the cluster directory instead
#: of blindly retrying the fenced (or deposed) node it just talked to.
#: EMOVED is retryable-with-hint of a third kind: its detail is an
#: epoch-stamped slot reassignment that the node's ``_absorb_moved_hint``
#: hook (clients patch their private slot map there) absorbs before the
#: re-resolve — the hint updates *state*, not the next attempt's target.
RETRYABLE = (RpcError.ERETRY, RpcError.EREDIRECT,
             RpcError.ENOTLEADER, RpcError.ESTALE_TERM, RpcError.EMOVED)

#: The operation retry schedule (:class:`RetryPolicy` defaults): attempt
#: budget per operation, backoff base (microseconds), growth and cap.
RETRY_MAX_ATTEMPTS = 64
RETRY_BACKOFF_US = 100.0
RETRY_BACKOFF_MULTIPLIER = 2.0
RETRY_BACKOFF_MAX_US = 6400.0

#: The control-plane re-delivery schedule (:func:`redeliver`): the
#: backoff doubles from the first value to the cap, microseconds.
REDELIVER_BACKOFF_US = 1000.0
REDELIVER_BACKOFF_MAX_US = 8000.0


class RetryPolicy:
    """Exponential backoff schedule: ``base * multiplier ** attempt``,
    capped at ``max_backoff_us``.  ``base_us == 0`` means retry
    immediately (no simulated delay — used where determinism matters,
    e.g. stale-replica refetches).

    ``jitter`` (a fraction in [0, 1], default 0) spreads each delay
    uniformly over ``[delay * (1 - jitter), delay]`` using the caller's
    seeded RNG, de-synchronizing retry storms after a mass invalidation
    or failover.  It is opt-in and draws only when both the fraction and
    an RNG are supplied, so default-configured runs (and the golden
    traces) never see a draw.
    """

    __slots__ = ("max_attempts", "base_us", "multiplier", "max_backoff_us",
                 "jitter")

    def __init__(self, max_attempts=RETRY_MAX_ATTEMPTS,
                 base_us=RETRY_BACKOFF_US,
                 multiplier=RETRY_BACKOFF_MULTIPLIER,
                 max_backoff_us=RETRY_BACKOFF_MAX_US, jitter=0.0):
        self.max_attempts = max_attempts
        self.base_us = base_us
        self.multiplier = multiplier
        self.max_backoff_us = max_backoff_us
        self.jitter = jitter

    def backoff_us(self, attempt, rng=None):
        """Delay before attempt ``attempt + 1`` (attempt is 0-based)."""
        if self.base_us <= 0:
            return 0.0
        delay = min(self.max_backoff_us,
                    self.base_us * self.multiplier ** attempt)
        if self.jitter > 0.0 and rng is not None:
            delay -= delay * self.jitter * rng.random()
        return delay

    @classmethod
    def from_config(cls, config):
        return cls(jitter=getattr(config, "retry_jitter", 0.0))

    def __repr__(self):
        return "<RetryPolicy x{} {}us*{}^n<={}us j={}>".format(
            self.max_attempts, self.base_us, self.multiplier,
            self.max_backoff_us, self.jitter,
        )


_DEFAULT_POLICY = RetryPolicy()


def retry(node, ctx, attempt_fn, policy=None, retryable=RETRYABLE):
    """Generator: drive ``attempt_fn`` to success with backoff.

    ``attempt_fn(attempt, hint)`` must be a generator function; ``hint``
    is the redirect destination from the previous ``EREDIRECT`` failure
    (``None`` otherwise).  Non-retryable failures propagate immediately;
    exhausting the budget re-raises the last retryable failure (so an
    ``ERETRY`` storm still surfaces as ``ERETRY`` to the caller).  A
    budget of zero attempts surfaces as ``ERETRY`` too — there is no
    last failure to re-raise, and ``raise None`` would mask the real
    problem with a ``TypeError``.
    """
    if policy is None:
        policy = ctx.retry_policy or _DEFAULT_POLICY
    clock = getattr(node, "clock", None)
    rng = getattr(node, "retry_rng", None)
    hint = None
    failure = None
    for attempt in range(policy.max_attempts):
        ctx.attempt = attempt
        try:
            result = yield from attempt_fn(attempt, hint)
            return result
        except RpcFailure as exc:
            if exc.code not in retryable:
                raise
            failure = exc
            hint = exc.detail if exc.code == RpcError.EREDIRECT else None
            if (exc.code == RpcError.EMOVED
                    and isinstance(exc.detail, dict)):
                moved = getattr(node, "_absorb_moved_hint", None)
                if moved is not None:
                    moved(exc.detail)
        delay = policy.backoff_us(attempt, rng)
        if delay > 0:
            now = clock.now_us() if clock is not None else node.env.now_us()
            if ctx.deadline is not None and now + delay >= ctx.deadline:
                raise RpcFailure(
                    RpcError.ETIMEDOUT,
                    "backoff past deadline ({})".format(failure),
                )
            with ctx.span("backoff", CAT_RETRY, node=node.name,
                          attrs={"attempt": attempt}
                          if ctx.traced else None):
                # The node's timer hardware ticks at its (possibly
                # drifted) local rate; identity when unskewed.
                yield node.env.timeout(
                    delay if clock is None else clock.to_env_delay(delay))
        elif node.env.cooperative:
            # Zero-backoff policies retry immediately.  The DES resumes
            # the attempt in the same instant with no extra heap entry;
            # a live event loop must still yield control, or a hot retry
            # (e.g. a stale-replica refetch racing an invalidation)
            # starves every other task on the loop.
            yield node.env.sleep(0)
    if failure is None:
        raise RpcFailure(
            RpcError.ERETRY,
            "retry budget exhausted before any attempt "
            "(max_attempts={})".format(policy.max_attempts),
        )
    raise failure


def deadline_call(node, ctx, target, kind, payload=None, size=None,
                  timeout_us=None):
    """Generator: one RPC from ``node`` to ``target`` under the
    context's deadline.  Returns the reply payload; raises
    ``RpcFailure(ETIMEDOUT)`` at the deadline (without waiting for the
    straggling reply, which is dropped on arrival so a late error cannot
    crash the run), or the responder's failure.

    ``timeout_us`` additionally bounds *this attempt*: the effective
    budget is ``min(deadline remaining, timeout_us)``.  A per-attempt
    timeout is what lets a retry loop survive a black-holed RPC (crashed
    or partitioned peer) without burning the whole operation deadline on
    a reply that will never come.
    """
    remaining = budget(node, ctx, timeout_us)
    reply = (node.call(target, kind, payload, size, ctx=ctx)
             if remaining > 0 else node.env.event())
    # Reply versus timer, first to settle the handle wins.
    timer = expire(node, remaining, [(reply, "{} to {}".format(kind, target))])
    try:
        result = yield reply
    finally:
        if timer is not None:
            timer.cancel()
    return result


#: The failure rules of a :func:`call_all` round.
ALL = "all"
REDELIVER = "redeliver"


def call_all(node, ctx, kind, calls, timeout_us=None, rule=None):
    """Generator: one round of ``kind`` RPCs, every ``(target, payload)``
    of ``calls`` sent at once under one timer (:func:`expire`) at
    ``timeout_us`` or the op deadline, whichever is sooner (``ctx`` may
    be None).  ``rule`` says what a failed call does to the round:

    * None: nothing; every outcome is returned in call order, the reply
      payload or the :class:`RpcFailure` the call ended with;
    * :data:`ALL`: the round fails at its first failure, raising its
      code as ``"<kind> on <target>: <code>"`` and giving up on the
      rest; else the replies are returned;
    * :data:`REDELIVER`: calls are ``(target, payload, resolve)`` and a
      failed one goes to :func:`redeliver_later`; returns as None does.
    """
    remaining = budget(node, ctx, timeout_us)
    # A call whose budget is already spent is not sent.
    pending = [(node.call(call[0], kind, call[1], ctx=ctx) if remaining > 0
                else node.env.event(), "{} on {}".format(kind, call[0]))
               for call in calls]
    replies = [reply for reply, _ in pending]
    timer = expire(node, remaining, pending)
    try:
        if rule == ALL:
            try:
                outcomes = yield node.env.all_of(replies)
            except RpcFailure as failure:
                detail = next(detail for reply, detail in pending
                              if reply.triggered and reply.value is failure)
                for reply, _ in pending:    # give up on the rest too
                    reply.settle(False, failure)
                raise RpcFailure(failure.code, "{}: {}".format(
                    detail, RpcError.name(failure.code))) from None
            return outcomes
        outcomes = []
        for reply in replies:
            try:
                outcomes.append((yield reply))
            except RpcFailure as failure:
                outcomes.append(failure)
    finally:
        if timer is not None:
            timer.cancel()
    for call, outcome in zip(calls, outcomes):
        if rule == REDELIVER and isinstance(outcome, RpcFailure):
            node.env.process(redeliver_later(node, call[2], kind, call[1],
                                             timeout_us))
    return outcomes


def expire(node, delay_us, pending):
    """Bound every reply of ``pending`` — ``(reply, detail)`` pairs —
    by one timer ``delay_us`` from now on ``node``'s clock, which
    settles each still unanswered with ``RpcFailure(ETIMEDOUT,
    detail)``; returns it (``cancel()`` disarms it), or None when there
    is no bound or it is already spent, in which case every reply fails
    now as not sent.  A reply that straggles in after its timeout,
    payload or error alike, finds its handle settled and is dropped."""
    if delay_us <= 0:
        for reply, detail in pending:
            reply.settle(False, RpcFailure(RpcError.ETIMEDOUT,
                                           detail + " (not sent)"))
        return None
    if not pending or delay_us == float("inf"):
        return None

    def fire(_timer):
        for reply, detail in pending:
            reply.settle(False, RpcFailure(RpcError.ETIMEDOUT, detail))

    clock = getattr(node, "clock", None)
    return node.env.timer(
        delay_us if clock is None else clock.to_env_delay(delay_us), fire)


def budget(node, ctx, timeout_us):
    """How long a call ``node`` makes now may wait: the context
    deadline's remainder on the node's own clock (deadline math is
    node-local: a skewed clock judges it early or late, exactly like
    production), capped by ``timeout_us``; infinite when neither is
    set."""
    remaining = float("inf")
    if ctx is not None and ctx.deadline is not None:
        clock = getattr(node, "clock", None)
        now = clock.now_us() if clock is not None else node.env.now_us()
        remaining = ctx.deadline - now
    if timeout_us is not None:
        remaining = min(remaining, timeout_us)
    return remaining


def redeliver(node, resolve_target, kind, payload, timeout_us=None,
              attempts=None, backoff_us=REDELIVER_BACKOFF_US, pending=None):
    """Generator: deliver one control-plane RPC until it is acknowledged.

    Every attempt re-resolves its target (``resolve_target()``), so
    delivery follows a promotion or a crash-restart of the receiver; it
    is bounded by ``timeout_us`` (None = unbounded), and any
    :class:`RpcFailure` sleeps the doubling backoff before the next.
    The receiver must be idempotent: an attempt whose *reply* was lost
    has already applied.  ``attempts`` bounds the tries, after which the
    last failure propagates (the caller aborts); None means until acked
    — the step is past its point of no return.  ``pending()``, when
    given, is re-checked before every attempt: once false the delivery
    is moot and ``None`` is returned.
    """
    for attempt in (count() if attempts is None else range(attempts)):
        if pending is not None and not pending():
            return None
        try:
            reply = yield from deadline_call(
                node, NULL_CONTEXT, resolve_target(), kind, payload,
                timeout_us=timeout_us,
            )
            return reply
        except RpcFailure:
            if attempt + 1 == attempts:
                raise
        yield node.env.timeout(backoff_us)
        backoff_us = min(backoff_us * 2, REDELIVER_BACKOFF_MAX_US)


def redeliver_later(node, resolve, kind, payload, timeout_us=None):
    """Process: :func:`redeliver` a call a :data:`REDELIVER` round handed
    off — first after :data:`REDELIVER_BACKOFF_US`, then backing off from
    twice that, each attempt bounded by ``timeout_us`` (else by that
    first backoff) — until acknowledged, counted in the node's
    ``redeliveries_completed`` by kind, or until ``resolve()`` is None."""
    yield node.env.timeout(REDELIVER_BACKOFF_US)
    reply = yield from redeliver(
        node, resolve, kind, payload,
        timeout_us=timeout_us or REDELIVER_BACKOFF_US,
        backoff_us=2 * REDELIVER_BACKOFF_US,
        pending=lambda: resolve() is not None)
    if reply is not None:
        node.metrics.counter("redeliveries_completed").inc(kind)
