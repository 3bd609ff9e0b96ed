"""Base class for protocol machines (environment-agnostic)."""

from functools import partial

from repro.metrics import MetricsRegistry
from repro.net.message import Message
from repro.obs.tracer import CAT_CPU, CAT_NET, CAT_QUEUE


class Node:
    """A machine on the fabric: named endpoint, CPU cores, inbox.

    Subclasses handle a message kind ``k`` with a method ``_on_k``, which
    :meth:`handle` finds by name and runs as a process for every
    delivered message; a kind with no such method goes to
    :meth:`_unhandled`.  The default delivery policy spawns one handler
    process per message; contention is then modeled by the shared ``cpu``
    resource (via :meth:`execute`).  Subclasses that schedule work
    differently (e.g. the FalconFS MNode's typed request queues) override
    :meth:`deliver`.
    """

    def __init__(self, env, network, name, cores=None):
        self.env = env
        self.network = network
        self.costs = network.costs
        self.name = name
        self.cpu = env.resource(capacity=cores or network.costs.server_cores)
        self.inbox = env.store()
        self.metrics = MetricsRegistry(name)
        # Pre-bound per-message counters (send/receive/respond run once
        # per message; the registry lookup is paid once, here).
        self._sent = self.metrics.counter("sent")
        self._received = self.metrics.counter("received")
        self._responded = self.metrics.counter("responded")
        self._responded_error = self.metrics.counter("responded_error")
        #: Set when this incarnation is retired (crashed and replaced by
        #: a restarted instance under the same name): its in-flight
        #: handlers park forever instead of resuming once the *name*
        #: becomes reachable again.
        self.halted = False
        #: This node's local clock (identity unless the clock-skew
        #: nemesis is active): deadline and heartbeat math reads this,
        #: never ``env.now_us()`` directly.
        self.clock = env.clock(name)
        network.register(self)

    def __repr__(self):
        return "<{} {}>".format(type(self).__name__, self.name)

    # -- messaging ------------------------------------------------------

    def deliver(self, message):
        """Called by the network when a message arrives."""
        self._received.inc(message.kind)
        self.env.process(self._handle_guard(message))

    def _handle_guard(self, message):
        # Every message costs a decode/dispatch slice on the receiver.
        yield from self.execute(self.costs.dispatch_us, ctx=message.ctx)
        yield from self.handle(message)

    def handle(self, message):
        """Generator: process one message with this node's
        ``_on_<kind>`` method, or :meth:`_unhandled` when it has none.
        Handlers that never wait are plain functions, not generators."""
        handler = getattr(self, "_on_" + message.kind, None)
        if handler is None:
            handler = self._unhandled
        steps = handler(message)
        if steps is not None:
            yield from steps

    def _unhandled(self, message):
        """Answer a kind this role has no handler for: raise.  A role
        that can be reached under another role's name refuses instead
        (:func:`repro.storage.replication.refuse_unowned`)."""
        raise RuntimeError(
            "{} cannot handle {!r}".format(self.name, message)
        )

    def send(self, recipient, kind, payload=None, size=None, reply_to=None,
             ctx=None):
        """Send a message to ``recipient``; returns immediately.

        ``ctx`` (an :class:`~repro.obs.OpContext`) rides on the message so
        the receiver inherits the operation's deadline and trace identity.
        """
        if size is None:
            size = self.costs.rpc_request_bytes
        msg = Message(self.name, recipient, kind, payload, size, reply_to,
                      ctx=ctx)
        self._sent.inc(kind)
        self.network.send(msg)
        return msg

    def call(self, recipient, kind, payload=None, size=None, ctx=None):
        """Issue an RPC; returns the reply event to ``yield`` on.

        The reply event succeeds with the responder's payload, or fails
        with :class:`~repro.net.rpc.RpcFailure` carrying an
        :class:`~repro.net.rpc.RpcError` code.  The response's arrival
        *settles* it (``reply.settle(ok, value)``): the caller resumes
        inside the arrival itself, and a reply to a call already given
        up on (see :func:`repro.obs.retry.deadline_call`) is dropped.
        """
        reply = self.env.event()
        self.send(recipient, kind, payload, size, reply_to=reply, ctx=ctx)
        return reply

    def respond(self, message, payload=None, size=None):
        """Answer an RPC ``message`` successfully with ``payload``.

        The response hop goes through the :class:`~repro.net.transport.
        Network`, so it shows up in network metrics and obeys the fault
        model (a reply from a node that just crashed is black-holed).
        """
        if message.reply_to is None:
            return
        if size is None:
            size = self.costs.rpc_response_bytes
        reply_to = message.reply_to
        ctx = message.ctx
        if ctx is not None and ctx.traced:
            start = self.env.now

            def deliver(env=self.env):
                if env.now > start:
                    ctx.record(
                        "net.response", CAT_NET, start, env.now,
                        node=message.sender,
                        attrs={"kind": message.kind, "bytes": size},
                    )
                reply_to.settle(True, payload)
        else:
            deliver = partial(reply_to.settle, True, payload)
        self.network.send_response(self.name, message, size, deliver)
        self._responded.inc(message.kind)

    def respond_error(self, message, failure):
        """Answer an RPC ``message`` with a failure exception.

        The reply carries the failure, not this node's stack (over TCP
        it is code and detail only): a handler that parks the failure
        in a local before answering — a batch that commits first — has
        closed a cycle through its own frame, which ends here.
        """
        if message.reply_to is None:
            return
        failure.__traceback__ = None
        size = self.costs.rpc_response_bytes
        reply_to = message.reply_to
        ctx = message.ctx
        if ctx is not None and ctx.traced:
            start = self.env.now

            def deliver(env=self.env):
                if env.now > start:
                    ctx.record(
                        "net.response", CAT_NET, start, env.now,
                        node=message.sender,
                        attrs={"kind": message.kind, "error": str(failure)},
                    )
                reply_to.settle(False, failure)
        else:
            deliver = partial(reply_to.settle, False, failure)
        self.network.send_response(self.name, message, size, deliver)
        self._responded_error.inc(message.kind)

    # -- CPU -------------------------------------------------------------

    def alive_barrier(self):
        """Generator: park while this node is down (crashed or hung).

        A crash never resumes it; a transient hang resumes it at
        :meth:`~repro.net.transport.Network.set_up`.  A *retired*
        incarnation (``halted`` — the machine restarted and a fresh node
        object took over the name) parks forever: its processes died
        with it, and must not run on just because the name is reachable
        again.
        """
        while self.halted or self.network.is_down(self.name):
            if self.halted:
                yield self.env.event()
                continue
            yield self.network.resume_event(self.name)

    def execute(self, cost_us, ctx=None):
        """Consume ``cost_us`` of one CPU core (generator; yield from it).

        With a traced ``ctx``, records a ``cpu.wait`` span for time spent
        queued for a core and a ``cpu`` span for the busy slice itself.

        A down node's CPU is frozen: execution parks on the network's
        resume event, both before the slice and after it (so a handler
        whose timer straddles the crash instant cannot run on and commit
        a zombie transaction).  A crash never resumes; a transient hang
        (:meth:`~repro.net.transport.Network.set_up`) does.
        """
        # Guarded barrier: allocating the alive_barrier() generator twice
        # per CPU slice costs more than the liveness check it performs,
        # and nodes are alive for the overwhelming majority of slices.
        network = self.network
        if self.halted or network.is_down(self.name):
            yield from self.alive_barrier()
        env = self.env
        traced = ctx is not None and ctx.traced
        req = self.cpu.request()
        if req.callbacks is not None:
            # Not processed: every core is busy (or a wake-up from this
            # instant resumes first).  A free core is not an event.
            wait_start = env.now if (traced and not req.triggered) else None
            yield req
            if wait_start is not None:
                ctx.record("cpu.wait", CAT_QUEUE, wait_start, env.now,
                           node=self.name)
        try:
            # Modeled CPU slices are charged only where the environment
            # models hardware costs; on a live clock real work already
            # takes real time.
            if cost_us > 0 and env.models_costs:
                start = env.now
                yield env.schedule_timeout(cost_us)
                if traced:
                    ctx.record("cpu", CAT_CPU, start, env.now,
                               node=self.name)
            if self.halted or network.is_down(self.name):
                yield from self.alive_barrier()
        finally:
            self.cpu.release(req)
