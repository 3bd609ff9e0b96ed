"""The message fabric connecting simulated machines.

Delivery of a message takes one hop: fixed RPC latency plus payload size
divided by link bandwidth.  Link-level contention is not modeled — in the
paper's metadata experiments the bottleneck is server CPU and WAL, and in
the data experiments it is SSD bandwidth; both are modeled explicitly at
the endpoints.

Fault model
-----------
The fabric also owns the cluster's failure state: nodes can be marked
*down* (crashed or hung) and node pairs can be *partitioned*.  A message
whose sender or recipient is unreachable is **black-holed** — dropped
silently, counted under the ``dropped`` counter — never answered with an
error.  Reachability is re-checked at *arrival* time too, so a crash also
loses the victim's in-flight messages (the kernel socket buffers die with
the machine); that is what makes asynchronous replication's lost-window
observable.  Callers survive black holes via the deadline/retry machinery
(:mod:`repro.obs.retry`), not via transport-level failure signals.

RPC responses take the same fabric path (:meth:`Network.send_response`),
so response hops/bytes appear in network metrics (under the ``responses``
/ ``response_bytes`` counters, keyed by the request kind) and a dead or
partitioned responder cannot deliver a reply.

Gray degradation
----------------
Beyond binary down/partitioned, a node's links can be *degraded*
(:meth:`Network.degrade_link`): every hop touching that node gets a
latency multiplier, seeded per-message packet loss (counted under
``gray_lost`` — black-holed like a drop, but probabilistic), and a
seeded reorder jitter added to the hop delay, which deliberately breaks
the fabric's otherwise per-link-FIFO delivery for equal-size messages.
All randomness comes from a per-degradation ``random.Random(rng_seed)``
drawn in send order, so runs replay bit-identically; with no degraded
links the send paths take their original branches untouched.
"""

import random
from functools import partial

from repro.metrics import MetricsRegistry
from repro.obs.tracer import CAT_NET
from repro.runtime import EnvError

#: Metric label for co-located deliveries, which take zero network hops.
#: Keeping them out of the per-kind buckets keeps hop counts exact.
LOCAL_LABEL = "local"


class LinkQuality:
    """Gray degradation state for one node's links.

    ``latency_factor`` stretches hop latency, ``loss_prob`` drops each
    message independently, ``reorder_window_us`` adds uniform jitter in
    ``[0, window]`` to the hop delay (breaking FIFO between messages
    less than a window apart).  Draws come from a private seeded RNG in
    message-send order, keeping degraded runs deterministic.
    """

    __slots__ = ("latency_factor", "loss_prob", "reorder_window_us", "rng")

    def __init__(self, latency_factor=1.0, loss_prob=0.0,
                 reorder_window_us=0.0, rng_seed=0):
        self.latency_factor = latency_factor
        self.loss_prob = loss_prob
        self.reorder_window_us = reorder_window_us
        self.rng = random.Random(rng_seed)


class Network:
    """Registry of nodes plus the send primitive."""

    def __init__(self, env, costs):
        self.env = env
        self.costs = costs
        self.metrics = MetricsRegistry("network")
        # Pre-bound counters: send/send_response run once per message, so
        # the per-call registry lookup is paid here instead.
        self._messages = self.metrics.counter("messages")
        self._bytes = self.metrics.counter("bytes")
        self._responses = self.metrics.counter("responses")
        self._response_bytes = self.metrics.counter("response_bytes")
        self._dropped = self.metrics.counter("dropped")
        self._lost = self.metrics.counter("gray_lost")
        self._nodes = {}
        #: node name -> LinkQuality while gray-degraded (usually empty;
        #: every hot path guards on truthiness so healthy runs never pay).
        self._link_quality = {}
        #: Names of nodes currently down (crashed or hung).
        self._down = set()
        #: Directed (src, dst) pairs currently partitioned.
        self._blocked = set()
        #: Per-down-node event fired by :meth:`set_up` — what a frozen
        #: node's processes park on (see :meth:`resume_event`).
        self._resume = {}

    def register(self, node):
        """Attach ``node`` to the fabric under its unique name."""
        if node.name in self._nodes:
            raise EnvError("duplicate node name: {}".format(node.name))
        self._nodes[node.name] = node

    def node(self, name):
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise EnvError("unknown node: {}".format(name)) from None

    def nodes(self):
        return list(self._nodes.values())

    # -- fault state -----------------------------------------------------

    def set_down(self, name):
        """Mark ``name`` down: all its traffic is black-holed from now on,
        including messages already in flight to or from it, and its CPU
        freezes (in-flight handlers park at their next execute slice
        instead of committing zombie transactions after the crash)."""
        self.node(name)  # validate
        self._down.add(name)
        if name not in self._resume:
            self._resume[name] = self.env.event()

    def set_up(self, name):
        """Bring ``name`` back (a hang ending, not a state recovery):
        traffic flows again and frozen processes resume where they were."""
        self._down.discard(name)
        event = self._resume.pop(name, None)
        if event is not None:
            event.succeed()

    def reincarnate(self, name):
        """Prepare ``name`` for a restarted incarnation after a crash.

        A restart is not a hang ending: the crashed process is gone, so
        its registration is dropped and its frozen handlers are
        *abandoned* — the resume event is discarded without firing, so
        anything parked on it stays parked forever and can never apply
        zombie writes or answer with the dead incarnation's state.  The
        caller then registers the new node object under the same name,
        and traffic flows to the fresh incarnation.
        """
        if name not in self._down:
            raise EnvError(
                "cannot reincarnate {}: not down".format(name)
            )
        self.node(name)  # validate registration exists
        del self._nodes[name]
        self._resume.pop(name, None)
        self._down.discard(name)

    def is_down(self, name):
        return name in self._down

    def resume_event(self, name):
        """The event a down node's frozen processes wait on; fires at
        :meth:`set_up` (never, for a crash that is not recovered)."""
        return self._resume.setdefault(name, self.env.event())

    def partition(self, group_a, group_b):
        """Block traffic (both directions) between the two node groups."""
        for a in group_a:
            for b in group_b:
                self._blocked.add((a, b))
                self._blocked.add((b, a))

    def partition_directed(self, srcs, dsts):
        """Block traffic in *one* direction only: ``srcs`` -> ``dsts``.

        An asymmetric partition — the receiver can still talk back.
        This is the fault that distinguishes a consensus election from
        heartbeat-ordained promotion: a leader that can send appends but
        never hear acks must stop serving when its lease lapses, even
        though every member still sees it as alive."""
        for a in srcs:
            for b in dsts:
                self._blocked.add((a, b))

    def heal(self, group_a=None, group_b=None):
        """Undo a partition; with no arguments, heal every partition."""
        if group_a is None and group_b is None:
            self._blocked.clear()
            return
        for a in group_a:
            for b in group_b:
                self._blocked.discard((a, b))
                self._blocked.discard((b, a))

    def reachable(self, src, dst):
        """True when a message from ``src`` can currently reach ``dst``."""
        return (src not in self._down and dst not in self._down
                and (src, dst) not in self._blocked)

    def _drop(self, message):
        self._dropped.inc(message.kind)

    # -- gray degradation ------------------------------------------------

    def degrade_link(self, name, latency_factor=1.0, loss_prob=0.0,
                     reorder_window_us=0.0, rng_seed=0):
        """Degrade every link touching ``name`` (slow-not-dead NIC)."""
        self.node(name)  # validate
        self._link_quality[name] = LinkQuality(
            latency_factor=latency_factor, loss_prob=loss_prob,
            reorder_window_us=reorder_window_us, rng_seed=rng_seed,
        )

    def restore_link(self, name):
        """End ``name``'s link degradation (no-op when not degraded)."""
        self._link_quality.pop(name, None)

    def restore_links(self):
        """End every link degradation (heal sweep)."""
        self._link_quality.clear()

    def is_degraded(self, name):
        return name in self._link_quality

    def _gray_fate(self, src, dst, size, delay):
        """Loss/latency/jitter verdict for one hop between ``src`` and
        ``dst``: ``None`` when the message is lost, else the adjusted
        hop delay.  Draws happen in a fixed order (src endpoint, then
        dst) so every run of the same schedule replays identically."""
        factor = 1.0
        jitter = 0.0
        for name in (src, dst):
            quality = self._link_quality.get(name)
            if quality is None:
                continue
            if quality.loss_prob and quality.rng.random() < quality.loss_prob:
                return None
            factor *= quality.latency_factor
            if quality.reorder_window_us:
                jitter += quality.rng.uniform(0.0, quality.reorder_window_us)
        if factor != 1.0 and self.env.models_costs:
            delay = self.costs.degraded_hop_us(size, factor)
        return delay + jitter

    # -- sending ---------------------------------------------------------

    def send(self, message):
        """Put ``message`` on the wire; it arrives after one hop delay.

        Messages between co-located endpoints (same machine name) skip the
        network and are delivered immediately; they are counted under the
        ``local`` label rather than the message kind, so per-kind counts
        equal actual network hops.

        Unreachable messages (down endpoint, partition) are black-holed —
        both at send time and again at arrival time, so a crash loses the
        victim's in-flight traffic.
        """
        dst = self.node(message.recipient)
        message.send_time = self.env.now
        faults = self._down or self._blocked
        if faults and not self.reachable(message.sender, message.recipient):
            self._drop(message)
            return
        if message.sender == message.recipient:
            self._messages.inc(LOCAL_LABEL)
            self._bytes.inc(LOCAL_LABEL, message.size)
            message.arrive_time = self.env.now
            dst.deliver(message)
            return
        self._messages.inc(message.kind)
        self._bytes.inc(message.kind, message.size)
        # Modeled hop latency is charged only under a cost-modeling
        # environment; a live in-process fabric delivers on the next
        # scheduler tick (a zero timeout still defers, preserving the
        # "send returns before delivery" contract).
        delay = self.costs.hop_us(message.size) if self.env.models_costs \
            else 0.0
        if self._link_quality:
            delay = self._gray_fate(message.sender, message.recipient,
                                    message.size, delay)
            if delay is None:
                self._lost.inc(message.kind)
                return
        self.env.timer(delay, partial(self._arrive, message, dst))

    def _arrive(self, message, dst, _timer):
        """A request reaches ``dst`` (the hop timer's callback)."""
        if ((self._down or self._blocked) and not
                self.reachable(message.sender, message.recipient)):
            self._drop(message)
            return
        now = message.arrive_time = self.env.now
        ctx = message.ctx
        if ctx is not None and ctx.traced:
            ctx.record(
                "net.hop", CAT_NET, message.send_time, now,
                node=message.recipient,
                attrs={"kind": message.kind, "bytes": message.size},
            )
        dst.deliver(message)

    def send_response(self, responder, message, size, deliver):
        """Model the response hop for an RPC ``message``.

        ``deliver()`` is invoked when the response reaches the original
        sender — after one hop delay, or immediately for a co-located
        pair.  Response hops/bytes are accounted under the ``responses``
        and ``response_bytes`` counters keyed by the *request* kind
        (co-located responses under ``local``, mirroring requests), and
        the hop obeys the fault model: a response from a crashed node, or
        across a partition, is black-holed.
        """
        requester = message.sender
        faults = self._down or self._blocked
        if faults and not self.reachable(responder, requester):
            self._drop(message)
            return
        if responder == requester:
            self._responses.inc(LOCAL_LABEL)
            self._response_bytes.inc(LOCAL_LABEL, size)
            # Still one scheduler turn: the caller is a queued waiter,
            # and must not resume in the middle of the responder's step.
            self.env.timer(0.0, lambda _timer: deliver())
            return
        self._responses.inc(message.kind)
        self._response_bytes.inc(message.kind, size)
        delay = self.costs.hop_us(size) if self.env.models_costs else 0.0
        if self._link_quality:
            delay = self._gray_fate(responder, requester, size, delay)
            if delay is None:
                self._lost.inc(message.kind)
                return
        self.env.timer(
            delay, partial(self._arrive_response, responder, message,
                           deliver))

    def _arrive_response(self, responder, message, deliver, _timer):
        """A response reaches the requester (the hop timer's callback)."""
        if ((self._down or self._blocked) and not
                self.reachable(responder, message.sender)):
            self._drop(message)
            return
        deliver()

    # -- accounting ------------------------------------------------------

    def message_count(self, kind=None):
        """Request messages sent: network hops of ``kind``, or the grand
        total (co-located deliveries included) when ``kind`` is ``None``.
        Response hops are counted separately — see :meth:`response_count`.
        """
        if kind is None:
            return self._messages.total()
        return self._messages.get(kind)

    def response_count(self, kind=None):
        """Response deliveries, keyed by the request kind (or the grand
        total when ``kind`` is ``None``)."""
        if kind is None:
            return self._responses.total()
        return self._responses.get(kind)
