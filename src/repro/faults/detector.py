"""Heartbeat failure detection on the coordinator.

The coordinator periodically pings every MNode *slot* in the cluster
directory with a per-ping timeout; a slot that misses
:data:`HEARTBEAT_MISS_THRESHOLD` consecutive pings is declared dead and
the ``on_failure`` hook (normally the cluster's promote-and-repair path) is
spawned for it.  Pinging slots rather than names means monitoring heals
itself: once failover installs the promoted standby in the directory,
the same slot resolves to the live replacement.

Detection latency is therefore bounded by roughly
``HEARTBEAT_MISS_THRESHOLD * HEARTBEAT_INTERVAL_US +
HEARTBEAT_TIMEOUT_US`` — the availability-gap floor the failover
experiment measures against.

The consensus tier (``config.consensus``) runs no detector at all:
each quorum group's election timer is its failure detector.
"""

from collections import defaultdict

from repro.net.rpc import RpcFailure
from repro.obs import NULL_CONTEXT, deadline_call

#: Heartbeat cadence and per-ping timeout, microseconds, and the
#: consecutive misses before a slot is declared dead.
HEARTBEAT_INTERVAL_US = 500.0
HEARTBEAT_TIMEOUT_US = 200.0
HEARTBEAT_MISS_THRESHOLD = 3


class FailureDetector:
    """Coordinator-side heartbeat/lease monitor for the MNode ring."""

    def __init__(self, coordinator, shared, on_failure):
        self.node = coordinator
        self.shared = shared
        self.env = coordinator.env
        self.on_failure = on_failure
        #: Consecutive misses per slot index.
        self.misses = defaultdict(int)
        #: Slots declared dead and not yet recovered (not pinged).
        self.declared = set()
        #: Detection log: one record per declared failure.
        self.log = []
        self._running = False
        self._proc = None

    def start(self):
        """Start the heartbeat loop; returns its process."""
        if self._running:
            return self._proc
        self._running = True
        self._proc = self.env.process(self._loop())
        return self._proc

    def stop(self):
        """Ask the loop to exit at its next wakeup."""
        self._running = False

    def _loop(self):
        """Fixed-rate tick: probes are spawned at the heartbeat cadence
        and *not* joined.

        Joining them (as this loop once did) made the effective period
        ``interval + slowest ping RTT``, so a slow-not-dead link
        silently stretched detection latency past the documented
        ``miss_threshold * interval + timeout`` floor.  Each probe is
        already bounded by the ping timeout, so an unjoined straggler can
        overlap the next tick at most briefly.  Tick arithmetic runs on
        the coordinator's *local* clock: skewing it genuinely changes
        the heartbeat cadence the cluster experiences.
        """
        clock = self.node.clock
        next_due = clock.now_us() + HEARTBEAT_INTERVAL_US
        while self._running:
            delay = next_due - clock.now_us()
            if delay > 0:
                yield self.env.timeout(clock.to_env_delay(delay))
            if not self._running:
                return
            next_due += HEARTBEAT_INTERVAL_US
            if next_due < clock.now_us():
                # Fell behind (huge skew step or a stalled env): skip
                # missed ticks rather than firing a probe burst.
                next_due = clock.now_us() + HEARTBEAT_INTERVAL_US
            for index in range(len(self.shared.mnode_names)):
                if index not in self.declared:
                    self.env.process(self._ping(index))

    def _ping(self, index):
        # Physical-node resolution, not slot resolution: liveness is a
        # property of machines, and under an elastic slot map the two
        # diverge (a node may host any number of slots, including none).
        target = self.shared.node_name(index)
        try:
            yield from deadline_call(
                self.node, NULL_CONTEXT, target, "ping", {},
                timeout_us=HEARTBEAT_TIMEOUT_US,
            )
        except RpcFailure:
            self.misses[index] += 1
            if (self.misses[index] >= HEARTBEAT_MISS_THRESHOLD
                    and index not in self.declared):
                self._declare(index, target)
        else:
            self.misses[index] = 0

    def _declare(self, index, target):
        self.declared.add(index)
        self.log.append({
            "index": index, "name": target, "declared_at": self.env.now,
            "misses": self.misses[index],
        })
        self.node.metrics.counter("failures_declared").inc()
        self.env.process(self._recover(index))

    def _recover(self, index):
        result = yield from self.on_failure(index)
        # The directory slot now resolves to the replacement (or to the
        # redo-recovered original, when restart won the race and the
        # failover was suppressed); resume monitoring it.
        self.misses[index] = 0
        self.declared.discard(index)
        return result

    def node_restarted(self, index):
        """A crashed node redo-recovered and re-registered under its
        slot.  Pending misses are forgiven immediately so a declaration
        does not fire on stale evidence; a slot already declared keeps
        its in-flight recovery, whose promotion the coordinator
        suppresses on arrival when it finds the slot answering again.
        """
        self.misses[index] = 0
