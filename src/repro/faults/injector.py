"""Deterministic fault schedules driven by the simulation RNG.

A fault is a *nemesis event*, a plain dict such as ``{"kind": "crash",
"at_us": 9000.0, "index": 1}``, and :meth:`FaultInjector.apply` is the
only way to schedule one — for generated schedules, seed files,
experiments and tests alike.  :data:`NEMESIS_KINDS` is the vocabulary;
``docs/architecture.md`` ("The failure model") tabulates each kind's
fields, what it fires, what heals it and what it logs.

Determinism discipline: every random choice is made at *scheduling*
time, or (when the needed state does not exist yet, like a WAL's length)
from a per-event RNG whose seed was fixed at scheduling time.  Fire-time
draws from the shared stream would make one event's outcome depend on
how many other events fired before it — dropping an event from a
schedule (as the checker's shrinker does) must never perturb the
survivors.
"""

import random
from collections import namedtuple

from repro.core.records import INVALID, VALID
from repro.storage.wal import DiskSlowdown


class FaultHandle:
    """A scheduled nemesis event that its owner can drop before it fires.

    Returned by :meth:`FaultInjector.apply`; the shrinker cancels handles
    instead of rebuilding the event queue.  Cancelling after the event
    fired is a no-op.  ``event`` is the event as scheduled: the caller's
    fields plus whatever ``apply`` drew for it."""

    __slots__ = ("event", "fired", "cancelled")

    def __init__(self, event):
        self.event = event
        self.fired = False
        self.cancelled = False

    def cancel(self):
        if not self.fired:
            self.cancelled = True

    def __repr__(self):
        state = ("fired" if self.fired
                 else "cancelled" if self.cancelled else "pending")
        return "<FaultHandle {} {}>".format(self.event.get("kind"), state)


#: One row of the vocabulary.  ``fire(injector, event)`` runs at
#: ``at_us``; the event's author must supply ``needs`` (beside ``kind``
#: and ``at_us``); ``draws`` are filled from the injector's stream, in
#: this order, when omitted; ``coordinator`` marks a kind that accepts
#: ``"target": "coordinator"`` in place of a slot ``index``; ``shape``
#: is how the checker's generator draws one occurrence (below), None
#: for ``restart``, which only ever follows another kind's crash.
Kind = namedtuple("Kind", "fire needs draws coordinator shape",
                  defaults=((), (), False, None))


# Generator shapes.  ``shape(rng, kind, start, index, setting)`` draws
# one occurrence of ``kind`` opening at ``start`` on slot ``index`` from
# the schedule's ``rng`` (``setting`` is the schedule's config) and
# returns ``(events, busy_until)``: the events in firing order, and the
# end of the fault plus the kind's settle margin, before which the next
# window may not open.  The draw order is the schedule format.

def _event(kind, at_us, index):
    return {"kind": kind, "at_us": round(at_us, 3), "index": index}


def _crash_shape(rng, kind, start, index, setting):
    """A crash and its restart: fast, redo races (and may beat) the
    detector's promotion or the follower's election timer; slow, the
    promotion or (past the worst-case 2T = 8 ms timer draw plus the
    claim round) the election wins and the machine rejoins."""
    if rng.random() < 0.45:
        restart_at = start + rng.uniform(600.0, 1700.0)
    elif setting["consensus"]:
        restart_at = start + rng.uniform(9500.0, 14000.0)
    else:
        restart_at = start + rng.uniform(4500.0, 8000.0)
    return ([_event(kind, start, index),
             _event("restart", restart_at, index)], restart_at + 3000.0)


def _corrupt_wal_shape(rng, kind, start, index, setting):
    """Corruption, then a crash and a slow restart of the same slot:
    late enough that detection (~miss_threshold * interval) usually
    promotes the standby first and the corrupt log is discarded."""
    corrupt = dict(_event(kind, start, index), rng_seed=rng.getrandbits(48))
    crash_at = start + rng.uniform(80.0, 300.0)
    restart_at = crash_at + rng.uniform(5200.0, 8000.0)
    return ([corrupt, _event("crash", crash_at, index),
             _event("restart", restart_at, index)], restart_at + 3000.0)


def _migrate_slot_shape(rng, kind, start, index, setting):
    """Slot and destination pinned now (``index`` unused); a destination
    that already owns the slot at fire time is a logged no-op.  The
    margin covers the handoff's round trips and bounded retries."""
    return ([{"kind": kind, "at_us": round(start, 3),
              "slot": rng.randrange(setting["num_slots"]),
              "dest": rng.randrange(setting["num_mnodes"])}],
            start + 9000.0)


def _stampede_shape(rng, kind, start, index, setting):
    return [{"kind": kind, "at_us": round(start, 3)}], start + 1500.0


def _span(lo, hi, settle=2600.0, fields=()):
    """Shape of a window kind: a duration drawn from ``[lo, hi)``, then
    each ``(field, draw)`` of ``fields`` in order; the slot settles
    ``settle`` after the window closes."""

    def shape(rng, kind, start, index, setting):
        duration = rng.uniform(lo, hi)
        event = dict(_event(kind, start, index),
                     duration_us=round(duration, 3))
        event.update((field, draw(rng)) for field, draw in fields)
        return [event], start + duration + settle

    return shape


def _uniform(lo, hi, places=3):
    return lambda rng: round(rng.uniform(lo, hi), places)


def _signed(lo, hi):
    return lambda rng: round(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)),
                             3)


_skew_window = _span(1000.0, 4000.0, fields=(
    ("offset_us", _signed(200.0, 6000.0)),
    ("drift_ppm", _signed(0.0, 80000.0)),
))


def _skew_clock_shape(rng, kind, start, index, setting):
    """A skew window on the slot, or in about one draw of three on the
    coordinator's clock (``index`` None)."""
    (event,), busy_until = _skew_window(rng, kind, start, index, setting)
    del event["index"]
    if rng.random() < 0.35:
        event.update(target="coordinator", index=None)
    else:
        event["index"] = index
    return [event], busy_until


# Slots are targeted by ``index`` and resolved to the slot's *current*
# occupant at fire time (it may be a promoted ``-pN`` incarnation).

def _crash(inj, event):
    cluster, index = inj.cluster, event["index"]
    if cluster.crashed(index) is not None:
        inj._log("crash_noop", cluster.mnodes[index].name, index=index)
        return
    lag = cluster.crash_mnode(index)
    inj._log("crash", cluster.mnodes[index].name, index=index,
             lag_at_crash=lag)


def _restart(inj, event):
    """Restart the dead occupant: redo, register, then resume as
    primary or rejoin as standby; takes simulated time, logged at
    completion."""
    cluster, index = inj.cluster, event["index"]
    if cluster.crashed(index) is None:
        inj._log("restart_noop", cluster.mnodes[index].name, index=index)
        return

    def proc():
        record = yield from cluster.restart_mnode(index)
        inj._log("restart", record["name"], index=index,
                 role=record["role"],
                 replayed_txns=record["replayed_txns"],
                 torn_records=record["torn_records"])

    inj.env.process(proc())


def _corrupt_wal(inj, event):
    """Silently corrupt one durable WAL record; only a later redo sees
    it.  Without ``lsn`` the record is drawn now (the log's length is
    unknowable earlier) from the event's own ``rng_seed``, among the
    durable records a checkpoint has not retired.  A target that no
    retained record holds is a logged no-op."""
    index = event["index"]
    node = inj.cluster.mnodes[index]
    wal = node.wal
    target = event.get("lsn")
    if target is None and wal.durable_lsn >= wal.first_lsn:
        target = random.Random(event["rng_seed"]).randint(
            wal.first_lsn, wal.durable_lsn)
    for segment in wal.segments:
        for record in segment.records:
            if record.lsn == target:
                record.corrupt()
                inj._log("corrupt_wal", node.name, index=index, lsn=target)
                return
    inj._log("corrupt_wal_noop", node.name, index=index)


def _stampede(inj, event):
    """Invalidate every VALID dentry replica on every alive MNode (and
    the coordinator) that the node does not derive from its own inodes,
    and drop every client's dentry cache: the synchronized refetch storm
    of a mass invalidation."""
    cluster = inj.cluster
    invalidated = 0
    for node in [*cluster.mnodes, cluster.coordinator]:
        if node.halted or cluster.network.is_down(node.name):
            continue
        for key, record in list(node.dentries.scan()):
            if record.state == VALID and not node.authoritative(key):
                # Mirrors the invalidation protocol's receiving side
                # (seq bump + INVALID mark) without its X-lock: a
                # stampede is exactly the case where invalidations land
                # faster than lock discipline.
                node.inval_seq[("d",) + key] += 1
                record.state = INVALID
                invalidated += 1
    for client in cluster.clients:
        invalidated += len(client.dcache.entries())
        client.dcache.clear()
    inj._log("stampede", "all", invalidated=invalidated)


def _migrate_slot(inj, event):
    """Online slot handoff.  A slot already on its destination is a
    logged no-op, so dropping other events never perturbs this one; the
    coordinator's saga must commit or roll back under ALL interleavings
    (migration introduces no oracle excusals)."""
    cluster, slot, dest = inj.cluster, event["slot"], event["dest"]
    target = "slot-{}".format(slot)
    if cluster.shared.slot_map.node_of(slot) == dest:
        inj._log("migrate_noop", target, slot=slot, dest=dest)
        return
    inj._log("migrate_slot", target, slot=slot, dest=dest)

    def proc():
        record = yield from cluster.coordinator.migrate_slot(
            slot, dest, reason="nemesis")
        if record is not None:
            inj._log("migrate_done", target, slot=slot, dest=dest,
                     status=record["status"])

    inj.env.process(proc())


def _window(begin, heal_kind, shape, draws=("index",), coordinator=False):
    """Row for a "begin now, undo after ``duration_us``, log both" kind.

    ``begin(inj, event)`` applies the fault and returns ``(target,
    extra_log_fields, undo)``, or None when it logged a no-op instead;
    ``undo()`` returns False when it had to leave the fault in place,
    which is logged as ``<heal_kind>_noop``."""

    def fire(inj, event):
        opened = begin(inj, event)
        if opened is None:
            return
        target, extra, undo = opened
        index = event.get("index")
        inj._log(event["kind"], target, index=index,
                 duration_us=event["duration_us"], **extra)

        def heal():
            yield inj.env.timeout(event["duration_us"])
            kind = heal_kind + "_noop" if undo() is False else heal_kind
            inj._log(kind, target, index=index)

        inj.env.process(heal())

    return Kind(fire, ("duration_us",), draws, coordinator, shape)


def _hang(inj, event):
    """The occupant is unreachable for the window, then comes back with
    its state intact (a GC pause / brown-out, not a crash)."""
    cluster, index = inj.cluster, event["index"]
    node = cluster.mnodes[index]
    if cluster.network.is_down(node.name):
        inj._log("hang_noop", node.name, index=index)
        return None
    cluster.network.set_down(node.name)

    def undo():
        # A node that crashed inside the window stays down: ``set_up``
        # would unfence it with its pre-crash state, and its restart
        # could no longer reincarnate the name.
        if cluster.crashed(index) is node:
            return False
        cluster.network.set_up(node.name)

    return node.name, {}, undo


def _cut(standby=False, witness=False, directed=False):
    """Begin-function for the partition shapes: the slot's current
    leader, with the named members of its replication group on its
    side, loses every other node — or, ``directed``, one direction of
    its links to those members and nothing else."""

    def begin(inj, event):
        cluster, index = inj.cluster, event["index"]
        side = [cluster.mnodes[index].name]
        if standby and cluster._standby(index) is not None:
            side.append(cluster.standbys[index].name)
        if witness and index < len(cluster.witnesses):
            side.append(cluster.witnesses[index].name)
        if directed:
            leader, *members = side
            extra = {"direction": event.get("direction", "outbound")}
            if extra["direction"] == "inbound":
                srcs, dsts = members, [leader]
            else:
                srcs, dsts = [leader], members
            cluster.network.partition_directed(srcs, dsts)
            return leader, extra, lambda: cluster.network.heal(srcs, dsts)
        others = [
            node.name
            for node in (cluster.mnodes + cluster.standbys
                         + cluster.witnesses + [cluster.coordinator]
                         + cluster.storage + cluster.clients)
            if node is not None and node.name not in side
        ]
        cluster.network.partition(side, others)
        return "|".join(side), {}, lambda: cluster.network.heal(side, others)

    return begin


# Gray failures — slow-not-dead: the victim keeps answering and still
# holds all the data, so the detector must NOT promote around it.  These
# stress retry storms, detection flapping, replication retransmission.

def _slow_disk(inj, event):
    """The slot's WAL fsyncs and writes slower, ramping toward the
    factors over ``ramp_us``; only the node's commits get slow."""
    cluster, index = inj.cluster, event["index"]
    node = cluster.mnodes[index]
    slowdown = DiskSlowdown(inj.env.now, event["duration_us"], **{
        field: event[field]
        for field in ("fsync_factor", "bandwidth_factor", "ramp_us")
        if field in event
    })
    node.wal.slow_disk = slowdown

    def undo():
        # Clear by identity: a restart may have swapped the WAL (or
        # another window installed a new slowdown) since.
        current = cluster.mnodes[index]
        if current.wal.slow_disk is slowdown:
            current.wal.slow_disk = None

    return node.name, {"fsync_factor": slowdown.fsync_factor,
                       "bandwidth_factor": slowdown.bandwidth_factor}, undo


def _degrade_link(inj, event):
    """Every hop touching the occupant gets slower, lossy and jittered
    (which breaks per-link FIFO), all drawn from the event's
    ``rng_seed`` so the window replays whatever else fired."""
    network = inj.cluster.network
    name = inj.cluster.mnodes[event["index"]].name
    if network.is_degraded(name):
        inj._log("degrade_noop", name, index=event["index"])
        return None
    quality = {
        "latency_factor": event.get("latency_factor", 1.0),
        "loss_prob": event.get("loss_prob", 0.0),
        "reorder_window_us": event.get("reorder_window_us", 0.0),
    }
    network.degrade_link(name, rng_seed=event["rng_seed"], **quality)
    return name, quality, lambda: network.restore_link(name)


def _skew_clock(inj, event):
    """The node's clock view jumps by ``offset_us`` and drifts by
    ``drift_ppm``: deadline stamping, backoff arithmetic and — on the
    coordinator — the heartbeat cadence all read it."""
    if event.get("target") == "coordinator":
        name = inj.cluster.coordinator.name
    else:
        name = inj.cluster.mnodes[event["index"]].name
    skew = {"offset_us": event.get("offset_us", 0.0),
            "drift_ppm": event.get("drift_ppm", 0.0)}
    clock = inj.env.clock(name)
    clock.skew(**skew)
    return name, skew, clock.reset


NEMESIS_KINDS = {
    "crash": Kind(_crash, draws=("index",), shape=_crash_shape),
    "restart": Kind(_restart, needs=("index",)),
    "corrupt_wal": Kind(_corrupt_wal, draws=("index", "rng_seed"),
                        shape=_corrupt_wal_shape),
    "stampede": Kind(_stampede, shape=_stampede_shape),
    "migrate_slot": Kind(_migrate_slot, needs=("slot", "dest"),
                         shape=_migrate_slot_shape),
    "hang": _window(_hang, "unhang", _span(300.0, 2400.0)),
    # Primary *plus its standby*: shipping flows on the minority side.
    "partition": _window(_cut(standby=True), "partition_heal",
                         _span(400.0, 2600.0)),
    # A minority of one: the leader must never acknowledge another
    # write; the follower and witness elect a successor.  Long enough
    # for the lease to lapse AND the follower's randomized election
    # timer (up to 2T = 8 ms) to fire.
    "leader_partition": _window(_cut(), "leader_partition_heal",
                                _span(9000.0, 16000.0, settle=6000.0)),
    # Leader + witness keep a 2-of-3 quorum, and the follower must NOT
    # be electable (the witness hears the live leader and refuses its
    # vote): availability loss for clients, never a second leader.
    "split_brain": _window(_cut(witness=True), "split_brain_heal",
                           _span(3000.0, 9000.0, settle=4000.0)),
    # Inbound (member->leader lost): no election, but the leader hears
    # no acks, so its lease lapses and it must stop acknowledging.
    # Outbound: members elect while the old leader, deaf, fences itself.
    "asymm_partition": _window(
        _cut(standby=True, witness=True, directed=True),
        "asymm_partition_heal",
        _span(9000.0, 16000.0, settle=6000.0, fields=(
            ("direction",
             lambda rng: rng.choice(("inbound", "outbound"))),
        ))),
    "slow_disk": _window(_slow_disk, "slow_disk_end", _span(
        1500.0, 4000.0, fields=(
            ("fsync_factor", _uniform(4.0, 40.0)),
            ("bandwidth_factor", _uniform(2.0, 10.0)),
            ("ramp_us", _uniform(200.0, 800.0)),
        ))),
    "degrade_link": _window(_degrade_link, "degrade_heal", _span(
        800.0, 3000.0, fields=(
            ("latency_factor", _uniform(2.0, 10.0)),
            ("loss_prob", _uniform(0.05, 0.35, places=4)),
            ("reorder_window_us", _uniform(40.0, 350.0)),
            ("rng_seed", lambda rng: rng.getrandbits(48)),
        )), draws=("index", "rng_seed")),
    "skew_clock": _window(_skew_clock, "skew_heal", _skew_clock_shape,
                          coordinator=True),
}


class FaultInjector:
    """Schedules nemesis events on a cluster."""

    def __init__(self, cluster, stream="faults"):
        self.cluster = cluster
        self.env = cluster.env
        self.rng = cluster.shared.streams.stream(stream)
        #: Chronological log of injected fault events.
        self.events = []

    def _log(self, kind, target, **extra):
        event = {"kind": kind, "target": target, "at": self.env.now}
        event.update(extra)
        self.events.append(event)

    def apply(self, event):
        """Schedule one nemesis event — the only way to inject a fault.
        Returns a :class:`FaultHandle` the owner can
        :meth:`~FaultHandle.cancel` before it fires.

        ``event`` is a plain dict: a ``kind`` from
        :data:`NEMESIS_KINDS`, an absolute fire time ``at_us`` and the
        kind's own fields.  It is checked now, before any simulated time
        passes: an unknown kind, a missing field, an ``index``, ``slot``
        or ``dest`` the cluster does not have, or a non-positive
        ``duration_us`` raises :class:`ValueError` naming kind and field.

        Every random choice is pinned now too (an omitted ``index`` or
        ``rng_seed`` is drawn from the injector's seeded stream and
        recorded in ``handle.event``), so cancelling any subset of events
        never perturbs the survivors — the property the shrinker's
        drop-and-replay discipline rests on."""
        kind = event.get("kind")
        row = NEMESIS_KINDS.get(kind)
        if row is None:
            raise ValueError("unknown nemesis kind: {!r}".format(kind))
        event = dict(event)
        mnodes = range(len(self.cluster.mnodes))
        ranges = {"index": mnodes, "dest": mnodes,
                  "slot": range(self.cluster.shared.slot_map.num_slots)}
        coordinator = row.coordinator and event.get("target") == "coordinator"
        for field in ("at_us",) + row.needs + row.draws:
            if field == "index" and coordinator:
                continue
            if event.get(field) is None and field in row.draws:
                event[field] = (self.rng.getrandbits(64)
                                if field == "rng_seed"
                                else self.rng.randrange(len(mnodes)))
            value = event.get(field)  # None: missing and not drawable
            if field.endswith("_us"):
                # A fire time may already be past; a window must be open.
                valid = (isinstance(value, (int, float))
                         and (field == "at_us" or value > 0))
            else:
                valid = (isinstance(value, int)
                         and value in ranges.get(field, (value,)))
            if not valid:
                raise ValueError("nemesis {!r}: field {!r} is {!r}"
                                 .format(kind, field, value))
        handle = FaultHandle(event)

        def proc():
            delay = event["at_us"] - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if not handle.cancelled:
                handle.fired = True
                row.fire(self, event)

        self.env.process(proc())
        return handle
