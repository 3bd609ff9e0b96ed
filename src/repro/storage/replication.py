"""Primary-standby metadata replication (log shipping).

The paper's MNodes are PostgreSQL instances and inherit its
primary-secondary replication; the evaluation runs with replication
disabled, but the mechanism belongs to the system.  This module
implements asynchronous log shipping:

* every committed transaction on a primary ships the record list its
  WAL logged (table, key, new row or tombstone) to the standby in
  commit order;
* the standby applies records in order, tracks its applied LSN, exposes
  replication lag, and acknowledges its applied LSN back to the primary
  (``wal_ack``), which prunes the acknowledged prefix of its shipping
  history — retention is bounded by the unacked suffix, not the run
  length;
* a standby can also **catch up from scratch** (:meth:`Standby.catch_up`):
  it fetches a snapshot of the primary's tables, installs it, fast-
  forwards its applied LSN to the snapshot point and then drains the
  buffered log-shipping delta — the rejoin path a redo-recovered node
  takes after a promotion already replaced it;
* :func:`divergence` compares a primary's tables against its standby for
  convergence checking (used by tests and by operators after drain).

Failover (promoting a standby into the MNode ring) additionally requires
rerouting in the cluster directory; the standby conservatively marks all
replicated namespace dentries INVALID on promotion so lazy replication
re-validates them — see :meth:`Standby.promote_tables`.
"""

from repro.core.records import INVALID
from repro.net import Node
from repro.net.rpc import RpcError, RpcFailure
from repro.storage.table import Table, apply_records, install_image

#: Shipper retransmission period, microseconds: how long an unacked
#: suffix waits for ack progress before it is re-shipped.
SHIP_RETRY_US = 1200.0


class LogShipper:
    """Primary-side hook: serialize committed writes to the standby.

    Shipping and acks are fire-and-forget messages, so a gray-degraded
    link (seeded packet loss) can swallow either side.  A lost
    ``wal_ship`` is a silent, *permanent* replication gap — the standby
    buffers around it forever and every later promotion loses the
    acked transaction, far outside any excusable crash window; a lost
    ``wal_ack`` strands retained history.  The shipper therefore
    retransmits: while ``history`` (the unacknowledged suffix, full
    logical records) is non-empty, a timer re-ships the suffix whenever
    a :data:`SHIP_RETRY_US` period passes without ack progress.  The timer
    only exists while there is something unacknowledged — an idle
    cluster still runs to quiescence — and duplicate shipments are
    ignored (and re-acked) by the standby, so retransmission is safe
    under reordering too.
    """

    #: Asynchronous shipping stamps no terms (the consensus log's base
    #: term, which a checkpoint copies into the WAL's control data).
    base_term = 0

    def __init__(self, node, standby_name, start_lsn=1):
        self.node = node
        self.standby_name = standby_name
        self.next_lsn = start_lsn
        #: Highest LSN the standby has acknowledged applying.
        self.acked_lsn = start_lsn - 1
        self.shipped_records = 0
        #: (lsn, [(table, key, value), ...]) per shipped-but-
        #: unacknowledged transaction — the retained suffix of the
        #: primary's shipping index, full records so the suffix can be
        #: retransmitted verbatim.  Acknowledged entries are pruned
        #: (bounded retention); after a crash, the entries above the
        #: standby's applied LSN are exactly the lost-unshipped window.
        self.history = []
        self.resent_records = 0
        self._retx_armed = False

    def ship_payload(self, records, lsn=None):
        """Ship a logical record list; assigns the next LSN unless a
        re-ship ``lsn`` is given (restart catch-up resends the durable
        suffix the standby missed under its original LSNs).  As the
        commit hook (:meth:`ship`) it takes one committed transaction's
        WAL payload, fire-and-forget: asynchronous replication does not
        delay the commit path."""
        if not records:
            return None
        if lsn is None:
            lsn = self.next_lsn
            self.next_lsn += 1
            self.history.append((lsn, records))
        elif (lsn > self.acked_lsn
              and all(entry[0] != lsn for entry in self.history)):
            # Explicit-LSN re-ship (restart catch-up): retain it unless
            # that LSN is already tracked or acknowledged, so
            # retransmission never duplicates a history entry and never
            # re-retains what the standby already confirmed.
            self.history.append((lsn, records))
        self._send(lsn, records)
        self._arm_retransmit()
        return lsn

    ship = ship_payload

    def _send(self, lsn, records):
        self.shipped_records += len(records)
        self.node.send(
            self.standby_name, "wal_ship",
            {"lsn": lsn, "records": records},
            size=self.node.costs.rpc_request_bytes
            + self.node.costs.wal_record_bytes * len(records),
        )

    def resend_unacked(self):
        """Re-ship the entire unacknowledged suffix (idempotent at the
        standby: duplicates are dropped and re-acked)."""
        for lsn, records in list(self.history):
            self._send(lsn, records)
            self.resent_records += len(records)

    def _arm_retransmit(self):
        if self._retx_armed or not self.history:
            return
        self._retx_armed = True
        self.node.env.process(self._retransmit_loop())

    def _retransmit_loop(self):
        """Event-driven retransmission: sleeps one period at a time and
        re-ships when no ack progress was made; exits the moment the
        suffix drains (quiescence-safe — no standing periodic timer).
        A down node parks on its resume event instead of spinning; a
        halted (replaced) incarnation stops retransmitting for good."""
        node = self.node
        env = node.env
        try:
            while self.history:
                acked_before = self.acked_lsn
                yield env.sleep(SHIP_RETRY_US)
                while node.network.is_down(node.name) and not node.halted:
                    yield node.network.resume_event(node.name)
                if node.halted:
                    return
                if self.history and self.acked_lsn == acked_before:
                    self.resend_unacked()
        finally:
            self._retx_armed = False

    # -- the shipper surface MNodes and the cluster program against ------
    # (:class:`~repro.storage.consensus.ReplicatedLog` is the other
    # implementation: ship, on_ack, leading, wait_quorum,
    # snapshot_position, trim.)

    def on_ack(self, sender, payload):
        """Consume a ``wal_ack`` from the current standby (a retired
        standby's straggler names an LSN space that no longer exists)."""
        if sender == self.standby_name:
            self.acknowledge(payload["applied_lsn"])

    def leading(self, now_us):
        """Asynchronous shipping never fences the serve path."""
        return True

    def wait_quorum(self, lsn=None):
        """Generator: asynchronous shipping acknowledges at once."""
        return True
        yield  # pragma: no cover

    def snapshot_position(self):
        """The shipping position a table copy taken now reflects."""
        return {"lsn": self.next_lsn - 1}

    def trim(self, lsn):
        """The primary's checkpoint would cover the shipments up to
        ``lsn``; returns how far it may.  A resumed shipper re-ships
        from the log whatever the standby has not applied, so only the
        acknowledged prefix may go."""
        return min(lsn, self.acked_lsn)

    def acknowledge(self, applied_lsn):
        """Consume a standby ack: prune history up to ``applied_lsn``,
        keeping only the unacknowledged suffix.  Pruning runs even for
        no-progress acks — a duplicate re-ack must still clear any
        stale entry a re-ship parked at or below the acked horizon, or
        the retransmit timer would re-ship it forever."""
        if applied_lsn > self.acked_lsn:
            self.acked_lsn = applied_lsn
        if self.history:
            self.history = [
                entry for entry in self.history
                if entry[0] > self.acked_lsn
            ]


def refuse_unowned(node, message):
    """Answer a message kind ``node``'s role can never own: refuse with
    ``ENOTLEADER`` and count it by kind — never raise.

    A restarted machine rejoins as a standby *under its old MNode name*,
    so traffic addressed to the owner it used to be (a 2PC abort sent to
    the name captured at prepare time) lands on a replica role.  The
    sender re-resolves or gives up; a raise would crash the whole run.
    """
    node.metrics.counter("unowned_messages").inc(message.kind)
    node.respond_error(message, RpcFailure(RpcError.ENOTLEADER, node.name))


class Standby(Node):
    """A warm standby holding a replica of one primary's tables."""

    def __init__(self, env, network, name, table_names=("dentry", "inode")):
        super().__init__(env, network, name)
        self.tables = {name: Table(name) for name in table_names}
        self.applied_lsn = 0
        self.applied_records = 0
        #: Out-of-order buffer (shipping is FIFO per sender in this
        #: simulator, but the protocol tolerates reordering).
        self._pending = {}
        #: While True (snapshot fetch in flight), shipments are buffered
        #: in ``_pending`` but not applied — the snapshot install decides
        #: which of them the base image already covers.
        self.catching_up = False
        #: Set by :meth:`promote_tables`: this standby's tables are now
        #: the live primary's tables (installed by reference), so any
        #: late shipment must be ignored — applying it would write stale
        #: values straight into the promoted node's state.
        self.promoted = False
        self.ignored_shipments = 0
        self.duplicate_shipments = 0

    #: A restarted machine rejoins under its old MNode name: refuse
    #: what only the owner it used to be can answer.
    _unhandled = refuse_unowned

    def _on_applied_query(self, message):
        """A restarted primary asking where to resume the delta."""
        yield from self.execute(self.costs.index_lookup_us)
        self.respond(message, {"applied_lsn": self.applied_lsn})

    def _on_wal_ship(self, message):
        payload = message.payload
        lsn = payload["lsn"]
        if self.promoted:
            # Zombie shipment: this standby's tables now belong to the
            # promoted primary.  A delayed or reordered ship arriving
            # after promotion must not apply (it would overwrite newer
            # promoted-primary writes with stale values), and must not
            # be acked (the sender is a retired incarnation).
            self.ignored_shipments += 1
            return
        if lsn <= self.applied_lsn and not self.catching_up:
            # Duplicate / already-covered shipment (a retransmission
            # after a lost ack, or a reordered straggler): drop it, but
            # re-ack the applied horizon so the primary can prune the
            # history the lost ack stranded.
            self.duplicate_shipments += 1
            self.send(message.sender, "wal_ack",
                      {"applied_lsn": self.applied_lsn})
            self.respond(message, {"applied_lsn": self.applied_lsn})
            return
        self._pending[lsn] = payload["records"]
        applied = 0
        if not self.catching_up:
            applied = self._apply_ready()
        if applied:
            yield from self.execute(
                self.costs.index_insert_us * applied
            )
        # Acknowledge the applied horizon so the primary can prune its
        # retained history (fire-and-forget, like shipping itself).
        self.send(message.sender, "wal_ack",
                  {"applied_lsn": self.applied_lsn})
        self.respond(message, {"applied_lsn": self.applied_lsn})

    def _apply_ready(self):
        """Apply every buffered shipment that extends the applied LSN
        contiguously; returns the number of records applied."""
        applied = 0
        while self.applied_lsn + 1 in self._pending:
            self.applied_lsn += 1
            applied += apply_records(
                self.tables, self._pending.pop(self.applied_lsn))
        self.applied_records += applied
        return applied

    # -- rejoin catch-up -------------------------------------------------

    def catch_up(self, primary_name, ctx=None):
        """Generator: full resynchronization from ``primary_name``.

        Fetches a snapshot of the primary's tables (the primary's
        shipper must already point here, so commits concurrent with the
        snapshot arrive as buffered deltas), installs it, fast-forwards
        the applied LSN to the snapshot point, then drains whatever
        buffered shipments the snapshot does not cover.

        Idempotent under duplicated and overlapping deliveries: a
        second catch-up racing the first returns immediately (the
        in-flight install decides coverage), and a snapshot *below*
        the already-applied horizon is *refused* — installing it would
        rewind ``applied_lsn`` past deltas this standby already applied
        and acknowledged, which the primary has pruned from its
        retained history; the rewound gap could then never be refilled
        and every later promotion would silently lose those acked
        transactions.  (A snapshot exactly *at* the horizon installs:
        it is the same state, and a fresh standby facing an idle
        primary starts with both at zero.)
        """
        if self.catching_up:
            return 0
        self.catching_up = True
        try:
            reply = yield self.call(primary_name, "snapshot", {}, ctx=ctx)
        except BaseException:
            self.catching_up = False
            raise
        if self.promoted or reply["lsn"] < self.applied_lsn:
            # Stale or duplicate snapshot (an overlapping catch-up
            # already installed a newer one, or deltas advanced past
            # this image while it was in flight): keep the newer state.
            self.catching_up = False
            self._pending = {
                lsn: records for lsn, records in self._pending.items()
                if lsn > self.applied_lsn
            }
            applied = self._apply_ready()
            if applied:
                yield from self.execute(self.costs.index_insert_us * applied)
            self.send(primary_name, "wal_ack",
                      {"applied_lsn": self.applied_lsn})
            return 0
        installed = self._install_snapshot(reply)
        # Shipments the snapshot already covers are dropped; the rest
        # stay buffered and apply in order below.
        self._pending = {
            lsn: records for lsn, records in self._pending.items()
            if lsn > self.applied_lsn
        }
        self.catching_up = False
        applied = self._apply_ready()
        yield from self.execute(
            self.costs.index_insert_us * (installed + applied)
        )
        self.send(primary_name, "wal_ack",
                  {"applied_lsn": self.applied_lsn})
        return installed

    def _install_snapshot(self, reply):
        """Replace the tables with a ``snapshot`` reply's copy and
        fast-forward the applied LSN to it; returns rows installed."""
        self.tables = {}
        self.applied_lsn = reply["lsn"]
        return install_image(self.tables, reply["tables"])

    def lag(self, shipper):
        """Transactions shipped but not yet applied."""
        return (shipper.next_lsn - 1) - self.applied_lsn

    def promote_tables(self):
        """Hand this standby's tables over to the MNode booting from
        them; late shipments are ignored from now on.  Replicated
        dentries may have missed invalidations, so all are marked
        INVALID: lazy replication refetches them on first use (§4.3)."""
        self.promoted = True
        dentries = self.tables.get("dentry")
        if dentries is not None:
            for _, record in dentries.scan():
                record.state = INVALID
        return self.tables


def divergence(primary, standby):
    """List of (table, key, primary_value, standby_value) differences.

    Compares the primary MNode's ``dentries``/``inodes`` tables against
    the standby's replicas; an empty list after the standby has drained
    means the pair has converged.  Two classes of primary-local state are
    excluded: dentry *state* flags, and dentry entries the primary does
    not own (lazily fetched copies of other MNodes' directories are
    coherence cache, not replicated data).  A key deleted on the primary
    and never seen (or tombstoned) on the standby compares equal —
    tombstone-vs-missing is convergence, not divergence.
    """
    differences = []
    pairs = (
        ("dentry", primary.dentries),
        ("inode", primary.inodes),
    )
    for name, table in pairs:
        replica = standby.tables.get(name)
        theirs_by_key = {} if replica is None else dict(replica.scan())
        keys = {k for k, _ in table.scan()}.union(theirs_by_key)
        for key in sorted(keys):
            if name == "dentry" and not _owned_by(primary, key):
                continue
            mine = table.get(key)
            theirs = theirs_by_key.get(key)
            if not _records_equal(mine, theirs):
                differences.append((name, key, mine, theirs))
    return differences


def _owned_by(primary, key):
    try:
        return primary._owns_dentry(key)
    except AttributeError:
        return True


def _records_equal(mine, theirs):
    if mine is None or theirs is None:
        return mine is None and theirs is None
    for field in ("ino", "mode", "uid", "gid"):
        if getattr(mine, field, None) != getattr(theirs, field, None):
            return False
    for field in ("is_dir", "size"):
        mv = getattr(mine, field, None)
        tv = getattr(theirs, field, None)
        if mv is not None and tv is not None and mv != tv:
            return False
    return True
