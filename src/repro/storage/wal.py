"""Durable write-ahead log with group commit, segments and redo replay.

A commit request hands the log a transaction's logical records and
receives an event that fires when those records are durable.  If a flush
is already in flight, the request joins the *next* flush — so concurrent
committers share one fsync.  This is the mechanism behind FalconFS's WAL
coalescing (§4.4): batching K operations into one transaction turns K
fsyncs into one, and the log's metrics expose exactly that ratio.

Unlike a pure timing device, the log actually *stores* what it was asked
to make durable, the way the paper's PostgreSQL MNodes do:

* every :meth:`commit` appends one :class:`WalRecord` (LSN, logical
  payload, term) to the active :class:`WalSegment`; segments rotate at
  ``costs.wal_segment_bytes``;
* the **fsync horizon** ``durable_lsn`` advances only when a flush
  completes — records at or below it survive a crash;
* a record's on-disk damage is modelled, not computed: it carries a
  damage mark (``_delta``), zero while the image is whole, which a crash
  mid-flush (:meth:`WalRecord.tear`) or an injected disk fault
  (:meth:`WalRecord.corrupt`) sets; :attr:`WalRecord.intact` is the
  verification a real log would make with a per-record CRC;
* a crash mid-flush (:meth:`power_fail`) leaves a **torn tail**: the
  in-flight batch was partially written, so its records are not intact
  and its waiters are *never* acknowledged (a dead machine must not
  confirm durability it never reached);
* :meth:`replay` is the redo scan a restarting node runs: it reads the
  segments in LSN order and truncates at the first record that is not
  intact (torn tail or injected disk corruption);
* :meth:`payloads_since` is a live node's read-back of its own log
  above an LSN — where a slot handoff's delta comes from.

The log is bounded by checkpoints, the way PostgreSQL bounds its own:

* a **base record** (:meth:`checkpoint`) is an image of the owner's
  tables that covers every record at or below its LSN, the horizon.
  The owner picks the horizon and builds the image; the log only keeps
  it.  The image may also hold writes above the horizon (a *fuzzy*
  checkpoint): replaying those records over it again is idempotent,
  because every record carries whole rows.  A bulk load seeds the log
  this way too: one base at the current horizon holds the loaded rows,
  which no record carries;
* :meth:`retire` then drops every segment wholly at or below the base,
  so the log keeps one base plus the suffix above it; the active
  segment is never dropped;
* redo is "install the base, then replay the suffix": :meth:`replay`
  scans only the records above the base, and a restarted node's log is
  rebuilt the same way (:meth:`bootstrap` with ``base``).

A plain log never checkpoints on its own.  Its owner may set
:attr:`~WriteAheadLog.on_rotate`, which the flusher calls once the
flush after the one that opened a new segment is durable — about one
checkpoint per ``costs.wal_segment_bytes`` of log.
"""

from repro.obs.tracer import CAT_WAL


class WalRecord:
    """One appended transaction: LSN, logical records, term and the
    on-disk damage mark.

    ``payload`` is the transaction's record list (``(table, key,
    row-or-None)`` tuples, as produced by
    :meth:`~repro.storage.table.Transaction.export_writes`) — the very
    list the commit hook ships and a slot fence filters into its delta —
    ``None`` for control records (2PC votes) that carry no redo content,
    or, in a base record, the owner's table image ``{table: (keys,
    rows)}``.
    ``term`` is the consensus term under which the record was appended
    (0 when the log is not part of a replicated consensus group).
    """

    __slots__ = ("lsn", "payload", "nbytes", "term", "_delta")

    def __init__(self, lsn, payload, nbytes, term=0):
        self.lsn = lsn
        self.payload = payload
        self.nbytes = nbytes
        self.term = term
        #: The on-disk damage mark: zero while the image is intact; a
        #: mid-flush tear or a corruption injection sets it nonzero.
        self._delta = 0

    def tear(self):
        """Mark the on-disk image partial (crash mid-write)."""
        self._delta = 0xFFFFFFFF

    def corrupt(self):
        """Damage the on-disk image (disk corruption injection)."""
        self._delta = 0x1

    @property
    def intact(self):
        """Whether the record verifies on redo."""
        return self._delta == 0


class WalSegment:
    """A contiguous run of records sharing one log file."""

    __slots__ = ("index", "records", "nbytes")

    def __init__(self, index):
        self.index = index
        self.records = []
        self.nbytes = 0

    def append(self, record):
        self.records.append(record)
        self.nbytes += record.nbytes


class DiskSlowdown:
    """Gray slow-not-dead disk state for one WAL.

    While active, fsync latency and per-byte bandwidth cost stretch
    toward ``fsync_factor`` / ``bandwidth_factor``, ramping up linearly
    over ``ramp_us`` (production disks degrade gradually — a cliff is a
    crash, a ramp is a gray failure).  Outside ``[start, start+duration]``
    the factors are exactly 1.0.
    """

    __slots__ = ("start_us", "duration_us", "ramp_us", "fsync_factor",
                 "bandwidth_factor")

    def __init__(self, start_us, duration_us, fsync_factor=8.0,
                 bandwidth_factor=4.0, ramp_us=500.0):
        self.start_us = start_us
        self.duration_us = duration_us
        self.ramp_us = ramp_us
        self.fsync_factor = fsync_factor
        self.bandwidth_factor = bandwidth_factor

    def factors_at(self, now_us):
        """``(fsync_multiplier, bandwidth_multiplier)`` at ``now_us``."""
        t = now_us - self.start_us
        if t < 0.0 or t > self.duration_us:
            return 1.0, 1.0
        scale = 1.0
        if self.ramp_us > 0.0 and t < self.ramp_us:
            scale = t / self.ramp_us
        return (1.0 + (self.fsync_factor - 1.0) * scale,
                1.0 + (self.bandwidth_factor - 1.0) * scale)


class WriteAheadLog:
    """Group-committing durable log owned by one MNode."""

    def __init__(self, env, costs, metrics=None):
        self.env = env
        self.costs = costs
        self.metrics = metrics
        self._pending = []
        self._flushing = False
        #: Monotone LSN allocator (1-based; 0 = nothing appended).
        self.next_lsn = 1
        #: Fsync horizon: highest LSN whose flush completed.
        self.durable_lsn = 0
        #: True after :meth:`power_fail` — the owning machine crashed.
        self.failed = False
        #: On-disk segments (records that at least entered a flush).
        self.segments = [WalSegment(0)]
        #: Appended commits that never reached the device (crash before
        #: their flush started) — unfsynced and unwritten.
        self.lost_unwritten = 0
        #: Records physically torn by a crash mid-flush.
        self.torn_records = 0
        #: Totals for experiment readout.
        self.flush_count = 0
        self.bytes_written = 0
        self.records_written = 0
        #: Active :class:`DiskSlowdown`, or None (the overwhelmingly
        #: common case — the flush path charges the original cost
        #: expression untouched, keeping golden traces bit-identical).
        self.slow_disk = None
        #: Consensus term stamped on every appended record; stays 0
        #: outside a replicated consensus group.
        self.term = 0
        #: The latest base record (:meth:`checkpoint`), or None: every
        #: record since the first is still in a segment.
        self.base = None
        #: Called with no arguments once the flush after the one that
        #: opened a new segment is durable — the owner's checkpoint
        #: trigger.
        self.on_rotate = None
        self._rotated = False
        #: Control data (PostgreSQL's ``pg_control``), written as freely
        #: as a checkpoint: records up to ``ship_anchor`` reached the
        #: replicas out of band, the first with rows above it took ship
        #: LSN ``ship_base``, and ``ship_base_term`` is the term below
        #: that.  A restart maps its redo onto ship LSNs from them.
        self.ship_anchor = 0
        self.ship_base = 1
        self.ship_base_term = 0

    # -- appending -------------------------------------------------------

    def commit(self, nbytes, records=1, ctx=None, payload=None):
        """Request durability of one transaction; returns an event.

        ``payload`` is the transaction's logical record list, retained
        in the log for redo replay.  With a traced ``ctx``, a
        ``wal.commit`` span covers the full wait (queueing behind an
        in-flight flush plus the fsync itself)."""
        done = self.env.event()
        if self.failed:
            # A dead machine's log accepts nothing; the caller parks on
            # an event that never fires (its process died too).
            return done
        if ctx is not None and ctx.traced:
            span = ctx.start_span(
                "wal.commit", CAT_WAL,
                attrs={"bytes": nbytes, "records": records},
            )
            done.callbacks.append(
                lambda _event, span=span: span.finish(self.env.now)
            )
        record = WalRecord(self.next_lsn, payload, nbytes, term=self.term)
        self.next_lsn += 1
        self._pending.append((done, record, records))
        if not self._flushing:
            self._flushing = True
            self.env.process(self._flusher())
        return done

    def bootstrap(self, payloads, base=None):
        """Install a base image: append ``payloads`` as already-durable
        records (no simulated time).  A promoted or redo-recovered node
        starts from the state its tables were built from — this is the
        base backup its future crash recovery replays before any new
        records.  ``base`` (a redo's base record) goes first, and
        ``payloads`` then take the LSNs above it, as they had in the log
        they were replayed from."""
        if base is not None:
            self.base = base
            self.durable_lsn = base.lsn
            self.next_lsn = base.lsn + 1
        for payload in payloads:
            record = WalRecord(self.next_lsn, payload,
                               self.costs.wal_record_bytes, term=self.term)
            self.next_lsn += 1
            self._segment_append(record)
            self.durable_lsn = record.lsn

    def _segment_append(self, record):
        """Append ``record`` to the active segment, first opening a new
        one when it is full; returns whether it opened one."""
        segment = self.segments[-1]
        rotated = (segment.nbytes >= self.costs.wal_segment_bytes
                   and bool(segment.records))
        if rotated:
            segment = WalSegment(segment.index + 1)
            self.segments.append(segment)
        segment.append(record)
        return rotated

    # -- checkpoints -----------------------------------------------------

    def checkpoint(self, lsn, image, term=0):
        """Write a base record: ``image`` (the owner's tables, in the
        form its redo installs) covers every record at or below ``lsn``.
        Then :meth:`retire` below it.  No simulated time: the image is
        taken and the segments dropped in one step."""
        if lsn > self.durable_lsn:
            raise ValueError("a base at LSN {} would cover records that "
                             "are not durable (fsync horizon {})".format(
                                 lsn, self.durable_lsn))
        self.base = WalRecord(lsn, image, self.costs.wal_record_bytes,
                              term=term)
        self.retire(lsn)

    def retire(self, lsn):
        """Drop every segment whose records all lie at or below ``lsn``,
        which the base must cover.  The active segment stays."""
        if self.base is None or lsn > self.base.lsn:
            raise ValueError("no base record covers LSN {}".format(lsn))
        keep = len(self.segments) - 1
        for i, segment in enumerate(self.segments[:-1]):
            if segment.records and segment.records[-1].lsn > lsn:
                keep = i
                break
        del self.segments[:keep]

    @property
    def horizon(self):
        """The LSN the base covers up to (0 without a base)."""
        return 0 if self.base is None else self.base.lsn

    @property
    def first_lsn(self):
        """The lowest LSN still held in a segment: 1 while nothing has
        been retired, else the first record the oldest segment kept."""
        records = self.segments[0].records
        return records[0].lsn if records else self.next_lsn

    # -- flushing --------------------------------------------------------

    def _flusher(self):
        while self._pending:
            batch, self._pending = self._pending, []
            nbytes = sum(r.nbytes for _, r, _ in batch)
            records = sum(n for _, _, n in batch)
            # The rotation hook runs once the flush *after* the one that
            # opened a segment is durable: by then the writes of every
            # earlier flush have applied, unless something holds them.
            due, self._rotated = self._rotated, False
            # The batch hits the device now; the barrier completes after
            # the fsync latency.  Records are on disk but not yet safe.
            for _, record, _ in batch:
                self._rotated |= self._segment_append(record)
            slow = self.slow_disk
            if slow is None:
                duration = (
                    self.costs.wal_fsync_us
                    + nbytes * self.costs.wal_us_per_byte
                )
            else:
                fsync_mult, bw_mult = slow.factors_at(self.env.now_us())
                duration = (
                    self.costs.wal_fsync_us * fsync_mult
                    + nbytes * self.costs.wal_us_per_byte * bw_mult
                )
            # The environment owns the durability barrier: the simulator
            # charges the modeled fsync latency; the live backend syncs a
            # real log file and fires when the device confirms.
            yield self.env.fsync(duration, nbytes)
            if self.failed:
                # The machine lost power while this fsync was in flight:
                # the batch is a torn tail — partially persisted, not
                # intact on replay — and its waiters are never told
                # the write was durable (no zombie durability acks).
                for _, record, _ in batch:
                    record.tear()
                self.torn_records += len(batch)
                self.lost_unwritten += len(self._pending)
                self._pending = []
                return
            self.durable_lsn = batch[-1][1].lsn
            self.flush_count += 1
            self.bytes_written += nbytes
            self.records_written += records
            if self.metrics is not None:
                self.metrics.counter("wal_flushes").inc()
                self.metrics.counter("wal_bytes").inc(amount=nbytes)
            for done, _, _ in batch:
                done.succeed()
            if due and self.on_rotate is not None:
                self.on_rotate()
        self._flushing = False

    # -- crash and recovery ----------------------------------------------

    def power_fail(self):
        """The owning machine crashed.  From this instant the log
        acknowledges nothing: an fsync in flight becomes a torn tail and
        commits that never reached the device are dropped.  (A transient
        hang does **not** power-fail the log — the device completes its
        writes while the host is unreachable.)"""
        if self.failed:
            return
        self.failed = True
        if not self._flushing and self._pending:
            self.lost_unwritten += len(self._pending)
            self._pending = []

    def power_on(self):
        """Generator: the owning machine comes back.  Before its next
        incarnation can open its port, redo reads the log: one device
        read plus the per-record replay cost of every record
        :meth:`replay` returns (installing the base is as free as taking
        it).  Returns ``(replayed, torn)``, the counts of that scan."""
        entries, torn = self.replay()
        yield self.env.timeout(
            self.costs.wal_fsync_us
            + self.costs.wal_replay_us_per_record * len(entries))
        return len(entries), torn

    def replay(self):
        """Redo scan: read the segments in LSN order, above the base.

        Returns ``(entries, torn)`` where ``entries`` is the list of
        ``(lsn, term, payload)`` for every record above :attr:`base`
        (every record, without one) up to the first verification
        failure, and ``torn`` counts the records truncated from that
        point on (the torn tail, plus anything behind an injected
        corruption — standard WAL recovery stops at the first bad
        record).  Redo installs :attr:`base` first.  Read-only and
        idempotent.
        """
        entries = []
        torn = 0
        broken = False
        horizon = self.horizon
        for segment in self.segments:
            for record in segment.records:
                if record.lsn <= horizon:
                    continue
                if broken or not record.intact:
                    broken = True
                    torn += 1
                    continue
                entries.append((record.lsn, record.term, record.payload))
        return entries, torn

    def payloads_since(self, lsn):
        """The payloads of every record above ``lsn`` that reached the
        device, in LSN order, verified or not: a live node reading back
        writes it applied (a slot handoff's delta), not a redo scan.
        Raises ValueError when a record above ``lsn`` was retired: a
        delta read from what is left would be short."""
        if lsn + 1 < self.first_lsn:
            raise ValueError("records above LSN {} were retired below "
                             "LSN {}".format(lsn, self.first_lsn))
        return [record.payload for segment in self.segments
                if segment.records and segment.records[-1].lsn > lsn
                for record in segment.records if record.lsn > lsn]

    # -- readout ---------------------------------------------------------

    @property
    def appended_txns(self):
        """Transactions handed to :meth:`commit` (durable or not)."""
        return self.next_lsn - 1

    @property
    def records_per_flush(self):
        """Average commit-batch size achieved so far (1.0 = no batching)."""
        if self.flush_count == 0:
            return 0.0
        return self.records_written / self.flush_count
