"""The FalconFS metadata node (MNode).

An MNode is the paper's PostgreSQL-with-extensions metadata server.  It
holds:

* a **namespace replica** — lazily synchronized directory dentries
  (:mod:`repro.core.replica`), enabling local path resolution;
* an **inode table shard** — the file/directory attribute records hybrid
  indexing places here;
* the **concurrent request merging** machinery (§4.4): typed request
  queues drained in batches, with lock coalescing (one acquisition per
  distinct lock per batch) and WAL coalescing (one transaction, hence one
  group-committed log append, per batch).

Client-facing operations (`create`, `open`, `close`, `getattr`, `setattr`,
`unlink`, `mkdir`) flow through the worker pool.  Control-plane traffic
(dentry lookups serving other replicas, invalidations, rmdir/chmod/rename
execution for the coordinator, statistics, migration) is handled by
directly spawned processes so that replica maintenance can never be
starved by a full worker pool.  Every write — a merged batch, a
control-plane handler, either 2PC participant, a slot-handoff marker —
runs inside one scaffold, :class:`_OwnerWrite`, and states only its
protocol step; nothing else here opens a transaction, logs, pins a slot
or takes an exclusive lock.
"""

import heapq
from collections import defaultdict
from dataclasses import replace

from repro.core.indexing import (
    ROUTE_PATHWALK,
    ExceptionTable,
    HybridIndex,
    exception_table_from_wire,
    exception_table_to_wire,
)
from repro.core.merging import WorkerPool
from repro.core.records import (
    INVALID,
    VALID,
    DentryRecord,
    InodeRecord,
    inode_to_wire,
)
from repro.core.replica import NamespaceReplicaMixin
from repro.net import Node
from repro.net.message import Message
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import (
    CAT_PHASE,
    CAT_QUEUE,
    NULL_CONTEXT,
    OpContext,
    call_all,
    expire,
    redeliver,
)
from repro.obs.retry import ALL, budget
from repro.obs.tracer import CAT_BATCH
from repro.storage import LockMode, Table, Transaction, WriteAheadLog
from repro.storage.table import apply_records, install_image, row_copy
from repro.vfs.pathwalk import split_path

#: Operations that flow through the merging worker pool.
MERGEABLE_OPS = frozenset(
    ("create", "open", "close", "getattr", "setattr", "unlink", "mkdir",
     "lookup")
)

#: Operations that mutate the inode table (X lock on the target).
WRITE_OPS = frozenset(("create", "close", "unlink", "mkdir", "setattr"))

#: Operations that require write permission on the parent directory.
PARENT_WRITE_OPS = frozenset(("create", "unlink", "mkdir"))

#: Contention multiplier on the serialized dispatch cost when merging is
#: disabled (shared request-queue cache-line bouncing, §6.7).
UNMERGED_DISPATCH_FACTOR = 24.0

#: The state of a slot an MNode serves — seeded from the slot map, or
#: the marker a handoff's activate writes.
SERVING = {"state": "active"}

#: A slot's rename row once the decision applied there.
APPLIED = {"applied": True}


class _Plan:
    """A validated, resolved request ready for batch execution."""

    __slots__ = ("message", "op", "payload", "pid", "name", "key", "chain",
                 "lock_specs", "cpu_us", "slot")

    def __init__(self, message, pid, name, chain):
        self.message = message
        self.op = message.kind
        self.payload = message.payload
        self.pid = pid
        self.name = name
        #: The inode key ``(pid, name)``.
        self.key = (pid, name)
        self.chain = chain
        self.lock_specs = {}
        self.cpu_us = 0.0
        self.slot = None


class _OwnerWrite:
    """One durable mutation of this node's state: the scaffold every
    write runs inside — the merged batch, each control-plane handler,
    both 2PC participants and the slot-handoff markers — so that a
    caller states only its protocol step.  It is the single home of the
    five obligations such a write carries:

    1. **one lock order** — :meth:`lock` X-locks key pairs, each as
       ``("d", key)`` then ``("i", key)``, and :meth:`lock_all` takes a
       batch's coalesced set in ``sorted`` order, which agrees; both go
       through :meth:`LockManager.acquire_all` (:meth:`try_lock` takes
       :meth:`lock`'s pairs all at once or none), and :meth:`close`
       releases in acquisition order, so no two writers can each hold
       half of a key;
    2. **hosted check + writer registration** — :meth:`enter`, in one
       no-yield block: a slot fence either sees the writer and drains
       it (:meth:`drain`), or fenced first and the write bounces;
    3. **one put/delete primitive** — :meth:`put` / :meth:`delete` keep
       inode row, owned dentry and ``inval_seq`` in step;
    4. **commit-or-abort** — :meth:`commit`, the one place this node
       commits a transaction; the name index moves only once the rows
       are durable, so an abandoned write leaves nothing (a rename vote
       is a row its decision overwrites or deletes before :meth:`close`;
       only the Fig 15a participant logs a :meth:`vote` with no rows);
    5. **quorum-gated ack** — :meth:`MNode._ack` (the write applies
       locally either way; only the acknowledgement waits).

    :meth:`close` releases every lock and registration — from a
    ``finally``, or, for a staged 2PC half, when the decision resolves it.
    """

    __slots__ = ("node", "ctx", "_txn", "grants", "pinned")

    def __init__(self, node, ctx=None):
        self.node = node
        self.ctx = ctx
        self._txn = None
        self.grants = []
        self.pinned = []

    @property
    def txn(self):
        """The write's transaction, opened by the first row it stages
        (a write that stages nothing — a read-only batch — has none)."""
        txn = self._txn
        if txn is None:
            node = self.node
            txn = self._txn = Transaction(
                node.env, node.wal, node.costs,
                on_commit=node._ship_committed, ctx=self.ctx,
                barrier=node.alive_barrier)
        return txn

    def lock(self, *keys):
        """Generator: X-lock each key's dentry/inode pair, all in sorted
        order (for one key: ``d`` first)."""
        return self.lock_all(self._pairs(keys))

    def try_lock(self, *keys):
        """:meth:`lock`, if every lock is free now (True); never waits."""
        return self.node.locks.try_acquire_all(self._pairs(keys),
                                               self.grants)

    @staticmethod
    def _pairs(keys):
        return sorted((kind + key, LockMode.EXCLUSIVE)
                      for key in keys for kind in (("d",), ("i",)))

    def lock_all(self, requests):
        """Generator: take ``(key, mode)`` ``requests`` in order."""
        return self.node.locks.acquire_all(requests, self.grants, self.ctx)

    def enter(self, key):
        """Raise the slot bounce unless ``key``'s slot is hosted here,
        else pin it; returns the slot.  Never yields."""
        slot = self.node._check_hosted(key)
        self.pin(slot)
        return slot

    def pin(self, slot):
        """Register as an in-flight writer of ``slot`` (once)."""
        if slot not in self.pinned:
            self.pinned.append(slot)
            self.node._slot_writers[slot] += 1

    def get(self, key):
        """The inode row at ``key`` as this write sees it: its own
        staged rows first, then the table."""
        txn = self._txn
        if txn is None:
            return self.node.inodes.get(key)
        return txn.get(self.node.inodes, key)

    def put(self, key, record, dentry=True):
        """Stage inode ``record`` at ``key`` with the owner's replica
        dentry for a directory.  ``dentry=False`` replays a logical
        record stream that carries its own dentry rows (a handoff
        delta)."""
        node, txn = self.node, self.txn
        txn.put(node.inodes, key, record)
        if dentry and record.is_dir:
            txn.put(node.dentries, key, record.dentry())

    def delete(self, key, dentry=True):
        """Stage the removal of ``key``'s inode; a directory's owned
        dentry goes with it and its ``inval_seq`` is bumped at once
        (invalidating early is always safe).  ``dentry=False`` drops a
        copy this node is not the authority for and leaves the dentry
        to the caller.  Returns whether the key was present."""
        record = self.get(key)
        if record is None:
            return False
        node, txn = self.node, self.txn
        txn.delete(node.inodes, key)
        if dentry and record.is_dir:
            txn.delete(node.dentries, key)
            node.inval_seq[("d",) + key] += 1
        return True

    def vote(self):
        """Log the Fig 15a eager-mkdir participant's vote, a record with
        no rows (a restart refetches its staged replica dentry from the
        owner); returns the event of its flush."""
        node = self.node
        return node.wal.commit(node.costs.wal_record_bytes, ctx=self.ctx)

    def commit(self):
        """Append the staged rows to the WAL now, with no yield, and
        return the generator that waits until they are durable, applies
        them and moves the name index by the inode rows that appeared or
        vanished (``yield from w.commit()`` runs it at once; ``()``, if
        nothing was staged).  From the append until the rows apply, the
        record's LSN is registered as unapplied — the writes a slot
        snapshot taken in between cannot contain; the next row staged
        opens a new transaction."""
        txn = self._txn
        if txn is None:
            return ()
        self._txn = None
        node = self.node
        had = node.inodes.get
        moved = [(key, present) for key, present in txn.staged(node.inodes)
                 if (had(key) is None) is present]
        lsn = node.wal.next_lsn
        node._unapplied.add(lsn)
        return self._settle(txn.commit(), lsn, moved)

    def _settle(self, applying, lsn, moved):
        node = self.node
        yield from applying
        node._unapplied.discard(lsn)
        for key, present in moved:
            node._track_name(key, 1 if present else -1)

    def close(self):
        """Release every writer registration and grant, exactly once.
        A retired incarnation (``halted``) keeps its grants: it only
        gets here when the collector closes a process that died with
        it, and a release would wake its other dead processes."""
        node = self.node
        for slot in self.pinned:
            node._slot_writers[slot] -= 1
        if not node.halted:
            node.locks.release_all(self.grants)

    @staticmethod
    def drain(node, slot):
        """Generator, the fence's side of obligation 2: wait out every
        writer registered on ``slot`` before the fence collects."""
        while node._slot_writers.get(slot, 0) > 0:
            yield node.env.timeout(50.0)
        node._slot_writers.pop(slot, None)


class MNode(NamespaceReplicaMixin, Node):
    """One metadata server."""

    def __init__(self, env, network, shared, index, name=None):
        super().__init__(
            env, network, name or shared.node_name(index),
            cores=shared.config.server_cores,
        )
        self.shared = shared
        self.my_index = index
        self.init_replica()
        self.inodes = Table("inode")
        #: Durable node-local control records.  ``("slot", s)`` rows are
        #: the handoff markers — exactly what ``slots[s]`` holds — so a
        #: crash-restart mid-migration reconstructs the fence instead of
        #: resurrecting a handed-off slot from the stale map seed.
        self.meta = Table("meta")
        self.wal = WriteAheadLog(env, self.costs, self.metrics)
        self.wal.on_rotate = self.checkpoint
        self.xt = ExceptionTable()
        self.index = HybridIndex(shared.num_slots, self.xt)
        #: slot -> state, what a restart rebuilds (:meth:`rebuilt_slots`):
        #: :data:`SERVING`; ``{"state": "moved", "node", "epoch"}`` (bounce
        #: EMOVED to the destination); or ``{"state": "pending"}``, snapshot
        #: installed but delta not applied (bounce ERETRY, or EMOVED while
        #: it keeps an earlier handoff's ``node``/``epoch`` hint).  Absent:
        #: neither served nor marked.
        self.slots = self.rebuilt_slots()
        #: LSNs logged but not yet applied (see :meth:`_OwnerWrite.commit`):
        #: a slot snapshot's delta starts below the lowest of them.
        self._unapplied = set()
        #: slot -> the ``since`` of the handoff this node is the source
        #: of, from its snapshot until its purge or reclaim: the fence
        #: reads the log above it, so no checkpoint may retire past it.
        self._handoff_since = {}
        #: slot -> number of open writes pinning it (batches, control-
        #: plane writes, staged 2PC halves); the fence drains this to
        #: zero before it reads the delta from the WAL.
        self._slot_writers = defaultdict(int)
        #: slot -> live local inode-record count (planner statistics).
        self.slot_inode_counts = defaultdict(int)
        #: filename -> number of local inodes with that name (load stats).
        self.filename_counts = defaultdict(int)
        #: Filenames whose inodes are blocked mid-migration.
        self.migrating = set()
        #: txid -> the staged 2PC half (rename / eager replication): a
        #: list of entries sharing one open ``"write"``.  A rename's
        #: entries cache its voted rows (:meth:`restage`).
        self._staged = {}
        #: The completion event of every rename half staged here and not
        #: yet released -> the parents of the keys it holds.  The half
        #: leaves ``_staged`` when its decision arrives but stays here
        #: until the decision is applied: a listing waits these out
        #: (:meth:`_renames_settled`).
        self._open_halves = {}
        #: Log shipper when primary-standby replication is enabled.
        self.shipper = None
        #: True from :meth:`register` until :meth:`boot`: the role is
        #: not known yet, so the node serves nothing.
        self.booting = False
        # Hot-path metric handles: deliver/_execute_batch/_respond run
        # once per message, so the registry lookup is paid once, here.
        self._received_ctr = self.metrics.counter("received")
        self._ops_ctr = self.metrics.counter("ops")
        self._op_errors_ctr = self.metrics.counter("op_errors")
        self._forwarded_ctr = self.metrics.counter("forwarded")
        self._batch_size_hist = self.metrics.histogram("batch_size")
        cfg = shared.config
        # With tracing off (every throughput experiment) the per-batch
        # wrapper generator and _batch_ctx call are pure overhead; hand
        # the pool a thin closure returning the body generator directly.
        if shared.tracer.enabled:
            executor = self._execute_batch
        else:
            def executor(kind, batch, _body=self._execute_batch_body):
                return _body(kind, batch, None)
        # The merge linger is a modeled cost: on the real clock every
        # frame of one socket read is queued before a worker runs, so a
        # wait would gather nothing and cost a loop iteration.
        self.pool = WorkerPool(
            env, executor, workers=cfg.server_cores,
            max_batch=cfg.max_batch,
            linger_us=cfg.merge_linger_us if env.models_costs else 0.0,
            merging=cfg.merging,
        )
        #: Members of write batches whose tails wait on the WAL without
        #: a worker, and the most that may: one full batch per worker.
        self._backlog = 0
        self._backlog_cap = cfg.server_cores * self.pool.max_batch

    # ------------------------------------------------------------------
    # message intake
    # ------------------------------------------------------------------

    def deliver(self, message):
        self._received_ctr.inc(message.kind)
        if self.booting:
            return  # not serving yet: as silent as the down name was
        if message.kind in MERGEABLE_OPS:
            self.pool.submit(message.kind, message)
        else:
            self.env.process(self._handle_guard(message))

    def handle(self, message):
        handler = getattr(self, "_on_" + message.kind, None)
        if handler is None:
            raise RuntimeError(
                "{} cannot handle {!r}".format(self.name, message)
            )
        # Handlers that never wait are plain functions, not generators.
        steps = handler(message)
        if steps is not None:
            yield from steps

    def _owns_dentry(self, key):
        """True when this node serves ``key``'s slot, so its dentry is
        the one every replica fetches.  Serving only: a node holding the
        slot *pending* must still fetch from the source, which serves
        newer state than its installed snapshot."""
        return self.serves(self.index.locate(key[0], key[1]))

    def authoritative(self, key):
        """True when this node derives ``key``'s dentry from its own
        inode row: the slot is served or pending here (an install
        rebuilt the dentries beside the rows it copied), not moved."""
        state = self.slots.get(self._slot_of(key))
        return state is not None and state["state"] != "moved"

    def serves(self, slot):
        """True when this node currently serves directory ``slot``."""
        return self.slots.get(slot) == SERVING

    def rebuilt_slots(self):
        """The slot states a restart rebuilds: the slot map's seed for
        this node, serving, overlaid with the durable handoff markers."""
        slots = dict.fromkeys(self.shared.slot_map.slots_of(self.my_index),
                              SERVING)
        for key, state in self.meta.scan_prefix(("slot",)):
            slots[key[1]] = state
        return slots

    def _peers(self):
        """Every other MNode (broadcast fan-out)."""
        return [peer for peer in self.shared.mnode_names
                if peer != self.name]

    def _slot_of(self, key):
        """Directory slot owning inode key ``(pid, name)``."""
        return self.index.locate(key[0], key[1])

    def _slot_failure(self, slot, name):
        """The bounce for a request addressed to a slot this node does
        not serve: EMOVED with the destination hint when the slot was
        handed off (or pending with an earlier handoff's hint), ERETRY
        while its delta is still in flight here."""
        state = self.slots.get(slot)
        if state is None:
            return None
        if "node" in state:
            return RpcFailure(RpcError.EMOVED, {
                "slot": slot, "node": state["node"],
                "epoch": state["epoch"],
            })
        return RpcFailure(RpcError.ERETRY, name)

    def _check_hosted(self, key):
        """Raise the slot bounce unless this node currently serves
        ``key``'s slot; returns the slot.  Writers reach this through
        :meth:`_OwnerWrite.enter`, which registers them for the fence
        in the same no-yield block."""
        slot = self._slot_of(key)
        if not self.serves(slot):
            failure = self._slot_failure(slot, key)
            if failure is None:
                # No handoff marker of our own: the request was simply
                # misdirected (e.g. a client that absorbed the fence
                # hint of a handoff that later aborted).  Answer with
                # the cluster directory's current word on the slot so
                # the sender can never wedge on a dead-end target.
                owner = self.shared.slot_map.node_of(slot)
                if owner != self.my_index:
                    failure = RpcFailure(RpcError.EMOVED, {
                        "slot": slot, "node": owner,
                        "epoch": self.shared.slot_map.version_of(slot),
                    })
            raise failure or RpcFailure(RpcError.ERETRY, key)
        return slot

    def attach_standby(self, standby_name, start_lsn=1, anchor=None,
                       base=None):
        """Point log shipping at ``standby_name``.

        ``anchor``/``base`` pin the ship-LSN origin for a *resumed*
        shipper (crash-restart); by default the origin is "now": WAL
        transactions already appended are assumed covered out of band
        (initial empty log, or a snapshot the standby just installed).
        """
        from repro.storage.replication import LogShipper

        self.shipper = LogShipper(self, standby_name, start_lsn=start_lsn)
        self.wal.ship_anchor = (self.wal.appended_txns if anchor is None
                                else anchor)
        self.wal.ship_base = start_lsn if base is None else base

    def attach_group(self, witness_name, standby_name=None, term=1,
                     base_lsn=0, base_term=0):
        """Attach this MNode as the *leader* of a consensus group.

        Replaces the plain log shipper with a
        :class:`~repro.storage.consensus.ReplicatedLog`: every committed
        transaction becomes a term-stamped entry, operations acknowledge
        only after quorum, and the serve path is fenced by the leader
        lease.  ``base_lsn``/``base_term`` anchor the log at the
        snapshot horizon the leader's tables reflect (election install
        or redo recovery) — everything the WAL holds now.
        """
        from repro.storage.consensus import ReplicatedLog

        self.shipper = ReplicatedLog(
            self, witness_name, standby_name=standby_name, term=term,
            base_lsn=base_lsn, base_term=base_term,
        )
        wal = self.wal
        wal.term = term
        wal.ship_anchor = wal.appended_txns
        wal.ship_base = base_lsn + 1
        wal.ship_base_term = base_term
        return self.shipper

    def _serving_as_leader(self):
        """False when a consensus lease fences this node: it is deposed,
        or its lease lapsed (it may be the minority side of a partition
        and must not answer even reads — a successor could already be
        serving newer state)."""
        shipper = self.shipper
        return shipper is None or shipper.leading(self.clock.now_us())

    def _quorum_barrier(self):
        """Generator: park until the shipper's latest entry is quorum-
        committed.  True = safe to acknowledge; False = quorum is
        unreachable (deposed, or the lease lapsed mid-wait) and the
        operation must answer ENOTLEADER instead of acking a write a
        majority never saw.  Trivially True outside consensus mode."""
        if self.shipper is None:
            return True
        ok = yield from self.shipper.wait_quorum()
        return ok

    def _ack(self, message, payload):
        """Generator: the quorum gate on an acknowledgement.  The write
        is applied locally either way; only the *ack* waits for a
        majority, and a leader that cannot reach one answers ENOTLEADER
        so the caller re-resolves.  Returns whether it acknowledged."""
        if (yield from self._quorum_barrier()):
            self.respond(message, payload)
            return True
        self._respond_error(message,
                            RpcFailure(RpcError.ENOTLEADER, self.name))
        return False

    def _owner_write(self, message, op, step):
        """Generator: run ``step(w, key)`` — a handler's protocol step —
        as one durable mutation of the payload's ``(pid, name)`` inside
        the :class:`_OwnerWrite` scaffold, and answer the caller
        (``ETIMEDOUT`` if the locks came after the payload's deadline)."""
        key = (message.payload["pid"], message.payload["name"])
        deadline = message.payload.get("deadline")
        w = _OwnerWrite(self, message.ctx)
        yield from w.lock(key)
        try:
            if deadline is not None and self.env.now_us() > deadline:
                raise RpcFailure(RpcError.ETIMEDOUT, key)
            w.enter(key)
            yield from step(w, key)
            yield from w.commit()
            if (yield from self._ack(message, {"ok": True})):
                self.metrics.counter("ops").inc(op)
        except RpcFailure as failure:
            self._respond_error(message, failure)
        finally:
            w.close()

    def _bulk_write(self, ctx, unit_us, stage, locks=()):
        """Generator: one durable multi-key mutation inside the scaffold.
        Once the ``(key, mode)`` ``locks`` are held, in the order given,
        ``stage(w)`` stages the rows (pinning the slots it writes into)
        and returns how many — the result; they are charged ``unit_us``
        each and committed, and every pin and lock is released whatever
        happens."""
        w = _OwnerWrite(self, ctx)
        try:
            yield from w.lock_all(locks)
            count = stage(w)
            yield from self.execute(unit_us * max(1, count), ctx=ctx)
            yield from w.commit()
        finally:
            w.close()
        return count

    def table_image(self):
        """The table image ``{table: (keys, rows)}`` of the durable
        tables (:meth:`Table.image <repro.storage.table.Table.image>`).
        What a snapshot reply carries and what a checkpoint's base
        holds."""
        return {table.name: table.image()
                for table in (self.inodes, self.dentries, self.meta)}

    def checkpoint(self):
        """Write a base record and retire the log below it (the WAL's
        rotation hook).  One step: no yield, no simulated time.

        The horizon *h* is one below the lowest LSN that is logged but
        not yet applied (or not yet durable), so every record at or
        below it is in the tables the image copies; records above it
        that already applied are in the image too, and redo replays
        them again over it, which is idempotent.  *h* is held back by
        the ``since`` of a slot handoff this node is the source of.
        With a shipper, the ship anchor moves up to *h*: the records
        with rows between the two took one ship LSN each, and
        :meth:`shipper.trim <repro.storage.consensus.ReplicatedLog.trim>`
        says how many of them the base may cover (an async standby
        still needs the ones it has not applied; a consensus leader
        drops its entries, and a member below resyncs by snapshot)."""
        wal = self.wal
        horizon = min(min(self._unapplied, default=wal.next_lsn) - 1,
                      wal.durable_lsn, *self._handoff_since.values())
        shipper = self.shipper
        if shipper is not None and horizon > wal.ship_anchor:
            shipped = [record.lsn for segment in wal.segments
                       for record in segment.records
                       if wal.ship_anchor < record.lsn <= horizon
                       and record.payload]
            covered = max(0, shipper.trim(
                wal.ship_base + len(shipped) - 1) - wal.ship_base + 1)
            if covered < len(shipped):
                horizon = shipped[covered] - 1
            wal.ship_base += covered
            wal.ship_anchor = horizon
            wal.ship_base_term = shipper.base_term
        if horizon > wal.horizon:
            wal.checkpoint(horizon, self.table_image(), term=wal.term)

    # ------------------------------------------------------------------
    # boot: every incarnation's one recovery path
    # ------------------------------------------------------------------

    def boot(self, disk=None, grant=None):
        """Install this incarnation's state from ``disk``, its machine's
        durable state, under ``grant`` (what the coordinator handed it).
        One step: no simulated time.  The disk is

        * ``None`` on a fresh start: the empty tables stand;
        * a :class:`~repro.storage.wal.WriteAheadLog` on a restart (its
          redo read already took its time): the base record, then the
          records above it up to the first bad one;
        * an elected data follower: its whole log, including the suffix
          above its commit horizon (a quorum-acked entry can sit there);
        * an ordained standby: its replicated tables.

        Then, by one rule: slot states come from the slot-map seed and
        the durable handoff markers; a dentry whose slot is served or
        pending here (:meth:`authoritative`) is derived again from its
        inode row and every other dentry is marked INVALID (it may have
        missed invalidations); the grant's exception table is adopted;
        voted renames are restaged; and the log is seeded so that this
        incarnation is itself restartable (the redo's base and suffix,
        or one record per row).  An elected follower's log end becomes
        the group's base under the grant's term."""
        self.booting = False
        if disk is None:
            return
        base = position = None
        if isinstance(disk, WriteAheadLog):
            entries, _ = disk.replay()
            tables, base = {}, disk.base
            if base is not None:
                install_image(tables, base.payload)
            for _, _, payload in entries:
                apply_records(tables, payload or ())
            log = [payload for _, _, payload in entries]
        else:
            if "term" in grant:
                disk.force_apply_all()
                position = (disk._last_lsn(), disk._last_term())
                disk.stop_elections()
            tables, log = disk.promote_tables(), None
        self.inodes = tables.get("inode", self.inodes)
        self.dentries = tables.get("dentry", self.dentries)
        self.meta = tables.get("meta", self.meta)
        self.slots = self.rebuilt_slots()
        for key, record in list(self.dentries.scan()):
            if self.authoritative(key):
                self.dentries.delete(key)
            else:
                record.state = INVALID
        for key, inode in self.inodes.scan():
            self._track_name(key, +1)
            if inode.is_dir and self.authoritative(key):
                self.dentries.put(key, inode.dentry())
        self.xt.adopt(exception_table_from_wire(grant["xt"]))
        self.restage()
        self.wal.bootstrap(log if log is not None else [
            [(table.name, key, row_copy(row))]
            for table in (self.inodes, self.dentries, self.meta)
            for key, row in table.scan()
        ], base=base)
        if position is not None:
            self.attach_group(disk.witness_name, term=grant["term"],
                              base_lsn=position[0], base_term=position[1])

    def register(self):
        """Generator: this machine is back (restarted, or a deposed
        leader reachable again) and asks the coordinator for its role:
        one ``register {index, incarnation}`` RPC, re-delivered until
        answered.  Until :meth:`boot`, the node drops every request, as
        its down name did.  Returns ``{"role": "primary", "xt"}`` (plus
        ``"term"`` under consensus) or ``{"role": "standby", "of"}``."""
        self.booting = True
        reply = yield from redeliver(
            self, lambda: self.shared.coordinator_name, "register",
            {"index": self.my_index, "incarnation": self.name},
            timeout_us=self.rpc_timeout_us or 400.0)
        return reply

    def resume(self, disk, grant, standby_name=None, witness_name=None):
        """Generator: after :meth:`boot` from a restart's ``disk``, lead
        the slot's replicas again from the ship-LSN origin in the disk's
        control data; every record with rows above the anchor took one
        ship LSN, from the base up.  Under consensus the whole durable
        log becomes the group's base under the grant's (bumped) term:
        members above it dup-skip, a follower below it resyncs by
        snapshot.  An asynchronous standby is shipped again what it has
        not applied: the window a promotion would have lost."""
        entries, _ = disk.replay()
        anchor, base = disk.ship_anchor, disk.ship_base
        shippable = [(term, payload) for lsn, term, payload in entries
                     if lsn > anchor and payload]
        if "term" in grant:
            self.attach_group(
                witness_name, standby_name=standby_name, term=grant["term"],
                base_lsn=base + len(shippable) - 1,
                base_term=(shippable[-1][0] if shippable
                           else disk.ship_base_term))
            return
        if standby_name is None:
            return
        self.attach_standby(standby_name, start_lsn=base + len(shippable),
                            anchor=anchor, base=base)
        reply = yield self.call(standby_name, "applied_query", {})
        applied = reply["applied_lsn"]
        # Only the suffix past the standby's applied LSN is outstanding;
        # acked state reflects that, not the fresh shipper's assumption.
        self.shipper.acked_lsn = applied
        for lsn, (_, payload) in enumerate(shippable, start=base):
            if lsn > applied:
                self.shipper.ship_payload(payload, lsn=lsn)

    def _ship_committed(self, records):
        # Resolved at commit time, not transaction creation: a standby
        # attached mid-flight (rejoin after a crash-restart) must see
        # every transaction that commits after the attach, or a commit
        # racing the attach would be neither shipped nor in the
        # snapshot its catch-up installs.
        if self.shipper is not None:
            self.shipper.ship(records)

    # ------------------------------------------------------------------
    # batch execution (concurrent request merging, §4.4)
    # ------------------------------------------------------------------

    def _batch_ctx(self, kind, batch):
        """Batch-level context: its root span carries the member op ids,
        so the analyzer can amortize shared costs (dispatch, coalesced
        locks, the single WAL flush) across the merged operations.
        Only reached with tracing on (see the constructor)."""
        tracer = self.shared.tracer
        members = [
            message.ctx.op_id for message in batch
            if message.ctx is not None
        ]
        ctx = OpContext(self.env, "batch:" + kind, origin=self.name,
                        tracer=tracer)
        ctx.begin(node=self.name, category=CAT_BATCH,
                  attrs={"members": members, "n": len(batch)})
        # Per-member queue wait: network arrival to batch pickup.
        for message in batch:
            mctx = message.ctx
            if (mctx is not None and mctx.traced
                    and message.arrive_time is not None):
                mctx.record("queue.wait", CAT_QUEUE, message.arrive_time,
                            self.env.now, node=self.name)
        return ctx

    def _execute_batch(self, kind, batch):
        bctx = self._batch_ctx(kind, batch)
        return self._spanned(self._execute_batch_body(kind, batch, bctx),
                             bctx)

    @staticmethod
    def _spanned(steps, bctx):
        """Generator: run ``steps`` of a traced batch.  The batch span
        ends with them (with the error, if one escapes), unless they
        handed the batch to its tail: the tail's end ends it."""
        try:
            handed = yield from steps
        except BaseException as exc:
            bctx.finish(error=repr(exc))
            raise
        if not handed:
            bctx.finish()

    def _execute_batch_body(self, kind, batch, bctx):
        cfg = self.shared.config
        if cfg.merging:
            # One dispatch per batch: the queue hand-off is amortized.
            yield from self.execute(self.costs.dispatch_us, ctx=bctx)
        else:
            # Every request individually contends on the shared queue;
            # under high concurrency the cache-line bouncing inflates the
            # dispatch cost well beyond the uncontended slice (§6.7).
            req = self.pool.dispatch_lock.request()
            if bctx is not None and not req.triggered:
                start = self.env.now
                yield req
                bctx.record("dispatch.wait", CAT_QUEUE, start, self.env.now,
                            node=self.name)
            else:
                yield req
            try:
                yield from self.execute(
                    self.costs.dispatch_us * UNMERGED_DISPATCH_FACTOR,
                    ctx=bctx,
                )
            finally:
                self.pool.dispatch_lock.release(req)
        self._batch_size_hist.observe(len(batch))

        plans = []
        for message in batch:
            plan = yield from self._plan(message)
            if plan is not None:
                plans.append(plan)
        if not plans:
            return
        if kind == "mkdir" and cfg.eager_replication:
            # Eager 2PC replication: independent directories proceed in
            # parallel (the *no inv* ablation measures 2PC cost, not an
            # artificial serialization).
            yield self.env.all_of([
                self.env.process(self._mkdir_eager(plan)) for plan in plans
            ])
            return

        # -- lock coalescing: one acquisition per distinct key per batch.
        lock_modes = {}
        for plan in plans:
            for key, mode in plan.lock_specs.items():
                if lock_modes.get(key) != LockMode.EXCLUSIVE:
                    lock_modes[key] = mode
        w = _OwnerWrite(self, bctx)
        yield from w.lock_all(sorted(lock_modes.items()))
        try:
            if not self._serving_as_leader():
                # The lease lapsed while the locks were awaited, perhaps
                # behind a write whose quorum failed: no majority holds
                # the rows it applied here.
                for plan in plans:
                    self._respond_error(
                        plan.message,
                        RpcFailure(RpcError.ENOTLEADER, self.name))
                return
            # -- revalidate: a concurrent invalidation between resolution
            # and locking forces a client retry (rare; namespace changes
            # only).  The surviving plans' slots are pinned in the same
            # no-yield block, so a slot fence firing after this instant
            # waits for them (and one firing before it failed them here).
            live = []
            for plan in plans:
                if self._plan_still_valid(plan):
                    live.append(plan)
                else:
                    self._respond_error(
                        plan.message, RpcFailure(RpcError.ERETRY, plan.name)
                    )
            if not live:
                return
            for slot in {plan.slot for plan in live}:
                w.pin(slot)

            # -- aggregate CPU charge: coalesced locks + per-op work + one
            # txn.
            costs = self.costs
            cpu = len(w.grants) * (costs.lock_acquire_us
                                   + costs.lock_release_us)
            cpu += sum(plan.cpu_us for plan in live)
            cpu += costs.txn_begin_us + costs.txn_commit_us
            yield from self.execute(cpu, ctx=bctx)

            outcomes = []
            for plan in live:
                try:
                    outcomes.append((plan, self._apply(plan, w)))
                except RpcFailure as failure:
                    outcomes.append((plan, failure))
            committing = w.commit()
            if committing:
                # The worker's seat ends at the WAL append: the wait for
                # durability and the answers run in the batch's tail,
                # unless the backlog is full and the worker runs it.
                members = len(outcomes)
                if self._backlog + members > self._backlog_cap:
                    members = 0
                self._backlog += members
                tail = self._batch_tail(w, committing, outcomes, members)
                w = None
                if not members:
                    yield from tail
                    return
                self.env.process(
                    tail if bctx is None else self._spanned(tail, bctx))
                return True
        finally:
            if w is not None:
                w.close()
        self._answer(outcomes, True)

    def _batch_tail(self, w, committing, outcomes, backlog=0):
        """Generator: a write batch once its WAL append is done, run
        behind the worker (it counts ``backlog`` members there) or on
        it.  Quorum commit: the batch's entry must be durably appended
        by a majority before anyone is told it happened.  Grants and
        pins stay held across the wait so no concurrent reader observes
        state that is not durable, or that a successor leader might not
        have."""
        try:
            yield from committing
            quorum_ok = yield from self._quorum_barrier()
        finally:
            w.close()
            self._backlog -= backlog
        self._answer(outcomes, quorum_ok)

    def _answer(self, outcomes, quorum_ok):
        for plan, outcome in outcomes:
            if isinstance(outcome, RpcFailure):
                self._respond_error(plan.message, outcome)
            elif not quorum_ok:
                self._respond_error(
                    plan.message,
                    RpcFailure(RpcError.ENOTLEADER, self.name),
                )
            else:
                self._ops_ctr.inc(plan.op)
                self._respond_ok(plan.message, outcome)

    def _plan(self, message):
        """Generator: validate routing and resolve the parent directory.

        Returns a :class:`_Plan`, or None when the request was forwarded
        or answered with an error.
        """
        payload = message.payload
        ctx = message.ctx
        if (ctx is not None and ctx.deadline is not None
                and self.env.now_us() >= ctx.deadline):
            # The client already gave up on this op; don't do its work.
            self._respond_error(
                message, RpcFailure(RpcError.ETIMEDOUT, message.kind)
            )
            return None
        if not self._serving_as_leader():
            # Lease fence: a deposed (or possibly-partitioned) leader
            # answers nothing — not even reads, which could otherwise
            # return state a successor has already overwritten.  No
            # hint: the client re-resolves through the directory.
            self._respond_error(
                message, RpcFailure(RpcError.ENOTLEADER, self.name)
            )
            return None
        if message.kind == "lookup":
            # Stateful-client component lookup: keyed (pid, name) access,
            # no path resolution (the client is doing the walking).
            return self._plan_keyed_lookup(message)
        try:
            components = split_path(payload["path"])
        except ValueError:
            self._respond_error(
                message, RpcFailure(RpcError.EINVAL, payload.get("path"))
            )
            return None
        if not components:
            self._respond_error(
                message, RpcFailure(RpcError.EINVAL, "operation on /")
            )
            return None
        name = components[-1]

        # -- routing validation against the local exception table and
        # slot map.  A client with a stale table is corrected by
        # forwarding (§4.2.1); one holding a stale slot map is bounced
        # with EMOVED carrying the destination (elastic namespace).
        route_kind, target = self.index.route(name)
        if route_kind != ROUTE_PATHWALK and self.slots.get(target) != SERVING:
            failure = self._slot_failure(target, name)
            if failure is not None:
                self._respond_error(message, failure)
                return None
            # Misdirected (stale client table): decoding it here was not
            # amortizable, and the correct node pays dispatch again.
            yield from self.execute(self.costs.dispatch_us)
            self._forward(message, target)
            return None

        try:
            resolved = yield from self.resolve_dir(components[:-1], ctx=ctx)
        except RpcFailure as failure:
            self._respond_error(message, failure)
            return None

        if route_kind == ROUTE_PATHWALK:
            target = self.index.hash_parent_name(resolved.ino, name)
            if self.slots.get(target) != SERVING:
                failure = self._slot_failure(target, name)
                if failure is not None:
                    self._respond_error(message, failure)
                    return None
                yield from self.execute(self.costs.dispatch_us)
                self._forward(message, target)
                return None

        if name in self.migrating:
            self._respond_error(message, RpcFailure(RpcError.ERETRY, name))
            return None

        parent_mode = (
            resolved.chain[-1][1].mode if resolved.chain
            else self.root_dentry.mode
        )
        # Search permission on the parent is required for any access to
        # its entries; write permission for mutations.
        if not parent_mode & 0o111 or (
            message.kind in PARENT_WRITE_OPS and not parent_mode & 0o222
        ):
            self._respond_error(
                message, RpcFailure(RpcError.EACCES, payload["path"])
            )
            return None

        plan = _Plan(message, resolved.ino, name, resolved.chain)
        plan.slot = target
        for dkey, _, _ in resolved.chain:
            plan.lock_specs.setdefault(dkey, LockMode.SHARED)
        ikey = ("i", plan.pid, name)
        plan.lock_specs[ikey] = (
            LockMode.EXCLUSIVE if message.kind in WRITE_OPS
            else LockMode.SHARED
        )
        if message.kind == "mkdir":
            # We will also insert the local replica dentry.
            plan.lock_specs[("d", plan.pid, name)] = LockMode.EXCLUSIVE
        plan.cpu_us = self._plan_cpu(message.kind, len(components))
        return plan

    def _plan_keyed_lookup(self, message):
        payload = message.payload
        pid, name = payload["pid"], payload["name"]
        target = self.index.locate(pid, name)
        if self.slots.get(target) != SERVING:
            failure = self._slot_failure(target, name)
            if failure is not None:
                self._respond_error(message, failure)
                return None
            self._forward(message, target)
            return None
        if name in self.migrating:
            self._respond_error(message, RpcFailure(RpcError.ERETRY, name))
            return None
        plan = _Plan(message, pid, name, [])
        plan.slot = target
        plan.lock_specs[("i", pid, name)] = LockMode.SHARED
        plan.cpu_us = self.costs.index_lookup_us
        return plan

    def _plan_cpu(self, op, num_components):
        costs = self.costs
        cpu = costs.resolve_component_us * num_components
        if op in ("open", "getattr"):
            cpu += costs.index_lookup_us
        elif op == "create":
            cpu += costs.index_lookup_us + costs.index_insert_us
        elif op == "mkdir":
            cpu += costs.index_lookup_us + 2 * costs.index_insert_us
        elif op in ("close", "setattr"):
            cpu += costs.index_lookup_us + costs.index_insert_us
        elif op == "unlink":
            cpu += costs.index_lookup_us + costs.index_delete_us
        return cpu

    def _plan_still_valid(self, plan):
        if plan.name in self.migrating:
            return False
        if plan.slot is not None and self.slots.get(plan.slot) != SERVING:
            # The slot was fenced (or handed off) between planning and
            # lock grant; the retry re-plans and gets the EMOVED hint.
            return False
        if self.index.locate(plan.pid, plan.name) != plan.slot:
            # An exception-table change rerouted the name while the plan
            # waited (a whole redirection can run inside one parent
            # resolution); committing here would strand the row at its
            # old owner, so the retry re-routes.
            return False
        # An owner replaces its own dentry with no invalidation, so a
        # batch also needs the record it resolved to be the one in place.
        return self.chain_valid(plan.chain) and all(
            self.dentries.get(dkey[1:]) is record
            for dkey, record, _ in plan.chain)

    # ------------------------------------------------------------------
    # operation semantics (pure, staged in the batch's one write)
    # ------------------------------------------------------------------

    def _apply(self, plan, w):
        op = plan.op
        payload = plan.payload
        key = plan.key
        where = payload.get("path", key)
        record = w.get(key)
        if op == "create":
            if record is not None:
                if payload.get("exclusive", True):
                    raise RpcFailure(RpcError.EEXIST, where)
                if record.is_dir:
                    raise RpcFailure(RpcError.EISDIR, where)
                w.put(key, replace(record, size=0, mtime=self.env.now))
                return {"ino": record.ino}
            inode = InodeRecord(
                ino=self.shared.allocator.allocate(), is_dir=False,
                mode=payload.get("mode", 0o644), size=payload.get("size", 0),
                mtime=self.env.now,
            )
            w.put(key, inode)
            return {"ino": inode.ino}
        if op == "mkdir":
            if record is not None:
                raise RpcFailure(RpcError.EEXIST, where)
            inode = InodeRecord(ino=self.shared.allocator.allocate(),
                                is_dir=True, mode=payload.get("mode", 0o755),
                                mtime=self.env.now)
            w.put(key, inode)
            return {"ino": inode.ino}
        if record is None:
            raise RpcFailure(RpcError.ENOENT, where)
        if op in ("open", "getattr", "lookup"):
            if op == "open" and record.is_dir:
                raise RpcFailure(RpcError.EISDIR, where)
            return {"attrs": inode_to_wire(record)}
        if op == "close":
            w.put(key, replace(record, size=payload.get("size", record.size),
                               mtime=self.env.now))
            return {}
        if op == "unlink":
            if record.is_dir:
                raise RpcFailure(RpcError.EISDIR, where)
            w.delete(key)
            return {}
        if op == "setattr":
            if record.is_dir:
                # Directory permission changes go through the coordinator.
                raise RpcFailure(RpcError.EISDIR, where)
            w.put(key, replace(record,
                               mode=payload.get("mode", record.mode),
                               uid=payload.get("uid", record.uid),
                               gid=payload.get("gid", record.gid)))
            return {}
        raise RpcFailure(RpcError.EINVAL, op)

    def _track_name(self, key, delta):
        pid, name = key
        self.filename_counts[name] += delta
        if self.filename_counts[name] <= 0:
            del self.filename_counts[name]
        slot = self.index.locate(pid, name)
        self.slot_inode_counts[slot] += delta
        if self.slot_inode_counts[slot] <= 0:
            del self.slot_inode_counts[slot]

    # ------------------------------------------------------------------
    # responses / forwarding
    # ------------------------------------------------------------------

    def _respond_ok(self, message, data, size=None):
        body = {"ok": True, "data": data, "xt_version": self.xt.version}
        payload = message.payload
        requester_version = payload.get("xt_version") if payload else None
        if requester_version is not None and requester_version < self.xt.version:
            body["xt"] = exception_table_to_wire(self.xt)
        self.respond(message, body, size)

    def _respond_error(self, message, failure):
        self._op_errors_ctr.inc(RpcError.name(failure.code))
        self.respond_error(message, failure)

    def _forward(self, message, target_index):
        self._forwarded_ctr.inc(message.kind)
        forwarded = Message(
            self.name, self.shared.mnode_name(target_index), message.kind,
            message.payload, message.size, message.reply_to,
            ctx=message.ctx,
        )
        self.network.send(forwarded)

    # ------------------------------------------------------------------
    # eager replication ablation (the *no inv* configuration, Fig 15a)
    # ------------------------------------------------------------------

    def _mkdir_eager(self, plan):
        """mkdir with 2PC dentry replication to every MNode."""
        key = plan.key
        message = plan.message
        ctx = message.ctx or NULL_CONTEXT
        w = _OwnerWrite(self, ctx)
        yield from w.lock(key)
        try:
            w.enter(key)
            if self.inodes.get(key) is not None:
                raise RpcFailure(RpcError.EEXIST, plan.name)
            ino = self.shared.allocator.allocate()
            mode = plan.payload.get("mode", 0o755)
            txid = "mkdir-{}-{}".format(self.name, ino)
            peers = self._peers()
            round_us = self.costs.two_phase_round_us * max(1, len(peers))
            record = DentryRecord(ino=ino, mode=mode)
            with ctx.span("2pc", CAT_PHASE, node=self.name,
                          attrs={"txid": txid} if ctx.traced else None):
                try:
                    yield from call_all(self, ctx, "replica_prepare", [
                        (peer, {"txid": txid, "key": key, "record": record})
                        for peer in peers], timeout_us=self.rpc_timeout_us,
                        rule=ALL)
                except RpcFailure:
                    yield from call_all(self, ctx, "replica_abort", [
                        (peer, {"txid": txid}) for peer in peers],
                        timeout_us=self.rpc_timeout_us, rule=ALL)
                    raise RpcFailure(RpcError.ERETRY, plan.name) from None
                yield from self.execute(round_us, ctx=ctx)
                w.put(key, InodeRecord(ino=ino, is_dir=True, mode=mode,
                                       mtime=self.env.now))
                yield from w.commit()
                yield from call_all(self, ctx, "replica_commit", [
                    (peer, {"txid": txid}) for peer in peers],
                    timeout_us=self.rpc_timeout_us, rule=ALL)
                yield from self.execute(round_us, ctx=ctx)
            self._ops_ctr.inc("mkdir")
            self._respond_ok(message, {"ino": ino})
        except RpcFailure as failure:
            self._respond_error(message, failure)
        finally:
            w.close()

    def _on_replica_prepare(self, message):
        """Participant half of an eager mkdir: lock the new directory's
        key and vote yes; the decision installs its replica dentry."""
        payload = message.payload
        key = payload["key"]
        w = _OwnerWrite(self, message.ctx)
        yield from w.lock(key)
        yield from self.execute(self.costs.index_insert_us, ctx=message.ctx)
        self._staged[payload["txid"]] = [
            {"key": key, "record": payload["record"], "write": w}]
        yield w.vote()
        self.respond(message, {"ok": True})

    def _on_replica_commit(self, message):
        """Install the staged replica dentry.  A participant that lost
        its staged half (restarted between vote and decision) answers
        ok: its replica fetches the dentry from the owner on demand."""
        staged = self._staged.pop(message.payload["txid"], ())
        for entry in staged:
            self.dentries.put(entry["key"], row_copy(entry["record"]))
            yield from self.execute(self.costs.index_insert_us)
        self._release_staged(staged)
        self.respond(message, {"ok": True})

    # ------------------------------------------------------------------
    # control plane: liveness and failover repair
    # ------------------------------------------------------------------

    def _on_ping(self, message):
        """Heartbeat probe from the failure detector.  A crashed node
        never answers (the network black-holes its traffic), so the
        detector's per-ping timeout is what turns death into a signal."""
        yield from self.execute(self.costs.dispatch_us)
        self.respond(message, {"ok": True, "index": self.my_index})

    def _on_wal_ack(self, message):
        """A replication acknowledgement — a standby's applied LSN, or a
        consensus member's append ack.  The shipper consumes it: prunes
        retained history, advances the commit horizon, renews the lease,
        or fences this leader for good on a higher term."""
        if self.shipper is not None:
            self.shipper.on_ack(message.sender, message.payload)

    _on_append_ack = _on_wal_ack

    def _on_snapshot(self, message):
        """Base-backup fetch for a (re)joining standby: a copy of the
        replicated tables plus the shipping LSN the copy reflects.  The
        shipper must already point at the requester, so commits after
        this instant arrive as ordered log-shipping deltas the snapshot
        does not cover."""
        entries = self.table_image()
        # The LSN must be read at the same instant as the table copy:
        # transactions committing while the copy cost elapses below are
        # not in the snapshot and must stay above its LSN so the standby
        # keeps (rather than drops) their buffered deltas.
        # (A consensus log adds the term at that position: the follower
        # resets its log base to the snapshot point.)
        reply = {"tables": entries, "lsn": 0}
        if self.shipper is not None:
            reply.update(self.shipper.snapshot_position())
        count = sum(len(keys) for keys, _ in entries.values())
        yield from self.execute(
            self.costs.index_lookup_us + 0.02 * count, ctx=message.ctx
        )
        self.respond(
            message, reply,
            size=self.costs.rpc_response_bytes
            + self.costs.wal_record_bytes * count,
        )

    def _on_invalidate_owner(self, message):
        """Invalidate every replica dentry owned by a failed MNode shard.

        After a promotion the survivors' cached dentries for the failed
        shard may be stale relative to the standby's state (anything
        from the lost-unshipped window), so they are conservatively
        marked INVALID and lazily refetched from the promoted owner.
        The payload names the failed node's *slots* (a node hosts
        several under the elastic namespace).
        """
        slots = set(message.payload["slots"])
        keys = [
            key for key, record in self.dentries.scan()
            if self.index.locate(key[0], key[1]) in slots
            and record.state == VALID
        ]
        yield from self.apply_invalidation(keys)
        self.respond(message, {"invalidated": len(keys)})

    def _on_fsck_scan(self, message):
        """Report every local inode row, as the table image
        ``{"inode": (keys, rows)}``, for the coordinator's post-failover
        reachability sweep."""
        keys, rows = self.inodes.image()
        yield from self.execute(
            self.costs.index_lookup_us + 0.02 * len(keys)
        )
        self.respond(
            message, {"inode": (keys, rows)},
            size=self.costs.rpc_response_bytes + 32 * len(keys),
        )

    def _on_fsck_delete(self, message):
        """Garbage-collect orphaned inodes (parent directory lost in a
        failover's unshipped window)."""
        def stage(w):
            removed = 0
            for key in message.payload["keys"]:
                slot = self._slot_of(key)
                if self.slots.get(slot, SERVING) != SERVING:
                    # Mid-slot-handoff: the slot's records travel with
                    # the handoff saga; its current host sweeps them.
                    continue
                if w.delete(key):
                    w.pin(slot)
                    removed += 1
            return removed

        removed = yield from self._bulk_write(
            message.ctx, self.costs.index_delete_us, stage)
        self.metrics.counter("fsck_removed").inc(amount=removed)
        self.respond(message, {"removed": removed})

    # ------------------------------------------------------------------
    # control plane: replica maintenance
    # ------------------------------------------------------------------

    def _on_lookup_dentry(self, message):
        """Serve a dentry fetch from another namespace replica: answer
        with the directory's inode row, from which the replica builds
        its dentry.

        Takes the directory inode's shared lock, so fetches block behind a
        namespace change that holds it exclusively (§4.3, case 2).
        """
        payload = message.payload
        key = (payload["pid"], payload["name"])
        grant = self.locks.acquire(("i",) + key, LockMode.SHARED,
                                   ctx=message.ctx)
        if grant.event.callbacks is not None:
            yield grant.event
        try:
            yield from self.execute(self.costs.index_lookup_us,
                                    ctx=message.ctx)
            record = self.inodes.get(key)
        finally:
            self.locks.release(grant)
        self.metrics.counter("served_lookups").inc()
        if record is None:
            self._respond_error(message, RpcFailure(RpcError.ENOENT, key))
        elif not record.is_dir:
            self._respond_error(message, RpcFailure(RpcError.ENOTDIR, key))
        else:
            self.respond(message, record)

    def _on_invalidate(self, message):
        """Invalidate replica dentries (``wait``: see
        :meth:`apply_invalidation`); optionally report child existence
        (the rmdir children check rides the same broadcast)."""
        payload = message.payload
        yield from self.apply_invalidation(payload["keys"],
                                           payload.get("wait", True))
        response = {}
        if payload.get("children_of") is not None:
            yield from self.execute(self.costs.index_lookup_us)
            response["has_children"] = self.inodes.has_prefix(
                (payload["children_of"],)
            )
        self.respond(message, response)

    # ------------------------------------------------------------------
    # control plane: namespace changes executed for the coordinator
    # ------------------------------------------------------------------

    def _on_rmdir_exec(self, message):
        """Owner-side rmdir: broadcast invalidation + child check, then
        delete inode and local dentry if the directory is empty."""
        payload = message.payload
        ctx = message.ctx

        def step(w, key):
            yield from self.execute(self.costs.index_lookup_us, ctx=ctx)
            record = self.inodes.get(key)
            if record is None:
                raise RpcFailure(RpcError.ENOENT, payload["path"])
            if not record.is_dir:
                raise RpcFailure(RpcError.ENOTDIR, payload["path"])
            # Marshaling one invalidation per peer costs owner CPU —
            # the cluster-size-proportional overhead of §6.2's rmdir.
            yield from self.execute(
                self.costs.invalidate_apply_us * 4 * len(self._peers()),
                ctx=ctx,
            )
            replies = yield from call_all(self, ctx, "invalidate", [
                (peer, {"keys": [key], "children_of": record.ino})
                for peer in self._peers()],
                timeout_us=self.rpc_timeout_us, rule=ALL)
            yield from self.execute(self.costs.index_lookup_us, ctx=ctx)
            local_children = self.inodes.has_prefix((record.ino,))
            if local_children or any(r.get("has_children") for r in replies):
                raise RpcFailure(RpcError.ENOTEMPTY, payload["path"])
            w.delete(key)

        yield from self._owner_write(message, "rmdir", step)

    def _on_chmod_exec(self, message):
        """Owner-side directory permission change: invalidate everywhere,
        then update the inode and the local replica dentry."""
        payload = message.payload
        ctx = message.ctx

        def step(w, key):
            record = self.inodes.get(key)
            if record is None:
                raise RpcFailure(RpcError.ENOENT, payload["path"])
            yield from call_all(self, ctx, "invalidate", [
                (peer, {"keys": [key]}) for peer in self._peers()],
                timeout_us=self.rpc_timeout_us, rule=ALL)
            w.put(key, replace(record, mode=payload["mode"]))

        yield from self._owner_write(message, "chmod", step)

    # -- rename 2PC participant -----------------------------------------
    #
    # A participant's only record of a txid is one row per slot it
    # touches, ``meta[("rename", slot, txid)]``: ``{"voted": [actions],
    # "deadline": d}`` until the decision, then APPLIED, or none after an
    # abort or a one-round commit.  A voted action is a delete naming the
    # ino it voted on, or an insert reserving a free key (the decision
    # carries its row).
    # ``_staged`` caches the voted rows, every action of a txid beside
    # the one open ``_OwnerWrite`` holding their lock pairs and slot
    # pins; every recovery rebuilds it.

    def _on_rename_prepare(self, message):
        """Vote on every action this owner holds for the rename, in one
        write: a delete needs its key present, an insert its key free.
        A yes vote commits one voted row per touched slot in that write,
        kept open until the decision, and answers through :meth:`_ack`
        (under consensus, once a quorum holds the rows) — with the moved
        row when it voted a delete.  The first refusal, in action order
        (the source's delete first), closes the write and answers.

        A prepare marked ``commit`` holds both keys.  When it moves a
        file, the yes vote is the decision: the delete and insert apply
        in the same write, with no voted row and no marker (nothing is
        in doubt, and no commit will follow), and the answer adds
        ``applied``.  A directory votes as usual: the coordinator must
        invalidate its peers before it commits.  An unmarked prepare
        takes its locks all at once or refuses ``ERETRY``: the other
        owner's vote is held meanwhile (docs/protocol.md, "Resolve,
        lock, re-check")."""
        payload = message.payload
        txid, deadline = payload["txid"], payload.get("deadline")
        keys = [action["key"] for action in payload["actions"]]
        w = _OwnerWrite(self, message.ctx)
        voted, record = [], None
        try:
            if payload.get("commit"):
                yield from w.lock(*keys)
            elif not w.try_lock(*keys):
                raise RpcFailure(RpcError.ERETRY, keys[0])
            if deadline is not None and self.env.now_us() > deadline:
                # The coordinator timed this attempt out before the
                # prepare arrived or while it queued on the locks; its
                # abort may have come and gone, leaving nobody to
                # release what we would stage.
                raise RpcFailure(RpcError.ETIMEDOUT, keys[0])
            # A slot that migrated away while we were queued bounces
            # (the client re-resolves); otherwise the staged write pins
            # the slots until the decision, so a fence waits for the 2PC
            # and the decided actions ride the delta.
            slots = [w.enter(key) for key in keys]
            yield from self.execute(self.costs.index_lookup_us * len(keys),
                                    ctx=message.ctx)
            for action in payload["actions"]:
                key, kind = action["key"], action["action"]
                current = self.inodes.get(key)
                if (current is None) is (kind == "delete"):
                    raise RpcFailure(RpcError.ENOENT if current is None
                                     else RpcError.EEXIST, key)
                decided = {"action": kind, "key": key}
                if kind == "delete":
                    decided["ino"] = current.ino
                    record = current
                voted.append(decided)
        except RpcFailure as failure:
            w.close()
            self._respond_error(message, failure)
            return
        if payload.get("commit") and not record.is_dir:
            try:
                delete, insert = voted
                w.delete(delete["key"])
                w.put(insert["key"], record)
                yield from w.commit()
            finally:
                w.close()
            yield from self._ack(message, {"ok": True, "applied": True})
            return
        rows = {}
        for slot, decided in zip(slots, voted):
            rows.setdefault(slot, []).append(decided)
        for slot, actions in rows.items():
            w.txn.put(self.meta, ("rename", slot, txid),
                      {"voted": actions, "deadline": deadline})
        self._stage_half(txid, voted, w)
        yield from w.commit()
        if deadline is not None:
            self.env.process(self._resolve_in_doubt(txid, deadline))
        response = {"ok": True}
        if record is not None:
            response["record"] = record
        yield from self._ack(message, response)

    def restage(self):
        """Rebuild ``_staged`` from every served slot's voted rows, as
        :meth:`rebuilt_slots` rebuilds ``slots``, before the node can
        receive a message: each txid's voted actions retake their lock
        pairs and pin their slots in one write, and each txid gets one
        in-doubt resolver."""
        voted = {}
        for (_, slot, txid), row in self.meta.scan_prefix(("rename",)):
            if "voted" not in row or not self.serves(slot):
                continue
            half = voted.setdefault(txid, {"actions": [], "slots": [],
                                           "deadline": row["deadline"]})
            half["actions"].extend(row["voted"])
            half["slots"].append(slot)
            self.metrics.counter("rename_restaged").inc()
        for txid, half in voted.items():
            w = _OwnerWrite(self)
            next(w.lock(*[action["key"] for action in half["actions"]]),
                 None)  # a fresh table
            for slot in half["slots"]:
                w.pin(slot)
            self._stage_half(txid, half["actions"], w)
            if half["deadline"] is not None:
                self.env.process(
                    self._resolve_in_doubt(txid, half["deadline"]))

    def _stage_half(self, txid, actions, w):
        """Stage ``txid``'s voted ``actions`` beside the open write
        ``w`` that holds their lock pairs, with one completion event
        that :meth:`_release_staged` fires."""
        done = self.env.event()
        self._open_halves[done] = {action["key"][0] for action in actions}
        self._staged[txid] = [{"action": action, "write": w, "done": done}
                              for action in actions]

    def _apply_decided(self, txid, actions, ctx, staged=()):
        """Generator: apply a decided rename's ``actions`` on this node —
        the one path for a staged commit, an in-doubt commit and a redo
        where no voted row was held (an asynchronous promotion lost it).

        One write: the staged half's, which holds every key's lock pair
        and slot pin, or a fresh one that locks the unmarked keys and
        enters them (an unserved slot raises the bounce).  It overwrites
        each touched slot's row with :data:`APPLIED` once, then applies
        each action behind its guard — a delete only while the key holds
        the voted ino, an insert only while the key is free, so an op
        acked after the decision wins over a redo; a skip is counted in
        ``rename_guard_skips`` — and commits once.

        The marker is the decision's receiver-side memory: the
        coordinator may re-deliver a commit after a later acked op vacated the keys,
        and the guards cannot tell "never applied" from "applied, then
        superseded".  Markers are read before any lock (a marked
        re-delivery acks without queuing) and again under the locks (a
        concurrent re-delivery may have applied the actions)."""
        actions = self._unmarked(txid, actions)
        w = staged[0]["write"] if staged else _OwnerWrite(self, ctx)
        w.ctx = ctx
        applied = []
        try:
            if actions and not staged:
                keys = sorted({action["key"] for action in actions})
                yield from w.lock(*keys)
                for key in keys:
                    w.enter(key)
                actions = self._unmarked(txid, actions)
            for slot in self._touched(actions):
                w.txn.put(self.meta, ("rename", slot, txid), dict(APPLIED))
            for action in actions:
                key, kind = action["key"], action["action"]
                current = w.get(key)
                if kind == "insert" and current is None:
                    w.put(key, action["record"])
                elif (kind == "delete" and current is not None
                        and current.ino == action["ino"]):
                    w.delete(key)
                else:
                    self.metrics.counter("rename_guard_skips").inc(kind)
                    continue
                applied.append(kind)
            yield from w.commit()
        finally:
            if staged:
                self._release_staged(staged)
            else:
                w.close()
        if not staged:
            for kind in applied:
                self.metrics.counter("rename_redos").inc(kind)

    def _touched(self, actions):
        """The slots ``actions`` write into, each once, in order."""
        return sorted({self._slot_of(action["key"]) for action in actions})

    def _unmarked(self, txid, actions):
        """The ``actions`` whose slot holds no applied marker for
        ``txid`` on this node."""
        return [action for action in actions if self.meta.get(
            ("rename", self._slot_of(action["key"]), txid))
            != APPLIED]

    def _drop_vote(self, txid, staged):
        """Generator: abort a staged half — delete its voted rows in
        the staged write, then close it."""
        try:
            for slot in self._touched([entry["action"] for entry in staged]):
                staged[0]["write"].txn.delete(self.meta, ("rename", slot, txid))
            if staged:
                yield from staged[0]["write"].commit()
        finally:
            self._release_staged(staged)

    def _release_staged(self, staged):
        """Close a staged half's write, once: a txid's entries share
        one.  A rename half's completion event fires here — commit,
        abort and in-doubt resolution all end in this call — waking the
        listings that wait it out (not on a retired incarnation, whose
        waiters died with it)."""
        if staged:
            staged[0]["write"].close()
            done = staged[0].get("done")
            if done is not None and self._open_halves.pop(done, None):
                # An event only when a listing waits on it.
                if done.callbacks and not self.halted:
                    done.succeed()

    def _resolve_in_doubt(self, txid, deadline):
        """Process: terminate a voted rename whose decision never
        arrived: presumed abort, or the coordinator's recorded commit,
        whose actions on the keys held here apply."""
        timeout_us = self.rpc_timeout_us or 1000.0
        yield self.env.timeout(
            max(0.0, deadline - self.env.now_us()) + 2 * timeout_us)
        reply = yield from redeliver(
            self, lambda: self.shared.coordinator_name, "rename_resolve",
            {"txid": txid}, timeout_us=timeout_us, backoff_us=500.0,
            pending=lambda: txid in self._staged and not self.halted,
        )
        staged = None if reply is None else self._staged.pop(txid, None)
        if staged is None:
            return
        if reply["state"] == "commit":
            held = {entry["action"]["key"] for entry in staged}
            yield from self._apply_decided(
                txid, [action for action in reply["actions"]
                       if action["key"] in held], NULL_CONTEXT, staged)
        else:
            yield from self._drop_vote(txid, staged)

    def _on_rename_commit(self, message):
        txid = message.payload["txid"]
        actions = message.payload.get("actions") or []
        try:
            yield from self._apply_decided(txid, actions, message.ctx,
                                           self._staged.pop(txid, ()))
        except RpcFailure as failure:
            # The key's slot migrated away: the re-delivery re-resolves
            # the slot to its new home and re-delivers there.
            self._respond_error(message, failure)
            return
        # Acking a decided commit tells the coordinator to stop
        # re-delivering — so under consensus the ack must wait for
        # quorum, or a minority leader would absorb the decision and a
        # later elected leader would never see these actions.  On
        # failure the re-delivery retries against the slot, which the
        # election install re-points at the new leader (which restaged
        # the quorum-committed voted rows it inherited).
        yield from self._ack(message, {"ok": True})

    def _on_rename_abort(self, message):
        txid = message.payload["txid"]
        yield from self._drop_vote(txid, self._staged.pop(txid, ()))
        self.respond(message, {"ok": True})

    def _on_replica_abort(self, message):
        self._release_staged(self._staged.pop(message.payload["txid"], ()))
        self.respond(message, {"ok": True})

    # ------------------------------------------------------------------
    # control plane: directory listing
    # ------------------------------------------------------------------

    def _on_readdir(self, message):
        """This node's share of a listing.  The client asks every MNode
        at once (a directory's children are hashed over all of them) and
        merges the shares.  Each node resolves the directory from its
        own replica, then waits out its open rename halves under it
        (:meth:`_renames_settled`) before it scans: a rename is answered
        at its decision, and its commit may still be on the way here.
        A share that cannot be served now answers the failure, and the
        client retries the round."""
        payload = message.payload
        if not self._serving_as_leader():
            self._respond_error(
                message, RpcFailure(RpcError.ENOTLEADER, self.name)
            )
            return
        try:
            resolved = yield from self.resolve_dir(
                split_path(payload["path"]), ctx=message.ctx)
            yield from self._renames_settled(resolved.ino, message.ctx)
            entries = self._scan_children(resolved.ino)
        except (ValueError, RpcFailure) as failure:
            if not isinstance(failure, RpcFailure):
                failure = RpcFailure(RpcError.EINVAL, payload["path"])
            self._respond_error(message, failure)
            return
        yield from self.execute(
            self.costs.index_lookup_us + 0.02 * len(entries),
            ctx=message.ctx,
        )
        self.metrics.counter("ops").inc("readdir")
        self._respond_ok(message, {"ino": resolved.ino, "entries": entries},
                         size=self.costs.rpc_response_bytes
                         + 16 * len(entries))

    def _renames_settled(self, pid, ctx):
        """Generator: wait until every rename half open on this node
        with a key under directory ``pid`` has ended — applied, dropped
        or resolved.  A half opened later belongs to a rename not yet
        answered.  The wait is bounded by ``ctx``'s remaining budget
        (at most ``rpc_timeout_us``) and raises ``ERETRY`` on expiry."""
        halves = [done for done, parents in self._open_halves.items()
                  if pid in parents]
        if not halves:
            return
        settled = self.env.all_of(halves)
        timer = expire(self, budget(self, ctx, self.rpc_timeout_us),
                       [(settled, "rename halves on " + self.name)])
        try:
            yield settled
        except RpcFailure as failure:
            raise RpcFailure(RpcError.ERETRY, "{}: {}".format(
                failure.detail, RpcError.name(failure.code))) from None
        finally:
            if timer is not None:
                timer.cancel()

    def _scan_children(self, pid):
        """``[name, is_dir]`` of every child row of ``pid`` in a slot
        this node serves — lists, which the live wire carries as plain
        JSON arrays.  A handed-off slot's rows stay here until its
        purge, after the destination serves (and may have removed) them,
        so they are left out, as are a discarded copy's rows until its
        delete commits.  While a slot's handoff to this node is
        pending, neither end may list its rows (the source may be
        fenced already), so the share is refused with ``ERETRY``, as a
        request for that slot is."""
        if any(state["state"] == "pending" for state in self.slots.values()):
            raise RpcFailure(RpcError.ERETRY,
                             "slot handoff pending on " + self.name)
        serves, slot_of = self.serves, self._slot_of
        return [[key[1], record.is_dir]
                for key, record in self.inodes.scan_prefix((pid,))
                if serves(slot_of(key))]

    # ------------------------------------------------------------------
    # control plane: statistics, exception table, migration
    # ------------------------------------------------------------------

    def _on_stats(self, message):
        """Report local inode count and the top-k filename frequencies
        (the paper's O(n log n) statistics, §4.2.2)."""
        top_k = message.payload.get("top_k", 16)
        top = heapq.nlargest(
            top_k, self.filename_counts.items(), key=lambda item: item[1]
        )
        yield from self.execute(self.costs.index_lookup_us)
        self.respond(message, {
            "inode_count": len(self.inodes),
            "top_filenames": top,
            # Per-slot live record counts + the hosted set: the slot-
            # migration planner's raw material.
            "slot_counts": dict(self.slot_inode_counts),
            "hosted_slots": sorted(slot for slot, state in self.slots.items()
                                   if state == SERVING),
        })

    def _on_name_count(self, message):
        name = message.payload["name"]
        yield from self.execute(self.costs.index_lookup_us)
        self.respond(
            message, {"count": self.filename_counts.get(name, 0)}
        )

    def _on_migrate_collect(self, message):
        """Redirection step 1: block the filename, then remove and
        return every local inode with it, as a record list.

        The block turns away plans that have not yet locked the name's
        rows; X on every such row key already held or queued waits out
        those that have, so no write commits a row behind the scan.  A
        full table scan (key order, so by parent id): the collect is a
        rare control-plane RPC, and no name->parents index is kept for
        it."""
        name = message.payload["name"]
        self.migrating.add(name)
        entries = []

        def stage(w):
            for key, record in self.inodes.scan():
                if key[1] != name:
                    continue
                slot = self._slot_of(key)
                if self.slots.get(slot, SERVING) != SERVING:
                    # Mid-slot-handoff copies: the fenced (or still
                    # installing) slot's records travel with the slot
                    # saga, not with the filename migration.
                    continue
                w.pin(slot)
                entries.append(("inode", key, record))
                w.delete(key)
            return len(entries)

        locks = sorted(
            (key, LockMode.EXCLUSIVE) for key in self.locks.keys()
            if key[0] == "i" and key[2] == name)
        yield from self._bulk_write(
            message.ctx, self.costs.index_delete_us, stage, locks)
        self.respond(
            message, {"entries": entries},
            size=self.costs.rpc_response_bytes + 64 * len(entries),
        )

    def _on_migrate_install(self, message):
        """Redirection step 2: adopt the new exception table, install
        the rows it places here, then unblock the filename."""
        payload = message.payload
        self.xt.adopt(exception_table_from_wire(payload["table"]))
        entries = payload["entries"]

        def stage(w):
            for _, key, record in entries:
                slot = self._slot_of(key)
                if self.serves(slot):   # an exception-table placement
                    w.pin(slot)         # is unfenced
                w.put(key, record)
            return len(entries)

        yield from self._bulk_write(
            message.ctx, self.costs.index_insert_us, stage)
        self.migrating.discard(payload["name"])
        self.respond(message, {"ok": True})

    # ------------------------------------------------------------------
    # control plane: online slot handoff (elastic namespace)
    # ------------------------------------------------------------------

    def _on_slot_snapshot(self, message):
        """Source step 1 of an online slot handoff: take a table image
        of the slot's inode rows and, in the same no-yield instant, name
        the WAL position ``since`` above which every write the image
        lacks was logged — the analogue of :meth:`_on_snapshot` reading
        the ship LSN at copy time.  The source keeps nothing for the
        saga."""
        slot = message.payload["slot"]
        # The slot's rename rows ride along: the destination inherits
        # the duty of no-op-acking stale commit re-deliveries.  (A voted
        # row pins the slot, so the fence's delta carries its decision.)
        image = {
            "inode": self.inodes.image(
                lambda key: self._slot_of(key) == slot),
            "meta": self.meta.image(
                lambda key: key[:2] == ("rename", slot)),
        }
        since = min(self._unapplied, default=self.wal.next_lsn) - 1
        self._handoff_since[slot] = min(
            since, self._handoff_since.get(slot, since))
        yield from self._reply_rows(message, len(image["inode"][0]), {
            "slot": slot, "image": image, "since": since,
            "incarnation": self.name})

    def _reply_rows(self, message, rows, payload):
        """Generator: answer a handoff step whose reply carries ``rows``
        records — charge marshaling them, size the response by them."""
        yield from self.execute(
            self.costs.index_lookup_us + 0.02 * rows, ctx=message.ctx)
        self.respond(message, payload,
                     size=self.costs.rpc_response_bytes + 64 * rows)

    def _on_slot_install(self, message):
        """Destination step 2: durably install the source's snapshot.

        The slot is *pending* from before the install commits until
        ``slot_activate`` applies the fenced delta, keeping an earlier
        handoff's ``node``/``epoch`` hint.  Directory dentries are
        reconstructed from the inode records: this node is about to
        become their owner, so its replica entries must be
        authoritative, not fetched from the (retiring) source."""
        payload = message.payload
        slot = payload["slot"]
        pending = {"state": "pending"}
        earlier = self.slots.get(slot)
        if earlier is not None and "node" in earlier:
            pending.update(node=earlier["node"], epoch=earlier["epoch"])
        self.slots[slot] = pending

        def stage(w):
            # Durable marker: a crash between install and activate
            # restarts with the slot *pending*, never serving the
            # delta-less copy.
            self._mark(w, slot, pending)
            image = payload["image"]
            for key, marker in zip(*image["meta"]):
                w.txn.put(self.meta, key, row_copy(marker))
            keys, rows = image["inode"]
            for key, record in zip(keys, rows):
                w.put(key, record)
            return len(keys)

        installed = yield from self._bulk_write(
            message.ctx, self.costs.index_insert_us, stage)
        self.respond(message, {"ok": True, "installed": installed})

    def _on_slot_fence(self, message):
        """Source step 3: the fence.  Stop serving the slot in one
        no-yield instant — every later request bounces EMOVED with the
        destination hint — drain the in-flight local writers, then read
        the slot's delta back from the WAL above the snapshot's
        ``since``.  Idempotent; refuses a ``since`` that counts LSNs in
        another incarnation's log (a promoted node's), or one a
        checkpoint retired past (a restarted node's, which forgot the
        handoff): either delta would be short."""
        payload = message.payload
        slot = payload["slot"]
        if payload["incarnation"] != self.name:
            self._respond_error(message, RpcFailure(
                RpcError.EINVAL, "since from " + payload["incarnation"]))
            return
        if payload["since"] + 1 < self.wal.first_lsn:
            self._respond_error(message, RpcFailure(
                RpcError.EINVAL, "since below the checkpoint"))
            return
        moved = {"state": "moved", "node": payload["node"],
                 "epoch": payload["epoch"]}
        self.slots[slot] = moved
        # Writers registered before the fence drain to zero, so their
        # records are in the log; no new writer can register (the
        # serving check above bounces it).  Records are read whether or
        # not they are intact: this live node applied them.
        # Rename-applied markers are slot-scoped durable state and
        # travel too: a stale commit re-delivery after the flip resolves
        # to the *destination*, which can only no-op it if the marker
        # moved.  Handoff markers describe this node and never move.
        yield from _OwnerWrite.drain(self, slot)
        delta = [
            record for records in self.wal.payloads_since(payload["since"])
            for record in records or ()
            if (record[1][:2] == ("rename", slot) if record[0] == "meta"
                else self._slot_of(record[1]) == slot)
        ]
        # Durable fence marker *before* the delta leaves this node: a
        # restart must come back fenced, not resurrect the slot from
        # the (not yet flipped) map and serve state the destination is
        # about to supersede.
        w = _OwnerWrite(self, message.ctx)
        self._mark(w, slot, moved)
        yield from w.commit()
        yield from self._reply_rows(message, len(delta),
                                    {"ok": True, "delta": delta})

    def _mark(self, w, slot, state):
        """Stage ``slot``'s durable handoff marker in ``w``: ``state``,
        or no marker when it is None."""
        if state is None:
            w.txn.delete(self.meta, ("slot", slot))
        else:
            w.txn.put(self.meta, ("slot", slot), dict(state))

    def _on_slot_activate(self, message):
        """Destination step 4: durably apply the fenced delta, then
        start serving.  The ordering is the handoff-safety invariant:
        every write the source ever acknowledged for this slot is
        applied here before the first request is."""
        payload = message.payload
        slot = payload["slot"]
        if self.serves(slot):
            # Already serving: a re-delivery whose first ack was lost.
            # Applying the delta again would overwrite whatever clients
            # wrote here since with the source's older rows.
            self.respond(message, {"ok": True, "applied": 0})
            return

        def stage(w):
            # Durable adoption marker, committed atomically with the
            # delta: a restart after this commit serves the slot; before
            # it, the slot is still pending and the re-delivered
            # activate applies.
            self._mark(w, slot, SERVING)
            for name, key, record in payload["delta"]:
                if name == "inode":
                    # The delta carries the matching dentry rows itself.
                    if record is None:
                        w.delete(key, dentry=False)
                    else:
                        w.put(key, record, dentry=False)
                else:
                    # A dentry row, or a rename-applied marker committed
                    # at the source after the snapshot.
                    table = self.meta if name == "meta" else self.dentries
                    if record is None:
                        w.txn.delete(table, key)
                    else:
                        w.txn.put(table, key, row_copy(record))
            return len(payload["delta"])

        applied = yield from self._bulk_write(
            message.ctx, self.costs.index_insert_us, stage)
        # A slot migrating *back* drops the hint from its earlier
        # handoff; clients whose maps still point elsewhere recover via
        # server-side forwarding.
        self.slots[slot] = SERVING
        self.metrics.counter("slots_adopted").inc()
        self.respond(message, {"ok": True, "applied": applied})

    def _on_slot_reclaim(self, message):
        """Source-side abort: the destination died mid-handoff.  Resume
        serving from local state — nothing was lost, every write this
        node acknowledged is still durably here (the purge never ran).
        Idempotent: safe to re-deliver, safe on a restarted incarnation
        that never fenced."""
        slot = message.payload["slot"]
        self.slots[slot] = SERVING
        self._handoff_since.pop(slot, None)
        if self.meta.get(("slot", slot)) is not None:
            w = _OwnerWrite(self, message.ctx)
            self._mark(w, slot, None)
            yield from w.commit()
        self.respond(message, {"ok": True})

    def _on_slot_discard(self, message):
        """Destination-side abort: the saga failed before the map flip.
        Delete the installed copy — the placement audit must never find
        the same key authoritative on two nodes — and put the slot back
        as it was: moved toward an earlier handoff's hint, or unmarked.
        Idempotent: a copy that never landed leaves the state alone."""
        slot = message.payload["slot"]
        state = self.slots.get(slot)
        if state is not None and state["state"] == "pending":
            if "node" in state:
                self.slots[slot] = dict(state, state="moved")
            else:
                del self.slots[slot]
        removed = yield from self._drop_slot_copy(message.ctx, slot,
                                                  installed=True)
        self.respond(message, {"ok": True, "removed": removed})

    def _on_slot_purge(self, message):
        """Source final step, after the authoritative map flip: delete
        the migrated slot's inode records — the destination owns them
        now.  Directory dentries stay behind as ordinary replica cache
        (no longer authoritative: the slot is not served here)."""
        slot = message.payload["slot"]
        removed = yield from self._drop_slot_copy(message.ctx, slot,
                                                  installed=False)
        self._handoff_since.pop(slot, None)
        self.metrics.counter("slot_purged").inc(amount=removed)
        self.respond(message, {"ok": True, "removed": removed})

    def _drop_slot_copy(self, ctx, slot, installed):
        """Generator: durably delete this node's non-authoritative copy
        of ``slot`` — its inode rows and its rename-applied markers (the
        authoritative host answers stale commit re-deliveries).  An
        ``installed`` copy (a destination's, never served) also writes
        back the slot's marker from ``slots`` and drops the dentries the
        install reconstructed.  Returns the number of inode rows
        removed."""
        def stage(w):
            if installed:
                self._mark(w, slot, self.slots.get(slot))
            for key, _ in list(self.meta.scan()):
                if key[0] == "rename" and key[1] == slot:
                    w.txn.delete(self.meta, key)
            removed = 0
            for key, record in list(self.inodes.scan()):
                if self._slot_of(key) != slot:
                    continue
                w.delete(key, dentry=False)
                if installed and record.is_dir:
                    w.txn.delete(self.dentries, key)
                removed += 1
            return removed

        removed = yield from self._bulk_write(
            ctx, self.costs.index_delete_us, stage)
        return removed
