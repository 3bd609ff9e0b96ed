"""Quorum consensus for one directory slot's metadata group.

Replaces coordinator-ordained standby promotion with a Raft-shaped
protocol over the existing log-shipping machinery.  Each MNode slot is
a three-member group:

* the **leader** — the serving MNode, whose committed transactions
  become replicated-log entries (:class:`ReplicatedLog` is the
  leader-side shipper: it assigns consensus LSNs, stamps the leader's
  term on every entry, and tracks per-member replication progress);
* one **data follower** — a :class:`ConsensusFollower` (a
  :class:`~repro.storage.replication.Standby` that speaks
  AppendEntries instead of bare ``wal_ship``): it durably appends the
  leader's entries, applies only the *committed* prefix to its tables
  (an uncommitted suffix can still be truncated on conflict; applied
  state cannot), and is the only member that can stand for election;
* one **witness** — a vote-only member holding ``(lsn, term)``
  positions but no data.  It makes the quorum cheap (no third table
  copy) while keeping the safety math: commit quorum and vote quorum
  are both 2-of-3, so they intersect.

Safety properties this module provides (and the checker's tightened
oracle asserts — no promotion-loss excusal):

* **quorum commit** — an operation acknowledges only after the leader
  *and* at least one other member have durably appended it.  A leader
  partitioned into a minority can never reach that quorum, so it can
  never acknowledge a write that a later leader would lack;
* **election safety** — the witness grants at most one vote per term,
  refuses candidates whose ``(last_term, last_lsn)`` trails its own
  positions (so an elected follower provably holds every quorum-acked
  entry), and refuses *any* candidate while it has heard from a live
  leader within an election timeout (leader stickiness).  A pre-vote
  round probes all of that without bumping terms, so a flapping
  partition cannot inflate terms and depose a healthy leader on heal;
* **log matching** — AppendEntries carries the ``(lsn, term)`` of the
  entry preceding the shipped suffix; a member that disagrees refuses
  and truncates its conflicting (always uncommitted) suffix, so two
  members that agree on the term at any LSN hold identical prefixes;
* **leases** — the leader only *serves* (plans operations, answers
  reads) while its lease is live.  The lease is renewed by member acks
  and anchored at the leader-clock **send** timestamp the ack echoes
  back (never at receive time, which would extend it by a stale RTT).
  :data:`ELECTION_TIMEOUT_US` must exceed :data:`LEASE_US`: a deposed
  zombie's lease provably lapses before any member can elect a
  successor, so a zombie cannot even serve stale reads into the new
  leader's reign.

The coordinator is demoted to lease *issuer* and membership registry:
it validates term monotonicity on ``leader_claim`` and runs the
directory surgery, but never ordains a promotion on its own.
"""

from repro.net import Node
from repro.net.rpc import RpcFailure
from repro.obs import NULL_CONTEXT, deadline_call
from repro.storage.replication import Standby, refuse_unowned
from repro.storage.table import apply_records

#: Follower election timeout base, microseconds: a follower that hears
#: nothing from its leader for a seeded draw from ``[T, 2T]`` starts an
#: election; the witness refuses votes within ``T`` of leader traffic.
ELECTION_TIMEOUT_US = 4000.0
#: Leader lease, microseconds, renewed by member acks.  Once it lapses
#: the leader stops acknowledging (ENOTLEADER) until a quorum answers
#: again — the fast-fail half of zombie fencing.
LEASE_US = 3000.0
#: Leader heartbeat (empty AppendEntries) cadence, microseconds.
HEARTBEAT_US = 1000.0
assert LEASE_US < ELECTION_TIMEOUT_US, "a zombie's lease must lapse first"


class ReplicatedLog:
    """Leader-side consensus log for one metadata group.

    Drop-in for :class:`~repro.storage.replication.LogShipper` on the
    MNode's commit hook (``ship(records)``), but every shipped transaction
    becomes a term-stamped log entry and the commit path can park on
    :meth:`wait_quorum` until a majority has durably appended it.

    Entries live above a ``(base_lsn, base_term)`` horizon — the
    snapshot point the leader's tables were built from (bulk load,
    redo recovery, an election install, or its latest checkpoint).
    Everything in ``entries`` carries the *current* term (a leader never
    appends under an old term), which is what makes commit-by-counting
    safe without Raft's §5.4.2 current-term restriction as a separate
    check.

    Retention is the suffix above the base.  The base moves up when the
    leader's WAL takes a checkpoint (:meth:`trim`), so the suffix is
    bounded by the WAL's segment size: a lagging member backfills from
    it via gap-nack hints; a member that has fallen below the base
    resynchronizes by snapshot (data follower) or by adopting the base
    (witness).
    """

    def __init__(self, node, witness_name, standby_name=None, term=1,
                 base_lsn=0, base_term=0, group_size=3):
        self.node = node
        self.witness_name = witness_name
        self.term = term
        self.base_lsn = base_lsn
        self.base_term = base_term
        #: ``[(lsn, term, records), ...]`` — contiguous, strictly above
        #: the base, all stamped with the current term.
        self.entries = []
        self.commit_lsn = base_lsn
        self.quorum = group_size // 2 + 1
        #: Leader-clock instant the lease dies unless an ack renews it.
        #: A fresh leader gets one free lease: the election (or the
        #: registry, for an initial/restart grant) just established
        #: that no competitor can be elected within this window.
        self.lease_until = node.clock.now_us() + LEASE_US
        #: Permanent fence: a member nacked us with a higher term, so a
        #: successor exists.  A deposed log never serves, never acks,
        #: never heartbeats again.
        self.deposed = False
        #: name -> {"match": highest acked lsn, "next": next lsn to
        #: send, "hi": highest lsn ever sent, "data": carries records}.
        #: ``match`` starts at 0 (unknown), never at the base —
        #: commit progress only ever comes from fresh acks.
        self.members = {}
        if standby_name is not None:
            self.members[standby_name] = {
                "match": 0, "next": base_lsn + 1, "hi": 0, "data": True,
            }
        self.members[witness_name] = {
            "match": 0, "next": base_lsn + 1, "hi": 0, "data": False,
        }
        self._waiters = []
        self._running = False
        self.resent_records = 0
        self.quorum_failures = 0

    # -- positions (shared surface with LogShipper: next_lsn, acked_lsn) --

    @property
    def last_lsn(self):
        return self.entries[-1][0] if self.entries else self.base_lsn

    @property
    def last_term(self):
        return self.entries[-1][1] if self.entries else self.base_term

    @property
    def next_lsn(self):
        """The LSN the next entry will take."""
        return self.last_lsn + 1

    def snapshot_position(self):
        """The log position (and its term) a table copy taken now
        reflects: the follower resets its log base to it."""
        return {"lsn": self.last_lsn, "term": self.last_term}

    @property
    def acked_lsn(self):
        """Highest LSN the data member has acknowledged (0 if none)."""
        best = 0
        for member in self.members.values():
            if member["data"]:
                best = max(best, member["match"])
        return best

    # -- appending and shipping ------------------------------------------

    def append(self, records):
        """Append one entry (a committed transaction's WAL payload) and
        offer it to every member; returns its LSN.

        As the commit hook (:meth:`ship`) it runs once the WAL's
        durability barrier has completed, so the leader's own copy of
        this entry is durable before any member sees it."""
        if not records or self.deposed:
            return None
        lsn = self.last_lsn + 1
        self.entries.append((lsn, self.term, records))
        for name, member in self.members.items():
            self._send_member(name, member)
        return lsn

    ship = append

    def trim(self, lsn):
        """The leader's checkpoint covers the entries up to ``lsn``:
        move the base up to it (at most to the last entry) and drop
        them.  A member whose next entry is below the new base is
        offered the base itself and resyncs by snapshot.  Returns the
        LSN the base may cover."""
        lsn = min(lsn, self.last_lsn)
        if lsn > self.base_lsn:
            drop = lsn - self.base_lsn
            self.base_term = self.entries[drop - 1][1]
            self.base_lsn = lsn
            del self.entries[:drop]
        return lsn

    def _position_at(self, lsn):
        """``(lsn, term)`` for an LSN at or above the base."""
        if lsn <= self.base_lsn:
            return (self.base_lsn, self.base_term)
        return (lsn, self.entries[lsn - self.base_lsn - 1][1])

    def _send_member(self, name, member):
        """Ship the member's pending suffix (possibly empty — then the
        message is a pure heartbeat that still renews the lease and
        lets the member detect gaps via the ``prev`` check)."""
        if self.deposed:
            return
        start = max(member["next"], self.base_lsn + 1)
        member["next"] = start
        prev = self._position_at(start - 1)
        suffix = self.entries[start - self.base_lsn - 1:]
        if member["data"]:
            body = [[lsn, term, records] for lsn, term, records in suffix]
        else:
            body = [[lsn, term, None] for lsn, term, _ in suffix]
        resent = sum(1 for lsn, _, _ in suffix if lsn <= member["hi"])
        self.resent_records += resent
        if suffix:
            member["hi"] = max(member["hi"], suffix[-1][0])
            member["next"] = suffix[-1][0] + 1
        self.node.send(
            name, "append_entries",
            {
                "term": self.term, "leader": self.node.name,
                "prev": [prev[0], prev[1]],
                "base": [self.base_lsn, self.base_term],
                "entries": body,
                "commit_lsn": self.commit_lsn,
                "echo": self.node.clock.now_us(),
            },
            size=self.node.costs.rpc_request_bytes
            + self.node.costs.wal_record_bytes * max(1, len(body)),
        )

    def attach_data_member(self, name):
        """(Re)attach a data follower (a rejoin after crash/demotion)."""
        self.members[name] = {
            "match": 0, "next": self.base_lsn + 1, "hi": 0, "data": True,
        }

    # -- acks, commit, lease ---------------------------------------------

    def on_ack(self, sender, payload):
        """Consume member ``sender``'s ``append_ack`` (fire-and-forget)."""
        term = payload["term"]
        if term > self.term:
            # A successor's term exists: we are a zombie.  Fence forever.
            self._depose()
            return
        if term < self.term:
            return  # stale ack from before the member adopted our term
        member = self.members.get(sender)
        if member is None:
            return
        echo = payload.get("echo")
        if echo is not None and not self.deposed:
            # Anchor the renewal at the *send* instant the ack echoes:
            # the member provably heard us no earlier than then, so the
            # no-election window extends exactly LEASE_US past it.
            self.lease_until = max(self.lease_until, echo + LEASE_US)
        if payload["ok"]:
            if payload["match_lsn"] > member["match"]:
                member["match"] = payload["match_lsn"]
                self._advance_commit()
            member["next"] = max(member["next"], member["match"] + 1)
        else:
            hint = payload.get("match_lsn", 0)
            member["next"] = max(self.base_lsn + 1,
                                 min(member["next"], hint + 1))
            member["match"] = min(member["match"], hint)
            self._send_member(sender, member)

    def _advance_commit(self):
        matches = sorted(
            [self.last_lsn] + [m["match"] for m in self.members.values()],
            reverse=True,
        )
        candidate = matches[self.quorum - 1]
        if candidate > self.commit_lsn:
            self.commit_lsn = candidate
            for lsn, event in list(self._waiters):
                if lsn <= self.commit_lsn and not event.triggered:
                    event.succeed()

    def _depose(self):
        if self.deposed:
            return
        self.deposed = True
        self.lease_until = float("-inf")
        for _, event in self._waiters:
            if not event.triggered:
                event.succeed()
        self._waiters = []

    def leading(self, now_us):
        """May this leader serve (plan operations, answer reads) now?

        Outside the live-timer phases (setup, drain) the lease is not
        enforced — there are no heartbeats to renew it — but a deposed
        log stays fenced forever."""
        if self.deposed:
            return False
        if not self._running:
            return True
        return now_us < self.lease_until

    def wait_quorum(self, lsn=None):
        """Generator: park until ``lsn`` is quorum-committed.

        Returns True when a majority has durably appended the entry —
        only then may the operation acknowledge.  Returns False when
        that became impossible or unpromisable: the log was deposed
        (a successor exists) or the lease lapsed while waiting (we may
        be the minority side of a partition; the caller answers
        ENOTLEADER and the client re-resolves).  A committed entry
        reports True even under a lapsed lease: a majority holds it,
        so every future leader will too."""
        if lsn is None:
            lsn = self.last_lsn
        env = self.node.env
        clock = self.node.clock
        while True:
            if lsn <= self.commit_lsn:
                return True
            if self.deposed:
                self.quorum_failures += 1
                return False
            if self._running and clock.now_us() >= self.lease_until:
                self.quorum_failures += 1
                return False
            event = env.event()
            self._waiters.append((lsn, event))
            if self._running:
                wait_us = max(1.0, self.lease_until - clock.now_us() + 1.0)
                yield env.any_of(
                    [event, env.timeout(clock.to_env_delay(wait_us))]
                )
            else:
                yield event
            try:
                self._waiters.remove((lsn, event))
            except ValueError:
                pass

    # -- heartbeats ------------------------------------------------------

    def start(self):
        """Start the heartbeat loop (a standing timer: the cluster's
        heal path stops it before quiescence)."""
        if self._running:
            return
        self._running = True
        self.node.env.process(self._heartbeat_loop())

    def stop(self):
        self._running = False

    def _heartbeat_loop(self):
        """Heartbeat doubles as retransmission: each tick re-ships every
        member's pending suffix (usually empty — optimistic pipelining
        advanced ``next`` at send time; a member that lost an append
        nacks the heartbeat's ``prev`` gap and the hint walks ``next``
        back for an immediate backfill)."""
        node = self.node
        env = node.env
        clock = node.clock
        while self._running and not self.deposed and not node.halted:
            yield env.timeout(clock.to_env_delay(HEARTBEAT_US))
            if not self._running or self.deposed:
                return
            while node.network.is_down(node.name) and not node.halted:
                yield node.network.resume_event(node.name)
            if node.halted or not self._running or self.deposed:
                return
            for name, member in self.members.items():
                self._send_member(name, member)


class MemberLog:
    """The log core both non-leader members share: entries
    ``(lsn, term, records)`` above a ``(base_lsn, base_term)`` snapshot
    horizon, the stale-term refusal, the prev-``(lsn, term)`` log-matching
    check and the dedup-append loop.  The witness is simply the member
    whose ``records`` are ``None``."""

    def init_member_log(self):
        self.term = 0
        self.leader_name = None
        #: ``[(lsn, term, records), ...]`` above the base.
        self.entries = []
        self.base_lsn = 0
        self.base_term = 0
        self.commit_lsn = 0
        self.truncations = 0

    def _last_lsn(self):
        return self.entries[-1][0] if self.entries else self.base_lsn

    def _last_term(self):
        return self.entries[-1][1] if self.entries else self.base_term

    def _term_at(self, lsn):
        if lsn <= self.base_lsn:
            return self.base_term if lsn == self.base_lsn else None
        index = lsn - self.base_lsn - 1
        if index >= len(self.entries):
            return None
        return self.entries[index][1]

    def _truncate_from(self, lsn):
        if lsn <= self.commit_lsn:
            raise RuntimeError(
                "log-matching violation on {}: asked to truncate "
                "committed entry {} (commit_lsn={})".format(
                    self.name, lsn, self.commit_lsn))
        self.truncations += 1
        self.entries = [entry for entry in self.entries if entry[0] < lsn]

    def _adopt_term(self, term):
        self.term = term

    def _ack(self, message, ok, **extra):
        self.send(message.sender, "append_ack", dict(
            extra, term=self.term, ok=ok, match_lsn=self._last_lsn(),
            echo=message.payload["echo"], member=self.name,
        ))

    def _hears_leader(self, message):
        """Refuse (nack) an append from a stale term; otherwise adopt
        the sender's term and leadership.  Returns whether to go on."""
        payload = message.payload
        if payload["term"] < self.term:
            self._ack(message, False, stale=True)
            return False
        if payload["term"] > self.term:
            self._adopt_term(payload["term"])
        self.leader_name = payload["leader"]
        return True

    def _prev_mismatch(self, payload):
        """Log matching on the entry preceding the shipped suffix: None
        when it matches, ``"gap"`` when our log ends before it,
        ``"conflict"`` when we hold a different term there."""
        prev_lsn, prev_term = payload["prev"]
        if prev_lsn > self._last_lsn():
            return "gap"
        mine = self._term_at(prev_lsn)
        if mine is not None and mine != prev_term:
            return "conflict"
        return None

    def _reject(self, message, mismatch):
        """Nack a mismatched append, first truncating a conflicting
        (necessarily uncommitted) suffix."""
        if mismatch == "conflict":
            self._truncate_from(message.payload["prev"][0])
        self._ack(message, False)

    def _append_new(self, entries):
        """Append the entries we do not hold yet (duplicates skipped, a
        conflicting suffix truncated); returns the ones appended."""
        new = []
        for lsn, term, records in entries:
            if lsn <= self.base_lsn:
                continue
            have = self._term_at(lsn)
            if have == term:
                continue  # duplicate delivery
            if have is not None:
                self._truncate_from(lsn)
            entry = (lsn, term, records)
            self.entries.append(entry)
            new.append(entry)
        return new


class ConsensusFollower(MemberLog, Standby):
    """The data-holding voter of a metadata group.

    Extends :class:`~repro.storage.replication.Standby` with a proper
    replicated log: entries buffer above a snapshot base and only the
    quorum-committed prefix is applied to the tables, so a conflicting
    (necessarily uncommitted) suffix can still be truncated without
    un-applying anything.  It is the only member that can stand for
    election: on a full election-timeout of silence it pre-votes, then
    votes, then claims the slot with the coordinator's registry.
    """

    def __init__(self, env, network, name, slot, witness_name,
                 coordinator_name, rng, rpc_timeout_us=400.0,
                 table_names=("dentry", "inode")):
        super().__init__(env, network, name, table_names)
        self.init_member_log()
        self.slot = slot
        self.witness_name = witness_name
        self.coordinator_name = coordinator_name
        #: Seeded per-follower RNG (from ``shared.streams``) for the
        #: randomized election timeout draw.
        self.rng = rng
        self.rpc_timeout_us = rpc_timeout_us
        #: Bumped on every message from a live leader; the election
        #: loop compares epochs across its sleep instead of managing a
        #: cancellable timer.
        self.heard_epoch = 0
        self.elections_started = 0
        self.elections_won = 0
        self._running = False

    # -- message handling ------------------------------------------------

    def handle(self, message):
        if message.kind == "append_entries":
            yield from self._on_append(message)
        elif message.kind == "wal_ship":
            # Legacy shipping must never reach a consensus follower.
            self.ignored_shipments += 1
        else:
            yield from super().handle(message)

    def _on_append(self, message):
        payload = message.payload
        if self.promoted:
            # We are (becoming) the leader; a deposed sender's traffic
            # is noise.  Never ack it — an ack would renew its lease.
            self.ignored_shipments += 1
            return
        if not self._hears_leader(message):
            return
        self.heard_epoch += 1
        if self.catching_up:
            # A snapshot install is in flight and will reset the log
            # base; appends in the meantime are dropped (the leader's
            # heartbeat re-offers the suffix after the install).
            return
        if payload["base"][0] > self._last_lsn():
            # The leader's log starts above everything we have: only a
            # snapshot can catch us up.
            self.env.process(self._resync(payload["leader"]))
            return
        mismatch = self._prev_mismatch(payload)
        if mismatch:
            self._reject(message, mismatch)
            return
        new = self._append_new(payload["entries"])
        if new:
            # Durable append *before* the ack — quorum commit is only
            # meaningful if an ack certifies durability.
            nbytes = sum(self.costs.wal_record_bytes * len(records)
                         for _, _, records in new)
            yield self.env.fsync(
                self.costs.wal_fsync_us
                + nbytes * self.costs.wal_us_per_byte, nbytes)
            if self.halted or self.promoted:
                return
        commit = min(payload["commit_lsn"], self._last_lsn())
        if commit > self.commit_lsn:
            self.commit_lsn = commit
            applied = self._apply_committed()
            if applied:
                yield from self.execute(self.costs.index_insert_us * applied)
                if self.halted or self.promoted:
                    return
        self._ack(message, True)

    def _apply_committed(self):
        """Apply log entries up to the commit horizon; returns records
        applied.  This is the only path that touches the tables."""
        applied = 0
        for lsn, _, records in self.entries:
            if lsn <= self.applied_lsn:
                continue
            if lsn > self.commit_lsn:
                break
            applied += apply_records(self.tables, records)
            self.applied_lsn = lsn
        self.applied_records += applied
        return applied

    def force_apply_all(self):
        """Apply the *entire* log, including the uncommitted suffix: an
        elected follower's log is authoritative (:meth:`MNode.boot
        <repro.core.mnode.MNode.boot>`)."""
        self.commit_lsn = self._last_lsn()
        return self._apply_committed()

    # -- catch-up (snapshot resync) --------------------------------------

    def _resync(self, leader_name):
        if self.catching_up or self.promoted or self.halted:
            return
        try:
            yield from self.catch_up(leader_name)
        except RpcFailure:
            pass  # leader unreachable; the next heartbeat re-triggers

    def catch_up(self, primary_name, ctx=None):
        """Snapshot resynchronization, consensus flavor: installs the
        leader's tables and resets the log base to the snapshot point.
        Idempotent under duplicated/overlapping deliveries — a snapshot
        below the applied horizon is stale and refused (installing it
        would rewind past records the leader already pruned); one at
        exactly the horizon is the same state and installs."""
        if self.catching_up:
            return 0
        self.catching_up = True
        try:
            reply = yield self.call(primary_name, "snapshot", {}, ctx=ctx)
        except BaseException:
            self.catching_up = False
            raise
        snap_lsn = reply["lsn"]
        self.term = max(self.term, reply.get("term", 0))
        if self.promoted or snap_lsn < self.applied_lsn:
            self.catching_up = False
            return 0
        installed = self._install_snapshot(reply)
        self.commit_lsn = snap_lsn
        self.entries = []
        self.base_lsn = snap_lsn
        self.base_term = reply.get("term", 0)
        self._pending = {}
        self.catching_up = False
        yield from self.execute(self.costs.index_insert_us * installed)
        self.send(primary_name, "append_ack", {
            "term": self.term, "ok": True, "match_lsn": snap_lsn,
            "echo": None, "member": self.name,
        })
        return installed

    # -- elections -------------------------------------------------------

    def start_elections(self):
        if self._running:
            return
        self._running = True
        self.env.process(self._election_loop())

    def stop_elections(self):
        self._running = False

    def _election_loop(self):
        """Randomized election timer: sleep a seeded draw from
        ``[T, 2T]``; if no leader traffic arrived across the whole
        window (epoch unchanged), stand for election."""
        env = self.env
        clock = self.clock
        while self._running:
            timeout = self.rng.uniform(ELECTION_TIMEOUT_US,
                                       2.0 * ELECTION_TIMEOUT_US)
            epoch = self.heard_epoch
            yield env.timeout(clock.to_env_delay(timeout))
            fired_at = env.now
            if not self._running or self.promoted or self.halted:
                return
            while self.network.is_down(self.name) and not self.halted:
                yield self.network.resume_event(self.name)
            if self.halted or not self._running or self.promoted:
                return
            if self.heard_epoch != epoch or self.catching_up:
                continue
            yield from self._run_election(fired_at)
            if self.promoted:
                return

    def _request_vote(self, term, last, pre):
        """Generator: one (pre-)vote round trip to the witness; the
        reply, or None when the witness is unreachable."""
        try:
            reply = yield from deadline_call(
                self, NULL_CONTEXT, self.witness_name, "request_vote",
                {"term": term, "candidate": self.name,
                 "last": last, "pre": pre},
                timeout_us=self.rpc_timeout_us,
            )
        except RpcFailure:
            return None
        return reply

    def _run_election(self, fired_at):
        """Stand for election; ``fired_at`` is the instant the election
        timer fired, which the claim reports as the detection time."""
        self.elections_started += 1
        last = [self._last_lsn(), self._last_term()]
        # Pre-vote: probe electability (witness reachable, our log
        # up-to-date, leader actually silent) WITHOUT bumping the term,
        # so a partitioned follower cannot inflate terms and depose a
        # healthy leader the moment the partition heals.
        reply = yield from self._request_vote(self.term + 1, last, True)
        if reply is None or not reply["granted"]:
            return
        term = self.term + 1
        self.term = term
        reply = yield from self._request_vote(term, last, False)
        if reply is None:
            return
        if not reply["granted"]:
            self.term = max(self.term, reply["term"])
            return
        # Self + witness = 2-of-3: quorum.  Claim the slot — the
        # registry validates term monotonicity and runs the install
        # surgery synchronously before answering.
        try:
            claim = yield from deadline_call(
                self, NULL_CONTEXT, self.coordinator_name, "leader_claim",
                {"slot": self.slot, "term": term, "name": self.name,
                 "last": last, "detected_at": fired_at},
                timeout_us=self.rpc_timeout_us * 8,
            )
        except RpcFailure:
            return
        if not claim.get("ok"):
            self.term = max(self.term, claim.get("term", 0))
            return
        self.elections_won += 1


class Witness(MemberLog, Node):
    """Vote-only consensus member: durable ``(lsn, term)`` positions,
    no data.  Acks appends (after paying the fsync), grants at most one
    vote per term, and enforces the two election safety rules — log
    up-to-dateness and leader stickiness."""

    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.init_member_log()
        #: Candidate granted in the current term (one vote per term).
        self.voted_for = None
        #: Witness-clock instant of the last message from a live leader;
        #: votes are refused within ``ELECTION_TIMEOUT_US`` of it.
        self.last_heard = float("-inf")
        self.acked_appends = 0
        self.votes_granted = 0
        self.votes_refused = 0
        self.adoptions = 0

    def _adopt_term(self, term):
        self.term = term
        self.voted_for = None

    def handle(self, message):
        if message.kind == "append_entries":
            yield from self._on_append(message)
            return
        if message.kind == "request_vote":
            yield from self._on_vote(message)
            return
        refuse_unowned(self, message)

    def _on_append(self, message):
        payload = message.payload
        if not self._hears_leader(message):
            return
        self.last_heard = self.clock.now_us()
        mismatch = self._prev_mismatch(payload)
        if mismatch:
            if payload["prev"] != payload["base"]:
                self._reject(message, mismatch)
                return
            # The current-term leader's snapshot horizon: adopt it.
            # This is the witness's install-snapshot — the elected (or
            # restarted) leader's base is authoritative, and the vote
            # rule guarantees our positions never exceed an elected
            # leader's log.
            self.adoptions += 1
            self.entries = []
            self.base_lsn, self.base_term = payload["base"]
        new = self._append_new(
            (lsn, term, None) for lsn, term, _ in payload["entries"])
        if new:
            yield self.env.fsync(self.costs.wal_fsync_us,
                                 len(new) * self.costs.wal_record_bytes)
            if self.halted:
                return
        self.acked_appends += 1
        self._ack(message, True)

    def _on_vote(self, message):
        payload = message.payload
        yield from self.execute(self.costs.index_lookup_us)
        now = self.clock.now_us()
        heard_recently = (now - self.last_heard) < ELECTION_TIMEOUT_US
        c_lsn, c_term = payload["last"]
        up_to_date = (c_term, c_lsn) >= (self._last_term(),
                                         self._last_lsn())
        if payload.get("pre"):
            granted = (payload["term"] > self.term and up_to_date
                       and not heard_recently)
            self.respond(message, {"granted": granted, "term": self.term})
            return
        if payload["term"] < self.term:
            self.votes_refused += 1
            self.respond(message, {"granted": False, "term": self.term})
            return
        if payload["term"] > self.term:
            self._adopt_term(payload["term"])
        granted = (not heard_recently and up_to_date
                   and self.voted_for in (None, payload["candidate"]))
        if granted:
            self.voted_for = payload["candidate"]
            # Granting resets the stickiness window: no competing
            # candidate gets a vote while this election is in flight.
            self.last_heard = now
            self.votes_granted += 1
        else:
            self.votes_refused += 1
        self.respond(message, {"granted": granted, "term": self.term})


def term_positions(member):
    """``{lsn: term}`` for any consensus participant — leader log
    (:class:`ReplicatedLog`), data follower, or witness — including its
    base position.  Genesis (lsn 0) is excluded."""
    out = {lsn: term for lsn, term, _ in member.entries}
    if member.base_lsn > 0:
        out[member.base_lsn] = member.base_term
    return out


def log_matching_violations(named_maps):
    """Check the log-matching invariant across replicas.

    ``named_maps`` is ``[(name, {lsn: term}), ...]`` (from
    :func:`term_positions`).  For every pair, if the two agree on the
    term at some LSN they must agree at every common LSN below it.
    Returns a list of violation tuples
    ``(name_a, name_b, agreeing_lsn, diverging_lsn)`` — empty means the
    invariant holds."""
    violations = []
    for i in range(len(named_maps)):
        name_a, a = named_maps[i]
        for j in range(i + 1, len(named_maps)):
            name_b, b = named_maps[j]
            common = sorted(set(a) & set(b))
            agree = [lsn for lsn in common if a[lsn] == b[lsn]]
            disagree = [lsn for lsn in common if a[lsn] != b[lsn]]
            if agree and disagree and max(agree) > min(disagree):
                violations.append(
                    (name_a, name_b, max(agree), min(disagree)))
    return violations
