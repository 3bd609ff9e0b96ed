"""The FalconFS coordinator.

The coordinator owns namespace *changes* and cluster load balance:

* **rmdir / directory chmod** — it resolves the path on its own namespace
  replica, takes shared locks on the ancestors and an exclusive lock on
  the target, re-checks the path under them, and forwards execution to
  the directory's owner MNode, which drives the invalidation broadcast.
* **rename** — classic 2PL + 2PC across the source and destination owner
  MNodes, with an invalidation broadcast for directory renames.
* **statistical load balancing** (§4.2.2) — it gathers per-MNode inode
  counts and top-k filename frequencies, then iteratively redirects the
  most frequent filename on the most loaded node, choosing between
  path-walk and overriding redirection by whichever minimizes the new
  maximum.  It also shrinks the exception table when entries are no
  longer needed.
"""

import math
from functools import partial
from itertools import count

from repro.core.indexing import (
    ExceptionTable,
    HybridIndex,
    exception_table_to_wire,
)
from repro.core.replica import NamespaceReplicaMixin
from repro.net import Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import (CAT_PHASE, NULL_CONTEXT, OpContext, call_all,
                       deadline_call, redeliver)
from repro.obs.retry import ALL, REDELIVER, budget
from repro.storage import LockMode
from repro.vfs.pathwalk import split_path


#: The prepare failures after which a participant may hold a staged
#: vote: a timeout (the vote may still land) and ``ENOTLEADER``
#: (``MNode._ack`` answers it after the vote was staged).  Any other
#: refusal staged nothing.
_MAY_HOLD_A_VOTE = frozenset((RpcError.ETIMEDOUT, RpcError.ENOTLEADER))


class Coordinator(NamespaceReplicaMixin, Node):
    """The central coordinator node."""

    def __init__(self, env, network, shared):
        super().__init__(
            env, network, shared.coordinator_name,
            cores=shared.config.server_cores,
        )
        self.shared = shared
        self.init_replica()
        self.xt = ExceptionTable()
        self.index = HybridIndex(shared.num_slots, self.xt)
        self._txids = count(1)
        #: txid -> the decided actions of a committed rename, recorded
        #: *before* any commit is sent or the client is answered.  A
        #: participant left in doubt (its commit was black-holed by a
        #: fault) takes them from ``rename_resolve``; absence means no
        #: commit was ever sent, so the answer is presumed abort.  Held
        #: in memory: no schedule crashes the coordinator.
        self._rename_outcomes = {}
        self.rebalance_log = []
        #: One record per completed failover (timeline + lost window).
        self.failover_log = []
        #: Active slot handoffs: slot -> in-progress migration record.
        #: Failover is deferred for any node acting as a handoff source
        #: or destination — promoting mid-handoff would resurrect a
        #: fenced slot from the standby's pre-fence state.
        self.migrations = {}
        #: One record per finished (committed or aborted) slot handoff.
        self.migration_log = []
        #: Serializes slot handoffs: one saga owns the epoch at a time,
        #: so the fence-advertised epoch is exactly the one the final
        #: ``assign`` installs.
        self._migration_mutex = env.resource(capacity=1)
        #: Consensus-mode membership registry: slot -> {"term", "leader"}.
        #: Under consensus the coordinator no longer *ordains* promotion;
        #: it only validates term monotonicity on leader claims and
        #: remembers who currently leads each directory slot.
        self.consensus_registry = {}
        #: The one install hook, set by the cluster: ``hook(slot, grant,
        #: claim=None) -> (new_node, lost_txns)`` boots a new primary
        #: from the slot's replica under ``grant`` (:meth:`_grant`),
        #: ordained (:meth:`fail_over`) or elected (the ``claim``).
        self.install_leader = None

    # ------------------------------------------------------------------
    # path helpers
    # ------------------------------------------------------------------

    def _resolve_and_lock(self, paths, cpu_us, ctx=None):
        """Generator: resolve the parent chain of each of ``paths``, take
        every lock in one sorted acquisition (S on each chain, X on each
        target), re-check every chain under them, as a merged MNode batch
        does, and charge ``cpu_us`` plus the grants.  Returns each
        target's ``(pid, name)`` and the grants the caller releases.
        Raises ``ERETRY`` when a concurrent change made a chain stale,
        and ``EINVAL`` for two paths naming one key."""
        chains, keys = [], []
        for components in paths:
            resolved = yield from self.resolve_dir(components[:-1], ctx=ctx)
            chains.append(resolved.chain)
            keys.append((resolved.ino, components[-1]))
        if len(set(keys)) < len(keys):
            raise RpcFailure(RpcError.EINVAL, "rename onto itself")
        requests = {("d",) + key: LockMode.EXCLUSIVE for key in keys}
        for chain in chains:
            for dkey, _, _ in chain:
                requests.setdefault(dkey, LockMode.SHARED)
        grants = []
        try:
            yield from self.locks.acquire_all(sorted(requests.items()),
                                              grants, ctx=ctx)
            if not all(map(self.chain_valid, chains)):
                raise RpcFailure(RpcError.ERETRY, "stale path")
            yield from self.execute(
                cpu_us + len(grants) * self.costs.lock_acquire_us, ctx=ctx)
        except BaseException:
            self.locks.release_all(grants)
            raise
        return keys, grants

    def _drop_dentry(self, key):
        """Forget our replica entry for ``key``, discarding any fetch of
        it in flight; the next resolution asks its owner."""
        self.dentries.delete(key)
        self.inval_seq[("d",) + key] += 1

    def _give_up_at(self, ctx):
        """When a call made now gives up (the RPC timeout or the op
        deadline), or None."""
        remaining = budget(self, ctx, self.rpc_timeout_us)
        return None if remaining == math.inf else self.env.now_us() + remaining

    def _owner(self, pid, name):
        return self.shared.mnode_name(self.index.locate(pid, name))

    # ------------------------------------------------------------------
    # client-facing namespace changes
    # ------------------------------------------------------------------

    def _directory_change(self, message, exec_kind, extra=None,
                          cpu_us=None):
        """Generator: the rmdir / directory-chmod skeleton.  Resolve,
        lock and re-check the path, charge ``cpu_us`` of bookkeeping,
        have the directory's owner execute ``exec_kind`` — it drives the
        invalidation broadcast (§4.3) — and drop our replica entry
        before the locks go.  The owner gets ``2 * rpc_timeout_us``,
        above its own invalidation round, and refuses an exec whose
        locks it gets after the ``deadline`` it carries, one
        ``rpc_timeout_us`` in: no exec starts once our locks are gone."""
        payload = message.payload
        ctx = message.ctx
        try:
            components = split_path(payload["path"])
            if not components:
                raise RpcFailure(RpcError.EINVAL, message.kind + " /")
            (key,), grants = yield from self._resolve_and_lock(
                [components],
                self.costs.resolve_component_us * len(components), ctx=ctx)
        except (ValueError, RpcFailure) as failure:
            if not isinstance(failure, RpcFailure):
                failure = RpcFailure(RpcError.EINVAL, payload["path"])
            self.respond_error(message, failure)
            return
        try:
            if cpu_us is not None:
                yield from self.execute(cpu_us, ctx=ctx)
            yield from deadline_call(
                self, ctx, self._owner(*key), exec_kind,
                dict(extra or {}, pid=key[0], name=key[1],
                     path=payload["path"], deadline=self._give_up_at(ctx)),
                timeout_us=self.rpc_timeout_us and 2 * self.rpc_timeout_us)
            self._drop_dentry(key)
        except RpcFailure as failure:
            if failure.code == RpcError.ETIMEDOUT:
                self._drop_dentry(key)
            self.respond_error(message, failure)
            return
        finally:
            self.locks.release_all(grants)
        self.metrics.counter("ops").inc(message.kind)
        self.respond(message, {"ok": True})

    def _on_rmdir(self, message):
        # Per-MNode invalidation bookkeeping at the coordinator: the
        # cluster-size-proportional share of rmdir's overhead (§6.2).
        yield from self._directory_change(
            message, "rmdir_exec",
            cpu_us=(self.costs.invalidate_apply_us * 2
                    * self.shared.config.num_mnodes))

    def _on_chmod_dir(self, message):
        yield from self._directory_change(
            message, "chmod_exec", {"mode": message.payload["mode"]})

    def _on_rename(self, message):
        payload = message.payload
        ctx = message.ctx
        grants = []
        try:
            src = split_path(payload["src"])
            dst = split_path(payload["dst"])
            if not src or not dst:
                raise RpcFailure(RpcError.EINVAL, "rename involving /")
            if dst[:len(src)] == src:
                # Moving a directory into its own subtree would orphan
                # the whole subtree (classic EINVAL).
                raise RpcFailure(
                    RpcError.EINVAL, "rename into own subtree"
                )
            (skey, dkey), grants = yield from self._resolve_and_lock(
                [src, dst], 2 * self.costs.two_phase_round_us, ctx=ctx)
            yield from self._rename_2pc(message, skey, dkey, grants)
        except RpcFailure as failure:
            self.respond_error(message, failure)
        except ValueError:
            self.respond_error(
                message, RpcFailure(RpcError.EINVAL, str(payload))
            )
        finally:
            self.locks.release_all(grants)

    def _prepare(self, txid, plans, ctx):
        """Generator: the prepare round — one ``rename_prepare`` per
        participant of ``plans`` (``(slot, owner, actions)``), all sent
        at once, marked ``commit`` when one participant holds every
        action; returns the yes votes in plan order.  If any participant
        refuses (``ENOENT``/``EEXIST``, or ``ERETRY`` when a key of a
        two-participant rename is busy) or is unreachable, every
        participant that may hold a vote — it voted yes, timed out, or
        answered ``ENOTLEADER`` after staging — is aborted, and the
        first failure in plan order — the source's before the
        destination's — is raised.

        The round is bounded by the per-attempt RPC timeout and the op
        deadline, whichever is set, and each prepare carries the instant
        it gives up: a participant refuses one it picks up later (our
        abort may have come and gone), and once voted resolves itself
        after it."""
        deadline = self._give_up_at(ctx)
        calls = []
        for _, owner, actions in plans:
            payload = {"txid": txid, "actions": actions, "deadline": deadline}
            if len(plans) == 1:
                payload["commit"] = True
            calls.append((owner, payload))
        votes = yield from call_all(self, ctx, "rename_prepare", calls,
                                    timeout_us=self.rpc_timeout_us)
        failure = next((vote for vote in votes
                        if isinstance(vote, RpcFailure)), None)
        if failure is not None:
            # A refusal staged nothing and needs no abort.
            yield from self._abort(txid, [
                owner for (_, owner, _), vote in zip(plans, votes)
                if not isinstance(vote, RpcFailure)
                or vote.code in _MAY_HOLD_A_VOTE])
            raise failure
        return votes

    def _abort(self, txid, owners):
        """Generator: the abort round — one ``rename_abort`` to each of
        ``owners``, all at once.  It carries no op context, so it is
        bounded by the per-call timeout alone and no participant sheds
        it as expired: a rename whose op deadline is spent still frees
        its voted halves.  Best effort: no outcome is recorded, so a
        participant whose abort is lost resolves to presumed abort
        itself."""
        yield from call_all(self, None, "rename_abort", [
            (owner, {"txid": txid}) for owner in owners],
            timeout_us=self.rpc_timeout_us)

    def _on_rename_resolve(self, message):
        """A participant terminating an in-doubt prepared transaction:
        report the recorded outcome with its decided actions, or
        presumed abort when none — no commit can have been sent before
        the outcome was recorded."""
        actions = self._rename_outcomes.get(message.payload["txid"])
        self.respond(message, {"state": "abort"} if actions is None
                     else {"state": "commit", "actions": actions})

    def _rename_2pc(self, message, skey, dkey, grants):
        """Generator: two participant rounds.  The prepare round asks
        each owner to vote on every key it holds — the source's delete
        (its vote returns the moved row) and the destination's insert
        (a reservation of the free key) — and the commit round hands
        each owner its decided actions, the insert now carrying the
        row.

        A file rename is answered at its decision: the commit round
        runs behind the answer (:meth:`_commit_behind`), holding the
        key ``grants`` until it ends.  A directory rename is answered
        after its commit round, which installs the dentry its peers
        resolve the new name from.

        When one owner holds both keys its prepare is marked ``commit``:
        a file rename applies in the vote's own write and answers
        ``applied`` — one round, nothing in doubt — and a directory
        rename votes as usual, since its peers must be invalidated
        before it commits."""
        ctx = message.ctx or NULL_CONTEXT
        txid = "rn-{}".format(next(self._txids))
        src_slot = self.index.locate(*skey)
        dst_slot = self.index.locate(*dkey)
        src_owner = self.shared.mnode_name(src_slot)
        dst_owner = self.shared.mnode_name(dst_slot)
        delete = {"action": "delete", "key": skey}
        insert = {"action": "insert", "key": dkey}
        if dst_owner == src_owner:
            plans = [(src_slot, src_owner, [delete, insert])]
        else:
            plans = [(src_slot, src_owner, [delete]),
                     (dst_slot, dst_owner, [insert])]
        with ctx.span("2pc", CAT_PHASE, node=self.name,
                      attrs={"txid": txid} if ctx.traced else None):
            votes = yield from self._prepare(txid, plans, ctx)
            if not votes[0].get("applied"):
                record = votes[0]["record"]
                plans = yield from self._decide(ctx, txid, plans, delete,
                                                insert, record)
                if record.is_dir:
                    failure = yield from self._commit(ctx, txid, plans)
                    if failure is not None:
                        # Decided and will apply everywhere (the round
                        # re-delivers), but the new name's
                        # dentry may not be installed yet.
                        raise failure
                else:
                    self.env.process(self._commit_behind(
                        ctx, txid, plans, grants[:]))
                    del grants[:]
        self.metrics.counter("ops").inc("rename")
        self.respond(message, {"ok": True})

    def _decide(self, ctx, txid, plans, delete, insert, record):
        """Generator: decide a voted rename of ``record`` — after
        invalidating a renamed directory's dentry at every peer — and
        record the decision; returns the plans with their decided
        actions.  If a peer fails the invalidation, nothing is decided:
        both voted halves are aborted at once and the failure is
        raised."""
        if record.is_dir:
            # Invalidate the source dentry everywhere, with our votes
            # held (so no peer waits for a lock).  The source's owner
            # holds it locked and deletes it at commit; the
            # destination's owner only inserts the new key, so its
            # replica of the source is invalidated like a peer's.
            skey = delete["key"]
            owners = [owner for _, owner, _ in plans]
            peers = [peer for peer in self.shared.mnode_names
                     if peer != owners[0]]
            try:
                if peers:
                    yield from call_all(self, ctx, "invalidate", [
                        (peer, {"keys": [skey], "wait": False})
                        for peer in peers],
                        timeout_us=self.rpc_timeout_us, rule=ALL)
            except RpcFailure:
                yield from self._abort(txid, owners)
                raise
            self._drop_dentry(skey)
        # Commits carry the decided actions so a participant that never
        # held the voted row (an asynchronous promotion lost it) can
        # still apply its half — 2PC must not leave the source record
        # alive on one owner with the destination copy already committed
        # on the other.
        decision = {"delete": dict(delete, ino=record.ino),
                    "insert": dict(insert, record=record)}
        # The decision is recorded before any commit is sent, and
        # before the client is answered: a participant that never hears
        # it terminates via ``rename_resolve`` and takes its actions
        # from here.  No participant lock is taken after it.
        self._rename_outcomes[txid] = list(decision.values())
        return [(slot, owner, [decision[action["action"]]
                               for action in actions])
                for slot, owner, actions in plans]

    def _commit(self, ctx, txid, plans):
        """Generator: the commit round — every participant's decided
        actions sent at once under the ``redeliver`` rule.  A
        participant that is unreachable or runs out of time gets the
        decision re-delivered in the background, addressed by slot so
        it follows a promotion to the slot's new primary (the applied
        marker makes a re-delivered half a no-op ack).  Returns the last
        failure, or None."""
        acks = yield from call_all(self, ctx, "rename_commit", [
            (owner, {"txid": txid, "actions": actions},
             partial(self.shared.mnode_name, slot))
            for slot, owner, actions in plans],
            timeout_us=self.rpc_timeout_us, rule=REDELIVER)
        return next((ack for ack in reversed(acks)
                     if isinstance(ack, RpcFailure)), None)

    def _commit_behind(self, ctx, txid, plans, grants):
        """Process: the commit round of a file rename already answered
        at its decision, under the op's deadline but in a trace of its
        own (root ``rename.commit``), so the answered op is not charged
        for it.  Holds the key ``grants`` until the round ends: a later
        rename of either key queues on them, and every participant half
        is applied or handed off for re-delivery by then."""
        round_ctx = OpContext(self.env, "rename.commit", origin=self.name,
                              tracer=ctx.tracer, deadline=ctx.deadline)
        round_ctx.begin(category=CAT_PHASE,
                        attrs={"txid": txid} if round_ctx.traced else None)
        try:
            yield from self._commit(round_ctx, txid, plans)
        finally:
            self.locks.release_all(grants)
            round_ctx.finish()

    # ------------------------------------------------------------------
    # failover (promote a standby into the MNode ring)
    # ------------------------------------------------------------------

    def fail_over(self, index):
        """Generator: recover from the death of MNode ``index`` by
        promoting its standby through :attr:`install_leader`.

        After promotion the coordinator repairs the cluster around the
        new primary: survivors invalidate their replica dentries for the
        failed shard (they may predate the standby's state), the
        coordinator does the same on its own replica, and an fsck sweep
        garbage-collects inodes orphaned by the lost window (a child
        created on a survivor whose parent directory died unshipped).

        If the slot is answering again by the time this runs — the
        crashed node redo-replayed its durable WAL and resumed before
        promotion could begin — the promotion is **suppressed**: the
        recovered primary holds every fsynced transaction, strictly more
        than its standby, so replacing it would manufacture data loss.
        """
        detected_at = self.env.now
        failed_name = self.shared.node_name(index)
        involved = (self.migrations_involving(index)
                    if self.network.is_down(failed_name) else [])
        if involved:
            # The node is mid-handoff (source or destination of an
            # active slot migration).  Promotion now would install the
            # standby's pre-fence image and resurrect (or erase) the
            # migrating slot, so recovery is deferred: the detector
            # keeps re-declaring the node until the saga finishes
            # (committed, aborted, or completed by re-delivery once the
            # node restarts), and only then does failover proceed.
            return self.log_failover(
                "failovers_deferred_migration", index, failed_name,
                detected_at, deferred=True, migrating_slot=involved[0])
        if not self.network.is_down(failed_name):
            # Redo won the race: the restarted node already owns the
            # slot with its durable state intact.
            return self.log_failover(
                "failovers_suppressed", index, failed_name, detected_at,
                promoted=failed_name, suppressed=True,
                promoted_at=self.env.now, recovered_at=self.env.now)
        new_node, lost_txns = self.install_leader(index, self._grant())
        promoted_at = self.env.now
        # Hash slots hosted at promotion time: the oracle's loss windows
        # must cover every slot the promoted standby now serves, not
        # just the identity slot.  Stable between crash and promotion —
        # migrations involving a down node are deferred above.
        hosted = sorted(self.shared.slot_map.slots_of(index))
        orphans_removed = yield from self._repair_slot(index, new_node.name)
        return self.log_failover(
            "failovers", index, failed_name, detected_at,
            promoted=new_node.name, promoted_at=promoted_at,
            recovered_at=self.env.now, lost_txns=lost_txns,
            orphans_removed=orphans_removed, slots=hosted)

    def log_failover(self, counter, index, failed, detected_at, **fields):
        """Append one failover record — a promotion, an election, a
        suppression or a deferral — carrying the fields every consumer
        reads, count it under ``counter`` and return it."""
        record = {"index": index, "failed": failed, "promoted": None,
                  "detected_at": detected_at, "lost_txns": 0,
                  "orphans_removed": 0}
        record.update(fields)
        self.failover_log.append(record)
        self.metrics.counter(counter).inc()
        return record

    def _repair_slot(self, index, new_name):
        """Generator: repair the cluster around node ``index``'s new
        primary — survivors drop their replica dentries for every
        directory slot the node hosts, the coordinator drops its own,
        and an fsck sweep collects orphans from any lost window.
        Returns orphans removed."""
        slots = set(self.shared.slot_map.slots_of(index))
        if slots:
            # Re-delivered to a survivor that misses the round until it
            # acks or leaves the cluster.
            yield from call_all(self, None, "invalidate_owner", [
                (peer, {"slots": sorted(slots)}, partial(self._member, peer))
                for peer in self.shared.mnode_names if peer != new_name],
                timeout_us=self.rpc_timeout_us, rule=REDELIVER)
        own_stale = [
            key for key, record in self.dentries.scan()
            if self.index.locate(key[0], key[1]) in slots
        ]
        yield from self.apply_invalidation(own_stale)
        orphans_removed = yield from self.fsck()
        return orphans_removed

    def _member(self, name):
        """``name`` while it names an MNode of the cluster, else None."""
        return name if name in self.shared.mnode_names else None

    # ------------------------------------------------------------------
    # elastic namespace: online slot handoff
    # ------------------------------------------------------------------

    def migrations_involving(self, node_index):
        """Slots whose active handoff has ``node_index`` as source or
        destination (failover against either is deferred)."""
        return sorted(
            slot for slot, rec in self.migrations.items()
            if node_index in (rec["src"], rec["dst"])
        )

    def _slot_call(self, node_index, kind, payload, attempts=1):
        """Generator: one migration-step RPC, bounded by the per-attempt
        RPC timeout when the cluster configures one and addressed by
        node index, so delivery follows a crash-restart.  ``attempts``
        bounds the tries before the failure propagates and the caller
        aborts the saga; None re-delivers until acknowledged — the steps
        past the point of no return (activate, purge, the abort's own
        rollback) are idempotent and must eventually apply: aborting
        would erase writes the destination may already have acked."""
        reply = yield from redeliver(
            self, lambda: self.shared.node_name(node_index), kind, payload,
            timeout_us=self.rpc_timeout_us, attempts=attempts,
        )
        return reply

    def _slot_abort(self, slot, src, dst, record):
        """Generator: roll a handoff that failed in ``record["phase"]``
        back to the source.

        Once an install was attempted the destination discards its
        partial copy (idempotent if it never landed), and the source
        reclaims hosting (idempotent if the fence never landed).  Both
        are re-delivered until acknowledged: an un-rolled-back fence
        would leave the slot unhosted everywhere.  A failed fence may
        have exposed the advertised epoch to clients, so the slot is
        re-assigned to its source, superseding any ``EMOVED`` hint a
        client adopted before the abort."""
        phase = record["aborted_phase"] = record["phase"]
        record["status"] = "aborted"
        if phase != "snapshot":
            yield from self._slot_call(dst, "slot_discard", {"slot": slot},
                                       attempts=None)
        yield from self._slot_call(src, "slot_reclaim", {"slot": slot},
                                   attempts=None)
        if phase == "fence":
            # Two bumps, not one: the first lands exactly on the epoch
            # the fence advertised, and patches only apply on a
            # *strictly newer* per-slot version — a client that adopted
            # the advertised hint must still accept this correction.
            self.shared.slot_map.assign(slot, src)
            record["epoch"] = self.shared.slot_map.assign(slot, src)
        self.metrics.counter("slot_migrations_aborted").inc()

    def migrate_slot(self, slot, dest, reason="manual"):
        """Generator: move directory slot ``slot`` to physical node
        ``dest`` under live traffic.  Handoffs are serialized; returns
        the migration record (``status`` "committed" or "aborted"), or
        None for a no-op request."""
        mutex = self._migration_mutex.request()
        yield mutex
        try:
            record = yield from self._migrate_slot_body(slot, dest,
                                                        reason)
        finally:
            self._migration_mutex.release(mutex)
        return record

    def _migrate_slot_body(self, slot, dest, reason):
        """Generator: the handoff saga.

        1. **snapshot** — the source copies the slot's inode records
           and names ``since``, the WAL position (in its incarnation's
           log) above which every write the copy lacks sits.
        2. **install** — the destination durably applies the snapshot
           and marks the slot *pending* (bounces requests ``ERETRY``).
        3. **fence** — the source atomically stops serving the slot,
           drains in-flight writers, durably marks it *moved* and
           returns the delta it reads from its WAL above ``since``;
           from here it bounces requests with ``EMOVED`` naming the
           destination and the epoch the move will install.  Retried
           like steps 1-2: a source restarted since the snapshot reads
           the same delta, a promoted one refuses the foreign ``since``.
        4. **activate** — the destination applies the delta and marks
           the slot *active* in one transaction, then serves it.  This
           is the point of no return: activation is re-delivered until
           acknowledged (never aborted — the destination may already
           have acked client writes).
        5. The authoritative slot map adopts the assignment (epoch
           bump = exactly the fence-advertised epoch, since sagas are
           serialized), and the source purges its dead copy.

        A failure in steps 1-3 aborts: destination discards, source
        reclaims, and — after a fence may have leaked the advertised
        epoch — the epoch is burned by re-assigning the slot to its
        source."""
        src = self.shared.slot_map.node_of(slot)
        if (dest == src or not 0 <= dest < len(self.shared.mnode_names)
                or not 0 <= slot < self.shared.num_slots):
            return None
        record = {
            "slot": slot, "src": src, "dst": dest, "reason": reason,
            "started_at": self.env.now, "status": "running",
            "phase": "snapshot",
        }
        self.migrations[slot] = record
        try:
            try:
                snapshot = yield from self._slot_call(
                    src, "slot_snapshot", {"slot": slot}, attempts=4)
                record["phase"] = "install"
                yield from self._slot_call(
                    dest, "slot_install",
                    {"slot": slot, "image": snapshot["image"]},
                    attempts=4)
                record["phase"] = "fence"
                advertised = self.shared.slot_map.epoch + 1
                reply = yield from self._slot_call(
                    src, "slot_fence",
                    {"slot": slot, "node": dest, "epoch": advertised,
                     "since": snapshot["since"],
                     "incarnation": snapshot["incarnation"]},
                    attempts=4)
            except RpcFailure:
                yield from self._slot_abort(slot, src, dest, record)
                return record
            record["fenced_at"] = self.env.now
            record["delta_txns"] = len(reply["delta"])
            record["phase"] = "activate"
            yield from self._slot_call(
                dest, "slot_activate",
                {"slot": slot, "delta": reply["delta"]}, attempts=None)
            record["activated_at"] = self.env.now
            record["epoch"] = self.shared.slot_map.assign(slot, dest)
            record["status"] = "committed"
            record["phase"] = "purge"
            yield from self._slot_call(src, "slot_purge", {"slot": slot},
                                       attempts=None)
            record["phase"] = "done"
            self.metrics.counter("slot_migrations").inc()
            return record
        finally:
            self.migrations.pop(slot, None)
            record["finished_at"] = self.env.now
            self.migration_log.append(record)

    def rebalance_slots(self, max_moves=8, reason="rebalance"):
        """Generator: migrate whole directory slots off the most loaded
        nodes onto the least loaded until every node is within the
        (1/n + epsilon) bound, the move budget runs out, or no single
        slot strictly improves the maximum.  This is the elastic
        counterpart of :meth:`rebalance`: that one re-hashes individual
        hot *filenames* through the exception table; this one moves
        *slots* between nodes (e.g. onto freshly added ones) without
        touching placement hashing at all.  Returns the committed
        migration records."""
        moves = []
        for _ in range(max_moves):
            stats = yield from self._gather_stats()
            if stats is None:
                break
            counts = [s["inode_count"] for s in stats]
            total = sum(counts)
            if total == 0:
                break
            imax = max(range(len(counts)), key=counts.__getitem__)
            imin = min(range(len(counts)), key=counts.__getitem__)
            if counts[imax] <= self._bound(total):
                break
            gap = counts[imax] - counts[imin]
            slot_counts = stats[imax].get("slot_counts", {})
            hosted = stats[imax].get("hosted_slots", [])
            chosen = None
            for cnt, slot in sorted(
                    ((slot_counts.get(slot, 0), slot)
                     for slot in hosted), reverse=True):
                if 0 < cnt < gap:
                    # Largest slot that still strictly improves the
                    # maximum: dest ends below the source's old count.
                    chosen = slot
                    break
            if chosen is None:
                break
            record = yield from self.migrate_slot(chosen, imin,
                                                  reason=reason)
            if record is None or record.get("status") != "committed":
                break
            moves.append(record)
        return moves

    # ------------------------------------------------------------------
    # consensus membership registry (the demoted coordinator role)
    # ------------------------------------------------------------------

    def register_leader(self, slot, term, leader):
        """Record a group's initial leadership."""
        self.consensus_registry[slot] = {"term": term, "leader": leader}

    def _grant(self, term=None):
        """What an incarnation taking a slot is handed: the primary role,
        the exception table and, under consensus, the term it leads
        under."""
        grant = {"role": "primary", "xt": exception_table_to_wire(self.xt)}
        if term is not None:
            grant["term"] = term
        return grant

    def _on_register(self, message):
        """A machine that came back asks for its role.  If the directory
        still names it for slot ``index``, it is primary again, under
        consensus with a bumped term (it must never append under a term
        a successor may have claimed; a re-delivery bumps again); else
        it is the replica of the slot's owner."""
        p = message.payload
        index = p["index"]
        owner = self.shared.node_name(index)
        if owner != p["incarnation"]:
            self.respond(message, {"role": "standby", "of": owner})
            return
        entry = self.consensus_registry.get(index)
        if entry is not None:
            entry["term"] += 1
            entry["leader"] = owner
        self.respond(message, self._grant(entry and entry["term"]))

    def _on_leader_claim(self, message):
        """An elected candidate registering its leadership.

        The coordinator validates only *term monotonicity* — consensus
        safety lives in the vote rule, not here.  A valid claim runs the
        cluster's install hook synchronously (the candidate becomes the
        slot's primary before we reply, so the reply doubles as the
        installation ack), then repairs the cluster around the new
        primary exactly as ordained failover does.  The record's
        ``detected_at`` is the instant the candidate's election timer
        fired (the claim carries it); ``promoted_at`` is this claim's.
        """
        p = message.payload
        slot, term = p["slot"], p["term"]
        entry = self.consensus_registry[slot]
        if term <= entry["term"]:
            # A stale claim (the candidate lost a race, or a zombie is
            # re-asserting an old term).  Tell it the current term so it
            # can step back down.
            self.respond(message, {"ok": False, "term": entry["term"]})
            return
        promoted_at = self.env.now
        deposed = entry["leader"]
        new_node, lost_txns = self.install_leader(slot, self._grant(term), p)
        entry["term"] = term
        entry["leader"] = new_node.name
        orphans_removed = yield from self._repair_slot(slot, new_node.name)
        self.log_failover(
            "elections", slot, deposed, p["detected_at"],
            promoted=new_node.name, elected=True, term=term,
            promoted_at=promoted_at, recovered_at=self.env.now,
            lost_txns=lost_txns, orphans_removed=orphans_removed)
        self.respond(message, {"ok": True, "term": term})

    def fsck(self):
        """Generator: sweep and delete unreachable inodes cluster-wide.

        Scans every MNode's inode table, walks the directory tree from
        the root, and deletes entries whose parent directory no longer
        exists (recursively: an orphaned directory takes its whole
        subtree with it).  Replica dentries for deleted directories are
        invalidated everywhere first.  Returns the number of entries
        removed.  Every round runs under the ``all`` rule: when an MNode
        fails the scan, the invalidation or the delete, the sweep stops
        there and returns 0.
        """
        from repro.vfs.attrs import ROOT_INO

        names = list(self.shared.mnode_names)
        replies = yield from self._poll("fsck_scan", {})
        if replies is None:
            return 0
        by_parent = {}
        holder = {}
        info = {}
        for name, reply in zip(names, replies):
            for key, record in zip(*reply["inode"]):
                holder[key] = name
                info[key] = (record.ino, record.is_dir)
                by_parent.setdefault(key[0], []).append(key)
        reachable_dirs = {ROOT_INO}
        frontier = [ROOT_INO]
        while frontier:
            pid = frontier.pop()
            for key in by_parent.get(pid, ()):
                ino, is_dir = info[key]
                if is_dir and ino not in reachable_dirs:
                    reachable_dirs.add(ino)
                    frontier.append(ino)
        orphans = {}
        orphan_dir_keys = []
        for key, name in sorted(holder.items()):
            if key[0] not in reachable_dirs:
                orphans.setdefault(name, []).append(key)
                if info[key][1]:
                    orphan_dir_keys.append(key)
        if not orphans:
            return 0
        if orphan_dir_keys:
            # Replica dentries pointing into a removed subtree must not
            # stay VALID anywhere.
            if (yield from self._poll("invalidate",
                                      {"keys": orphan_dir_keys})) is None:
                return 0
            yield from self.apply_invalidation(orphan_dir_keys)
        try:
            replies = yield from call_all(self, None, "fsck_delete", [
                (name, {"keys": keys})
                for name, keys in sorted(orphans.items())],
                timeout_us=self.rpc_timeout_us, rule=ALL)
        except RpcFailure:
            return 0
        removed = sum(reply["removed"] for reply in replies)
        self.metrics.counter("fsck_orphans").inc(amount=removed)
        return removed

    # ------------------------------------------------------------------
    # statistical load balancing (§4.2.2)
    # ------------------------------------------------------------------

    def _top_k(self):
        n = self.shared.config.num_mnodes
        return max(8, int(math.ceil(n * math.log2(max(2, n)))))

    def _gather_stats(self):
        stats = yield from self._poll("stats", {"top_k": self._top_k()})
        return stats

    def _poll(self, kind, payload):
        """Generator: ``kind`` to every MNode under the ``all`` rule —
        the replies in MNode order, or None when one failed or timed
        out (the caller ends its pass)."""
        try:
            replies = yield from call_all(self, None, kind, [
                (name, payload) for name in self.shared.mnode_names],
                timeout_us=self.rpc_timeout_us, rule=ALL)
        except RpcFailure:
            return None
        return replies

    def _bound(self, total):
        n = self.shared.config.num_mnodes
        return (1.0 / n + self.shared.config.epsilon) * total

    def rebalance(self, max_rounds=64):
        """Generator: run the load-balancing loop until no node exceeds
        the (1/n + epsilon) bound or no candidate move makes progress.

        Each round redirects the most frequent filename on the most
        loaded node, choosing the method that minimizes the new maximum
        (§4.2.2), with two convergence safeguards: a move must strictly
        improve the maximum, and a filename whose frequency exceeds a
        node's fair share escalates to path-walk redirection even when a
        pin looks locally better — the §A.1 regime where only spreading
        the name can balance the namespace.  Returns a report dict.
        """
        moves = []
        counts = []
        attempted = set()
        for _ in range(max_rounds):
            stats = yield from self._gather_stats()
            if stats is None:
                break
            counts = [s["inode_count"] for s in stats]
            total = sum(counts)
            if total == 0:
                break
            imax = max(range(len(counts)), key=counts.__getitem__)
            if counts[imax] <= self._bound(total):
                break
            imin = min(range(len(counts)), key=counts.__getitem__)
            move = self._plan_move(stats, counts, imax, imin, total,
                                   attempted)
            if move is None:
                break
            name, freq, method = move
            attempted.add((name, method))
            yield from self._apply_redirection(name, method, imin)
            moves.append({"name": name, "method": method, "count": freq,
                          "from": imax, "to": imin})
        self.rebalance_log.extend(moves)
        return {"moves": moves, "counts": counts}

    def _plan_move(self, stats, counts, imax, imin, total, attempted):
        """The best (name, freq, method) for this round, or None."""
        fair_share = total / len(counts)
        for name, freq in stats[imax]["top_filenames"]:
            if name in self.xt.pathwalk:
                continue
            method, estimate = self._choose_method(counts, imax, imin,
                                                   freq)
            if estimate < counts[imax] and (name, method) not in attempted:
                return name, freq, method
            if (freq >= fair_share
                    and (name, "pathwalk") not in attempted):
                # A single filename larger than a node's fair share can
                # only be balanced by spreading it (§A.1).
                return name, freq, "pathwalk"
        return None

    def _choose_method(self, counts, imax, imin, freq):
        """Redirection minimizing the post-move maximum count.

        Returns ``(method, estimated_new_max)``.  Ties favor overriding
        redirection: it keeps one-hop access, while path-walk redirection
        costs an extra hop per operation.
        """
        n = len(counts)
        pathwalk_counts = [
            c - freq + freq / n if i == imax else c + freq / n
            for i, c in enumerate(counts)
        ]
        override_counts = list(counts)
        override_counts[imax] -= freq
        override_counts[imin] += freq
        if max(override_counts) <= max(pathwalk_counts):
            return "override", max(override_counts)
        return "pathwalk", max(pathwalk_counts)

    def _apply_redirection(self, name, method, target_index):
        """Generator: redirect one filename by path-walk, or by
        overriding it onto ``target_index``."""
        if method == "pathwalk":
            update_table = partial(self.xt.add_pathwalk, name)
        else:
            update_table = partial(self.xt.add_override, name, target_index)
        yield from self._migrate(name, update_table)

    def _migrate(self, name, update_table):
        """Generator: move ``name``'s inodes across ``update_table``'s
        change, in two fan-outs to every MNode, serialized with the slot
        handoffs (both move rows between nodes):

        1. ``migrate_collect`` blocks the name and removes and returns
           the node's inodes with it;
        2. after the table change here, ``migrate_install`` hands each
           node the new table, which it adopts before it installs the
           inodes that table places on it and unblocks the name.
        """
        mutex = self._migration_mutex.request()
        yield mutex
        try:
            # No timer on either round: a collect's reply carries the
            # rows it removed, and dropping it at a deadline loses them.
            mnodes = self.shared.mnode_names
            replies = yield from call_all(self, None, "migrate_collect", [
                (node, {"name": name}) for node in mnodes], rule=ALL)
            entries = [e for reply in replies for e in reply["entries"]]
            update_table()
            table = exception_table_to_wire(self.xt)
            by_node = {node: [] for node in mnodes}
            for entry in entries:
                _, (pid, _), _ = entry
                target = self.index.locate(pid, name)
                by_node[self.shared.mnode_name(target)].append(entry)
            yield from call_all(self, None, "migrate_install", [
                (node, {"name": name, "table": table, "entries": group})
                for node, group in by_node.items()], rule=ALL)
        finally:
            self._migration_mutex.release(mutex)
        self.metrics.counter("migrations").inc(amount=len(entries))

    # ------------------------------------------------------------------
    # exception-table shrinking
    # ------------------------------------------------------------------

    def shrink(self):
        """Generator: drop redirection entries that are no longer needed.

        Iterates path-walk entries then overriding entries in random
        order, removing each whose removal keeps every node within the
        load bound (§4.2.2).  A poll that fails ends the pass early.
        """
        rng = self.shared.streams.stream("coordinator.shrink")
        removed = []
        for group in (sorted(self.xt.pathwalk), sorted(self.xt.override)):
            group = list(group)
            rng.shuffle(group)
            for name in group:
                stats = yield from self._gather_stats()
                if stats is None:
                    return removed
                counts = [s["inode_count"] for s in stats]
                total = sum(counts)
                if total == 0:
                    continue
                name_counts = yield from self._poll("name_count",
                                                    {"name": name})
                if name_counts is None:
                    return removed
                per_node = [reply["count"] for reply in name_counts]
                freq = sum(per_node)
                target = self.index.hash_name(name)
                projected = [
                    c - per_node[i] for i, c in enumerate(counts)
                ]
                projected[target] += freq
                if max(projected) <= self._bound(total):
                    yield from self._migrate(
                        name, partial(self.xt.remove, name))
                    removed.append(name)
        return removed

    # ------------------------------------------------------------------
    # optional periodic balancing
    # ------------------------------------------------------------------

    def start_auto_balance(self, interval_us):
        """Kick off periodic rebalance + shrink, as production does."""
        def loop():
            while True:
                yield self.env.timeout(interval_us)
                yield from self.rebalance()
                yield from self.shrink()
        return self.env.process(loop())
