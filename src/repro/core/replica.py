"""Lazy namespace replication (§4.3): the replica holder mixin.

Both MNodes and the coordinator hold a namespace replica — a table of
directory dentries keyed ``(parent_id, name)`` — and resolve paths against
it locally.  Missing or invalidated entries are fetched on demand from the
directory's *owner* MNode (the node hybrid indexing placed its inode on).

The mixin also implements the receiving side of the invalidation protocol:
an invalidation X-locks the dentry (waiting out any in-flight request that
holds it shared; a renamed directory's peers skip the lock), bumps the key's invalidation sequence number (so lookup
responses issued before the invalidation are discarded — the paper's
"discard stale responses" rule), and marks the entry invalid.
"""

from collections import defaultdict

from repro.core.records import INVALID, DentryRecord
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import NULL_CONTEXT, RetryPolicy, deadline_call, retry
from repro.storage import LockManager, LockMode, Table
from repro.vfs.attrs import ROOT_INO

#: Resolution gives up after this many discarded (stale) fetches.
MAX_FETCH_RETRIES = 16

#: Stale fetches retry immediately (zero backoff keeps the protocol's
#: interleavings deterministic); the +1 turns the retry cap into an
#: attempt budget.
_FETCH_POLICY = RetryPolicy(max_attempts=MAX_FETCH_RETRIES + 1,
                            base_us=0.0)


class ResolvedDir:
    """Result of resolving a directory path against the local replica."""

    __slots__ = ("ino", "chain")

    def __init__(self, ino, chain):
        self.ino = ino
        #: list of (dentry_lock_key, record, inval_seq) per component.
        self.chain = chain


class NamespaceReplicaMixin:
    """Adds a namespace replica to a :class:`~repro.net.Node` subclass.

    Requires the host class to provide ``env``, ``costs``, ``shared``,
    ``call`` and ``metrics``; call :meth:`init_replica` from ``__init__``.
    """

    def init_replica(self):
        self.dentries = Table("dentry")
        self.locks = LockManager(self.env)
        self.inval_seq = defaultdict(int)
        #: The root directory is known everywhere and never invalidated.
        self.root_dentry = DentryRecord(ino=ROOT_INO, mode=0o777)
        #: The per-attempt bound of this node's RPCs; None = unbounded.
        self.rpc_timeout_us = self.shared.config.rpc_timeout_us or None

    # -- resolution ---------------------------------------------------------

    def resolve_dir(self, components, ctx=None):
        """Generator: resolve a directory path locally, fetching missing
        dentries from their owners.  Returns a :class:`ResolvedDir`.

        Raises :class:`RpcFailure` with ``ENOENT`` (component missing — the
        one extra hop the paper accepts for negative accesses), ``ENOTDIR``
        or ``EACCES``.
        """
        current = ROOT_INO
        mode = self.root_dentry.mode
        chain = []
        dget = self.dentries.get
        for name in components:
            if not mode & 0o111:
                raise RpcFailure(RpcError.EACCES, "/".join(components))
            key = (current, name)
            # Local VALID record: skip the fetch/retry machinery entirely
            # (the overwhelmingly common case — replicas are warm).
            record = dget(key)
            if record is None or record.state == INVALID:
                record = yield from self._dentry_record(key, ctx)
            dkey = ("d",) + key
            chain.append((dkey, record, self.inval_seq[dkey]))
            current = record.ino
            mode = record.mode
        return ResolvedDir(current, chain)

    def chain_valid(self, chain):
        """True while no component of a resolved ``chain`` was
        invalidated or marked INVALID: a holder re-checks a chain under
        the locks it took after resolving it."""
        inval_seq = self.inval_seq
        for dkey, record, seq in chain:
            if inval_seq[dkey] != seq or record.state == INVALID:
                return False
        return True

    def _dentry_record(self, key, ctx=None):
        """Generator: return a VALID dentry record for ``key``.

        A fetch whose response was invalidated in flight is discarded
        and re-issued (§4.3 conflict resolution, case 2) via the shared
        retry helper, with zero backoff and a bounded attempt budget.
        """
        record = self.dentries.get(key)
        if record is not None and record.state != INVALID:
            return record

        def attempt(_attempt, _hint):
            record = self.dentries.get(key)
            while record is None or record.state == INVALID:
                if self._owns_dentry(key):
                    # We are the owner: absence is authoritative.
                    if record is not None:
                        self.dentries.delete(key)
                    raise RpcFailure(RpcError.ENOENT, key)
                dkey = ("d",) + key
                seq = self.inval_seq[dkey]
                self.metrics.counter("remote_lookups").inc()
                payload = {"pid": key[0], "name": key[1]}
                try:
                    # Bounded when the cluster configures a per-attempt
                    # timeout, so a crashed owner cannot park the op; each
                    # timed-out attempt re-resolves the owner, so the
                    # retry lands on the promoted standby.
                    row = yield from deadline_call(
                        self, ctx or NULL_CONTEXT,
                        self._owner_name(key), "lookup_dentry",
                        payload, timeout_us=self.rpc_timeout_us,
                    )
                except RpcFailure as failure:
                    if (failure.code == RpcError.ENOENT
                            and record is not None):
                        self.dentries.delete(key)
                    raise
                if self.inval_seq[dkey] != seq:
                    # Stale response: let the retry helper re-issue.
                    raise RpcFailure(RpcError.ERETRY, key)
                # The owner answers with its inode row; the replica
                # keeps the dentry built from it.
                record = row.dentry()
                self.dentries.put(key, record)
            return record

        retryable = (RpcError.ERETRY,)
        if self.rpc_timeout_us is not None:
            retryable = (RpcError.ERETRY, RpcError.ETIMEDOUT)
        record = yield from retry(
            self, ctx or NULL_CONTEXT, attempt, policy=_FETCH_POLICY,
            retryable=retryable,
        )
        return record

    def _owns_dentry(self, key):
        """True when this node is the owner MNode of ``key``'s inode."""
        return False

    def authoritative(self, key):
        """True when this holder derives ``key``'s dentry from its own
        inode row (never, for a holder without inodes)."""
        return False

    def _owner_name(self, key):
        index = self.index.locate(key[0], key[1])
        return self.shared.mnode_name(index)

    # -- invalidation (receiving side) ---------------------------------------

    def apply_invalidation(self, keys, wait=True):
        """Generator: X-lock, bump sequence and mark INVALID for each key.
        ``wait=False`` skips the X lock, which waits out the ops holding
        the key shared: a renamed directory's held votes wait on it, and
        it keeps its ino, so such an op lands under the new name."""
        for key in keys:
            dkey = ("d",) + key
            grant = wait and self.locks.acquire(dkey, LockMode.EXCLUSIVE)
            if grant and grant.event.callbacks is not None:
                yield grant.event
            self.inval_seq[dkey] += 1
            record = self.dentries.get(key)
            if record is not None:
                record.state = INVALID
            if grant:
                self.locks.release(grant)
            if self.costs.invalidate_apply_us:
                yield self.env.timeout(self.costs.invalidate_apply_us)
            self.metrics.counter("invalidations").inc()
