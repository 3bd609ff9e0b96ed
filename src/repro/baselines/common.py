"""Shared machinery for the baseline DFS models.

The baselines follow the classic stateful-client architecture:

* metadata is partitioned by **directory** — ``placement(parent_ino)``
  names the metadata server holding every entry of that directory, which
  is what concentrates same-directory bursts on one server (§2.4);
* clients resolve paths **client-side** through a VFS dentry cache; every
  cache miss on an intermediate component costs a ``lookup`` RPC (§2.3);
* each request is executed individually (no request merging), with
  journaling behaviour supplied by the concrete system model.

Concrete systems subclass :class:`MetaServer` (journaling, placement,
per-op costs) and :class:`BaselineCluster` (wiring + system profile).
"""

from dataclasses import dataclass

from repro.core.cluster import FalconFilesystem
from repro.core.filestore import BlockClient, StorageNode
from repro.core.indexing import stable_hash
from repro.core.records import (
    InodeRecord,
    inode_to_wire,
)
from repro.core.shared import ClusterShared, FalconConfig
from repro.net import CostModel, Network, Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import (
    CAT_CPU,
    CAT_PHASE,
    NULL_CONTEXT,
    OpContext,
    RetryPolicy,
    deadline_call,
    retry,
)
from repro.runtime import SimEnv
from repro.storage import LockManager, LockMode, Table, WriteAheadLog
from repro.vfs import DentryCache, InodeAttrs, PathWalker, ROOT_INO
from repro.vfs.pathwalk import split_path


@dataclass
class SystemProfile:
    """Knobs that distinguish CephFS / Lustre / JuiceFS behaviour."""

    name: str = "baseline"
    #: Multiplier on server CPU costs (software-stack weight).
    stack_factor: float = 1.0
    #: Server-side coherence-lock cost per lookup/open (caps, intents).
    coherence_lock_us: float = 0.0
    #: Additional server cost of an *open* (intent lock processing,
    #: capability issuance and open-state tracking).
    open_extra_us: float = 0.0
    #: Journal mutations to a remote storage node instead of locally.
    journal_remote: bool = False
    #: Round trips per remote journal commit (RADOS replication acks).
    journal_rounds: int = 1
    #: Mutations also update the parent directory's metadata, with a
    #: cross-server RPC when the parent inode lives elsewhere.
    update_dir_metadata: bool = False
    #: Percolator-style two-round transactional commit (JuiceFS/TiKV).
    two_round_commit: bool = False
    #: Fraction of metadata servers that actually lead key ranges
    #: (< 1.0 models TiKV leader imbalance).
    leader_fraction: float = 1.0
    #: Clients open files via a plain lookup (CephFS; counted as open).
    open_via_lookup: bool = False
    #: Clients send an explicit close RPC after read-only access
    #: (capability / open-state release).
    close_releases_caps: bool = False
    #: Extra data-path overhead per block (object-store indirection).
    data_overhead_us: float = 0.0


class MetaServer(Node):
    """One baseline metadata server (MDS / MDT / KV region leader)."""

    def __init__(self, env, network, shared, index, profile):
        super().__init__(
            env, network, "{}-mds-{}".format(profile.name, index),
            cores=shared.config.server_cores,
        )
        self.shared = shared
        self.my_index = index
        self.profile = profile
        self.inodes = Table("inode")
        self.locks = LockManager(env)
        self.wal = WriteAheadLog(env, self.costs, self.metrics)
        #: mtime of directories whose children this server owns.
        self.dir_mtimes = {}
        self._journal_seq = 0
        #: CephFS's MDS journal has a single log writer; remote journal
        #: appends serialize through it.

        self._journal_writer = env.resource(capacity=1)

    # -- placement ----------------------------------------------------------

    def placement(self, parent_ino):
        """Index of the server owning directory ``parent_ino``'s entries."""
        return placement_index(
            parent_ino, self.shared.config.num_mnodes,
            self.profile.leader_fraction,
        )

    def peer_name(self, index):
        return "{}-mds-{}".format(self.profile.name, index)

    # -- request handling ------------------------------------------------

    def handle(self, message):
        handler = getattr(self, "_on_" + message.kind, None)
        if handler is None:
            raise RuntimeError(
                "{} cannot handle {!r}".format(self.name, message)
            )
        try:
            if (message.ctx is not None and message.ctx.expired()):
                raise RpcFailure(RpcError.ETIMEDOUT, message.kind)
            # The stack-weighted remainder of per-request entry overhead
            # (the base dispatch slice is charged by ``_handle_guard``).
            extra = self.costs.dispatch_us * (self.profile.stack_factor - 1.0)
            if extra > 0:
                yield from self._charge(extra / self.profile.stack_factor,
                                        ctx=message.ctx)
            yield from handler(message)
        except RpcFailure as failure:
            self.metrics.counter("op_errors").inc(RpcError.name(failure.code))
            self.respond_error(message, failure)

    def _charge(self, cost_us, ctx=None):
        return self.execute(cost_us * self.profile.stack_factor, ctx=ctx)

    def _journal(self, records=1, ctx=None):
        """Generator: make ``records`` metadata mutations durable."""
        nbytes = records * self.costs.wal_record_bytes
        if self.profile.journal_remote:
            # CephFS journals its metadata log to the OSD cluster through
            # a single log writer: a network round trip plus an SSD write,
            # serialized per MDS.
            writer = self._journal_writer.request()
            yield writer
            try:
                for _ in range(self.profile.journal_rounds):
                    self._journal_seq += 1
                    target = self.shared.storage_names[
                        self._journal_seq % len(self.shared.storage_names)
                    ]
                    yield self.call(
                        target, "write_block", {"size": nbytes},
                        size=nbytes + self.costs.rpc_request_bytes,
                        ctx=ctx,
                    )
            finally:
                self._journal_writer.release(writer)
        else:
            yield self.wal.commit(nbytes, records=records, ctx=ctx)
        if self.profile.two_round_commit:
            # Percolator: prewrite round against the primary lock peer,
            # then the commit record — a second durable write.
            peer = self.peer_name(
                (self.my_index + 1) % self.shared.config.num_mnodes
            )
            if peer != self.name:
                yield self.call(peer, "txn_round", {}, ctx=ctx)
            yield self.wal.commit(self.costs.wal_record_bytes, ctx=ctx)

    def _on_txn_round(self, message):
        yield from self._charge(self.costs.txn_begin_us, ctx=message.ctx)
        yield self.wal.commit(self.costs.wal_record_bytes, ctx=message.ctx)
        self.respond(message, {"ok": True})

    def _lock(self, key, mode, ctx=None):
        grant = self.locks.acquire(key, mode, ctx=ctx)
        if grant.event.callbacks is not None:
            yield grant.event
        return grant

    def _touch_parent(self, payload, ctx=None):
        """Generator: update the parent directory's mtime (Lustre/JuiceFS).

        A directory's own inode lives on the server that holds its
        children (Lustre keeps a directory on its MDT; TiKV regions are
        keyed the same way), so the update is local — but it is a second
        table mutation in the same durable transaction, the file+directory
        double-update overhead §6.2 attributes to these systems.
        """
        if not self.profile.update_dir_metadata:
            return
        self.dir_mtimes[payload["pid"]] = self.env.now
        yield from self._charge(self.costs.index_insert_us, ctx=ctx)

    # -- metadata operations (all keyed (parent_ino, name)) -----------------

    def _on_lookup(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.SHARED, ctx=ctx)
        try:
            cost = self.costs.index_lookup_us + self.profile.coherence_lock_us
            if payload.get("intent") == "open":
                # CephFS opens via lookup; the capability work still
                # happens (Fig 13b counts these lookups as opens).
                cost += self.profile.open_extra_us
            yield from self._charge(cost, ctx=ctx)
            record = self.inodes.get(key)
        finally:
            self.locks.release(grant)
        if record is None:
            raise RpcFailure(RpcError.ENOENT, key)
        self.metrics.counter("ops").inc("lookup")
        self.respond(message, {"attrs": inode_to_wire(record)})

    def _on_open(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.SHARED, ctx=ctx)
        try:
            yield from self._charge(
                self.costs.index_lookup_us + self.profile.coherence_lock_us
                + self.profile.open_extra_us,
                ctx=ctx,
            )
            record = self.inodes.get(key)
        finally:
            self.locks.release(grant)
        if record is None:
            raise RpcFailure(RpcError.ENOENT, key)
        if record.is_dir:
            raise RpcFailure(RpcError.EISDIR, key)
        self.metrics.counter("ops").inc("open")
        self.respond(message, {"attrs": inode_to_wire(record)})

    _on_getattr = _on_lookup

    def _on_create(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.EXCLUSIVE, ctx=ctx)
        try:
            yield from self._charge(
                self.costs.index_lookup_us + self.costs.index_insert_us
                + self.costs.lock_acquire_us + self.costs.lock_release_us
                + self.costs.txn_begin_us + self.costs.txn_commit_us,
                ctx=ctx,
            )
            if self.inodes.get(key) is not None:
                if payload.get("exclusive", True):
                    raise RpcFailure(RpcError.EEXIST, key)
            record = InodeRecord(
                ino=self.shared.allocator.allocate(), is_dir=False,
                mode=payload.get("mode", 0o644), mtime=self.env.now,
            )
            self.inodes.put(key, record)
            records = 2 if self.profile.update_dir_metadata else 1
            yield from self._journal(records=records, ctx=ctx)
            yield from self._touch_parent(payload, ctx=ctx)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc("create")
        self.respond(message, {"attrs": inode_to_wire(record)})

    def _on_mkdir(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.EXCLUSIVE, ctx=ctx)
        try:
            yield from self._charge(
                self.costs.index_lookup_us + self.costs.index_insert_us
                + self.costs.txn_begin_us + self.costs.txn_commit_us,
                ctx=ctx,
            )
            if self.inodes.get(key) is not None:
                raise RpcFailure(RpcError.EEXIST, key)
            record = InodeRecord(
                ino=self.shared.allocator.allocate(), is_dir=True,
                mode=payload.get("mode", 0o755), mtime=self.env.now,
            )
            self.inodes.put(key, record)
            records = 2 if self.profile.update_dir_metadata else 1
            yield from self._journal(records=records, ctx=ctx)
            yield from self._touch_parent(payload, ctx=ctx)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc("mkdir")
        self.respond(message, {"attrs": inode_to_wire(record)})

    def _on_close(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.EXCLUSIVE, ctx=ctx)
        try:
            yield from self._charge(
                self.costs.index_lookup_us + self.costs.index_insert_us,
                ctx=ctx,
            )
            record = self.inodes.get(key)
            if record is None:
                raise RpcFailure(RpcError.ENOENT, key)
            if "size" in payload:
                updated = record.copy()
                updated.size = payload["size"]
                updated.mtime = self.env.now
                self.inodes.put(key, updated)
                yield from self._journal(ctx=ctx)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc("close")
        self.respond(message, {"ok": True})

    def _on_setattr(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.EXCLUSIVE, ctx=ctx)
        try:
            yield from self._charge(
                self.costs.index_lookup_us + self.costs.index_insert_us,
                ctx=ctx,
            )
            record = self.inodes.get(key)
            if record is None:
                raise RpcFailure(RpcError.ENOENT, key)
            updated = record.copy()
            updated.mode = payload.get("mode", record.mode)
            self.inodes.put(key, updated)
            yield from self._journal(ctx=ctx)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc("setattr")
        self.respond(message, {"ok": True})

    def _on_unlink(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.EXCLUSIVE, ctx=ctx)
        try:
            yield from self._charge(
                self.costs.index_lookup_us + self.costs.index_delete_us
                + self.costs.txn_begin_us + self.costs.txn_commit_us,
                ctx=ctx,
            )
            record = self.inodes.get(key)
            if record is None:
                raise RpcFailure(RpcError.ENOENT, key)
            if record.is_dir:
                raise RpcFailure(RpcError.EISDIR, key)
            self.inodes.delete(key)
            records = 2 if self.profile.update_dir_metadata else 1
            yield from self._journal(records=records, ctx=ctx)
            yield from self._touch_parent(payload, ctx=ctx)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc("unlink")
        self.respond(message, {"ok": True})

    def _on_rmdir(self, message):
        payload = message.payload
        ctx = message.ctx
        key = (payload["pid"], payload["name"])
        grant = yield from self._lock(key, LockMode.EXCLUSIVE, ctx=ctx)
        try:
            yield from self._charge(
                self.costs.index_lookup_us + self.costs.index_delete_us,
                ctx=ctx,
            )
            record = self.inodes.get(key)
            if record is None:
                raise RpcFailure(RpcError.ENOENT, key)
            if not record.is_dir:
                raise RpcFailure(RpcError.ENOTDIR, key)
            children_owner = self.placement(record.ino)
            if children_owner == self.my_index:
                has_children = self.inodes.has_prefix((record.ino,))
            else:
                reply = yield self.call(
                    self.peer_name(children_owner), "children_check",
                    {"pid": record.ino}, ctx=ctx,
                )
                has_children = reply["has_children"]
            if has_children:
                raise RpcFailure(RpcError.ENOTEMPTY, key)
            self.inodes.delete(key)
            yield from self._journal(ctx=ctx)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc("rmdir")
        self.respond(message, {"ok": True})

    def _on_children_check(self, message):
        pid = message.payload["pid"]
        yield from self._charge(self.costs.index_lookup_us,
                                ctx=message.ctx)
        self.respond(message, {"has_children": self.inodes.has_prefix((pid,))})

    def _on_readdir(self, message):
        pid = message.payload["pid"]
        entries = [
            (key[1], record.is_dir)
            for key, record in self.inodes.scan_prefix((pid,))
        ]
        yield from self._charge(
            self.costs.index_lookup_us + 0.02 * len(entries),
            ctx=message.ctx,
        )
        self.metrics.counter("ops").inc("readdir")
        self.respond(
            message, {"entries": entries},
            size=self.costs.rpc_response_bytes + 16 * len(entries),
        )

    def _on_rename(self, message):
        """Rename orchestrated by the source directory's server."""
        payload = message.payload
        ctx = message.ctx
        skey = tuple(payload["src_key"])
        dkey = tuple(payload["dst_key"])
        grant = yield from self._lock(skey, LockMode.EXCLUSIVE, ctx=ctx)
        try:
            yield from self._charge(
                2 * self.costs.index_lookup_us + self.costs.two_phase_round_us,
                ctx=ctx,
            )
            record = self.inodes.get(skey)
            if record is None:
                raise RpcFailure(RpcError.ENOENT, skey)
            dst_owner = self.placement(dkey[0])
            if dst_owner == self.my_index:
                if self.inodes.get(dkey) is not None:
                    raise RpcFailure(RpcError.EEXIST, dkey)
                self.inodes.put(dkey, record)
            else:
                yield self.call(
                    self.peer_name(dst_owner), "rename_install",
                    {"key": list(dkey), "record": inode_to_wire(record)},
                    ctx=ctx,
                )
            self.inodes.delete(skey)
            yield from self._journal(records=2, ctx=ctx)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc("rename")
        self.respond(message, {"ok": True})

    def _on_rename_install(self, message):
        from repro.core.records import inode_from_wire

        key = tuple(message.payload["key"])
        if self.inodes.get(key) is not None:
            raise RpcFailure(RpcError.EEXIST, key)
        self.inodes.put(key, inode_from_wire(message.payload["record"]))
        yield from self._charge(self.costs.index_insert_us, ctx=message.ctx)
        yield from self._journal(ctx=message.ctx)
        self.respond(message, {"ok": True})


def placement_index(parent_ino, num_servers, leader_fraction=1.0):
    """Directory-locality placement with optional leader imbalance.

    ``leader_fraction < 1`` models TiKV-style region-leader concentration:
    the number of servers that actually lead key ranges grows only with
    the square root of the cluster size, which is what makes JuiceFS's
    metadata engine scale poorly in §6.2.
    """
    if leader_fraction >= 1.0:
        leaders = num_servers
    else:
        leaders = max(1, int(round(num_servers ** 0.5)))
    return stable_hash(("dir", parent_ino)) % leaders


class _StatefulOps:
    """PathWalker ops for the baseline client: real remote lookups."""

    def __init__(self, client):
        self.client = client

    def lookup(self, parent, name, flags, path, ctx=None):
        data = yield from self.client._send_keyed(
            "lookup", parent.ino, {"pid": parent.ino, "name": name},
            ctx=ctx,
        )
        return attrs_from_wire(data["attrs"])

    def revalidate(self, entry, flags, path, ctx=None):
        # Stateful clients trust their cache (lease semantics).
        return entry.attrs
        yield  # pragma: no cover


def attrs_from_wire(wire):
    return InodeAttrs(
        ino=wire["ino"], is_dir=wire["is_dir"], mode=wire["mode"],
        uid=wire["uid"], gid=wire["gid"], size=wire["size"],
        mtime=wire["mtime"],
    )


class BaselineClient(Node):
    """A stateful DFS client: client-side path resolution + final op RPC."""

    def __init__(self, env, network, shared, profile, name,
                 cache_budget_bytes=None):
        super().__init__(env, network, name, cores=1024)
        self.shared = shared
        self.profile = profile
        self.dcache = DentryCache(budget_bytes=cache_budget_bytes)
        self.walker = PathWalker(
            env, network.costs, self.dcache, _StatefulOps(self)
        )
        self.blocks = BlockClient(self, shared)
        #: Per-op deadline (us; 0 = none) and shared retry policy, both
        #: stamped onto every operation's OpContext (mirrors FalconClient).
        self.deadline_us = shared.config.op_deadline_us
        self.retry_policy = RetryPolicy.from_config(shared.config)

    # -- plumbing ----------------------------------------------------------

    def placement(self, parent_ino):
        return placement_index(
            parent_ino, self.shared.config.num_mnodes,
            self.profile.leader_fraction,
        )

    def _server_name(self, parent_ino):
        return "{}-mds-{}".format(
            self.profile.name, self.placement(parent_ino)
        )

    def _begin_op(self, op, path=None):
        """New :class:`OpContext` for one client-visible operation."""
        deadline = None
        if self.deadline_us:
            deadline = self.env.now + self.deadline_us
        ctx = OpContext(
            self.env, op, origin=self.name, tracer=self.shared.tracer,
            deadline=deadline, retry_policy=self.retry_policy,
        )
        ctx.begin(node=self.name,
                  attrs={"path": path}
                  if ctx.traced and path is not None else None)
        return ctx

    def _traced(self, ctx, gen):
        """Generator: run ``gen`` to completion under ``ctx``'s root span."""
        try:
            result = yield from gen
        except BaseException as exc:
            ctx.finish(error=repr(exc))
            raise
        ctx.finish()
        return result

    def _client_cpu(self, ctx, cost_us):
        """Generator: charge client-side CPU, attributed to ``ctx``."""
        start = self.env.now
        yield self.env.timeout(cost_us)
        ctx.record("client", CAT_CPU, start, self.env.now, node=self.name)

    def _send_keyed(self, op, parent_ino, payload, ctx=None):
        ctx = ctx or NULL_CONTEXT
        target = self._server_name(parent_ino)

        def attempt(_attempt, _hint):
            self.metrics.counter("requests").inc(op)
            with ctx.span("rpc", CAT_PHASE, node=self.name,
                          attrs={"op": op, "target": target}
                          if ctx.traced else None):
                data = yield from deadline_call(self, ctx, target, op,
                                                payload)
            return data

        data = yield from retry(self, ctx, attempt)
        return data

    def _walk_parent(self, components, ctx=None):
        """Generator: resolve the parent directory client-side."""
        if len(components) == 1:
            return self.walker.root_attrs, None
        parent_path = "/" + "/".join(components[:-1])
        result = yield from self.walker.walk(parent_path, ctx=ctx)
        grand = result.parent_attrs
        parent_key = (
            None if grand is None
            else [grand.ino, components[-2]]
        )
        return result.attrs, parent_key

    def _meta_op(self, op, path, extra, cache_result=True, ctx=None):
        if ctx is None:
            ctx = self._begin_op(op, path)
            data = yield from self._traced(
                ctx, self._meta_op_body(op, path, extra, cache_result, ctx)
            )
            return data
        with ctx.span("op." + op, CAT_PHASE, node=self.name):
            data = yield from self._meta_op_body(op, path, extra,
                                                 cache_result, ctx)
        return data

    def _meta_op_body(self, op, path, extra, cache_result, ctx):
        if self.costs.client_op_us:
            yield from self._client_cpu(ctx, self.costs.client_op_us)
        components = split_path(path)
        if not components:
            raise RpcFailure(RpcError.EINVAL, "operation on /")
        parent, parent_key = yield from self._walk_parent(components,
                                                          ctx=ctx)
        if not parent.is_dir:
            raise RpcFailure(RpcError.ENOTDIR, path)
        payload = dict(extra)
        payload.update({
            "pid": parent.ino, "name": components[-1],
            "parent_key": parent_key,
        })
        data = yield from self._send_keyed(op, parent.ino, payload, ctx=ctx)
        if cache_result and isinstance(data, dict) and "attrs" in data:
            attrs = attrs_from_wire(data["attrs"])
            self.dcache.insert(parent.ino, components[-1], attrs,
                               cold=not attrs.is_dir)
        return data

    # -- public API (mirrors FalconClient) -------------------------------

    def mkdir(self, path, mode=0o755, ctx=None):
        data = yield from self._meta_op("mkdir", path, {"mode": mode},
                                        ctx=ctx)
        return data["attrs"]["ino"]

    def create(self, path, mode=0o644, exclusive=True, ctx=None):
        data = yield from self._meta_op(
            "create", path, {"mode": mode, "exclusive": exclusive}, ctx=ctx
        )
        return data["attrs"]["ino"]

    def open_file(self, path, ctx=None):
        op = "lookup" if self.profile.open_via_lookup else "open"
        data = yield from self._meta_op(op, path, {"intent": "open"},
                                        ctx=ctx)
        attrs = data["attrs"]
        if attrs["is_dir"]:
            raise RpcFailure(RpcError.EISDIR, path)
        return attrs

    def getattr(self, path):
        if not split_path(path):
            return {
                "ino": ROOT_INO, "is_dir": True, "mode": 0o777,
                "uid": 0, "gid": 0, "size": 0, "mtime": 0.0, "nlink": 1,
            }
        data = yield from self._meta_op("getattr", path, {})
        return data["attrs"]

    def close(self, path, size=None, ctx=None):
        extra = {} if size is None else {"size": size}
        yield from self._meta_op("close", path, extra, cache_result=False,
                                 ctx=ctx)

    def unlink(self, path):
        yield from self._meta_op("unlink", path, {}, cache_result=False)
        self._drop_cached(path)

    def chmod(self, path, mode):
        yield from self._meta_op(
            "setattr", path, {"mode": mode}, cache_result=False
        )
        self._drop_cached(path)

    def rmdir(self, path):
        yield from self._meta_op("rmdir", path, {}, cache_result=False)
        self._drop_cached(path)

    def rename(self, src, dst):
        ctx = self._begin_op("rename", src)
        yield from self._traced(ctx, self._rename_body(src, dst, ctx))

    def _rename_body(self, src, dst, ctx):
        if self.costs.client_op_us:
            yield from self._client_cpu(ctx, self.costs.client_op_us)
        src_comps = split_path(src)
        dst_comps = split_path(dst)
        if not src_comps or not dst_comps:
            raise RpcFailure(RpcError.EINVAL, "rename involving /")
        sparent, _ = yield from self._walk_parent(src_comps, ctx=ctx)
        dparent, _ = yield from self._walk_parent(dst_comps, ctx=ctx)
        self.metrics.counter("requests").inc("rename")
        with ctx.span("rpc", CAT_PHASE, node=self.name,
                      attrs={"op": "rename"} if ctx.traced else None):
            yield from deadline_call(
                self, ctx, self._server_name(sparent.ino), "rename", {
                    "src_key": [sparent.ino, src_comps[-1]],
                    "dst_key": [dparent.ino, dst_comps[-1]],
                },
            )
        self._drop_cached(src)

    def readdir(self, path):
        ctx = self._begin_op("readdir", path)
        return (yield from self._traced(ctx, self._readdir_body(path, ctx)))

    def _readdir_body(self, path, ctx):
        if self.costs.client_op_us:
            yield from self._client_cpu(ctx, self.costs.client_op_us)
        components = split_path(path)
        if components:
            result = yield from self.walker.walk(path, ctx=ctx)
            dir_ino = result.attrs.ino
        else:
            dir_ino = ROOT_INO
        data = yield from self._send_keyed(
            "readdir", dir_ino, {"pid": dir_ino}, ctx=ctx
        )
        return sorted(tuple(entry) for entry in data["entries"])

    def read_file(self, path):
        ctx = self._begin_op("read", path)

        def body():
            attrs = yield from self.open_file(path, ctx=ctx)
            yield from self.blocks.read(attrs["ino"], attrs["size"],
                                        ctx=ctx)
            if self.profile.data_overhead_us:
                yield from self._client_cpu(
                    ctx, self.profile.data_overhead_us
                )
            if self.profile.close_releases_caps:
                yield from self._meta_op("close", path, {},
                                         cache_result=False, ctx=ctx)
            return attrs

        attrs = yield from self._traced(ctx, body())
        self.metrics.counter("files").inc("read")
        return attrs["size"]

    def write_file(self, path, size, mode=0o644, exclusive=True):
        ctx = self._begin_op("write", path)

        def body():
            ino = yield from self.create(path, mode=mode,
                                         exclusive=exclusive, ctx=ctx)
            yield from self.blocks.write(ino, size, ctx=ctx)
            if self.profile.data_overhead_us:
                yield from self._client_cpu(
                    ctx, self.profile.data_overhead_us
                )
            yield from self.close(path, size, ctx=ctx)
            return ino

        ino = yield from self._traced(ctx, body())
        self.metrics.counter("files").inc("written")
        return ino

    def exists(self, path):
        try:
            yield from self.getattr(path)
        except RpcFailure as failure:
            if failure.code in (RpcError.ENOENT, RpcError.ENOTDIR):
                return False
            raise
        return True

    def _drop_cached(self, path):
        components = split_path(path)
        current = ROOT_INO
        for name in components[:-1]:
            entry = self.dcache.peek(current, name)
            if entry is None:
                return
            current = entry.attrs.ino
        if components:
            self.dcache.invalidate(current, components[-1])

    def handle(self, message):
        raise RuntimeError(
            "client {} received unexpected {!r}".format(self.name, message)
        )
        yield  # pragma: no cover


class BaselineCluster:
    """A complete baseline deployment; subclasses choose the profile."""

    profile = SystemProfile()

    def __init__(self, config=None, costs=None, env=None, tracer=None):
        self.config = config or FalconConfig()
        self.env = env or SimEnv()
        self.costs = costs or CostModel()
        self.costs.server_cores = self.config.server_cores
        self.shared = ClusterShared(self.env, self.costs, self.config,
                                    tracer=tracer)
        self.network = Network(self.env, self.costs)
        self.servers = [
            MetaServer(self.env, self.network, self.shared, i, self.profile)
            for i in range(self.config.num_mnodes)
        ]
        self.storage = [
            StorageNode(self.env, self.network, name)
            for name in self.shared.storage_names
        ]
        self.clients = []

    def add_client(self, cache_budget_bytes=None, name=None, mode=None):
        """Attach a stateful client (``mode`` accepted for API parity)."""
        if name is None:
            name = "client-{}".format(len(self.clients))
        client = BaselineClient(
            self.env, self.network, self.shared, self.profile, name,
            cache_budget_bytes=cache_budget_bytes,
        )
        self.clients.append(client)
        return client

    def fs(self, client=None, **client_kwargs):
        if client is None:
            client = self.add_client(**client_kwargs)
        return FalconFilesystem(self, client)

    def run_process(self, generator):
        process = self.env.process(generator)
        return self.env.run(until=process)

    def run_for(self, duration_us):
        self.env.run(until=self.env.now + duration_us)

    def inode_distribution(self):
        return [len(server.inodes) for server in self.servers]

    def bulk_load(self, tree):
        """Install a tree directly into the MDS tables (see
        :meth:`repro.core.cluster.FalconCluster.bulk_load`)."""
        from repro.vfs.attrs import ROOT_INO
        from repro.vfs.pathwalk import basename, parent_path

        path_ino = {"/": ROOT_INO}
        n = self.config.num_mnodes
        frac = self.profile.leader_fraction
        for dpath in tree.dirs:
            pid = path_ino[parent_path(dpath)]
            name = basename(dpath)
            ino = self.shared.allocator.allocate()
            server = self.servers[placement_index(pid, n, frac)]
            server.inodes.put((pid, name), InodeRecord(
                ino=ino, is_dir=True, mode=0o755,
            ))
            path_ino[dpath] = ino
        for fpath, size in tree.files:
            pid = path_ino[parent_path(fpath)]
            name = basename(fpath)
            ino = self.shared.allocator.allocate()
            server = self.servers[placement_index(pid, n, frac)]
            server.inodes.put((pid, name), InodeRecord(
                ino=ino, is_dir=False, size=size,
            ))
            path_ino[fpath] = ino
        return path_ino

    def prefill_client_cache(self, client, tree, path_ino, rng=None):
        """Warm a stateful client's dentry cache with directory entries.

        Insertion order is randomized so that, under a memory budget, the
        retained subset is an unbiased sample — the steady state a long
        random traversal converges to.
        """
        from repro.vfs.attrs import ROOT_INO
        from repro.vfs.pathwalk import basename, parent_path

        dirs = list(tree.dirs)
        if rng is not None:
            rng.shuffle(dirs)
        for dpath in dirs:
            parent = parent_path(dpath)
            pid = path_ino.get(parent, ROOT_INO)
            attrs = InodeAttrs(
                ino=path_ino[dpath], is_dir=True, mode=0o755,
            )
            client.dcache.insert(pid, basename(dpath), attrs)
