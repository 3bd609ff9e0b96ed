"""Shared machinery for the baseline DFS models.

The baselines follow the classic stateful-client architecture:

* metadata is partitioned by **directory** — ``placement(parent_ino)``
  names the metadata server holding every entry of that directory, which
  is what concentrates same-directory bursts on one server (§2.4);
* clients resolve paths **client-side** through a VFS dentry cache; every
  cache miss on an intermediate component costs a ``lookup`` RPC (§2.3);
* each request is executed individually (no request merging), with
  journaling behaviour supplied by the concrete system model.

Concrete systems subclass :class:`BaselineCluster` and set its
:class:`SystemProfile`; :class:`MetaServer` and :class:`BaselineClient`
read every difference off the profile.
"""

from dataclasses import dataclass, replace

from repro.core.client import OpClient
from repro.core.cluster import FalconFilesystem
from repro.core.filestore import StorageNode
from repro.core.indexing import stable_hash
from repro.core.records import (
    InodeRecord,
    attrs_from_wire,
    inode_to_wire,
)
from repro.core.shared import ClusterShared, FalconConfig
from repro.net import CostModel, Network, Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import CAT_PHASE, NULL_CONTEXT, deadline_call, retry
from repro.runtime import SimEnv
from repro.storage import LockManager, LockMode, Table, WriteAheadLog
from repro.vfs import PathWalker, ROOT_INO
from repro.vfs.pathwalk import basename, parent_path


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
    #: Round trips per journal commit to the remote storage nodes (RADOS
    #: replication acks); 0 journals to the server's local WAL.
    remote_journal_rounds: int = 0
    #: Mutations also update the parent directory's metadata: a second
    #: journal record and a local index update (a directory's inode lives
    #: on the server holding its children, so no RPC is involved).
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
        """Refuse an expired deadline, charge the stack's extra entry
        cost, then dispatch (:meth:`Node.handle`); a failure a handler
        raises is answered here."""
        try:
            if (message.ctx is not None and message.ctx.expired()):
                raise RpcFailure(RpcError.ETIMEDOUT, message.kind)
            # The stack-weighted remainder of per-request entry overhead
            # (the base dispatch slice is charged by ``_handle_guard``).
            extra = self.costs.dispatch_us * (self.profile.stack_factor - 1.0)
            if extra > 0:
                yield from self._charge(extra / self.profile.stack_factor,
                                        ctx=message.ctx)
            yield from super().handle(message)
        except RpcFailure as failure:
            self.metrics.counter("op_errors").inc(RpcError.name(failure.code))
            self.respond_error(message, failure)

    def _charge(self, cost_us, ctx=None):
        return self.execute(cost_us * self.profile.stack_factor, ctx=ctx)

    def _journal(self, records=1, ctx=None):
        """Generator: make ``records`` metadata mutations durable."""
        nbytes = records * self.costs.wal_record_bytes
        if self.profile.remote_journal_rounds:
            # CephFS journals its metadata log to the OSD cluster through
            # a single log writer: a network round trip plus an SSD write,
            # serialized per MDS.
            writer = self._journal_writer.request()
            yield writer
            try:
                for _ in range(self.profile.remote_journal_rounds):
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

    def _keyed(self, message, mode, costs, step, key=None):
        """Generator: the scaffold every keyed operation runs inside.

        Locks the payload's ``(pid, name)`` row (or ``key``) in ``mode``,
        charges ``sum(costs)`` — the terms added left to right, as they
        are listed — and runs ``step(key, record, message)`` against the
        row, a generator returning the reply payload.  The lock is
        released on every exit; a failure the step raises is answered by
        :meth:`handle`, and a success is counted under ``message.kind``.
        """
        ctx = message.ctx
        if key is None:
            key = (message.payload["pid"], message.payload["name"])
        grant = yield from self._lock(key, mode, ctx=ctx)
        try:
            yield from self._charge(sum(costs), ctx=ctx)
            reply = yield from step(key, self.inodes.get(key), message)
        finally:
            self.locks.release(grant)
        self.metrics.counter("ops").inc(message.kind)
        self.respond(message, reply)

    def _on_lookup(self, message):
        costs = (self.costs.index_lookup_us, self.profile.coherence_lock_us)
        if message.kind == "open" or message.payload.get("intent") == "open":
            # An open pays for its capability / intent work, also when it
            # arrives as a lookup (CephFS opens via lookup; Fig 13b
            # counts those lookups as opens).
            costs += (self.profile.open_extra_us,)
        return self._keyed(message, LockMode.SHARED, costs, self._attrs)

    _on_getattr = _on_open = _on_lookup

    def _on_create(self, message):
        c = self.costs
        return self._keyed(message, LockMode.EXCLUSIVE, (
            c.index_lookup_us, c.index_insert_us, c.lock_acquire_us,
            c.lock_release_us, c.txn_begin_us, c.txn_commit_us,
        ), self._insert)

    def _on_mkdir(self, message):
        c = self.costs
        return self._keyed(message, LockMode.EXCLUSIVE, (
            c.index_lookup_us, c.index_insert_us, c.txn_begin_us,
            c.txn_commit_us,
        ), self._insert)

    def _on_close(self, message):
        c = self.costs
        return self._keyed(message, LockMode.EXCLUSIVE, (
            c.index_lookup_us, c.index_insert_us,
        ), self._update)

    _on_setattr = _on_close

    def _on_unlink(self, message):
        c = self.costs
        return self._keyed(message, LockMode.EXCLUSIVE, (
            c.index_lookup_us, c.index_delete_us, c.txn_begin_us,
            c.txn_commit_us,
        ), self._unlink)

    def _on_rmdir(self, message):
        c = self.costs
        return self._keyed(message, LockMode.EXCLUSIVE, (
            c.index_lookup_us, c.index_delete_us,
        ), self._rmdir)

    def _on_rename(self, message):
        """Rename orchestrated by the source directory's server."""
        c = self.costs
        return self._keyed(message, LockMode.EXCLUSIVE, (
            2 * c.index_lookup_us, c.two_phase_round_us,
        ), self._rename, key=tuple(message.payload["src_key"]))

    # -- the steps run inside ``_keyed`` -------------------------------------

    def _attrs(self, key, record, message):
        """lookup / getattr / open: the row's attributes."""
        if record is None:
            raise RpcFailure(RpcError.ENOENT, key)
        if record.is_dir and message.kind == "open":
            raise RpcFailure(RpcError.EISDIR, key)
        return {"attrs": inode_to_wire(record)}
        yield  # pragma: no cover - makes this a generator

    def _insert(self, key, record, message):
        """create / mkdir: a new row, over an existing one only for a
        non-exclusive create."""
        payload = message.payload
        is_dir = message.kind == "mkdir"
        if record is not None and (is_dir or payload.get("exclusive", True)):
            raise RpcFailure(RpcError.EEXIST, key)
        record = InodeRecord(
            ino=self.shared.allocator.allocate(), is_dir=is_dir,
            mode=payload.get("mode", 0o755 if is_dir else 0o644),
            mtime=self.env.now,
        )
        self.inodes.put(key, record)
        yield from self._journal_entry(message)
        return {"attrs": inode_to_wire(record)}

    def _update(self, key, record, message):
        """setattr / close: a new mode, or a written file's size and
        mtime (a close after reading persists nothing)."""
        if record is None:
            raise RpcFailure(RpcError.ENOENT, key)
        payload = message.payload
        if message.kind == "close" and "size" not in payload:
            return {"ok": True}
        if message.kind == "setattr":
            updated = replace(record, mode=payload.get("mode", record.mode))
        else:
            updated = replace(record, size=payload["size"],
                              mtime=self.env.now)
        self.inodes.put(key, updated)
        yield from self._journal(ctx=message.ctx)
        return {"ok": True}

    def _unlink(self, key, record, message):
        if record is None:
            raise RpcFailure(RpcError.ENOENT, key)
        if record.is_dir:
            raise RpcFailure(RpcError.EISDIR, key)
        self.inodes.delete(key)
        yield from self._journal_entry(message)
        return {"ok": True}

    def _rmdir(self, key, record, message):
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
                {"pid": record.ino}, ctx=message.ctx,
            )
            has_children = reply["has_children"]
        if has_children:
            raise RpcFailure(RpcError.ENOTEMPTY, key)
        self.inodes.delete(key)
        yield from self._journal(ctx=message.ctx)
        return {"ok": True}

    def _rename(self, skey, record, message):
        """Move the source row; a destination on another server is
        installed there first, and its refusal leaves the source."""
        if record is None:
            raise RpcFailure(RpcError.ENOENT, skey)
        dkey = tuple(message.payload["dst_key"])
        dst_owner = self.placement(dkey[0])
        if dst_owner == self.my_index:
            if self.inodes.get(dkey) is not None:
                raise RpcFailure(RpcError.EEXIST, dkey)
            self.inodes.put(dkey, record)
        else:
            yield self.call(
                self.peer_name(dst_owner), "rename_install",
                {"key": dkey, "record": record},
                ctx=message.ctx,
            )
        self.inodes.delete(skey)
        yield from self._journal(records=2, ctx=message.ctx)
        return {"ok": True}

    def _journal_entry(self, message):
        """Generator: the durable tail of create, mkdir and unlink — the
        entry's record, plus the parent directory's record and mtime
        where the system keeps directory metadata."""
        records = 2 if self.profile.update_dir_metadata else 1
        yield from self._journal(records=records, ctx=message.ctx)
        yield from self._touch_parent(message.payload, ctx=message.ctx)

    # -- unkeyed operations --------------------------------------------------

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

    def _on_rename_install(self, message):
        key = message.payload["key"]
        if self.inodes.get(key) is not None:
            raise RpcFailure(RpcError.EEXIST, key)
        self.inodes.put(key, message.payload["record"])
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


class BaselineClient(OpClient):
    """A stateful DFS client: client-side path resolution + final op RPC."""

    def __init__(self, env, network, shared, profile, name,
                 cache_budget_bytes=None):
        super().__init__(env, network, shared, name,
                         cache_budget_bytes=cache_budget_bytes)
        self.profile = profile
        self.walker = PathWalker(
            env, network.costs, self.dcache, _StatefulOps(self)
        )

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

    def _walk_parent(self, components, ctx):
        """Generator: the parent directory's attrs, resolved client-side."""
        if len(components) == 1:
            return self.walker.root_attrs
        result = yield from self.walker.walk(
            "/" + "/".join(components[:-1]), ctx=ctx)
        return result.attrs

    def _meta_op(self, op, path, extra, ctx=None, extract=None):
        """Generator: walk to the parent, send the op to its server.

        With ``ctx=None`` this is a root operation (it opens and closes
        the root span); otherwise a sub-op phase of ``read_file`` or
        ``write_file``.
        """
        if ctx is None:
            ctx = self._begin_op(op, path)
            data = yield from self._traced(
                ctx, self._meta_op_body(op, path, extra, ctx), path=path)
        else:
            with ctx.span("op." + op, CAT_PHASE, node=self.name):
                data = yield from self._meta_op_body(op, path, extra, ctx)
        return data if extract is None else data[extract]

    def _meta_op_body(self, op, path, extra, ctx):
        components = self._components(path)
        if self.costs.client_op_us:
            yield from self._client_cpu(ctx, self.costs.client_op_us)
        if not components:
            raise RpcFailure(RpcError.EINVAL, "operation on /")
        parent = yield from self._walk_parent(components, ctx)
        if not parent.is_dir:
            raise RpcFailure(RpcError.ENOTDIR, path)
        payload = dict(extra)
        payload["pid"] = parent.ino
        payload["name"] = components[-1]
        data = yield from self._send_keyed(op, parent.ino, payload, ctx=ctx)
        if "attrs" in data:
            attrs = attrs_from_wire(data["attrs"])
            self.dcache.insert(parent.ino, components[-1], attrs,
                               cold=not attrs.is_dir)
        return data

    # -- public API (mirrors FalconClient) -------------------------------

    def mkdir(self, path, mode=0o755, ctx=None):
        attrs = yield from self._meta_op("mkdir", path, {"mode": mode},
                                         ctx=ctx, extract="attrs")
        return attrs["ino"]

    def create(self, path, mode=0o644, exclusive=True, ctx=None):
        attrs = yield from self._meta_op(
            "create", path, {"mode": mode, "exclusive": exclusive},
            ctx=ctx, extract="attrs",
        )
        return attrs["ino"]

    def open_file(self, path, ctx=None):
        if self.profile.open_via_lookup:
            # A lookup carrying the open intent (see MetaServer._on_lookup).
            attrs = yield from self._meta_op(
                "lookup", path, {"intent": "open"}, ctx=ctx, extract="attrs")
        else:
            attrs = yield from self._meta_op("open", path, {}, ctx=ctx,
                                             extract="attrs")
        if attrs["is_dir"]:
            raise RpcFailure(RpcError.EISDIR, path)
        return attrs

    def close(self, path, size=None, ctx=None):
        extra = {} if size is None else {"size": size}
        yield from self._meta_op("close", path, extra, ctx=ctx)

    def unlink(self, path):
        yield from self._meta_op("unlink", path, {})
        self._drop_cached(path)

    def chmod(self, path, mode):
        yield from self._meta_op("setattr", path, {"mode": mode})
        self._drop_cached(path)

    def rmdir(self, path):
        yield from self._meta_op("rmdir", path, {})
        self._drop_cached(path)

    def rename(self, src, dst):
        ctx = self._begin_op("rename", src)
        yield from self._traced(ctx, self._rename_body(src, dst, ctx),
                                path=src)

    def _rename_body(self, src, dst, ctx):
        src_comps = self._components(src)
        dst_comps = self._components(dst)
        if self.costs.client_op_us:
            yield from self._client_cpu(ctx, self.costs.client_op_us)
        if not src_comps or not dst_comps:
            raise RpcFailure(RpcError.EINVAL, "rename involving /")
        sparent = yield from self._walk_parent(src_comps, ctx)
        dparent = yield from self._walk_parent(dst_comps, ctx)
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
        return (yield from self._traced(ctx, self._readdir_body(path, ctx),
                                        path=path))

    def _readdir_body(self, path, ctx):
        components = self._components(path)
        if self.costs.client_op_us:
            yield from self._client_cpu(ctx, self.costs.client_op_us)
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
                yield from self.close(path, ctx=ctx)
            return attrs

        attrs = yield from self._traced(ctx, body(), path=path)
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

        ino = yield from self._traced(ctx, body(), path=path)
        self.metrics.counter("files").inc("written")
        return ino


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
