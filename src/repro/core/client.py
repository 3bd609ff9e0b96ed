"""The FalconFS client module.

Three client modes reproduce the paper's configurations:

* ``"vfs"`` — the stateless client with **VFS shortcut** (§5): path walks
  satisfy intermediate components from the dentry cache with *fake*
  attributes (mode 0777, reserved uid/gid), and the final component's
  operation is sent with the full path to the MNode chosen by hybrid
  indexing.  Exactly one metadata request per operation in the common
  case, independent of the client's cache budget.
* ``"libfs"`` — the LibFS interface used to saturate servers in the
  paper's throughput experiments: same single-request protocol, no VFS
  layer at all.
* ``"nobypass"`` — FalconFS-NoBypass (§6.4): the unmodified VFS performs
  client-side path resolution, so every dcache miss on an intermediate
  component costs a real ``lookup`` RPC; the client is *stateful* and its
  performance depends on the cache budget.

Every client keeps a lazily refreshed exception-table copy: requests carry
the client's table version, responses piggyback a newer table when the
client is stale, and misrouted requests are forwarded server-side in the
meantime (§4.2.1).

:class:`OpClient` is the base of this client and of the baselines'
stateful client (:mod:`repro.baselines.common`): what a client does around
an operation, whatever protocol carries it.
"""

from repro.core.filestore import BlockClient
from repro.core.indexing import (
    ExceptionTable,
    HybridIndex,
    exception_table_from_wire,
)
from repro.core.records import attrs_from_wire
from repro.net import Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import (
    CAT_CPU,
    CAT_PHASE,
    OpContext,
    RETRYABLE,
    RetryPolicy,
    call_all,
    deadline_call,
    retry,
)
from repro.obs.retry import ALL
from repro.vfs import DentryCache, InodeAttrs, ROOT_INO
from repro.vfs.attrs import make_fake_dir_attrs
from repro.vfs.pathwalk import split_path

CLIENT_MODES = ("vfs", "libfs", "nobypass")


class OpClient(Node):
    """What every simulated client shares — FalconFS's and the baselines'.

    A dentry cache and a block client; the per-op deadline and retry
    policy stamped onto each operation's :class:`OpContext`; the
    ack-history tap; and the root-operation plumbing around them: open
    the root span, validate the path, charge client CPU, acknowledge.
    Subclasses supply the metadata protocol (``_meta_op`` and the public
    operations).
    """

    def __init__(self, env, network, shared, name, cache_budget_bytes=None):
        super().__init__(env, network, name, cores=1024)
        self.shared = shared
        self.dcache = DentryCache(budget_bytes=cache_budget_bytes)
        self.blocks = BlockClient(self, shared)
        #: Per-op deadline (us; 0 = none) and shared retry policy, both
        #: stamped onto every operation's OpContext.
        self.deadline_us = shared.config.op_deadline_us
        self.retry_policy = RetryPolicy.from_config(shared.config)
        #: Ack-history tap: when set to a list, every *root* operation
        #: appends one client-visible completion record (op, path,
        #: start/end time, outcome) as it acknowledges — the history the
        #: simulation checker's oracle audits.  None (the default) keeps
        #: the hot path untouched.
        self.ack_log = None

    @staticmethod
    def _components(path):
        """:func:`split_path` for a path the caller supplied: a malformed
        one (relative, empty, ``.``/``..``) is the caller's ``EINVAL`` —
        what a server answers the same input with — not a ``ValueError``
        out of the client.  Called inside the operation's root span and
        before any simulated time is charged, so the failure is
        acknowledged like any other and costs nothing."""
        try:
            return split_path(path)
        except ValueError:
            raise RpcFailure(RpcError.EINVAL, path) from None

    def getattr(self, path, ctx=None):
        if path and not path.strip("/"):
            # "/" (any run of slashes splits to no components).
            return self._getattr_root()
        return self._meta_op("getattr", path, {}, ctx=ctx, extract="attrs")

    def _getattr_root(self):
        """Generator: ``/`` always exists and is answered locally."""
        return {
            "ino": ROOT_INO, "is_dir": True, "mode": 0o777,
            "uid": 0, "gid": 0, "size": 0, "mtime": 0.0, "nlink": 1,
        }
        yield  # pragma: no cover - makes this a generator

    def exists(self, path):
        try:
            yield from self.getattr(path)
        except RpcFailure as failure:
            if failure.code in (RpcError.ENOENT, RpcError.ENOTDIR):
                return False
            raise
        return True

    def _begin_op(self, op, path=None):
        """New :class:`OpContext` for one client-visible operation."""
        deadline = None
        if self.deadline_us:
            # Stamped off the client's *local* clock: under the
            # clock-skew nemesis a client and the server it calls can
            # legitimately disagree about how much budget remains.
            deadline = self.clock.now_us() + self.deadline_us
        ctx = OpContext(
            self.env, op, origin=self.name, tracer=self.shared.tracer,
            deadline=deadline, retry_policy=self.retry_policy,
        )
        ctx.begin(node=self.name,
                  attrs={"path": path}
                  if ctx.traced and path is not None else None)
        return ctx

    def _traced(self, ctx, gen, path=None):
        """Generator: run ``gen`` to completion under ``ctx``'s root span."""
        start_us = self.env.now
        try:
            result = yield from gen
        except BaseException as exc:
            ctx.finish(error=repr(exc))
            if self.ack_log is not None:
                self._ack(ctx.op, path, start_us, exc)
            raise
        ctx.finish()
        if self.ack_log is not None:
            self._ack(ctx.op, path, start_us)
        return result

    def _ack(self, op, path, start_us, exc=None):
        """Append one root-operation completion to the ack history."""
        error = None
        if exc is not None:
            error = exc.code if isinstance(exc, RpcFailure) else repr(exc)
        self.ack_log.append({
            "client": self.name, "op": op, "path": path,
            "start_us": start_us, "end_us": self.env.now,
            "ok": exc is None, "error": error,
        })

    def _client_cpu(self, ctx, cost_us):
        """Generator: charge client-side CPU, attributed to ``ctx``."""
        start = self.env.now
        yield self.env.schedule_timeout(cost_us)
        ctx.record("client", CAT_CPU, start, self.env.now, node=self.name)

    def _cached_parent_ino(self, components):
        current = ROOT_INO
        for name in components[:-1]:
            entry = self.dcache.peek(current, name)
            if entry is None:
                return None
            current = entry.attrs.ino
        return current

    def _drop_cached(self, path):
        """Best-effort local eviction after a namespace change we made."""
        components = split_path(path)
        if not components:
            return
        parent_ino = self._cached_parent_ino(components)
        if parent_ino is not None:
            self.dcache.invalidate(parent_ino, components[-1])


class FalconClient(OpClient):
    """One FalconFS client (a mount point or a LibFS instance)."""

    def __init__(self, env, network, shared, name, mode="vfs",
                 cache_budget_bytes=None):
        if mode not in CLIENT_MODES:
            raise ValueError("unknown client mode: {!r}".format(mode))
        super().__init__(env, network, shared, name,
                         cache_budget_bytes=cache_budget_bytes)
        self.mode = mode
        self.xt = ExceptionTable()
        self.index = HybridIndex(shared.num_slots, self.xt)
        #: Private, possibly stale copy of the cluster slot map.  Never
        #: read from ``shared`` after construction: a request routed by
        #: a stale epoch bounces with ``EMOVED`` carrying the
        #: reassignment, and :meth:`_absorb_moved_hint` patches this copy —
        #: the elastic-namespace analogue of lazy exception-table
        #: refresh.
        self.slot_map = shared.slot_map.copy()
        self.rng = shared.streams.stream("client." + name)
        #: Dedicated stream for backoff jitter, consulted by the shared
        #: retry helper only when ``config.retry_jitter`` is nonzero —
        #: an independent stream so enabling jitter never perturbs
        #: workload-shaping draws from ``self.rng``.
        self.retry_rng = shared.streams.stream("retry." + name)
        self.root_attrs = InodeAttrs(ino=ROOT_INO, is_dir=True, mode=0o777)
        #: Lazy exception-table refresh off responses (§4.2.1).  The
        #: stale-table corner-case experiment disables it to hold the
        #: client at an old version.
        self.auto_refresh_xt = True
        #: Per-attempt RPC timeout (us; 0 = none).  With a timeout set,
        #: ETIMEDOUT becomes retryable: a black-holed request to a
        #: crashed MNode is retried, and since each attempt re-resolves
        #: its target through the cluster directory, the retry lands on
        #: the promoted standby once failover installs it.
        self.rpc_timeout_us = shared.config.rpc_timeout_us
        # Per-attempt counter: paid once here, not per RPC.
        self._requests = self.metrics.counter("requests")
        self._fake_inos = {}
        self._fake_next = -2

    # ------------------------------------------------------------------
    # public API (generators; drive via the cluster facade or env.process)
    # ------------------------------------------------------------------

    def mkdir(self, path, mode=0o755, ctx=None):
        # Plain functions handing back the _meta_op generator: one fewer
        # generator frame for every resume of the operation (the field
        # extraction rides on ``extract`` instead of a wrapper frame).
        return self._meta_op("mkdir", path, {"mode": mode}, ctx=ctx,
                             extract="ino")

    def create(self, path, mode=0o644, exclusive=True, ctx=None):
        return self._meta_op(
            "create", path, {"mode": mode, "exclusive": exclusive},
            ctx=ctx, extract="ino",
        )

    def open_file(self, path, ctx=None):
        """Open for reading; returns the attrs dict (ino, size, ...)."""
        return self._meta_op("open", path, {}, ctx=ctx, extract="attrs")

    def close(self, path, size, ctx=None):
        """Close after writing: persists size/mtime on the owner MNode."""
        yield from self._meta_op("close", path, {"size": size}, ctx=ctx)

    def unlink(self, path):
        yield from self._meta_op("unlink", path, {})

    def chmod(self, path, mode):
        """chmod; files at their owner MNode, directories via coordinator."""
        ctx = self._begin_op("chmod", path)

        def body():
            try:
                yield from self._meta_op("setattr", path, {"mode": mode},
                                         ctx=ctx)
                return
            except RpcFailure as failure:
                if failure.code != RpcError.EISDIR:
                    raise
            # Outside the handler: a generator suspended inside ``except``
            # keeps the failure, its traceback and every frame it crossed
            # alive for the whole coordinator round trip.
            yield from self._coordinator_op(
                "chmod_dir", {"path": path, "mode": mode}, ctx=ctx
            )
            self._drop_cached(path)

        yield from self._traced(ctx, body(), path=path)

    def rmdir(self, path):
        yield from self._coordinator_op("rmdir", {"path": path})
        self._drop_cached(path)

    def rename(self, src, dst):
        yield from self._coordinator_op("rename", {"src": src, "dst": dst})
        self._drop_cached(src)

    def readdir(self, path):
        """List a directory; returns a sorted list of (name, is_dir).

        Hybrid indexing hashes a directory's children over every MNode,
        and every MNode resolves the directory from its own replica, so
        a listing is one round: each MNode is asked for its share at
        once, under one ``rpc_timeout_us`` timer, and the shares are
        merged.  A share that fails fails the round, and the retry
        re-reads the MNode names, so it reaches a promoted leader.  Each
        share names the directory inode it resolved; shares that name
        different ones (the path was renamed away and made again during
        the round) are never merged: the round is retried."""
        ctx = self._begin_op("readdir", path)

        def attempt(_attempt, _hint):
            self._components(path)
            names = self.shared.mnode_names
            self._requests.inc("readdir", len(names))
            with ctx.span("rpc", CAT_PHASE, node=self.name,
                          attrs={"op": "readdir", "target": "*"}
                          if ctx.traced else None):
                replies = yield from call_all(
                    self, ctx, "readdir",
                    [(name, {"path": path}) for name in names],
                    timeout_us=self.rpc_timeout_us or None, rule=ALL)
            if len({reply["data"]["ino"] for reply in replies}) > 1:
                raise RpcFailure(RpcError.ERETRY,
                                 "readdir shares resolved " + path
                                 + " to different directories")
            # Merged as a set: a share lists only the slots its node
            # serves, so a name comes from one node; the set keeps a
            # listing whole even if two ever overlapped.
            return {(name, is_dir) for reply in replies
                    for name, is_dir in reply["data"]["entries"]}

        entries = yield from self._traced(
            ctx, retry(self, ctx, attempt, retryable=self._retryable()),
            path=path)
        return sorted(entries)

    def read_file(self, path):
        """open + read all blocks (+ client-local close); returns size."""
        ctx = self._begin_op("read", path)

        def body():
            attrs = yield from self.open_file(path, ctx=ctx)
            yield from self.blocks.read(attrs["ino"], attrs["size"],
                                        ctx=ctx)
            return attrs

        attrs = yield from self._traced(ctx, body(), path=path)
        self.metrics.counter("files").inc("read")
        return attrs["size"]

    def write_file(self, path, size, mode=0o644, exclusive=True):
        """create + write all blocks + close; returns the new ino."""
        ctx = self._begin_op("write", path)

        def body():
            ino = yield from self.create(path, mode=mode,
                                         exclusive=exclusive, ctx=ctx)
            yield from self.blocks.write(ino, size, ctx=ctx)
            yield from self.close(path, size, ctx=ctx)
            return ino

        ino = yield from self._traced(ctx, body(), path=path)
        self.metrics.counter("files").inc("written")
        return ino

    def symlink(self, target, link_path):
        """Symbolic links are unsupported: the VFS shortcut cannot follow
        links client-side (§5's stated limitation)."""
        raise RpcFailure(RpcError.EINVAL,
                         "symlinks unsupported by the VFS shortcut")
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # metadata request path
    # ------------------------------------------------------------------

    def _meta_op(self, op, path, extra, ctx=None, extract=None):
        """Generator: walk according to the client mode, send the op.

        With ``ctx=None`` this is a root operation (it opens and closes
        the root span); otherwise it runs as a sub-op phase of a
        composite operation such as ``read_file``.
        """
        if ctx is None:
            # Root op: inline the _traced wrapper — one fewer generator
            # frame on every resume of the op's event chain.
            ctx = self._begin_op(op, path)
            start_us = self.env.now
            try:
                data = yield from self._meta_op_body(op, path, extra, ctx)
            except BaseException as exc:
                ctx.finish(error=repr(exc))
                if self.ack_log is not None:
                    self._ack(op, path, start_us, exc)
                raise
            ctx.finish()
            if self.ack_log is not None:
                self._ack(op, path, start_us)
            return data if extract is None else data[extract]
        with ctx.span("op." + op, CAT_PHASE, node=self.name):
            data = yield from self._meta_op_body(op, path, extra, ctx)
        return data if extract is None else data[extract]

    def _meta_op_body(self, op, path, extra, ctx):
        components = self._components(path)
        env = self.env
        vfs = self.mode == "vfs"
        if env.models_costs:
            # Private time is one heap entry: the client's own CPU slice
            # and, under the VFS shortcut, one cache probe per ancestor
            # involve nobody else, so they are slept as one wake-up.
            # Its time is added up slice by slice, left to right — the
            # additions a chain of per-slice timeouts would perform —
            # because ``now + total`` rounds differently.
            costs = self.costs
            start = env.now
            walk_start = wake = start + costs.client_op_us
            if vfs:
                probe_us = costs.cache_probe_us
                for _ in range(len(components) - 1):
                    wake += probe_us
            if wake > start:
                yield env.sleep_until(wake)
            if ctx.traced:
                if walk_start > start:
                    ctx.record("client", CAT_CPU, start, walk_start,
                               node=self.name)
                if vfs:
                    ctx.record("walk", CAT_PHASE, walk_start, wake,
                               node=self.name)
        if not components:
            raise RpcFailure(RpcError.EINVAL, "operation on /")
        if vfs:
            self._vfs_shortcut_walk(components)
        elif self.mode == "nobypass":
            with ctx.span("walk", CAT_PHASE, node=self.name):
                yield from self._stateful_walk(components, ctx)
        payload = dict(extra)
        payload["path"] = path
        data = yield from self._send_routed(op, components[-1], payload, ctx)
        self._cache_final(components, data)
        return data

    def _vfs_shortcut_walk(self, components):
        """Intermediate components resolve to cached fake attrs — no
        RPCs, and no waiting: the probes' simulated time was slept by
        the caller, so the whole walk happens at one instant.

        Mirrors §5: ``lookup()`` is called with LOOKUP_PARENT for
        non-final components and returns fake attributes; on a dcache hit
        ``d_revalidate`` accepts fake entries only while LOOKUP_PARENT is
        set, so a fake entry hit as the *final* component is refreshed by
        the operation's own full-path request (sent by the caller).
        """
        current = ROOT_INO
        dcache = self.dcache
        for name in components[:-1]:
            entry = dcache.lookup(current, name)
            if entry is None:
                attrs = make_fake_dir_attrs(self._fake_ino(current, name))
                entry = dcache.insert(current, name, attrs)
            current = entry.attrs.ino
        final = dcache.peek(current, components[-1])
        if final is not None and final.attrs.is_fake:
            # d_revalidate: fake attrs must never satisfy a final lookup.
            self.metrics.counter("revalidate_fake").inc()
            dcache.invalidate(current, components[-1])

    def _stateful_walk(self, components, ctx):
        """NoBypass: real client-side resolution through the dcache."""
        current = self.root_attrs
        probe_us = self.costs.cache_probe_us if self.env.models_costs else 0.0
        for name in components[:-1]:
            if probe_us:
                yield self.env.schedule_timeout(probe_us)
            if not current.is_dir:
                raise RpcFailure(RpcError.ENOTDIR, name)
            if not current.allows_exec():
                raise RpcFailure(RpcError.EACCES, name)
            entry = self.dcache.lookup(current.ino, name)
            if entry is None:
                data = yield from self._send_routed(
                    "lookup", name, {"pid": current.ino, "name": name}, ctx
                )
                entry = self.dcache.insert(current.ino, name,
                                           attrs_from_wire(data["attrs"]))
            current = entry.attrs

    def _send_routed(self, op, name, payload, ctx):
        """Route by hybrid indexing; retries (with the shared
        exponential-backoff helper) on ERETRY, honouring a redirect hint
        on EREDIRECT.  Returns the retry generator directly (both this
        function and ``attempt`` are plain functions, keeping two frames
        off every resume of the RPC chain)."""
        payload["xt_version"] = self.xt.version

        def attempt(_attempt, hint):
            if hint is not None:
                target_name = hint
            elif op == "lookup" and "pid" in payload:
                target = self.index.locate(payload["pid"], name)
                target_name = self._resolve_slot(target)
            else:
                target, _ = self.index.client_target(name, self.rng)
                target_name = self._resolve_slot(target)
            payload["xt_version"] = self.xt.version
            return self._request(target_name, op, payload, ctx)

        return retry(self, ctx, attempt, retryable=self._retryable())

    def _resolve_slot(self, slot):
        """Name of the node hosting ``slot`` per the client's *private*
        slot map.  A stale answer is safe: the old host forwards or
        bounces ``EMOVED``, which patches the map for the retry."""
        return self.shared.node_name(self.slot_map.node_of(slot))

    def _absorb_moved_hint(self, detail):
        """Absorb an ``EMOVED`` bounce (called by the shared retry
        helper): adopt the advertised reassignment if its epoch is ahead
        of the private map's."""
        if self.slot_map.patch(detail["slot"], detail["node"],
                               detail["epoch"]):
            self.metrics.counter("slot_map_patches").inc()

    def _retryable(self):
        """Failure codes the retry loop recovers from.  Timeouts are
        retryable only under a per-attempt timeout — without one, a
        timeout means the whole operation deadline expired."""
        if self.rpc_timeout_us:
            return RETRYABLE + (RpcError.ETIMEDOUT,)
        return RETRYABLE

    def _request(self, target, op, payload, ctx):
        """Generator: one RPC, with lazy exception-table refresh."""
        self._requests.inc(op)
        timeout_us = self.rpc_timeout_us or None
        with ctx.span("rpc", CAT_PHASE, node=self.name,
                      attrs={"op": op, "target": target}
                      if ctx.traced else None):
            if timeout_us is None and ctx.deadline is None:
                # deadline_call's no-deadline fast path, inlined: one RPC,
                # no watchdog, and no extra generator frame per resume.
                body = yield self.call(target, op, payload, ctx=ctx)
            else:
                body = yield from deadline_call(
                    self, ctx, target, op, payload, timeout_us=timeout_us,
                )
        if isinstance(body, dict):
            table = body.get("xt")
            if table is not None:
                self._install_xt(exception_table_from_wire(table))
            if "data" in body:
                return body["data"]
        return body

    def _coordinator_op(self, op, payload, ctx=None):
        if ctx is None:
            op_path = payload.get("path") or payload.get("src")
            ctx = self._begin_op(op, op_path)
            start_us = self.env.now
            try:
                body = yield from self._coordinator_op_body(op, payload,
                                                            ctx)
            except BaseException as exc:
                ctx.finish(error=repr(exc))
                if self.ack_log is not None:
                    self._ack(op, op_path, start_us, exc)
                raise
            ctx.finish()
            if self.ack_log is not None:
                self._ack(op, op_path, start_us)
            return body
        with ctx.span("op." + op, CAT_PHASE, node=self.name):
            body = yield from self._coordinator_op_body(op, payload, ctx)
        return body

    def _coordinator_op_body(self, op, payload, ctx):
        for field in ("path", "src", "dst"):
            if field in payload:
                self._components(payload[field])
        if self.env.models_costs and self.costs.client_op_us:
            yield from self._client_cpu(ctx, self.costs.client_op_us)

        def attempt(_attempt, _hint):
            self._requests.inc(op)
            with ctx.span("rpc", CAT_PHASE, node=self.name,
                          attrs={"op": op,
                                 "target": self.shared.coordinator_name}
                          if ctx.traced else None):
                body = yield from deadline_call(
                    self, ctx, self.shared.coordinator_name, op, payload,
                    timeout_us=self.rpc_timeout_us or None,
                )
            return body

        body = yield from retry(self, ctx, attempt,
                                retryable=self._retryable())
        return body

    def _install_xt(self, table):
        if not self.auto_refresh_xt:
            return
        if self.xt.adopt(table):
            self.metrics.counter("xt_refreshes").inc()

    # ------------------------------------------------------------------
    # cache helpers
    # ------------------------------------------------------------------

    def _fake_ino(self, parent_ino, name):
        """Stable client-local ids for fake dentries (negative range)."""
        key = (parent_ino, name)
        ino = self._fake_inos.get(key)
        if ino is None:
            ino = self._fake_next
            self._fake_next -= 1
            self._fake_inos[key] = ino
        return ino

    def _cache_final(self, components, data):
        """Cache real final-component attrs (both client modes)."""
        if self.mode == "libfs" or not isinstance(data, dict):
            return
        wire = data.get("attrs")
        if wire is None:
            return
        parent_ino = self._cached_parent_ino(components)
        if parent_ino is None:
            return
        self.dcache.insert(parent_ino, components[-1], attrs_from_wire(wire),
                           cold=not wire["is_dir"])
