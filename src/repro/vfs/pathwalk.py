"""The VFS path-walk state machine.

:class:`PathWalker` resolves a path component by component through the
dentry cache, calling out to a pluggable *ops* object — the file system's
client module — on cache misses and cache hits alike, exactly as the VFS
calls ``lookup()`` and ``d_revalidate()``:

* ``ops.lookup(parent_attrs, name, flags, full_path, ctx=None)`` —
  generator; returns the component's :class:`~repro.vfs.attrs.InodeAttrs`.
  ``flags`` contains :data:`LOOKUP_PARENT` while the final component has
  not been reached (the Linux >= 5.7 semantics FalconFS's shortcut relies
  on).  ``ctx`` is the walking operation's
  :class:`~repro.obs.OpContext` (or ``None``), so lookup RPCs inherit
  the op's trace identity, deadline and retry budget.
* ``ops.revalidate(entry, flags, full_path, ctx=None)`` — generator;
  returns the (possibly refreshed) attrs for a cache hit, or ``None`` to
  force a miss.

The baseline clients use a trivial revalidate (trust the cache) and a
remote lookup.  The FalconFS client does not walk through here; only
the baselines, the tests and the ledger's path-walk micro do.
"""

from repro.net.rpc import RpcError, RpcFailure
from repro.obs import CAT_PHASE, NULL_CONTEXT
from repro.vfs.attrs import ROOT_INO, InodeAttrs

#: Flag set while the walk has not yet reached the final component.
LOOKUP_PARENT = 0x1


def split_path(path):
    """Split a path into its components ('/' -> []), validating it.

    Returns a fresh list, so callers may slice or mutate freely.  Nothing
    is memoized: the process holds no state per path it has seen (a
    dataset's paths are mostly touched once, and a long-running MNode
    sees unboundedly many), so the split itself is kept cheap instead:
    one ``str.split``, with each validity check a substring test on the
    path before any scan of the parts.
    """
    if not path or path[0] != "/":
        raise ValueError("path must be absolute: {!r}".format(path))
    if "//" in path or path[-1] == "/":     # empty components ('/' too)
        parts = [p for p in path.split("/") if p]
    else:
        parts = path[1:].split("/")
    if "/." in path and ("." in parts or ".." in parts):
        raise ValueError("'.'/'..' components not supported: {!r}".format(path))
    return parts


def normalize_path(path):
    """Normalize to an absolute, no-trailing-slash, no-empty-component path."""
    return "/" + "/".join(split_path(path))


def join_path(directory, name):
    directory = normalize_path(directory)
    if directory == "/":
        return "/" + name
    return directory + "/" + name


def parent_path(path):
    """The parent directory of ``path`` ('/a/b' -> '/a', '/a' -> '/')."""
    parts = split_path(path)
    if not parts:
        raise ValueError("root has no parent")
    return "/" + "/".join(parts[:-1])


def basename(path):
    parts = split_path(path)
    if not parts:
        raise ValueError("root has no basename")
    return parts[-1]


class WalkResult:
    """Outcome of a path walk."""

    __slots__ = ("parent_attrs", "attrs", "name", "components_walked")

    def __init__(self, parent_attrs, attrs, name, components_walked):
        self.parent_attrs = parent_attrs
        self.attrs = attrs
        self.name = name
        self.components_walked = components_walked


class PathWalker:
    """Walks paths through a :class:`~repro.vfs.dcache.DentryCache`."""

    def __init__(self, env, costs, dcache, ops, root_attrs=None):
        self.env = env
        self.costs = costs
        self.dcache = dcache
        self.ops = ops
        self.root_attrs = root_attrs or InodeAttrs(
            ino=ROOT_INO, is_dir=True, mode=0o755
        )

    def walk(self, path, last_must_exist=True, ctx=None):
        """Generator resolving ``path``.

        Returns a :class:`WalkResult`.  When ``last_must_exist`` is False
        and only the final component is missing, ``attrs`` is None (the
        create-style walk).  Raises :class:`RpcFailure` with ``ENOENT`` /
        ``ENOTDIR`` / ``EACCES`` as appropriate.  ``ctx`` (an
        :class:`~repro.obs.OpContext`) scopes the whole walk under a
        ``walk`` span and flows into every lookup RPC.
        """
        ctx = ctx or NULL_CONTEXT
        components = split_path(path)
        if not components:
            return WalkResult(None, self.root_attrs, "/", 0)
        current = self.root_attrs
        walked = 0
        attrs = None
        with ctx.span("walk", CAT_PHASE,
                      attrs={"components": len(components)}
                      if ctx.traced else None):
            for index, name in enumerate(components):
                final = index == len(components) - 1
                flags = 0 if final else LOOKUP_PARENT
                if not current.is_dir:
                    raise RpcFailure(RpcError.ENOTDIR, path)
                if not current.allows_exec():
                    raise RpcFailure(RpcError.EACCES, path)
                if self.costs.cache_probe_us:
                    yield self.env.timeout(self.costs.cache_probe_us)
                attrs = None
                entry = self.dcache.lookup(current.ino, name)
                if entry is not None:
                    attrs = yield from self.ops.revalidate(
                        entry, flags, path, ctx=ctx
                    )
                if attrs is None:
                    try:
                        attrs = yield from self.ops.lookup(
                            current, name, flags, path, ctx=ctx
                        )
                    except RpcFailure as failure:
                        if (
                            failure.code == RpcError.ENOENT
                            and final
                            and not last_must_exist
                        ):
                            return WalkResult(current, None, name,
                                              walked + 1)
                        raise
                    if attrs is not None:
                        self.dcache.insert(current.ino, name, attrs)
                if attrs is None:
                    raise RpcFailure(RpcError.ENOENT, path)
                walked += 1
                current = attrs
        parents = components[:-1]
        parent_attrs = self.root_attrs if not parents else None
        return WalkResult(
            parent_attrs if parent_attrs is not None else self._parent_of(path),
            attrs,
            components[-1],
            walked,
        )

    def _parent_of(self, path):
        """Parent attrs from the cache (best effort; may be None)."""
        parts = split_path(path)
        current = self.root_attrs
        for name in parts[:-1]:
            entry = self.dcache.peek(current.ino, name)
            if entry is None:
                return None
            current = entry.attrs
        return current
