"""Import-boundary lint: protocol layers must not touch the DES kernel.

The environment abstraction (:mod:`repro.runtime`) exists so that the
protocol machines — clients, MNodes, coordinator, replication, WAL,
transport, retry — run unchanged on the simulated clock and on asyncio.
That only holds if nothing in those layers imports :mod:`repro.sim.engine`
(or the :mod:`repro.sim` package facade) directly; everything they need is
on the environment contract (:mod:`repro.runtime.api`).

``repro.sim.rng`` is explicitly allowed: it is a pure seeded-PRNG helper
with no dependence on the simulation kernel or clock.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Layers that must stay environment-agnostic.  ``parallel`` is pure
#: stdlib multiprocessing: it ships pickled tasks to workers and must
#: never bind to a kernel (workers import whatever the task needs).
GUARDED = ["core", "storage", "net", "obs", "runtime", "serve", "metrics",
           "vfs", "parallel"]

#: Exact sim modules that are kernel-free and therefore allowed.
ALLOWED_SIM = {"repro.sim.rng"}

#: The sanctioned kernel adapters — the two drivers of the one kernel
#: (checked separately below).
ADAPTERS = {"runtime/sim_env.py", "runtime/aio.py"}


def _imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # Judge the full dotted name: ``from repro.sim import engine``
            # names the kernel, ``from repro.sim import rng`` does not.
            module = node.module or ""
            for alias in node.names:
                yield node.lineno, "{}.{}".format(module, alias.name)


def _allowed(name):
    # "repro.sim.rng" itself, or a name imported from it
    # ("repro.sim.rng.RandomStreams").
    return any(name == ok or name.startswith(ok + ".")
               for ok in ALLOWED_SIM)


def _violations(module_name):
    bad = []
    for path in sorted((SRC / module_name).rglob("*.py")):
        if path.relative_to(SRC).as_posix() in ADAPTERS:
            continue
        for lineno, name in _imports(path):
            if name != "repro.sim" and not name.startswith("repro.sim."):
                continue
            if not _allowed(name):
                bad.append("{}:{}: imports {}".format(
                    path.relative_to(SRC.parent), lineno, name))
    return bad


@pytest.mark.parametrize("layer", GUARDED)
def test_layer_does_not_import_sim_kernel(layer):
    violations = _violations(layer)
    assert not violations, (
        "environment-agnostic layer '{}' reached into the DES kernel:\n{}"
        .format(layer, "\n".join(violations)))


def test_kernel_adapters_are_exactly_the_two_drivers():
    """The sanctioned bridges: under ``runtime/``, ``sim_env.py`` and
    ``aio.py`` import repro.sim.engine and nothing else does."""
    importers = {
        path.relative_to(SRC).as_posix()
        for path in (SRC / "runtime").rglob("*.py")
        if any(name.startswith("repro.sim.engine")
               for _, name in _imports(path))
    }
    assert importers == ADAPTERS


#: Methods only an event (``succeed``), a process (``_resume``) or a
#: condition (``_observe``) implementation defines.
KERNEL_SIGNATURE = {"succeed", "_resume", "_observe"}


def test_no_second_kernel_outside_sim():
    """Every primitive is written once, under ``src/repro/sim/``: the
    real-time driver inherits the kernel's classes, it does not mirror
    them."""
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "sim":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {child.name for child in node.body
                       if isinstance(child, ast.FunctionDef)}
            if defined & KERNEL_SIGNATURE:
                bad.append("{}:{}: class {} defines {}".format(
                    path.relative_to(SRC.parent), node.lineno, node.name,
                    sorted(defined & KERNEL_SIGNATURE)))
    assert not bad, (
        "an event/process/condition implementation outside the kernel:\n"
        + "\n".join(bad))


def test_guard_list_is_current():
    """Every src/repro subpackage is either guarded or a known sim layer."""
    layers = {p.name for p in SRC.iterdir() if p.is_dir()
              if (p / "__init__.py").exists()}
    unguarded = layers - set(GUARDED)
    # Simulation-side layers, free to use the kernel directly.
    assert unguarded <= {"sim", "faults", "workloads", "experiments",
                         "baselines", "analysis", "check", "cli"}, (
        "new subpackage {} — add it to GUARDED or the sim-side allowlist"
        .format(sorted(unguarded)))


# ----------------------------------------------------------------------
# the owner-write scaffold is unskippable
# ----------------------------------------------------------------------

MNODE = SRC / "core" / "mnode.py"

#: Functions of core/mnode.py allowed to do what only the ``_OwnerWrite``
#: scaffold may (see :func:`_scaffold_only`).
SCAFFOLD_EXEMPT = {"MNode.__init__"}   # declares the writer counter


def _functions(tree):
    """(qualified name, node) for every function, nested ones under
    their enclosing function's name."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                yield prefix + child.name, child
    return visit(tree, "")


def _scaffold_only(node):
    """What ``node`` does that only the scaffold may, or None: touch the
    slot-writer registry, open a transaction, write a WAL record, or
    take a lock that is not spelled SHARED — a lock set through
    ``acquire_all`` or ``try_acquire_all`` counts whatever its modes."""
    if isinstance(node, ast.Attribute) and node.attr == "_slot_writers":
        return "touches _slot_writers"
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        name, receiver = func.id, ""
    elif isinstance(func, ast.Attribute):
        name, receiver = func.attr, ast.unparse(func.value)
    else:
        return None
    if name in ("Transaction", "_txn"):
        return "opens a transaction"
    if name == "commit" and "wal" in receiver:
        return "writes a WAL record"
    if "locks" not in receiver:
        return None
    if name in ("acquire_all", "try_acquire_all"):
        return "acquires a lock set"
    if name in ("acquire", "try_acquire"):
        modes = [ast.unparse(arg) for arg in node.args[1:2]]
        modes += [ast.unparse(kw.value) for kw in node.keywords
                  if kw.arg == "mode"]
        if modes != ["LockMode.SHARED"]:
            return "takes a lock that is not SHARED"
    return None


def test_owner_writes_go_through_the_scaffold():
    tree = ast.parse(MNODE.read_text(), filename=str(MNODE))
    seen = set()
    bad = []
    inside = set()
    for name, fn in _functions(tree):
        seen.add(name)
        for node in ast.walk(fn):
            what = _scaffold_only(node)
            if what is None:
                continue
            if name.startswith("_OwnerWrite."):
                inside.add(what)
            elif name not in SCAFFOLD_EXEMPT:
                bad.append("{}:{}: {} {}".format(MNODE.name, node.lineno,
                                                 name, what))
    assert not bad, (
        "writes in core/mnode.py must run inside _OwnerWrite:\n"
        + "\n".join(bad))
    # The lint must actually see the scaffold doing each of these, or a
    # renamed API would blind it.
    assert SCAFFOLD_EXEMPT <= seen
    assert inside == {"touches _slot_writers", "opens a transaction",
                      "writes a WAL record", "acquires a lock set"}


@pytest.mark.parametrize("source", [
    "self.locks.acquire(key, LockMode.EXCLUSIVE)",
    "self.locks.acquire(key, 'X', ctx=ctx)",
    "self.locks.try_acquire(key, mode)",
    "self.locks.acquire_all([(key, LockMode.SHARED)], grants)",
    "self.node.locks.try_acquire_all(requests, self.grants)",
    "Transaction(env, wal, costs)",
    "self._txn(ctx=ctx)",
    "self.wal.commit(64, ctx=ctx)",
    "self._slot_writers[slot] += 1",
])
def test_scaffold_lint_flags_every_spelling(source):
    assert any(_scaffold_only(node) for node in ast.walk(ast.parse(source)))


def test_scaffold_lint_allows_shared_reads():
    source = "self.locks.acquire(('i',) + key, LockMode.SHARED, ctx=ctx)"
    assert not any(_scaffold_only(node)
                   for node in ast.walk(ast.parse(source)))


def test_core_never_probes_shipper_capabilities():
    """LogShipper and ReplicatedLog share one declared surface; nothing
    under core/ may ask a shipper, follower or standby what it is."""
    bad = []
    for path in sorted((SRC / "core").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("hasattr", "isinstance")
                    and node.args and any(
                        word in ast.unparse(node.args[0])
                        for word in ("shipper", "follower", "standby"))):
                bad.append("{}:{}: {}".format(
                    path.relative_to(SRC.parent), node.lineno,
                    ast.unparse(node)))
    assert not bad, "\n".join(bad)


CLUSTER = SRC / "core" / "cluster.py"

#: The methods of core/cluster.py that may touch node tables: the bulk
#: load writes them directly (the paper pre-creates its datasets too),
#: and ``inode_distribution`` counts them.
TABLE_TOUCHERS = {"FalconCluster.bulk_load", "FalconCluster._bulk_standby",
                  "FalconCluster.inode_distribution"}


def _surgery(node):
    """What ``node`` does that recovery from outside a node would, or
    None: touch a node's tables or log entries, run its redo or its
    promotion steps, bump a term, or read the ship-LSN origin.  Reading
    shipper positions stays allowed: it is the loss audit the crash and
    failover records report (``lag``, ``lost_txns``)."""
    if isinstance(node, ast.Attribute):
        if node.attr in ("inodes", "dentries", "meta", "entries"):
            return "touches ." + node.attr
        if node.attr in ("_ship_anchor", "_ship_base"):
            return "reads ." + node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("replay", "promote_tables",
                                   "force_apply_all", "_last_lsn",
                                   "_last_term", "next_term")):
        return "calls .{}(".format(node.func.attr)
    return None


def test_cluster_delivers_faults_and_nodes_recover_themselves():
    """``FalconCluster`` builds the cluster, delivers faults and audits;
    a node recovers from its own disk (``MNode.boot``) and learns its
    role from the coordinator (``register``).  No other method of
    core/cluster.py reads or writes a node's state."""
    tree = ast.parse(CLUSTER.read_text(), filename=str(CLUSTER))
    seen = set()
    bad = []
    for name, fn in _functions(tree):
        seen.add(name)
        if name in TABLE_TOUCHERS:
            continue
        for node in ast.walk(fn):
            what = _surgery(node)
            if what is not None:
                bad.append("{}:{}: {} {}".format(CLUSTER.name, node.lineno,
                                                 name, what))
    assert not bad, "recovery surgery in core/cluster.py:\n" + "\n".join(bad)
    assert TABLE_TOUCHERS <= seen


@pytest.mark.parametrize("source", [
    "node.inodes = tables['inode']",
    "old.meta.scan_prefix(('slot',))",
    "follower.entries[-1]",
    "entries, torn = old.wal.replay()",
    "standby.promote_tables()",
    "follower.force_apply_all()",
    "follower._last_term()",
    "self.coordinator.next_term(index)",
    "anchor = old._ship_anchor",
])
def test_surgery_lint_flags_every_spelling(source):
    assert any(_surgery(node) for node in ast.walk(ast.parse(source)))


#: Files under core/ whose ``all_of`` over RPCs is not a server
#: broadcast, and why they keep it.
FAN_OUT_ALLOWED = {
    "core/filestore.py": "data path: a client's block reads and writes to "
                         "the storage nodes, not a server broadcast",
}


def _issues_rpc(node):
    """True when ``node`` contains an RPC issue, ``<x>.call(...)``."""
    return any(isinstance(sub, ast.Call)
               and isinstance(sub.func, ast.Attribute)
               and sub.func.attr == "call" for sub in ast.walk(node))


def _hand_rolled_fan_outs(tree):
    """Lines where ``all_of`` waits on a list built from ``.call(``
    expressions — inline, or through a name that is assigned or
    appended such calls in the same function."""
    bad = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        lists = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _issues_rpc(node.value):
                lists.update(target.id for target in node.targets
                             if isinstance(target, ast.Name))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "extend")
                    and isinstance(node.func.value, ast.Name)
                    and any(_issues_rpc(arg) for arg in node.args)):
                lists.add(node.func.value.id)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "all_of" and node.args
                    and (_issues_rpc(node.args[0])
                         or isinstance(node.args[0], ast.Name)
                         and node.args[0].id in lists)):
                bad.add(node.lineno)
    return sorted(bad)


def test_core_broadcasts_go_through_call_all():
    """Every server-side fan-out under core/ is one
    ``obs.retry.call_all`` round with a deadline and a stated failure
    rule; none waits on ``env.all_of`` over hand-issued calls."""
    bad = []
    seen = set()
    for path in sorted((SRC / "core").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        lines = _hand_rolled_fan_outs(
            ast.parse(path.read_text(), filename=str(path)))
        if rel in FAN_OUT_ALLOWED:
            assert lines, "stale FAN_OUT_ALLOWED entry: " + rel
            seen.add(rel)
            continue
        bad.extend("{}:{}".format(rel, line) for line in lines)
    assert not bad, (
        "a server fan-out must be a call_all round (obs/retry.py):\n"
        + "\n".join(bad))
    assert set(FAN_OUT_ALLOWED) == seen


@pytest.mark.parametrize("source", [
    "def f(self):\n"
    "    yield self.env.all_of([self.call(p, 'k') for p in peers])",
    "def f(self):\n"
    "    calls = [self.call(p, 'k', ctx=ctx) for p in self._peers()]\n"
    "    replies = yield self.env.all_of(calls)",
    "def f(self):\n"
    "    calls = []\n"
    "    for p in peers:\n"
    "        calls.append(self.node.call(p, 'k'))\n"
    "    yield self.node.env.all_of(calls)",
])
def test_fan_out_lint_flags_every_spelling(source):
    assert _hand_rolled_fan_outs(ast.parse(source))


def test_fan_out_lint_allows_waiting_on_processes_and_events():
    source = ("def f(self):\n"
              "    yield self.env.all_of([self.env.process(g) for g in gs])\n"
              "    halves = [done for done in self._open_halves]\n"
              "    yield self.env.all_of(halves)\n")
    assert not _hand_rolled_fan_outs(ast.parse(source))


COORDINATOR = SRC / "core" / "coordinator.py"


def _takes_locks(node):
    """True when ``node`` takes locks: ``acquire``, ``acquire_all`` or
    ``try_acquire_all`` called on a receiver named for a lock manager."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("acquire", "acquire_all",
                                   "try_acquire_all")
            and "locks" in ast.unparse(node.func.value))


def test_coordinator_locks_only_where_it_rechecks():
    """The coordinator takes path locks in one place,
    ``Coordinator._resolve_and_lock``, which re-checks every chain it
    resolved once the locks are held.  An operation that locked a
    resolved chain anywhere else could act on a path a concurrent
    rmdir, chmod or rename had already changed."""
    tree = ast.parse(COORDINATOR.read_text(), filename=str(COORDINATOR))
    lockers = {name: node.lineno for name, fn in _functions(tree)
               for node in ast.walk(fn) if _takes_locks(node)}
    assert list(lockers) == ["Coordinator._resolve_and_lock"], (
        "coordinator locks outside _resolve_and_lock: {}".format(lockers))


@pytest.mark.parametrize("source", [
    "yield from self.locks.acquire_all(sorted(requests), grants, ctx=ctx)",
    "grant = self.locks.acquire(key, LockMode.SHARED)",
    "locks = self.locks\n"
    "yield from locks.acquire_all(requests, grants)",
    "yield from coordinator.locks.acquire_all(requests, grants)",
    "self.locks.try_acquire_all(requests, grants)",
])
def test_coordinator_lock_lint_flags_every_spelling(source):
    assert any(_takes_locks(node) for node in ast.walk(ast.parse(source)))


def test_coordinator_lock_lint_allows_releases_and_other_mutexes():
    source = ("self.locks.release_all(grants)\n"
              "mutex = self._migration_mutex.request()\n")
    assert not any(_takes_locks(node) for node in ast.walk(ast.parse(source)))


# ----------------------------------------------------------------------
# a listing is one round from the client
# ----------------------------------------------------------------------

#: The MNode's code: its handlers and the replica mixin they resolve with.
MNODE_SOURCES = (MNODE, SRC / "core" / "replica.py")

#: Calls that put a message on the wire, and the position of its kind.
WIRE_SENDS = {"send": 1, "call": 1, "deadline_call": 3, "call_all": 2,
              "redeliver": 2, "redeliver_later": 2, "Message": 2}

#: Words that make a message kind a listing, or a share of one.
LISTING_WORDS = ("readdir", "scan", "list")


def _listing_sends(tree):
    """Lines where a message whose kind names a listing is sent."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name not in WIRE_SENDS:
            continue
        kinds = [kw.value for kw in node.keywords if kw.arg == "kind"]
        if not kinds and len(node.args) > WIRE_SENDS[name]:
            kinds = [node.args[WIRE_SENDS[name]]]
        if any(isinstance(kind, ast.Constant) and isinstance(kind.value, str)
               and any(word in kind.value for word in LISTING_WORDS)
               for kind in kinds):
            bad.append(node.lineno)
    return bad


def test_no_mnode_relays_a_listing():
    """A listing is one round: the client asks every MNode for its
    share, and each answers its own rows.  An MNode that sent a listing
    RPC to another would put a second round trip back on the critical
    path (the relay this design deleted)."""
    bad = []
    for path in MNODE_SOURCES:
        bad.extend("{}:{}".format(path.name, line) for line in
                   _listing_sends(ast.parse(path.read_text(),
                                            filename=str(path))))
    assert not bad, (
        "an MNode sends a listing RPC to another MNode:\n" + "\n".join(bad))


@pytest.mark.parametrize("source", [
    "reply = self.call(peer, 'readdir', {'path': path})",
    "replies = yield from call_all(self, ctx, 'scan_children', calls,\n"
    "                              rule=ALL)",
    "body = yield from deadline_call(self, ctx, peer, 'readdir', payload)",
    "self.send(peer, kind='list_children', payload=payload)",
    "yield from redeliver(self, resolve, 'readdir_share', payload)",
    "self.network.send(Message(self.name, peer, 'scan_children', payload,\n"
    "                          size, reply_to))",
])
def test_listing_lint_flags_every_spelling(source):
    assert _listing_sends(ast.parse(source))


def test_listing_lint_allows_local_scans_and_other_rounds():
    source = ("self.metrics.counter('ops').inc('readdir')\n"
              "entries = self._scan_children(pid)\n"
              "yield from call_all(self, ctx, 'invalidate', calls)\n"
              "self.network.send(Message(self.name, peer, message.kind,\n"
              "                          payload, size, reply_to))\n")
    assert not _listing_sends(ast.parse(source))
