"""Message totality lint: every kind that is sent has a handler, every
handler has a sender, and no role that can inherit another role's name
crashes on a kind it does not own.

The protocol's message vocabulary is spread over string literals: the
kind a caller names in ``call(target, "kind", ...)`` and the
``_on_<kind>`` method that receives it.  ``Node.handle`` is the one
dispatcher: it runs the receiver's ``_on_<kind>``, and a kind with no
such method goes to the role's ``_unhandled`` hook.  Nothing ties the
two ends together at run time until a schedule happens to deliver the
message -- a handler (``_on_fetch_xt``) once outlived its last sender,
and 26 red checker seeds were one ``rename_abort`` delivered to a role
that answered an unknown kind by raising.  Both are visible statically.
"""

import ast
import importlib
import inspect
from pathlib import Path

from repro.core.mnode import MERGEABLE_OPS
from repro.net import Node
from repro.storage.replication import refuse_unowned
from tests.test_layering import SRC

#: The layers that name message kinds (``runtime``/``net`` carry kinds,
#: never name them).  The baselines' vocabulary is closed over their own
#: servers plus the storage nodes' ``write_block``.
LAYERS = ("core", "storage", "faults", "baselines")

#: Functions that take the kind of the message they send, and the
#: position of that argument.  The first six are the sending surface;
#: the rest are client/coordinator wrappers that pass ``op`` through.
SENDERS = {
    "send": 1, "call": 1, "deadline_call": 3, "call_all": 2, "redeliver": 2,
    "_slot_call": 1,
    "_meta_op": 0, "_meta_op_body": 0, "_send_routed": 0, "_request": 1,
    "_coordinator_op": 0, "_coordinator_op_body": 0, "_directory_change": 1,
    "_send_keyed": 0, "_poll": 0,
}


def _trees(layers=LAYERS):
    for layer in layers:
        for path in sorted((SRC / layer).rglob("*.py")):
            yield (path.relative_to(SRC).as_posix(),
                   ast.parse(path.read_text(), filename=str(path)))


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _kind_argument(call):
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return keyword.value
    position = SENDERS[_callee(call)]
    # ``Network.send(message)`` forwards a built message: no kind here.
    return call.args[position] if len(call.args) > position else None


def _sent_kinds():
    """({kind: [site]}, [sites naming a kind no lint can read])."""
    sent, opaque = {}, []

    def visit(node, rel, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call) and _callee(node) in SENDERS:
            site = "{}:{}".format(rel, node.lineno)
            kind = _kind_argument(node)
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                sent.setdefault(kind.value, []).append(site)
            elif kind is not None and not enclosing & set(SENDERS):
                # A variable kind is fine inside a wrapper (its callers
                # are read instead); anywhere else it hides a kind.
                opaque.append("{}: {}".format(site, ast.unparse(node)[:70]))
        for child in ast.iter_child_nodes(node):
            visit(child, rel, enclosing)

    for rel, tree in _trees():
        visit(tree, rel, frozenset())
    return sent, opaque


def _module(rel):
    parts = rel[:-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro"] + parts)


def _roles():
    """{"path:Class": class} for :class:`Node` and every subclass of it
    that the layers define."""
    for rel, _ in _trees():
        importlib.import_module(_module(rel))
    roles, pending = {}, [Node]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            rel = Path(inspect.getfile(cls)).relative_to(SRC).as_posix()
            roles["{}:{}".format(rel, cls.__name__)] = cls
    return roles


def _handled_kinds():
    handled = {}
    for site, cls in _roles().items():
        for name in vars(cls):                  # _on_a = _on_b counts too
            if name.startswith("_on_"):
                handled.setdefault(name[len("_on_"):], []).append(site)
    # MNode.deliver routes these to the merge pool, not to ``_on_*``.
    for kind in MERGEABLE_OPS:
        handled.setdefault(kind, []).append("core/mnode.py:MERGEABLE_OPS")
    return handled


def test_every_kind_sent_is_handled_and_every_handler_has_a_sender():
    sent, opaque = _sent_kinds()
    handled = _handled_kinds()
    assert not opaque, (
        "a message kind the lint cannot read (pass a literal, or add the "
        "wrapper to SENDERS):\n" + "\n".join(opaque))
    # The collectors must actually see the vocabulary.
    assert {"rename_abort", "wal_ship", "append_entries", "mkdir",
            "readdir"} <= set(sent) & set(handled)
    unhandled = {k: v for k, v in sent.items() if k not in handled}
    unsent = {k: v for k, v in handled.items() if k not in sent}
    assert not unhandled, "sent, but no role handles it: {}".format(unhandled)
    assert not unsent, "handled, but nothing sends it: {}".format(unsent)


#: Roles registered under a name another role used to hold: a restarted
#: machine rejoins as a Standby / ConsensusFollower *under its old MNode
#: name*, so anything addressed to the former owner reaches them.
NAME_OUTLIVES_ROLE = {"Standby", "ConsensusFollower", "Witness"}

#: Every other role that answers an unknown kind by raising (the
#: default ``Node._unhandled``), with the reason no re-addressed name
#: can reach it.
MAY_RAISE = {
    "core/mnode.py:MNode":
        "an MNode name is only ever handed on to the roles above, and "
        "the totality test pins its _on_ table to what is sent",
    "core/coordinator.py:Coordinator":
        "the coordinator's name is never re-registered to another role",
    "core/filestore.py:StorageNode":
        "storage names are never re-registered; clients address them "
        "with exactly the two kinds handled",
    "baselines/common.py:MetaServer":
        "baseline clusters have no promotion or rejoin: a name keeps "
        "its role for the whole run",
    "net/node.py:Node":
        "the default, kept by the nodes with no handler at all, the "
        "clients: nothing addresses a client by name, replies ride "
        "reply handles",
}


def test_roles_that_inherit_a_name_refuse_instead_of_raising():
    roles = _roles()
    hooks = {site.split(":")[1]: cls._unhandled
             for site, cls in roles.items()}
    assert NAME_OUTLIVES_ROLE <= set(hooks)
    assert {name for name in NAME_OUTLIVES_ROLE
            if hooks[name] is not refuse_unowned} == set(), (
        "a role reachable under a former owner's name must answer an "
        "unowned kind with ENOTLEADER, not raise")
    assert set(hooks.values()) == {Node._unhandled, refuse_unowned}
    raising = set()
    for site, cls in roles.items():
        if cls._unhandled is Node._unhandled:
            handles = any(name.startswith("_on_") for name in dir(cls))
            raising.add(site if handles else "net/node.py:Node")
    assert raising == set(MAY_RAISE), (
        "a role that raises on an unknown kind needs a reason in "
        "MAY_RAISE (or should refuse instead): {}".format(
            sorted(raising ^ set(MAY_RAISE))))


def test_node_handle_is_the_one_dispatcher():
    """No role hand-writes a dispatcher: the only ``handle`` methods are
    ``Node.handle`` and the baseline server's wrapper around it, no
    ``handle`` compares ``message.kind``, and only ``net/node.py`` names
    a handler by a string."""
    handles, comparisons, named = set(), [], set()
    for rel, tree in _trees(layers=("",)):             # all of src/repro
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if (isinstance(child, ast.FunctionDef)
                            and child.name == "handle"):
                        handles.add("{}:{}".format(rel, node.name))
                        comparisons += [
                            "{}:{}".format(rel, compare.lineno)
                            for compare in ast.walk(child)
                            if isinstance(compare, ast.Compare)
                            and "message.kind" in map(
                                ast.unparse,
                                [compare.left] + compare.comparators)]
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("_on_")):
                named.add(rel)
    assert handles == {"net/node.py:Node", "baselines/common.py:MetaServer"}
    assert not comparisons, comparisons
    assert named == {"net/node.py"}
