"""Message totality lint: every kind that is sent has a handler, every
handler has a sender, and no role that can inherit another role's name
crashes on a kind it does not own.

The protocol's message vocabulary is spread over string literals: the
kind a caller names in ``call(target, "kind", ...)`` and the
``_on_<kind>`` method (or ``message.kind == "<kind>"`` arm) that
receives it.  Nothing ties the two ends together at run time until a
schedule happens to deliver the message — PR 12 found a handler
(``_on_fetch_xt``) whose last sender had been deleted, and 26 red
checker seeds were one ``rename_abort`` delivered to a role that
answered an unknown kind by raising.  Both are visible statically.
"""

import ast

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

#: The name-dispatch idiom: ``getattr(self, "_on_" + message.kind, None)``.
DISPATCH_BY_NAME = "'_on_' + message.kind"


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


def _handle_methods(layers=LAYERS):
    """(site, class node, its own ``handle``) for every role class."""
    for rel, tree in _trees(layers):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if (isinstance(child, ast.FunctionDef)
                            and child.name == "handle"):
                        yield "{}:{}".format(rel, node.name), node, child


def _handled_kinds():
    handled = {}
    for site, cls, handle in _handle_methods():
        kinds = set()
        for node in ast.walk(handle):
            if (isinstance(node, ast.Compare)
                    and ast.unparse(node.left) == "message.kind"):
                kinds |= {c.value for c in node.comparators
                          if isinstance(c, ast.Constant)}
        if DISPATCH_BY_NAME in ast.unparse(handle):
            for child in cls.body:
                names = []
                if isinstance(child, ast.FunctionDef):
                    names = [child.name]
                elif isinstance(child, ast.Assign):    # _on_a = _on_b
                    names = [t.id for t in child.targets
                             if isinstance(t, ast.Name)]
                kinds |= {n[4:] for n in names if n.startswith("_on_")}
        for kind in kinds:
            handled.setdefault(kind, []).append(site)
    # MNode.deliver routes these to the merge pool, not to ``_on_*``.
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and ast.unparse(node.targets[0]) == "MERGEABLE_OPS"):
                for const in ast.walk(node.value):
                    if isinstance(const, ast.Constant):
                        handled.setdefault(const.value, []).append(
                            rel + ":MERGEABLE_OPS")
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

#: Every other ``handle`` that answers an unknown kind by raising, with
#: the reason no re-addressed name can reach it.
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
        "the default, kept only by clients: nothing addresses a client "
        "by name, replies ride reply handles",
}


def _crashes_on_unknown_kind(handle):
    return any(
        isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and _callee(node.exc) in ("RuntimeError", "NotImplementedError")
        for node in ast.walk(handle))


def test_roles_that_inherit_a_name_refuse_instead_of_raising():
    everywhere = list(_handle_methods(layers=("",)))     # all of src/repro
    raising = {site for site, _, handle in everywhere
               if _crashes_on_unknown_kind(handle)}
    assert NAME_OUTLIVES_ROLE <= {cls.name for _, cls, _ in everywhere}
    assert not {site for site in raising
                if site.split(":")[1] in NAME_OUTLIVES_ROLE}, (
        "a role reachable under a former owner's name must answer an "
        "unowned kind with ENOTLEADER, not raise")
    assert raising == set(MAY_RAISE), (
        "a handle() that raises on an unknown kind needs a reason in "
        "MAY_RAISE (or should refuse instead): {}".format(
            sorted(raising ^ set(MAY_RAISE))))
