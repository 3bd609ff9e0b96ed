"""Protocol edge cases: rename hazards, §4.3 serialization case 1,
unsupported operations, retry paths."""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.records import VALID
from repro.core.verify import check_cluster_invariants
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import RetryPolicy
from repro.storage import LockMode
from repro.storage.consensus import LEASE_US
from repro.vfs.attrs import ROOT_INO


@pytest.fixture
def cluster():
    return FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))


@pytest.fixture
def fs(cluster):
    return cluster.fs()


class TestRenameHazards:
    def test_rename_into_own_subtree_rejected(self, cluster, fs):
        fs.makedirs("/a/b")
        with pytest.raises(RpcFailure) as err:
            fs.rename("/a", "/a/b/c")
        assert err.value.code == RpcError.EINVAL
        assert fs.is_dir("/a/b")
        check_cluster_invariants(cluster)

    def test_rename_directly_under_itself_rejected(self, cluster, fs):
        fs.mkdir("/a")
        with pytest.raises(RpcFailure) as err:
            fs.rename("/a", "/a/a")
        assert err.value.code == RpcError.EINVAL

    def test_rename_parent_into_child_name_ok(self, cluster, fs):
        """'/ab' is not inside '/a': prefix check must be per component."""
        fs.mkdir("/a")
        fs.mkdir("/ab")
        fs.rename("/a", "/ab/a")
        assert fs.is_dir("/ab/a")
        check_cluster_invariants(cluster)

    def test_a_renamed_directory_leaves_no_replica_of_its_old_name(
            self, cluster, fs):
        """The destination key's owner only inserts the new name, so it
        is invalidated like every peer: once the old name is made again,
        no MNode resolves it to the renamed directory, and no create
        under the new directory lands in the renamed one."""
        coordinator = cluster.coordinator
        src_owner = coordinator._owner(ROOT_INO, "a")
        dst = next("b{}".format(i) for i in range(64)
                   if coordinator._owner(ROOT_INO, "b{}".format(i))
                   != src_owner)
        old = fs.mkdir("/a")
        names = ["f{}".format(i) for i in range(16)]
        for name in names:
            fs.create("/a/" + name)
        fs.rename("/a", "/" + dst)
        new = fs.mkdir("/a")
        for name in names:
            fs.create("/a/" + name)
        for node in cluster.mnodes:
            record = node.dentries.get((ROOT_INO, "a"))
            assert record is None or record.state != VALID \
                or record.ino == new, node.name
        assert old != new
        assert fs.listdir("/a") == fs.listdir("/" + dst) == sorted(names)
        check_cluster_invariants(cluster)

    def test_rename_missing_dst_parent(self, cluster, fs):
        fs.create("/f")
        with pytest.raises(RpcFailure) as err:
            fs.rename("/f", "/nodir/f")
        assert err.value.code == RpcError.ENOENT
        assert fs.exists("/f")
        check_cluster_invariants(cluster)

    def test_failed_rename_leaves_no_staged_state(self, cluster, fs):
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(RpcFailure):
            fs.rename("/a", "/b")
        for mnode in cluster.mnodes:
            assert mnode._staged == {}
        # Both files still fully operational.
        fs.unlink("/a")
        fs.unlink("/b")

    def test_a_voted_row_left_after_drain_is_a_staged_leak(self, cluster):
        """The audit reads the durable record, not only its cache: a
        voted row left behind is residue even with ``_staged`` empty."""
        from repro.core.verify import runtime_violations

        assert runtime_violations(cluster) == []
        cluster.mnodes[0].meta.put(("rename", 0, "rn-x"),
                                   {"voted": [], "deadline": None})
        (violation,) = runtime_violations(cluster)
        assert violation["invariant"] == "staged-leak"
        assert violation["txids"] == ["rn-x"]

    def test_a_name_left_migrating_after_drain_is_a_migrating_leak(
            self, cluster):
        """A redirection whose ``migrate_install`` never reached a node
        that ran its collect leaves the name blocked there; the audit
        names node and name."""
        from repro.core.verify import runtime_violations

        assert runtime_violations(cluster) == []
        cluster.mnodes[1].migrating.add("hot.dat")
        (violation,) = runtime_violations(cluster)
        assert violation["invariant"] == "migrating-leak"
        assert violation["node"] == cluster.mnodes[1].name
        assert violation["names"] == ["hot.dat"]

    def test_concurrent_renames_serialize(self, cluster):
        fs = cluster.fs()
        client = cluster.add_client(mode="libfs")
        fs.mkdir("/d")
        fs.create("/d/x")
        fs.create("/d/y")
        env = cluster.env
        outcomes = []

        def renamer(src, dst):
            try:
                yield from client.rename(src, dst)
                outcomes.append("ok")
            except RpcFailure as failure:
                outcomes.append(RpcError.name(failure.code))

        a = env.process(renamer("/d/x", "/d/z"))
        b = env.process(renamer("/d/y", "/d/z"))
        env.run(until=env.all_of([a, b]))
        assert sorted(outcomes) == ["EEXIST", "ok"]
        check_cluster_invariants(cluster)


class TestOwnerWriteScaffold:
    """The three ways out of ``_OwnerWrite``: serialized behind another
    writer, a protocol step that fails mid-write, and a slot fenced
    while the writer was still queued on its locks.  Each must answer
    the caller and leave nothing behind."""

    @staticmethod
    def _residue(mnode):
        return {
            "locks": sorted(mnode.locks._locks),
            "writers": {s: n for s, n in mnode._slot_writers.items() if n},
            "staged": dict(mnode._staged),
        }

    CLEAN = {"locks": [], "writers": {}, "staged": {}}

    def test_step_failing_mid_write_leaves_nothing(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        cluster.fs().mkdir("/d")
        owner = cluster.mnodes[0]
        key = (ROOT_INO, "d")
        before = (owner.inodes.get(key), owner.dentries.get(key),
                  dict(owner.filename_counts), owner.wal.appended_txns)

        def step(w, key):
            w.delete(key)                       # staged, never committed
            yield from owner.execute(1.0)
            raise RpcFailure(RpcError.ENOTEMPTY, "mid-write")

        owner._on_test_write = lambda message: owner._owner_write(
            message, "test", step)
        with pytest.raises(RpcFailure) as err:
            cluster.run_process(_call(
                cluster.coordinator, owner.name, "test_write",
                {"pid": ROOT_INO, "name": "d"}))
        assert err.value.code == RpcError.ENOTEMPTY
        assert self._residue(owner) == self.CLEAN
        assert before == (owner.inodes.get(key), owner.dentries.get(key),
                          dict(owner.filename_counts),
                          owner.wal.appended_txns)
        check_cluster_invariants(cluster)

    def test_batch_moves_the_name_index_only_once_durable(self):
        """Obligation 4 on the merged batch path: while a create or
        mkdir batch waits on its WAL flush, none of its names is
        counted; once it commits, every one is."""
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        cluster.fs().mkdir("/d")
        owner = cluster.mnodes[0]
        during = []
        real_commit = owner.wal.commit

        def commit(nbytes, records=1, ctx=None, payload=None):
            names = [key[1] for table, key, _ in payload or ()
                     if table == "inode"]
            during.append((
                names,
                [owner.filename_counts.get(name, 0) for name in names],
                sum(owner.slot_inode_counts.values()) - len(owner.inodes),
            ))
            return real_commit(nbytes, records, ctx, payload)

        owner.wal.commit = commit
        client = cluster.add_client(mode="libfs")
        env = cluster.env
        procs = [env.process(op("/d/{}{}".format(op.__name__, i)))
                 for op in (client.create, client.mkdir) for i in range(4)]
        env.run(until=env.all_of(procs))
        assert max(len(names) for names, _, _ in during) > 1   # merged
        for names, counts, surplus in during:
            assert counts == [0] * len(names)
            assert surplus == 0
        created = [name for names, _, _ in during for name in names]
        assert sorted(created) == sorted(
            "{}{}".format(kind, i) for kind in ("create", "mkdir")
            for i in range(4))
        for name in created:
            assert owner.filename_counts[name] == 1
        assert sum(owner.slot_inode_counts.values()) == len(owner.inodes)

    def test_retired_incarnation_wakes_nobody(self):
        """Only the collector closes a write of a crashed-and-replaced
        node: its release must not wake that node's other dead
        processes queued behind it."""
        from repro.core.mnode import _OwnerWrite

        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        node = cluster.mnodes[0]
        key = (ROOT_INO, "k")
        w = _OwnerWrite(node)
        cluster.run_process(w.lock(key))
        waiter = node.locks.acquire(("d",) + key, LockMode.EXCLUSIVE)
        node.halted = True
        w.close()
        assert not waiter.granted and not waiter.event.triggered

    def test_slot_fenced_while_queued_on_the_locks_bounces(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1))
        cluster.fs().mkdir("/d")
        key = (ROOT_INO, "d")
        slot = cluster.coordinator.index.locate(*key)
        owner = cluster.mnodes[slot]
        blocker = owner.locks.acquire(("d",) + key, LockMode.EXCLUSIVE)
        reply = cluster.coordinator.call(
            owner.name, "rmdir_exec",
            {"pid": ROOT_INO, "name": "d", "path": "/d"})
        reply.defused = True
        cluster.run_for(1000.0)
        assert not reply.triggered      # parked behind the blocker
        # The fence's first, no-yield instant — then the lock frees up.
        owner.slots[slot] = {"state": "moved", "node": 1 - slot, "epoch": 7}
        owner.locks.release(blocker)
        cluster.run_for(1000.0)
        assert reply.triggered and not reply.ok
        assert reply.value.code == RpcError.EMOVED
        assert reply.value.detail == {"slot": slot, "node": 1 - slot,
                                      "epoch": 7}
        assert self._residue(owner) == self.CLEAN
        assert owner.inodes.get(key) is not None

    def test_rmdir_and_rename_prepare_on_one_key_serialize(self):
        """Every owner-side mutation takes a key's lock pair in one
        order (``("d", key)`` then ``("i", key)``).  When rmdir_exec
        locked d→i and rename_prepare i→d, the two delivered in the same
        instant each took one X lock and parked forever on the other."""
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        cluster.fs().mkdir("/d")
        coordinator, owner = cluster.coordinator, cluster.mnodes[0]
        replies = [
            coordinator.call(owner.name, "rmdir_exec",
                             {"pid": ROOT_INO, "name": "d", "path": "/d"}),
            coordinator.call(owner.name, "rename_prepare",
                             {"txid": "rn-test", "actions": [
                                 {"action": "delete",
                                  "key": (ROOT_INO, "d")}]}),
        ]
        for reply in replies:
            reply.defused = True  # either may legitimately answer ENOENT
        cluster.run_for(100_000.0)
        assert all(reply.triggered for reply in replies)
        waiting = {key: owner.locks.queue_length(key)
                   for key in (("d", ROOT_INO, "d"), ("i", ROOT_INO, "d"))}
        assert not any(waiting.values()), waiting
        # Whichever ran second saw the first one's outcome; the staged
        # half (if the prepare won) releases cleanly on abort.
        cluster.run_process(_call(coordinator, owner.name, "rename_abort",
                                  {"txid": "rn-test"}))
        assert self._residue(owner) == self.CLEAN

    def test_op_deadline_alone_bounds_a_queued_prepare(self):
        """With only ``op_deadline_us`` set (no per-attempt RPC timeout)
        the coordinator's prepare hop gives up at the op deadline, and
        the prepare carries that instant.  A prepare still queued on its
        locks then refuses once it gets them — its abort may have come
        and gone — so it stages nothing: no X locks, no slot pin, no
        voted row are left behind."""
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1,
                                             op_deadline_us=3000.0))
        cluster.fs().create("/a")
        owner = cluster.mnodes[0]
        blocker = owner.locks.acquire(("d", ROOT_INO, "a"),
                                      LockMode.EXCLUSIVE)
        client = cluster.add_client()
        done = cluster.env.process(_swallow(client.rename("/a", "/b")))
        cluster.run_for(10_000.0)       # well past the op deadline
        assert done.value.code == RpcError.ETIMEDOUT    # client gave up
        owner.locks.release(blocker)
        cluster.run_for(100_000.0)
        assert self._residue(owner) == self.CLEAN
        check_cluster_invariants(cluster)


def _hold_calls(cluster, held):
    """Hold every call the coordinator makes for which ``held(target,
    kind, payload)`` is true until the returned event fires, then send
    it; its answer settles the caller's reply, unless the caller gave
    up on it first."""
    env = cluster.env
    coordinator = cluster.coordinator
    real_call = coordinator.call
    release = env.event()

    def hold(proxy, *args, **kwargs):
        yield release
        try:
            proxy.settle(True, (yield real_call(*args, **kwargs)))
        except RpcFailure as failure:
            proxy.settle(False, failure)

    def call(target, kind, *args, **kwargs):
        if held(target, kind, args[0]):
            proxy = env.event()
            env.process(hold(proxy, target, kind, *args, **kwargs))
            return proxy
        return real_call(target, kind, *args, **kwargs)

    coordinator.call = call
    return release


def _swallow(generator):
    try:
        yield from generator
    except RpcFailure as failure:
        return failure


def _call(node, target, kind, payload, ctx=None):
    reply = yield node.call(target, kind, payload, ctx=ctx)
    return reply


class TestCommitRedelivery:
    """A decided rename commit whose *acknowledgement* is lost keeps a
    coordinator completer re-delivering the decision — possibly long
    after a later acked op legitimately vacated the key.  The
    participant's durable applied marker must turn every re-delivery
    into a no-op ack; the redo guards alone see a free key and cannot
    tell "never applied" from "applied, then superseded"."""

    def _last_commit(self, cluster, fs, dst_path):
        """The most recent committed txid plus its reconstructed insert
        half, exactly as a completer would re-deliver it — and as the
        coordinator recorded it for an in-doubt participant.  The
        rename was answered at its decision, so the commit round is
        drained first."""
        from repro.vfs.pathwalk import basename

        assert cluster.quiesce(1_000_000.0)
        outcomes = cluster.coordinator._rename_outcomes
        txid = max(outcomes, key=lambda t: int(t.split("-")[1]))
        pid = fs.getattr("/d")["ino"]
        dkey = (pid, basename(dst_path))
        owner = next(m for m in cluster.mnodes
                     if m.inodes.get(dkey) is not None)
        action = {"action": "insert", "key": dkey,
                  "record": owner.inodes.get(dkey)}
        delete, insert = outcomes[txid]
        assert delete["action"] == "delete" and insert == action
        return txid, owner, action

    def _redeliver(self, cluster, owner, txid, action):
        def deliver():
            reply = yield cluster.coordinator.call(
                owner.name, "rename_commit",
                {"txid": txid, "actions": [action]})
            return reply
        return cluster.run_process(deliver())

    def test_stale_redelivery_after_unlink_is_a_noop(self, cluster, fs):
        fs.mkdir("/d")
        fs.create("/d/a")
        fs.rename("/d/a", "/d/b")
        txid, owner, action = self._last_commit(cluster, fs, "/d/b")
        fs.unlink("/d/b")
        reply = self._redeliver(cluster, owner, txid, action)
        assert reply["ok"]
        assert not fs.exists("/d/b")
        check_cluster_invariants(cluster)

    def test_stale_redelivery_after_later_rename_is_a_noop(self, cluster,
                                                           fs):
        """The checker-found shape: rename a→b commits but its ack is
        lost; rename b→c commits fully; the stale re-delivery of a→b's
        insert must not resurrect b (the ino would be live under two
        names — an identity violation)."""
        fs.mkdir("/d")
        fs.create("/d/a")
        fs.rename("/d/a", "/d/b")
        txid, owner, action = self._last_commit(cluster, fs, "/d/b")
        fs.rename("/d/b", "/d/c")
        reply = self._redeliver(cluster, owner, txid, action)
        assert reply["ok"]
        assert not fs.exists("/d/b")
        assert fs.exists("/d/c")
        check_cluster_invariants(cluster)

    def test_applied_marker_survives_redo_restart(self, cluster, fs):
        """Crash the participant after the apply: the marker rides the
        WAL, so the rebuilt node still no-op-acks the re-delivery even
        though the key was vacated after recovery."""
        fs.mkdir("/d")
        fs.create("/d/a")
        fs.rename("/d/a", "/d/b")
        txid, owner, action = self._last_commit(cluster, fs, "/d/b")
        index = cluster.mnodes.index(owner)
        cluster.crash_mnode(index)
        cluster.run_process(cluster.restart_mnode(index))
        owner = cluster.mnodes[index]
        fs.unlink("/d/b")
        reply = self._redeliver(cluster, owner, txid, action)
        assert reply["ok"]
        assert not fs.exists("/d/b")
        check_cluster_invariants(cluster)

    def test_redo_of_a_same_slot_rename_applies_both_actions(self):
        """One MNode: both keys of a rename share its slot.  A decided
        commit reaches a participant that holds no voted row for it (an
        asynchronous promotion can lose one), so it redoes the delete
        *and* the insert in one write.  (Redone one action at a time,
        the delete's marker made the insert look applied, and the file
        vanished.)"""
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/a")
        owner = cluster.mnodes[0]
        pid = fs.getattr("/d")["ino"]
        record = owner.inodes.get((pid, "a"))
        reply = cluster.run_process(_call(
            cluster.coordinator, owner.name, "rename_commit",
            {"txid": "rn-lost", "actions": [
                {"action": "delete", "key": (pid, "a"),
                 "ino": record.ino},
                {"action": "insert", "key": (pid, "b"), "record": record},
            ]}))
        assert reply == {"ok": True}
        assert not fs.exists("/d/a")
        assert fs.exists("/d/b")
        assert owner.metrics.counter(
            "rename_redos").by_label() == {"delete": 1, "insert": 1}
        check_cluster_invariants(cluster)

    def test_marked_redelivery_acks_without_waiting_for_locks(self,
                                                              cluster, fs):
        """The applied marker is read before any lock: a re-delivery of
        a commit already applied here acks at once, even while another
        write holds the key's lock pair."""
        from repro.core.mnode import _OwnerWrite

        fs.mkdir("/d")
        fs.create("/d/a")
        fs.rename("/d/a", "/d/b")
        txid, owner, action = self._last_commit(cluster, fs, "/d/b")
        w = _OwnerWrite(owner)
        cluster.run_process(w.lock(action["key"]))
        reply = cluster.coordinator.call(
            owner.name, "rename_commit", {"txid": txid, "actions": [action]})
        cluster.run_for(1000.0)
        assert reply.triggered and reply.value == {"ok": True}
        w.close()
        check_cluster_invariants(cluster)


class TestTwoRoundRename:
    """A rename is two participant rounds: every owner's prepare sent at
    once, carrying every action it holds, then every owner's commit sent
    at once.  The destination's vote is a reservation of the free key;
    the record it inserts arrives with the decision.  A file rename one
    owner holds whole is one round.  A file rename two owners hold is
    answered at the decision, and its commit round runs behind the
    answer; a directory rename is answered after its commit round.  No
    lock but the coordinator's path locks orders renames, so renames on
    disjoint keys prepare side by side, and a prepare of a two-owner
    rename takes its keys at once or refuses ``ERETRY``."""

    @staticmethod
    def _cross_owner(cluster, pid, src="a", prefix="b"):
        """``(src, dst)`` names under ``pid`` with different owners."""
        owner = cluster.coordinator._owner
        dst = next(name for name in (prefix + str(i) for i in range(200))
                   if owner(pid, name) != owner(pid, src))
        return src, dst

    @staticmethod
    def _node(cluster, pid, name):
        owner = cluster.coordinator._owner(pid, name)
        return next(node for node in cluster.mnodes if node.name == owner)

    @staticmethod
    def _same_owner(cluster, pid, src="a"):
        """A destination name under ``pid`` that ``src``'s owner holds."""
        owner = cluster.coordinator._owner
        return next(name for name in ("b{}".format(i) for i in range(200))
                    if owner(pid, name) == owner(pid, src))

    @staticmethod
    def _rename_log(cluster, kinds=("rename_",)):
        """Every call the coordinator makes whose kind starts with one
        of ``kinds``, as ``("send" | "reply", kind, target)``, and its
        answer to a client's rename, as ``("answer", "rename", client)``,
        in the order they happen."""
        coordinator = cluster.coordinator
        real_call = coordinator.call
        real_respond = coordinator.respond
        log = []

        def respond(message, *args, **kwargs):
            if message.kind == "rename":
                log.append(("answer", "rename", message.sender))
            return real_respond(message, *args, **kwargs)

        coordinator.respond = respond

        def call(target, kind, *args, **kwargs):
            reply = real_call(target, kind, *args, **kwargs)
            if kind.startswith(kinds):
                log.append(("send", kind, target))
                reply.callbacks.append(
                    lambda _: log.append(("reply", kind, target)))
            return reply

        coordinator.call = call
        return log

    @staticmethod
    def _hold_commits(cluster, held):
        """Hold every ``rename_commit`` the coordinator sends for which
        ``held(target, txid)`` is true until the returned event fires,
        then send it."""
        return _hold_calls(cluster, lambda target, kind, payload: (
            kind == "rename_commit" and held(target, payload["txid"])))

    def test_same_owner_file_rename_is_one_round(self):
        """One owner holds both keys of a file rename: its prepare is
        marked ``commit`` and applies the rename in the vote's write —
        one WAL record, no voted row, no applied marker, no commit."""
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1))
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/a")
        owner = cluster.mnodes[0]
        prepares = []
        real_prepare = owner._on_rename_prepare

        def prepare(message):
            prepares.append(message.payload)
            yield from real_prepare(message)

        owner._on_rename_prepare = prepare
        log = self._rename_log(cluster)
        logged = owner.wal.appended_txns
        fs.rename("/d/a", "/d/b")
        assert log == [("send", "rename_prepare", owner.name),
                       ("reply", "rename_prepare", owner.name),
                       ("answer", "rename", fs.client.name)]
        (payload,) = prepares
        assert payload["commit"] is True
        assert owner.wal.appended_txns == logged + 1
        assert not any(key[0] == "rename" for key, _ in owner.meta.scan())
        assert owner._staged == {}
        assert cluster.coordinator._rename_outcomes == {}
        assert [fs.exists(path) for path in ("/d/a", "/d/b")] == [False,
                                                                   True]
        check_cluster_invariants(cluster)

    def test_same_owner_directory_rename_votes_invalidates_then_commits(
            self, cluster, fs):
        """A directory's peers must drop their replica dentry before the
        rename commits, so the one owner of both keys votes as usual:
        prepare, then the invalidation at every other MNode, then one
        commit that writes the applied marker."""
        from repro.core.mnode import APPLIED

        pid = fs.mkdir("/d")
        dst = self._same_owner(cluster, pid)
        fs.mkdir("/d/a")
        fs.create("/d/a/f")
        owner = self._node(cluster, pid, "a")
        peers = [node.name for node in cluster.mnodes if node is not owner]
        for node in cluster.mnodes:
            cluster.run_process(node.resolve_dir(["d", "a"]))
            assert node.dentries.get((pid, "a")).state == VALID
        staged = []
        real_prepare = owner._on_rename_prepare

        def prepare(message):
            yield from real_prepare(message)
            staged.append(sorted(owner._staged))

        owner._on_rename_prepare = prepare
        log = self._rename_log(cluster, ("rename_", "invalidate"))
        fs.rename("/d/a", "/d/" + dst)
        assert log[:2] == [("send", "rename_prepare", owner.name),
                           ("reply", "rename_prepare", owner.name)]
        assert log[-3:] == [("send", "rename_commit", owner.name),
                            ("reply", "rename_commit", owner.name),
                            ("answer", "rename", fs.client.name)]
        middle = log[2:-3]
        assert sorted(target for step, kind, target in middle
                      if step == "send") == sorted(peers)
        assert all(kind == "invalidate" for _, kind, _ in middle)
        (txid,) = staged[0]
        slot = owner._slot_of((pid, "a"))
        assert owner.meta.get(("rename", slot, txid)) == APPLIED
        assert owner._staged == {}
        for node in cluster.mnodes:
            if node is not owner:
                record = node.dentries.get((pid, "a"))
                assert record is None or record.state != VALID
        assert fs.exists("/d/{}/f".format(dst))
        assert not fs.exists("/d/a")
        check_cluster_invariants(cluster)

    def test_cross_owner_rename_prepares_both_then_commits_both(self, cluster,
                                                                fs):
        """Both prepares, both votes, the client's answer at the
        decision, then both commits and their acknowledgements."""
        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.create("/d/" + src)
        ino = fs.getattr("/d/" + src)["ino"]
        log = self._rename_log(cluster)
        fs.rename("/d/" + src, "/d/" + dst)
        assert cluster.quiesce(1_000_000.0)
        owners = {cluster.coordinator._owner(pid, name)
                  for name in (src, dst)}
        assert len(owners) == 2
        assert log[4] == ("answer", "rename", fs.client.name)
        rounds = [log[:2], log[2:4], log[5:7], log[7:]]
        assert [{(step, kind) for step, kind, _ in events}
                for events in rounds] == [
            {("send", "rename_prepare")}, {("reply", "rename_prepare")},
            {("send", "rename_commit")}, {("reply", "rename_commit")}]
        assert all({target for _, _, target in events} == owners
                   for events in rounds)
        assert not fs.exists("/d/" + src)
        assert fs.getattr("/d/" + dst)["ino"] == ino
        check_cluster_invariants(cluster)

    @pytest.mark.parametrize("held", ["source", "destination"])
    def test_a_file_rename_is_answered_with_a_commit_in_flight(self, cluster,
                                                               fs, held):
        """One owner's commit is held in flight and the client still
        gets ``ok``.  A stat of the destination and an ls issued after
        the answer see the rename: the stat queues on the vote's locked
        pair (or reads the applied half), the ls waits out the half in
        doubt, and it lists the destination, not the source."""
        env = cluster.env
        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.create("/d/" + src)
        ino = fs.getattr("/d/" + src)["ino"]
        target = self._node(cluster, pid, src if held == "source" else dst)
        release = self._hold_commits(
            cluster, lambda recipient, txid: recipient == target.name)
        client = cluster.add_client()
        assert cluster.run_process(_swallow(
            client.rename("/d/" + src, "/d/" + dst))) is None
        stat = env.process(client.getattr("/d/" + dst))
        listing = env.process(client.readdir("/d"))
        cluster.run_for(5_000.0)
        assert target._open_halves and not listing.triggered
        assert stat.triggered is (held == "source")
        release.succeed()
        assert cluster.quiesce(1_000_000.0)
        assert stat.value["ino"] == ino
        assert listing.value == [(dst, False)]
        assert target._open_halves == {}
        check_cluster_invariants(cluster)

    def test_a_listing_between_the_two_halves_never_lists_both_names(
            self, cluster, fs):
        """The destination has applied its half and the source's commit
        is still in flight: an ls in that window waits for the source's
        half instead of listing both names."""
        env = cluster.env
        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.create("/d/" + src)
        source = self._node(cluster, pid, src)
        destination = self._node(cluster, pid, dst)
        release = self._hold_commits(
            cluster, lambda recipient, txid: recipient == source.name)
        client = cluster.add_client()
        env.process(client.rename("/d/" + src, "/d/" + dst))
        while destination.inodes.get((pid, dst)) is None:
            env.step()
        assert source.inodes.get((pid, src)) is not None
        listing = env.process(client.readdir("/d"))
        cluster.run_for(5_000.0)
        assert not listing.triggered
        release.succeed()
        assert cluster.quiesce(1_000_000.0)
        assert listing.value == [(dst, False)]
        check_cluster_invariants(cluster)

    def test_a_directory_rename_answers_after_its_commit_round(self, cluster,
                                                              fs):
        """A renamed directory's peers resolve the new name from the
        owner's dentry, which the commit installs: with one owner's
        commit held, the client waits for it."""
        env = cluster.env
        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.mkdir("/d/" + src)
        fs.create("/d/{}/f".format(src))
        target = self._node(cluster, pid, dst)
        release = self._hold_commits(
            cluster, lambda recipient, txid: recipient == target.name)
        client = cluster.add_client()
        renamed = env.process(client.rename("/d/" + src, "/d/" + dst))
        cluster.run_for(5_000.0)
        assert not renamed.triggered
        release.succeed()
        env.run(until=renamed)
        assert target._open_halves == {}
        assert fs.exists("/d/{}/f".format(dst))
        assert not fs.exists("/d/" + src)
        check_cluster_invariants(cluster)

    def test_next_rename_prepares_while_a_commit_round_is_in_flight(
            self, cluster, fs):
        """A commit round in flight holds only its own keys: while the
        first rename's commits are held in flight, a rename on disjoint
        keys locks its paths and sends its prepares.  Each is answered
        before its commits are acknowledged; both complete and nothing
        is left."""
        from repro.core.verify import runtime_violations

        env = cluster.env
        pid = fs.mkdir("/d")
        first = self._cross_owner(cluster, pid, "a")
        second = self._cross_owner(cluster, pid, "x", "y")
        for src, _ in (first, second):
            fs.create("/d/" + src)
        coordinator = cluster.coordinator
        release = self._hold_commits(cluster,
                                     lambda target, txid: txid == "rn-1")
        real_call = coordinator.call
        log = []

        def call(target, kind, *args, **kwargs):
            if kind.startswith("rename_"):
                log.append((kind, args[0]["txid"]))
            return real_call(target, kind, *args, **kwargs)

        coordinator.call = call
        client = cluster.add_client()
        outcomes = []

        def rename(src, dst):
            yield from client.rename("/d/" + src, "/d/" + dst)
            outcomes.append(dst)

        env.process(rename(*first))
        cluster.run_for(50_000.0)
        assert log == [("rename_prepare", "rn-1")] * 2 + [
            ("rename_commit", "rn-1")] * 2
        assert outcomes == [first[1]]
        env.process(rename(*second))
        cluster.run_for(50_000.0)
        assert log[4:] == [("rename_prepare", "rn-2")] * 2 + [
            ("rename_commit", "rn-2")] * 2
        assert outcomes == [first[1], second[1]]
        release.succeed()
        assert cluster.quiesce(1_000_000.0)
        assert outcomes == [first[1], second[1]]
        assert runtime_violations(cluster) == []
        assert [fs.exists("/d/" + name) for name in first + second] == [
            False, True, False, True]
        check_cluster_invariants(cluster)

    def test_renames_on_disjoint_keys_prepare_side_by_side(self, cluster,
                                                           fs):
        """Two renames on disjoint keys, started together, both have
        their prepares in flight before either is decided: the first
        four rename calls the coordinator makes are the four prepares,
        sent before any vote comes back."""
        from repro.core.verify import runtime_violations

        env = cluster.env
        pid = fs.mkdir("/d")
        pairs = [self._cross_owner(cluster, pid, "a"),
                 self._cross_owner(cluster, pid, "x", "y")]
        for src, _ in pairs:
            fs.create("/d/" + src)
        coordinator = cluster.coordinator
        real_call = coordinator.call
        log = []

        def call(target, kind, *args, **kwargs):
            reply = real_call(target, kind, *args, **kwargs)
            if kind.startswith("rename_"):
                txid = args[0]["txid"]
                log.append(("send", kind, txid))
                reply.callbacks.append(
                    lambda _: log.append(("reply", kind, txid)))
            return reply

        coordinator.call = call
        client = cluster.add_client()
        renames = [env.process(client.rename("/d/" + src, "/d/" + dst))
                   for src, dst in pairs]
        env.run(until=env.all_of(renames))
        assert log[:4] == [("send", "rename_prepare", "rn-1")] * 2 + [
            ("send", "rename_prepare", "rn-2")] * 2
        assert cluster.quiesce(1_000_000.0)
        assert runtime_violations(cluster) == []
        assert [fs.exists("/d/" + name) for pair in pairs
                for name in pair] == [False, True, False, True]
        check_cluster_invariants(cluster)

    def test_crossed_renames_behind_merged_batches_both_answer(self,
                                                                cluster,
                                                                fs):
        """R1 moves ``s1`` (owner A) to ``k1`` (owner B) and R2 moves
        ``s2`` (A) to ``k2`` (B), with ``s1 < s2`` and ``k2 < k1``.  R1
        has voted at B and R2 at A when a merged two-create batch at
        each owner takes the smaller key and queues on the other
        rename's vote.  Had the remaining prepares queued behind those
        batches, each rename would wait on the other's vote for good
        (no RPC timeout is set).  A prepare that is one of two refuses
        ``ERETRY`` instead, so its rename aborts its vote, the batches
        run, and every op answers."""
        from repro.core.verify import runtime_violations

        env = cluster.env
        pid = fs.mkdir("/d")
        owner = cluster.coordinator._owner
        names = ["n{}".format(i) for i in range(200)]
        a = owner(pid, names[0])
        s1, s2 = sorted([name for name in names if owner(pid, name) == a][:2])
        b = next(owner(pid, name) for name in names if owner(pid, name) != a)
        k2, k1 = sorted([name for name in names if owner(pid, name) == b][:2])
        node_a, node_b = (self._node(cluster, pid, name) for name in (s1, k1))
        for name in (s1, s2):
            fs.create("/d/" + name)
        release = _hold_calls(cluster, lambda target, kind, payload: (
            kind == "rename_prepare"
            and (target, payload["actions"][0]["key"][1]) in (
                (a, s1), (b, k2))))

        def op(kind, *paths):
            return env.process(_swallow(
                getattr(cluster.add_client(), kind)(*paths)))

        renames = [op("rename", "/d/" + s1, "/d/" + k1),
                   op("rename", "/d/" + s2, "/d/" + k2)]
        cluster.run_for(5_000.0)
        assert node_b.locks.holders(("i", pid, k1)) == ["X"]   # R1 voted
        assert node_a.locks.holders(("i", pid, s2)) == ["X"]   # R2 voted
        batches = [op("create", "/d/" + name) for name in (k2, k1, s1, s2)]
        cluster.run_for(5_000.0)
        for node, held, queued in ((node_b, k2, k1), (node_a, s1, s2)):
            assert node.locks.holders(("i", pid, held)) == ["X"]
            assert node.locks.queue_length(("i", pid, queued)) == 1
        release.succeed()
        cluster.run_for(100_000.0)
        assert all(proc.triggered for proc in renames + batches)
        # Each refused prepare let a create of its destination in first.
        assert [proc.value.code for proc in renames] == [RpcError.EEXIST] * 2
        assert [proc.value for proc in batches[:2]] == [None, None]
        assert [proc.value.code for proc in batches[2:]] == [
            RpcError.EEXIST] * 2
        assert cluster.quiesce(1_000_000.0)
        assert runtime_violations(cluster) == []
        check_cluster_invariants(cluster)

    def test_both_refusing_answers_the_source_refusal(self, cluster, fs):
        """The source is missing (ENOENT) and the destination taken
        (EEXIST): the source's refusal wins.  A refusal stages nothing,
        so neither is aborted."""
        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.create("/d/" + dst)
        log = self._rename_log(cluster)
        with pytest.raises(RpcFailure) as err:
            fs.rename("/d/" + src, "/d/" + dst)
        assert err.value.code == RpcError.ENOENT
        assert sorted(kind for step, kind, _ in log if step == "send") == [
            "rename_prepare", "rename_prepare"]
        assert fs.exists("/d/" + dst)
        check_cluster_invariants(cluster)

    def test_destination_refusal_aborts_the_source_vote(self, cluster, fs):
        from repro.core.verify import runtime_violations

        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.create("/d/" + src)
        fs.create("/d/" + dst)
        source = self._node(cluster, pid, src)
        row = source.inodes.get((pid, src))
        votes = []
        real_prepare = source._on_rename_prepare

        def prepare(message):
            yield from real_prepare(message)
            votes.append(sorted(source._staged))

        source._on_rename_prepare = prepare
        log = self._rename_log(cluster)
        with pytest.raises(RpcFailure) as err:
            fs.rename("/d/" + src, "/d/" + dst)
        assert err.value.code == RpcError.EEXIST
        assert len(votes) == 1 and len(votes[0]) == 1   # the source voted
        assert [(kind, target) for step, kind, target in log
                if step == "send" and kind == "rename_abort"] == [
            ("rename_abort", source.name)]
        assert source.inodes.get((pid, src)) is row
        assert not any(key[0] == "rename" for key, _ in source.meta.scan())
        assert runtime_violations(cluster) == []
        fs.unlink("/d/" + src)                          # lock pair free
        check_cluster_invariants(cluster)

    def _black_hole_commits(self, cluster, target, monkeypatch):
        """Drop every ``rename_commit`` the coordinator sends ``target``
        and keep the ``redeliver`` rule from re-delivering them: the
        in-doubt resolver is left as the only way to the decision."""
        from importlib import import_module

        def lost(node, resolve, kind, payload, timeout_us=None):
            return
            yield  # pragma: no cover

        monkeypatch.setattr(import_module("repro.obs.retry"),
                            "redeliver_later", lost)
        coordinator = cluster.coordinator
        real_call = coordinator.call

        def call(recipient, kind, *args, **kwargs):
            if kind == "rename_commit" and recipient == target:
                return cluster.env.event()      # never sent, never answered
            return real_call(recipient, kind, *args, **kwargs)

        coordinator.call = call

    def test_lost_commit_to_a_reservation_resolves_with_the_record(
            self, monkeypatch):
        """The destination voted a reservation (no record) and never
        hears the commit: the client is answered ``ok`` at the decision,
        and the destination's in-doubt resolver takes the decided insert
        from ``rename_resolve`` and inserts that record."""
        from repro.core.verify import runtime_violations

        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                             rpc_timeout_us=400.0))
        fs = cluster.fs()
        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.create("/d/" + src)
        record = self._node(cluster, pid, src).inodes.get((pid, src))
        destination = self._node(cluster, pid, dst)
        self._black_hole_commits(cluster, destination.name, monkeypatch)
        resolved = []
        real_resolve = cluster.coordinator._on_rename_resolve

        def resolve(message):
            resolved.append(message.sender)
            yield from real_resolve(message)

        cluster.coordinator._on_rename_resolve = resolve
        voted = []
        real_prepare = destination._on_rename_prepare

        def prepare(message):
            yield from real_prepare(message)
            voted.append([row for key, row in destination.meta.scan()
                          if key[0] == "rename"])

        destination._on_rename_prepare = prepare
        client = cluster.add_client()
        failure = cluster.run_process(
            _swallow(client.rename("/d/" + src, "/d/" + dst)))
        # Answered at the decision, before the lost commit hop.
        assert failure is None
        # The one prepare's reservation: the key, and no record.
        assert voted == [[{"voted": [{"action": "insert",
                                      "key": (pid, dst)}],
                           "deadline": voted[0][0]["deadline"]}]]
        assert resolved == []
        assert destination.inodes.get((pid, dst)) is None
        assert cluster.quiesce(1_000_000.0)
        assert resolved == [destination.name]
        assert destination.inodes.get((pid, dst)) == record
        assert not fs.exists("/d/" + src)
        assert runtime_violations(cluster) == []
        check_cluster_invariants(cluster)

    def test_restaged_reservation_resolves_after_a_crash(self, monkeypatch):
        """The destination crashes as the decision goes out: its redo
        replays the reservation, restages it (lock pair, slot pin, one
        resolver) and the resolver inserts the decided record."""
        from repro.core.verify import runtime_violations

        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                             rpc_timeout_us=400.0))
        fs = cluster.fs()
        pid = fs.mkdir("/d")
        src, dst = self._cross_owner(cluster, pid)
        fs.create("/d/" + src)
        ino = fs.getattr("/d/" + src)["ino"]
        index = cluster.mnodes.index(self._node(cluster, pid, dst))
        self._black_hole_commits(cluster, cluster.mnodes[index].name,
                                 monkeypatch)
        client = cluster.add_client()
        crashed = []
        real_call = cluster.coordinator.call

        def call(recipient, kind, *args, **kwargs):
            if kind == "rename_commit" and not crashed:
                crashed.append(cluster.crash_mnode(index))
            return real_call(recipient, kind, *args, **kwargs)

        cluster.coordinator.call = call
        cluster.run_process(_swallow(client.rename("/d/" + src,
                                                   "/d/" + dst)))
        assert crashed
        cluster.run_process(cluster.restart_mnode(index))
        node = cluster.mnodes[index]
        assert node.metrics.counter("rename_restaged").total() == 1
        ((txid, (entry,)),) = node._staged.items()
        assert entry["action"] == {"action": "insert", "key": (pid, dst)}
        assert sorted(grant.key for grant in entry["write"].grants) == [
            ("d", pid, dst), ("i", pid, dst)]
        assert cluster.quiesce(1_000_000.0)
        assert node._staged == {}
        assert not fs.exists("/d/" + src)
        assert fs.getattr("/d/" + dst)["ino"] == ino
        assert runtime_violations(cluster) == []
        check_cluster_invariants(cluster)


class TestFsck:
    @staticmethod
    def _plant_orphans(cluster, fs):
        """An orphan file row and an orphan directory with a child,
        planted straight into the owners' tables, the directory's
        replica dentry on every other MNode; returns ``(rows, owners,
        dir_key)``."""
        from repro.core.records import InodeRecord

        fs.mkdir("/d")
        fs.create("/d/keep")
        allocate = cluster.shared.allocator.allocate
        lost_pid, dir_ino = allocate(), allocate()  # no row names lost_pid
        dir_key = (lost_pid, "lostdir")
        rows = {(lost_pid, "lost.dat"): InodeRecord(ino=allocate(),
                                                    is_dir=False),
                dir_key: InodeRecord(ino=dir_ino, is_dir=True, mode=0o755),
                (dir_ino, "child.dat"): InodeRecord(ino=allocate(),
                                                    is_dir=False)}
        owners = {}
        for key, record in rows.items():
            owner = owners[key] = cluster.mnodes[
                cluster.coordinator.index.locate(*key)]

            def plant(w, key=key, record=record):
                w.put(key, record)
                w.pin(owner._slot_of(key))
                return 1

            cluster.run_process(owner._bulk_write(None, 0.0, plant))
        for node in cluster.mnodes:
            if node is not owners[dir_key]:
                node.dentries.put(dir_key, rows[dir_key].dentry())
        return rows, owners, dir_key

    def test_fsck_deletes_planted_orphans_at_their_owners(self):
        """The sweep invalidates the orphan directory's replica dentries
        everywhere and deletes all three planted rows at their owners,
        and the audit is clean again."""
        from repro.core.verify import InvariantViolation

        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1))
        fs = cluster.fs()
        rows, owners, dir_key = self._plant_orphans(cluster, fs)
        with pytest.raises(InvariantViolation):
            cluster.verify()
        assert cluster.run_process(cluster.coordinator.fsck()) == 3
        for key, owner in owners.items():
            assert owner.inodes.get(key) is None
        assert {node.name: node.metrics.counter("fsck_removed").total()
                for node in cluster.mnodes} == {
            node.name: sum(owner is node for owner in owners.values())
            for node in cluster.mnodes}
        for node in cluster.mnodes:
            record = node.dentries.get(dir_key)
            assert record is None or record.state != VALID
        assert fs.exists("/d/keep")
        cluster.verify()

    def test_a_sweep_that_misses_a_table_deletes_nothing(self):
        """``all``: with one MNode silent, the scan round times out at
        ``rpc_timeout_us`` and the sweep deletes nothing and returns 0;
        once the MNode is back the same sweep removes all three."""
        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1,
                                             rpc_timeout_us=400.0))
        fs = cluster.fs()
        rows, owners, dir_key = self._plant_orphans(cluster, fs)
        coordinator = cluster.coordinator
        cluster.network.partition([coordinator.name],
                                  [cluster.mnodes[-1].name])
        start = cluster.env.now
        assert cluster.run_process(coordinator.fsck()) == 0
        assert 400.0 <= cluster.env.now - start < 500.0
        for key, owner in owners.items():
            assert owner.inodes.get(key) is rows[key]
        assert coordinator.metrics.counter("fsck_orphans").total() == 0
        cluster.network.heal()
        assert cluster.run_process(coordinator.fsck()) == 3
        cluster.verify()


def _one_try(cluster):
    """A client whose operations get one attempt: a failed round
    surfaces as the client's failure instead of being retried."""
    client = cluster.add_client()
    client.retry_policy = RetryPolicy(max_attempts=1)
    return client


def _share(cluster, node, path):
    """Ask one MNode for its share of ``path``'s listing directly;
    returns the reply handle."""
    reply = cluster.coordinator.call(node.name, "readdir", {"path": path})
    reply.defused = True
    return reply


def _finishes(node):
    """Record the instants ``node``'s readdir handler returns."""
    finished = []
    real_readdir = node._on_readdir

    def readdir(message):
        yield from real_readdir(message)
        finished.append(node.env.now)

    node._on_readdir = readdir
    return finished


class TestReaddirFanOut:
    """A listing is one round from the client: every MNode resolves the
    directory from its own replica, waits out its own rename halves
    under it, and answers its share; no MNode relays another's."""

    def test_a_listing_is_three_requests_and_three_replies(self):
        """On three MNodes a listing is six frames, all between the
        client and an MNode: no MNode asks another for anything."""
        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1))
        fs = cluster.fs()
        pid = fs.mkdir("/d")
        names = ["f{}".format(i) for i in range(12)]
        for name in names:
            fs.create("/d/" + name)
        assert {cluster.coordinator.index.locate(pid, name)
                for name in names} == {0, 1, 2}
        network = cluster.network
        frames = []
        real_send, real_respond = network.send, network.send_response

        def send(message):
            frames.append(("request", message.sender, message.recipient,
                           message.kind))
            return real_send(message)

        def send_response(responder, message, size, deliver):
            frames.append(("reply", responder, message.sender, message.kind))
            return real_respond(responder, message, size, deliver)

        network.send, network.send_response = send, send_response
        client = cluster.add_client()
        listing = cluster.run_process(client.readdir("/d"))
        assert listing == [(name, False) for name in sorted(names)]
        mnodes = {node.name for node in cluster.mnodes}
        assert sorted(frames) == sorted(
            [("request", client.name, name, "readdir") for name in mnodes]
            + [("reply", name, client.name, "readdir") for name in mnodes])

    def test_a_hung_peer_times_the_listing_out(self):
        """An MNode that never answers its share (alive but stuck) fails
        the round with ``ETIMEDOUT`` naming it once the round's one timer
        fires at ``rpc_timeout_us``; the other MNodes' handlers finish
        at once instead of parking behind it, and the retried listing
        succeeds once the MNode answers again."""
        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1,
                                             rpc_timeout_us=400.0))
        cluster.fs().mkdir("/d")
        cluster.fs().create("/d/a")
        env = cluster.env
        hung = cluster.mnodes[1]
        real_readdir = hung._on_readdir

        def never_answer(message):
            yield env.event()

        hung._on_readdir = never_answer
        finished = {node.name: _finishes(node) for node in cluster.mnodes
                    if node is not hung}
        start = env.now
        failure = cluster.run_process(_swallow(
            _one_try(cluster).readdir("/d")))
        assert failure.code == RpcError.ETIMEDOUT
        assert failure.detail == "readdir on {}: ETIMEDOUT".format(
            hung.name)
        assert 400.0 <= env.now - start < 600.0
        assert all(len(done) == 1 and done[0] - start < 400.0
                   for done in finished.values())
        hung._on_readdir = real_readdir
        assert cluster.fs().listdir("/d") == ["a"]

    def test_shares_of_two_directories_are_not_merged(self):
        """Each MNode resolves the path itself, so a directory renamed
        away and made again while the round is out can give two shares
        two different directories.  The client refuses to merge them:
        the attempt fails ``ERETRY``, and a retried listing shows the
        new directory alone."""
        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1))
        fs = cluster.fs()
        pid = fs.mkdir("/a")
        names = ["f{}".format(i) for i in range(12)]
        for name in names:
            fs.create("/a/" + name)
        env = cluster.env
        late = cluster.mnodes[1]
        release = env.event()
        real_readdir = late._on_readdir

        def held(message):
            yield release
            yield from real_readdir(message)

        late._on_readdir = held
        finished = {node.name: _finishes(node) for node in cluster.mnodes
                    if node is not late}
        listing = env.process(_swallow(_one_try(cluster).readdir("/a")))
        while not all(finished.values()):
            env.step()
        fs.rename("/a", "/b")
        assert fs.mkdir("/a") != pid
        release.succeed()
        env.run(until=listing)
        failure = listing.value
        assert failure.code == RpcError.ERETRY
        assert "different directories" in failure.detail
        assert fs.readdir("/a") == []
        assert fs.listdir("/b") == sorted(names)

    @pytest.mark.parametrize("where", ["local", "peer"])
    def test_a_rename_half_held_past_the_timeout_answers_eretry(self, where):
        """A voted rename half under the directory that outlasts
        ``rpc_timeout_us`` makes the share of the node holding it
        (``local``) answer ``ERETRY`` when its wait times out, while a
        node that holds no half (``peer``) answers its share at once:
        each node waits only for its own halves.  A client's listing
        fails meanwhile, and succeeds once the half is aborted."""
        cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1,
                                             rpc_timeout_us=400.0))
        fs = cluster.fs()
        pid = fs.mkdir("/d")
        fs.create("/d/a")
        env = cluster.env
        coordinator = cluster.coordinator
        holder = next(node for node in cluster.mnodes
                      if node.name == coordinator._owner(pid, "a"))
        node = holder if where == "local" else next(
            node for node in cluster.mnodes if node is not holder)
        # A vote with no deadline and no decision: nothing resolves it.
        vote = coordinator.call(holder.name, "rename_prepare", {
            "txid": "rn-held", "deadline": None,
            "actions": [{"action": "delete", "key": (pid, "a")}]})
        env.run(until=vote)
        finished = _finishes(node)
        start = env.now
        reply = _share(cluster, node, "/d")
        cluster.run_for(2000.0)
        (done,) = finished
        assert reply.triggered
        if where == "local":
            assert not reply.ok
            assert reply.value.code == RpcError.ERETRY
            assert reply.value.detail == (
                "rename halves on {}: ETIMEDOUT".format(holder.name))
            assert 400.0 < done - start < 600.0
        else:
            assert reply.ok and reply.value["data"]["entries"] == []
            assert done - start < 400.0
        failure = cluster.run_process(_swallow(
            _one_try(cluster).readdir("/d")))
        assert failure.code == RpcError.ETIMEDOUT
        assert holder.name in failure.detail
        env.run(until=coordinator.call(holder.name, "rename_abort",
                                       {"txid": "rn-held"}))
        assert holder._open_halves == {}
        assert fs.listdir("/d") == ["a"]
        check_cluster_invariants(cluster)

    @pytest.mark.parametrize("how", ["deposed", "lease_lapsed"])
    def test_a_leader_that_may_not_serve_refuses_its_share(self, how):
        """Under consensus, a leader that was deposed, or whose lease
        lapsed, answers its share of a listing ``ENOTLEADER`` like every
        other handler: it may be the minority side of a partition, and a
        successor could already hold newer state."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=3, num_storage=1, replication=True, consensus=True,
            rpc_timeout_us=400.0, op_deadline_us=30000.0, seed=0))
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/a")
        leader = cluster.mnodes[0]
        log = leader.shipper
        if how == "deposed":
            log.on_ack(log.witness_name,
                       {"term": log.term + 1, "ok": False, "stale": True,
                        "match_lsn": 0, "echo": None,
                        "member": log.witness_name})
        else:
            cluster.start_consensus()
            # Members still hear the leader (no election) but their
            # acks are lost, so nothing renews the lease.
            cluster.network.partition_directed(
                [cluster.standbys[0].name, cluster.witnesses[0].name],
                [leader.name])
            cluster.run_for(2 * LEASE_US)
        assert not log.leading(leader.clock.now_us())
        for node in cluster.mnodes:
            reply = _share(cluster, node, "/d")
            cluster.run_for(1000.0)
            assert reply.triggered
            if node is leader:
                assert not reply.ok
                assert reply.value.code == RpcError.ENOTLEADER
            else:
                assert reply.ok

class TestFanOutRules:
    """Every server-side broadcast is one ``call_all`` round under a
    stated failure rule (docs/protocol.md, "Fan-out rules").  Each test
    black-holes one peer: the round gives up at ``rpc_timeout_us`` and
    its rule decides what happens, instead of parking the caller."""

    TIMEOUT = 400.0

    def _cluster(self, **config):
        return FalconCluster(FalconConfig(num_mnodes=4, num_storage=1,
                                          rpc_timeout_us=self.TIMEOUT,
                                          **config))

    def test_rmdir_answers_the_failure_and_deletes_nothing(self):
        """``all``: the owner's invalidation round misses one peer, so
        the rmdir fails with the timeout, naming the peer, and the
        directory stays; once the peer is back the rmdir succeeds."""
        cluster = self._cluster()
        fs = cluster.fs()
        fs.mkdir("/d")
        key = (ROOT_INO, "d")
        owner = TestTwoRoundRename._node(cluster, *key)
        silent = next(node for node in cluster.mnodes if node is not owner)
        cluster.network.partition([owner.name], [silent.name])
        start = cluster.env.now
        failure = cluster.run_process(_swallow(_call(
            cluster.add_client(), cluster.coordinator.name, "rmdir",
            {"path": "/d"})))
        assert failure.code == RpcError.ETIMEDOUT
        assert failure.detail == "invalidate on {}: ETIMEDOUT".format(
            silent.name)
        assert self.TIMEOUT < cluster.env.now - start < self.TIMEOUT + 200
        assert owner.inodes.get(key) is not None
        assert fs.exists("/d")
        cluster.network.heal()
        fs.rmdir("/d")
        assert not fs.exists("/d")
        check_cluster_invariants(cluster)

    def test_an_unreachable_owner_times_the_rmdir_out(self):
        """The coordinator waits ``2 * rpc_timeout_us`` for the owner of
        ``/d``, above the owner's own invalidation round: partitioned
        from it, ``rmdir /d`` answers ``ETIMEDOUT`` naming the owner and
        frees the path's locks, so the next op on ``/d`` gets them."""
        cluster = self._cluster()
        fs = cluster.fs()
        env = cluster.env
        fs.mkdir("/d")
        coordinator = cluster.coordinator
        owner = TestTwoRoundRename._node(cluster, ROOT_INO, "d")
        cluster.network.partition([coordinator.name], [owner.name])
        start = env.now

        def rmdir():
            failure = yield from _swallow(_call(
                cluster.add_client(), coordinator.name, "rmdir",
                {"path": "/d"}))
            return failure, env.now - start

        answered = env.process(rmdir())
        cluster.run_for(4 * self.TIMEOUT)
        assert answered.triggered
        failure, took = answered.value
        assert failure.code == RpcError.ETIMEDOUT
        assert failure.detail == "rmdir_exec to " + owner.name
        assert 2 * self.TIMEOUT < took < 2 * self.TIMEOUT + 200
        assert coordinator.locks._locks == {}
        cluster.network.heal()
        fs.rmdir("/d")
        assert not fs.exists("/d")
        check_cluster_invariants(cluster)

    def test_an_rmdir_exec_that_arrives_late_is_refused(self):
        """The coordinator timed ``rmdir /d`` out and let go of its
        locks, and a rename then reserved ``/d/g``; the held-up
        ``rmdir_exec`` reaches the owner while the reservation is voted
        but not committed.  The reservation is no inode, so the owner's
        children check would pass and the commit would land under a
        removed directory.  The exec carries the instant the coordinator
        gives up on the owner's locks, and the owner, getting them
        later, refuses it: ``/d`` stays and holds ``g``."""
        from repro.core.verify import runtime_violations

        cluster = self._cluster()
        fs = cluster.fs()
        fs.mkdir("/d")
        pid = fs.mkdir("/x")
        fs.create("/x/f")
        owner = cluster.coordinator._owner
        dst = next(name for name in ("g{}".format(i) for i in range(200))
                   if owner(pid, name) != owner(pid, "f"))
        exec_held = _hold_calls(cluster, lambda target, kind, payload: (
            kind == "rmdir_exec"))
        failure = cluster.run_process(_swallow(_call(
            cluster.add_client(), cluster.coordinator.name, "rmdir",
            {"path": "/d"})))
        assert failure.code == RpcError.ETIMEDOUT
        commit_held = TestTwoRoundRename._hold_commits(
            cluster, lambda target, txid: True)
        fs.rename("/x/f", "/d/" + dst)      # answered at its decision
        exec_held.succeed()
        cluster.run_for(10 * self.TIMEOUT)
        commit_held.succeed()
        assert cluster.quiesce(1_000_000.0)
        assert [name for name, _ in fs.readdir("/d")] == [dst]
        assert runtime_violations(cluster) == []
        check_cluster_invariants(cluster)

    @pytest.mark.parametrize("budget_us", [1200.0, 300.0])
    def test_a_failed_directory_rename_invalidation_aborts_both_halves(
            self, budget_us):
        """``all``, and nothing is decided: a peer that misses a
        directory rename's invalidation fails the rename, by its
        deadline when the timeout comes first, and both voted halves
        are aborted at once — no ``("rename", slot, txid)`` row is left
        to hold its locks until it resolves itself.  With 300 µs the
        round ends at the op deadline, and the abort is sent all the
        same.  The source still resolves."""
        from repro.obs import OpContext

        cluster = self._cluster()
        fs = cluster.fs()
        env = cluster.env
        pid = fs.mkdir("/p")
        src, dst = TestTwoRoundRename._cross_owner(cluster, pid)
        fs.mkdir("/p/" + src)
        owners = [TestTwoRoundRename._node(cluster, pid, name)
                  for name in (src, dst)]
        silent = next(node for node in cluster.mnodes
                      if node not in owners)
        cluster.network.partition([cluster.coordinator.name], [silent.name])
        client = cluster.add_client()
        ctx = OpContext(env, "rename", origin=client.name,
                        deadline=env.now + budget_us)
        failure = cluster.run_process(_swallow(_call(
            client, cluster.coordinator.name, "rename",
            {"src": "/p/" + src, "dst": "/p/" + dst}, ctx)))
        assert failure.code == RpcError.ETIMEDOUT
        assert failure.detail == "invalidate on {}: ETIMEDOUT".format(
            silent.name)
        if budget_us > self.TIMEOUT:
            assert env.now <= ctx.deadline
        for owner in owners:
            assert not any(key[0] == "rename" for key, _ in owner.meta.scan())
            assert owner._staged == {} and owner._open_halves == {}
        assert fs.is_dir("/p/" + src)
        assert not fs.exists("/p/" + dst)
        cluster.network.heal()
        check_cluster_invariants(cluster)

    def test_invalidate_owner_lands_once_a_silent_survivor_heals(self):
        """``redeliver``: a survivor that misses a failover's
        ``invalidate_owner`` round does not hold the failover up, and
        gets the invalidation re-delivered once it can be reached."""
        from repro.obs.retry import REDELIVER_BACKOFF_US

        cluster = self._cluster(replication=True)
        fs = cluster.fs()
        coordinator = cluster.coordinator
        name = next(name for name in ("w{}".format(i) for i in range(100))
                    if coordinator.index.locate(ROOT_INO, name) == 0)
        fs.mkdir("/" + name)
        key = (ROOT_INO, name)
        silent = cluster.mnodes[2]
        record = cluster.mnodes[0].inodes.get(key)
        silent.dentries.put(key, record.dentry())
        cluster.run_for(5000.0)                 # shipped to the standby
        cluster.crash_mnode(0)
        cluster.network.partition([coordinator.name], [silent.name])
        start = cluster.env.now
        failover = cluster.run_process(cluster.fail_over(0))
        # Its two rounds that miss the survivor (``invalidate_owner``
        # and the orphan sweep's scan) each end at the timeout.
        assert cluster.env.now - start < 3 * self.TIMEOUT
        assert failover["orphans_removed"] == 0
        assert failover["promoted"] == cluster.shared.mnode_names[0]
        assert silent.dentries.get(key).state == VALID      # missed it
        completed = coordinator.metrics.counter("redeliveries_completed")
        assert completed.get("invalidate_owner") == 0
        cluster.network.heal()
        cluster.run_for(4 * REDELIVER_BACKOFF_US)
        assert completed.get("invalidate_owner") == 1
        assert silent.dentries.get(key).state != VALID
        assert fs.exists("/" + name)
        check_cluster_invariants(cluster)


def _race(cluster, first, second, delay_us):
    """Run client op ``first`` and, ``delay_us`` later from a second
    client, ``second`` (each ``(op, *args)``); returns their outcomes,
    ``"ok"`` or the failure code's name, once the cluster is quiet."""
    env = cluster.env

    def run(op, *args, delay=0.0):
        yield env.timeout(delay)
        try:
            yield from getattr(cluster.add_client(), op)(*args)
            return "ok"
        except RpcFailure as failure:
            return RpcError.name(failure.code)

    procs = [env.process(run(*first)),
             env.process(run(*second, delay=delay_us))]
    env.run(until=env.all_of(procs))
    assert cluster.quiesce(1_000_000.0)
    return [proc.value for proc in procs]


class TestResolveLockRecheck:
    """The coordinator resolves a path, takes its locks, then re-checks
    the resolution under them, as a merged MNode batch does.  A change
    that reached a directory on the path first answers ``ERETRY``, and
    the client's retry resolves the path as it now is."""

    @pytest.mark.parametrize("delay_us", [0.0, 5.0])
    def test_a_rename_into_a_directory_being_removed_fails(self, cluster,
                                                           fs, delay_us):
        """``rename /x/f /a/b/f`` resolves ``/a/b`` while ``rmdir /a/b``
        holds it: it must not move the file under the removed
        directory."""
        from repro.core.verify import runtime_violations

        fs.makedirs("/a/b")
        fs.mkdir("/x")
        fs.create("/x/f")
        assert _race(cluster, ("rmdir", "/a/b"),
                     ("rename", "/x/f", "/a/b/f"), delay_us) == [
            "ok", "ENOENT"]
        assert fs.exists("/x/f") and not fs.exists("/a/b")
        assert runtime_violations(cluster) == []
        check_cluster_invariants(cluster)

    @pytest.mark.parametrize("delay_us", [0.0, 5.0, 10.0, 20.0, 40.0])
    def test_crossing_directory_renames_form_no_cycle(self, cluster, fs,
                                                      delay_us):
        """``/a -> /b/c`` and ``/b -> /a/x``: if both applied, the two
        directories would hold each other, detached from the root.
        Exactly one succeeds; the other's path is gone."""
        from repro.core.verify import runtime_violations

        fs.mkdir("/a")
        fs.mkdir("/b")
        outcomes = _race(cluster, ("rename", "/a", "/b/c"),
                         ("rename", "/b", "/a/x"), delay_us)
        assert sorted(outcomes) == ["ENOENT", "ok"]
        expected = ["b"] if outcomes[0] == "ok" else ["a"]
        assert [name for name, _ in fs.readdir("/")] == expected
        assert runtime_violations(cluster) == []
        check_cluster_invariants(cluster)


class TestConflictCaseOne:
    def test_invalidation_waits_for_inflight_holder(self, cluster):
        """§4.3 case 1: a request already holding the dentry lock blocks
        the invalidation until it completes."""
        fs = cluster.fs()
        fs.mkdir("/dir")
        fs.create("/dir/warm")  # replicate the dentry around
        env = cluster.env
        owner_idx = cluster.coordinator.index.locate(1, "dir")
        other = cluster.mnodes[(owner_idx + 1) % 4]
        order = []

        def long_holder():
            grant = other.locks.acquire(("d", 1, "dir"), LockMode.SHARED)
            yield grant.event
            order.append(("holder-start", env.now))
            yield env.timeout(500.0)
            other.locks.release(grant)
            order.append(("holder-end", env.now))

        def chmodder():
            yield env.timeout(10.0)
            client = cluster.clients[0]
            yield from client.chmod("/dir", 0o700)
            order.append(("chmod-done", env.now))

        holder = env.process(long_holder())
        chmod = env.process(chmodder())
        env.run(until=env.all_of([holder, chmod]))
        labels = [label for label, _ in order]
        assert labels.index("chmod-done") > labels.index("holder-end")
        assert fs.getattr("/dir")["mode"] == 0o700


    def test_a_directory_rename_does_not_wait_for_an_inflight_holder(
            self, cluster):
        """A renamed directory's peers mark its dentry invalid without
        waiting for its lock: the rename's votes are held meanwhile, and
        a holder that resolved through the directory may be a merged
        batch queued on another rename's vote.  The holder's op keeps
        the directory's ino, so it lands under the new name."""
        fs = cluster.fs()
        fs.mkdir("/dir")
        fs.create("/dir/warm")  # replicate the dentry around
        owner = cluster.coordinator._owner
        owners = {owner(ROOT_INO, "dir"), owner(ROOT_INO, "moved")}
        other = next(node for node in cluster.mnodes
                     if node.name not in owners)
        dkey = ("d", ROOT_INO, "dir")
        seq = other.inval_seq[dkey]
        holder = other.locks.acquire(dkey, LockMode.SHARED)
        renamed = cluster.env.process(
            cluster.clients[0].rename("/dir", "/moved"))
        cluster.run_for(50_000.0)
        assert renamed.triggered and renamed.ok
        assert other.locks.holders(dkey) == ["S"]
        assert other.inval_seq[dkey] == seq + 1
        other.locks.release(holder)
        assert fs.exists("/moved/warm") and not fs.exists("/dir")
        check_cluster_invariants(cluster)


class TestUnsupported:
    def test_symlink_rejected(self, cluster):
        client = cluster.add_client()
        with pytest.raises(RpcFailure) as err:
            cluster.run_process(client.symlink("/target", "/link"))
        assert err.value.code == RpcError.EINVAL


class TestRetryPaths:
    def test_ops_retry_through_migration_window(self, cluster):
        """Access to a migrating filename blocks (ERETRY + client retry)
        and succeeds once the window closes."""
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/pinned.dat")
        env = cluster.env
        client = cluster.clients[0]
        for mnode in cluster.mnodes:
            mnode.migrating.add("pinned.dat")

        def unblock():
            yield env.timeout(5000.0)
            for mnode in cluster.mnodes:
                mnode.migrating.discard("pinned.dat")

        env.process(unblock())
        attrs = cluster.run_process(client.getattr("/d/pinned.dat"))
        assert attrs["ino"] > 0
        assert env.now >= 5000.0

    def test_retry_eventually_gives_up(self, cluster):
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/stuck.dat")
        for mnode in cluster.mnodes:
            mnode.migrating.add("stuck.dat")
        client = cluster.clients[0]
        with pytest.raises(RpcFailure) as err:
            cluster.run_process(client.getattr("/d/stuck.dat"))
        assert err.value.code == RpcError.ERETRY


    def test_readdir_answers_eretry_when_a_peer_scan_errs(self, cluster,
                                                         monkeypatch):
        """An error reply to one MNode's share fails the listing's
        round: the client's attempt fails ``ERETRY`` with the MNode and
        its code in the detail, and the listing succeeds once the MNode
        serves its share again."""
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/f.dat")
        erring = cluster.mnodes[2]

        def refuse(message):
            erring.respond_error(
                message, RpcFailure(RpcError.ERETRY, erring.name))
            yield from ()

        monkeypatch.setattr(erring, "_on_readdir", refuse)
        failure = cluster.run_process(_swallow(
            _one_try(cluster).readdir("/d")))
        assert failure.code == RpcError.ERETRY
        assert failure.detail == "readdir on {}: ERETRY".format(
            erring.name)
        monkeypatch.undo()
        assert fs.listdir("/d") == ["f.dat"]


class TestMkdirRmdirChurn:
    def test_repeated_create_remove_cycles(self, cluster, fs):
        """Namespace churn leaves no residue: sequences of mkdir/rmdir
        with replica traffic in between keep all invariants."""
        other = cluster.fs()
        for round_index in range(10):
            fs.mkdir("/churn")
            other.create("/churn/f")  # forces replica fetch elsewhere
            other.unlink("/churn/f")
            fs.rmdir("/churn")
        assert not fs.exists("/churn")
        check_cluster_invariants(cluster)

    def test_deep_tree_teardown(self, cluster, fs):
        path = ""
        for level in range(6):
            path += "/t{}".format(level)
            fs.mkdir(path)
        fs.create(path + "/leaf")
        fs.unlink(path + "/leaf")
        while path:
            fs.rmdir(path)
            path = path.rsplit("/", 1)[0]
        assert fs.readdir("/") == []
        check_cluster_invariants(cluster)
