"""Cluster assembly and the synchronous facade.

:class:`FalconCluster` wires MNodes, the coordinator, storage nodes and
clients onto one simulated network.  :class:`FalconFilesystem` is a
synchronous POSIX-like view for examples and tests: each call spawns the
client operation as a simulation process and runs the event loop until it
completes, so callers never see generators.

Example
-------
>>> from repro.core import FalconCluster
>>> cluster = FalconCluster()
>>> fs = cluster.fs()
>>> fs.mkdir("/data")
>>> fs.write("/data/sample.bin", size=64 * 1024)
>>> fs.read("/data/sample.bin")
65536
"""

from repro.core.client import FalconClient
from repro.core.coordinator import Coordinator
from repro.core.filestore import StorageNode
from repro.core.mnode import MNode
from repro.core.records import DentryRecord, InodeRecord
from repro.core.shared import ClusterShared, FalconConfig
from repro.net import CostModel, Network
from repro.net.rpc import RpcError, RpcFailure
from repro.runtime import SimEnv
from repro.runtime.api import sized_nursery
from repro.storage.consensus import HEARTBEAT_US, ConsensusFollower, Witness
from repro.storage.replication import Standby
from repro.vfs.attrs import ROOT_INO
from repro.vfs.pathwalk import basename, join_path, parent_path, split_path


class FalconCluster:
    """A complete simulated FalconFS deployment."""

    def __init__(self, config=None, costs=None, env=None, tracer=None):
        self.config = config or FalconConfig()
        self.env = env or SimEnv()
        self.costs = costs or CostModel()
        self.costs.server_cores = self.config.server_cores
        self.shared = ClusterShared(self.env, self.costs, self.config,
                                    tracer=tracer)
        self.network = Network(self.env, self.costs)
        self.mnodes = [
            MNode(self.env, self.network, self.shared, i)
            for i in range(self.config.num_mnodes)
        ]
        for mnode in self.mnodes:
            mnode.boot()
        self.coordinator = Coordinator(self.env, self.network, self.shared)
        self.coordinator.install_leader = self.promote_standby
        self.standbys = []
        #: Vote-only consensus members, one per slot (consensus mode).
        self.witnesses = []
        self._consensus_running = False
        #: (slot, incarnation) of deposed-but-alive leaders awaiting
        #: demotion.
        self._zombies = []
        if self.config.consensus:
            for i, mnode in enumerate(self.mnodes):
                self.witnesses.append(Witness(
                    self.env, self.network, mnode.name + "-witness"))
                self.coordinator.register_leader(i, 1, mnode.name)
        if self.config.replication:
            self.standbys = [self._join_member(i, mnode.name + "-standby")
                             for i, mnode in enumerate(self.mnodes)]
        self.storage = [
            StorageNode(self.env, self.network, name)
            for name in self.shared.storage_names
        ]
        self.clients = []
        #: Crash events ({index, name, at, lag_at_crash, appended_txns,
        #: durable_lsn}) — see crash_mnode.
        self.crash_log = []
        #: Dead primaries kept for post-mortem inspection (tests compare
        #: their tables against the promoted standby's).
        self.retired_mnodes = []
        #: slot index -> crashed-and-not-yet-restarted node object.
        self._crashed = {}
        #: One record per completed crash-restart — see restart_mnode.
        self.restart_log = []
        #: Active heartbeat failure detector, if started.
        self.detector = None
        self._promotions = 0

    # -- clients -----------------------------------------------------------

    def add_client(self, mode="vfs", cache_budget_bytes=None, name=None):
        """Attach a new client; returns the :class:`FalconClient`."""
        if name is None:
            name = "client-{}".format(len(self.clients))
        client = FalconClient(
            self.env, self.network, self.shared, name,
            mode=mode, cache_budget_bytes=cache_budget_bytes,
        )
        self.clients.append(client)
        return client

    def fs(self, client=None, **client_kwargs):
        """A synchronous filesystem view bound to ``client`` (or a new one)."""
        if client is None:
            client = self.add_client(**client_kwargs)
        return FalconFilesystem(self, client)

    # -- execution helpers ---------------------------------------------------

    def run_process(self, generator):
        """Run a client/coordinator generator to completion; return its value."""
        process = self.env.process(generator)
        return self.env.run(until=process)

    def run_for(self, duration_us):
        """Advance simulated time by ``duration_us``."""
        self.env.run(until=self.env.now + duration_us)

    # -- cluster management ---------------------------------------------------

    def rebalance(self):
        """Run the coordinator's load-balancing loop synchronously."""
        return self.run_process(self.coordinator.rebalance())

    def shrink_exception_table(self):
        return self.run_process(self.coordinator.shrink())

    def add_mnode(self):
        """Scale out: attach a fresh MNode to the ring (elastic
        namespace).  The new node hosts **no** directory slots until the
        coordinator migrates some onto it (``migrate_slot`` /
        ``rebalance_slots``), so joining is invisible to clients — the
        slot map is untouched and no placement changes until a handoff
        commits.  Returns the new node's physical index.
        """
        if self.config.consensus:
            raise RuntimeError(
                "scale-out under consensus groups is not supported")
        index = len(self.mnodes)
        self.shared.mnode_names.append("mnode-{}".format(index))
        node = MNode(self.env, self.network, self.shared, index)
        node.boot()
        self.mnodes.append(node)
        self.config.num_mnodes = len(self.mnodes)
        if self.config.replication:
            self.standbys.append(
                self._join_member(index, node.name + "-standby"))
        return index

    def inode_distribution(self):
        """Per-MNode inode counts (files + directories)."""
        return [len(mnode.inodes) for mnode in self.mnodes]

    def verify(self):
        """Audit cluster invariants (placement, replica coherence,
        reachability, statistics); raises
        :class:`~repro.core.verify.InvariantViolation` on corruption."""
        from repro.core.verify import check_cluster_invariants

        return check_cluster_invariants(self)

    @property
    def exception_table(self):
        return self.coordinator.xt

    # -- faults and failover -------------------------------------------------

    def crash_mnode(self, index):
        """Kill MNode ``index``: every message to or from it (including
        in-flight WAL shipments) is black-holed from now on, and its WAL
        power-fails — an fsync in flight becomes a torn tail and its
        waiters are never acknowledged.  Returns the replication lag at
        the instant of the crash — the committed-but-unshipped
        transaction count that a later promotion will lose (a later
        *restart* loses only the unfsynced tail)."""
        mnode = self.mnodes[index]
        standby = self._standby(index)
        lag = 0
        if mnode.shipper is not None and standby is not None:
            lag = standby.lag(mnode.shipper)
        self.network.set_down(mnode.name)
        mnode.wal.power_fail()
        self._crashed[index] = mnode
        self.crash_log.append({
            "index": index, "name": mnode.name, "at": self.env.now,
            "lag_at_crash": lag, "appended_txns": mnode.wal.appended_txns,
            "durable_lsn": mnode.wal.durable_lsn,
        })
        return lag

    def crashed(self, index):
        """Slot ``index``'s crashed, not yet restarted occupant, or
        None."""
        return self._crashed.get(index)

    def _standby(self, index):
        """Slot ``index``'s replica machine, or None — no replication,
        or a promotion consumed it and no restart has restored one."""
        return self.standbys[index] if index < len(self.standbys) else None

    def promote_standby(self, index, grant, claim=None):
        """The coordinator's install hook: slot ``index``'s replica
        machine becomes its primary, ordained or elected (``claim``, the
        winner's leader claim).  The slot is renamed first, so every
        retry that re-resolves it lands on the new incarnation, which
        boots from the replica's disk under ``grant``.  A zombie (a
        deposed leader still alive) rejoins at :meth:`heal`.  Returns
        ``(new_node, lost_txns)``: what the old primary shipped and the
        replica never applied, or, elected, appended but never
        quorum-committed (acknowledged to no one)."""
        member = self._standby(index)
        if member is None or (claim is not None
                              and member.name != claim["name"]):
            raise RuntimeError(
                "slot {} has no replica {!r} to promote (it has {!r})".format(
                    index, claim and claim["name"],
                    None if member is None else member.name))
        old = self.mnodes[index]
        lost_txns = 0
        if claim is None and old.shipper is not None:
            lost_txns = member.lag(old.shipper)
        self._promotions += 1
        self.shared.mnode_names[index] = "{}-p{}".format(
            old.name, self._promotions)
        node = MNode(self.env, self.network, self.shared, index)
        node.boot(member, grant)
        self._install(index, node)
        self.standbys[index] = None
        if claim is not None:
            if old.shipper is not None:
                lost_txns = max(0, old.shipper.last_lsn
                                - node.shipper.base_lsn)
            if self.crashed(index) is None:
                self._zombies.append((index, old))
            if self._consensus_running:
                node.shipper.start()
        return node, lost_txns

    def _install(self, index, node):
        """Swap ``node`` into slot ``index``; halt (its frozen handlers
        stay dead even if its name comes back) and retire the old
        incarnation."""
        old = self.mnodes[index]
        self.mnodes[index] = node
        old.halted = True
        self.retired_mnodes.append(old)

    # -- consensus (leader election) -----------------------------------------

    def _join_member(self, index, name):
        """Construct slot ``index``'s replica machine under ``name`` and
        point the slot's leader at it: a data follower in the witness's
        group where the slot has one (seeded election RNG, one stream
        per follower name, so reincarnations draw a fresh deterministic
        sequence), else an asynchronous standby.  Commits from here on
        reach it as ordered deltas; a rejoiner then installs a snapshot
        that the delta stream seamlessly extends."""
        leader = self.mnodes[index]
        if not self.witnesses:
            member = Standby(self.env, self.network, name)
            leader.attach_standby(name)
            return member
        witness_name = self.witnesses[index].name
        member = ConsensusFollower(
            self.env, self.network, name, index, witness_name,
            self.shared.coordinator_name,
            self.shared.streams.stream(
                "consensus.election.{}.{}".format(index, name)),
            rpc_timeout_us=self.config.rpc_timeout_us or 400.0,
        )
        if leader.shipper is None:
            leader.attach_group(witness_name, standby_name=name)
        else:
            leader.shipper.attach_data_member(name)
        return member

    def start_consensus(self):
        """Start the groups' standing timers: leader heartbeats (which
        double as retransmission and lease renewal) and follower
        election timers.  :meth:`heal` stops them again before the
        drain, so quiescence-based checking still works."""
        if not self.witnesses:
            raise RuntimeError("consensus is not enabled")
        self._consensus_running = True
        for mnode in self.mnodes:
            if mnode.shipper is not None:
                mnode.shipper.start()
        for follower in self.standbys:
            if follower is not None:
                follower.start_elections()

    def stop_consensus_timers(self):
        self._consensus_running = False
        for mnode in self.mnodes:
            if mnode.shipper is not None:
                mnode.shipper.stop()
        for follower in self.standbys:
            if follower is not None:
                follower.stop_elections()

    def _rejoin(self, index, name):
        """Generator: machine ``name``, told to rejoin slot ``index``,
        abandons its MNode incarnation as a crash would and comes back
        as the replica of the slot's owner: a standby, or a data
        follower with its election timer armed.  It catches up by
        snapshot."""
        if not self.network.is_down(name):
            self.network.set_down(name)
        self.network.reincarnate(name)
        member = self._join_member(index, name)
        self.standbys[index] = member
        yield from member.catch_up(self.mnodes[index].name)
        if self._consensus_running:
            member.start_elections()

    def restart_mnode(self, index):
        """Generator: restart the crashed former occupant of slot
        ``index``.  This is fault delivery; the machine recovers itself.
        Its disk powers on (redo reads the log while the name is still
        down), and a new incarnation under the same name registers with
        the coordinator.  Told **primary**, it boots from the disk
        (:meth:`MNode.boot`), takes the ``mnodes`` entry back and leads
        its replicas again (:meth:`MNode.resume`); told **standby of X**,
        it rejoins as X's replica (:meth:`_rejoin`).  Returns the restart
        record (also appended to ``restart_log``)."""
        old = self._crashed.pop(index, None)
        if old is None:
            raise RuntimeError(
                "MNode slot {} has no crashed node to restart".format(index)
            )
        started_at = self.env.now
        disk = old.wal
        replayed, torn = yield from disk.power_on()
        # The old incarnation's frozen handlers must stay dead once the
        # name is reachable again.
        old.halted = True
        self.network.reincarnate(old.name)
        node = MNode(self.env, self.network, self.shared, index,
                     name=old.name)
        reply = yield from node.register()
        if reply["role"] == "primary":
            node.boot(disk, reply)
            self._install(index, node)
            standby = self._standby(index)
            yield from node.resume(
                disk, reply, standby and standby.name,
                self.witnesses[index].name if self.witnesses else None)
            if self._consensus_running:
                node.shipper.start()
        else:
            node.halted = True
            yield from self._rejoin(index, old.name)
        if self.detector is not None:
            self.detector.node_restarted(index)
        record = {
            "index": index, "name": old.name, "role": reply["role"],
            "restarted_at": started_at, "recovered_at": self.env.now,
            "recovery_us": self.env.now - started_at,
            "replayed_txns": replayed, "torn_records": torn,
        }
        self.restart_log.append(record)
        return record

    def fail_over(self, index):
        """Generator: the full recovery path for a dead MNode — promote
        its standby and run the coordinator's cluster repair (survivor
        invalidation + orphan fsck).  Returns the failover record.

        If the slot is down but has no standby to promote (an earlier
        promotion consumed it and no restart has restored one yet),
        recovery is **deferred**: a record is logged and nothing changes
        — the failure detector keeps re-declaring the slot until either
        the crashed machine restarts in place or a standby reappears.
        Promoting nothing would otherwise crash the control plane."""
        failed_name = self.shared.node_name(index)
        if self.network.is_down(failed_name) and self._standby(index) is None:
            return self.coordinator.log_failover(
                "failovers_deferred", index, failed_name, self.env.now,
                deferred=True)
        return (yield from self.coordinator.fail_over(index))

    def heal(self, restart=True):
        """Clear every injected fault condition so the cluster can drain:
        stop failure detection, lift all partitions and restart any
        still-crashed slots (in slot order; each restart runs to
        completion).  Hung nodes recover on their own timers and are left
        alone — blanket ``set_up`` would unfence a crashed-but-never-
        promoted node and let it serve its pre-crash zombie state.
        Returns the restart records."""
        if self.detector is not None:
            self.detector.stop()
        self.network.heal()
        # Gray failures heal too: restore degraded links, reset skewed
        # clocks and clear disk slowdowns, so the drain that follows
        # (and the convergence audits after it) runs on healthy gear.
        self.network.restore_links()
        for view in self.env.clock_views():
            view.reset()
        for mnode in self.mnodes:
            mnode.wal.slow_disk = None
        records = []
        if restart:
            for index in [index for index in range(len(self.mnodes))
                          if self.crashed(index) is not None]:
                records.append(self.run_process(self.restart_mnode(index)))
        # Demote alive zombies, leaders deposed while partitioned (not
        # crashed): each registers like a restarted machine and rejoins
        # as its slot's data follower, restoring the 2-of-3 data quorum.
        zombies, self._zombies = self._zombies, []
        for slot, zombie in zombies:
            if self.standbys[slot] is not None:
                continue  # a crash-restart already refilled the slot
            self.run_process(self._demote(slot, zombie))
        if self._consensus_running:
            # Let the groups settle — heartbeats re-establish match
            # positions and push the commit horizon to every member —
            # beat by beat until every group has converged (at most ten
            # beats), then stop the standing timers so the drain that
            # follows can actually go quiescent.
            for _ in range(10):
                if self._groups_converged():
                    break
                self.run_for(HEARTBEAT_US)
            self.stop_consensus_timers()
        return records

    def _demote(self, index, zombie):
        """Generator: deposed leader ``zombie``, the incarnation still
        running on its machine, registers and rejoins."""
        yield from zombie.register()
        yield from self._rejoin(index, zombie.name)

    def _groups_converged(self):
        """True when every consensus group has nothing left to settle:
        a serving leader whose whole log is committed and acked by every
        member, and a data follower that has committed and applied it."""
        for mnode, follower in zip(self.mnodes, self.standbys):
            log = mnode.shipper
            if log is None:
                continue
            last = log.last_lsn
            if log.deposed or mnode.halted or log.commit_lsn != last:
                return False
            if any(m["match"] != last for m in log.members.values()):
                return False
            if follower is not None and (follower.commit_lsn != last
                                         or follower.applied_lsn != last):
                return False
        return True

    def quiesce(self, budget_us=None):
        """Drain the event queue (bounded by ``budget_us`` when given);
        True when the simulation went fully quiescent."""
        return self.env.run_until_quiescent(budget_us)

    def start_failure_detection(self):
        """Start the coordinator's heartbeat failure detector; detected
        deaths trigger :meth:`fail_over` automatically.  Returns the
        :class:`~repro.faults.FailureDetector`.

        Under consensus this starts nothing and returns ``None``: each
        group's election timer is its failure detector, and the
        instant the winning candidate's timer fired is the elected
        failover record's ``detected_at``."""
        if self.config.consensus:
            return None
        from repro.faults import FailureDetector

        self.detector = FailureDetector(self.coordinator, self.shared,
                                        on_failure=self.fail_over)
        self.detector.start()
        return self.detector

    def install_exception_table(self, pathwalk=(), override=None,
                                include_clients=True):
        """Set redirection entries everywhere at once (offline).

        Test/experiment helper: equivalent to the coordinator having
        pushed the table and every client having refreshed.  Call before
        :meth:`bulk_load` so placement honours the entries.
        """
        holders = [self.coordinator] + self.mnodes
        if include_clients:
            holders += self.clients
        for holder in holders:
            table = holder.xt
            for name in pathwalk:
                table.pathwalk.add(name)
            for name, target in (override or {}).items():
                table.override[name] = target
            table.version += 1

    # -- bulk loading -------------------------------------------------------

    @sized_nursery()
    def bulk_load(self, tree):
        """Install a :class:`~repro.workloads.trees.TreeSpec` directly into
        the MNode tables, bypassing the protocol.

        Used to initialize the large trees of the traversal and
        load-balance experiments (the paper pre-creates its datasets too).
        Placement honours the coordinator's current exception table.
        Every MNode's namespace replica starts complete — the steady
        state lazy replication converges to.
        Returns a ``path -> ino`` map.

        Everything built here outlives the call, so the build runs with
        the young generation sized up (:func:`sized_nursery`): under the
        default threshold a growing namespace is re-scanned by a full
        collection every time it grows by a quarter.
        """
        index = self.coordinator.index
        slot_map = self.shared.slot_map
        path_ino = {"/": ROOT_INO}
        for dpath in tree.dirs:
            pid = path_ino[parent_path(dpath)]
            name = basename(dpath)
            ino = self.shared.allocator.allocate()
            owner = self.mnodes[slot_map.node_of(index.locate(pid, name))]
            key = (pid, name)
            record = InodeRecord(ino=ino, is_dir=True, mode=0o755)
            owner.inodes.put(key, record)
            owner._track_name(key, +1)
            self._bulk_standby(owner, key, record, True)
            for mnode in self.mnodes:
                mnode.dentries.put(key, DentryRecord(ino=ino, mode=0o755))
            path_ino[dpath] = ino
        for fpath, size in tree.files:
            pid = path_ino[parent_path(fpath)]
            name = basename(fpath)
            ino = self.shared.allocator.allocate()
            owner = self.mnodes[slot_map.node_of(index.locate(pid, name))]
            key = (pid, name)
            record = InodeRecord(ino=ino, is_dir=False, size=size)
            owner.inodes.put(key, record)
            owner._track_name(key, +1)
            self._bulk_standby(owner, key, record, False)
            path_ino[fpath] = ino
        # No record carries the loaded rows, so each log gets one base
        # holding them, at its current horizon: redo installs the image
        # and replays every record above the horizon over it again (a
        # fuzzy base), and no LSN moves, so neither does a ship anchor.
        # The standbys got the rows by direct mirroring.
        for mnode in self.mnodes:
            wal = mnode.wal
            wal.checkpoint(wal.horizon, mnode.table_image(), term=wal.term)
        return path_ino

    def _bulk_standby(self, owner, key, record, is_dir):
        """Mirror a bulk-loaded record into the owner's standby."""
        if not self.standbys:
            return
        standby = self.standbys[self.mnodes.index(owner)]
        if standby is None:
            return
        standby.tables["inode"].put(key, record)
        if is_dir:
            standby.tables["dentry"].put(key, record.dentry())


class FalconFilesystem:
    """Synchronous POSIX-like facade over one client."""

    def __init__(self, cluster, client):
        self.cluster = cluster
        self.client = client

    def _run(self, generator):
        return self.cluster.run_process(generator)

    # -- namespace ------------------------------------------------------

    def mkdir(self, path, mode=0o755):
        return self._run(self.client.mkdir(path, mode))

    def makedirs(self, path, mode=0o755, exist_ok=True):
        """Create ``path`` and any missing ancestors."""
        current = "/"
        for name in split_path(path):
            current = join_path(current, name)
            try:
                self._run(self.client.mkdir(current, mode))
            except RpcFailure as failure:
                if not (exist_ok and failure.code == RpcError.EEXIST):
                    raise

    def rmdir(self, path):
        self._run(self.client.rmdir(path))

    def rename(self, src, dst):
        self._run(self.client.rename(src, dst))

    def chmod(self, path, mode):
        self._run(self.client.chmod(path, mode))

    def listdir(self, path):
        """Sorted child names of a directory."""
        return [name for name, _ in self._run(self.client.readdir(path))]

    def readdir(self, path):
        """Sorted list of (name, is_dir) pairs."""
        return self._run(self.client.readdir(path))

    # -- files ------------------------------------------------------------

    def create(self, path, mode=0o644, exclusive=True):
        return self._run(self.client.create(path, mode, exclusive))

    def write(self, path, size, mode=0o644, exclusive=True):
        """Create a file and store ``size`` bytes; returns the ino."""
        return self._run(
            self.client.write_file(path, size, mode, exclusive)
        )

    def read(self, path):
        """Read a whole file; returns its size."""
        return self._run(self.client.read_file(path))

    def unlink(self, path):
        self._run(self.client.unlink(path))

    def getattr(self, path):
        return self._run(self.client.getattr(path))

    def exists(self, path):
        return self._run(self.client.exists(path))

    def is_dir(self, path):
        try:
            return self.getattr(path)["is_dir"]
        except RpcFailure as failure:
            if failure.code == RpcError.ENOENT:
                return False
            raise
