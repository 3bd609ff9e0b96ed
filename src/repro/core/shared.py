"""Cluster-wide configuration and shared context.

Also home of the **epoch-stamped slot map**: hybrid indexing hashes a
directory name to a *slot*, and the slot map says which physical MNode
currently hosts that slot.  Statically the map is the identity
(slot ``i`` lives on node ``i``) and nothing behaves differently from a
fixed ring; online migration reassigns one slot at a time, bumping the
map's epoch, and stale-epoch requests bounce with ``EMOVED`` until the
client refreshes its private copy — the elastic-namespace analogue of
the lazy exception-table refresh.
"""

from dataclasses import dataclass

from repro.core.records import InodeAllocator
from repro.net.costs import CostModel
from repro.obs.tracer import NULL_TRACER
from repro.sim.rng import RandomStreams


class SlotMap:
    """Versioned slot -> MNode-index assignment.

    The authoritative copy lives on :class:`ClusterShared` and is only
    mutated by the coordinator (the epoch authority); clients hold
    private copies that go stale and are patched lazily from ``EMOVED``
    bounces.  Every reassignment bumps ``epoch`` by one, so "my epoch is
    older than the slot's move" is decidable from the integer alone.
    """

    __slots__ = ("owners", "epoch", "versions")

    def __init__(self, owners, epoch=0, versions=None):
        #: ``owners[slot]`` is the physical node index hosting ``slot``.
        self.owners = list(owners)
        self.epoch = epoch
        #: ``versions[slot]`` is the epoch at which ``slot`` last moved
        #: (0 = the seed assignment).  Patches are judged per slot: a
        #: client that absorbed a high-epoch hint for one slot must
        #: still accept an older hint about a *different* slot it has
        #: never heard about.
        self.versions = (list(versions) if versions is not None
                         else [0] * len(self.owners))

    @property
    def num_slots(self):
        return len(self.owners)

    def node_of(self, slot):
        return self.owners[slot]

    def slots_of(self, node_index):
        """Every slot currently hosted by physical node ``node_index``."""
        return [slot for slot, owner in enumerate(self.owners)
                if owner == node_index]

    def assign(self, slot, node_index):
        """Reassign ``slot`` to ``node_index`` and bump the epoch."""
        self.owners[slot] = node_index
        self.epoch += 1
        self.versions[slot] = self.epoch
        return self.epoch

    def version_of(self, slot):
        """Epoch at which ``slot`` last changed owner (0 = seed)."""
        return self.versions[slot]

    def copy(self):
        return SlotMap(self.owners, self.epoch, self.versions)

    def patch(self, slot, node_index, epoch):
        """Apply one EMOVED hint: adopt the single reassignment when the
        advertised epoch is ahead of what we know *about that slot* (a
        newer hint for the same slot supersedes)."""
        if epoch > self.versions[slot]:
            self.owners[slot] = node_index
            self.versions[slot] = epoch
            if epoch > self.epoch:
                self.epoch = epoch
            return True
        return False

    def __repr__(self):
        return "SlotMap(epoch={}, owners={})".format(self.epoch,
                                                     self.owners)


@dataclass
class FalconConfig:
    """Deployment and feature configuration for a FalconFS cluster."""

    num_mnodes: int = 4
    num_storage: int = 4
    #: Cores per metadata server (the paper restricts servers to 4).
    server_cores: int = 4
    #: Concurrent request merging (§4.4); False = the *no merge* ablation.
    merging: bool = True
    max_batch: int = 32
    #: Accumulation window for batch formation (microseconds).
    merge_linger_us: float = 4.0
    #: Replicate mkdir eagerly with 2PC instead of lazily (§4.3); True =
    #: the *no inv* ablation of Fig 15a.
    eager_replication: bool = False
    #: Load-balance bound: no node may exceed (1/n + epsilon) of inodes.
    epsilon: float = 0.02
    #: Retry backoff jitter fraction in [0, 1] (0 = off; the schedule
    #: itself is fixed in :mod:`repro.obs.retry`).  Each retry delay is
    #: spread over ``[delay * (1 - jitter), delay]`` with the client's
    #: seeded RNG, so a mass invalidation (cache stampede) or failover
    #: does not meet perfectly synchronized retry storms.  Off by
    #: default: golden traces stay bit-identical.
    retry_jitter: float = 0.0
    #: Absolute per-operation deadline, microseconds (0 = no deadline).
    #: Enforced at every hop by ``deadline_call`` (reply raced against a timer).
    op_deadline_us: float = 0.0
    #: Per-RPC-attempt timeout, microseconds (0 = no per-attempt bound).
    #: Required when faults are injected: a black-holed RPC to a crashed
    #: node otherwise waits forever, and timeouts are what turn a crash
    #: into a retry against the promoted replacement.
    rpc_timeout_us: float = 0.0
    #: Asynchronous log-shipping replication to per-MNode standbys (the
    #: evaluation runs with this disabled, like the paper's).
    replication: bool = False
    #: Quorum-replicated metadata tier (implies ``replication``): each
    #: directory slot becomes a consensus group — leader (the MNode),
    #: one data-holding voter (the standby) and one vote-only witness.
    #: Commits acknowledge only after a majority has durably appended,
    #: leadership moves by election instead of coordinator ordination,
    #: and the serve path is fenced by leader leases (timings are fixed
    #: in :mod:`repro.storage.consensus`).
    consensus: bool = False
    #: Directory slots in the hybrid index (0 = one per MNode, the
    #: static layout).  More slots than nodes gives migration something
    #: to move: each slot is the unit of online handoff and nodes host
    #: several.
    num_slots: int = 0
    seed: int = 0

    def __post_init__(self):
        # A quorum group *is* a replicated slot (its data-holding voter).
        self.replication = self.replication or self.consensus


class ClusterShared:
    """Identity and service directory shared by every node in a cluster."""

    def __init__(self, env, costs, config, tracer=None):
        self.env = env
        self.costs = costs if costs is not None else CostModel()
        self.config = config
        #: Cluster-wide tracer; the null tracer allocates no spans.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.streams = RandomStreams(config.seed)
        self.allocator = InodeAllocator()
        self.mnode_names = [
            "mnode-{}".format(i) for i in range(config.num_mnodes)
        ]
        #: Slot count for hybrid indexing; defaults to one per MNode so
        #: the identity slot map reproduces the static ring exactly.
        self.num_slots = config.num_slots or config.num_mnodes
        #: Authoritative slot -> node assignment (coordinator-mutated).
        #: Identity when slots == nodes; round-robin wrap when the
        #: elastic config hashes over more slots than nodes.
        self.slot_map = SlotMap(
            i % config.num_mnodes for i in range(self.num_slots)
        )
        self.storage_names = [
            "osd-{}".format(i) for i in range(config.num_storage)
        ]
        self.coordinator_name = "coordinator"

    def mnode_name(self, slot):
        """Name of the MNode currently hosting directory slot ``slot``,
        per the authoritative slot map.  Server-side resolution only —
        clients consult their own (possibly stale) map copies."""
        return self.mnode_names[self.slot_map.node_of(slot)]

    def node_name(self, node_index):
        """Name of physical node ``node_index`` (slot-map independent)."""
        return self.mnode_names[node_index]

    def storage_for(self, ino, block_index):
        """Data placement: hash of (file id, block offset) — §4.1."""
        from repro.core.indexing import stable_hash

        idx = stable_hash((ino, block_index)) % len(self.storage_names)
        return self.storage_names[idx]
