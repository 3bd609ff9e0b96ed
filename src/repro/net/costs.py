"""The cluster cost model.

All simulated durations are microseconds.  Defaults approximate the paper's
testbed (Table 2: 100 GbE, NVMe SSD, Xeon cores) at the granularity that
matters for the evaluation's *shapes*: network hops and fsyncs are orders of
magnitude more expensive than in-memory work, and SSD bandwidth caps the
data path.

Experiments never edit these class attributes; they construct a
``CostModel`` (optionally overriding fields) and hand it to the cluster
builders, so ablations and sensitivity sweeps are pure data changes.
"""

from dataclasses import dataclass


@dataclass
class CostModel:
    """Timing and sizing constants for the simulated cluster."""

    # -- network -------------------------------------------------------
    #: One-way message latency between any two machines (switch + kernel).
    rpc_latency_us: float = 8.0
    #: NIC/link bandwidth for payload transfer (100 GbE ~ 12.5 GB/s).
    net_bandwidth_bytes_per_us: float = 12500.0
    #: Wire size of a plain metadata request/response.
    rpc_request_bytes: int = 256
    rpc_response_bytes: int = 256

    # -- server CPU ----------------------------------------------------
    #: CPU cores per metadata server (the paper restricts servers to 4).
    server_cores: int = 4
    #: Per-request server entry overhead: decode, session lookup, and the
    #: hand-off from the connection pool to an execution thread.  FalconFS
    #: pays this once per merged batch; the baselines pay it per request.
    dispatch_us: float = 12.0
    #: Fixed CPU cost of beginning/committing a (local) transaction.
    txn_begin_us: float = 0.5
    txn_commit_us: float = 0.5
    #: Lock-manager costs: the paper's lock coalescing amortizes these.
    lock_acquire_us: float = 0.4
    lock_release_us: float = 0.2
    #: B-link tree operation costs (in-memory index probe / update).
    index_lookup_us: float = 0.8
    index_insert_us: float = 1.2
    index_delete_us: float = 1.0
    #: Per-path-component cost of server-side namespace resolution.
    resolve_component_us: float = 0.3

    # -- write-ahead log -------------------------------------------------
    #: Synchronous flush latency of a WAL append (NVMe write + barrier).
    wal_fsync_us: float = 60.0
    #: Marginal cost per logged byte (memcpy + device transfer).
    wal_us_per_byte: float = 0.002
    #: Log record payload per metadata mutation.
    wal_record_bytes: int = 160
    #: Segment rotation threshold for the durable log.
    wal_segment_bytes: int = 1 << 20
    #: Redo cost per replayed WAL record at restart (read + index apply).
    wal_replay_us_per_record: float = 0.5

    # -- client --------------------------------------------------------
    #: Client-side per-operation overhead (syscall + marshaling).
    client_op_us: float = 2.0
    #: Cost of a client-side cache (dcache/icache) probe.
    cache_probe_us: float = 0.15

    # -- data path -------------------------------------------------------
    #: Per-SSD sequential bandwidth (bytes per microsecond).
    ssd_read_bandwidth_bytes_per_us: float = 3600.0
    ssd_write_bandwidth_bytes_per_us: float = 1400.0
    #: Fixed per-IO cost on the storage node (NVMe submission + interrupt).
    ssd_io_us: float = 10.0
    #: NVMe queue depth: concurrent IOs per device.  Each IO transfers
    #: at a fixed ``1 / ssd_queue_depth`` share of the device bandwidth
    #: however many are in flight, so a lone IO does not get the whole
    #: device (``StorageNode._disk_io``).
    ssd_queue_depth: int = 8
    #: Data is striped in blocks of this size across storage nodes.
    block_size_bytes: int = 1 << 20

    # -- coordinator / replication ----------------------------------------
    #: CPU cost of applying one invalidation at an MNode.
    invalidate_apply_us: float = 0.5
    #: CPU cost per 2PC participant round at the initiating node.
    two_phase_round_us: float = 3.0

    def transfer_us(self, size_bytes):
        """Wire transfer time for ``size_bytes`` on one link."""
        return size_bytes / self.net_bandwidth_bytes_per_us

    def hop_us(self, size_bytes):
        """Total one-way delivery time for a message of ``size_bytes``."""
        return self.rpc_latency_us + self.transfer_us(size_bytes)

    def degraded_hop_us(self, size_bytes, latency_factor):
        """One-way delivery time across a gray-degraded link.

        Both the fixed latency and the serialization term stretch by
        ``latency_factor``: a sagging NIC retransmits and backs off, so
        effective per-byte throughput drops along with base latency.
        ``latency_factor == 1.0`` reproduces :meth:`hop_us` exactly.
        """
        return (self.rpc_latency_us + self.transfer_us(size_bytes)) \
            * latency_factor
