"""The FalconFS file store: hash-placed block storage (§4.1).

File data is striped in fixed-size blocks; block ``i`` of file ``ino``
lives on the storage node selected by hashing ``(ino, i)``.  Each storage
node models one NVMe SSD: a serialized device channel with a fixed per-IO
cost plus size-over-bandwidth transfer time, which is what caps the data
path of Fig 12 once files grow past the metadata-IOPS-bound regime.

The same storage nodes back the baseline file systems, so data-path
differences across systems come from their metadata paths only.
"""

from repro.core.indexing import stable_hash
from repro.net import Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import CAT_DISK, CAT_PHASE, NULL_CONTEXT


class DataIntegrityError(RpcFailure):
    """A read returned a block whose checksum does not match."""

    def __init__(self, detail):
        super().__init__(RpcError.EINVAL, detail)


def block_checksum(ino, index):
    """Deterministic content checksum for block ``index`` of ``ino``.

    The simulator carries no payload bytes, so the checksum commits to
    the block's *identity*: verification catches any routing or
    bookkeeping error that hands a reader the wrong block (wrong inode,
    wrong offset, stale placement).
    """
    return stable_hash(("blk", ino, index))


class StorageNode(Node):
    """One data server with one simulated NVMe SSD."""

    def __init__(self, env, network, name):
        super().__init__(env, network, name, cores=network.costs.server_cores)
        self.disk = env.resource(capacity=network.costs.ssd_queue_depth)
        #: Small (journal-sized) writes go through their own NVMe queue
        #: and do not wait behind multi-megabyte data transfers.
        self.small_io = env.resource(capacity=2)
        #: (ino, block) -> stored checksum, for end-to-end verification.
        self.block_sums = {}
        self.bytes_read = 0
        self.bytes_written = 0

    def handle(self, message):
        if message.kind == "read_block":
            yield from self._read(message)
        elif message.kind == "write_block":
            yield from self._write(message)
        else:
            raise RuntimeError(
                "{} cannot handle {!r}".format(self.name, message)
            )

    def _read(self, message):
        payload = message.payload
        size = payload["size"]
        yield from self._disk_io(
            size, self.costs.ssd_read_bandwidth_bytes_per_us,
            ctx=message.ctx, label="disk.read",
        )
        self.bytes_read += size
        self.metrics.counter("blocks").inc("read")
        stored = self.block_sums.get((payload["ino"], payload["block"]))
        # The response carries the data, so its wire size is the payload.
        self.respond(message, {"size": size, "checksum": stored},
                     size=size + self.costs.rpc_response_bytes)

    def _write(self, message):
        payload = message.payload
        size = payload["size"]
        if "checksum" in payload:
            self.block_sums[(payload["ino"], payload["block"])] = \
                payload["checksum"]
        ctx = message.ctx or NULL_CONTEXT
        if size <= 4096:
            request = self.small_io.request()
            yield request
            try:
                with ctx.span("disk.write", CAT_DISK, node=self.name,
                              attrs={"bytes": size}
                              if ctx.traced else None):
                    yield self.env.timeout(self.costs.ssd_io_us)
            finally:
                self.small_io.release(request)
        else:
            yield from self._disk_io(
                size, self.costs.ssd_write_bandwidth_bytes_per_us,
                ctx=message.ctx, label="disk.write",
            )
        self.bytes_written += size
        self.metrics.counter("blocks").inc("write")
        self.respond(message, {"size": size})

    def _disk_io(self, size, bandwidth, ctx=None, label="disk.io"):
        """One device IO: one of the device's ``ssd_queue_depth`` slots,
        held for the fixed submission cost plus the transfer at
        ``bandwidth / ssd_queue_depth`` — a fixed per-slot share, the
        same for a lone IO as under a full queue."""
        ctx = ctx or NULL_CONTEXT
        request = self.disk.request()
        yield request
        try:
            effective = bandwidth / self.costs.ssd_queue_depth
            with ctx.span(label, CAT_DISK, node=self.name,
                          attrs={"bytes": size}
                          if ctx.traced else None):
                yield self.env.timeout(
                    self.costs.ssd_io_us + size / effective
                )
        finally:
            self.disk.release(request)


class BlockClient:
    """Client-side data path: parallel block transfer helpers.

    Used by every simulated file system's client (FalconFS and baselines)
    once the metadata path has produced a file id and size.
    """

    def __init__(self, node, shared):
        self.node = node
        self.shared = shared

    def _blocks(self, size):
        block = self.node.costs.block_size_bytes
        offset = 0
        index = 0
        while offset < size or index == 0:
            yield index, min(block, max(0, size - offset))
            offset += block
            index += 1

    def read(self, ino, size, verify=True, ctx=None):
        """Generator: fetch all blocks of a file in parallel.

        With ``verify`` (default), every returned block's checksum is
        compared against the expected identity checksum; a mismatch or a
        block served for data this client wrote under a different
        identity raises :class:`DataIntegrityError`.  Blocks that were
        never written through the protocol (bulk-loaded files) carry no
        stored checksum and are skipped.
        """
        ctx = ctx or NULL_CONTEXT
        with ctx.span("data.read", CAT_PHASE, node=self.node.name,
                      attrs={"bytes": size} if ctx.traced else None):
            calls = []
            expected = []
            for index, chunk in self._blocks(size):
                target = self.shared.storage_for(ino, index)
                expected.append((index, block_checksum(ino, index)))
                calls.append(self.node.call(
                    target, "read_block",
                    {"ino": ino, "block": index, "size": chunk},
                    ctx=ctx if ctx is not NULL_CONTEXT else None,
                ))
            replies = yield self.node.env.all_of(calls)
        if verify:
            for reply, (index, want) in zip(replies, expected):
                stored = reply.get("checksum")
                if stored is not None and stored != want:
                    raise DataIntegrityError(
                        "ino {} block {}: checksum mismatch".format(
                            ino, index)
                    )
        return size

    def write(self, ino, size, ctx=None):
        """Generator: store all blocks of a file in parallel."""
        ctx = ctx or NULL_CONTEXT
        with ctx.span("data.write", CAT_PHASE, node=self.node.name,
                      attrs={"bytes": size} if ctx.traced else None):
            calls = []
            for index, chunk in self._blocks(size):
                target = self.shared.storage_for(ino, index)
                calls.append(self.node.call(
                    target, "write_block",
                    {"ino": ino, "block": index, "size": chunk,
                     "checksum": block_checksum(ino, index)},
                    size=chunk + self.node.costs.rpc_request_bytes,
                    ctx=ctx if ctx is not NULL_CONTEXT else None,
                ))
            yield self.node.env.all_of(calls)
        return size
