"""Real TCP fabric for the asyncio serving mode.

:class:`AioNetwork` extends the in-memory :class:`~repro.net.transport.
Network` with remote delivery: nodes registered in *this* process are
reached through the parent's local path (next scheduler tick — modeled
hop latency is a simulation concern), while names listed in the peer map
go over persistent TCP connections carrying the length-prefixed JSON
frames of :mod:`repro.runtime.wire`.

The RPC surface is unchanged: protocol code still calls ``node.call`` /
``node.respond`` against event-shaped reply handles.  For an outbound
remote call the local reply event is settled when the matching reply
frame arrives; for an inbound request the reconstructed message carries
a :class:`_RemoteReply` shim whose ``settle`` writes the reply frame
back on the originating connection — at once, from
:meth:`AioNetwork.send_response`, with no zero-delay hop timer in front
of it.  A read hands its frames up inside one pump turn
(:meth:`~repro.runtime.aio.AsyncioEnv.turn`), so a request is answered,
and a reply's caller runs on, before the loop polls again.

Deadlines cross the clock boundary as *remaining* microseconds and are
re-anchored on the receiver's monotonic clock (absolute timestamps from
another machine are meaningless).  The simulator's fault machinery
(``set_down``, partitions) stays sim-only: a vanished peer here is a
really-vanished TCP connection, and the deadline/retry machinery — the
same code that survives simulated black holes — handles it.
"""

import asyncio
from functools import partial
from itertools import count

from repro.net.message import Message
from repro.net.rpc import RpcFailure
from repro.net.transport import Network
from repro.obs.context import OpContext
from repro.runtime import wire

_LEN = wire.FRAME_HEADER
_HEADER = _LEN.size

#: A connection's read buffer: the socket reads into it directly, and
#: it grows only while one frame's head fills it.
READ_SIZE = 64 * 1024


class _RemoteReply:
    """Reply handle for a request that arrived over a socket.

    Quacks like the one method of the event API that ``Node.respond`` /
    ``respond_error`` touch: ``settle`` serializes the outcome onto the
    originating connection, and a second outcome is dropped, like on
    any settled handle.  One-way messages (``rid is None``) get no shim
    at all (``reply_to=None``): ``respond`` checks for that first.
    """

    __slots__ = ("_conn", "_rid", "_done")

    def __init__(self, conn, rid):
        self._conn = conn
        self._rid = rid
        self._done = False

    def settle(self, ok, value):
        if self._done:
            return
        self._done = True
        if ok:
            frame = wire.encode_reply(self._rid, value)
        else:
            if not isinstance(value, RpcFailure):
                value = RpcFailure(5, repr(value))  # EIO
            frame = wire.encode_reply_error(self._rid, value)
        self._conn.write_frame(frame)


class _Connection(asyncio.BufferedProtocol):
    """One live peer connection (either direction).

    Frames are cut where the bytes land: the socket reads straight into
    this connection's buffer, and ``buffer_updated`` hands every frame
    the read completed to the network before it returns.  The head of a
    torn frame stays at the buffer's front for the next read.
    """

    __slots__ = ("network", "peer", "transport", "closed", "_buffer",
                 "_view", "_start", "_end")

    def __init__(self, network, peer=None):
        self.network = network
        #: The dialed peer's name; ``None`` for an inbound connection.
        self.peer = peer
        self.transport = None
        self.closed = False
        #: Bytes ``[_start, _end)`` of the buffer are read and not yet
        #: cut; the socket reads into the free tail behind ``_end``.
        self._reset(bytearray(READ_SIZE))

    def _reset(self, buffer):
        self._buffer = buffer
        self._view = memoryview(buffer)
        self._start = self._end = 0

    def connection_made(self, transport):
        self.transport = transport
        if self.peer is None:
            self.network._inbound.add(self)

    def get_buffer(self, sizehint):
        return self._view[self._end:]

    def buffer_updated(self, nbytes):
        self._end += nbytes
        self.network.env.turn(self._cut)

    def _cut(self):
        """Hand up every complete frame in the buffer, then keep the
        head of a torn one at its front."""
        buffer = self._buffer
        start = self._start
        end = self._end
        try:
            while end - start >= _HEADER:
                (length,) = _LEN.unpack_from(buffer, start)
                if length > wire.MAX_FRAME:
                    raise wire.WireError(
                        "oversized frame: {} bytes".format(length))
                stop = start + _HEADER + length
                if stop > end:
                    break
                doc = wire.open_frame(self._view[start + _HEADER:stop])
                start = self._start = stop
                self.network._on_frame(self, doc)
                if self.closed:
                    return
        except wire.WireError:
            # A corrupt or hostile peer: nothing after a bad frame can
            # be trusted to sit on a frame boundary, so hang up on it.
            self.network._dropped.inc("malformed")
            self.close()
            return
        if start == end:
            if len(buffer) > READ_SIZE:
                self._reset(bytearray(READ_SIZE))
            else:
                self._start = self._end = 0
            return
        kept = end - start
        if start:
            buffer[:kept] = buffer[start:end]
        if kept == len(buffer):
            # Full of one frame's head: double, never past the frame
            # (the header is in, or the buffer could not be full).
            need = _HEADER + _LEN.unpack_from(buffer, 0)[0]
            grown = bytearray(min(2 * kept, need))
            grown[:kept] = buffer
            self._reset(grown)
        self._start, self._end = 0, kept

    def eof_received(self):
        # A frame torn at EOF is a plain close, like a clean one: the
        # peer retries or gives up at the RPC layer, not here.
        self.close()

    def connection_lost(self, exc):
        self.close()

    def write_frame(self, doc):
        if not self.closed:
            self.transport.write(wire.pack_frame(doc))

    def close(self):
        if self.closed:
            return
        self.closed = True
        self.transport.close()
        self.network._on_close(self)


class AioNetwork(Network):
    """TCP-backed fabric: local nodes in-process, peers over sockets."""

    def __init__(self, env, costs, peers=None):
        super().__init__(env, costs)
        #: name -> (host, port) for every remote endpoint.
        self.peers = dict(peers or {})
        self._rids = count(1)
        #: rid -> (peer, reply handle) for outbound calls owed a reply.
        #: An entry leaves when the reply arrives, when the caller gives
        #: up on it, or when the connection to the peer closes.
        self._pending = {}
        #: peer name -> established _Connection.
        self._conns = {}
        #: peer name -> list of frames queued while dialing.
        self._dialing = {}
        #: Accepted connections (anonymous: replies ride the connection
        #: their request came in on), held so ``close`` can hang up on
        #: them.
        self._inbound = set()
        self._server = None

    # -- lifecycle -------------------------------------------------------

    async def start(self, host, port):
        """Listen for inbound peer connections."""
        self._server = await self.env._loop.create_server(
            partial(_Connection, self), host, port
        )

    async def close(self):
        for conn in list(self._conns.values()) + list(self._inbound):
            conn.close()
        self._conns.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- sending ---------------------------------------------------------

    def send(self, message):
        if message.recipient in self._nodes:
            super().send(message)
            return
        if message.recipient not in self.peers:
            raise RpcFailure(
                5, "unknown endpoint: {}".format(message.recipient)
            )
        self._messages.inc(message.kind)
        self._bytes.inc(message.kind, message.size)
        rid = None
        reply = message.reply_to
        if reply is not None:
            rid = next(self._rids)
            self._pending[rid] = (message.recipient, reply)
            if not isinstance(reply, _RemoteReply):
                # A local caller that gives up (``deadline_call`` settles
                # the handle itself at the deadline) frees the slot.  A
                # forwarded shim has no local caller to give up.
                reply.callbacks.append(partial(self._forget, rid))
        remaining = None
        ctx = message.ctx
        if ctx is not None and ctx.deadline is not None:
            remaining = ctx.deadline - self.env.now_us()
        self._transmit(message.recipient,
                       wire.encode_request(rid, message, remaining))

    def _transmit(self, peer, doc):
        conn = self._conns.get(peer)
        if conn is not None and not conn.closed:
            conn.write_frame(doc)
            return
        queue = self._dialing.get(peer)
        if queue is not None:
            queue.append(doc)
            return
        self._dialing[peer] = [doc]
        self.env._loop.create_task(self._dial(peer))

    async def _dial(self, peer):
        host, port = self.peers[peer]
        try:
            _, conn = await self.env._loop.create_connection(
                partial(_Connection, self, peer), host, port)
        except (ConnectionError, OSError):
            # The peer is unreachable: drop the queued frames.  Callers'
            # per-attempt timeouts turn the silence into ETIMEDOUT and
            # retries — exactly the simulated black-hole discipline.
            for doc in self._dialing.pop(peer, []):
                self._dropped.inc(doc.get("kind"))
            self._abandon(peer)
            return
        self._conns[peer] = conn
        for doc in self._dialing.pop(peer, []):
            conn.write_frame(doc)

    def send_response(self, responder, message, size, deliver):
        """A reply to a caller in another process goes out now: the
        shim's ``settle`` writes the frame in the responder's own turn,
        with no zero-delay hop timer in front of it."""
        if not isinstance(message.reply_to, _RemoteReply):
            super().send_response(responder, message, size, deliver)
            return
        self._responses.inc(message.kind)
        self._response_bytes.inc(message.kind, size)
        deliver()

    def _forget(self, rid, _reply):
        self._pending.pop(rid, None)

    def _abandon(self, peer):
        """Forget every call ``peer`` owes a reply: it cannot arrive.
        The callers' deadlines turn the silence into ETIMEDOUT."""
        for rid in [rid for rid, (owed_by, _) in self._pending.items()
                    if owed_by == peer]:
            del self._pending[rid]

    def _on_close(self, conn):
        self._inbound.discard(conn)
        if conn.peer is not None and self._conns.get(conn.peer) is conn:
            del self._conns[conn.peer]
            self._abandon(conn.peer)

    # -- receiving -------------------------------------------------------

    def _on_frame(self, conn, doc):
        if doc["t"] == "req":
            self._on_request(conn, doc)
            return
        _, reply = self._pending.pop(doc["id"], (None, None))
        if reply is None:
            return
        if doc["ok"]:
            reply.settle(True, doc["value"])
        else:
            reply.settle(False, RpcFailure(doc["code"], doc.get("detail")))

    def _on_request(self, conn, doc):
        recipient = doc["to"]
        node = self._nodes.get(recipient)
        if node is None:
            if doc["id"] is not None:
                conn.write_frame(wire.encode_reply_error(
                    doc["id"],
                    RpcFailure(5, "not served here: {}".format(recipient)),
                ))
            return
        ctx = None
        ctx_doc = doc.get("ctx")
        if ctx_doc is not None:
            deadline = None
            remaining = ctx_doc.get("remaining_us")
            if remaining is not None:
                deadline = self.env.now_us() + remaining
            ctx = OpContext(self.env, ctx_doc["op"],
                            origin=ctx_doc.get("origin"),
                            deadline=deadline)
            ctx.attempt = ctx_doc.get("attempt", 0)
        reply_to = None
        if doc["id"] is not None:
            reply_to = _RemoteReply(conn, doc["id"])
        message = Message(
            doc["from"], recipient, doc["kind"],
            payload=doc["payload"],
            size=doc.get("size") or self.costs.rpc_request_bytes,
            reply_to=reply_to, ctx=ctx,
        )
        message.arrive_time = self.env.now
        node.deliver(message)
