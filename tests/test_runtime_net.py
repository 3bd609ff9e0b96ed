"""Robustness of the TCP fabric (``repro.runtime.net``) and of the
real-time driver under it: bounded reply bookkeeping, hostile frames,
inert cancelled timers, and the pump that runs the DES kernel on the
asyncio loop."""

import asyncio
import functools
import socket
import struct

import pytest

from repro import sim
from repro.core.mnode import MNode
from repro.core.records import InodeRecord
from repro.core.shared import ClusterShared, FalconConfig
from repro.net.costs import CostModel
from repro.net.message import Message
from repro.net.node import Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import OpContext
from repro.obs.retry import deadline_call
from repro.runtime import AsyncioEnv, aio, wire
from repro.runtime.net import READ_SIZE, AioNetwork, _Connection

TIMEOUT_S = 20.0


class _Echo(Node):
    def handle(self, message):
        self.respond(message, message.payload)
        return
        yield


class _Mute(Node):
    """Receives every request and never answers it."""

    def handle(self, message):
        return
        yield


async def _serving(env, node_class):
    network = AioNetwork(env, CostModel())
    node_class(env, network, "server")
    await network.start("127.0.0.1", 0)
    return network, network._server.sockets[0].getsockname()[1]


def _run(main):
    return asyncio.run(asyncio.wait_for(main(), TIMEOUT_S))


def test_pending_is_empty_after_timed_out_calls():
    """A reply slot is freed when its caller gives up on it: N calls to
    a peer that never answers must not leave N entries behind."""
    async def main():
        env = AsyncioEnv()
        served, port = await _serving(env, _Mute)
        calling = AioNetwork(env, CostModel(), {"server": ("127.0.0.1", port)})
        caller = _Echo(env, calling, "caller")
        outcomes = []

        def calls(count):
            for _ in range(count):
                try:
                    yield from deadline_call(
                        caller, OpContext(env, "probe"), "server", "echo",
                        timeout_us=20_000.0)
                except RpcFailure as failure:
                    outcomes.append(failure.code)

        try:
            await env.run_process(calls(5))
            return outcomes, dict(calling._pending), env.unhandled
        finally:
            await calling.close()
            await served.close()

    outcomes, pending, unhandled = _run(main)
    assert outcomes == [RpcError.ETIMEDOUT] * 5
    assert pending == {} and unhandled == []


def test_pending_is_dropped_when_the_connection_closes():
    """A call with no deadline whose connection closes can never be
    answered on it: its slot goes when the connection does."""
    async def main():
        env = AsyncioEnv()
        served, port = await _serving(env, _Mute)
        calling = AioNetwork(env, CostModel(), {"server": ("127.0.0.1", port)})
        caller = _Echo(env, calling, "caller")
        try:
            reply = caller.call("server", "echo", {"n": 1})
            while "server" not in calling._conns:
                await asyncio.sleep(0.01)
            before = dict(calling._pending)
            calling._conns["server"].close()
            return before, dict(calling._pending), reply.triggered
        finally:
            await calling.close()
            await served.close()

    before, after, triggered = _run(main)
    assert len(before) == 1 and after == {} and not triggered


def test_close_hangs_up_on_inbound_connections():
    """The serving side owns the connections it accepted: one the peer
    closes is forgotten, and ``close`` ends the rest — the transport is
    closing and the peer reads EOF."""
    async def main():
        env = AsyncioEnv()
        served, port = await _serving(env, _Echo)

        async def inbound(count):
            while len(served._inbound) != count:
                await asyncio.sleep(0.01)

        try:
            _, leaving = await asyncio.open_connection("127.0.0.1", port)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await inbound(2)
            leaving.close()
            await inbound(1)
            (conn,) = served._inbound
            await served.close()
            eof = await reader.read()
            writer.close()
            return eof, conn.transport.is_closing(), set(served._inbound)
        finally:
            await served.close()

    assert _run(main) == (b"", True, set())


def _on_a_loop(test):
    """Run a synchronous test body inside a running event loop (an
    ``AsyncioEnv`` is built inside one)."""
    @functools.wraps(test)
    def run():
        async def main():
            test()
        _run(main)
    return run


class _Recorder(AioNetwork):
    """Records what the connection hands up instead of acting on it."""

    def __init__(self):
        super().__init__(AsyncioEnv(), CostModel())
        self.frames = []

    def _on_frame(self, conn, doc):
        self.frames.append(doc)


class _Transport:
    """Stands in for the socket: keeps what is written to it."""

    def __init__(self):
        self.closed = False
        self.written = b""

    def write(self, data):
        self.written += data

    def close(self):
        self.closed = True


def _connection(network=None, peer="peer"):
    network = network or _Recorder()
    conn = _Connection(network, peer=peer)
    conn.connection_made(_Transport())
    return network, conn


def _feed(conn, chunk):
    """What the transport does with ``chunk``: read it into the buffer
    the connection offers, as many times as the buffer needs."""
    while chunk and not conn.closed:
        buffer = conn.get_buffer(-1)
        assert len(buffer) >= 1
        taken = chunk[:len(buffer)]
        buffer[:len(taken)] = taken
        conn.buffer_updated(len(taken))
        chunk = chunk[len(taken):]


def _reply_frame(rid, value):
    return wire.pack_frame(wire.encode_reply(rid, value))


@_on_a_loop
def test_a_frame_split_at_every_byte_is_cut_once_whole():
    """However the stream is chunked, each frame reaches the network
    exactly once, decoded, and only when its last byte is in."""
    value = {"key": (1, "f"), "row": InodeRecord(ino=7, size=3)}
    frame = _reply_frame(1, value)
    for cut in range(1, len(frame)):
        network, conn = _connection()
        _feed(conn, frame[:cut])
        assert network.frames == []
        _feed(conn, frame[cut:])
        assert [doc["value"] for doc in network.frames] == [value], cut
        assert not conn.closed and conn._start == conn._end == 0


@_on_a_loop
def test_two_frames_in_one_chunk_are_both_handed_up_in_order():
    first, second = _reply_frame(1, {"n": 1}), _reply_frame(2, {"n": 2})
    network, conn = _connection()
    _feed(conn, first + second + second[:5])
    assert [doc["id"] for doc in network.frames] == [1, 2]
    _feed(conn, second[5:])
    assert [doc["id"] for doc in network.frames] == [1, 2, 2]
    assert not conn.closed


@_on_a_loop
def test_a_frame_larger_than_the_read_buffer_grows_it_then_gives_it_back():
    value = {"blob": "x" * (3 * READ_SIZE)}
    frame = _reply_frame(5, value)
    network, conn = _connection()
    for index in range(0, len(frame), 1000):
        _feed(conn, frame[index:index + 1000])
    assert [doc["value"] for doc in network.frames] == [value]
    assert len(conn._buffer) == READ_SIZE


@_on_a_loop
def test_a_bad_frame_after_a_good_one_in_one_chunk_hangs_up():
    """The good frame ahead of it is delivered; nothing after it is."""
    good = _reply_frame(1, {"n": 1})
    network, conn = _connection()
    _feed(conn, good + HOSTILE["not-json"] + good)
    assert [doc["id"] for doc in network.frames] == [1]
    assert conn.closed and conn.transport.closed
    assert network.metrics.counter("dropped").get("malformed") == 1


@_on_a_loop
def test_a_request_is_answered_before_its_read_returns():
    """The read that completes a request frame runs the handler and
    writes the reply in its own callback, and leaves no pump turn queued
    behind the wake-ups it drained."""
    network = AioNetwork(AsyncioEnv(), CostModel())
    _Echo(network.env, network, "server")
    _, conn = _connection(network, peer=None)
    request = Message("caller", "server", "echo", {"n": 7},
                      reply_to=network.env.event())
    _feed(conn, wire.pack_frame(wire.encode_request(9, request)))
    reply = conn.transport.written
    assert wire.open_frame(reply[wire.FRAME_HEADER.size:]) == {
        "t": "rep", "id": 9, "ok": True, "value": {"n": 7}}
    assert network.env._wake is None
    assert network.response_count("echo") == 1


def _frame(body):
    return struct.pack(">I", len(body)) + body


HOSTILE = {
    "truncated": _frame(b'{"t": "req", "id": 1')[:-6],
    "oversized": struct.pack(">I", wire.MAX_FRAME + 1) + b"x" * 64,
    "not-json": _frame(b"\xff\xfe not json at all"),
    "not-an-envelope": _frame(b'[1, 2, 3]'),
    "missing-fields": _frame(b'{"t": "req", "id": 7}'),
    "bad-payload-tag": _frame(
        b'{"t": "req", "id": 7, "from": "x", "to": "server", '
        b'"kind": "echo", "payload": {"__w": "zz", "v": 1}}'),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_frame_closes_only_its_connection(name):
    """No frame crashes a node or wedges a connection: the offending
    socket is hung up on, and a second, healthy connection to the same
    node keeps being served."""
    async def main():
        env = AsyncioEnv()
        served, port = await _serving(env, _Echo)
        calling = AioNetwork(env, CostModel(), {"server": ("127.0.0.1", port)})
        caller = _Echo(env, calling, "caller")

        def call(value):
            reply = yield caller.call("server", "echo", {"n": value})
            return reply

        try:
            assert await env.run_process(call(1)) == {"n": 1}
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(HOSTILE[name])
            await writer.drain()
            if name == "truncated":
                writer.write_eof()
            # The server hangs up: EOF on our side, not a stalled read.
            assert await reader.read() == b""
            writer.close()
            assert await env.run_process(call(2)) == {"n": 2}
            return env.unhandled, served.metrics.counter("dropped").get("malformed")
        finally:
            await calling.close()
            await served.close()

    unhandled, malformed = _run(main)
    assert unhandled == []
    # A torn frame is an EOF, not a protocol violation.
    assert malformed == (0 if name == "truncated" else 1)


def test_cancelled_timer_never_fires():
    """A cancelled timer's heap entry pops inert when it comes due, as
    in the simulator: its callback never runs, nothing is unhandled,
    and the heap is empty afterwards."""
    async def main():
        env = AsyncioEnv()
        fired = []
        env.timer(50_000.0, fired.append).cancel()
        kept = env.timer(60_000.0, fired.append)
        await asyncio.sleep(0.1)
        return fired == [kept], env.unhandled, list(env._queue)

    assert _run(main) == (True, [], [])


def test_deadline_call_on_time_leaves_no_timer_behind():
    """A met deadline leaves no reply slot and nothing unhandled, and
    its disarmed timer is gone from the heap once the deadline passes."""
    async def main():
        env = AsyncioEnv()
        served, port = await _serving(env, _Echo)
        calling = AioNetwork(env, CostModel(), {"server": ("127.0.0.1", port)})
        caller = _Echo(env, calling, "caller")
        try:
            reply = await env.run_process(deadline_call(
                caller, OpContext(env, "probe"), "server", "echo", {"n": 3},
                timeout_us=150_000.0))
            pending = dict(calling._pending)
            await asyncio.sleep(0.2)
            return reply, pending, env.unhandled, list(env._queue)
        finally:
            await calling.close()
            await served.close()

    assert _run(main) == ({"n": 3}, {}, [], [])


# ----------------------------------------------------------------------
# the real-time pump: AsyncioEnv drives the DES kernel, it is not a copy
# ----------------------------------------------------------------------

def test_primitives_are_the_kernels_own():
    async def main():
        env = AsyncioEnv()

        def body():
            return
            yield

        made = [env.event(), env.timeout(0), env.process(body()),
                env.resource(), env.store(), env.all_of([]),
                env.any_of([env.event()])]
        return [type(obj) for obj in made]

    assert _run(main) == [sim.Event, sim.Timeout, sim.Process, sim.Resource,
                          sim.Store, sim.AllOf, sim.AnyOf]


def test_deadline_set_after_an_idle_gap_does_not_fire_early():
    """The clock is read at push time, never cached from the last pump
    turn: a timer armed after 50 ms of silence still waits out its full
    delay."""
    async def main():
        env = AsyncioEnv()
        await asyncio.sleep(0.05)
        armed_at = env.now_us()
        fired_at = []
        env.timer(30_000.0, lambda _timer: fired_at.append(env.now_us()))
        await asyncio.sleep(0.1)
        return fired_at[0] - armed_at

    assert _run(main) >= 30_000.0


class _CountingEnv(AsyncioEnv):
    turns = 0

    def _pump(self):
        self.turns += 1
        super()._pump()


def test_a_wake_up_chain_runs_in_one_turn():
    """Two processes handing an item back and forth 100 times: every
    hand-off is a push the same turn drains, so the chain costs one
    pump turn, and none is left queued behind it."""
    async def main():
        env = _CountingEnv()
        ping, pong = env.store(), env.store()

        def server():
            for _ in range(100):
                yield ping.get()
                pong.put(None)

        def caller():
            for _ in range(100):
                ping.put(None)
                yield pong.get()

        env.process(server())
        done = env.process(caller())
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return done.processed, env.turns, env._wake, list(env._queue)

    assert _run(main) == (True, 1, None, [])


def test_a_head_due_within_the_poll_horizon_is_polled_not_alarmed():
    """The selector sleeps in whole milliseconds: a head due in 30 µs
    is polled for on the next loop iteration, while one due in 10 ms
    gets an alarm."""
    async def main():
        env = AsyncioEnv()
        fired = []
        env.turn(env.timer, 30.0, fired.append)
        near = env._alarm
        while not fired:
            await asyncio.sleep(0)
        env.turn(env.timer, 10_000.0, fired.append)
        far = env._alarm
        return near, far is not None

    assert _run(main) == (None, True)


def test_zero_backoff_retry_does_not_starve_a_socket_read():
    """The ``cooperative`` yield is settled by asyncio on its next loop
    iteration, after that iteration's socket reads.  Were it a heap
    entry, the pump — which drains what its turn pushes — would spin
    this retry loop to exhaustion inside one turn and never let the
    loop read the socket."""
    async def main():
        env = AsyncioEnv()
        ours, theirs = socket.socketpair()
        answered = []
        loop = asyncio.get_running_loop()
        loop.add_reader(theirs, lambda: answered.append(theirs.recv(1)))

        def retry():
            for spins in range(10_000):
                if answered:
                    return spins
                yield env.sleep(0)          # the ``cooperative`` backoff
            return None

        try:
            ours.send(b"!")
            return await env.run_process(retry()), answered, env.unhandled
        finally:
            loop.remove_reader(theirs)
            ours.close()
            theirs.close()

    spins, answered, unhandled = _run(main)
    assert answered == [b"!"] and unhandled == []
    assert spins is not None and spins < 100


def test_unhandled_failure_is_reported_and_the_turn_goes_on():
    """A failed event nobody waits on is recorded, reaches asyncio's
    exception handler, and does not strand the due entries behind it."""
    async def main():
        env = AsyncioEnv()
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context["exception"]))
        boom = ValueError("nobody waits on this")
        env.event().fail(boom)
        behind = env.event().succeed("ran")
        value = await env.wait(behind)
        return value, env.unhandled == [boom], reported == [boom]

    assert _run(main) == ("ran", True, True)


def _frames(data):
    """The documents of the frames in ``data``, in order."""
    docs = []
    while data:
        (length,) = wire.FRAME_HEADER.unpack_from(data)
        stop = wire.FRAME_HEADER.size + length
        docs.append(wire.open_frame(data[wire.FRAME_HEADER.size:stop]))
        data = data[stop:]
    return docs


def test_requests_of_one_read_run_as_one_batch_in_its_turn(monkeypatch):
    """On the real clock an MNode merges with no linger: the requests
    one socket read delivers run as one batch, and their replies are
    written, inside that read's own turn.  The clock stands still here,
    as on a machine fast enough that no linger expires within the turn:
    a 4 us linger would then park the batch on a timer for the loop's
    next iteration to poll for."""
    monkeypatch.setattr(aio, "monotonic", lambda: 1000.0)

    async def main():
        env = _CountingEnv()
        shared = ClusterShared(env, CostModel(),
                               FalconConfig(num_mnodes=1, num_storage=0))
        network = AioNetwork(env, shared.costs)
        mnode = MNode(env, network, shared, 0)
        _, conn = _connection(network, peer=None)
        _feed(conn, b"".join(
            wire.pack_frame(wire.encode_request(rid, Message(
                "caller", mnode.name, "getattr",
                {"path": "/f{}".format(rid)}, reply_to=env.event())))
            for rid in range(1, 9)))
        replies = [(doc["id"], doc["ok"])
                   for doc in _frames(conn.transport.written)]
        return (replies, mnode.pool.batches_executed,
                mnode.pool.requests_executed, env.turns, env._wake)

    assert _run(main) == (
        [(rid, False) for rid in range(1, 9)], 1, 8, 1, None)
