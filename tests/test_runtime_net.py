"""Robustness of the TCP fabric (``repro.runtime.net``) and of the
asyncio backend's timers: bounded reply bookkeeping, hostile frames,
really-cancelled deadline timers."""

import asyncio
import struct

import pytest

from repro.net.costs import CostModel
from repro.net.node import Node
from repro.net.rpc import RpcError, RpcFailure
from repro.obs import OpContext
from repro.obs.retry import deadline_call
from repro.runtime import AsyncioEnv, wire
from repro.runtime.net import AioNetwork

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
    closes is forgotten, and ``close`` ends the rest — reader task
    finished, socket closed (the peer reads EOF)."""
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
            await asyncio.wait([conn.task])
            writer.close()
            return (eof, conn.task.done(), conn.writer.is_closing(),
                    set(served._inbound))
        finally:
            await served.close()

    assert _run(main) == (b"", True, True, set())


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
            return env.unhandled, served.dropped_count("malformed")
        finally:
            await calling.close()
            await served.close()

    unhandled, malformed = _run(main)
    assert unhandled == []
    # A torn frame is an EOF, not a protocol violation.
    assert malformed == (0 if name == "truncated" else 1)


def test_cancelled_timer_cancels_the_loop_handle():
    """A met deadline must not leave its ``call_later`` behind to wake
    the loop seconds later for nothing."""
    async def main():
        env = AsyncioEnv()
        fired = []
        timer = env.timer(50_000.0, fired.append)
        handle = timer._handle
        timer.cancel()
        await asyncio.sleep(0.1)
        return fired, handle.cancelled()

    fired, cancelled = _run(main)
    assert fired == [] and cancelled


def test_deadline_call_on_time_leaves_no_timer_behind():
    async def main():
        env = AsyncioEnv()
        served, port = await _serving(env, _Echo)
        calling = AioNetwork(env, CostModel(), {"server": ("127.0.0.1", port)})
        caller = _Echo(env, calling, "caller")
        loop = asyncio.get_running_loop()
        try:
            reply = await env.run_process(deadline_call(
                caller, OpContext(env, "probe"), "server", "echo", {"n": 3},
                timeout_us=2_000_000.0))
            live = [handle for handle in loop._scheduled
                    if not handle.cancelled()
                    and getattr(handle._callback, "__self__", None) is env]
            return reply, live, dict(calling._pending)
        finally:
            await calling.close()
            await served.close()

    reply, live, pending = _run(main)
    assert reply == {"n": 3}
    assert live == [] and pending == {}
