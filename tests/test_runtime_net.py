"""Robustness of the TCP fabric (``repro.runtime.net``) and of the
real-time driver under it: bounded reply bookkeeping, hostile frames,
inert cancelled timers, and the pump that runs the DES kernel on the
asyncio loop."""

import asyncio
import socket
import struct

import pytest

from repro import sim
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


def test_zero_backoff_retry_does_not_starve_a_socket_read():
    """Entries pushed during a pump turn run in a *later* loop turn.  A
    pump that kept popping whatever is due would spin this retry loop
    to exhaustion inside one turn — every zero-delay sleep is due by the
    time it is looked at — and never let the loop read the socket."""
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
