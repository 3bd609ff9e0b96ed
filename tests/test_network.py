"""Unit tests for the simulated network fabric and RPC layer."""

import pytest

from repro.net import CostModel, Network, Node, RpcError, RpcFailure
from repro.runtime import EnvError
from repro.sim import Environment


class EchoNode(Node):
    """Responds to 'echo'; errors on 'fail'."""

    def handle(self, message):
        yield from self.execute(1.0)
        if message.kind == "echo":
            self.respond(message, {"echo": message.payload})
        elif message.kind == "fail":
            self.respond_error(message, RpcFailure(RpcError.ENOENT, "x"))
        else:
            raise NotImplementedError(message.kind)


class SilentNode(Node):
    def handle(self, message):
        return
        yield


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, CostModel())


def test_duplicate_registration_rejected(env, net):
    EchoNode(env, net, "a")
    with pytest.raises(EnvError):
        EchoNode(env, net, "a")


def test_unknown_node_rejected(env, net):
    node = EchoNode(env, net, "a")
    with pytest.raises(EnvError):
        node.send("ghost", "echo")


def test_rpc_round_trip(env, net):
    server = EchoNode(env, net, "server")
    client = EchoNode(env, net, "client")

    def caller():
        reply = yield client.call("server", "echo", "hello")
        return (reply, env.now)

    reply, elapsed = env.run(until=env.process(caller()))
    assert reply == {"echo": "hello"}
    # Two hops + dispatch + 1us service.
    costs = net.costs
    expected_min = 2 * costs.hop_us(costs.rpc_request_bytes)
    assert elapsed >= expected_min


def test_rpc_failure_propagates(env, net):
    EchoNode(env, net, "server")
    client = EchoNode(env, net, "client")

    def caller():
        try:
            yield client.call("server", "fail")
        except RpcFailure as failure:
            return failure.code

    assert env.run(until=env.process(caller())) == RpcError.ENOENT


def test_larger_payload_takes_longer(env, net):
    EchoNode(env, net, "server")
    client = EchoNode(env, net, "client")
    durations = {}

    def caller(tag, size):
        start = env.now
        yield client.call("server", "echo", None, size=size)
        durations[tag] = env.now - start

    env.run(until=env.process(caller("small", 256)))
    env.run(until=env.process(caller("large", 1 << 20)))
    assert durations["large"] > durations["small"]


def test_local_delivery_skips_hops(env, net):
    node = EchoNode(env, net, "only")
    EchoNode(env, net, "remote")

    def caller(target):
        start = env.now
        yield node.call(target, "echo", "self")
        return env.now - start

    local = env.run(until=env.process(caller("only")))
    remote = env.run(until=env.process(caller("remote")))
    # Local delivery pays CPU costs but no network hops.
    assert remote - local == pytest.approx(
        2 * net.costs.hop_us(net.costs.rpc_request_bytes), rel=0.3
    )


def test_message_metrics(env, net):
    EchoNode(env, net, "server")
    client = EchoNode(env, net, "client")

    def caller():
        yield client.call("server", "echo")
        yield client.call("server", "echo")

    env.run(until=env.process(caller()))
    assert net.message_count("echo") == 2
    assert net.message_count() == 2
    assert client.metrics.counter("sent").get("echo") == 2


def test_local_delivery_counted_under_local_label(env, net):
    from repro.net.transport import LOCAL_LABEL

    node = EchoNode(env, net, "only")
    EchoNode(env, net, "remote")

    def caller():
        yield node.call("only", "echo", "self")
        yield node.call("remote", "echo", "peer")

    env.run(until=env.process(caller()))
    # The co-located request lands under "local", not "echo", so the
    # per-kind count equals actual network hops (replies resolve the
    # reply event directly and are never counted here).
    assert net.message_count("echo") == 1
    assert net.message_count(LOCAL_LABEL) == 1
    by_label = net.metrics.counter("messages").by_label()
    assert by_label == {"echo": 1, LOCAL_LABEL: 1}
    assert net.message_count() == 2


def test_unhandled_kind_raises(env, net):
    EchoNode(env, net, "server")
    client = EchoNode(env, net, "client")
    client.send("server", "bogus")
    with pytest.raises(NotImplementedError):
        env.run()


def test_default_handle_is_abstract(env, net):
    """A bare node has no ``_on_<kind>`` handler: every kind raises."""
    node = Node(env, net, "base")
    node.send("base", "anything")
    with pytest.raises(RuntimeError, match="base cannot handle"):
        env.run()


def test_respond_without_reply_event_is_noop(env, net):
    server = SilentNode(env, net, "server")
    client = EchoNode(env, net, "client")
    client.send("server", "oneway")  # no reply_to
    env.run()
    assert server.metrics.counter("received").get("oneway") == 1


def test_execute_consumes_cores(env, net):
    node = EchoNode(env, net, "n")
    finished = []

    def worker(tag):
        yield from node.execute(10.0)
        finished.append((tag, env.now))

    for tag in range(net.costs.server_cores * 2):
        env.process(worker(tag))
    env.run()
    times = sorted(t for _, t in finished)
    assert times[0] == 10.0
    assert times[-1] == 20.0


def test_cost_model_transfer_math():
    costs = CostModel()
    assert costs.transfer_us(costs.net_bandwidth_bytes_per_us) == 1.0
    assert costs.hop_us(0) == costs.rpc_latency_us
