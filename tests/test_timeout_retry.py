"""RPC deadline enforcement and shared retry/backoff semantics."""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.verify import check_cluster_invariants, runtime_violations
from repro.net import CostModel, Network, Node, RpcError, RpcFailure
from repro.obs import OpContext, RetryPolicy, deadline_call, retry
from repro.sim import Environment


class SlowNode(Node):
    """Responds after a fixed service delay; 'fail_late' errors instead."""

    def __init__(self, env, network, name, delay=1000.0):
        super().__init__(env, network, name)
        self.delay = delay

    def handle(self, message):
        yield self.env.timeout(self.delay)
        if message.kind == "fail_late":
            self.respond_error(message, RpcFailure(RpcError.ENOENT, "late"))
        else:
            self.respond(message, {"ok": True})


class FlakyNode(Node):
    """Fails ``failures`` requests with ``code``, then succeeds."""

    def __init__(self, env, network, name, failures,
                 code=RpcError.ERETRY, detail="try-again"):
        super().__init__(env, network, name)
        self.remaining = failures
        self.code = code
        self.detail = detail
        self.handled = 0

    def handle(self, message):
        yield from self.execute(1.0)
        self.handled += 1
        if self.remaining > 0:
            self.remaining -= 1
            self.respond_error(
                message, RpcFailure(self.code, self.detail)
            )
        else:
            self.respond(message, {"ok": True})


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, CostModel())


def _drive(env, gen):
    return env.run(until=env.process(gen))


class TestDeadlineCall:
    def test_expires_mid_hop(self, env, net):
        SlowNode(env, net, "server", delay=1000.0)
        client = SlowNode(env, net, "client")

        def caller():
            ctx = OpContext(env, "op", deadline=env.now + 50.0)
            try:
                yield from deadline_call(client, ctx, "server", "work")
            except RpcFailure as failure:
                return failure.code, env.now

        code, when = _drive(env, caller())
        assert code == RpcError.ETIMEDOUT
        assert when == pytest.approx(50.0)
        # The straggling reply (and its events) must drain harmlessly.
        env.run()

    def test_late_error_reply_is_dropped(self, env, net):
        SlowNode(env, net, "server", delay=1000.0)
        client = SlowNode(env, net, "client")

        def caller():
            ctx = OpContext(env, "op", deadline=env.now + 50.0)
            with pytest.raises(RpcFailure):
                yield from deadline_call(client, ctx, "server",
                                         "fail_late")

        _drive(env, caller())
        env.run()  # the late ENOENT response must not crash the sim

    def test_expired_before_send(self, env, net):
        SlowNode(env, net, "server")
        client = SlowNode(env, net, "client")

        def caller():
            ctx = OpContext(env, "op", deadline=env.now)
            try:
                yield from deadline_call(client, ctx, "server", "work")
            except RpcFailure as failure:
                return failure.code

        assert _drive(env, caller()) == RpcError.ETIMEDOUT
        assert net.message_count() == 0  # never hit the wire

    def test_success_cancels_timer(self, env, net):
        SlowNode(env, net, "server", delay=5.0)
        client = SlowNode(env, net, "client")

        def caller():
            ctx = OpContext(env, "op", deadline=env.now + 10_000.0)
            result = yield from deadline_call(client, ctx, "server",
                                              "work")
            return result, env.now

        result, when = _drive(env, caller())
        assert result == {"ok": True}
        assert when < 10_000.0
        # The deadline costs exactly one heap entry and no process:
        # caller start + request hop + deadline timer + handler start +
        # dispatch slice + service delay + response hop + caller end.
        assert env.events_scheduled == 8
        # The cancelled timer's heap entry pops inert on drain: no
        # spurious ETIMEDOUT, no unhandled failure.
        env.run()
        assert env.now == 10_000.0

    def test_no_deadline_is_a_plain_call(self, env, net):
        SlowNode(env, net, "server", delay=5.0)
        client = SlowNode(env, net, "client")

        def caller():
            ctx = OpContext(env, "op")
            return (yield from deadline_call(client, ctx, "server",
                                             "work"))

        assert _drive(env, caller()) == {"ok": True}


class TestRetry:
    def test_exponential_backoff_converges(self, env, net):
        server = FlakyNode(env, net, "server", failures=3)
        client = SlowNode(env, net, "client")
        policy = RetryPolicy(base_us=100.0, multiplier=2.0,
                             max_backoff_us=6400.0)

        def caller():
            ctx = OpContext(env, "op")

            def attempt(_attempt, _hint):
                return (yield client.call("server", "work"))

            result = yield from retry(client, ctx, attempt, policy=policy)
            return result, ctx.attempt, env.now

        result, attempts, elapsed = _drive(env, caller())
        assert result == {"ok": True}
        assert attempts == 3  # 0-based: fourth attempt succeeded
        assert server.handled == 4
        assert elapsed >= 100.0 + 200.0 + 400.0

    def test_exhaustion_reraises_last_retryable(self, env, net):
        FlakyNode(env, net, "server", failures=100)
        client = SlowNode(env, net, "client")
        policy = RetryPolicy(max_attempts=5, base_us=1.0)

        def caller():
            ctx = OpContext(env, "op")

            def attempt(_attempt, _hint):
                return (yield client.call("server", "work"))

            try:
                yield from retry(client, ctx, attempt, policy=policy)
            except RpcFailure as failure:
                return failure.code

        assert _drive(env, caller()) == RpcError.ERETRY

    def test_non_retryable_propagates_immediately(self, env, net):
        server = FlakyNode(env, net, "server", failures=100,
                           code=RpcError.ENOENT)
        client = SlowNode(env, net, "client")

        def caller():
            ctx = OpContext(env, "op")

            def attempt(_attempt, _hint):
                return (yield client.call("server", "work"))

            try:
                yield from retry(client, ctx, attempt)
            except RpcFailure as failure:
                return failure.code

        assert _drive(env, caller()) == RpcError.ENOENT
        assert server.handled == 1

    def test_redirect_hint_reaches_next_attempt(self, env):
        client_env = env
        seen = []

        class _Stub:
            env = client_env
            name = "client"

        def attempt(attempt, hint):
            seen.append(hint)
            if attempt == 0:
                raise RpcFailure(RpcError.EREDIRECT, "mnode-7")
            return "done"
            yield  # pragma: no cover

        def caller():
            ctx = OpContext(env, "op")
            return (yield from retry(
                _Stub(), ctx, attempt, policy=RetryPolicy(base_us=0.0)
            ))

        assert _drive(env, caller()) == "done"
        assert seen == [None, "mnode-7"]

    def test_backoff_past_deadline_times_out(self, env, net):
        FlakyNode(env, net, "server", failures=100)
        client = SlowNode(env, net, "client")
        policy = RetryPolicy(base_us=1000.0)

        def caller():
            ctx = OpContext(env, "op", deadline=env.now + 500.0)

            def attempt(_attempt, _hint):
                return (yield client.call("server", "work"))

            try:
                yield from retry(client, ctx, attempt, policy=policy)
            except RpcFailure as failure:
                return failure.code, env.now

        code, when = _drive(env, caller())
        assert code == RpcError.ETIMEDOUT
        assert when < 500.0  # gave up before sleeping past the deadline


class TestClusterDeadlines:
    def test_tight_deadline_times_out_posix_op(self):
        config = FalconConfig(op_deadline_us=5.0)
        cluster = FalconCluster(config=config)
        fs = cluster.fs()
        with pytest.raises(RpcFailure) as excinfo:
            fs.mkdir("/data")
        assert excinfo.value.code == RpcError.ETIMEDOUT
        cluster.env.run()  # stragglers drain without unhandled failures
        check_cluster_invariants(cluster)

    def test_generous_deadline_is_invisible(self):
        config = FalconConfig(op_deadline_us=1_000_000.0)
        cluster = FalconCluster(config=config)
        fs = cluster.fs()
        fs.mkdir("/data")
        fs.write("/data/a.bin", size=16 * 1024)
        assert fs.read("/data/a.bin") == 16 * 1024

    @pytest.mark.parametrize("seed", range(5))
    def test_deadline_cancellation_leaves_no_orphans(self, seed):
        """Fuzz: ops racing a deadline must never corrupt the cluster.

        A mid-range deadline makes some operations time out mid-flight
        (their reply handles settled with ETIMEDOUT) while others complete; after
        draining, the event queue must be empty, no unhandled failure
        may surface, and the cluster invariants must hold.  A rename
        abandoned at the deadline leaves no lock, pin or voted row.
        """
        import random

        rng = random.Random(seed)
        config = FalconConfig(op_deadline_us=float(rng.choice(
            (40, 80, 120, 200)
        )), seed=seed)
        cluster = FalconCluster(config=config)
        fs = cluster.fs(mode=rng.choice(("vfs", "libfs")))
        timeouts = 0
        completed = 0
        for i in range(30):
            op = rng.choice(("mkdir", "write", "read", "getattr",
                             "unlink", "rename"))
            path = "/d{:02d}".format(rng.randrange(8))
            try:
                if op == "mkdir":
                    fs.mkdir(path)
                elif op == "rename":
                    fs.rename(path, "/d{:02d}".format(rng.randrange(8)))
                elif op == "write":
                    fs.write(path + "/f{:03d}".format(i),
                             size=rng.choice((4096, 65536)))
                elif op == "read":
                    fs.read(path + "/f{:03d}".format(i))
                else:
                    getattr(fs, op)(path)
                completed += 1
            except RpcFailure:
                timeouts += 1
        cluster.env.run()
        assert not cluster.env._queue
        check_cluster_invariants(cluster)
        assert runtime_violations(cluster) == []
        assert completed + timeouts == 30
