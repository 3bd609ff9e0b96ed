"""DES ↔ asyncio parity: one protocol, two clocks, same answers.

The same seeded workload (the ``repro.serve`` bench generator) runs
through the full protocol stack twice — once on :class:`SimEnv` (the
deterministic DES kernel) and once on :class:`AsyncioEnv` (a real event
loop and monotonic clock) — using the *same* protocol classes and the
same in-memory network fabric.  Every client-visible outcome must be
identical: success/error per op, allocated inode numbers, returned
attributes (minus wall-clock mtime), and the final namespace listing.

This is the load-bearing guarantee of the environment abstraction: if a
protocol layer ever consults the simulated clock (or the real one)
directly instead of going through its ``Env``, the two runs diverge and
this test fails.
"""

import asyncio
import hashlib
import json

import pytest

from repro.core.client import FalconClient
from repro.core.cluster import FalconCluster
from repro.core.coordinator import Coordinator
from repro.core.mnode import MNode
from repro.core.shared import ClusterShared, FalconConfig
from repro.net.costs import CostModel
from repro.net.rpc import RpcFailure
from repro.net.transport import Network
from repro.runtime import AsyncioEnv
from repro.serve.main import build_workload

SEED = 11
OPS = 300
DIRS = 6


def _config():
    return FalconConfig(
        num_mnodes=3,
        num_storage=0,
        rpc_timeout_us=2_000_000.0,
        op_deadline_us=15_000_000.0,
    )


def _op_generator(client, op, path, dest):
    if op == "mkdir":
        return client.mkdir(path)
    if op == "create":
        return client.create(path)
    if op == "stat":
        return client.getattr(path)
    if op == "open":
        return client.open_file(path)
    if op == "rename":
        return client.rename(path, dest)
    if op == "ls":
        return client.readdir(path)
    raise ValueError(op)


def _normalize(op, value):
    """Strip clock-dependent fields; keep everything protocol-decided."""
    if isinstance(value, dict):
        return {k: v for k, v in sorted(value.items()) if k != "mtime"}
    if op == "ls":
        return sorted(tuple(entry) for entry in value)
    return value


def _record(outcomes, op, thunk):
    try:
        outcomes.append((op, "ok", _normalize(op, thunk())))
    except RpcFailure as failure:
        outcomes.append((op, "err", failure.code))


def run_sim(plan):
    cluster = FalconCluster(config=_config())
    client = cluster.add_client(mode="vfs", name="parity")
    outcomes = []
    for op, path, dest in plan:
        _record(outcomes, op,
                lambda: cluster.run_process(
                    _op_generator(client, op, path, dest)))
    listing = {}
    for i in range(DIRS):
        directory = "/d{}".format(i)
        listing[directory] = _normalize("ls", cluster.run_process(
            client.readdir(directory)))
    return outcomes, listing


def _asyncio_client(env, name):
    """A vfs client of a fresh 3-MNode cluster on ``env``."""
    shared = ClusterShared(env, CostModel(), _config())
    network = Network(env, shared.costs)
    for i in range(3):
        MNode(env, network, shared, i)  # registered with the network
    Coordinator(env, network, shared)
    return FalconClient(env, network, shared, name, mode="vfs")


def run_asyncio(plan):
    async def main():
        env = AsyncioEnv()
        client = _asyncio_client(env, "parity")
        outcomes = []
        for op, path, dest in plan:
            try:
                value = await env.run_process(
                    _op_generator(client, op, path, dest))
                outcomes.append((op, "ok", _normalize(op, value)))
            except RpcFailure as failure:
                outcomes.append((op, "err", failure.code))
        listing = {}
        for i in range(DIRS):
            directory = "/d{}".format(i)
            listing[directory] = _normalize(
                "ls", await env.run_process(client.readdir(directory)))
        return outcomes, listing

    return asyncio.run(main())


@pytest.fixture(scope="module")
def plan():
    return build_workload(SEED, OPS, DIRS)


def test_same_workload_same_outcomes(plan):
    sim_outcomes, sim_listing = run_sim(plan)
    aio_outcomes, aio_listing = run_asyncio(plan)

    assert len(sim_outcomes) == len(aio_outcomes) == OPS
    for index, (sim, aio) in enumerate(zip(sim_outcomes, aio_outcomes)):
        assert sim == aio, (
            "divergence at plan[{}] {}: sim={} asyncio={}".format(
                index, plan[index], sim, aio))
    assert sim_listing == aio_listing


def test_workload_is_deterministic():
    assert build_workload(SEED, OPS, DIRS) == build_workload(SEED, OPS, DIRS)


#: SHA-256 of ``json.dumps(build_workload(seed, ops, 8))``, recorded when
#: the plan re-sorted every eligible path for every op.  The plan is now
#: built in linear time; the plans themselves must not move.
PLAN_DIGESTS = {
    (0, 400): "a9effdc3e53998a04b835e331762f303a1720fd4801c420225eb8eb80493cbc5",
    (1, 400): "0333babc523709439128b6713c9f2094ec88c8b97f217813e765a518759f111e",
    (7, 400): "de4c613d78fb85ebbab5256801b02fc4ed16c6ae35a36a599c4c65155eaffe83",
    (401, 400): "9fd84b98809b5c390651038f7dbba85f516fbe08a7aac94520bce6ced00d96b0",
    (0, 3000): "70fdb5f87203499cb7b8d693316b2cab1e6bf76c02cc0573f715ac074bc20efa",
    (1, 3000): "58dbf91ed03b283b86582805c29c9f92d5498a2889066b9a4f1fedff66b575e3",
    (7, 3000): "44794205a84d354d106ac7c2ab2cba67e6a585cfbfbba364f2b9aa86ce977fb2",
    (401, 3000): "86236db02834d1e730fb6b14ed4fafec3c23e5bda9a47c45fa466360cb041ad1",
}


@pytest.mark.parametrize("seed, ops", sorted(PLAN_DIGESTS))
def test_workload_plans_are_pinned(seed, ops):
    plan = build_workload(seed, ops, 8)
    digest = hashlib.sha256(json.dumps(plan).encode()).hexdigest()
    assert digest == PLAN_DIGESTS[seed, ops]


def test_workload_succeeds_serially(plan):
    """Run serially, every op in the plan is conflict-free by design."""
    sim_outcomes, _ = run_sim(plan)
    failed = [(i, o) for i, o in enumerate(sim_outcomes) if o[1] != "ok"]
    assert not failed, failed[:5]


def _spy_client_cpu(client):
    """Record every modelled client-CPU charge the client makes."""
    charged = []
    real = client._client_cpu

    def spy(ctx, cost_us):
        charged.append(cost_us)
        return (yield from real(ctx, cost_us))

    client._client_cpu = spy
    return charged


def _coordinator_ops(client):
    """A rename and an rmdir: the client ops the coordinator serves."""
    yield from client.mkdir("/d")
    yield from client.mkdir("/gone")
    yield from client.create("/d/a")
    charged = _spy_client_cpu(client)
    yield from client.rename("/d/a", "/d/b")
    yield from client.rmdir("/gone")
    return charged


def test_coordinator_ops_charge_client_cpu_only_when_costs_are_modelled():
    """The ``models_costs`` contract on the coordinator path: the
    simulator charges the modelled client CPU per op, the real clock
    never enters it (real work already takes real time)."""
    cluster = FalconCluster(config=_config())
    client = cluster.add_client(mode="vfs", name="sim")
    assert cluster.run_process(_coordinator_ops(client)) == \
        [cluster.shared.costs.client_op_us] * 2

    async def main():
        env = AsyncioEnv()
        client = _asyncio_client(env, "live")
        return await env.run_process(_coordinator_ops(client))

    assert asyncio.run(main()) == []
