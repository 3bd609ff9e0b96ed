"""A malformed path is the caller's ``EINVAL``, from the client itself.

The MNode answers a relative, empty or dotted path with
``RpcFailure(EINVAL)``; the client used to leak its own ``split_path``
``ValueError`` for the same input — a ``client-exception`` violation in
the checker and a traceback out of ``python -m repro.serve client``.
The mapping happens once, before any simulated time is charged and
inside the operation's root span, so the failure is acknowledged like
any other.  It lives in the client base class, so the baselines'
stateful clients answer the same way.
"""

import json

import pytest

from repro.baselines import CephCluster, JuiceCluster, LustreCluster
from repro.core import FalconCluster, FalconConfig
from repro.net.rpc import RpcError, RpcFailure
from repro.serve.main import main as serve_main

MALFORMED = ["relative/x", "/a/../b", ""]

#: FalconFS's three client modes, then the baselines' stateful client.
RIGS = {"vfs": FalconCluster, "libfs": FalconCluster,
        "nobypass": FalconCluster, "cephfs": CephCluster,
        "lustre": LustreCluster, "juicefs": JuiceCluster}


@pytest.fixture(params=list(RIGS))
def rig(request):
    cluster = RIGS[request.param](FalconConfig(num_mnodes=2, num_storage=1))
    cluster.fs().mkdir("/ok")
    client = cluster.add_client(mode=request.param)
    client.ack_log = []
    return cluster, client


def _ops(client, path):
    return {
        "getattr": lambda: client.getattr(path),
        "create": lambda: client.create(path),
        "rename-src": lambda: client.rename(path, "/ok/dst"),
        "rename-dst": lambda: client.rename("/ok", path),
        "readdir": lambda: client.readdir(path),
        "rmdir": lambda: client.rmdir(path),
        "chmod": lambda: client.chmod(path, 0o600),
    }


@pytest.mark.parametrize("op", ["getattr", "create", "rename-src",
                                "rename-dst", "readdir", "rmdir", "chmod"])
@pytest.mark.parametrize("path", MALFORMED)
def test_malformed_path_is_einval_from_the_client(rig, path, op):
    cluster, client = rig
    env = cluster.env
    before = env.now, env.events_scheduled
    sent = client.metrics.counter("requests").total()
    with pytest.raises(RpcFailure) as err:
        cluster.run_process(_ops(client, path)[op]())
    assert err.value.code == RpcError.EINVAL
    # Refused before any simulated time was charged or request sent
    # (the two entries are run_process's own start and end).
    assert env.now == before[0]
    assert env.events_scheduled - before[1] == 2
    assert client.metrics.counter("requests").total() == sent
    # ... and acknowledged: the checker's ack tap counts completions.
    assert [(ack["ok"], ack["error"]) for ack in client.ack_log] == [
        (False, RpcError.EINVAL)]


def test_well_formed_neighbours_still_work(rig):
    cluster, client = rig
    assert cluster.run_process(client.getattr("/"))["is_dir"]
    assert cluster.run_process(client.getattr("//"))["is_dir"]
    cluster.run_process(client.create("/ok/f"))
    assert cluster.run_process(client.getattr("/ok/f/"))["size"] == 0
    with pytest.raises(RpcFailure) as err:
        cluster.run_process(client.create("/"))
    assert err.value.code == RpcError.EINVAL


@pytest.mark.parametrize("argv", [
    ["client", "stat", "relative/x"],
    ["client", "create", "/a/../b"],
    ["client", "rename", "/a", "b"],
    ["client", "ls", ""],
])
def test_serve_client_cli_reports_einval_and_exits_1(argv, capsys):
    # Refused client-side: nothing is dialed, so no server is needed.
    assert serve_main(argv) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    reply = json.loads(out[0])
    assert reply["ok"] is False and reply["code"] == RpcError.EINVAL
