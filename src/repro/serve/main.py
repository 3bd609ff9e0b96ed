"""Entry points for the real-runtime serving mode (see package docs)."""

import argparse
import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from bisect import bisect_left, insort
from heapq import heappop, heappush

from repro.core.client import FalconClient
from repro.core.records import InodeAllocator
from repro.core.shared import ClusterShared, FalconConfig
from repro.metrics import render_prometheus
from repro.net.costs import CostModel
from repro.net.rpc import RpcFailure
from repro.runtime.aio import AsyncioEnv
from repro.runtime.net import AioNetwork

#: Prometheus endpoint = RPC port + this offset.
METRICS_PORT_OFFSET = 1000


def topology(host, base_port, num_mnodes):
    """name -> (host, rpc_port) for every server endpoint."""
    peers = {"coordinator": (host, base_port)}
    for i in range(num_mnodes):
        peers["mnode-{}".format(i)] = (host, base_port + 1 + i)
    return peers


def serve_config(args):
    return FalconConfig(
        num_mnodes=args.mnodes,
        num_storage=0,
        # Per-attempt RPC timeout: on a real network silence is the only
        # failure signal, so this must always be set (it is what turns a
        # dead peer into ETIMEDOUT + retry instead of a hang).
        rpc_timeout_us=args.rpc_timeout_ms * 1000.0,
        op_deadline_us=args.op_deadline_ms * 1000.0,
        # Real deployments want decorrelated retries: without jitter,
        # every client that saw the same failure retries in lockstep.
        retry_jitter=0.25,
    )


def emit_status(line, stream=None):
    """Write one status line and its newline in a single ``os.write``.

    ``up`` and every node it starts share one stdout pipe, and whoever
    watches it waits for whole ``READY`` / ``UP`` lines.  ``print(...,
    flush=True)`` on an unbuffered stream writes the text and the
    newline separately, so another process's line can land between
    them.  A pipe write of at most ``PIPE_BUF`` bytes is atomic; longer
    lines are still written whole, just not atomically.
    """
    stream = sys.stdout if stream is None else stream
    stream.flush()
    data = (line + "\n").encode("utf-8")
    fd = stream.fileno()
    while data:
        data = data[os.write(fd, data):]


def _shared(env, args):
    return ClusterShared(env, CostModel(), serve_config(args))


async def _metrics_server(port, registries):
    """Minimal HTTP/1.1 responder for Prometheus text scrapes."""

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
        except (ConnectionError, OSError):
            return
        body = render_prometheus(registries).encode("utf-8")
        head = (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; "
                b"charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n")
        try:
            writer.write(head + body)
            await writer.drain()
            writer.close()
        except (ConnectionError, OSError):
            pass

    return await asyncio.start_server(handle, "127.0.0.1", port)


# -- node --------------------------------------------------------------


async def run_node(args):
    env = AsyncioEnv(wal_dir=args.wal_dir or None)
    shared = _shared(env, args)
    peers = topology(args.host, args.base_port, args.mnodes)
    if args.role == "coordinator":
        name = shared.coordinator_name
    else:
        name = shared.node_name(args.index)
        # Disjoint inode-id stripes: no cross-process coordination.
        shared.allocator = InodeAllocator(start=2 + args.index,
                                          step=args.mnodes)
    host, port = peers.pop(name)
    network = AioNetwork(env, shared.costs, peers)
    if args.role == "coordinator":
        from repro.core.coordinator import Coordinator

        node = Coordinator(env, network, shared)
    else:
        from repro.core.mnode import MNode

        node = MNode(env, network, shared, args.index)
        # A fresh start: no disk to recover from, no role to ask for.
        node.boot()
    await network.start(host, port)
    metrics = await _metrics_server(
        port + METRICS_PORT_OFFSET, [node.metrics, network.metrics]
    )
    emit_status("READY {} rpc={} metrics={}".format(
        name, port, port + METRICS_PORT_OFFSET))
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    metrics.close()
    await network.close()
    env.close()
    return 0


# -- up ----------------------------------------------------------------


def _wait_port(host, port, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return True
        except OSError:
            time.sleep(0.05)
    return False


def _node_argv(args, role, index=None):
    argv = [
        sys.executable, "-m", "repro.serve", "node",
        "--role", role,
        "--mnodes", str(args.mnodes),
        "--base-port", str(args.base_port),
        "--host", args.host,
        "--rpc-timeout-ms", str(args.rpc_timeout_ms),
        "--op-deadline-ms", str(args.op_deadline_ms),
    ]
    if index is not None:
        argv += ["--index", str(index)]
    if args.wal_dir:
        argv += ["--wal-dir", args.wal_dir]
    return argv


def run_up(args):
    peers = topology(args.host, args.base_port, args.mnodes)
    procs = [subprocess.Popen(_node_argv(args, "coordinator"))]
    for i in range(args.mnodes):
        procs.append(subprocess.Popen(_node_argv(args, "mnode", index=i)))
    try:
        for name, (host, port) in peers.items():
            if not _wait_port(host, port):
                emit_status("FAILED waiting for {} on {}:{}".format(
                    name, host, port), sys.stderr)
                return 1
        emit_status("UP {}".format(json.dumps({
            name: {"rpc": port, "metrics": port + METRICS_PORT_OFFSET}
            for name, (_, port) in sorted(peers.items())
        })))
        # Serve until interrupted or a child dies.
        while True:
            for proc in procs:
                code = proc.poll()
                if code is not None:
                    emit_status("CHILD EXITED {}".format(code), sys.stderr)
                    return code or 1
            time.sleep(0.2)
    except KeyboardInterrupt:
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    return 0


# -- client / bench -----------------------------------------------------


async def _make_client(args, name):
    env = AsyncioEnv()
    shared = _shared(env, args)
    peers = topology(args.host, args.base_port, args.mnodes)
    network = AioNetwork(env, shared.costs, peers)
    client = FalconClient(env, network, shared, name, mode=args.mode)
    return env, network, client


async def run_client(args):
    env, network, client = await _make_client(
        args, "cli-{}".format(random.randrange(1 << 30)))
    try:
        if args.op == "mkdir":
            ino = await env.run_process(client.mkdir(args.path))
            print(json.dumps({"ok": True, "ino": ino}))
        elif args.op == "create":
            ino = await env.run_process(client.create(args.path))
            print(json.dumps({"ok": True, "ino": ino}))
        elif args.op in ("stat", "open"):
            gen = (client.getattr(args.path) if args.op == "stat"
                   else client.open_file(args.path))
            attrs = await env.run_process(gen)
            print(json.dumps({"ok": True, "attrs": attrs}))
        elif args.op == "rename":
            await env.run_process(client.rename(args.path, args.dest))
            print(json.dumps({"ok": True}))
        elif args.op == "ls":
            entries = await env.run_process(client.readdir(args.path))
            print(json.dumps({"ok": True,
                              "entries": [list(e) for e in entries]}))
        else:
            raise ValueError(args.op)
    except RpcFailure as failure:
        print(json.dumps({"ok": False, "code": failure.code,
                          "error": str(failure)}))
        return 1
    finally:
        await network.close()
    return 0


#: Minimum plan distance between the op that makes a file visible
#: (create, or rename installing the destination) and any op that
#: references it.  Ops run with bounded concurrency, so a reference this
#: far behind the head can never race the file's own creation.
_WORKLOAD_LAG = 32


def build_workload(seed, ops, dirs):
    """Seeded mkdir/create/stat/open/rename/ls mix.

    Shared with the DES-vs-asyncio parity test, which replays the same
    list under both environments.  Every path reference points at least
    :data:`_WORKLOAD_LAG` plan positions behind the referencing op, so a
    bench running up to that many ops concurrently sees no self-induced
    ENOENT races, and every op's outcome is deterministic.
    """
    rng = random.Random(seed)
    plan = [("mkdir", "/d{}".format(i), None) for i in range(dirs)]
    #: path -> plan index of its last mention (creation or reference);
    #: renamed-away paths are removed and never referenced again.
    files = {}
    #: The paths mentioned no later than the horizon, in sorted order;
    #: ``waiting`` holds ``(last mention, path)`` for the rest, and an
    #: entry whose path was mentioned again (or renamed away) since is
    #: skipped when it surfaces.
    ready = []
    waiting = []
    serial = 0

    def mention(path):
        files[path] = len(plan)
        heappush(waiting, (len(plan), path))

    def pick():
        path = rng.choice(ready)
        del ready[bisect_left(ready, path)]
        return path

    while len(plan) < ops:
        horizon = len(plan) - _WORKLOAD_LAG
        while waiting and waiting[0][0] <= horizon:
            last, path = heappop(waiting)
            if files.get(path) == last:
                insort(ready, path)
        roll = rng.random()
        directory = "/d{}".format(rng.randrange(dirs))
        if roll < 0.35 or not ready:
            path = "{}/f{}".format(directory, serial)
            serial += 1
            mention(path)
            plan.append(("create", path, None))
        elif roll < 0.70:
            path = pick()
            mention(path)
            plan.append(("stat", path, None))
        elif roll < 0.80:
            path = pick()
            mention(path)
            plan.append(("open", path, None))
        elif roll < 0.90:
            # Rename sources must be past the lag window too: an earlier
            # in-flight stat of the same path would otherwise be overtaken
            # by the rename and see ENOENT.
            src = pick()
            del files[src]
            dst = "{}/r{}".format(directory, serial)
            serial += 1
            mention(dst)
            plan.append(("rename", src, dst))
        else:
            plan.append(("ls", directory, None))
    return plan[:ops]


def plan_deps(plan):
    """Happens-before edges for running a workload plan concurrently.

    Returns one list of plan indices per op: the ops that must *complete*
    before this one may start.  A reference (stat/open/rename-source)
    depends on the op that made the path visible (create, or the rename
    that installed it); a rename additionally depends on every pending
    reader of its source, so it can never overtake an in-flight stat and
    turn it into a spurious ENOENT.  The plan's :data:`_WORKLOAD_LAG`
    spacing makes these edges almost always already satisfied — they only
    bite when one op (typically a rename, which takes the coordinator's
    path locks and pays real fsyncs) runs much slower than the stream
    flowing past it.
    """
    producer = {}
    readers = {}
    deps = []
    for index, (op, path, dest) in enumerate(plan):
        edges = []
        if op in ("stat", "open"):
            if path in producer:
                edges.append(producer[path])
            readers.setdefault(path, []).append(index)
        elif op == "rename":
            if path in producer:
                edges.append(producer.pop(path))
            edges.extend(readers.pop(path, []))
            producer[dest] = index
            readers.pop(dest, None)
        elif op in ("create", "mkdir"):
            producer[path] = index
        deps.append(edges)
    return deps


def client_op(client, op, path, dest):
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


async def run_bench(args):
    env, network, client = await _make_client(
        args, "bench-{}".format(random.randrange(1 << 30)))
    plan = build_workload(args.seed, args.ops, args.dirs)
    deps = plan_deps(plan)
    done = [asyncio.Event() for _ in plan]
    gate = asyncio.Semaphore(args.concurrency)
    latencies = []
    outcomes = {"ok": 0, "failed": 0}

    async def run_one(index, op, path, dest):
        # Dependency edges first, concurrency slot second: waiting for a
        # producer shouldn't occupy a slot another op could use.
        for edge in deps[index]:
            await done[edge].wait()
        async with gate:
            start = env.now_us()
            try:
                await env.run_process(client_op(client, op, path, dest))
                outcomes["ok"] += 1
            except RpcFailure:
                outcomes["failed"] += 1
            latencies.append((op, env.now_us() - start))
        done[index].set()

    try:
        # Directories first and serially: the workload's files all land
        # under them, and racing a create against its parent's mkdir only
        # measures retry latency.
        for index, (op, path, dest) in enumerate(plan):
            if op == "mkdir":
                await run_one(index, op, path, dest)
        await asyncio.gather(*(
            run_one(index, op, path, dest)
            for index, (op, path, dest) in enumerate(plan)
            if op != "mkdir"))
    finally:
        await network.close()

    by_op = {}
    for op, us in latencies:
        by_op.setdefault(op, []).append(us)
    latencies = sorted(us for _, us in latencies)

    def pct(ordered, q):
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    summary = {
        "ops": len(plan),
        "acked": outcomes["ok"],
        "failed": outcomes["failed"],
        "lost": len(plan) - outcomes["ok"] - outcomes["failed"],
        "latency_us": {
            "mean": sum(latencies) / len(latencies) if latencies else 0.0,
            "p50": pct(latencies, 50), "p95": pct(latencies, 95),
            "p99": pct(latencies, 99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "latency_us_by_op": {
            op: {"p50": pct(ordered, 50), "p99": pct(ordered, 99)}
            for op, ordered in sorted(
                (op, sorted(values)) for op, values in by_op.items())
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["lost"] == 0 and summary["failed"] == 0 else 1


# -- CLI ----------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--base-port", type=int, default=7700)
    parser.add_argument("--mnodes", type=int, default=3)
    parser.add_argument("--rpc-timeout-ms", type=float, default=2000.0)
    parser.add_argument("--op-deadline-ms", type=float, default=15000.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="FalconFS metadata cluster on real sockets",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    up = sub.add_parser("up", help="launch coordinator + N MNodes")
    _add_common(up)
    up.add_argument("--wal-dir", default=None,
                    help="directory for real WAL files (enables fsync)")

    node = sub.add_parser("node", help="run one server process")
    _add_common(node)
    node.add_argument("--role", choices=("coordinator", "mnode"),
                      required=True)
    node.add_argument("--index", type=int, default=0)
    node.add_argument("--wal-dir", default=None)

    client = sub.add_parser("client", help="one metadata operation")
    _add_common(client)
    client.add_argument("--mode", default="vfs",
                        choices=("vfs", "libfs", "nobypass"))
    client.add_argument("op",
                        choices=("mkdir", "create", "stat", "open",
                                 "rename", "ls"))
    client.add_argument("path")
    client.add_argument("dest", nargs="?", default=None)

    bench = sub.add_parser("bench", help="seeded workload + summary")
    _add_common(bench)
    bench.add_argument("--mode", default="vfs",
                       choices=("vfs", "libfs", "nobypass"))
    bench.add_argument("--ops", type=int, default=1000)
    bench.add_argument("--dirs", type=int, default=8)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--concurrency", type=int, default=16)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.cmd == "up":
        return run_up(args)
    if args.cmd == "node":
        return asyncio.run(run_node(args))
    if args.cmd == "client":
        return asyncio.run(run_client(args))
    if args.cmd == "bench":
        return asyncio.run(run_bench(args))
    raise AssertionError(args.cmd)
