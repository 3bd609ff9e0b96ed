"""The ``live_mix`` workload: ``repro.serve`` on real sockets.

One repetition boots ``python -m repro.serve up`` on a free loopback port
range with no ``--wal-dir`` (fsync is a scheduler yield, so the numbers
price the program and not the sandbox disk), drives the seeded plan from
this one client process with a fixed number of ops in flight — a warm-up,
then the timed ops — checks the final listing, scrapes the nodes'
Prometheus endpoints, and tears the cluster down.  Loopback latency is
processor time: there is no wire.

The same plan then runs on the simulated cluster — the twin — which gives
this workload its modelled ``sim_*`` numbers and is the only place the
coordinator's rename/``ls`` path is priced on the simulated clock.
"""

import asyncio
import http.client
import os
import resource
import select
import signal
import socket
import subprocess
import sys
import time

from repro.core.client import FalconClient
from repro.core.cluster import FalconCluster
from repro.core.shared import ClusterShared
from repro.net.costs import CostModel
from repro.net.rpc import RpcFailure
from repro.runtime.aio import AsyncioEnv
from repro.runtime.net import AioNetwork
from repro.serve.main import (METRICS_PORT_OFFSET, build_parser,
                              build_workload, client_op, plan_deps,
                              serve_config, topology)

import repro
from workloads import Timed, digest, nearest_rank, result_of


def _free_base_port(mnodes):
    """A base whose RPC and metrics port ranges all bind right now."""
    start = 20000 + int.from_bytes(os.urandom(2), "big") % 20000
    for attempt in range(50):
        base = 20000 + (start + attempt * 137) % 20000
        ports = [base + i for i in range(mnodes + 1)]
        ports += [p + METRICS_PORT_OFFSET for p in ports]
        try:
            for port in ports:
                with socket.socket() as probe:
                    probe.bind(("127.0.0.1", port))
        except OSError:
            continue
        return base
    raise RuntimeError("no free loopback port range")


class Cluster:
    """``repro.serve up`` as a child in its own process group."""

    def __init__(self, mnodes):
        self.base = _free_base_port(mnodes)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "up", "--mnodes",
             str(mnodes), "--base-port", str(self.base)],
            env=env, stdout=subprocess.PIPE, bufsize=0,
            start_new_session=True)
        try:
            self._await_up(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _await_up(self, timeout_s):
        deadline = time.monotonic() + timeout_s
        seen = b""
        fd = self.proc.stdout.fileno()
        while b"\nUP " not in b"\n" + seen:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro.serve did not come up: {!r}"
                                   .format(seen[-400:]))
            if select.select([fd], [], [], min(left, 0.5))[0]:
                seen += os.read(fd, 65536)

    def stop(self):
        """SIGINT lets ``up`` stop its nodes; the group kill afterwards
        catches any it could not, and we wait until the group is empty."""
        group = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                break
            if self.proc.poll() is None:
                self.proc.wait(timeout=10)
            time.sleep(0.05)
        self.proc.stdout.close()


def scrape(port):
    """counter name -> total across labels, from one node's endpoint."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    totals = {}
    for line in text.splitlines():
        if line.startswith("#") or "_total{" not in line:
            continue
        name = line.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(line.rsplit(" ", 1)[1])
    return totals


def predicted_listing(plan, dirs):
    """directory -> sorted names after a sequential replay of the plan."""
    listing = {"/d{}".format(i): set() for i in range(dirs)}
    for op, path, dest in plan:
        if op in ("create", "rename"):
            directory, _, name = path.rpartition("/")
            if op == "create":
                listing[directory].add(name)
            else:
                listing[directory].discard(name)
                directory, _, name = dest.rpartition("/")
                listing[directory].add(name)
    return {d: sorted(names) for d, names in listing.items()}


async def _drive(args, plan, deps, size, timed):
    env = AsyncioEnv()
    shared = ClusterShared(env, CostModel(), serve_config(args))
    network = AioNetwork(env, shared.costs, topology(
        args.host, args.base_port, args.mnodes))
    client = FalconClient(env, network, shared, "ledger", mode="vfs")
    done = [asyncio.Event() for _ in plan]
    latencies = []  # (op, wall us) of the timed ops
    outcome = {"acked": 0, "failed": 0}

    async def span(indices, workers, record):
        todo = iter(indices)

        async def worker():
            for index in todo:
                for edge in deps[index]:
                    await done[edge].wait()
                op, path, dest = plan[index]
                start = time.perf_counter()
                try:
                    await env.run_process(client_op(client, op, path, dest))
                    outcome["acked"] += 1
                except RpcFailure:
                    outcome["failed"] += 1
                if record:
                    latencies.append(
                        (op, (time.perf_counter() - start) * 1e6))
                done[index].set()

        await asyncio.gather(*(worker() for _ in range(workers)))

    try:
        # Directories first and serially, as `serve bench` does: racing a
        # create against its parent's mkdir only measures retry latency.
        await span(range(size["dirs"]), 1, False)
        await span(range(size["dirs"], size["warmup"]),
                   size["in_flight"], False)
        cpu_start = time.process_time()
        with timed:
            await span(range(size["warmup"], len(plan)),
                       size["in_flight"], True)
        cpu_s = time.process_time() - cpu_start
        listing = {}
        for i in range(size["dirs"]):
            directory = "/d{}".format(i)
            entries = await env.run_process(client.readdir(directory))
            listing[directory] = sorted(entry[0] for entry in entries)
    finally:
        await network.close()
    return latencies, outcome, cpu_s, listing


def _twin(args, plan, deps, size):
    """The plan on the simulated cluster, same config, same ops in flight;
    returns (ops/s, p50, p99) on the simulated clock, warm-up excluded."""
    cluster = FalconCluster(config=serve_config(args))
    client = cluster.add_client(mode="vfs", name="ledger")
    env = cluster.env
    done = [env.event() for _ in plan]
    latencies = []

    def span(indices, workers, record):
        todo = iter(indices)

        def worker():
            for index in todo:
                for edge in deps[index]:
                    if not done[edge].triggered:
                        yield done[edge]
                op, path, dest = plan[index]
                start = env.now
                yield from client_op(client, op, path, dest)
                if record:
                    latencies.append(env.now - start)
                done[index].succeed()

        env.run(until=env.all_of(
            [env.process(worker()) for _ in range(workers)]))

    span(range(size["dirs"]), 1, False)
    span(range(size["dirs"], size["warmup"]), size["in_flight"], False)
    start = env.now
    span(range(size["warmup"], len(plan)), size["in_flight"], True)
    latencies.sort()
    return (len(latencies) / ((env.now - start) / 1e6),
            nearest_rank(latencies, 50), nearest_rank(latencies, 99))


def live_mix(seed, size, mode):
    start = time.perf_counter()
    plan = build_workload(seed, size["ops"], size["dirs"])
    deps = plan_deps(plan)
    plan_build_s = time.perf_counter() - start
    timed = Timed(mode)
    cluster = Cluster(size["mnodes"])
    try:
        args = build_parser().parse_args(
            ["bench", "--base-port", str(cluster.base),
             "--mnodes", str(size["mnodes"])])
        latencies, outcome, cpu_s, listing = asyncio.run(
            _drive(args, plan, deps, size, timed))
        ports = topology(args.host, args.base_port + METRICS_PORT_OFFSET,
                         args.mnodes)
        scraped = {name: scrape(port) for name, (_, port) in ports.items()}
    finally:
        cluster.stop()
    servers = resource.getrusage(resource.RUSAGE_CHILDREN)

    problems = []
    lost = len(plan) - outcome["acked"] - outcome["failed"]
    if lost or outcome["failed"]:
        problems.append("{} lost, {} failed".format(lost, outcome["failed"]))
    if listing != predicted_listing(plan, size["dirs"]):
        problems.append("final readdir differs from the plan's replay")

    ordered = sorted(us for _, us in latencies)
    by_op = {}
    for op, us in latencies:
        by_op.setdefault(op, []).append(us)
    received = sum(totals.get("falconfs_received_total", 0.0)
                   for name, totals in scraped.items()
                   if name != "coordinator")
    sim_ops_per_s, sim_p50, sim_p99 = _twin(args, plan, deps, size)
    values = {
        "host_ops_per_s": len(latencies) / timed.seconds,
        "sim_ops_per_s": sim_ops_per_s,
        "sim_p50_us": sim_p50,
        "sim_p99_us": sim_p99,
        "serve.p50_us": nearest_rank(ordered, 50),
        "serve.p95_us": nearest_rank(ordered, 95),
        "serve.p99_us": nearest_rank(ordered, 99),
        "serve.max_us": ordered[-1],
        "serve.client_cpu_share": cpu_s / timed.seconds,
        "serve.server_cpu_s": servers.ru_utime + servers.ru_stime,
        "serve.mnode_received_per_op": received / len(plan),
        "serve.coordinator_ops_per_op":
            scraped["coordinator"].get("falconfs_ops_total", 0.0) / len(plan),
        "serve.boot_s": cluster.boot_s,
        "workloads.plan_build_s": plan_build_s,
    }
    for op in ("create", "stat", "open", "rename", "ls"):
        values["serve.p50_us." + op] = nearest_rank(sorted(by_op[op]), 50)
    return result_of(timed, values, len(plan), outcome["failed"] + lost,
                     problems, digest(plan))
