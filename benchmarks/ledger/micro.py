"""Fixed-input microbenchmarks of each layer's public functions.

Every benchmark builds fresh state, times one loop of ``calls`` operations
and reports nanoseconds per call as the median of five such loops.  Inputs
(keys, names, paths) are generated from the seed; the program under test
only ever sees them.  The smoke test runs shorter loops.
"""

import asyncio
import gc
import json
import random
import statistics
import time

from repro.core.cluster import FalconCluster
from repro.core.indexing import ExceptionTable, HybridIndex, stable_hash
from repro.core.records import InodeRecord
from repro.core.shared import FalconConfig
from repro.net.costs import CostModel
from repro.net.message import Message
from repro.net.node import Node
from repro.net.transport import Network
from repro.runtime import wire
from repro.runtime.aio import AsyncioEnv
from repro.runtime.net import AioNetwork
from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store
from repro.storage.btree import BLinkTree
from repro.storage.locks import LockManager, LockMode
from repro.storage.table import Table, Transaction
from repro.storage.wal import WriteAheadLog
from repro.vfs.attrs import InodeAttrs
from repro.vfs.dcache import DentryCache
from repro.vfs.pathwalk import PathWalker, split_path

REPEATS = 5
FANOUT = 16  # train_epoch's batch size: one all_of per prefetched batch
PATH = "/data/d1/d2/d3/f00000042.dat"  # five components
CHUNK = 100  # events left queued before a drain: a busy node's backlog


def per_call_ns(prepare, calls):
    """Median ns per call; ``prepare()`` returns the loop to time."""
    samples = []
    for _ in range(REPEATS):
        loop = prepare()
        gc.collect()
        start = time.perf_counter_ns()
        loop()
        samples.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(samples)


def _run(env, generator):
    env.run(until=env.process(generator))


# -- sim ------------------------------------------------------------------


def sim_metrics(n):
    def timeouts():
        env = Environment()

        def body():
            for _ in range(n):
                yield env.schedule_timeout(1.0)
        return lambda: _run(env, body())

    def switches():
        env = Environment()

        def child():
            return
            yield

        def body():
            for _ in range(n):
                yield env.process(child())
        return lambda: _run(env, body())

    def resource_cycles():
        env = Environment()
        cpu = Resource(env, capacity=1)

        def body():
            for _ in range(n // 2):
                request = cpu.request()
                yield request
                yield env.schedule_timeout(1.0)
                cpu.release(request)
        both = [body(), body()]
        return lambda: env.run(
            until=env.all_of([env.process(b) for b in both]))

    def store_cycles():
        env = Environment()
        store = Store(env)

        def producer():
            for i in range(n):
                store.put(i)
                yield env.schedule_timeout(1.0)

        def consumer():
            for _ in range(n):
                yield store.get()
        return lambda: env.run(until=env.all_of(
            [env.process(consumer()), env.process(producer())]))

    def fanouts():
        env = Environment()

        def body():
            for _ in range(n // FANOUT):
                yield env.all_of(
                    [env.schedule_timeout(1.0) for _ in range(FANOUT)])
        return lambda: _run(env, body())

    return {
        "sim.timeout_dispatch_ns": per_call_ns(timeouts, n),
        "sim.process_switch_ns": per_call_ns(switches, n),
        "sim.resource_cycle_ns": per_call_ns(resource_cycles, n),
        "sim.store_cycle_ns": per_call_ns(store_cycles, n),
        "sim.allof_fanout_ns": per_call_ns(fanouts, n // FANOUT),
    }


# -- net ------------------------------------------------------------------


class _Sink(Node):
    """A no-op node: delivery ends at the count."""

    delivered = 0

    def deliver(self, message):
        self.delivered += 1


class _Echo(Node):
    def handle(self, message):
        self.respond(message, message.payload)
        return
        yield


def net_metrics(n):
    def sends():
        env = Environment()
        network = Network(env, CostModel())
        _Sink(env, network, "a")
        sink = _Sink(env, network, "b")

        def loop():
            for _ in range(n // CHUNK):
                for _ in range(CHUNK):
                    network.send(Message("a", "b", "noop"))
                env.run()
            assert sink.delivered == n
        return loop

    return {"net.send_deliver_ns": per_call_ns(sends, n)}


# -- runtime --------------------------------------------------------------

_CREATE = Message("client-0", "mnode-1", "create",
                  {"path": PATH, "mode": 0o644, "exclusive": True,
                   "pid": 7, "name": "f00000042.dat"})
_GETATTR_REPLY = {"attrs": {"ino": 4242, "is_dir": False, "mode": 0o644,
                            "uid": 0, "gid": 0, "size": 114688,
                            "mtime": 1234.5, "nlink": 1},
                  "xt_version": 3, "record": InodeRecord(4242)}


def _frames():
    return (wire.pack_frame(wire.encode_request(1, _CREATE, 15000.0)),
            wire.pack_frame(wire.encode_reply(1, _GETATTR_REPLY)))


def _aio_switch_ns(n):
    """Two AsyncioEnv processes ping-pong through a pair of stores."""
    async def main():
        env = AsyncioEnv()
        ping, pong = env.store(), env.store()

        def server():
            for _ in range(n):
                yield ping.get()
                pong.put(None)

        def caller():
            for _ in range(n):
                ping.put(None)
                yield pong.get()

        env.process(server())
        start = time.perf_counter_ns()
        await env.run_process(caller())
        return (time.perf_counter_ns() - start) / (2 * n)

    return statistics.median(asyncio.run(main()) for _ in range(REPEATS))


def _loopback_rtt_us(n):
    """One RPC between two in-process AioNetwork endpoints over TCP."""
    async def main():
        env = AsyncioEnv()
        costs = CostModel()
        served = AioNetwork(env, costs)
        _Echo(env, served, "server")
        await served.start("127.0.0.1", 0)
        port = served._server.sockets[0].getsockname()[1]
        calling = AioNetwork(env, costs, {"server": ("127.0.0.1", port)})
        caller = _Echo(env, calling, "caller")

        def calls(count):
            for _ in range(count):
                yield caller.call("server", "echo", _GETATTR_REPLY)

        try:
            await env.run_process(calls(20))  # dial and warm the socket
            start = time.perf_counter_ns()
            await env.run_process(calls(n))
            return (time.perf_counter_ns() - start) / n / 1e3
        finally:
            await calling.close()
            await served.close()

    return statistics.median(asyncio.run(main()) for _ in range(REPEATS))


def runtime_metrics(n):
    request, reply = _frames()

    def encodes():
        def loop():
            for _ in range(n // 2):
                _frames()
        return loop

    def decodes():
        def loop():
            for _ in range(n // 2):
                wire.decode(json.loads(request[4:].decode("utf-8")))
                wire.decode(json.loads(reply[4:].decode("utf-8")))
        return loop

    return {
        "runtime.wire_encode_ns": per_call_ns(encodes, n),
        "runtime.wire_decode_ns": per_call_ns(decodes, n),
        "runtime.frame_bytes": len(request) + len(reply),
        "runtime.aio_switch_ns": _aio_switch_ns(n),
        "runtime.loopback_rtt_us": _loopback_rtt_us(max(50, n // 10)),
    }


# -- storage --------------------------------------------------------------


def storage_metrics(n, tree_keys, rng):
    keys = [(rng.randrange(1, 4096), "f{:08d}.dat".format(i))
            for i in range(tree_keys)]
    rng.shuffle(keys)
    probes = rng.sample(keys, n)

    def loaded():
        tree = BLinkTree(order=64)
        for key in keys:
            tree.insert(key, key)
        return tree

    shared = loaded()  # the read-only benchmarks reuse one tree

    def inserts():
        tree = BLinkTree(order=64)

        def loop():
            for key in keys:
                tree.insert(key, key)
        return loop

    def gets():
        def loop():
            for key in probes:
                shared.get(key)
        return loop

    def deletes():
        tree = loaded()

        def loop():
            for key in probes:
                tree.delete(key)
        return loop

    def scans():
        def loop():
            for _ in shared.items():
                pass
        return loop

    def lock_cycles():
        env = Environment()
        locks = LockManager(env)

        def loop():
            for start in range(0, n, CHUNK):
                for key in probes[start:start + CHUNK]:
                    locks.release(locks.acquire(key, LockMode.EXCLUSIVE))
                env.run()
        return loop

    def contended_cycles():
        env = Environment()
        locks = LockManager(env)

        def loop():
            for start in range(0, n, CHUNK):
                for key in probes[start:start + CHUNK]:
                    held = locks.acquire(key, LockMode.EXCLUSIVE)
                    queued = locks.acquire(key, LockMode.EXCLUSIVE)
                    locks.release(held)
                    locks.release(queued)
                env.run()
        return loop

    txns = max(1, n // 10)

    def commits():
        env = Environment()
        costs = CostModel()
        wal = WriteAheadLog(env, costs)
        dentries, inodes = Table("dentry"), Table("inode")

        def body():
            for key in probes[:txns]:
                txn = Transaction(env, wal, costs)
                txn.put(dentries, key, key)
                txn.put(inodes, key, InodeRecord(key[0]))
                yield from txn.commit()
        return lambda: _run(env, body())

    group = 32

    def filled_wal():
        env = Environment()
        wal = WriteAheadLog(env, CostModel())

        def body():
            for base in range(0, txns * group, group):
                yield env.all_of([
                    wal.commit(160, records=1,
                               payload=[("inode", keys[(base + i) % n], i)])
                    for i in range(group)])
        return wal, lambda: _run(env, body())

    def wal_commits():
        return filled_wal()[1]

    def replays():
        wal, fill = filled_wal()
        fill()

        def loop():
            payloads, torn = wal.replay()
            assert len(payloads) == txns * group and not torn
        return loop

    out = {
        "storage.btree_insert_ns": per_call_ns(inserts, len(keys)),
        "storage.btree_get_ns": per_call_ns(gets, n),
        "storage.btree_delete_ns": per_call_ns(deletes, n),
        "storage.btree_scan_ns_per_key": per_call_ns(scans, len(keys)),
        "storage.lock_cycle_ns": per_call_ns(lock_cycles, n),
        "storage.lock_contended_cycle_ns": per_call_ns(contended_cycles, n),
        "storage.txn_commit_ns": per_call_ns(commits, txns),
        "storage.wal_commit_ns_per_record":
            per_call_ns(wal_commits, txns * group),
        "storage.wal_replay_ns_per_record": per_call_ns(replays, txns * group),
    }
    out.update(_quorum_commit(max(20, n // 100)))
    return out


def _quorum_commit(rounds):
    """``ReplicatedLog.append`` -> quorum ack, one leader + follower +
    witness group; host us and simulated us per round."""
    host, sim = [], []
    for _ in range(REPEATS):
        cluster = FalconCluster(FalconConfig(
            num_mnodes=1, num_storage=0, replication=True, consensus=True))
        log = cluster.mnodes[0].shipper
        env = cluster.env
        records = [("inode", (1, "f.dat"), InodeRecord(9))]
        gc.collect()
        sim_start = env.now
        start = time.perf_counter_ns()
        for _ in range(rounds):
            lsn = log.append(records)
            assert cluster.run_process(log.wait_quorum(lsn))
        host.append((time.perf_counter_ns() - start) / rounds / 1e3)
        sim.append((env.now - sim_start) / rounds)
    return {"storage.quorum_commit_host_us": statistics.median(host),
            "storage.quorum_commit_sim_us": statistics.median(sim)}


# -- core -----------------------------------------------------------------


def core_metrics(n, rng):
    serial = iter(range(10 ** 9))

    def hashes():
        # stable_hash memoizes, so every repeat hashes names it has not seen.
        names = ["h{}-{:08d}.dat".format(rng.random(), next(serial))
                 for _ in range(n)]

        def loop():
            for name in names:
                stable_hash(name)
        return loop

    names = ["f{:08d}.dat".format(rng.randrange(10 ** 8)) for _ in range(n)]
    table = ExceptionTable(version=1, pathwalk={"Makefile", "README.md"},
                           override={"train.idx": 2})
    index = HybridIndex(4, table)

    def locates():
        def loop():
            for pid, name in enumerate(names):
                index.locate(pid, name)
        return loop

    return {"core.stable_hash_ns": per_call_ns(hashes, n),
            "core.index_locate_ns": per_call_ns(locates, n)}


# -- vfs ------------------------------------------------------------------


class _WarmOps:
    """The walker's callbacks when every component is cached and valid."""

    def revalidate(self, entry, flags, path, ctx=None):
        return entry.attrs
        yield

    def lookup(self, parent, name, flags, path, ctx=None):
        raise AssertionError("warm walk reached lookup({})".format(name))
        yield


def vfs_metrics(n, rng):
    keys = [(rng.randrange(1, 4096), "e{:08d}".format(i)) for i in range(n)]
    attrs = InodeAttrs(ino=77, is_dir=True)

    def inserts():
        cache = DentryCache()

        def loop():
            for pid, name in keys:
                cache.insert(pid, name, attrs)
        return loop

    def lookups():
        cache = DentryCache()
        for pid, name in keys:
            cache.insert(pid, name, attrs)
        order = rng.sample(keys, len(keys))

        def loop():
            for pid, name in order:
                cache.lookup(pid, name)
        return loop

    def splits():
        def loop():
            for _ in range(n):
                split_path(PATH)
        return loop

    walks = max(1, n // 10)

    def pathwalks():
        env = Environment()
        cache = DentryCache()
        parent = 1
        for ino, name in enumerate(split_path(PATH), start=2):
            cache.insert(parent, name,
                         InodeAttrs(ino=ino, is_dir=not name.endswith(".dat")))
            parent = ino
        walker = PathWalker(env, CostModel(), cache, _WarmOps())

        def body():
            for _ in range(walks):
                yield from walker.walk(PATH)
        return lambda: _run(env, body())

    return {
        "vfs.split_path_ns": per_call_ns(splits, n),
        "vfs.dcache_lookup_ns": per_call_ns(lookups, n),
        "vfs.dcache_insert_ns": per_call_ns(inserts, n),
        "vfs.pathwalk_ns": per_call_ns(pathwalks, walks),
    }


def run_all(seed, smoke=False):
    """Every [micro] per-layer metric, name -> value."""
    rng = random.Random(seed)
    n, tree_keys = (2000, 4000) if smoke else (20000, 100000)
    out = {}
    out.update(sim_metrics(n))
    out.update(net_metrics(n))
    out.update(runtime_metrics(n // 5))
    out.update(storage_metrics(n, tree_keys, rng))
    out.update(core_metrics(n, rng))
    out.update(vfs_metrics(n, rng))
    return out
