"""One repetition of each workload, run inside a fresh child process.

Each function builds its inputs from the seed, runs the timed region with
tracing off (or, for the traced pass, under cProfile or with a ``Tracer``),
checks the outputs, and returns a plain dict: ``values`` (metric name ->
number), ``timed_s``, ``setup_done`` (monotonic instant the timed region
began), ``attempted`` / ``failed``, ``problems`` (correctness violations)
and ``inputs`` (a digest of the generated inputs).  Layers are measured
from outside: public calls are timed and exposed counters are read.
"""

import cProfile
import gc
import hashlib
import random
import time
from collections import Counter

from repro.check.schedule import generate_schedule
from repro.check.worker import explore_seed
from repro.experiments import failover
from repro.experiments.common import build_cluster
from repro.metrics.stats import coefficient_of_variation
from repro.obs import Tracer
from repro.workloads.driver import run_closed_loop, training_run
from repro.workloads.trees import (flat_burst_tree, private_dirs_tree,
                                   uniform_tree)

import tracing
from metrics import PROFILE, SPANS


class Timed:
    """The timed region: ``gc.collect()`` first, then wall time around the
    body; in profile mode the body also runs under cProfile."""

    def __init__(self, mode):
        self.profile = cProfile.Profile() if mode == PROFILE else None
        self.seconds = 0.0
        self.setup_done = None

    def __enter__(self):
        gc.collect()
        if self.setup_done is None:
            self.setup_done = time.monotonic()
        if self.profile is not None:
            self.profile.enable()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start
        if self.profile is not None:
            self.profile.disable()


def nearest_rank(ordered, q):
    """The q-th percentile of an ascending list, no interpolation."""
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def digest(items):
    blob = hashlib.sha256()
    for item in items:
        blob.update(repr(item).encode())
    return blob.hexdigest()[:16]


def result_of(timed, values, attempted, failed, problems, inputs,
              tracer=None):
    result = {
        "values": values, "timed_s": timed.seconds,
        "setup_done": timed.setup_done, "attempted": attempted,
        "failed": failed, "problems": problems, "inputs": inputs,
    }
    if timed.profile is not None:
        result["layers"] = tracing.layer_shares(timed.profile)
    if tracer is not None:
        result["sim_us"] = tracing.component_us_per_op(tracer.spans)
        result["spans"] = tracer.spans
    return result


# -- counters the simulated cluster exposes ------------------------------


def _total(owners, name):
    return sum(o.metrics.counter(name).total() for o in owners)


def snapshot(cluster, clients):
    """Every exposed counter the per-layer count metrics are built from."""
    net = cluster.network
    wals = [m.wal for m in cluster.mnodes]
    batches = [m.metrics.histogram("batch_size").values
               for m in cluster.mnodes]
    return {
        "events": cluster.env.events_scheduled,
        "messages": net.message_count() + net.response_count(),
        "bytes": (net.metrics.counter("bytes").total()
                  + net.metrics.counter("response_bytes").total()),
        "wal_flushes": sum(w.flush_count for w in wals),
        "wal_records": sum(w.records_written for w in wals),
        "wal_bytes": sum(w.bytes_written for w in wals),
        "batches": sum(len(b) for b in batches),
        "batched_ops": sum(sum(b) for b in batches),
        "requests": _total(clients, "requests"),
        "forwarded": _total(cluster.mnodes, "forwarded"),
        "remote_lookups": _total(cluster.mnodes, "remote_lookups"),
        "coordinator_ops": cluster.coordinator.metrics.counter("ops").total(),
        "blocks_read": sum(s.metrics.counter("blocks").get("read")
                           for s in cluster.storage),
        "dcache_hits": sum(c.dcache.hits for c in clients),
        "dcache_misses": sum(c.dcache.misses for c in clients),
        "revalidate_fake": _total(clients, "revalidate_fake"),
    }


def count_metrics(cluster, clients, before, after, ops, files=0):
    """Per-layer [count] metrics of one simulated timed region."""
    d = {key: after[key] - before[key] for key in after}
    probes = d["dcache_hits"] + d["dcache_misses"]
    return {
        "sim.events_per_op": d["events"] / ops,
        "net.messages_per_op": d["messages"] / ops,
        "net.bytes_per_op": d["bytes"] / ops,
        "storage.wal_flushes_per_op": d["wal_flushes"] / ops,
        "storage.wal_records_per_flush":
            d["wal_records"] / d["wal_flushes"] if d["wal_flushes"] else 0.0,
        "storage.wal_bytes_per_op": d["wal_bytes"] / ops,
        "core.batch_size_mean":
            d["batched_ops"] / d["batches"] if d["batches"] else 0.0,
        "core.requests_per_op": d["requests"] / ops,
        "core.forwarded_per_op": d["forwarded"] / ops,
        "core.remote_lookups_per_op": d["remote_lookups"] / ops,
        "core.coordinator_ops_per_op": d["coordinator_ops"] / ops,
        "core.blocks_per_file": d["blocks_read"] / files if files else 0.0,
        "core.inode_cv":
            coefficient_of_variation(cluster.inode_distribution()),
        "vfs.dcache_hit_rate": d["dcache_hits"] / probes if probes else 0.0,
        "vfs.dcache_bytes": sum(c.dcache.bytes_used for c in clients),
        "vfs.revalidate_fake_per_op": d["revalidate_fake"] / ops,
    }


def simulated_values(timed, ops, elapsed_us, latencies, counts):
    latencies.sort()
    values = {
        "host_ops_per_s": ops / timed.seconds,
        "sim_ops_per_s": ops / (elapsed_us / 1e6),
        "sim_p50_us": nearest_rank(latencies, 50),
        "sim_p99_us": nearest_rank(latencies, 99),
        "sim.host_us_per_event":
            timed.seconds * 1e6 / (counts["sim.events_per_op"] * ops),
    }
    values.update(counts)
    return values


def _verified(cluster, problems):
    try:
        cluster.verify()
    except AssertionError as violation:
        problems.append("cluster.verify: {}".format(violation))


def _closed_loop(cluster, clients, op, paths, threads, mode, tracer):
    """The shared body of the two metadata workloads."""
    env = cluster.env
    latencies = []

    def timed_op(path):
        start = env.now
        yield from op(path)
        latencies.append(env.now - start)

    thunks = [lambda p=p: timed_op(p) for p in paths]
    before = snapshot(cluster, clients)
    with Timed(mode) as timed:
        result = run_closed_loop(cluster, thunks, num_threads=threads)
    counts = count_metrics(cluster, clients, before,
                           snapshot(cluster, clients), len(paths))
    problems = []
    if result.errors:
        problems.append("{} RpcFailures".format(result.errors))
    _verified(cluster, problems)
    values = simulated_values(timed, len(paths), result.elapsed_us,
                              latencies, counts)
    return result_of(timed, values, len(paths), result.errors, problems,
                     digest(paths), tracer)


# -- the three simulated workloads ---------------------------------------


def _cluster(size, mode):
    """A fresh FalconFS cluster (fixed cluster seed), traced in spans mode."""
    tracer = Tracer() if mode == SPANS else None
    cluster = build_cluster("falconfs", num_mnodes=size["mnodes"],
                            num_storage=size["storage"], seed=0,
                            tracer=tracer)
    return cluster, tracer


def create_storm(seed, size, mode):
    cluster, tracer = _cluster(size, mode)
    client = cluster.add_client(mode="libfs")
    threads = size["threads"]
    tree = private_dirs_tree(threads, files_per_dir=0)
    cluster.bulk_load(tree)
    paths = ["{}/n{:08d}.dat".format(tree.dirs[1 + i % threads], i)
             for i in range(size["ops"])]
    random.Random(seed).shuffle(paths)
    return _closed_loop(cluster, [client], client.create, paths, threads,
                        mode, tracer)


def deep_stat(seed, size, mode):
    cluster, tracer = _cluster(size, mode)
    client = cluster.add_client(mode="vfs")
    tree = uniform_tree(levels=size["levels"], dir_fanout=size["fanout"],
                        files_per_leaf=size["files_per_leaf"])
    cluster.bulk_load(tree)
    paths = tree.file_paths()
    random.Random(seed).shuffle(paths)
    return _closed_loop(cluster, [client], client.getattr, paths,
                        size["threads"], mode, tracer)


class _ReadRecorder:
    """Stands in for a client in ``training_run``: delegates ``read_file``
    and records each read's simulated latency and path."""

    def __init__(self, client, env, latencies, reads):
        self.client = client
        self.env = env
        self.latencies = latencies
        self.reads = reads

    def read_file(self, path):
        start = self.env.now
        size = yield from self.client.read_file(path)
        self.latencies.append(self.env.now - start)
        self.reads[path] += 1
        return size


def train_epoch(seed, size, mode):
    tree = flat_burst_tree(size["dirs"], size["files_per_dir"],
                           size["file_bytes"], root="/dataset")
    cluster, tracer = _cluster(size, mode)
    clients = [cluster.add_client(mode="vfs")
               for _ in range(size["clients"])]
    cluster.bulk_load(tree)
    files = tree.file_paths()
    env = cluster.env
    latencies, reads = [], Counter()
    recorders = [_ReadRecorder(c, env, latencies, reads) for c in clients]
    rng = random.Random(seed)
    before = snapshot(cluster, clients)
    start_us = env.now
    problems = []
    with Timed(mode) as timed:
        utilization = training_run(
            cluster, recorders, files, size["gpus"], size["batch"],
            size["compute_us"], rng=rng)
    counts = count_metrics(cluster, clients, before,
                           snapshot(cluster, clients), len(files),
                           files=len(files))
    if set(reads.values()) != {1} or len(reads) != len(files):
        problems.append("epoch did not read every file exactly once")
    _verified(cluster, problems)
    values = simulated_values(timed, len(files), env.now - start_us,
                              latencies, counts)
    values["workloads.accelerator_utilization"] = utilization
    return result_of(timed, values, len(files), 0, problems,
                     digest([seed, len(files)]), tracer)


# -- fault_sweep ----------------------------------------------------------


def fault_sweep(seed, size, mode):
    # Checker seeds come from the pool every earlier sweep found clean:
    # a benchmark needs workloads on which no operation fails, and blocks
    # of unswept seeds hold real violations (see CHANGES.md).
    seeds = sorted(random.Random(seed).sample(
        range(size["seed_pool"]), size["seeds_per_mix"]))
    tasks = [(mix, s) for mix in size["mixes"] for s in seeds]
    values, problems = {}, []
    stats, durations = Counter(), []
    timed = Timed(mode)
    sweep_s = 0.0
    for mix in size["mixes"]:
        with timed:
            start = time.perf_counter()
            records = [explore_seed((s, {"nemesis_mix": mix}))
                       for s in seeds]
            mix_s = time.perf_counter() - start
        sweep_s += mix_s
        values["check.host_ms_per_schedule." + mix] = (
            mix_s * 1e3 / len(records))
        for record in records:
            if record["failed"]:
                problems.append("{} seed {}: {}".format(
                    mix, record["seed"],
                    record["result"]["violations"][:1]))
            else:
                stats.update(record["stats"])
                durations.append(record["stats"]["final_now_us"])
    with timed:
        crash = failover.measure(
            threads=size["failover_threads"],
            duration_us=size["failover_duration_us"],
            warm_us=size["failover_warm_us"], seed=seed)
    if crash["lost_txns"]:
        problems.append("failover lost {} txns".format(crash["lost_txns"]))
    # Schedule generation runs inside explore_seed; timing a second pass
    # outside the timed region prices it without touching the program.
    start = time.perf_counter()
    for mix, s in tasks:
        generate_schedule(s, nemesis_mix=mix)
    generate_s = time.perf_counter() - start

    # An op of this workload is one schedule: its simulated duration is
    # the latency, schedules per simulated second the modelled throughput.
    if not durations:
        raise RuntimeError("every schedule violated its oracle: "
                           + "; ".join(problems[:3]))
    durations.sort()
    clean = len(durations)
    bad = len(tasks) - clean
    values.update({
        "host_ops_per_s": len(tasks) / sweep_s,
        "sim_ops_per_s": clean / (sum(durations) / 1e6),
        "sim_p50_us": nearest_rank(durations, 50),
        "sim_p99_us": nearest_rank(durations, 99),
        "faults.failover_gap_sim_us": crash["gap_us"],
        "check.generate_ms_per_schedule": generate_s * 1e3 / len(tasks),
        "check.ops_per_schedule": stats["ops_total"] / clean,
        "check.nemeses_per_schedule": stats["nemesis_fired"] / clean,
        "check.promotions_per_schedule": stats["promotions"] / clean,
        "check.sim_us_per_schedule": sum(durations) / clean,
    })
    return result_of(timed, values, len(tasks), bad, problems,
                     digest(tasks))
