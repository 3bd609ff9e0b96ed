"""Per-component latency breakdown of metadata and data operations.

A Fig 11 companion: the same single-threaded latency setup, but with the
cluster-wide tracer enabled, so every operation's latency decomposes into
network, queueing, locking, WAL, disk and CPU time.  The FalconFS rows
show where request merging moves time (queue/wal amortized across batch
members); the baseline rows show the per-request journaling and lookup
round trips the paper attributes to stateful-client designs (§2, §6.2).
"""

import random

from repro.analysis.breakdown import breakdown_rows
from repro.experiments.common import (
    add_workload_client,
    build_cluster,
    prefill_dcache,
)
from repro.obs import Tracer
from repro.workloads.trees import private_dirs_tree

#: FalconFS plus one representative baseline by default; pass more
#: systems for the full comparison.
DEFAULT_SYSTEMS = ("falconfs", "cephfs")


def trace_system(system, num_ops=120, file_size=64 << 10, seed=0):
    """Run a small mixed workload under tracing; returns the tracer."""
    tracer = Tracer()
    cluster = build_cluster(system, num_mnodes=4, num_storage=4,
                            seed=seed, tracer=tracer)
    client = add_workload_client(cluster, system, mode="libfs")
    tree = private_dirs_tree(8, files_per_dir=0)
    path_ino = cluster.bulk_load(tree)
    if system != "falconfs":
        prefill_dcache(client, tree, path_ino)
    rng = random.Random(seed)
    fs = cluster.fs(client)
    paths = []
    for i in range(num_ops // 4):
        path = "/bench/t{:04d}/f{:06d}.dat".format(i % 8, i)
        fs.write(path, size=file_size)
        paths.append(path)
    for path in rng.sample(paths, len(paths)):
        fs.getattr(path)
    for path in paths:
        fs.read(path)
    for path in paths:
        fs.unlink(path)
    return tracer


def run(systems=DEFAULT_SYSTEMS, num_ops=120, file_size=64 << 10, seed=0):
    rows = []
    for system in systems:
        tracer = trace_system(system, num_ops=num_ops,
                              file_size=file_size, seed=seed)
        for row in breakdown_rows(tracer.spans):
            row = dict(row)
            row["system"] = system
            rows.append(row)
    return rows


def format_rows(rows):
    from repro.experiments.common import format_table

    return format_table(
        rows,
        ["system", "op", "count", "mean_us", "net_us", "queue_us",
         "lock_us", "wal_us", "disk_us", "cpu_us", "retry_us", "other_us"],
        title="Latency breakdown by component (us, mean per op)",
    )
