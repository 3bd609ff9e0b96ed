"""Fig 11 — latency of metadata operations.

Four metadata servers, a single client thread issuing requests one at a
time.  The paper's observation to reproduce: FalconFS trades latency for
throughput (request merging adds a batching window), so it sits above
Lustre but below CephFS and JuiceFS, whose heavier stacks dominate.
"""

import random

from repro.experiments.common import (
    SYSTEMS,
    add_workload_client,
    build_cluster,
    prefill_dcache,
)
from repro.workloads.driver import measure_latency
from repro.workloads.trees import private_dirs_tree

OPS = ("create", "unlink", "getattr", "mkdir", "rmdir")


def measure(system, op, num_ops=200, seed=0):
    """Mean/percentile latency for one (system, op) pair."""
    cluster = build_cluster(system, num_mnodes=4, num_storage=4, seed=seed)
    client = add_workload_client(cluster, system, mode="libfs")
    rng = random.Random(seed)
    if op in ("create", "mkdir"):
        tree = private_dirs_tree(8, files_per_dir=0)
        path_ino = cluster.bulk_load(tree)
        if system != "falconfs":
            prefill_dcache(client, tree, path_ino)
        if op == "create":
            thunks = [
                lambda i=i: client.create(
                    "{}/n{:06d}.dat".format("/bench/t0000", i)
                )
                for i in range(num_ops)
            ]
        else:
            thunks = [
                lambda i=i: client.mkdir("/bench/t0000/sub{:06d}".format(i))
                for i in range(num_ops)
            ]
    elif op in ("unlink", "getattr"):
        tree = private_dirs_tree(8, files_per_dir=(num_ops + 7) // 8)
        path_ino = cluster.bulk_load(tree)
        if system != "falconfs":
            prefill_dcache(client, tree, path_ino)
        paths = tree.file_paths()[:num_ops]
        if op == "getattr":
            rng.shuffle(paths)
            thunks = [lambda p=p: client.getattr(p) for p in paths]
        else:
            thunks = [lambda p=p: client.unlink(p) for p in paths]
    elif op == "rmdir":
        tree = private_dirs_tree(8, files_per_dir=0)
        targets = []
        for i in range(num_ops):
            path = "/bench/t{:04d}/victim{:06d}".format(i % 8, i)
            tree.add_dir(path)
            targets.append(path)
        path_ino = cluster.bulk_load(tree)
        if system != "falconfs":
            prefill_dcache(client, tree, path_ino)
        thunks = [lambda p=p: client.rmdir(p) for p in targets]
    else:
        raise ValueError("unknown op {!r}".format(op))
    return measure_latency(cluster, thunks)


def run(systems=SYSTEMS, ops=OPS, num_ops=200, seed=0):
    rows = []
    for op in ops:
        for system in systems:
            result = measure(system, op, num_ops, seed)
            summary = result.summary()
            rows.append({
                "op": op,
                "system": system,
                "mean_us": summary["mean"],
                "p50_us": summary["p50"],
                "p99_us": summary["p99"],
            })
    return rows


def format_rows(rows):
    from repro.experiments.common import format_table

    return format_table(
        rows, ["op", "system", "mean_us", "p50_us", "p99_us"],
        title="Fig 11: metadata operation latency (us)",
    )
