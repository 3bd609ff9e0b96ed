"""Fig 10 — throughput and scalability of metadata operations.

Measures peak throughput of create / unlink / getattr / mkdir / rmdir for
each system while scaling the number of metadata servers, in the paper's
best-case setup: every client thread works in its own private directory
and (for stateful clients) all directory lookups hit the client cache.
FalconFS is driven through the LibFS interface, as in §6.2.
"""

import random

from repro.experiments.common import (
    SYSTEMS,
    add_workload_client,
    build_cluster,
    prefill_dcache,
)
from repro.workloads.driver import run_closed_loop
from repro.workloads.trees import private_dirs_tree

OPS = ("create", "unlink", "getattr", "mkdir", "rmdir")


def _setup(system, num_servers, seed):
    cluster = build_cluster(system, num_mnodes=num_servers, num_storage=4,
                            seed=seed)
    client = add_workload_client(cluster, system, mode="libfs")
    return cluster, client


def _thunks(cluster, client, system, op, num_ops, num_dirs, seed):
    """Prepare state and return the operation thunks."""
    rng = random.Random(seed)
    if op in ("create", "mkdir"):
        tree = private_dirs_tree(num_dirs, files_per_dir=0)
        path_ino = cluster.bulk_load(tree)
        _warm(cluster, client, system, tree, path_ino)
        if op == "create":
            paths = [
                "{}/n{:08d}.dat".format(tree.dirs[1 + i % num_dirs], i)
                for i in range(num_ops)
            ]
            return [lambda p=p: client.create(p) for p in paths]
        paths = [
            "{}/sub{:08d}".format(tree.dirs[1 + i % num_dirs], i)
            for i in range(num_ops)
        ]
        return [lambda p=p: client.mkdir(p) for p in paths]
    if op in ("unlink", "getattr"):
        tree = private_dirs_tree(
            num_dirs, files_per_dir=(num_ops + num_dirs - 1) // num_dirs
        )
        path_ino = cluster.bulk_load(tree)
        _warm(cluster, client, system, tree, path_ino)
        paths = tree.file_paths()[:num_ops]
        if op == "getattr":
            rng.shuffle(paths)
            return [lambda p=p: client.getattr(p) for p in paths]
        return [lambda p=p: client.unlink(p) for p in paths]
    if op == "rmdir":
        tree = private_dirs_tree(num_dirs, files_per_dir=0)
        parents = tree.dirs[1:]
        targets = []
        for parent in parents:
            for i in range((num_ops + num_dirs - 1) // num_dirs):
                path = "{}/victim{:06d}".format(parent, i)
                tree.add_dir(path)
                targets.append(path)
        path_ino = cluster.bulk_load(tree)
        _warm(cluster, client, system, tree, path_ino)
        targets = targets[:num_ops]
        return [lambda p=p: client.rmdir(p) for p in targets]
    raise ValueError("unknown op {!r}".format(op))


def _warm(cluster, client, system, tree, path_ino):
    if system != "falconfs":
        prefill_dcache(client, tree, path_ino)


def measure(system, num_servers, op, num_ops=1500, threads=128, seed=0):
    """Peak throughput (ops/s) for one (system, servers, op) cell."""
    cluster, client = _setup(system, num_servers, seed)
    thunks = _thunks(cluster, client, system, op, num_ops,
                     num_dirs=threads, seed=seed)
    result = run_closed_loop(cluster, thunks, num_threads=threads)
    return result


def run(systems=SYSTEMS, servers=(4, 8, 16), ops=OPS,
        num_ops=1500, threads=128, seed=0):
    """Produce Fig 10's series: rows of (op, system, servers, kops/s)."""
    rows = []
    for op in ops:
        for system in systems:
            for count in servers:
                result = measure(system, count, op, num_ops, threads, seed)
                rows.append({
                    "op": op,
                    "system": system,
                    "servers": count,
                    "kops_per_sec": result.ops_per_sec / 1e3,
                    "errors": result.errors,
                })
    return rows


def format_rows(rows):
    from repro.experiments.common import format_table

    return format_table(
        rows, ["op", "system", "servers", "kops_per_sec", "errors"],
        title="Fig 10: metadata operation throughput (kops/s)",
    )
