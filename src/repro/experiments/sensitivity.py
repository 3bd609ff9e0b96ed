"""Sensitivity sweeps over FalconFS's own design parameters.

Beyond the paper's ablation (Fig 15a), DESIGN.md calls out the design
choices worth sweeping:

* **merge window** (``merge_linger_us``) — the throughput/latency trade
  behind Fig 11's discussion: a longer accumulation window grows batches
  (better amortization) but inflates per-op latency;
* **maximum batch size** (``max_batch``) — how much coalescing helps
  before it saturates;
* **load-balance epsilon** — tighter bounds need more exception-table
  entries (§4.2.2's size/quality trade).
"""

from repro.core import FalconCluster, FalconConfig
from repro.parallel import pmap
from repro.workloads.driver import measure_latency, run_closed_loop
from repro.workloads.trees import TreeSpec, private_dirs_tree


def _merge_linger_row(task):
    """One merge-window grid point → its row (module-level so the
    shared ``--jobs`` pool can ship it to a worker)."""
    linger, num_ops, threads, seed = task
    config = FalconConfig(num_mnodes=4, num_storage=4,
                          merge_linger_us=linger, seed=seed)
    cluster = FalconCluster(config)
    client = cluster.add_client(mode="libfs")
    tree = private_dirs_tree(threads, files_per_dir=0)
    cluster.bulk_load(tree)
    paths = [
        "{}/f{:06d}".format(tree.dirs[1 + i % threads], i)
        for i in range(num_ops)
    ]
    result = run_closed_loop(
        cluster, [lambda p=p: client.create(p) for p in paths],
        num_threads=threads,
    )
    # Latency probe on a fresh cluster with one thread.
    lat_cluster = FalconCluster(FalconConfig(
        num_mnodes=4, num_storage=4, merge_linger_us=linger, seed=seed,
    ))
    lat_client = lat_cluster.add_client(mode="libfs")
    lat_tree = private_dirs_tree(4, files_per_dir=0)
    lat_cluster.bulk_load(lat_tree)
    latency = measure_latency(lat_cluster, [
        lambda i=i: lat_client.create("/bench/t0000/l{:04d}".format(i))
        for i in range(100)
    ])
    batch = sum(
        m.pool.average_batch_size for m in cluster.mnodes
    ) / len(cluster.mnodes)
    return {
        "param": "merge_linger_us",
        "value": linger,
        "create_per_sec": result.ops_per_sec,
        "mean_latency_us": latency.mean_us,
        "avg_batch": batch,
    }


def _max_batch_row(task):
    """One batch-cap grid point → its row."""
    max_batch, num_ops, threads, seed = task
    config = FalconConfig(num_mnodes=4, num_storage=4,
                          max_batch=max_batch, seed=seed)
    cluster = FalconCluster(config)
    client = cluster.add_client(mode="libfs")
    tree = private_dirs_tree(threads, files_per_dir=0)
    cluster.bulk_load(tree)
    paths = [
        "{}/f{:06d}".format(tree.dirs[1 + i % threads], i)
        for i in range(num_ops)
    ]
    result = run_closed_loop(
        cluster, [lambda p=p: client.create(p) for p in paths],
        num_threads=threads,
    )
    wal = sum(m.wal.records_per_flush for m in cluster.mnodes) / 4
    return {
        "param": "max_batch",
        "value": max_batch,
        "create_per_sec": result.ops_per_sec,
        "wal_records_per_flush": wal,
    }


def _epsilon_row(task):
    """One balance-epsilon grid point → its row."""
    epsilon, num_dirs, seed = task
    cluster = FalconCluster(FalconConfig(
        num_mnodes=8, num_storage=2, epsilon=epsilon, seed=seed,
    ))
    tree = TreeSpec("hot")
    tree.add_dir("/data")
    serial = 0
    for d in range(num_dirs):
        directory = tree.add_dir("/data/d{:03d}".format(d))
        for hot in ("hot.dat", "warm.dat"):
            tree.add_file("{}/{}".format(directory, hot), 0)
        for _ in range(2):
            tree.add_file(
                "{}/u{:06d}.dat".format(directory, serial), 0
            )
            serial += 1
    cluster.bulk_load(tree)
    cluster.rebalance()
    counts = cluster.inode_distribution()
    return {
        "param": "epsilon",
        "value": epsilon,
        "table_entries": len(cluster.exception_table),
        "max_share_pct": 100 * max(counts) / sum(counts),
    }


#: Dispatch table so one task list (and one shared pool) covers the
#: whole grid; tasks are ("sweep-name", point-args) pairs.
_POINT_FNS = {
    "merge_linger": _merge_linger_row,
    "max_batch": _max_batch_row,
    "epsilon": _epsilon_row,
}


def _point_row(task):
    name, args = task
    return _POINT_FNS[name](args)


def run(num_ops=1500, threads=256, seed=0, jobs=1):
    # One combined grid so every point shares the same pool — a short
    # sweep never leaves workers idle while another sweep queues.
    tasks = [("merge_linger", (linger, num_ops, threads, seed))
             for linger in (0.0, 4.0, 16.0, 64.0)]
    tasks.extend(("max_batch", (batch, num_ops, threads, seed))
                 for batch in (1, 4, 16, 64))
    tasks.extend(("epsilon", (epsilon, 120, seed))
                 for epsilon in (0.005, 0.02, 0.08))
    return pmap(tasks, _point_row, jobs=jobs)


def format_rows(rows):
    from repro.experiments.common import format_table

    columns = sorted({key for row in rows for key in row},
                     key=lambda k: (k not in ("param", "value"), k))
    return format_table(rows, columns,
                        title="Design-parameter sensitivity sweeps")
