"""Fig 15a — design contribution breakdown (mkdir throughput).

Three configurations, each removing one more design feature:

* **FalconFS** — the full system: lazy invalidation-based namespace
  replication + concurrent request merging;
* **no inv** — mkdir wraps dentry replication in an eager distributed
  transaction (2PC across all MNodes) instead of lazy synchronization;
* **no merge** — additionally disables request merging: workers fetch one
  request at a time from a contended shared queue.

The paper reports *no inv* losing 86.9 % of full throughput and
*no merge* losing an additional 91.8 %.
"""

from repro.experiments.common import build_cluster
from repro.parallel import pmap
from repro.workloads.driver import run_closed_loop
from repro.workloads.trees import private_dirs_tree

CONFIGS = (
    ("FalconFS", {}),
    ("no inv", {"eager_replication": True}),
    ("no merge", {"eager_replication": True, "merging": False}),
)


def measure(label, overrides, num_ops=1200, threads=256, num_mnodes=4,
            seed=0):
    cluster = build_cluster("falconfs", num_mnodes=num_mnodes,
                            num_storage=4, seed=seed, **overrides)
    client = cluster.add_client(mode="libfs")
    tree = private_dirs_tree(threads, files_per_dir=0)
    cluster.bulk_load(tree)
    paths = [
        "{}/sub{:08d}".format(tree.dirs[1 + i % threads], i)
        for i in range(num_ops)
    ]
    thunks = [lambda p=p: client.mkdir(p) for p in paths]
    result = run_closed_loop(cluster, thunks, num_threads=threads)
    return {
        "config": label,
        "mkdir_per_sec": result.ops_per_sec,
        "errors": result.errors,
    }


def _config_row(task):
    """One ablation configuration → its row (module-level for the
    shared ``--jobs`` pool; ``relative`` needs every row, so it is
    derived in the parent, in config order)."""
    label, overrides, kwargs = task
    return measure(label, overrides, **kwargs)


def run(configs=CONFIGS, jobs=1, **kwargs):
    rows = pmap(
        [(label, overrides, kwargs) for label, overrides in configs],
        _config_row, jobs=jobs)
    full = rows[0]["mkdir_per_sec"]
    for row in rows:
        row["relative"] = row["mkdir_per_sec"] / full if full else 0.0
    return rows


def format_rows(rows):
    from repro.experiments.common import format_table

    return format_table(
        rows, ["config", "mkdir_per_sec", "relative", "errors"],
        title="Fig 15a: design contribution breakdown (mkdir)",
    )
