"""Reference runs for the vfs client's private walk.

One case is a fresh two-MNode cluster holding a single file ``depth``
components deep, one ``vfs`` client, and the clock advanced to a start
offset no binary float represents (``0.1 + k * 0.7`` us) before three
operations run back to back:

* ``cold``  — ``getattr`` of the file through an empty dentry cache
  (every ancestor misses and is inserted with fake attributes);
* ``warm``  — the same ``getattr`` again (every ancestor hits);
* ``fake``  — ``getattr`` of the file's parent directory, whose cached
  entry is a fake one left by the walks above, so ``d_revalidate`` must
  drop it (depth >= 2 only).

After each operation the case records the simulated clock and the whole
client-side cache state: hits, misses, the LRU key order and the
``revalidate_fake`` count.  The traced twin of the case records
``analysis.breakdown``'s per-operation category sums instead.

``tests/golden/vfs_walk.json`` was generated at commit ``f568d5d``,
where the client charged ``client_op_us`` and each ancestor's
``cache_probe_us`` as separate heap entries and probed the cache between
them.  The coalesced walk (one sleep to an absolute time computed slice
by slice, then the probes) must reproduce it bit for bit.  Regenerate
only when a PR deliberately changes simulated client costs::

    PYTHONPATH=src python -m tests.golden_walk_workload
"""

import json

from repro.analysis.breakdown import op_breakdowns
from repro.experiments.common import build_cluster
from repro.obs import Tracer
from repro.workloads.trees import TreeSpec

WALK_GOLDEN_PATH = "tests/golden/vfs_walk.json"

DEPTHS = range(1, 9)
OFFSETS = (0, 1, 3, 7, 12)


def _tree(depth):
    tree = TreeSpec("chain-{}".format(depth))
    directory = ""
    for level in range(1, depth):
        directory = tree.add_dir("{}/a{}".format(directory, level))
    tree.add_file("{}/f.dat".format(directory), 4096)
    return tree, directory


def _cache_state(env, client):
    return {
        "now": env.now,
        "hits": client.dcache.hits,
        "misses": client.dcache.misses,
        "lru": [[entry.parent_ino, entry.name]
                for entry in client.dcache.entries()],
        "revalidate_fake":
            client.metrics.counter("revalidate_fake").total(),
    }


def run_case(depth, k, traced=False):
    """One case; ``{op label: cache state}`` or, traced, the list of
    per-operation breakdowns (op ids dropped)."""
    tracer = Tracer() if traced else None
    cluster = build_cluster("falconfs", num_mnodes=2, num_storage=2,
                            seed=3, tracer=tracer)
    client = cluster.add_client(mode="vfs")
    tree, parent = _tree(depth)
    cluster.bulk_load(tree)
    env = cluster.env
    env.run(until=0.1 + k * 0.7)
    path = tree.file_paths()[0]
    plan = [("cold", path), ("warm", path)]
    if parent:
        plan.append(("fake", parent))
    states = {}
    for label, target in plan:
        cluster.run_process(client.getattr(target))
        states[label] = _cache_state(env, client)
    if not traced:
        return states
    return [
        {key: value for key, value in breakdown.items() if key != "op_id"}
        for breakdown in op_breakdowns(tracer.spans)
    ]


def case_id(depth, k, traced):
    return "depth{}-k{}-{}".format(depth, k, "traced" if traced else "plain")


def run_all():
    return {
        case_id(depth, k, traced): run_case(depth, k, traced)
        for depth in DEPTHS for k in OFFSETS for traced in (False, True)
    }


def main():
    with open(WALK_GOLDEN_PATH, "w") as handle:
        json.dump(run_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
