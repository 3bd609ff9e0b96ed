"""Elastic namespace: scale-out with online slot rebalancing.

Not a paper figure — the paper's evaluation fixes the MNode count and
relies on hybrid indexing for static balance (Tab. 3).  This experiment
exercises the elastic half: a cluster under live client traffic grows
from 4 to 32 MNodes in doubling stages; after every stage the
coordinator's rebalancer migrates hot directory slots onto the empty
newcomers while clients keep writing and reading through the handoffs
(stale slot maps are patched lazily from ``EMOVED`` bounces).  Reported:

* per-stage timeline: node count, slots moved, slot-map epoch, and the
  inode load spread (max/mean per node) before and after rebalancing;
* client op latency (p50/p99) and error counts per stage — handoffs
  fence writers for the delta-drain instant only, so traffic continues
  throughout;
* the zero-loss audit: every create acknowledged at ANY point — before,
  during or after any migration — must be in the final namespace, as
  the checker's oracle reads it.  A single lost ack raises; migration
  has no excusal window;
* the final cluster's ``verify`` invariants (placement against the
  migrated slot map, coherence, reachability, statistics).

Everything is deterministic: the same seed yields the same traffic,
the same migration plan and the same final distribution.
"""

from repro.check.oracle import snapshot_namespace
from repro.core import FalconCluster, FalconConfig
from repro.experiments.common import format_table
from repro.metrics import percentile
from repro.net.rpc import RpcFailure


def _spread(counts):
    """max/mean load ratio; 1.0 is perfect balance."""
    mean = sum(counts) / len(counts) if counts else 0.0
    return (max(counts) / mean) if mean else 0.0


def measure(start_mnodes=4, end_mnodes=32, num_slots=64, num_storage=4,
            threads=8, num_dirs=8, stage_us=20000.0,
            rpc_timeout_us=400.0, seed=0):
    """Grow ``start_mnodes`` -> ``end_mnodes`` under live traffic;
    returns a result dict.  Raises if any acked create is lost."""
    cluster = FalconCluster(FalconConfig(
        replication=True, num_mnodes=start_mnodes, num_storage=num_storage,
        rpc_timeout_us=rpc_timeout_us, num_slots=num_slots, seed=seed,
    ))
    fs = cluster.fs()
    for d in range(num_dirs):
        fs.mkdir("/w{}".format(d))
    cluster.run_for(5000.0)  # drain setup shipments
    env = cluster.env
    coordinator = cluster.coordinator

    client = cluster.add_client(mode="libfs")
    acked = []              # paths whose create was acknowledged OK
    records = []            # (start_us, end_us, ok, stage_index)
    state = {"stop": False, "stage": 0}

    def worker(wid):
        i = 0
        while not state["stop"]:
            path = "/w{}/f{}-{}".format(wid % num_dirs, wid, i)
            start = env.now
            try:
                yield from client.create(path, exclusive=False)
            except RpcFailure:
                records.append((start, env.now, False, state["stage"]))
            else:
                acked.append(path)
                records.append((start, env.now, True, state["stage"]))
            i += 1
            yield env.timeout(40.0 + 10.0 * (wid % 4))

    workers = [env.process(worker(w)) for w in range(threads)]

    # Doubling stages: 4 -> 8 -> 16 -> 32 (or whatever end_mnodes is).
    targets = []
    n = start_mnodes
    while n < end_mnodes:
        n = min(n * 2, end_mnodes)
        targets.append(n)

    stages = []
    moved_before = 0
    for target in targets:
        cluster.run_for(stage_us)  # live traffic at the current scale
        pre = cluster.inode_distribution()
        while len(cluster.mnodes) < target:
            cluster.add_mnode()
        plan = env.process(coordinator.rebalance_slots(
            max_moves=num_slots, reason="scale-out"))
        env.run(until=plan)
        cluster.run_for(3000.0)  # drain purges and shipments
        post = cluster.inode_distribution()
        moved_total = len(coordinator.migration_log)
        stage_records = [r for r in records if r[3] == state["stage"]]
        latencies = [end - start for start, end, ok, _ in stage_records]
        stages.append({
            "nodes": target,
            "moves": moved_total - moved_before,
            "epoch": cluster.shared.slot_map.epoch,
            "spread_before": _spread(pre),
            "spread_after": _spread(post),
            "ops": len(stage_records),
            "errors": sum(1 for _, _, ok, _ in stage_records if not ok),
            "p50_us": percentile(latencies, 50) if latencies else 0.0,
            "p99_us": percentile(latencies, 99) if latencies else 0.0,
        })
        moved_before = moved_total
        state["stage"] += 1

    cluster.run_for(stage_us)  # final stage of traffic at full scale
    state["stop"] = True
    env.run(until=env.all_of(workers))
    cluster.run_for(10000.0)  # quiesce: shipments, purges

    # -- zero-loss audit: the workload only creates, so every acked
    # path must be in the final namespace ------------------------------
    namespace = snapshot_namespace(cluster)
    lost = [path for path in acked if path not in namespace]
    if lost:
        raise RuntimeError(
            "{} acked creates lost across {} migrations (first: {})"
            .format(len(lost), len(coordinator.migration_log), lost[0]))

    verify = cluster.verify()
    aborted = sum(1 for r in coordinator.migration_log
                  if r["status"] == "aborted")
    return {
        "stages": stages,
        "acked": len(acked),
        "migrations": len(coordinator.migration_log),
        "aborted": aborted,
        "final_epoch": cluster.shared.slot_map.epoch,
        "final_counts": cluster.inode_distribution(),
        "patches": client.metrics.counter("slot_map_patches").total(),
        "verify": "ok ({} inodes)".format(verify["inodes"]),
        "cluster": cluster,
    }


def run(**kwargs):
    result = measure(**kwargs)
    rows = []
    for stage in result["stages"]:
        row = {"kind": "stage"}
        row.update(stage)
        rows.append(row)
    counts = result["final_counts"]
    rows.append({
        "kind": "summary",
        "nodes": len(counts),
        "migrations": result["migrations"],
        "aborted": result["aborted"],
        "epoch": result["final_epoch"],
        "acked": result["acked"],
        "lost_acked": 0,  # measure() raises on any loss
        "spread": round(_spread(counts), 3),
        "map_patches": result["patches"],
        "verify": result["verify"],
    })
    return rows


def format_rows(rows):
    stage_rows = [r for r in rows if r.get("kind") == "stage"]
    summary_rows = [r for r in rows if r.get("kind") == "summary"]
    for row in stage_rows:
        row["spread_before"] = round(row["spread_before"], 3)
        row["spread_after"] = round(row["spread_after"], 3)
    out = format_table(
        stage_rows,
        ["nodes", "moves", "epoch", "spread_before", "spread_after",
         "ops", "errors", "p50_us", "p99_us"],
        title="Scale-out stages (live traffic through slot handoffs)",
    )
    out += "\n\n" + format_table(
        summary_rows,
        ["nodes", "migrations", "aborted", "epoch", "acked",
         "lost_acked", "spread", "map_patches", "verify"],
        title="Elastic rebalance summary (zero lost acked ops required)",
    )
    return out
