"""MNode crash + standby promotion: availability and the lost window.

Not a paper figure — the paper's MNodes inherit PostgreSQL
primary-standby replication (§4.3) but its evaluation never kills one.
This experiment does: a seeded fault schedule crashes one MNode
mid-workload, the coordinator's heartbeat detector declares it dead,
promotes its standby into the cluster directory, and clients retry
transparently onto the replacement.  Reported:

* client op latency (p50/p99) before, during and after the failover,
  plus the worst single-op stall;
* the failover timeline: crash -> detection -> promotion -> repaired;
* the lost-unshipped-transaction window — committed transactions the
  asynchronous shipper had not replicated at the crash (equal to the
  replication lag at that instant);
* the recovered cluster's ``verify`` invariants (placement, replica
  coherence, reachability, statistics).

Everything is deterministic: the same seed yields the same crash time,
victim, gap and lost window.
"""

from repro.experiments.common import (
    drive_clients,
    format_table,
    phase_buckets,
    replicated_cluster,
)
from repro.faults import FaultInjector
from repro.metrics import percentile


def measure(num_mnodes=4, num_storage=2, threads=12, num_dirs=4,
            duration_us=30000.0, warm_us=8000.0, rpc_timeout_us=400.0,
            seed=0):
    """Run one crash-and-recover scenario; returns a result dict."""
    cluster = replicated_cluster(
        num_dirs, num_mnodes=num_mnodes, num_storage=num_storage,
        rpc_timeout_us=rpc_timeout_us, seed=seed,
    )
    env = cluster.env
    cluster.start_failure_detection()
    crash_at = env.now + warm_us
    victim = FaultInjector(cluster).apply(
        {"kind": "crash", "at_us": crash_at}).event["index"]

    end_at = env.now + duration_us
    records, _ = drive_clients(cluster, threads, num_dirs, duration_us)
    cluster.detector.stop()
    cluster.run_for(20000.0)  # quiesce: shipments, invalidations

    if not cluster.coordinator.failover_log:
        raise RuntimeError("failover never completed (run too short?)")
    failover = cluster.coordinator.failover_log[0]
    detection = cluster.detector.log[0]
    crash = cluster.crash_log[0]
    verify = cluster.verify()

    phases = phase_buckets(records, crash_at, failover["recovered_at"])
    windows = {
        "before": crash_at - (end_at - duration_us),
        "during": failover["recovered_at"] - crash_at,
        "after": end_at - failover["recovered_at"],
    }
    overlapping = [
        end - start for start, end, _, _ in records
        if start <= crash_at <= end
    ]
    return {
        "phases": phases,
        "windows": windows,
        "victim": victim,
        "crash_at_us": crash["at"],
        "lag_at_crash": crash["lag_at_crash"],
        "detection_us": detection["declared_at"] - crash["at"],
        "gap_us": failover["recovered_at"] - crash["at"],
        "max_stall_us": max(overlapping) if overlapping else 0.0,
        "lost_txns": failover["lost_txns"],
        "orphans_removed": failover["orphans_removed"],
        "verify": "ok ({} inodes)".format(verify["inodes"]),
        "cluster": cluster,
    }


def run(**kwargs):
    result = measure(**kwargs)
    rows = []
    for phase in ("before", "during", "after"):
        records = result["phases"][phase]
        latencies = [end - start for start, end, _, _ in records]
        errors = sum(1 for _, _, ok, _ in records if not ok)
        rows.append({
            "kind": "phase",
            "phase": phase,
            "window_us": result["windows"][phase],
            "ops": len(latencies),
            "errors": errors,
            "p50_us": percentile(latencies, 50) if latencies else 0.0,
            "p99_us": percentile(latencies, 99) if latencies else 0.0,
        })
    rows.append({
        "kind": "failover",
        "victim": "mnode-{}".format(result["victim"]),
        "crash_at_us": result["crash_at_us"],
        "detection_us": result["detection_us"],
        "gap_us": result["gap_us"],
        "max_stall_us": result["max_stall_us"],
        "lost_txns": result["lost_txns"],
        "orphans_removed": result["orphans_removed"],
        "verify": result["verify"],
    })
    return rows


def format_rows(rows):
    phase_rows = [r for r in rows if r.get("kind") == "phase"]
    failover_rows = [r for r in rows if r.get("kind") == "failover"]
    out = format_table(
        phase_rows,
        ["phase", "window_us", "ops", "errors", "p50_us", "p99_us"],
        title="Client ops through an MNode crash",
    )
    out += "\n\n" + format_table(
        failover_rows,
        ["victim", "crash_at_us", "detection_us", "gap_us", "max_stall_us",
         "lost_txns", "orphans_removed", "verify"],
        title="Failover timeline (crash -> detect -> promote -> repair)",
    )
    return out
