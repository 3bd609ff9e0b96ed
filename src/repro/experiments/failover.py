"""MNode crash + standby promotion: availability and the lost window.

Not a paper figure — the paper's MNodes inherit PostgreSQL
primary-standby replication (§4.3) but its evaluation never kills one.
This experiment does: a checker schedule crashes one MNode mid-workload,
the coordinator's heartbeat detector declares it dead, promotes its
standby into the cluster directory, and clients retry transparently
onto the replacement.  Reported:

* client op latency (p50/p99) before, during and after the failover,
  plus the worst single-op stall;
* the failover timeline: crash -> detection -> promotion -> repaired;
* the lost-unshipped-transaction window — committed transactions the
  asynchronous shipper had not replicated at the crash, asserted equal
  to the replication lag at that instant;
* the checker's verdict on the healed cluster: the oracle over every
  acknowledgement, the structural invariants (placement, replica
  coherence, reachability, statistics), runtime residue and
  primary/standby convergence — any violation raises.

Everything is deterministic: the same seed yields the same crash time,
victim, gap and lost window.
"""

from repro.experiments.common import (
    fault_schedule,
    format_table,
    phase_stats,
    run_checked,
    victim,
)


def measure(num_mnodes=4, num_storage=2, threads=12, num_dirs=4,
            duration_us=30000.0, warm_us=8000.0, rpc_timeout_us=400.0,
            seed=0):
    """Run one crash-and-recover schedule under the checker; returns a
    result dict whose ``run`` is the checker's result."""
    index = victim(seed, num_mnodes)
    result = run_checked(fault_schedule(
        seed, [{"kind": "crash", "at_us": warm_us, "index": index}],
        threads, num_dirs, duration_us, num_mnodes=num_mnodes,
        num_storage=num_storage, rpc_timeout_us=rpc_timeout_us))
    if not result["stats"]["promotions"]:
        raise RuntimeError("failover never completed (run too short?)")
    failover = result["failover_log"][0]
    crash = result["crash_log"][0]
    if failover["lost_txns"] != crash["lag_at_crash"]:
        raise RuntimeError(
            "promotion lost {} transactions, but {} were unshipped at the "
            "crash".format(failover["lost_txns"], crash["lag_at_crash"]))
    history = result["history"]
    recovered_at = failover["recovered_at"]
    phases = phase_stats(history, crash["at"], recovered_at)
    return {
        "phases": phases,
        "windows": {
            "before": crash["at"] - result["t0"],
            "during": recovered_at - crash["at"],
            "after": max(e["end_us"] for e in history) - recovered_at,
        },
        "victim": index,
        "crash_at_us": crash["at"],
        "lag_at_crash": crash["lag_at_crash"],
        "detection_us": (result["detector_log"][0]["declared_at"]
                         - crash["at"]),
        "gap_us": recovered_at - crash["at"],
        "max_stall_us": phases["during"]["max_us"],
        "lost_txns": failover["lost_txns"],
        "orphans_removed": failover["orphans_removed"],
        "audit": "clean ({} paths)".format(result["stats"]["final_paths"]),
        "run": result,
    }


def run(**kwargs):
    result = measure(**kwargs)
    rows = []
    for phase, stats in result["phases"].items():
        rows.append({
            "kind": "phase",
            "phase": phase,
            "window_us": result["windows"][phase],
            **{key: stats[key]
               for key in ("ops", "errors", "p50_us", "p99_us")},
        })
    rows.append({
        "kind": "failover",
        "victim": "mnode-{}".format(result["victim"]),
        **{key: result[key]
           for key in ("crash_at_us", "detection_us", "gap_us",
                       "max_stall_us", "lost_txns", "orphans_removed",
                       "audit")},
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
         "lost_txns", "orphans_removed", "audit"],
        title="Failover timeline (crash -> detect -> promote -> repair)",
    )
    return out
