"""Leader election vs ordained promotion: availability and durability.

Not a paper figure — the paper's MNodes inherit coordinator-driven
primary/standby failover (§4.3); this repo's consensus tier replaces it
with quorum-replicated groups (leader + data follower + witness) whose
recovery is decided by election timeouts at the followers.  This
experiment crashes the leader of one metadata group mid-workload under
**both** recovery regimes and reports, side by side:

* the availability gap — crash to the slot serving again (detection +
  promotion for the baseline, election timeout + vote + claim for the
  consensus tier) plus the worst single-op stall a client saw;
* healthy-phase commit latency (p50/p99 of creates before the crash) —
  the price of quorum acknowledgement over async shipping;
* durability of acknowledgements: every create the client saw succeed
  is looked up again after healing.  Under consensus the count of lost
  acked writes is **asserted zero** (quorum commit means an ack implies
  a majority held the record); the promotion baseline reports its
  lost-unshipped window honestly.

Everything is deterministic: the same seed yields the same crash time,
victim, gap and loss.
"""

from repro.experiments.common import (
    drive_clients,
    format_table,
    lost_acked,
    parallel_map,
    phase_buckets,
    replicated_cluster,
)
from repro.faults import FaultInjector
from repro.metrics import percentile


def measure(mode="consensus", num_mnodes=3, num_storage=2, threads=8,
            num_dirs=3, duration_us=35000.0, warm_us=9000.0,
            rpc_timeout_us=400.0, seed=0):
    """Run one crash-and-recover scenario under ``mode`` ("consensus"
    or "promotion"); returns a result dict."""
    if mode not in ("consensus", "promotion"):
        raise ValueError("mode must be 'consensus' or 'promotion', "
                         "got {!r}".format(mode))
    consensus = mode == "consensus"
    cluster = replicated_cluster(
        num_dirs, num_mnodes=num_mnodes, num_storage=num_storage,
        consensus=consensus, rpc_timeout_us=rpc_timeout_us,
        retry_jitter=0.25, seed=seed,
    )
    cluster.start_failure_detection()
    if consensus:
        cluster.start_consensus()
    crash_at = cluster.env.now + warm_us
    victim = FaultInjector(cluster).apply(
        {"kind": "crash", "at_us": crash_at}).event["index"]

    records, acked_creates = drive_clients(cluster, threads, num_dirs,
                                           duration_us)
    cluster.heal()  # restarts the crashed machine (rejoins as follower)
    cluster.run_for(20000.0)  # drain: catch-up, invalidations

    log = cluster.coordinator.failover_log
    recoveries = [r for r in log if not r.get("suppressed")
                  and not r.get("deferred")]
    if not recoveries:
        raise RuntimeError("the slot never recovered (run too short?)")
    recovery = recoveries[0]
    if consensus and not recovery.get("elected"):
        raise AssertionError(
            "consensus mode recovered by ordained promotion: {!r}"
            .format(recovery))
    # Detection is the election timer firing under consensus, the
    # coordinator's heartbeat declaration under promotion.
    if consensus:
        detected_at = recovery["detected_at"]
    else:
        detection = cluster.detector.log
        detected_at = detection[0]["declared_at"] if detection else None

    # Every acknowledged create must still resolve after healing.
    lost = len(lost_acked(cluster, acked_creates))
    if consensus and lost:
        raise AssertionError(
            "{} quorum-acknowledged creates vanished across the "
            "election — an ack without a surviving majority record"
            .format(lost))

    recovered_at = recovery["recovered_at"]
    phases = phase_buckets(records, crash_at, recovered_at)
    overlapping = [end - start for start, end, _, _ in records
                   if start <= crash_at <= end]
    return {
        "mode": mode,
        "victim": victim,
        "crash_at_us": crash_at,
        "detect_us": (detected_at - crash_at
                      if detected_at is not None else None),
        "gap_us": recovered_at - crash_at,
        "max_stall_us": max(overlapping) if overlapping else 0.0,
        "lost_txns": recovery["lost_txns"],
        "lost_acked": lost,
        "acked": len(acked_creates),
        "elections": sum(1 for r in log if r.get("elected")),
        "promotions": sum(1 for r in log
                          if r.get("promoted") and not r.get("elected")
                          and not r.get("suppressed")),
        "phases": phases,
        "cluster": cluster,
    }


def _point_row(task):
    """One recovery-regime sweep point → its pure, picklable row
    (module-level so the shared ``--jobs`` pool can ship it; the serial
    path calls the same function, keeping output identical)."""
    mode, kwargs = task
    result = measure(mode=mode, **kwargs)
    before = [e - s for s, e, _, creating
              in result["phases"]["before"] if creating]
    during = result["phases"]["during"]
    errors = sum(1 for _, _, ok, _ in during if not ok)
    return {
        "mode": mode,
        "commit_p50_us": percentile(before, 50) if before else 0.0,
        "commit_p99_us": percentile(before, 99) if before else 0.0,
        "detect_us": (round(result["detect_us"], 1)
                      if result["detect_us"] is not None else "-"),
        "gap_us": round(result["gap_us"], 1),
        "max_stall_us": round(result["max_stall_us"], 1),
        "errs_during": errors,
        "acked": result["acked"],
        "lost_acked": result["lost_acked"],
        "lost_txns": result["lost_txns"],
        "elections": result["elections"],
        "promotions": result["promotions"],
    }


def run(modes=("promotion", "consensus"), jobs=1, **kwargs):
    return parallel_map([(mode, kwargs) for mode in modes], _point_row,
                        jobs=jobs)


def format_rows(rows):
    return format_table(
        rows,
        ["mode", "commit_p50_us", "commit_p99_us", "detect_us", "gap_us",
         "max_stall_us", "errs_during", "acked", "lost_acked",
         "lost_txns", "elections", "promotions"],
        title="Leader crash: quorum election vs ordained promotion "
              "(lost_acked asserted 0 under consensus)",
    )
