"""Gray failures: slow-not-dead faults under a live workload.

Not a paper figure — the paper's evaluation kills nodes outright, but
production pipelines mostly suffer *gray* failures: a disk that fsyncs
at 40x, a link dropping a third of its packets, a clock a few
milliseconds out, a synchronized cache-refetch storm.  The victim keeps
answering throughout, which is exactly what makes these hard: the
failure detector may rack up misses and declare the slot dead, but the
coordinator finds it reachable and must *suppress* the promotion — a
degraded primary still holds strictly more data than its standby, so
promoting around it would manufacture loss.

This experiment sweeps one gray fault kind across severities and
reports, per severity:

* client op latency (p50/p99) before, during and after the fault
  window, plus error counts;
* the detector's reaction: false-positive declarations (and how fast),
  and the suppressed promotions that resulted;
* replication health after drain: messages lost on the wire, records
  retransmitted by the shipper, and the divergence count between every
  primary/standby pair — asserted zero (the retransmission guarantee).

Two invariants are asserted outright: no *real* promotion ever happens
under a gray fault (suppression), and every primary/standby pair
converges after the window heals (shipper retransmission closes the
gaps seeded packet loss opened).
"""

from repro.experiments.common import (
    drive_clients,
    format_table,
    parallel_map,
    phase_buckets,
    replicated_cluster,
)
from repro.faults import FaultInjector
from repro.metrics import percentile
from repro.storage.replication import divergence

#: Per-kind severity ladders (the swept knob differs per fault family).
SEVERITIES = {
    "slow_disk": (4.0, 16.0, 48.0),        # fsync slowdown factor
    "degrade_link": (0.05, 0.15, 0.35),    # per-message loss probability
    "skew_clock": (1500.0, 6000.0, 24000.0),  # coordinator offset (us)
    "stampede": (1, 2, 4),                 # storms inside the window
}


def _events(kind, severity, at_us, duration_us):
    """The nemesis events of one gray fault window of the given
    kind/severity (victim: slot 0, or the coordinator's clock)."""
    window = {"kind": kind, "at_us": at_us, "duration_us": duration_us}
    if kind == "slow_disk":
        return [dict(window, index=0, fsync_factor=severity,
                     bandwidth_factor=max(2.0, severity / 4.0),
                     ramp_us=500.0)]
    if kind == "degrade_link":
        return [dict(window, index=0, latency_factor=4.0,
                     loss_prob=severity, reorder_window_us=120.0,
                     rng_seed=0xC0FFEE)]
    if kind == "skew_clock":
        return [dict(window, target="coordinator", offset_us=severity,
                     drift_ppm=40000.0)]
    if kind == "stampede":
        storms = int(severity)
        return [{"kind": kind, "at_us": at_us + i * (duration_us / storms)}
                for i in range(storms)]
    raise ValueError("unknown gray fault kind: {!r}".format(kind))


def measure(kind="degrade_link", severity=0.15, num_mnodes=3,
            num_storage=2, threads=8, num_dirs=3, duration_us=30000.0,
            warm_us=8000.0, fault_duration_us=8000.0,
            rpc_timeout_us=400.0, seed=0):
    """Run one gray-fault window under load; returns a result dict."""
    cluster = replicated_cluster(
        num_dirs, num_mnodes=num_mnodes, num_storage=num_storage,
        rpc_timeout_us=rpc_timeout_us, retry_jitter=0.25, seed=seed,
    )
    cluster.start_failure_detection()
    injector = FaultInjector(cluster)
    fault_at = cluster.env.now + warm_us
    fault_end = fault_at + fault_duration_us
    for event in _events(kind, severity, fault_at, fault_duration_us):
        injector.apply(event)

    records, _ = drive_clients(cluster, threads, num_dirs, duration_us)
    cluster.detector.stop()
    cluster.heal()
    cluster.run_for(20000.0)  # drain: retransmissions, invalidations

    log = cluster.coordinator.failover_log
    real_promotions = [
        r for r in log
        if r.get("promoted") and not r.get("suppressed")
        and not r.get("deferred")
    ]
    if real_promotions:
        raise AssertionError(
            "gray fault triggered a real promotion: {!r} (a degraded "
            "node must be suppressed, not replaced)".format(
                real_promotions[0]))
    diverged = 0
    for mnode, standby in zip(cluster.mnodes, cluster.standbys):
        if standby is not None:
            diverged += len(divergence(mnode, standby))
    if diverged:
        raise AssertionError(
            "{} primary/standby divergences survived the drain — "
            "shipper retransmission failed to close the gap"
            .format(diverged))

    declared = cluster.detector.log
    detect_us = (declared[0]["declared_at"] - fault_at
                 if declared else None)
    resent = sum(m.shipper.resent_records for m in cluster.mnodes
                 if getattr(m, "shipper", None) is not None)
    return {
        "kind": kind,
        "severity": severity,
        "phases": phase_buckets(records, fault_at, fault_end),
        "declared": len(declared),
        "detect_us": detect_us,
        "suppressed": sum(1 for r in log if r.get("suppressed")),
        "lost_msgs": cluster.network.lost_count(),
        "resent_records": resent,
        "divergence": diverged,
        "cluster": cluster,
    }


def _point_row(task):
    """One (kind, severity) sweep point → its pure, picklable row.

    Module-level so the shared ``--jobs`` pool can ship it to a worker;
    the serial path calls the identical function, which is what makes
    ``--jobs N`` output byte-identical to ``--jobs 1``.
    """
    kind, severity, kwargs = task
    result = measure(kind=kind, severity=severity, **kwargs)
    during = [e - s for s, e, _, _ in result["phases"]["during"]]
    after = [e - s for s, e, _, _ in result["phases"]["after"]]
    errors = sum(1 for _, _, ok, _ in result["phases"]["during"]
                 if not ok)
    return {
        "kind": kind,
        "severity": severity,
        "ops_during": len(during),
        "errors": errors,
        "p50_us": percentile(during, 50) if during else 0.0,
        "p99_us": percentile(during, 99) if during else 0.0,
        "p99_after_us": percentile(after, 99) if after else 0.0,
        "declared": result["declared"],
        "detect_us": (round(result["detect_us"], 1)
                      if result["detect_us"] is not None else "-"),
        "suppressed": result["suppressed"],
        "lost_msgs": result["lost_msgs"],
        "resent": result["resent_records"],
        "diverged": result["divergence"],
    }


def run(kinds=("slow_disk", "degrade_link", "skew_clock", "stampede"),
        severities=None, jobs=1, **kwargs):
    tasks = []
    for kind in kinds:
        ladder = (severities[kind] if severities is not None
                  else SEVERITIES[kind])
        tasks.extend((kind, severity, kwargs) for severity in ladder)
    return parallel_map(tasks, _point_row, jobs=jobs)


def format_rows(rows):
    return format_table(
        rows,
        ["kind", "severity", "ops_during", "errors", "p50_us", "p99_us",
         "p99_after_us", "declared", "detect_us", "suppressed",
         "lost_msgs", "resent", "diverged"],
        title="Client ops through gray fault windows "
              "(degraded, never promoted)",
    )
