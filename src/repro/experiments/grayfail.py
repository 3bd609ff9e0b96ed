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

This experiment sweeps one gray fault kind across severities, each
point one checker schedule, and reports, per severity:

* client op latency (p50/p99) before, during and after the fault
  window, plus error counts;
* the detector's reaction: false-positive declarations (and how fast),
  and the suppressed promotions that resulted.

Two invariants are asserted outright: no *real* promotion ever happens
under a gray fault (suppression), and — the checker's replication
audit — every primary/standby pair converges after the window heals
(shipper retransmission closes the gaps seeded packet loss opened).
The checker's oracle, structural and residue audits judge every run
too.
"""

from repro.experiments.common import (
    fault_schedule,
    format_table,
    phase_stats,
    run_checked,
)
from repro.parallel import pmap

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
    """Run one gray-fault window under load through the checker; returns
    a result dict whose ``run`` is the checker's result."""
    result = run_checked(fault_schedule(
        seed, _events(kind, severity, warm_us, fault_duration_us),
        threads, num_dirs, duration_us, num_mnodes=num_mnodes,
        num_storage=num_storage, rpc_timeout_us=rpc_timeout_us,
        retry_jitter=0.25))
    if result["stats"]["promotions"]:
        raise AssertionError(
            "gray fault triggered a real promotion: {!r} (a degraded "
            "node must be suppressed, not replaced)".format(
                result["failover_log"]))
    fault_at = result["t0"] + warm_us
    declared = result["detector_log"]
    return {
        "kind": kind,
        "severity": severity,
        "phases": phase_stats(result["history"], fault_at,
                              fault_at + fault_duration_us),
        "declared": len(declared),
        "detect_us": (declared[0]["declared_at"] - fault_at
                      if declared else None),
        "suppressed": sum(1 for r in result["failover_log"]
                          if r.get("suppressed")),
        "run": result,
    }


def _point_row(task):
    """One (kind, severity) sweep point → its pure, picklable row.

    Module-level so the shared ``--jobs`` pool can ship it to a worker;
    the serial path calls the identical function, which is what makes
    ``--jobs N`` output byte-identical to ``--jobs 1``.
    """
    kind, severity, kwargs = task
    result = measure(kind=kind, severity=severity, **kwargs)
    during = result["phases"]["during"]
    return {
        "kind": kind,
        "severity": severity,
        "ops_during": during["ops"],
        "errors": during["errors"],
        "p50_us": during["p50_us"],
        "p99_us": during["p99_us"],
        "p99_after_us": result["phases"]["after"]["p99_us"],
        "declared": result["declared"],
        "detect_us": (round(result["detect_us"], 1)
                      if result["detect_us"] is not None else "-"),
        "suppressed": result["suppressed"],
    }


def run(kinds=("slow_disk", "degrade_link", "skew_clock", "stampede"),
        severities=None, jobs=1, **kwargs):
    tasks = []
    for kind in kinds:
        ladder = (severities[kind] if severities is not None
                  else SEVERITIES[kind])
        tasks.extend((kind, severity, kwargs) for severity in ladder)
    return pmap(tasks, _point_row, jobs=jobs)


def format_rows(rows):
    return format_table(
        rows,
        ["kind", "severity", "ops_during", "errors", "p50_us", "p99_us",
         "p99_after_us", "declared", "detect_us", "suppressed"],
        title="Client ops through gray fault windows "
              "(degraded, never promoted)",
    )
