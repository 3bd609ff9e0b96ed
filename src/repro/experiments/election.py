"""Leader election vs ordained promotion: availability and durability.

Not a paper figure — the paper's MNodes inherit coordinator-driven
primary/standby failover (§4.3); this repo's consensus tier replaces it
with quorum-replicated groups (leader + data follower + witness) whose
recovery is decided by election timeouts at the followers.  This
experiment crashes the leader of one metadata group mid-workload, as a
checker schedule, under **both** recovery regimes and reports, side by
side:

* the availability gap — crash to the slot serving again (detection +
  promotion for the baseline, election timeout + vote + claim for the
  consensus tier) plus the worst single-op stall a client saw;
* healthy-phase commit latency (p50/p99 of creates before the crash) —
  the price of quorum acknowledgement over async shipping;
* durability of acknowledgements, judged by the checker's oracle over
  the healed namespace.  Under consensus it excuses nothing, so a
  single lost acked create fails the run (quorum commit means an ack
  implies a majority held the record); under promotion it excuses the
  lost-unshipped window, which ``lost_txns`` reports.

Everything is deterministic: the same seed yields the same crash time,
victim, gap and loss.
"""

from repro.experiments.common import (
    fault_schedule,
    format_table,
    phase_stats,
    run_checked,
    victim,
)
from repro.parallel import pmap


def measure(mode="consensus", num_mnodes=3, num_storage=2, threads=8,
            num_dirs=3, duration_us=35000.0, warm_us=9000.0,
            rpc_timeout_us=400.0, seed=0):
    """Run one crash-and-recover schedule under ``mode`` ("consensus"
    or "promotion") through the checker; returns a result dict whose
    ``run`` is the checker's result."""
    if mode not in ("consensus", "promotion"):
        raise ValueError("mode must be 'consensus' or 'promotion', "
                         "got {!r}".format(mode))
    consensus = mode == "consensus"
    index = victim(seed, num_mnodes)
    # Under consensus the oracle excuses nothing: a quorum-acknowledged
    # create missing after the election fails the run.
    result = run_checked(fault_schedule(
        seed, [{"kind": "crash", "at_us": warm_us, "index": index}],
        threads, num_dirs, duration_us, num_mnodes=num_mnodes,
        num_storage=num_storage, consensus=consensus,
        rpc_timeout_us=rpc_timeout_us, retry_jitter=0.25))

    recoveries = [r for r in result["failover_log"]
                  if not r.get("suppressed") and not r.get("deferred")]
    if not recoveries:
        raise RuntimeError("the slot never recovered (run too short?)")
    recovery = recoveries[0]
    if consensus and not recovery.get("elected"):
        raise AssertionError(
            "consensus mode recovered by ordained promotion: {!r}"
            .format(recovery))
    crash_at = result["crash_log"][0]["at"]
    # Detection is the election timer firing under consensus, the
    # coordinator's heartbeat declaration under promotion.
    if consensus:
        detected_at = recovery["detected_at"]
    else:
        detection = result["detector_log"]
        detected_at = detection[0]["declared_at"] if detection else None

    history = result["history"]
    recovered_at = recovery["recovered_at"]
    return {
        "mode": mode,
        "victim": index,
        "crash_at_us": crash_at,
        "detect_us": (detected_at - crash_at
                      if detected_at is not None else None),
        "gap_us": recovered_at - crash_at,
        "lost_txns": recovery["lost_txns"],
        "acked": sum(1 for e in history
                     if e["kind"] == "create" and e["status"] == "ok"),
        "elections": result["stats"]["elections"],
        "promotions": result["stats"]["promotions"],
        "phases": phase_stats(history, crash_at, recovered_at),
        "commits": phase_stats(history, crash_at, recovered_at,
                               kinds=("create",)),
        "run": result,
    }


def _point_row(task):
    """One recovery-regime sweep point → its pure, picklable row
    (module-level so the shared ``--jobs`` pool can ship it; the serial
    path calls the same function, keeping output identical)."""
    mode, kwargs = task
    result = measure(mode=mode, **kwargs)
    during = result["phases"]["during"]
    return {
        "mode": mode,
        "commit_p50_us": result["commits"]["before"]["p50_us"],
        "commit_p99_us": result["commits"]["before"]["p99_us"],
        "detect_us": (round(result["detect_us"], 1)
                      if result["detect_us"] is not None else "-"),
        "gap_us": round(result["gap_us"], 1),
        "max_stall_us": round(during["max_us"], 1),
        "errs_during": during["errors"],
        **{key: result[key]
           for key in ("acked", "lost_txns", "elections", "promotions")},
    }


def run(modes=("promotion", "consensus"), jobs=1, **kwargs):
    return pmap([(mode, kwargs) for mode in modes], _point_row, jobs=jobs)


def format_rows(rows):
    return format_table(
        rows,
        ["mode", "commit_p50_us", "commit_p99_us", "detect_us", "gap_us",
         "max_stall_us", "errs_during", "acked", "lost_txns",
         "elections", "promotions"],
        title="Leader crash: quorum election vs ordained promotion "
              "(no acked loss excused under consensus)",
    )
