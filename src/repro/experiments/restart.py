"""Crash-restart redo recovery: durability matrix and rejoin convergence.

Not a paper figure — the paper's MNodes inherit PostgreSQL durability
(WAL + redo) but its evaluation never power-cycles one.  This experiment
does, under a seeded fault schedule, in two modes:

* **resume** — the node restarts before the heartbeat detector finishes
  declaring it dead: redo replays the durable WAL, the node re-registers
  under its own slot (any in-flight promotion is suppressed), reconciles
  log shipping with its standby, and serves again as primary;
* **rejoin** — the restart loses the race: a promoted standby already
  owns the slot, so the recovered machine rejoins as a fresh standby and
  catches up via snapshot + log-shipping delta.

Reported per (mode, seed): the durability matrix at the crash instant
(transactions appended / fsynced / torn-or-unwritten, plus the shipped-
but-unapplied replication lag), recovery time against WAL length, the
lost windows of both strategies — restart loses only the unfsynced
tail, promotion additionally loses the fsynced-but-unshipped window, so
lost(restart) <= lost(promotion) always — a redo-correctness check
(every durable transaction's inode is present on the recovered node),
and post-drain primary/standby divergence (zero = converged).

Everything is deterministic: the same seed yields the same crash time,
victim, WAL contents, torn tail and recovery outcome.
"""

from repro.experiments.common import (
    drive_clients,
    format_table,
    replicated_cluster,
)
from repro.faults import FaultInjector
from repro.storage.replication import divergence

#: Restart delays (us after the crash) that decide the race against the
#: detector: well inside the detection window resumes as primary, well
#: past promotion rejoins as standby.
MODE_DELAYS = {"resume": 800.0, "rejoin": 6000.0}


def measure(mode="resume", num_mnodes=3, num_storage=2, threads=8,
            num_dirs=3, duration_us=24000.0, warm_us=6000.0,
            restart_delay_us=None, rpc_timeout_us=400.0, seed=0):
    """Run one crash-restart scenario; returns a result dict."""
    if restart_delay_us is None:
        restart_delay_us = MODE_DELAYS[mode]
    cluster = replicated_cluster(
        num_dirs, num_mnodes=num_mnodes, num_storage=num_storage,
        rpc_timeout_us=rpc_timeout_us, seed=seed,
    )
    env = cluster.env
    cluster.start_failure_detection()
    crash_at = env.now + warm_us
    victim = FaultInjector(cluster).apply(
        {"kind": "crash", "at_us": crash_at}).event["index"]

    # The check below must run in the same event as restart completion,
    # before post-restart traffic lands, so drive the restart ourselves
    # rather than through a ``restart`` nemesis event.
    outcome = {}

    def restart():
        delay = crash_at + restart_delay_us - env.now
        if delay > 0:
            yield env.timeout(delay)
        # The redo reference is read from the disk the restart boots from.
        replayed, _ = cluster.crashed(victim).wal.replay()
        outcome["redo_reference"] = replayed
        outcome["restart"] = yield from cluster.restart_mnode(victim)
        if outcome["restart"]["role"] == "primary":
            # Redo correctness: every durable transaction's inode writes
            # are present on the recovered node (compared by ino, which
            # is stable under the concurrent create workload).
            node = cluster.mnodes[victim]
            missing = 0
            for _, _, payload in replayed:
                for table_name, key, value in payload or ():
                    if table_name != "inode" or value is None:
                        continue
                    mine = node.inodes.get(key)
                    if mine is None or mine.ino != value.ino:
                        missing += 1
            outcome["redo_missing"] = missing

    env.process(restart())

    records, _ = drive_clients(cluster, threads, num_dirs, duration_us,
                               read_back=False)
    cluster.detector.stop()
    cluster.run_for(20000.0)  # quiesce: shipments, acks, invalidations

    if "restart" not in outcome:
        raise RuntimeError("restart never completed (run too short?)")
    restarted = outcome["restart"]
    crash = cluster.crash_log[0]

    # Durability matrix at the crash instant, as the crash recorded it.
    appended = crash["appended_txns"]
    durable = crash["durable_lsn"]
    restart_loss = appended - restarted["replayed_txns"]
    suppressed = sum(
        1 for r in cluster.coordinator.failover_log if r.get("suppressed")
    )
    promoted = [
        r for r in cluster.coordinator.failover_log
        if not r.get("suppressed")
    ]
    # Promotion loses the unfsynced tail too (it was never shipped), on
    # top of the fsynced-but-unapplied replication lag.
    promotion_loss = (appended - durable) + crash["lag_at_crash"]

    pairs = [
        (m, s) for m, s in zip(cluster.mnodes, cluster.standbys)
        if s is not None
    ]
    diverged = sum(len(divergence(m, s)) for m, s in pairs)
    errors = sum(1 for _, _, ok, _ in records if not ok)
    return {
        "mode": mode,
        "seed": seed,
        "victim": victim,
        "crash_at_us": crash["at"],
        "role": restarted["role"],
        "recovery_us": restarted["recovery_us"],
        "replayed_txns": restarted["replayed_txns"],
        "torn_records": restarted["torn_records"],
        "appended_txns": appended,
        "durable_txns": durable,
        "unfsynced_txns": appended - durable,
        "lag_at_crash": crash["lag_at_crash"],
        "restart_loss": restart_loss,
        "promotion_loss": promotion_loss,
        "suppressed_failovers": suppressed,
        "promotions": len(promoted),
        "redo_missing": outcome.get("redo_missing", 0),
        "divergence": diverged,
        "ops": len(records),
        "errors": errors,
        "cluster": cluster,
    }


def run(modes=("resume", "rejoin"), seeds=(0, 1, 2), **kwargs):
    rows = []
    for mode in modes:
        for seed in seeds:
            result = measure(mode=mode, seed=seed, **kwargs)
            if result["restart_loss"] > result["promotion_loss"]:
                raise RuntimeError(
                    "restart lost more than promotion would have "
                    "({} > {})".format(result["restart_loss"],
                                       result["promotion_loss"])
                )
            if result["redo_missing"]:
                raise RuntimeError(
                    "redo recovery lost {} durable inode writes".format(
                        result["redo_missing"])
                )
            if result["divergence"]:
                raise RuntimeError(
                    "primary/standby diverged after drain ({} keys)".format(
                        result["divergence"])
                )
            rows.append({
                key: result[key]
                for key in ("mode", "seed", "role", "recovery_us",
                            "appended_txns", "durable_txns",
                            "unfsynced_txns", "lag_at_crash",
                            "replayed_txns", "torn_records",
                            "restart_loss", "promotion_loss",
                            "suppressed_failovers", "promotions",
                            "divergence", "ops", "errors")
            })
    return rows


def format_rows(rows):
    return format_table(
        rows,
        ["mode", "seed", "role", "recovery_us", "appended_txns",
         "durable_txns", "unfsynced_txns", "lag_at_crash", "replayed_txns",
         "torn_records", "restart_loss", "promotion_loss",
         "suppressed_failovers", "promotions", "divergence", "ops",
         "errors"],
        title="Crash-restart redo recovery "
              "(restart_loss <= promotion_loss by construction)",
    )
