"""Crash-restart redo recovery: durability matrix and rejoin convergence.

Not a paper figure — the paper's MNodes inherit PostgreSQL durability
(WAL + redo) but its evaluation never power-cycles one.  This experiment
does, as a checker schedule of a crash and a ``restart`` of the same
slot, in two modes:

* **resume** — the node restarts before the heartbeat detector finishes
  declaring it dead: redo replays the durable WAL, the node re-registers
  under its own slot (any in-flight promotion is suppressed), reconciles
  log shipping with its standby, and serves again as primary;
* **rejoin** — the restart loses the race: a promoted standby already
  owns the slot, so the recovered machine rejoins as a fresh standby and
  catches up via snapshot + log-shipping delta.

Reported per (mode, seed): the durability matrix at the crash instant
(transactions appended / fsynced / torn-or-unwritten, plus the shipped-
but-unapplied replication lag), recovery time against WAL length, and
the lost windows of both strategies — restart loses only the unfsynced
tail, promotion additionally loses the fsynced-but-unshipped window, so
lost(restart) <= lost(promotion) always.  Asserted: redo replays every
fsynced transaction (the restart record's replayed count equals the
crash record's durable count), the containment above, and the checker's
verdict — oracle, structural and residue audits, and zero post-drain
primary/standby divergence.

Everything is deterministic: the same seed yields the same crash time,
victim, WAL contents, torn tail and recovery outcome.
"""

from repro.experiments.common import (
    fault_schedule,
    format_table,
    run_checked,
    victim,
)

#: Restart delays (us after the crash) that decide the race against the
#: detector: well inside the detection window resumes as primary, well
#: past promotion rejoins as standby.
MODE_DELAYS = {"resume": 800.0, "rejoin": 6000.0}

#: The row columns, in table order.
COLUMNS = ("mode", "seed", "role", "recovery_us", "appended_txns",
           "durable_txns", "unfsynced_txns", "lag_at_crash",
           "replayed_txns", "torn_records", "restart_loss",
           "promotion_loss", "suppressed_failovers", "promotions",
           "divergence", "ops", "errors")


def measure(mode="resume", num_mnodes=3, num_storage=2, threads=8,
            num_dirs=3, duration_us=24000.0, warm_us=6000.0,
            restart_delay_us=None, rpc_timeout_us=400.0, seed=0):
    """Run one crash-restart schedule under the checker; returns a result
    dict whose ``run`` is the checker's result.  Raises if redo lost a
    fsynced transaction or restart lost more than promotion would."""
    if restart_delay_us is None:
        restart_delay_us = MODE_DELAYS[mode]
    index = victim(seed, num_mnodes)
    result = run_checked(fault_schedule(
        seed,
        [{"kind": "crash", "at_us": warm_us, "index": index},
         {"kind": "restart", "at_us": warm_us + restart_delay_us,
          "index": index}],
        threads, num_dirs, duration_us, read_back=False,
        num_mnodes=num_mnodes, num_storage=num_storage,
        rpc_timeout_us=rpc_timeout_us))
    crash = result["crash_log"][0]
    restarted = result["restart_log"][0]

    # Durability matrix at the crash instant, as the crash recorded it.
    appended = crash["appended_txns"]
    durable = crash["durable_lsn"]
    if restarted["replayed_txns"] != durable:
        raise RuntimeError(
            "redo replayed {} transactions of the {} fsynced".format(
                restarted["replayed_txns"], durable))
    restart_loss = appended - restarted["replayed_txns"]
    # Promotion loses the unfsynced tail too (it was never shipped), on
    # top of the fsynced-but-unapplied replication lag.
    promotion_loss = (appended - durable) + crash["lag_at_crash"]
    if restart_loss > promotion_loss:
        raise RuntimeError(
            "restart lost more than promotion would have ({} > {})"
            .format(restart_loss, promotion_loss))
    return {
        "mode": mode,
        "seed": seed,
        "victim": index,
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
        "suppressed_failovers": sum(
            1 for r in result["failover_log"] if r.get("suppressed")),
        "promotions": result["stats"]["promotions"],
        "divergence": 0,  # the checker's replication audit raises on any
        "ops": len(result["history"]),
        "errors": result["stats"]["ops_failed"],
        "run": result,
    }


def run(modes=("resume", "rejoin"), seeds=(0, 1, 2), **kwargs):
    rows = []
    for mode in modes:
        for seed in seeds:
            result = measure(mode=mode, seed=seed, **kwargs)
            rows.append({key: result[key] for key in COLUMNS})
    return rows


def format_rows(rows):
    return format_table(
        rows, COLUMNS,
        title="Crash-restart redo recovery "
              "(restart_loss <= promotion_loss by construction)",
    )
