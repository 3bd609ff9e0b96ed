"""Execute one schedule against a fresh cluster and audit the outcome.

``run_schedule`` is a pure function of its schedule: it builds a cluster
from the schedule's embedded config, preloads the directory skeleton,
drives every client operation and nemesis event, heals, quiesces, and
returns a JSON-safe result — history, violations, stats and the
recovery logs.  Two calls with the same schedule produce bit-identical
results (global id counters are rewound, every random stream is seeded
from the schedule), which is what lets the shrinker trust that a
replayed subset reproduces honestly.

Violation taxonomy (the ``invariant`` field of each record):

``durability``/``type``/``read``/``phantom``
    oracle verdicts from :mod:`repro.check.oracle`;
``placement``/``identity``/``reachability``/``coherence``/
``ownership``/``statistics``
    structural invariants from :func:`repro.core.verify.cluster_violations`;
``lock-leak``/``staged-leak``/``wal-waiters``
    runtime residue from :func:`repro.core.verify.runtime_violations`;
``replication``
    a primary/standby pair failed to converge after healing;
``log-matching``
    two consensus-group members agree on the term at some LSN but
    diverge at a lower common LSN (consensus runs only);
``budget``/``quiesce``
    the run or its drain exceeded its time budget (a wedged retry loop
    and an underfunded budget look the same — the seed file tells);
``client-exception``/``sim-crash``
    an exception escaped a client op or the simulation itself;
``ack-tap``
    the client-side ack tap and the runner's history disagree.
"""

from collections import Counter
from itertools import count

from repro.check.oracle import (
    audit_history,
    make_slot_of,
    promotion_risk_windows,
    snapshot_namespace,
    tainted_slot_set,
)
from repro.check.schedule import OPS
from repro.core import FalconCluster
from repro.core.shared import FalconConfig
from repro.core.verify import (_violation, cluster_violations,
                                runtime_violations)
from repro.faults import FaultInjector
from repro.net.rpc import RpcError, RpcFailure
from repro.storage.replication import divergence

#: Drive-loop slice: long enough to amortize loop overhead, short enough
#: that the budget check stays responsive.
_SLICE_US = 5000.0

#: Settling margin past the last nemesis event before healing begins.
_NEMESIS_MARGIN_US = 3000.0


def _reset_global_ids():
    """Rewind the process-global message/op id counters so every run is
    bit-identical regardless of what ran before it in this process."""
    from repro.net import message as message_mod
    from repro.obs import context as context_mod

    message_mod._message_ids = count(1)
    context_mod._OP_IDS = count(1)


def run_schedule(schedule):
    """Run one schedule; returns the JSON-safe result dict."""
    _reset_global_ids()
    cfg = schedule["config"]
    consensus = cfg.get("consensus", False)
    config = FalconConfig(
        num_mnodes=cfg["num_mnodes"],
        num_storage=cfg["num_storage"],
        replication=cfg.get("replication", True),
        consensus=consensus,
        rpc_timeout_us=cfg["rpc_timeout_us"],
        op_deadline_us=cfg["op_deadline_us"],
        retry_jitter=cfg.get("retry_jitter", 0.0),
        num_slots=cfg.get("num_slots", 0),
        seed=schedule["seed"],
    )
    cluster = FalconCluster(config)
    env = cluster.env
    violations = []

    # -- preload: the durable directory skeleton ------------------------
    preload_client = cluster.add_client(mode="libfs", name="preload")
    preload_inos = {}
    for path in schedule["preload_dirs"]:
        preload_inos[path] = cluster.run_process(preload_client.mkdir(path))
    cluster.run_for(3000.0)  # drain preload WAL shipping
    cluster.start_failure_detection()
    if consensus:
        # Quorum groups replace ordained promotion: leader heartbeats
        # and follower election timers run, and the election timers
        # are the only failure detector (the call above starts none
        # under consensus).
        cluster.start_consensus()
    t0 = env.now

    # -- workload workers ----------------------------------------------
    history = []
    by_client = {}
    for op in schedule["ops"]:
        by_client.setdefault(op["client"], []).append(op)
    workers = []
    unexpected = []

    def worker(client, ops):
        for op in ops:
            yield env.timeout(op["delay_us"])
            entry = {
                "op_id": op["id"],
                "client": client.name,
                "kind": op["kind"],
                "start_us": env.now,
                "end_us": None,
                "status": "pending",
                "error": None,
            }
            entry.update((field, op[field])
                         for field in ("src", "dst", "path") if field in op)
            history.append(entry)
            try:
                result = yield from OPS[op["kind"]].call(client, op)
            except RpcFailure as failure:
                entry["status"] = "failed"
                entry["error"] = RpcError.name(failure.code)
            except Exception as exc:  # noqa: BLE001 - audited below
                entry["status"] = "failed"
                entry["error"] = repr(exc)
                unexpected.append(entry)
            else:
                entry["status"] = "ok"
                if op["kind"] == "readdir":
                    # What a listing returned is audited, not only that
                    # it succeeded.
                    entry["names"] = [name for name, _ in result]
            entry["end_us"] = env.now

    clients = []
    for client_id in range(cfg["num_clients"]):
        client = cluster.add_client(mode="libfs")
        client.ack_log = []
        clients.append(client)
        workers.append(env.process(
            worker(client, by_client.get(client_id, []))
        ))

    # -- nemesis schedule ----------------------------------------------
    injector = FaultInjector(cluster)
    handles = []
    nemesis_end = t0
    for event in schedule["nemeses"]:
        shifted = dict(event)
        shifted["at_us"] = event["at_us"] + t0
        handles.append(injector.apply(shifted))
        nemesis_end = max(nemesis_end, shifted["at_us"]
                          + event.get("duration_us", 0.0))

    # -- drive ----------------------------------------------------------
    done = env.all_of(workers)
    deadline = t0 + cfg["budget_us"]
    try:
        while not done.triggered and env.now < deadline:
            env.run(until=min(env.now + _SLICE_US, deadline))
        if env.now < nemesis_end + _NEMESIS_MARGIN_US:
            env.run(until=nemesis_end + _NEMESIS_MARGIN_US)
    except Exception as exc:  # noqa: BLE001 - the verdict, not a crash
        violations.append(_violation(
            "sim-crash",
            "unhandled simulation failure at t={}: {!r}"
            .format(env.now, exc),
        ))
    if not done.triggered:
        pending = [e["op_id"] for e in history if e["status"] == "pending"]
        started = {e["op_id"] for e in history}
        never = [op["id"] for op in schedule["ops"]
                 if op["id"] not in started]
        violations.append(_violation(
            "budget",
            "workload incomplete at budget ({} pending, {} unstarted)"
            .format(len(pending), len(never)),
            pending_ops=pending, unstarted_ops=never,
        ))

    # -- heal and drain --------------------------------------------------
    for handle in handles:
        handle.cancel()
    quiesced = False
    try:
        cluster.heal()
        quiesced = cluster.quiesce(cfg["quiesce_budget_us"])
    except Exception as exc:  # noqa: BLE001 - the verdict, not a crash
        violations.append(_violation(
            "sim-crash",
            "unhandled failure while healing at t={}: {!r}"
            .format(env.now, exc),
        ))
    if not quiesced:
        violations.append(_violation(
            "quiesce",
            "simulation not quiescent after healing + {}us "
            "(leaked retry loop or stuck waiter?)"
            .format(cfg["quiesce_budget_us"]),
        ))

    for entry in unexpected:
        violations.append(_violation(
            "client-exception",
            "op {} ({}) raised {}".format(
                entry["op_id"], entry["kind"], entry["error"]),
            op_id=entry["op_id"],
        ))

    # -- audits ----------------------------------------------------------
    tainted = tainted_slot_set(cluster, injector.events)
    violations.extend(runtime_violations(cluster))
    if not tainted:
        violations.extend(cluster_violations(cluster))
    # A tainted slot resumed as primary from a corrupted WAL — known
    # unhandled data loss on an unreplicated log, outside the system's
    # contract.  Its lost records ripple into structural violations that
    # cannot be attributed per-slot (an orphan lives at the child's
    # owner, not the slot that lost the parent), so the structural audit
    # is skipped for the whole run; the oracle and divergence checks
    # stay on, tainted-aware per slot.
    if cluster.standbys:
        for index, (mnode, standby) in enumerate(
                zip(cluster.mnodes, cluster.standbys)):
            if standby is None or index in tainted:
                continue
            for table, key, mine, theirs in divergence(mnode, standby):
                violations.append(_violation(
                    "replication",
                    "slot {} {} {!r}: primary={!r} standby={!r}"
                    .format(index, table, key, mine, theirs),
                    index=index,
                ))
    if consensus:
        # The log-matching invariant across every slot's group: two
        # members agreeing on the term at an LSN must agree on every
        # common LSN below it.
        from repro.storage.consensus import (
            log_matching_violations,
            term_positions,
        )

        for index, mnode in enumerate(cluster.mnodes):
            maps = []
            if mnode.shipper is not None:
                maps.append((mnode.name, term_positions(mnode.shipper)))
            if cluster.standbys[index] is not None:
                follower = cluster.standbys[index]
                maps.append((follower.name, term_positions(follower)))
            maps.append((cluster.witnesses[index].name,
                         term_positions(cluster.witnesses[index])))
            for name_a, name_b, agree, diverge in \
                    log_matching_violations(maps):
                violations.append(_violation(
                    "log-matching",
                    "slot {}: {} and {} agree at lsn {} but diverge "
                    "at lsn {}".format(index, name_a, name_b, agree,
                                       diverge),
                    index=index,
                ))
    final_paths = snapshot_namespace(cluster)
    violations.extend(audit_history(
        history,
        final_paths,
        schedule["preload_dirs"],
        make_slot_of(cluster, preload_inos),
        # Under consensus there is NO promotion-loss excusal: an
        # acknowledged write must survive every election, period.
        risk_windows=() if consensus
        else promotion_risk_windows(cluster, injector.events),
        tainted_slots=tainted,
    ))

    completed = sum(1 for e in history if e["status"] != "pending")
    acked = sum(len(c.ack_log) for c in clients)
    if acked != completed:
        violations.append(_violation(
            "ack-tap",
            "client ack taps recorded {} completions, history has {}"
            .format(acked, completed),
        ))

    history.sort(key=lambda e: e["op_id"])
    errors = {}
    for entry in history:
        if entry["status"] == "failed":
            errors[entry["error"]] = errors.get(entry["error"], 0) + 1
    stats = {
        "ops_total": len(schedule["ops"]),
        "ops_ok": sum(1 for e in history if e["status"] == "ok"),
        "ops_failed": sum(1 for e in history if e["status"] == "failed"),
        "ops_pending": len(history)
        - sum(1 for e in history if e["status"] != "pending"),
        "errors": dict(sorted(errors.items())),
        "nemesis_fired": sum(1 for h in handles if h.fired),
        # Ordained promotions only: a suppressed failover names the
        # failed node as ``promoted`` but replaced nothing.
        "promotions": sum(
            1 for r in cluster.coordinator.failover_log
            if not (r.get("suppressed") or r.get("deferred")
                    or r.get("elected"))),
        "elections": sum(1 for r in cluster.coordinator.failover_log
                         if r.get("elected")),
        "failovers_deferred": sum(
            1 for r in cluster.coordinator.failover_log
            if r.get("deferred")),
        "migrations": {
            status: sum(1 for r in cluster.coordinator.migration_log
                        if r["status"] == status)
            for status in ("committed", "aborted")
        },
        "slot_map_epoch": cluster.shared.slot_map.epoch,
        "restarts": {
            role: sum(1 for r in cluster.restart_log if r["role"] == role)
            for role in ("primary", "standby")
        },
        "tainted_slots": sorted(tainted),
        "structural_audit_skipped": bool(tainted),
        "quiesced": quiesced,
        "final_now_us": env.now,
        "final_paths": len(final_paths),
    }
    # Every MNode incarnation's rename recovery counters — voted rows a
    # recovery restaged, decided actions a guard skipped or a redo
    # applied — reported, like ``errors``, only when they fired.
    renames = Counter()
    for mnode in cluster.mnodes + cluster.retired_mnodes:
        for name in ("rename_restaged", "rename_guard_skips", "rename_redos"):
            for kind, n in mnode.metrics.counter(name).by_label().items():
                renames[name if kind is None else name + "." + kind] += n
    stats.update(sorted(renames.items()))
    return {
        "schedule": schedule,
        "history": history,
        "violations": violations,
        "stats": stats,
        # The recovery timelines, on the absolute clock; a nemesis fired
        # at ``t0 + at_us``.
        "t0": t0,
        "failover_log": cluster.coordinator.failover_log,
        "crash_log": cluster.crash_log,
        "restart_log": cluster.restart_log,
        "detector_log": cluster.detector.log if cluster.detector else [],
    }
