"""The client-visible oracle: what a correct FalconFS may do.

The oracle audits an acknowledgement **history** (one record per root
client operation: kind, path, start/end time, outcome) against the
healed cluster's **final namespace**, under the failure semantics the
system actually promises:

* an operation acknowledged OK is **definite** — its effect must be
  visible in any later state *unless* it falls inside a promotion's
  **loss window** (asynchronous replication makes a failover lose the
  committed-but-unshipped suffix; PR 2/3 measure exactly this).  Ops on
  a promoted slot acknowledged within the window around the crash/hang
  are downgraded to *maybe*;
* an operation that failed or never completed is **maybe-applied** —
  its effect may or may not be there (a timeout after commit, a retried
  EEXIST against the op's own first attempt, an abort mid-2PC);
* a **read** must be explainable by some serialization of acked
  operations: an OK read needs a possible creator, an ENOENT needs the
  absence of any definite non-lost creator — or a possible remover.  A
  successful listing of D reads every path directly under D: a listed
  one as an OK read, an unlisted one as an ENOENT read, and a listed
  name whose removal was acked before the listing started needs a
  possible re-creator;
* after healing, the final namespace must contain the latest definite
  effect per path (existence and file/directory type), nothing outside
  the schedule's path universe, and no resurfaced removals.

Paths at depth ≤ 2 under preloaded parent directories keep the slot
attribution exact: the owner of ``(parent_ino, name)`` is known, so
loss windows excuse precisely the ops a promotion could have lost.

Everything here is a pure function of plain data — unit-testable with
synthetic histories, no cluster required.
"""

from repro.vfs.pathwalk import basename, join_path, parent_path

#: Op kinds audited as reads of the namespace.
READ_KINDS = ("getattr", "read", "readdir")

#: Microseconds before a crash/hang instant within which an acked op may
#: have been committed but not yet shipped to the standby (send latency
#: plus in-flight shipments black-holed by the fault).
SHIP_MARGIN_US = 1200.0


def _violation(invariant, message, **extra):
    record = {"invariant": invariant, "message": message}
    record.update(extra)
    return record


def effects_of(entry):
    """The namespace effects one history entry acknowledges: a list of
    ``(path, action, is_dir)`` with action ``"create"`` or ``"remove"``."""
    kind = entry["kind"]
    if kind in ("create", "write"):
        return [(entry["path"], "create", False)]
    if kind == "mkdir":
        return [(entry["path"], "create", True)]
    if kind == "unlink":
        return [(entry["path"], "remove", False)]
    if kind == "rename":
        return [(entry["src"], "remove", False),
                (entry["dst"], "create", False)]
    return []


def _in_risk_window(slot, end_us, risk_windows):
    if slot is None or end_us is None:
        return False
    for w_slot, lo, hi in risk_windows:
        if w_slot == slot and lo <= end_us <= hi:
            return True
    return False


def audit_history(history, final_paths, preload_dirs, slot_of,
                  risk_windows=(), tainted_slots=()):
    """Audit a run; returns a list of violation dicts (empty = correct).

    ``history``      — entry dicts: op_id, kind, path (src/dst for
                       rename), start_us, end_us (None while pending),
                       status ("ok" | "failed" | "pending"); a
                       successful readdir also carries the listed
                       ``names``.
    ``final_paths``  — healed-cluster namespace: path -> {"is_dir": b}.
    ``preload_dirs`` — paths created durably before the workload began.
    ``slot_of``      — callable path -> owning MNode slot (or None).
    ``risk_windows`` — (slot, lo_us, hi_us) intervals during which acked
                       ops on that slot may have been lost by promotion.
    ``tainted_slots``— slots whose durable state is unaccountable (e.g.
                       corrupted WAL resumed as primary); every op there
                       is excused.
    """
    violations = []
    tainted_slots = set(tainted_slots)

    # Expand the history into per-path effect and read streams.
    effects = {}
    reads = {}
    listings = []
    universe = set(preload_dirs)

    def add_read(path, entry, status, error, listed=False):
        slot = slot_of(path)
        reads.setdefault(path, []).append({
            "op_id": entry["op_id"],
            "start_us": entry["start_us"],
            "end_us": entry["end_us"],
            "status": status,
            "error": error,
            "excused": (slot in tainted_slots
                        or _in_risk_window(slot, entry["end_us"],
                                           risk_windows)),
            "listed": listed,
        })

    for entry in history:
        for path, action, is_dir in effects_of(entry):
            universe.add(path)
            slot = slot_of(path)
            at_risk = (slot in tainted_slots
                       or _in_risk_window(slot, entry["end_us"],
                                          risk_windows))
            effects.setdefault(path, []).append({
                "op_id": entry["op_id"],
                "action": action,
                "is_dir": is_dir,
                "start_us": entry["start_us"],
                "end_us": entry["end_us"],
                "status": entry["status"],
                "definite": entry["status"] == "ok" and not at_risk,
            })
        if entry["kind"] in READ_KINDS:
            path = entry["path"]
            if entry["kind"] != "readdir":
                universe.add(path)
            elif "names" in entry:
                listings.append(entry)
            add_read(path, entry, entry["status"], entry.get("error"))

    # A listing of D reads every universe path directly under D: a
    # listed one as an OK read, an unlisted one as an ENOENT read.  A
    # listed name outside the universe is an OK read nothing explains.
    for entry in listings:
        names = set(entry["names"])
        under = {path for path in universe
                 if path != "/" and parent_path(path) == entry["path"]}
        under.update(join_path(entry["path"], name) for name in names)
        for path in under:
            if basename(path) in names:
                add_read(path, entry, "ok", None, listed=True)
            else:
                add_read(path, entry, "failed", "ENOENT")

    # -- final-state durability per path --------------------------------
    for path in sorted(effects):
        stream = effects[path]
        definite = [e for e in stream if e["definite"]]
        if not definite:
            continue
        last = max(definite, key=lambda e: (e["end_us"], e["op_id"]))
        conflicted = any(
            e is not last
            and e["action"] != last["action"]
            and (e["end_us"] is None or not (
                e["definite"] and e["end_us"] <= last["start_us"]))
            and (e["end_us"] is None or e["end_us"] > last["start_us"]
                 or not e["definite"])
            for e in stream
        )
        if conflicted:
            continue
        final = final_paths.get(path)
        if last["action"] == "create":
            if final is None:
                violations.append(_violation(
                    "durability",
                    "acked {} of {} (op {}) not in the healed namespace"
                    .format("mkdir" if last["is_dir"] else "create",
                            path, last["op_id"]),
                    path=path, op_id=last["op_id"],
                ))
            elif bool(final.get("is_dir")) != last["is_dir"]:
                violations.append(_violation(
                    "type",
                    "{} acked as {} but healed as {}".format(
                        path,
                        "directory" if last["is_dir"] else "file",
                        "directory" if final.get("is_dir") else "file"),
                    path=path, op_id=last["op_id"],
                ))
        else:
            if final is not None:
                violations.append(_violation(
                    "durability",
                    "acked removal of {} (op {}) resurfaced after healing"
                    .format(path, last["op_id"]),
                    path=path, op_id=last["op_id"],
                ))

    # -- preloaded directories are unconditionally durable --------------
    for path in preload_dirs:
        final = final_paths.get(path)
        if final is None or not final.get("is_dir"):
            violations.append(_violation(
                "durability",
                "preloaded directory {} missing or not a directory "
                "after healing".format(path),
                path=path,
            ))

    # -- no phantom paths ----------------------------------------------
    for path in sorted(final_paths):
        if path not in universe:
            violations.append(_violation(
                "phantom",
                "healed namespace contains {} which no schedule op "
                "could have created".format(path),
                path=path,
            ))

    # -- read explainability --------------------------------------------
    for path in sorted(reads):
        stream = effects.get(path, [])
        preloaded = path in preload_dirs
        for read in reads[path]:
            if read["excused"]:
                continue
            if read["status"] == "ok" and not preloaded:
                # An OK read needs at least a possible creator that had
                # started before the read finished.
                creators = [
                    e for e in stream if e["action"] == "create"
                    and (read["end_us"] is None
                         or e["start_us"] < read["end_us"])
                ]
                if not creators:
                    violations.append(_violation(
                        "read",
                        "read of {} (op {}) succeeded but nothing could "
                        "have created it".format(path, read["op_id"]),
                        path=path, op_id=read["op_id"],
                    ))
            if read["listed"]:
                # A listing reads without locks, so it must wait out
                # renames in doubt: a name whose removal was acked
                # before the listing started may be listed only if
                # something could have re-created it since.
                removed = [e for e in stream if e["action"] == "remove"
                           and e["definite"]
                           and e["end_us"] < read["start_us"]]
                if removed:
                    remover = max(removed,
                                  key=lambda e: (e["end_us"], e["op_id"]))
                    if not any(
                            e["action"] == "create"
                            and e["start_us"] < read["end_us"]
                            and (e["end_us"] is None
                                 or e["end_us"] > remover["start_us"])
                            for e in stream):
                        violations.append(_violation(
                            "read",
                            "listing (op {}) shows {} after its acked "
                            "removal (op {})".format(
                                read["op_id"], path, remover["op_id"]),
                            path=path, op_id=read["op_id"],
                            remover_op_id=remover["op_id"],
                        ))
            if (read["status"] == "failed"
                    and read.get("error") == "ENOENT"
                    and read["end_us"] is not None):
                # ENOENT needs either no definite earlier creator or a
                # possible remover overlapping/preceding the read.
                creators = [
                    e for e in stream
                    if e["action"] == "create" and e["definite"]
                    and e["end_us"] < read["start_us"]
                ]
                if not creators and not preloaded:
                    continue
                creator = (max(creators,
                               key=lambda e: (e["end_us"], e["op_id"]))
                           if creators else None)
                if creator is None and preloaded:
                    # Preloaded dirs cannot be removed by this workload.
                    violations.append(_violation(
                        "read",
                        "read of preloaded {} (op {}) returned ENOENT"
                        .format(path, read["op_id"]),
                        path=path, op_id=read["op_id"],
                    ))
                    continue
                removers = [
                    e for e in stream if e["action"] == "remove"
                    and e["start_us"] < read["end_us"]
                    and (e["end_us"] is None
                         or e["end_us"] > creator["start_us"])
                ]
                if not removers:
                    violations.append(_violation(
                        "read",
                        "read of {} (op {}) returned ENOENT after acked "
                        "create (op {}) with no possible remover"
                        .format(path, read["op_id"], creator["op_id"]),
                        path=path, op_id=read["op_id"],
                        creator_op_id=creator["op_id"],
                    ))
    return violations


# ----------------------------------------------------------------------
# cluster-side input builders
# ----------------------------------------------------------------------

def snapshot_namespace(cluster):
    """Walk the healed cluster's authoritative inode tables from the
    root; returns ``path -> {"is_dir": bool}`` for every reachable
    record (unreachable records are the invariant audit's business)."""
    from repro.vfs.attrs import ROOT_INO

    children = {}
    for mnode in cluster.mnodes:
        for (pid, name), record in mnode.inodes.scan():
            children.setdefault(pid, []).append((name, record))
    paths = {}

    def walk(ino, prefix):
        for name, record in sorted(children.get(ino, ()),
                                   key=lambda item: item[0]):
            path = prefix + "/" + name
            paths[path] = {"is_dir": bool(record.is_dir)}
            if record.is_dir:
                walk(record.ino, path)

    walk(ROOT_INO, "")
    return paths


def make_slot_of(cluster, preload_inos):
    """Slot attribution for depth-≤2 paths under preloaded parents."""
    from repro.vfs.attrs import ROOT_INO

    index = cluster.coordinator.index

    def slot_of(path):
        parent = parent_path(path)
        if parent == "/":
            pid = ROOT_INO
        else:
            pid = preload_inos.get(parent)
        if pid is None:
            return None
        return index.locate(pid, basename(path))

    return slot_of


def promotion_risk_windows(cluster, nemesis_log):
    """Loss-excusal intervals from the run's completed promotions.

    For each failover that actually promoted a standby, acked ops on the
    failed slot may have been lost if they completed after the last
    moment shipping still flowed — the crash or hang instant — minus the
    in-flight shipping margin.  Suppressed and deferred failovers moved
    no state and excuse nothing.

    Only *dead* troubles open a window: crashes (from the cluster's
    crash log) and hangs (the node was genuinely unreachable).  Gray
    degradation — slow disks, lossy links, skewed clocks, stampedes —
    never appears in the trouble set: a degraded-but-alive primary still
    holds every acked op, so a promotion around it has no excusable
    loss.  Likewise a promotion with *no* recorded trouble excuses
    nothing (there used to be a ``detected_at - 2500`` guess here; a
    detector declaration alone, e.g. pings starved by a lossy link, is
    not evidence that acked state could legitimately vanish).
    """
    troubles = {}
    for crash in cluster.crash_log:
        troubles.setdefault(crash["index"], []).append(crash["at"])
    for event in nemesis_log:
        if event["kind"] == "hang":
            troubles.setdefault(event["index"], []).append(event["at"])
    windows = []
    for record in cluster.coordinator.failover_log:
        if record.get("suppressed") or record.get("deferred"):
            continue
        if not record.get("promoted"):
            continue
        promoted_at = record["promoted_at"]
        candidates = [
            at for at in troubles.get(record["index"], ())
            if at <= promoted_at
        ]
        if not candidates:
            continue
        lo = max(candidates) - SHIP_MARGIN_US
        # One window per hash slot hosted by the promoted node.  The
        # record carries the hosted set under elastic slot maps; absent
        # (static layout, legacy records) the identity slot stands in.
        for slot in record.get("slots", (record["index"],)):
            windows.append((slot, lo, promoted_at))
    return windows


def tainted_slot_set(cluster, nemesis_log):
    """Slots whose durable state became unaccountable: a WAL corruption
    fired and the slot later resumed as *primary* from that log (a
    generated corruption does when an earlier promotion used up the
    slot's standby)."""
    corrupted = {}
    for event in nemesis_log:
        if event["kind"] == "corrupt_wal":
            corrupted.setdefault(event["index"], []).append(event["at"])
    tainted = set()
    for record in cluster.restart_log:
        if record["role"] != "primary":
            continue
        if any(at <= record["recovered_at"]
               for at in corrupted.get(record["index"], ())):
            tainted.add(record["index"])
    return tainted
