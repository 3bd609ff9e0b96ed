"""Seeded schedule generation: one integer -> one reproducible run.

A schedule is plain JSON data — operations with think times for each
client, and nemesis events with absolute fire times — generated entirely
up front from a private ``random.Random(seed)``.  Nothing is drawn at
run time, which is what makes the shrinker sound: dropping any subset of
ops or nemesis events replays the survivors bit-identically.

Generation enforces the safety envelope the oracle's loss-accounting
depends on:

* **fault windows are globally serialized** — one MNode slot is in
  trouble at a time, and every window ends with the slot healthy again
  (restarted, un-hung or un-partitioned) plus a settling margin.
  Overlapping faults would wedge the coordinator's repair broadcasts
  (``invalidate_owner``/fsck fan out to *all* peers) and make promotion
  loss unattributable.
* **WAL corruption is always paired** with a crash of the same slot and
  a restart late enough that the failure detector promotes the standby
  first — the corrupted log is then discarded by the rejoin path.  A
  fast resume would silently restore a truncated prefix, which is real
  unhandled data loss, not a schedule the current system can pass.
* **namespace pools are disjoint** — file names and directory names
  never collide, and renames/chmods target files only, so the workload
  never triggers the directory-wide invalidation broadcasts (rmdir,
  directory chmod/rename) that fan out unbounded to every peer.
"""

import random

#: Operation mix (kind, weight).  Creates/unlinks/renames/reads dominate;
#: mkdir targets its own (childless) subdirectory pool.
OP_MIX = (
    ("create", 24),
    ("unlink", 14),
    ("rename", 9),
    ("getattr", 16),
    ("readdir", 8),
    ("mkdir", 7),
    ("chmod", 6),
    ("write", 8),
    ("read", 8),
)

NEMESIS_MIX = (
    ("crash", 40),
    ("corrupt_wal", 15),
    ("hang", 25),
    ("partition", 20),
)

#: Gray (slow-not-dead) nemeses: the victim keeps answering throughout,
#: so none of these may be excused like a crash by the oracle.
GRAY_NEMESIS_MIX = (
    ("slow_disk", 30),
    ("degrade_link", 35),
    ("skew_clock", 20),
    ("stampede", 15),
)

#: Consensus-tier nemeses: leader isolation, split-brain and asymmetric
#: (directed) partitions, plus crash/restart churn.  Runs with this mix
#: enable the consensus config flag, and the oracle runs *tightened* —
#: no promotion-loss excusal: an acknowledged write must survive every
#: election, and a minority-partitioned leader must never acknowledge.
ELECTION_NEMESIS_MIX = (
    ("leader_partition", 35),
    ("asymm_partition", 25),
    ("split_brain", 15),
    ("crash", 25),
)

#: Elastic-namespace nemeses: online slot migrations under live
#: traffic, mixed with dead and gray faults (``corrupt_wal`` stays out:
#: its taint accounting is keyed by physical node, not hash slot).
#: Runs with this mix hash over more slots than nodes (see
#: :func:`generate_schedule`) so every node hosts several and a handoff
#: moves real load.  NO excusal attaches to a migration: every acked op
#: must survive every handoff, bit-exactly.
MIGRATE_NEMESIS_MIX = (
    ("migrate_slot", 35),
    ("crash", 20),
    ("partition", 15),
    ("hang", 10),
    ("slow_disk", 10),
    ("degrade_link", 10),
)

#: Selectable nemesis families (the ``--nemesis-mix`` CLI knob).
NEMESIS_MIXES = {
    "classic": NEMESIS_MIX,
    "gray": GRAY_NEMESIS_MIX,
    "mixed": NEMESIS_MIX + GRAY_NEMESIS_MIX,
    "election": ELECTION_NEMESIS_MIX,
    "migrate": MIGRATE_NEMESIS_MIX,
}

CHMOD_MODES = (0o600, 0o640, 0o644, 0o660, 0o664)
WRITE_SIZES = (512, 2048, 8192)


def generate_schedule(seed, num_ops=80, num_clients=3, num_mnodes=3,
                      num_storage=2, num_nemeses=3, budget_us=600000.0,
                      quiesce_budget_us=300000.0, nemesis_mix="mixed"):
    """Expand ``seed`` into a complete, self-contained schedule dict.

    ``nemesis_mix`` selects the fault family: ``"classic"`` (crash /
    corrupt / hang / partition), ``"gray"`` (slow disk / degraded link /
    clock skew / stampede — the victim stays alive throughout), or
    ``"mixed"`` (both, the default).
    """
    rng = random.Random(seed)
    mix = NEMESIS_MIXES[nemesis_mix]
    # The migrate family hashes over more slots than nodes so every
    # node hosts several and a handoff moves a real share of the
    # namespace; other families keep the static identity layout.
    num_slots = 3 * num_mnodes if nemesis_mix == "migrate" else 0
    num_dirs = 3
    dirs = ["/d{}".format(i) for i in range(num_dirs)]
    subdirs = [
        "{}/sub{}".format(d, j) for d in dirs for j in range(3)
    ]
    files = [
        "{}/s{}.dat".format(d, j) for d in dirs for j in range(4)
    ] + [
        "{}/c{}n{}.dat".format(d, c, j)
        for d in dirs for c in range(num_clients) for j in range(2)
    ]

    op_kinds = [kind for kind, _ in OP_MIX]
    op_weights = [weight for _, weight in OP_MIX]
    ops = []
    for op_id in range(num_ops):
        kind = rng.choices(op_kinds, weights=op_weights)[0]
        op = {
            "id": op_id,
            "client": rng.randrange(num_clients),
            "kind": kind,
            "delay_us": round(rng.uniform(20.0, 160.0), 3),
        }
        if kind == "rename":
            src = rng.choice(files)
            dst = rng.choice([f for f in files if f != src])
            op["src"] = src
            op["dst"] = dst
        elif kind == "mkdir":
            op["path"] = rng.choice(subdirs)
        elif kind == "readdir":
            op["path"] = rng.choice(dirs)
        elif kind == "getattr":
            pool = files if rng.random() < 0.8 else dirs + subdirs
            op["path"] = rng.choice(pool)
        elif kind == "chmod":
            op["path"] = rng.choice(files)
            op["mode"] = rng.choice(CHMOD_MODES)
        elif kind == "write":
            op["path"] = rng.choice(files)
            op["size"] = rng.choice(WRITE_SIZES)
        else:  # create / unlink / read
            op["path"] = rng.choice(files)
        ops.append(op)

    nemesis_kinds = [kind for kind, _ in mix]
    nemesis_weights = [weight for _, weight in mix]
    nemeses = []
    busy_until = 1200.0
    for group in range(num_nemeses):
        start = busy_until + rng.uniform(300.0, 1500.0)
        kind = rng.choices(nemesis_kinds, weights=nemesis_weights)[0]
        index = rng.randrange(num_mnodes)
        if kind == "crash":
            nemeses.append({"group": group, "kind": "crash",
                            "at_us": round(start, 3), "index": index})
            if rng.random() < 0.45:
                # Fast restart: redo recovery races (and may beat) the
                # failure detector's promotion (or, under consensus,
                # the follower's election timer).
                restart_at = start + rng.uniform(600.0, 1700.0)
            elif nemesis_mix == "election":
                # Slow restart, consensus flavor: past the worst-case
                # election timer draw (2T = 8 ms) plus the claim round,
                # so the follower's election wins the slot and the
                # machine rejoins as the new data follower.
                restart_at = start + rng.uniform(9500.0, 14000.0)
            else:
                # Slow restart: promotion wins, the machine rejoins as a
                # standby.
                restart_at = start + rng.uniform(4500.0, 8000.0)
            nemeses.append({"group": group, "kind": "restart",
                            "at_us": round(restart_at, 3), "index": index})
            busy_until = restart_at + 3000.0
        elif kind == "corrupt_wal":
            nemeses.append({
                "group": group, "kind": "corrupt_wal",
                "at_us": round(start, 3), "index": index,
                "rng_seed": rng.getrandbits(48),
            })
            crash_at = start + rng.uniform(80.0, 300.0)
            nemeses.append({"group": group, "kind": "crash",
                            "at_us": round(crash_at, 3), "index": index})
            # Late enough that detection (~miss_threshold * interval)
            # promotes the standby first; the corrupt WAL is discarded.
            restart_at = crash_at + rng.uniform(5200.0, 8000.0)
            nemeses.append({"group": group, "kind": "restart",
                            "at_us": round(restart_at, 3), "index": index})
            busy_until = restart_at + 3000.0
        elif kind == "hang":
            duration = rng.uniform(300.0, 2400.0)
            nemeses.append({
                "group": group, "kind": "hang", "at_us": round(start, 3),
                "index": index, "duration_us": round(duration, 3),
            })
            busy_until = start + duration + 2600.0
        elif kind == "partition":
            duration = rng.uniform(400.0, 2600.0)
            nemeses.append({
                "group": group, "kind": "partition",
                "at_us": round(start, 3), "index": index,
                "duration_us": round(duration, 3),
            })
            busy_until = start + duration + 2600.0
        elif kind == "slow_disk":
            duration = rng.uniform(1500.0, 4000.0)
            nemeses.append({
                "group": group, "kind": "slow_disk",
                "at_us": round(start, 3), "index": index,
                "duration_us": round(duration, 3),
                "fsync_factor": round(rng.uniform(4.0, 40.0), 3),
                "bandwidth_factor": round(rng.uniform(2.0, 10.0), 3),
                "ramp_us": round(rng.uniform(200.0, 800.0), 3),
            })
            busy_until = start + duration + 2600.0
        elif kind == "degrade_link":
            duration = rng.uniform(800.0, 3000.0)
            nemeses.append({
                "group": group, "kind": "degrade_link",
                "at_us": round(start, 3), "index": index,
                "duration_us": round(duration, 3),
                "latency_factor": round(rng.uniform(2.0, 10.0), 3),
                "loss_prob": round(rng.uniform(0.05, 0.35), 4),
                "reorder_window_us": round(rng.uniform(40.0, 350.0), 3),
                "rng_seed": rng.getrandbits(48),
            })
            busy_until = start + duration + 2600.0
        elif kind == "skew_clock":
            duration = rng.uniform(1000.0, 4000.0)
            offset = rng.uniform(200.0, 6000.0) * rng.choice((-1.0, 1.0))
            drift = rng.uniform(0.0, 80000.0) * rng.choice((-1.0, 1.0))
            event = {
                "group": group, "kind": "skew_clock",
                "at_us": round(start, 3),
                "duration_us": round(duration, 3),
                "offset_us": round(offset, 3),
                "drift_ppm": round(drift, 3),
            }
            if rng.random() < 0.35:
                event["target"] = "coordinator"
                event["index"] = None
            else:
                event["index"] = index
            nemeses.append(event)
            busy_until = start + duration + 2600.0
        elif kind == "leader_partition":
            # Long enough for the lease to lapse AND the follower's
            # randomized election timer (up to 2T = 8 ms) to fire.
            duration = rng.uniform(9000.0, 16000.0)
            nemeses.append({
                "group": group, "kind": "leader_partition",
                "at_us": round(start, 3), "index": index,
                "duration_us": round(duration, 3),
            })
            busy_until = start + duration + 6000.0
        elif kind == "split_brain":
            duration = rng.uniform(3000.0, 9000.0)
            nemeses.append({
                "group": group, "kind": "split_brain",
                "at_us": round(start, 3), "index": index,
                "duration_us": round(duration, 3),
            })
            busy_until = start + duration + 4000.0
        elif kind == "asymm_partition":
            duration = rng.uniform(9000.0, 16000.0)
            nemeses.append({
                "group": group, "kind": "asymm_partition",
                "at_us": round(start, 3), "index": index,
                "duration_us": round(duration, 3),
                "direction": rng.choice(("inbound", "outbound")),
            })
            busy_until = start + duration + 6000.0
        elif kind == "migrate_slot":
            # Slot and destination are pinned NOW, from the schedule
            # RNG — nothing is drawn at run time, so the shrinker can
            # drop any subset and replay the survivors bit-identically.
            # The destination may equal the current owner (ownership at
            # fire time is unknowable at generation); the injector
            # logs a no-op and moves on.
            nemeses.append({
                "group": group, "kind": "migrate_slot",
                "at_us": round(start, 3),
                "slot": rng.randrange(num_slots),
                "dest": rng.randrange(num_mnodes),
            })
            # Generous settling margin: snapshot/install/fence/activate
            # round trips plus bounded retries before the next fault
            # window opens.
            busy_until = start + 9000.0
        else:  # stampede
            nemeses.append({
                "group": group, "kind": "stampede",
                "at_us": round(start, 3),
            })
            busy_until = start + 1500.0

    return {
        "version": 1,
        "seed": seed,
        "config": {
            "num_mnodes": num_mnodes,
            "num_storage": num_storage,
            "num_clients": num_clients,
            "replication": True,
            # The "election" family runs the quorum-replicated
            # metadata tier (consensus groups + leader leases) in
            # place of coordinator-ordained promotion.
            "consensus": nemesis_mix == "election",
            "rpc_timeout_us": 400.0,
            "op_deadline_us": 30000.0,
            # Jittered backoff: stampedes must not meet synchronized
            # retry storms.
            "retry_jitter": 0.25,
            "nemesis_mix": nemesis_mix,
            "budget_us": budget_us,
            "quiesce_budget_us": quiesce_budget_us,
            # Elastic slot count (0 = one slot per MNode, the static
            # identity layout every other family keeps).
            "num_slots": num_slots,
        },
        "preload_dirs": dirs,
        "ops": ops,
        "nemeses": nemeses,
    }
