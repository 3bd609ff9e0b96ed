"""Seeded schedule generation: one integer -> one reproducible run.

A schedule is plain JSON data — operations with think times for each
client, and nemesis events with absolute fire times — generated entirely
up front from a private ``random.Random(seed)``.  Nothing is drawn at
run time, which is what makes the shrinker sound: dropping any subset of
ops or nemesis events replays the survivors bit-identically.

Each op kind is one row of :data:`OPS` and each nemesis kind one row of
:data:`repro.faults.injector.NEMESIS_KINDS`, whose ``shape`` draws its
events and its settle margin; the generator itself has no per-kind
code.  The draw order is the schedule format, pinned by a digest in
``tests/test_check.py``.

Generation enforces the safety envelope the oracle's loss-accounting
depends on:

* **fault windows are globally serialized** — one MNode slot is in
  trouble at a time, and the next window opens only after the row's
  shape says the slot is healthy again (restarted, un-hung or
  un-partitioned) plus its settle margin.  Overlapping faults would
  wedge the coordinator's repair broadcasts (``invalidate_owner``/fsck
  fan out to *all* peers) and make promotion loss unattributable.
* **WAL corruption is always paired** with a crash of the same slot and
  a slow restart.  The failure detector usually promotes the standby
  first, and the rejoin path discards the corrupted log.  But once an
  earlier promotion has used up the slot's standby, there is no one to
  promote: the restart resumes as primary from the truncated log, and
  the oracle excuses that slot through ``tainted_slot_set``.
* **namespace pools are disjoint** — file names and directory names
  never collide, and renames/chmods target files only, so the workload
  never runs a directory-wide invalidation (rmdir, directory
  chmod/rename).  Those broadcasts are bounded ``call_all`` rounds like
  every other; they are unscheduled because their ``OPS`` rows, with
  the oracle effects a subtree removal or rename needs, are not written
  yet.
"""

import random
from collections import namedtuple

from repro.faults.injector import NEMESIS_KINDS

CHMOD_MODES = (0o600, 0o640, 0o644, 0o660, 0o664)
WRITE_SIZES = (512, 2048, 8192)

#: The namespace a schedule's ops draw their paths from.
Pools = namedtuple("Pools", "dirs subdirs files")

#: One row per workload op: its ``weight`` in the mix, ``draw(rng,
#: pools)`` for the op's own fields, and ``call(client, op)`` for the
#: client generator that performs it.
Op = namedtuple("Op", "weight draw call")


def _file(rng, pools):
    return {"path": rng.choice(pools.files)}


def _rename(rng, pools):
    src = rng.choice(pools.files)
    return {"src": src,
            "dst": rng.choice([f for f in pools.files if f != src])}


def _getattr(rng, pools):
    pool = (pools.files if rng.random() < 0.8
            else pools.dirs + pools.subdirs)
    return {"path": rng.choice(pool)}


#: The operation mix.  Creates/unlinks/renames/reads dominate; mkdir
#: targets its own (childless) subdirectory pool.
OPS = {
    "create": Op(24, _file, lambda client, op: client.create(op["path"])),
    "unlink": Op(14, _file, lambda client, op: client.unlink(op["path"])),
    "rename": Op(9, _rename,
                 lambda client, op: client.rename(op["src"], op["dst"])),
    "getattr": Op(16, _getattr,
                  lambda client, op: client.getattr(op["path"])),
    "readdir": Op(8, lambda rng, pools: {"path": rng.choice(pools.dirs)},
                  lambda client, op: client.readdir(op["path"])),
    "mkdir": Op(7, lambda rng, pools: {"path": rng.choice(pools.subdirs)},
                lambda client, op: client.mkdir(op["path"])),
    "chmod": Op(6, lambda rng, pools: dict(
                    _file(rng, pools), mode=rng.choice(CHMOD_MODES)),
                lambda client, op: client.chmod(op["path"], op["mode"])),
    "write": Op(8, lambda rng, pools: dict(
                    _file(rng, pools), size=rng.choice(WRITE_SIZES)),
                lambda client, op: client.write_file(
                    op["path"], op["size"], exclusive=False)),
    "read": Op(8, _file, lambda client, op: client.read_file(op["path"])),
}

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
    config = {
        "num_mnodes": num_mnodes,
        "num_storage": num_storage,
        "num_clients": num_clients,
        "replication": True,
        # The "election" family runs the quorum-replicated metadata
        # tier (consensus groups + leader leases) in place of
        # coordinator-ordained promotion.
        "consensus": nemesis_mix == "election",
        "rpc_timeout_us": 400.0,
        "op_deadline_us": 30000.0,
        # Jittered backoff: stampedes must not meet synchronized retry
        # storms.
        "retry_jitter": 0.25,
        "nemesis_mix": nemesis_mix,
        "budget_us": budget_us,
        "quiesce_budget_us": quiesce_budget_us,
        # The migrate family hashes over more slots than nodes so every
        # node hosts several and a handoff moves a real share of the
        # namespace; 0 keeps the static identity layout (one slot per
        # MNode) every other family runs.
        "num_slots": 3 * num_mnodes if nemesis_mix == "migrate" else 0,
    }
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

    pools = Pools(dirs, subdirs, files)
    op_kinds = list(OPS)
    op_weights = [row.weight for row in OPS.values()]
    ops = []
    for op_id in range(num_ops):
        kind = rng.choices(op_kinds, weights=op_weights)[0]
        ops.append({
            "id": op_id,
            "client": rng.randrange(num_clients),
            "kind": kind,
            "delay_us": round(rng.uniform(20.0, 160.0), 3),
            **OPS[kind].draw(rng, pools),
        })

    nemesis_kinds, nemesis_weights = zip(*mix)
    nemeses = []
    busy_until = 1200.0
    for group in range(num_nemeses):
        start = busy_until + rng.uniform(300.0, 1500.0)
        kind = rng.choices(nemesis_kinds, weights=nemesis_weights)[0]
        index = rng.randrange(num_mnodes)
        events, busy_until = NEMESIS_KINDS[kind].shape(
            rng, kind, start, index, config)
        nemeses.extend({"group": group, **event} for event in events)

    return {
        "version": 1,
        "seed": seed,
        "config": config,
        "preload_dirs": dirs,
        "ops": ops,
        "nemeses": nemeses,
    }
