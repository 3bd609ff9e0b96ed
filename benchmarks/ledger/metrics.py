"""The ledger's vocabulary: workloads, metrics, bounds, entry points.

Everything a later issue cites by name is declared here once; `run.py`
measures what these tables name, `--manifest` renders `BENCHMARK.json`
from them, and `test_ledger.py` checks that every name is emitted.
"""

import importlib

#: Layers are the package names under ``src/repro``; ``other`` collects
#: the standard library and the packages no metric is declared for.
LAYERS = ("sim", "net", "runtime", "storage", "core", "vfs", "faults",
          "check", "workloads", "obs", "metrics", "other")

SIMULATED = ("create_storm", "deep_stat", "train_epoch")

#: How a repetition runs: untraced, with a ``Tracer``, or under cProfile.
PLAIN, SPANS, PROFILE = "plain", "spans", "profile"

#: name -> (why, full-scale size, smoke-scale size).  Sizes are the
#: per-repetition inputs; the closed-loop client counts are part of them.
WORKLOADS = {
    "create_storm": (
        "Write path: 64 closed-loop threads create files through one libfs "
        "client; merging, locks, WAL group commit and B-link inserts work, "
        "vfs and the data path idle.",
        {"ops": 40000, "threads": 64, "mnodes": 4, "storage": 4},
        {"ops": 1000, "threads": 64, "mnodes": 4, "storage": 4},
    ),
    "deep_stat": (
        "Read path: shuffled getattr over a 5-level bulk-loaded tree via a "
        "vfs client; same storage and core layers, no WAL write, so a "
        "write-path change predicts no change here.",
        {"levels": 5, "fanout": 4, "files_per_leaf": 20, "threads": 64,
         "mnodes": 4, "storage": 4},
        {"levels": 3, "fanout": 4, "files_per_leaf": 20, "threads": 64,
         "mnodes": 4, "storage": 4},
    ),
    "train_epoch": (
        "Fig 17 reduced: 32 simulated GPUs read 16,000 small files once in "
        "random order through 8 vfs clients at 1000 us compute per batch, "
        "so accelerator utilization is unsaturated.",
        {"dirs": 1600, "files_per_dir": 10, "file_bytes": 112 * 1024,
         "gpus": 32, "clients": 8, "batch": 16, "compute_us": 1000.0,
         "mnodes": 4, "storage": 12},
        {"dirs": 100, "files_per_dir": 10, "file_bytes": 112 * 1024,
         "gpus": 32, "clients": 8, "batch": 16, "compute_us": 1000.0,
         "mnodes": 4, "storage": 12},
    ),
    "fault_sweep": (
        "Checker speed: seeded schedules under the mixed, election and "
        "migrate nemesis mixes plus one MNode failover; the only workload "
        "where faults, consensus, replication and recovery run.",
        {"seeds_per_mix": 20, "seed_pool": 120,
         "mixes": ["mixed", "election", "migrate"], "failover_threads": 8,
         "failover_duration_us": 25000.0, "failover_warm_us": 6000.0},
        {"seeds_per_mix": 2, "seed_pool": 120,
         "mixes": ["mixed", "election", "migrate"], "failover_threads": 8,
         "failover_duration_us": 25000.0, "failover_warm_us": 6000.0},
    ),
    "live_mix": (
        "Real clock: repro.serve on loopback TCP (3 MNodes, no WAL dir), "
        "one client process, 2 ops in flight, a create/stat/open/rename/ls "
        "plan; the only workload where runtime and serve work.",
        {"ops": 3000, "warmup": 500, "dirs": 8, "mnodes": 3, "in_flight": 2},
        {"ops": 400, "warmup": 80, "dirs": 8, "mnodes": 3, "in_flight": 2},
    ),
}


def size_of(workload, smoke=False):
    return WORKLOADS[workload][2 if smoke else 1]


#: The metrics every workload reports (the driver's contract wants each
#: end-to-end metric from each workload): (name, unit, better, bound,
#: exact).  ``exact`` values are simulated and repeat bit for bit at one
#: seed; their bounds cover the spread *across* seeds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, False),
    ("host_ops_per_s", "1/s", "higher", 0.25, False),
    ("sim_ops_per_s", "1/s", "higher", 0.25, True),
    ("sim_p50_us", "us", "lower", 0.20, True),
    ("sim_p99_us", "us", "lower", 0.20, True),
    ("peak_rss_mb", "MiB", "lower", 0.10, False),
]

#: The issue's twelve names, as the full ledger prints them: (name, unit,
#: better, bound, exact, workloads, source key, factor).  Six are the
#: contract metrics above restricted to their home workloads; the rest
#: are the same measurements under the names later issues cite.
ALL = tuple(WORKLOADS)
LEDGER_ROWS = [
    ("setup_s", "s", "lower", 0.25, False, ALL, "setup_s", 1.0),
    ("sim_ops_per_s", "1/s", "higher", 0.01, True, SIMULATED,
     "sim_ops_per_s", 1.0),
    ("sim_p50_us", "us", "lower", 0.01, True, SIMULATED, "sim_p50_us", 1.0),
    ("sim_p99_us", "us", "lower", 0.01, True, SIMULATED, "sim_p99_us", 1.0),
    ("accelerator_utilization", "ratio", "higher", 0.01, True,
     ("train_epoch",), "workloads.accelerator_utilization", 1.0),
    ("sim_failover_gap_us", "us", "lower", 0.01, True, ("fault_sweep",),
     "faults.failover_gap_sim_us", 1.0),
    ("host_ops_per_s", "1/s", "higher", 0.10, False, SIMULATED,
     "host_ops_per_s", 1.0),
    ("schedules_per_min", "1/min", "higher", 0.10, False, ("fault_sweep",),
     "host_ops_per_s", 60.0),
    ("live_ops_per_s", "1/s", "higher", 0.10, False, ("live_mix",),
     "host_ops_per_s", 1.0),
    ("live_p50_us", "us", "lower", 0.10, False, ("live_mix",),
     "serve.p50_us", 1.0),
    ("failed_share", "ratio", "lower", 0.0, True, ALL, "failed_share", 1.0),
    ("peak_rss_mb", "MiB", "lower", 0.10, False, ALL, "peak_rss_mb", 1.0),
]

# (name, unit, better, source, moves).  Sources: ``count`` = exact
# counters the program exposes, read after the untraced run; ``micro`` =
# fixed-input microbenchmark of the layer's public functions; ``traced``
# = the extra profiled / span-traced repetition; ``timed`` = host time
# the benchmark measures around a call; ``scraped`` = counters read from
# the live nodes' Prometheus endpoints (real clock, so not exact).  ``moves`` names the end-to-end
# metric (and workload) the number is expected to move.  A workload in
# which a layer does no work reports 0 for that layer's metrics.
_ALL_SIM = "host_ops_per_s on create_storm, deep_stat, train_epoch"
PER_LAYER = [
    # sim
    ("sim.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("sim.events_per_op", "count", "lower", "count", _ALL_SIM),
    ("sim.host_us_per_event", "us", "lower", "timed", _ALL_SIM),
    ("sim.timeout_dispatch_ns", "ns", "lower", "micro", _ALL_SIM),
    ("sim.process_switch_ns", "ns", "lower", "micro", _ALL_SIM),
    ("sim.resource_cycle_ns", "ns", "lower", "micro", _ALL_SIM),
    ("sim.store_cycle_ns", "ns", "lower", "micro", _ALL_SIM),
    ("sim.allof_fanout_ns", "ns", "lower", "micro",
     "host_ops_per_s on train_epoch"),
    # net
    ("net.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("net.messages_per_op", "count", "lower", "count",
     "sim_p50_us everywhere; live_p50_us on live_mix"),
    ("net.bytes_per_op", "B", "lower", "count", "sim_p50_us everywhere"),
    ("net.sim_us_per_op", "us", "lower", "traced", "sim_p50_us everywhere"),
    ("net.send_deliver_ns", "ns", "lower", "micro", _ALL_SIM),
    # runtime
    ("runtime.host_self_share", "ratio", "lower", "traced",
     "live_ops_per_s on live_mix"),
    ("runtime.wire_encode_ns", "ns", "lower", "micro",
     "live_p50_us on live_mix"),
    ("runtime.wire_decode_ns", "ns", "lower", "micro",
     "live_p50_us on live_mix"),
    ("runtime.frame_bytes", "B", "lower", "micro",
     "live_p50_us on live_mix"),
    ("runtime.aio_switch_ns", "ns", "lower", "micro",
     "live_ops_per_s on live_mix"),
    ("runtime.loopback_rtt_us", "us", "lower", "micro",
     "live_p50_us on live_mix (its floor)"),
    # storage
    ("storage.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("storage.btree_insert_ns", "ns", "lower", "micro",
     "host_ops_per_s on create_storm"),
    ("storage.btree_get_ns", "ns", "lower", "micro",
     "host_ops_per_s on deep_stat"),
    ("storage.btree_delete_ns", "ns", "lower", "micro",
     "schedules_per_min on fault_sweep"),
    ("storage.btree_scan_ns_per_key", "ns", "lower", "micro",
     "live_p50_us on live_mix (ls)"),
    ("storage.lock_cycle_ns", "ns", "lower", "micro",
     "host_ops_per_s on create_storm"),
    ("storage.lock_contended_cycle_ns", "ns", "lower", "micro",
     "host_ops_per_s on create_storm"),
    ("storage.txn_commit_ns", "ns", "lower", "micro",
     "host_ops_per_s on create_storm"),
    ("storage.wal_commit_ns_per_record", "ns", "lower", "micro",
     "host_ops_per_s on create_storm"),
    ("storage.wal_replay_ns_per_record", "ns", "lower", "micro",
     "schedules_per_min on fault_sweep"),
    ("storage.wal_flushes_per_op", "count", "lower", "count",
     "sim_ops_per_s on create_storm; 0 on deep_stat"),
    ("storage.wal_records_per_flush", "count", "higher", "count",
     "sim_ops_per_s on create_storm"),
    ("storage.wal_bytes_per_op", "B", "lower", "count",
     "sim_p50_us on create_storm"),
    ("storage.wal_sim_us_per_op", "us", "lower", "traced",
     "sim_p50_us on create_storm"),
    ("storage.lock_sim_us_per_op", "us", "lower", "traced",
     "sim_p99_us on create_storm"),
    ("storage.quorum_commit_host_us", "us", "lower", "micro",
     "schedules_per_min on fault_sweep"),
    ("storage.quorum_commit_sim_us", "us", "lower", "micro",
     "sim_failover_gap_us on fault_sweep"),
    # core
    ("core.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("core.batch_size_mean", "count", "higher", "count",
     "sim_ops_per_s, sim_p99_us on create_storm"),
    ("core.requests_per_op", "count", "lower", "count",
     "sim_p50_us on deep_stat (1.0 = stateless client)"),
    ("core.forwarded_per_op", "count", "lower", "count",
     "sim_p50_us on deep_stat"),
    ("core.remote_lookups_per_op", "count", "lower", "count",
     "sim_p50_us on deep_stat"),
    ("core.coordinator_ops_per_op", "count", "lower", "count",
     "live_p50_us on live_mix"),
    ("core.blocks_per_file", "count", "lower", "count",
     "accelerator_utilization on train_epoch"),
    ("core.inode_cv", "ratio", "lower", "count",
     "sim_p99_us on create_storm, deep_stat"),
    ("core.queue_sim_us_per_op", "us", "lower", "traced",
     "sim_ops_per_s, sim_p99_us on create_storm"),
    ("core.cpu_sim_us_per_op", "us", "lower", "traced",
     "sim_ops_per_s everywhere"),
    ("core.disk_sim_us_per_op", "us", "lower", "traced",
     "accelerator_utilization on train_epoch"),
    ("core.retry_sim_us_per_op", "us", "lower", "traced",
     "sim_p99_us everywhere"),
    ("core.other_sim_us_per_op", "us", "lower", "traced",
     "sim_p50_us everywhere"),
    ("core.index_locate_ns", "ns", "lower", "micro",
     "host_ops_per_s on deep_stat"),
    ("core.stable_hash_ns", "ns", "lower", "micro",
     "host_ops_per_s on deep_stat"),
    # vfs
    ("vfs.host_self_share", "ratio", "lower", "traced",
     "host_ops_per_s on deep_stat, train_epoch; < 0.05 on create_storm"),
    ("vfs.split_path_ns", "ns", "lower", "micro",
     "host_ops_per_s on deep_stat"),
    ("vfs.dcache_lookup_ns", "ns", "lower", "micro",
     "host_ops_per_s on deep_stat, train_epoch"),
    ("vfs.dcache_insert_ns", "ns", "lower", "micro",
     "host_ops_per_s on deep_stat"),
    ("vfs.pathwalk_ns", "ns", "lower", "micro",
     "host_ops_per_s on deep_stat, train_epoch"),
    ("vfs.dcache_hit_rate", "ratio", "higher", "count",
     "sim_p50_us on deep_stat, train_epoch"),
    ("vfs.dcache_bytes", "B", "lower", "count", "peak_rss_mb"),
    ("vfs.revalidate_fake_per_op", "count", "lower", "count",
     "sim_p50_us on deep_stat"),
    # faults, check
    ("faults.host_self_share", "ratio", "lower", "traced",
     "schedules_per_min on fault_sweep"),
    ("faults.failover_gap_sim_us", "us", "lower", "count",
     "sim_ops_per_s on fault_sweep (the issue's sim_failover_gap_us)"),
    ("check.host_self_share", "ratio", "lower", "traced",
     "schedules_per_min on fault_sweep"),
    ("check.host_ms_per_schedule.mixed", "ms", "lower", "timed",
     "schedules_per_min on fault_sweep"),
    ("check.host_ms_per_schedule.election", "ms", "lower", "timed",
     "schedules_per_min on fault_sweep"),
    ("check.host_ms_per_schedule.migrate", "ms", "lower", "timed",
     "schedules_per_min on fault_sweep"),
    ("check.generate_ms_per_schedule", "ms", "lower", "timed",
     "schedules_per_min on fault_sweep"),
    ("check.ops_per_schedule", "count", "lower", "count",
     "schedules_per_min on fault_sweep"),
    ("check.nemeses_per_schedule", "count", "lower", "count",
     "schedules_per_min on fault_sweep"),
    ("check.promotions_per_schedule", "count", "lower", "count",
     "schedules_per_min on fault_sweep"),
    ("check.sim_us_per_schedule", "us", "lower", "count",
     "schedules_per_min on fault_sweep"),
    # serve
    ("serve.p50_us", "us", "lower", "timed",
     "live_ops_per_s on live_mix (the issue's live_p50_us)"),
    ("serve.p95_us", "us", "lower", "timed", "live_ops_per_s on live_mix"),
    ("serve.p99_us", "us", "lower", "timed", "live_ops_per_s on live_mix"),
    ("serve.max_us", "us", "lower", "timed", "live_ops_per_s on live_mix"),
    ("serve.p50_us.create", "us", "lower", "timed",
     "live_p50_us on live_mix"),
    ("serve.p50_us.stat", "us", "lower", "timed", "live_p50_us on live_mix"),
    ("serve.p50_us.open", "us", "lower", "timed", "live_p50_us on live_mix"),
    ("serve.p50_us.rename", "us", "lower", "timed",
     "serve.p95_us on live_mix (the tail)"),
    ("serve.p50_us.ls", "us", "lower", "timed",
     "serve.p95_us on live_mix (the tail)"),
    ("serve.client_cpu_share", "ratio", "lower", "timed",
     "live_ops_per_s on live_mix"),
    ("serve.server_cpu_s", "s", "lower", "timed",
     "live_ops_per_s on live_mix"),
    ("serve.mnode_received_per_op", "count", "lower", "scraped",
     "live_p50_us on live_mix"),
    ("serve.coordinator_ops_per_op", "count", "lower", "scraped",
     "serve.p50_us.rename on live_mix"),
    ("serve.boot_s", "s", "lower", "timed", "setup_s on live_mix"),
    # workloads, obs, metrics, other
    ("workloads.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("workloads.plan_build_s", "s", "lower", "timed", "setup_s on live_mix"),
    ("workloads.accelerator_utilization", "ratio", "higher", "count",
     "sim_ops_per_s on train_epoch (the issue's accelerator_utilization)"),
    ("obs.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("metrics.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("other.host_self_share", "ratio", "lower", "traced", _ALL_SIM),
    ("obs.profile_overhead_ratio", "ratio", "lower", "traced",
     "none: the price of profiling, why end-to-end runs are untraced"),
    ("obs.tracer_overhead_ratio", "ratio", "lower", "traced",
     "none: the price of spans, why end-to-end runs are untraced"),
]

PER_LAYER_NAMES = [row[0] for row in PER_LAYER]
EXACT = ({row[0] for row in END_TO_END if row[4]}
         | {row[0] for row in PER_LAYER if row[3] == "count"}
         | {"failed_share"})

#: ``module:qualname`` of every public function the workloads, the
#: microbenchmarks and the profile bucket map call into.  The test
#: resolves each, so a rename fails loudly instead of dropping a row.
ENTRY_POINTS = [
    "repro.experiments.common:build_cluster",
    "repro.experiments.failover:measure",
    "repro.workloads.driver:run_closed_loop",
    "repro.workloads.driver:training_run",
    "repro.workloads.trees:private_dirs_tree",
    "repro.workloads.trees:uniform_tree",
    "repro.workloads.trees:flat_burst_tree",
    "repro.check.worker:explore_seed",
    "repro.check.schedule:generate_schedule",
    "repro.analysis.breakdown:breakdown_rows",
    "repro.obs:Tracer",
    "repro.serve.main:build_workload",
    "repro.serve.main:plan_deps",
    "repro.serve.main:client_op",
    "repro.serve.main:serve_config",
    "repro.serve.main:topology",
    "repro.serve.main:build_parser",
    "repro.core.cluster:FalconCluster.bulk_load",
    "repro.core.cluster:FalconCluster.verify",
    "repro.core.cluster:FalconCluster.inode_distribution",
    "repro.core.client:FalconClient.create",
    "repro.core.client:FalconClient.getattr",
    "repro.core.client:FalconClient.read_file",
    "repro.core.client:FalconClient.readdir",
    "repro.core.shared:ClusterShared",
    "repro.core.shared:FalconConfig",
    "repro.core.indexing:HybridIndex.locate",
    "repro.core.indexing:stable_hash",
    "repro.core.records:DentryRecord",
    "repro.core.records:InodeRecord",
    "repro.sim.engine:Environment.schedule_timeout",
    "repro.sim.engine:Environment.process",
    "repro.sim.engine:Environment.all_of",
    "repro.sim.engine:Environment.events_scheduled",
    "repro.sim.resources:Resource.request",
    "repro.sim.resources:Resource.release",
    "repro.sim.resources:Store.put",
    "repro.sim.resources:Store.get",
    "repro.net.transport:Network.send",
    "repro.net.transport:Network.message_count",
    "repro.net.transport:Network.response_count",
    "repro.net.node:Node.deliver",
    "repro.net.node:Node.call",
    "repro.net.message:Message",
    "repro.net.costs:CostModel",
    "repro.net.rpc:RpcFailure",
    "repro.runtime.wire:encode_request",
    "repro.runtime.wire:encode_reply",
    "repro.runtime.wire:pack_frame",
    "repro.runtime.wire:decode",
    "repro.runtime.aio:AsyncioEnv.run_process",
    "repro.runtime.net:AioNetwork.start",
    "repro.runtime.net:AioNetwork.close",
    "repro.storage.btree:BLinkTree.insert",
    "repro.storage.btree:BLinkTree.get",
    "repro.storage.btree:BLinkTree.delete",
    "repro.storage.btree:BLinkTree.items",
    "repro.storage.locks:LockManager.acquire",
    "repro.storage.locks:LockManager.release",
    "repro.storage.table:Table.put",
    "repro.storage.table:Transaction.commit",
    "repro.storage.wal:WriteAheadLog.commit",
    "repro.storage.wal:WriteAheadLog.replay",
    "repro.storage.wal:WriteAheadLog.records_per_flush",
    "repro.storage.consensus:ReplicatedLog.append",
    "repro.storage.consensus:ReplicatedLog.wait_quorum",
    "repro.vfs.pathwalk:split_path",
    "repro.vfs.pathwalk:PathWalker.walk",
    "repro.vfs.dcache:DentryCache.lookup",
    "repro.vfs.dcache:DentryCache.insert",
    "repro.vfs.dcache:DentryCache.hit_rate",
    "repro.vfs.attrs:InodeAttrs",
] + ["repro.{}".format(layer) for layer in LAYERS if layer != "other"]


def resolve(entry_point):
    """Import ``module:qualname`` (or a bare module) and return it."""
    module_name, _, qualname = entry_point.partition(":")
    target = importlib.import_module(module_name)
    for part in filter(None, qualname.split(".")):
        target = getattr(target, part)
    return target


def manifest(command, paths, run_seconds):
    """The contract-shaped ``BENCHMARK.json`` document."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }
