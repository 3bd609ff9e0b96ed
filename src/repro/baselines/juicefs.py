"""JuiceFS-style baseline (TiKV metadata engine).

Modeled properties:

* **range-partitioned KV metadata with leader imbalance** — only a
  fraction of the engine nodes lead key ranges at any time, producing the
  constant load imbalance the paper observes (§6.2: "imbalanced CPU
  utilization across JuiceFS's metadata engine nodes"), which also makes
  burst size irrelevant (Fig 14: already congested);
* **Percolator-style transactions** — every mutation pays a prewrite
  round plus a second durable commit record (the expensive distributed
  transactions of §6.2);
* **object-store data path overhead** — per-file extra latency reflecting
  the data-storage inefficiency that dominates JuiceFS's small-file
  results in Fig 12;
* heavy software stack (Go + gRPC + TiKV layers) as a CPU multiplier.
"""

from repro.baselines.common import BaselineCluster, SystemProfile


class JuiceCluster(BaselineCluster):
    """JuiceFS-style deployment."""

    profile = SystemProfile(
        name="juice",
        stack_factor=2.5,
        open_extra_us=10.0,
        coherence_lock_us=1.0,
        remote_journal_rounds=0,
        update_dir_metadata=True,
        two_round_commit=True,
        leader_fraction=0.5,
        open_via_lookup=False,
        close_releases_caps=False,
        data_overhead_us=150.0,
    )
