"""CephFS-style baseline.

Modeled properties (the ones §6's comparisons exercise):

* **directory-locality placement** — an MDS owns every entry of the
  directories hashed to it, so same-directory bursts congest one MDS
  (Fig 4 / Fig 14);
* **stateful client with capabilities** — per-component lookups on dcache
  misses, server-side capability bookkeeping per lookup/open, and an
  explicit close (capability release) after reads — the `lookup` +
  `close` request mix of Fig 2;
* **remote journaling** — metadata updates are logged to the OSD cluster,
  so every mutation pays a network round trip plus an SSD write, the
  overhead §6.2 calls out for create/unlink;
* clients open files via `lookup` (the paper counts CephFS lookups on
  files as opens in Fig 13b).
"""

from repro.baselines.common import BaselineCluster, SystemProfile


class CephCluster(BaselineCluster):
    """CephFS-style deployment."""

    profile = SystemProfile(
        name="ceph",
        stack_factor=2.5,
        open_extra_us=10.0,
        coherence_lock_us=6.0,
        remote_journal_rounds=2,
        update_dir_metadata=False,
        two_round_commit=False,
        leader_fraction=1.0,
        open_via_lookup=True,
        close_releases_caps=True,
        data_overhead_us=0.0,
    )
