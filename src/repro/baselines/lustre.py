"""Lustre-style baseline.

Modeled properties:

* **DNE directory placement** — each directory lives on one MDT; files'
  metadata is on the parent directory's MDT (same-directory read bursts
  congest one MDT, Fig 14);
* **intent locks** — a modest server-side DLM cost per lookup/open (the
  cache-coherence locking FalconFS's stateless clients avoid, §6.2);
* **fast local journaling** — group-committed local WAL, which is why
  Lustre is the strongest baseline throughout the paper's evaluation;
* mutations also update the parent directory's metadata: a second
  journal record and an index update on the same MDT, which holds the
  directory's inode beside its entries (no cross-MDT RPC is modeled).
"""

from repro.baselines.common import BaselineCluster, SystemProfile


class LustreCluster(BaselineCluster):
    """Lustre-style deployment."""

    profile = SystemProfile(
        name="lustre",
        stack_factor=1.0,
        open_extra_us=25.0,
        coherence_lock_us=6.0,
        remote_journal_rounds=0,
        update_dir_metadata=True,
        two_round_commit=False,
        leader_fraction=1.0,
        open_via_lookup=False,
        close_releases_caps=True,
        data_overhead_us=0.0,
    )
