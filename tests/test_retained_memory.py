"""The retained-memory budget: no state outlives its cluster.

The rule (docs/architecture.md, "Simulator performance", *No per-path
state in the process*): everything the program holds about a path, a
filename or an inode lives in some cluster's tables, caches or
counters, and goes when that cluster goes.  A module-level memo keyed
by path or name would keep every distinct key the process ever saw —
unbounded for a long-running ``repro.serve`` MNode, and for deleted or
renamed paths everywhere.

Pinned the way ``test_gc_budget.py`` pins the collector budget, as a
count: after a warm-up (imports and one-time setup happen there), a
fresh cluster runs fault-free creates with names never seen before,
is dropped and collected, and tracemalloc must then find **zero** live
blocks whose allocating line lies under ``src/repro``.

Interpreter caches are kept out of the count.  CPython's type
attribute cache is cleared before the snapshot: it is bounded (a few
thousand slots) and holds the last attribute-name strings ``getattr``
was called with, such as the ``"_on_" + kind`` a node builds to
dispatch a message.  CPython 3.10 also fills caches mid-run that
outlive it: a code object's opcode cache, allocated on its 1,024th
call wherever in a run that falls, and a process-wide free list of
deque blocks.  3.11 and later keep neither past the run, so the test
runs there.
"""

import gc
import os
import sys
import tracemalloc

import pytest

import repro
from repro.core.cluster import FalconCluster
from repro.core.shared import FalconConfig
from repro.net.costs import CostModel

CREATES = 500
DIRS = 4
PACKAGE = os.path.join(os.path.dirname(repro.__file__), "*")


def _run_cluster(stem, creates):
    cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1))
    client = cluster.add_client(mode="vfs")

    def body():
        for d in range(DIRS):
            yield from client.mkdir("/{}{}".format(stem, d))
        for i in range(creates):
            yield from client.create(
                "/{}{}/f{}".format(stem, i % DIRS, i))

    cluster.run_process(body())
    assert cluster.verify()["inodes"] == DIRS + creates


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps caches filled mid-run")
def test_no_block_outlives_its_cluster():
    _run_cluster("warm", 50)
    gc.collect()
    tracemalloc.start()
    try:
        _run_cluster("run", CREATES)
        gc.collect()
        sys._clear_type_cache()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = snapshot.filter_traces(
        [tracemalloc.Filter(True, PACKAGE)]).statistics("lineno")
    assert [str(stat) for stat in retained] == []


def _retained_wal_records(creates, segment_bytes):
    """Per MNode, the records its WAL still holds after ``creates``
    fault-free creates over shrunk segments."""
    costs = CostModel(wal_segment_bytes=segment_bytes)
    cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=1),
                            costs=costs)
    client = cluster.add_client(mode="libfs")

    def body():
        for d in range(DIRS):
            yield from client.mkdir("/d{}".format(d))
        for i in range(creates):
            yield from client.create("/d{}/f{}".format(i % DIRS, i))

    cluster.run_process(body())
    return [sum(len(segment.records) for segment in mnode.wal.segments)
            for mnode in cluster.mnodes]


def test_the_wal_keeps_at_most_two_segments():
    """The log is bounded by its checkpoints, not by the run: after N
    and after 4N creates each MNode's WAL holds at most what two
    segments hold.  A count, never a timing."""
    segment_bytes = 4096
    record_bytes = CostModel().wal_record_bytes
    bound = 2 * (segment_bytes // record_bytes + 1)
    short = _retained_wal_records(CREATES // 2, segment_bytes)
    long = _retained_wal_records(2 * CREATES, segment_bytes)
    assert max(short + long) <= bound
    # Unretired, the longer log would hold every create it logged:
    # more than four times the bound.
    assert 2 * CREATES // len(long) > 4 * bound
