"""The event budget: how many heap entries one operation may cost.

The kernel rule (docs/architecture.md, "Simulator performance"): a heap
entry either advances the clock or wakes a waiter that actually queued
— never a zero-delay round trip.  These tests write the resulting
per-operation counts down as equalities, so a later change cannot
quietly reintroduce a per-hop process, a heap-scheduled uncontended
grant or a relayed reply: the count would rise and the test would say
by how much.

Each operation runs alone through a warm client on an idle cluster, so
the counts are exact and contention-free.  Every count includes the two
entries the harness itself pays (``run_process``: one ``Initialize`` to
start the op, one process-end wake-up for ``run(until=...)``).

The three baselines run through the same harness.  They share the
kernel, ``LockManager``, ``Node.execute`` and ``BlockClient`` with
FalconFS, so a kernel or fabric change that moves FalconFS's counts on
purpose must leave theirs where they are (or say why not).
"""

import pytest

from repro.experiments.common import add_workload_client, build_cluster
from repro.workloads.trees import private_dirs_tree

OPS = 8

#: Heap entries per operation, harness included.  What is left is
#: simulated time plus real wake-ups:
#:
#: ``getattr``  = 2 harness + 1 client slice (its own CPU and every
#:   ancestor's cache probe, slept as one entry) + 1 request hop + 1
#:   wake-up of the MNode worker parked on its empty queue + 3 MNode
#:   slices (dispatch, batch execute, reply) + 1 response hop.
#:   (PR 12: 21; PR 13: 11, the client's slices one entry each.)
#: ``create``   = ``getattr``'s 6 entries up to the batch + its execute
#:   slice + 1 WAL flusher start + 1 start of the batch's tail, which
#:   waits for the flush so that the worker need not + 1 WAL fsync + 1
#:   wake-up of the tail parked on the flush + 1 response hop + 1
#:   harness end.  (PR 12: 25; PR 13: 14; 12 until the tail.)
#: ``read_file`` = ``getattr``'s 9, minus the harness end, plus 1 block
#:   request hop + 1 storage handler start + 1 storage dispatch slice +
#:   1 disk IO + 1 block response hop + 1 wake-up of the reader parked
#:   on its block fan-out + 1 harness end.  (PR 12: 35; PR 13: 17.)
#:
#: The baselines' counts were recorded at ``f568d5d``, before the
#: client walk was coalesced and uncontended grants stopped yielding;
#: their clients walk statefully (a real RPC may sit between two
#: probes), so neither change reaches them.
BUDGET = {"getattr": 9, "create": 13, "read_file": 15}
BASELINE_BUDGET = {
    "cephfs": {"getattr": 11, "create": 21, "read_file": 26},
    "lustre": {"getattr": 10, "create": 14, "read_file": 24},
    "juicefs": {"getattr": 11, "create": 27, "read_file": 18},
}


def _counts(system):
    cluster = build_cluster(system, num_mnodes=2, num_storage=2, seed=3)
    client = add_workload_client(cluster, system, mode="vfs")
    tree = private_dirs_tree(4, files_per_dir=4)
    cluster.bulk_load(tree)
    env = cluster.env
    files = tree.file_paths()
    for path in files:  # warm the dentry cache
        cluster.run_process(client.getattr(path))

    def per_op(operations):
        spent = []
        for operation in operations:
            before = env.events_scheduled
            cluster.run_process(operation)
            spent.append(env.events_scheduled - before)
        return spent

    return {
        "getattr": per_op(client.getattr(path) for path in files[:OPS]),
        "create": per_op(
            client.create("{}/new{}.dat".format(tree.dirs[1 + i % 4], i))
            for i in range(OPS)),
        "read_file": per_op(client.read_file(path) for path in files[:OPS]),
    }


@pytest.fixture(scope="module")
def counts():
    return _counts("falconfs")


@pytest.fixture(scope="module", params=sorted(BASELINE_BUDGET))
def baseline_counts(request):
    return request.param, _counts(request.param)


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_events_per_op_equal_the_budget(counts, op):
    assert counts[op] == [BUDGET[op]] * OPS


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_baseline_events_per_op_equal_the_budget(baseline_counts, op):
    system, spent = baseline_counts
    assert spent[op] == [BASELINE_BUDGET[system][op]] * OPS
