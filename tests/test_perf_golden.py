"""Golden-trace determinism and zero-overhead tracing guarantees.

The fast-path kernel work (slotted events, ``schedule_timeout``,
flattened ``Process._resume``, lazy trace attrs) is only admissible if
it changes *nothing* the simulation computes.  These tests pin that
down:

* the reference workload's digest — event ordering, JSONL trace, op
  counts, final clock — must match ``tests/golden/sim_trace.json``,
  generated before the optimization;
* the digest must be bit-identical across two runs in one process
  (seed-determinism, independent of warm caches);
* an untraced run must never enter the tracer and must allocate no
  trace objects (the "no garbage" contract that makes ``NULL_TRACER``
  free).
"""

import json
import tracemalloc

import pytest

from tests.golden_failover_workload import (
    FAILOVER_GOLDEN_PATH,
    run_failover_golden,
)
from tests.golden_workload import GOLDEN_PATH, run_golden


@pytest.fixture(scope="module")
def golden_digest():
    return run_golden()


@pytest.fixture(scope="module")
def failover_digest():
    return run_failover_golden()


def test_golden_digest_matches_committed(golden_digest):
    with open(GOLDEN_PATH) as handle:
        want = json.load(handle)
    mismatched = {
        key: (golden_digest[key], value)
        for key, value in want.items()
        if golden_digest[key] != value
    }
    assert not mismatched, (
        "simulated outcome diverged from the pre-optimization golden "
        "trace: {}".format(mismatched)
    )


def test_same_seed_is_bit_identical_across_runs(golden_digest):
    assert run_golden() == golden_digest


def test_failover_digest_matches_committed(failover_digest):
    """The crash -> promote -> rejoin-as-standby reference run must
    reproduce its committed digest — every ack timestamp, the verdict,
    and the recovery bookkeeping."""
    with open(FAILOVER_GOLDEN_PATH) as handle:
        want = json.load(handle)
    mismatched = {
        key: (failover_digest[key], value)
        for key, value in want.items()
        if failover_digest[key] != value
    }
    assert not mismatched, (
        "failover outcome diverged from the committed golden trace: {}"
        .format(mismatched)
    )


def test_failover_digest_is_bit_identical_across_runs(failover_digest):
    assert run_failover_golden() == failover_digest


def _untraced_workload():
    from repro.experiments.common import build_cluster
    from repro.workloads.driver import run_closed_loop
    from repro.workloads.trees import private_dirs_tree

    cluster = build_cluster("falconfs", num_mnodes=2, num_storage=2, seed=3)
    client = cluster.add_client(mode="libfs")
    tree = private_dirs_tree(4, files_per_dir=2)
    cluster.bulk_load(tree)
    thunks = [
        lambda p="{}/f{}.dat".format(tree.dirs[1 + i % 4], i):
            client.create(p)
        for i in range(24)
    ]
    result = run_closed_loop(cluster, thunks, num_threads=4)
    assert result.ops == 24 and result.errors == 0


def test_untraced_run_never_enters_the_tracer(monkeypatch):
    from repro.obs.tracer import NullTracer

    def boom(*_args, **_kwargs):
        raise AssertionError("NullTracer invoked on the untraced hot path")

    # The disabled tracer defines neither method: a call would fail
    # anyway, and planting them keeps the failure message.
    monkeypatch.setattr(NullTracer, "start", boom, raising=False)
    monkeypatch.setattr(NullTracer, "record", boom, raising=False)
    _untraced_workload()


def test_untraced_run_allocates_no_trace_objects():
    from repro.obs import tracer as tracer_mod

    _untraced_workload()  # warm module/global caches first
    trace_filter = tracemalloc.Filter(True, tracer_mod.__file__)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        _untraced_workload()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    allocations = after.filter_traces([trace_filter]).compare_to(
        before.filter_traces([trace_filter]), "lineno"
    )
    grew = [stat for stat in allocations if stat.size_diff > 0]
    assert not grew, "tracer allocated on an untraced run: {}".format(grew)
