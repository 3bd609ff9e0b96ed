"""The coalesced walk is the per-slice walk.

A ``vfs`` client sleeps its own CPU slice and every ancestor's cache
probe as one heap entry and then probes the dentry cache without
yielding.  ``tests/golden/vfs_walk.json`` holds what the per-slice chain
(one heap entry per slice, a probe between each) produced at the parent
commit for depths 1-8 and several start offsets that no binary float
represents; every case must still end each operation at bit-for-bit the
same simulated time, with the same cache hits, misses, LRU order and
``revalidate_fake`` count, and — traced — the same
``analysis.breakdown`` category sums.
"""

import asyncio
import inspect
import json

import pytest

from repro.core.client import FalconClient
from repro.runtime import AsyncioEnv
from repro.sim import Environment
from tests.golden_walk_workload import (
    DEPTHS,
    OFFSETS,
    WALK_GOLDEN_PATH,
    case_id,
    run_case,
)


@pytest.fixture(scope="module")
def golden():
    with open(WALK_GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("k", OFFSETS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_case_matches_the_per_slice_golden(golden, depth, k, traced):
    got = json.loads(json.dumps(run_case(depth, k, traced)))
    assert got == golden[case_id(depth, k, traced)]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(
        case_id(depth, k, traced)
        for depth in DEPTHS for k in OFFSETS for traced in (False, True))


def test_sleep_until_wakes_at_the_slice_by_slice_sum_in_one_entry():
    """``sleep_until`` takes the left-to-right sum the per-slice chain
    would reach — not ``now + total``, which rounds differently — and
    costs one heap entry whatever the number of slices."""
    rounded_differently = 0
    for depth in DEPTHS:
        env = Environment()
        env.run(until=0.1 + 7 * 0.7)
        client_op_us, probe_us = 0.8, 0.15
        chained = env.now + client_op_us
        for _ in range(depth - 1):
            chained += probe_us
        total = client_op_us + (depth - 1) * probe_us
        rounded_differently += chained != env.now + total
        woke = []

        def sleeper():
            yield env.sleep_until(chained)
            woke.append(env.now)

        before = env.events_scheduled
        env.run(until=env.process(sleeper()))
        assert woke == [chained]
        # Initialize + the one sleep + run(until=process)'s end wake-up.
        assert env.events_scheduled - before == 3
    assert rounded_differently


def test_sleep_until_is_inherited_by_the_real_time_driver():
    async def main():
        env = AsyncioEnv()
        wake = env.now_us() + 2000.0

        def sleeper():
            yield env.sleep_until(wake)
            return env.now_us()

        return wake, await env.run_process(sleeper())

    wake, woke = asyncio.run(main())
    assert woke >= wake


def test_walk_contains_no_yield():
    """The walk runs at one instant: a plain function, not a generator."""
    assert not inspect.isgeneratorfunction(FalconClient._vfs_shortcut_walk)
