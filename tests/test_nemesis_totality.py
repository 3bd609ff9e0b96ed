"""Nemesis vocabulary totality: every kind a schedule can carry has a row
in ``repro.faults.injector.NEMESIS_KINDS``, every row is reachable from
some mix, and every row honours the shrinker's contract.

A row is both halves of a kind: how the injector fires it and, through
its ``shape``, how the checker's generator (``repro.check.schedule``)
draws it.  The first half of this file holds the mixes to the table
statically: every kind a mix can draw has a row with a shape, and the
only row without one is ``restart``, which the crash shapes emit.  The
second half holds each row to what ``repro.check.shrink`` assumes of
it: a dropped event leaves no trace, and dropping one never changes
what another logs.
"""

import pytest

from repro.check.schedule import NEMESIS_MIXES, generate_schedule
from repro.core import FalconCluster, FalconConfig
from repro.faults import FaultInjector
from repro.faults.injector import NEMESIS_KINDS
from tests.test_faults_schedule import _loaded_cluster

#: One fully pinned event per kind (no field left to the injector's
#: stream, so scheduling a companion draws nothing), aimed at slot 0.
SAMPLES = {
    "crash": {"index": 0},
    "restart": {"index": 0},
    "corrupt_wal": {"index": 0, "rng_seed": 0x5EED},
    "stampede": {},
    "migrate_slot": {"slot": 0, "dest": 1},
    "hang": {"index": 0, "duration_us": 400.0},
    "partition": {"index": 0, "duration_us": 400.0},
    "leader_partition": {"index": 0, "duration_us": 400.0},
    "split_brain": {"index": 0, "duration_us": 400.0},
    "asymm_partition": {"index": 0, "duration_us": 400.0,
                        "direction": "inbound"},
    "slow_disk": {"index": 0, "duration_us": 400.0, "fsync_factor": 6.0},
    "degrade_link": {"index": 0, "duration_us": 400.0, "loss_prob": 0.2,
                     "latency_factor": 3.0, "rng_seed": 7},
    "skew_clock": {"index": 0, "duration_us": 400.0, "offset_us": 900.0},
}
KINDS = sorted(NEMESIS_KINDS)


def _event(kind, cluster, after_us):
    return dict(SAMPLES[kind], kind=kind,
                at_us=cluster.env.now + after_us)


def _emitted_kinds():
    """Every kind a generated schedule can carry: each mix's draws, plus
    the ``restart`` the generator pairs with every crash."""
    return {kind for mix in NEMESIS_MIXES.values()
            for kind, _ in mix} | {"restart"}


def test_every_emitted_kind_has_a_row():
    assert _emitted_kinds() - set(NEMESIS_KINDS) == set()


def test_every_row_is_emitted_by_some_mix():
    assert set(NEMESIS_KINDS) - _emitted_kinds() == set()


def test_every_drawable_kind_has_a_shape():
    drawable = {kind for mix in NEMESIS_MIXES.values() for kind, _ in mix}
    assert {kind for kind in drawable
            if NEMESIS_KINDS[kind].shape is None} == set()
    assert [kind for kind, row in NEMESIS_KINDS.items()
            if row.shape is None] == ["restart"]


def test_samples_cover_the_table():
    assert set(SAMPLES) == set(NEMESIS_KINDS)


@pytest.mark.parametrize("mix", sorted(NEMESIS_MIXES))
def test_generated_events_pass_scheduling_checks(mix):
    """Whatever the generator writes, ``apply`` accepts as written."""
    schedules = [generate_schedule(seed, nemesis_mix=mix)
                 for seed in range(25)]
    config = schedules[0]["config"]
    injector = FaultInjector(FalconCluster(FalconConfig(
        num_mnodes=config["num_mnodes"], num_storage=1, replication=True,
        num_slots=config["num_slots"],
    )))
    for schedule in schedules:
        for event in schedule["nemeses"]:
            scheduled = injector.apply(event).event
            assert scheduled == event  # nothing left to draw, either


def _cluster():
    """Two loaded MNodes over four slots, so a handoff has somewhere
    to go."""
    return _loaded_cluster(num_slots=4)


def _fault_state(cluster):
    """Everything a nemesis can touch, as comparable data."""
    network = cluster.network
    return {
        "down": sorted(network._down),
        "blocked": sorted(network._blocked),
        "degraded": sorted(network._link_quality),
        "crashed": sorted(cluster._crashed),
        "slow_disks": [node.wal.slow_disk for node in cluster.mnodes],
        "wal": [[(record.lsn, record.intact)
                 for segment in node.wal.segments
                 for record in segment.records]
                for node in cluster.mnodes],
        "skewed": sorted(view.name for view in cluster.env.clock_views()
                         if view.skewed),
        "slot_map": (cluster.shared.slot_map.epoch,
                     list(cluster.shared.slot_map.owners)),
        "dentries": [sorted((key, record.state)
                            for key, record in node.dentries.scan())
                     for node in cluster.mnodes],
    }


@pytest.mark.parametrize("kind", KINDS)
def test_cancelled_before_fire_leaves_no_trace(kind):
    cluster = _cluster()
    injector = FaultInjector(cluster)
    before = _fault_state(cluster)
    handle = injector.apply(_event(kind, cluster, 1000.0))
    cluster.run_for(500.0)
    handle.cancel()
    cluster.run_for(6000.0)
    assert handle.cancelled and not handle.fired
    assert injector.events == []
    assert _fault_state(cluster) == before


def _log_of(plan, cancel=()):
    """Schedule ``(kind, after_us)`` pairs on a fresh cluster, cancel the
    named positions before anything fires, run everything out and
    return the nemesis log."""
    cluster = _cluster()
    injector = FaultInjector(cluster)
    handles = [injector.apply(_event(kind, cluster, after_us))
               for kind, after_us in plan]
    for position in cancel:
        handles[position].cancel()
    cluster.run_for(30000.0)
    return injector.events


@pytest.mark.parametrize("kind", KINDS)
def test_dropping_a_neighbour_never_perturbs_the_survivor(kind):
    """The shrinker's drop-and-replay contract, with every kind in both
    roles: ``kind`` survives while the next kind in the table, scheduled
    first and due first, is dropped."""
    neighbour = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
    alone = _log_of([(kind, 1200.0)])
    assert alone  # the survivor fired and logged something
    assert _log_of([(neighbour, 1000.0), (kind, 1200.0)],
                   cancel=[0]) == alone
