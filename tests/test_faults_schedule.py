"""Schedule-driven nemesis determinism.

The shrinker's drop-and-replay discipline is only sound if every random
choice is pinned inside the event itself: victims at generation time,
fire-time draws via a per-event ``rng_seed``.  These tests pin the
regression the checker work fixed — a fire-time draw from the shared
injector stream made one event's outcome depend on how many other
events fired first — plus the :class:`FaultHandle` cancel semantics the
runner's heal path relies on.
"""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.faults import FaultInjector


def _loaded_cluster(seed=5, **config):
    """A small replicated cluster with durable WAL records on every
    MNode (so corruption draws have a log to aim at)."""
    cluster = FalconCluster(FalconConfig(
        num_mnodes=2, num_storage=1, replication=True, seed=seed, **config
    ))
    client = cluster.add_client(mode="libfs")
    cluster.run_process(client.mkdir("/d0"))
    for i in range(8):
        cluster.run_process(client.create("/d0/f{}.dat".format(i)))
    cluster.run_for(3000.0)  # drain WAL shipping
    return cluster


def _corrupt_lsns(events):
    """(index, lsn) pairs logged by fired corrupt_wal events."""
    return [(e["index"], e["lsn"]) for e in events
            if e["kind"] == "corrupt_wal"]


def _apply_and_run(events, seed=5):
    cluster = _loaded_cluster(seed)
    injector = FaultInjector(cluster)
    handles = [injector.apply(dict(event)) for event in events]
    cluster.run_for(20000.0)
    return cluster, injector, handles


def _corrupt_at(at_us, index=0, rng_seed=0x5EED):
    return {"kind": "corrupt_wal", "at_us": at_us, "index": index,
            "rng_seed": rng_seed}


class TestPerEventRng:
    def test_corrupt_draw_is_independent_of_other_events(self):
        """The same event (same rng_seed) picks the same LSN whether it
        fires alone or after other injector events — the draw must come
        from the event's own seed, never the shared stream."""
        target = _corrupt_at(6000.0)
        _, alone, _ = _apply_and_run([target])
        _, crowded, _ = _apply_and_run([
            _corrupt_at(4000.0, index=1, rng_seed=0xABCDEF),
            {"kind": "hang", "at_us": 4500.0, "index": 1,
             "duration_us": 400.0},
            target,
        ])
        lsn_alone = _corrupt_lsns(alone.events)
        lsn_crowded = [(i, lsn) for i, lsn in _corrupt_lsns(crowded.events)
                       if i == 0]
        assert lsn_alone == lsn_crowded
        assert lsn_alone  # the event actually fired and hit a record

    def test_same_schedule_same_trace(self):
        """Two fresh clusters under the identical event list log the
        identical nemesis trace, timestamps included."""
        events = [
            _corrupt_at(5000.0),
            {"kind": "crash", "at_us": 5200.0, "index": 0},
            {"kind": "restart", "at_us": 12000.0, "index": 0},
            {"kind": "hang", "at_us": 16000.0, "index": 1,
             "duration_us": 600.0},
        ]
        _, first, _ = _apply_and_run(events)
        _, second, _ = _apply_and_run(events)
        assert first.events == second.events


class TestFaultHandle:
    def test_cancel_before_fire_suppresses_the_event(self):
        events = [{"kind": "crash", "at_us": 9000.0, "index": 0}]
        cluster = _loaded_cluster()
        injector = FaultInjector(cluster)
        handle = injector.apply(dict(events[0]))
        cluster.run_for(2000.0)
        handle.cancel()
        cluster.run_for(20000.0)
        assert not handle.fired
        assert handle.cancelled
        assert injector.events == []
        assert not cluster.mnodes[0].halted

    def test_cancel_after_fire_is_a_noop(self):
        cluster = _loaded_cluster()
        injector = FaultInjector(cluster)
        handle = injector.apply({"kind": "hang", "at_us": 4000.0,
                                 "index": 1, "duration_us": 300.0})
        cluster.run_for(20000.0)
        assert handle.fired
        handle.cancel()
        assert not handle.cancelled
        kinds = [e["kind"] for e in injector.events]
        assert kinds == ["hang", "unhang"]

    def test_duplicate_crash_is_a_logged_noop(self):
        """Applying a crash to an already-crashed slot must not blow up
        (shrunken schedules can produce this shape)."""
        cluster = _loaded_cluster()
        injector = FaultInjector(cluster)
        injector.apply({"kind": "crash", "at_us": 4000.0, "index": 0})
        injector.apply({"kind": "crash", "at_us": 4100.0, "index": 0})
        cluster.run_for(10000.0)
        kinds = [e["kind"] for e in injector.events]
        assert kinds == ["crash", "crash_noop"]

    def test_unknown_kind_rejected(self):
        cluster = _loaded_cluster()
        injector = FaultInjector(cluster)
        with pytest.raises(ValueError):
            injector.apply({"kind": "meteor", "at_us": 1.0, "index": 0})

    def test_omitted_victim_is_drawn_at_scheduling_time(self):
        """An event without ``index`` gets one from the seeded ``faults``
        stream inside ``apply`` — known up front, the same every run,
        and never written into the caller's dict."""
        event = {"kind": "crash", "at_us": 9000.0}
        victims = [FaultInjector(_loaded_cluster()).apply(event)
                   .event["index"] for _ in range(2)]
        assert victims[0] == victims[1]
        assert victims[0] in range(2)
        assert "index" not in event


#: Events a seed file could carry that can never fire as written, and
#: the field the refusal must name (the cluster has 2 MNodes, 2 slots).
MALFORMED = [
    ({"kind": "hang", "at_us": 50.0, "index": 0}, "duration_us"),
    ({"kind": "crash", "index": 0}, "at_us"),
    ({"kind": "restart", "at_us": 50.0}, "index"),
    ({"kind": "crash", "at_us": 50.0, "index": 7}, "index"),
    ({"kind": "crash", "at_us": 50.0, "index": -1}, "index"),
    ({"kind": "skew_clock", "at_us": 50.0, "index": 2,
      "duration_us": 10.0}, "index"),
    ({"kind": "partition", "at_us": 50.0, "index": 0,
      "duration_us": 0.0}, "duration_us"),
    ({"kind": "slow_disk", "at_us": 50.0, "index": 0,
      "duration_us": -5.0}, "duration_us"),
    ({"kind": "degrade_link", "at_us": 50.0, "index": 0,
      "duration_us": "long"}, "duration_us"),
    ({"kind": "migrate_slot", "at_us": 50.0, "slot": 0}, "dest"),
    ({"kind": "migrate_slot", "at_us": 50.0, "slot": 2, "dest": 0},
     "slot"),
    ({"kind": "migrate_slot", "at_us": 50.0, "slot": 0, "dest": 2},
     "dest"),
]


class TestMalformedEvents:
    @pytest.mark.parametrize(
        "event,field", MALFORMED,
        ids=["{}-{}".format(e["kind"], f) for e, f in MALFORMED])
    def test_rejected_at_scheduling_time(self, event, field):
        """A malformed event is a ``ValueError`` naming kind and field
        out of ``apply`` itself — not a ``KeyError``/``IndexError`` at
        fire time that the checker would report as a ``sim-crash``
        verdict against the system."""
        cluster = _loaded_cluster()
        injector = FaultInjector(cluster)
        before = cluster.env.now
        with pytest.raises(ValueError) as refusal:
            injector.apply(event)
        assert repr(event["kind"]) in str(refusal.value)
        assert repr(field) in str(refusal.value)
        assert cluster.env.now == before
        cluster.run_for(500.0)
        assert injector.events == []

    def test_only_skew_clock_can_target_the_coordinator(self):
        """``"target": "coordinator"`` stands in for a slot index on
        ``skew_clock`` alone; on any other kind the event still needs a
        victim, so one is drawn rather than firing on ``mnodes[None]``."""
        event = {"kind": "hang", "at_us": 50.0, "target": "coordinator",
                 "index": None, "duration_us": 10.0}
        injector = FaultInjector(_loaded_cluster())
        assert injector.apply(event).event["index"] in range(2)
        skew = dict(event, kind="skew_clock")
        assert injector.apply(skew).event["index"] is None


class TestOverlappingWindows:
    def test_unhang_leaves_a_node_that_crashed_meanwhile_down(self):
        """A slot that crashes inside its hang window must stay fenced
        when the window closes: ``set_up`` on the dead name would let
        its pre-crash state serve again, and the later restart could no
        longer reincarnate it (``EnvError: cannot reincarnate mnode-0:
        not down``).  Generated schedules serialize fault windows, so
        only hand-written and shrunk seed files reach this shape."""
        from repro.check import generate_schedule, run_schedule

        schedule = generate_schedule(7, nemesis_mix="classic")
        schedule["nemeses"] = [
            {"group": 0, "kind": "hang", "at_us": 2000.0, "index": 0,
             "duration_us": 600.0},
            {"group": 1, "kind": "crash", "at_us": 2200.0, "index": 0},
            {"group": 1, "kind": "restart", "at_us": 9000.0, "index": 0},
        ]
        result = run_schedule(schedule)
        assert result["violations"] == []
        assert result["stats"]["nemesis_fired"] == 3

    def test_unhang_noop_is_logged(self):
        cluster = _loaded_cluster()
        injector = FaultInjector(cluster)
        name = cluster.mnodes[0].name
        injector.apply({"kind": "hang", "at_us": 4000.0, "index": 0,
                        "duration_us": 600.0})
        injector.apply({"kind": "crash", "at_us": 4200.0, "index": 0})
        cluster.run_for(6000.0)
        assert [e["kind"] for e in injector.events] == [
            "hang", "crash", "unhang_noop"]
        assert cluster.network.is_down(name)
