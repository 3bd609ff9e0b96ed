"""The simulation checker: oracle, runner determinism, shrinker, CLI.

The acceptance bar for the checker is adversarial: beyond "clean seeds
stay clean, same seed replays bit-identically", a deliberately
re-introduced historical bug (the PR-2 ``LockManager`` state leak) must
be *caught* within the seed budget and *shrunk* to a reproducer small
enough to debug by hand.
"""

import hashlib
import json

import pytest

from repro.check import generate_schedule, run_schedule, runner, shrink
from repro.check.oracle import audit_history
from repro.check.schedule import GRAY_NEMESIS_MIX, NEMESIS_MIXES
from repro.storage.locks import LockManager


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------

def test_same_seed_same_schedule():
    assert generate_schedule(13) == generate_schedule(13)


def test_different_seeds_differ():
    assert generate_schedule(1) != generate_schedule(2)


def test_schedule_is_json_safe_and_self_contained():
    schedule = generate_schedule(5)
    assert schedule == json.loads(json.dumps(schedule))
    for event in schedule["nemeses"]:
        if event["kind"] == "corrupt_wal":
            # Fire-time draws must be pinned inside the event, never
            # taken from a shared stream (the shrinker's soundness).
            assert "rng_seed" in event


def test_nemesis_windows_are_serialized():
    """One slot in trouble at a time: group windows never overlap."""
    for seed in range(5):
        nemeses = generate_schedule(seed)["nemeses"]
        spans = {}
        for event in nemeses:
            end = event["at_us"] + event.get("duration_us", 0.0)
            lo, hi = spans.get(event["group"], (event["at_us"], end))
            spans[event["group"]] = (min(lo, event["at_us"]), max(hi, end))
        ordered = [spans[g] for g in sorted(spans)]
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            assert hi < lo


def test_gray_mix_same_seed_same_schedule():
    assert (generate_schedule(13, nemesis_mix="gray")
            == generate_schedule(13, nemesis_mix="gray"))
    assert (generate_schedule(13, nemesis_mix="gray")
            != generate_schedule(13, nemesis_mix="classic"))


def test_gray_events_are_self_contained():
    """Every gray event carries its own parameters and (where fire-time
    draws exist) its own rng_seed — nothing comes from shared streams."""
    gray_kinds = {kind for kind, _ in GRAY_NEMESIS_MIX}
    seen = set()
    for seed in range(30):
        schedule = generate_schedule(seed, nemesis_mix="gray",
                                     num_nemeses=4)
        assert schedule["config"]["nemesis_mix"] == "gray"
        for event in schedule["nemeses"]:
            assert event["kind"] in gray_kinds
            seen.add(event["kind"])
            if event["kind"] == "degrade_link":
                assert "rng_seed" in event
                assert 0.0 < event["loss_prob"] < 1.0
            elif event["kind"] == "skew_clock":
                assert "offset_us" in event and "drift_ppm" in event
                if event.get("target") == "coordinator":
                    assert event["index"] is None
            elif event["kind"] == "slow_disk":
                assert event["fsync_factor"] > 1.0
    assert seen == gray_kinds  # 30 seeds exercise every kind


def test_gray_windows_are_serialized():
    for seed in range(5):
        nemeses = generate_schedule(seed, nemesis_mix="gray")["nemeses"]
        spans = {}
        for event in nemeses:
            end = event["at_us"] + event.get("duration_us", 0.0)
            lo, hi = spans.get(event["group"], (event["at_us"], end))
            spans[event["group"]] = (min(lo, event["at_us"]), max(hi, end))
        ordered = [spans[g] for g in sorted(spans)]
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            assert hi < lo


def test_unknown_mix_rejected():
    with pytest.raises(KeyError):
        generate_schedule(0, nemesis_mix="nonsense")
    assert set(NEMESIS_MIXES) == {"classic", "gray", "mixed",
                                  "election", "migrate"}


#: SHA-256 over every mix's schedules for seeds 0-199, in sorted mix
#: order.  The generator's draw order is the schedule format: any change
#: to a nemesis shape, an op draw or a field's key order moves it.
SCHEDULE_DIGEST = (
    "43cfe33cc0ddb1a6fce6c2bfa8f8a905113fbb371e8f6b60c3a7a8e4c9fe6331")


def test_generated_schedules_are_byte_stable():
    digest = hashlib.sha256()
    for mix in sorted(NEMESIS_MIXES):
        for seed in range(200):
            digest.update(json.dumps(
                generate_schedule(seed, nemesis_mix=mix)).encode())
    assert digest.hexdigest() == SCHEDULE_DIGEST


# ----------------------------------------------------------------------
# runner: clean seeds, bit-determinism
# ----------------------------------------------------------------------

def test_default_seeds_run_clean():
    for seed in range(3):
        result = run_schedule(generate_schedule(seed))
        assert result["violations"] == [], result["violations"]
        assert result["stats"]["quiesced"]
        assert result["stats"]["ops_pending"] == 0


def test_same_schedule_is_bit_identical():
    first = json.dumps(run_schedule(generate_schedule(17)), sort_keys=True)
    second = json.dumps(run_schedule(generate_schedule(17)), sort_keys=True)
    assert first == second


def test_gray_seeds_run_clean():
    """Gray nemeses (slow disk, lossy links, skew, stampede) must never
    produce an unexcused violation: the victim stays alive, promotions
    are suppressed, and shipper retransmission closes every loss gap."""
    for seed in range(3):
        result = run_schedule(generate_schedule(seed, nemesis_mix="gray"))
        assert result["violations"] == [], result["violations"]
        assert result["stats"]["quiesced"]


@pytest.mark.parametrize("mix, seed, promotions",
                         [("gray", 0, 0), ("classic", 2, 1)])
def test_promotions_stat_counts_only_real_promotions(mix, seed, promotions):
    """A suppressed failover names the failed node as ``promoted`` but
    replaces nothing; the stat counts only ordained promotions (gray
    seed 0 has one suppression, classic seed 2 two beside its one
    promotion)."""
    result = run_schedule(generate_schedule(seed, nemesis_mix=mix))
    assert result["stats"]["promotions"] == promotions


def test_gray_schedule_is_bit_identical():
    """Jittered backoff and lossy links draw only from seeded streams:
    the same gray schedule replays to the same bytes."""
    schedule = generate_schedule(23, nemesis_mix="gray")
    first = json.dumps(run_schedule(schedule), sort_keys=True)
    second = json.dumps(
        run_schedule(generate_schedule(23, nemesis_mix="gray")),
        sort_keys=True)
    assert first == second


def test_runs_do_not_leak_into_each_other():
    """A run's result is independent of what ran before it in the
    process (global id counters are rewound per run)."""
    baseline = json.dumps(run_schedule(generate_schedule(2)),
                          sort_keys=True)
    run_schedule(generate_schedule(9))  # pollute process state
    again = json.dumps(run_schedule(generate_schedule(2)), sort_keys=True)
    assert again == baseline


@pytest.mark.parametrize("mix,pings", [("election", False),
                                        ("mixed", True)])
def test_only_the_promotion_path_pings(monkeypatch, mix, pings):
    """Under consensus the election timers are the failure detector:
    the coordinator starts no detector and sends no ``ping``.  The
    promotion path keeps its heartbeat detector."""
    built = []

    class Recording(runner.FalconCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "FalconCluster", Recording)
    result = run_schedule(generate_schedule(0, nemesis_mix=mix))
    assert result["violations"] == [], result["violations"]
    (cluster,) = built
    assert (cluster.detector is not None) is pings
    assert (cluster.network.message_count("ping") > 0) is pings


# ----------------------------------------------------------------------
# oracle: synthetic histories (no cluster required)
# ----------------------------------------------------------------------

_PRELOAD = ["/d0"]
_D0 = {"/d0": {"is_dir": True}}


def _slot_of(_path):
    return 0


def _entry(op_id, kind, path, start, end, status, error=None):
    entry = {"op_id": op_id, "kind": kind, "path": path,
             "start_us": start, "end_us": end, "status": status,
             "error": error}
    return entry


def _audit(history, final_paths, **kwargs):
    return audit_history(history, final_paths, _PRELOAD, _slot_of,
                         **kwargs)


class TestOracle:
    def test_clean_create_is_clean(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok")]
        final = dict(_D0, **{"/d0/a.dat": {"is_dir": False}})
        assert _audit(history, final) == []

    def test_lost_acked_create_is_durability(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok")]
        violations = _audit(history, dict(_D0))
        assert [v["invariant"] for v in violations] == ["durability"]
        assert violations[0]["op_id"] == 0

    def test_risk_window_excuses_lost_create(self):
        """An ack inside a promotion's loss window is only *maybe*."""
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok")]
        assert _audit(history, dict(_D0),
                      risk_windows=[(0, 150.0, 400.0)]) == []

    def test_risk_window_on_other_slot_excuses_nothing(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok")]
        violations = _audit(history, dict(_D0),
                            risk_windows=[(1, 150.0, 400.0)])
        assert [v["invariant"] for v in violations] == ["durability"]

    def test_tainted_slot_excuses_everything(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok")]
        assert _audit(history, dict(_D0), tainted_slots={0}) == []

    def test_acked_removal_must_not_resurface(self):
        history = [
            _entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
            _entry(1, "unlink", "/d0/a.dat", 300, 400, "ok"),
        ]
        final = dict(_D0, **{"/d0/a.dat": {"is_dir": False}})
        violations = _audit(history, final)
        assert [v["invariant"] for v in violations] == ["durability"]
        assert "resurfaced" in violations[0]["message"]

    def test_failed_op_is_maybe_applied(self):
        """A timed-out create may or may not have landed: both final
        states are legal."""
        history = [_entry(0, "create", "/d0/a.dat", 100, None, "failed",
                          "ETIMEDOUT")]
        assert _audit(history, dict(_D0)) == []
        final = dict(_D0, **{"/d0/a.dat": {"is_dir": False}})
        assert _audit(history, final) == []

    def test_type_mismatch(self):
        history = [_entry(0, "mkdir", "/d0/sub0", 100, 200, "ok")]
        final = dict(_D0, **{"/d0/sub0": {"is_dir": False}})
        violations = _audit(history, final)
        assert [v["invariant"] for v in violations] == ["type"]

    def test_missing_preloaded_dir(self):
        violations = _audit([], {})
        assert [v["invariant"] for v in violations] == ["durability"]
        assert violations[0]["path"] == "/d0"

    def test_phantom_path(self):
        final = dict(_D0, **{"/d0/ghost.dat": {"is_dir": False}})
        violations = _audit([], final)
        assert [v["invariant"] for v in violations] == ["phantom"]

    def test_ok_read_needs_a_possible_creator(self):
        history = [_entry(0, "getattr", "/d0/a.dat", 100, 200, "ok")]
        violations = _audit(history, dict(_D0))
        assert [v["invariant"] for v in violations] == ["read"]

    def test_ok_read_explained_by_failed_create(self):
        """A failed (maybe-applied) create still explains a later OK
        read — timeouts after commit are real."""
        history = [
            _entry(0, "create", "/d0/a.dat", 50, None, "failed",
                   "ETIMEDOUT"),
            _entry(1, "getattr", "/d0/a.dat", 100, 200, "ok"),
        ]
        final = dict(_D0, **{"/d0/a.dat": {"is_dir": False}})
        assert _audit(history, final) == []

    def test_enoent_after_definite_create_needs_remover(self):
        history = [
            _entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
            _entry(1, "getattr", "/d0/a.dat", 300, 400, "failed",
                   "ENOENT"),
        ]
        final = dict(_D0, **{"/d0/a.dat": {"is_dir": False}})
        violations = _audit(history, final)
        assert [v["invariant"] for v in violations] == ["read"]
        assert violations[0]["creator_op_id"] == 0

    def test_enoent_explained_by_concurrent_unlink(self):
        history = [
            _entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
            _entry(1, "unlink", "/d0/a.dat", 250, 450, "failed",
                   "ETIMEDOUT"),
            _entry(2, "getattr", "/d0/a.dat", 300, 400, "failed",
                   "ENOENT"),
        ]
        assert _audit(history, dict(_D0)) == []

    def test_enoent_on_preloaded_dir_is_a_violation(self):
        history = [_entry(0, "getattr", "/d0", 100, 200, "failed",
                          "ENOENT")]
        violations = _audit(history, dict(_D0))
        assert [v["invariant"] for v in violations] == ["read"]

    def test_rename_effects_both_paths(self):
        entry = _entry(0, "rename", None, 100, 200, "ok")
        del entry["path"]
        entry["src"] = "/d0/a.dat"
        entry["dst"] = "/d0/b.dat"
        create = _entry(1, "create", "/d0/a.dat", 10, 50, "ok")
        final = dict(_D0, **{"/d0/b.dat": {"is_dir": False}})
        assert _audit([create, entry], final) == []
        # Source resurfacing or destination loss are both violations.
        bad_src = dict(final, **{"/d0/a.dat": {"is_dir": False}})
        kinds = [v["invariant"] for v in _audit([create, entry], bad_src)]
        assert kinds == ["durability"]
        kinds = [v["invariant"]
                 for v in _audit([create, entry], dict(_D0))]
        assert kinds == ["durability"]


def _listing(op_id, start, end, names, path="/d0"):
    entry = _entry(op_id, "readdir", path, start, end, "ok")
    entry["names"] = list(names)
    return entry


def _rename(op_id, src, dst, start, end, status="ok", error=None):
    entry = _entry(op_id, "rename", None, start, end, status, error)
    del entry["path"]
    entry.update(src=src, dst=dst)
    return entry


class TestListingOracle:
    """A successful listing of D reads every path directly under D:
    listed paths as OK reads, unlisted ones as ENOENT reads, and a
    listed name removed by an acked op before the listing started needs
    a possible re-creator."""

    _A = dict(_D0, **{"/d0/a.dat": {"is_dir": False}})

    def test_a_listing_of_what_is_there_is_clean(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _listing(1, 300, 400, ["a.dat"])]
        assert _audit(history, self._A) == []

    def test_a_listing_that_misses_an_acked_create_is_a_read_violation(
            self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _listing(1, 300, 400, [])]
        violations = _audit(history, self._A)
        assert [v["invariant"] for v in violations] == ["read"]
        assert violations[0]["creator_op_id"] == 0

    def test_a_listing_concurrent_with_the_create_may_miss_it(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 350, "ok"),
                   _listing(1, 300, 400, [])]
        assert _audit(history, self._A) == []

    def test_a_listed_name_nothing_created_is_a_read_violation(self):
        violations = _audit([_listing(0, 300, 400, ["ghost.dat"])],
                            dict(_D0))
        assert [(v["invariant"], v["path"]) for v in violations] == [
            ("read", "/d0/ghost.dat")]

    def test_a_listing_after_an_acked_unlink_must_not_list_it(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _entry(1, "unlink", "/d0/a.dat", 300, 400, "ok"),
                   _listing(2, 500, 600, ["a.dat"])]
        violations = _audit(history, dict(_D0))
        assert [v["invariant"] for v in violations] == ["read"]
        assert violations[0]["remover_op_id"] == 1
        assert violations[0]["op_id"] == 2

    def test_a_listing_after_an_acked_rename_lists_the_destination(self):
        """An ls issued after a rename's answer lists the destination
        and not the source."""
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _rename(1, "/d0/a.dat", "/d0/b.dat", 300, 400)]
        final = dict(_D0, **{"/d0/b.dat": {"is_dir": False}})
        assert _audit(history + [_listing(2, 500, 600, ["b.dat"])],
                      final) == []
        both = _audit(history + [_listing(2, 500, 600, ["a.dat", "b.dat"])],
                      final)
        assert [(v["invariant"], v["path"], v["remover_op_id"])
                for v in both] == [("read", "/d0/a.dat", 1)]
        neither = _audit(history + [_listing(2, 500, 600, [])], final)
        assert [(v["invariant"], v["path"]) for v in neither] == [
            ("read", "/d0/b.dat")]

    def test_a_listing_concurrent_with_the_removal_may_list_it(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _entry(1, "unlink", "/d0/a.dat", 300, 550, "ok"),
                   _listing(2, 500, 600, ["a.dat"])]
        assert _audit(history, dict(_D0)) == []

    @pytest.mark.parametrize("start, end, status, clean", [
        (450, 480, "ok", True),            # re-created after the removal
        (350, None, "failed", True),       # a maybe-applied overlap
        (150, 250, "failed", False),       # over before the removal began
        (650, 700, "ok", False),           # began after the listing ended
    ])
    def test_a_recreator_excuses_a_listed_removal(self, start, end, status,
                                                  clean):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _entry(1, "unlink", "/d0/a.dat", 300, 400, "ok"),
                   _entry(2, "create", "/d0/a.dat", start, end, status,
                          None if status == "ok" else "ETIMEDOUT"),
                   _listing(3, 500, 600, ["a.dat"])]
        final = self._A if clean and status == "ok" else dict(_D0)
        kinds = [v["invariant"] for v in _audit(history, final)
                 if v["invariant"] == "read"]
        assert kinds == ([] if clean else ["read"])

    def test_a_lost_removal_excuses_the_listing(self):
        """An unlink acked inside a promotion's loss window may have
        been lost: listing the name afterwards is allowed."""
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _entry(1, "unlink", "/d0/a.dat", 300, 400, "ok"),
                   _listing(2, 500, 600, ["a.dat"])]
        assert _audit(history, self._A,
                      risk_windows=[(0, 350.0, 700.0)]) == []

    def test_a_failed_listing_reads_only_its_directory(self):
        history = [_entry(0, "create", "/d0/a.dat", 100, 200, "ok"),
                   _entry(1, "readdir", "/d0", 300, 400, "failed",
                          "ETIMEDOUT")]
        assert _audit(history, self._A) == []


# ----------------------------------------------------------------------
# shrinker
# ----------------------------------------------------------------------

def _fake_run(culprit_op, culprit_group):
    """A run_fn failing iff both culprits survive in the candidate."""

    def run_fn(candidate):
        ids = {op["id"] for op in candidate["ops"]}
        groups = {e["group"] for e in candidate["nemeses"]}
        failing = culprit_op in ids and culprit_group in groups
        return {
            "schedule": candidate,
            "history": [],
            "stats": {},
            "violations": (
                [{"invariant": "fake", "message": "boom"}] if failing
                else []
            ),
        }

    return run_fn


def test_shrink_isolates_the_culprits():
    schedule = generate_schedule(0)
    assert any(op["id"] == 7 for op in schedule["ops"])
    minimal, runs, result = shrink(schedule, run_fn=_fake_run(7, 1))
    assert [op["id"] for op in minimal["ops"]] == [7]
    assert {e["group"] for e in minimal["nemeses"]} == {1}
    assert result["violations"]
    assert runs <= 150
    assert minimal["shrunk_from"] == {
        "ops": len(schedule["ops"]),
        "nemeses": len(schedule["nemeses"]),
    }


def test_shrink_rejects_passing_schedule():
    schedule = generate_schedule(0)
    with pytest.raises(ValueError):
        shrink(schedule, run_fn=_fake_run(-1, -1))


def test_shrink_respects_run_budget():
    calls = []

    def run_fn(candidate):
        calls.append(1)
        return {"schedule": candidate, "history": [], "stats": {},
                "violations": [{"invariant": "fake", "message": "x"}]}

    shrink(generate_schedule(1), run_fn=run_fn, max_runs=10)
    # +1: the budget gates shrink candidates, not the final re-run.
    assert len(calls) <= 11


# ----------------------------------------------------------------------
# the planted-bug acceptance test
# ----------------------------------------------------------------------

_ORIG_RELEASE = LockManager.release


def _leaky_release(self, grant):
    """Plant a lock-state leak: the entry outlives its last holder, the
    residue any acquire path that creates entries nothing prunes would
    leave.  Planting it at ``release`` leaves it on every code path."""
    state = self._locks.get(grant.key)
    _ORIG_RELEASE(self, grant)
    if state is not None and grant.key not in self._locks:
        self._locks[grant.key] = state


def test_planted_lock_leak_is_caught_and_shrunk(monkeypatch):
    monkeypatch.setattr(LockManager, "release", _leaky_release)
    failing = None
    for seed in range(50):
        schedule = generate_schedule(seed)
        result = run_schedule(schedule)
        if result["violations"]:
            failing = (seed, schedule, result)
            break
    assert failing is not None, "planted lock leak escaped 50 seeds"
    seed, schedule, result = failing
    assert any(v["invariant"] == "lock-leak"
               for v in result["violations"]), result["violations"]

    minimal, runs, min_result = shrink(schedule)
    assert min_result["violations"], "shrunk schedule no longer fails"
    assert len(minimal["ops"]) <= 10, minimal["ops"]
    assert len(minimal["nemeses"]) <= 2, minimal["nemeses"]

    # The reproducer replays: running the minimal schedule again (in a
    # fresh cluster) yields the identical verdict.
    replay = run_schedule(minimal)
    assert (json.dumps(replay["violations"], sort_keys=True)
            == json.dumps(min_result["violations"], sort_keys=True))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_run_clean_and_gen_roundtrip(tmp_path, capsys):
    from repro.check.__main__ import main

    assert main(["run", "--seeds", "1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 seeds clean" in out
    assert not list(tmp_path.iterdir())  # no seed file on success

    assert main(["gen", "--seed", "3"]) == 0
    schedule = json.loads(capsys.readouterr().out)
    assert schedule == generate_schedule(3)


def test_cli_repro_reports_non_reproduction(tmp_path, capsys):
    from repro.check.__main__ import main

    report = {"seed": 2, "schedule": generate_schedule(2),
              "minimal": None}
    path = tmp_path / "seed-2.json"
    path.write_text(json.dumps(report))
    assert main(["repro", str(path)]) == 0
    assert "did not reproduce" in capsys.readouterr().out


def test_cli_repro_replays_a_bare_schedule(capsys):
    """The pinned reproducers under ``tests/golden`` are schedules, not
    reports; ``repro`` takes either."""
    from repro.check.__main__ import main

    assert main(["repro",
                 "tests/golden/rename_redelivery_schedule.json"]) == 0
    assert "did not reproduce" in capsys.readouterr().out


@pytest.mark.parametrize("broken,field", [
    ({"kind": "hang", "at_us": 2000.0, "index": 0}, "duration_us"),
    ({"kind": "crash", "at_us": 2000.0, "index": 7}, "index"),
])
def test_cli_repro_refuses_a_malformed_nemesis(tmp_path, capsys, broken,
                                               field):
    """A seed file whose nemesis can never fire is an input error (exit
    2, nothing on stdout) — not a ``sim-crash`` verdict on the system."""
    from repro.check.__main__ import main

    schedule = generate_schedule(2)
    schedule["nemeses"] = [dict(broken, group=0)]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"seed": 2, "schedule": schedule}))
    assert main(["repro", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err and repr(field) in captured.err


def test_cli_run_writes_seed_file_on_failure(tmp_path, capsys,
                                             monkeypatch):
    from repro.check.__main__ import main

    monkeypatch.setattr(LockManager, "release", _leaky_release)
    rc = main(["run", "--seeds", "1", "--out", str(tmp_path),
               "--max-shrink-runs", "40"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "reproduce:" in out
    report = json.loads((tmp_path / "seed-0.json").read_text())
    assert report["minimal"] is not None
    assert report["minimal_violations"]

    # The written file round-trips through the repro subcommand
    # (still under the planted bug, so the verdict reproduces).
    assert main(["repro", str(tmp_path / "seed-0.json")]) == 1


def test_cli_keep_going_explores_past_failures(tmp_path, capsys,
                                               monkeypatch):
    """``--keep-going`` runs every seed, then groups the failures by
    invariant plus normalised message; the lowest failing seed is still
    the one reported (and written)."""
    from repro.check.__main__ import main

    monkeypatch.setattr(LockManager, "release", _leaky_release)
    rc = main(["run", "--seeds", "3", "--out", str(tmp_path),
               "--keep-going", "--no-shrink"])
    assert rc == 2
    out = capsys.readouterr().out
    assert all("seed {:4d}: FAIL".format(seed) in out for seed in range(3))
    assert "# 3 failing seeds" in out
    assert "(seeds 0 1 2)" in out and "[lock-leak]" in out
    assert (tmp_path / "seed-0.json").exists()


def test_signature_normalises_numbers_and_lists():
    from repro.check.__main__ import signature

    first = {"invariant": "identity",
             "message": "inode number 5 appears twice: ['/a', '/b']"}
    second = {"invariant": "identity",
              "message": "inode number 17 appears twice: ['/c']"}
    assert signature(first) == signature(second) == (
        "[identity] inode number N appears twice: [...]")


def test_cli_census_gates_on_new_red_seeds(tmp_path, capsys, monkeypatch):
    """``census`` writes every mix's red seeds with their signatures;
    ``--check`` passes while the red set stays inside the file's and
    fails on a seed the file does not list."""
    from repro.check.__main__ import main

    monkeypatch.setattr(LockManager, "release", _leaky_release)
    red = tmp_path / "red.json"
    assert main(["census", "--seeds", "1", "--out", str(red)]) == 0
    census = json.loads(red.read_text())
    assert set(census) == set(NEMESIS_MIXES)
    assert all("[lock-leak]" in mix["0"] for mix in census.values())
    assert main(["census", "--seeds", "1", "--check", str(red)]) == 0
    allowed = tmp_path / "allowed.json"
    allowed.write_text(json.dumps(dict(census, gray={})))
    capsys.readouterr()
    assert main(["census", "--seeds", "1", "--check", str(allowed)]) == 1
    assert "gray: NEW red 0" in capsys.readouterr().out
