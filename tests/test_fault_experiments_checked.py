"""The fault experiments run as checker schedules.

``failover``, ``restart``, ``election`` and ``grayfail`` each build one
schedule in the checker's own format and run it through
:func:`repro.check.run_schedule`: every run is judged by the oracle and
the structural, residue and replication audits, and the schedule is
plain JSON that ``python -m repro.check repro`` can replay.
"""

import json

import pytest

from repro.check import run_schedule
from repro.experiments import election, failover, grayfail, restart
from repro.storage.locks import LockManager
from tests.test_check import _leaky_release

#: One small run of each experiment.
SMALL = {
    "failover": lambda: failover.measure(
        threads=2, duration_us=8000.0, warm_us=3000.0, seed=3),
    "restart": lambda: restart.measure(
        mode="rejoin", threads=2, duration_us=8000.0, warm_us=3000.0),
    "election": lambda: election.measure(
        threads=2, duration_us=12000.0, warm_us=3000.0),
    "grayfail": lambda: grayfail.measure(
        kind="slow_disk", severity=16.0, threads=2, duration_us=8000.0,
        warm_us=2000.0, fault_duration_us=3000.0),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_schedule_replays_from_json(name):
    """The schedule an experiment ran survives a JSON round trip, and
    the copy replays to the same history."""
    run = SMALL[name]()["run"]
    copy = json.loads(json.dumps(run["schedule"]))
    assert copy == run["schedule"]
    assert run_schedule(copy)["history"] == run["history"]


def test_planted_lock_leak_fails_the_experiment(monkeypatch):
    """A lock that outlives its holder is runtime residue: the checker's
    audit fails the failover experiment and names the invariant."""
    monkeypatch.setattr(LockManager, "release", _leaky_release)
    with pytest.raises(RuntimeError, match="lock-leak"):
        SMALL["failover"]()
