"""Checker fingerprints: outcomes pinned, bookkeeping free to change.

``tests/golden/check_fingerprints.json`` holds, for 10 seeds of each of
the ``mixed``, ``gray``, ``election`` and ``migrate`` nemesis mixes, a
digest of the full op history (every start/end timestamp, status and
error), the fabric's message count and the final clock.  It deliberately
does *not* hold the kernel's event count: how many heap entries the
simulator spends is an implementation detail (``tests/
test_event_budget.py`` pins that separately), while everything a client
or the oracle can observe must survive any kernel or fabric
optimisation bit-for-bit.

Generated at the commit before PR 13 touched the kernel.  Regenerate
(only when a PR deliberately changes simulated behaviour) with::

    PYTHONPATH=src python -m tests.test_check_fingerprints
"""

import hashlib
import json

import pytest

from repro.check import runner
from repro.check.schedule import generate_schedule

FINGERPRINT_PATH = "tests/golden/check_fingerprints.json"
MIXES = ("mixed", "gray", "election", "migrate")
SEEDS = range(10)


def fingerprint(mix, seed):
    """Run one checker schedule; return its outcome fingerprint."""
    built = []

    class Recording(runner.FalconCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    real = runner.FalconCluster
    runner.FalconCluster = Recording
    try:
        result = runner.run_schedule(
            generate_schedule(seed, nemesis_mix=mix))
    finally:
        runner.FalconCluster = real
    (cluster,) = built
    history = json.dumps(result["history"], sort_keys=True)
    return {
        "history_sha256": hashlib.sha256(history.encode()).hexdigest(),
        "violations": len(result["violations"]),
        "messages": cluster.network.message_count(),
        "final_now_us": result["stats"]["final_now_us"],
    }


def _key(mix, seed):
    return "{}/{}".format(mix, seed)


@pytest.fixture(scope="module")
def committed():
    with open(FINGERPRINT_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("mix", MIXES)
def test_fingerprints_match_committed(committed, mix):
    mismatched = {}
    for seed in SEEDS:
        got = fingerprint(mix, seed)
        if got != committed[_key(mix, seed)]:
            mismatched[seed] = (got, committed[_key(mix, seed)])
    assert not mismatched, (
        "checker outcomes under the {} mix diverged from the committed "
        "fingerprints: {}".format(mix, mismatched)
    )


def main():
    table = {_key(mix, seed): fingerprint(mix, seed)
             for mix in MIXES for seed in SEEDS}
    with open(FINGERPRINT_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} fingerprints to {}".format(len(table),
                                               FINGERPRINT_PATH))


if __name__ == "__main__":
    main()
