"""The five extension experiments, pinned row for row.

``tests/golden/fault_experiments_quick.json`` holds the exact rows
``failover``, ``restart``, ``election``, ``grayfail`` and ``rebalance``
produce at their ``--quick`` kwargs.  They are not paper figures (CI's
``figures`` job pins those thirteen).  The first four run one checker
schedule each, under the oracle and the structural, residue and
replication audits, so a run that violates any of them raises before
it yields a row; the checker's fingerprints cover only generated
schedules, so a moved victim, crash instant or heal time in these shows
here and nowhere else.  ``rebalance`` keeps its own growth driver.

Generated when the four became checker schedules.  Regenerate (only
when a change deliberately moves simulated behaviour) with::

    PYTHONPATH=src python -m tests.test_fault_experiments_golden
"""

import json

import pytest

from repro.experiments.__main__ import EXPERIMENTS

GOLDEN_PATH = "tests/golden/fault_experiments_quick.json"
NAMES = ("failover", "restart", "election", "grayfail", "rebalance")


def quick_rows(name):
    """The rows ``python -m repro.experiments <name> --quick`` renders,
    as they read back from JSON (tuples become lists, floats exact)."""
    module, _, quick_kwargs = EXPERIMENTS[name]
    return json.loads(json.dumps(module.run(**quick_kwargs)))


@pytest.fixture(scope="module")
def committed():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", NAMES)
def test_quick_rows_match_committed(committed, name):
    assert quick_rows(name) == committed[name]


def main():
    table = {name: quick_rows(name) for name in NAMES}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} experiments' rows to {}".format(len(table),
                                                    GOLDEN_PATH))


if __name__ == "__main__":
    main()
