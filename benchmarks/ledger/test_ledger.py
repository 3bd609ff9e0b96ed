"""Plumbing test for the ledger at ``--smoke`` scale (≤ 20 s).

Run with ``python -m pytest benchmarks/ledger``; not part of tier-1.
Speed is not asserted here — only that every metric the issue names is
emitted with a unit, under the contract's limits, from inputs that the
seed changes, through entry points that still exist.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

ISSUE_END_TO_END = {
    "setup_s", "sim_ops_per_s", "sim_p50_us", "sim_p99_us",
    "accelerator_utilization", "sim_failover_gap_us", "host_ops_per_s",
    "schedules_per_min", "live_ops_per_s", "live_p50_us", "failed_share",
    "peak_rss_mb",
}


def _run(*argv):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stdout[-2000:]
    return done.stdout


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    _run("--smoke", "--seed", "0", "--out", str(out))
    with open(out / "ledger.json") as handle:
        return json.load(handle), out


def test_names_units_and_limits():
    end_to_end = [row[0] for row in metrics.END_TO_END]
    assert "setup_s" in end_to_end
    assert len(end_to_end) <= 16 and len(metrics.PER_LAYER) <= 128
    names = end_to_end + metrics.PER_LAYER_NAMES + list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = ([row[1] for row in metrics.END_TO_END + metrics.LEDGER_ROWS]
             + [row[1] for row in metrics.PER_LAYER])
    assert all(UNIT.match(unit) for unit in units)
    assert all(0 < row[3] <= 0.25 for row in metrics.END_TO_END)
    assert {row[0] for row in metrics.LEDGER_ROWS} == ISSUE_END_TO_END
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why
               for why, _, _ in metrics.WORKLOADS.values())


def test_benchmark_json_is_the_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == json.loads(_run("--manifest"))
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}


def test_entry_points_import():
    for entry_point in metrics.ENTRY_POINTS:
        assert metrics.resolve(entry_point) is not None, entry_point


def test_every_metric_is_emitted(ledger):
    document, out = ledger
    emitted = {}
    for row in document["end_to_end"]:
        emitted.setdefault(row["metric"], set()).add(row["workload"])
        assert UNIT.match(row["unit"])
        assert row["n"] >= 1 and row["q1"] <= row["q3"]
    assert set(emitted) == ISSUE_END_TO_END
    for name, _, _, _, _, homes, _, _ in metrics.LEDGER_ROWS:
        assert emitted[name] == set(homes)
    layer = {row["metric"]: row for row in document["per_layer"]}
    assert list(layer) == metrics.PER_LAYER_NAMES
    for row in layer.values():
        assert UNIT.match(row["unit"])
        assert set(row["values"]) == set(metrics.WORKLOADS)
    for workload in metrics.WORKLOADS:
        assert (out / "layers_{}.json".format(workload)).exists()
        share = sum(layer[name + ".host_self_share"]["values"][workload]
                    for name in metrics.LAYERS)
        assert abs(share - 1.0) <= 0.02
        assert document["workloads"][workload]["failed"] == 0
    for workload in metrics.SIMULATED:
        assert (out / "trace_{}.jsonl".format(workload)).stat().st_size > 0


def test_counters_still_count(ledger):
    """A renamed counter reads 0 silently; these must not."""
    layer = {row["metric"]: row["values"] for row in ledger[0]["per_layer"]}
    assert layer["core.batch_size_mean"]["create_storm"] >= 1.0
    assert layer["core.requests_per_op"]["deep_stat"] == 1.0
    assert layer["storage.wal_flushes_per_op"]["create_storm"] > 0
    assert layer["storage.wal_flushes_per_op"]["deep_stat"] == 0
    assert layer["net.messages_per_op"]["train_epoch"] > 0
    assert layer["core.blocks_per_file"]["train_epoch"] >= 1.0
    assert layer["vfs.dcache_hit_rate"]["deep_stat"] > 0
    assert layer["check.ops_per_schedule"]["fault_sweep"] > 0
    assert layer["serve.mnode_received_per_op"]["live_mix"] > 0
    assert layer["serve.coordinator_ops_per_op"]["live_mix"] > 0
    assert layer["net.sim_us_per_op"]["create_storm"] > 0
    assert layer["storage.wal_sim_us_per_op"]["create_storm"] > 0
    assert layer["core.disk_sim_us_per_op"]["train_epoch"] > 0


def test_driver_contract_and_seed(ledger):
    inputs = {w: entry["inputs"]
              for w, entry in ledger[0]["workloads"].items()}
    for trace, declared in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        last = _run("--smoke", "--workload", "deep_stat", "--seed", "7",
                    "--seconds", "0.1", "--trace", str(trace)
                    ).strip().splitlines()[-1]
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [row[0] for row in declared]
        for name, unit, *_ in declared:
            assert result["metrics"][name]["unit"] == unit
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    # Another seed, other inputs, the same metric set (checked above).
    other = json.loads(_run("--rep", "deep_stat", "--seed", "7", "--smoke",
                            "--t0", "0").strip().splitlines()[-1])
    assert other["inputs"] != inputs["deep_stat"]


def test_compare_verdicts(ledger, capsys):
    sys.path.insert(0, HERE)
    import run

    document = ledger[0]
    assert all(row["verdict"] in ("same", "unresolved")
               for row in run.compare(document, document))
    slower = json.loads(json.dumps(document))
    for row in slower["end_to_end"]:
        if row["metric"] == "sim_p50_us":
            row["value"] *= 1.5
            row["q1"] *= 1.5
            row["q3"] *= 1.5
    verdicts = {(r["metric"], r["workload"]): r["verdict"]
                for r in run.compare(document, slower)}
    assert verdicts[("sim_p50_us", "create_storm")] == "worse"
    assert verdicts[("sim_ops_per_s", "create_storm")] == "same"
    capsys.readouterr()
