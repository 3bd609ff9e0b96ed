"""Integration tests: every experiment module runs at small scale and
reproduces the paper's qualitative shape."""

import pathlib

import pytest

from repro.experiments import (
    ablation,
    burst,
    cache_sweep,
    corner_cases,
    data_path,
    labeling,
    load_balance,
    memory_budget,
    metadata_latency,
    metadata_scaling,
    training,
)
from repro.experiments.common import format_table
from repro.workloads.datasets import labeling_task, linux_tree

#: Committed figure tables (written by ``benchmarks/test_fig*.py``).
RESULTS = (pathlib.Path(__file__).resolve().parent.parent
           / "benchmarks" / "results")


def _by(rows, **filters):
    return [
        row for row in rows
        if all(row.get(key) == value for key, value in filters.items())
    ]


class TestMetadataScaling:
    @pytest.fixture(scope="class")
    def rows(self):
        return metadata_scaling.run(
            systems=("falconfs", "lustre"), servers=(4, 8),
            ops=("create", "getattr"), num_ops=600, threads=128,
        )

    def test_row_schema(self, rows):
        assert {"op", "system", "servers", "kops_per_sec"} <= set(rows[0])
        assert len(rows) == 8

    def test_no_errors(self, rows):
        assert all(row["errors"] == 0 for row in rows)

    def test_falcon_create_competitive_with_lustre(self, rows):
        # The paper's create speedup over Lustre spans 0.82-2.26x; under
        # partial load merging has less to amortize, so allow the low end.
        falcon = _by(rows, system="falconfs", op="create", servers=4)[0]
        lustre = _by(rows, system="lustre", op="create", servers=4)[0]
        assert falcon["kops_per_sec"] > 0.8 * lustre["kops_per_sec"]

    def test_falcon_create_beats_lustre_at_saturation(self):
        falcon = metadata_scaling.measure(
            "falconfs", 4, "create", num_ops=1200, threads=256
        )
        lustre = metadata_scaling.measure(
            "lustre", 4, "create", num_ops=1200, threads=256
        )
        assert falcon.ops_per_sec > lustre.ops_per_sec

    def test_falcon_scales_with_servers(self, rows):
        small = _by(rows, system="falconfs", op="getattr", servers=4)[0]
        large = _by(rows, system="falconfs", op="getattr", servers=8)[0]
        assert large["kops_per_sec"] > small["kops_per_sec"]

    def test_format(self, rows):
        assert "Fig 10" in metadata_scaling.format_rows(rows)


class TestRmdirScalingShape:
    def test_falcon_rmdir_does_not_scale(self):
        small = metadata_scaling.measure(
            "falconfs", 4, "rmdir", num_ops=300, threads=64
        )
        large = metadata_scaling.measure(
            "falconfs", 16, "rmdir", num_ops=300, threads=64
        )
        # The invalidation broadcast makes rmdir at best flat with
        # cluster size (§6.2).
        assert large.ops_per_sec < small.ops_per_sec * 1.2


class TestMetadataLatency:
    def test_falcon_latency_between_lustre_and_ceph(self):
        rows = metadata_latency.run(
            systems=("falconfs", "cephfs", "lustre"), ops=("create",),
            num_ops=60,
        )
        mean = {row["system"]: row["mean_us"] for row in rows}
        assert mean["lustre"] < mean["falconfs"] < mean["cephfs"]

    def test_format(self):
        rows = metadata_latency.run(systems=("falconfs",),
                                    ops=("getattr",), num_ops=30)
        assert "latency" in metadata_latency.format_rows(rows)


class TestMemoryBudget:
    @pytest.fixture(scope="class")
    def rows(self):
        return memory_budget.run(
            systems=("falconfs", "cephfs"), budgets=(0.1, 1.0),
            threads=96, max_files=800,
        )

    def test_falcon_budget_insensitive(self, rows):
        falcon = _by(rows, system="falconfs")
        tight = falcon[0]["files_per_sec"]
        full = falcon[-1]["files_per_sec"]
        assert abs(tight - full) / full < 0.1
        assert all(r["requests_per_file"] == pytest.approx(1.0)
                   for r in falcon)

    def test_ceph_amplifies_under_pressure(self, rows):
        ceph = {row["budget_pct"]: row for row in _by(rows, system="cephfs")}
        assert ceph[10]["requests_per_file"] > ceph[100]["requests_per_file"]
        assert ceph[10]["files_per_sec"] < ceph[100]["files_per_sec"]

    def test_falcon_beats_ceph(self, rows):
        falcon = _by(rows, system="falconfs")[0]["files_per_sec"]
        ceph = max(r["files_per_sec"] for r in _by(rows, system="cephfs"))
        assert falcon > ceph

    def test_format(self, rows):
        assert "budget" in memory_budget.format_rows(rows)


class TestCacheSweep:
    def test_fig2_shape(self):
        rows = cache_sweep.run(budgets=(0.1, 1.0), threads=96,
                               max_files=800)
        tight, full = rows[0], rows[-1]
        assert tight["lookups_per_open"] > full["lookups_per_open"]
        assert tight["files_per_sec"] < full["files_per_sec"]
        assert "CephFS" in cache_sweep.format_rows(rows)


class TestBurst:
    def test_ceph_degrades_falcon_does_not(self):
        rows = burst.run(
            systems=("falconfs", "cephfs"), bursts=(1, 100),
            ops=("read",), num_dirs=24, files_per_dir=50, threads=128,
        )
        ceph = {row["burst"]: row for row in _by(rows, system="cephfs")}
        falcon = {row["burst"]: row for row in _by(rows, system="falconfs")}
        assert ceph[100]["files_per_sec"] < ceph[1]["files_per_sec"]
        assert (falcon[100]["files_per_sec"]
                > 0.85 * falcon[1]["files_per_sec"])

    def test_ceph_burst_load_imbalance(self):
        rows = burst.run(
            systems=("cephfs",), bursts=(1, 100), ops=("read",),
            num_dirs=24, files_per_dir=50, threads=128,
        )
        by_burst = {row["burst"]: row for row in rows}
        assert (by_burst[100]["server_load_cv"]
                > by_burst[1]["server_load_cv"])
        assert "burst" in burst.format_rows(rows)


class TestDataPath:
    def test_fig12_shape(self):
        rows = data_path.run(
            systems=("falconfs", "cephfs"), sizes=(16 << 10, 1 << 20),
            ops=("read",), num_files=400, threads=96,
        )
        small_ceph = _by(rows, system="cephfs", file_size_kib=16)[0]
        large_ceph = _by(rows, system="cephfs", file_size_kib=1024)[0]
        # Metadata-bound at small sizes, bandwidth-converged at 1 MiB.
        assert small_ceph["normalized"] < 0.7
        assert large_ceph["normalized"] > 0.8
        assert "Fig 12" in data_path.format_rows(rows)


class TestLoadBalance:
    def test_table3_small_scale(self):
        rows = load_balance.run(
            scale=0.02,
            workloads=(("Labeling task", labeling_task),
                       ("Linux-6.8 code", linux_tree)),
            num_mnodes=8, epsilon=0.05,
        )
        labeling_row = rows[0]
        linux_row = rows[1]
        assert labeling_row["pathwalk_entries"] == 0
        assert labeling_row["override_entries"] == 0
        assert linux_row["max_pct"] <= (100 / 8 + 5) + 1
        assert "Table 3" in load_balance.format_rows(rows)


class TestAblation:
    def test_fig15a_ordering(self):
        rows = ablation.run(num_ops=400, threads=96)
        by_config = {row["config"]: row for row in rows}
        assert (by_config["FalconFS"]["mkdir_per_sec"]
                > by_config["no inv"]["mkdir_per_sec"]
                > by_config["no merge"]["mkdir_per_sec"])
        assert by_config["no inv"]["relative"] < 0.6
        assert by_config["no merge"]["relative"] < 0.15
        assert "15a" in ablation.format_rows(rows)

    def test_fig15a_matches_the_committed_table(self):
        """The paper-scale run is pinned row for row: it is the only run
        that drives the eager-replication 2PC (owner and participants)
        and the unmerged dispatch path."""
        rows = ablation.run(num_ops=1500, threads=256)
        with open(RESULTS / "fig15a_ablation.txt") as handle:
            assert ablation.format_rows(rows) + "\n" == handle.read()


class TestCornerCases:
    def test_fig15b_one_hop_fastest(self):
        rows = corner_cases.run(num_ops=400, threads=48)
        by_scenario = {row["scenario"]: row for row in rows}
        base = by_scenario["one-hop"]["getattr_per_sec"]
        for scenario in ("non-existent", "pathwalk", "stale-table"):
            assert by_scenario[scenario]["getattr_per_sec"] < base
        assert by_scenario["pathwalk"]["forwarded"] > 0
        assert by_scenario["stale-table"]["forwarded"] > 0
        assert by_scenario["non-existent"]["server_lookups"] > 0
        assert "15b" in corner_cases.format_rows(rows)


class TestLabeling:
    def test_fig16_falcon_fastest(self):
        rows = labeling.run(
            systems=("falconfs", "cephfs"), num_tasks=300, threads=96,
        )
        by_system = {row["system"]: row for row in rows}
        assert by_system["falconfs"]["normalized_runtime"] == 1.0
        assert by_system["cephfs"]["normalized_runtime"] > 1.0
        assert "16b" in labeling.format_rows(rows)

    def test_fig16a_distribution(self):
        histogram = labeling.size_histogram(num_samples=5000)
        assert sum(histogram.values()) == pytest.approx(1.0)
        assert histogram["64-256K"] == max(histogram.values())


class TestTraining:
    def test_fig17_shape(self):
        rows = training.run(
            systems=("falconfs", "cephfs"), gpu_counts=(2, 16),
            num_files=800, compute_us_per_batch=3000.0,
            clients_per_run=4,
        )
        falcon = {r["gpus"]: r for r in _by(rows, system="falconfs")}
        ceph = {r["gpus"]: r for r in _by(rows, system="cephfs")}
        # AU decays with GPU count and FalconFS sustains more.
        assert (falcon[16]["accelerator_utilization"]
                <= falcon[2]["accelerator_utilization"] + 1e-9)
        assert (falcon[16]["accelerator_utilization"]
                > ceph[16]["accelerator_utilization"])
        supported = training.supported_gpus(rows, threshold=0.9)
        assert supported["falconfs"] >= supported["cephfs"]
        assert "Fig 17" in training.format_rows(rows)


class TestFormatting:
    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_columns(self):
        text = format_table(
            [{"a": 1, "b": 2.5}], columns=["a", "b"], title="T"
        )
        assert text.startswith("T")
        assert "2.500" in text
