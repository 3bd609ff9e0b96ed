"""Tests for workload generators and load drivers."""

import random

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.vfs.pathwalk import parent_path
from repro.workloads import (
    TABLE3_WORKLOADS,
    measure_latency,
    run_closed_loop,
    training_run,
    uniform_tree,
)
from repro.workloads.datasets import celeba, fsl_homes, linux_tree
from repro.workloads.trees import flat_burst_tree, private_dirs_tree


class TestUniformTree:
    def test_counts(self):
        tree = uniform_tree(levels=3, dir_fanout=4, files_per_leaf=5)
        # 1 root + 4 + 16 + 64 dirs; files on the 64 leaves.
        assert tree.num_dirs == 1 + 4 + 16 + 64
        assert tree.num_files == 64 * 5

    def test_parents_precede_children(self):
        tree = uniform_tree(levels=3, dir_fanout=3, files_per_leaf=1)
        seen = {"/"}
        for dpath in tree.dirs:
            assert parent_path(dpath) in seen
            seen.add(dpath)

    def test_unique_names(self):
        tree = uniform_tree(levels=2, dir_fanout=3, files_per_leaf=4)
        names = [path.rsplit("/", 1)[1] for path, _ in tree.files]
        assert len(names) == len(set(names))

    def test_shared_names(self):
        tree = uniform_tree(levels=2, dir_fanout=3, files_per_leaf=4,
                            unique_names=False)
        names = {path.rsplit("/", 1)[1] for path, _ in tree.files}
        assert len(names) == 4

    def test_level_validation(self):
        with pytest.raises(ValueError):
            uniform_tree(levels=0)

    def test_file_sizes(self):
        tree = uniform_tree(levels=1, dir_fanout=2, files_per_leaf=1,
                            file_size=12345)
        assert all(size == 12345 for _, size in tree.files)


class TestOtherTrees:
    def test_private_dirs(self):
        tree = private_dirs_tree(8, files_per_dir=3)
        assert tree.num_dirs == 9
        assert tree.num_files == 24

    def test_flat_burst(self):
        tree = flat_burst_tree(5, files_per_dir=10)
        assert tree.num_dirs == 6
        assert tree.num_files == 50


class TestDatasets:
    def test_registry_complete(self):
        names = [name for name, _ in TABLE3_WORKLOADS]
        assert names == [
            "Labeling task", "ImageNet", "KITTI", "Cityscapes", "CelebA",
            "SVHN", "CUB-200-2011", "Linux-6.8 code", "FSL homes",
        ]

    def test_dataset_tree_lookup(self):
        tree = dict(TABLE3_WORKLOADS)["KITTI"](0.1)
        assert tree.num_files > 0

    def test_linux_tree_hot_names(self):
        tree = linux_tree(scale=0.2)
        names = [path.rsplit("/", 1)[1] for path, _ in tree.files]
        makefiles = names.count("Makefile")
        kconfigs = names.count("Kconfig")
        assert makefiles > kconfigs > 0
        # Hot-name share roughly matches the paper's 5.55 %.
        assert 0.02 < (makefiles + kconfigs) / len(names) < 0.12

    def test_fsl_homes_zipf_head(self):
        tree = fsl_homes(scale=0.05)
        names = [path.rsplit("/", 1)[1] for path, _ in tree.files]
        from collections import Counter

        top, count = Counter(names).most_common(1)[0]
        assert count > 10
        # Top name is ~1-2 % of all files, like the trace.
        assert count / len(names) < 0.05

    def test_scaling(self):
        small = celeba(scale=0.01)
        smaller = celeba(scale=0.005)
        assert small.num_files > smaller.num_files

    def test_all_datasets_buildable(self):
        for name, builder in TABLE3_WORKLOADS:
            tree = builder(0.01)
            assert tree.num_files > 0, name


class TestDrivers:
    def _cluster(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=2))
        client = cluster.add_client(mode="libfs")
        fs = cluster.fs(client)
        fs.mkdir("/d")
        return cluster, client

    def test_closed_loop_counts_ops(self):
        cluster, client = self._cluster()
        thunks = [
            lambda i=i: client.create("/d/f{:03d}".format(i))
            for i in range(30)
        ]
        result = run_closed_loop(cluster, thunks, num_threads=8)
        assert result.ops == 30 and result.errors == 0
        assert result.ops_per_sec > 0

    def test_closed_loop_counts_errors(self):
        cluster, client = self._cluster()
        thunks = [lambda: client.getattr("/d/ghost") for _ in range(5)]
        result = run_closed_loop(cluster, thunks, num_threads=2)
        assert result.ops == 0 and result.errors == 5

    def test_measure_latency(self):
        cluster, client = self._cluster()
        thunks = [
            lambda i=i: client.create("/d/l{:03d}".format(i))
            for i in range(10)
        ]
        result = measure_latency(cluster, thunks)
        assert len(result.histogram.values) == 10
        assert result.mean_us > 0
        assert result.histogram.percentile(99) >= result.histogram.percentile(50)

    def test_training_run_au_bounds(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=4))
        fs = cluster.fs()
        fs.mkdir("/ds")
        files = []
        for i in range(40):
            path = "/ds/s{:03d}.dat".format(i)
            fs.write(path, size=16 * 1024)
            files.append(path)
        au = training_run(
            cluster, cluster.clients, files, num_gpus=2, batch_size=4,
            compute_us_per_batch=500.0, rng=random.Random(0),
        )
        assert 0.0 < au <= 1.0

    def test_training_au_drops_with_more_gpus(self):
        def run(gpus):
            cluster = FalconCluster(
                FalconConfig(num_mnodes=1, num_storage=1, server_cores=1)
            )
            fs = cluster.fs()
            fs.mkdir("/ds")
            files = []
            for i in range(60):
                path = "/ds/s{:03d}.dat".format(i)
                fs.write(path, size=64 * 1024)
                files.append(path)
            client = cluster.add_client(mode="vfs")
            return training_run(
                cluster, [client], files, num_gpus=gpus, batch_size=4,
                compute_us_per_batch=200.0, rng=random.Random(0),
            )

        assert run(8) < run(1) + 1e-9
