"""Tests for cluster assembly, the synchronous facade and bulk loading."""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.experiments.common import build_cluster
from repro.net.rpc import RpcFailure
from repro.workloads.trees import uniform_tree


class TestAssembly:
    def test_default_topology(self):
        cluster = FalconCluster()
        assert len(cluster.mnodes) == 4
        assert len(cluster.storage) == 4
        assert cluster.coordinator is not None

    def test_custom_topology(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=7, num_storage=3))
        assert len(cluster.mnodes) == 7
        assert len(cluster.storage) == 3

    def test_server_cores_propagate(self):
        cluster = FalconCluster(FalconConfig(server_cores=2))
        assert cluster.mnodes[0].cpu.capacity == 2

    def test_client_naming(self):
        cluster = FalconCluster()
        a = cluster.add_client()
        b = cluster.add_client()
        assert a.name != b.name
        named = cluster.add_client(name="special")
        assert named.name == "special"

    def test_fs_accepts_existing_client(self):
        cluster = FalconCluster()
        client = cluster.add_client(mode="libfs")
        fs = cluster.fs(client)
        assert fs.client is client

    def test_run_for_advances_clock(self):
        cluster = FalconCluster()
        cluster.run_for(500.0)
        assert cluster.env.now == 500.0

    def test_build_cluster_helper(self):
        for system in ("falconfs", "cephfs", "lustre", "juicefs"):
            cluster = build_cluster(system, num_mnodes=2, num_storage=2)
            assert cluster.config.num_mnodes == 2
        with pytest.raises(KeyError):
            build_cluster("hdfs")


class TestBulkLoad:
    def test_loaded_tree_visible_via_protocol(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
        tree = uniform_tree(levels=2, dir_fanout=3, files_per_leaf=2)
        cluster.bulk_load(tree)
        fs = cluster.fs()
        assert fs.read(tree.file_paths()[0]) == 64 * 1024
        assert fs.is_dir(tree.dirs[0])
        assert len(fs.readdir(tree.dirs[-1])) == 2

    def test_replicated_dentries_default(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
        tree = uniform_tree(levels=1, dir_fanout=3, files_per_leaf=0)
        cluster.bulk_load(tree)
        for mnode in cluster.mnodes:
            assert mnode.dentries.get((1, "data")) is not None

    def test_counts_match_distribution(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
        tree = uniform_tree(levels=2, dir_fanout=3, files_per_leaf=4)
        cluster.bulk_load(tree)
        assert sum(cluster.inode_distribution()) == \
            tree.num_dirs + tree.num_files

    def test_bulk_load_honours_exception_table(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
        cluster.install_exception_table(override={"f00000000.dat": 3})
        tree = uniform_tree(levels=1, dir_fanout=1, files_per_leaf=1)
        cluster.bulk_load(tree)
        assert cluster.mnodes[3].filename_counts.get("f00000000.dat") == 1

    def test_ops_after_bulk_load(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=2, num_storage=2))
        tree = uniform_tree(levels=2, dir_fanout=2, files_per_leaf=1)
        cluster.bulk_load(tree)
        fs = cluster.fs()
        leaf_dir = tree.dirs[-1]
        fs.create(leaf_dir + "/added.dat")
        fs.unlink(tree.file_paths()[-1])
        names = fs.listdir(leaf_dir)
        assert "added.dat" in names


class TestFacadeErrors:
    def test_failure_surfaces_synchronously(self):
        fs = FalconCluster().fs()
        with pytest.raises(RpcFailure):
            fs.getattr("/nope")

    def test_simulation_continues_after_failure(self):
        fs = FalconCluster().fs()
        with pytest.raises(RpcFailure):
            fs.getattr("/nope")
        fs.mkdir("/ok")
        assert fs.is_dir("/ok")
