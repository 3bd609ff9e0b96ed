"""Tests for the CephFS / Lustre / JuiceFS baseline models."""

import pytest

from repro.baselines import CephCluster, JuiceCluster, LustreCluster
from repro.baselines.common import placement_index
from repro.core.shared import FalconConfig
from repro.experiments.common import prefill_dcache
from repro.net.rpc import RpcError, RpcFailure

ALL_CLUSTERS = (CephCluster, LustreCluster, JuiceCluster)


def _config():
    return FalconConfig(num_mnodes=4, num_storage=4)


@pytest.mark.parametrize("cluster_cls", ALL_CLUSTERS)
class TestSemantics:
    """The same POSIX battery must hold on every baseline."""

    def test_mkdir_create_read(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.makedirs("/a/b")
        fs.write("/a/b/f.bin", size=96 * 1024)
        assert fs.read("/a/b/f.bin") == 96 * 1024
        assert fs.getattr("/a/b/f.bin")["size"] == 96 * 1024

    def test_eexist_and_enoent(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        with pytest.raises(RpcFailure) as err:
            fs.mkdir("/d")
        assert err.value.code == RpcError.EEXIST
        with pytest.raises(RpcFailure) as err:
            fs.getattr("/d/ghost")
        assert err.value.code == RpcError.ENOENT

    def test_unlink_and_rmdir(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(RpcFailure) as err:
            fs.rmdir("/d")
        assert err.value.code == RpcError.ENOTEMPTY
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rename_within_and_across_dirs(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.mkdir("/src")
        fs.mkdir("/dst")
        fs.write("/src/f", size=256)
        fs.rename("/src/f", "/src/g")
        fs.rename("/src/g", "/dst/h")
        assert fs.getattr("/dst/h")["size"] == 256
        assert not fs.exists("/src/f") and not fs.exists("/src/g")

    def test_rename_conflict(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(RpcFailure) as err:
            fs.rename("/a", "/b")
        assert err.value.code == RpcError.EEXIST

    def test_cross_server_rename_conflict_keeps_the_source(self,
                                                          cluster_cls):
        """The destination's server refuses the install; the source's
        server answers that refusal and keeps the source row."""
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        by_owner = {}
        for d in range(16):
            path = "/d{:02d}".format(d)
            fs.mkdir(path)
            owner = cluster.clients[0].placement(fs.getattr(path)["ino"])
            by_owner.setdefault(owner, path)
        src_dir, dst_dir = sorted(by_owner.values())[:2]
        fs.write(src_dir + "/f", size=256)
        fs.create(dst_dir + "/g")
        with pytest.raises(RpcFailure) as err:
            fs.rename(src_dir + "/f", dst_dir + "/g")
        assert err.value.code == RpcError.EEXIST
        assert sum(server.metrics.counter("received").get("rename_install")
                   for server in cluster.servers) == 1
        assert fs.getattr(src_dir + "/f")["size"] == 256
        assert fs.getattr(dst_dir + "/g")["size"] == 0

    def test_server_counts_each_op_under_its_own_kind(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.create("/f")
        fs.getattr("/f")

        def served(kind):
            return sum(server.metrics.counter("ops").get(kind)
                       for server in cluster.servers)

        assert served("getattr") == 1
        assert served("lookup") == 0

    def test_readdir(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.mkdir("/d/sub")
        fs.create("/d/f")
        assert fs.readdir("/d") == [("f", False), ("sub", True)]

    def test_chmod(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.create("/f")
        fs.chmod("/f", 0o600)
        assert fs.getattr("/f")["mode"] == 0o600

    def test_deep_path(self, cluster_cls):
        cluster = cluster_cls(_config())
        fs = cluster.fs()
        fs.makedirs("/a/b/c/d/e")
        fs.write("/a/b/c/d/e/f", size=64)
        assert fs.read("/a/b/c/d/e/f") == 64


class TestPlacement:
    def test_directory_locality(self):
        """All entries of one directory land on one server — the §2.4
        congestion property."""
        cluster = CephCluster(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        for i in range(20):
            fs.create("/d/f{:02d}".format(i))
        dir_ino = fs.getattr("/d")["ino"]
        holders = [
            server for server in cluster.servers
            if server.inodes.has_prefix((dir_ino,))
        ]
        assert len(holders) == 1

    def test_different_dirs_spread(self):
        cluster = CephCluster(_config())
        fs = cluster.fs()
        for d in range(16):
            fs.mkdir("/d{:02d}".format(d))
            fs.create("/d{:02d}/f".format(d))
        populated = sum(
            1 for server in cluster.servers if len(server.inodes) > 0
        )
        assert populated > 1

    def test_juicefs_leader_concentration(self):
        """JuiceFS leads ranges on only ~sqrt(n) nodes."""
        config = FalconConfig(num_mnodes=16, num_storage=4)
        leaders = {
            placement_index(pid, 16, leader_fraction=0.5)
            for pid in range(1000)
        }
        assert len(leaders) == 4  # sqrt(16)
        full = {
            placement_index(pid, 16, leader_fraction=1.0)
            for pid in range(1000)
        }
        assert len(full) == 16


class TestClientBehaviour:
    def test_lookup_amplification_on_cold_cache(self):
        cluster = LustreCluster(_config())
        fs = cluster.fs()
        fs.makedirs("/a/b/c")
        fs.create("/a/b/c/f")
        cold = cluster.fs()
        client = cluster.clients[1]
        cold.getattr("/a/b/c/f")
        requests = client.metrics.counter("requests").by_label()
        assert requests.get("lookup", 0) == 3
        assert requests.get("getattr", 0) == 1

    def test_warm_cache_single_request(self):
        cluster = LustreCluster(_config())
        fs = cluster.fs()
        fs.makedirs("/a/b")
        fs.create("/a/b/f1")
        fs.create("/a/b/f2")
        client = cluster.clients[0]
        before = client.metrics.counter("requests").by_label().copy()
        fs.getattr("/a/b/f2")
        after = client.metrics.counter("requests").by_label()
        assert after.get("lookup", 0) == before.get("lookup", 0)

    def test_ceph_read_sends_lookup_and_close(self):
        cluster = CephCluster(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.write("/d/f", size=4096)
        client = cluster.clients[0]
        before_lookup = client.metrics.counter("requests").get("lookup")
        before_close = client.metrics.counter("requests").get("close")
        fs.read("/d/f")
        assert client.metrics.counter("requests").get("lookup") == \
            before_lookup + 1
        assert client.metrics.counter("requests").get("close") == \
            before_close + 1

    def test_lustre_read_sends_open_and_close(self):
        cluster = LustreCluster(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.write("/d/f", size=4096)
        client = cluster.clients[0]
        before_open = client.metrics.counter("requests").get("open")
        fs.read("/d/f")
        assert client.metrics.counter("requests").get("open") == \
            before_open + 1

    def test_juicefs_txn_rounds_on_mutations(self):
        cluster = JuiceCluster(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        for i in range(8):
            fs.create("/d/f{}".format(i))
        rounds = sum(
            server.metrics.counter("received").get("txn_round")
            for server in cluster.servers
        )
        assert rounds > 0

    def test_ceph_journals_to_osds(self):
        cluster = CephCluster(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        journal_writes = sum(
            node.metrics.counter("blocks").get("write")
            for node in cluster.storage
        )
        assert journal_writes >= 2  # mkdir + create journal records

    def test_lustre_journals_locally(self):
        cluster = LustreCluster(_config())
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        assert sum(s.wal.flush_count for s in cluster.servers) > 0
        journal_writes = sum(
            node.metrics.counter("blocks").get("write")
            for node in cluster.storage
        )
        assert journal_writes == 0

    def test_prefill_cache_avoids_lookups(self):
        from repro.workloads.trees import private_dirs_tree

        cluster = LustreCluster(_config())
        tree = private_dirs_tree(8, files_per_dir=2)
        path_ino = cluster.bulk_load(tree)
        client = cluster.add_client()
        prefill_dcache(client, tree, path_ino)
        fs = cluster.fs(client)
        fs.getattr(tree.file_paths()[0])
        assert client.metrics.counter("requests").get("lookup") == 0
