"""Tests for the coordinator's statistical load balancing (§4.2.2)."""

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.workloads.trees import TreeSpec


def _hot_name_tree(num_dirs=40, hot="hot.dat", uniques_per_dir=3):
    """Many directories each holding one hot-named file + unique files."""
    tree = TreeSpec("hot")
    tree.add_dir("/data")
    serial = 0
    for d in range(num_dirs):
        directory = tree.add_dir("/data/d{:03d}".format(d))
        tree.add_file("{}/{}".format(directory, hot), 0)
        for _ in range(uniques_per_dir):
            tree.add_file(
                "{}/u{:06d}.dat".format(directory, serial), 0
            )
            serial += 1
    return tree


@pytest.fixture
def cluster():
    return FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                      epsilon=0.05))


class TestRebalance:
    def test_hot_filename_triggers_redirection(self, cluster):
        cluster.bulk_load(_hot_name_tree())
        before = cluster.inode_distribution()
        assert max(before) > (1 / 4 + 0.05) * sum(before)
        report = cluster.rebalance()
        assert report["moves"]
        counts = cluster.inode_distribution()
        assert max(counts) <= (1 / 4 + 0.05) * sum(counts) + 1
        assert len(cluster.exception_table) >= 1

    def test_balanced_workload_needs_no_entries(self, cluster):
        tree = TreeSpec("uniq")
        tree.add_dir("/data")
        for i in range(800):
            tree.add_file("/data/u{:06d}.dat".format(i), 0)
        cluster.bulk_load(tree)
        report = cluster.rebalance()
        assert report["moves"] == []
        assert len(cluster.exception_table) == 0

    def test_files_survive_migration(self, cluster):
        tree = _hot_name_tree(num_dirs=24)
        cluster.bulk_load(tree)
        cluster.rebalance()
        fs = cluster.fs()
        for path, _ in tree.files:
            assert fs.exists(path), path

    def test_table_pushed_to_all_mnodes(self, cluster):
        cluster.bulk_load(_hot_name_tree())
        cluster.rebalance()
        version = cluster.exception_table.version
        assert version > 0
        for mnode in cluster.mnodes:
            assert mnode.xt.version == version
            assert mnode.xt.pathwalk == cluster.exception_table.pathwalk
            assert mnode.xt.override == cluster.exception_table.override

    def test_total_inode_count_preserved(self, cluster):
        tree = _hot_name_tree()
        cluster.bulk_load(tree)
        total_before = sum(cluster.inode_distribution())
        cluster.rebalance()
        assert sum(cluster.inode_distribution()) == total_before

    def test_pathwalk_chosen_for_dominant_name(self):
        """A name that is most of one node's load is better spread than
        moved whole (path-walk beats override)."""
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                             epsilon=0.02))
        cluster.bulk_load(_hot_name_tree(num_dirs=120, uniques_per_dir=1))
        cluster.rebalance()
        table = cluster.exception_table
        assert "hot.dat" in table.pathwalk

    def test_override_chosen_for_moderate_name(self):
        """A moderately hot name is simply pinned to the least loaded
        node when that suffices."""
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                             epsilon=0.02))
        tree = TreeSpec("moderate")
        tree.add_dir("/data")
        # Background of unique names, deliberately skewed light/heavy.
        for i in range(600):
            tree.add_file("/data/u{:06d}.dat".format(i), 0)
        for d in range(30):
            directory = tree.add_dir("/data/d{:02d}".format(d))
            tree.add_file("{}/warm.dat".format(directory), 0)
        cluster.bulk_load(tree)
        cluster.rebalance()
        table = cluster.exception_table
        assert len(table) >= 1


class TestConvergence:
    def test_two_hot_names_no_ping_pong(self):
        """Regression: two fair-share-sized hot names must not bounce an
        override entry between nodes; the balancer escalates to
        path-walk redirection and terminates."""
        cluster = FalconCluster(FalconConfig(num_mnodes=8, num_storage=2,
                                             epsilon=0.005))
        tree = TreeSpec("two-hot")
        tree.add_dir("/data")
        serial = 0
        for d in range(120):
            directory = tree.add_dir("/data/d{:03d}".format(d))
            tree.add_file("{}/hot.dat".format(directory), 0)
            tree.add_file("{}/warm.dat".format(directory), 0)
            for _ in range(2):
                tree.add_file(
                    "{}/u{:06d}.dat".format(directory, serial), 0
                )
                serial += 1
        cluster.bulk_load(tree)
        report = cluster.rebalance()
        # Bounded move count (no oscillation) and a genuinely balanced
        # outcome with the hot names spread.
        assert len(report["moves"]) <= 8
        counts = cluster.inode_distribution()
        assert max(counts) / sum(counts) < 0.2
        table = cluster.exception_table
        assert {"hot.dat", "warm.dat"} & (table.pathwalk
                                          | set(table.override))

    def test_rebalance_never_worsens_maximum(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                             epsilon=0.01))
        cluster.bulk_load(_hot_name_tree(num_dirs=80, uniques_per_dir=2))
        before = max(cluster.inode_distribution())
        cluster.rebalance()
        assert max(cluster.inode_distribution()) <= before


class TestShrink:
    def test_shrink_removes_unneeded_entries(self, cluster):
        # Enough hot files to trigger rebalancing, and enough unique
        # files that hash variance stays inside the bound once the hot
        # files are gone.
        tree = _hot_name_tree(num_dirs=150, uniques_per_dir=4)
        cluster.bulk_load(tree)
        cluster.rebalance()
        assert len(cluster.exception_table) >= 1
        fs = cluster.fs()
        # Remove the hot files: the entry is no longer necessary.
        for path, _ in tree.files:
            if path.endswith("hot.dat"):
                fs.unlink(path)
        removed = cluster.shrink_exception_table()
        assert "hot.dat" in removed
        assert len(cluster.exception_table) == 0

    def test_shrink_keeps_needed_entries(self, cluster):
        cluster.bulk_load(_hot_name_tree(num_dirs=60, uniques_per_dir=1))
        cluster.rebalance()
        entries_before = len(cluster.exception_table)
        removed = cluster.shrink_exception_table()
        # The hot name is still hot: shrink must not remove its entry.
        counts = cluster.inode_distribution()
        assert max(counts) <= (1 / 4 + 0.05) * sum(counts) + 1
        assert len(cluster.exception_table) == entries_before - len(removed)


class TestStatsReporting:
    def test_stats_rpc_reports_top_names(self, cluster):
        cluster.bulk_load(_hot_name_tree(num_dirs=30))
        coordinator = cluster.coordinator
        stats = cluster.run_process(coordinator._gather_stats())
        assert len(stats) == 4
        assert sum(s["inode_count"] for s in stats) == \
            sum(cluster.inode_distribution())
        hot_node = max(stats, key=lambda s: s["inode_count"])
        assert hot_node["top_filenames"][0][0] == "hot.dat"

    def test_auto_balance_process(self, cluster):
        cluster.bulk_load(_hot_name_tree())
        cluster.coordinator.start_auto_balance(interval_us=10000.0)
        cluster.run_for(25000.0)
        counts = cluster.inode_distribution()
        assert max(counts) <= (1 / 4 + 0.05) * sum(counts) + 1


class TestSilentMNode:
    def test_rebalance_returns_its_report_with_no_move(self):
        """The stats round runs under the ``all`` rule: with one MNode
        silent it times out at ``rpc_timeout_us``, and ``rebalance``
        ends its pass and returns its report with no move instead of
        raising or parking.  Once the MNode is back it balances."""
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2,
                                             epsilon=0.05,
                                             rpc_timeout_us=400.0))
        cluster.bulk_load(_hot_name_tree())
        coordinator = cluster.coordinator
        cluster.network.partition([coordinator.name],
                                  [cluster.mnodes[1].name])
        start = cluster.env.now
        report = cluster.run_process(coordinator.rebalance())
        assert report == {"moves": [], "counts": []}
        assert 400.0 <= cluster.env.now - start < 500.0
        assert len(cluster.exception_table) == 0
        cluster.network.heal()
        assert cluster.run_process(coordinator.rebalance())["moves"]


class TestMigrateCollect:
    """``migrate_collect`` finds a filename's rows by scanning the inode
    table (no name->parents index): exactly the served ``(pid, name)``
    rows, in parent-id order, and nothing that merely looks alike."""

    def test_collects_exactly_the_served_rows_in_pid_order(self):
        cluster = FalconCluster(FalconConfig(num_mnodes=1, num_storage=1,
                                             num_slots=8))
        # Placed by (pid, name), so the name's rows spread over slots.
        cluster.install_exception_table(pathwalk=["a.dat"])
        fs = cluster.fs()
        # Created in reverse name order, so pid order is not name order.
        for i in range(4, -1, -1):
            fs.mkdir("/p{}".format(i))
            fs.create("/p{}/a.dat".format(i))
        fs.create("/p0/a.dat2")
        fs.create("/p1/b.dat")
        owner = cluster.mnodes[0]
        keys = [key for key, _ in owner.inodes.scan() if key[1] == "a.dat"]
        assert len(keys) == 5
        # Park one row's slot mid-handoff: its row travels with the slot.
        parked = owner._slot_of(keys[2])
        owner.slots[parked] = {"state": "pending"}
        served = [key for key in keys if owner._slot_of(key) != parked]
        assert 0 < len(served) < len(keys)

        def collect():
            reply = yield cluster.coordinator.call(
                owner.name, "migrate_collect", {"name": "a.dat"})
            return reply

        reply = cluster.run_process(collect())
        assert [key for _, key, _ in reply["entries"]] == served
        remaining = {key for key, _ in owner.inodes.scan()}
        assert remaining.isdisjoint(served)
        assert remaining >= set(keys) - set(served)
        assert {name for _, name in remaining} >= {"a.dat2", "b.dat"}
        assert owner.filename_counts["a.dat"] == len(keys) - len(served)
        # Blocked until the install step that would follow.
        assert owner.migrating == {"a.dat"}


class TestRedirectionUnderLoad:
    """A create racing a redirection must land where the new table says
    (§4.2.2), and the redirection must not race a slot handoff."""

    @staticmethod
    def _race(method, offset_us, num_dirs, num_clients, start_us):
        """Create ``/dN/hot.dat`` in fresh directories, the N-th from
        client ``N % num_clients`` at ``start_us(N)``, while
        ``hot.dat`` is redirected at ``offset_us``; every create must be
        acked, exist afterwards and leave the cluster clean."""
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
        fs = cluster.fs(mode="libfs")
        paths = ["/d{}/hot.dat".format(d) for d in range(num_dirs)]
        for path in paths:
            fs.mkdir(path.rsplit("/", 1)[0])
        env = cluster.env
        clients = [cluster.add_client(mode="libfs")
                   for _ in range(num_clients)]
        acked = []

        def create(n, path):
            yield env.timeout(start_us(n))
            yield from clients[n % num_clients].create(path)
            acked.append(path)

        def redirect():
            yield env.timeout(offset_us)
            yield from cluster.coordinator._apply_redirection(
                "hot.dat", method, 3)

        for n, path in enumerate(paths):
            env.process(create(n, path))
        cluster.run_process(redirect())
        cluster.run_for(50000.0)
        assert sorted(acked) == sorted(paths)
        assert [path for path in acked if not fs.exists(path)] == []
        cluster.verify()

    @pytest.mark.parametrize("method", ["override", "pathwalk"])
    def test_every_acked_create_survives(self, method):
        """The batch re-derives the route at lock grant, so a plan
        parked in parent resolution through a whole migration retries
        instead of committing at the old owner, where no collect will
        ever see its row."""
        self._race(method, 300.0, 32, 1, lambda n: 0.0)

    @pytest.mark.parametrize("offset_us", [20.0, 390.0])
    @pytest.mark.parametrize("method", ["override", "pathwalk"])
    def test_a_create_committing_during_the_collect_survives(
            self, method, offset_us):
        """Staggered creates from eight clients: a batch that validated
        its plan before the collect blocked the name still holds the
        row's lock through its WAL commit, so the collect waits it out
        before scanning instead of stranding the row at the old owner."""
        self._race(method, offset_us, 64, 8, lambda n: (n * 7) % 400)

    @pytest.mark.parametrize("method, offset_us", [
        ("override", 0.0), ("override", 145.0),
        ("pathwalk", 0.0), ("pathwalk", 15.0),
    ])
    def test_a_redirection_waits_for_a_slot_handoff(self, method,
                                                    offset_us):
        """The handoff moves the name's hash slot while the redirection
        moves the name: both move the same rows, so they serialize."""
        cluster = FalconCluster(FalconConfig(
            num_mnodes=4, num_storage=2, num_slots=8, rpc_timeout_us=400.0))
        fs = cluster.fs(mode="libfs")
        paths = ["/d{}/hot.dat".format(d) for d in range(32)]
        for path in paths:
            fs.mkdir(path.rsplit("/", 1)[0])
            fs.create(path)
        env = cluster.env
        coordinator = cluster.coordinator
        slot = coordinator.index.hash_name("hot.dat")
        dest = (cluster.shared.slot_map.node_of(slot) + 1) % 4
        handoff = env.process(coordinator.migrate_slot(slot, dest))

        def redirect():
            yield env.timeout(offset_us)
            yield from coordinator._apply_redirection("hot.dat", method, 0)

        cluster.run_process(redirect())
        env.run(until=handoff)
        cluster.run_for(20000.0)
        assert [path for path in paths if not fs.exists(path)] == []
        cluster.verify()


class TestRedirectionTraffic:
    def test_a_redirection_is_two_requests_per_mnode(self, cluster):
        """One ``migrate_collect`` and one ``migrate_install`` per
        MNode, whichever nodes the rows move between."""
        cluster.bulk_load(_hot_name_tree(num_dirs=24))
        counter = cluster.network.metrics.counter("messages")
        before = counter.by_label()
        cluster.run_process(cluster.coordinator._apply_redirection(
            "hot.dat", "pathwalk", 0))
        sent = {kind: count - before.get(kind, 0)
                for kind, count in counter.by_label().items()
                if count != before.get(kind, 0)}
        assert sent == {"migrate_collect": 4, "migrate_install": 4}
