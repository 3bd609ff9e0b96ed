"""Unit tests for the write-ahead log and transactional tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.costs import CostModel
from repro.sim import Environment
from repro.storage import Table, Transaction, WriteAheadLog


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def wal(env, costs):
    return WriteAheadLog(env, costs)


class TestWriteAheadLog:
    def test_single_commit_duration(self, env, costs, wal):
        def committer():
            yield wal.commit(1000)
            return env.now

        done = env.run(until=env.process(committer()))
        assert done == pytest.approx(
            costs.wal_fsync_us + 1000 * costs.wal_us_per_byte
        )
        assert wal.flush_count == 1
        assert wal.bytes_written == 1000

    def test_group_commit_coalesces_concurrent(self, env, wal):
        def committer():
            yield wal.commit(100)

        for _ in range(16):
            env.process(committer())
        env.run()
        # All 16 arrive before the first flush finishes: at most 2 flushes.
        assert wal.flush_count <= 2
        assert wal.records_written == 16
        assert wal.records_per_flush >= 8

    def test_sequential_commits_not_coalesced(self, env, costs, wal):
        def committer():
            yield wal.commit(100)
            yield wal.commit(100)

        env.run(until=env.process(committer()))
        assert wal.flush_count == 2

    def test_records_per_flush_empty(self, wal):
        assert wal.records_per_flush == 0.0

    def test_late_commit_joins_next_flush(self, env, costs, wal):
        durations = {}

        def first():
            yield wal.commit(100)
            durations["first"] = env.now

        def second():
            yield env.timeout(costs.wal_fsync_us / 2)
            start = env.now
            yield wal.commit(100)
            durations["second"] = env.now - start

        env.process(first())
        env.process(second())
        env.run()
        # The second commit waits for the in-flight flush, then its own.
        assert durations["second"] > costs.wal_fsync_us


class TestTornTail:
    """Power failure at an arbitrary instant: replay recovers exactly
    the checksummed durable prefix — never a suffix, never a gap."""

    def _run_and_cut(self, commits, cut_us):
        """Drive ``commits`` (delay, nbytes) pairs, power-fail at
        ``cut_us``; returns (wal, acked LSN list)."""
        env = Environment()
        wal = WriteAheadLog(env, CostModel())
        acked = []

        def committer(delay, nbytes):
            yield env.timeout(delay)
            lsn = wal.next_lsn
            yield wal.commit(nbytes, payload=[("t", lsn, nbytes)])
            acked.append(lsn)

        for delay, nbytes in commits:
            env.process(committer(delay, nbytes))

        def cutter():
            yield env.timeout(cut_us)
            wal.power_fail()

        env.process(cutter())
        env.run()
        return wal, acked

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=40.0,
                          allow_nan=False),
                st.integers(min_value=1, max_value=4096),
            ),
            min_size=1, max_size=30,
        ),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    )
    def test_replay_is_exactly_the_durable_prefix(self, commits, cut_us):
        wal, acked = self._run_and_cut(commits, cut_us)
        payloads, torn = wal.replay()
        replayed = [lsn for lsn, _, _ in payloads]
        # Exactly the fsynced prefix: a contiguous run from LSN 1 up to
        # the fsync horizon, nothing past it.
        assert replayed == list(range(1, wal.durable_lsn + 1))
        # Every acknowledged commit is in the replayed prefix, with its
        # logical payload intact (acked => durable, no zombie acks).
        by_lsn = {lsn: payload for lsn, _, payload in payloads}
        for lsn in acked:
            assert lsn <= wal.durable_lsn
            assert by_lsn[lsn][0][1] == lsn
        # The torn count accounts for every record that reached the
        # device but failed verification.
        on_device = sum(len(s.records) for s in wal.segments)
        assert torn == on_device - len(replayed)
        # Nothing vanished without a trace: every appended commit is
        # replayed, torn, or dropped before reaching the device.
        assert (len(replayed) + torn + wal.lost_unwritten
                == wal.appended_txns)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=40.0,
                          allow_nan=False),
                st.integers(min_value=1, max_value=4096),
            ),
            min_size=1, max_size=30,
        ),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    )
    def test_replay_is_idempotent_and_tear_is_sticky(self, commits,
                                                     cut_us):
        wal, _ = self._run_and_cut(commits, cut_us)
        first = wal.replay()
        assert wal.replay() == first
        # A torn record never verifies again later (the tear is on the
        # medium, not transient state).
        for segment in wal.segments:
            for record in segment.records:
                assert record.intact == (record.lsn <= wal.durable_lsn)

    def test_cut_mid_flush_tears_the_whole_batch(self):
        env = Environment()
        costs = CostModel()
        wal = WriteAheadLog(env, costs)
        acked = []

        def committer(i):
            done = wal.commit(100, payload=[("t", i, i)])
            done.callbacks.append(lambda _e, i=i: acked.append(i))

        for i in range(4):
            committer(i)

        def cutter():
            yield env.timeout(costs.wal_fsync_us / 2)
            wal.power_fail()

        env.process(cutter())
        env.run()
        assert acked == []  # a dead machine never acks durability
        payloads, torn = wal.replay()
        assert payloads == []
        assert torn == 4
        assert wal.durable_lsn == 0


class TestTable:
    def test_put_get_delete(self):
        table = Table("t")
        table.put((1, "a"), "v")
        assert table.get((1, "a")) == "v"
        assert (1, "a") in table
        assert table.delete((1, "a"))
        assert table.get((1, "a")) is None

    def test_scan_prefix(self):
        table = Table("t")
        for pid in (1, 2):
            for name in ("x", "y"):
                table.put((pid, name), pid)
        assert [k for k, _ in table.scan_prefix((1,))] == [(1, "x"), (1, "y")]

    def test_has_prefix(self):
        table = Table("t")
        assert not table.has_prefix((5,))
        table.put((5, "child"), None)
        assert table.has_prefix((5,))

    def test_scan_bounds(self):
        table = Table("t")
        for i in range(10):
            table.put((i,), i)
        assert [k for k, _ in table.scan(lo=(3,), hi=(6,))] == [
            (3,), (4,), (5,)
        ]


class TestTransaction:
    def test_read_your_writes(self, env, costs, wal):
        table = Table("t")
        txn = Transaction(env, wal, costs)
        txn.put(table, "k", 1)
        assert txn.get(table, "k") == 1
        assert table.get("k") is None  # not applied yet

    def test_read_through_to_table(self, env, costs, wal):
        table = Table("t")
        table.put("k", "base")
        txn = Transaction(env, wal, costs)
        assert txn.get(table, "k") == "base"

    def test_delete_shadows_table(self, env, costs, wal):
        table = Table("t")
        table.put("k", "base")
        txn = Transaction(env, wal, costs)
        txn.delete(table, "k")
        assert txn.get(table, "k") is None
        assert table.get("k") == "base"

    def test_commit_applies_and_logs(self, env, costs, wal):
        table = Table("t")
        table.put("old", 1)
        txn = Transaction(env, wal, costs)
        txn.put(table, "new", 2)
        txn.delete(table, "old")

        def run():
            yield from txn.commit()

        env.run(until=env.process(run()))
        assert txn.committed
        assert table.get("new") == 2
        assert table.get("old") is None
        assert wal.records_written == 2

    def test_closed_transaction_rejects_use(self, env, costs, wal):
        table = Table("t")
        txn = Transaction(env, wal, costs)

        def run():
            yield from txn.commit()

        env.run(until=env.process(run()))
        with pytest.raises(RuntimeError):
            txn.put(table, "k", 1)
        with pytest.raises(RuntimeError):
            txn.delete(table, "k")

    def test_empty_commit_writes_no_log(self, env, costs, wal):
        txn = Transaction(env, wal, costs)

        def run():
            yield from txn.commit()

        env.run(until=env.process(run()))
        assert wal.flush_count == 0

    def test_write_count_deduplicates_keys(self, env, costs, wal):
        table = Table("t")
        txn = Transaction(env, wal, costs)
        txn.put(table, "k", 1)
        txn.put(table, "k", 2)
        assert txn.staged(table) == [("k", True)]

    def test_multiple_tables_one_transaction(self, env, costs, wal):
        a, b = Table("a"), Table("b")
        txn = Transaction(env, wal, costs)
        txn.put(a, "k", "a-value")
        txn.put(b, "k", "b-value")

        def run():
            yield from txn.commit()

        env.run(until=env.process(run()))
        assert a.get("k") == "a-value"
        assert b.get("k") == "b-value"
