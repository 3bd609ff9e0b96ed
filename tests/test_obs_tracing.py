"""Tests for the observability layer: tracer, contexts, breakdowns."""

import pytest

from repro.analysis.breakdown import aggregate, breakdown_rows, op_breakdowns
from repro.core import FalconCluster, FalconConfig
from repro.obs import (
    CAT_CPU,
    CAT_NET,
    CAT_OP,
    CAT_PHASE,
    COMPONENT_CATEGORIES,
    JsonlSink,
    NULL_CONTEXT,
    NULL_TRACER,
    OpContext,
    Tracer,
)
from repro.obs.tracer import CAT_BATCH, load_spans
from repro.sim import Environment


class TestTracer:
    def test_start_finish_records_span(self):
        tracer = Tracer()
        span = tracer.start(1, "op", CAT_OP, "client", 0.0)
        assert len(tracer.spans) == 0  # unfinished spans are not listed
        span.finish(5.0)
        assert len(tracer.spans) == 1
        assert span.duration == 5.0

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start(1, "op", CAT_OP, "client", 0.0)
        span.finish(5.0)
        span.finish(9.0)
        assert len(tracer.spans) == 1
        assert span.end == 5.0

    def test_record_interval(self):
        tracer = Tracer()
        span = tracer.record(7, "net.hop", CAT_NET, "srv", 1.0, 3.0)
        assert span.duration == 2.0
        assert tracer.spans == [span]

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert len(NULL_TRACER.spans) == 0

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink=sink)
            tracer.start(1, "mkdir", CAT_OP, "client", 0.0).finish(4.0)
            tracer.record(1, "net.hop", CAT_NET, "mnode-0", 1.0, 2.0,
                          attrs={"bytes": 256})
        loaded = load_spans(path)
        assert len(loaded) == 2
        assert loaded[0]["name"] == "mkdir"
        assert loaded[1]["attrs"]["bytes"] == 256


class TestOpContext:
    def test_span_nesting_sets_parent(self):
        env = Environment()
        tracer = Tracer()
        ctx = OpContext(env, "mkdir", origin="client", tracer=tracer)
        root = ctx.begin(node="client")
        with ctx.span("walk", CAT_PHASE) as walk:
            with ctx.span("rpc", CAT_PHASE) as rpc:
                assert rpc.parent_id == walk.span_id
            assert ctx.current is walk
        assert ctx.current is root
        ctx.finish()
        assert [s.name for s in tracer.spans] == ["rpc", "walk", "mkdir"]

    def test_deadline_bookkeeping(self):
        env = Environment()
        ctx = OpContext(env, "op", deadline=10.0)
        assert not ctx.expired()
        env.run(until=11.0)
        assert ctx.expired()
        assert not OpContext(env, "op").expired()

    def test_disabled_tracing_allocates_no_spans(self):
        env = Environment()
        ctx = OpContext(env, "op")  # NULL_TRACER by default
        assert ctx.begin() is None
        scope_a = ctx.span("a", CAT_PHASE)
        scope_b = ctx.span("b", CAT_PHASE)
        assert scope_a is scope_b  # the shared no-op scope, no allocation

    def test_null_context_is_inert(self):
        assert not NULL_CONTEXT.expired()
        with NULL_CONTEXT.span("x", CAT_PHASE) as span:
            assert span is None


def _mixed_workload(fs):
    fs.mkdir("/data")
    fs.write("/data/a.bin", size=64 * 1024)
    fs.read("/data/a.bin")
    fs.getattr("/data/a.bin")
    fs.chmod("/data/a.bin", 0o600)
    fs.unlink("/data/a.bin")
    fs.rmdir("/data")


class TestEndToEnd:
    def test_root_children_cover_latency_within_1pct(self):
        tracer = Tracer()
        cluster = FalconCluster(tracer=tracer)
        _mixed_workload(cluster.fs())
        roots = [
            s for s in tracer.spans
            if s.category == CAT_OP and s.parent_id is None
        ]
        assert len(roots) >= 7
        for root in roots:
            children = [
                s for s in tracer.spans if s.parent_id == root.span_id
            ]
            covered = sum(c.duration for c in children)
            assert covered == pytest.approx(root.duration, rel=0.01), \
                root.name

    def test_tracing_off_timing_identical(self):
        timings = {}
        for label, tracer in (("off", None), ("on", Tracer())):
            cluster = FalconCluster(tracer=tracer)
            _mixed_workload(cluster.fs())
            timings[label] = cluster.env.now
        assert timings["on"] == timings["off"]

    def test_spans_cross_every_layer(self):
        tracer = Tracer()
        cluster = FalconCluster(tracer=tracer)
        _mixed_workload(cluster.fs())
        categories = {s.category for s in tracer.spans}
        for category in (CAT_OP, CAT_PHASE, CAT_NET, CAT_CPU, "wal"):
            assert category in categories
        nodes = {s.node for s in tracer.spans}
        assert any(n and n.startswith("mnode") for n in nodes)
        assert any(n and n.startswith("client") for n in nodes)

    def test_baseline_cluster_traced(self):
        from repro.baselines import CephCluster

        tracer = Tracer()
        cluster = CephCluster(tracer=tracer)
        fs = cluster.fs()
        fs.mkdir("/d")
        fs.write("/d/f.bin", size=16 * 1024)
        fs.read("/d/f.bin")
        roots = [
            s for s in tracer.spans
            if s.category == CAT_OP and s.parent_id is None
        ]
        assert {r.name for r in roots} == {"mkdir", "write", "read"}
        for root in roots:
            children = [
                s for s in tracer.spans if s.parent_id == root.span_id
            ]
            covered = sum(c.duration for c in children)
            assert covered == pytest.approx(root.duration, rel=0.01)

    def test_merged_batches_link_member_contexts(self):
        tracer = Tracer()
        config = FalconConfig(merging=True)
        cluster = FalconCluster(config=config, tracer=tracer)
        clients = [cluster.add_client(mode="libfs") for _ in range(8)]
        procs = [
            cluster.env.process(
                c.create("/f{:02d}.dat".format(i))
            )
            for i, c in enumerate(clients)
        ]
        cluster.env.run(until=cluster.env.all_of(procs))
        batches = [
            s for s in tracer.spans
            if s.category == CAT_BATCH and s.parent_id is None
        ]
        assert batches
        member_ids = {
            m for b in batches for m in b.attrs.get("members", [])
        }
        root_ids = {
            s.op_id for s in tracer.spans
            if s.category == CAT_OP and s.parent_id is None
        }
        assert member_ids and member_ids <= root_ids


    def test_a_rename_answered_at_its_decision_is_not_charged_its_commit(
            self):
        """A file rename two MNodes own is answered at its decision, on
        the live twin's configuration.  Its breakdown row is the latency
        the client saw, every span of the op ends by the answer, and the
        commit round behind the answer is a trace of its own (root
        ``rename.commit``) that no op row counts."""
        from repro.serve.main import build_parser, serve_config

        tracer = Tracer()
        cluster = FalconCluster(serve_config(build_parser().parse_args(
            ["bench", "--mnodes", "3"])), tracer=tracer)
        fs = cluster.fs()
        pid = fs.mkdir("/d")
        owner = cluster.coordinator._owner
        dst = next(name for name in ("b{}".format(i) for i in range(200))
                   if owner(pid, name) != owner(pid, "a"))
        fs.create("/d/a")
        tracer.spans.clear()
        client = cluster.add_client()
        start = cluster.env.now
        cluster.run_process(client.rename("/d/a", "/d/" + dst))
        latency = cluster.env.now - start
        cluster.run_for(10_000.0)
        (row,) = op_breakdowns(tracer.spans)
        assert row["op"] == "rename"
        assert row["duration_us"] == pytest.approx(latency)
        assert row["coverage"] == pytest.approx(1.0)
        (root,) = [s for s in tracer.spans
                   if s.op_id == row["op_id"] and s.parent_id is None]
        assert max(s.end for s in tracer.spans
                   if s.op_id == row["op_id"]) == root.end
        (commit,) = [s for s in tracer.spans if s.name == "rename.commit"]
        assert commit.parent_id is None and commit.category == CAT_PHASE
        assert commit.op_id != row["op_id"]
        assert commit.end > root.end
        hops = [s for s in tracer.spans
                if s.op_id == commit.op_id and s.category == CAT_NET]
        assert {s.node for s in hops if s.name == "net.hop"} == {
            owner(pid, "a"), owner(pid, dst)}


class TestBreakdown:
    def test_op_breakdowns_components_and_other(self):
        tracer = Tracer()
        cluster = FalconCluster(tracer=tracer)
        _mixed_workload(cluster.fs())
        breakdowns = op_breakdowns(tracer.spans)
        assert breakdowns
        for bd in breakdowns:
            assert bd["coverage"] == pytest.approx(1.0, rel=0.01)
            assert set(bd["components"]) <= set(COMPONENT_CATEGORIES)
            assert bd["other_us"] >= 0.0
        writes = [b for b in breakdowns if b["op"] == "write"]
        assert writes and writes[0]["components"]["disk"] > 0

    def test_a_write_batch_span_ends_with_its_last_answer(self):
        """A write batch's worker leaves at the WAL append, but the
        ``batch:create`` span ends in the tail, after the flush and the
        answers, so every member is still charged its share of the
        flush."""
        tracer = Tracer()
        cluster = FalconCluster(FalconConfig(num_mnodes=1), tracer=tracer)
        client = cluster.add_client(mode="libfs")
        env = cluster.env
        procs = [env.process(client.create("/f{}.dat".format(i)))
                 for i in range(3)]
        env.run(until=env.all_of(procs))
        (batch,) = [s for s in tracer.spans if s.name == "batch:create"]
        (wal,) = [s for s in tracer.spans
                  if s.op_id == batch.op_id and s.category == "wal"]
        assert len(batch.attrs["members"]) == 3
        assert "error" not in batch.attrs
        assert wal.end <= batch.end
        for row in op_breakdowns(tracer.spans):
            assert row["components"]["wal"] == pytest.approx(
                wal.duration / 3)

    def test_batch_amortization_divides_by_members(self):
        spans = [
            {"span": 1, "op": 10, "parent": None, "name": "create",
             "cat": "op", "node": "c", "start": 0.0, "end": 100.0},
            {"span": 2, "op": 11, "parent": None, "name": "create",
             "cat": "op", "node": "c", "start": 0.0, "end": 100.0},
            {"span": 3, "op": 99, "parent": None, "name": "batch:create",
             "cat": "batch", "node": "m", "start": 10.0, "end": 90.0,
             "attrs": {"members": [10, 11]}},
            {"span": 4, "op": 99, "parent": 3, "name": "wal.commit",
             "cat": "wal", "node": "m", "start": 50.0, "end": 90.0},
        ]
        breakdowns = {b["op_id"]: b for b in op_breakdowns(spans)}
        assert breakdowns[10]["components"]["wal"] == pytest.approx(20.0)
        assert breakdowns[11]["components"]["wal"] == pytest.approx(20.0)
        assert 99 not in breakdowns  # batch envelopes are not ops

    def test_aggregate_rows(self):
        tracer = Tracer()
        cluster = FalconCluster(tracer=tracer)
        fs = cluster.fs()
        fs.mkdir("/a")
        fs.mkdir("/b")
        rows = aggregate(op_breakdowns(tracer.spans))
        assert [r["op"] for r in rows] == ["mkdir"]
        assert rows[0]["count"] == 2
        assert rows[0]["net_us"] > 0
        assert rows == breakdown_rows(tracer.spans)

    def test_breakdown_works_from_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink=sink)
            cluster = FalconCluster(tracer=tracer)
            cluster.fs().mkdir("/a")
        live = breakdown_rows(tracer.spans)
        loaded = breakdown_rows(load_spans(path))
        assert loaded == live
