"""Real-runtime smoke: boot ``repro.serve`` processes, drive real ops.

Launches a coordinator plus three MNode processes on loopback TCP, runs
the seeded bench workload through the CLI entry point, scrapes the
Prometheus endpoints, and asserts the serving mode's contract: every op
is either acked or failed (zero lost), no failures on a fresh namespace,
and wall-clock latency within a loose sanity bound.

Locally this runs a few hundred ops (~10 s); CI sets
``FALCON_SMOKE_OPS=1000`` for the full workload.
"""

import http.client
import json
import os
import pathlib
import select
import signal
import socket
import subprocess
import sys
import time

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
OPS = int(os.environ.get("FALCON_SMOKE_OPS", "200"))
MNODES = 3


def _ports_free(base):
    # RPC ports base..base+MNODES plus metrics ports at +1000.
    wanted = [base + i for i in range(MNODES + 1)]
    wanted += [p + 1000 for p in wanted]
    for port in wanted:
        with socket.socket() as probe:
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                return False
    return True


def _pick_base_port():
    rng = int.from_bytes(os.urandom(2), "big")
    for attempt in range(20):
        base = 20000 + (rng + attempt * 137) % 20000
        if _ports_free(base):
            return base
    pytest.skip("no free port range on loopback")


def _wait_port(port, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                return True
        except OSError:
            time.sleep(0.05)
    return False


def _scrape(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        assert "text/plain" in response.getheader("Content-Type", "")
        return response.read().decode("utf-8")
    finally:
        conn.close()


def _serve(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", *argv],
        cwd=str(REPO), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


@pytest.fixture(scope="module")
def cluster():
    base = _pick_base_port()
    up = _serve("up", "--mnodes", str(MNODES), "--base-port", str(base))
    try:
        for i in range(MNODES + 1):
            assert _wait_port(base + i), (
                "server on port {} never came up".format(base + i))
        yield base
    finally:
        up.send_signal(signal.SIGINT)
        try:
            up.wait(timeout=20)
        except subprocess.TimeoutExpired:
            up.kill()
            up.wait(timeout=10)


def _cli(base, *argv):
    """Run one ``repro.serve client`` op; returns (exit code, payload)."""
    proc = _serve("client", "--base-port", str(base),
                  "--mnodes", str(MNODES), *argv)
    out, _ = proc.communicate(timeout=60)
    payload = json.loads(out.strip().splitlines()[-1])
    return proc.returncode, payload


def test_cli_roundtrip(cluster):
    base = cluster

    def cli(*argv):
        return _cli(base, *argv)

    code, res = cli("mkdir", "/smoke")
    assert code == 0 and res["ok"], res
    code, res = cli("create", "/smoke/a")
    assert code == 0 and res["ok"], res
    code, res = cli("stat", "/smoke/a")
    assert code == 0 and res["attrs"]["is_dir"] is False, res
    code, res = cli("rename", "/smoke/a", "/smoke/b")
    assert code == 0 and res["ok"], res
    code, res = cli("ls", "/smoke")
    assert code == 0 and [e[0] for e in res["entries"]] == ["b"], res
    # ENOENT surfaces as a non-zero exit and an error payload.
    code, res = cli("stat", "/smoke/a")
    assert code == 1 and res["ok"] is False and res["code"] == 2, res


def test_bench_zero_lost_acks(cluster):
    base = cluster
    proc = _serve("bench", "--base-port", str(base),
                  "--mnodes", str(MNODES),
                  "--ops", str(OPS), "--seed", "3", "--dirs", "8")
    out, _ = proc.communicate(timeout=600)
    summary = json.loads(out.strip().splitlines()[-1])
    assert proc.returncode == 0, summary
    assert summary["ops"] == OPS
    assert summary["lost"] == 0, summary
    assert summary["failed"] == 0, summary
    assert summary["acked"] == OPS, summary
    # Loose sanity bound: local loopback metadata ops are fast; anything
    # near the 15 s op deadline means retry storms or lost replies.
    assert summary["latency_us"]["p50"] < 1_000_000, summary
    assert summary["latency_us"]["max"] < 14_000_000, summary
    # Every op kind of the plan gets its own latency row.
    from repro.serve.main import build_workload

    kinds = {op for op, _, _ in build_workload(3, OPS, 8)}
    by_op = summary["latency_us_by_op"]
    assert set(by_op) == kinds, by_op
    for row in by_op.values():
        assert 0.0 < row["p50"] <= row["p99"] < 14_000_000, by_op


def test_prometheus_scrape(cluster):
    base = cluster
    coordinator = _scrape(base + 1000)
    assert "falconfs_" in coordinator
    mnode = _scrape(base + 1 + 1000)
    # The bench ran creates and stats: the MNode must have counted RPCs.
    assert "falconfs_" in mnode
    samples = [line for line in mnode.splitlines()
               if line and not line.startswith("#")]
    assert samples, mnode[:400]
    for line in samples:
        name = line.split("{")[0].split(" ")[0]
        assert name.startswith("falconfs_"), line


def _counters(base, metric):
    """``{(node, label): value}`` of one counter over every MNode."""
    values = {}
    for i in range(MNODES):
        for line in _scrape(base + 1 + i + 1000).splitlines():
            if line.startswith(metric + "{"):
                tags, value = line[len(metric) + 1:].rsplit("} ", 1)
                labels = dict(tag.split("=", 1) for tag in tags.split(","))
                values[(labels["node"].strip('"'),
                        labels.get("label", "").strip('"'))] = float(value)
    return values


def test_ls_is_one_round_over_every_mnode(cluster):
    """A directory whose files live on all three MNodes lists whole and
    sorted, and the listing costs one request to each MNode: no MNode
    sends a listing RPC to another."""
    from repro.core.indexing import ExceptionTable, HybridIndex

    base = cluster
    code, res = _cli(base, "mkdir", "/spread")
    assert code == 0 and res["ok"], res
    index = HybridIndex(MNODES, ExceptionTable())
    names = {}
    for i in range(64):
        names.setdefault(index.locate(res["ino"], "f{}".format(i)),
                         "f{}".format(i))
    assert len(names) == MNODES
    for name in names.values():
        code, res = _cli(base, "create", "/spread/" + name)
        assert code == 0 and res["ok"], res
    before = _counters(base, "falconfs_received_total")
    code, res = _cli(base, "ls", "/spread")
    after = _counters(base, "falconfs_received_total")
    assert code == 0 and res["entries"] == [
        [name, False] for name in sorted(names.values())], res
    mnodes = ["mnode-{}".format(i) for i in range(MNODES)]
    assert [after.get((node, "readdir"), 0) - before.get((node, "readdir"), 0)
            for node in mnodes] == [1] * MNODES
    sent = _counters(base, "falconfs_sent_total")
    assert sent, "no MNode's sent counter was scraped"
    listing = {key: value for key, value in sent.items()
               if any(word in key[1] for word in ("readdir", "scan", "list"))}
    assert not listing, listing


def test_each_status_line_goes_out_in_one_write(monkeypatch):
    """``up`` and its nodes share one stdout pipe: a status line written
    in two pieces (text, then newline) can have another process's line
    land inside it, and the watcher never sees a whole ``UP`` line.
    Each line is one write, which a pipe keeps whole up to PIPE_BUF."""
    from repro.serve.main import emit_status

    writes = []
    real_write = os.write

    def recording_write(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    lines = ["READY mnode-0 rpc=20001 metrics=21001",
             "UP " + json.dumps({"mnode-{}".format(i): {"rpc": 20001 + i,
                                                      "metrics": 21001 + i}
                                 for i in range(MNODES)})]
    read_fd, write_fd = os.pipe()
    monkeypatch.setattr(os, "write", recording_write)
    with os.fdopen(write_fd, "w") as stream:
        for line in lines:
            emit_status(line, stream)
    monkeypatch.undo()
    with os.fdopen(read_fd, "rb") as pipe:
        received = pipe.read()
    assert writes == [(line + "\n").encode() for line in lines]
    assert all(len(data) <= select.PIPE_BUF for data in writes)
    assert received == b"".join(writes)
