"""Every payload the simulator passes between nodes survives the live
serving mode's codec unchanged.

The simulator hands payloads over by reference; :mod:`repro.serve`
puts the very same payloads on TCP through :mod:`repro.runtime.wire`,
the one serializer.  Rows travel as the tables store them (tuple keys,
:class:`~repro.core.records.InodeRecord` and
:class:`~repro.core.records.DentryRecord` objects), so a payload shape
the codec cannot carry — a row type it does not tag, a list where a
tuple key was sent — would only show up in a live run.  Here every
request and reply of one seed of each nemesis mix, one eager-mkdir 2PC
and one filename redirection is framed the way :class:`~repro.runtime.
net.AioNetwork` frames it (``encode_request`` / ``encode_reply`` ->
``pack_frame``), opened the way its connections open a frame
(``open_frame``, the tags undone inside the JSON parser), and must come
back equal, tuples still tuples.  ``decode`` over a document parsed
without the hook — the ledger's codec micro — must agree.
"""

import json

import pytest

from repro.check.runner import run_schedule
from repro.check.schedule import NEMESIS_MIXES, generate_schedule
from repro.core import FalconCluster, FalconConfig
from repro.core.records import DentryRecord, InodeRecord
from repro.net import Node
from repro.net.message import Message
from repro.net.transport import Network
from repro.runtime.wire import (FRAME_HEADER, WireError, decode, encode,
                                encode_reply, encode_request, open_frame,
                                pack_frame)

#: A seed whose five schedules between them send every protocol family
#: below (the migrate mix's handoffs, the classic mix's rename 2PC,
#: snapshot catch-ups and log shipping, the election mix's appends).
SEED = 1


def _opened(frame):
    return open_frame(memoryview(frame)[FRAME_HEADER.size:])


def _live_round_trip(payload):
    """``payload`` as a reply's value after the network's frame path."""
    return _opened(pack_frame(encode_reply(1, payload)))["value"]


def _sent_round_trip(message):
    """``message``'s payload after the network's request frame path."""
    return _opened(pack_frame(encode_request(1, message, 1000.0)))["payload"]


def _decoded(payload):
    return decode(json.loads(json.dumps(encode(payload))))


@pytest.fixture(scope="module")
def traffic():
    """``(kinds seen, [(kind, payload) that did not survive])``."""
    kinds, broken = set(), []

    def check(kind, payload, framed):
        kinds.add(kind)
        if framed != payload or _decoded(payload) != payload:
            broken.append((kind, payload))

    send, respond = Network.send, Node.respond

    def tapped_send(self, message):
        check(message.kind, message.payload, _sent_round_trip(message))
        return send(self, message)

    def tapped_respond(self, message, payload=None, size=None):
        check(message.kind, payload, _live_round_trip(payload))
        return respond(self, message, payload, size)

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(Network, "send", tapped_send)
        patcher.setattr(Node, "respond", tapped_respond)
        for mix in NEMESIS_MIXES:
            run_schedule(generate_schedule(SEED, nemesis_mix=mix))
        eager = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1,
                                           eager_replication=True))
        eager.fs().mkdir("/eager")
        cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=1))
        fs = cluster.fs()
        for d in range(4):
            fs.mkdir("/d{}".format(d))
            fs.create("/d{}/hot.dat".format(d))
        cluster.run_process(cluster.coordinator._apply_redirection(
            "hot.dat", "pathwalk", 0))
        assert fs.exists("/d3/hot.dat")
    return kinds, broken


def test_every_payload_survives_the_live_codec(traffic):
    _, broken = traffic
    assert broken == []


@pytest.mark.parametrize("family", [
    "slot_", "migrate_", "rename_", "replica_", "snapshot", "wal_ship",
    "append_entries",
])
def test_the_run_sends_every_row_carrying_family(traffic, family):
    kinds, _ = traffic
    assert any(kind.startswith(family) for kind in kinds), sorted(kinds)


def test_rows_keep_their_type_and_tuple_keys():
    """The two shapes rows travel in, as the codec returns them."""
    records = [("inode", (1, "f"), InodeRecord(ino=7, size=3)),
               ("dentry", (1, "d"), DentryRecord(ino=8, state="invalid")),
               ("meta", ("rename", 2, "rn-1"), {"voted": []}),
               ("inode", (1, "gone"), None)]
    image = {"inode": ([(1, "f")], [InodeRecord(ino=7)]),
             "meta": ([], [])}
    for payload in (records, image):
        back = _live_round_trip(payload)
        assert back == payload
        assert type(back) is type(payload)
        assert _decoded(payload) == payload
    assert type(_live_round_trip(records)[0][1]) is tuple
    message = Message("mnode-0", "mnode-1", "replica_push", records)
    assert _sent_round_trip(message) == records


HOSTILE_PAYLOADS = {
    "dentry-row-short": '{"__w": "dr", "v": [8, 493, 0, 0]}',
    "dentry-row-long": '{"__w": "dr", "v": [8, 493, 0, 0, "valid", 1]}',
    "inode-row-short": '{"__w": "ir", "v": [7]}',
    "inode-row-long": '{"__w": "ir", "v": [7, false, 420, 0, 0, 3, 0.0, 1, 9]}',
    "row-not-a-list": '{"__w": "ir", "v": {"ino": 7}}',
    "unknown-tag": '{"__w": "zz", "v": 1}',
    "tag-without-value": '{"__w": "t"}',
    "nested-unknown-tag": '[1, {"k": {"__w": "qq", "v": []}}]',
}


@pytest.mark.parametrize("name", sorted(HOSTILE_PAYLOADS))
def test_a_payload_no_encoder_writes_is_refused(name):
    """Both decoders refuse what ``encode`` never writes — a row of the
    wrong arity, a tag they do not know — with :class:`WireError`, the
    error a connection hangs up on, never a row built from defaults."""
    doc = json.loads(HOSTILE_PAYLOADS[name])
    with pytest.raises(WireError):
        _opened(pack_frame({"t": "req", "id": 7, "from": "x",
                            "to": "mnode-0", "kind": "probe",
                            "payload": doc}))
    with pytest.raises(WireError):
        decode(doc)


def test_a_readdir_reply_is_plain_json(monkeypatch):
    """A listing's entries are ``[name, is_dir]`` arrays, not tuples:
    each MNode's reply frame carries no codec tag, and the three shares
    open to the listing the directory holds."""
    cluster = FalconCluster(FalconConfig(num_mnodes=3, num_storage=1))
    fs = cluster.fs()
    fs.mkdir("/d")
    fs.mkdir("/d/sub")
    for i in range(6):
        fs.create("/d/f{}".format(i))
    replies = []
    respond = Node.respond

    def tapped_respond(self, message, payload=None, size=None):
        if message.kind == "readdir":
            replies.append(payload)
        return respond(self, message, payload, size)

    monkeypatch.setattr(Node, "respond", tapped_respond)
    listing = fs.readdir("/d")
    assert len(replies) == 3
    entries = []
    for reply in replies:
        frame = pack_frame(encode_reply(1, reply))
        assert b'"__w"' not in frame
        entries += _opened(frame)["value"]["data"]["entries"]
    assert sorted(tuple(entry) for entry in entries) == listing == sorted(
        [("f{}".format(i), False) for i in range(6)] + [("sub", True)])
