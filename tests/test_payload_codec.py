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
and one filename redirection goes through ``encode`` -> JSON ->
``decode`` and must come back equal, tuples still tuples.
"""

import json

import pytest

from repro.check.runner import run_schedule
from repro.check.schedule import NEMESIS_MIXES, generate_schedule
from repro.core import FalconCluster, FalconConfig
from repro.net import Node
from repro.net.transport import Network
from repro.runtime.wire import decode, encode

#: A seed whose five schedules between them send every protocol family
#: below (the migrate mix's handoffs, the classic mix's rename 2PC,
#: snapshot catch-ups and log shipping, the election mix's appends).
SEED = 1


def _live_round_trip(payload):
    return decode(json.loads(json.dumps(encode(payload))))


@pytest.fixture(scope="module")
def traffic():
    """``(kinds seen, [(kind, payload) that did not survive])``."""
    kinds, broken = set(), []

    def check(kind, payload):
        kinds.add(kind)
        if _live_round_trip(payload) != payload:
            broken.append((kind, payload))

    send, respond = Network.send, Node.respond

    def tapped_send(self, message):
        check(message.kind, message.payload)
        return send(self, message)

    def tapped_respond(self, message, payload=None, size=None):
        check(message.kind, payload)
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
    from repro.core.records import DentryRecord, InodeRecord

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
    assert type(_live_round_trip(records)[0][1]) is tuple
