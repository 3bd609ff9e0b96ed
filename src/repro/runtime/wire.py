"""Length-prefixed JSON-RPC wire format for the real serving mode.

The simulator passes Python objects between nodes by reference; the
multi-process serving mode (:mod:`repro.serve`) must put the same
payloads on real TCP sockets, and this module is the only serializer
that does.  Protocol code never converts a payload for the wire: rows
travel as the tables store them (see :mod:`repro.core.records`).  This
module defines:

* a **tagged-JSON codec** (:func:`encode` / :func:`decode`) covering the
  protocol's payload vocabulary beyond plain JSON — tuples (table keys),
  sets, non-string-keyed dicts, :class:`~repro.core.records.DentryRecord`
  and :class:`~repro.core.records.InodeRecord`;
* **framing**: each frame is a 4-byte big-endian length followed by that
  many bytes of UTF-8 JSON (:func:`pack_frame`, :func:`read_frame`);
* **message envelopes** mapping the in-memory RPC surface onto frames —
  requests carry the operation context with its deadline as *remaining*
  microseconds (re-anchored on the receiver's clock; absolute deadlines
  do not survive a clock boundary), replies carry either a payload or an
  :class:`~repro.net.rpc.RpcFailure` as ``{code, detail}``.

Tag collisions are impossible for protocol payloads: the tag key
``"__w"`` never appears in them, and a literal dict containing it would
be escaped through the ``"d"`` (pair-list) form anyway.
"""

import json
import struct

from repro.core.records import DentryRecord, InodeRecord

_TAG = "__w"
_LEN = struct.Struct(">I")

#: Frames above this size are refused — nothing in the metadata protocol
#: comes close; a larger frame means a corrupt or hostile peer.
MAX_FRAME = 64 * 1024 * 1024


class WireError(Exception):
    """Malformed frame or an unencodable payload object."""


def encode(obj):
    """Recursively convert ``obj`` into a JSON-representable structure."""
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, (list, tuple)):
        items = [encode(item) for item in obj]
        if isinstance(obj, tuple):
            return {_TAG: "t", "v": items}
        return items
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and _TAG not in obj:
            return {k: encode(v) for k, v in obj.items()}
        return {_TAG: "d", "v": [[encode(k), encode(v)]
                                 for k, v in obj.items()]}
    if isinstance(obj, (set, frozenset)):
        return {_TAG: "s", "v": sorted(encode(item) for item in obj)}
    if isinstance(obj, DentryRecord):
        return {_TAG: "dr", "v": [obj.ino, obj.mode, obj.uid, obj.gid,
                                  obj.state]}
    if isinstance(obj, InodeRecord):
        return {_TAG: "ir", "v": [obj.ino, obj.is_dir, obj.mode, obj.uid,
                                  obj.gid, obj.size, obj.mtime, obj.nlink]}
    raise WireError("unencodable object: {!r}".format(obj))


def decode(obj):
    """Inverse of :func:`encode`."""
    if isinstance(obj, list):
        return [decode(item) for item in obj]
    if not isinstance(obj, dict):
        return obj
    tag = obj.get(_TAG)
    if tag is None:
        return {k: decode(v) for k, v in obj.items()}
    value = obj["v"]
    if tag == "t":
        return tuple(decode(item) for item in value)
    if tag == "d":
        return {decode(k): decode(v) for k, v in value}
    if tag == "s":
        return set(decode(item) for item in value)
    if tag == "dr":
        return DentryRecord(*value)
    if tag == "ir":
        return InodeRecord(*value)
    raise WireError("unknown wire tag: {!r}".format(tag))


# -- framing -------------------------------------------------------------


def pack_frame(doc):
    """Serialize a JSON document into one length-prefixed frame."""
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


async def read_frame(reader):
    """Read one frame from an ``asyncio.StreamReader``.

    Returns the request or reply envelope with its body already
    :func:`decode`-d, or ``None`` on EOF (clean, or torn mid-frame).
    Raises :class:`WireError` for a frame no well-behaved peer sends —
    oversized, not UTF-8 JSON, not an envelope, an undecodable body —
    so the caller can hang up instead of dying on it.
    """
    try:
        # IncompleteReadError (EOF mid-frame) subclasses EOFError; a torn
        # connection surfaces the same way as a clean close — the peer
        # retries or gives up at the RPC layer, not here.
        header = await reader.readexactly(_LEN.size)
        (length,) = _LEN.unpack(header)
        if length > MAX_FRAME:
            raise WireError("oversized frame: {} bytes".format(length))
        body = await reader.readexactly(length)
    except (EOFError, ConnectionError, OSError):
        return None
    try:
        return _open_envelope(json.loads(body.decode("utf-8")))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise WireError("malformed frame: {!r}".format(exc)) from None


#: Fields every envelope of a type must carry (see the encoders below).
_ENVELOPE_FIELDS = {
    "req": ("id", "from", "to", "kind", "payload"),
    "rep": ("id", "ok"),
}


def _open_envelope(doc):
    """Check ``doc`` is a request or reply envelope and decode its body
    in place.  A wrong shape raises :class:`WireError` — directly, or
    as the ``KeyError`` / ``TypeError`` the caller folds into one."""
    kind = doc["t"]
    fields = _ENVELOPE_FIELDS.get(kind)
    if fields is None:
        raise WireError("unknown envelope type: {!r}".format(kind))
    missing = [field for field in fields if field not in doc]
    if missing:
        raise WireError("{!r} envelope lacks {}".format(kind, missing))
    if kind == "req":
        if doc.get("ctx") is not None and "op" not in doc["ctx"]:
            raise WireError("request context lacks its op")
        doc["payload"] = decode(doc["payload"])
    elif doc["ok"]:
        doc["value"] = decode(doc["value"])
    elif "code" not in doc:
        raise WireError("error reply lacks its code")
    return doc


# -- envelopes -----------------------------------------------------------


def encode_request(rid, message, remaining_us=None):
    """Envelope for a request (or one-way) message.

    ``rid`` is ``None`` for one-way sends (no reply expected).  The
    context rides along minimally: operation name, origin, attempt, and
    the deadline as remaining microseconds on the sender's clock.
    """
    ctx = message.ctx
    ctx_doc = None
    if ctx is not None and ctx.op is not None:
        ctx_doc = {"op": ctx.op, "origin": ctx.origin,
                   "attempt": ctx.attempt}
        if remaining_us is not None:
            ctx_doc["remaining_us"] = remaining_us
    return {
        "t": "req",
        "id": rid,
        "from": message.sender,
        "to": message.recipient,
        "kind": message.kind,
        "payload": encode(message.payload),
        "size": message.size,
        "ctx": ctx_doc,
    }


def encode_reply(rid, payload):
    return {"t": "rep", "id": rid, "ok": True, "value": encode(payload)}


def encode_reply_error(rid, failure):
    detail = failure.detail
    if detail is not None and not isinstance(detail, (str, int, float)):
        detail = repr(detail)
    return {"t": "rep", "id": rid, "ok": False,
            "code": failure.code, "detail": detail}
