"""Length-prefixed JSON-RPC wire format for the real serving mode.

The simulator passes Python objects between nodes by reference; the
multi-process serving mode (:mod:`repro.serve`) must put the same
payloads on real TCP sockets, and this module is the only serializer
that does.  Protocol code never converts a payload for the wire: rows
travel as the tables store them (see :mod:`repro.core.records`).  This
module defines:

* a **tagged-JSON codec** (:func:`encode` / :func:`decode`) covering the
  protocol's payload vocabulary beyond plain JSON — tuples (table keys),
  non-string-keyed dicts, :class:`~repro.core.records.DentryRecord`
  and :class:`~repro.core.records.InodeRecord`;
* **framing**: each frame is a 4-byte big-endian length followed by that
  many bytes of UTF-8 JSON (:func:`pack_frame`, :func:`open_frame`; the
  connection in :mod:`repro.runtime.net` cuts frames off the stream).
  The parser undoes the tags itself: :func:`_untag` is its
  ``object_hook``, so a body is decoded in one pass inside the C
  parser, and :func:`decode` applies the same hook to a document
  parsed without it;
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
import json.scanner
import struct

from repro.core.records import DentryRecord, InodeRecord

_TAG = "__w"
#: The length prefix in front of every frame body.
FRAME_HEADER = struct.Struct(">I")

#: Frames above this size are refused — nothing in the metadata protocol
#: comes close; a larger frame means a corrupt or hostile peer.
MAX_FRAME = 64 * 1024 * 1024


class WireError(Exception):
    """Malformed frame or an unencodable payload object."""


def _encode_list(obj):
    # A container whose members all encode to themselves is its own
    # encoding: only what holds a tuple or a row is copied.
    out = obj
    for index, item in enumerate(obj):
        if type(item) in _PLAIN:
            continue
        encoded = encode(item)
        if encoded is not item:
            if out is obj:
                out = list(obj)
            out[index] = encoded
    return out


def _encode_tuple(obj):
    return {_TAG: "t", "v": [item if type(item) in _PLAIN else encode(item)
                             for item in obj]}


def _encode_dict(obj):
    out = obj
    for key, value in obj.items():
        if type(key) is not str or key == _TAG:
            return {_TAG: "d", "v": [[encode(key), encode(value)]
                                     for key, value in obj.items()]}
        if type(value) in _PLAIN:
            continue
        encoded = encode(value)
        if encoded is not value:
            if out is obj:
                out = dict(obj)
            out[key] = encoded
    return out


def _encode_dentry(obj):
    return {_TAG: "dr", "v": [obj.ino, obj.mode, obj.uid, obj.gid,
                              obj.state]}


def _encode_inode(obj):
    return {_TAG: "ir", "v": [obj.ino, obj.is_dir, obj.mode, obj.uid,
                              obj.gid, obj.size, obj.mtime, obj.nlink]}


#: JSON carries these as they are.
_PLAIN = frozenset((str, int, float, bool, type(None)))

#: Exact type -> encoder.  A subclass (a named tuple, an ``IntEnum``
#: code) finds its nearest listed base through its MRO.
_ENCODERS = {
    list: _encode_list,
    tuple: _encode_tuple,
    dict: _encode_dict,
    DentryRecord: _encode_dentry,
    InodeRecord: _encode_inode,
}


def encode(obj):
    """Convert ``obj`` into a JSON-representable structure."""
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    encoder = _ENCODERS.get(kind)
    if encoder is None:
        for base in kind.__mro__[1:]:
            if base in _PLAIN:
                return obj
            encoder = _ENCODERS.get(base)
            if encoder is not None:
                break
        else:
            raise WireError("unencodable object: {!r}".format(obj))
    return encoder(obj)


def _row(cls, arity):
    def untag(value):
        if type(value) is not list or len(value) != arity:
            raise WireError("{} row needs {} fields: {!r}".format(
                cls.__name__, arity, value))
        return cls(*value)
    return untag


#: Tag -> constructor from the tagged object's already-decoded ``"v"``.
_UNTAG = {
    "t": tuple,
    "d": dict,
    "dr": _row(DentryRecord, 5),
    "ir": _row(InodeRecord, 8),
}


def _untag(obj):
    """Inverse of :func:`encode` for one JSON object whose members are
    already decoded: the ``object_hook`` the frame parser runs."""
    tag = obj.get(_TAG)
    if tag is None:
        return obj
    try:
        untag, value = _UNTAG[tag], obj["v"]
    except (KeyError, TypeError):
        raise WireError("unknown wire tag or no value: {!r}".format(
            obj)) from None
    return untag(value)


def decode(obj):
    """Inverse of :func:`encode`, for a document ``json.loads`` already
    parsed without the hook: the same :func:`_untag`, bottom-up."""
    kind = type(obj)
    if kind is list:
        return [decode(item) for item in obj]
    if kind is dict:
        return _untag({key: decode(value) for key, value in obj.items()})
    return obj


# -- framing -------------------------------------------------------------


def pack_frame(doc):
    """Serialize a JSON document into one length-prefixed frame."""
    body = _dumps(doc).encode("utf-8")
    return FRAME_HEADER.pack(len(body)) + body


def open_frame(body):
    """Parse one frame body (the bytes after its length prefix) into a
    request or reply envelope, its payload already decoded.

    Raises :class:`WireError` for a body no well-behaved peer sends —
    not UTF-8 JSON, not an envelope, an undecodable payload — so the
    reader can hang up instead of dying on it.
    """
    try:
        text = str(body, "utf-8")
        doc, end = _scan(text, 0)
        if end != len(text):
            raise ValueError("data after the document")
        return _open_envelope(doc)
    except StopIteration:
        raise WireError("malformed frame: no JSON document") from None
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise WireError("malformed frame: {!r}".format(exc)) from None


#: ``json.dumps(doc, separators=(",", ":"))`` built once, with no
#: circular-reference memo: :func:`encode` has walked the document
#: already (and would have recursed forever on a cycle first).  Same
#: bytes.
_dumps = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
#: The parser's own scanner with :func:`_untag` as its object hook:
#: ``json.loads`` minus the per-call decoder and whitespace skipping
#: (a frame is one compact document).
_scan = json.scanner.make_scanner(json.JSONDecoder(object_hook=_untag))

#: Fields every envelope of a type must carry (see the encoders below).
_ENVELOPE_FIELDS = {
    "req": ("id", "from", "to", "kind", "payload"),
    "rep": ("id", "ok"),
}


def _open_envelope(doc):
    """Check ``doc`` is a request or reply envelope.  A wrong shape
    raises :class:`WireError` — directly, or as the ``KeyError`` /
    ``TypeError`` the caller folds into one."""
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
    elif not doc["ok"] and "code" not in doc:
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
