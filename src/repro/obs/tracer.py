"""Spans, tracers and the JSONL trace sink.

A :class:`Span` is one timed interval attributed to an operation: a
network hop, a queue wait, a lock wait, a WAL flush, a disk IO, a CPU
slice, or a structural envelope (the operation root, an RPC attempt, a
merged batch).  Spans carry the simulated start/end time in microseconds
and arbitrary key/value attributes.

The :class:`Tracer` collects finished spans in memory and optionally
streams them to a :class:`JsonlSink` (one JSON object per line — the
schema is specified in ``docs/protocol.md``).  :data:`NULL_TRACER` is
the disabled tracer: every record call returns ``None`` without
allocating a span, so tracing is zero-cost when off.
"""

import json
from itertools import count

#: Span categories.  ``COMPONENT_CATEGORIES`` are leaf costs that the
#: breakdown analyzer sums per operation; the remaining categories are
#: structural envelopes (excluded from component sums to avoid double
#: counting).
CAT_OP = "op"          # root span of one client-visible operation
CAT_PHASE = "phase"    # envelope: rpc attempt, walk, sub-op, data phase
CAT_BATCH = "batch"    # root span of one merged server batch
CAT_NET = "net"        # wire time of one hop (request or response)
CAT_QUEUE = "queue"    # waiting in a request queue / for a CPU core
CAT_LOCK = "lock"      # waiting for a dentry/inode lock grant
CAT_WAL = "wal"        # waiting for a WAL group-commit flush
CAT_DISK = "disk"      # SSD service time on a storage node
CAT_CPU = "cpu"        # busy CPU time on some node
CAT_RETRY = "retry"    # client-side backoff between attempts

COMPONENT_CATEGORIES = (
    CAT_NET, CAT_QUEUE, CAT_LOCK, CAT_WAL, CAT_DISK, CAT_CPU, CAT_RETRY,
)


class Span:
    """One timed, attributed interval belonging to an operation."""

    __slots__ = ("tracer", "span_id", "op_id", "parent_id", "name",
                 "category", "node", "start", "end", "attrs")

    def __init__(self, tracer, span_id, op_id, parent_id, name, category,
                 node, start, attrs=None):
        self.tracer = tracer
        self.span_id = span_id
        self.op_id = op_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end = None
        self.attrs = attrs

    @property
    def duration(self):
        """Span length in microseconds (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def finish(self, now, **attrs):
        """Close the span at simulated time ``now`` and record it."""
        if self.end is not None:
            return self
        if attrs:
            self.attrs = {**(self.attrs or {}), **attrs}
        self.end = now
        self.tracer._finished(self)
        return self

    def to_dict(self):
        """The span's wire form (see docs/protocol.md)."""
        record = {
            "span": self.span_id,
            "op": self.op_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "node": self.node,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def __repr__(self):
        return "<Span #{} {} {} [{} - {}]>".format(
            self.span_id, self.category, self.name, self.start, self.end
        )


class Tracer:
    """Collects spans; the enabled counterpart of :data:`NULL_TRACER`."""

    enabled = True

    def __init__(self, sink=None):
        self.sink = sink
        #: Finished spans, in finish order.
        self.spans = []
        self._span_ids = count(1)

    def start(self, op_id, name, category, node, now, parent_id=None,
              attrs=None):
        """Open a span; close it with :meth:`Span.finish`."""
        return Span(self, next(self._span_ids), op_id, parent_id, name,
                    category, node, now, attrs)

    def record(self, op_id, name, category, node, start, end,
               parent_id=None, attrs=None):
        """Record an already-elapsed interval as one finished span."""
        span = self.start(op_id, name, category, node, start,
                          parent_id=parent_id, attrs=attrs)
        return span.finish(end)

    def _finished(self, span):
        self.spans.append(span)
        if self.sink is not None:
            self.sink.write(span.to_dict())


class NullTracer:
    """Disabled tracer: no span is ever allocated."""

    enabled = False
    spans = ()


NULL_TRACER = NullTracer()


class JsonlSink:
    """Streams span records to a file, one JSON object per line."""

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
            self._owned = False
        else:
            self._file = open(path_or_file, "w")
            self._owned = True

    def write(self, record):
        self._file.write(json.dumps(record, sort_keys=True))
        self._file.write("\n")

    def close(self):
        if self._owned:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_spans(path_or_file):
    """Read span dicts back from a JSONL trace file."""
    if hasattr(path_or_file, "read"):
        return [json.loads(line) for line in path_or_file if line.strip()]
    with open(path_or_file) as handle:
        return [json.loads(line) for line in handle if line.strip()]
