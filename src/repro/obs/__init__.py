"""Observability: request-scoped contexts, tracing spans and retry policy.

The substrate every layer of the simulated cluster threads through:

* :class:`OpContext` — one per client-visible operation; carries the
  trace identity, the absolute deadline and the retry policy across
  every hop, from the POSIX entry point down to the WAL;
* :class:`Span` / :class:`Tracer` / :class:`JsonlSink` — distributed
  tracing with zero cost when disabled (:data:`NULL_TRACER` allocates
  no spans);
* :class:`RetryPolicy`, :func:`retry`, :func:`deadline_call`,
  :func:`call_all`, :func:`expire`, :func:`redeliver` — the shared
  retry/backoff, deadline-enforcement, fan-out and re-delivery helpers
  that replace per-call-site retry loops;
* :class:`CollectorTimer` — the garbage collector's seconds and
  collections, timed from outside (no profiler row shows them).
"""

from repro.obs.collector import CollectorTimer
from repro.obs.context import NULL_CONTEXT, OpContext
from repro.obs.retry import (
    RETRYABLE,
    RetryPolicy,
    call_all,
    deadline_call,
    expire,
    redeliver,
    retry,
)
from repro.obs.tracer import (
    CAT_CPU,
    CAT_DISK,
    CAT_LOCK,
    CAT_NET,
    CAT_OP,
    CAT_PHASE,
    CAT_QUEUE,
    CAT_RETRY,
    CAT_WAL,
    COMPONENT_CATEGORIES,
    JsonlSink,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "CAT_CPU",
    "CAT_DISK",
    "CAT_LOCK",
    "CAT_NET",
    "CAT_OP",
    "CAT_PHASE",
    "CAT_QUEUE",
    "CAT_RETRY",
    "CAT_WAL",
    "COMPONENT_CATEGORIES",
    "CollectorTimer",
    "JsonlSink",
    "NULL_CONTEXT",
    "NULL_TRACER",
    "NullTracer",
    "OpContext",
    "RETRYABLE",
    "RetryPolicy",
    "Span",
    "Tracer",
    "call_all",
    "deadline_call",
    "expire",
    "redeliver",
    "retry",
]
