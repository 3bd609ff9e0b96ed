"""The traced pass: where host time and simulated time go, by layer.

Two views of one repetition, both taken from outside the program:

* ``layer_shares`` buckets a cProfile of the timed region by the
  ``repro.<package>`` each function lives in — a layer's **host self
  time**.  Built-ins and standard-library functions have no layer of their
  own, so their time is charged to the layer that called them (cProfile's
  callers table splits it per caller); what no layer called is ``other``.
* ``component_us_per_op`` feeds the spans an opt-in ``Tracer`` recorded to
  ``analysis.breakdown`` — **simulated microseconds per operation** by
  component, i.e. what the model charges, next to what the
  implementation costs.
"""

import json
import os
import pstats

from repro.analysis.breakdown import breakdown_rows

from metrics import LAYERS

_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename):
    """The layer a source file belongs to, or None outside the program."""
    if filename.startswith(_LEDGER_DIR):
        return "workloads"  # the load generator itself
    _, found, tail = filename.partition(_REPRO)
    if not found:
        return None
    package = tail.split(os.sep, 1)[0]
    if package == "experiments":
        return "workloads"  # failover.measure drives load
    return package if package in LAYERS else "other"


def layer_shares(profile):
    """layer -> share of profiled self time (the shares sum to 1)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, self_s, _ct, callers) in (
            pstats.Stats(profile).stats.items()):
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] += self_s
            continue
        charged = 0.0
        for caller, (_n, _c, caller_self_s, _t) in callers.items():
            totals[layer_of(caller[0]) or "other"] += caller_self_s
            charged += caller_self_s
        totals["other"] += self_s - charged
    whole = sum(totals.values())
    return {layer: seconds / whole for layer, seconds in totals.items()}


#: breakdown column -> the per-layer metric that reports it.
COMPONENT_METRICS = {
    "net_us": "net.sim_us_per_op",
    "wal_us": "storage.wal_sim_us_per_op",
    "lock_us": "storage.lock_sim_us_per_op",
    "queue_us": "core.queue_sim_us_per_op",
    "cpu_us": "core.cpu_sim_us_per_op",
    "disk_us": "core.disk_sim_us_per_op",
    "retry_us": "core.retry_sim_us_per_op",
    "other_us": "core.other_sim_us_per_op",
}


def component_us_per_op(spans):
    """metric name -> mean simulated us per root operation."""
    rows = breakdown_rows(spans)
    ops = sum(row["count"] for row in rows)
    return {
        metric: sum(row[column] * row["count"] for row in rows) / ops
        for column, metric in COMPONENT_METRICS.items()
    }


def write_spans(path, spans):
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()) + "\n")
