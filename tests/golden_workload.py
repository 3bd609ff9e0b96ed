"""Deterministic reference workload for the kernel golden-trace test.

The workload drives a small FalconFS cluster through a fixed mix of
metadata operations with tracing enabled, while recording every event
the kernel schedules.  Its digest pins down three things at once:

* **event ordering** — a hash over every ``(time, priority, seq, kind)``
  entry pushed onto the event heap, in push order;
* **simulated results** — the JSONL trace (every span, with exact
  simulated timestamps) and the throughput/metrics snapshot;
* **determinism** — the same seed must reproduce the digest bit-for-bit.

``tests/golden/sim_trace.json`` was generated from the kernel *before*
the fast-path optimization (PR 4) and is committed; the test asserts the
optimized kernel still produces the identical digest, proving the
optimization changed no simulated outcome.  Regenerate (only when a PR
deliberately changes simulated behaviour) with::

    PYTHONPATH=src python -m tests.golden_workload

Regenerated once since, by PR 13 ("only simulated time goes through the
heap"): hop arrivals became timer callbacks, immediate grants and reply
deliveries stopped taking a zero-delay heap entry, so ``event_pushes``
fell from 2035 to 864 and ``event_order_sha256`` changed with it.
``trace_sha256`` changed too, and only in bookkeeping: three replies
landing in the same instant used to be recorded back to back before any
caller ran, and now each caller runs inside its own arrival, so span
*ids* and JSONL line order interleave differently.  ``span_times_sha256``
— every span's name, category, node, start, end and attributes, ids
dropped, order-insensitive — was added at the parent commit first and
is unchanged, as are ``final_now``, ``messages``, ``responses`` and
``trace_spans``: nothing that was simulated moved.
"""

import hashlib
import io
import json
from itertools import count

from repro.experiments.common import build_cluster
from repro.obs import JsonlSink, Tracer
from repro.sim import engine as sim_engine
from repro.workloads.driver import run_closed_loop
from repro.workloads.trees import private_dirs_tree

GOLDEN_PATH = "tests/golden/sim_trace.json"

#: Workload shape — small enough for CI, concurrent enough to exercise
#: timeouts, CPU queueing, locks, WAL group commit and RPC fan-out.
NUM_DIRS = 8
NUM_OPS = 120
THREADS = 16
SEED = 7


def _reset_global_ids():
    """Rewind the process-global id allocators.

    Message ids and operation ids are global monotone counters that leak
    into span records; rewinding them makes the digest a function of the
    seed alone, independent of what else ran in this process.
    """
    from repro.net import message as message_mod
    from repro.obs import context as context_mod

    message_mod._message_ids = count(1)
    context_mod._OP_IDS = count(1)


def run_golden(seed=SEED):
    """Run the reference workload; return its digest dict."""
    _reset_global_ids()
    pushes = hashlib.sha256()
    real_heappush = sim_engine.heappush
    push_count = 0

    def recording_heappush(queue, entry):
        nonlocal push_count
        push_count += 1
        time, priority, seq, event = entry
        pushes.update(
            "{!r}|{}|{}|{}\n".format(
                time, priority, seq, type(event).__name__
            ).encode()
        )
        real_heappush(queue, entry)

    sink_buffer = io.StringIO()
    tracer = Tracer(sink=JsonlSink(sink_buffer))
    cluster = build_cluster("falconfs", num_mnodes=4, num_storage=4,
                            seed=seed, tracer=tracer)
    client = cluster.add_client(mode="libfs")

    tree = private_dirs_tree(NUM_DIRS, files_per_dir=4)
    path_ino = cluster.bulk_load(tree)

    thunks = []
    files = tree.file_paths()
    for i in range(NUM_OPS):
        directory = tree.dirs[1 + i % NUM_DIRS]
        kind = i % 4
        if kind == 0:
            path = "{}/new{:05d}.dat".format(directory, i)
            thunks.append(lambda p=path: client.create(p))
        elif kind == 1:
            path = files[i % len(files)]
            thunks.append(lambda p=path: client.getattr(p))
        elif kind == 2:
            path = "{}/sub{:05d}".format(directory, i)
            thunks.append(lambda p=path: client.mkdir(p))
        else:
            path = files[(i * 3) % len(files)]
            thunks.append(lambda p=path: client.getattr(p))

    sim_engine.heappush = recording_heappush
    try:
        result = run_closed_loop(cluster, thunks, num_threads=THREADS)
    finally:
        sim_engine.heappush = real_heappush

    network = cluster.network
    span_times = sorted(
        json.dumps({key: value for key, value in json.loads(line).items()
                    if key not in ("span", "parent", "op")}, sort_keys=True)
        for line in sink_buffer.getvalue().splitlines()
    )
    digest = {
        "ops": result.ops,
        "errors": result.errors,
        "final_now": cluster.env.now,
        "event_pushes": push_count,
        "event_order_sha256": pushes.hexdigest(),
        "trace_sha256": hashlib.sha256(
            sink_buffer.getvalue().encode()
        ).hexdigest(),
        "span_times_sha256": hashlib.sha256(
            "\n".join(span_times).encode()
        ).hexdigest(),
        "trace_spans": len(tracer.spans),
        "messages": network.message_count(),
        "responses": network.response_count(),
        "loaded_inodes": len(path_ino),
    }
    return digest


def main():
    digest = run_golden()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(digest, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
