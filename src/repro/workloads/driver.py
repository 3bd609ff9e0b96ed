"""Load drivers: closed-loop throughput, latency probes, training loops.

The throughput driver mirrors the paper's methodology (§6.2): a fixed
number of client threads issue operations back-to-back from a shared work
list until it drains; throughput is completed operations over elapsed
simulated time.  The training loop mirrors MLPerf Storage's accelerator
utilization metric (§6.8): per-GPU compute is overlapped with prefetching
the next batch, and AU is compute time over wall time.
"""

from dataclasses import dataclass, field

from repro.metrics import Histogram
from repro.net.rpc import RpcFailure


@dataclass
class ThroughputResult:
    """Outcome of a closed-loop run."""

    ops: int
    errors: int
    elapsed_us: float

    @property
    def ops_per_sec(self):
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops / (self.elapsed_us / 1e6)

    def __repr__(self):
        return "<Throughput {:.0f} ops/s ({} ops, {} errors)>".format(
            self.ops_per_sec, self.ops, self.errors
        )


@dataclass
class LatencyResult:
    """Per-operation latency distribution (microseconds)."""

    histogram: Histogram = field(default_factory=lambda: Histogram("latency"))

    @property
    def mean_us(self):
        return self.histogram.mean()

    def summary(self):
        return self.histogram.summary()


def run_closed_loop(cluster, thunks, num_threads):
    """Drive ``thunks`` (callables returning operation generators) with
    ``num_threads`` closed-loop workers; returns :class:`ThroughputResult`.
    """
    env = cluster.env
    iterator = iter(thunks)
    state = {"ops": 0, "errors": 0}

    def worker():
        while True:
            try:
                thunk = next(iterator)
            except StopIteration:
                return
            try:
                yield from thunk()
                state["ops"] += 1
            except RpcFailure:
                state["errors"] += 1

    start = env.now
    workers = [env.process(worker()) for _ in range(num_threads)]
    env.run(until=env.all_of(workers))
    return ThroughputResult(
        ops=state["ops"], errors=state["errors"],
        elapsed_us=env.now - start,
    )


def measure_latency(cluster, thunks):
    """Run ``thunks`` one at a time, recording per-op latency."""
    env = cluster.env
    result = LatencyResult()

    def runner():
        for thunk in thunks:
            start = env.now
            yield from thunk()
            result.histogram.observe(env.now - start)

    process = env.process(runner())
    env.run(until=process)
    return result


def training_run(cluster, clients, files, num_gpus, batch_size,
                 compute_us_per_batch, rng=None):
    """MLPerf-Storage-style training epoch; returns mean accelerator
    utilization across GPUs (0..1).

    Each simulated GPU prefetches its next batch (parallel file reads via
    its client) while computing on the current one; AU is the fraction of
    wall time spent computing.  Files are consumed from one shared,
    shuffled epoch list (each file read exactly once — §2.2's random
    traversal pattern).
    """
    env = cluster.env
    order = list(files)
    if rng is not None:
        rng.shuffle(order)
    iterator = iter(order)
    utilizations = []

    def take_batch():
        batch = []
        for _ in range(batch_size):
            try:
                batch.append(next(iterator))
            except StopIteration:
                break
        return batch

    def fetch(client, batch):
        reads = [env.process(client.read_file(path)) for path in batch]
        yield env.all_of(reads)

    def gpu(index):
        client = clients[index % len(clients)]
        batch = take_batch()
        if not batch:
            return
        inflight = env.process(fetch(client, batch))
        yield inflight  # initial prefetch: excluded from the AU window
        start = env.now
        compute_total = 0.0
        nxt = take_batch()
        inflight = env.process(fetch(client, nxt)) if nxt else None
        while True:
            yield env.schedule_timeout(compute_us_per_batch)
            compute_total += compute_us_per_batch
            if inflight is None:
                break
            yield inflight
            nxt = take_batch()
            inflight = env.process(fetch(client, nxt)) if nxt else None
        elapsed = env.now - start
        if elapsed > 0:
            utilizations.append(compute_total / elapsed)

    gpus = [env.process(gpu(i)) for i in range(num_gpus)]
    env.run(until=env.all_of(gpus))
    if not utilizations:
        return 1.0
    return sum(utilizations) / len(utilizations)
