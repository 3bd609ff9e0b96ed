"""Concurrent request merging (§4.4): typed queues and the worker pool.

Each MNode runs a fixed set of database worker processes behind a
connection pool.  Incoming client requests are classified into per-type
queues; an idle worker takes a whole queue and executes it as a single
batch (one transaction), which lets the executor coalesce lock
acquisitions and WAL appends.

With ``merging`` disabled (the *no merge* ablation of Fig 15a) the batch
size is one and every dispatch serializes through a shared queue lock —
the request-dispatch contention the paper identifies as the bottleneck.
"""

from collections import deque


class WorkerPool:
    """Schedules batches of same-kind requests onto worker processes.

    ``executor(kind, batch)`` is a generator a worker runs on a non-empty
    list of messages, busy until it returns (the MNode's returns at a
    write batch's WAL append and leaves the answers to the batch's tail,
    unless the tails already hold one full batch per worker).
    """

    def __init__(self, env, executor, workers, max_batch=32,
                 linger_us=0.0, merging=True):
        self.env = env
        self.executor = executor
        self.max_batch = max_batch if merging else 1
        self.linger_us = linger_us if merging else 0.0
        self.merging = merging
        #: Serializes dispatch in the no-merge configuration (shared
        #: request-queue contention).
        self.dispatch_lock = env.resource(capacity=1)
        self._queues = {}
        self._ready = env.store()
        self._scheduled = set()
        self.batches_executed = 0
        self.requests_executed = 0
        for _ in range(workers):
            env.process(self._worker())

    def submit(self, kind, message):
        """Enqueue a request; wakes a worker if the queue was idle."""
        queue = self._queues.get(kind)
        if queue is None:
            queue = deque()
            self._queues[kind] = queue
        queue.append(message)
        if kind not in self._scheduled:
            self._scheduled.add(kind)
            self._ready.put(kind)

    @property
    def average_batch_size(self):
        if self.batches_executed == 0:
            return 0.0
        return self.requests_executed / self.batches_executed

    def _worker(self):
        while True:
            kind = yield self._ready.get()
            if self.linger_us:
                # Brief accumulation window: trades a little latency for
                # larger batches (visible in Fig 11 vs Fig 10).
                yield self.env.schedule_timeout(self.linger_us)
            queue = self._queues[kind]
            pop = queue.popleft
            batch = [pop() for _ in range(min(len(queue), self.max_batch))]
            if queue:
                # Leftovers: hand the kind to the next idle worker.
                self._ready.put(kind)
            else:
                # No yield since the drain: the queue cannot have refilled.
                self._scheduled.discard(kind)
            if not batch:
                continue
            self.batches_executed += 1
            self.requests_executed += len(batch)
            yield from self.executor(kind, batch)
