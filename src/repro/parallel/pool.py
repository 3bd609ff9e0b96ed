"""Persistent process pool with ordered, crash-tolerant results.

The simulator is deterministic but single-threaded, so the cheap
structural speedup for seed exploration and experiment sweeps is
process parallelism over *independent* tasks with a deterministic
merge.  This module provides exactly that and nothing more:

* :class:`WorkerPool` — ``jobs`` long-lived worker processes, each
  spawned once (importing :mod:`repro` once) and reused for every task,
  so per-task cost is one pickle round-trip, not an interpreter start.
* :meth:`WorkerPool.imap` — a generator yielding one
  :class:`TaskResult` per task **in task order regardless of completion
  order** (a reorder buffer holds early finishers).  Consuming it
  partially and closing it (``break``) terminates the pool promptly —
  the early-exit path for "stop at the first ordered failure".
* :func:`pmap` — the convenience wrapper: run ``fn`` over ``tasks``,
  return the values in task order, raise :class:`ParallelError` if any
  task failed.  ``jobs <= 1`` runs inline in the parent, bit-identical
  to never having imported this module.

The determinism/merge contract callers rely on:

* ``fn`` must be a **module-level callable** (pickled by reference) and
  each task a picklable value; the return value must be picklable and
  *pure* — derived from the task alone, never from worker-local state.
* All aggregation happens in the parent, in task order.  Because every
  task is independent and results are re-ordered, ``jobs=8`` and
  ``jobs=1`` feed the parent the same record stream byte for byte.

Failure semantics:

* a task that **raises** is caught in the worker: the full traceback
  comes back in ``TaskResult.error`` and the worker survives for the
  next task;
* a worker that **dies** (segfault, ``os._exit``, OOM kill) fails only
  the task it was holding (``TaskResult.crashed`` set, exit code in the
  error) and is replaced so the remaining tasks still complete;
* **KeyboardInterrupt** in the parent terminates every worker and
  re-raises — no hang on a half-drained pipe.

Workers use the ``spawn`` start method: identical behaviour on every
platform, no inherited locks, and an import-clean child that proves
every task is self-contained.
"""

import multiprocessing
import traceback
from multiprocessing import connection


class TaskResult:
    """Outcome of one task: ``value`` on success, ``error`` (a formatted
    traceback or crash report) on failure."""

    __slots__ = ("index", "value", "error", "crashed")

    def __init__(self, index, value=None, error=None, crashed=False):
        self.index = index
        self.value = value
        self.error = error
        self.crashed = crashed

    @property
    def ok(self):
        return self.error is None

    def __repr__(self):
        status = "ok" if self.ok else ("crashed" if self.crashed
                                       else "error")
        return "TaskResult(index={}, {})".format(self.index, status)


class ParallelError(RuntimeError):
    """One or more tasks failed; ``failures`` holds their TaskResults."""

    def __init__(self, failures):
        self.failures = list(failures)
        first = self.failures[0]
        super().__init__(
            "{} of the parallel tasks failed; first failure "
            "(task {}):\n{}".format(
                len(self.failures), first.index, first.error))


def _worker_main(conn):
    """Worker loop: receive ``(index, fn, task)``, answer
    ``(index, error, value)``.  Runs until EOF or a ``None`` sentinel."""
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        except KeyboardInterrupt:
            return  # parent is tearing the pool down
        if item is None:
            return
        index, fn, task = item
        try:
            payload = (index, None, fn(task))
        except KeyboardInterrupt:
            return
        except BaseException:  # noqa: BLE001 - shipped to the parent
            payload = (index, traceback.format_exc(), None)
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            return
        except Exception:  # result not picklable — still answer
            conn.send((index,
                       "result for task {} is not picklable:\n{}".format(
                           index, traceback.format_exc()),
                       None))


class _Worker:
    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task = None  # index of the in-flight task, or None


class WorkerPool:
    """``jobs`` persistent worker processes behind :meth:`imap`.

    Use as a context manager; :meth:`close` joins idle workers,
    :meth:`terminate` kills them (both idempotent).
    """

    def __init__(self, jobs):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got {}".format(jobs))
        self._ctx = multiprocessing.get_context("spawn")
        self.jobs = int(jobs)
        self._workers = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _spawn_worker(self):
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def _retire(self, worker):
        self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join()

    def close(self):
        """Send every worker its shutdown sentinel and join."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    def terminate(self):
        """Kill every worker immediately (the interrupt path)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self._workers:
            worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.terminate()
        return False

    # -- execution -----------------------------------------------------

    def imap(self, fn, tasks):
        """Yield a :class:`TaskResult` per task, **in task order**.

        Dispatches eagerly to every idle worker, buffers out-of-order
        completions, and replaces crashed workers so one bad task never
        strands the rest.  Closing the generator early terminates the
        pool.
        """
        tasks = list(tasks)
        if self._closed:
            raise RuntimeError("pool is closed")
        while len(self._workers) < min(self.jobs, len(tasks)):
            self._spawn_worker()
        results = {}
        next_dispatch = 0
        next_yield = 0
        try:
            while next_yield < len(tasks):
                for worker in self._workers:
                    if worker.task is None and next_dispatch < len(tasks):
                        index = next_dispatch
                        try:
                            worker.conn.send((index, fn, tasks[index]))
                        except (BrokenPipeError, OSError):
                            continue  # dead worker; reaped below
                        worker.task = index
                        next_dispatch += 1
                while next_yield in results:
                    yield results.pop(next_yield)
                    next_yield += 1
                if next_yield >= len(tasks):
                    break
                busy = {w.conn: w for w in self._workers
                        if w.task is not None}
                if not busy:
                    # every worker died before accepting work
                    raise RuntimeError(
                        "worker pool has no live workers left")
                for ready in connection.wait(list(busy)):
                    worker = busy[ready]
                    try:
                        index, error, value = worker.conn.recv()
                    except (EOFError, OSError):
                        index = worker.task
                        worker.process.join()
                        results[index] = TaskResult(
                            index, error="worker crashed while running "
                            "task {} (exit code {})".format(
                                index, worker.process.exitcode),
                            crashed=True)
                        self._retire(worker)
                        self._spawn_worker()
                    else:
                        results[index] = TaskResult(index, value=value,
                                                    error=error)
                        worker.task = None
        except GeneratorExit:
            # the consumer broke out early — stop the in-flight work
            self.terminate()
            raise
        except BaseException:  # KeyboardInterrupt included: no hang
            self.terminate()
            raise


def pmap(tasks, fn, jobs=1):
    """Map ``fn`` over ``tasks``; return values in task order.

    ``jobs <= 1`` (or a single task) runs inline in the parent — the
    bit-identical serial reference path.  Otherwise the pool drains
    every task even after failures, then raises :class:`ParallelError`
    carrying each failure's traceback.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with WorkerPool(min(jobs, len(tasks))) as pool:
        results = list(pool.imap(fn, tasks))
    failures = [r for r in results if not r.ok]
    if failures:
        raise ParallelError(failures)
    return [r.value for r in results]
