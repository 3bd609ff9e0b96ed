"""Time CPython's cyclic garbage collector from outside.

A collection runs inside whichever allocation tripped the threshold, so
cProfile charges its time to the allocating function and no profile row
ever shows it.  ``gc.callbacks`` brackets every collection; timing the
brackets is the only way to see the collector's share of a run.
"""

import gc
from time import perf_counter


class CollectorTimer:
    """Context manager: seconds spent collecting, collections per
    generation and objects reclaimed while the body ran."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self.collected = 0
        self._start = None

    def _on_gc(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
            return
        self.seconds += perf_counter() - self._start
        self.collections[info["generation"]] += 1
        self.collected += info["collected"]

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def report(self):
        return ("cyclic collector: {:.3f}s in {}/{}/{} collections "
                "(gen0/gen1/gen2), {} unreachable objects reclaimed".format(
                    self.seconds, *self.collections, self.collected))
