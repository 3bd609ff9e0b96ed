"""Process-parallel execution of independent simulation tasks.

See :mod:`repro.parallel.pool` for the pool design and the
determinism/merge contract (ordered results, parent-side aggregation,
``jobs=1`` as the inline reference path).
"""

from repro.parallel.pool import (
    ParallelError,
    TaskResult,
    WorkerPool,
    pmap,
)

__all__ = [
    "ParallelError",
    "TaskResult",
    "WorkerPool",
    "pmap",
]
